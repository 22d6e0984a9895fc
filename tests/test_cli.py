"""Command line behavior: exit codes, output contracts, reruns."""

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import understanding_sat
from understanding_sat import cli
from understanding_sat.cnf import emit_dimacs
from understanding_sat.harness import CounterexampleRecord, GenSpec, adjudicate, gen_random, replay
from understanding_sat.solver import SolverOutcome

from helpers import full_sign_instance, order_trap_instance

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture()
def sat_file(tmp_path):
    path = tmp_path / "single.cnf"
    path.write_text("p cnf 3 1\n1 2 3 0\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def trap_file(tmp_path):
    path = tmp_path / "trap.cnf"
    path.write_text(emit_dimacs(order_trap_instance()), encoding="utf-8")
    return str(path)


@pytest.fixture()
def core_file(tmp_path):
    path = tmp_path / "core.cnf"
    path.write_text(emit_dimacs(full_sign_instance()), encoding="utf-8")
    return str(path)


class TestSolveCommand:
    def test_sat_exit_and_lines(self, sat_file, capsys):
        code = cli.main(["solve", sat_file])
        out, err = capsys.readouterr()
        assert code == 10
        assert "s SATISFIABLE" in out
        assert "v 1 -2 -3 0" in out
        assert "c ops 6" in err

    def test_quiet_suppresses_model(self, sat_file, capsys):
        code = cli.main(["solve", sat_file, "--quiet"])
        out, _ = capsys.readouterr()
        assert code == 10
        assert "v " not in out

    def test_unsat_exit_and_failing_clause(self, trap_file, capsys):
        code = cli.main(["solve", trap_file])
        out, _ = capsys.readouterr()
        assert code == 20
        assert "c failing-clause 3" in out
        assert "s UNSATISFIABLE" in out

    def test_permuted_order_flips_the_trap(self, trap_file, capsys):
        code = cli.main(["solve", trap_file, "--order", "perm", "--seed", "0"])
        out, _ = capsys.readouterr()
        assert code == 10
        assert "v -1 -2 -3 0" in out

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("p cnf 3 1\n1 2 3 0\n"))
        code = cli.main(["solve", "-"])
        out, _ = capsys.readouterr()
        assert code == 10
        assert "s SATISFIABLE" in out

    def test_trace_goes_to_stderr(self, sat_file, capsys):
        code = cli.main(["solve", sat_file, "--trace"])
        out, err = capsys.readouterr()
        assert code == 10
        kinds = [json.loads(line)["kind"] for line in err.splitlines() if line.startswith("{")]
        assert "U1_CLAUSE" in kinds and "VERDICT" in kinds
        assert not any(line.startswith("{") for line in out.splitlines())

    def test_anomaly_exit(self, sat_file, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "solve", lambda inst, cfg: SolverOutcome(kind="anomaly", anomaly="DepthGuard")
        )
        code = cli.main(["solve", sat_file])
        out, _ = capsys.readouterr()
        assert code == 30
        assert "s ANOMALY DepthGuard" in out


class TestOracleCommand:
    def test_sat(self, trap_file, capsys):
        code = cli.main(["oracle", trap_file])
        out, err = capsys.readouterr()
        assert code == 10
        assert "s SATISFIABLE" in out
        assert out.count("v ") == 1
        assert "method brute" in err

    def test_unsat(self, core_file, capsys):
        code = cli.main(["oracle", core_file, "--method", "dpll"])
        out, err = capsys.readouterr()
        assert code == 20
        assert "s UNSATISFIABLE" in out
        assert "method dpll" in err

    def test_dpll_decides_a_chain_longer_than_the_recursion_limit(self, tmp_path, capsys):
        # DPLL decides every variable of the satisfiable chain
        # (v, v+1, v+2); it searches in a loop, so a chain longer than
        # the recursion limit is answered like any other.
        n = sys.getrecursionlimit() + 500
        lines = [f"p cnf {n} {n - 2}"] + [f"{v} {v + 1} {v + 2} 0" for v in range(1, n - 1)]
        path = tmp_path / "chain.cnf"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = cli.main(["oracle", str(path), "--method", "dpll"])
        out, err = capsys.readouterr()
        assert code == 10
        assert out.startswith("s SATISFIABLE\n")
        assert f"c nodes {n + 1} method dpll" in err

    def test_recursion_limit_is_an_anomaly_exit(self, core_file, capsys, monkeypatch):
        def recurse_too_deep(inst, method):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "run_oracle", recurse_too_deep)
        code = cli.main(["oracle", core_file, "--method", "dpll"])
        out, err = capsys.readouterr()
        assert code == 30
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "recursion" in err
        assert "Traceback" not in err


class TestCorpusCommands:
    FUZZ = ["fuzz", "--n", "5", "--m", "30", "--count", "10", "--seed", "0"]

    def test_fuzz_summary_and_files_are_reproducible(self, tmp_path, capsys):
        out1 = tmp_path / "a.jsonl"
        code = cli.main(self.FUZZ + ["--out", str(out1)])
        stdout1, _ = capsys.readouterr()
        assert code == 0
        summary = json.loads(stdout1)
        assert summary["total"] == 10
        assert summary["clean"] is False
        assert summary["counts"]["FalseUnsat"] == 1
        assert len(out1.read_text().splitlines()) == 10
        csv_text = (tmp_path / "a.jsonl.summary.csv").read_text()
        assert csv_text.startswith("kind,count\n")
        assert "total,10" in csv_text

        out2 = tmp_path / "b.jsonl"
        code = cli.main(self.FUZZ + ["--out", str(out2)])
        stdout2, _ = capsys.readouterr()
        assert code == 0
        assert stdout1 == stdout2
        assert out1.read_bytes() == out2.read_bytes()

    def test_fuzz_counterexample_records_replay(self, tmp_path, capsys):
        cex_dir = tmp_path / "cex"
        code = cli.main(self.FUZZ + ["--cex-dir", str(cex_dir)])
        capsys.readouterr()
        assert code == 0
        files = sorted(cex_dir.iterdir())
        assert [f.name for f in files] == ["cex-00000.json"]
        record = CounterexampleRecord.from_dict(json.loads(files[0].read_text()))
        assert record.kind == "FalseUnsat"
        assert replay(record) == "FalseUnsat"

    def test_seed_env_overrides_argument(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "env.jsonl"
        monkeypatch.setenv("UNDERSTANDING_SAT_SEED", "5")
        cli.main(self.FUZZ + ["--out", str(out)])
        overridden, _ = capsys.readouterr()
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [row["seed"] for row in rows] == list(range(5, 15))
        monkeypatch.delenv("UNDERSTANDING_SAT_SEED")
        direct_out = tmp_path / "direct.jsonl"
        cli.main(["fuzz", "--n", "5", "--m", "30", "--count", "10", "--seed", "5",
                  "--out", str(direct_out)])
        direct, _ = capsys.readouterr()
        assert overridden == direct
        assert out.read_bytes() == direct_out.read_bytes()

    def test_enumerate_small_corpus(self, tmp_path, capsys):
        out = tmp_path / "enum.jsonl"
        code = cli.main(["enumerate", "--max-n", "2", "--max-m", "2", "--out", str(out)])
        stdout, _ = capsys.readouterr()
        assert code == 0
        summary = json.loads(stdout)
        assert summary == {"clean": True, "counts": {"AgreeSat": 11}, "total": 11}
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 11
        assert all(row["kind"] == "AgreeSat" for row in rows)


    def test_enumerate_corpus_matches_the_frozen_table(self, tmp_path, capsys):
        # The exhaustive corpus through the CLI: the summary, the JSONL
        # ``ops`` column and every written record are pinned.
        out = tmp_path / "enum.jsonl"
        cex_dir = tmp_path / "cex"
        code = cli.main(["enumerate", "--max-n", "3", "--max-m", "4",
                         "--out", str(out), "--cex-dir", str(cex_dir)])
        stdout, _ = capsys.readouterr()
        assert code == 0
        assert json.loads(stdout) == {
            "clean": False,
            "counts": {"AgreeSat": 6160, "FalseUnsat": 6},
            "total": 6166,
        }
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 6166
        assert sum(row["ops"] for row in rows) == 184_468
        records = [
            CounterexampleRecord.from_dict(json.loads(path.read_text()))
            for path in sorted(cex_dir.iterdir())
        ]
        assert len(records) == 6
        assert [replay(record) for record in records] == ["FalseUnsat"] * 6

    def test_failed_run_leaves_no_report_files(self, tmp_path, capsys, monkeypatch):
        real = cli.adjudicate

        def fail_on_first_row(items, cfg, oracle):
            next(real(items, cfg, oracle))
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "adjudicate", fail_on_first_row)
        out = tmp_path / "r.jsonl"
        code = cli.main(self.FUZZ + ["--out", str(out), "--cex-dir", str(tmp_path / "cex")])
        stdout, err = capsys.readouterr()
        assert code == 30
        assert stdout == "" and err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    def test_run_failing_after_written_rows_removes_them(self, tmp_path, capsys, monkeypatch):
        real = cli.adjudicate

        def two_rows_then_fail(items, cfg, oracle):
            rows = real(items, cfg, oracle)
            yield next(rows)
            yield next(rows)
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "adjudicate", two_rows_then_fail)
        out = tmp_path / "r.jsonl"
        code = cli.main(self.FUZZ + ["--out", str(out), "--cex-dir", str(tmp_path / "cex")])
        stdout, err = capsys.readouterr()
        assert code == 30
        assert stdout == "" and err.startswith("error:")
        assert list(tmp_path.iterdir()) == []


class TestMinimizeCommand:
    def test_minimize_record_file(self, tmp_path, capsys):
        cex_dir = tmp_path / "cex"
        cli.main(TestCorpusCommands.FUZZ + ["--cex-dir", str(cex_dir)])
        capsys.readouterr()
        record_path = cex_dir / "cex-00000.json"
        out_path = tmp_path / "min.json"
        code = cli.main(["minimize", str(record_path), "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        shrunk = CounterexampleRecord.from_dict(json.loads(out_path.read_text()))
        assert shrunk.minimized is True
        assert shrunk.kind == "FalseUnsat"
        original = CounterexampleRecord.from_dict(json.loads(record_path.read_text()))
        assert shrunk.dimacs.count("\n") <= original.dimacs.count("\n")
        assert replay(shrunk) == "FalseUnsat"

    def test_minimize_prints_to_stdout_without_out(self, tmp_path, capsys):
        cex_dir = tmp_path / "cex"
        cli.main(TestCorpusCommands.FUZZ + ["--cex-dir", str(cex_dir)])
        capsys.readouterr()
        code = cli.main(["minimize", str(cex_dir / "cex-00000.json")])
        stdout, _ = capsys.readouterr()
        assert code == 0
        assert json.loads(stdout)["minimized"] is True


class TestBenchCommand:
    def test_fit_line_and_files(self, tmp_path, capsys):
        out = tmp_path / "bench.jsonl"
        args = ["bench", "--pairs", "4:8,5:15,6:24,7:35,8:48", "--reps", "2",
                "--seed", "3", "--out", str(out)]
        code = cli.main(args)
        stdout1, _ = capsys.readouterr()
        assert code == 0
        fit = json.loads(stdout1)
        assert set(fit) == {"exponent", "r_squared", "sample_count", "m_min", "m_max"}
        assert fit["sample_count"] == 10
        assert (fit["m_min"], fit["m_max"]) == (8, 48)
        assert len(out.read_text().splitlines()) == 10
        header = (tmp_path / "bench.jsonl.summary.csv").read_text().splitlines()[0]
        assert header == "exponent,intercept,r_squared,sample_count,m_min,m_max"
        code = cli.main(args)
        stdout2, _ = capsys.readouterr()
        assert stdout1 == stdout2

    @pytest.mark.parametrize("spec", ["5", "5:x", ""])
    def test_malformed_pairs_name_the_option_and_entry(self, capsys, spec):
        code = cli.main(["bench", "--pairs", spec, "--reps", "1"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == f"error: --pairs entry {spec!r} is not n:m with integers n and m\n"

    def test_unfittable_run_is_a_usage_error(self, tmp_path, capsys):
        # The fit comes first: a run that cannot be fitted writes no file.
        code = cli.main(["bench", "--pairs", "5:10", "--reps", "1",
                         "--out", str(tmp_path / "b.jsonl")])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == "error: need at least 5 decided samples, got 1\n"
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_summary_removes_the_samples(self, tmp_path, capsys):
        # A directory stands where the CSV summary goes: the samples file,
        # already written, is removed and only the directory is left.
        out = tmp_path / "r.jsonl"
        blocker = tmp_path / "r.jsonl.summary.csv"
        blocker.mkdir()
        code = cli.main(["bench", "--pairs", "5:5,5:20", "--reps", "3", "--out", str(out)])
        stdout, err = capsys.readouterr()
        assert code == 1
        assert stdout == "" and err.startswith("error:")
        assert list(tmp_path.iterdir()) == [blocker]


@pytest.mark.parametrize("writer", ["_write_lines", "_write_csv"])
def test_report_writer_removes_its_half_written_file(tmp_path, writer):
    # The rows stop on an error after one has been written.
    def rows():
        yield "first" if writer == "_write_lines" else ["first", 1]
        raise OSError("No space left on device")

    path = tmp_path / "report"
    with pytest.raises(OSError, match="No space left"):
        getattr(cli, writer)(str(path), rows())
    assert list(tmp_path.iterdir()) == []


class TestDefaultBytes:
    FUZZ = TestCorpusCommands.FUZZ
    RUNS = [
        FUZZ + ["--order", "input", "--out", "fuzz-input.jsonl", "--cex-dir", "cex-input"],
        FUZZ + ["--order", "perm", "--out", "fuzz-perm.jsonl", "--cex-dir", "cex-perm"],
        ["enumerate", "--max-n", "2", "--max-m", "3", "--out", "enum.jsonl",
         "--cex-dir", "cex-enum"],
        ["bench", "--pairs", "4:8,5:15,6:24,7:35,8:48", "--reps", "2", "--seed", "3",
         "--out", "bench.jsonl"],
        ["minimize", "cex-input/cex-00000.json", "--out", "min.json"],
    ]
    # sha256 of each command's stdout, in RUNS order, then of every file
    # the commands write.  Any change to a default report's bytes fails
    # here; a change meant to make one must say so and record new digests.
    STDOUT = [
        "b8f88c1492fb21be1b92e100cf8ffb235199beeeceb99a42df11753bbc010269",
        "b8f88c1492fb21be1b92e100cf8ffb235199beeeceb99a42df11753bbc010269",
        "961dde64b32b9db9e09d8b87bb4c16bbe27ff70242fa4e37b005ef80c04d2e71",
        "edd00365a3a8e38bdb9b4e6e85c1fc9509d912d7daf632d5b8f35e628a9c70f5",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ]
    FILES = {
        "bench.jsonl": "0f56e67f1740fd558c6629665de96f24da665f80c3599fab1917e01efd1fef0f",
        "bench.jsonl.summary.csv":
            "2e2eda2bc3c8352254f0e52cfe30a574507b0d6a67671a543ba4561053545412",
        "cex-input/cex-00000.json":
            "440980ef344cfa34a6fe41c2d969bd9cf315e4724121838f1d2a37f7b717ce96",
        "cex-perm/cex-00000.json":
            "e921500ab6cc52cfd4b03e92712145583ad71d8b9ae2b662f9a58fb2bd9d3af8",
        "enum.jsonl": "d5bbfd512e5cd8e3c715bc28b13e49140e73d5803e1f43d690fe213d2df81354",
        "enum.jsonl.summary.csv":
            "9facb58e1458944945faeb4bb6576133975ce303dba4fed1b536158b8426f511",
        "fuzz-input.jsonl": "398ee97184284d43663e3af239b00d2b1ffac1a4672134b2bd4877abd40f18ea",
        "fuzz-input.jsonl.summary.csv":
            "dea849968636e650df2a063c1dba95c4216b32bbf70f1e9452209f7aa0a945e4",
        "fuzz-perm.jsonl": "067cf1ef3da5e30bf347092d9d81aeb487465e9b2f0827318cc962e930248512",
        "fuzz-perm.jsonl.summary.csv":
            "dea849968636e650df2a063c1dba95c4216b32bbf70f1e9452209f7aa0a945e4",
        "min.json": "9e88e42f19a929b56fabcf018e84fa3cde8a6b1f242c9ea75e3ecc1bcfa68be1",
    }

    def test_default_reports_keep_their_bytes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("UNDERSTANDING_SAT_SEED", raising=False)
        stdout = []
        for argv in self.RUNS:
            assert cli.main(argv) == 0, argv
            stdout.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
        assert stdout == self.STDOUT
        files = {
            path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tmp_path.rglob("*"))
            if path.is_file()
        }
        assert files == self.FILES

    def test_solve_trace_keeps_its_bytes(self, tmp_path, capsys):
        # A draw past the threshold: 926 events, among them 45 G_*
        # events, the events of 13 replayed stored trials and three
        # CONTRADICTIONs.  sha256 of stdout, then of stderr (the ops line
        # and every trace line), recorded before events became tuples.
        path = tmp_path / "draw.cnf"
        path.write_text(emit_dimacs(gen_random(GenSpec(n=8, m=34, seed=0))), encoding="utf-8")
        assert cli.main(["solve", str(path), "--trace"]) == 20
        out, err = capsys.readouterr()
        assert [hashlib.sha256(s.encode()).hexdigest() for s in (out, err)] == [
            "97fd0c6917694763653dde1eeb8325c4e0c766287e52051a263dcd0fe7f6dd0b",
            "02c0caf9eccccda2518fd170be81200f45a45fc657fa0ef69000b940dd93dd30",
        ]
        assert len(err.splitlines()) == 1 + 926


class TestErrors:
    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["prove"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv", [["solve"], ["oracle"], ["oracle", "--method", "dpll"]], ids=["solve", "auto", "dpll"]
    )
    def test_variable_count_too_large_to_allocate(self, argv, tmp_path, capsys):
        # The count parses (its 2n + 1 is sys.maxsize), and each literal
        # table it sizes fails at once: one error line, no traceback.
        n = (sys.maxsize - 1) // 2
        path = tmp_path / "huge.cnf"
        path.write_text(f"p cnf {n} 1\n1 2 3 0\n", encoding="utf-8")
        assert cli.main([argv[0], str(path), *argv[1:]]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: variable count {n} is too large to allocate\n")

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["solve", str(tmp_path / "nope.cnf")]) == 1
        _, err = capsys.readouterr()
        assert "error:" in err

    @pytest.mark.parametrize(
        "record,fragment",
        [
            ({"dimacs": "p cnf 3 1\n1 2 3 0\n", "solver_outcome": {},
              "oracle_verdict": {}, "kind": "FalseUnsat"}, "'config'"),
            ({"dimacs": "p cnf 3 1\n1 2 3 0\n", "config": {"bogus": 1},
              "solver_outcome": {}, "oracle_verdict": {}, "kind": "FalseUnsat"},
             "'bogus' is not a SolveConfig field"),
            (["not", "a", "record"], "JSON object"),
            ({"dimacs": "p cnf 3 1\n1 2 3 0\n", "config": {"default_free": "1"},
              "solver_outcome": {}, "oracle_verdict": {}, "kind": "FalseUnsat"},
             "'default_free' must be int, not str"),
            ({"dimacs": "p cnf 3 1\n1 2 3 0\n", "config": {"clause_order": 3},
              "solver_outcome": {}, "oracle_verdict": {}, "kind": "FalseUnsat"},
             "'clause_order' must be str, not int"),
            ({"dimacs": "p cnf 3 1\n1 2 3 0\n", "config": {"order_seed": "x"},
              "solver_outcome": {}, "oracle_verdict": {}, "kind": "FalseUnsat"},
             "'order_seed' must be int or null, not str"),
            ({"dimacs": "p cnf 3 1\n1 2 3 0\n", "config": {"order_seed": True},
              "solver_outcome": {}, "oracle_verdict": {}, "kind": "FalseUnsat"},
             "'order_seed' must be int or null, not bool"),
            ({"dimacs": "p cnf 3 1\n1 2 3 0\n", "config": {"default_free": 2},
              "solver_outcome": {}, "oracle_verdict": {}, "kind": "FalseUnsat"},
             "'default_free' must be 0 or 1, not 2"),
            ({"dimacs": "p cnf 3 1\n1 2 3 0\n", "config": {"default_free": -1},
              "solver_outcome": {}, "oracle_verdict": {}, "kind": "FalseUnsat"},
             "'default_free' must be 0 or 1, not -1"),
            ({"dimacs": "p cnf 3 1\n1 2 3 0\n", "config": {"clause_order": "random"},
              "solver_outcome": {}, "oracle_verdict": {}, "kind": "FalseUnsat"},
             "'clause_order' must be 'input' or 'perm', not 'random'"),
            ({"dimacs": "p cnf 3 1\n1 2 3 0\n",
              "config": {"clause_order": "perm", "order_seed": None},
              "solver_outcome": {}, "oracle_verdict": {}, "kind": "FalseUnsat"},
             "'order_seed' must be an int when 'clause_order' is 'perm', not null"),
            ({"dimacs": "p cnf 3 1\n1 2 3 0\n", "config": {"clause_order": "perm"},
              "solver_outcome": {}, "oracle_verdict": {}, "kind": "FalseUnsat"},
             "'order_seed' must be an int when 'clause_order' is 'perm', not null"),
            ({"dimacs": "p cnf 3 1\n1 2 3 0\n", "config": {}, "solver_outcome": {},
              "oracle_verdict": {}, "kind": "banana"},
             "'kind' must be one of AgreeSat, AgreeUnsat, FalseSat, FalseUnsat, Anomaly,"
             " not 'banana'"),
            ({"dimacs": "p cnf 3 1\n1 2 3 0\n", "config": {}, "solver_outcome": {},
              "oracle_verdict": {}, "kind": "FalseUnsat", "minimized": "no"},
             "'minimized' must be true or false, not str 'no'"),
            # A valid record whose instance no longer adjudicates as its kind.
            ({"dimacs": "p cnf 3 1\n1 2 3 0\n", "config": {}, "solver_outcome": {},
              "oracle_verdict": {}, "kind": "FalseUnsat"},
             "adjudicates as AgreeSat, not as its kind FalseUnsat"),
            ({"dimacs": "p cnf 3 1\n1 2 3 0\n", "config": {}, "solver_outcome": {},
              "oracle_verdict": {}, "kind": "FalseUnsat", "note": "x"},
             "'note' is not a CounterexampleRecord field"),
            ({"dimacs": "p cnf 3 1\n1 2 3 0\n", "config": [], "solver_outcome": {},
              "oracle_verdict": {}, "kind": "FalseUnsat"},
             "'config' must be dict, not list"),
            ({"dimacs": 3, "config": {}, "solver_outcome": {},
              "oracle_verdict": {}, "kind": "FalseUnsat"},
             "'dimacs' must be str, not int"),
            # Raw file text: JSON nested deeper than the decoder can recurse.
            pytest.param("[" * 100000 + "]" * 100000, "too deeply", id="deeply-nested"),
            # A record written while the config still had a repair depth
            # guard factor.
            ({"dimacs": "p cnf 3 1\n1 2 3 0\n",
              "config": {"clause_order": "input", "order_seed": None, "default_free": 0,
                         "trace": False, "depth_guard_factor": 2},
              "solver_outcome": {}, "oracle_verdict": {}, "kind": "FalseUnsat"},
             "'depth_guard_factor' is not a SolveConfig field"),
        ],
    )
    def test_malformed_record(self, tmp_path, capsys, record, fragment):
        path = tmp_path / "record.json"
        text = record if isinstance(record, str) else json.dumps(record)
        path.write_text(text, encoding="utf-8")
        assert cli.main(["minimize", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert fragment in err
        assert "Traceback" not in err
        assert cli.main(["minimize", str(path), "--out", str(tmp_path / "min.json")]) == 1
        assert capsys.readouterr().err == err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("cmd", ["fuzz", "enumerate", "bench", "minimize"])
    def test_out_that_cannot_be_opened(self, tmp_path, capsys, cmd):
        record = next(adjudicate([(None, order_trap_instance())])).record()
        record_path = tmp_path / "record.json"
        record_path.write_text(json.dumps(record.as_dict()), encoding="utf-8")
        argv = {
            "fuzz": TestCorpusCommands.FUZZ,
            "enumerate": ["enumerate", "--max-n", "2", "--max-m", "2"],
            "bench": ["bench", "--pairs", "4:8,5:15,6:24,7:35,8:48", "--reps", "1"],
            "minimize": ["minimize", str(record_path)],
        }[cmd]
        out_path = tmp_path / "missing" / "r.jsonl"
        assert cli.main(argv + ["--out", str(out_path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert repr(str(out_path)) in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [record_path]

    @pytest.mark.parametrize(
        "argv",
        [TestCorpusCommands.FUZZ, ["enumerate", "--max-n", "3", "--max-m", "4"]],
        ids=["fuzz", "enumerate"],
    )
    def test_cex_dir_that_cannot_be_made(self, tmp_path, capsys, argv):
        # The records are written after the JSONL and its CSV summary; a
        # ``--cex-dir`` that is a plain file fails there, and takes the
        # reports already written with it.
        cex_file = tmp_path / "cexfile"
        cex_file.write_text("", encoding="utf-8")
        out_path = tmp_path / "r.jsonl"
        assert cli.main(argv + ["--out", str(out_path), "--cex-dir", str(cex_file)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [cex_file]

    @pytest.mark.parametrize(
        "argv,option",
        [
            (["fuzz", "--n", "5", "--count", "-1"], "--count"),
            (["fuzz", "--n", "5", "--ratio", "-1"], "--ratio"),
            (["fuzz", "--n", "5", "--ratio", "-0.5", "--count", "0"], "--ratio"),
            (["enumerate", "--max-n", "-1", "--max-m", "2"], "--max-n"),
            (["enumerate", "--max-n", "2", "--max-m", "-1"], "--max-m"),
            (["bench", "--pairs", "4:8,5:15,6:24,7:35,8:48", "--reps", "-1"], "--reps"),
        ],
    )
    def test_negative_sizes_are_usage_errors(self, tmp_path, capsys, argv, option):
        out_path = tmp_path / "r.jsonl"
        assert cli.main(argv + ["--out", str(out_path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {option} must be non-negative")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("ratio", ["inf", "-inf", "nan"])
    def test_ratio_that_is_not_finite_is_a_usage_error(self, tmp_path, capsys, ratio):
        # ``round`` raises OverflowError on an infinity and a ValueError
        # that names no option on NaN.
        out_path = tmp_path / "r.jsonl"
        assert cli.main(["fuzz", "--n", "5", f"--ratio={ratio}", "--out", str(out_path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --ratio must be finite, not {float(ratio)}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [["fuzz", "--n", "5", "--count", "1"], ["bench", "--pairs", "4:8", "--reps", "1"]],
        ids=["fuzz", "bench"],
    )
    def test_seed_env_that_is_not_an_integer(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("UNDERSTANDING_SAT_SEED", "abc")
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: UNDERSTANDING_SAT_SEED must be an integer, not 'abc'\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["fuzz", "--n", "3", "--ratio", "1e308", "--count", "1"],
            ["fuzz", "--n", "1" + "0" * 400, "--count", "1"],
            ["fuzz", "--n", str(10**30), "--m", "3", "--count", "1"],
            ["bench", "--pairs", f"{10**30}:3", "--reps", "1"],
        ],
        ids=["ratio-times-n", "n-past-float", "fuzz-n-past-index", "bench-n-past-index"],
    )
    def test_sizes_past_any_draw_are_usage_errors(self, capsys, argv):
        # Unchecked, each overflows: ``round`` of an infinite product, an
        # int past a float's range, and ``random.sample`` over a range
        # longer than ``sys.maxsize``.
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_zero_sizes_still_run(self, capsys):
        assert cli.main(["fuzz", "--n", "5", "--count", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["total"] == 0

    @pytest.mark.parametrize(
        "argv", [["solve"], ["oracle", "--method", "dpll"]], ids=["solve", "oracle-dpll"]
    )
    def test_variable_count_too_large_to_index(self, tmp_path, capsys, argv):
        # 2n + 1 literal slots past sys.maxsize: refused at the header,
        # before anything sized by n is built.
        path = tmp_path / "huge.cnf"
        path.write_text("p cnf 10000000000000000000 1\n1 2 3 0\n", encoding="utf-8")
        assert cli.main(argv + [str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: line 1: variable count 10000000000000000000")
        assert err.count("\n") == 1

    def test_bad_dimacs(self, tmp_path, capsys):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 3 1\n1 2 3\n", encoding="utf-8")
        assert cli.main(["solve", str(bad)]) == 1
        _, err = capsys.readouterr()
        assert "error:" in err
        assert "end with 0" in err


def _declared_console_script(name: str) -> str:
    """The ``module:function`` target that ``pyproject.toml`` declares
    for console script ``name`` under ``[project.scripts]``.

    Read line by line rather than with ``tomllib``, which the supported
    Python 3.10 lacks; the table is plain ``name = "target"`` lines.
    """
    table = None
    for line in PYPROJECT.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("["):
            table = line
            continue
        key, sep, value = line.partition("=")
        if table == "[project.scripts]" and sep and key.strip() == name:
            return value.strip().strip("\"'")
    raise AssertionError(f"{PYPROJECT} declares no console script {name!r}")


def test_console_script_smoke(tmp_path):
    # The declared entry point must be the `main` the in-process tests
    # drive, and it must carry exit code 10 and the status line across a
    # process boundary.  The child starts the target exactly as a
    # console-script wrapper does, so no install is needed; an installed
    # `usat` on PATH is run as well.  Both import the package this suite
    # imported, first on the child's PYTHONPATH.
    target = _declared_console_script("usat")
    assert target == f"{cli.main.__module__}:{cli.main.__qualname__}"
    module, _, func = target.partition(":")
    package_root = str(Path(understanding_sat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    path = tmp_path / "single.cnf"
    path.write_text("p cnf 3 1\n1 2 3 0\n", encoding="utf-8")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    commands = [[sys.executable, "-c", wrapper, "solve", str(path)]]
    installed = shutil.which("usat")
    if installed:
        commands.append([installed, "solve", str(path)])
    for command in commands:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=60, env=env
        )
        assert proc.returncode == 10, (command, proc.stderr)
        assert "s SATISFIABLE" in proc.stdout, (command, proc.stdout)

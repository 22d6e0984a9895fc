"""Differential harness: generators, classification, records, fits."""

import contextlib
import itertools
import math
from dataclasses import replace

import pytest

from understanding_sat import harness
from understanding_sat.cnf import build_instance, parse_dimacs
from understanding_sat.harness import (
    DISAGREEMENT_KINDS,
    ComplexitySample,
    CounterexampleRecord,
    DiffReport,
    GenSpec,
    adjudicate,
    bench_samples,
    classify,
    diff_run,
    enumerate_small,
    fit_complexity,
    gen_random,
    minimize,
    replay,
    run_oracle,
)
from understanding_sat.oracle import OracleVerdict
from understanding_sat.solver import ANOMALY_GUARD, SolveConfig, SolverOutcome, advance, solve

import helpers
from helpers import (
    capped_repairs,
    fuzz_specs,
    order_trap_instance,
    removable_clauses,
    restarting_minimize,
)


class TestGenSpec:
    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            GenSpec(n=-1, m=2, seed=1).validate()

    def test_overfull_draw_rejected(self):
        # only 8 * C(3,3) = 8 distinct clauses exist over 3 variables
        with pytest.raises(ValueError):
            GenSpec(n=3, m=9, seed=1).validate()

    def test_draws_are_deterministic_and_distinct(self):
        spec = GenSpec(n=6, m=10, seed=42)
        a = gen_random(spec)
        b = gen_random(spec)
        assert a == b
        sets = [frozenset(c.literals) for c in a.clauses]
        assert len(set(sets)) == 10
        for c in a.clauses:
            assert len({abs(l) for l in c.literals}) == 3


class TestEnumerateSmall:
    def test_count_two_vars(self):
        assert sum(1 for _ in enumerate_small(2, 2)) == 11

    def test_count_three_vars(self):
        assert sum(1 for _ in enumerate_small(3, 4)) == 6166

    def test_counts_match_inclusion_exclusion(self):
        # Instances whose support is exactly {1..n} with m clauses:
        # subtract instances fitting inside any smaller variable set.
        def exact(n, m):
            total = 0
            for j in range(0, n + 1):
                universe = math.comb(2 * j, 3)
                total += (-1) ** (n - j) * math.comb(n, j) * math.comb(universe, m)
            return total

        want = sum(exact(n, m) for n in range(0, 4) for m in range(0, 5))
        assert want == 6166
        assert sum(exact(n, m) for n in range(0, 3) for m in range(0, 3)) == 11

    def test_support_is_exact(self):
        for inst in enumerate_small(2, 2):
            support = {abs(l) for c in inst.clauses for l in c.literals}
            assert support == set(range(1, inst.variable_count + 1))

    def test_cap(self):
        with pytest.raises(ValueError):
            list(enumerate_small(5, 1))


class TestClassify:
    @pytest.mark.parametrize(
        "kind,oracle_sat,want",
        [
            ("sat", True, "AgreeSat"),
            ("sat", False, "FalseSat"),
            ("unsat", True, "FalseUnsat"),
            ("unsat", False, "AgreeUnsat"),
            ("anomaly", True, "Anomaly"),
            ("anomaly", False, "Anomaly"),
        ],
    )
    def test_table(self, kind, oracle_sat, want):
        outcome = SolverOutcome(kind=kind)
        verdict = OracleVerdict(sat=oracle_sat, model=None, nodes=1, method="brute")
        assert classify(outcome, verdict) == want

    def test_disagreement_kinds_are_the_non_agreeing_bins(self):
        assert set(DISAGREEMENT_KINDS) == {"FalseSat", "FalseUnsat", "Anomaly"}


class TestRunOracle:
    def test_auto_picks_brute_for_small(self):
        assert run_oracle(build_instance(3, [(1, 2, 3)]), "auto").method == "brute"

    def test_auto_picks_backtracker_for_large(self):
        inst = build_instance(13, [(1, 2, 3)])
        assert run_oracle(inst, "auto").method == "dpll"

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ValueError):
            run_oracle(build_instance(3, [(1, 2, 3)]), "cdcl")


class TestDiffRun:
    def test_two_var_enumeration_is_all_agree_sat(self):
        report = diff_run(enumerate_small(2, 2))
        assert report.total == 11
        assert report.counts == {"AgreeSat": 11}
        assert report.clean is True
        assert report.counterexamples == []

    def test_disagreement_produces_a_replayable_record(self):
        report = diff_run([order_trap_instance()])
        assert report.counts == {"FalseUnsat": 1}
        assert report.clean is False
        rec = report.counterexamples[0]
        assert rec.kind == "FalseUnsat"
        assert rec.solver_outcome["kind"] == "unsat"
        assert rec.oracle_verdict["sat"] is True
        assert replay(rec) == "FalseUnsat"

    def test_report_round_trips_through_dicts(self):
        report = diff_run([order_trap_instance()])
        rec = report.counterexamples[0]
        again = CounterexampleRecord.from_dict(rec.as_dict())
        assert again == rec
        assert report.summary()["clean"] is False

    def test_record_without_minimized_key_loads_unminimized(self):
        rec = diff_run([order_trap_instance()]).counterexamples[0]
        data = rec.as_dict()
        del data["minimized"]
        assert rec.minimized is False
        assert CounterexampleRecord.from_dict(data) == rec


class TestMinimize:
    @staticmethod
    def wrong_unsat_records(cfg, n, m, count, kind="FalseUnsat"):
        """The first ``count`` records of bin ``kind`` (wrong-unsat by
        default) among seeded draws."""
        draws = ((seed, gen_random(GenSpec(n=n, m=m, seed=seed))) for seed in range(1000))
        rows = (row for row in adjudicate(draws, cfg, "brute") if row.bin == kind)
        return [row.record() for row in itertools.islice(rows, count)]

    def test_order_trap_core_is_one_minimal(self):
        report = diff_run([order_trap_instance()])
        rec = minimize(report.counterexamples[0])
        assert rec.minimized is True
        assert rec.kind == "FalseUnsat"
        assert replay(rec) == "FalseUnsat"
        assert removable_clauses(rec) == []

    @pytest.mark.parametrize("seed", [0, 84])
    def test_record_is_the_fresh_adjudication_of_its_core(self, seed):
        # No outcome or verdict is carried over from an instance other
        # than the core: each field equals a fresh run on the core.  Draw
        # 84 is a record whose last accepted candidate is cut after its
        # failing clause, so its core is not that candidate's instance.
        draw = gen_random(GenSpec(n=8, m=34, seed=seed))
        rec = next(adjudicate([(None, draw)], SolveConfig(), "brute")).record()
        assert rec.kind == "FalseUnsat"
        small = minimize(rec)
        core = parse_dimacs(small.dimacs)
        row = next(adjudicate([(None, core)], SolveConfig(**small.config), "brute"))
        assert small.solver_outcome == row.outcome.as_dict()
        assert small.oracle_verdict == row.verdict.as_dict()
        assert small.kind == row.bin == rec.kind
        assert removable_clauses(small) == []

    def test_permuted_order_core_is_one_minimal_and_replays(self):
        # Under a permuted order the failing clause's id says nothing
        # about which clauses the run read, so no cut may be made.
        cfg = SolveConfig(clause_order="perm", order_seed=1)
        for rec in self.wrong_unsat_records(cfg, 6, 26, 4):
            small = minimize(rec)
            assert small.config == rec.config
            assert small.kind == "FalseUnsat"
            assert replay(small) == "FalseUnsat"
            assert removable_clauses(small) == []

    def test_minimize_is_deterministic(self):
        rec = self.wrong_unsat_records(SolveConfig(), 8, 34, 1)[0]
        assert minimize(rec).as_dict() == minimize(rec).as_dict()

    def test_minimize_matches_the_restarting_reference(self, monkeypatch):
        wrong_unsat = self.wrong_unsat_records(SolveConfig(), 8, 34, 5)
        perm = self.wrong_unsat_records(SolveConfig(clause_order="perm", order_seed=1), 6, 26, 4)
        # Guard anomalies: a step-guard trip inside a repair, each made and
        # minimized under the same cap.  The eighth is on an unsatisfiable
        # instance, where only the anomaly lets the cut be made.
        with capped_repairs(0):
            guard = self.wrong_unsat_records(SolveConfig(), 8, 34, 8, "Anomaly")
        assert all(rec.solver_outcome["anomaly"] == ANOMALY_GUARD for rec in guard)
        assert [rec.oracle_verdict["sat"] for rec in guard] == [True] * 7 + [False]
        # Runs that stop before their last clause, which no cut removes:
        # an agreeing unsat answer, and a wrong-unsat record relabelled so
        # that no candidate keeps its bin.
        agree_unsat = self.wrong_unsat_records(SolveConfig(), 8, 34, 1, "AgreeUnsat")
        relabelled = replace(wrong_unsat[0], kind="AgreeUnsat")
        stopping = agree_unsat + [relabelled]
        assert all(rec.solver_outcome["failing_clause"] < 33 for rec in stopping)
        advances, resumed_at = [], []

        def spying_advance(prefix, inst, cfg):
            state = advance(prefix, inst, cfg)
            advances.append(state)
            return state

        def spying_adjudicate(items, cfg=None, oracle="auto", *, prefix=None):
            resumed_at.append(len(prefix.concepts) // 3 if prefix is not None else 0)
            return adjudicate(items, cfg, oracle, prefix=prefix)

        monkeypatch.setattr(harness, "advance", spying_advance)
        monkeypatch.setattr(harness, "adjudicate", spying_adjudicate)
        for rec in wrong_unsat + perm + guard + stopping:
            advances.clear()
            resumed_at.clear()
            with capped_repairs(0) if rec in guard else contextlib.nullcontext():
                assert minimize(rec).as_dict() == restarting_minimize(rec).as_dict()
            # The prefix state is never asked to pass a clause where the
            # list's run stops, and under ``perm`` it is never built.
            assert None not in advances
            if rec in perm:
                assert not advances and set(resumed_at) == {0}
        # The relabelled record's list never changes: after the fresh run,
        # the candidate that drops clause i resumes from the state after
        # ``min(i, k)`` clauses, k being where the run stops, and the ones
        # past k repeat the stop.
        k = relabelled.solver_outcome["failing_clause"]
        assert resumed_at == [0] + [min(i, k) for i in range(34)]

    def test_resumed_runs_leave_the_prefix_store_empty_and_its_own(self, monkeypatch):
        # A run resumed from a prefix state stores its freeing checks and
        # views apart from the prefix: after ``minimize`` and after
        # resumed ``solve`` calls, each prefix state still holds the
        # stores it was built with, and they are empty.
        prefixes = []

        def spying_advance(prefix, inst, cfg):
            state = advance(prefix, inst, cfg)
            if state is not None:
                prefixes.append((state, (state.checks, state.views), inst))
            return state

        def unchanged(state, stores):
            checks, views = stores
            return state.checks is checks and state.views is views and checks == views == {}

        monkeypatch.setattr(harness, "advance", spying_advance)
        for rec in self.wrong_unsat_records(SolveConfig(), 8, 34, 3):
            prefixes.clear()
            minimize(rec)
            assert prefixes
            for state, stores, _ in prefixes:
                assert unchanged(state, stores)
            for state, stores, inst in prefixes:
                assert solve(inst, prefix=state).ops == solve(inst).ops
                assert unchanged(state, stores)

    def test_scan_ends_once_every_clause_is_rejected_in_a_row(self, monkeypatch):
        # The restarting scan runs one more pass after its last removal,
        # repeating rejected candidates; the cyclic scan skips them.
        calls = {"cyclic": 0, "restarting": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        monkeypatch.setattr(harness, "adjudicate", counting("cyclic", harness.adjudicate))
        monkeypatch.setattr(helpers, "adjudicate", counting("restarting", helpers.adjudicate))
        fewer = False
        for rec in self.wrong_unsat_records(SolveConfig(), 8, 34, 3):
            calls.update(cyclic=0, restarting=0)
            assert minimize(rec).as_dict() == restarting_minimize(rec).as_dict()
            assert calls["cyclic"] <= calls["restarting"]
            fewer = fewer or calls["cyclic"] < calls["restarting"]
        assert fewer


class TestFitComplexity:
    def test_exact_square_law_fits_slope_two(self):
        samples = [
            ComplexitySample(n=0, m=m, ops=m * m, kind="sat")
            for m in (5, 10, 20, 40, 80)
        ]
        fit = fit_complexity(samples)
        assert fit.exponent == pytest.approx(2.0)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.sample_count == 5
        assert (fit.m_min, fit.m_max) == (5, 80)

    def test_requires_enough_samples(self):
        samples = [ComplexitySample(n=0, m=m, ops=m, kind="sat") for m in (5, 50)]
        with pytest.raises(ValueError):
            fit_complexity(samples)

    def test_requires_spread(self):
        samples = [
            ComplexitySample(n=0, m=m, ops=m, kind="sat") for m in (10, 11, 12, 13, 14)
        ]
        with pytest.raises(ValueError):
            fit_complexity(samples)

    def test_undecided_runs_are_excluded(self):
        samples = [
            ComplexitySample(n=0, m=m, ops=m * m, kind="sat")
            for m in (5, 10, 20, 40, 80)
        ] + [ComplexitySample(n=0, m=1000, ops=1, kind="anomaly")]
        fit = fit_complexity(samples)
        assert fit.sample_count == 5
        assert fit.m_max == 80


class TestFuzzSpecs:
    def test_shape_and_seed_arithmetic(self):
        specs = fuzz_specs(1000)
        assert len(specs) == 8 * 3 * 210
        assert [s.seed for s in specs] == list(range(1000, 1000 + len(specs)))
        assert specs[0].n == 5 and specs[0].m == 10  # ratio 2.0
        dense = [s for s in specs if s.n == 12 and s.m == round(6.0 * 12)]
        assert len(dense) == 210

    def test_custom_grid(self):
        specs = fuzz_specs(7, n_values=(4,), ratios=(1.0,), reps=3)
        assert [(s.n, s.m, s.seed) for s in specs] == [(4, 4, 7), (4, 4, 8), (4, 4, 9)]


class TestBenchSamples:
    def test_deterministic_and_complete(self):
        a = bench_samples([(5, 10), (6, 12)], reps=3, master_seed=99)
        b = bench_samples([(5, 10), (6, 12)], reps=3, master_seed=99)
        assert [(s.n, s.m, s.ops, s.kind) for s in a] == [
            (s.n, s.m, s.ops, s.kind) for s in b
        ]
        assert len(a) == 6
        assert {s.n for s in a} == {5, 6}

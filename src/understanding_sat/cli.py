"""Command line front end.

Subcommands: ``solve`` and ``oracle`` decide a single DIMACS file;
``fuzz`` and ``enumerate`` adjudicate whole corpora and write JSONL
reports with a CSV summary next to them; ``minimize`` shrinks a stored
counterexample record, and exits 1 when the record's instance no longer
adjudicates as the record's kind; ``bench`` collects operation counts
and fits a growth exponent, and writes nothing when the fit or a
write fails.

Exit codes: 10 satisfiable, 20 unsatisfiable, 30 anomaly (also a run
that exceeds Python's recursion limit), 0 for a harness command that ran
to completion, 1 for usage or input errors.
Stdout carries only machine-readable output (s/v lines or one JSON
summary line); diagnostics go to stderr.  Reruns with equal arguments
and environment produce byte-identical files.

The environment variable ``UNDERSTANDING_SAT_SEED`` overrides any
``--seed`` argument.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict

from .cnf import parse_dimacs
from .engine import TRACE_FIELDS
from .harness import (
    CounterexampleRecord,
    DiffReport,
    GenSpec,
    adjudicate,
    bench_samples,
    enumerate_small,
    fit_complexity,
    gen_random,
    minimize,
    run_oracle,
)
from .solver import SolveConfig, solve

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_ANOMALY = 30
EXIT_OK = 0
EXIT_USAGE = 1


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@contextmanager
def _report_file(path: str, newline: str):
    """Open ``path`` for writing; if the block stops on an error, the
    half-written file is removed first.  A failed open has made no file
    and so removes none."""
    fh = open(path, "w", encoding="utf-8", newline=newline)
    try:
        with fh:
            yield fh
    except BaseException:
        # Interrupts too: a half-written report must not outlive the run.
        os.remove(path)
        raise


def _write_lines(path: str, lines) -> None:
    """Write each of ``lines`` to ``path`` with a ``\\n`` after it."""
    with _report_file(path, "\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _write_csv(path: str, rows) -> None:
    with _report_file(path, "") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _effective_seed(seed: int | None) -> int | None:
    env = os.environ.get("UNDERSTANDING_SAT_SEED")
    if env is None:
        return seed
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"UNDERSTANDING_SAT_SEED must be an integer, not {env!r}") from None


def _read_instance(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_dimacs(text)


def _print_model(assignment, n: int) -> None:
    lits = assignment.as_signed_literals(n)
    print("v " + " ".join(str(l) for l in lits + [0]))


def _cmd_solve(args) -> int:
    inst = _read_instance(args.file)
    cfg = SolveConfig(
        clause_order=args.order,
        order_seed=_effective_seed(args.seed),
        default_free=args.default_free,
        trace=args.trace,
    )
    outcome = solve(inst, cfg)
    print(f"c ops {outcome.ops}", file=sys.stderr)
    if args.trace and outcome.trace is not None:
        for step, event in enumerate(outcome.trace):
            print(_json_line(dict(zip(TRACE_FIELDS, event), step=step)), file=sys.stderr)
    if outcome.kind == "sat":
        print("s SATISFIABLE")
        if not args.quiet:
            _print_model(outcome.assignment, inst.variable_count)
        return EXIT_SAT
    if outcome.kind == "unsat":
        print(f"c failing-clause {outcome.failing_clause}")
        print("s UNSATISFIABLE")
        return EXIT_UNSAT
    print(f"s ANOMALY {outcome.anomaly}")
    return EXIT_ANOMALY


def _cmd_oracle(args) -> int:
    inst = _read_instance(args.file)
    verdict = run_oracle(inst, args.method)
    print(f"c nodes {verdict.nodes} method {verdict.method}", file=sys.stderr)
    if verdict.sat:
        print("s SATISFIABLE")
        if not args.quiet:
            _print_model(verdict.model, inst.variable_count)
        return EXIT_SAT
    print("s UNSATISFIABLE")
    return EXIT_UNSAT


def _run_corpus(args, items, cfg: SolveConfig) -> int:
    """Adjudicate ``(meta, instance)`` items, streaming one JSONL row each
    to ``--out``; then write the CSV summary, the counterexample records
    and the one-line JSON summary.  A run that stops on an error, while
    it streams or while it writes a later file, removes every report file
    it wrote, so none is ever left from a failed run."""
    report = DiffReport()

    def lines():
        for row in adjudicate(items, cfg, args.oracle):
            report.add(row)
            yield _json_line(
                dict(
                    row.meta,
                    kind=row.bin,
                    solver=row.outcome.kind,
                    oracle_sat=row.verdict.sat,
                    ops=row.outcome.ops,
                )
            )

    written = []
    try:
        if args.out:
            _write_lines(args.out, lines())
            written.append(args.out)
            rows = [("kind", "count"), *sorted(report.counts.items()), ("total", report.total)]
            _write_csv(args.out + ".summary.csv", rows)
            written.append(args.out + ".summary.csv")
        else:
            for _ in lines():
                pass
        if args.cex_dir and report.counterexamples:
            os.makedirs(args.cex_dir, exist_ok=True)
            for i, record in enumerate(report.counterexamples):
                path = os.path.join(args.cex_dir, f"cex-{i:05d}.json")
                _write_lines(path, [_json_line(record.as_dict())])
                written.append(path)
    except BaseException:
        # A later write failed: the reports already written go with it.
        for path in written:
            os.remove(path)
        raise
    print(_json_line(report.summary()))
    return EXIT_OK


def _reject_negative(args, *names: str) -> None:
    """Raise ValueError naming the first option given a negative value;
    a negative size would otherwise run an empty or clamped corpus."""
    for name in names:
        value = getattr(args, name)
        if value < 0:
            raise ValueError(f"--{name.replace('_', '-')} must be non-negative, not {value}")


def _cmd_fuzz(args) -> int:
    if not math.isfinite(args.ratio):
        raise ValueError(f"--ratio must be finite, not {args.ratio}")
    _reject_negative(args, "count", "ratio")
    seed = _effective_seed(args.seed)
    if args.m is not None:
        m = args.m
    else:
        m = max(1, round(args.ratio * args.n))
    GenSpec(n=args.n, m=m, seed=seed).validate()
    cfg = SolveConfig(clause_order=args.order, order_seed=seed, default_free=args.default_free)
    specs = (GenSpec(n=args.n, m=m, seed=seed + i) for i in range(args.count))
    items = (
        ({"i": i, "n": spec.n, "m": spec.m, "seed": spec.seed}, gen_random(spec))
        for i, spec in enumerate(specs)
    )
    return _run_corpus(args, items, cfg)


def _cmd_enumerate(args) -> int:
    _reject_negative(args, "max_n", "max_m")
    cfg = SolveConfig(default_free=args.default_free)
    items = (
        ({"i": i, "n": inst.variable_count, "m": len(inst.clauses)}, inst)
        for i, inst in enumerate(enumerate_small(args.max_n, args.max_m))
    )
    return _run_corpus(args, items, cfg)


def _cmd_minimize(args) -> int:
    with open(args.record, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            # The decoder recurses once per nesting level.
            raise ValueError("record file nests JSON too deeply to read") from None
    record = CounterexampleRecord.from_dict(data)
    shrunk = minimize(record)
    if shrunk.kind != record.kind:
        # No candidate kept the record's kind: the record is stale.
        raise ValueError(
            f"record's instance adjudicates as {shrunk.kind}, not as its kind {record.kind}"
        )
    text = _json_line(shrunk.as_dict())
    if args.out:
        _write_lines(args.out, [text])
    else:
        print(text)
    return EXIT_OK


def _parse_pairs(spec: str):
    pairs = []
    for chunk in spec.split(","):
        n_str, _, m_str = chunk.partition(":")
        try:
            pairs.append((int(n_str), int(m_str)))
        except ValueError:
            raise ValueError(f"--pairs entry {chunk!r} is not n:m with integers n and m") from None
    return pairs


def _cmd_bench(args) -> int:
    """Fit first, so that a failed fit (ValueError) writes no file; a
    summary that cannot be written removes the samples written before
    it."""
    _reject_negative(args, "reps")
    samples = bench_samples(_parse_pairs(args.pairs), args.reps, _effective_seed(args.seed))
    fit = asdict(fit_complexity(samples))
    if args.out:
        _write_lines(args.out, [_json_line(asdict(s)) for s in samples])
        values = [f"{v:.6f}" if isinstance(v, float) else v for v in fit.values()]
        try:
            _write_csv(args.out + ".summary.csv", [list(fit), values])
        except BaseException:
            os.remove(args.out)
            raise
    del fit["intercept"]
    print(_json_line({k: round(v, 6) if isinstance(v, float) else v for k, v in fit.items()}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="usat",
        description="Context-propagation 3SAT procedure with differential adjudication.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("solve", help="decide one DIMACS file with the main procedure")
    p.add_argument("file", help="DIMACS CNF path, or - for stdin")
    p.add_argument("--order", choices=["input", "perm"], default="input")
    p.add_argument("--seed", type=int, default=0, help="seed for --order perm")
    p.add_argument("--default-free", type=int, choices=[0, 1], default=0)
    p.add_argument("--trace", action="store_true", help="dump trace events to stderr")
    p.add_argument("--quiet", action="store_true", help="suppress the v line")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="decide one DIMACS file with a reference oracle")
    p.add_argument("file", help="DIMACS CNF path, or - for stdin")
    p.add_argument("--method", choices=["auto", "brute", "dpll"], default="auto")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("fuzz", help="adjudicate random instances against an oracle")
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--m", type=int, default=None)
    group.add_argument("--ratio", type=float, default=4.27, help="m = round(ratio * n)")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--order", choices=["input", "perm"], default="input")
    p.add_argument("--default-free", type=int, choices=[0, 1], default=0)
    p.add_argument("--oracle", choices=["auto", "brute", "dpll"], default="auto")
    p.add_argument("--out", default=None, help="JSONL report path")
    p.add_argument("--cex-dir", default=None, help="directory for counterexample records")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("enumerate", help="adjudicate every small instance exhaustively")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--max-m", type=int, required=True)
    p.add_argument("--default-free", type=int, choices=[0, 1], default=0)
    p.add_argument("--oracle", choices=["auto", "brute", "dpll"], default="auto")
    p.add_argument("--out", default=None)
    p.add_argument("--cex-dir", default=None)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("minimize", help="shrink a stored counterexample record")
    p.add_argument("record", help="JSON record path")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("bench", help="collect operation counts and fit a growth exponent")
    p.add_argument("--pairs", required=True, help="comma list of n:m, e.g. 5:20,10:40")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError as exc:
        # The package's own code never lets one escape: ``solve`` ends a
        # repair or admission that hits the limit as a DepthGuard anomaly,
        # both oracles are loops, and ``minimize`` reports a record nested
        # too deeply for ``json.load`` as an input error.  This is the
        # last resort for anything else, so that it ends in an exit code,
        # not a traceback.
        print(f"error: run exceeded Python's recursion limit ({exc})", file=sys.stderr)
        return EXIT_ANOMALY


if __name__ == "__main__":
    sys.exit(main())

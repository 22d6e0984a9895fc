"""Run one benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload grid-r4 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from ``src/``.
Set-up (importing the package and building the inputs from the seed) is
done several times and its median is ``setup_s``.  The run then repeats
whole rounds over the inputs until the next round would end after
``--seconds``, at least one round.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` installs the layer wrappers of ``spans.py``,
prints the traced run's own end-to-end figures on one line and then the
per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from array import array
from collections import Counter, deque
from pathlib import Path
from types import SimpleNamespace

from spans import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "understanding_sat"
MODULES = ("cnf", "engine", "algorithms", "solver", "oracle", "harness")
# Set up at least SETUPS_MIN times, and again while the set-ups so far
# took less than SETUP_BUDGET_S, up to SETUPS_MAX: a one-second set-up
# repeated nine times would hold up every run of its workload.
SETUPS_MIN = 5
SETUPS_MAX = 9
SETUP_BUDGET_S = 3.0
SHOWN_PROBLEMS = 5

# On a shared host the speed of the whole machine drifts by tens of
# percent within minutes, and all code slows or speeds up together.  A
# fixed pure-Python loop, timed between operations, measures that drift;
# each time is scaled to the speed at which one pass of the loop takes
# NOMINAL_REFERENCE_S: an operation's by the mean of the last
# REFERENCE_WINDOW passes before it, a set-up's by the two passes around
# it.  See README.md, "Machine speed".
NOMINAL_REFERENCE_S = 0.01
REFERENCE_EVERY_S = 0.25  # operation time between two reference passes
REFERENCE_WINDOW = 8


def load_api() -> SimpleNamespace:
    """Import the package afresh from ``src/`` and return its modules."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    return SimpleNamespace(
        package=package,
        MODULES=MODULES,
        **{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES},
    )


def reference_pass() -> float:
    """Time one pass of fixed work that shares no code with the package:
    dict and list copies and scans, the staple of the engine's forks."""
    start = time.perf_counter()
    table = {i: (i, -i) for i in range(240)}
    lists = {i: [i, i + 1] for i in range(60)}
    total = 0
    for _ in range(400):
        copy = dict(table)
        nested = {k: list(v) for k, v in lists.items()}
        total += sum(1 for k in copy if k & 1) + len(nested)
    return time.perf_counter() - start


class Speed:
    """Reference passes spread over the run: the last REFERENCE_WINDOW of
    them, and the count and sum of all of them."""

    def __init__(self):
        self.passes = deque(maxlen=REFERENCE_WINDOW)
        self.count = 0
        self.total = 0.0
        self.since = 0.0

    def sample(self) -> None:
        took = reference_pass()
        self.passes.append(took)
        self.count += 1
        self.total += took
        self.since = 0.0

    def after_operation(self, seconds: float) -> None:
        self.since += seconds
        if self.since >= REFERENCE_EVERY_S:
            self.sample()

    def factor(self, window: int | None = None) -> float:
        """Above 1 when the machine ran faster than nominal, over the last
        ``window`` passes (at most REFERENCE_WINDOW) or over all of them."""
        if window is None:
            return NOMINAL_REFERENCE_S * self.count / self.total
        return NOMINAL_REFERENCE_S / statistics.fmean(list(self.passes)[-window:])


def set_up(workload, seed: int, speed: Speed):
    """Set up several times, each after a full garbage collection and
    between two reference passes, by whose mean it is scaled; returns the
    last API and inputs with the median set-up time, unscaled and scaled."""
    times, scaled = [], []
    speed.sample()
    while len(times) < SETUPS_MIN or (sum(times) < SETUP_BUDGET_S and len(times) < SETUPS_MAX):
        api = items = None
        gc.collect()
        start = time.perf_counter()
        api = load_api()
        items = workload.build(api, seed)
        times.append(time.perf_counter() - start)
        speed.sample()
        scaled.append(times[-1] * speed.factor(2))
    return api, items, statistics.median(times), statistics.median(scaled)


def quantiles(latencies) -> tuple[float, float]:
    """(p50, p90) of one round's latencies."""
    ordered = sorted(latencies)
    p90 = statistics.quantiles(ordered, n=10)[8] if len(ordered) > 1 else ordered[0]
    return statistics.median(ordered), p90


def measure(api, workload, items, seconds: float, tracer: Tracer | None, speed: Speed):
    """Whole rounds over ``items``; the latency quantiles are taken per
    round, so the memory a run holds does not grow with its rounds."""
    round_quantiles, scaled_round_quantiles = [], []
    busy = scaled_busy = 0.0
    attempted = failed = wrong = 0
    problems = []
    tally = Counter()
    rounds = 0
    start = time.perf_counter()
    round_s = 0.0
    speed.sample()
    while rounds == 0 or time.perf_counter() - start + round_s <= seconds:
        round_start = time.perf_counter()
        latencies, scaled_latencies = array("d"), array("d")
        for item in items:
            attempted += 1
            if tracer is not None:
                tracer.active = True
            op_start = time.perf_counter()
            problem = None
            try:
                latency, result = workload.timed(api, item)
            except Exception as exc:  # an operation that raises fails; the run goes on
                problem, incorrect = f"raised {type(exc).__name__}: {exc}", False
            took = time.perf_counter() - op_start
            if tracer is not None:
                tracer.active = False
                tracer.fold()
            factor = speed.factor(REFERENCE_WINDOW)
            if problem is None:
                latencies.append(latency)
                scaled_latencies.append(latency * factor)
                try:
                    problem, incorrect = workload.check(api, item, result, tally)
                except Exception as exc:  # output the checks cannot read
                    problem, incorrect = f"check raised {type(exc).__name__}: {exc}", True
            busy += took
            scaled_busy += took * factor
            speed.after_operation(took)
            if problem is not None:
                failed += 1
                wrong += incorrect
                if len(problems) < SHOWN_PROBLEMS:
                    problems.append(f"{item.text.splitlines()[0]}: {problem}")
        if latencies:
            round_quantiles.append(quantiles(latencies))
            scaled_round_quantiles.append(quantiles(scaled_latencies))
        round_s = time.perf_counter() - round_start
        rounds += 1
    for problem in problems:
        print(f"failed: {problem}", file=sys.stderr)
    return SimpleNamespace(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        round_quantiles=round_quantiles,
        scaled_round_quantiles=scaled_round_quantiles,
        busy=busy,
        scaled_busy=scaled_busy,
        attempted=attempted,
        failed=failed,
        wrong=wrong,
        rounds=rounds,
        tally=tally,
    )


def end_to_end(setup_s: float, busy: float, round_quantiles, run) -> dict:
    """Latency quantiles are the median over rounds of each round's."""
    p50s, p90s = zip(*round_quantiles) if round_quantiles else ((0.0,), (0.0,))
    values = {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (run.attempted / busy if busy else 0.0, "1/s"),
        "latency_ms_p50": (statistics.median(p50s) * 1e3, "ms"),
        "latency_ms_p90": (statistics.median(p90s) * 1e3, "ms"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workload = WORKLOADS[args.workload]
    speed = Speed()
    api, items, setup_s, scaled_setup_s = set_up(workload, args.seed, speed)
    if not Path(api.package.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: {PACKAGE} was imported from outside {src}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(api)
    run = measure(api, workload, items, args.seconds, tracer, speed)
    metrics = end_to_end(scaled_setup_s, run.scaled_busy, run.scaled_round_quantiles, run)
    print(f"speed factor: {speed.factor()} over {speed.count} reference passes")
    print("unscaled end-to-end: " + json.dumps(end_to_end(setup_s, run.busy, run.round_quantiles, run)))
    if tracer is not None:
        print("traced end-to-end: " + json.dumps(metrics))
        metrics = tracer.metrics(run.rounds, run.tally, speed.factor())
    print(
        f"workload {args.workload} seed {args.seed}: {len(items)} items,"
        f" {run.rounds} rounds",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": run.wrong == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The names the benchmark reaches into the package through.

``bench/spans.py`` skips any hook it cannot find, so a rename would drop
per-layer metrics without an error, and a workload that calls a name the
package no longer has fails every operation; these tests make both an
error.
"""

import dataclasses
import importlib
import importlib.util
import re
from pathlib import Path

from understanding_sat.harness import CounterexampleRecord
from understanding_sat.solver import SolveConfig

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
BENCH = SPANS.parent


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_module(name):
    return importlib.import_module(f"understanding_sat.{name}")


def test_every_traced_function_resolves():
    spans = _load_spans()
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in spans.FUNCTIONS
        if not callable(getattr(_package_module(module), attr, None))
    ]
    assert not missing


def test_every_traced_method_resolves():
    spans = _load_spans()
    missing = []
    for module, class_name, attr, *_ in spans.METHODS:
        cls = getattr(_package_module(module), class_name, None)
        if cls is None or not callable(cls.__dict__.get(attr)):
            missing.append(f"{module}.{class_name}.{attr}")
    assert not missing


def test_every_package_attribute_the_workloads_reach_resolves():
    # The workloads and their checks call into the package as
    # ``api.<module>.<attr>``; a moved or renamed name would only show
    # as failed operations in a benchmark run.
    refs = set()
    for name in ("workloads.py", "checks.py"):
        refs.update(re.findall(r"\bapi\.(\w+)\.(\w+)", (BENCH / name).read_text()))
    assert refs
    missing = [
        f"{module}.{attr}"
        for module, attr in sorted(refs)
        if not hasattr(_package_module(module), attr)
    ]
    assert not missing


def test_benchmark_style_record_round_trips_its_config():
    # bench/workloads.py stores ``dataclasses.asdict(SolveConfig())``.
    record = CounterexampleRecord(
        dimacs="p cnf 3 1\n1 2 3 0\n",
        config=dataclasses.asdict(SolveConfig()),
        solver_outcome={},
        oracle_verdict={"method": "brute"},
        kind="FalseUnsat",
    )
    again = CounterexampleRecord.from_dict(record.as_dict())
    assert again == record
    assert SolveConfig(**again.config) == SolveConfig()

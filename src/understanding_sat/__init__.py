"""Understanding-based 3SAT decision procedure with a differential-testing harness.

The package has three layers: a propagation engine that maintains a
three-valued map over literals driven by per-clause contexts (`engine`,
`algorithms`, `solver`), two independent reference oracles (`oracle`), and
a harness that generates corpora, diffs the solver against the oracles,
shrinks counterexamples, and fits operation-count growth (`harness`).
"""

from .cnf import (
    Assignment,
    Clause,
    DimacsError,
    Instance,
    build_instance,
    emit_dimacs,
    evaluate,
    parse_dimacs,
)
from .engine import (
    FALSE,
    FREE,
    TRACE_FIELDS,
    TRUE,
    Contradiction,
    EngineState,
    GuardExceeded,
    RunLog,
)
from .algorithms import algorithm_d, algorithm_g
from .solver import SolveConfig, SolverOutcome, extract_assignment, solve
from .oracle import OracleVerdict, brute_force, dpll
from .harness import (
    ComplexitySample,
    CounterexampleRecord,
    DiffReport,
    GenSpec,
    adjudicate,
    diff_run,
    enumerate_small,
    fit_complexity,
    gen_random,
    minimize,
    replay,
)

__all__ = [
    "Assignment",
    "Clause",
    "ComplexitySample",
    "Contradiction",
    "CounterexampleRecord",
    "DiffReport",
    "DimacsError",
    "EngineState",
    "FALSE",
    "FREE",
    "GenSpec",
    "GuardExceeded",
    "Instance",
    "OracleVerdict",
    "RunLog",
    "SolveConfig",
    "SolverOutcome",
    "TRACE_FIELDS",
    "TRUE",
    "adjudicate",
    "algorithm_d",
    "algorithm_g",
    "brute_force",
    "build_instance",
    "diff_run",
    "dpll",
    "emit_dimacs",
    "enumerate_small",
    "evaluate",
    "extract_assignment",
    "fit_complexity",
    "gen_random",
    "minimize",
    "parse_dimacs",
    "replay",
    "solve",
]

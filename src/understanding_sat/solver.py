"""Clause-by-clause decision procedure built on the propagation engine.

Clauses are admitted one at a time.  If every literal of the incoming
clause is currently false, ``algorithm_d`` is tried on each literal to
rewrite the map first; if none succeeds the instance is declared
unsatisfiable.  Otherwise the clause's three concepts are added
non-false-focus first, recomputing the fixpoint after each.  When all
clauses are in, an assignment is read off the map and re-checked against
the instance; a satisfiable verdict is only ever reported with a
verified model.

Anomalies are first-class outcomes, not exceptions: a contradiction while
admitting a concept, a guard or recursion-limit trip, or a final map that
fails verification each produce an ``anomaly`` outcome carrying the trace.
"""

from __future__ import annotations

import functools
import random
import typing
from dataclasses import MISSING, dataclass, fields, replace

from .algorithms import algorithm_d
from .cnf import Assignment, Instance, evaluate
from .engine import (
    EngineState,
    FALSE,
    FREE,
    GuardExceeded,
    RunLog,
    TRUE,
    flip,
)

ANOMALY_UNDEFINED = "UndefinedAtU4"
ANOMALY_UNVERIFIED = "UnverifiedSat"
ANOMALY_GUARD = "DepthGuard"

# The outcome kind and anomaly of a run stopped by each admission status.
_STOPS = {
    "unsat": ("unsat", None),
    "anomaly": ("anomaly", ANOMALY_UNDEFINED),
    "guard": ("anomaly", ANOMALY_GUARD),
    "recursion": ("anomaly", ANOMALY_GUARD),
}


# How a type error names the JSON types that are not Python's.
_JSON_NAMES = {bool: "true or false", type(None): "null"}


@functools.cache
def _field_types(cls) -> dict:
    """Each field of dataclass ``cls`` and the types its value may have."""
    return {k: typing.get_args(t) or (t,) for k, t in typing.get_type_hints(cls).items()}


def _check_fields(cls, data: dict, what: str) -> None:
    """Raise ValueError unless ``data`` could be the fields of dataclass
    ``cls``: no field without a default left out, no key that is not a
    field, and each value of its field's type (``int | None`` admits int
    and null; a bool is not an int).  ``what`` names ``data`` in the
    message."""
    for f in fields(cls):
        if f.name not in data and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{what} has no {f.name!r} key")
    types = _field_types(cls)
    for key, value in data.items():
        if key not in types:
            raise ValueError(f"{what} key {key!r} is not a {cls.__name__} field")
        allowed = types[key]
        if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
            names = " or ".join(_JSON_NAMES.get(t, t.__name__) for t in allowed)
            raise ValueError(
                f"{what} key {key!r} must be {names}, not {type(value).__name__} {value!r}"
            )


@dataclass
class SolveConfig:
    """Run options.

    ``clause_order`` is ``input`` or ``perm``, which requires an
    ``order_seed`` so that the run can be replayed;
    ``default_free`` fills variables the final map leaves free.
    Building a config with a value not of its field's type (a bool is
    not an int), another ``clause_order`` or ``default_free``, or
    ``perm`` without a seed, raises ValueError.
    """

    clause_order: str = "input"
    order_seed: int | None = None
    default_free: int = 0
    trace: bool = False

    def __post_init__(self):
        _check_fields(SolveConfig, vars(self), "config")
        if self.default_free not in (0, 1):
            raise ValueError(f"config key 'default_free' must be 0 or 1, not {self.default_free!r}")
        if self.clause_order not in ("input", "perm"):
            raise ValueError(
                f"config key 'clause_order' must be 'input' or 'perm', not {self.clause_order!r}"
            )
        if self.clause_order == "perm" and self.order_seed is None:
            # random.Random(None) would seed from OS entropy: no replay.
            raise ValueError("config key 'order_seed' must be an int when 'clause_order' is 'perm', not null")


# ``solve``'s config when it is given none, built once rather than per
# run, so small runs do not pay for checking its fields.  No run changes
# a config.
_DEFAULT_CONFIG = SolveConfig()


@dataclass
class SolverOutcome:
    kind: str  # "sat" | "unsat" | "anomaly"
    assignment: Assignment | None = None
    understanding: dict[int, str] | None = None
    failing_clause: int | None = None
    anomaly: str | None = None
    ops: int = 0
    guard_trips: int = 0
    gaps: int = 0  # repairs that covered every C+ concept, yet left the literal unfreed
    state: EngineState | None = None
    trace: list[tuple] | None = None  # the run log's events, fields named by TRACE_FIELDS

    def as_dict(self) -> dict:
        model = None
        if self.assignment is not None and self.state is not None:
            model = self.assignment.as_signed_literals(
                self.state.inst.variable_count
            )
        return {
            "kind": self.kind,
            "anomaly": self.anomaly,
            "failing_clause": self.failing_clause,
            "ops": self.ops,
            "model": model,
        }


def _admit_clause(state: EngineState, cid: int, lits: tuple[int, int, int]):
    """Admit clause ``cid``, whose literals are ``lits``; returns (status,
    state) where status is ``ok``, ``unsat`` or ``anomaly`` and state may
    be a rewritten fork."""
    log = state.log
    traced = log.enabled
    if traced:
        log.emit("U1_CLAUSE", clause=cid)
    values = state.values
    a, b, c = lits
    if values[a] == FALSE and values[b] == FALSE and values[c] == FALSE:
        if traced:
            log.emit("U2_ALLFALSE", clause=cid)
        adopted = None
        for lam in lits:
            res = algorithm_d(state, lam)
            if res is not None:
                adopted = res
                break
        if adopted is None:
            return "unsat", state
        state = adopted
        values = state.values
    if traced:
        for lit in lits:
            log.emit("U3_VALUE", literal=lit, old=values[lit], clause=cid)
    # One engine call picks, indexes and propagates the three concepts,
    # non-false focus first, after any repair above.
    if state.add_clause(cid, lits) is not None:
        return "anomaly", state
    return "ok", state


def _clause_order(inst: Instance, cfg: SolveConfig) -> list[int]:
    order = list(range(len(inst.clauses)))
    if cfg.clause_order == "perm":
        random.Random(cfg.order_seed).shuffle(order)
    return order


def _outcome(
    state: EngineState, cfg: SolveConfig, kind: str, failing: int | None = None, **fields
) -> SolverOutcome:
    """Log the verdict and build the outcome; ``failing`` is the position
    of the clause a run stopped early at."""
    log = state.log
    # The run asks no more checks; the outcome need not hold them.
    state.checks, state.views = {}, {}
    if log.enabled:
        log.emit("VERDICT", new=kind, clause=failing)
    return SolverOutcome(
        kind=kind,
        failing_clause=failing,
        ops=log.ops,
        guard_trips=log.guard_trips,
        gaps=log.gaps,
        state=state,
        trace=log.events if cfg.trace else None,
        **fields,
    )


def solve(
    inst: Instance, cfg: SolveConfig | None = None, *, prefix: EngineState | None = None
) -> SolverOutcome:
    """Decide the instance; always terminates with sat, unsat, or anomaly.

    ``prefix`` resumes the run from a state that ``advance`` built under
    the same config and input clause order, from instances whose first
    ``k`` clauses are ``inst``'s first ``k``.  ``k`` is the number of
    clauses the prefix admitted, ``len(prefix.concepts) // 3``: every
    admitted clause holds its three concepts, and ``advance`` returns no
    state where an admission stopped part way.  Input order admits those
    clauses first and the prefix holds what admitting them did, so the
    run reads the rest of ``inst`` exactly as a fresh one would: the
    outcome, ``ops``, guard trips, gaps and trace all match
    ``solve(inst, cfg)``.  The prefix, its log, its stored checks and its
    stored views are not changed.  A plain run is this loop resumed from
    the empty state.  A prefix built for another variable count or other
    first ``k`` clauses, or given under ``perm`` order (which admits other
    clauses first), raises ValueError.
    """
    cfg = cfg if cfg is not None else _DEFAULT_CONFIG
    state = _resume(inst, cfg, prefix)
    for cid in _clause_order(inst, cfg)[len(state.concepts) // 3 :]:
        status, state = _admit(state, cid, inst.clauses[cid])
        if status != "ok":
            kind, anomaly = _STOPS[status]
            stopped = _outcome(state, cfg, kind, cid, anomaly=anomaly)
            # Python's own limit tripped before a guard did, in repair or
            # between indexing a concept and running its fixpoint, so the
            # state may be half-updated: the outcome does not carry it.
            return replace(stopped, state=None) if status == "recursion" else stopped
    return _finalize(state, inst, cfg)


def advance(prefix: EngineState | None, inst: Instance, cfg: SolveConfig) -> EngineState | None:
    """The state after admitting ``inst``'s next clause onto ``prefix``
    (``None`` is the empty state) as ``solve``'s loop admits it, or None
    when a run stops at that clause.  Raises ValueError for a prefix
    ``solve`` refuses; ``prefix`` is not changed."""
    state = _resume(inst, cfg, prefix)
    cid = len(state.concepts) // 3
    status, state = _admit(state, cid, inst.clauses[cid])
    return state if status == "ok" else None


def _resume(inst: Instance, cfg: SolveConfig, prefix: EngineState | None) -> EngineState:
    if prefix is None:
        return EngineState(inst, RunLog(enabled=cfg.trace))
    if cfg.clause_order != "input":
        raise ValueError("a run can resume from a prefix state only under input clause order")
    if len(prefix.values) != 2 * inst.variable_count + 1:
        raise ValueError("the prefix state was built for another variable count")
    k = len(prefix.concepts) // 3
    if prefix.inst.clauses[:k] != inst.clauses[:k]:
        raise ValueError(f"the prefix state admitted clauses other than the instance's first {k}")
    state = prefix.fork()
    state.inst = inst
    state.log = prefix.log.copy()
    # The resumed run never writes into the prefix's stores.
    state.checks, state.views = {}, {}
    return state


def _admit(state: EngineState, cid: int, lits: tuple[int, int, int]):
    """``_admit_clause`` with a trip turned into a status: ``guard`` for
    GuardExceeded, ``recursion`` for Python's recursion limit, each with
    the state the admission started from."""
    try:
        return _admit_clause(state, cid, lits)
    except GuardExceeded:
        return "guard", state
    except RecursionError:
        state.log.guard_trips += 1
        return "recursion", state


def _finalize(state: EngineState, inst: Instance, cfg: SolveConfig) -> SolverOutcome:
    """Outcome of a run that admitted every clause.  One pass reads the
    map and the model off ``values``, a free variable taking
    ``default_free``.  Sat needs coupled polarities, a model that satisfies
    every clause and a literal the map holds true in each; otherwise the
    run is an ``UnverifiedSat`` anomaly with no assignment."""
    values = state.values
    understanding = {}
    model = {}
    verified = True
    for var in range(1, inst.variable_count + 1):
        pos = understanding[var] = values[var]
        neg = understanding[-var] = values[-var]
        verified = verified and neg == flip(pos)
        model[var] = cfg.default_free if pos == FREE else int(pos == TRUE)
    assignment = Assignment(values=model, default_free=cfg.default_free)
    verified = verified and not evaluate(inst, assignment)
    if verified:  # and each clause has a literal the map holds true
        for a, b, c in inst.clauses:
            if values[a] != TRUE and values[b] != TRUE and values[c] != TRUE:
                verified = False
                break
    if not verified:
        return _outcome(
            state, cfg, "anomaly", anomaly=ANOMALY_UNVERIFIED, understanding=understanding
        )
    return _outcome(state, cfg, "sat", assignment=assignment, understanding=understanding)

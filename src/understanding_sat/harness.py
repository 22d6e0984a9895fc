"""Differential testing: generators, adjudication, shrinking, curve fits.

The harness runs the main procedure and a reference oracle on the same
instance and files the pair into one of five bins: AgreeSat, AgreeUnsat,
FalseSat, FalseUnsat, Anomaly.  Disagreements and anomalies become
self-contained counterexample records (DIMACS text plus the exact run
options) that can be replayed and shrunk to 1-minimal form later.

Instance sources are a seeded uniform random model and an exhaustive
enumerator over every well-formed instance up to 4 variables.  Operation
counts from adjudicated runs feed a log-log least-squares fit used to
check growth-rate claims.
"""

from __future__ import annotations

import itertools
import math
import random
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

from .cnf import _MAX_VARIABLES, Instance, build_instance, emit_dimacs, parse_dimacs
from .oracle import OracleVerdict, brute_force, dpll
from .solver import SolveConfig, SolverOutcome, advance, solve

BINS = ("AgreeSat", "AgreeUnsat", "FalseSat", "FalseUnsat", "Anomaly")
DISAGREEMENT_KINDS = ("FalseSat", "FalseUnsat", "Anomaly")
# The fewest decided runs, and the smallest max/min clause-count ratio,
# that ``fit_complexity`` fits a growth exponent to.
FIT_MIN_SAMPLES = 5
FIT_MIN_SPREAD = 4.0
# How a record's type errors name the JSON types that are not Python's.
_JSON_NAMES = {bool: "true or false", type(None): "null"}


@dataclass
class GenSpec:
    """Parameters for one random instance draw."""

    n: int
    m: int
    seed: int

    def validate(self) -> None:
        if self.n < 0 or self.m < 0:
            raise ValueError("n and m must be non-negative")
        if self.n > _MAX_VARIABLES:
            raise ValueError(f"variable count {self.n} is too large to index")
        capacity = 8 * math.comb(self.n, 3)
        if self.m > capacity:
            raise ValueError(
                f"cannot draw {self.m} distinct clauses over {self.n} variables"
                f" (capacity {capacity})"
            )


def gen_random(spec: GenSpec) -> Instance:
    """Uniform model: three distinct variables, independent polarities.

    Clauses duplicating an earlier literal set are redrawn, so the result
    always has exactly ``spec.m`` clauses.
    """
    spec.validate()
    rng = random.Random(spec.seed)
    seen: set[frozenset[int]] = set()
    clauses: list[tuple[int, int, int]] = []
    while len(clauses) < spec.m:
        vars_ = sorted(rng.sample(range(1, spec.n + 1), 3))
        lits = tuple(v if rng.random() < 0.5 else -v for v in vars_)
        key = frozenset(lits)
        if key in seen:
            continue
        seen.add(key)
        clauses.append(lits)
    return build_instance(spec.n, clauses)


def enumerate_small(max_n: int, max_m: int):
    """Iterate over every instance with at most ``max_m`` clauses whose
    variable support is exactly {1..n}, for each n up to ``max_n``.

    The clause universe for n variables is every 3-subset of the 2n
    literals (complementary pairs inside a clause are legal), taken in a
    fixed canonical order, so the stream is deterministic.  The cap on
    ``max_n`` is checked at the call, before any instance is drawn.
    """
    if max_n > 4:
        raise ValueError("exhaustive enumeration capped at 4 variables")

    def instances():
        for n in range(0, max_n + 1):
            literals: list[int] = []
            for v in range(1, n + 1):
                literals.extend((v, -v))
            universe = list(itertools.combinations(literals, 3))
            for m in range(0, max_m + 1):
                for combo in itertools.combinations(universe, m):
                    support = {abs(l) for c in combo for l in c}
                    if len(support) == n:
                        yield build_instance(n, list(combo))

    return instances()


def run_oracle(inst: Instance, oracle: str) -> OracleVerdict:
    if oracle == "auto":
        oracle = "brute" if inst.variable_count <= 12 else "dpll"
    if oracle == "brute":
        return brute_force(inst)
    if oracle == "dpll":
        return dpll(inst)
    raise ValueError(f"unknown oracle {oracle!r}")


def classify(outcome: SolverOutcome, verdict: OracleVerdict) -> str:
    if outcome.kind == "anomaly":
        return "Anomaly"
    if outcome.kind == "sat":
        return "AgreeSat" if verdict.sat else "FalseSat"
    return "FalseUnsat" if verdict.sat else "AgreeUnsat"


@dataclass
class CounterexampleRecord:
    """A replayable disagreement: everything needed to rerun both sides."""

    dimacs: str
    config: dict
    solver_outcome: dict
    oracle_verdict: dict
    kind: str
    minimized: bool = False

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data) -> "CounterexampleRecord":
        """Rebuild a record from its ``as_dict`` form; raises ValueError
        naming the first problem when ``data`` is not one.

        ``data`` must be a JSON object whose keys are this class's fields,
        each of its field's type; only ``minimized`` may be left out, and
        then reads false.  ``kind`` must be one of ``BINS``.  ``config``
        is held to ``SolveConfig``'s fields the same way, any of which may
        be left out, and then to the values ``SolveConfig`` accepts.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"counterexample record must be a JSON object, not {type(data).__name__}"
            )
        _check_fields(cls, data, "counterexample record")
        if data["kind"] not in BINS:
            raise ValueError(
                f"counterexample record's 'kind' must be one of {', '.join(BINS)},"
                f" not {data['kind']!r}"
            )
        _check_fields(SolveConfig, data["config"], "config")
        SolveConfig(**data["config"])  # checks the values
        # Copy the nested objects, so that the record shares none with ``data``.
        return cls(**{k: dict(v) if isinstance(v, dict) else v for k, v in data.items()})


def _check_fields(cls, data: dict, what: str) -> None:
    """Raise ValueError unless ``data`` could be the fields of dataclass
    ``cls``: no field without a default left out, no key that is not a
    field, and each value of its field's type (``int | None`` admits int
    and null; a bool is not an int).  ``what`` names ``data`` in the
    message."""
    for f in fields(cls):
        if f.name not in data and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{what} has no {f.name!r} key")
    types = typing.get_type_hints(cls)
    for key, value in data.items():
        if key not in types:
            raise ValueError(f"{what} key {key!r} is not a {cls.__name__} field")
        allowed = typing.get_args(types[key]) or (types[key],)
        if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
            names = " or ".join(_JSON_NAMES.get(t, t.__name__) for t in allowed)
            raise ValueError(
                f"{what} key {key!r} must be {names}, not {type(value).__name__} {value!r}"
            )


@dataclass
class ComplexitySample:
    n: int
    m: int
    ops: int
    kind: str


@dataclass
class Adjudication:
    """One adjudicated instance: the procedure's outcome, the oracle's
    verdict and the bin ``classify`` files the pair into."""

    meta: object
    instance: Instance
    config: SolveConfig
    outcome: SolverOutcome
    verdict: OracleVerdict
    bin: str

    def record(self) -> CounterexampleRecord:
        """The replayable record of this run."""
        return CounterexampleRecord(
            dimacs=emit_dimacs(self.instance),
            config=asdict(self.config),
            solver_outcome=self.outcome.as_dict(),
            oracle_verdict=self.verdict.as_dict(),
            kind=self.bin,
        )


def adjudicate(items, cfg: SolveConfig | None = None, oracle: str = "auto", *, prefix=None):
    """Yield one Adjudication per ``(meta, instance)`` item, in order.

    ``oracle`` names the reference procedure (``auto`` picks brute force
    up to 12 variables, the backtracker beyond); ``meta`` is carried
    through untouched.  ``prefix``, a state to resume from, is passed to
    every ``solve``.
    """
    cfg = cfg if cfg is not None else SolveConfig()
    for meta, inst in items:
        outcome = solve(inst, cfg, prefix=prefix)
        verdict = run_oracle(inst, oracle)
        yield Adjudication(meta, inst, cfg, outcome, verdict, classify(outcome, verdict))


@dataclass
class DiffReport:
    """Running totals over adjudicated rows: bin counts and a record for
    each disagreement."""

    total: int = 0
    counts: dict = field(default_factory=dict)
    counterexamples: list = field(default_factory=list)

    def add(self, row: Adjudication) -> None:
        self.total += 1
        self.counts[row.bin] = self.counts.get(row.bin, 0) + 1
        if row.bin in DISAGREEMENT_KINDS:
            self.counterexamples.append(row.record())

    @property
    def clean(self) -> bool:
        return all(self.counts.get(kind, 0) == 0 for kind in DISAGREEMENT_KINDS)

    def summary(self) -> dict:
        return {
            "total": self.total,
            "counts": dict(sorted(self.counts.items())),
            "clean": self.clean,
        }


def diff_run(instances, cfg: SolveConfig | None = None, oracle: str = "auto") -> DiffReport:
    """Adjudicate each instance against the chosen oracle and total the rows."""
    report = DiffReport()
    for row in adjudicate(((None, inst) for inst in instances), cfg, oracle):
        report.add(row)
    return report


def replay(record: CounterexampleRecord) -> str:
    """Rerun both sides from the stored record; returns the fresh bin."""
    items = [(None, parse_dimacs(record.dimacs))]
    method = record.oracle_verdict.get("method", "auto")
    return next(adjudicate(items, SolveConfig(**record.config), method)).bin


def minimize(record: CounterexampleRecord) -> CounterexampleRecord:
    """Shrink the record's instance to a 1-minimal core that keeps its bin.

    The instance is adjudicated afresh.  Under input clause order a run
    that stops at failing clause k never reads the clauses after it, so
    when that run can only keep its bin under clause removal (an anomaly,
    or an unsat answer on a satisfiable instance) the instance is cut to
    its first k+1 clauses; each accepted candidate is cut the same way.

    Then single clauses are removed in one cyclic scan: the candidate at
    index i drops clause i of the current list; an accepted candidate
    becomes the list and the scan stays at i, a rejected one moves it to
    i+1, and past the end it wraps to 0.  The scan ends once every clause
    of the current list has been rejected in a row, which proves the core
    1-minimal.  A scan of passes that repeat until one removes nothing
    would go on to re-run candidates already rejected against the same
    list; adjudication is deterministic, so those repeats reject again and
    cannot change the core.

    Under input order every candidate's run resumes (``solve``'s
    ``prefix``) from the state after admitting the first clauses of the
    list, which the candidate shares.  That state is advanced by one
    clause (``solver.advance``) each time a candidate is rejected, kept
    when one is accepted (the new list has the same first i clauses) and
    dropped when the scan wraps.  It is not advanced to the last clause,
    which no later candidate keeps, nor past the clause where the list's
    own run stops: the candidates after that clause resume from before it
    and repeat the stop.  A resumed run is exact, so every candidate
    adjudicates as it would afresh.  Under ``perm`` order every run starts
    from the empty state.  The returned record is the row of the exact
    core, reused from the scan when the last accepted candidate was not
    cut.
    """
    inst = parse_dimacs(record.dimacs)
    cfg = SolveConfig(**record.config)
    method = record.oracle_verdict.get("method", "auto")
    resumes = cfg.clause_order == "input"

    def adjudicated(clause_lits, prefix=None) -> Adjudication:
        cand = build_instance(inst.variable_count, clause_lits)
        return next(adjudicate([(None, cand)], cfg, method, prefix=prefix))

    def kept(row: Adjudication) -> list:
        """The row's clauses, cut after its failing clause when that is safe."""
        lits = [c.literals for c in row.instance.clauses]
        k = row.outcome.failing_clause
        # Dropping clauses keeps a satisfiable instance satisfiable, and
        # the cut run repeats the same outcome, so the bin cannot change.
        keeps_bin = row.outcome.kind == "anomaly" or row.verdict.sat
        if row.bin == record.kind and resumes and k is not None and keeps_bin:
            return lits[: k + 1]
        return lits

    row = adjudicated([c.literals for c in inst.clauses])
    lits = kept(row)
    # ``prefix`` is the state after admitting ``lits[:done]``; None is the
    # empty one.  ``row.instance`` starts with ``lits``.
    prefix, done = None, 0
    i = rejected = 0
    while rejected < len(lits):
        if i >= len(lits):
            i, prefix, done = 0, None, 0
        cand = adjudicated(lits[:i] + lits[i + 1 :], prefix)
        if cand.bin == record.kind:
            row, lits, rejected = cand, kept(cand), 0
            continue
        rejected += 1
        # The advanced state serves only candidates that drop clause i + 1
        # or later, and only if the list's run admits clause i: it stops
        # at its failing clause.
        stop = row.outcome.failing_clause
        if resumes and done == i < (len(lits) - 1 if stop is None else stop):
            advanced = advance(prefix, row.instance, cfg)
            if advanced is not None:
                prefix, done = advanced, i + 1
        i += 1
    if len(row.instance.clauses) != len(lits):
        row = adjudicated(lits)
    return replace(row.record(), minimized=True)


@dataclass
class FitResult:
    exponent: float
    intercept: float
    r_squared: float
    sample_count: int
    m_min: int
    m_max: int


def fit_complexity(samples) -> FitResult:
    """Least-squares fit of log(ops) against log(m) over decided runs.

    The slope estimates the growth exponent.  Requires at least
    ``FIT_MIN_SAMPLES`` usable points spanning a ``FIT_MIN_SPREAD`` factor
    in m, otherwise the fit would be meaningless and a ValueError is
    raised.
    """
    usable = [s for s in samples if s.kind in ("sat", "unsat") and s.ops > 0 and s.m > 0]
    if len(usable) < FIT_MIN_SAMPLES:
        raise ValueError(f"need at least {FIT_MIN_SAMPLES} decided samples, got {len(usable)}")
    ms = [s.m for s in usable]
    if max(ms) / min(ms) < FIT_MIN_SPREAD:
        raise ValueError(
            f"clause counts span only {max(ms) / min(ms):.2f}x, need {FIT_MIN_SPREAD}x"
        )
    xs = [math.log(s.m) for s in usable]
    ys = [math.log(s.ops) for s in usable]
    k = len(usable)
    mean_x = sum(xs) / k
    mean_y = sum(ys) / k
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res == 0.0 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return FitResult(
        exponent=slope,
        intercept=intercept,
        r_squared=r_squared,
        sample_count=k,
        m_min=min(ms),
        m_max=max(ms),
    )


def bench_samples(pairs, reps: int, master_seed: int, cfg: SolveConfig | None = None):
    """Run the solver on ``reps`` random draws for each (n, m) pair and
    collect operation counts."""
    cfg = cfg if cfg is not None else SolveConfig()
    samples = []
    i = 0
    for n, m in pairs:
        for _ in range(reps):
            inst = gen_random(GenSpec(n=n, m=m, seed=master_seed + i))
            i += 1
            outcome = solve(inst, cfg)
            samples.append(
                ComplexitySample(n=n, m=len(inst.clauses), ops=outcome.ops, kind=outcome.kind)
            )
    return samples

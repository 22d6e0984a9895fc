"""Shared fixtures-in-code: canonical instances, state builders, the
structural freeing conditions, state audits and reference procedures."""

import contextlib
import hashlib
import itertools
import random
from collections import deque
from dataclasses import replace
from functools import lru_cache
from unittest import mock

from understanding_sat import solver
from understanding_sat.algorithms import algorithm_g
from understanding_sat.cnf import Assignment, Clause, Instance, build_instance, parse_dimacs
from understanding_sat.engine import (
    FALSE,
    FREE,
    TRACE_FIELDS,
    TRUE,
    Contradiction,
    EngineState,
    GuardExceeded,
    RunLog,
    flip,
)
from understanding_sat.harness import (
    Adjudication,
    CounterexampleRecord,
    GenSpec,
    adjudicate,
)
from understanding_sat.oracle import OracleVerdict
from understanding_sat.solver import SolveConfig, _admit_clause, solve

# Positions of the fields in a trace event tuple.
KIND, LITERAL, OLD, NEW, CLAUSE, COUNTER = map(
    TRACE_FIELDS.index, ("kind", "literal", "old", "new", "clause", "counter")
)

# Satisfiable by the all-false assignment, yet the main procedure answers
# unsat under input clause order: each clause admitted in turn marks its
# sole positive literal as needed, and the final all-negative clause
# arrives with every literal false beyond repair.
ORDER_TRAP = [(1, -2, -3), (-1, 2, -3), (-1, -2, 3), (-1, -2, -3)]

# All eight sign patterns over three variables: genuinely unsatisfiable.
FULL_SIGN_CORE = [
    tuple(s * v for s, v in zip(signs, (1, 2, 3)))
    for signs in itertools.product((1, -1), repeat=3)
]


CPLUS = "C+"
CSTAR = "C*"


def order_trap_instance() -> Instance:
    return build_instance(3, ORDER_TRAP)


def full_sign_instance() -> Instance:
    return build_instance(3, FULL_SIGN_CORE)


def removable_clauses(record: CounterexampleRecord) -> list[int]:
    """Indices of the clauses whose single removal keeps the record's bin;
    empty when the record's instance is 1-minimal for it."""
    inst = parse_dimacs(record.dimacs)
    lits = [c.literals for c in inst.clauses]
    drops = (
        (i, build_instance(inst.variable_count, lits[:i] + lits[i + 1 :]))
        for i in range(len(lits))
    )
    cfg = SolveConfig(**record.config)
    method = record.oracle_verdict.get("method", "auto")
    return [row.meta for row in adjudicate(drops, cfg, method) if row.bin == record.kind]


def fuzz_specs(
    master_seed: int,
    n_values=(5, 6, 7, 8, 9, 10, 11, 12),
    ratios=(2.0, 4.27, 6.0),
    reps: int = 210,
) -> list[GenSpec]:
    """The mixed random corpus: every n crossed with sparse, critical and
    dense clause ratios, ``reps`` draws each, seeds derived from one
    master seed."""
    specs = []
    i = 0
    for n in n_values:
        for ratio in ratios:
            for _ in range(reps):
                specs.append(GenSpec(n=n, m=max(1, round(ratio * n)), seed=master_seed + i))
                i += 1
    return specs


def concept_type_of(a, b) -> str:
    """Classify a concept from its two companion values.

    ``C*`` exactly when at least one companion is true; the six value
    combinations (order-insensitive) split as:
    ee/ff/ef -> C+ and tt/et/tf -> C*.
    """
    return CSTAR if a == TRUE or b == TRUE else CPLUS


def concept_type(state: EngineState, key) -> str:
    """Type of the state's concept ``key``, reading each companion's
    effective value."""
    m1, m2 = state.concepts[key]
    pins, values = state.pins, state.values
    return concept_type_of(pins[m1] or values[m1], pins[m2] or values[m2])


def coupling_violations(state: EngineState) -> list[int]:
    values = state.values
    n = state.inst.variable_count
    return [var for var in range(1, n + 1) if values[var] != flip(values[-var])]


def soundness_violations(state: EngineState) -> list[int]:
    """Unpinned variables whose stored values disagree with
    recomputation; empty after any successful fixpoint.  A read: the
    run's ``ops`` is left as it was."""
    ops = state.log.ops
    out = [
        var
        for var in range(1, state.inst.variable_count + 1)
        if not state.pins[var] and reevaluate_pair(state, var) != state.values[var]
    ]
    state.log.ops = ops
    return out


def lemma_g_conditions(state: EngineState, literal: int) -> bool:
    """Structural test oracle for ``algorithm_g``.

    Answers yes iff some concept focused on the literal, with companions
    l1 and l2, satisfies both:

    (a) no concept focused on the negation has exactly {l1, l2} as its
        companions, and
    (b) no two concepts focused on the negation pair l1 with some x and
        l2 with the negation of x.

    It is coded independently of ``algorithm_g``, and the two are
    deliberately never merged.  The suite guarantees one direction:
    whenever ``algorithm_g`` approves a literal, the conditions hold too.
    The converse, that the conditions approve only what the check
    approves, is the claim the a4 acceptance verdict tests on every small
    reachable state, and it fails: the conditions over-approve.
    """
    if state.values[literal] != FREE:
        raise ValueError("lemma_g_conditions requires a free literal")
    opposing = [
        frozenset(state.concepts[k]) for k in state.by_focus[-literal]
    ]
    opposing_sets = set(opposing)
    for key in state.by_focus[literal]:
        m1, m2 = state.concepts[key]
        if frozenset((m1, m2)) in opposing_sets:
            continue
        blocked = False
        for pair in opposing:
            if m1 in pair:
                (x,) = pair - {m1}
                if frozenset((m2, -x)) in opposing_sets:
                    blocked = True
                    break
        if not blocked:
            return True
    return False


@contextlib.contextmanager
def capped_repairs(cap: int):
    """Within it, ``solve`` runs each repair with the fixpoint step guard
    capped at ``cap`` steps, so a repair whose fixpoints take more trips
    it and the run ends as a ``DepthGuard`` anomaly at that clause."""
    repair = solver.algorithm_d

    def capped(state, literal, history=frozenset()):
        with mock.patch.object(EngineState, "_step_cap", lambda self: cap):
            return repair(state, literal, history)

    with mock.patch.object(solver, "algorithm_d", capped):
        yield


def run_digest(instances, cfg: SolveConfig) -> str:
    """sha256 over a traced run of each instance under ``cfg``: the
    ``repr`` of its kind, ``ops``, failing clause, anomaly, guard trips,
    gaps and events, in instance order.  A change that keeps the
    procedure, as a performance change must, keeps the digest."""
    digest = hashlib.sha256()
    cfg = replace(cfg, trace=True)
    for inst in instances:
        out = solve(inst, cfg)
        run = (out.kind, out.ops, out.failing_clause, out.anomaly, out.guard_trips, out.gaps, out.trace)
        digest.update(repr(run).encode())
    return digest.hexdigest()


def fresh_state(inst: Instance, trace: bool = False) -> EngineState:
    return EngineState(inst, RunLog(enabled=trace))


def admitted_state(inst: Instance, upto: int | None = None):
    """Run the clause-admission loop like the solver does, returning
    (status, state); ``upto`` admits only the first so-many clauses."""
    state = fresh_state(inst)
    stop = len(inst.clauses) if upto is None else upto
    for clause in inst.clauses[:stop]:
        status, state = _admit_clause(state, clause)
        if status != "ok":
            return status, state
    return "ok", state


def sweep_assumption_check(
    max_n: int,
    max_m: int,
    witness_limit: int = 3,
    on_comparison=None,
):
    """Compare the behavioral freeing check with the structural freeing
    conditions on every reachable admission state.

    For each variable count up to ``max_n``, every ascending sequence of
    up to ``max_m`` distinct clauses that can still be completed to an
    exactly-supported instance is admitted clause by clause (sharing
    prefixes, exactly as the main loop would).  At every state so
    reached, each still-free literal is checked two ways on the view
    restricted to its own clauses: by actually running the freeing
    check, and by the structural conditions that are supposed to predict
    it.  Returns a dict of counters:

    - ``nodes``: states visited (the empty root included, once per n)
    - ``dead``: admissions that failed (no deeper states behind them)
    - ``comparisons``: (state, literal) pairs checked
    - ``memo_hits``: comparisons answered from the restricted-view cache
      (keyed by ``view_memo_key``, so a hit builds no view)
    - ``divergences``: comparisons where the two answers differ
    - ``unsound``: divergences where the check approves but the
      conditions reject (the direction that would break soundness)
    - ``witnesses``: up to ``witness_limit`` divergences, each a tuple
      (n, admitted_clauses, literal, check_answer, conditions_answer)

    ``on_comparison(n, admitted_clauses, literal, check, conditions)``
    is called for every comparison when provided, cache hits included.
    """
    stats = {
        "nodes": 0,
        "dead": 0,
        "comparisons": 0,
        "memo_hits": 0,
        "divergences": 0,
        "unsound": 0,
        "witnesses": [],
    }
    memo: dict = {}

    for n in range(2, max_n + 1):
        literals = [l for v in range(1, n + 1) for l in (v, -v)]
        universe = list(itertools.combinations(literals, 3))
        all_vars = frozenset(range(1, n + 1))

        @lru_cache(maxsize=None)
        def feasible(missing, start, remaining):
            # Can `remaining` more clauses drawn from universe[start:]
            # still cover every `missing` variable?
            if not missing:
                return True
            if remaining == 0 or start >= len(universe):
                return False
            for i in range(start, len(universe)):
                vars_i = frozenset(abs(l) for l in universe[i])
                if vars_i & missing and feasible(
                    missing - vars_i, i + 1, remaining - 1
                ):
                    return True
            return False

        def compare(state, clauses):
            stats["nodes"] += 1
            for var in range(1, n + 1):
                for lit in (var, -var):
                    if state.values[lit] != FREE:
                        continue
                    key = view_memo_key(state, lit)
                    if key in memo:
                        stats["memo_hits"] += 1
                        check, conditions = memo[key]
                    else:
                        view = state.restrict_to(lit)
                        check = algorithm_g(view, lit)
                        conditions = lemma_g_conditions(view, lit)
                        memo[key] = (check, conditions)
                    stats["comparisons"] += 1
                    if on_comparison is not None:
                        on_comparison(n, clauses, lit, check, conditions)
                    if check != conditions:
                        stats["divergences"] += 1
                        if check and not conditions:
                            stats["unsound"] += 1
                        if len(stats["witnesses"]) < witness_limit:
                            stats["witnesses"].append(
                                (n, clauses, lit, check, conditions)
                            )

        def dfs(state, start, depth, support, clauses):
            for i in range(start, len(universe)):
                lits = universe[i]
                new_support = support | frozenset(abs(l) for l in lits)
                if not feasible(
                    all_vars - new_support, i + 1, max_m - depth - 1
                ):
                    continue
                child = state.fork()
                clause = Clause(id=depth, literals=lits)
                child.inst = Instance(n, state.inst.clauses + [clause])
                try:
                    status, child = _admit_clause(child, clause)
                except GuardExceeded:
                    status = "anomaly"
                new_clauses = clauses + (lits,)
                compare(child, new_clauses)
                if status == "ok" and depth + 1 < max_m:
                    dfs(child, i + 1, depth + 1, new_support, new_clauses)
                elif status != "ok":
                    stats["dead"] += 1

        root = EngineState(build_instance(n, []))
        compare(root, ())
        dfs(root, 0, 0, frozenset(), ())
        feasible.cache_clear()
    return stats


class RecordingList(list):
    """A list that records the index of every write and counts the
    slices (copies) taken of it."""

    def __init__(self, items):
        super().__init__(items)
        self.writes = []
        self.slices = 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            self.slices += 1
        return super().__getitem__(index)

    def __setitem__(self, index, value):
        self.writes.append(index)
        super().__setitem__(index, value)


def snapshot(state: EngineState):
    """Canonical immutable view of the semantic state (run log and
    accounting excluded); it lists only the literals that are not free."""
    values = state.values
    pins = state.pins
    lits = range(-state.inst.variable_count, state.inst.variable_count + 1)
    return (
        tuple((lit, values[lit]) for lit in lits if values[lit] != FREE),
        tuple(sorted(state.concepts.items())),
        tuple(sorted({key[0] for key in state.concepts})),
        tuple((lit, pins[lit]) for lit in lits if pins[lit]),
    )


def view_memo_key(state: EngineState, literal: int) -> tuple:
    """Exact key of ``(literal, snapshot(state.restrict_to(literal)))``,
    read off the state's own index without building the view, as one flat
    tuple: the literal; the values of the positive literals, of the
    negative ones, and likewise the pins, each joined into one string with
    its trailing free (unpinned) slots cut, so that equal views over
    different variable counts share a key as their snapshots do; then the
    origin clause, focus and two companions of every kept concept in key
    order.
    The view keeps the concepts indexed under the literal or its negation,
    as focus or companion."""
    keys = set()
    for lit in (literal, -literal):
        keys.update(state.by_focus[lit])
        keys.update(state.by_member[lit])
    n = state.inst.variable_count
    values = state.values
    pins = state.pins
    flat = [
        literal,
        "".join(values[1 : n + 1]).rstrip(FREE),
        "".join(values[:n:-1]).rstrip(FREE),
        "|".join(pins[1 : n + 1]).rstrip("|"),
        "|".join(pins[:n:-1]).rstrip("|"),
    ]
    concepts = state.concepts
    for key in sorted(keys):
        flat += key
        flat += concepts[key]
    return tuple(flat)


def scanning_restrict_to(state: EngineState, literal: int) -> EngineState:
    """Reference for ``EngineState.restrict_to``: keep the admitted
    clauses that contain the literal or its negation by scanning every
    admitted clause, then filter every concept and index list."""
    keep = {
        cid
        for cid in {key[0] for key in state.concepts}
        if literal in state.inst.clauses[cid].literals
        or -literal in state.inst.clauses[cid].literals
    }
    view = EngineState(state.inst, state.log)
    view.values = state.values[:]
    view.concepts = {k: v for k, v in state.concepts.items() if k[0] in keep}
    for index, out in (
        (state.by_focus, view.by_focus),
        (state.by_member, view.by_member),
    ):
        for lit, keys in enumerate(index):
            out[lit] = tuple(k for k in keys if k[0] in keep)
    view.pins = state.pins[:]
    return view


def index_of(state: EngineState):
    """The whole concept index in canonical form, both lookup tables
    included (``snapshot`` leaves those out): each slot's keys as a
    sorted list, in slot order."""
    return (
        snapshot(state),
        [sorted(keys) for keys in state.by_focus],
        [sorted(keys) for keys in state.by_member],
    )


def negate_variables(inst: Instance, flipped) -> Instance:
    """``inst`` with each literal of a variable in ``flipped`` negated in
    every clause; clause ids and literal positions are kept."""
    return build_instance(
        inst.variable_count,
        [tuple(-lit if abs(lit) in flipped else lit for lit in c.literals) for c in inst.clauses],
    )


def random_instance(rng: random.Random, n: int, m: int) -> Instance:
    """Arbitrary well-formed instance; clauses may repeat a variable in
    both polarities (unlike the uniform generator)."""
    literals = [l for v in range(1, n + 1) for l in (v, -v)]
    clauses = []
    seen = set()
    universe = list(itertools.combinations(literals, 3))
    rng.shuffle(universe)
    for lits in universe[:m]:
        key = frozenset(lits)
        if key not in seen:
            seen.add(key)
            clauses.append(lits)
    return build_instance(n, clauses)


def scanning_unmet(state: EngineState, literal: int) -> int:
    """Reference for ``EngineState.unmet``: rescan every concept focused
    on the literal and count those with no effectively true companion
    (the scan that every reevaluation made before the count was kept)."""
    values = state.values
    pins = state.pins
    count = 0
    for key in state.by_focus[literal]:
        m1, m2 = state.concepts[key]
        v1 = pins[m1] or values[m1]
        v2 = pins[m2] or values[m2]
        if v1 != TRUE and v2 != TRUE:
            count += 1
    return count


def rebuilding_algorithm_d(
    state: EngineState,
    literal: int,
    history: frozenset[int] = frozenset(),
) -> EngineState | None:
    """Reference for ``algorithm_d``: the same repair, but every turn of
    its loop re-sorts the concepts focused on the negation and re-types
    each one not yet considered, then takes the first C+ key."""
    if state.values[literal] != FALSE:
        raise ValueError("algorithm_d requires a false literal")
    log = state.log
    log.emit("D_ENTER", literal=literal)
    work = state
    considered: set = set()
    while True:
        pending = [
            key
            for key in work.by_focus[-literal]
            if key not in considered and concept_type(work, key) == CPLUS
        ]
        if not pending:
            break
        key = pending[0]
        considered.add(key)
        log.emit("D_CONCEPT", literal=literal, clause=key[0])
        covered = False
        for companion in work.concepts[key]:
            if companion in history:
                continue
            log.emit("D_MEMBER", literal=companion, old=work.values[companion], clause=key[0])
            candidate = None
            if work.values[companion] == FALSE:
                log.emit("D_RECURSE", literal=companion)
                candidate = rebuilding_algorithm_d(work, companion, history | {literal})
                if candidate is None:
                    continue
            basis = candidate if candidate is not None else work
            if basis.values[companion] != FREE:
                continue
            if not algorithm_g(basis.restrict_to(companion), companion):
                continue
            trial = basis if basis is not work else basis.fork()
            if not trial.pin_literal(companion):
                continue
            if trial.compute_fixpoint([companion]) is not None:
                continue
            work = trial
            covered = True
            break
        if not covered:
            log.emit("D_RESULT", literal=literal, new="none")
            return None
    if work is state:
        work = state.fork()
    res = work.compute_fixpoint([literal])
    if res is not None or work.values[literal] != FREE:
        work.log.gaps += 1
        log.emit("D_RESULT", literal=literal, new="gap")
        return None
    log.emit("D_RESULT", literal=literal, new="ok")
    return work


def reevaluate_pair(state: EngineState, var: int, not_true=()):
    """Reference for one step of ``EngineState.compute_fixpoint``, which
    writes it out in its loop: two basic operations, one per polarity:
    the value of ``var`` under the current concepts and assumptions
    (``-var`` takes its flip), or a Contradiction marker.  The
    contradictions are tried in this order: ``var`` needed and opposed,
    ``var``'s pin opposed, ``var`` forced true while in ``not_true``,
    ``-var`` forced true while in ``not_true``.  One found on ``var``
    costs one operation: ``-var`` is not reached."""
    log = state.log
    log.ops += 2
    p = state.unmet[var] > 0
    q = state.unmet[-var] > 0
    if p and q:
        log.ops -= 1
        return Contradiction(var, "needed-and-opposed")
    computed = TRUE if p else FALSE if q else FREE
    pins = state.pins
    pin = pins[var]
    if pin:
        if computed != FREE and computed != pin:
            log.ops -= 1
            return Contradiction(var, "pin-conflict")
        if pins[-var] != flip(pin):
            raise AssertionError(f"coupling broke during recomputation of variable {var}")
        return pin
    if computed == TRUE:
        if var in not_true:
            log.ops -= 1
            return Contradiction(var, "not-true-forced")
    elif computed == FALSE and -var in not_true:
        return Contradiction(-var, "not-true-forced")
    return computed


def dependents(state: EngineState, literal: int) -> list[int]:
    """Reference for the variables ``compute_fixpoint`` re-enqueues after
    a change to the literal's pair, in index order: those whose focused
    concepts contain either polarity of the literal."""
    out = set()
    for lit in (literal, -literal):
        for key in state.by_member[lit]:
            out.add(abs(key[1]))
    return sorted(out)


def reevaluate_literal(state: EngineState, literal: int, not_true=()):
    """Reference for one polarity of ``reevaluate_pair``:
    one basic operation, the literal's value under the current concepts
    and assumptions, or a Contradiction marker."""
    state.log.ops += 1
    p = state.unmet[literal] > 0
    q = state.unmet[-literal] > 0
    if p and q:
        return Contradiction(literal, "needed-and-opposed")
    computed = TRUE if p else FALSE if q else FREE
    pin = state.pins[literal]
    if pin:
        if computed == flip(pin) and computed != FREE:
            return Contradiction(literal, "pin-conflict")
        return pin
    if computed == TRUE and literal in not_true:
        return Contradiction(literal, "not-true-forced")
    return computed


def write_pair(state: EngineState, literal: int, value) -> None:
    """Reference for ``compute_fixpoint``'s value write: one polarity at a
    time, so a concept holding both as companions sees each change
    against the other's value of that moment, and ``unmet`` retallied
    for each unpinned polarity whose truth moved."""
    values = state.values
    for lit, v in ((literal, value), (-literal, flip(value))):
        was_true = values[lit] == TRUE
        values[lit] = v
        if was_true != (v == TRUE) and not state.pins[lit]:
            state._retally(lit, 1 if was_true else -1)


def pairwise_compute_fixpoint(state: EngineState, seeds, not_true=()):
    """Reference for ``EngineState.compute_fixpoint``: the same worklist,
    but each step reevaluates the two polarities of its variable with two
    separate ``reevaluate_literal`` calls and checks that they come out
    coupled, and a failure undoes its changes from a log, newest first,
    rather than from a saved copy."""
    queue: deque[int] = deque()
    queued: set[int] = set()
    for var in sorted({abs(s) for s in seeds}):
        queue.append(var)
        queued.add(var)
    undo = []

    def rollback():
        for var, old in reversed(undo):
            write_pair(state, var, old)

    steps = 0
    cap = state._step_cap()
    while queue:
        steps += 1
        if steps > cap:
            rollback()
            state.log.guard_trips += 1
            raise GuardExceeded("fixpoint step guard exceeded")
        var = queue.popleft()
        queued.discard(var)
        r_pos = reevaluate_literal(state, var, not_true)
        if isinstance(r_pos, Contradiction):
            rollback()
            state.log.emit("CONTRADICTION", literal=r_pos.witness, new=r_pos.reason)
            return r_pos
        r_neg = reevaluate_literal(state, -var, not_true)
        if isinstance(r_neg, Contradiction):
            rollback()
            state.log.emit("CONTRADICTION", literal=r_neg.witness, new=r_neg.reason)
            return r_neg
        if r_neg != flip(r_pos):
            raise AssertionError(f"coupling broke during recomputation of variable {var}")
        old = state.values[var]
        if r_pos != old:
            undo.append((var, old))
            write_pair(state, var, r_pos)
            state.log.emit("SET", literal=var, old=old, new=r_pos)
            for dep in dependents(state, var):
                if dep not in queued:
                    queue.append(dep)
                    queued.add(dep)
    return None


def recursive_dpll(inst: Instance) -> OracleVerdict:
    """The recursive search ``oracle.dpll`` replaced, kept as its
    reference: unit propagation plus branching on the lowest unassigned
    variable, true branch first.  It recurses once per decision and
    copies the assignment at every node."""
    n = inst.variable_count
    clauses = [c.literals for c in inst.clauses]
    nodes = 0

    def lit_value(lit: int, assign: dict[int, bool]):
        var = abs(lit)
        if var not in assign:
            return None
        val = assign[var]
        return val if lit > 0 else not val

    def propagate(assign: dict[int, bool]):
        """Returns False on conflict, else True; mutates assign."""
        changed = True
        while changed:
            changed = False
            for lits in clauses:
                unassigned = None
                satisfied = False
                open_count = 0
                for lit in lits:
                    v = lit_value(lit, assign)
                    if v is True:
                        satisfied = True
                        break
                    if v is None:
                        open_count += 1
                        unassigned = lit
                if satisfied:
                    continue
                if open_count == 0:
                    return False
                if open_count == 1:
                    assign[abs(unassigned)] = unassigned > 0
                    changed = True
        return True

    def search(assign: dict[int, bool]):
        nonlocal nodes
        nodes += 1
        assign = dict(assign)
        if not propagate(assign):
            return None
        var = next((v for v in range(1, n + 1) if v not in assign), None)
        if var is None:
            return assign
        for val in (True, False):
            assign[var] = val
            result = search(assign)
            if result is not None:
                return result
        return None

    model = search({})
    if model is None:
        return OracleVerdict(False, None, nodes, "dpll")
    values = {v: int(model.get(v, False)) for v in range(1, n + 1)}
    return OracleVerdict(True, Assignment(values=values), nodes, "dpll")


def restarting_minimize(record: CounterexampleRecord) -> CounterexampleRecord:
    """``harness.minimize`` as it was before it resumed candidates from a
    saved prefix state and stopped once every clause had been rejected in
    a row, kept as its reference; body unchanged.

    Shrink the record's instance to a 1-minimal core that keeps its bin.

    The instance is adjudicated afresh.  Under input clause order a run
    that stops at failing clause k never reads the clauses after it, so
    when that run can only keep its bin under clause removal (an anomaly,
    or an unsat answer on a satisfiable instance) the instance is cut to
    its first k+1 clauses; each accepted candidate is cut the same way.
    Then single clauses are removed in passes that never restart: after
    a removal the scan stays at the same index.  Passes repeat until one
    removes nothing, which proves the core 1-minimal.  Every candidate is
    adjudicated; the returned record is the row of the exact core, reused
    from the scan when the last accepted candidate was not cut.
    """
    inst = parse_dimacs(record.dimacs)
    cfg = SolveConfig(**record.config)
    method = record.oracle_verdict.get("method", "auto")

    def adjudicated(clause_lits) -> Adjudication:
        cand = build_instance(inst.variable_count, clause_lits)
        return next(adjudicate([(None, cand)], cfg, method))

    def kept(row: Adjudication) -> list:
        """The row's clauses, cut after its failing clause when that is safe."""
        lits = [c.literals for c in row.instance.clauses]
        k = row.outcome.failing_clause
        # Dropping clauses keeps a satisfiable instance satisfiable, and
        # the cut run repeats the same outcome, so the bin cannot change.
        keeps_bin = row.outcome.kind == "anomaly" or row.verdict.sat
        if row.bin == record.kind and cfg.clause_order == "input" and k is not None and keeps_bin:
            return lits[: k + 1]
        return lits

    row = adjudicated([c.literals for c in inst.clauses])
    lits = kept(row)
    removed = True
    while removed:
        removed = False
        i = 0
        while i < len(lits):
            cand = adjudicated(lits[:i] + lits[i + 1 :])
            if cand.bin == record.kind:
                row, lits, removed = cand, kept(cand), True
            else:
                i += 1
    if len(row.instance.clauses) != len(lits):
        row = adjudicated(lits)
    return replace(row.record(), minimized=True)

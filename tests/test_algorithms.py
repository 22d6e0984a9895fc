"""Search procedures: assumption check (g) and false-literal repair (d)."""

import contextlib
import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from understanding_sat import algorithms
from understanding_sat.algorithms import algorithm_d, algorithm_g
from understanding_sat.cnf import build_instance
from understanding_sat.engine import (
    FALSE,
    FREE,
    TRUE,
    EngineState,
    GuardExceeded,
    RunLog,
    TRACE_FIELDS,
)
from understanding_sat.harness import GenSpec, gen_random
from understanding_sat.solver import SolveConfig, solve

from helpers import (
    CLAUSE,
    COUNTER,
    KIND,
    LITERAL,
    NEW,
    RecordingList,
    add_concept,
    admitted_state,
    coupling_violations,
    fresh_state,
    lemma_g_conditions,
    order_trap_instance,
    random_instance,
    rebuilding_algorithm_d,
    reevaluate_literal,
    scanning_unmet,
    snapshot,
    soundness_violations,
    stage_concept,
)


def staged(n, inserts):
    """State with concepts indexed but values untouched (all free)."""
    inst = build_instance(n, [lits for lits, _ in inserts])
    st_ = fresh_state(inst)
    for cid, (_, focus) in enumerate(inserts):
        stage_concept(st_, cid, inst.clauses[cid], focus)
    return st_


class TestAssumptionCheck:
    def test_single_concept_free_companions_is_true(self):
        st_ = staged(3, [((1, 2, 3), 1)])
        assert algorithm_g(st_, 1) is True
        assert lemma_g_conditions(st_, 1) is True

    def test_no_concepts_is_false(self):
        st_ = fresh_state(build_instance(3, [(1, 2, 3)]))
        assert algorithm_g(st_, 1) is False
        assert lemma_g_conditions(st_, 1) is False

    def test_identical_opposing_companions_is_false(self):
        st_ = staged(3, [((1, 2, 3), 1), ((-1, 2, 3), -1)])
        assert algorithm_g(st_, 1) is False
        assert lemma_g_conditions(st_, 1) is False

    def test_split_opposing_pair_is_false(self):
        # opposing concepts {2,4} and {3,-4} cover the companions {2,3}
        # through a complementary bridge literal
        st_ = staged(
            4, [((1, 2, 3), 1), ((-1, 2, 4), -1), ((-1, 3, -4), -1)]
        )
        assert lemma_g_conditions(st_, 1) is False
        assert algorithm_g(st_, 1) is False

    def test_second_concept_can_succeed(self):
        # Consistent state where the first concept of 1 is doomed (its
        # companion 2 is held true by an outside need, so forcing 2 away
        # from true contradicts) while the second concept's companions 4
        # and 5 can drop to unknown once 1 is assumed true.  The check
        # must iterate past the failure; the success event names the
        # second concept's clause.
        inst = build_instance(8, [(1, 2, 3), (-1, 2, 3), (1, 4, 5), (2, 7, 8)])
        st_ = EngineState(inst, log=RunLog(enabled=True))
        for cid, focus in [(3, 2), (0, 1), (1, -1), (2, 4), (2, 1)]:
            assert add_concept(st_, cid, inst.clauses[cid], focus) is None
        assert st_.values[1] == FREE
        assert soundness_violations(st_) == []
        assert lemma_g_conditions(st_, 1) is True
        assert algorithm_g(st_, 1) is True
        wins = [e for e in st_.log.events if e[KIND] == "G_RESULT"]
        assert wins[-1][CLAUSE] == 2

    def test_precondition_requires_free_literal(self):
        status, st_ = admitted_state(build_instance(3, [(1, 2, 3)]))
        assert status == "ok"
        assert st_.values[1] == TRUE
        with pytest.raises(ValueError):
            algorithm_g(st_, 1)
        with pytest.raises(ValueError):
            lemma_g_conditions(st_, -1)

    def test_never_mutates_caller(self):
        st_ = staged(3, [((1, 2, 3), 1), ((-1, 2, 3), -1)])
        before = snapshot(st_)
        algorithm_g(st_, 1)
        assert snapshot(st_) == before

    def test_agreement_is_scoped_to_the_literal_restriction(self):
        # An outside clause keeps companion 2 load-bearing: the behavioral
        # check fails on the full state, while the structural conditions
        # only speak about the view restricted to clauses touching the
        # literal.  On that view both answers coincide.
        inst = build_instance(4, [(2, 3, 4), (1, 2, 3)])
        status, st_ = admitted_state(inst)
        assert status == "ok"
        assert st_.values[2] == TRUE and st_.values[1] == FREE
        assert algorithm_g(st_, 1) is False
        assert lemma_g_conditions(st_, 1) is True
        view = st_.restrict_to(1)
        assert algorithm_g(view, 1) is True
        assert lemma_g_conditions(view, 1) is True


def _counting(calls):
    """Patches that count ``fork`` and ``pin_literal`` calls and record
    each fixpoint's not-true argument, leaving all three to run as they
    would."""
    real_fork, real_fixpoint = EngineState.fork, EngineState.compute_fixpoint
    real_pin = EngineState.pin_literal

    def fork(self, lists=None):
        calls["fork"] += 1
        return real_fork(self, lists)

    def compute_fixpoint(self, seeds, not_true=()):
        calls["not_true"].append(tuple(not_true))
        return real_fixpoint(self, seeds, not_true)

    def pin_literal(self, literal):
        calls["pin"] += 1
        return real_pin(self, literal)

    return (
        mock.patch.object(EngineState, "fork", fork),
        mock.patch.object(EngineState, "compute_fixpoint", compute_fixpoint),
        mock.patch.object(EngineState, "pin_literal", pin_literal),
    )


def test_freeing_check_forks_once_and_leaves_its_input():
    # However many attempts a call runs, it forks its input once: a
    # failed attempt leaves that fork as it found it for the next one.
    most = 0
    for seed in range(300):
        rng = random.Random(seed)
        inst = random_instance(rng, rng.randint(3, 5), rng.randint(2, 7))
        _, st_ = admitted_state(inst)
        before = snapshot(st_)
        for lit in (l for v in range(1, inst.variable_count + 1) for l in (v, -v)):
            if st_.values[lit] != FREE:
                continue
            calls = {"fork": 0, "not_true": [], "pin": 0}
            fork_patch, fixpoint_patch, pin_patch = _counting(calls)
            with fork_patch, fixpoint_patch, pin_patch:
                algorithm_g(st_, lit)
            assert calls["fork"] == calls["pin"] == 1
            assert snapshot(st_) == before
            most = max(most, len(calls["not_true"]))
    assert most >= 3


def test_freeing_check_skips_an_attempt_with_a_companion_pinned_true():
    # The first concept of 1 has companion 2 pinned true, so 2 cannot be
    # held not-true: that attempt is passed over with no fixpoint, and
    # the second concept's attempt answers.
    inst = build_instance(5, [(1, 2, 3), (1, 4, 5)])
    st_ = fresh_state(inst, trace=True)
    stage_concept(st_, 0, inst.clauses[0], 1)
    stage_concept(st_, 1, inst.clauses[1], 1)
    assert st_.pin_literal(2)
    assert st_.values[1] == FREE
    calls = {"fork": 0, "not_true": [], "pin": 0}
    fork_patch, fixpoint_patch, pin_patch = _counting(calls)
    with fork_patch, fixpoint_patch, pin_patch:
        assert algorithm_g(st_, 1) is True
    assert calls == {"fork": 1, "not_true": [(4, 5)], "pin": 1}
    result = [e for e in st_.log.events if e[KIND] == "G_RESULT"]
    assert [(e[NEW], e[CLAUSE]) for e in result] == [("true", 1)]


class TestRepair:
    def test_precondition_requires_false_literal(self):
        st_ = fresh_state(build_instance(3, [(1, 2, 3)]))
        with pytest.raises(ValueError):
            algorithm_d(st_, 1)

    def test_frees_literal_by_pinning_companion(self):
        status, st_ = admitted_state(build_instance(3, [(1, 2, 3)]))
        assert status == "ok"
        assert st_.values[-1] == FALSE
        before = snapshot(st_)
        result = algorithm_d(st_, -1)
        assert result is not None
        assert result.values[-1] == FREE
        assert reevaluate_literal(result, -1) == FREE
        assert result.pins[2] == TRUE
        assert coupling_violations(result) == []
        assert soundness_violations(result) == []
        assert snapshot(st_) == before  # caller untouched

    def test_history_blocks_both_members(self):
        status, st_ = admitted_state(build_instance(3, [(1, 2, 3)]))
        before = snapshot(st_)
        assert algorithm_d(st_, -1, history=frozenset({2, 3})) is None
        assert snapshot(st_) == before

    def test_one_pin_can_cover_remaining_concepts(self):
        # two needs share companion 2; pinning it lifts both, so only a
        # single concept visit appears in the trace
        inst = build_instance(4, [(1, 2, 3), (1, 2, 4)])
        st_ = fresh_state(inst, trace=True)
        from understanding_sat.solver import _admit_clause

        for cid, lits in enumerate(inst.clauses):
            status, st_ = _admit_clause(st_, cid, lits)
            assert status == "ok"
        assert st_.values[-1] == FALSE
        result = algorithm_d(st_, -1)
        assert result is not None
        visits = [e for e in st_.log.events if e[KIND] == "D_CONCEPT"]
        assert len(visits) == 1

    def test_unrepairable_state_returns_none(self):
        status, st_ = admitted_state(order_trap_instance(), upto=3)
        assert status == "ok"
        before = snapshot(st_)
        for lam in (-1, -2, -3):
            assert st_.values[lam] == FALSE
            assert algorithm_d(st_, lam) is None
        assert snapshot(st_) == before


@given(st.integers(min_value=0, max_value=400))
def test_repair_postcondition_on_random_states(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(3, 5), rng.randint(2, 6))
    status, st_ = admitted_state(inst)
    if status != "ok":
        return
    false_literals = [
        lit
        for var in range(1, inst.variable_count + 1)
        for lit in (var, -var)
        if st_.values[lit] == FALSE
    ]
    before = snapshot(st_)
    for lam in false_literals[:2]:
        result = algorithm_d(st_, lam)
        assert snapshot(st_) == before
        if result is not None:
            assert result.values[lam] == FREE
            assert coupling_violations(result) == []
            assert soundness_violations(result) == []


@given(st.integers(min_value=0, max_value=100_000))
def test_repair_matches_rebuilding_reference(seed):
    # The state is the one the solver reaches when a clause arrives (or
    # would arrive) all false, sometimes with an extra pin propagated.
    # Each false literal is repaired by both loops on a fresh traced log:
    # result, ops, guard trips, gaps and the whole event stream must match.
    # Some repairs run with the fixpoint step guard capped low, so a trip
    # part-way through a repair is compared too.
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(3, 6), rng.randint(4, 14))
    _, st_ = admitted_state(inst)
    if rng.random() < 0.3:
        lit = rng.choice([l for v in range(1, inst.variable_count + 1) for l in (v, -v)])
        pinned = st_.fork()
        if pinned.pin_literal(lit) and pinned.compute_fixpoint([lit]) is None:
            st_ = pinned
    false_literals = [
        lit
        for var in range(1, inst.variable_count + 1)
        for lit in (var, -var)
        if st_.values[lit] == FALSE
    ]

    def run(repair, lam, cap):
        # A stored check replays the events its own log recorded, so a
        # state moved to a new log starts a new store, as a resumed run does.
        st_.log, st_.checks = RunLog(enabled=True), {}
        guard = (
            contextlib.nullcontext()
            if cap is None
            else mock.patch.object(EngineState, "_step_cap", lambda self: cap)
        )
        with guard:
            try:
                res = repair(st_, lam)
            except GuardExceeded:
                res = "guard"
            else:
                res = None if res is None else snapshot(res)
        log = st_.log
        return res, log.ops, log.guard_trips, log.gaps, log.events

    for lam in false_literals:
        cap = rng.choice((None, None, rng.randint(0, 8)))
        assert run(algorithm_d, lam, cap) == run(rebuilding_algorithm_d, lam, cap)


def test_repair_history_survives_a_frame_whose_literal_it_holds(monkeypatch):
    # Clause 0 holds both 1 and -1, so repairing -1 recurses into a frame
    # for -1 whose history already holds -1.  The frames share one
    # history set: that inner frame must leave -1 in it for its caller,
    # so every result, count and event equals the reference's, which
    # builds a new frozenset per level.
    inst = build_instance(3, [(1, -1, -2), (-1, 2, -2), (-1, -2, 3), (-1, -2, -3)])
    status, st_ = admitted_state(inst, upto=3)
    assert status == "ok"
    frames = []
    repair = algorithms.algorithm_d

    def spy(state, literal, history=frozenset()):
        frames.append((literal, literal in history))
        return repair(state, literal, history)

    monkeypatch.setattr(algorithms, "algorithm_d", spy)

    def run(procedure, lam):
        st_.log, st_.checks = RunLog(enabled=True), {}
        try:
            res = procedure(st_, lam)
        except GuardExceeded:
            res = "guard"
        else:
            res = None if res is None else snapshot(res)
        log = st_.log
        return res, log.ops, log.guard_trips, log.gaps, log.events

    for lam in inst.clauses[3]:
        assert st_.values[lam] == FALSE
        assert run(spy, lam) == run(rebuilding_algorithm_d, lam)
    assert (-1, True) in frames


def _direct_trial(state, literal):
    """Storeless reference for ``_freeing_trial``: the check on the view,
    then a fork pinned and propagated."""
    if not algorithms.algorithm_g(state.restrict_to(literal), literal):
        return None
    trial = state.fork()
    if trial.pin_literal(literal) and trial.compute_fixpoint([literal]) is None:
        return trial
    return None


def _final(state):
    return None if state is None else (snapshot(state), tuple(state.unmet))


def _run(inst, cfg):
    out = solve(inst, cfg)
    return (
        out.kind, out.ops, out.failing_clause, out.anomaly, out.guard_trips, out.gaps,
        out.trace, _final(out.state),
    )


@given(
    st.integers(min_value=8, max_value=16),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(("input", "perm")),
)
def test_stored_checks_leave_every_run_as_it_was(n, seed, order):
    # A trial answered from its index's store must leave the run exactly
    # as running it again does: verdict, ops, failing clause, guard trips,
    # gaps, every event (steps and counters included) and the final state.
    rng = random.Random(seed)
    inst = gen_random(GenSpec(n=n, m=rng.randint(3 * n, 5 * n), seed=seed))
    cfg = SolveConfig(clause_order=order, order_seed=seed, trace=True)
    stored = _run(inst, cfg)
    with mock.patch.object(algorithms, "_freeing_trial", _direct_trial):
        assert _run(inst, cfg) == stored


def test_repeated_checks_are_replayed_not_run():
    # On these draws most trials repeat one the run already asked, and
    # only the first of each runs ``algorithm_g``; a finished run keeps
    # no stored trials.
    calls = 0
    real_g = algorithms.algorithm_g

    def counting_g(*args):
        nonlocal calls
        calls += 1
        return real_g(*args)

    insts = [gen_random(GenSpec(n=14, m=56, seed=seed)) for seed in range(6)]
    with mock.patch.object(algorithms, "algorithm_g", counting_g):
        with mock.patch.object(algorithms, "_freeing_trial", _direct_trial):
            for inst in insts:
                solve(inst)
        asked, calls = calls, 0
        for inst in insts:
            state = solve(inst).state
            assert state.checks == {} and state.views == {}
    assert 0 < 2 * calls < asked


def _event_dicts(events, ops=0):
    """Each event as a dict of every field, its counter taken relative to
    ``ops``; its step is its position in the list."""
    return [dict(zip(TRACE_FIELDS, e), counter=e[COUNTER] - ops) for e in events]


def _trial_on_log(state, literal):
    """Run the stored trial on ``state``'s traced log; return the trial,
    the ops it added and its events, each step and counter taken
    relative to the start."""
    log = state.log
    ops, step = log.ops, len(log.events)
    trial = algorithms._freeing_trial(state, literal)
    return trial, log.ops - ops, _event_dicts(log.events[step:], ops)


def _check_on_log(state, literal):
    trial, ops, events = _trial_on_log(state, literal)
    return _final(trial), ops, events


def _fresh_check(state, literal):
    fork = state.fork()
    fork.log, fork.checks = RunLog(enabled=True), {}
    trial = _direct_trial(fork, literal)
    return _final(trial), fork.log.ops, _event_dicts(fork.log.events)


def test_stored_checks_tell_clause_ids_apart_by_their_literals():
    # Clause 0 holds other literals in the two instances; the concept
    # keys and the ``view_key``s of the views of -2 are the same, and the
    # answers are not.  Each index keeps its trial in a store of its own.
    log = RunLog(enabled=True)
    states, answers = [], []
    for first in ((1, -1, -2), (-1, -2, 3)):
        inst = build_instance(3, [first, (1, -1, 2)])
        state = EngineState(inst, log)
        stage_concept(state, 0, inst.clauses[0], -2)
        stage_concept(state, 1, inst.clauses[1], 1)
        assert _check_on_log(state, -2) == _fresh_check(state, -2)
        replayed = _check_on_log(state, -2)
        assert replayed == _fresh_check(state, -2)
        answers.append(replayed[0] is not None)
        states.append(state)
    assert answers == [False, True]
    a, b = states
    assert a.view_key(-2) == b.view_key(-2)
    assert a.checks is not b.checks
    assert len(a.checks) == len(b.checks) == 1


@given(st.integers(min_value=0, max_value=100_000))
def test_instances_sharing_a_log_never_share_a_wrong_check(seed):
    # As in the a4 sweep, one log spans instances whose clause ids hold
    # other literals: every trial, stored or replayed, must equal a
    # fresh run of it.
    rng = random.Random(seed)
    n, m = rng.randint(3, 5), rng.randint(2, 8)
    log = RunLog(enabled=True)
    states = []
    for _ in range(3):
        inst = random_instance(rng, n, m)
        _, state = admitted_state(inst, upto=rng.randint(0, len(inst.clauses)))
        state.log, state.checks = log, {}  # a store replays its own log's events
        states.append(state)
    for _ in range(2):
        for state in states:
            for lit in (l for v in range(1, n + 1) for l in (v, -v)):
                if state.values[lit] == FREE:
                    assert _check_on_log(state, lit) == _fresh_check(state, lit)


def _tripping(state, literal):
    """Ask the trial twice, each time expecting a guard trip; return what
    each ask added to the log."""
    log = state.log
    tripped, views = [], []
    for _ in range(2):
        trips, ops, step = log.guard_trips, log.ops, len(log.events)
        with pytest.raises(GuardExceeded):
            algorithms._freeing_trial(state, literal)
        events = [(e[KIND], e[LITERAL], e[NEW], e[COUNTER] - ops) for e in log.events[step:]]
        tripped.append((log.guard_trips - trips, log.ops - ops, events))
        assert state.checks == {}
        # The view was built before the trip and depends on the index
        # alone: it stays stored, and the repeat reads it.
        assert list(state.views) == [abs(literal)]
        views.append(state.views[abs(literal)])
    assert views[0] is views[1]
    assert tripped[0] == tripped[1]
    assert tripped[0][0] == 1 and tripped[0][1] > 0
    return tripped[0][2]


def test_guard_tripping_check_is_not_stored():
    # The step cap lets the first attempt's fixpoint make one step, then
    # trips; the trip is counted and nothing is stored, so the repeat
    # runs the check again and trips in the same place.
    inst = build_instance(3, [(1, 2, 3), (-1, 2, -3)])
    state = EngineState(inst, RunLog(enabled=True))
    stage_concept(state, 0, inst.clauses[0], 1)
    stage_concept(state, 1, inst.clauses[1], 2)
    with mock.patch.object(EngineState, "_step_cap", lambda self: 1):
        _tripping(state, 1)
    # Without the patched cap the same check completes and is stored.
    assert _check_on_log(state, 1) == _fresh_check(state, 1)
    assert len(state.checks) == 1


def test_guard_tripping_trial_after_an_approved_check_is_not_stored():
    # The check runs on its view at the usual cap and approves; only the
    # trial's fixpoint, on the state's own index, gets one step.  Nothing
    # is stored, and the repeat trips in the same place.
    _, state = admitted_state(build_instance(3, [(1, 2, 3)]))
    state.log, state.checks = RunLog(enabled=True), {}
    assert state.values[2] == FREE
    real_cap = EngineState._step_cap

    def cap(self):
        return 1 if self.concepts is state.concepts else real_cap(self)

    with mock.patch.object(EngineState, "_step_cap", cap):
        events = _tripping(state, 2)
    assert ("G_RESULT", 2, "true") in [e[:3] for e in events]
    assert events[-1][:3] == ("SET", 2, TRUE)
    assert _check_on_log(state, 2) == _fresh_check(state, 2)
    assert _check_on_log(state, 2)[0] is not None
    assert len(state.checks) == 1


def _approved(seeds):
    """(state, literal) for each approved trial on admitted random states,
    each state on a fresh traced log and store."""
    for seed in seeds:
        rng = random.Random(seed)
        inst = random_instance(rng, rng.randint(3, 5), rng.randint(2, 7))
        _, state = admitted_state(inst)
        state.log, state.checks = RunLog(enabled=True), {}
        for lit in (l for v in range(1, inst.variable_count + 1) for l in (v, -v)):
            if state.values[lit] == FREE and _fresh_check(state, lit)[0] is not None:
                yield state, lit


def _unmet_rescanned(state):
    n = state.inst.variable_count
    lits = [l for v in range(1, n + 1) for l in (v, -v)]
    return [state.unmet[l] for l in lits] == [scanning_unmet(state, l) for l in lits]


def test_repeated_trial_runs_no_pin_and_no_fixpoint():
    # An approved trial asked again is replayed: one fork, no pin and no
    # fixpoint, and the fork equals a fresh trial, ``unmet`` included.
    replayed = 0
    for state, lit in _approved(range(120)):
        first = _check_on_log(state, lit)
        calls = {"fork": 0, "not_true": [], "pin": 0}
        fork_patch, fixpoint_patch, pin_patch = _counting(calls)
        with fork_patch, fixpoint_patch, pin_patch:
            trial, ops, events = _trial_on_log(state, lit)
        assert calls == {"fork": 1, "not_true": [], "pin": 0}
        assert (_final(trial), ops, events) == first == _fresh_check(state, lit)
        assert _unmet_rescanned(trial)
        replayed += 1
    assert replayed >= 100


def test_changing_a_returned_trial_leaves_the_store_as_it_was():
    # Each returned trial, stored or replayed, is the caller's to change:
    # pin a free literal on it and propagate, and the next ask still
    # equals a fresh trial.
    changed = 0
    for state, lit in _approved(range(120)):
        fresh = _fresh_check(state, lit)
        for _ in range(3):
            trial, ops, events = _trial_on_log(state, lit)
            assert (_final(trial), ops, events) == fresh
            assert _unmet_rescanned(trial)
            before = _final(trial)
            free = [l for l in range(1, state.inst.variable_count + 1) if trial.values[l] == FREE]
            if free and trial.pin_literal(free[0]):
                trial.compute_fixpoint([free[0]])
            changed += _final(trial) != before
    assert changed >= 100


def test_replayed_trial_copies_each_stored_list_once():
    # A replay builds its trial from one copy of each stored list and
    # copies none of the lists of the state it forks.  Writing over every
    # slot of a replayed trial then leaves the next replay as it was.
    replayed = 0
    for state, lit in _approved(range(60)):
        fresh = _fresh_check(state, lit)
        _trial_on_log(state, lit)
        key = state.view_key(lit)
        lists, ops, events = state.checks[key]
        stored = tuple(RecordingList(x) for x in lists)
        state.checks[key] = (stored, ops, events)
        own = tuple(RecordingList(x) for x in (state.values, state.pins, state.unmet))
        state.values, state.pins, state.unmet = own
        for _ in range(2):
            trial, ops_added, events_emitted = _trial_on_log(state, lit)
            assert (_final(trial), ops_added, events_emitted) == fresh
            assert [x.slices for x in stored] == [1, 1, 1]
            assert [x.slices for x in own] == [0, 0, 0]
            for x in stored:
                x.slices = 0
            for mine, fill in zip((trial.values, trial.pins, trial.unmet), (TRUE, FALSE, 9)):
                mine[1:] = [fill] * (len(mine) - 1)
        replayed += 1
    assert replayed >= 50


def test_conditions_miss_support_retraction_cascades():
    # Divergence witness: the structural conditions approve literal 1 via
    # its clean second concept, but the behavioral check refuses.  Assuming
    # 1 true converts the concept that kept 2 needed into a covered one, 2
    # falls back to unknown, and the opposing concept of -1 (members 2, 3)
    # becomes uncovered — so -1 turns needed while held false.  The
    # structural conditions never look at concepts focused on companions,
    # so they cannot see this cascade.  Every clause here mentions 1 or -1,
    # hence the restricted view is the same state and diverges identically.
    inst = build_instance(5, [(1, 2, 3), (-1, 2, 3), (1, 4, 5)])
    st_ = EngineState(inst)
    for cid, focus in [(2, 4), (2, 1), (0, 2), (0, 1), (1, -1)]:
        assert add_concept(st_, cid, inst.clauses[cid], focus) is None
    assert st_.values[1] == FREE
    assert soundness_violations(st_) == []
    assert coupling_violations(st_) == []
    assert lemma_g_conditions(st_, 1) is True
    assert algorithm_g(st_, 1) is False
    view = st_.restrict_to(1)
    assert lemma_g_conditions(view, 1) is True
    assert algorithm_g(view, 1) is False


@given(st.integers(min_value=0, max_value=400))
def test_assumption_check_success_implies_conditions_hold(seed):
    # One direction is solid: whenever the behavioral check succeeds on a
    # view restricted to the literal's clauses, the structural conditions
    # hold as well.  (The converse fails; see the cascade witness above.)
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(3, 5), rng.randint(1, 6))
    status, st_ = admitted_state(inst)
    if status != "ok":
        return
    for var in range(1, inst.variable_count + 1):
        for lit in (var, -var):
            if st_.values[lit] != FREE:
                continue
            view = st_.restrict_to(lit)
            if algorithm_g(view, lit):
                assert lemma_g_conditions(view, lit), (
                    f"success without conditions at literal {lit} of {inst!r}"
                )


def test_shared_prefix_sweep_matches_per_sequence_enumeration():
    # The prefix-sharing sweep must see exactly the comparisons a naive
    # walk sees when every ascending clause sequence is admitted from
    # scratch.  At two variables every 3-literal clause already covers
    # both, so the completability pruning is vacuous and the two
    # traversals are directly comparable.
    from collections import Counter

    import itertools

    from understanding_sat.solver import _admit_clause

    from helpers import sweep_assumption_check

    shared = Counter()
    sweep_assumption_check(
        2, 2, on_comparison=lambda *key: shared.update([key])
    )

    naive = Counter()
    n = 2
    universe = list(itertools.combinations((1, -1, 2, -2), 3))

    def record(st_, clauses):
        for var in (1, 2):
            for lit in (var, -var):
                if st_.values[lit] != FREE:
                    continue
                view = st_.restrict_to(lit)
                naive[
                    (
                        n,
                        clauses,
                        lit,
                        algorithm_g(view, lit),
                        lemma_g_conditions(view, lit),
                    )
                ] += 1

    record(EngineState(build_instance(n, [])), ())
    dead: set = set()
    for length in (1, 2):
        for seq in itertools.combinations(range(len(universe)), length):
            if any(seq[:k] in dead for k in range(1, length)):
                continue
            clauses = tuple(universe[j] for j in seq)
            st_ = EngineState(build_instance(n, list(clauses)))
            status = "ok"
            for cid, lits in enumerate(st_.inst.clauses):
                status, st_ = _admit_clause(st_, cid, lits)
                if status != "ok":
                    break
            record(st_, clauses)
            if status != "ok":
                dead.add(seq)

    assert sum(shared.values()) > 0
    assert shared == naive

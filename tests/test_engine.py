"""Propagation engine: value rule, fixpoint, pins, rollback, views."""

import contextlib
import itertools
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from understanding_sat.cnf import build_instance
from understanding_sat.engine import (
    Contradiction,
    EngineState,
    FALSE,
    FREE,
    GuardExceeded,
    RunLog,
    TRACE_FIELDS,
    TRUE,
    flip,
)
from understanding_sat.solver import solve

from helpers import (
    COUNTER,
    CPLUS,
    CSTAR,
    KIND,
    LITERAL,
    NEW,
    OLD,
    RecordingList,
    add_concept,
    admitted_state,
    concept_type,
    concept_type_of,
    coupling_violations,
    fresh_state,
    index_of,
    pairwise_compute_fixpoint,
    random_instance,
    scanning_restrict_to,
    scanning_unmet,
    snapshot,
    soundness_violations,
    stage_concept,
    view_memo_key,
)


class TestConceptTypes:
    # the six unordered companion-value combinations, frozen
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (FREE, FREE, CPLUS),
            (FALSE, FALSE, CPLUS),
            (FREE, FALSE, CPLUS),
            (TRUE, TRUE, CSTAR),
            (FREE, TRUE, CSTAR),
            (TRUE, FALSE, CSTAR),
        ],
    )
    def test_single_concept_table(self, a, b, expected):
        assert concept_type_of(a, b) == expected
        assert concept_type_of(b, a) == expected

    def test_flip(self):
        assert flip(TRUE) == FALSE
        assert flip(FALSE) == TRUE
        assert flip(FREE) == FREE


class TestValueRule:
    def test_needed_literal_becomes_true(self):
        inst = build_instance(3, [(1, 2, 3)])
        st_ = fresh_state(inst)
        assert add_concept(st_, 0, inst.clauses[0], 1) is None
        assert st_.values[1] == TRUE
        assert st_.values[-1] == FALSE
        assert st_.values[2] == FREE

    def test_opposed_literal_becomes_false(self):
        # a concept on -1 with free companions marks 1 false
        inst = build_instance(3, [(-1, 2, 3)])
        st_ = fresh_state(inst)
        assert add_concept(st_, 0, inst.clauses[0], -1) is None
        assert st_.values[1] == FALSE
        assert st_.values[-1] == TRUE

    def test_covered_concept_keeps_focus_free(self):
        # companion already true -> concept is C*, focus stays free
        inst = build_instance(5, [(2, 4, 5), (1, 2, 3)])
        st_ = fresh_state(inst)
        assert add_concept(st_, 0, inst.clauses[0], 2) is None
        assert st_.values[2] == TRUE
        assert add_concept(st_, 1, inst.clauses[1], 1) is None
        assert st_.values[1] == FREE

    def test_needed_and_opposed_contradicts_and_rolls_back(self):
        inst = build_instance(3, [(1, 2, 3), (-1, 2, 3)])
        st_ = fresh_state(inst)
        assert add_concept(st_, 0, inst.clauses[0], 1) is None
        before = snapshot(st_)
        res = add_concept(st_, 1, inst.clauses[1], -1)
        assert isinstance(res, Contradiction)
        assert res.reason == "needed-and-opposed"
        assert abs(res.witness) == 1
        assert snapshot(st_) == before

    def test_concept_type_follows_stored_values(self):
        inst = build_instance(3, [(1, 2, 3)])
        st_ = fresh_state(inst)
        add_concept(st_, 0, inst.clauses[0], 3)
        key = (0, 3)
        assert concept_type(st_, key) == CPLUS
        st_.pin_literal(1)
        st_.compute_fixpoint([1])
        assert concept_type(st_, key) == CSTAR


class TestPins:
    def test_pin_materializes_and_propagates(self):
        inst = build_instance(5, [(-3, 4, 5), (1, 2, 3)])
        st_ = fresh_state(inst)
        assert add_concept(st_, 0, inst.clauses[0], -3) is None
        assert add_concept(st_, 1, inst.clauses[1], 1) is None
        assert st_.values[1] == TRUE  # companions of (1): {e, f}
        assert st_.pin_literal(2)
        assert st_.values[2] == FREE  # lazy until the next recomputation
        assert st_.pins[2] == TRUE  # the effective value, ``pins[2] or values[2]``
        assert st_.compute_fixpoint([2]) is None
        assert st_.values[2] == TRUE
        assert st_.values[1] == FREE  # concept became C*, need lifted
        assert soundness_violations(st_) == []

    def test_pin_couples_both_polarities(self):
        inst = build_instance(3, [(1, 2, 3)])
        st_ = fresh_state(inst)
        assert st_.pin_literal(2)
        assert st_.pins[2] == TRUE and st_.pins[-2] == FALSE
        assert st_.pin_literal(2)  # the same pin again does not clash
        assert not st_.pin_literal(-2)  # clashes with existing pin

    def test_pin_conflict_contradiction(self):
        inst = build_instance(3, [(1, 2, 3)])
        st_ = fresh_state(inst)
        assert st_.pin_literal(-1)
        res = add_concept(st_, 0, inst.clauses[0], 1)  # computes t, pin says f
        assert isinstance(res, Contradiction)
        assert res.reason == "pin-conflict"
        assert st_.values[1] == FREE
        assert (0, 1) not in st_.concepts

    def test_not_true_forced_contradiction(self):
        inst = build_instance(3, [(1, 2, 3)])
        st_ = fresh_state(inst)
        stage_concept(st_, 0, inst.clauses[0], 1)
        res = st_.compute_fixpoint([1], (1,))
        assert isinstance(res, Contradiction)
        assert (res.witness, res.reason) == (1, "not-true-forced")
        assert st_.values[1] == FREE
        # The constraint belongs to that one call.
        assert st_.compute_fixpoint([1]) is None
        assert st_.values[1] == TRUE

    def test_free_pin_on_opposed_literal_survives(self):
        # epsilon never contradicts a pin; only direct opposition does
        inst = build_instance(3, [(-1, 2, 3)])
        st_ = fresh_state(inst)
        assert st_.pin_literal(-1)
        assert add_concept(st_, 0, inst.clauses[0], -1) is None
        assert st_.values[1] == FALSE


class TestFixpointMechanics:
    def test_guard_trips_roll_back(self, monkeypatch):
        inst = build_instance(3, [(1, 2, 3)])
        st_ = fresh_state(inst)
        monkeypatch.setattr(EngineState, "_step_cap", lambda self: 0)
        before = snapshot(st_)
        with pytest.raises(GuardExceeded):
            add_concept(st_, 0, inst.clauses[0], 1)
        assert snapshot(st_) == before
        assert st_.log.guard_trips == 1

    def test_ops_counts_reevaluations(self):
        inst = build_instance(3, [(1, 2, 3)])
        st_ = fresh_state(inst)
        add_concept(st_, 0, inst.clauses[0], 1)
        assert st_.log.ops > 0

    @pytest.mark.parametrize("staged", [None, 1, 2, 3], ids=["whole", "first", "second", "third"])
    def test_add_clause_refuses_an_admitted_clause(self, staged):
        # A clause admitted whole, or with any one of its concepts in, is
        # refused before anything changes: index, counts, stores and log.
        inst = build_instance(3, [(1, 2, 3), (-1, 2, -3)])
        st_ = fresh_state(inst, trace=True)
        assert st_.add_clause(0, inst.clauses[0]) is None
        cid = 0 if staged is None else 1
        clause = inst.clauses[cid]
        if staged is not None:
            stage_concept(st_, cid, clause, clause[staged - 1])
        before = index_of(st_), st_.unmet[:], st_.checks, st_.views, st_.log.ops
        events = st_.log.events[:]
        with pytest.raises(ValueError, match=f"^clause {cid} already admitted$"):
            st_.add_clause(cid, clause)
        assert (index_of(st_), st_.unmet, st_.checks, st_.views, st_.log.ops) == before
        assert st_.checks is before[2] and st_.views is before[3]
        assert st_.log.events == events

    def test_trace_events_have_stable_schema(self):
        inst = build_instance(3, [(1, 2, 3)])
        st_ = fresh_state(inst, trace=True)
        add_concept(st_, 0, inst.clauses[0], 1)
        assert st_.log.events, "tracing enabled must record events"
        assert TRACE_FIELDS == ("kind", "literal", "old", "new", "clause", "counter")
        for step, event in enumerate(st_.log.events):
            assert type(event) is tuple and len(event) == len(TRACE_FIELDS), step
        kinds = [e[KIND] for e in st_.log.events]
        assert "ADD_CONCEPT" in kinds and "SET" in kinds

    def test_disabled_log_records_no_events(self):
        inst = build_instance(3, [(1, 2, 3)])
        st_ = fresh_state(inst, trace=False)
        add_concept(st_, 0, inst.clauses[0], 1)
        assert st_.log.events == []
        assert st_.log.ops > 0


class TestViews:
    def test_fork_is_independent(self):
        inst = build_instance(3, [(1, 2, 3), (-1, -2, 3)])
        status, st_ = admitted_state(inst, upto=1)
        assert status == "ok"
        parent_value = st_.values[3]
        child = st_.fork()
        add_concept(child, 1, inst.clauses[1], 3)
        assert (1, 3) in child.concepts
        assert (1, 3) not in st_.concepts
        assert st_.values[3] == parent_value
        assert child.log is st_.log  # accounting is shared by design

    def test_restrict_to_filters_clauses(self):
        inst = build_instance(4, [(1, 2, 3), (2, 3, 4), (-1, 3, 4)])
        status, st_ = admitted_state(inst)
        assert status == "ok"
        view = st_.restrict_to(1)
        assert {key[0] for key in view.concepts} == {0, 2}
        # values carry over untouched
        for lit in (1, -1, 2, -2, 3, -3, 4, -4):
            assert view.values[lit] == st_.values[lit]

    def test_restrict_keeps_member_order_and_pins(self):
        inst = build_instance(3, [(1, 2, 3)])
        st_ = fresh_state(inst)
        st_.pin_literal(2)
        add_concept(st_, 0, inst.clauses[0], 3)
        view = st_.restrict_to(3)
        assert view.concepts[(0, 3)] == (1, 2)
        assert view.pins[2] == TRUE


def _owned_fork(state):
    child = state.fork()
    child._own_index()
    return child


@pytest.mark.parametrize(
    "build",
    [
        lambda state: EngineState(state.inst),
        EngineState.fork,
        lambda state: state.restrict_to(1),
        _owned_fork,
        lambda state: state.log.copy(),
    ],
    ids=["__init__", "fork", "restrict_to", "_own_index", "RunLog.copy"],
)
def test_copies_set_every_slot(build):
    # ``fork`` and ``restrict_to`` fill a bare object slot by slot.  A
    # slot left unset would fail only on a later read, and a lookup table
    # of the wrong shape only on a later index.
    inst = build_instance(4, [(1, 2, 3), (-1, -2, 3), (2, -3, 4)])
    status, st_ = admitted_state(inst)
    assert status == "ok"
    built = build(st_)
    assert [slot for slot in type(built).__slots__ if not hasattr(built, slot)] == []
    if isinstance(built, EngineState):
        for table in (built.by_focus, built.by_member):
            assert type(table) is list and len(table) == 2 * 4 + 1
            assert all(type(keys) is tuple for keys in table)


class TestCopyIsolation:
    # Forks share the concept index until one side inserts or removes a
    # concept; each case checks that the copy happens on the right side.

    def _state(self):
        inst = build_instance(4, [(1, 2, 3), (-1, -2, 3), (2, -3, 4)])
        status, st_ = admitted_state(inst, upto=1)
        assert status == "ok"
        return inst, st_

    def test_parent_insert_after_fork_is_not_seen_by_child(self):
        inst, st_ = self._state()
        child = st_.fork()
        before = index_of(child)
        assert add_concept(st_, 2, inst.clauses[2], 4) is None
        assert (2, 4) in st_.concepts
        assert index_of(child) == before

    def test_child_insert_is_not_seen_by_parent_or_sibling(self):
        inst, st_ = self._state()
        before = index_of(st_)
        child, sibling = st_.fork(), st_.fork()
        grandchild = child.fork()
        stage_concept(child, 2, inst.clauses[2], 4)
        stage_concept(grandchild, 1, inst.clauses[1], 3)
        assert (2, 4) in child.concepts and (1, 3) not in child.concepts
        assert (1, 3) in grandchild.concepts and (2, 4) not in grandchild.concepts
        assert index_of(st_) == before
        assert index_of(sibling) == before

    def test_restricted_view_insert_is_not_seen_by_parent(self):
        inst, st_ = self._state()
        before = index_of(st_)
        view = st_.restrict_to(3)
        stage_concept(view, 1, inst.clauses[1], -1)
        stage_concept(view, 2, inst.clauses[2], 2)
        assert (1, -1) in view.by_focus[-1]
        assert index_of(st_) == before

    def test_view_insert_leaves_the_stored_view_unchanged(self):
        # Views of either literal of 3 share the index stored for the
        # variable; an insert into one copies it first.
        inst, st_ = self._state()
        view = st_.restrict_to(3)
        stored = st_.views[3]
        assert (view.concepts, view.by_focus, view.by_member) == stored
        assert st_.restrict_to(-3).concepts is stored[0]
        before = index_of(st_.restrict_to(3))
        copies = dict(stored[0]), stored[1][:], stored[2][:]
        stage_concept(view, 1, inst.clauses[1], -1)
        stage_concept(view, 2, inst.clauses[2], 2)
        assert (1, -1) in view.by_focus[-1] and (1, -1) not in stored[0]
        assert st_.views[3] is stored and stored == copies
        assert index_of(st_.restrict_to(3)) == before

    def test_rolled_back_add_concept_in_fork_leaves_parent_unchanged(self):
        inst = build_instance(3, [(1, 2, 3), (-1, 2, 3)])
        st_ = fresh_state(inst)
        assert add_concept(st_, 0, inst.clauses[0], 1) is None
        before = index_of(st_)
        child = st_.fork()
        assert isinstance(add_concept(child, 1, inst.clauses[1], -1), Contradiction)
        assert index_of(child) == before
        assert index_of(st_) == before
        # the parent still owns a working index after the child's copy
        assert add_concept(st_, 1, inst.clauses[1], 2) is None
        assert index_of(child) == before


@st.composite
def admission_scripts(draw):
    n = draw(st.integers(min_value=3, max_value=5))
    m = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return n, m, seed


@given(admission_scripts())
def test_invariants_after_admission(script):
    n, m, seed = script
    inst = random_instance(random.Random(seed), n, m)
    status, st_ = admitted_state(inst)
    if status != "ok":
        return
    assert coupling_violations(st_) == []
    assert soundness_violations(st_) == []


def test_soundness_audit_leaves_ops_alone():
    # The audit reevaluates every unpinned variable, but it only reads the
    # state: the run's operation count stays the run's.
    outcome = solve(build_instance(3, [(1, 2, 3), (-1, 2, -3)]))
    state = outcome.state
    assert outcome.ops == state.log.ops == 18
    assert soundness_violations(state) == []
    assert state.log.ops == 18
    stale = fresh_state(build_instance(3, [(1, 2, 3)]))
    stage_concept(stale, 0, stale.inst.clauses[0], 1)  # no recomputation
    assert soundness_violations(stale) == [1]
    assert stale.log.ops == 0


@given(admission_scripts())
def test_values_stay_canonical(script):
    # Every literal has a slot in ``values``, FREE included; the snapshot
    # lists only the literals that are not free, and each pair is coupled.
    n, m, seed = script
    inst = random_instance(random.Random(seed), n, m)
    status, st_ = admitted_state(inst)
    assert FREE not in {value for _, value in snapshot(st_)[0]}
    assert len(st_.values) == 2 * n + 1
    assert set(st_.values) <= {TRUE, FALSE, FREE}
    assert coupling_violations(st_) == []


@st.composite
def staged_states(draw):
    """Admit a prefix of a random instance as the solver does, fork, then
    insert some of the remaining clauses' concepts (often not all three)
    and pin a few literals on either side."""
    n, m, seed = draw(admission_scripts())
    rng = random.Random(seed)
    inst = random_instance(rng, n, m)
    _, parent = admitted_state(inst, upto=rng.randint(0, len(inst.clauses)))
    child = parent.fork()
    for cid, clause in enumerate(inst.clauses):
        for focus in clause:
            side = rng.choice((parent, child, None))
            if side is not None and (cid, focus) not in side.concepts:
                stage_concept(side, cid, clause, focus)
    for side in (parent, child):
        for _ in range(rng.randint(0, 2)):
            side.pin_literal(rng.choice((1, -1)) * rng.randint(1, n))
    return parent, child


def _view_mismatches(state):
    """The literals whose view differs from the scanning reference's, in
    its index or in its ``unmet`` counts."""
    n = state.inst.variable_count
    mismatches = []
    for lit in (l for v in range(1, n + 1) for l in (v, -v)):
        view = state.restrict_to(lit)
        if index_of(view) != index_of(scanning_restrict_to(state, lit)) or _unmet_mismatches(view):
            mismatches.append(lit)
    return mismatches


def _insert_one_missing(state, rng):
    missing = [
        (cid, clause, focus)
        for cid, clause in enumerate(state.inst.clauses)
        for focus in clause
        if (cid, focus) not in state.concepts
    ]
    if missing:
        stage_concept(state, *rng.choice(missing))


@given(staged_states(), st.integers(min_value=0, max_value=10_000))
def test_restrict_to_matches_scanning_reference(states, seed):
    # Each state is viewed twice, so the second view of each variable
    # reads the stored index; then a fork sharing that store is viewed,
    # and both again after an insert on the state and after one on the
    # fork, each of which moves only its own side to a new index.
    rng = random.Random(seed)
    for state in states:
        fork = state.fork()
        for viewed in (state, state, fork):
            assert _view_mismatches(viewed) == []
        for side in (state, fork):
            _insert_one_missing(side, rng)
            assert _view_mismatches(state) == []
            assert _view_mismatches(fork) == []


@given(staged_states(), st.integers(min_value=0, max_value=10_000))
def test_views_are_read_off_the_index(states, seed):
    # ``view_memo_key`` (the a4 sweep's memo key) is read off the index
    # yet equals the built view's own, and two keys are equal exactly when
    # the built views' snapshots are.  Two states that share a store of
    # checks and have equal ``view_key``s have equal built views.  The
    # converse is not asked: a store belongs to one index, so indexes
    # with equal content built apart never share one.
    rng = random.Random(seed)
    parent, child = states
    n = parent.inst.variable_count
    literals = [l for v in range(1, n + 1) for l in (v, -v)]
    extra = child.fork()
    for _ in range(rng.randint(0, 2)):
        extra.pin_literal(-rng.choice(literals))
    states = (parent, child, extra, extra.fork())
    for lit in literals:
        views = [state.restrict_to(lit) for state in states]
        snapshots = [snapshot(view) for view in views]
        keys = [view_memo_key(state, lit) for state in states]
        for state, view, key in zip(states, views, keys):
            assert view_memo_key(view, lit) == key
        for i, j in itertools.combinations(range(len(states)), 2):
            assert (keys[i] == keys[j]) == (snapshots[i] == snapshots[j])
            a, b = states[i], states[j]
            if a.checks is b.checks and a.view_key(lit) == b.view_key(lit):
                assert snapshots[i] == snapshots[j]
        assert parent.view_key(lit) != parent.view_key(-lit)
        assert view_memo_key(parent, lit) != view_memo_key(parent, -lit)


def test_view_key_tells_variable_counts_apart():
    # The step guard and ``unmet`` depend on the number of variables, so
    # equal views over different counts must not share a stored check.
    keys = []
    for n in (3, 4):
        st_ = fresh_state(build_instance(n, [(1, 2, 3)]))
        stage_concept(st_, 0, st_.inst.clauses[0], 1)
        keys.append(st_.view_key(1))
    assert keys[0] != keys[1]


def test_view_key_tells_pins_apart():
    # Forks of one staged state (so one store, equal stored values) with
    # no pin, a pin on 1 or a pin on 2.  An unpinned slot of ``pins`` is
    # empty, so without separators the last two would both read "tf".
    inst = build_instance(3, [(1, 2, 3)])
    staged = fresh_state(inst)
    stage_concept(staged, 0, inst.clauses[0], 3)
    states = []
    for pin in (None, 1, 2):
        st_ = staged.fork()
        if pin is not None:
            assert st_.pin_literal(pin)
        states.append(st_)
    assert all(st_.checks is staged.checks for st_ in states)
    assert all(st_.values == staged.values for st_ in states)
    assert len({st_.view_key(3) for st_ in states}) == 3


def _stored_under(state, literal):
    """Where a freeing check of ``literal`` on ``state`` is stored: the
    store (by identity, all states here being alive) and the key in it."""
    return id(state.checks), state.view_key(literal)


def _two_clause_state():
    inst = build_instance(6, [(1, 2, 3), (4, 5, 6)])
    st_ = fresh_state(inst)
    stage_concept(st_, 0, inst.clauses[0], 2)
    return st_


def test_fork_that_inserts_nothing_shares_the_key():
    parent = _two_clause_state()
    child = parent.fork()
    grandchild = child.fork()
    assert child.checks is parent.checks is grandchild.checks
    for lit in (1, -1, 4):
        assert (
            _stored_under(child, lit)
            == _stored_under(parent, lit)
            == _stored_under(grandchild, lit)
        )


def test_insert_outside_the_view_changes_the_key():
    # The concept (1, 4) holds no 1 or -1, so the views of 1 stay equal,
    # yet the child's index is no longer the parent's: a fresh store.
    parent = _two_clause_state()
    store = parent.checks
    child = parent.fork()
    stage_concept(child, 1, child.inst.clauses[1], 4)
    assert snapshot(child.restrict_to(1)) == snapshot(parent.restrict_to(1))
    assert child.checks is not store and child.checks == {}
    assert _stored_under(child, 1) != _stored_under(parent, 1)
    # The parent keeps its own index and its store.
    assert parent.checks is store
    assert _stored_under(parent, 1) == _stored_under(parent.fork(), 1)


def test_add_concept_undone_by_contradiction_changes_the_key():
    inst = build_instance(3, [(1, 2, 3), (-1, 2, 3)])
    st_ = fresh_state(inst)
    assert add_concept(st_, 0, inst.clauses[0], 1) is None
    before = (snapshot(st_), st_.checks, _stored_under(st_, 2))
    res = add_concept(st_, 1, inst.clauses[1], -1)
    assert isinstance(res, Contradiction) and res.reason == "needed-and-opposed"
    assert snapshot(st_) == before[0]
    assert st_.checks is not before[1] and st_.checks == {}
    assert _stored_under(st_, 2) != before[2]


def test_states_built_apart_never_share_a_key():
    # Equal content, separate construction: on different logs or one.
    inst = build_instance(3, [(1, 2, 3)])
    states = [fresh_state(inst) for _ in range(2)] + [EngineState(inst) for _ in range(2)]
    for st_ in states:
        stage_concept(st_, 0, inst.clauses[0], 1)
    assert len({snapshot(st_) for st_ in states}) == 1
    assert len({_stored_under(st_, 1) for st_ in states}) == len(states)
    views = [st_.restrict_to(1) for st_ in states]
    assert len({_stored_under(view, 1) for view in states + views}) == 2 * len(states)
    a, b = fresh_state(inst), fresh_state(inst)
    assert _stored_under(a, 1) != _stored_under(b, 1)


def _unmet_mismatches(state):
    n = state.inst.variable_count
    return [
        (lit, state.unmet[lit], scanning_unmet(state, lit))
        for v in range(1, n + 1)
        for lit in (v, -v)
        if state.unmet[lit] != scanning_unmet(state, lit)
    ]


def _focus_order_mismatches(state):
    # Each ``by_focus`` slot equal to a sorted scan of the store (as a
    # list: a tuple never equals one).
    n = state.inst.variable_count
    return [
        lit
        for v in range(1, n + 1)
        for lit in (v, -v)
        if list(state.by_focus[lit]) != sorted(k for k in state.concepts if k[1] == lit)
    ]


@given(admission_scripts())
def test_unmet_matches_scanning_reference(script):
    # A random walk of every mutation the engine offers, on a parent, its
    # forks (which then diverge) and restricted views; after each step
    # every state's count must equal a fresh scan of ``by_focus``, and
    # each focus list must be in key order.  Inserts pick any clause, so
    # many come out of input order; some are undone by a contradiction.
    n, m, seed = script
    rng = random.Random(seed)
    inst = random_instance(rng, n, m)
    _, root = admitted_state(inst, upto=rng.randint(0, len(inst.clauses)))
    states = [root, root.fork()]
    # Each state's not-true literals, passed to its fixpoint calls; a
    # fork or view starts with a copy of its parent's.
    not_true = {state: [] for state in states}
    literals = [l for v in range(1, n + 1) for l in (v, -v)]
    for _ in range(16):
        st_ = rng.choice(states)
        lit = rng.choice(literals)
        cid = rng.randrange(len(inst.clauses))
        clause = inst.clauses[cid]
        focus = rng.choice(clause)
        fresh = (cid, focus) not in st_.concepts
        action = rng.randrange(8)
        if action == 0 and fresh:
            stage_concept(st_, cid, clause, focus)
        elif action == 1 and fresh:
            add_concept(st_, cid, clause, focus)  # may contradict and roll back
        elif action == 2:
            pinned = rng.choice((lit, -lit))
            # No pin makes a not-true literal true.
            if pinned not in not_true[st_]:
                st_.pin_literal(pinned)
        elif action == 3:
            if st_.pins[lit] != TRUE:
                not_true[st_].append(lit)
        elif action == 4:
            st_.compute_fixpoint(rng.sample(literals, rng.randint(1, 3)), not_true[st_])
        elif action == 5:
            # Trip the step guard part-way through, so the rollback
            # undoes some value changes.
            cap = rng.randint(0, 4)
            with mock.patch.object(EngineState, "_step_cap", lambda self: cap):
                try:
                    if fresh:
                        add_concept(st_, cid, clause, focus)
                    else:
                        st_.compute_fixpoint([lit], not_true[st_])
                except GuardExceeded:
                    pass
        elif action in (6, 7):
            new = st_.restrict_to(lit) if action == 6 else st_.fork()
            states.append(new)
            not_true[new] = not_true[st_][:]
        for state in states:
            assert _unmet_mismatches(state) == []
            assert _focus_order_mismatches(state) == []


def test_focus_lists_stay_in_key_order():
    # Each way a key reaches a focus list other than an append in input
    # order: an insert ahead of a larger key, an insert undone by a
    # contradiction, an insert after a fork, and a restricted view.
    inst = build_instance(3, [(1, 2, 3), (1, 2, -3), (1, -2, 3), (-1, 2, 3)])
    c0, c1, c2, c3 = inst.clauses
    st_ = fresh_state(inst)
    stage_concept(st_, 2, c2, 1)
    stage_concept(st_, 0, c0, 1)
    assert st_.by_focus[1] == ((0, 1), (2, 1))
    stage_concept(st_, 3, c3, -1)
    child = st_.fork()
    # (1, 1) goes between the two, and 1 is then needed and opposed.
    assert isinstance(add_concept(st_, 1, c1, 1), Contradiction)
    assert st_.by_focus[1] == ((0, 1), (2, 1))
    stage_concept(child, 1, c1, 1)
    assert child.by_focus[1] == ((0, 1), (1, 1), (2, 1))
    assert st_.by_focus[1] == ((0, 1), (2, 1))
    view = st_.restrict_to(2)
    stage_concept(view, 1, c1, 1)
    assert view.by_focus[1] == ((0, 1), (1, 1), (2, 1))
    assert view.by_focus[3] == () and st_.by_focus[-2] == ()
    for state in (st_, child, view, child.restrict_to(-3)):
        assert _focus_order_mismatches(state) == []


def _reference_add_clause(state, cid, clause):
    """``add_clause`` as three ``helpers.add_concept`` calls in its pick
    order: the first literal still not false, or the first left."""
    remaining = list(clause)
    while remaining:
        pick = next((lit for lit in remaining if state.values[lit] != FALSE), remaining[0])
        remaining.remove(pick)
        if state.log.enabled:
            state.log.emit("U3_PICK", literal=pick, old=state.values[pick], clause=cid)
        res = add_concept(state, cid, clause, pick)
        if res is not None:
            return res
    return None


def _admission_branch(seed):
    """Admit one clause with ``add_clause`` and with the reference, each
    on its own traced fork of one random state with some concepts of
    other clauses staged: a fork that owns its index, one that shares it,
    or one with pins, its stores filled and, now and then, the step guard
    capped.  Require the same result (a contradiction's witness included)
    and the same state after, with fresh stores, and the state forked
    from unchanged.  Returns how the call ended (None, ``"contradiction"``
    or ``"guard"``), the concept it ended at (1 to 3) and whether the
    picks left clause order."""
    rng = random.Random(seed)
    n = rng.randint(3, 5)
    inst = random_instance(rng, n, rng.randint(1, 8))
    _, base = admitted_state(inst, upto=rng.randint(0, len(inst.clauses) - 1), trace=True)
    cid = rng.choice(
        [i for i, c in enumerate(inst.clauses) if not any((i, lit) in base.concepts for lit in c)]
    )
    clause = inst.clauses[cid]
    # Staged concepts leave stale values, which a later concept's
    # fixpoint may find contradictory.
    for i, other in enumerate(inst.clauses):
        for focus in other:
            if i != cid and (i, focus) not in base.concepts:
                if rng.random() < 0.3:
                    stage_concept(base, i, other, focus)
    literals = [l for v in range(1, n + 1) for l in (v, -v)]
    base.restrict_to(rng.choice(literals))  # fills ``views``
    base.checks["filled"] = None  # never read here
    mode = rng.choice(("own", "fork", "pinned"))
    pins = [rng.choice(literals) for _ in range(rng.randint(1, 2))] if mode == "pinned" else []
    cap = rng.choice((None, None, rng.randint(0, 4)))
    stores = base.checks, base.views
    before = index_of(base), dict(base.checks), dict(base.views), base.log.events[:]
    runs = []
    for admit in (EngineState.add_clause, _reference_add_clause):
        state = base.fork()
        state.log = base.log.copy()
        if mode == "own":
            state._own_index()
        for lit in pins:
            state.pin_literal(lit)
        guard = (
            contextlib.nullcontext()
            if cap is None
            else mock.patch.object(EngineState, "_step_cap", lambda self: cap)
        )
        with guard:
            try:
                res = admit(state, cid, clause)
            except GuardExceeded:
                res = "guard"
        runs.append((state, res))
    (a, res), (b, ref) = runs
    assert res == ref
    for name in ("values", "pins", "unmet", "by_focus", "by_member"):
        assert getattr(a, name) == getattr(b, name), name
    assert list(a.concepts.items()) == list(b.concepts.items())
    assert a.checks == a.views == b.checks == b.views == {}
    assert a.checks is not stores[0] and a.views is not stores[1]
    assert (a.log.ops, a.log.guard_trips, a.log.events) == (b.log.ops, b.log.guard_trips, b.log.events)
    assert (index_of(base), base.checks, base.views, base.log.events) == before
    assert base.checks is stores[0] and base.views is stores[1]
    picks = [e[LITERAL] for e in a.log.events[len(before[3]) :] if e[KIND] == "U3_PICK"]
    ended = None if res is None else "guard" if res == "guard" else "contradiction"
    at = len(a.concepts) - len(base.concepts) + (res is not None)
    return ended, at, picks != list(clause[: len(picks)])


@given(st.integers(min_value=0, max_value=10**6))
def test_add_clause_matches_three_reference_admissions(seed):
    _admission_branch(seed)


def test_add_clause_reference_comparison_reaches_every_branch():
    branches = [_admission_branch(seed) for seed in range(600)]
    ends = {(None, 3)} | {(end, at) for end in ("contradiction", "guard") for at in (1, 2, 3)}
    assert {branch[:2] for branch in branches} == ends
    assert any(reordered for _, _, reordered in branches)


def _fixpoint_branches(seed):
    """Run ``compute_fixpoint`` and ``pairwise_compute_fixpoint`` side by
    side on copies of a random staged state, fork or not, with pins and
    not-true constraints, and require the same outcome from both: the
    values, ``unmet``, ``ops``, events and guard trips after the call, and
    the same contradiction (witness and reason) or guard trip, after which
    the values and counts are back where they were.  Returns the branch
    each call ended in: ``None``, ``"guard"`` or (reason, whether the
    witness is ``-var``)."""
    rng = random.Random(seed)
    n = rng.randint(3, 5)
    inst = random_instance(rng, n, rng.randint(1, 6))
    _, state = admitted_state(inst, upto=rng.randint(0, len(inst.clauses)))
    if rng.random() < 0.5:
        state = state.fork()
    literals = [l for v in range(1, n + 1) for l in (v, -v)]
    not_true = []  # passed to every call; it grows as the state does
    branches = []
    for _ in range(4):
        for cid, clause in enumerate(inst.clauses):
            for focus in clause:
                if rng.random() < 0.3 and (cid, focus) not in state.concepts:
                    stage_concept(state, cid, clause, focus)
        for _ in range(rng.randint(0, 2)):
            lit = rng.choice(literals) * rng.choice((1, -1))
            # No pin makes a not-true literal true.
            if lit not in not_true:
                state.pin_literal(lit)
        for _ in range(rng.randint(0, 2)):
            lit = rng.choice(literals)
            if state.pins[lit] != TRUE:
                not_true.append(lit)
        seeds = rng.sample(literals, rng.randint(1, 3))
        cap = rng.choice((None, None, rng.randint(0, 4)))
        runs = []
        for fixpoint in (EngineState.compute_fixpoint, pairwise_compute_fixpoint):
            copy = state.fork()
            copy.log = RunLog(enabled=True)
            guard = (
                contextlib.nullcontext()
                if cap is None
                else mock.patch.object(EngineState, "_step_cap", lambda self: cap)
            )
            with guard:
                try:
                    res = fixpoint(copy, seeds, not_true)
                except GuardExceeded:
                    res = "guard"
            runs.append((copy, res))
        (a, res), (b, ref) = runs
        assert res == ref
        assert a.values == b.values and a.unmet == b.unmet
        assert a.log.ops == b.log.ops and a.log.events == b.log.events
        assert a.log.guard_trips == b.log.guard_trips
        if res is None:
            state = a
            branches.append(None)
        else:
            # rolled back: the values and counts are as they were
            assert a.values == state.values and a.unmet == state.unmet
            branches.append(res if res == "guard" else (res.reason, res.witness < 0))
    return branches


@given(st.integers(min_value=0, max_value=10**6))
def test_pair_step_matches_pairwise_reference(seed):
    _fixpoint_branches(seed)


def test_pairwise_reference_comparison_reaches_every_branch():
    seen = set()
    for seed in range(200):
        seen.update(_fixpoint_branches(seed))
    assert seen >= {
        None,
        "guard",
        ("needed-and-opposed", False),
        ("pin-conflict", False),
        ("not-true-forced", False),
        ("not-true-forced", True),
    }


@pytest.mark.parametrize("cap", [None, 1], ids=["contradiction", "guard"])
def test_failed_fixpoint_restores_the_same_lists(cap):
    # Admission, repair and the freeing check hold ``values`` and ``pins``
    # across fixpoint calls, so a failed call must write the saved copies
    # back into the lists it was given, not bind new ones.  Here 1 turns
    # true (stepping ``unmet[4]``, since 1 is a companion of 4), then 2 is
    # forced true while not-true, or the guard trips first.
    inst = build_instance(6, [(1, 2, 3), (2, 5, 6), (4, 1, 5)])
    st_ = fresh_state(inst, trace=True)
    for cid, focus in enumerate((1, 2, 4)):
        stage_concept(st_, cid, inst.clauses[cid], focus)
    assert st_.pin_literal(-3)
    lists = (st_.values, st_.unmet, st_.pins)
    before = [list(lst) for lst in lists]
    guard = (
        contextlib.nullcontext()
        if cap is None
        else mock.patch.object(EngineState, "_step_cap", lambda self: cap)
    )
    with guard:
        try:
            res = st_.compute_fixpoint([1, 2], (2,))
        except GuardExceeded:
            res = "guard"
    assert res == ("guard" if cap else Contradiction(2, "not-true-forced"))
    assert [(e[LITERAL], e[NEW]) for e in st_.log.events if e[KIND] == "SET"] == [(1, TRUE)]
    for lst, was, now in zip(lists, before, (st_.values, st_.unmet, st_.pins)):
        assert now is lst and now == was


@pytest.mark.parametrize("negation_pin", [None, TRUE])
def test_uncoupled_pin_trips_the_coupling_guard(negation_pin):
    # pin_literal always pins both polarities; a pin on one alone (or the
    # same value on both) breaks the coupling the pair step relies on.
    st_ = fresh_state(build_instance(3, [(1, 2, 3)]))
    st_.pins[2] = TRUE
    if negation_pin is not None:
        st_.pins[-2] = negation_pin
    with pytest.raises(AssertionError, match="coupling broke"):
        st_.compute_fixpoint([2])
    assert st_.log.ops == 2  # the step it stops in is counted


# Fixed states on one instance: (concepts inserted, literals pinned true,
# seeds, not-true literals, step cap), and what ``compute_fixpoint`` leaves behind: its
# result, ``ops``, guard trips, the literals that are not free, ``unmet``
# and every event as (kind, literal, old, new, counter).  The figures are
# frozen: a change to how the worklist is kept must reproduce them.
_BOOKKEEPING_INST = build_instance(6, [(1, 2, 3), (2, 5, 6), (4, 1, 5), (4, 2, 3), (-4, 2, 5)])
_CHAIN = [(0, 1), (1, 2), (2, 4)]
_UNMET_CHAIN = (0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0)
_BOOKKEEPING = {
    "cap-0": (
        (_CHAIN, [], [1, 2, 4], (), 0),
        ("guard", 0, 1, (), _UNMET_CHAIN, []),
    ),
    "cap-1": (
        (_CHAIN, [], [1, 2, 4], (), 1),
        ("guard", 2, 1, (), _UNMET_CHAIN, [("SET", 1, FREE, TRUE, 2)]),
    ),
    "cap-2": (
        (_CHAIN, [], [1, 2, 4], (), 2),
        ("guard", 4, 1, (), _UNMET_CHAIN, [("SET", 1, FREE, TRUE, 2), ("SET", 2, FREE, TRUE, 4)]),
    ),
    "cap-3": (
        (_CHAIN, [], [1, 2, 4], (), 3),
        ("guard", 6, 1, (), _UNMET_CHAIN, [("SET", 1, FREE, TRUE, 2), ("SET", 2, FREE, TRUE, 4)]),
    ),
    "uncapped": (
        (_CHAIN, [], [1, 2, 4], (), None),
        (
            None, 10, 0, ((-4, FALSE), (-2, FALSE), (2, TRUE), (4, TRUE)),
            (0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
            [("SET", 1, FREE, TRUE, 2), ("SET", 2, FREE, TRUE, 4), ("SET", 1, TRUE, FREE, 8),
             ("SET", 4, FREE, TRUE, 10)],
        ),
    ),
    "needed-and-opposed": (
        ([(0, 1), (3, 4), (4, -4)], [], [1, 4], (), None),
        (
            (4, "needed-and-opposed"), 3, 0, (), (0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0),
            [("SET", 1, FREE, TRUE, 2), ("CONTRADICTION", 4, None, "needed-and-opposed", 3)],
        ),
    ),
    "pin-conflict": (
        ([(0, 1), (3, 4)], [-4], [1, 4], (), None),
        (
            (4, "pin-conflict"), 3, 0, (), (0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
            [("SET", 1, FREE, TRUE, 2), ("CONTRADICTION", 4, None, "pin-conflict", 3)],
        ),
    ),
    "not-true-forced-on-var": (
        ([(0, 1), (3, 4)], [], [1, 4], (4,), None),
        (
            (4, "not-true-forced"), 3, 0, (), (0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
            [("SET", 1, FREE, TRUE, 2), ("CONTRADICTION", 4, None, "not-true-forced", 3)],
        ),
    ),
    "not-true-forced-on-negation": (
        ([(0, 1), (4, -4)], [], [1, 4], (-4,), None),
        (
            (-4, "not-true-forced"), 4, 0, (), (0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
            [("SET", 1, FREE, TRUE, 2), ("CONTRADICTION", -4, None, "not-true-forced", 4)],
        ),
    ),
}


@pytest.mark.parametrize("name", list(_BOOKKEEPING))
def test_fixpoint_bookkeeping_is_frozen(name):
    (concepts, pins, seeds, not_true, cap), expected = _BOOKKEEPING[name]
    inst = _BOOKKEEPING_INST
    st_ = fresh_state(inst, trace=True)
    for cid, focus in concepts:
        stage_concept(st_, cid, inst.clauses[cid], focus)
    for lit in pins:
        assert st_.pin_literal(lit)
    before = snapshot(st_)
    guard = (
        contextlib.nullcontext()
        if cap is None
        else mock.patch.object(EngineState, "_step_cap", lambda self: cap)
    )
    with guard:
        try:
            res = st_.compute_fixpoint(seeds, not_true)
        except GuardExceeded:
            res = "guard"
    if isinstance(res, Contradiction):
        res = (res.witness, res.reason)
    lits = [lit for lit in range(-6, 7) if lit and st_.values[lit] != FREE]
    events = [(e[KIND], e[LITERAL], e[OLD], e[NEW], e[COUNTER]) for e in st_.log.events]
    got = (
        res,
        st_.log.ops,
        st_.log.guard_trips,
        tuple((lit, st_.values[lit]) for lit in lits),
        tuple(st_.unmet),
        events,
    )
    assert got == expected
    if res is not None:
        assert snapshot(st_) == before


@pytest.mark.parametrize("seed_lit", [1, -1, 4, 5])
def test_fixpoint_that_changes_nothing_writes_and_copies_nothing(seed_lit):
    # A settled state: reevaluating one variable is its two basic
    # operations and nothing else, no SET, no write and no copy.
    inst = _BOOKKEEPING_INST
    st_ = fresh_state(inst, trace=True)
    for cid, focus in _CHAIN:
        assert add_concept(st_, cid, inst.clauses[cid], focus) is None
    before = snapshot(st_), list(st_.unmet)
    ops, events = st_.log.ops, len(st_.log.events)
    st_.values, st_.unmet = RecordingList(st_.values), RecordingList(st_.unmet)
    assert st_.compute_fixpoint([seed_lit]) is None
    assert st_.log.ops == ops + 2
    assert st_.log.events[events:] == []
    for lst in (st_.values, st_.unmet):
        assert (lst.writes, lst.slices) == ([], 0)
    assert (snapshot(st_), list(st_.unmet)) == before


def test_variable_count_too_large_to_allocate_is_an_input_error():
    # 2n + 1 is sys.maxsize, so each literal table fails before a slot is
    # filled; the count is otherwise legal.
    n = (sys.maxsize - 1) // 2
    with pytest.raises(ValueError, match=f"^variable count {n} is too large to allocate$"):
        EngineState(build_instance(n, []))

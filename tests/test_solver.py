"""End-to-end decision procedure: verdicts, anomalies, determinism."""

import hashlib
import itertools
import json
import random
import re
import sys
from dataclasses import replace

import pytest
from hypothesis import Phase, given, settings, strategies as st

from understanding_sat import algorithms, solver
from understanding_sat.cnf import Assignment, build_instance, evaluate
from understanding_sat.engine import TRACE_FIELDS, Contradiction, EngineState, RunLog
from understanding_sat.harness import (
    CounterexampleRecord,
    GenSpec,
    adjudicate,
    enumerate_small,
    gen_random,
    minimize,
)
from understanding_sat.solver import (
    ANOMALY_GUARD,
    ANOMALY_UNDEFINED,
    ANOMALY_UNVERIFIED,
    SolveConfig,
    SolverOutcome,
    _finalize,
    advance,
    solve,
)

from helpers import (
    KIND,
    ORDER_TRAP,
    capped_repairs,
    full_sign_instance,
    order_trap_instance,
    random_instance,
    run_digest,
    snapshot,
)


class TestVerdicts:
    def test_single_clause_is_sat_first_literal_true(self):
        out = solve(build_instance(3, [(1, 2, 3)]))
        assert out.kind == "sat"
        assert out.assignment.values == {1: 1, 2: 0, 3: 0}
        assert out.understanding[1] == "t"
        assert out.understanding[-1] == "f"
        assert out.understanding[2] == "e"
        assert out.ops == 6
        assert evaluate(build_instance(3, [(1, 2, 3)]), out.assignment) == []

    def test_empty_instance_is_sat_with_defaults(self):
        out = solve(build_instance(1, []))
        assert out.kind == "sat"
        assert out.assignment.values == {1: 0}
        assert out.ops == 0

    def test_order_trap_reports_unsat_despite_model(self):
        # The all-false assignment satisfies this instance, but the
        # procedure walks itself into a corner on the final clause: each
        # earlier clause marked its positive literal needed, and the
        # repair search skips companions already on its history list.
        inst = order_trap_instance()
        assert evaluate(inst, Assignment(values={1: 0, 2: 0, 3: 0})) == []
        out = solve(inst)
        assert out.kind == "unsat"
        assert out.failing_clause == 3
        assert out.ops == 26

    def test_order_trap_is_sat_under_permuted_admission(self):
        out = solve(
            order_trap_instance(),
            SolveConfig(clause_order="perm", order_seed=0),
        )
        assert out.kind == "sat"
        assert out.assignment.as_signed_literals(3) == [-1, -2, -3]

    def test_order_trap_is_unsat_only_in_its_input_order(self):
        # Admitted in each of its 24 clause orders, the trap answers
        # unsat in exactly one, the input order; every other order finds
        # a verified model.  Seeded ``perm`` orders reach the input order
        # for seeds 9, 11, 27, 75, 92 and 93 of 0-99.
        kinds = {
            order: solve(build_instance(3, [ORDER_TRAP[i] for i in order])).kind
            for order in itertools.permutations(range(4))
        }
        assert [order for order, kind in kinds.items() if kind != "sat"] == [(0, 1, 2, 3)]
        assert kinds[(0, 1, 2, 3)] == "unsat"
        unsat_seeds = [
            seed
            for seed in range(100)
            if solve(order_trap_instance(), SolveConfig(clause_order="perm", order_seed=seed)).kind
            == "unsat"
        ]
        assert unsat_seeds == [9, 11, 27, 75, 92, 93]

    def test_full_sign_core_is_unsat_on_last_clause(self):
        out = solve(full_sign_instance())
        assert out.kind == "unsat"
        assert out.failing_clause == 7
        assert out.ops == 50

    def test_as_dict_shape(self):
        out = solve(build_instance(3, [(1, 2, 3)]))
        d = out.as_dict()
        assert d == {
            "kind": "sat",
            "anomaly": None,
            "failing_clause": None,
            "ops": 6,
            "model": [1, -2, -3],
        }

    def test_unknown_clause_order_raises(self):
        with pytest.raises(ValueError):
            solve(build_instance(3, [(1, 2, 3)]), SolveConfig(clause_order="dfs"))

    def test_permuted_order_without_seed_raises(self):
        # An unseeded permutation would differ on every call, so a run
        # (and any record of it) could not be replayed.
        with pytest.raises(ValueError, match="order_seed"):
            solve(order_trap_instance(), SolveConfig(clause_order="perm"))

    def test_bad_default_free_raises_when_the_config_is_built(self):
        # Not later, from the final assignment, and only when the map
        # leaves some variable free.
        with pytest.raises(ValueError, match="'default_free' must be 0 or 1, not 2"):
            SolveConfig(default_free=2)

    def test_config_holds_each_field_to_its_type(self):
        # A config the record of its own run would refuse does not build,
        # with the record's message; a bool is not an int.  Every config
        # that builds comes back from its record, through JSON, unchanged.
        for bad, message in [
            ({"default_free": True}, "'default_free' must be int, not bool True"),
            ({"order_seed": True}, "'order_seed' must be int or null, not bool True"),
            ({"default_free": 1.0}, "'default_free' must be int, not float 1.0"),
            ({"trace": 1}, "'trace' must be true or false, not int 1"),
        ]:
            with pytest.raises(ValueError, match=re.escape(f"config key {message}")):
                SolveConfig(**bad)
        values = {
            "clause_order": ("input", "perm", "dfs", 1),
            "order_seed": (None, 0, 7, True, 2.0),
            "default_free": (0, 1, 2, True, 1.0, "1"),
            "trace": (False, True, 0, 1, None),
        }
        built = 0
        for combo in itertools.product(*values.values()):
            try:
                cfg = SolveConfig(**dict(zip(values, combo)))
            except ValueError:
                continue
            built += 1
            rec = next(adjudicate([(None, order_trap_instance())], cfg, "brute")).record()
            again = CounterexampleRecord.from_dict(json.loads(json.dumps(rec.as_dict())))
            assert again == rec
            assert SolveConfig(**again.config) == cfg
        # input order with each seed, perm with each int seed; each
        # default_free and trace
        assert built == (3 + 2) * 2 * 2

    def test_ops_total_on_exhaustive_corpus_is_frozen(self):
        # ``ops`` is the paper's count of basic operations; an engine
        # change that keeps the procedure must keep every count.
        total = sum(solve(inst).ops for inst in enumerate_small(3, 4))
        assert total == 184_468

    def test_ops_and_traces_past_the_threshold_are_frozen(self):
        # The exhaustive corpus hardly repairs; at m = 4n most runs do,
        # through forks, views and stored freeing checks.  Pins the
        # ``ops`` sum and every event of every trace, under both orders;
        # an untraced run must count the same ``ops``.
        digest = hashlib.sha256()
        total = 0
        for seed in range(40):
            n = 8 + seed % 10
            inst = gen_random(GenSpec(n=n, m=4 * n, seed=seed))
            for order in ("input", "perm"):
                cfg = SolveConfig(clause_order=order, order_seed=seed)
                plain = solve(inst, cfg)
                traced = solve(inst, replace(cfg, trace=True))
                assert traced.ops == plain.ops
                total += plain.ops
                for step, event in enumerate(traced.trace):
                    # the line ``usat solve --trace`` prints for the event
                    fields = dict(zip(TRACE_FIELDS, event), step=step)
                    line = json.dumps(fields, sort_keys=True, separators=(",", ":"))
                    digest.update(line.encode() + b"\n")
        assert total == 185_542
        assert digest.hexdigest() == (
            "06f5036a0b1b683501b3ee0e9cf1a0d0ac98b92bde8646a9955d1cef377d0e90"
        )


@pytest.mark.parametrize(
    "cfg, expected",
    [
        (SolveConfig(), "ae6789a2fe1cfd19ca97025d98793895b80691ca1542f92ecd6c5a38aebacc57"),
        (
            SolveConfig(clause_order="perm", order_seed=0),
            "7fcb0489a045eabea2128e3baf824ba3c792d671149cec44fe39c2d93bca6964",
        ),
    ],
    ids=["input", "perm"],
)
def test_run_digest_on_exhaustive_corpus_is_frozen(cfg, expected):
    # One hash over every traced run of the exhaustive corpus: kind,
    # ``ops``, failing clause, anomaly, guard trips, gaps and events.  A
    # performance change must keep the procedure, so it keeps this.
    assert run_digest(enumerate_small(3, 4), cfg) == expected


def _lowest_recursion_limit() -> int:
    """The lowest recursion limit Python accepts at the caller's depth.
    Python counts some C calls against the limit too, so this is not the
    number of frames on the stack."""
    old = sys.getrecursionlimit()
    lo, hi = 1, old
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            sys.setrecursionlimit(mid)
            hi = mid
        except RecursionError:
            lo = mid + 1
    sys.setrecursionlimit(old)
    return lo


def _frames_that_fit(limit: int) -> int:
    """How many frames below the caller's a chain of plain calls reaches
    under recursion limit ``limit``; that is, the depth of the deepest
    frame that a call made from the caller can run."""
    deepest = 0

    def dive(depth):
        nonlocal deepest
        deepest = depth
        dive(depth + 1)

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        dive(2)
    except RecursionError:
        pass
    finally:
        sys.setrecursionlimit(old)
    return deepest


def _first_call_depths(code, fn, *args) -> tuple[int, int]:
    """Call ``fn(*args)`` and return the depth of the first frame of
    ``code`` and of the deepest frame entered while that first frame
    runs.  Depths count as if the caller had called ``fn`` itself:
    ``fn``'s own frame is at depth 1."""
    top = sys._getframe()
    seen = {}

    def depth(frame):
        n = 0
        while frame is not top:
            frame, n = frame.f_back, n + 1
        return n

    def hook(frame, event, arg):
        if "done" in seen:
            return
        if event == "call":
            if "frame" in seen:
                seen["deepest"] = max(seen["deepest"], depth(frame))
            elif frame.f_code is code:
                seen["frame"] = frame
                seen["depth"] = seen["deepest"] = depth(frame)
        elif event == "return" and frame is seen.get("frame"):
            seen["done"] = True

    old = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(old)
    return seen["depth"], seen["deepest"]


class TestAnomalies:
    def test_step_guard_trip_inside_a_repair_is_a_depth_guard_anomaly(self):
        # The repair of this draw's clause 4 runs fixpoints; with the step
        # guard capped at 0 inside repairs, the first of them trips.  The
        # run ends as a guard anomaly at that clause and keeps the state
        # the admission started from.  (ORDER_TRAP's repair cannot serve:
        # it fails on its history alone and runs no fixpoint.)
        inst = gen_random(GenSpec(n=4, m=5, seed=72))
        assert solve(inst).kind == "sat"
        with capped_repairs(0):
            out = solve(inst)
        assert out.kind == "anomaly"
        assert out.anomaly == ANOMALY_GUARD
        assert out.failing_clause == 4
        assert out.guard_trips == 1
        assert out.state is not None
        assert len(out.state.concepts) == 4 * 3

    def test_repair_history_never_holds_every_literal(self, monkeypatch):
        # A history is a set of the run's 2n literals that grows at least
        # every second level down the recursion, which keeps it finite;
        # on these draws no history holds more than 2n - 1 of them.
        depths = []

        def checked(state, literal, history=frozenset()):
            assert len(history) <= 2 * state.inst.variable_count - 1
            depths.append(len(history))
            return repair(state, literal, history)

        repair = algorithms.algorithm_d
        monkeypatch.setattr(algorithms, "algorithm_d", checked)
        monkeypatch.setattr(solver, "algorithm_d", checked)
        draws = [
            gen_random(GenSpec(n=n, m=round(4.27 * n), seed=seed))
            for n in range(6, 21)
            for seed in range(10)
        ]
        for inst in draws:
            solve(inst)
        assert max(depths) > 2

    def test_python_recursion_limit_in_repair_is_a_depth_guard_anomaly(self):
        # Repair on this draw nests up to 19 levels deep, well short of
        # the 2n = 40 literals a history can hold.  With Python's limit 12
        # levels above this test, admission still fits (it needs 5) but the
        # repair does not (it needs 20): the run must end as a guard
        # anomaly, not raise RecursionError.
        inst = gen_random(GenSpec(n=20, m=80, seed=17))
        assert solve(inst).kind == "unsat"
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(_lowest_recursion_limit() + 12)
        try:
            out = solve(inst, SolveConfig(trace=True))
        finally:
            sys.setrecursionlimit(old)
        assert sys.getrecursionlimit() == old
        assert out.kind == "anomaly"
        assert out.anomaly == ANOMALY_GUARD
        assert out.guard_trips == 1
        assert out.failing_clause is not None
        assert any(e[KIND] == "D_RECURSE" for e in out.trace)
        assert out.trace[-1][KIND] == "VERDICT"

    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_python_recursion_limit_trip_ends_as_a_stateless_depth_guard_anomaly(self, levels):
        # With Python's limit a few levels above this test the limit
        # trips early in the run, and the outcome must still be built one
        # frame below ``solve``.  A trip can stop midway through an
        # update, so the outcome must not carry the state.  The config is
        # built before the limit is set: checking its fields takes frames.
        inst = gen_random(GenSpec(n=20, m=80, seed=17))
        assert solve(inst).kind == "unsat"
        cfg = SolveConfig(trace=True)
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(_lowest_recursion_limit() + levels)
        try:
            out = solve(inst, cfg)
        finally:
            sys.setrecursionlimit(old)
        assert sys.getrecursionlimit() == old
        assert out.kind == "anomaly"
        assert out.anomaly == ANOMALY_GUARD
        assert out.state is None
        assert out.trace[-1][KIND] == "VERDICT"

    def test_python_recursion_limit_trip_while_indexing_the_first_concept(self):
        # The levels are measured, not fixed: each limit lets every frame
        # down to the first ``insert_concept`` run, but not the deepest
        # frame that call enters, so the limit must trip inside it (in
        # ``_own_index`` or ``_index``), whatever frames a refactor adds
        # or removes on that path.  The trip comes before the concept's
        # ADD_CONCEPT event and before any repair.  The config is built
        # once, before any limit is set: checking its fields takes frames.
        inst = gen_random(GenSpec(n=20, m=80, seed=17))
        assert solve(inst).kind == "unsat"
        cfg = SolveConfig(trace=True)
        depth, deepest = _first_call_depths(EngineState.insert_concept.__code__, solve, inst, cfg)
        lowest = _lowest_recursion_limit()
        chosen = []
        for levels in range(1, deepest + 1):
            # Called from this frame, not from a comprehension's own.
            if depth <= _frames_that_fit(lowest + levels) < deepest:
                chosen.append(levels)
        assert chosen, (depth, deepest)
        for levels in chosen:
            old = sys.getrecursionlimit()
            sys.setrecursionlimit(lowest + levels)
            try:
                out = solve(inst, cfg)
            finally:
                sys.setrecursionlimit(old)
            assert sys.getrecursionlimit() == old
            assert out.kind == "anomaly"
            assert out.anomaly == ANOMALY_GUARD
            assert out.state is None
            assert out.trace[-1][KIND] == "VERDICT"
            assert out.guard_trips == 1
            assert out.failing_clause == 0
            assert not any(e[KIND] == "D_ENTER" for e in out.trace)
            # The first concept's pick is the last step before the verdict.
            assert [e[KIND] for e in out.trace[-2:]] == ["U3_PICK", "VERDICT"], levels

    def test_concept_admission_contradiction_is_an_anomaly(self, monkeypatch):
        monkeypatch.setattr(
            EngineState,
            "add_concept",
            lambda self, clause, focus: Contradiction(focus, "forced"),
        )
        out = solve(build_instance(3, [(1, 2, 3)]))
        assert out.kind == "anomaly"
        assert out.anomaly == ANOMALY_UNDEFINED
        assert out.failing_clause == 0

    def test_finalize_rejects_unwitnessed_map(self):
        # A clause with no stored-true literal must not be reported sat,
        # no matter how free variables are completed.
        inst = build_instance(3, [(1, 2, 3)])
        bare = EngineState(inst)
        for default in (0, 1):
            out = _finalize(bare, inst, SolveConfig(default_free=default))
            assert out.kind == "anomaly"
            assert out.anomaly == ANOMALY_UNVERIFIED
            assert out.understanding is not None

    def test_sat_requires_every_clause_witnessed(self):
        # Sat outcomes always carry a stored-true literal per clause.
        out = solve(order_trap_instance(), SolveConfig(clause_order="perm", order_seed=0))
        assert out.kind == "sat"
        state = out.state
        for clause in state.inst.clauses:
            assert any(state.values[l] == "t" for l in clause.literals)


class TestAssignmentExtraction:
    # ``_finalize`` reads the model off the final map: true is 1, false
    # 0, a variable free in both polarities ``default_free``.
    def test_true_false_and_default(self):
        inst = build_instance(3, [(1, 2, 3)])
        for default in (0, 1):
            st_ = EngineState(inst)
            st_.values[1], st_.values[-1] = "t", "f"
            st_.values[2], st_.values[-2] = "f", "t"
            out = _finalize(st_, inst, SolveConfig(default_free=default))
            assert out.kind == "sat"
            assert out.assignment == Assignment({1: 1, 2: 0, 3: default}, default)
            assert out.understanding == {1: "t", -1: "f", 2: "f", -2: "t", 3: "e", -3: "e"}

    def test_coupling_violation_is_an_unverified_anomaly(self):
        # The clause holds a true literal and the model read off the
        # positive polarities satisfies it; only the coupling is broken.
        inst = build_instance(2, [(1, 2, -1)])
        st_ = EngineState(inst)
        st_.values[1] = st_.values[-1] = "t"
        out = _finalize(st_, inst, SolveConfig())
        assert (out.kind, out.anomaly, out.assignment) == ("anomaly", ANOMALY_UNVERIFIED, None)
        assert out.understanding == {1: "t", -1: "t", 2: "e", -2: "e"}


class TestTrace:
    def test_trace_off_by_default(self):
        out = solve(build_instance(3, [(1, 2, 3)]))
        assert out.trace is None

    def test_trace_brackets_the_run(self):
        out = solve(build_instance(3, [(1, 2, 3)]), SolveConfig(trace=True))
        kinds = [e[KIND] for e in out.trace]
        assert kinds[0] == "U1_CLAUSE"
        assert kinds[-1] == "VERDICT"
        assert kinds.count("U3_VALUE") == 3
        assert kinds.count("U3_PICK") == 3

    def test_untraced_runs_never_call_emit(self, monkeypatch):
        # Every call site checks ``enabled`` first, so an untraced run
        # pays nothing for its events and logs none: admission, repair,
        # freeing checks (run and replayed), contradictions, verdicts and
        # minimize.
        calls = []
        emit = RunLog.emit

        def counting(self, *args, **kwargs):
            calls.append(args[0] if args else kwargs["kind"])
            return emit(self, *args, **kwargs)

        monkeypatch.setattr(RunLog, "emit", counting)
        instances = [order_trap_instance(), full_sign_instance()]
        instances += [gen_random(GenSpec(n=n, m=4 * n, seed=n)) for n in range(14, 21)]
        kinds = set()
        for inst in instances:
            for order in ("input", "perm"):
                out = solve(inst, SolveConfig(clause_order=order, order_seed=7))
                kinds.add(out.kind)
                assert out.state.log.events == []
        record = next(
            adjudicate([(None, gen_random(GenSpec(n=8, m=34, seed=0)))], SolveConfig(), "brute")
        ).record()
        assert minimize(record).kind == "FalseUnsat"
        assert calls == []
        assert kinds == {"sat", "unsat"}
        # The patch does see a traced run's events.
        solve(instances[2], SolveConfig(trace=True))
        expected = {"ADD_CONCEPT", "CONTRADICTION", "D_ENTER", "G_ENTER", "G_RESULT", "VERDICT"}
        assert expected <= set(calls)


@given(st.integers(min_value=0, max_value=200), st.sampled_from(["input", "perm"]))
def test_runs_are_deterministic(seed, order):
    # Tracing changes nothing but the trace: the engine's hot paths skip
    # building events when it is off, and must do the same work.  The
    # draws near the threshold ratio make the runs repair clauses.
    rng = random.Random(seed)
    small = random_instance(rng, rng.randint(2, 6), rng.randint(1, 8))
    n = rng.randint(8, 14)
    for inst in (small, gen_random(GenSpec(n=n, m=round(4.27 * n), seed=seed))):
        cfg = SolveConfig(clause_order=order, order_seed=seed)
        first = solve(inst, cfg)
        second = solve(inst, cfg)
        traced = solve(inst, replace(cfg, trace=True))
        assert first.as_dict() == second.as_dict()
        assert first.guard_trips == second.guard_trips
        for field in ("kind", "ops", "guard_trips", "gaps", "failing_clause"):
            assert getattr(traced, field) == getattr(first, field), field
        assert traced.as_dict() == first.as_dict()
        assert (traced.state is None) == (first.state is None)
        if first.state is not None:
            assert snapshot(traced.state) == snapshot(first.state)


@given(st.integers(min_value=0, max_value=200))
def test_sat_outcomes_self_verify(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(2, 6), rng.randint(1, 8))
    out = solve(inst)
    if out.kind == "sat":
        assert evaluate(inst, out.assignment) == []
    elif out.kind == "unsat":
        assert 0 <= out.failing_clause < len(inst.clauses)
    assert out.ops >= 1


class TestResume:
    def test_prefix_under_permuted_order_raises(self):
        inst = order_trap_instance()
        prefix = advance(None, inst, SolveConfig())
        with pytest.raises(ValueError, match="input clause order"):
            solve(inst, SolveConfig(clause_order="perm", order_seed=0), prefix=prefix)


# No shrinking: each example solves up to 61 instances twice, traced, so
# shrinking a failure runs for minutes; the first failing case is enough.
@settings(max_examples=25, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    st.integers(min_value=6, max_value=12).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(2 * n, 5 * n), st.integers(0, 10_000), st.integers(0, 10_000)
        )
    )
)
def test_resumed_run_equals_a_fresh_run(case):
    # For each k at which a plain run has admitted clauses[:k] without
    # stopping, an instance that shares those clauses and differs after
    # them, resumed from the state at k, runs exactly as it would afresh.
    n, m, seed, tail_seed = case
    cfg = SolveConfig(trace=True)
    inst = gen_random(GenSpec(n=n, m=m, seed=seed))
    tail = [c.literals for c in gen_random(GenSpec(n=n, m=m, seed=tail_seed)).clauses]
    prefix = None
    for k in range(len(inst.clauses) + 1):
        other = build_instance(n, [c.literals for c in inst.clauses[:k]] + tail[k:])
        assert other.clauses[:k] == inst.clauses[:k]
        before = None
        if prefix is not None:
            log = prefix.log
            before = (prefix.values[:], prefix.pins[:], log.ops, len(log.events))
        resumed = solve(other, cfg, prefix=prefix)
        fresh = solve(other, cfg)
        if prefix is not None:
            log = prefix.log
            assert (prefix.values, prefix.pins, log.ops, len(log.events)) == before
        for field in ("kind", "ops", "failing_clause", "anomaly", "guard_trips", "gaps", "trace"):
            assert getattr(resumed, field) == getattr(fresh, field), field
        assert resumed.as_dict() == fresh.as_dict()
        assert (resumed.state is None) == (fresh.state is None)
        if fresh.state is not None:
            assert resumed.state.inst is other
            assert snapshot(resumed.state) == snapshot(fresh.state)
        if k == len(inst.clauses):
            break
        prefix = advance(prefix, inst, cfg)
        if prefix is None:
            break

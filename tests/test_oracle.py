"""Reference deciders: frozen counts, agreement, and model validity."""

import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from understanding_sat.cnf import build_instance, evaluate
from understanding_sat.oracle import BRUTE_FORCE_MAX_VARS, brute_force, dpll

from helpers import full_sign_instance, order_trap_instance, random_instance, recursive_dpll


class TestBruteForce:
    def test_single_clause_counts_and_model(self):
        # 000 falsifies (1 v 2 v 3); 001 is the first model.
        v = brute_force(build_instance(3, [(1, 2, 3)]))
        assert v.sat is True
        assert v.nodes == 2
        assert v.model.values == {1: 0, 2: 0, 3: 1}

    def test_full_sign_core_exhausts_all_patterns(self):
        v = brute_force(full_sign_instance())
        assert v.sat is False
        assert v.model is None
        assert v.nodes == 8

    def test_tautological_clause_never_falsified(self):
        v = brute_force(build_instance(2, [(1, -1, 2)]))
        assert v.sat is True
        assert v.nodes == 1  # 00 already satisfies

    def test_variable_cap(self):
        inst = build_instance(BRUTE_FORCE_MAX_VARS + 1, [(1, 2, 3)])
        with pytest.raises(ValueError):
            brute_force(inst)

    def test_as_dict(self):
        v = brute_force(build_instance(3, [(1, 2, 3)]))
        assert v.as_dict() == {"sat": True, "nodes": 2, "method": "brute"}


class TestDpll:
    def test_single_clause_counts_and_model(self):
        v = dpll(build_instance(3, [(1, 2, 3)]))
        assert v.sat is True
        assert v.nodes == 4
        assert v.model.values == {1: 1, 2: 1, 3: 1}

    def test_full_sign_core_is_unsat(self):
        v = dpll(full_sign_instance())
        assert v.sat is False
        assert v.nodes == 7

    def test_order_trap_is_sat(self):
        v = dpll(order_trap_instance())
        assert v.sat is True
        assert evaluate(order_trap_instance(), v.model) == []

    def test_model_covers_every_variable(self):
        v = dpll(build_instance(5, [(1, 2, 3)]))
        assert v.sat is True
        assert set(v.model.values) == {1, 2, 3, 4, 5}

    def test_variable_count_too_large_to_allocate_is_an_input_error(self):
        # 2n + 1 is sys.maxsize: the occurrence table is one allocation
        # that fails at once, not 2n + 1 lists built until memory runs out.
        n = (sys.maxsize - 1) // 2
        with pytest.raises(ValueError, match=f"^variable count {n} is too large to allocate$"):
            dpll(build_instance(n, [(1, 2, 3)]))

    def test_chain_far_past_the_recursion_limit(self):
        # One decision per variable and no backtracking: n + 1 nodes.
        n = 20_000
        v = dpll(build_instance(n, [(x, x + 1, x + 2) for x in range(1, n - 1)]))
        assert v.sat is True
        assert v.nodes == n + 1


@given(st.integers(min_value=0, max_value=300))
def test_oracles_agree_and_models_verify(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 7), rng.randint(1, 10))
    b = brute_force(inst)
    d = dpll(inst)
    assert b.sat == d.sat, f"oracle split on {inst!r}"
    for v in (b, d):
        if v.sat:
            assert evaluate(inst, v.model) == []


def search_instance(used: int, idle: int, rng: random.Random):
    """``used`` variables in clauses plus ``idle``, anywhere in 1..n, in
    none; 1 to 6 clauses per variable, which may hold a complementary
    pair."""
    names = rng.sample(range(1, used + idle + 1), used)
    literals = [s * v for v in names for s in (1, -1)]
    m = rng.randint(used, 6 * used) if used > 1 else 0
    return build_instance(used + idle, [rng.sample(literals, 3) for _ in range(m)])


@settings(max_examples=300)  # a few ms each; most draws search little
@given(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**32),
)
@example(used=0, idle=0, seed=0)
def test_dpll_matches_the_recursive_search(used, idle, seed):
    inst = search_instance(used, idle, random.Random(seed))
    new, old = dpll(inst), recursive_dpll(inst)
    assert (new.sat, new.nodes) == (old.sat, old.nodes)
    assert (new.model and new.model.values) == (old.model and old.model.values)

"""Negation symmetry, pinned as metamorphic relations (Chen, Cheung and
Yiu 1998): negating a set of variables in every clause of an instance
keeps the run of the procedure, up to one accounting asymmetry in
``compute_fixpoint``.

A ``not-true-forced`` contradiction costs one operation when its witness
is the positive literal of the pair step (the negative one is not
reached) and two when it is the negative one.  Negating the witness's
variable moves the contradiction from one side to the other, so ``ops``
can move, and by exactly that difference; nothing else does.
"""

import random

import pytest

from understanding_sat.harness import enumerate_small, gen_random
from understanding_sat.solver import SolveConfig, solve

from helpers import KIND, LITERAL, NEW, fuzz_specs, negate_variables

FUZZ_SEED = 20260814  # the acceptance fuzz corpus's master seed


def _all_variables(inst, rng):
    return set(range(1, inst.variable_count + 1))


def _random_subset(inst, rng):
    return {v for v in range(1, inst.variable_count + 1) if rng.random() < 0.5}


def _final_map(out, flipped=frozenset()):
    """The run's final map as {literal: value}, each literal of a variable
    in ``flipped`` renamed to its negation."""
    values = out.state.values
    n = out.state.inst.variable_count
    return {
        (-lit if abs(lit) in flipped else lit): values[lit]
        for v in range(1, n + 1)
        for lit in (v, -v)
    }


def _kept(out):
    return out.kind, out.ops, out.failing_clause, out.anomaly, out.gaps


@pytest.fixture(scope="module")
def exhaustive_runs():
    """Each instance of up to 3 variables and 4 clauses, in corpus order,
    with what its run keeps under negation and its final map."""
    runs = []
    for inst in enumerate_small(3, 4):
        out = solve(inst)
        runs.append((inst, _kept(out), _final_map(out)))
    return runs


@pytest.mark.parametrize("choose", [_all_variables, _random_subset], ids=["all", "subset"])
def test_negation_keeps_every_exhaustive_run(exhaustive_runs, choose):
    # Negating all variables, or a subset drawn per instance in corpus
    # order, keeps kind, ``ops``, failing clause, anomaly and gaps, and
    # the negated run's final map is the original one, negated value for
    # value.
    rng = random.Random(1)
    moved = 0
    for inst, kept, final in exhaustive_runs:
        flipped = choose(inst, rng)
        neg = solve(negate_variables(inst, flipped))
        if _kept(neg) != kept or _final_map(neg, flipped) != final:
            moved += 1
    assert (len(exhaustive_runs), moved) == (6166, 0)


def _not_true_forced_cost(trace):
    return sum(
        1 if event[LITERAL] > 0 else 2
        for event in trace
        if event[KIND] == "CONTRADICTION" and event[NEW] == "not-true-forced"
    )


def test_negation_moves_ops_only_by_the_not_true_forced_cost():
    # Every tenth draw of the fuzz corpus, traced, and its negation on all
    # variables: kind, failing clause and gaps are kept; ``ops`` moves on
    # 183 draws, and ``ops`` less the cost of the not-true-forced
    # contradictions in the trace is kept on all of them.
    cfg = SolveConfig(trace=True)
    specs = fuzz_specs(FUZZ_SEED)[::10]
    moved_ops = mismatched = 0
    for spec in specs:
        inst = gen_random(spec)
        out = solve(inst, cfg)
        neg = solve(negate_variables(inst, range(1, inst.variable_count + 1)), cfg)
        if (neg.kind, neg.failing_clause, neg.gaps) != (out.kind, out.failing_clause, out.gaps):
            mismatched += 1
        elif neg.ops - _not_true_forced_cost(neg.trace) != out.ops - _not_true_forced_cost(out.trace):
            mismatched += 1
        moved_ops += neg.ops != out.ops
    assert (len(specs), mismatched, moved_ops) == (504, 0, 183)

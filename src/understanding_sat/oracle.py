"""Reference deciders used to adjudicate the main procedure.

``brute_force`` enumerates assignments as bit patterns and is the ground
truth for small instances; ``dpll`` is a unit-propagating backtracker
that scales further: one loop over a trail and a decision stack, with
propagation driven by the literal just set, so its depth is not bounded
by Python's recursion limit.  Both return an
``OracleVerdict`` carrying a model when one exists, and both are tested
against each other so neither is a single point of failure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import Assignment, Instance

BRUTE_FORCE_MAX_VARS = 30


@dataclass
class OracleVerdict:
    sat: bool
    model: Assignment | None
    nodes: int  # assignments tried / search nodes visited
    method: str

    def as_dict(self) -> dict:
        return {"sat": self.sat, "nodes": self.nodes, "method": self.method}


def brute_force(inst: Instance) -> OracleVerdict:
    """Try assignments 0, 1, 2, ... over n bits; variable i is bit
    (n - i), so x1 is the most significant bit.  First model wins."""
    n = inst.variable_count
    if n > BRUTE_FORCE_MAX_VARS:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_MAX_VARS} variables, got {n}")
    # Precompute, per clause, the mask of its variables and the bit
    # pattern under which the clause is falsified (all three literals
    # false simultaneously).  A clause holding both polarities of one
    # variable has no such pattern — it can never be falsified — and
    # must be dropped, not merged bitwise into a phantom pattern.
    masks = []
    for clause in inst.clauses:
        mask = 0
        pattern = 0
        tautological = False
        for lit in clause:
            bit = 1 << (n - abs(lit))
            want = bit if lit < 0 else 0
            if mask & bit and (pattern & bit) != want:
                tautological = True
                break
            mask |= bit
            pattern |= want
        if not tautological:
            masks.append((mask, pattern))
    tried = 0
    for k in range(1 << n):
        tried += 1
        ok = True
        for mask, pattern in masks:
            if (k & mask) == pattern:
                ok = False
                break
        if ok:
            values = {i: (k >> (n - i)) & 1 for i in range(1, n + 1)}
            return OracleVerdict(True, Assignment(values=values), tried, "brute")
    return OracleVerdict(False, None, tried, "brute")


def dpll(inst: Instance) -> OracleVerdict:
    """Unit propagation plus branching on the lowest unassigned
    variable, true branch first, searched in one loop over a trail.

    ``value`` is indexed by literal (negative literals wrap to the upper
    half): 1 true, -1 false, 0 unassigned.  Every literal set goes on the
    trail.  When one becomes true, only the clauses that hold its
    negation can have become unit or false, so only they are scanned:
    ``occurs[lit]`` lists the other two literals of each clause holding
    ``lit``.  Each entry of the decision stack is ``(trail length before
    the decision, variable, on the true branch?)``; a conflict undoes the
    trail to the latest decision still on its true branch and sets that
    variable false.  ``nodes`` counts the root, every decision and every
    flip to the false branch.  Propagation to a fixpoint is confluent, so
    the verdict, the node count and the model are those of the recursive
    search that copies the assignment at every node.
    """
    n = inst.variable_count
    try:  # one step per table, so a size too large fails at once
        occurs: list[tuple[tuple[int, int], ...]] = [()] * (2 * n + 1)
        value = [0] * (2 * n + 1)
    except MemoryError:
        raise ValueError(f"variable count {n} is too large to allocate") from None
    for a, b, c in inst.clauses:
        occurs[a] += ((b, c),)
        occurs[b] += ((a, c),)
        occurs[c] += ((a, b),)
    trail: list[int] = []
    decisions: list[tuple[int, int, bool]] = []
    nodes = 1
    # A clause holds three distinct literals, so none is unit or false
    # before the first decision: the root propagates nothing.
    ok = True
    while True:
        if ok:
            var = decisions[-1][1] + 1 if decisions else 1
            while var <= n and value[var]:
                var += 1
            if var > n:
                values = {v: int(value[v] > 0) for v in range(1, n + 1)}
                return OracleVerdict(True, Assignment(values=values), nodes, "dpll")
            decisions.append((len(trail), var, True))
            lit = var
        else:
            while decisions and not decisions[-1][2]:
                decisions.pop()
            if not decisions:
                return OracleVerdict(False, None, nodes, "dpll")
            size, var, _ = decisions.pop()
            for undone in trail[size:]:
                value[undone] = value[-undone] = 0
            del trail[size:]
            decisions.append((size, var, False))
            lit = -var
        nodes += 1
        head = len(trail)
        value[lit], value[-lit] = 1, -1
        trail.append(lit)
        ok = True
        while ok and head < len(trail):
            for a, b in occurs[-trail[head]]:
                va, vb = value[a], value[b]
                if va < 0 and vb < 0:
                    ok = False
                    break
                if va == 0 and vb < 0:
                    lit = a
                elif vb == 0 and va < 0:
                    lit = b
                else:
                    continue
                value[lit], value[-lit] = 1, -1
                trail.append(lit)
            head += 1

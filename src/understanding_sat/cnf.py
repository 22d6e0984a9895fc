"""3SAT problem representation, DIMACS text I/O, and assignment evaluation.

Literals are signed integers in the DIMACS convention: variable ``v``
appears positively as ``v`` and negated as ``-v``.  A clause is a tuple of
exactly three pairwise distinct literals, and its id is its position in
the instance; the same variable may occur in both polarities inside one
clause (such a clause is trivially satisfiable but legal input).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field


class DimacsError(ValueError):
    """Raised for malformed DIMACS input."""


@dataclass(eq=False)
class Instance:
    """A 3SAT instance: literal triples over variables 1..variable_count,
    a clause's id being its position in ``clauses``.

    ``dedup_count`` records how many duplicate clauses (same literal set)
    were dropped while building the instance.  Equality compares the
    variable count plus the clause sequence by literal *set*, so the order
    literals are written inside a clause does not affect identity.
    """

    variable_count: int
    clauses: list[tuple[int, int, int]] = field(default_factory=list)
    dedup_count: int = 0

    def literal_profile(self) -> tuple[frozenset[int], ...]:
        return tuple(map(frozenset, self.clauses))

    def __eq__(self, other: object):
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.variable_count == other.variable_count
            and self.literal_profile() == other.literal_profile()
        )

    def __hash__(self) -> int:
        return hash((self.variable_count, self.literal_profile()))

    def __repr__(self) -> str:
        return (
            f"Instance(n={self.variable_count}, m={len(self.clauses)},"
            f" dedup={self.dedup_count})"
        )


def _check_clause(literals: tuple[int, ...], variable_count: int) -> tuple[int, ...]:
    if len(literals) != 3 or len(set(literals)) != 3:
        raise ValueError(f"clause needs exactly 3 distinct literals: {literals}")
    for lit in literals:
        if lit == 0 or abs(lit) > variable_count:
            raise ValueError(f"literal {lit} out of range for n={variable_count}")
    return literals


# The engine and the oracles index lists by literal, 2n + 1 slots: a
# larger count has no list to index.
_MAX_VARIABLES = (sys.maxsize - 1) // 2


def _assemble(variable_count: int, clause_literals) -> Instance:
    # Clauses already checked, as tuples; drops the duplicates.
    clauses: list[tuple[int, int, int]] = []
    seen: set[frozenset[int]] = set()
    dropped = 0
    for lits in clause_literals:
        key = frozenset(lits)
        if key in seen:
            dropped += 1
            continue
        seen.add(key)
        clauses.append(lits)
    return Instance(variable_count=variable_count, clauses=clauses, dedup_count=dropped)


def build_instance(variable_count: int, clause_literals) -> Instance:
    """Assemble an instance from literal tuples, dropping duplicate clauses.

    Duplicates are clauses with an identical literal set; the first
    occurrence wins and keeps its literal order.  A clause's id is its
    position, in input order.  A variable count below 0, or whose ``2n + 1``
    exceeds ``sys.maxsize``, raises ValueError.
    """
    if variable_count < 0:
        raise ValueError("variable count must be non-negative")
    if variable_count > _MAX_VARIABLES:
        raise ValueError(f"variable count {variable_count} is too large to index")
    return _assemble(
        variable_count, (_check_clause(tuple(lits), variable_count) for lits in clause_literals)
    )


def parse_dimacs(text: str) -> Instance:
    """Parse DIMACS CNF text into an Instance.

    Comment lines start with ``c``.  The header ``p cnf <n> <m>`` must
    appear before any clause line.  ``n`` is rejected when ``2n + 1``
    exceeds ``sys.maxsize``, as ``build_instance`` rejects it.  The
    declared clause count ``m`` must be a non-negative integer but is
    otherwise not enforced: the clause lines that follow decide how many
    clauses the instance has.  Each clause line is whitespace separated
    nonzero integers terminated by ``0``, an integer being an optional
    ``-`` and ASCII digits; duplicate literals in a clause collapse, and
    after collapsing exactly three distinct literals must remain.  Each
    clause is checked here once.  Duplicate clauses are dropped (counted
    in ``dedup_count``).
    """
    variable_count = None
    raw_clauses: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "c":
            continue
        # int() would also take "+1", "1_0" and non-ASCII digits.
        plain = "+" not in raw and "_" not in raw and (raw.isascii() or "".join(tokens).isascii())
        if tokens[0][0] == "p":
            if variable_count is not None:
                raise DimacsError(f"line {lineno}: duplicate header")
            if len(tokens) != 4 or tokens[0] != "p" or tokens[1] != "cnf" or not plain:
                raise DimacsError(f"line {lineno}: malformed header {raw.strip()!r}")
            try:
                variable_count, declared = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise DimacsError(f"line {lineno}: malformed header {raw.strip()!r}") from None
            if variable_count < 0 or declared < 0:
                raise DimacsError(f"line {lineno}: malformed header {raw.strip()!r}")
            if variable_count > _MAX_VARIABLES:
                raise DimacsError(
                    f"line {lineno}: variable count {variable_count} is too large to index"
                )
            continue
        if variable_count is None:
            raise DimacsError(f"line {lineno}: clause before header")
        if not plain:
            raise DimacsError(f"line {lineno}: non-integer token")
        try:
            values = list(map(int, tokens))
        except ValueError:
            raise DimacsError(f"line {lineno}: non-integer token") from None
        if values.pop() != 0:
            raise DimacsError(f"line {lineno}: clause line must end with 0")
        if 0 in values:
            raise DimacsError(f"line {lineno}: stray 0 inside clause line")
        for lit in values:
            if lit > variable_count or -lit > variable_count:
                raise DimacsError(
                    f"line {lineno}: variable {abs(lit)} exceeds declared {variable_count}"
                )
        lits = tuple(dict.fromkeys(values))
        if len(lits) == 0:
            raise DimacsError(f"line {lineno}: empty clause")
        if len(lits) != 3:
            raise DimacsError(
                f"line {lineno}: clause has {len(lits)} distinct literals, need 3"
            )
        raw_clauses.append(lits)
    if variable_count is None:
        raise DimacsError("missing header")
    return _assemble(variable_count, raw_clauses)


def emit_dimacs(inst: Instance) -> str:
    """Render an instance as DIMACS text, one clause per line, no trailing
    whitespace.  Parsing the result reproduces the instance."""
    lines = [f"p cnf {inst.variable_count} {len(inst.clauses)}"]
    for clause in inst.clauses:
        lines.append(" ".join(map(str, clause)) + " 0")
    return "\n".join(lines) + "\n"


@dataclass
class Assignment:
    """Partial or total truth assignment; unmentioned variables take
    ``default_free`` when evaluated."""

    values: dict[int, int] = field(default_factory=dict)
    default_free: int = 0

    def as_signed_literals(self, variable_count: int) -> list[int]:
        out = []
        for var in range(1, variable_count + 1):
            bit = self.values.get(var, self.default_free)
            out.append(var if bit == 1 else -var)
        return out


def evaluate(inst: Instance, assignment: Assignment) -> list[int]:
    """Positions of clauses the assignment falsifies; empty means satisfied."""
    values = assignment.values
    for var, bit in values.items():
        if var < 1 or var > inst.variable_count:
            raise ValueError(f"assignment references unknown variable {var}")
        if bit not in (0, 1):
            raise ValueError(f"assignment value for {var} must be 0 or 1")
    default = assignment.default_free
    falsified = []
    for cid, clause in enumerate(inst.clauses):
        for lit in clause:
            if lit > 0:
                if (values[lit] if lit in values else default) == 1:
                    break
            elif (values[-lit] if -lit in values else default) == 0:
                break
        else:
            falsified.append(cid)
    return falsified

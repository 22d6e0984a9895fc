"""Correctness checks that share no code with the package under test.

Clauses are tuples of signed DIMACS literals and models are sets of true
literals.  The checks run outside the timed spans; a failed check marks
its operation as failed.
"""

from __future__ import annotations


def satisfies(clauses, true_literals) -> bool:
    """Every clause holds at least one literal of ``true_literals``."""
    return all(any(lit in true_literals for lit in clause) for clause in clauses)


def model_from_bits(values: dict, n: int) -> set[int]:
    """True literals of a variable -> 0/1 map; unmentioned variables are 0."""
    return {v if values.get(v, 0) == 1 else -v for v in range(1, n + 1)}


def _assign(clauses, lit):
    """Clauses left after making ``lit`` true; None if one becomes empty."""
    out = []
    for clause in clauses:
        if lit in clause:
            continue
        if -lit in clause:
            clause = tuple(x for x in clause if x != -lit)
            if not clause:
                return None
        out.append(clause)
    return out


def _search(clauses, chosen):
    while True:
        unit = next((c[0] for c in clauses if len(c) == 1), None)
        if unit is None:
            break
        clauses = _assign(clauses, unit)
        if clauses is None:
            return None
        chosen = chosen + [unit]
    if not clauses:
        return chosen
    lit = min(clauses, key=len)[0]
    for branch in (lit, -lit):
        rest = _assign(clauses, branch)
        if rest is not None:
            found = _search(rest, chosen + [branch])
            if found is not None:
                return found
    return None


def find_model(clauses, n: int) -> set[int] | None:
    """A model as a set of true literals, or None when unsatisfiable.

    Splitting on clause sets: simplify by unit clauses, then branch on a
    literal of a shortest clause.  Unset variables default to false.
    """
    chosen = _search([tuple(c) for c in clauses], [])
    if chosen is None:
        return None
    true = set(chosen)
    return true | {-v for v in range(1, n + 1) if v not in true and -v not in true}


def expected_bin(kind: str, oracle_sat: bool) -> str:
    """The bin of a sat or unsat answer against the oracle's verdict."""
    if kind == "sat":
        return "AgreeSat" if oracle_sat else "FalseSat"
    return "FalseUnsat" if oracle_sat else "AgreeUnsat"


def check_adjudication(clauses, n, outcome, verdict, bin_) -> str | None:
    """Why one adjudicated instance is wrong, or None when it checks out.

    The outcome is sat or unsat; anomalies are failures of their own.  The
    procedure's model and the oracle's model must satisfy every
    clause; an oracle unsat verdict must be confirmed by ``find_model``;
    the bin must follow from the two answers.
    """
    if outcome.kind == "sat":
        model = set(outcome.as_dict()["model"] or ())
        if not satisfies(clauses, model):
            return "procedure model falsifies a clause"
    if verdict.sat:
        if not satisfies(clauses, model_from_bits(verdict.model.values, n)):
            return "oracle model falsifies a clause"
    elif find_model(clauses, n) is not None:
        return "oracle unsat verdict, but a model exists"
    if bin_ != expected_bin(outcome.kind, verdict.sat):
        return f"bin {bin_} does not follow from {outcome.kind}/{verdict.sat}"
    return None


def check_core(record_clauses, core_clauses, n, answers_unsat) -> str | None:
    """Why a shrunk wrong-unsat core is wrong, or None when it checks out.

    ``answers_unsat(clauses)`` runs the procedure on a clause list in the
    given order.  The core must use only clauses of its record, be
    satisfiable, still be answered unsat, and be 1-minimal: dropping any
    one clause leaves an instance the procedure no longer answers unsat.
    """
    allowed = {frozenset(c) for c in record_clauses}
    if not core_clauses:
        return "empty core"
    if any(frozenset(c) not in allowed for c in core_clauses):
        return "core holds a clause its record does not"
    model = find_model(core_clauses, n)
    if model is None or not satisfies(core_clauses, model):
        return "core is unsatisfiable"
    if not answers_unsat(core_clauses):
        return "procedure no longer answers unsat on the core"
    for i in range(len(core_clauses)):
        if answers_unsat(core_clauses[:i] + core_clauses[i + 1 :]):
            return f"core is not 1-minimal: clause {i} can be dropped"
    return None

"""Instance model, DIMACS parsing/emission, assignment evaluation."""

import sys

import pytest
from hypothesis import given, strategies as st

from understanding_sat.cnf import (
    Assignment,
    DimacsError,
    build_instance,
    emit_dimacs,
    evaluate,
    parse_dimacs,
)


class TestBuildInstance:
    def test_basic(self):
        inst = build_instance(4, [(1, -2, 4), (2, 3, -4)])
        assert inst.variable_count == 4
        assert inst.clauses == [(1, -2, 4), (2, 3, -4)]
        assert inst.dedup_count == 0

    def test_duplicate_clauses_drop_but_first_order_wins(self):
        inst = build_instance(3, [(1, 2, 3), (3, 1, 2), (1, 2, -3)])
        assert inst.clauses == [(1, 2, 3), (1, 2, -3)]
        assert inst.dedup_count == 1

    def test_complementary_pair_is_legal(self):
        inst = build_instance(2, [(1, -1, 2)])
        assert inst.clauses == [(1, -1, 2)]

    @pytest.mark.parametrize(
        "bad",
        [(1, 2), (1, 2, 3, 4), (1, 1, 2), (0, 1, 2), (1, 2, 9)],
    )
    def test_rejects_malformed_clauses(self, bad):
        with pytest.raises(ValueError):
            build_instance(3, [bad])

    def test_rejects_negative_variable_count(self):
        with pytest.raises(ValueError):
            build_instance(-1, [])

    def test_rejects_variable_count_too_large_to_index(self):
        # The largest count whose 2n + 1 literal slots fit an index is
        # accepted; nothing sized by n is built without clauses.
        largest = (sys.maxsize - 1) // 2
        assert build_instance(largest, []).variable_count == largest
        assert parse_dimacs(f"p cnf {largest} 0\n").variable_count == largest
        with pytest.raises(ValueError, match=f"variable count {largest + 1} is too large"):
            build_instance(largest + 1, [])
        with pytest.raises(DimacsError, match=f"line 2: variable count {largest + 1} is too large"):
            parse_dimacs(f"c\np cnf {largest + 1} 1\n1 2 3 0\n")

    def test_equality_ignores_literal_order_within_clause(self):
        a = build_instance(3, [(1, 2, 3), (-1, 2, -3)])
        b = build_instance(3, [(3, 1, 2), (2, -1, -3)])
        assert a == b
        assert hash(a) == hash(b)
        # clause sequence order is part of identity
        c = build_instance(3, [(-1, 2, -3), (1, 2, 3)])
        assert a != c
        assert a != build_instance(3, [(1, 2, 3)])


class TestParseDimacs:
    def test_golden(self):
        text = "c a comment\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n"
        inst = parse_dimacs(text)
        assert inst.variable_count == 3
        assert inst.clauses == [(1, -2, 3), (-1, 2, -3)]

    def test_duplicate_literals_in_clause_collapse(self):
        inst = parse_dimacs("p cnf 3 1\n1 1 -2 3 0\n")
        assert inst.clauses == [(1, -2, 3)]

    @pytest.mark.parametrize(
        "text,count",
        [("p cnf 3 5\n1 2 3 0\n", 1), ("p cnf 3 0\n1 2 3 0\n-1 2 3 0\n", 2)],
    )
    def test_declared_clause_count_is_not_enforced(self, text, count):
        assert len(parse_dimacs(text).clauses) == count

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("p cnf 3 1\np cnf 3 1\n1 2 3 0\n", "line 2"),
            ("p cnf x 1\n", "line 1"),
            ("1 2 3 0\n", "before"),
            ("p cnf 3 1\n1 two 3 0\n", "line 2"),
            ("p cnf 3 1\n1 2 3\n", "end with 0"),
            ("p cnf 3 1\n1 0 3 0\n", "line 2"),
            ("p cnf 3 1\n1 2 4 0\n", "exceeds"),
            ("p cnf 3 1\n0\n", "line 2"),
            ("p cnf 3 1\n1 2 3 -1 0\n", "4 distinct"),
            ("", "missing header"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(DimacsError) as err:
            parse_dimacs(text)
        assert fragment in str(err.value)


_LARGEST = (sys.maxsize - 1) // 2


@pytest.mark.parametrize(
    "text,message",
    [
        ("p cnf 3 1\np cnf 3 1\n1 2 3 0\n", "line 2: duplicate header"),
        ("p cnf 3\n", "line 1: malformed header 'p cnf 3'"),
        ("p dnf 3 1\n", "line 1: malformed header 'p dnf 3 1'"),
        ("pcnf 3 1\n", "line 1: malformed header 'pcnf 3 1'"),
        ("  p cnf x 1  \n", "line 1: malformed header 'p cnf x 1'"),
        ("p cnf -1 1\n", "line 1: malformed header 'p cnf -1 1'"),
        ("p cnf 3 -1\n", "line 1: malformed header 'p cnf 3 -1'"),
        (
            f"c\np cnf {_LARGEST + 1} 1\n1 2 3 0\n",
            f"line 2: variable count {_LARGEST + 1} is too large to index",
        ),
        ("1 2 3 0\n", "line 1: clause before header"),
        ("p cnf 3 1\n1 two 3 0\n", "line 2: non-integer token"),
        ("p cnf 3 1\n1 2 3\n", "line 2: clause line must end with 0"),
        ("p cnf 3 1\n1 0 3 0\n", "line 2: stray 0 inside clause line"),
        ("p cnf 3 1\n1 0 4 x\n", "line 2: non-integer token"),
        ("p cnf 3 1\n1 2 4 0\n", "line 2: variable 4 exceeds declared 3"),
        ("p cnf 3 1\n-5 2 0 0\n", "line 2: stray 0 inside clause line"),
        ("p cnf 3 1\n1 -7 9 0\n", "line 2: variable 7 exceeds declared 3"),
        ("p cnf 3 1\n0\n", "line 2: empty clause"),
        ("p cnf 3 1\n1 1 0\n", "line 2: clause has 1 distinct literals, need 3"),
        ("p cnf 3 1\n1 2 3 -1 0\n", "line 2: clause has 4 distinct literals, need 3"),
        ("", "missing header"),
        ("c only a comment\n", "missing header"),
        # An integer is an optional minus sign and ASCII digits: int()
        # alone would read 1_0 as 10 and take a plus sign and the digits
        # of other scripts.
        ("p cnf 3 1\n1_0 2 3 0\n", "line 2: non-integer token"),
        ("p cnf 3 1\n+1 2 3 0\n", "line 2: non-integer token"),
        ("p cnf 3 1\n\u0661 2 3 0\n", "line 2: non-integer token"),
        ("p cnf 3 1\n1 2 3 0_0\n", "line 2: non-integer token"),
        ("p cnf 0_3 1\n1 2 3 0\n", "line 1: malformed header 'p cnf 0_3 1'"),
        ("p cnf +3 1\n1 2 3 0\n", "line 1: malformed header 'p cnf +3 1'"),
        ("p cnf 3 \u0661\n1 2 3 0\n", "line 1: malformed header 'p cnf 3 \u0661'"),
        ("p cnf \uff13 1\n1 2 3 0\n", "line 1: malformed header 'p cnf \uff13 1'"),
    ],
)
def test_every_error_message(text, message):
    with pytest.raises(DimacsError) as err:
        parse_dimacs(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text,n,clauses",
    [
        ("p cnf 3 1\n001 -02 3 -0\n", 3, [(1, -2, 3)]),
        ("p cnf 3 1\n1\u00a02\u30003 0\n", 3, [(1, 2, 3)]),
        ("p cnf -0 0\n", 0, []),
        ("\t p  cnf 3 1 \n c x\n cnf\n1 2 3 0 \n\n", 3, [(1, 2, 3)]),
    ],
)
def test_plain_integers_and_other_whitespace_still_parse(text, n, clauses):
    inst = parse_dimacs(text)
    assert (inst.variable_count, inst.clauses) == (n, clauses)


def test_emit_golden():
    inst = build_instance(3, [(1, -2, 3), (-1, 2, -3)])
    assert emit_dimacs(inst) == "p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n"


@st.composite
def instances(draw, max_n=6, max_m=8):
    n = draw(st.integers(min_value=3, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    literals = [l for v in range(1, n + 1) for l in (v, -v)]
    clauses = []
    for _ in range(m):
        lits = draw(st.permutations(literals).map(lambda p: tuple(p[:3])))
        clauses.append(lits)
    return build_instance(n, clauses)


@given(instances())
def test_round_trip_identity(inst):
    again = parse_dimacs(emit_dimacs(inst))
    assert again == inst
    assert again.clauses == inst.clauses


class TestEvaluate:
    def test_reports_falsified_clause_ids(self):
        inst = build_instance(3, [(1, 2, 3), (-1, -2, -3), (1, -2, 3)])
        assignment = Assignment(values={1: 1, 2: 1, 3: 1})
        assert evaluate(inst, assignment) == [1]

    def test_empty_means_satisfied(self):
        inst = build_instance(3, [(1, 2, 3)])
        assert evaluate(inst, Assignment(values={1: 0, 2: 0, 3: 1})) == []

    def test_default_free_fills_missing(self):
        inst = build_instance(3, [(1, 2, 3)])
        assert evaluate(inst, Assignment(values={}, default_free=1)) == []
        assert evaluate(inst, Assignment(values={}, default_free=0)) == [0]

    def test_rejects_bad_values(self):
        inst = build_instance(3, [(1, 2, 3)])
        with pytest.raises(ValueError):
            evaluate(inst, Assignment(values={1: 2, 2: 0, 3: 0}))

    def test_literal_truth_and_signed_view(self):
        # 1 and -2 are true by assignment, -3 by default; -1, 2, 3 false.
        a = Assignment(values={1: 1, 2: 0})
        inst = build_instance(3, [(-1, 2, 3), (1, 2, 3), (-1, -2, 3), (-1, 2, -3)])
        assert evaluate(inst, a) == [0]
        assert a.as_signed_literals(3) == [1, -2, -3]

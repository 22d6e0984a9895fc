"""Workload inputs and operations.

Inputs come from the benchmark's own generators, so the package under
test only ever sees DIMACS text.  Each workload builds a list of items
from the seed (``build``) and runs one operation per item.  ``timed``
returns ``(latency_s, result)``: the user-facing latency and the
operation's output.  ``check`` runs after the timed part and returns
``(problem, incorrect)``: why the operation failed (None when it did
not), and whether that is a wrong output rather than an anomaly.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import time

from checks import check_adjudication, check_core

# m = 4n, the clause/variable ratio of the growth grid.  The grid stops at
# n = 20: per-instance solve time has a coefficient of variation near 0.9
# at every size, and one instance at n = 40 can take 11 s, so a run that
# drew from n = 20..40 would measure the luck of the draw, not the code.
GRID_SIZES = (14, 16, 18, 20)
GRID_DRAWS = 150  # per size

# Wrong-unsat records to shrink, at ratio 4.27.  One size only: with
# records from n = 8, 10 and 12 the median minimize time sat in the
# middle size's cluster of 18 records and moved 13% from seed to seed,
# and the p90 had 5 samples beyond it.  At n = 8 a record takes about
# 0.2 s, so a round holds enough records for both.
SHRINK_N = 8
SHRINK_RECORDS = 120
SHRINK_RATIO = 4.27

EXHAUSTIVE_MAX_N = 3
EXHAUSTIVE_MAX_M = 4

BRUTE_FORCE_UP_TO = 12  # variables; the harness's ``auto`` oracle rule


def draw(rng: random.Random, n: int, m: int) -> list[tuple[int, int, int]]:
    """Uniform 3-SAT: three distinct variables, independent polarities,
    no two clauses with the same literal set."""
    seen = set()
    clauses = []
    while len(clauses) < m:
        lits = tuple(v if rng.random() < 0.5 else -v for v in sorted(rng.sample(range(1, n + 1), 3)))
        if frozenset(lits) not in seen:
            seen.add(frozenset(lits))
            clauses.append(lits)
    return clauses


def exhaustive(max_n: int, max_m: int):
    """Every clause list of at most ``max_m`` distinct clauses, each a
    3-subset of the 2n literals, whose variables are exactly 1..n."""
    for n in range(max_n + 1):
        literals = [s * v for v in range(1, n + 1) for s in (1, -1)]
        universe = list(itertools.combinations(literals, 3))
        for m in range(max_m + 1):
            for combo in itertools.combinations(universe, m):
                if len({abs(l) for c in combo for l in c}) == n:
                    yield n, list(combo)


def dimacs(n: int, clauses) -> str:
    return f"p cnf {n} {len(clauses)}\n" + "".join(
        " ".join(map(str, c)) + " 0\n" for c in clauses
    )


def read_dimacs(text: str) -> tuple[int, list[tuple[int, ...]]]:
    n = 0
    clauses = []
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0] == "c":
            continue
        if tokens[0] == "p":
            n = int(tokens[2])
        else:
            clauses.append(tuple(int(t) for t in tokens[:-1]))
    return n, clauses


@dataclasses.dataclass
class Item:
    n: int
    clauses: list
    text: str
    record: object = None  # a CounterexampleRecord on shrink-falseunsat


def _item(n, clauses) -> Item:
    return Item(n, clauses, dimacs(n, clauses))


def _oracle(api, n):
    return api.oracle.brute_force if n <= BRUTE_FORCE_UP_TO else api.oracle.dpll


class Adjudicate:
    """Full adjudication of DIMACS text: parse, solve, oracle, classify.

    Latency is DIMACS text to the procedure's outcome; the oracle and
    classification count toward the operation's busy time only.
    """

    @staticmethod
    def timed(api, item):
        start = time.perf_counter()
        inst = api.cnf.parse_dimacs(item.text)
        outcome = api.solver.solve(inst)
        verdict_at = time.perf_counter()
        verdict = _oracle(api, item.n)(inst)
        bin_ = api.harness.classify(outcome, verdict)
        return verdict_at - start, (outcome, verdict, bin_)

    @staticmethod
    def check(api, item, result, tally):
        outcome, verdict, bin_ = result
        if outcome.kind == "anomaly":
            return f"anomaly outcome {outcome.anomaly}", False
        problem = check_adjudication(item.clauses, item.n, outcome, verdict, bin_)
        return problem, problem is not None


class Grid(Adjudicate):
    @classmethod
    def build(cls, api, seed):
        rng = random.Random(f"grid-r4:{seed}")
        return [_item(n, draw(rng, n, 4 * n)) for n in GRID_SIZES for _ in range(GRID_DRAWS)]


class Exhaustive(Adjudicate):
    @classmethod
    def build(cls, api, seed):
        items = [_item(n, c) for n, c in exhaustive(EXHAUSTIVE_MAX_N, EXHAUSTIVE_MAX_M)]
        # The corpus is fixed; the seed only sets the order it is run in.
        random.Random(f"exhaustive:{seed}").shuffle(items)
        return items


class Shrink:
    """``minimize`` on wrong-unsat records; the records are found in set-up
    by adjudicating seeded draws until there are SHRINK_RECORDS of them."""

    MAX_DRAWS = 10 * SHRINK_RECORDS  # about 3 draws in 10 are wrong-unsat

    @classmethod
    def build(cls, api, seed):
        rng = random.Random(f"shrink-falseunsat:{seed}")
        config = dataclasses.asdict(api.solver.SolveConfig())
        n = SHRINK_N
        items = []
        for _ in range(cls.MAX_DRAWS):
            item = _item(n, draw(rng, n, round(SHRINK_RATIO * n)))
            inst = api.cnf.parse_dimacs(item.text)
            outcome = api.solver.solve(inst)
            verdict = _oracle(api, n)(inst)
            bin_ = api.harness.classify(outcome, verdict)
            if bin_ != "FalseUnsat":
                continue
            item.record = api.harness.CounterexampleRecord(
                dimacs=item.text,
                config=config,
                solver_outcome=outcome.as_dict(),
                oracle_verdict=verdict.as_dict(),
                kind=bin_,
            )
            items.append(item)
            if len(items) == SHRINK_RECORDS:
                return items
        raise RuntimeError(f"only {len(items)} wrong-unsat records in {cls.MAX_DRAWS} draws")

    @staticmethod
    def timed(api, item):
        start = time.perf_counter()
        shrunk = api.harness.minimize(item.record)
        return time.perf_counter() - start, shrunk

    @staticmethod
    def check(api, item, shrunk, tally):
        if shrunk.kind != "FalseUnsat":
            return f"shrunk record has kind {shrunk.kind}", True
        n, core = read_dimacs(shrunk.dimacs)
        tally["core_clauses"] += len(core)
        tally["record_clauses"] += len(item.clauses)
        cfg = api.solver.SolveConfig(**item.record.config)

        def answers_unsat(clauses):
            inst = api.cnf.parse_dimacs(dimacs(n, clauses))
            return api.solver.solve(inst, cfg).kind == "unsat"

        problem = check_core(item.clauses, core, n, answers_unsat)
        return problem, problem is not None


WORKLOADS = {
    "grid-r4": Grid,
    "exhaustive-n3m4": Exhaustive,
    "shrink-falseunsat": Shrink,
}

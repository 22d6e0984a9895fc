"""Truth-value propagation engine over per-clause literal contexts.

The engine keeps a three-valued map over literals ("the understanding"):
every literal is true (``t``), false (``f``), or free (``e``), with the
two polarities of a variable permanently coupled (one true iff the other
false, free together).

Each admitted clause contributes up to three *concepts*.  The concept of a
focus literal in a clause is the pair of companion literals of that
clause, read under the current map.  A concept is classified ``C+`` when
no companion is currently true (the focus is still needed to cover the
clause) and ``C*`` when some companion is true (the clause is covered
without the focus).

The value of a literal is recomputed from two predicates:

* ``P`` - some concept focused on the literal is ``C+``;
* ``Q`` - some concept focused on its negation is ``C+``.

``P`` alone forces true, ``Q`` alone forces false, neither leaves the
literal free, and both at once is a contradiction (the map cannot be
defined).  Assumption pins take precedence over the computed value; a
computed value that directly opposes a pin, or a computed true on a
literal that one ``compute_fixpoint`` call constrains not-true, is also
a contradiction.

``compute_fixpoint`` re-runs this rule over a worklist of variables
until stable, applying it to both polarities of a variable in one step.
A fixpoint that fails rolls the state back to what it was on entry, and
``add_clause`` undoes only the concept whose fixpoint failed.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass

from .cnf import Instance

TruthValue = str

TRUE: TruthValue = "t"
FALSE: TruthValue = "f"
FREE: TruthValue = "e"

_FLIP = {TRUE: FALSE, FALSE: TRUE, FREE: FREE}

ConceptKey = tuple[int, int]  # (origin clause id, focus literal)


def flip(value: TruthValue) -> TruthValue:
    """Value of the opposite polarity under the coupling rule."""
    return _FLIP[value]


class GuardExceeded(RuntimeError):
    """The fixpoint step guard tripped."""


@dataclass
class Contradiction:
    """Witness that the map cannot be defined: the literal whose
    recomputation failed, and why."""

    witness: int
    reason: str


# The fields of a trace event, in tuple order.  An event's step is its
# position in ``RunLog.events``.
TRACE_FIELDS = ("kind", "literal", "old", "new", "clause", "counter")


class RunLog:
    """Shared per-run accounting: the basic-operation counter, guard trip
    counts and (when enabled) the append-only trace of events, each a
    tuple of ``TRACE_FIELDS`` whose ``counter`` is ``ops`` when it was
    logged.

    Forked states and restricted views share the log of their parent, so
    work done on discarded branches still counts toward the run and stays
    visible in the trace.  ``enabled`` is fixed for the life of the log.

    ``copy`` carries ``ops``, the guard trips, the gaps and the events (a
    new list of the same event tuples) into a new log; a run resumed from
    a saved state continues on it.

    Every call site checks ``enabled`` before it calls ``emit`` or
    appends an event itself, so an untraced run never builds an event.
    """

    __slots__ = ("ops", "events", "enabled", "guard_trips", "gaps")

    def __init__(self, enabled: bool = False):
        self.ops = 0
        self.events: list[tuple] = []
        self.enabled = enabled
        self.guard_trips = 0
        self.gaps = 0

    def copy(self) -> "RunLog":
        log = RunLog(self.enabled)
        log.ops = self.ops
        log.events = self.events[:]
        log.guard_trips = self.guard_trips
        log.gaps = self.gaps
        return log

    def emit(self, kind: str, literal=None, old=None, new=None, clause=None):
        self.events.append((kind, literal, old, new, clause, self.ops))


class EngineState:
    """Mutable engine state: admitted clauses, concept store, value map,
    assumptions, and the shared run log.

    ``values``, ``pins`` and ``unmet`` are lists indexed by literal
    (negative literals wrap to the upper half; slot 0 is unused), so a
    read is one index and a copy one slice.  ``values`` stores ``FREE``
    too.
    ``pins[lit]`` is the value a literal is assumed to hold, ``""`` when
    unpinned; ``pin_literal`` pins a literal true and its negation false
    together.  A pin stands unless the computed value directly opposes it,
    so the effective value is ``pins[lit] or values[lit]``.

    The concept index is ``concepts`` (key to companions) and two lists
    indexed by literal like ``values``: ``by_focus[lit]``, the keys
    focused on ``lit`` in ascending key order (by origin clause), and
    ``by_member[lit]``, the keys holding ``lit`` as a companion, each a
    tuple that is replaced, never changed.  It is copy-on-write: ``fork``
    hands the child the parent's index and marks both states as sharing
    it; whichever of them next admits a clause copies the dict and the
    two lists first and owns its copy from then on, so neither ever sees
    the other's later inserts.  (A concept is removed only to undo its
    insert on the same state, which already owns its index by then.)
    Values and assumptions are copied on every fork.  A restricted view
    shares an index from ``views`` (below) the same way, marked shared
    from the start, so a clause admitted into a view copies it first.
    Package code outside this class reads the index and never changes it.

    ``checks`` stores the freeing trials already run on this index: it
    maps ``view_key(literal)`` to what ``algorithms._freeing_trial`` did
    the first time it was asked: copies of the adopted trial's
    ``values``, ``pins`` and ``unmet`` (None when there is none), the
    ``ops`` it added and the slice of event tuples it logged (each
    ``counter`` relative to the trial's start).  ``fork`` shares the dict
    along with the index; ``__init__``, ``restrict_to`` and
    ``add_clause`` (once per clause, before its first concept) give the
    state a fresh one, which a concept undone by a contradiction leaves in
    place.  States that share a store therefore share an index, and the
    key need only name the rest of the view.  A stored event list replays
    what the state's log recorded, so a state is moved to another log
    only with a fresh store, as ``solve`` does when it resumes a run.

    ``views`` stores the indexes of the restricted views already built on
    this index: it maps a variable to the ``(concepts, by_focus,
    by_member)`` of the view of either of its literals, which
    ``restrict_to`` builds at the first request and hands, read-only, to
    every later view of that variable.  It has the lifetime of
    ``checks``: ``fork`` shares it, and ``__init__``, ``restrict_to`` and
    ``add_clause`` give the state a fresh one.  ``solve`` empties
    both stores of an outcome's state and of a resumed prefix's fork.

    ``unmet[lit]`` is the number of concepts focused on ``lit`` whose two
    companions are both not true, reading each companion's effective
    value (a pin overrides the stored value): the concept is C+ exactly
    when it counts, so one reevaluation reads ``P`` and ``Q`` in O(1)
    instead of rescanning the concepts.  Three places step it, each only
    when a literal's effective truth actually changes or a concept enters
    or leaves the index: ``add_clause`` and ``_remove_concept`` (a
    concept's own contribution, each testing the cover inline),
    ``compute_fixpoint``'s value writes (a pinned polarity is skipped, its
    effective value does not move) and ``pin_literal``.  A fixpoint that
    fails writes back the copies of ``values`` and ``unmet`` it took at
    its first write, so the two stay equal.  ``fork`` copies it with the
    values; ``restrict_to`` counts it afresh for each view from the view's
    concepts, values and assumptions.
    """

    __slots__ = (
        "inst",
        "values",
        "concepts",
        "by_focus",
        "by_member",
        "pins",
        "unmet",
        "log",
        "_shared",
        "checks",
        "views",
    )

    def __init__(self, inst: Instance, log: RunLog | None = None):
        size = 2 * inst.variable_count + 1
        self.inst = inst
        try:  # one step per table, so a size too large fails at once
            self.values: list[TruthValue] = [FREE] * size
            self.by_focus: list[tuple[ConceptKey, ...]] = [()] * size
            self.by_member: list[tuple[ConceptKey, ...]] = [()] * size
            self.pins: list[TruthValue] = [""] * size
            self.unmet: list[int] = [0] * size
        except MemoryError:
            raise ValueError(f"variable count {size // 2} is too large to allocate") from None
        self.concepts: dict[ConceptKey, tuple[int, int]] = {}
        self.log = log if log is not None else RunLog()
        self._shared = False  # the index may be another state's too
        self.checks: dict = {}
        self.views: dict = {}

    # -- assumptions ---------------------------------------------------

    def pin_literal(self, literal: int) -> bool:
        """Assume the literal true and its negation false (a false pin on
        ``x`` is the pin on ``-x``); False on clash with an existing pin."""
        pins = self.pins
        if pins[literal] == FALSE or pins[-literal] == TRUE:
            return False
        values = self.values
        for lit, v in ((literal, TRUE), (-literal, FALSE)):
            was_true = (pins[lit] or values[lit]) == TRUE
            pins[lit] = v
            if was_true != (v == TRUE):
                self._retally(lit, 1 if was_true else -1)
        return True

    # -- mutations -----------------------------------------------------

    def _retally(self, literal: int, step: int) -> None:
        # The literal's effective truth just changed: it stopped being
        # true (step +1) or became true (step -1).  Each concept holding
        # it as a companion changes type unless its other companion is
        # true.
        values = self.values
        pins = self.pins
        concepts = self.concepts
        unmet = self.unmet
        for key in self.by_member[literal]:
            m1, m2 = concepts[key]
            other = m2 if m1 == literal else m1
            if (pins[other] or values[other]) != TRUE:
                unmet[key[1]] += step

    def _step_cap(self) -> int:
        return 64 + 8 * (len(self.concepts) + 1) * (2 * self.inst.variable_count + 2)

    def compute_fixpoint(self, seeds, not_true=()) -> Contradiction | None:
        """Recompute values starting from ``seeds``, a list of literals,
        until stable, with the literals in ``not_true`` constrained to be
        free or false for this call only.

        FIFO worklist over variables, seeded in index order.  Each step
        reevaluates both polarities of one variable, two basic operations
        (``-var`` takes the flip of ``var``'s value), or stops at a
        Contradiction, which costs one operation when found on ``var``:
        ``-var`` is not reached.  They are tried in this order: ``var``
        needed and opposed, ``var``'s pin opposed, ``var`` forced true
        while not-true, ``-var`` forced true while not-true (a pinned
        variable takes its pin and is never forced).  A value change
        writes ``var`` then ``-var``, stepping ``unmet`` after each, and
        re-enqueues, in index order, every variable whose focused concepts
        mention the changed pair.  Only at its first change, which most
        calls never make, does the call copy ``values`` and ``unmet`` and
        flag the queued variables (the unread tail) in a ``bytearray``
        indexed by literal, both polarities set, so a change appends its
        unflagged dependents, sorted once.  On contradiction, or when the
        step guard trips, it writes the copies back into the same two
        lists, so the state is as it was on entry.

        The step is written out in the loop, with no call per step, and
        ``ops`` kept in a local (written back at every exit; a traced
        ``SET`` event is appended with the local count), because it is
        the engine's innermost work.
        """
        queue = [abs(seeds[0])] if len(seeds) == 1 else sorted(set(map(abs, seeds)))
        head = 0
        queued = saved = None
        values = self.values
        pins = self.pins
        unmet = self.unmet
        log = self.log
        ops = log.ops
        traced = log.enabled
        cap = self._step_cap()
        for var in queue:
            if head >= cap:
                witness = None
                break
            head += 1
            neg = -var
            if queued is not None:
                queued[var] = queued[neg] = 0
            ops += 2
            if unmet[var] > 0:
                if unmet[neg] > 0:
                    ops -= 1
                    witness, reason = var, "needed-and-opposed"
                    break
                new = TRUE
            else:
                new = FALSE if unmet[neg] > 0 else FREE
            pin = pins[var]
            if pin:
                if new != FREE and new != pin:
                    ops -= 1
                    witness, reason = var, "pin-conflict"
                    break
                if pins[neg] != _FLIP[pin]:
                    log.ops = ops
                    raise AssertionError(f"coupling broke during recomputation of variable {var}")
                new = pin
            elif new == TRUE:
                if var in not_true:
                    ops -= 1
                    witness, reason = var, "not-true-forced"
                    break
            elif new == FALSE and neg in not_true:
                witness, reason = neg, "not-true-forced"
                break
            old = values[var]
            if new == old:
                continue
            if saved is None:
                saved = values[:], unmet[:]
                queued = bytearray(len(values))
                by_member, concepts = self.by_member, self.concepts
                for dep in queue[head:]:
                    queued[dep] = queued[-dep] = 1
            fresh = []
            for lit, v in ((var, new), (neg, _FLIP[new])):
                keys = by_member[lit]
                was_true = values[lit] == TRUE
                values[lit] = v
                if was_true != (v == TRUE) and not pins[lit]:
                    step = 1 if was_true else -1
                    for key in keys:
                        m1, m2 = concepts[key]
                        other = m2 if m1 == lit else m1
                        if (pins[other] or values[other]) != TRUE:
                            unmet[key[1]] += step
                for _, dep in keys:
                    if not queued[dep]:
                        queued[dep] = queued[-dep] = 1
                        fresh.append(dep if dep > 0 else -dep)
            if traced:
                log.events.append(("SET", var, old, new, None, ops))
            if fresh:
                fresh.sort()
                queue += fresh
        else:
            log.ops = ops
            return None
        log.ops = ops
        if saved is not None:
            values[:], unmet[:] = saved
        if witness is None:
            log.guard_trips += 1
            raise GuardExceeded("fixpoint step guard exceeded")
        if traced:
            log.emit("CONTRADICTION", literal=witness, new=reason)
        return Contradiction(witness, reason)

    def add_clause(self, cid: int, literals: tuple[int, int, int]) -> Contradiction | None:
        """Admit the three concepts of clause ``cid``, whose literals are
        ``literals``, each followed by its fixpoint, and stop at the first
        that contradicts; ValueError, with the state unchanged, if a
        concept of the clause is in.

        Each concept goes in on the first literal left still not false, or
        the first left when all are, its companions the other two in
        clause order.  It is indexed inline, logged (``U3_PICK``,
        ``ADD_CONCEPT``) and propagated from its focus; a contradiction or
        a ``GuardExceeded`` undoes it alone, and earlier ones stay.  The
        index is owned and the stores made fresh once, before the first.
        """
        a, b, c = literals
        concepts = self.concepts
        if (cid, a) in concepts or (cid, b) in concepts or (cid, c) in concepts:
            raise ValueError(f"clause {cid} already admitted")
        if self._shared:
            self._own_index()
            concepts = self.concepts
        self.checks, self.views = {}, {}
        by_focus, by_member = self.by_focus, self.by_member
        values, pins, unmet = self.values, self.pins, self.unmet
        log = self.log
        traced = log.enabled
        # After the first pick ``x`` goes in, then ``y`` (swapped first
        # when only ``y`` is not false).  Nothing up to the first fixpoint
        # spends a recursion level on a fresh state: a trip lands there.
        if values[a] != FALSE or values[b] == FALSE == values[c]:
            pick, x, y = a, b, c
        elif values[b] != FALSE:
            pick, x, y = b, a, c
        else:
            pick, x, y = c, a, b
        while True:
            m1, m2 = (b, c) if pick == a else (a, c) if pick == b else (a, b)
            key = (cid, pick)
            concepts[key] = m1, m2
            focused = by_focus[pick]
            if not focused or focused[-1][0] < cid:
                by_focus[pick] = focused + (key,)
            else:
                i = bisect(focused, key)
                by_focus[pick] = focused[:i] + (key,) + focused[i:]
            by_member[m1] += (key,)
            by_member[m2] += (key,)
            if (pins[m1] or values[m1]) != TRUE and (pins[m2] or values[m2]) != TRUE:
                unmet[pick] += 1
            if traced:
                log.events.append(("U3_PICK", pick, values[pick], None, cid, log.ops))
                log.events.append(("ADD_CONCEPT", pick, None, None, cid, log.ops))
            try:
                res = self.compute_fixpoint([pick])
            except GuardExceeded:
                self._remove_concept(key)
                raise
            if res is not None:
                self._remove_concept(key)
                return res
            if pick == y:
                return None
            if pick != x and values[x] == FALSE != values[y]:
                x, y = y, x
            pick = y if pick == x else x

    def _own_index(self) -> None:
        """Copy a shared concept index before changing it."""
        self.concepts = dict(self.concepts)
        self.by_focus = self.by_focus[:]
        self.by_member = self.by_member[:]
        self._shared = False

    def _remove_concept(self, key: ConceptKey) -> None:
        # Only ever undoes an ``add_clause`` insert on this same state, so
        # the index is already this state's own copy, and its stores the
        # empty ones that call gave it.
        members = self.concepts.pop(key)
        focus = key[1]
        m1, m2 = members
        pins, values = self.pins, self.values
        if (pins[m1] or values[m1]) != TRUE and (pins[m2] or values[m2]) != TRUE:
            self.unmet[focus] -= 1
        for table, lit in ((self.by_focus, focus), (self.by_member, m1), (self.by_member, m2)):
            table[lit] = tuple(k for k in table[lit] if k != key)

    # -- copies --------------------------------------------------------

    def fork(self, lists=None) -> "EngineState":
        """Observationally independent copy sharing the run log.

        Only the values, the assumptions and ``unmet`` are copied, or the
        ``(values, pins, unmet)`` triple ``lists`` in their place.  The
        concept index and its stored trials and views are shared with
        this state until either of the two inserts a concept, which copies
        the dict and the two lists first (see the class docstring).
        """
        values, pins, unmet = lists or (self.values, self.pins, self.unmet)
        self._shared = True
        n = object.__new__(EngineState)
        n.inst = self.inst
        n.values = values[:]
        n.concepts = self.concepts
        n.by_focus = self.by_focus
        n.by_member = self.by_member
        n.pins = pins[:]
        n.unmet = unmet[:]
        n.log = self.log
        n._shared = True
        n.checks = self.checks
        n.views = self.views
        return n

    def restrict_to(self, literal: int) -> "EngineState":
        """Copy restricted to the admitted clauses that contain the
        literal or its negation; values and assumptions carry over
        unchanged.  The view shares the index stored in ``views`` for the
        literal's variable, built at the first request on this index, and
        has empty stores of its own.

        Every concept of a clause holds all three of the clause's
        literals, as focus or companion, so the kept concepts are exactly
        those in the ``by_focus`` and ``by_member`` slots of ``literal``
        and ``-literal``; the rest of the store is never scanned.  The
        view's index is built in one pass over those keys in key order,
        each entered as ``add_clause`` enters it, so every slot's tuple is
        in key order.  Only ``unmet`` is counted afresh for each view.
        """
        var = abs(literal)
        index = self.views.get(var)
        if index is None:
            source, focused, members = self.concepts, self.by_focus, self.by_member
            concepts = {}
            by_focus = [()] * len(self.values)
            by_member = by_focus[:]
            for key in sorted({*focused[var], *focused[-var], *members[var], *members[-var]}):
                concepts[key] = m1, m2 = source[key]
                by_focus[key[1]] += (key,)
                by_member[m1] += (key,)
                by_member[m2] += (key,)
            index = self.views[var] = concepts, by_focus, by_member
        n = object.__new__(EngineState)
        n.inst = self.inst
        n.values = values = self.values[:]
        n.pins = pins = self.pins[:]
        n.unmet = unmet = [0] * len(values)
        n.log = self.log
        n._shared = True
        n.checks = {}
        n.views = {}
        n.concepts, n.by_focus, n.by_member = index
        for (_, focus), (m1, m2) in n.concepts.items():
            if (pins[m1] or values[m1]) != TRUE and (pins[m2] or values[m2]) != TRUE:
                unmet[focus] += 1
        return n

    def view_key(self, literal: int) -> tuple:
        """Key of ``(literal, restrict_to(literal))`` in ``checks``, whose
        states all share one index: the literal, values and pins.  Pins
        are joined by ``|`` because an unpinned slot is empty.
        """
        return literal, "".join(self.values), "|".join(self.pins)

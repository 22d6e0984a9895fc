"""Search procedures layered on the propagation engine.

``algorithm_g`` asks whether the map can be rewritten so a currently free
literal becomes true.  ``algorithm_d`` asks whether the map can be
rewritten so a currently false literal becomes free, recursively freeing
companion literals where needed.  Both work on forks and never mutate
their input; ``algorithm_d`` returns the rewritten fork on success.

``algorithm_d`` repeats most of its trials: about 70% on random instances
pin the same companion on the same state as one already run.
``_freeing_trial`` runs each distinct trial (check, pin and fixpoint) once
per concept index, stores its result, ``ops`` and events in
``EngineState.checks`` and replays them on a repeat.  The key reads no
concepts, so a repeat on another index with equal concepts runs again:
time lost, never a wrong answer.  A trip of the fixpoint step guard
stores nothing.
"""

from __future__ import annotations

from .engine import EngineState, FALSE, FREE, TRUE


def algorithm_g(state: EngineState, literal: int) -> bool:
    """Can the map be rewritten so ``literal`` (currently free) is true?

    Works on one fork of ``state``, on which ``pin_literal`` assumes the
    literal true and its negation false; a clash with a pin answers no.
    Each concept focused on the literal is tried in ascending
    origin-clause order: the fixpoint is recomputed with both companions
    constrained not-true for that call.  An attempt whose companion is
    pinned true is skipped.  A failed attempt leaves the fork as it found
    it, so the next attempt runs on the same fork.  The first attempt
    that survives without contradiction answers yes; exhaustion (or no
    concepts at all) answers no.
    """
    if state.values[literal] != FREE:
        raise ValueError("algorithm_g requires a free literal")
    log = state.log
    traced = log.enabled
    if traced:
        log.emit("G_ENTER", literal=literal)
    base = state.fork()
    if not base.pin_literal(literal):
        if traced:
            log.emit("G_RESULT", literal=literal, new="false")
        return False
    if traced:
        log.emit("G_PIN", literal=literal, new=TRUE)
    pins = base.pins
    for key in base.by_focus[literal]:
        m1, m2 = base.concepts[key]
        if pins[m1] == TRUE or pins[m2] == TRUE:
            continue
        if base.compute_fixpoint([literal, m1, m2], (m1, m2)) is None:
            if traced:
                log.emit("G_RESULT", literal=literal, new="true", clause=key[0])
            return True
    if traced:
        log.emit("G_RESULT", literal=literal, new="false")
    return False


def _freeing_trial(state: EngineState, literal: int) -> EngineState | None:
    """The trial ``algorithm_d`` adopts for ``literal``, or None: if
    ``algorithm_g(state.restrict_to(literal), literal)`` approves, a fork
    of ``state`` with the literal pinned true and the fixpoint run, unless
    the pin clashes or the fixpoint contradicts.

    Keyed by ``state.view_key(literal)`` (literal, values, pins), which
    with the shared index fixes view and trial.  A miss stores copies of
    the trial's ``values``, ``pins`` and ``unmet`` (None without one), the
    ``ops`` added and the slice of the log it appended, each ``counter``
    made relative to the start; a hit extends the log with that slice
    rebased on the current ``ops``, adds the ``ops`` and returns a fork
    built from one copy of each stored list.  An untraced log stores no
    events: exact, as ``enabled`` is fixed for a log's life and a state
    changes log only with a fresh store.  ``GuardExceeded`` propagates
    and stores nothing.
    """
    log = state.log
    key = state.view_key(literal)
    start = log.ops
    stored = state.checks.get(key)
    if stored is None:
        step = len(log.events)
        trial = lists = None
        if algorithm_g(state.restrict_to(literal), literal):
            fork = state.fork()
            if fork.pin_literal(literal) and fork.compute_fixpoint([literal]) is None:
                trial, lists = fork, (fork.values[:], fork.pins[:], fork.unmet[:])
        events = ()
        if log.enabled:
            events = [(k, lit, o, n, c, t - start) for k, lit, o, n, c, t in log.events[step:]]
        state.checks[key] = (lists, log.ops - start, events)
        return trial
    lists, ops, events = stored
    if events:
        log.events.extend([(k, lit, o, n, c, start + t) for k, lit, o, n, c, t in events])
    log.ops = start + ops
    return None if lists is None else state.fork(lists)


def algorithm_d(
    state: EngineState,
    literal: int,
    history: frozenset[int] = frozenset(),
) -> EngineState | None:
    """Rewrite the map so ``literal`` (currently false) becomes free.

    The literal is false because some concepts focused on its negation are
    C+ typed.  Each such concept (re-derived live, ascending origin
    order) must be covered by making one of its companions true: a false
    companion is first freed by recursion (with the current literal added
    to ``history`` to block circular arguments), then checked by
    ``algorithm_g`` on the state restricted to the clauses that contain
    it, then pinned true with the fixpoint recomputed.  Companions in
    ``history`` are skipped.  A concept none of whose companions works
    fails the whole call.  Check and trial go through ``_freeing_trial``,
    which replays a repeat on the same index from the index's store:
    ``ops`` and the trace come out as if every trial ran.

    The recursion shares one ``set`` as its history (another type, like
    the default, is copied into one at the first recursion): a frame adds
    its literal around each recursive call and removes it after unless
    the set held it already, as a clause with both polarities can cause,
    so each call sees what a new frozenset per level would hold.  A call
    recurses only on a companion not in its history, so down one chain of
    calls the history grows at least every second level; it holds at most
    the 2n literals, so the recursion is finite.

    Returns the rewritten fork (with the literal free) or None.  The
    caller's state is never touched.
    """
    if state.values[literal] != FALSE:
        raise ValueError("algorithm_d requires a false literal")
    log = state.log
    traced = log.enabled
    if traced:
        log.emit("D_ENTER", literal=literal)
    # ``work`` is read, never changed, until it is replaced by a trial,
    # which is always a private fork; until then it may be ``state``.
    work = state
    # A focus tuple never changes and repair never inserts, so the keys
    # are fixed; their types are not.  A concept passed over as C* can
    # turn C+ once a trial is adopted, so every turn rescans from the first.
    keys = state.by_focus[-literal]
    concepts = state.concepts
    considered = ()
    values = state.values
    pins = state.pins
    while True:
        for key in keys:
            if key in considered:
                continue
            m1, m2 = members = concepts[key]
            if (pins[m1] or values[m1]) != TRUE and (pins[m2] or values[m2]) != TRUE:
                break
        else:
            break
        considered += (key,)
        if traced:
            log.emit("D_CONCEPT", literal=literal, clause=key[0])
        for companion in members:
            if companion in history:
                continue
            value = values[companion]
            if traced:
                log.emit("D_MEMBER", literal=companion, old=value, clause=key[0])
            candidate = None
            if value == FALSE:
                if traced:
                    log.emit("D_RECURSE", literal=companion)
                if type(history) is not set:
                    history = set(history)
                fresh = literal not in history
                history.add(literal)
                candidate = algorithm_d(work, companion, history)
                if fresh:
                    history.discard(literal)
                if candidate is None:
                    continue
            trial = _freeing_trial(candidate if candidate is not None else work, companion)
            if trial is None:
                continue
            work = trial
            values = work.values
            pins = work.pins
            break
        else:
            if traced:
                log.emit("D_RESULT", literal=literal, new="none")
            return None
    if work is state:
        work = state.fork()
    res = work.compute_fixpoint([literal])
    if res is not None or work.values[literal] != FREE:
        # The concepts forcing the literal false were all covered, yet the
        # literal did not come out free; surface as a gap, not a success.
        log.gaps += 1
        if traced:
            log.emit("D_RESULT", literal=literal, new="gap")
        return None
    if traced:
        log.emit("D_RESULT", literal=literal, new="ok")
    return work

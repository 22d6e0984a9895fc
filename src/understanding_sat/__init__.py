"""Understanding-based 3SAT decision procedure with a differential-testing harness.

The package has three layers: a propagation engine that maintains a
three-valued map over literals driven by per-clause contexts (`engine`,
`algorithms`, `solver`), two independent reference oracles (`oracle`), and
a harness that generates corpora, diffs the solver against the oracles,
shrinks counterexamples, and fits operation-count growth (`harness`).
"""

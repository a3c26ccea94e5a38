"""Native stress mode: OS threads run the verified Treiber programs on one
shared heap; the log of committed operations is validated post hoc."""

import random

from histrio.actions import cas
from histrio.history import is_complete, is_continuous, is_stacklike
from histrio.native import NativeReport, log_as_history, stress, validate_log
from histrio.pcm import NULL
from histrio.specs import stack_accounting
from histrio.structures import treiber as tb


def test_single_threaded_log_is_valid():
    log = [(1, "push", "a"), (2, "push", "b"), (3, "pop", "b")]
    rep = NativeReport(1, 3)
    validate_log(log, ("a",), rep)
    assert rep.verdict == "pass"
    assert rep.pushes == 2 and rep.pops == 1 and rep.committed == 3
    one = stress(threads=1, ops=60, seed=3)
    assert one.verdict == "pass", one.violations[:3]
    assert one.committed > 0


def test_streaming_checks_agree_with_the_history_predicates():
    rep = stress(threads=2, ops=40, seed=11)
    assert rep.verdict == "pass"
    # the log of a sequential stack run, cross-validated by the predicates
    rng = random.Random(3)
    stack, log = [], []
    for i in range(60):
        if rng.random() < 0.6:
            stack.insert(0, ("t", i))
            log.append((len(log) + 1, "push", ("t", i)))
        elif stack:
            log.append((len(log) + 1, "pop", stack.pop(0)))
    tau = log_as_history(log)
    assert is_complete(tau) and is_continuous(tau) and is_stacklike(tau)
    assert stack_accounting(tau, tuple(stack)) == []


def test_doctored_log_fails_validation():
    log = [(1, "push", "a"), (2, "push", "b"), (3, "pop", "a")]  # pops the non-head element
    rep = NativeReport(1, 3)
    validate_log(log, ("a",), rep)
    assert rep.verdict == "violation"

    gap = [(1, "push", "a"), (3, "push", "b")]
    rep2 = NativeReport(1, 2)
    validate_log(gap, ("b", "a"), rep2)
    assert rep2.verdict == "violation"
    assert any("incomplete" in v for v in rep2.violations)


def test_stress_smoke():
    rep = stress(threads=4, ops=120, seed=0)
    assert rep.verdict == "pass", rep.violations[:3]
    assert rep.committed > 0


def test_stress_runs_the_verified_pop(monkeypatch):
    """A pop whose CAS empties the whole stack is caught: the threads run
    ``treiber.try_pop``'s own primitive."""
    real = tb.try_pop

    def sabotaged(p, p1):
        action = real(p, p1)
        action.primitive = cas(tb.SNT, p, NULL)
        return action

    monkeypatch.setattr(tb, "try_pop", sabotaged)
    rep = stress(threads=2, ops=40, seed=11)
    assert rep.verdict == "violation"
    assert any("heap contents" in v for v in rep.violations)

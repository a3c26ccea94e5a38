"""Native stress mode: OS threads run the verified Treiber programs on one
shared heap; the log of committed operations is validated post hoc."""

import random

from histrio.actions import cas
from histrio.history import is_complete, is_continuous, is_stacklike
from histrio.native import NativeReport, log_as_history, stress, validate_log
from histrio.pcm import NONE, NULL
from histrio.program import ActN, const, do
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


def test_a_single_thread_runs_every_primitive_once_and_loses_no_cas():
    rep = stress(threads=1, ops=60, seed=3)
    assert rep.verdict == "pass", rep.violations[:3]
    # uncontended: a push allocates, reads, links and swaps; a pop reads the
    # sentinel and the node and swaps, or reads the sentinel and answers empty
    assert rep.failed_cas == 0
    assert rep.primitives == 4 * rep.pushes + 3 * rep.pops + rep.empty_pops
    assert rep.as_dict()["primitives"] == rep.primitives > 0
    assert rep.as_dict()["failed_cas"] == 0


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


def test_a_pop_that_answers_empty_is_checked_against_the_stack(monkeypatch):
    """A pop that reads the sentinel and answers ``NONE`` whatever it read
    is caught: its answer is an observation that the stack was empty."""
    def empty_pop():
        return do(("p", ActN(lambda env: tb.read_sentinel(), "readSentinel")),
                  ret=const(NONE))

    monkeypatch.setattr(tb, "pop_program", empty_pop)
    rep = stress(threads=2, ops=40, seed=11)
    assert rep.verdict == "violation"
    assert rep.pops == 0 and rep.empty_pops > 0
    assert any("answered empty" in v for v in rep.violations)


def test_empty_observations_take_no_stamp():
    log = [(None, "empty", None), (1, "push", "a"), (2, "pop", "a"), (None, "empty", None)]
    rep = NativeReport(1, 4)
    validate_log(log, (), rep)
    assert rep.verdict == "pass", rep.violations
    assert (rep.committed, rep.empty_pops) == (2, 2)
    early = [(1, "push", "a"), (None, "empty", None), (2, "pop", "a")]
    rep2 = NativeReport(1, 3)
    validate_log(early, (), rep2)
    assert rep2.violations == ["a pop answered empty after stamp 1, when the stack held 1"]

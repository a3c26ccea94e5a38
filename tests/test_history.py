"""History operations and the push/pop combination lemmas."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from histrio.history import (
    AbsentTimestampError,
    below,
    fresh,
    is_complete,
    is_continuous,
    is_stacklike,
    last_stamp,
    lemma1_oracle,
    lemma2_oracle,
    lookup_end,
    popped,
    push_event,
    pushed,
    strictly_before,
)
from histrio.pcm import STACK, Hist, join, pcm_order


def H(**entries):
    return Hist.of(STACK, {int(k[1:]): v for k, v in entries.items()})


def test_lookup_end_reads_the_post_state():
    assert lookup_end(H(t2=("A", "B")), 2) == "B"
    assert lookup_end(H(t0=(("e",), ("e",))), 0) == ("e",)
    assert lookup_end(H(t1=((), ("e",))), 1) == ("e",)
    with pytest.raises(AbsentTimestampError):
        lookup_end(H(), 3)


def test_fresh_is_smallest_unused():
    assert fresh(H()) == 0
    assert fresh(H(t0=("a", "a"))) == 1
    assert fresh(H(t0=("a", "a"), t2=("a", "b"))) == 1


def test_below_is_the_prefix_under_a_stamp():
    tau = H(t0=((), ()), t1=((), ("a",)), t3=(("b", "a"), ("a",)))
    assert below(tau, 0) == H()  # the empty prefix
    assert below(tau, 1) == H(t0=((), ()))
    assert below(tau, 2) == below(tau, 3) == H(t0=((), ()), t1=((), ("a",)))
    assert below(tau, 4) == tau
    assert below(H(), 5) == H()


def test_push_event_pushes_onto_the_end_at_the_fresh_stamp():
    tau = H(t0=((), ()), t1=((), ("a",)))
    assert push_event(tau, "b") == H(t2=(("a",), ("b", "a")))
    assert push_event(H(t0=(("q",), ("q",))), "b") == H(t1=(("q",), ("b", "q")))
    # a prefix with a gap: the event takes the gap, onto the last entry's end
    gap = H(t0=((), ()), t2=(("a",), ("c", "a")))
    assert push_event(gap, "b") == H(t1=(("c", "a"), ("b", "c", "a")))
    with pytest.raises(AbsentTimestampError):  # the empty history has no end
        push_event(H(), "b")


def test_is_continuous():
    assert is_continuous(H(t1=("A", "B"), t2=("B", "C")))
    assert not is_continuous(H(t1=("A", "B"), t2=("C", "D")))
    assert is_continuous(H())
    assert is_continuous(H(t1=("A", "B"), t3=("Z", "Q")))  # gap: unconstrained


def test_is_complete():
    assert is_complete(H(t0=((), ()), t1=((), ("a",))))
    assert not is_complete(H(t0=((), ()), t2=((), ("a",))))
    assert not is_complete(H(t0=((), ("a",))))
    assert not is_complete(H(t1=((), ("a",))))


def test_is_stacklike():
    assert is_stacklike(H(t0=((), ()), t1=((), ("a",)), t2=(("a",), ())))
    assert not is_stacklike(H(t1=((), ("a", "b"))))
    assert is_stacklike(H())


def test_pushed_popped_multisets():
    tau = H(t0=((), ()), t1=((), ("a",)), t2=(("a",), ("b", "a")))
    assert pushed(tau) == Counter({"a": 1, "b": 1})
    assert popped(H(t2=(("a",), ()))) == Counter({"a": 1})
    assert pushed(H()) == Counter()
    # the initialization entry's elements count as pushed
    assert pushed(H(t0=(("x", "y"), ("x", "y")))) == Counter({"x": 1, "y": 1})


def test_lemma1():
    t1 = H(t1=((), ("a",)))
    t2 = H(t2=(("a",), ()))
    assert lemma1_oracle(t1, t2)
    with pytest.raises(ValueError):
        lemma1_oracle(t1, H(t1=((), ("b",))))


def test_lemma2():
    assert lemma2_oracle(H(t0=((), ()), t1=((), ("a",)), t2=(("a",), ())))
    assert lemma2_oracle(H(t0=((), ())))
    # premise failure passes vacuously
    assert lemma2_oracle(H(t0=((), ()), t1=((), ("a",))))
    # a discontinuous history is a genuine counterexample to the conclusion
    bad = H(t0=((), ()), t1=((), ("a",)), t2=(("b",), ()))
    assert is_complete(bad) and is_stacklike(bad)
    assert not lemma2_oracle(bad)


def test_subset_of_join():
    t1 = H(t1=((), ("a",)))
    t2 = H(t2=(("a",), ()))
    assert pcm_order(t1, join(t1, t2))
    assert last_stamp(join(t1, t2)) == 2
    assert strictly_before(t1, 2) and not strictly_before(t1, 1)


def stack_runs():
    """Random complete+continuous+stacklike histories (an op replay)."""

    @st.composite
    def gen(draw):
        ops = draw(st.lists(st.sampled_from("pqx"), max_size=8))
        state = tuple(draw(st.lists(st.sampled_from("ab"), max_size=2)))
        entries = {0: (state, state)}
        t = 1
        for op in ops:
            if op in "pq":
                nxt = (op,) + state
            elif state:
                nxt = state[1:]
            else:
                continue
            entries[t] = (state, nxt)
            state = nxt
            t += 1
        return Hist.of(STACK, entries)

    return gen()


@settings(max_examples=300, deadline=None)
@given(stack_runs())
def test_lemma2_on_generated_runs(tau):
    assert is_complete(tau) and is_continuous(tau) and is_stacklike(tau)
    assert lemma2_oracle(tau)


def test_lemma2_fuzz_at_scale():
    rng = random.Random(42)
    for _ in range(10_000):
        state = tuple(rng.sample("abcd", rng.randint(0, 2)))
        entries = {0: (state, state)}
        for t in range(1, rng.randint(1, 9)):
            if state and rng.random() < 0.5:
                entries[t] = (state, state[1:])
                state = state[1:]
            else:
                e = rng.choice("abcd")
                entries[t] = (state, (e,) + state)
                state = (e,) + state
        assert lemma2_oracle(Hist.of(STACK, entries))


def test_fresh_monotone_under_growth():
    tau = H(t0=((), ()), t1=((), ("a",)))
    t = fresh(tau)
    grown = join(tau, Hist.of(STACK, {t: (("a",), ())}))
    assert t not in tau.stamps()
    assert set(tau.stamps()) <= set(grown.stamps())

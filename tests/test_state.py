"""Subjective states: validity, flattening, realignment, fork/join."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from histrio.fmap import FrozenMap
from histrio.pcm import (
    EMPTY_HEAP, EMPTY_IDSET, NOT_OWN, STACK, Heap, Hist, Loc, Triple, unit_map_like,
)
from histrio.state import (
    StateError,
    SubjState,
    flatten,
    realign_acquire,
    realign_release,
    subjective_join,
    subjective_split,
    validate,
)
from histrio.structures import flatcombiner as fc
from histrio.structures import private_heap as pv
from histrio.structures import snapshot as sp
from histrio.structures import spinlock as lk
from histrio.structures import treiber as tb


def mkstate(self_heap=None, joint_heap=None, other_heap=None, self_hist=None,
            other_hist=None):
    return SubjState(
        FrozenMap({
            "pv": Heap(self_heap or {}),
            "tb": self_hist if self_hist is not None else Hist(STACK),
        }),
        FrozenMap({"pv": EMPTY_HEAP, "tb": Heap(joint_heap or {})}),
        FrozenMap({
            "pv": Heap(other_heap or {}),
            "tb": other_hist if other_hist is not None else Hist(STACK),
        }),
    )


def test_validate_accepts_disjoint_equal_labeled_states():
    w = mkstate({Loc(1): 3}, {Loc(9): 0})
    assert validate(w)


def test_validate_rejects_overlapping_heaps():
    assert not validate(mkstate({Loc(1): 3}, {Loc(1): 0}))


def test_validate_rejects_label_mismatch():
    w = SubjState(
        FrozenMap({"pv": EMPTY_HEAP}),
        FrozenMap({"pv": EMPTY_HEAP, "tb": EMPTY_HEAP}),
        FrozenMap({"pv": EMPTY_HEAP}),
    )
    assert not validate(w)


def test_validate_rejects_undefined_self_other_join():
    w = mkstate(
        self_hist=Hist.of(STACK, {1: ((), ("a",))}),
        other_hist=Hist.of(STACK, {1: ((), ("b",))}),
    )
    assert not validate(w)


def test_flatten_unions_heaps_everywhere():
    w = mkstate({Loc(1): 3}, {Loc(9): ("a", Loc(0))})
    assert flatten(w) == Heap({Loc(1): 3, Loc(9): ("a", Loc(0))})
    assert flatten(mkstate()) == EMPTY_HEAP
    assert flatten(mkstate({Loc(1): 3}, {Loc(1): 0})) is None


def test_realign_moves_a_frame_between_sides():
    w = mkstate()
    t = FrozenMap({"pv": Heap({Loc(4): 1}), "tb": Hist(STACK)})
    left = realign_acquire(w, t)
    right = realign_release(w, t)
    assert left.self_["pv"] == Heap({Loc(4): 1})
    assert right.other["pv"] == Heap({Loc(4): 1})
    assert realign_acquire(w, unit_map_like(w.self_)) == w
    with pytest.raises(StateError):
        realign_acquire(left, t)  # same cells twice


def test_split_then_join_roundtrip():
    hist = Hist.of(STACK, {1: ((), ("a",)), 2: (("a",), ())})
    w = mkstate({Loc(1): 3, Loc(2): 4}, {}, {Loc(9): 9}, self_hist=hist)
    a = FrozenMap({"pv": Heap({Loc(1): 3}), "tb": Hist.of(STACK, {1: ((), ("a",))})})
    b = FrozenMap({"pv": Heap({Loc(2): 4}), "tb": Hist.of(STACK, {2: (("a",), ())})})
    c1, c2 = subjective_split(w, a, b)
    assert c1.self_ == a and c2.self_ == b
    assert c1.other["pv"] == Heap({Loc(2): 4, Loc(9): 9})
    assert validate(c1) and validate(c2)
    assert subjective_join(c1, c2) == w


def test_degenerate_split_frames_the_idle_side():
    w = mkstate({Loc(1): 3})
    c1, c2 = subjective_split(w, w.self_, unit_map_like(w.self_))
    assert c1 == w
    assert c2.self_["pv"] == EMPTY_HEAP
    assert c2.other["pv"] == Heap({Loc(1): 3})
    assert subjective_join(c1, c2) == w


def test_split_rejects_bad_decomposition():
    w = mkstate({Loc(1): 3})
    with pytest.raises(StateError):
        subjective_split(w, w.self_, w.self_)


def test_join_rejects_inconsistent_siblings():
    w1 = mkstate({Loc(1): 3}, {}, {Loc(5): 0})
    w2 = mkstate({Loc(2): 4}, {}, {Loc(6): 1})  # others don't share a common part
    with pytest.raises(StateError):
        subjective_join(w1, w2)


@st.composite
def split_cases(draw):
    cells = draw(st.dictionaries(st.integers(1, 6), st.integers(0, 3), max_size=4))
    own = draw(st.sets(st.sampled_from(sorted(cells) or [1]), max_size=len(cells)))
    env = draw(st.dictionaries(st.integers(7, 9), st.integers(0, 3), max_size=2))
    w = mkstate({Loc(n): v for n, v in cells.items()}, {}, {Loc(n): v for n, v in env.items()})
    a = FrozenMap({
        "pv": Heap({Loc(n): cells[n] for n in own if n in cells}),
        "tb": Hist(STACK),
    })
    b = FrozenMap({
        "pv": Heap({Loc(n): v for n, v in cells.items() if n not in own}),
        "tb": Hist(STACK),
    })
    return w, a, b


@settings(max_examples=200, deadline=None)
@given(split_cases())
def test_split_join_roundtrip_fuzzed(case):
    w, a, b = case
    c1, c2 = subjective_split(w, a, b)
    assert validate(c1) and validate(c2)
    assert flatten(c1) == flatten(w)  # splitting repartitions, never changes heaps
    assert subjective_join(c1, c2) == w


def test_validity_is_remembered_per_object_not_per_equal_state():
    """A Heap and a plain FrozenMap with the same cells hold the same
    contents, but only the heap joins with a heap: the verdict must follow
    the object."""
    heap_self = SubjState(FrozenMap({"pv": Heap({Loc(1): 0})}),
                          FrozenMap({"pv": EMPTY_HEAP}), FrozenMap({"pv": EMPTY_HEAP}))
    map_self = SubjState(FrozenMap({"pv": FrozenMap({Loc(1): 0})}),
                         FrozenMap({"pv": EMPTY_HEAP}), FrozenMap({"pv": EMPTY_HEAP}))
    assert heap_self != map_self
    assert validate(heap_self)
    assert not validate(map_self)
    assert validate(heap_self)
    assert flatten(heap_self) == Heap({Loc(1): 0})
    assert flatten(map_self) == EMPTY_HEAP


def test_restrictions_of_a_valid_state_are_valid():
    w = mkstate({Loc(1): 3}, {Loc(9): 0}, {Loc(2): 1})
    assert validate(w)
    for labels in ({"pv"}, {"tb"}, set(), {"pv", "tb"}):
        r = w.restrict(labels)
        assert validate(r)
        fresh = SubjState(r.self_, r.joint, r.other)
        assert validate(fresh)
        assert flatten(r) == flatten(fresh)


def _collect_heaps(value, out: list) -> None:
    """The reference collection: every heap inside a component value,
    recursing into tuples and triples' aux, in depth-first order."""
    if isinstance(value, Heap):
        out.append(value)
    elif isinstance(value, tuple):
        for v in value:
            _collect_heaps(v, out)
    elif isinstance(value, Triple):
        _collect_heaps(value.aux, out)


def _reference_flatten(w: SubjState):
    heaps: list = []
    for m in (w.self_, w.joint, w.other):
        for v in m.values():
            _collect_heaps(v, heaps)
    cells: dict = {}
    for h in heaps:
        cells.update(h.items())
    return Heap(cells) if len(cells) == sum(map(len, heaps)) else None


def _nested(w: SubjState, rng) -> list:
    """``w`` with a label ``zz`` whose components hide heaps in tuples and
    triples: first on fresh cells, then on a cell ``w`` already holds."""
    held = sorted(_reference_flatten(w) or {})
    fresh = [Loc(100 + i) for i in range(4)]
    out = []
    for cells in (fresh, fresh[:3] + held[-1:]):
        if len(cells) < 4:
            continue
        a, b, c, d = (Heap({loc: rng.randint(0, 3)}) for loc in cells)
        out.append(SubjState(
            w.self_.set("zz", Triple(EMPTY_IDSET, NOT_OWN, (a, 1))),
            w.joint.set("zz", (b, ("x", (c,)), Triple(EMPTY_IDSET, NOT_OWN, 2))),
            w.other.set("zz", d)))
    return out


def test_flatten_matches_the_recursive_collection():
    rng = random.Random(22)
    samplers = [sp.sample_state, pv.sample_state, tb.sample_state, lk.sample_state,
                lambda r: fc.sample_state(fc.stack_shape(3), r)]
    verdicts = set()
    for sample in samplers:
        for _ in range(60):
            w = sample(rng)
            for v in [w, *_nested(w, rng)]:
                fresh = SubjState(v.self_, v.joint, v.other)
                ref, flat = _reference_flatten(v), flatten(fresh)
                assert flat == ref, v.render()
                # the same cells in the same order
                assert flat is None or list(flat.items()) == list(ref.items())
                verdicts.add(flat is None)
    assert verdicts == {True, False}

"""PCM algebra: join laws, element carriers, label maps."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from histrio.fmap import FrozenMap
from histrio.pcm import (
    HEAP_PCM,
    IDSET_PCM,
    MUTEX_PCM,
    NOT_OWN,
    OWN,
    SHIPPED_INSTANCES,
    SNAPSHOT,
    STACK,
    STACK_HIST_PCM,
    Heap,
    Hist,
    IdSet,
    Loc,
    Mutex,
    PcmMismatchError,
    Triple,
    UNIT,
    check_pcm_laws,
    join,
    joinable,
    map_pointwise_join,
    pcm_order,
    subtract,
    unit_like,
)


def test_mutex_join_table():
    assert join(OWN, NOT_OWN) is OWN
    assert join(NOT_OWN, OWN) is OWN
    assert join(NOT_OWN, NOT_OWN) is NOT_OWN
    assert join(OWN, OWN) is None


def test_unit_laws_per_carrier():
    samples = [
        Heap({Loc(3): 7}),
        Hist.of(STACK, {1: ((), ("a",))}),
        IdSet.of(1, 4),
        OWN,
        Triple(IdSet.of(2), NOT_OWN, Hist(STACK)),
    ]
    for x in samples:
        assert join(x, unit_like(x)) == x
        assert join(unit_like(x), x) == x


def test_heap_join_requires_disjoint_locations():
    h1, h2 = Heap({Loc(1): 0}), Heap({Loc(1): 1})
    assert join(h1, h2) is None
    assert join(h1, Heap({Loc(2): 1})) == Heap({Loc(1): 0, Loc(2): 1})


def test_cross_instance_join_is_a_usage_error():
    with pytest.raises(PcmMismatchError):
        join(Heap(), Hist(STACK))
    with pytest.raises(PcmMismatchError):
        join(Hist(STACK), Hist(SNAPSHOT))  # scenario kinds never mix


def test_idset_join_requires_disjointness():
    assert join(IdSet.of(1), IdSet.of(1)) is None
    assert join(IdSet.of(1), IdSet.of(2)) == IdSet.of(1, 2)


def test_triple_join_is_componentwise():
    a = Triple(IdSet.of(0), NOT_OWN, Hist.of(STACK, {1: ((), ("a",))}))
    b = Triple(IdSet.of(1), OWN, Hist.of(STACK, {2: (("a",), ())}))
    got = join(a, b)
    assert got.ids == IdSet.of(0, 1)
    assert got.mx is OWN
    assert set(got.aux.stamps()) == {1, 2}
    assert join(a, Triple(IdSet.of(0), NOT_OWN, Hist(STACK))) is None


def test_map_pointwise_join():
    m1 = FrozenMap({"tb": Hist.of(STACK, {1: ((), ("a",))})})
    m2 = FrozenMap({"tb": Hist.of(STACK, {2: (("a",), ())})})
    got = map_pointwise_join(m1, m2)
    assert set(got["tb"].stamps()) == {1, 2}
    assert map_pointwise_join(
        FrozenMap({"lk": OWN}), FrozenMap({"lk": OWN})
    ) is None
    assert map_pointwise_join(FrozenMap(), FrozenMap()) == FrozenMap()
    assert map_pointwise_join(m1, FrozenMap()) is None  # label sets differ


def test_pcm_order_examples():
    t1 = Hist.of(STACK, {1: ((), ("a",))})
    t2 = Hist.of(STACK, {1: ((), ("a",)), 2: (("a",), ())})
    assert pcm_order(t1, t2)
    assert pcm_order(t1, t1)
    assert not pcm_order(t2, t1)
    assert not pcm_order(t1, Hist.of(STACK, {2: (("a",), ())}))
    assert pcm_order(NOT_OWN, OWN)
    assert pcm_order(NOT_OWN, NOT_OWN)
    assert not pcm_order(OWN, NOT_OWN)


def test_subtract_is_inverse_of_join():
    whole = Heap({Loc(1): 0, Loc(2): 5})
    part = Heap({Loc(2): 5})
    rest = subtract(whole, part)
    assert join(part, rest) == whole
    assert subtract(part, whole) is None
    assert subtract(OWN, OWN) is NOT_OWN


def test_all_shipped_instances_satisfy_the_laws():
    rng = random.Random(0)
    for inst in SHIPPED_INSTANCES:
        rep = check_pcm_laws(inst, 300, rng)
        assert rep.ok, (inst.name, rep.violations[:3])


def test_mutex_laws_checked_exhaustively():
    rep = check_pcm_laws(MUTEX_PCM, 1)
    assert rep.samples == 8  # 2 x 2 x 2 triples
    assert rep.ok


def test_broken_join_is_reported():
    def broken(a, b):
        if isinstance(a, IdSet) and isinstance(b, IdSet) and a.ids and b.ids:
            return a  # keeps the left operand: not commutative
        return join(a, b)

    rep = check_pcm_laws(IDSET_PCM, 100, random.Random(3), join_fn=broken)
    assert not rep.ok


@st.composite
def heaps(draw):
    cells = draw(st.dictionaries(st.integers(1, 8), st.integers(0, 3), max_size=4))
    return Heap({Loc(n): v for n, v in cells.items()})


@settings(max_examples=200, deadline=None)
@given(heaps(), heaps(), heaps())
def test_heap_join_commutative_associative(a, b, c):
    ab, ba = join(a, b), join(b, a)
    assert ab == ba

    def opt(x, y):
        return None if (x is None or y is None) else join(x, y)

    assert opt(ab, c) == opt(a, opt(b, c))


@settings(max_examples=200, deadline=None)
@given(heaps(), heaps())
def test_heap_subtract_roundtrip(a, b):
    ab = join(a, b)
    if ab is not None:
        assert subtract(ab, a) == b
        assert pcm_order(a, ab) and pcm_order(b, ab)


def test_pointwise_join_forms_a_pcm_over_fixed_labels():
    from histrio.pcm import unit_map_like

    rng = random.Random(12)
    for _ in range(100):
        m = FrozenMap({"tb": STACK_HIST_PCM.sample(rng), "pv": HEAP_PCM.sample(rng)})
        m2 = FrozenMap({"tb": STACK_HIST_PCM.sample(rng), "pv": HEAP_PCM.sample(rng)})
        assert map_pointwise_join(m, unit_map_like(m)) == m
        assert map_pointwise_join(m, m2) == map_pointwise_join(m2, m)


def test_hist_entries_are_checked_at_construction():
    with pytest.raises(ValueError, match="bad timestamp"):
        Hist(STACK, FrozenMap({-1: ((), ())}))
    with pytest.raises(ValueError, match="bad timestamp"):
        Hist.of(STACK, {"t": ((), ())})
    with pytest.raises(ValueError, match="bad history entry"):
        Hist.of(STACK, {0: "x"})
    with pytest.raises(ValueError, match="bad history entry"):
        Hist.of(STACK, {0: ((), (), ())})


def test_unchecked_results_equal_checked_histories():
    """join, subtract and unit_like skip the entry check; what they build
    is indistinguishable from the same history built the checked way."""
    a = Hist.of(STACK, {0: ((), ("a",))})
    b = Hist.of(STACK, {1: (("a",), ())})
    ab = Hist.of(STACK, {0: ((), ("a",)), 1: (("a",), ())})
    for got, want in [
        (join(a, b), ab),
        (join(b, a), ab),
        (join(a, Hist(STACK)), a),
        (join(Hist(STACK), b), b),
        (subtract(ab, a), b),
        (subtract(ab, ab), Hist(STACK)),
        (unit_like(ab), Hist(STACK)),
        (unit_like(Hist.of(SNAPSHOT, {})), Hist(SNAPSHOT)),
    ]:
        assert got == want and hash(got) == hash(want)
        assert got.kind == want.kind and got.entries == want.entries
        assert repr(got) == repr(want)
    assert join(a, Hist.of(STACK, {0: ((), ("b",))})) is None


def _sharing(x, y, rng):
    """``y`` made to share one cell, stamp or id with ``x``, holding ``x``'s
    value there or another one; ``y`` itself when ``x`` has none to share."""
    t = type(x)
    if t is Heap and x:
        k = rng.choice(sorted(x.keys()))
        return Heap({**dict(y), k: x[k] if rng.random() < 0.5 else ("other", x[k])})
    if t is Hist and x.entries:
        k = rng.choice(sorted(x.stamps()))
        pre, post = x.entries[k]
        entry = (pre, post) if rng.random() < 0.5 else (post, pre)
        return Hist.of(x.kind, {**dict(y.entries), k: entry})
    if t is IdSet and x.ids:
        return IdSet(y.ids | {rng.choice(sorted(x.ids))})
    if t is Triple:
        parts = [y.ids, y.mx, y.aux]
        i = rng.randrange(3)
        parts[i] = _sharing((x.ids, x.mx, x.aux)[i], parts[i], rng)
        return Triple(*parts)
    if t is Mutex:
        return OWN if x is OWN else y
    return y


def _pairs(inst, rng, n=150):
    """Sampled pairs of ``inst``, each with its overlapping variants and, where
    the join is defined, each operand against the join."""
    for _ in range(n):
        a, b = inst.sample(rng), inst.sample(rng)
        shared = _sharing(a, b, rng)
        yield from [(a, b), (b, a), (a, shared), (shared, a), (a, a)]
        ab = join(a, b)
        if ab is not None:
            yield from [(a, ab), (ab, a), (b, ab), (shared, ab)]


@pytest.mark.parametrize("inst", SHIPPED_INSTANCES, ids=lambda i: i.name)
def test_joinable_and_pcm_order_agree_with_the_built_elements(inst):
    rng = random.Random(20)
    seen = set()
    for a, b in _pairs(inst, rng):
        defined = join(a, b) is not None
        below = subtract(b, a) is not None
        assert joinable(a, b) == defined, (a, b)
        assert pcm_order(a, b) == below, (a, b)
        seen |= {("join", defined), ("order", below)}
    # every instance but the one-point PCM meets both answers of both questions
    if inst.unit is not UNIT:
        assert seen == {("join", True), ("join", False), ("order", True), ("order", False)}


def test_joinable_and_pcm_order_reject_mixed_carriers():
    rng = random.Random(21)
    samples = [(i.name, i.sample(rng)) for i in SHIPPED_INSTANCES]
    mixed = [(a, b) for na, a in samples for nb, b in samples if na != nb]
    # triples whose ids and mutex agree but whose aux carriers differ
    mixed.append((Triple(IdSet.of(1), OWN, Heap()), Triple(IdSet.of(1), OWN, Hist(STACK))))
    mixed.append((3, 3))
    for a, b in mixed:
        for fn in (join, joinable, subtract, pcm_order):
            with pytest.raises(PcmMismatchError):
                fn(a, b)

"""The value records: never changed after construction, compared by value.

States, histories, triples, continuation frames, leaves, fork records
and configurations key the explorer's memos, so a store into one after it is
built would corrupt every memo that holds it.  They are slotted, unfrozen
dataclasses, because a frozen dataclass's ``__init__`` pays an
``object.__setattr__`` per field, so their immutability is kept here
instead of on every construction: under ``sealed()`` a store into a
compared field of a built record is a breach, and a cache slot (``_hash``,
``_valid``, ``_flat``) may be filled once, from its default.  The shipped
scenarios run sealed.

A location is one object per address, so it hashes by identity; the
records that keep their hash (``fmap.hash_once``) must equal and hash like
a fresh equal record once their ``_hash`` is filled.
"""

import contextlib
import dataclasses
import random
import sys
import threading

import pytest

from histrio import actions, pcm, scheduler, state
from histrio.actions import check_action_properties
from histrio.concurroid import check_concurroid
from histrio.erasure import compare_erased_trace
from histrio.fmap import EMPTY_MAP, FrozenMap, hash_once
from histrio.native import stress
from histrio.pcm import (
    NULL, OWN, SHIPPED_INSTANCES, Hist, IdSet, Loc, Req, Resp, Triple, check_pcm_laws,
)
from histrio.program import LoopN, Ret
from histrio.scenarios import (
    flat_combiner_scenario,
    pair_snapshot_scenario,
    producer_consumer_scenario,
    seq_recovery_scenario,
    treiber_scenario,
)
from histrio.scheduler import DONE, RUN, Fork, Leaf, LoopK, SpecK, explore, run_random, run_replay
from histrio.state import SubjState, flatten, validate
from histrio.structures import flatcombiner, private_heap, snapshot, spinlock, treiber

RECORDS = [
    scheduler.Leaf, scheduler.Fork, scheduler.Config, scheduler.SeqK, scheduler.LoopK,
    scheduler.SpecK, scheduler.HideK, scheduler._Summary,
    state.SubjState,
    pcm.Loc, pcm.Req, pcm.Resp, pcm.IdSet, pcm.Hist, pcm.Triple,
    actions.Read, actions.Write, actions.Skip, actions.Rmw, actions.Alloc,
    actions.Dealloc, actions.StepCtx,
]

# name, builder, a step bound that cuts no path
SHIPPED = [
    ("seq-recovery", seq_recovery_scenario, 20),
    ("pair-snapshot", lambda: pair_snapshot_scenario(writers=2), 40),
    ("treiber", treiber_scenario, 60),
    ("producer-consumer", lambda: producer_consumer_scenario(3), 60),
    ("flat-combiner", lambda: flat_combiner_scenario(2), 120),
]


def _sealed_setattr(cls, breaches: list):
    caches = {f.name: f.default for f in dataclasses.fields(cls) if not f.compare}

    def __setattr__(self, name, value):
        try:
            old = getattr(self, name)
        except AttributeError:  # the slot's first store: construction
            pass
        else:
            if name not in caches or old is not caches[name]:
                # recorded as well as raised: the explorer reports some
                # exceptions as violations instead of letting them out
                breaches.append(f"{cls.__name__}.{name}")
                raise AttributeError(f"store into a built {cls.__name__}.{name}")
        object.__setattr__(self, name, value)

    return __setattr__


@contextlib.contextmanager
def sealed():
    """Make a store into a built record raise; yields the breaches seen."""
    breaches: list = []
    with pytest.MonkeyPatch.context() as mp:
        for cls in RECORDS:
            mp.setattr(cls, "__setattr__", _sealed_setattr(cls, breaches))
        yield breaches


def test_records_are_slotted():
    assert [c.__name__ for c in RECORDS if "__slots__" not in vars(c)] == []


def test_the_seal_refuses_a_store_into_a_built_record():
    with sealed() as breaches:
        leaf = Leaf(1, None, EMPTY_MAP, (), EMPTY_MAP)
        with pytest.raises(AttributeError):
            leaf.status = DONE
        hash(leaf)  # fills the hash cache once
        with pytest.raises(AttributeError):
            leaf._hash = 0
        w = SubjState(EMPTY_MAP, EMPTY_MAP, EMPTY_MAP)
        assert validate(w) and flatten(w) == pcm.Heap()
        with pytest.raises(AttributeError):
            w.other = w.self_
        h = Hist._trusted(pcm.STACK, EMPTY_MAP)
        with pytest.raises(AttributeError):
            h.kind = pcm.SNAPSHOT
    assert breaches == ["Leaf.status", "Leaf._hash", "SubjState.other", "Hist.kind"]
    assert leaf.status == RUN and w.other == EMPTY_MAP and h.kind == pcm.STACK


@pytest.mark.parametrize("name, build, step_bound", SHIPPED, ids=[s[0] for s in SHIPPED])
def test_shipped_scenarios_run_sealed(name, build, step_bound):
    expected = explore(build(), step_bound, 3).as_dict()
    with sealed() as breaches:
        assert explore(build(), step_bound, 3).as_dict() == expected
        for seed in range(3):
            sc = build()
            trace = run_random(sc, seed, step_bound, 3)
            assert trace.verdict != "violation"
            assert run_replay(build(), trace.schedule, 3).verdict == trace.verdict
            assert compare_erased_trace(sc, trace) is None
    assert breaches == []


def test_obligation_suites_and_native_stress_run_sealed():
    with sealed() as breaches:
        rng = random.Random(0)
        assert all(check_pcm_laws(inst, 10, rng).ok for inst in SHIPPED_INSTANCES)
        conc = flatcombiner.concurroid(flatcombiner.stack_shape(3))
        assert all(rep.ok for rep in check_concurroid(conc, 10, rng))
        for module in (snapshot, private_heap, treiber, spinlock, flatcombiner):
            for fam in module.action_families():
                assert all(rep.ok for rep in check_action_properties(fam, 10, rng))
        assert stress(threads=2, ops=20, seed=1).verdict == "pass"
    assert breaches == []


def test_a_state_with_filled_caches_equals_and_hashes_like_a_fresh_one():
    w = treiber_scenario().root
    w = SubjState(w.self_, w.joint, w.other)
    fresh = SubjState(w.self_, w.joint, w.other)
    assert validate(w) and flatten(w) is not None
    assert w._valid and not fresh._valid
    assert w == fresh and hash(w) == hash(fresh)
    assert {fresh: "seen"}[w] == "seen"


def test_records_never_equal_a_plain_tuple():
    leaf = Leaf(1, None, EMPTY_MAP, (), EMPTY_MAP)
    triple = Triple(IdSet.of(1), OWN, Hist(pcm.STACK))
    hist = Hist.of(pcm.STACK, {1: ((), ("a",))})
    for record in (leaf, triple, hist):
        as_tuple = tuple(getattr(record, f.name) for f in dataclasses.fields(record)
                         if f.compare)
        assert record != as_tuple and not record == as_tuple
        assert as_tuple != record


def test_loc_ordering():
    assert sorted([Loc(3), NULL, Loc(1)]) == [NULL, Loc(1), Loc(3)]
    assert Loc(1) < Loc(2) <= Loc(2) and Loc(3) > Loc(2) >= Loc(2)
    assert max(FrozenMap({Loc(5): 0, Loc(2): 0}).keys()) == Loc(5)
    with pytest.raises(TypeError):
        Loc(1) < 2
    assert Loc(2) == Loc(2) and hash(Loc(2)) == hash(Loc(2)) and Loc(2) != 2


def test_loc_equality_is_identity():
    # one object per address: the C-level identity test decides equality
    assert Loc.__eq__ is object.__eq__ and Loc.__hash__ is object.__hash__
    assert Loc(2) == Loc(2) and Loc(2) != 2 and Loc(2) != Loc(3) and not Loc(2) == 2
    assert sorted([Loc(9), Loc(4), NULL, Loc(6)]) == [NULL, Loc(4), Loc(6), Loc(9)]


def test_loc_is_one_object_per_address():
    assert Loc(7) is Loc(7) and NULL is Loc(0)
    assert Loc(10**12) is Loc(int("1" + "0" * 12))


def test_threads_building_the_same_fresh_addresses_get_one_object_each():
    fresh = range(10**9, 10**9 + 2000)  # addresses no other test builds
    barrier = threading.Barrier(4)
    built: list = [None] * 4

    def build(i):
        barrier.wait(timeout=30)
        built[i] = [Loc(n) for n in fresh]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and None not in built
    for k, n in enumerate(fresh):
        assert all(locs[k] is Loc(n) for locs in built)


_LOOP = LoopN(Ret(lambda env: ()))

# every record that keeps its hash (fmap.hash_once), built fresh by each call
CACHED_HASH_RECORDS = {
    "Hist": lambda: Hist.of(pcm.STACK, {1: ((), ("a",))}),
    "Hist._trusted": lambda: Hist._trusted(pcm.STACK, FrozenMap({1: ((), ("a",))})),
    "Triple": lambda: Triple(IdSet.of(1), OWN, Hist(pcm.STACK)),
    "IdSet": lambda: IdSet.of(1, 2),
    "Req": lambda: Req("push", "a"),
    "Resp": lambda: Resp(("Some", "a")),
    "LoopK": lambda: LoopK(_LOOP, EMPTY_MAP, 2),
    "SpecK": lambda: SpecK("spec", ("caps", 1)),
    "Fork": lambda: Fork(0, 1, EMPTY_MAP, ()),
    "Leaf": lambda: Leaf(1, None, EMPTY_MAP, (), EMPTY_MAP),
}


def _keeps_its_hash(cls) -> bool:
    return getattr(cls.__hash__, "__qualname__", "") == "hash_once.<locals>.__hash__"


def test_every_record_that_keeps_its_hash_is_tested():
    tested = {type(build()) for build in CACHED_HASH_RECORDS.values()}
    assert tested == {cls for cls in RECORDS if _keeps_its_hash(cls)}


@pytest.mark.parametrize("build", CACHED_HASH_RECORDS.values(), ids=CACHED_HASH_RECORDS.keys())
def test_a_record_with_a_filled_hash_equals_and_hashes_like_a_fresh_one(build):
    record, fresh = build(), build()
    assert record is not fresh and record._hash is None
    h = hash(record)
    assert record._hash == h and fresh._hash is None
    assert record == fresh and not record != fresh
    assert repr(record) == repr(fresh) and "_hash" not in repr(record)
    assert {fresh: "seen"}[record] == "seen"
    assert hash(fresh) == h == hash(record)


def test_hash_once_refuses_a_class_without_a_non_compared_hash_field():
    @dataclasses.dataclass(slots=True)
    class NoCache:
        x: int

    @dataclasses.dataclass(slots=True)
    class ComparedCache:
        x: int
        _hash: int = None

    for cls in (NoCache, ComparedCache):
        with pytest.raises(TypeError):
            hash_once(cls)

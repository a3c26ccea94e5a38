"""A CAS-based spin-lock protecting a resource heap.

When the lock is free the resource heap sits in the joint part and
satisfies the client's resource invariant over the combined auxiliary
contribution; taking the lock hands the heap to the locking thread's
private section.  Unlocking carves the resource sub-heap back out of
the private section (the invariant determines its extent, so safety
stays monotone under self-enlargement) and may update the unlocker's
auxiliary contribution.

The self/other views reuse the componentwise triple carrier with an
always-empty id-set slot: (ids, mutex, contribution).  The shipped
instance guards a single register cell mirroring a set of ids.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Optional

from ..actions import ActionFamily, AtomicAction, Write, cas, reverse_sampler, step_sampler
from ..concurroid import Concurroid, Transition, entangle, identity_transition
from ..fmap import FrozenMap
from ..pcm import (
    EMPTY_HEAP,
    EMPTY_IDSET,
    NOT_OWN,
    OWN,
    Heap,
    IdSet,
    Loc,
    Triple,
    join,
)
from ..state import SubjState, coherent_at
from . import private_heap as pv

LB = "lk"
LK = Loc(4001)
REG = Loc(4002)
HOME = frozenset([LB])
LOCK_HOME = frozenset([LB, pv.LB])


def register_inv(g: IdSet, h: Heap) -> bool:
    """Shipped resource invariant: one cell storing the combined id set."""
    return set(h.keys()) == {REG} and h[REG] == tuple(sorted(g.ids))


def register_carve(h: Heap) -> Optional[Heap]:
    if REG not in h:
        return None
    return Heap({REG: h[REG]})


def _views(w: SubjState):
    s, o = w.self_[LB], w.other[LB]
    if not (isinstance(s, Triple) and isinstance(o, Triple)):
        return None
    return s, o


def _coherent(s, jh, o) -> bool:
    """Coherence of ``LB``'s valid self, joint and other components."""
    if not (isinstance(s, Triple) and isinstance(o, Triple)):
        return False
    if not isinstance(jh, Heap) or LK not in jh or not isinstance(jh[LK], bool):
        return False
    h = Heap(jh.remove(LK))
    mx = join(s.mx, o.mx)
    g = join(s.aux, o.aux)
    if mx is None or g is None:
        return False
    if jh[LK]:
        return h == EMPTY_HEAP and mx is OWN
    return mx is NOT_OWN and register_inv(g, h)


def _take_member(w, w2, h: Heap) -> bool:
    """Locking: the resource heap leaves the joint part (release side)."""
    vs, vs2 = _views(w), _views(w2)
    if vs is None or vs2 is None or w.other != w2.other:
        return False
    s, _ = vs
    s2, _ = vs2
    jh, jh2 = w.joint[LB], w2.joint[LB]
    return (
        jh.get(LK) is False
        and jh2 == Heap({LK: True})
        and Heap(jh.remove(LK)) == h
        and s2 == Triple(s.ids, OWN, s.aux)
        and s.mx is NOT_OWN
    )


def _give_back_member(w, w2, h: Heap) -> bool:
    """Unlocking: the joint part re-acquires a heap satisfying the invariant."""
    vs, vs2 = _views(w), _views(w2)
    if vs is None or vs2 is None or w.other != w2.other:
        return False
    s, o = vs
    s2, _ = vs2
    if not (s.mx is OWN and s2.mx is NOT_OWN and s2.ids == s.ids):
        return False
    if w.joint[LB] != Heap({LK: True}):
        return False
    if w2.joint[LB] != Heap(Heap({LK: False}).merge_disjoint(h)):
        return False
    g2 = join(s2.aux, o.aux)
    return g2 is not None and register_inv(g2, h)


# ---------------------------------------------------------------------------
# Actions (over private heaps entangled with the lock)
# ---------------------------------------------------------------------------

def _safe_home(w: SubjState) -> bool:
    return coherent_at(w, LB, _coherent)


def trylock() -> AtomicAction:
    def safe(w):
        return _safe_home(w) and pv.safe_home(w)

    def step(w, ctx):
        jh = w.joint[LB]
        if jh[LK]:
            return w, False, ctx
        h = Heap(jh.remove(LK))
        s = w.self_[LB]
        merged = w.self_[pv.LB].merge_disjoint(h)
        return (
            SubjState(
                w.self_.set(LB, Triple(s.ids, OWN, s.aux)).set(pv.LB, Heap(merged)),
                w.joint.set(LB, Heap({LK: True})),
                w.other,
            ),
            True,
            ctx,
        )

    return AtomicAction(
        "trylock", LOCK_HOME, safe, step, "xchg:pv.acquire|lk.lock",
        cas(LK, False, True),
    )


def unlock(g2) -> AtomicAction:
    """Release the lock; ``register_carve`` picks the resource sub-heap out
    of the private section, and the contribution becomes ``g2``."""

    def safe(w):
        if not (LB in w.self_ and pv.LB in w.self_):
            return False
        s, o = w.self_[LB], w.other[LB]
        if not (isinstance(s, Triple) and s.mx is OWN):
            return False
        h = register_carve(w.self_[pv.LB])
        if h is None:
            return False
        got = join(g2, o.aux)
        return got is not None and register_inv(got, h)

    def step(w, ctx):
        s = w.self_[LB]
        h = register_carve(w.self_[pv.LB])
        rest = Heap({loc: v for loc, v in w.self_[pv.LB].items() if loc not in h})
        return (
            SubjState(
                w.self_.set(LB, Triple(s.ids, NOT_OWN, g2)).set(pv.LB, rest),
                w.joint.set(LB, Heap(Heap({LK: False}).merge_disjoint(h))),
                w.other,
            ),
            (),
            ctx,
        )

    return AtomicAction(
        "unlock", LOCK_HOME, safe, step, "xchg:lk.unlock|pv.release",
        Write(LK, False),
    )


# ---------------------------------------------------------------------------
# Construction and sampling
# ---------------------------------------------------------------------------

def sample_state(rng: random.Random, lock: Optional[str] = None) -> SubjState:
    """A random coherent state.  ``lock`` takes that branch of the lock
    rather than drawing it: ``"free"``, or held by ``"self"`` or ``"other"``."""
    ids = frozenset(rng.sample(range(6), rng.randint(0, 3)))
    mine = frozenset(i for i in ids if rng.random() < 0.5)
    if lock is None:
        lock = "free" if rng.random() >= 0.4 else "self" if rng.random() < 0.5 else "other"
    if lock != "free":
        own_self = lock == "self"
        s = Triple(EMPTY_IDSET, OWN if own_self else NOT_OWN, IdSet(mine))
        o = Triple(EMPTY_IDSET, NOT_OWN if own_self else OWN, IdSet(ids - mine))
        jh = Heap({LK: True})
    else:
        s = Triple(EMPTY_IDSET, NOT_OWN, IdSet(mine))
        o = Triple(EMPTY_IDSET, NOT_OWN, IdSet(ids - mine))
        jh = Heap({LK: False, REG: tuple(sorted(ids))})
    return SubjState(FrozenMap({LB: s}), FrozenMap({LB: jh}), FrozenMap({LB: o}))


def sample_frame(rng: random.Random) -> FrozenMap:
    unit = Triple(EMPTY_IDSET, NOT_OWN, EMPTY_IDSET)
    if rng.random() < 0.5:
        return FrozenMap({LB: unit})
    return FrozenMap({LB: Triple(IdSet.of(rng.randint(10, 14)), NOT_OWN, EMPTY_IDSET)})


def _entangled(rng, locked: bool):
    """A spin-lock state with a private heap alongside, held by self or free
    as ``locked`` says; a held lock's register sits in the private heap."""
    w = sample_state(rng, "self" if locked else "free")
    if not locked:
        return pv.alongside(w, rng)
    g = join(w.self_[LB].aux, w.other[LB].aux)
    return pv.alongside(w, rng, Heap({REG: tuple(sorted(g.ids))}))


def _draw_trylock(rng, held: float):
    """A trylock of a lock that self holds in a share ``held`` of the draws,
    where the CAS fails and the step leaves the state alone, and free
    otherwise."""
    return trylock(), _entangled(rng, rng.random() < held)


def _draw_unlock(rng):
    w = _entangled(rng, locked=True)
    return unlock(w.self_[LB].aux), w


def concurroid() -> Concurroid:
    lock = step_sampler(partial(_draw_trylock, held=0), HOME)
    give_back = Transition("lk.unlock", "acquire", _give_back_member, reverse_sampler(lock))
    take = Transition("lk.lock", "release", _take_member, lock)
    return Concurroid(
        name="spin-lock",
        homes={LB: _coherent},
        transitions={t.name: t for t in (identity_transition(sample_state), give_back, take)},
        sample_state=sample_state,
        sample_frame=sample_frame,
    )


def action_families() -> list[ActionFamily]:
    ent = entangle(pv.concurroid(), concurroid())

    def bad_unlock(rng):
        return unlock(EMPTY_IDSET), _entangled(rng, locked=False)

    return [
        ActionFamily("trylock", ent, partial(_draw_trylock, held=0.3)),
        ActionFamily("unlock", ent, _draw_unlock, bad_unlock),
    ]

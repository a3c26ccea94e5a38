"""Private heaps: per-thread exclusively owned memory.

The self and other components each hold a heap, the joint part is
empty.  Reads and writes require ownership of the location (touching an
environment-owned cell is the runtime analogue of a memory-safety
fault).  Allocation and deallocation go through the structure's
acquire/release transitions, which is also the channel other structures
use to exchange heap ownership with a thread.
"""

from __future__ import annotations

import random
from typing import Optional

from ..actions import (
    ActionFamily,
    Alloc,
    AtomicAction,
    Dealloc,
    Read,
    StepCtx,
    Write,
    reverse_sampler,
    step_sampler,
)
from ..concurroid import Concurroid, Transition, identity_transition
from ..fmap import FrozenMap
from ..pcm import EMPTY_HEAP, UNDEF, Heap, Loc
from ..state import SubjState, coherent_at

LB = "pv"
HOME = frozenset([LB])


def _coherent(s, j, o) -> bool:
    """Coherence of ``LB``'s valid self, joint and other components."""
    return isinstance(s, Heap) and isinstance(o, Heap) and j == EMPTY_HEAP


def _write_member(w: SubjState, w2: SubjState) -> bool:
    if w.other != w2.other or w.joint != w2.joint:
        return False
    hs, hs2 = w.self_[LB], w2.self_[LB]
    return isinstance(hs2, Heap) and hs.keys() == hs2.keys()


def _acquire_member(w, w2, h: Heap) -> bool:
    if w.other != w2.other or w.joint != w2.joint or not h:
        return False
    grown = w.self_[LB].merge_disjoint(h)
    return grown is not None and w2.self_[LB] == Heap(grown)


def _release_member(w, w2, h: Heap) -> bool:
    return _acquire_member(w2, w, h)


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------

def safe_home(w: SubjState) -> bool:
    """``w``'s private-heap part is coherent."""
    return coherent_at(w, LB, _coherent)


def _owns(w: SubjState, loc: Loc) -> bool:
    return loc in w.self_[LB]


def alloc() -> AtomicAction:
    def step(w, ctx: StepCtx):
        loc = Loc(ctx.next_loc)
        hs = Heap(w.self_[LB].set(loc, UNDEF))
        return (
            SubjState(w.self_.set(LB, hs), w.joint, w.other),
            loc,
            StepCtx(ctx.next_loc + 1),
        )

    return AtomicAction("alloc", HOME, safe_home, step, "pv.acquire", Alloc())


def write(loc: Loc, v) -> AtomicAction:
    def step(w, ctx):
        hs = Heap(w.self_[LB].set(loc, v))
        return SubjState(w.self_.set(LB, hs), w.joint, w.other), (), ctx

    return AtomicAction(
        f"write({loc!r})",
        HOME,
        lambda w: safe_home(w) and _owns(w, loc),
        step,
        "pv.write",
        Write(loc, v),
    )


def read(loc: Loc) -> AtomicAction:
    def step(w, ctx):
        return w, w.self_[LB][loc], ctx

    return AtomicAction(
        f"read({loc!r})",
        HOME,
        lambda w: safe_home(w) and _owns(w, loc),
        step,
        "id",
        Read(loc),
    )


def dealloc(loc: Loc) -> AtomicAction:
    def step(w, ctx):
        hs = Heap(w.self_[LB].remove(loc))
        return SubjState(w.self_.set(LB, hs), w.joint, w.other), (), ctx

    return AtomicAction(
        f"dealloc({loc!r})",
        HOME,
        lambda w: safe_home(w) and _owns(w, loc),
        step,
        "pv.release",
        Dealloc(loc),
    )


# ---------------------------------------------------------------------------
# Construction and sampling
# ---------------------------------------------------------------------------

def initial_state(self_heap: Heap = EMPTY_HEAP, other_heap: Heap = EMPTY_HEAP) -> SubjState:
    return SubjState(
        FrozenMap({LB: self_heap}),
        FrozenMap({LB: EMPTY_HEAP}),
        FrozenMap({LB: other_heap}),
    )


def sample_state(rng: random.Random, owner: Optional[str] = None) -> SubjState:
    """A random state; ``owner`` (``"self"`` or ``"other"``), when given,
    owns at least one cell."""
    locs = rng.sample(range(1, 12), rng.randint(int(owner is not None), 5))
    k = rng.randint(int(owner == "self"), len(locs) - (owner == "other"))
    hs = Heap({Loc(l): rng.randint(0, 9) for l in locs[:k]})
    ho = Heap({Loc(l): rng.randint(0, 9) for l in locs[k:]})
    return initial_state(hs, ho)


def alongside(w: SubjState, rng: random.Random, held: Heap = EMPTY_HEAP) -> SubjState:
    """``w``, a drawn state of another structure, with a private-heap state
    drawn after it alongside; the cells ``held`` (a held lock's resource)
    join self's heap."""
    hp = sample_state(rng)
    return SubjState(w.self_.set(LB, Heap({**hp.self_[LB], **held})),
                     w.joint.set(LB, hp.joint[LB]), w.other.set(LB, hp.other[LB]))


def sample_frame(rng: random.Random) -> FrozenMap:
    if rng.random() < 0.4:
        return FrozenMap({LB: EMPTY_HEAP})
    cells = {Loc(900 + i): rng.randint(0, 9) for i in rng.sample(range(8), rng.randint(1, 2))}
    return FrozenMap({LB: Heap(cells)})


def _draw_alloc(rng):
    return alloc(), sample_state(rng)


def _with_owned(mk, owner: str = "self"):
    """A draw of ``mk(rng, loc)`` at a location that the drawn state's
    ``owner`` owns: ``"self"``, or ``"other"``, where touching it is a
    fault."""
    def draw(rng):
        w = sample_state(rng, owner)
        heap = w.self_[LB] if owner == "self" else w.other[LB]
        return mk(rng, rng.choice(sorted(heap.keys()))), w

    return draw


def _mk_write(rng, loc):
    return write(loc, rng.randint(20, 29))


def concurroid() -> Concurroid:
    acquire = step_sampler(_draw_alloc, HOME)
    wr = Transition("pv.write", "internal", _write_member,
                    step_sampler(_with_owned(_mk_write), HOME))
    acq = Transition("pv.acquire", "acquire", _acquire_member, acquire)
    rel = Transition("pv.release", "release", _release_member, reverse_sampler(acquire))
    return Concurroid(
        name="private-heaps",
        homes={LB: _coherent},
        transitions={t.name: t for t in (identity_transition(sample_state), wr, acq, rel)},
        sample_state=sample_state,
        sample_frame=sample_frame,
    )


def action_families() -> list[ActionFamily]:
    conc = concurroid()

    mk_read = lambda rng, loc: read(loc)  # noqa: E731
    mk_dealloc = lambda rng, loc: dealloc(loc)  # noqa: E731
    return [
        ActionFamily("alloc", conc, _draw_alloc),
        ActionFamily("pv.write", conc, _with_owned(_mk_write), _with_owned(_mk_write, "other")),
        ActionFamily("pv.read", conc, _with_owned(mk_read), _with_owned(mk_read, "other")),
        ActionFamily("pv.dealloc", conc, _with_owned(mk_dealloc), _with_owned(mk_dealloc, "other")),
    ]

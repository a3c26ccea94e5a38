"""Atomic actions: auxiliary-state-aware steps and their heap erasures.

An atomic action packages a safety predicate, a deterministic step
function over subjective states, the name of the transition it refines,
and the primitive heap operation it erases to.  The scheduler treats
one action as one indivisible step; the checks in
``check_action_properties`` are the executable form of the metatheory
obligations an action must satisfy (safety monotonicity, framing,
erasure determinism, totality, ...).

Primitive atomics are the machine-level vocabulary: ``Read``, ``Write``,
``Skip``, and the read-modify-write family (of which compare-and-swap
is the familiar instance).  ``Alloc``/``Dealloc`` extend the set with
the allocator's two operations, which the structured model funnels
through the private-heap acquire/release transitions.

A note on CAS: the usual presentation writes the failure branch as
re-writing the expected value, which is observationally wrong for a
cell holding something else.  ``cas`` here implements standard
semantics: on failure the cell is left untouched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .concurroid import CheckReport, Concurroid, transferred_heap
from .fmap import FrozenMap
from .pcm import UNDEF, Hist, IdSet, Loc, Triple, map_pointwise_join
from .state import (
    StateError,
    SubjState,
    flatten,
    has_labels,
    realign_acquire,
    realign_release,
    validate,
)


class ActionSafetyError(RuntimeError):
    """An action was invoked on a state outside its safety predicate."""


# ---------------------------------------------------------------------------
# Primitive atomics
# ---------------------------------------------------------------------------

@dataclass(unsafe_hash=True, slots=True)
class Read:
    loc: Loc


@dataclass(unsafe_hash=True, slots=True)
class Write:
    loc: Loc
    val: Any


@dataclass(unsafe_hash=True, slots=True)
class Skip:
    pass


@dataclass(unsafe_hash=True, slots=True)
class Rmw:
    """Atomically replace the cell value by ``f(v)`` and return ``g(v)``."""

    loc: Loc
    f: Callable[[Any], Any]
    g: Callable[[Any], Any]


@dataclass(unsafe_hash=True, slots=True)
class Alloc:
    pass


@dataclass(unsafe_hash=True, slots=True)
class Dealloc:
    loc: Loc


Primitive = Any


def cas(loc: Loc, expected, desired) -> Rmw:
    """Compare-and-swap: write ``desired`` iff the cell holds ``expected``.

    Returns whether the swap happened; a failing CAS leaves the cell
    unchanged.
    """
    return Rmw(
        loc,
        lambda v, e=expected, d=desired: d if v == e else v,
        lambda v, e=expected: v == e,
    )


def exec_primitive(prim: Primitive, heap: dict, next_loc: int) -> tuple[Any, int]:
    """Run a primitive on a mutable concrete heap; returns (result, next_loc)."""
    if isinstance(prim, Read):
        return heap[prim.loc], next_loc
    if isinstance(prim, Write):
        heap[prim.loc] = prim.val
        return (), next_loc
    if isinstance(prim, Skip):
        return (), next_loc
    if isinstance(prim, Rmw):
        v = heap[prim.loc]
        heap[prim.loc] = prim.f(v)
        return prim.g(v), next_loc
    if isinstance(prim, Alloc):
        loc = Loc(next_loc)
        heap[loc] = UNDEF
        return loc, next_loc + 1
    if isinstance(prim, Dealloc):
        del heap[prim.loc]
        return (), next_loc
    raise TypeError(f"not a primitive atomic: {prim!r}")


# ---------------------------------------------------------------------------
# Atomic actions
# ---------------------------------------------------------------------------

@dataclass(unsafe_hash=True, slots=True)
class StepCtx:
    """Per-run execution context threaded through steps (location allocator)."""

    next_loc: int


@dataclass(eq=False)
class AtomicAction:
    name: str
    home: frozenset  # labels the action may touch
    safe: Callable[[SubjState], bool]
    step: Callable[[SubjState, StepCtx], tuple[SubjState, Any, StepCtx]]
    claimed: str  # transition this action refines
    primitive: Primitive

    def __repr__(self):
        return f"<action {self.name}>"


def run_atomic(a: AtomicAction, w: SubjState, ctx: StepCtx):
    """Step the action, faulting when invoked outside its safety predicate."""
    if not a.safe(w):
        raise ActionSafetyError(f"{a.name} unsafe in state {w.render()}")
    return a.step(w, ctx)


def step_matches_claim(conc: Concurroid, a: AtomicAction, w, w2) -> Optional[str]:
    """Check (w, w2) against the claimed transition (or identity).

    Returns ``None`` on success, else a message.  Identity steps are
    always admitted: a failing CAS refines the id transition.
    """
    if w == w2:
        return None
    t = conc.transitions.get(a.claimed)
    if t is None:
        return f"{a.name}: claimed transition {a.claimed!r} not in {conc.name}"
    if not t.holds(w, w2, transferred_heap(t, w, w2)):
        return f"{a.name}: step not a member of transition {a.claimed!r}"
    return None


# ---------------------------------------------------------------------------
# Property checks (one report per property, sampled)
# ---------------------------------------------------------------------------

@dataclass
class ActionFamily:
    """A shipped action together with samplers for the property checks.

    ``sample`` draws (action-instance, safe-state) pairs; ``sample_unsafe``
    draws states outside the safety predicate when the action has a
    nontrivial one.
    """

    name: str
    conc: Concurroid
    sample: Callable[[random.Random], tuple[AtomicAction, SubjState]]
    sample_unsafe: Optional[Callable[[random.Random], tuple[AtomicAction, SubjState]]] = None
    frame_filter: Optional[Callable[[FrozenMap], bool]] = None


def _ctx_for(w: SubjState) -> StepCtx:
    f = flatten(w)
    top = max((loc.n for loc in f.keys()), default=0)
    return StepCtx(next_loc=top + 1)


def step_sampler(draw, labels):
    """A transition's sampler from an action family's ``draw``: the step
    ``(w, w2)`` of one draw ``(a, w)``, cut down to ``labels``, or ``None``
    where the step leaves ``w`` alone.  The draw builds a safe state whose
    step moves, so safety is not decided again and no draw is retried."""
    def sampler(rng):
        a, w = draw(rng)
        w2 = a.step(w, _ctx_for(w))[0]
        if w2 == w:
            return None
        if has_labels(w, labels):
            return w, w2
        return w.restrict(labels), w2.restrict(labels)

    return sampler


def reverse_sampler(s):
    """The steps of sampler ``s`` taken backwards: a release drawn from its
    acquire, or an unlock from its lock."""
    def sampler(rng):
        drawn = s(rng)
        return None if drawn is None else drawn[::-1]

    return sampler


def _moved_newest(sv, ov) -> Optional[tuple]:
    """``(sv', ov')``: the newest history entry, or the largest id of an id
    set, of ``sv`` moved into ``ov``, inside a ``Triple``'s aux too, keeping
    its ids and mutex; ``None`` when ``sv`` holds nothing to move."""
    if isinstance(sv, Triple) and isinstance(ov, Triple):
        moved = _moved_newest(sv.aux, ov.aux)
        if moved is None:
            return None
        return Triple(sv.ids, sv.mx, moved[0]), Triple(ov.ids, ov.mx, moved[1])
    if isinstance(sv, Hist) and len(sv.entries) > 0:
        t = max(sv.stamps())
        return (Hist(sv.kind, sv.entries.remove(t)),
                Hist(ov.kind, ov.entries.set(t, sv.entries[t])))
    if isinstance(sv, IdSet) and sv.ids:
        i = max(sv.ids)
        return IdSet(sv.ids - {i}), IdSet(ov.ids | {i})
    return None


def _aux_variants(w: SubjState) -> list[SubjState]:
    """States with the same flattening but a different self/other partition."""
    out = []
    for lbl in w.self_:
        moved = _moved_newest(w.self_[lbl], w.other[lbl])
        if moved is not None:
            out.append(SubjState(w.self_.set(lbl, moved[0]), w.joint,
                                 w.other.set(lbl, moved[1])))
    return out


def check_action_properties(
    fam: ActionFamily, n: int, rng: random.Random
) -> list[CheckReport]:
    """Run the seven obligations for one shipped action family.

    Each state's safety is decided once: a state found safe is stepped
    with ``a.step`` directly, not through ``run_atomic``, which would
    decide it again.
    """
    conc = fam.conc
    coher = CheckReport("coherence", fam.name)
    mono = CheckReport("safety-monotonicity", fam.name)
    stepsafe = CheckReport("step-safety", fam.name)
    internal = CheckReport("internal-stepping", fam.name)
    framing = CheckReport("framing", fam.name)
    erasure = CheckReport("erasure-determinism", fam.name)
    totality = CheckReport("totality", fam.name)

    for _ in range(n):
        a, w = fam.sample(rng)
        ctx = _ctx_for(w)
        safe = a.safe(w)

        # Coherence: safe states are coherent states.
        coher.samples += 1
        if safe and not conc.coherent(w):
            coher.add(f"{a.name}: safe but incoherent: {w.render()}")

        # Totality: safe states always step, producing a sane result.
        totality.samples += 1
        if not safe:
            totality.add(f"{a.name}: refused a safe state")
            continue
        try:
            w2, res, _ = a.step(w, ctx)
        except Exception as exc:  # noqa: BLE001 - report, do not crash the check
            totality.add(f"{a.name}: crashed on safe state: {exc!r}")
            continue

        # Internal stepping: the step pair refines the claimed transition.
        internal.samples += 1
        msg = step_matches_claim(conc, a, w, w2)
        if msg is not None:
            internal.add(msg)

        # Guarantee is covered by transition membership; validity is not.
        if not validate(w2):
            internal.add(f"{a.name}: post-state invalid")

        # Safety monotonicity and framing, against a sampled frame.
        f = conc.sample_frame(rng)
        if fam.frame_filter is not None and not fam.frame_filter(f):
            f = None
        if f is not None:
            try:
                small = realign_release(w, f)
                large = realign_acquire(w, f)
            except StateError:
                small = large = None
            if small is not None and a.safe(small):
                mono.samples += 1
                if not a.safe(large):
                    mono.add(f"{a.name}: shrank under self-enlargement by {f!r}")
                else:
                    framing.samples += 1
                    ws, rs, _ = a.step(small, _ctx_for(small))
                    wl, rl, _ = a.step(large, _ctx_for(large))
                    expected_self = map_pointwise_join(f, ws.self_)
                    if (
                        rs != rl
                        or expected_self is None
                        or wl.self_ != expected_self
                        or wl.joint != ws.joint
                        or wl.other != w.other
                    ):
                        framing.add(
                            f"{a.name}: framed step disagrees under {f!r}"
                        )

        # Erasure determinism: the concrete behavior ignores the erased
        # auxiliary fields and partition.
        erasure.samples += 1
        f0 = flatten(w)
        heap = dict(f0)
        prim_res, _ = exec_primitive(a.primitive, heap, ctx.next_loc)
        if dict(flatten(w2)) != heap or prim_res != res:
            erasure.add(f"{a.name}: step disagrees with primitive erasure")
        for wv in _aux_variants(w):
            if flatten(wv) != f0:
                continue
            if a.safe(wv):
                wv2, resv, _ = a.step(wv, ctx)
                if resv != res or flatten(wv2) != flatten(w2):
                    erasure.add(f"{a.name}: result depends on erased partition")

    # Step safety: unsafe states must refuse to step, which ``run_atomic``
    # does exactly when the safety predicate fails.
    if fam.sample_unsafe is not None:
        for _ in range(min(n, 50)):
            a, w = fam.sample_unsafe(rng)
            stepsafe.samples += 1
            if a.safe(w):
                stepsafe.add(f"{a.name}: would step an unsafe state")
    else:
        stepsafe.vacuous = n

    return [coher, mono, stepsafe, internal, framing, erasure, totality]

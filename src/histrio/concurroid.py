"""Concurroids: labeled transition systems governing concurrent structures.

A concurroid is a quadruple of labels, a coherence predicate (the set of
admissible states), internal transitions, and acquire/release external
transitions used for heap ownership transfer.  Its labels and coherence
come from one map, ``homes``, from each label to the coherence of the
label's self, joint and other components: a state is coherent when it
carries exactly those labels, each label's components are coherent, and
its heaps are disjoint.  Its transitions sit in one table, ``transitions``,
keyed by name; each transition's ``kind`` says whether it is internal, an
acquire or a release.  So entangling two concurroids merges their maps and
their tables.  The metatheory obligations — guarantee, rely as the
transposed guarantee, locality, footprint discipline, post-state coherence
and fork-join closure — are implemented here as sampled property checks
(``check_concurroid``, which draws each sampled step once and checks it
against every per-step obligation), and ``entangle`` builds the composite
systems the scenarios run under.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .fmap import EMPTY_MAP, FrozenMap
from .pcm import Heap
from .state import (
    EMPTY_STATE,
    StateError,
    SubjState,
    coherent_parts,
    flatten,
    has_labels,
    realign_acquire,
    realign_release,
)


@dataclass
class Transition:
    """One transition of a concurroid; ``kind`` is the only record of
    whether it is internal, an acquire or a release.

    ``member`` decides membership: for internal transitions it takes
    ``(w, w')``; for acquire/release transitions it takes ``(w, w', h)``
    where ``h`` is the transferred heap.  ``sampler`` draws random
    member pairs ``(w, w')`` for the property checks, or ``None``; an
    external step's ``h`` is inferred (``transferred_heap``).  Transitions
    used only through entanglement may omit it.
    """

    name: str
    kind: str  # "internal" | "acquire" | "release"
    member: Callable
    sampler: Optional[Callable[[random.Random], tuple]] = None

    def holds(self, w, w2, h=None) -> bool:
        """The step is a member; an internal step ignores ``h``, and an
        external step with no heap ``h`` holds nothing."""
        if self.kind == "internal":
            return self.member(w, w2)
        return h is not None and self.member(w, w2, h)


def identity_transition(sample_state=None) -> Transition:
    sampler = None
    if sample_state is not None:
        def sampler(rng):
            w = sample_state(rng)
            return (w, w)
    return Transition("id", "internal", lambda w, w2: w == w2, sampler)


@dataclass
class Concurroid:
    """``homes`` maps each label to its coherence body, which judges the
    label's self, joint and other components when they are a valid part
    (see ``state.coherent_at``); ``labels`` are its keys.  ``transitions``
    maps each transition's name to it, internal and external alike; the
    property checks draw the sampled ones in table order."""

    name: str
    homes: dict[str, Callable[[Any, Any, Any], Any]]
    transitions: dict[str, Transition]
    sample_state: Optional[Callable[[random.Random], SubjState]] = None
    sample_frame: Optional[Callable[[random.Random], FrozenMap]] = None
    labels: frozenset = field(init=False)

    def __post_init__(self):
        self.labels = frozenset(self.homes)

    def coherent(self, w: SubjState) -> bool:
        """``w`` carries exactly this concurroid's labels, each label's
        part is coherent by its body, and ``w`` is valid: on a state not
        yet validated, ``validate(w)`` is decided with the coherence in one
        pass over the labels (``state.coherent_parts``)."""
        return has_labels(w, self.labels) and coherent_parts(w, self.homes)


# ---------------------------------------------------------------------------
# Heap transfer inference
# ---------------------------------------------------------------------------

def transferred_heap(t: Transition, w: SubjState, w2: SubjState) -> Optional:
    """Infer the heap ``h`` moved by an external transition step.

    Acquire transitions grow the flattened footprint by ``dom h`` (the
    acquired cells appear with their post-state contents); release
    transitions shrink it (the released cells leave with their
    pre-state contents).  An internal transition moves none: ``None``.
    """
    if t.kind == "internal":
        return None
    f1, f2 = flatten(w), flatten(w2)
    if f1 is None or f2 is None:
        return None
    if t.kind == "acquire":
        return Heap({loc: f2[loc] for loc in f2 if loc not in f1})
    return Heap({loc: f1[loc] for loc in f1 if loc not in f2})


# ---------------------------------------------------------------------------
# Property checks
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    check: str
    subject: str
    samples: int = 0
    vacuous: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, msg: str):
        if len(self.violations) < 25:
            self.violations.append(msg)

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "subject": self.subject,
            "samples": self.samples,
            "vacuous": self.vacuous,
            "violations": list(self.violations),
            "ok": self.ok,
        }


def _draw(t: Transition, rng) -> Optional[tuple]:
    """A drawn step ``(w, w', h)``, its heap ``h`` inferred as the explorer
    infers it; ``None`` where ``t`` has no sampler or the sampler refuses."""
    if t.sampler is None:
        return None
    drawn = t.sampler(rng)
    if drawn is None:
        return None
    w, w2 = drawn
    return w, w2, transferred_heap(t, w, w2)


def _footprint_fault(t: Transition, w, w2) -> Optional[str]:
    """Internal steps keep the flattened heap domain; an acquire grows it
    and a release shrinks it.  The cells gained or lost are the inferred
    ``h``, so an acquire that keeps every cell grows the domain by exactly
    ``dom h``, and a release that adds none shrinks it by ``dom h``."""
    f1, f2 = flatten(w), flatten(w2)
    if f1 is None or f2 is None:
        return f"{t.name}: state heaps overlap"
    if t.kind == "internal":
        if f1.keys() != f2.keys():
            return f"{t.name}: internal step changed heap domain"
    elif t.kind == "acquire":
        if not f1.keys() <= f2.keys():
            return f"{t.name}: footprint not extended by dom(h)"
    elif t.kind == "release":
        if not f2.keys() <= f1.keys():
            return f"{t.name}: footprint not reduced by dom(h)"
    return None


def check_fork_join_closure(c: Concurroid, n: int, rng: random.Random) -> CheckReport:
    """Coherence survives moving a PCM-map between self and other."""
    rep = CheckReport("fork-join-closure", c.name)
    for _ in range(n):
        w = c.sample_state(rng)
        f = c.sample_frame(rng)
        rep.samples += 1
        try:
            left = c.coherent(realign_acquire(w, f))
        except StateError:
            left = False
        try:
            right = c.coherent(realign_release(w, f))
        except StateError:
            right = False
        if left != right:
            rep.add(f"closure broken by frame {f!r} (self:{left} other:{right})")
    return rep


def check_concurroid(c: Concurroid, n: int, rng: random.Random) -> list[CheckReport]:
    """Run the full obligation suite for one concurroid.

    Each sampled transition draws ``n`` steps ``(w, w')``, with an external
    step's transferred heap ``h`` inferred from them, and each step is
    checked once against every per-step obligation:

    * guarantee: the step leaves ``other`` alone;
    * rely: the transposed step, the environment's view, leaves ``self``
      alone.  Transposing swaps ``self`` and ``other``, so this is the
      guarantee's predicate, decided once and filed under both rows;
    * footprints: see ``_footprint_fault``;
    * post-coherence: ``w'`` is valid and coherent;
    * locality: a step that holds with a drawn frame on the other side
      still holds with the frame on the self side.  A step whose frame
      cannot be realigned, or that does not hold released, is vacuous.

    Guarantee, rely and locality get a row per transition, footprints and
    post-coherence one per concurroid; a draw the sampler refuses is
    vacuous in all five.  Fork-join closure draws states, not steps.
    """
    reports = []
    footprints = CheckReport("footprints", c.name)
    post = CheckReport("post-coherence", c.name)
    for t in c.transitions.values():
        if t.sampler is None:
            continue
        guarantee = CheckReport("guarantee", t.name)
        rely = CheckReport("rely", t.name)
        locality = CheckReport("locality", t.name)
        per_step = (guarantee, rely, footprints, post)
        for _ in range(n):
            drawn = _draw(t, rng)
            if drawn is None:
                for rep in (*per_step, locality):
                    rep.vacuous += 1
                continue
            w, w2, h = drawn
            for rep in per_step:
                rep.samples += 1
            if w.other != w2.other:
                guarantee.add(f"{t.name}: other changed: {w.render()} -> {w2.render()}")
                rely.add(f"{t.name}: transposed step changed self")
            fault = _footprint_fault(t, w, w2)
            if fault is not None:
                footprints.add(fault)
            if not c.coherent(w2):
                post.add(f"{t.name}: post-state incoherent")

            f = c.sample_frame(rng)
            try:
                wr, w2r = realign_release(w, f), realign_release(w2, f)
            except StateError:
                locality.vacuous += 1
                continue
            if not t.holds(wr, w2r, h):
                locality.vacuous += 1
                continue
            locality.samples += 1
            try:
                wa, w2a = realign_acquire(w, f), realign_acquire(w2, f)
            except StateError:
                locality.add(f"{t.name}: self-side realignment undefined for frame {f!r}")
                continue
            if not t.holds(wa, w2a, h):
                locality.add(f"{t.name}: not closed under frame {f!r}")
        reports += [guarantee, rely, locality]
    reports += [footprints, check_fork_join_closure(c, n, rng), post]
    return reports


# ---------------------------------------------------------------------------
# Entanglement
# ---------------------------------------------------------------------------

_ABSENT = object()


def _idle(w: SubjState, w2: SubjState, idle_labels) -> bool:
    """The step keeps its label set, and each of ``idle_labels`` keeps its
    self, joint and other components: ``w.restrict(idle_labels) ==
    w2.restrict(idle_labels)``, decided without building either."""
    if w.labels() != w2.labels():
        return False
    for m, m2 in ((w.self_, w2.self_), (w.joint, w2.joint), (w.other, w2.other)):
        for lbl in idle_labels:
            v, v2 = m.get(lbl, _ABSENT), m2.get(lbl, _ABSENT)
            if v is not v2 and v != v2:
                return False
    return True


def _lift(t: Transition, side_labels, idle_labels) -> Transition:
    """``t`` on ``side_labels``, ``idle_labels`` idle; ``h`` only if external.
    With the idle side framed, ``t`` judges the whole states, so it reads
    only its own labels or whole-map equalities, which ``_idle`` reduces to
    its side's."""
    def member(w, w2, *h):
        return _idle(w, w2, idle_labels) and t.member(w, w2, *h)

    return Transition(t.name, t.kind, member)


def _exchange(alpha: Transition, a_labels, rho: Transition, r_labels) -> Transition:
    """Simultaneous acquire on one side and release on the other."""

    def member(w, w2):
        if not _idle(w, w2, ()):
            return False
        wa, wa2 = w.restrict(a_labels), w2.restrict(a_labels)
        h = transferred_heap(alpha, wa, wa2)
        if not h or not alpha.member(wa, wa2, h):
            return False
        return rho.member(w.restrict(r_labels), w2.restrict(r_labels), h)

    return Transition(f"xchg:{alpha.name}|{rho.name}", "internal", member)


def entangle(u: Concurroid, v: Concurroid) -> Concurroid:
    """``u ⋊ v``: compose two concurroids over disjoint labels.

    Each side's coherence governs its own labels.  Every transition of
    ``u`` is lifted with ``v`` idle, and every internal transition of ``v``
    with ``u`` idle; each acquire of one side and release of the other
    interconnect in one heap exchange.  So the acquires and releases of
    ``u`` stay open, and those of ``v`` are shut down.
    """
    if u.labels & v.labels:
        raise ValueError(f"label overlap: {u.labels & v.labels}")
    transitions = {name: _lift(t, u.labels, v.labels) for name, t in u.transitions.items()}
    for name, t in v.transitions.items():
        if t.kind == "internal" and name != "id":
            transitions[name] = _lift(t, v.labels, u.labels)
    transitions["id"] = identity_transition()

    for acq, rel in ((u, v), (v, u)):
        for alpha in acq.transitions.values():
            for rho in rel.transitions.values():
                if alpha.kind == "acquire" and rho.kind == "release":
                    t = _exchange(alpha, acq.labels, rho, rel.labels)
                    transitions[t.name] = t

    sample_state = None
    if u.sample_state and v.sample_state:
        def sample_state(rng, _u=u, _v=v):
            for _ in range(64):
                w = _u.sample_state(rng).merge_disjoint(_v.sample_state(rng))
                if w is not None and flatten(w) is not None:
                    return w
            raise RuntimeError("could not sample disjoint entangled state")

    sample_frame = None
    if u.sample_frame and v.sample_frame:
        def sample_frame(rng, _u=u, _v=v):
            f = _u.sample_frame(rng).merge_disjoint(_v.sample_frame(rng))
            return f if f is not None else EMPTY_MAP

    return Concurroid(
        name=f"{u.name}><{v.name}",
        homes={**u.homes, **v.homes},
        transitions=transitions,
        sample_state=sample_state,
        sample_frame=sample_frame,
    )


def empty_concurroid() -> Concurroid:
    """The right unit of entanglement: no labels, only the empty state."""
    def sample_state(rng):
        return EMPTY_STATE

    return Concurroid(
        name="empty",
        homes={},
        transitions={"id": identity_transition(sample_state)},
        sample_state=sample_state,
    )


def behaviorally_equal(check: str, c1: Concurroid, c2: Concurroid, n: int,
                       rng: random.Random) -> CheckReport:
    """Structural equality up to sampling: same labels, coherence verdicts,
    and transition memberships on states drawn from either side.  A
    transition with no sampler counts ``n`` vacuous draws: none of its
    steps was compared."""
    rep = CheckReport(check, f"{c1.name} = {c2.name}")
    names1, names2 = c1.transitions.keys(), c2.transitions.keys()
    if (c1.labels, names1) != (c2.labels, names2):
        rep.add(f"labels or transitions differ: {sorted(c1.labels ^ c2.labels)}, "
                f"{sorted(names1 ^ names2)}")
        return rep
    for sampler in (c1.sample_state, c2.sample_state):
        if sampler is None:
            continue
        for _ in range(n):
            w = sampler(rng)
            rep.samples += 1
            if c1.coherent(w) != c2.coherent(w):
                rep.add(f"coherence differs on {w.render()}")
    for src, dst in ((c1, c2), (c2, c1)):
        for t in src.transitions.values():
            if t.sampler is None:
                rep.vacuous += n
                continue
            t_dst = dst.transitions[t.name]
            for _ in range(n):
                drawn = _draw(t, rng)
                if drawn is None:
                    rep.vacuous += 1
                    continue
                w, w2, h = drawn
                rep.samples += 1
                if not t_dst.holds(w, w2, h):
                    rep.add(f"{t.name}: a step of {src.name} is not one of {dst.name}")
    return rep

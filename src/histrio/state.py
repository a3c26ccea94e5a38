"""Subjective states and the realignment algebra.

A subjective state is a per-thread view ``⟨self | joint | other⟩`` over
labeled components: ``self`` holds the thread's privately owned PCM
elements, ``other`` the environment's, and ``joint`` the shared part
(heaps plus, for the flat combiner, its auxiliary slot array).  The
three maps always carry the same labels.

Fork and join recombine the self/other axis: a parent splitting its
self as ``a ∘ b`` spawns children ``⟨a | j | b ∘ o⟩`` and
``⟨b | j | a ∘ o⟩``; joining inverts this, recovering the unique common
environment part.  Framing moves a PCM-map between the two sides
(``◁`` into self, ``▷`` into other).

A ``SubjState`` is a value: nothing changes one once it is built, except
that ``validate``, ``flatten`` and ``coherent_parts`` fill its ``_valid``
and ``_flat`` caches once.  It is a slotted, unfrozen dataclass, since a
frozen one pays an ``object.__setattr__`` per field;
``tests/test_records.py`` keeps the rule.

A structure's coherence and the parse of its joint are pure facts of a
few component values, and one run decides the same ones over and over.
So each run of the explorer installs a fact table (``fact_table``) that
lives only as long as the run: ``recall`` and ``coherent_at`` decide a
fact once per run and key it on the function that decides it and exactly
the values it reads, for a coherence its body and the label's self, joint
and other components, which are the body's arguments.  A coherence fact
is the body's verdict with the part's cells, the disjoint union of its
heaps, so that ``coherent_parts`` judges a whole state's validity and
coherence in one pass over its labels and builds its flattening from
its parts' cells.  Outside a run there is no table, and they compute
every time.  The table keys on equality, and map classes compare
exactly, but cells compare with ``==``: ``Heap({LK: 1}) == Heap({LK:
True})``, yet a lock's coherence accepts only the second, and a
flattening built from the fact of one would hold the other's cell.  So
the table, like the explorer's memos, relies on no action storing such a
twin; no shipped action does, since every lock write is ``True`` or
``False``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Optional

from .fmap import EMPTY_MAP, FrozenMap
from .pcm import (
    Heap,
    Triple,
    joinable,
    map_pointwise_join,
    map_subtract,
    render,
)


class StateError(ValueError):
    """A structurally invalid state operation (bad split, no common env...)."""


_UNSET = object()


@dataclass(unsafe_hash=True, slots=True)
class SubjState:
    self_: FrozenMap  # label -> PCM element
    joint: FrozenMap  # label -> arbitrary (heap, or (heap, aux-array))
    other: FrozenMap  # label -> PCM element

    # What ``validate``, ``flatten`` or ``coherent_parts`` found for this
    # very object (a state is never changed, so neither can change).  Kept
    # on the object, not in a table keyed on equal states, so it costs no
    # lookup and lives no longer than the state.
    _valid: bool = field(default=False, init=False, repr=False, compare=False)
    _flat: Any = field(default=_UNSET, init=False, repr=False, compare=False)

    def labels(self):
        return self.self_.keys()

    def restrict(self, labels) -> "SubjState":
        r = SubjState(
            self.self_.restrict(labels),
            self.joint.restrict(labels),
            self.other.restrict(labels),
        )
        if self._valid:
            # equal domains, a defined join and disjoint heaps all survive
            # dropping labels
            r._valid = True
        return r

    def merge_disjoint(self, w: "SubjState") -> Optional["SubjState"]:
        s = self.self_.merge_disjoint(w.self_)
        j = self.joint.merge_disjoint(w.joint)
        o = self.other.merge_disjoint(w.other)
        if s is None or j is None or o is None:
            return None
        return SubjState(s, j, o)

    def render(self) -> str:
        parts = []
        for lbl in sorted(self.self_.keys()):
            parts.append(
                f"{lbl}: <{render(self.self_[lbl])} | "
                f"{render(self.joint[lbl])} | {render(self.other[lbl])}>"
            )
        return "; ".join(parts) if parts else "<empty>"


EMPTY_STATE = SubjState(EMPTY_MAP, EMPTY_MAP, EMPTY_MAP)


def flatten(w: SubjState) -> Optional[Heap]:
    """Disjoint union of every heap in ``w``'s components (``_union``);
    ``None`` on overlap."""
    if w._flat is _UNSET:
        w._flat = _union([*w.self_.values(), *w.joint.values(), *w.other.values()])
    return w._flat


def _heaps(values, out: list) -> list:
    """``out`` with every heap in ``values`` appended, found in the values
    and, depth first, inside their tuples and triples' aux."""
    for v in values:
        if isinstance(v, Heap):
            out.append(v)
        elif isinstance(v, tuple):
            _heaps(v, out)
        elif isinstance(v, Triple):
            _heaps((v.aux,), out)
    return out


def _union(values: list) -> Optional[Heap]:
    """Disjoint union of every heap in ``values`` (``_heaps``); ``None`` on
    overlap.  Where one heap holds every cell, the union is that heap, so
    the facts and flattenings that keep it keep no copy."""
    heaps = _heaps(values, [])
    cells: dict = {}
    size = 0
    for h in heaps:
        # a heap is a dict, so merging it reuses its keys' stored hashes
        cells.update(h)
        size += len(h)
    if len(cells) != size:
        return None
    for h in heaps:
        if len(h) == size:
            return h
    return Heap(cells)


def _defined(s, o) -> bool:
    """``s ∘ o`` is defined, decided from keys by ``joinable``; elements of
    different carriers (a ``TypeError``) have no join."""
    try:
        return joinable(s, o)
    except TypeError:
        return False


def validate(w: SubjState) -> bool:
    """Equal label domains, each label's ``self ∘ other`` defined, heaps
    disjoint.  No join is built."""
    if w._valid:
        return True
    if not (w.self_.keys() == w.joint.keys() == w.other.keys()):
        return False
    if not all(_defined(s, w.other[lbl]) for lbl, s in w.self_.items()):
        return False
    if flatten(w) is None:
        return False
    w._valid = True
    return True


# ---------------------------------------------------------------------------
# The fact table of a run
# ---------------------------------------------------------------------------

# the fact table of the run in progress, or None outside a run
_FACTS: ContextVar[Optional[dict]] = ContextVar("histrio_facts", default=None)


@contextmanager
def fact_table():
    """Install a fresh fact table for the ``with`` block, which is one run;
    the table is dropped when the block is left."""
    token = _FACTS.set({})
    try:
        yield
    finally:
        _FACTS.reset(token)


def recall(key, compute, *args):
    """``compute(*args)``, decided once per run: the run's fact table keeps
    it under ``key``, which must determine the value.  Outside a run it is
    computed every time."""
    table = _FACTS.get()
    if table is None:
        return compute(*args)
    value = table.get(key, _UNSET)
    if value is _UNSET:
        value = table[key] = compute(*args)
    return value


def coherent_at(w: SubjState, label, body):
    """``body(s, j, o)`` of ``label``'s self, joint and other components,
    or ``None`` when ``w`` lacks one of them or they are not a valid part:
    ``s ∘ o`` undefined or heaps overlapping, by ``validate``'s rule.  The
    run's fact table keeps it, with the part's cells, under ``body`` and
    the three components, so the key holds exactly the body's arguments.
    A part of a validated state is a valid part, so there the body is
    called without the check, and its fact carries no cells."""
    s = w.self_.get(label, _UNSET)
    j = w.joint.get(label, _UNSET)
    o = w.other.get(label, _UNSET)
    if s is _UNSET or j is _UNSET or o is _UNSET:
        return None
    if w._valid:
        return recall((body, s, j, o), _judge, body, s, j, o)[0]
    return recall((body, s, j, o), _decide, body, s, j, o)[0]


def _judge(body, s, j, o):
    """The fact of a part known to be valid: the verdict, no cells."""
    return body(s, j, o), None


def _decide(body, s, j, o):
    """The fact of a part: the verdict with the part's cells, or ``(None,
    None)`` when the part is not valid."""
    if _defined(s, o):
        cells = _union([s, j, o])
        if cells is not None:
            return body(s, j, o), cells
    return None, None


def coherent_parts(w: SubjState, homes: dict) -> bool:
    """Each label's part of ``w`` is coherent by its body in ``homes``
    (``coherent_at``), and ``w`` is valid; ``w`` carries exactly the labels
    of ``homes`` (``has_labels``).

    On an unvalidated state this decides ``validate(w)`` in the same pass:
    given equal label domains, ``w`` is valid iff each part is valid and
    the parts' cells, taken from their facts (computed here for a fact
    judged on a validated state), are disjoint, their sizes summing to the
    size of their union.  On success ``w`` is marked valid and its
    flattening is that union."""
    if w._valid:
        for label, body in homes.items():
            if not coherent_at(w, label, body):
                return False
        return True
    flat: dict = {}
    size = 0
    for label, body in homes.items():
        s, j, o = w.self_[label], w.joint[label], w.other[label]
        key = (body, s, j, o)
        verdict, cells = recall(key, _decide, body, s, j, o)
        if not verdict:
            return False
        if cells is None:
            cells = _union([s, j, o])
            table = _FACTS.get()
            if table is not None:
                table[key] = (verdict, cells)
        # a heap is a dict, so merging it reuses its keys' stored hashes
        flat.update(cells)
        size += len(cells)
    if len(flat) != size:
        return False
    w._valid = True
    if w._flat is _UNSET:  # a state flattened before holds an equal union
        w._flat = Heap(flat)
    return True


def has_labels(w: SubjState, labels) -> bool:
    """``w``'s self, joint and other maps carry exactly ``labels``."""
    return w.self_.keys() == w.joint.keys() == w.other.keys() == labels


def realign_acquire(w: SubjState, t: FrozenMap) -> SubjState:
    """``w ◁ t``: join the PCM-map ``t`` into the self component."""
    s = map_pointwise_join(t, w.self_)
    if s is None:
        raise StateError(f"realign_acquire: join undefined for {t!r}")
    return SubjState(s, w.joint, w.other)


def realign_release(w: SubjState, t: FrozenMap) -> SubjState:
    """``w ▷ t``: join the PCM-map ``t`` into the other component."""
    o = map_pointwise_join(t, w.other)
    if o is None:
        raise StateError(f"realign_release: join undefined for {t!r}")
    return SubjState(w.self_, w.joint, o)


def subjective_split(
    w: SubjState, a: FrozenMap, b: FrozenMap
) -> tuple[SubjState, SubjState]:
    """Fork: split ``self == a ∘ b`` into two sibling views."""
    recombined = map_pointwise_join(a, b)
    if recombined is None or recombined != w.self_:
        raise StateError(
            f"split directive does not decompose self: {a!r} ∘ {b!r} != {w.self_!r}"
        )
    o1 = map_pointwise_join(b, w.other)
    o2 = map_pointwise_join(a, w.other)
    if o1 is None or o2 is None:
        raise StateError("split: sibling other-view join undefined")
    c1 = SubjState(a, w.joint, o1)
    c2 = SubjState(b, w.joint, o2)
    if not (validate(c1) and validate(c2)):
        raise StateError("split produced an invalid child view")
    return c1, c2


def subjective_join(c1: SubjState, c2: SubjState) -> SubjState:
    """Join two sibling views back into the parent view.

    Requires equal joints and a common environment part ``c`` with
    ``other(c1) == self(c2) ∘ c`` and ``other(c2) == self(c1) ∘ c``;
    uniqueness of ``c`` follows from cancellativity of the carriers.
    """
    if c1.joint != c2.joint:
        raise StateError("join: sibling joints differ")
    c = map_subtract(c1.other, c2.self_)
    c_alt = map_subtract(c2.other, c1.self_)
    if c is None or c_alt is None or c != c_alt:
        raise StateError(
            f"join: no common environment part (got {c!r} vs {c_alt!r})"
        )
    s = map_pointwise_join(c1.self_, c2.self_)
    if s is None:
        raise StateError("join: sibling self components do not join")
    parent = SubjState(s, c1.joint, c)
    if not validate(parent):
        raise StateError("join produced an invalid parent view")
    return parent

"""Partial commutative monoids: the algebra of all auxiliary state.

A PCM is a carrier with a partial, commutative, associative ``join`` and
a unit element.  Heaps, timestamped histories, the mutual-exclusion set
{Own, NotOwn}, finite sets of thread ids, and componentwise triples of
those are all PCMs; they are the only carriers this package ships.

Elements are plain immutable Python objects tagged by their type.
Joining elements of different carriers is a *usage error* (raises
:class:`PcmMismatchError`), which is distinct from a join being
*undefined* (returns ``None``).  Keeping the two apart is what makes
undefinedness meaningful: ``Own • Own`` is undefined, ``Own • heap`` is
a bug.

Definedness (``joinable``) and order (``pcm_order``) are decided from keys,
ids and entries alone, without building the join or the ``subtract``
witness, and raise where those do.

The dataclass values (``Loc``, ``Req``, ``Resp``, ``IdSet``, ``Hist``,
``Triple``) compare by their fields, and nothing changes one once it is
built.  They are slotted, unfrozen dataclasses, since a frozen one pays an
``object.__setattr__`` per field; ``tests/test_records.py`` keeps the rule.

Every coherence check, obligation suite and memo key hashes heap cells and
histories, so no value record hashes through Python code more than once.
There is one ``Loc`` object per address: ``Loc(n)`` returns the one already
built, so a location hashes as itself, by identity.  ``Req``, ``Resp``,
``IdSet``, ``Hist`` and ``Triple`` keep the hash of their fields, computed
on first use (``fmap.hash_once``).
"""

from __future__ import annotations

import enum
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .fmap import EMPTY_MAP, FrozenMap, hash_once


class PcmMismatchError(TypeError):
    """Joined (or compared) elements of two different PCM carriers."""


# ---------------------------------------------------------------------------
# Heap values
# ---------------------------------------------------------------------------

_LOCS: dict = {}  # address -> its one Loc


@dataclass(init=False, order=True, slots=True)
class Loc:
    """An opaque heap location.  ``NULL`` is the distinguished location 0.

    There is one object per address, so a location hashes as itself and
    equals only itself.  A new one enters the table through
    ``dict.setdefault``, so threads that build the same fresh address at
    once all get the object that went in first.
    """

    n: int

    def __new__(cls, n: int):
        loc = _LOCS.get(n)
        if loc is None:
            loc = object.__new__(cls)
            loc.n = n
            loc = _LOCS.setdefault(n, loc)
        return loc

    __hash__ = object.__hash__
    __eq__ = object.__eq__

    def __repr__(self) -> str:
        return "null" if self.n == 0 else f"l{self.n}"


NULL = Loc(0)


class Sentinel:
    """A marker value, equal only to itself, that renders as ``text``."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __repr__(self):
        return self.text


UNDEF = Sentinel("?")  # contents of an allocated-but-unwritten cell


@hash_once
@dataclass(slots=True)
class Req:
    """Publication-array cell: a pending request to run ``fn`` on ``arg``."""

    fn: str
    arg: Any
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __repr__(self):
        return f"Req({self.fn}, {self.arg!r})"


@hash_once
@dataclass(slots=True)
class Resp:
    """Publication-array cell: an uncollected result."""

    val: Any
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __repr__(self):
        return f"Resp({self.val!r})"


INIT = Sentinel("Init")  # a publication-array slot with no request

# Optional results use a small tagged encoding so they stay hashable and
# render deterministically in traces.
NONE = ("None",)


def SOME(v) -> tuple:
    return ("Some", v)


def is_some(r) -> bool:
    return isinstance(r, tuple) and len(r) == 2 and r[0] == "Some"


def some_value(r):
    if not is_some(r):
        raise ValueError(f"not a Some: {r!r}")
    return r[1]


# ---------------------------------------------------------------------------
# PCM carriers
# ---------------------------------------------------------------------------

class Heap(FrozenMap):
    """Finite map from :class:`Loc` to values; join is disjoint union."""

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}->{v!r}" for k, v in self.sorted_items())
        return "{" + inner + "}"


EMPTY_HEAP = Heap()


class Mutex(enum.Enum):
    OWN = "Own"
    NOT_OWN = "NotOwn"

    def __repr__(self):
        return self.value


OWN = Mutex.OWN
NOT_OWN = Mutex.NOT_OWN


@hash_once
@dataclass(slots=True)
class IdSet:
    """A finite set of thread ids; join is disjoint union."""

    ids: frozenset = frozenset()
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __repr__(self):
        return "{" + ", ".join(str(i) for i in sorted(self.ids)) + "}"

    @staticmethod
    def of(*ids: int) -> "IdSet":
        return IdSet(frozenset(ids))


EMPTY_IDSET = IdSet()


@hash_once
@dataclass(slots=True)
class Hist:
    """A timestamped history: finite map stamp -> (pre, post) state pair.

    The payload type depends on the scenario: ``"snapshot"`` histories
    store (contents-of-x, contents-of-y, version-of-x) triples, while
    ``"stack"`` histories store tuples of stack elements (top first).
    Histories of different kinds never join; that is a usage error, not
    an undefined join.

    Entries are validated at the boundary: every ``Hist(...)`` and
    ``Hist.of(...)`` checks that each stamp is a non-negative int and
    each entry a (pre, post) pair, and raises ``ValueError`` otherwise.
    ``join``, ``subtract`` and ``unit_like`` build their results from
    histories that passed that check, so they use ``_trusted``, which
    skips it.
    """

    kind: str
    entries: FrozenMap = EMPTY_MAP
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for t, pair in self.entries.items():
            if not (isinstance(t, int) and t >= 0):
                raise ValueError(f"bad timestamp {t!r}")
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise ValueError(f"bad history entry at {t}: {pair!r}")

    @classmethod
    def _trusted(cls, kind: str, entries: FrozenMap) -> "Hist":
        """A history whose entries are already known to be well formed."""
        h = object.__new__(cls)
        h.kind = kind
        h.entries = entries
        h._hash = None
        return h

    def __repr__(self):
        inner = ", ".join(
            f"{t}->({pre!r},{post!r})" for t, (pre, post) in self.entries.sorted_items()
        )
        return "{" + inner + "}"

    @staticmethod
    def of(kind: str, entries: dict) -> "Hist":
        return Hist(kind, FrozenMap(entries))

    def stamps(self):
        return self.entries.keys()


SNAPSHOT = "snapshot"
STACK = "stack"


@hash_once
@dataclass(slots=True)
class Triple:
    """Componentwise product of (IdSet, Mutex, inner PCM element)."""

    ids: IdSet
    mx: Mutex
    aux: Any
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __repr__(self):
        return f"({self.ids!r}, {self.mx!r}, {self.aux!r})"


class _Unit:
    """The element of the one-point PCM."""

    _inst = None

    def __new__(cls):
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __repr__(self):
        return "1"


UNIT = _Unit()


# ---------------------------------------------------------------------------
# The join operation and its relatives
# ---------------------------------------------------------------------------

def _same_carrier(a, b) -> bool:
    t = type(a)
    return t is type(b) and (t is not Hist or a.kind == b.kind)


def join(a, b):
    """``a • b``: the PCM join, or ``None`` when undefined.

    Raises :class:`PcmMismatchError` when ``a`` and ``b`` do not belong
    to the same carrier.  Carriers are told apart by exact type, the most
    frequent first.
    """
    if not _same_carrier(a, b):
        raise PcmMismatchError(f"cannot join {a!r} with {b!r}")
    t = type(a)
    if t is Triple:
        ids = join(a.ids, b.ids)
        mx = join(a.mx, b.mx)
        aux = join(a.aux, b.aux)
        if ids is None or mx is None or aux is None:
            return None
        return Triple(ids, mx, aux)
    if t is Hist:
        if not b.entries:
            return a
        if not a.entries:
            return b
        merged = a.entries.merge_disjoint(b.entries)
        return None if merged is None else Hist._trusted(a.kind, merged)
    if t is Mutex:
        if a is NOT_OWN:
            return b
        if b is NOT_OWN:
            return a
        return None
    if t is IdSet:
        if not a.ids.isdisjoint(b.ids):
            return None
        return IdSet(a.ids | b.ids)
    if t is Heap:
        merged = a.merge_disjoint(b)
        return None if merged is None else Heap(merged)
    if a is UNIT:
        return UNIT
    raise PcmMismatchError(f"{a!r} is not a PCM element")


def joinable(a, b) -> bool:
    """Is ``a • b`` defined?  Decided from keys and ids alone, without building
    the join; raises :class:`PcmMismatchError` exactly where ``join`` does."""
    if not _same_carrier(a, b):
        raise PcmMismatchError(f"cannot join {a!r} with {b!r}")
    t = type(a)
    if t is Triple:
        # all three decided first, so a mixed aux raises as in ``join``
        return all([joinable(a.ids, b.ids), joinable(a.mx, b.mx), joinable(a.aux, b.aux)])
    if t is Hist:
        return a.entries.keys().isdisjoint(b.entries.keys())
    if t is Mutex:
        return a is NOT_OWN or b is NOT_OWN
    if t is IdSet:
        return a.ids.isdisjoint(b.ids)
    if t is Heap:
        return a.keys().isdisjoint(b.keys())
    if a is UNIT:
        return True
    raise PcmMismatchError(f"{a!r} is not a PCM element")


def unit_like(x):
    """The unit of ``x``'s carrier."""
    if isinstance(x, Heap):
        return EMPTY_HEAP
    if isinstance(x, Hist):
        return Hist._trusted(x.kind, EMPTY_MAP)
    if isinstance(x, Mutex):
        return NOT_OWN
    if isinstance(x, IdSet):
        return EMPTY_IDSET
    if isinstance(x, Triple):
        return Triple(EMPTY_IDSET, NOT_OWN, unit_like(x.aux))
    if x is UNIT:
        return UNIT
    raise PcmMismatchError(f"{x!r} is not a PCM element")


def is_unit(x) -> bool:
    return x == unit_like(x)


def subtract(whole, part):
    """The unique ``g`` with ``part • g == whole``, or ``None``.

    All shipped carriers are cancellative (heaps, histories and id sets
    by map/set difference, the mutex by case analysis), so when a
    witness exists it is unique.
    """
    if not _same_carrier(whole, part):
        raise PcmMismatchError(f"cannot subtract {part!r} from {whole!r}")
    if isinstance(whole, Heap) or isinstance(whole, Hist):
        wm = whole.entries if isinstance(whole, Hist) else whole
        pm = part.entries if isinstance(part, Hist) else part
        rest = {}
        for k, v in wm.items():
            if k in pm:
                if pm[k] != v:
                    return None
            else:
                rest[k] = v
        if len(rest) + len(pm) != len(wm):
            return None  # part has keys outside whole
        if isinstance(whole, Hist):
            return Hist._trusted(whole.kind, FrozenMap(rest))
        return Heap(rest)
    if isinstance(whole, Mutex):
        if part is NOT_OWN:
            return whole
        return NOT_OWN if whole is OWN else None
    if isinstance(whole, IdSet):
        if part.ids <= whole.ids:
            return IdSet(whole.ids - part.ids)
        return None
    if isinstance(whole, Triple):
        ids = subtract(whole.ids, part.ids)
        mx = subtract(whole.mx, part.mx)
        aux = subtract(whole.aux, part.aux)
        if ids is None or mx is None or aux is None:
            return None
        return Triple(ids, mx, aux)
    if whole is UNIT:
        return UNIT
    raise PcmMismatchError(f"{whole!r} is not a PCM element")


def pcm_order(g1, g2) -> bool:
    """``g1 ⊑ g2``: does some ``g`` exist with ``g1 • g == g2``?  Decided by
    inclusion, without building ``subtract(g2, g1)``, and raises where it does."""
    if not _same_carrier(g2, g1):
        raise PcmMismatchError(f"cannot subtract {g1!r} from {g2!r}")
    t = type(g2)
    if t is Hist:
        return g1.entries.items() <= g2.entries.items()
    if t is Heap:
        return g1.items() <= g2.items()
    if t is Triple:
        return all([pcm_order(g1.ids, g2.ids), pcm_order(g1.mx, g2.mx), pcm_order(g1.aux, g2.aux)])
    if t is Mutex:
        return g1 is NOT_OWN or g2 is OWN
    if t is IdSet:
        return g1.ids <= g2.ids
    if g2 is UNIT:
        return True
    raise PcmMismatchError(f"{g2!r} is not a PCM element")


# ---------------------------------------------------------------------------
# Label-indexed maps
# ---------------------------------------------------------------------------
#
# A PCM-map assigns a PCM element to each label; a type map assigns an
# arbitrary value.  Labels are short strings ("pv", "tb", ...).

def map_pointwise_join(m1: FrozenMap, m2: FrozenMap) -> Optional[FrozenMap]:
    """``m1 ∘ m2``: per-label join; requires equal label sets."""
    if m1.keys() != m2.keys():
        return None
    out = {}
    for lbl in m1:
        j = join(m1[lbl], m2[lbl])
        if j is None:
            return None
        out[lbl] = j
    return FrozenMap(out)


def map_subtract(whole: FrozenMap, part: FrozenMap) -> Optional[FrozenMap]:
    if whole.keys() != part.keys():
        return None
    out = {}
    for lbl in whole:
        d = subtract(whole[lbl], part[lbl])
        if d is None:
            return None
        out[lbl] = d
    return FrozenMap(out)


def unit_map_like(m: FrozenMap) -> FrozenMap:
    return FrozenMap({lbl: unit_like(v) for lbl, v in m.items()})


# ---------------------------------------------------------------------------
# Instances and law checking
# ---------------------------------------------------------------------------

@dataclass
class PcmInstance:
    """A named PCM carrier with a unit and a random-element sampler."""

    name: str
    unit: Any
    sample: Callable[[random.Random], Any]
    exhaustive: Optional[list] = None  # full carrier, when finite & small


def _sample_heap(rng: random.Random) -> Heap:
    cells = {}
    for loc in rng.sample(range(1, 9), rng.randint(0, 3)):
        cells[Loc(loc)] = rng.randint(0, 5)
    return Heap(cells)


def _sample_idset(rng: random.Random) -> IdSet:
    return IdSet(frozenset(rng.sample(range(6), rng.randint(0, 3))))


def _sample_mutex(rng: random.Random) -> Mutex:
    return rng.choice([OWN, NOT_OWN])


def _sample_stack_hist(rng: random.Random) -> Hist:
    entries = {}
    for t in rng.sample(range(8), rng.randint(0, 3)):
        pre = tuple(rng.sample("abcd", rng.randint(0, 2)))
        if rng.random() < 0.5:
            post = (rng.choice("abcd"),) + pre
        else:
            post = pre[1:] if pre else (rng.choice("abcd"),)
        entries[t] = (pre, post)
    return Hist.of(STACK, entries)


def _sample_snapshot_hist(rng: random.Random) -> Hist:
    entries = {}
    for t in rng.sample(range(8), rng.randint(0, 3)):
        entries[t] = (
            (rng.choice("AB"), rng.choice("CD"), rng.randint(0, 3)),
            (rng.choice("AB"), rng.choice("CD"), rng.randint(0, 4)),
        )
    return Hist.of(SNAPSHOT, entries)


def _sample_triple(rng: random.Random) -> Triple:
    return Triple(_sample_idset(rng), _sample_mutex(rng), _sample_stack_hist(rng))


HEAP_PCM = PcmInstance("heap", EMPTY_HEAP, _sample_heap)
MUTEX_PCM = PcmInstance("mutex", NOT_OWN, _sample_mutex, exhaustive=[OWN, NOT_OWN])
IDSET_PCM = PcmInstance("idset", EMPTY_IDSET, _sample_idset)
STACK_HIST_PCM = PcmInstance("history[stack]", Hist(STACK), _sample_stack_hist)
SNAPSHOT_HIST_PCM = PcmInstance("history[snapshot]", Hist(SNAPSHOT), _sample_snapshot_hist)
TRIPLE_PCM = PcmInstance(
    "triple", Triple(EMPTY_IDSET, NOT_OWN, Hist(STACK)), _sample_triple
)
UNIT_PCM = PcmInstance("unit", UNIT, lambda rng: UNIT, exhaustive=[UNIT])

SHIPPED_INSTANCES = [
    HEAP_PCM,
    MUTEX_PCM,
    IDSET_PCM,
    STACK_HIST_PCM,
    SNAPSHOT_HIST_PCM,
    TRIPLE_PCM,
    UNIT_PCM,
]


@dataclass
class LawReport:
    instance: str
    samples: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "instance": self.instance,
            "samples": self.samples,
            "violations": [str(v) for v in self.violations[:20]],
            "ok": self.ok,
        }


def check_pcm_laws(
    inst: PcmInstance,
    n: int,
    rng: Optional[random.Random] = None,
    join_fn: Callable = join,
) -> LawReport:
    """Test commutativity, associativity, and the unit law on sampled triples.

    ``join_fn`` is swappable so tests can hand in a deliberately broken
    join and watch the report flag it.  An undefined operand makes the
    whole expression undefined; two expressions agree when both are
    undefined or both are defined and equal.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = rng or random.Random(0)
    report = LawReport(inst.name, 0)

    if inst.exhaustive is not None:
        pool = inst.exhaustive
        triples = [(a, b, c) for a in pool for b in pool for c in pool]
    else:
        triples = [
            (inst.sample(rng), inst.sample(rng), inst.sample(rng)) for _ in range(n)
        ]

    def opt_join(x, y):
        if x is None or y is None:
            return None
        return join_fn(x, y)

    for a, b, c in triples:
        report.samples += 1
        ab, ba = opt_join(a, b), opt_join(b, a)
        if ab != ba:
            report.violations.append(f"commutativity: {a!r} • {b!r}")
        lhs = opt_join(ab, c)
        rhs = opt_join(a, opt_join(b, c))
        if lhs != rhs:
            report.violations.append(f"associativity: {a!r}, {b!r}, {c!r}")
        if opt_join(a, inst.unit) != a:
            report.violations.append(f"unit law: {a!r}")
    return report


# ---------------------------------------------------------------------------
# Canonical rendering (used by traces and reports)
# ---------------------------------------------------------------------------

def render(v) -> str:
    """Deterministic text form of any value stored in states or traces."""
    if isinstance(v, (Heap, Hist, IdSet, Triple, Loc, Mutex, Req, Resp)):
        return repr(v)
    if v is UNIT or v is UNDEF or v is INIT:
        return repr(v)
    if isinstance(v, FrozenMap):
        return "{" + ", ".join(f"{k}: {render(x)}" for k, x in v.sorted_items()) + "}"
    if isinstance(v, tuple):
        return "(" + ", ".join(render(x) for x in v) + ")"
    if isinstance(v, Counter):
        return "{" + ", ".join(render(k) for k in sorted(v.elements(), key=repr)) + "}"
    if v is None:
        return "None"
    return repr(v)

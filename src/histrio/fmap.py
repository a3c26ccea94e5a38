"""Immutable finite maps with canonical ordering and cached hashes.

Every piece of program state in this package (heaps, histories, label
maps, environments) is a finite map that must be hashable, comparable,
and renderable in a deterministic order.  ``FrozenMap`` provides exactly
that; all mutators return fresh maps.  ``hash_once`` gives the value
records that are hashed many times over the same cached hash.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter
from typing import Any, Iterable, Iterator, Optional


def hash_once(cls):
    """Class decorator for a dataclass that hashes by its compared fields and
    keeps the hash in its ``_hash`` field, which must be declared with
    ``compare=False`` and default ``None``.

    The record must never change once built; the hash is computed on first
    use, from an ``attrgetter`` of the compared fields.
    """
    fields = dataclasses.fields(cls)
    if not any(f.name == "_hash" and not f.compare and f.default is None for f in fields):
        raise TypeError(f"{cls.__name__} has no non-compared _hash field defaulting to None")
    key = attrgetter(*[f.name for f in fields if f.compare])

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(key(self))
        return h

    cls.__hash__ = __hash__
    return cls


class FrozenMap:
    """A hashable finite map.  Keys must be mutually orderable.

    The read-only mapping surface is ``m[k]``, ``k in m``, ``len(m)``,
    iteration over keys, ``get``, ``keys``, ``items`` and ``values``;
    the last three return the underlying dict's own (read-only) views,
    so ``dict(m)`` and view set operations work as for a dict.  It is
    deliberately not a ``collections.abc.Mapping``: the ABC routes every
    ``isinstance`` test on the map classes through ``ABCMeta`` and its
    views through Python-level code, both on the explorer's hot path.

    Two maps are equal when they are of the same class and their contents
    are equal, whatever the insertion order: a ``Heap`` never equals a
    plain ``FrozenMap`` with the same cells, since only the heap joins as a
    heap, and no map equals a plain ``dict``.  ``set``, ``remove``,
    ``restrict`` and ``without`` keep the class; ``merge_disjoint``
    returns a plain map.
    """

    __slots__ = ("_d", "_hash")

    def __init__(self, items: FrozenMap | dict | Iterable[tuple[Any, Any]] = ()):
        if isinstance(items, FrozenMap):
            self._d = items._d
            self._hash = items._hash
            return
        self._d = dict(items)
        self._hash = None

    def __getitem__(self, key):
        return self._d[key]

    def __iter__(self) -> Iterator:
        return iter(self._d)

    def __len__(self) -> int:
        return len(self._d)

    def __contains__(self, key) -> bool:
        return key in self._d

    def get(self, key, default=None):
        return self._d.get(key, default)

    def keys(self):
        return self._d.keys()

    def items(self):
        return self._d.items()

    def values(self):
        return self._d.values()

    def __eq__(self, other) -> bool:
        if isinstance(other, FrozenMap):
            return type(self) is type(other) and self._d == other._d
        return NotImplemented

    def __ne__(self, other) -> bool:
        if isinstance(other, FrozenMap):
            return type(self) is not type(other) or self._d != other._d
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._d.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in self.sorted_items())
        return "{" + inner + "}"

    def sorted_items(self) -> list[tuple[Any, Any]]:
        return sorted(self._d.items(), key=lambda kv: kv[0])

    def set(self, key, value) -> "FrozenMap":
        d = dict(self._d)
        d[key] = value
        return type(self)(d)

    def remove(self, key) -> "FrozenMap":
        d = dict(self._d)
        del d[key]
        return type(self)(d)

    def merge_disjoint(self, other: "FrozenMap") -> Optional["FrozenMap"]:
        """Union of two maps, or ``None`` when their key sets overlap."""
        a, b = self._d, other._d
        if not b:
            return self if type(self) is FrozenMap else FrozenMap(self)
        if not a:
            return other if type(other) is FrozenMap else FrozenMap(other)
        d = {**a, **b}
        if len(d) != len(a) + len(b):
            return None
        return FrozenMap(d)

    def restrict(self, keys) -> "FrozenMap":
        return type(self)({k: v for k, v in self._d.items() if k in keys})

    def without(self, keys) -> "FrozenMap":
        return type(self)({k: v for k, v in self._d.items() if k not in keys})


EMPTY_MAP = FrozenMap()

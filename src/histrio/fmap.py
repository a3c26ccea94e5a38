"""Immutable finite maps with canonical ordering and cached hashes.

Every piece of program state in this package (heaps, histories, label
maps, environments) is a finite map that must be hashable, comparable,
and renderable in a deterministic order.  ``FrozenMap`` provides exactly
that as a ``dict`` that refuses to change: its reads are dict's own, and
its updates (``set``, ``remove``, ...) return fresh maps.  ``hash_once``
gives the value records that are hashed many times over the same cached
hash.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter
from typing import Any, Optional


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


# dict's own methods, which FrozenMap's overrides do not reach: comparison,
# and the writes that fill a fresh map before anyone else holds it
_dict_eq = dict.__eq__
_dict_ne = dict.__ne__
_dict_set = dict.__setitem__
_dict_del = dict.__delitem__
_dict_update = dict.update


def _refuse(self, *args, **kwargs):
    raise TypeError(f"{type(self).__name__} is immutable")


class FrozenMap(dict):
    """A hashable finite map.  Keys must be mutually orderable.

    It is a ``dict``, so every read (``m[k]``, ``k in m``, ``len(m)``,
    iteration, ``get``, ``keys``, ``items``, ``values``) and every
    construction, from a dict, a map or pairs, is dict's own C code.
    Subclassing ``dict`` is safe for three reasons.  Every dict mutator
    raises ``TypeError``; only this module writes, through ``dict``'s own
    methods, and only into a map it has just built.  Equality is
    class-sensitive (below), not dict's.  And since no map changes once
    built, its hash is computed on first use and kept in ``_hash``.

    Two maps are equal when they are of the same class and their contents
    are equal, whatever the insertion order: a ``Heap`` never equals a
    plain ``FrozenMap`` with the same cells, since only the heap joins as a
    heap, and no map equals a plain ``dict``.  ``set``, ``remove``,
    ``restrict`` and ``without`` keep the class; ``merge_disjoint``
    returns a plain map.
    """

    __slots__ = ("_hash",)

    __setitem__ = __delitem__ = __ior__ = _refuse
    update = pop = popitem = setdefault = clear = _refuse

    def __eq__(self, other) -> bool:
        if type(self) is type(other):
            return _dict_eq(self, other)
        return False if isinstance(other, dict) else NotImplemented

    def __ne__(self, other) -> bool:
        if type(self) is type(other):
            return _dict_ne(self, other)
        return True if isinstance(other, dict) else NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = self._hash = hash(frozenset(self.items()))
            return h

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in self.sorted_items())
        return "{" + inner + "}"

    def sorted_items(self) -> list[tuple[Any, Any]]:
        return sorted(self.items(), key=lambda kv: kv[0])

    def set(self, key, value) -> "FrozenMap":
        m = type(self)(self)
        _dict_set(m, key, value)
        return m

    def remove(self, key) -> "FrozenMap":
        m = type(self)(self)
        _dict_del(m, key)
        return m

    def merge_disjoint(self, other: "FrozenMap") -> Optional["FrozenMap"]:
        """Union of two maps, or ``None`` when their key sets overlap."""
        if not other:
            return self if type(self) is FrozenMap else FrozenMap(self)
        if not self:
            return other if type(other) is FrozenMap else FrozenMap(other)
        m = FrozenMap(self)
        _dict_update(m, other)
        if len(m) != len(self) + len(other):
            return None
        return m

    def restrict(self, keys) -> "FrozenMap":
        return type(self)({k: v for k, v in self.items() if k in keys})

    def without(self, keys) -> "FrozenMap":
        return type(self)({k: v for k, v in self.items() if k not in keys})


EMPTY_MAP = FrozenMap()

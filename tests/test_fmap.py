"""FrozenMap: the read-only mapping surface, equality, hashing and the
refused dict mutators."""

import pytest

from histrio.fmap import EMPTY_MAP, FrozenMap
from histrio.pcm import Heap, Loc


@pytest.mark.parametrize("cls", [FrozenMap, Heap])
def test_mapping_surface(cls):
    m = cls({Loc(2): "b", Loc(1): "a"})
    assert m[Loc(1)] == "a"
    with pytest.raises(KeyError):
        m[Loc(3)]
    assert Loc(2) in m and Loc(3) not in m
    assert len(m) == 2 and len(cls()) == 0
    assert list(m) == [Loc(2), Loc(1)]
    assert set(m.keys()) == {Loc(1), Loc(2)}
    assert set(m.items()) == {(Loc(1), "a"), (Loc(2), "b")}
    assert sorted(m.values()) == ["a", "b"]
    assert m.get(Loc(1)) == "a"
    assert m.get(Loc(3)) is None
    assert m.get(Loc(3), 0) == 0
    assert dict(m) == {Loc(1): "a", Loc(2): "b"}
    assert m.keys() - {Loc(1)} == {Loc(2)}
    assert not hasattr(m.keys(), "add")


@pytest.mark.parametrize("cls", [FrozenMap, Heap])
def test_equality_and_hash_ignore_insertion_order(cls):
    a = cls({Loc(1): "a", Loc(2): "b"})
    b = cls([(Loc(2), "b"), (Loc(1), "a")])
    assert a == b and not (a != b)
    assert hash(a) == hash(b)
    assert a != cls({Loc(1): "a"})
    assert a != cls({Loc(1): "a", Loc(2): "c"})
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", [FrozenMap, Heap])
def test_never_equal_to_a_plain_dict(cls):
    d = {Loc(1): "a"}
    m = cls(d)
    assert (m == d) is False and (d == m) is False
    assert m != d
    assert cls() != {}


def test_mutators_return_fresh_maps():
    m = FrozenMap({"x": 1})
    assert m.set("y", 2) == FrozenMap({"x": 1, "y": 2})
    assert m.remove("x") == EMPTY_MAP
    assert m.restrict({"x"}) == m and m.without({"x"}) == EMPTY_MAP
    assert m == FrozenMap({"x": 1})


def test_merge_disjoint():
    a, b = FrozenMap({"x": 1}), FrozenMap({"y": 2})
    assert a.merge_disjoint(b) == FrozenMap({"x": 1, "y": 2})
    assert a.merge_disjoint(FrozenMap({"x": 1})) is None
    assert a.merge_disjoint(EMPTY_MAP) == a
    assert EMPTY_MAP.merge_disjoint(a) == a
    # the union of two heaps is a plain map, whichever operand is empty
    h = Heap({Loc(1): 0})
    assert type(h.merge_disjoint(Heap())) is FrozenMap
    assert type(Heap().merge_disjoint(h)) is FrozenMap


def test_a_heap_never_equals_a_plain_map_with_the_same_cells():
    h, m = Heap({Loc(1): 0}), FrozenMap({Loc(1): 0})
    assert h != m and m != h
    assert not (h == m) and not (m == h)
    assert Heap() != EMPTY_MAP
    assert len({FrozenMap({"pv": h}), FrozenMap({"pv": m})}) == 2


def test_mutators_keep_the_heap_class():
    h = Heap({Loc(1): 0, Loc(2): 1})
    for m in (h.set(Loc(3), 2), h.remove(Loc(1)), h.restrict({Loc(1)}),
              h.without({Loc(1)})):
        assert type(m) is Heap
    assert h.restrict({Loc(1)}) == Heap({Loc(1): 0})
    assert h.without({Loc(1)}) == Heap({Loc(2): 1})


# every dict method that writes into the dict it is called on
MUTATIONS = {
    "__setitem__": lambda m: m.__setitem__(Loc(9), 0),
    "__delitem__": lambda m: m.__delitem__(Loc(1)),
    "update": lambda m: m.update({Loc(9): 0}),
    "pop": lambda m: m.pop(Loc(1)),
    "popitem": lambda m: m.popitem(),
    "setdefault": lambda m: m.setdefault(Loc(9), 0),
    "clear": lambda m: m.clear(),
    "__ior__": lambda m: m.__ior__({Loc(9): 0}),
}


@pytest.mark.parametrize("cls", [FrozenMap, Heap])
def test_every_dict_mutator_raises(cls):
    m = cls({Loc(1): "a", Loc(2): "b"})
    h = hash(m)
    for mutate in MUTATIONS.values():
        with pytest.raises(TypeError, match="immutable"):
            mutate(m)
    with pytest.raises(TypeError, match="immutable"):
        m |= {Loc(9): 0}
    assert m == cls({Loc(1): "a", Loc(2): "b"}) and hash(m) == h


@pytest.mark.parametrize("cls", [FrozenMap, Heap])
def test_set_remove_and_merge_leave_their_operands_unchanged(cls):
    """Each builds a fresh map: the operands' own dict contents are as
    before, compared through dict's methods, which no override reaches."""
    a, b, empty = cls({Loc(1): "a", Loc(2): "b"}), cls({Loc(3): "c"}), cls()
    before = [(m, dict.copy(m), hash(m)) for m in (a, b, empty)]
    assert dict.__eq__(a.set(Loc(1), "z"), {Loc(1): "z", Loc(2): "b"})
    assert dict.__eq__(a.set(Loc(4), "d"), {Loc(1): "a", Loc(2): "b", Loc(4): "d"})
    assert dict.__eq__(a.remove(Loc(1)), {Loc(2): "b"})
    assert dict.__eq__(empty.set(Loc(5), "e"), {Loc(5): "e"})
    assert dict.__eq__(a.merge_disjoint(b), {Loc(1): "a", Loc(2): "b", Loc(3): "c"})
    assert dict.__eq__(b.merge_disjoint(a), {Loc(1): "a", Loc(2): "b", Loc(3): "c"})
    assert a.merge_disjoint(a) is None
    assert dict.__eq__(a.merge_disjoint(empty), a) and dict.__eq__(empty.merge_disjoint(b), b)
    for m, contents, h in before:
        assert dict.__eq__(m, contents) and hash(m) == h


@pytest.mark.parametrize("cls", [FrozenMap, Heap])
def test_the_read_surface_is_dicts_own(cls):
    """Every read runs dict's C method: a Python-level wrapper put back on
    the map classes shows up here."""
    for name in ("__getitem__", "__len__", "__contains__", "__iter__",
                 "get", "keys", "items", "values"):
        assert getattr(cls, name) is getattr(dict, name), name
    assert "__init__" not in vars(cls) and "__new__" not in vars(cls)


@pytest.mark.parametrize("cls", [FrozenMap, Heap])
def test_equal_maps_hash_equal_however_built(cls):
    cells = {"x": 1, "y": 2}
    built = [
        cls(cells),
        cls([("y", 2), ("x", 1)]),
        cls(cls(cells)),
        cls(x=1, y=2),
        cls({"x": 1}).set("y", 2),
        cls({"x": 1, "y": 2, "z": 3}).remove("z"),
        cls(cells).set("z", 3).remove("z"),
    ]
    for m in built:
        assert type(m) is cls and m == built[0], m
        assert hash(m) == hash(built[0]) == hash(frozenset(cells.items())), m
    assert len(set(built)) == 1

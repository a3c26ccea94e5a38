"""Source hygiene: every dataclass field declared in the package is read,
every top-level function and class is named, every defaulted parameter is
passed somewhere, every import is read, no function keeps a process-wide
cache, and no record is frozen.

A field that no code reads is carried by every constructor call and every
instance for nothing.  The scan is syntactic, and credits a read to a
class only where it can tell the receiver's class (``FieldReads``): a
read of ``home`` on one class does not count for another class's
``home``.  The fields read only through receivers it cannot type are
listed by name, each with where it is read (``UNTYPED_FIELD_READS``).

A top-level function or class counts as named when code in
``src/histrio`` or ``perfbench/`` names it outside its own definition: a
call, an attribute, an import.  The benchmark counts because it calls
entry points that no shipped run does, such as ``erasure.compare_erased``.
Tests do not count: code that only tests reach belongs under ``tests/``.

A defaulted parameter of a top-level function counts as passed when some
call in ``src/histrio``, ``perfbench/`` or ``tests/`` to a function of that
name passes it, by position or by keyword.  One that no call passes is a
knob with one value, which the body should state instead.

Every name a module binds with a top-level import is read in that
module: an import left behind by a deletion costs a load at start-up and
misleads the reader about what the module depends on.  ``__init__.py``
files, whose imports are re-exports, and ``from __future__`` imports are
exempt.

No function in the package memoizes through ``functools.lru_cache`` or
``functools.cache``: such a cache outlives the run that filled it, so a
later run, or a test that swaps out a function, would read another run's
results.  What a run decides once lives in its fact table
(``state.fact_table``) and goes with the run.  The one process-wide table
is ``pcm.Loc``'s, of one object per heap address: it stores no computed
fact, only the location itself, so a swapped function cannot make it
stale, and it grows only to the highest address built.

A frozen dataclass's ``__init__`` stores each field through
``object.__setattr__``, which makes the explorer's states, histories and
tree nodes dearer to build.  So no dataclass in the package
is frozen; ``test_records.py`` keeps the value records unchanged after
construction instead.  ``object.__setattr__`` may only fill a cache slot.

No code builds a PCM element only to test whether it exists: a call of
``join``, ``map_pointwise_join``, ``subtract`` or ``map_subtract`` compared
with ``is None`` or ``is not None`` builds a join or a witness and drops
it.  ``pcm.joinable`` and ``pcm.pcm_order`` answer those questions from
keys alone.  The scan is syntactic, so a result bound to a name first
and tested later is allowed: that code keeps the element.

No function in ``scheduler.py`` calls itself, by its name or as a method
of ``self``: the explorer walks its search and its threads with loops and
explicit stacks, so the depth of a run is not limited by Python's
recursion limit.

``fmap.FrozenMap`` is a ``dict`` whose mutators raise, so the one way
to change a map is to call ``dict``'s own mutator on it, as
``dict.__setitem__(m, k, v)``.  Only ``fmap.py`` does, and only on a map
it has just built.  Since every map is now a ``dict``, an
``isinstance(..., dict)`` test also accepts one; each such test in the
package and the tests is listed here with why no map reaches it.
"""

import ast
import math
import pathlib
from collections import Counter, defaultdict
from typing import Optional

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "histrio"


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _is_classvar(annotation: ast.expr) -> bool:
    target = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    return ast.unparse(target).endswith("ClassVar")


def dataclass_fields(trees: dict) -> list[tuple[str, str, str]]:
    """(module, class, field) for every field of every dataclass."""
    out = []
    for path, tree in trees.items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and not _is_classvar(stmt.annotation)):
                    out.append((path, cls.name, stmt.target.id))
    return out


def frozen_dataclasses(trees: dict) -> list[tuple[str, str]]:
    """(module, class) for every dataclass declared with ``frozen=True``."""
    return [(path, cls.name) for path, tree in trees.items() for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
            and any(kw.arg == "frozen" and ast.unparse(kw.value) != "False"
                    for dec in cls.decorator_list if isinstance(dec, ast.Call)
                    for kw in dec.keywords)]


CACHE_SLOTS = {"_hash", "_valid", "_flat"}


def setattr_stores(trees: dict) -> list[tuple[str, int, str]]:
    """(module, line, attribute) for every ``object.__setattr__`` call that
    does not name a cache slot."""
    out = []
    for path, tree in trees.items():
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and ast.unparse(call.func) == "object.__setattr__":
                args = call.args
                name = (args[1].value if len(args) > 1 and isinstance(args[1], ast.Constant)
                        else "?")
                if name not in CACHE_SLOTS:
                    out.append((path, call.lineno, name))
    return out


PROCESS_CACHES = {"lru_cache", "cache"}


def process_caches(trees: dict) -> list[tuple[str, int, str]]:
    """(module, line, name) for every mention of ``functools.lru_cache`` or
    ``functools.cache``: an attribute of ``functools``, or a name imported
    from it."""
    out = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in PROCESS_CACHES
                    and ast.unparse(node.value) == "functools"):
                out.append((path, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                out += [(path, node.lineno, a.name) for a in node.names
                        if a.name in PROCESS_CACHES]
    return sorted(out)


BUILDERS = {"join", "map_pointwise_join", "subtract", "map_subtract", "_union"}


def built_then_tested(trees: dict) -> list[tuple[str, int, str]]:
    """(module, line, callee) for every call of a ``BUILDERS`` function that
    is compared with ``is None`` or ``is not None``."""
    out = []
    for path, tree in trees.items():
        for cmp in ast.walk(tree):
            if not (isinstance(cmp, ast.Compare)
                    and all(isinstance(op, (ast.Is, ast.IsNot)) for op in cmp.ops)):
                continue
            for side in (cmp.left, *cmp.comparators):
                if isinstance(side, ast.Call):
                    f = side.func
                    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                    if name in BUILDERS:
                        out.append((path, cmp.lineno, name))
    return sorted(out)


DICT_MUTATORS = {"__setitem__", "__delitem__", "__init__", "__ior__", "update", "pop",
                 "popitem", "setdefault", "clear"}


def dict_writes(trees: dict) -> list[tuple[str, int, str]]:
    """(module, line, method) for every mention of one of ``dict``'s own
    mutators, called or bound to a name, outside ``fmap.py``."""
    return sorted((path, node.lineno, node.attr) for path, tree in trees.items()
                  if path != "fmap.py" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in DICT_MUTATORS
                  and isinstance(node.value, ast.Name) and node.value.id == "dict")


def dict_type_tests(trees: dict) -> list[tuple[str, str]]:
    """(module, innermost enclosing function) for every ``isinstance`` call
    whose class argument names ``dict``."""
    out = []

    def visit(node, path, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, child.name)
                continue
            if (isinstance(child, ast.Call) and getattr(child.func, "id", None) == "isinstance"
                    and len(child.args) == 2 and "dict" in names_in(child.args[1])):
                out.append((path, fn))
            visit(child, path, fn)

    for path, tree in trees.items():
        visit(tree, path, "<module>")
    return sorted(out)


def self_calls(trees: dict) -> list[tuple[str, int, str]]:
    """(module, line, function) for every function, nested or a method,
    whose body calls it by its name or as ``self.<name>``."""
    out = []
    for path, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                if (isinstance(f, ast.Name) and f.id == fn.name
                        or isinstance(f, ast.Attribute) and f.attr == fn.name
                        and isinstance(f.value, ast.Name) and f.value.id == "self"):
                    out.append((path, call.lineno, fn.name))
    return sorted(out)


def unread_imports(trees: dict) -> list[tuple[str, int, str]]:
    """(module, line, name) for every name bound by a top-level import of a
    module other than ``__init__.py`` that the module never loads."""
    out = []
    for path, tree in trees.items():
        if pathlib.PurePath(path).name == "__init__.py":
            continue
        loaded = {n.id for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for stmt in tree.body:
            if isinstance(stmt, ast.Import) or (isinstance(stmt, ast.ImportFrom)
                                                and stmt.module != "__future__"):
                out += [(path, stmt.lineno, name) for a in stmt.names
                        if (name := a.asname or a.name.partition(".")[0]) not in loaded]
    return sorted(out)


def _class_named(ann: ast.expr, classes: set) -> Optional[str]:
    """The package class an annotation names, as ``C``, ``"C"``, ``m.C`` or
    ``Optional[C]``; None for any other annotation."""
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        try:
            ann = ast.parse(ann.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(ann, ast.Subscript) and ast.unparse(ann.value).endswith("Optional"):
        ann = ann.slice
    name = ann.attr if isinstance(ann, ast.Attribute) else getattr(ann, "id", None)
    return name if name in classes else None


class _Classes:
    """The package's classes: their bases, the class each field, property
    and ``__init__``-set attribute is annotated with, the class each method
    and each top-level function is annotated to return."""

    def __init__(self, trees: dict):
        defs = [c for t in trees.values() for c in ast.walk(t) if isinstance(c, ast.ClassDef)]
        self.names = {c.name for c in defs}
        self.bases = {c.name: [ast.unparse(b).rpartition(".")[2] for b in c.bases] for c in defs}
        self.members: dict = defaultdict(dict)  # class -> attribute -> class
        self.methods: dict = defaultdict(dict)  # class -> method -> returned class
        for c in defs:
            for stmt in c.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    self.members[c.name][stmt.target.id] = self.named(stmt.annotation)
                elif isinstance(stmt, ast.FunctionDef):
                    if stmt.name == "__init__":
                        self._init_members(c.name, stmt)
                    property_ = "property" in map(ast.unparse, stmt.decorator_list)
                    table = self.members if property_ else self.methods
                    table[c.name][stmt.name] = self.named(stmt.returns)
        returns = defaultdict(set)
        for t in trees.values():
            for fn in t.body:
                if isinstance(fn, ast.FunctionDef):
                    returns[fn.name].add(self.named(fn.returns))
        self.functions = {f: r.pop() for f, r in returns.items() if len(r) == 1}

    def _init_members(self, cls: str, init: ast.FunctionDef):
        """``self.a = p`` in ``__init__``, ``p`` a parameter annotated with a
        package class."""
        params = {p.arg: self.named(p.annotation) for p in init.args.args}
        for node in ast.walk(init):
            if isinstance(node, ast.Assign) and params.get(getattr(node.value, "id", None)):
                for tgt in node.targets:
                    if (isinstance(tgt, ast.Attribute)
                            and getattr(tgt.value, "id", None) == init.args.args[0].arg):
                        self.members[cls].setdefault(tgt.attr, params[node.value.id])

    def named(self, ann: Optional[ast.expr]) -> Optional[str]:
        return None if ann is None else _class_named(ann, self.names)

    def lineage(self, cls: str) -> list:
        """The class and its bases in the package."""
        out, todo = [], [cls]
        while todo:
            c = todo.pop()
            if c in self.bases and c not in out:
                out.append(c)
                todo += self.bases[c]
        return out

    def lookup(self, cls: str, attr: str, table: dict) -> Optional[str]:
        return next((table[c][attr] for c in self.lineage(cls) if attr in table[c]), None)


def _bound_names(target: ast.expr) -> list:
    """The names an assignment target binds, not those it stores into."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [n for e in target.elts for n in _bound_names(e)]
    if isinstance(target, ast.Starred):
        return _bound_names(target.value)
    return []


def _local_nodes(stmts: list):
    """The nodes of a body, nested definitions included but not their
    insides."""
    todo = list(stmts)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Lambda)):
            todo += ast.iter_child_nodes(node)


class FieldReads:
    """Every attribute load in ``trees``, as a read of a known class where
    the scan can tell the receiver's class, else by attribute name alone.

    A receiver's class is known where it is ``self`` in a method, a name
    every binding of which in its function has one class (a parameter's
    annotation, a constructor call, a call of a function or method
    annotated to return the class), a name inside an ``if`` or ``and`` that
    tests ``isinstance(name, C)``, or an attribute of a receiver of known
    class, annotated with a class."""

    def __init__(self, trees: dict):
        self.classes = _Classes(trees)
        self.typed: set = set()  # (class, attribute)
        self.untyped: set = set()  # attribute
        for tree in trees.values():
            for stmt in tree.body:
                self._visit(stmt, {}, None)

    def _class_of(self, e: ast.expr, env: dict) -> Optional[str]:
        c = self.classes
        if isinstance(e, ast.Name):
            return env.get(e.id)
        if isinstance(e, ast.Attribute):
            recv = self._class_of(e.value, env)
            return recv and c.lookup(recv, e.attr, c.members)
        if not isinstance(e, ast.Call):
            return None
        f = e.func
        if isinstance(f, ast.Name):
            return f.id if f.id in c.names else c.functions.get(f.id)
        if not isinstance(f, ast.Attribute):
            return None
        recv = self._class_of(f.value, env)
        if recv is not None:
            return c.lookup(recv, f.attr, c.methods)
        if f.attr in c.names:
            return f.attr
        if isinstance(f.value, ast.Name) and f.value.id not in env:
            return c.functions.get(f.attr)  # a function called through its module
        return None

    def _narrowed(self, test: ast.expr, env: dict) -> dict:
        """``env`` with each ``isinstance(name, C)`` conjunct of ``test``."""
        env = dict(env)
        conjuncts = test.values if isinstance(test, ast.BoolOp) and isinstance(
            test.op, ast.And) else [test]
        for t in conjuncts:
            if (isinstance(t, ast.Call) and getattr(t.func, "id", None) == "isinstance"
                    and isinstance(t.args[0], ast.Name)):
                cls = self.classes.named(t.args[1])
                if cls is not None:
                    env[t.args[0].id] = cls
        return env

    def _function(self, fn, env: dict, owner: Optional[str]):
        a = fn.args
        params = [p for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
        body = fn.body if isinstance(fn, ast.FunctionDef) else [ast.Expr(fn.body)]
        # name -> the expressions it is bound to; a class name stands for a
        # parameter's annotation, None for a binding of no known class
        binds = defaultdict(list)
        for p in params:
            binds[p.arg].append(self.classes.named(p.annotation))
        decorators = [ast.unparse(d) for d in getattr(fn, "decorator_list", ())]
        if owner is not None and params and "staticmethod" not in decorators:
            binds[params[0].arg] = [None if "classmethod" in decorators else owner]
        for node in _local_nodes(body):
            if isinstance(node, ast.Assign):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        binds[tgt.id].append(node.value)
                    else:
                        for name in _bound_names(tgt):
                            binds[name].append(None)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                binds[node.target.id].append(self.classes.named(node.annotation))
            elif isinstance(node, (ast.AugAssign, ast.For, ast.comprehension,
                                   ast.NamedExpr, ast.withitem, ast.ExceptHandler,
                                   ast.FunctionDef, ast.ClassDef)):
                tgt = getattr(node, "optional_vars", None) or getattr(node, "target", None)
                name = getattr(node, "name", None)
                for n in _bound_names(tgt) if tgt is not None else [name] if name else []:
                    binds[n].append(None)
        local = {name: None for name in binds}
        for _ in range(2):  # a binding may read another local's class
            scope = {**env, **local}
            local = {}
            for name, values in binds.items():
                found = {v if v is None or isinstance(v, str) else self._class_of(v, scope)
                         for v in values}
                local[name] = found.pop() if len(found) == 1 else None
        for stmt in body:
            self._visit(stmt, {**env, **local}, None)

    def _visit(self, node: ast.AST, env: dict, owner: Optional[str]):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            a = node.args
            for e in (*getattr(node, "decorator_list", ()), *a.defaults, *a.kw_defaults):
                if e is not None:
                    self._visit(e, env, None)
            self._function(node, env, owner)
        elif isinstance(node, ast.ClassDef):
            for e in (*node.decorator_list, *node.bases, *node.keywords):
                self._visit(e, env, None)
            for stmt in node.body:
                self._visit(stmt, env, node.name)
        elif isinstance(node, (ast.If, ast.IfExp)):
            self._visit(node.test, env, None)
            narrowed = self._narrowed(node.test, env)
            for branch, scope in ((node.body, narrowed), (node.orelse, env)):
                for stmt in branch if isinstance(branch, list) else [branch]:
                    self._visit(stmt, scope, owner)
        elif isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            for v in node.values:
                self._visit(v, env, None)
                env = self._narrowed(v, env)
        else:
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                recv = self._class_of(node.value, env)
                if recv is None:
                    self.untyped.add(node.attr)
                else:
                    self.typed.update((c, node.attr) for c in self.classes.lineage(recv))
            for child in ast.iter_child_nodes(node):
                self._visit(child, env, None)


def unattributed_fields(trees: dict) -> tuple[list, list]:
    """``Class.field`` for each dataclass field of ``trees`` with no read the
    scan attributes to its class: those whose name no attribute load has
    at all, and those read, if at all, only through receivers of unknown
    class."""
    reads = FieldReads(trees)
    fields = [(cls, name) for _, cls, name in dataclass_fields(trees)
              if (cls, name) not in reads.typed]
    return ([f"{c}.{n}" for c, n in fields if n not in reads.untyped],
            [f"{c}.{n}" for c, n in fields if n in reads.untyped])


def names_in(node: ast.AST) -> set[str]:
    """Every name ``node`` mentions: bare names, attributes and imports."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rpartition(".")[2])
    return out


def unnamed_definitions(trees: dict, users: dict) -> list[tuple[str, str]]:
    """(module, name) for each top-level function or class of ``trees`` that
    no top-level statement of ``trees`` or ``users`` but its own names."""
    named = Counter(name for tree in [*trees.values(), *users.values()]
                    for stmt in tree.body for name in names_in(stmt))
    return [(path, stmt.name) for path, tree in trees.items() for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and named[stmt.name] == (stmt.name in names_in(stmt))]


def passed_arguments(trees: dict) -> dict:
    """Callee name -> (positions, keywords) its calls in ``trees`` pass: the
    highest positional count, and the keyword names.  A ``*`` or ``**``
    argument passes every position or keyword."""
    positions: Counter = Counter()
    keywords: dict = defaultdict(set)
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = (call.func.attr if isinstance(call.func, ast.Attribute)
                    else getattr(call.func, "id", None))
            star = any(isinstance(a, ast.Starred) for a in call.args)
            positions[name] = max(positions[name], math.inf if star else len(call.args))
            keywords[name].update("**" if kw.arg is None else kw.arg for kw in call.keywords)
    return {name: (positions[name], keywords[name]) for name in positions}


def unpassed_defaults(trees: dict, callers: dict) -> list[tuple[str, str, str]]:
    """(module, function, parameter) for each defaulted parameter of a
    top-level function of ``trees`` that no call in ``callers`` passes."""
    passed = passed_arguments(callers)
    out = []
    for path, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            positions, keywords = passed.get(fn.name, (0, set()))
            params = fn.args.posonlyargs + fn.args.args
            defaulted = [(i, p) for i, p in enumerate(params)
                         if i >= len(params) - len(fn.args.defaults)]
            defaulted += [(math.inf, p) for p, d in
                          zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            out += [(path, fn.name, p.arg) for i, p in defaulted
                    if i >= positions and p.arg not in keywords and "**" not in keywords]
    return out


def _package() -> dict:
    return {str(p.relative_to(SRC)): ast.parse(p.read_text())
            for p in sorted(SRC.rglob("*.py"))}


def _benchmark() -> dict:
    return {str(p.relative_to(ROOT)): ast.parse(p.read_text())
            for p in sorted((ROOT / "perfbench").glob("*.py"))}


def _tests() -> dict:
    return {str(p.relative_to(ROOT)): ast.parse(p.read_text())
            for p in sorted((ROOT / "tests").glob("*.py"))}


_HASH_ONCE = "read by the __hash__ that fmap.hash_once gives every class it decorates"
_FORKS = "fork records are read out of Config.forks, a plain tuple"
_PHI = "read through HideN.phi and HideK.phi, which are not annotated"
_SPEC = "read through SpecedN.spec and SpecK.spec, which are not annotated"

# the fields read only through receivers whose class the scan cannot tell,
# with where they are read
UNTYPED_FIELD_READS = {
    "Req._hash": _HASH_ONCE,
    "Resp._hash": _HASH_ONCE,
    "IdSet._hash": _HASH_ONCE,
    "Hist._hash": _HASH_ONCE,
    "Triple._hash": _HASH_ONCE,
    "LoopK._hash": _HASH_ONCE,
    "SpecK._hash": _HASH_ONCE,
    "Leaf._hash": _HASH_ONCE,
    "Fork._hash": _HASH_ONCE,
    "Fork.tid": _FORKS,
    "Fork.right": _FORKS,
    "Fork.env": _FORKS,
    "Fork.kont": _FORKS,
    "PhiSpec.g0": _PHI,
    "PhiSpec.erase": _PHI,
    "PhiSpec.install": _PHI,
    "PhiSpec.recover": _PHI,
    "Event.primitive": "erasure.compare_erased reads it from Trace.events, a plain list",
    "MethodSpec.name": _SPEC,
    "MethodSpec.capture": _SPEC,
    "MethodSpec.post": _SPEC,
}


def test_every_dataclass_field_is_read_somewhere():
    unread, untyped = unattributed_fields(_package())
    assert unread == []
    assert sorted(untyped) == sorted(UNTYPED_FIELD_READS)


def test_the_scan_sees_an_unread_field():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class P:\n"
        "    x: int\n"
        "    y: int\n"
        "def f(p):\n"
        "    return p.x\n")
    assert unattributed_fields({"m.py": tree}) == (["P.y"], ["P.x"])


def test_the_scan_credits_a_read_only_to_its_receivers_class():
    # B.home is read through receivers of known class, so A.home is unread;
    # B.tid is read only through a receiver the scan cannot type
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class A:\n"
        "    home: int\n"
        "@dataclass\n"
        "class B:\n"
        "    home: int\n"
        "    tid: int\n"
        "    def own(self):\n"
        "        return self.home\n"
        "def make() -> B:\n"
        "    return B(0, 1)\n"
        "def f(b: B, x, y):\n"
        "    c = make()\n"
        "    if isinstance(y, B):\n"
        "        y.home\n"
        "    return b.home, c.home, x.tid\n")
    reads = FieldReads({"m.py": tree})
    assert ("B", "home") in reads.typed and ("A", "home") not in reads.typed
    assert unattributed_fields({"m.py": tree}) == (["A.home"], ["B.tid"])


def test_every_top_level_definition_is_named_by_the_package_or_the_benchmark():
    assert unnamed_definitions(_package(), _benchmark()) == []


def test_the_scan_sees_a_definition_only_its_own_body_names():
    tree = ast.parse(
        "class P:\n"
        "    def again(self):\n"
        "        return P()\n"
        "def used():\n"
        "    return 1\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else used()\n"
        "def bench_entry():\n"
        "    return 2\n")
    bench = ast.parse("import m\nm.bench_entry()\n")
    assert unnamed_definitions({"m.py": tree}, {"run.py": bench}) == [
        ("m.py", "P"), ("m.py", "recursive")]
    assert ("m.py", "bench_entry") in unnamed_definitions({"m.py": tree}, {})


def test_every_defaulted_parameter_is_passed_by_some_call():
    package = _package()
    assert unpassed_defaults(package, {**package, **_benchmark(), **_tests()}) == []


def test_the_scan_sees_a_default_no_call_passes():
    tree = ast.parse(
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    return a\n"
        "def g(a=1, b=2):\n"
        "    return a\n"
        "def h(a=1):\n"
        "    return a\n"
        "f(0, 1, e=5)\n"
        "m.g(*xs)\n"
        "h(**kw)\n")
    trees = {"m.py": tree}
    assert unpassed_defaults(trees, trees) == [("m.py", "f", "c"), ("m.py", "f", "d")]


def test_every_import_is_read_by_its_module():
    assert unread_imports(_package()) == []


def test_the_scan_sees_an_unread_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from .pcm import Hist, join, render\n"
        "from . import fmap\n"
        "def f(h: Hist):\n"
        "    join = None\n"
        "    return render(h), fmap.FrozenMap()\n")
    reexport = ast.parse("from .pcm import Hist\n")
    assert unread_imports({"m.py": tree, "structures/__init__.py": reexport}) == [
        ("m.py", 2, "os"), ("m.py", 3, "j"), ("m.py", 4, "join")]


def test_no_dataclass_is_frozen_and_setattr_only_fills_caches():
    trees = _package()
    assert frozen_dataclasses(trees) == []
    assert setattr_stores(trees) == []


def test_the_scan_sees_a_frozen_record_and_a_setattr_store():
    tree = ast.parse(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True, slots=True)\n"
        "class P:\n"
        "    x: int\n"
        "@dataclasses.dataclass(frozen=False)\n"
        "class Q:\n"
        "    x: int\n"
        "    def __hash__(self):\n"
        "        object.__setattr__(self, '_hash', 1)\n"
        "        object.__setattr__(self, 'x', 2)\n"
        "        return 1\n")
    trees = {"m.py": tree}
    assert frozen_dataclasses(trees) == [("m.py", "P")]
    assert setattr_stores(trees) == [("m.py", 11, "x")]


def test_no_function_keeps_a_cache_that_outlives_its_run():
    assert process_caches(_package()) == []


def test_the_scan_sees_an_lru_cache_and_a_cache():
    tree = ast.parse(
        "import functools\n"
        "from functools import cache, partial\n"
        "from functools import lru_cache as memo\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def f(x):\n"
        "    return x\n"
        "@cache\n"
        "def g(x):\n"
        "    return partial(f, x)\n"
        "h = functools.cache(g)\n"
        "cache = {}\n")
    assert process_caches({"m.py": tree}) == [
        ("m.py", 2, "cache"), ("m.py", 3, "lru_cache"), ("m.py", 4, "lru_cache"),
        ("m.py", 10, "cache")]


def test_no_pcm_element_is_built_only_to_test_that_it_exists():
    assert built_then_tested(_package()) == []


def test_the_scan_sees_a_join_and_a_subtract_tested_against_none():
    tree = ast.parse(
        "from histrio import pcm\n"
        "from histrio.pcm import join, map_subtract\n"
        "def f(a, b, m, n):\n"
        "    if join(a, b) is None:\n"
        "        return 0\n"
        "    if pcm.subtract(a, b) is not None:\n"
        "        return 1\n"
        "    j = join(a, b)\n"
        "    if j is None or m.get(a) is None:\n"
        "        return j\n"
        "    return None is map_subtract(m, n) or join(a, b) == b\n")
    assert built_then_tested({"m.py": tree}) == [
        ("m.py", 4, "join"), ("m.py", 6, "subtract"), ("m.py", 11, "map_subtract")]


def test_no_scheduler_function_calls_itself():
    trees = {path: tree for path, tree in _package().items() if path == "scheduler.py"}
    assert list(trees) == ["scheduler.py"]
    assert self_calls(trees) == []


def test_the_scan_sees_a_function_and_a_method_that_call_themselves():
    tree = ast.parse(
        "def leaves(tree):\n"
        "    if tree.leaf:\n"
        "        return [tree]\n"
        "    return leaves(tree.left) + leaves(tree.right)\n"
        "def loop(xs):\n"
        "    def walk(x):\n"
        "        return walk(x.next) if x else None\n"
        "    return [other.loop(x) for x in xs]\n"
        "class T:\n"
        "    def size(self):\n"
        "        return 1 + self.size()\n")
    assert self_calls({"m.py": tree}) == [
        ("m.py", 4, "leaves"), ("m.py", 4, "leaves"), ("m.py", 7, "walk"),
        ("m.py", 11, "size")]


def test_only_fmap_writes_through_dicts_own_mutators():
    assert dict_writes({**_package(), **_benchmark()}) == []


def test_the_scan_sees_dict_mutators_called_and_bound():
    tree = ast.parse(
        "put = dict.__setitem__\n"
        "def f(m, d):\n"
        "    dict.update(m, d)\n"
        "    dict.__delitem__(m, 1)\n"
        "    d.update(m)\n"
        "    return dict.get(m, 1), dict(m)\n")
    assert dict_writes({"m.py": tree, "fmap.py": tree}) == [
        ("m.py", 1, "__setitem__"), ("m.py", 3, "update"), ("m.py", 4, "__delitem__")]


# each isinstance(..., dict) test, and why no FrozenMap reaches it
AUDITED_DICT_TESTS = [
    # a replay file's top level, its config and a violation record, read
    # back by json.load, which builds plain dicts
    ("cli.py", "_do_replay"),
    ("cli.py", "_do_replay"),
    ("cli.py", "_do_replay"),
    # the map's own equality: any dict but one of its class is unequal
    ("fmap.py", "__eq__"),
    ("fmap.py", "__ne__"),
    # the attributes of a scheduler._Ctx: counters, lists, sets and plain
    # dict memos, never a map
    ("tests/test_scheduler.py", "walk"),
]


def test_every_dict_type_test_is_audited():
    assert dict_type_tests({**_package(), **_tests()}) == AUDITED_DICT_TESTS


def test_the_scan_sees_dict_type_tests():
    tree = ast.parse(
        "def f(v):\n"
        "    def g(w):\n"
        "        return isinstance(w, (dict, set))\n"
        "    return isinstance(v, dict) or isinstance(v, list) or g(v)\n"
        "x = isinstance(1, dict)\n")
    assert dict_type_tests({"m.py": tree}) == [("m.py", "<module>"), ("m.py", "f"), ("m.py", "g")]

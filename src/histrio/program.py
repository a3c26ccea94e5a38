"""Thread programs as first-order syntax trees.

Programs are static trees built once per scenario; the scheduler walks
them with an explicit environment and continuation stack, so a thread's
control state is a hashable (node, env, kont) triple and identical
machine configurations reached along different interleavings can be
recognized and merged.

Expressions embedded in nodes (conditions, action builders, return
values) are plain callables over the environment; they are created once
with the tree and never capture mutable state.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

from .fmap import EMPTY_MAP, FrozenMap
from .pcm import Sentinel

Env = FrozenMap

_ids = itertools.count(1)


class Node:
    """Base of all program syntax nodes; identity-hashed, built once."""

    __slots__ = ("nid",)

    def __init__(self):
        self.nid = next(_ids)

    def __repr__(self):
        return f"<{type(self).__name__} #{self.nid}>"


class Ret(Node):
    """Finish with the value computed from the environment."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[Env], Any]):
        super().__init__()
        self.fn = fn


def const(v) -> Ret:
    return Ret(lambda env, _v=v: _v)


LOOP_RETRY = Sentinel("<retry>")
RETRY = Ret(lambda env: LOOP_RETRY)


class ActN(Node):
    """An atomic step; ``build`` instantiates the action from the env."""

    __slots__ = ("build", "label")

    def __init__(self, build, label: str = "?"):
        super().__init__()
        self.build = build
        self.label = label


class Seq(Node):
    """``var <- first; rest``; ``var=None`` discards the result."""

    __slots__ = ("first", "var", "rest")

    def __init__(self, first: Node, var: Optional[str], rest: Node):
        super().__init__()
        self.first = first
        self.var = var
        self.rest = rest


class IfN(Node):
    __slots__ = ("cond", "then", "els")

    def __init__(self, cond: Callable[[Env], bool], then: Node, els: Node):
        super().__init__()
        self.cond = cond
        self.then = then
        self.els = els


class LoopN(Node):
    """Retry loop: re-runs ``body`` while it evaluates to ``LOOP_RETRY``.

    The iteration budget comes from the run configuration; exhausting it
    parks the thread and makes the execution inconclusive.
    """

    __slots__ = ("body",)

    def __init__(self, body: Node):
        super().__init__()
        self.body = body


class ParN(Node):
    """Fork two children; ``split(env, view)`` decomposes the self map."""

    __slots__ = ("left", "right", "split")

    def __init__(self, left: Node, right: Node, split):
        super().__init__()
        self.left = left
        self.right = right
        self.split = split


class HideN(Node):
    """Scoped installation of a structure inside the private heap."""

    __slots__ = ("phi", "body", "_entangled")

    def __init__(self, phi, body: Node):
        super().__init__()
        self.phi = phi
        self.body = body
        self._entangled = {}

    def entangled_with(self, outer):
        """Entanglement of the ambient concurroid with the hidden one,
        cached so repeated visits share one object."""
        key = id(outer)
        if key not in self._entangled:
            from .concurroid import entangle

            self._entangled[key] = entangle(outer, self.phi.conc)
        return self._entangled[key]


class SpecedN(Node):
    """Check a method specification around ``body``.

    The spec captures its logical variables from the entry state and is
    evaluated at the actual return point on every explored path.
    """

    __slots__ = ("spec", "body")

    def __init__(self, spec, body: Node):
        super().__init__()
        self.spec = spec
        self.body = body


def do(*bindings: tuple[Optional[str], Node], ret: Node) -> Node:
    """Chain ``var <- prog`` bindings in front of a final node."""
    node = ret
    for var, sub in reversed(bindings):
        node = Seq(sub, var, node)
    return node


EMPTY_ENV: Env = EMPTY_MAP

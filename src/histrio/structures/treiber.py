"""The Treiber stack: a lock-free linked list behind a sentinel pointer.

The joint heap holds the sentinel, the reachable list nodes, and a
garbage section of de-linked nodes that are never reclaimed (by design,
to rule out reuse-based confusion of in-flight compare-and-swaps).  The
auxiliary self/other histories record list states; in every admissible
state the combined history is complete, continuous, and stacklike, and
its last entry is the current list contents.

Pushing transfers a privately-allocated node into the joint heap, so it
is the structure's acquire transition; popping is internal and merely
re-files the old head under garbage.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Optional

from ..actions import ActionFamily, AtomicAction, Read, cas, step_sampler
from ..concurroid import Concurroid, Transition, entangle, identity_transition
from ..fmap import FrozenMap
from ..history import fresh, is_complete, is_continuous, is_stacklike, last_stamp, lookup_end
from ..pcm import NONE, NULL, SOME, STACK, Heap, Hist, Loc, join
from ..program import ActN, IfN, LoopN, Ret, RETRY, SpecedN, const, do
from ..state import SubjState, coherent_at, recall
from . import private_heap as pv

LB = "tb"
SNT = Loc(2001)
HOME = frozenset([LB])
PUSH_HOME = frozenset([LB, pv.LB])
NODE_BASE = 2002


def parse_stack(jh: Heap, snt: Loc = SNT) -> Optional[tuple]:
    """Split the heap into (head, contents, list cells, garbage), reading
    the list from the sentinel ``snt``; decided once per run."""
    return recall((parse_stack, jh, snt), _parse_stack, jh, snt)


def _parse_stack(jh: Heap, snt: Loc) -> Optional[tuple]:
    if not isinstance(jh, Heap) or snt not in jh:
        return None
    p = jh[snt]
    if not isinstance(p, Loc):
        return None
    contents, cells, seen = [], {}, set()
    cur = p
    while cur != NULL:
        if cur in seen or cur not in jh or cur == snt:
            return None
        node = jh[cur]
        if not (isinstance(node, tuple) and len(node) == 2 and isinstance(node[1], Loc)):
            return None
        seen.add(cur)
        contents.append(node[0])
        cells[cur] = node
        cur = node[1]
    grb = {loc: v for loc, v in jh.items() if loc != snt and loc not in seen}
    return p, tuple(contents), Heap(cells), Heap(grb)


def _coherent(hs, jh, ho) -> bool:
    """Coherence of ``LB``'s valid self, joint and other components."""
    parsed = parse_stack(jh)
    if parsed is None:
        return False
    _, contents, _, _ = parsed
    if not (isinstance(hs, Hist) and hs.kind == STACK and isinstance(ho, Hist)):
        return False
    total = join(hs, ho)
    if total is None:
        return False
    if not (is_complete(total) and is_continuous(total) and is_stacklike(total)):
        return False
    return lookup_end(total, last_stamp(total)) == contents


def _pop_member(w: SubjState, w2: SubjState) -> bool:
    if w.other != w2.other:
        return False
    pre, post = parse_stack(w.joint[LB]), parse_stack(w2.joint[LB])
    if pre is None or post is None:
        return False
    p, contents, _, _ = pre
    p2, contents2, _, _ = post
    if p == NULL or not contents:
        return False
    node = w.joint[LB][p]
    if p2 != node[1] or contents2 != contents[1:]:
        return False
    # every cell but the sentinel keeps its contents; the old head is garbage now
    if w.joint[LB].remove(SNT) != w2.joint[LB].remove(SNT):
        return False
    hs = w.self_[LB]
    t = fresh(join(hs, w.other[LB]))
    expected = Hist(STACK, hs.entries.set(t, (contents, contents[1:])))
    return w2.self_[LB] == expected


def _push_member(w: SubjState, w2: SubjState, h: Heap) -> bool:
    if w.other != w2.other or len(h) != 1:
        return False
    pre, post = parse_stack(w.joint[LB]), parse_stack(w2.joint[LB])
    if pre is None or post is None:
        return False
    p_old, contents, _, _ = pre
    p_new, contents2, _, _ = post
    [(loc, node)] = list(h.items())
    if p_new != loc or node != (node[0], p_old):
        return False
    if contents2 != (node[0],) + contents:
        return False
    if Heap(w.joint[LB].merge_disjoint(h) or {}).set(SNT, loc) != w2.joint[LB]:
        return False
    hs = w.self_[LB]
    t = fresh(join(hs, w.other[LB]))
    expected = Hist(STACK, hs.entries.set(t, (contents, contents2)))
    return w2.self_[LB] == expected


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------

def _safe_home(w: SubjState) -> bool:
    return coherent_at(w, LB, _coherent)


def read_sentinel() -> AtomicAction:
    def step(w, ctx):
        return w, w.joint[LB][SNT], ctx

    return AtomicAction("readSentinel", HOME, _safe_home, step, "id", Read(SNT))


def read_node(p: Loc) -> AtomicAction:
    def safe(w):
        if not _safe_home(w) or p == NULL:
            return False
        cell = w.joint[LB].get(p)
        return isinstance(cell, tuple) and len(cell) == 2

    def step(w, ctx):
        return w, w.joint[LB][p], ctx

    return AtomicAction(f"readNode({p!r})", HOME, safe, step, "id", Read(p))


def try_push(p1: Loc, p: Loc) -> AtomicAction:
    """CAS the sentinel from ``p1`` to ``p``; on success the node at ``p``
    moves from the private heap into the stack and the push is recorded."""

    def safe(w):
        if pv.LB not in w.self_ or not _safe_home(w):
            return False
        cell = w.self_[pv.LB].get(p)
        return isinstance(cell, tuple) and len(cell) == 2

    def step(w, ctx):
        jh = w.joint[LB]
        if jh[SNT] != p1:
            return w, False, ctx
        node = w.self_[pv.LB][p]
        _, contents, _, _ = parse_stack(jh)
        hs = w.self_[LB]
        t = fresh(join(hs, w.other[LB]))
        hs2 = Hist(STACK, hs.entries.set(t, (contents, (node[0],) + contents)))
        jh2 = Heap(jh.set(p, node).set(SNT, p))
        pv_self = Heap(w.self_[pv.LB].remove(p))
        return (
            SubjState(
                w.self_.set(LB, hs2).set(pv.LB, pv_self),
                w.joint.set(LB, jh2),
                w.other,
            ),
            True,
            ctx,
        )

    return AtomicAction(
        f"tryPush({p1!r},{p!r})",
        PUSH_HOME,
        safe,
        step,
        "xchg:tb.push|pv.release",
        cas(SNT, p1, p),
    )


def try_pop(p: Loc, p1: Loc) -> AtomicAction:
    def step(w, ctx):
        jh = w.joint[LB]
        if jh[SNT] != p:
            return w, False, ctx
        _, contents, _, _ = parse_stack(jh)
        hs = w.self_[LB]
        t = fresh(join(hs, w.other[LB]))
        hs2 = Hist(STACK, hs.entries.set(t, (contents, contents[1:])))
        jh2 = Heap(jh.set(SNT, p1))
        return (
            SubjState(w.self_.set(LB, hs2), w.joint.set(LB, jh2), w.other),
            True,
            ctx,
        )

    return AtomicAction(
        f"tryPop({p!r},{p1!r})",
        HOME,
        lambda w: p != NULL and _safe_home(w),
        step,
        "tb.pop",
        cas(SNT, p, p1),
    )


# ---------------------------------------------------------------------------
# Construction and sampling
# ---------------------------------------------------------------------------

def layout(contents: tuple, base: int = NODE_BASE, snt: Loc = SNT) -> Heap:
    """Deterministic heap realizing a stack with the given contents: nodes
    from ``base`` on, then the sentinel ``snt``."""
    cells = {}
    locs = [Loc(base + i) for i in range(len(contents))]
    for i, e in enumerate(contents):
        nxt = locs[i + 1] if i + 1 < len(contents) else NULL
        cells[locs[i]] = (e, nxt)
    cells[snt] = locs[0] if contents else NULL
    return Heap(cells)


def initial_state(contents: tuple = ()) -> SubjState:
    """Fresh stack holding ``contents``; stamp 0 records the initial list."""
    return SubjState(
        FrozenMap({LB: Hist.of(STACK, {0: (contents, contents)})}),
        FrozenMap({LB: layout(contents)}),
        FrozenMap({LB: Hist(STACK)}),
    )


_ELEMS = "abcdef"


def sample_state(rng: random.Random, nonempty: bool = False) -> SubjState:
    """Random coherent state: replay a random push/pop mix, keep garbage.
    A ``nonempty`` stack ends in a push where the mix would empty it."""
    contents = tuple(rng.sample(_ELEMS, rng.randint(0, 2)))
    entries = {0: (contents, contents)}
    cells = {}
    free = list(range(NODE_BASE, NODE_BASE + 16))
    stack_locs = []
    for e in reversed(contents):
        loc = Loc(free.pop(0))
        cells[loc] = (e, stack_locs[0] if stack_locs else NULL)
        stack_locs.insert(0, loc)
    garbage = {}
    stop, t = rng.randint(1, 6), 1
    while t < stop or (nonempty and not contents):
        if contents and rng.random() < 0.4:
            head = stack_locs.pop(0)
            garbage[head] = cells.pop(head)
            entries[t] = (contents, contents[1:])
            contents = contents[1:]
        else:
            e = rng.choice(_ELEMS)
            loc = Loc(free.pop(0))
            cells[loc] = (e, stack_locs[0] if stack_locs else NULL)
            stack_locs.insert(0, loc)
            entries[t] = (contents, (e,) + contents)
            contents = (e,) + contents
        t += 1
    jh = dict(cells)
    jh.update(garbage)
    jh[SNT] = stack_locs[0] if stack_locs else NULL
    mine = {t: e for t, e in entries.items() if rng.random() < 0.6}
    rest = {t: e for t, e in entries.items() if t not in mine}
    return SubjState(
        FrozenMap({LB: Hist.of(STACK, mine)}),
        FrozenMap({LB: Heap(jh)}),
        FrozenMap({LB: Hist.of(STACK, rest)}),
    )


def sample_frame(rng: random.Random) -> FrozenMap:
    if rng.random() < 0.5:
        return FrozenMap({LB: Hist(STACK)})
    t = 60 + rng.randint(0, 5)
    pre = tuple(rng.sample(_ELEMS, rng.randint(0, 2)))
    return FrozenMap({LB: Hist.of(STACK, {t: (pre, ((rng.choice(_ELEMS)),) + pre)})})


def _draw_try_push(rng, stale: float):
    """A push of a node linked to the head, from the private heap; its
    expected head is stale, so the CAS fails and the step leaves the state
    alone, in a share ``stale`` of the draws."""
    w = pv.alongside(sample_state(rng), rng)
    jh = w.joint[LB]
    p_old, _, _, _ = parse_stack(jh)
    loc = Loc(500 + rng.randint(0, 40))
    while loc in w.self_[pv.LB] or loc in w.other[pv.LB]:
        loc = Loc(loc.n + 1)
    e = rng.choice(_ELEMS)
    hp = Heap(w.self_[pv.LB].set(loc, (e, p_old)))
    w = SubjState(w.self_.set(pv.LB, hp), w.joint, w.other)
    p1 = Loc(7777) if rng.random() < stale else p_old
    return try_push(p1, loc), w


def _draw_try_pop(rng, stale: float):
    """A pop of a non-empty stack; its expected head is stale, so the CAS
    fails and the step leaves the state alone, in a share ``stale`` of the
    draws."""
    w = sample_state(rng, nonempty=True)
    p = w.joint[LB][SNT]
    if rng.random() < stale:
        return try_pop(Loc(900), NULL), w
    return try_pop(p, w.joint[LB][p][1]), w


def concurroid() -> Concurroid:
    pop_t = Transition("tb.pop", "internal", _pop_member,
                       step_sampler(partial(_draw_try_pop, stale=0), HOME))
    push_t = Transition("tb.push", "acquire", _push_member,
                        step_sampler(partial(_draw_try_push, stale=0), HOME))
    return Concurroid(
        name="treiber",
        homes={LB: _coherent},
        transitions={t.name: t for t in (identity_transition(sample_state), pop_t, push_t)},
        sample_state=sample_state,
        sample_frame=sample_frame,
    )


# ---------------------------------------------------------------------------
# Procedures
# ---------------------------------------------------------------------------

def push_program(elem, spec=None):
    """push(e) with ``e = elem(env)``: allocate a node, then loop
    read-sentinel / link / CAS."""
    body = do(
        ("p1", ActN(lambda env: read_sentinel(), "readSentinel")),
        (None, ActN(lambda env: pv.write(env["p"], (elem(env), env["p1"])), "linkNode")),
        ("ok", ActN(lambda env: try_push(env["p1"], env["p"]), "tryPush")),
        ret=IfN(lambda env: env["ok"], const(()), RETRY),
    )
    prog = do(
        ("p", ActN(lambda env: pv.alloc(), "alloc")),
        ret=LoopN(body),
    )
    return SpecedN(spec, prog) if spec is not None else prog


def pop_program(spec=None):
    """pop(): read the head, then try to de-link it; None on empty."""
    body = do(
        ("p", ActN(lambda env: read_sentinel(), "readSentinel")),
        ret=IfN(
            lambda env: env["p"] == NULL,
            const(NONE),
            do(
                ("ep1", ActN(lambda env: read_node(env["p"]), "readNode")),
                ("ok", ActN(lambda env: try_pop(env["p"], env["ep1"][1]), "tryPop")),
                ret=IfN(
                    lambda env: env["ok"],
                    Ret(lambda env: SOME(env["ep1"][0])),
                    RETRY,
                ),
            ),
        ),
    )
    loop = LoopN(body)
    return SpecedN(spec, loop) if spec is not None else loop


def action_families() -> list[ActionFamily]:
    conc = concurroid()
    ent = entangle(pv.concurroid(), conc)

    def sample_read_sentinel(rng):
        return read_sentinel(), sample_state(rng)

    def sample_read_node(rng):
        w = sample_state(rng, nonempty=True)
        return read_node(rng.choice(sorted(l for l in w.joint[LB] if l != SNT))), w

    def bad_read_node(rng):
        w = sample_state(rng)
        return read_node(Loc(7777)), w

    def bad_try_push(rng):
        return try_push(NULL, Loc(7777)), pv.alongside(sample_state(rng), rng)

    def pv_frames_only(f):
        tb_part = f.get(LB)
        return tb_part is None or not tb_part.entries

    return [
        ActionFamily("readSentinel", conc, sample_read_sentinel),
        ActionFamily("readNode", conc, sample_read_node, bad_read_node),
        ActionFamily("tryPush", ent, partial(_draw_try_push, stale=0.3), bad_try_push,
                     frame_filter=pv_frames_only),
        ActionFamily("tryPop", conc, partial(_draw_try_pop, stale=0.3)),
    ]

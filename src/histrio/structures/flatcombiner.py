"""The flat combiner: lock-based helping through a publication array.

Threads publish requests in a shared array; whoever wins the lock (the
combiner) services every published request against the protected
resource, writes results back, and releases the lock.  Each slot ``i``
has a shadow auxiliary cell holding the contribution produced on thread
``i``'s behalf; collecting a result flushes that cell into the
collector's own contribution.  Helping is thus ownership transfer of
auxiliary state, routed through the array.

The combiner protects a sequential stack (invariant ``seq_stack_inv``;
``seq_stack_carve`` cuts it out of the combiner's private heap at unlock)
and helps one function, push.  A private-heap program computes its result
(``_seq_push_program``), and a help records ``history.push_event`` of the
cumulative contribution, the same event a lock-free push records, so both
stacks are checked against one push spec.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from operator import ne
from typing import Callable, Optional

from ..actions import ActionFamily, AtomicAction, Read, Rmw, Write, cas, reverse_sampler, step_sampler
from ..concurroid import Concurroid, Transition, entangle, identity_transition
from ..fmap import FrozenMap
from ..history import is_complete, is_continuous, is_stacklike, last_stamp, lookup_end, push_event
from ..pcm import (
    EMPTY_IDSET,
    INIT,
    NONE,
    NOT_OWN,
    NULL,
    OWN,
    Req,
    Resp,
    SOME,
    STACK,
    Heap,
    Hist,
    IdSet,
    Loc,
    Triple,
    is_unit,
    join,
    unit_like,
)
from ..program import ActN, IfN, LoopN, Ret, RETRY, SpecedN, const, do
from ..state import SubjState, coherent_at, recall
from . import private_heap as pv
from . import treiber as tb

LB = "fc"
LK = Loc(3001)
AP_BASE = 3010
SNT = Loc(3101)
MAX_SLOTS = SNT.n - AP_BASE  # the publication array ends below the sentinel
NODE_BASE = 3102  # the first node of a laid-out resource stack
HOME = frozenset([LB])
FC_LOCK_HOME = frozenset([LB, pv.LB])
NO_AUX = Hist(STACK)  # an empty shadow cell


@dataclass
class FcShape:
    """The publication array's size ``n``, one slot per thread.

    ``slots`` (the publication-array cells) and ``skip`` (those cells plus
    the lock bit: the joint heap's non-resource part) follow from ``n``.
    ``home`` is the coherence body of ``LB`` for this shape, one object per
    shape, so that a run's fact table finds its facts again.
    """

    n: int
    slots: tuple = field(init=False, repr=False)
    skip: frozenset = field(init=False, repr=False)
    home: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.slots = tuple(Loc(AP_BASE + i) for i in range(self.n))
        self.skip = frozenset(self.slots) | {LK}
        self.home = partial(_coherent_parse, shape=self)


def parse_fc(shape: FcShape, jv) -> Optional[tuple]:
    """Split the joint value into (lock bit, slot statuses, resource heap,
    gp); decided once per run."""
    return recall((parse_fc, shape.n, jv), _parse_fc, shape, jv)


def _parse_fc(shape: FcShape, jv) -> Optional[tuple]:
    if not (isinstance(jv, tuple) and len(jv) == 2):
        return None
    jh, gp = jv
    if not isinstance(jh, Heap) or not isinstance(gp, tuple) or len(gp) != shape.n:
        return None
    locked = jh.get(LK)
    if not isinstance(locked, bool):
        return None
    slots = []
    for loc in shape.slots:
        cell = jh.get(loc)
        if cell is None or not (cell is INIT or isinstance(cell, (Req, Resp))):
            return None
        slots.append(cell)
    skip = shape.skip
    hr = Heap({loc: v for loc, v in jh.items() if loc not in skip})
    return locked, tuple(slots), hr, gp


def total_aux(shape: FcShape, w: SubjState, gp: Optional[tuple] = None) -> Optional[Hist]:
    """The cumulative contribution: every slot joined with self and other,
    or ``None`` where the joint does not parse or the join is undefined;
    decided once per run.

    ``gp`` is the slot array of ``w``'s joint when the caller has already
    parsed it; otherwise the joint is parsed here.
    """
    return _joined_aux(shape, w.self_[LB].aux, w.joint[LB], w.other[LB].aux, gp)


def _joined_aux(shape: FcShape, s: Hist, jv, o: Hist, gp: Optional[tuple]) -> Optional[Hist]:
    """``total_aux`` of the self aux ``s``, joint ``jv`` and other aux ``o``."""
    return recall((total_aux, shape.n, s, jv, o), _total_aux, shape, s, jv, o, gp)


def _total_aux(shape: FcShape, s: Hist, jv, o: Hist, gp: Optional[tuple]) -> Optional[Hist]:
    if gp is None:
        parsed = parse_fc(shape, jv)
        if parsed is None:
            return None
        gp = parsed[3]
    for g in gp + (o,):
        s = join(s, g)
        if s is None:
            break
    return s


def _coherent_parse(s, jv, o, shape: FcShape) -> Optional[tuple]:
    """``parse_fc`` of the joint ``jv`` when ``LB``'s valid self, joint and
    other components are coherent, else ``None``."""
    if not (isinstance(s, Triple) and isinstance(o, Triple)):
        return None
    parsed = parse_fc(shape, jv)
    if parsed is None:
        return None
    locked, slots, hr, gp = parsed
    for i in range(shape.n):
        if not is_unit(gp[i]) and not isinstance(slots[i], Resp):
            return None
    mx = join(s.mx, o.mx)
    if mx is None:
        return None
    g_all = _joined_aux(shape, s.aux, jv, o.aux, gp)
    if g_all is None:
        return None
    if locked:
        ok = not hr and mx is OWN
    else:
        ok = mx is NOT_OWN and seq_stack_inv(g_all, hr)
    return parsed if ok else None


# ---------------------------------------------------------------------------
# Transitions
# ---------------------------------------------------------------------------

def _step_joints(shape: FcShape, w: SubjState, w2: SubjState,
                 rejects_selves=None) -> Optional[tuple]:
    """Both joints of the step from ``w`` to ``w2``, parsed, as
    ``(lk1, slots1, hr1, gp1, lk2, slots2, hr2, gp2)``; ``None`` if the step
    changed ``other``, ``rejects_selves`` (when given) holds of the two self
    maps, or a joint does not parse.  ``rejects_selves`` runs before the
    parse, so a member's reads of its self maps keep their place."""
    if w.other != w2.other or (rejects_selves is not None
                               and rejects_selves(w.self_, w2.self_)):
        return None
    p1, p2 = parse_fc(shape, w.joint[LB]), parse_fc(shape, w2.joint[LB])
    if p1 is None or p2 is None:
        return None
    return p1 + p2


def _changed_slot(cells1, cells2) -> Optional[int]:
    """The one slot whose cells differ between ``cells1`` and ``cells2``,
    else ``None``."""
    diffs = [i for i, (c1, c2) in enumerate(zip(cells1, cells2)) if c1 != c2]
    return diffs[0] if len(diffs) == 1 else None


def _req_member(shape: FcShape):
    def member(w, w2) -> bool:
        joints = _step_joints(shape, w, w2, ne)
        if joints is None:
            return False
        lk1, slots1, hr1, gp1, lk2, slots2, hr2, gp2 = joints
        if (lk1, hr1, gp1) != (lk2, hr2, gp2):
            return False
        i = _changed_slot(slots1, slots2)
        return (
            i is not None
            and i in w.self_[LB].ids.ids
            and slots1[i] is INIT
            and isinstance(slots2[i], Req)
            and slots2[i].fn == "push"
        )

    return member


def _help_member(shape: FcShape):
    def member(w, w2) -> bool:
        joints = _step_joints(shape, w, w2, lambda s, s2: s != s2 or s[LB].mx is not OWN)
        if joints is None:
            return False
        lk1, slots1, hr1, gp1, lk2, slots2, hr2, gp2 = joints
        if lk1 is not True or lk2 is not True or hr1 != hr2:
            return False
        i = _changed_slot(zip(slots1, gp1), zip(slots2, gp2))
        if i is None:
            return False
        req = slots1[i]
        if not (isinstance(req, Req) and isinstance(slots2[i], Resp)):
            return False
        if not is_unit(gp1[i]):
            return False
        g_all = total_aux(shape, w, gp1)
        return (g_all is not None and req.fn == "push" and slots2[i].val == ()
                and gp2[i] == push_event(g_all, req.arg))

    return member


def _coll_member(shape: FcShape):
    def member(w, w2) -> bool:
        joints = _step_joints(shape, w, w2, lambda s, s2: (s[LB].ids, s[LB].mx)
                              != (s2[LB].ids, s2[LB].mx))
        if joints is None:
            return False
        lk1, slots1, hr1, gp1, lk2, slots2, hr2, gp2 = joints
        if (lk1, hr1) != (lk2, hr2):
            return False
        i = _changed_slot(zip(slots1, gp1), zip(slots2, gp2))
        s1, s2 = w.self_[LB], w2.self_[LB]
        return (
            i is not None
            and i in s1.ids.ids
            and isinstance(slots1[i], Resp)
            and slots2[i] is INIT
            and is_unit(gp2[i])
            and s2.aux == join(s1.aux, gp1[i])
        )

    return member


def _lock_member(shape: FcShape):
    def member(w, w2, h: Heap) -> bool:
        """Taking the lock releases the resource heap to the locker."""
        joints = _step_joints(shape, w, w2)
        if joints is None:
            return False
        lk1, slots1, hr1, gp1, lk2, slots2, hr2, gp2 = joints
        s1, s2 = w.self_[LB], w2.self_[LB]
        return (
            lk1 is False
            and lk2 is True
            and hr1 == h
            and not hr2
            and slots1 == slots2
            and gp1 == gp2
            and s1.mx is NOT_OWN
            and s2 == Triple(s1.ids, OWN, s1.aux)
        )

    return member


def _unlock_member(shape: FcShape):
    def member(w, w2, h: Heap) -> bool:
        joints = _step_joints(shape, w, w2)
        if joints is None:
            return False
        lk1, slots1, hr1, gp1, lk2, slots2, hr2, gp2 = joints
        s1, s2 = w.self_[LB], w2.self_[LB]
        if not (lk1 is True and lk2 is False and not hr1 and hr2 == h):
            return False
        if slots1 != slots2 or gp1 != gp2:
            return False
        if not (s1.mx is OWN and s2 == Triple(s1.ids, NOT_OWN, s1.aux)):
            return False
        g_all = total_aux(shape, w2, gp2)
        return g_all is not None and seq_stack_inv(g_all, h)

    return member


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------

def req_help(shape: FcShape, tid: int, arg) -> AtomicAction:
    cell = shape.slots[tid]

    def safe(w):
        parsed = coherent_at(w, LB, shape.home)
        return parsed is not None and tid in w.self_[LB].ids.ids and parsed[1][tid] is INIT

    def step(w, ctx):
        jh, gp = w.joint[LB]
        jv = (Heap(jh.set(cell, Req("push", arg))), gp)
        return SubjState(w.self_, w.joint.set(LB, jv), w.other), (), ctx

    return AtomicAction(
        f"reqHelp({tid},push)", HOME, safe, step, "fc.req",
        Write(cell, Req("push", arg)),
    )


def read_req(shape: FcShape, i: int) -> AtomicAction:
    cell = shape.slots[i]

    def step(w, ctx):
        jh, _ = w.joint[LB]
        return w, jh[cell], ctx

    return AtomicAction(
        f"readReq({i})", HOME, lambda w: coherent_at(w, LB, shape.home) is not None,
        step, "id", Read(cell),
    )


def fc_trylock(shape: FcShape) -> AtomicAction:
    def safe(w):
        return coherent_at(w, LB, shape.home) is not None and pv.safe_home(w)

    def step(w, ctx):
        jh, gp = w.joint[LB]
        if jh[LK]:
            return w, False, ctx
        _, _, hr, _ = parse_fc(shape, w.joint[LB])
        jh2 = Heap({loc: v for loc, v in jh.items() if loc not in hr}).set(LK, True)
        s = w.self_[LB]
        merged = w.self_[pv.LB].merge_disjoint(hr)
        return (
            SubjState(
                w.self_.set(LB, Triple(s.ids, OWN, s.aux)).set(pv.LB, Heap(merged)),
                w.joint.set(LB, (Heap(jh2), gp)),
                w.other,
            ),
            True,
            ctx,
        )

    return AtomicAction(
        "fc.tryLock", FC_LOCK_HOME, safe, step, "xchg:pv.acquire|fc.lock",
        cas(LK, False, True),
    )


def do_help(shape: FcShape, i: int, result, arg) -> AtomicAction:
    cell = shape.slots[i]

    def safe(w):
        parsed = coherent_at(w, LB, shape.home)
        if parsed is None or w.self_[LB].mx is not OWN:
            return False
        return parsed[1][i] == Req("push", arg) and result == ()

    def step(w, ctx):
        jh, gp = w.joint[LB]
        delta = push_event(total_aux(shape, w, gp), arg)
        gp2 = gp[:i] + (delta,) + gp[i + 1 :]
        jv = (Heap(jh.set(cell, Resp(result))), gp2)
        return SubjState(w.self_, w.joint.set(LB, jv), w.other), (), ctx

    return AtomicAction(
        f"doHelp({i},push)", HOME, safe, step, "fc.help",
        Write(cell, Resp(result)),
    )


def fc_unlock(shape: FcShape) -> AtomicAction:
    def safe(w):
        if pv.LB not in w.self_ or LB not in w.self_:
            return False
        s = w.self_[LB]
        if not (isinstance(s, Triple) and s.mx is OWN):
            return False
        jh, _ = w.joint[LB]
        if jh.get(LK) is not True:
            return False
        h = seq_stack_carve(w.self_[pv.LB])
        if h is None:
            return False
        g_all = total_aux(shape, w)
        return g_all is not None and seq_stack_inv(g_all, h)

    def step(w, ctx):
        jh, gp = w.joint[LB]
        h = seq_stack_carve(w.self_[pv.LB])
        rest = Heap({loc: v for loc, v in w.self_[pv.LB].items() if loc not in h})
        jh2 = Heap(Heap(jh.set(LK, False)).merge_disjoint(h))
        s = w.self_[LB]
        return (
            SubjState(
                w.self_.set(LB, Triple(s.ids, NOT_OWN, s.aux)).set(pv.LB, rest),
                w.joint.set(LB, (jh2, gp)),
                w.other,
            ),
            (),
            ctx,
        )

    return AtomicAction(
        "fc.unlock", FC_LOCK_HOME, safe, step, "xchg:fc.unlock|pv.release",
        Write(LK, False),
    )


def try_collect(shape: FcShape, tid: int) -> AtomicAction:
    cell = shape.slots[tid]

    def safe(w):
        return coherent_at(w, LB, shape.home) is not None and tid in w.self_[LB].ids.ids

    def step(w, ctx):
        jh, gp = w.joint[LB]
        stat = jh[cell]
        if not isinstance(stat, Resp):
            return w, NONE, ctx
        s = w.self_[LB]
        s2 = Triple(s.ids, s.mx, join(s.aux, gp[tid]))
        gp2 = gp[:tid] + (unit_like(gp[tid]),) + gp[tid + 1 :]
        jv = (Heap(jh.set(cell, INIT)), gp2)
        return (
            SubjState(w.self_.set(LB, s2), w.joint.set(LB, jv), w.other),
            SOME(stat.val),
            ctx,
        )

    return AtomicAction(
        f"tryCollect({tid})", HOME, safe, step, "fc.coll",
        Rmw(
            cell,
            lambda v: INIT if isinstance(v, Resp) else v,
            lambda v: SOME(v.val) if isinstance(v, Resp) else NONE,
        ),
    )


# ---------------------------------------------------------------------------
# The stack instantiation
# ---------------------------------------------------------------------------

def seq_stack_inv(total: Hist, h: Heap) -> bool:
    """``h`` is a garbage-free sequential stack, the sentinel plus exactly
    its list, holding the last entry of the complete, continuous and
    stacklike history ``total``."""
    parsed = tb.parse_stack(h, SNT)
    if parsed is None or parsed[3]:
        return False
    if not (is_complete(total) and is_continuous(total) and is_stacklike(total)):
        return False
    return lookup_end(total, last_stamp(total)) == parsed[1]


def seq_stack_carve(h: Heap) -> Optional[Heap]:
    """The sentinel and its list, out of a heap that may hold other cells."""
    parsed = tb.parse_stack(h, SNT)
    if parsed is None:
        return None
    p, _, cells, _ = parsed
    return Heap({SNT: p, **cells})


def _seq_push_program(argkey: str):
    return do(
        ("_p", ActN(lambda env: pv.alloc(), "alloc")),
        ("_p1", ActN(lambda env: pv.read(SNT), "readTop")),
        (None, ActN(lambda env, k=argkey: pv.write(env["_p"], (env[k], env["_p1"])), "fillNode")),
        (None, ActN(lambda env: pv.write(SNT, env["_p"]), "setTop")),
        ret=const(()),
    )


def stack_shape(n: int) -> FcShape:
    return FcShape(n)


# ---------------------------------------------------------------------------
# Construction, concurroid, procedures
# ---------------------------------------------------------------------------

def initial_state(shape: FcShape) -> SubjState:
    """Fresh structure: lock free, all slots Init, resource stack empty; the
    installer owns all slot ids and the init event."""
    cells = {LK: False, **dict.fromkeys(shape.slots, INIT), SNT: NULL}
    gp = (NO_AUX,) * shape.n
    init_hist = Hist.of(STACK, {0: ((), ())})
    return SubjState(
        FrozenMap({LB: Triple(IdSet.of(*range(shape.n)), NOT_OWN, init_hist)}),
        FrozenMap({LB: (Heap(cells), gp)}),
        FrozenMap({LB: Triple(EMPTY_IDSET, NOT_OWN, Hist(STACK))}),
    )


_ELEMS = "uvwxyz"


def sample_state(shape: FcShape, rng: random.Random, lock: Optional[str] = None,
                 slot: Optional[int] = None, status=None, owned: bool = False) -> SubjState:
    """Random admissible state: evolve a stack history, scatter its events
    over the slot cells and the two contributions, pick slot statuses.

    A caller takes the branches it needs rather than drawing them: ``lock``
    is ``"free"``, or held by ``"self"`` or ``"other"``; slot ``slot`` is
    in ``status`` (``INIT``, ``Req`` or ``Resp``) when one is given, and is
    self's when ``owned``."""
    contents: tuple = ()
    entries = {0: ((), ())}
    for t in range(1, rng.randint(1, 6)):
        if contents and rng.random() < 0.4:
            entries[t] = (contents, contents[1:])
            contents = contents[1:]
        else:
            e = rng.choice(_ELEMS)
            entries[t] = (contents, (e,) + contents)
            contents = (e,) + contents
    stamps = [t for t in entries if t > 0]
    rng.shuffle(stamps)
    slots, gp = [], []
    for i in range(shape.n):
        got = status if i == slot and status is not None else _draw_status(rng)
        if got is INIT:
            slots.append(INIT)
            gp.append(NO_AUX)
        elif got is Req:
            slots.append(Req("push", rng.choice(_ELEMS)))
            gp.append(NO_AUX)
        else:
            slots.append(Resp(()))
            if stamps and rng.random() < 0.8:
                t = stamps.pop()
                gp.append(Hist.of(STACK, {t: entries[t]}))
            else:
                gp.append(NO_AUX)
    taken = {s for g in gp for s in g.stamps()}
    remaining = [t for t in entries if t not in taken]
    mine = {t: entries[t] for t in remaining if rng.random() < 0.5}
    rest = {t: entries[t] for t in remaining if t not in mine}
    ids = frozenset(range(shape.n)) | set(rng.sample(range(shape.n, shape.n + 3), rng.randint(0, 2)))
    mine_ids = frozenset(i for i in ids if (owned and i == slot) or rng.random() < 0.6)
    if lock is None:
        lock = "free" if rng.random() >= 0.35 else "self" if rng.random() < 0.6 else "other"
    cells = {LK: lock != "free", **dict(zip(shape.slots, slots))}
    if lock == "free":
        cells.update(tb.layout(contents, NODE_BASE, SNT))
        mx_s = NOT_OWN
        mx_o = NOT_OWN
    else:
        own_self = lock == "self"
        mx_s = OWN if own_self else NOT_OWN
        mx_o = NOT_OWN if own_self else OWN
    return SubjState(
        FrozenMap({LB: Triple(IdSet(mine_ids), mx_s, Hist.of(STACK, mine))}),
        FrozenMap({LB: (Heap(cells), tuple(gp))}),
        FrozenMap({LB: Triple(IdSet(ids - mine_ids), mx_o, Hist.of(STACK, rest))}),
    )


def _draw_status(rng: random.Random):
    r = rng.random()
    return INIT if r < 0.4 else Req if r < 0.7 else Resp


def sample_frame(shape: FcShape, rng: random.Random) -> FrozenMap:
    unit = Triple(EMPTY_IDSET, NOT_OWN, Hist(STACK))
    if rng.random() < 0.5:
        return FrozenMap({LB: unit})
    return FrozenMap(
        {LB: Triple(IdSet.of(rng.randint(20, 24)), NOT_OWN, Hist(STACK))}
    )


def _draw_req(shape: FcShape, rng: random.Random) -> tuple:
    """A request: ``(reqHelp, w)`` at an open slot that ``w``'s self owns."""
    i = rng.randrange(shape.n)
    w = sample_state(shape, rng, slot=i, status=INIT, owned=True)
    return req_help(shape, i, rng.choice(_ELEMS)), w


def _draw_help(shape: FcShape, rng: random.Random, lock: str = "self") -> tuple:
    """A help: ``(doHelp, w)`` at a slot that holds a request, with ``w``'s
    lock as ``lock`` says; the help is safe where self holds it."""
    i = rng.randrange(shape.n)
    w = sample_state(shape, rng, lock, slot=i, status=Req)
    return do_help(shape, i, (), w.joint[LB][0][shape.slots[i]].arg), w


def _draw_coll(shape: FcShape, rng: random.Random) -> tuple:
    """A collection: ``(tryCollect, w)`` at an answered slot that ``w``'s
    self owns."""
    i = rng.randrange(shape.n)
    w = sample_state(shape, rng, slot=i, status=Resp, owned=True)
    return try_collect(shape, i), w


def _entangled(shape: FcShape, rng: random.Random, locked: bool) -> SubjState:
    """A flat-combiner state with a private heap alongside, held by self or
    free as ``locked`` says; a held lock's resource stack sits in the
    private heap."""
    w = sample_state(shape, rng, "self" if locked else "free")
    if not locked:
        return pv.alongside(w, rng)
    g_all = total_aux(shape, w)
    return pv.alongside(w, rng, tb.layout(lookup_end(g_all, last_stamp(g_all)), NODE_BASE, SNT))


def _draw_trylock(shape: FcShape, rng: random.Random, held: float) -> tuple:
    """A tryLock of a lock that self holds in a share ``held`` of the draws,
    where the CAS fails and the step leaves the state alone, and free
    otherwise."""
    return fc_trylock(shape), _entangled(shape, rng, rng.random() < held)


def _draw_unlock(shape: FcShape, rng: random.Random) -> tuple:
    return fc_unlock(shape), _entangled(shape, rng, True)


def concurroid(shape: FcShape) -> Concurroid:
    def state_sampler(rng):
        return sample_state(shape, rng)

    lock = step_sampler(partial(_draw_trylock, shape, held=0), HOME)
    req_t = Transition("fc.req", "internal", _req_member(shape),
                       step_sampler(partial(_draw_req, shape), HOME))
    help_t = Transition("fc.help", "internal", _help_member(shape),
                        step_sampler(partial(_draw_help, shape), HOME))
    coll_t = Transition("fc.coll", "internal", _coll_member(shape),
                        step_sampler(partial(_draw_coll, shape), HOME))
    alpha = Transition("fc.unlock", "acquire", _unlock_member(shape), reverse_sampler(lock))
    rho = Transition("fc.lock", "release", _lock_member(shape), lock)
    return Concurroid(
        name="flat-combiner",
        homes={LB: shape.home},
        transitions={t.name: t for t in (identity_transition(state_sampler),
                                         req_t, help_t, coll_t, alpha, rho)},
        sample_state=state_sampler,
        sample_frame=lambda rng: sample_frame(shape, rng),
    )


def flat_combine_program(shape: FcShape, tid: int, arg, spec):
    """flatCombine(push, x) for a fixed thread id: publish, loop trying to
    combine, collect the result."""

    collect = do(
        ("rc", ActN(lambda env: try_collect(shape, tid), "tryCollect")),
        ret=IfN(
            lambda env: env["rc"] != NONE,
            Ret(lambda env: env["rc"][1]),
            RETRY,
        ),
    )

    # read each slot in turn and serve a published push, then unlock
    combine = do((None, ActN(lambda env: fc_unlock(shape), "unlock")), ret=collect)
    for i in reversed(range(shape.n)):
        req_var, arg_var, res_var = f"req{i}", f"arg{i}", f"res{i}"
        serve = do(
            (arg_var, Ret(lambda env, q=req_var: env[q].arg)),
            (res_var, _seq_push_program(arg_var)),
            (None, ActN(
                lambda env, i=i, a=arg_var, r=res_var: do_help(shape, i, env[r], env[a]),
                f"doHelp({i})",
            )),
            ret=combine,
        )
        combine = do(
            (req_var, ActN(lambda env, i=i: read_req(shape, i), f"readReq({i})")),
            ret=IfN(lambda env, q=req_var: isinstance(env[q], Req) and env[q].fn == "push",
                    serve, combine),
        )

    body = do(
        ("locked", ActN(lambda env: fc_trylock(shape), "tryLock")),
        ret=IfN(lambda env: env["locked"], combine, collect),
    )
    prog = do(
        (None, ActN(lambda env: req_help(shape, tid, arg), "reqHelp")),
        ret=LoopN(body),
    )
    return SpecedN(spec, prog)


def action_families() -> list[ActionFamily]:
    shape = stack_shape(3)
    conc = concurroid(shape)
    ent = entangle(pv.concurroid(), conc)

    def bad_req(rng):
        i = rng.randrange(shape.n)
        w = sample_state(shape, rng, slot=i, status=rng.choice((Req, Resp)))
        return req_help(shape, i, "u"), w

    def sample_read_req(rng):
        return read_req(shape, rng.randrange(shape.n)), sample_state(shape, rng)

    def bad_do_help(rng):
        return _draw_help(shape, rng, rng.choice(("free", "other")))

    def bad_unlock(rng):
        return fc_unlock(shape), _entangled(shape, rng, False)

    def sample_collect(rng):
        i = rng.randrange(shape.n)
        return try_collect(shape, i), sample_state(shape, rng, slot=i, owned=True)

    return [
        ActionFamily("fc.reqHelp", conc, partial(_draw_req, shape), bad_req),
        ActionFamily("fc.readReq", conc, sample_read_req),
        ActionFamily("fc.tryLock", ent, partial(_draw_trylock, shape, held=0.3)),
        ActionFamily("fc.doHelp", conc, partial(_draw_help, shape), bad_do_help),
        ActionFamily("fc.unlock", ent, partial(_draw_unlock, shape), bad_unlock),
        ActionFamily("fc.tryCollect", conc, sample_collect),
    ]

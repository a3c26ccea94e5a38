"""The versioned pair snapshot structure.

Two shared cells hold (contents, version) pairs.  Writers bump the
version together with the contents in one atomic step and record the
new snapshot in their history; the reader loops until it sees the same
x-version twice, which pins a moment at which both its reads coexisted.

The history payload is the triple (x-contents, y-contents, x-version).
The y-version is stored in the cell but deliberately unconstrained by
the histories.
"""

from __future__ import annotations

import random
from functools import partial

from ..actions import ActionFamily, AtomicAction, Read, Rmw, step_sampler
from ..concurroid import Concurroid, Transition, identity_transition
from ..fmap import FrozenMap
from ..history import fresh, is_continuous, last_stamp, lookup_end
from ..pcm import SNAPSHOT, Heap, Hist, Loc, join
from ..program import ActN, IfN, LoopN, Ret, RETRY, SpecedN, const, do
from ..state import SubjState, coherent_at

LB = "sp"
X = Loc(1001)
Y = Loc(1002)
HOME = frozenset([LB])


def _parse_joint(jh) -> tuple | None:
    if not isinstance(jh, Heap) or set(jh.keys()) != {X, Y}:
        return None
    xa, ya = jh[X], jh[Y]
    for cell in (xa, ya):
        if not (isinstance(cell, tuple) and len(cell) == 2 and isinstance(cell[1], int)):
            return None
    return xa[0], xa[1], ya[0], ya[1]


def versions_ok(total: Hist) -> bool:
    """Properties (ii) and (iii): same x-version means same x-contents,
    and versions grow monotonically with timestamps."""
    seen = {}
    prev_v = None
    for t in sorted(total.stamps()):
        cx, _cy, vx = lookup_end(total, t)
        if prev_v is not None and vx < prev_v:
            return False
        prev_v = vx
        if vx in seen and seen[vx] != cx:
            return False
        seen[vx] = cx
    return True


def _coherent(hs, jh, ho) -> bool:
    """Coherence of ``LB``'s valid self, joint and other components."""
    parsed = _parse_joint(jh)
    if parsed is None:
        return False
    cx, vx, cy, _vy = parsed
    if not (isinstance(hs, Hist) and hs.kind == SNAPSHOT and isinstance(ho, Hist)):
        return False
    total = join(hs, ho)
    if total is None or not is_continuous(total):
        return False
    last = last_stamp(total)
    if last is not None and lookup_end(total, last) != (cx, cy, vx):
        return False
    return versions_ok(total)


def _write_member(which: str):
    def member(w: SubjState, w2: SubjState) -> bool:
        if w.other != w2.other or w.labels() != w2.labels() or LB not in w.labels():
            return False
        p1, p2 = _parse_joint(w.joint[LB]), _parse_joint(w2.joint[LB])
        if p1 is None or p2 is None:
            return False
        cx, vx, cy, vy = p1
        cx2, vx2, cy2, vy2 = p2
        hs, ho = w.self_[LB], w.other[LB]
        total = join(hs, ho)
        if total is None:
            return False
        t = fresh(total)
        if which == "x":
            shape_ok = vx2 == vx + 1 and (cy2, vy2) == (cy, vy)
            entry = ((cx, cy, vx), (cx2, cy, vx + 1))
        else:
            shape_ok = vy2 == vy + 1 and (cx2, vx2) == (cx, vx)
            entry = ((cx, cy, vx), (cx, cy2, vx))
        if not shape_ok:
            return False
        expected = Hist(SNAPSHOT, hs.entries.set(t, entry))
        return w2.self_[LB] == expected

    return member


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------

def _safe_home(w: SubjState) -> bool:
    return coherent_at(w, LB, _coherent)


def read_x() -> AtomicAction:
    def step(w, ctx):
        cx, vx, _, _ = _parse_joint(w.joint[LB])
        return w, (cx, vx), ctx

    return AtomicAction("readX", HOME, _safe_home, step, "id", Read(X))


def read_y() -> AtomicAction:
    def step(w, ctx):
        _, _, cy, vy = _parse_joint(w.joint[LB])
        return w, (cy, vy), ctx

    return AtomicAction("readY", HOME, _safe_home, step, "id", Read(Y))


def _write_action(which: str, v) -> AtomicAction:
    loc = X if which == "x" else Y

    def step(w, ctx):
        jh = w.joint[LB]
        cx, vx = jh[X]
        cy, vy = jh[Y]
        hs = w.self_[LB]
        total = join(hs, w.other[LB])
        t = fresh(total)
        if which == "x":
            jh2 = Heap({X: (v, vx + 1), Y: (cy, vy)})
            entry = ((cx, cy, vx), (v, cy, vx + 1))
        else:
            jh2 = Heap({X: (cx, vx), Y: (v, vy + 1)})
            entry = ((cx, cy, vx), (cx, v, vx))
        hs2 = Hist(SNAPSHOT, hs.entries.set(t, entry))
        w2 = SubjState(
            w.self_.set(LB, hs2), w.joint.set(LB, jh2), w.other
        )
        return w2, (), ctx

    return AtomicAction(
        f"write{which.upper()}({v!r})",
        HOME,
        _safe_home,
        step,
        f"wr_{which}",
        Rmw(loc, lambda cell, _v=v: (_v, cell[1] + 1), lambda cell: ()),
    )


def write_x(v) -> AtomicAction:
    return _write_action("x", v)


def write_y(v) -> AtomicAction:
    return _write_action("y", v)


# ---------------------------------------------------------------------------
# Construction, sampling, concurroid
# ---------------------------------------------------------------------------

def initial_state(cx="A", cy="B") -> SubjState:
    """Fresh structure: cells at version 0 and history {0 -> (s0, s0)}.

    The installing thread owns the initialization entry.
    """
    s0 = (cx, cy, 0)
    return SubjState(
        FrozenMap({LB: Hist.of(SNAPSHOT, {0: (s0, s0)})}),
        FrozenMap({LB: Heap({X: (cx, 0), Y: (cy, 0)})}),
        FrozenMap({LB: Hist(SNAPSHOT)}),
    )


_XVALS = "ABEF"
_YVALS = "CDGH"


def sample_state(rng: random.Random) -> SubjState:
    """Random coherent state, produced by replaying a random write mix."""
    cx, cy = rng.choice(_XVALS), rng.choice(_YVALS)
    vx = vy = 0
    entries = {0: ((cx, cy, 0), (cx, cy, 0))}
    for t in range(1, rng.randint(1, 6)):
        if rng.random() < 0.5:
            nx = rng.choice(_XVALS)
            entries[t] = ((cx, cy, vx), (nx, cy, vx + 1))
            cx, vx = nx, vx + 1
        else:
            ny = rng.choice(_YVALS)
            entries[t] = ((cx, cy, vx), (cx, ny, vx))
            cy, vy = ny, vy + 1
    mine = {t: e for t, e in entries.items() if rng.random() < 0.6}
    rest = {t: e for t, e in entries.items() if t not in mine}
    return SubjState(
        FrozenMap({LB: Hist.of(SNAPSHOT, mine)}),
        FrozenMap({LB: Heap({X: (cx, vx), Y: (cy, vy)})}),
        FrozenMap({LB: Hist.of(SNAPSHOT, rest)}),
    )


def sample_frame(rng: random.Random) -> FrozenMap:
    if rng.random() < 0.5:
        return FrozenMap({LB: Hist(SNAPSHOT)})
    t = 50 + rng.randint(0, 5)
    entry = (
        (rng.choice(_XVALS), rng.choice(_YVALS), 90),
        (rng.choice(_XVALS), rng.choice(_YVALS), 91),
    )
    return FrozenMap({LB: Hist.of(SNAPSHOT, {t: entry})})


def _draw_write(which: str, rng):
    v = rng.choice(_XVALS if which == "x" else _YVALS)
    return _write_action(which, v), sample_state(rng)


def concurroid() -> Concurroid:
    wr_x = Transition("wr_x", "internal", _write_member("x"),
                      step_sampler(partial(_draw_write, "x"), HOME))
    wr_y = Transition("wr_y", "internal", _write_member("y"),
                      step_sampler(partial(_draw_write, "y"), HOME))
    return Concurroid(
        name="pair-snapshot",
        homes={LB: _coherent},
        transitions={t.name: t for t in (identity_transition(sample_state), wr_x, wr_y)},
        sample_state=sample_state,
        sample_frame=sample_frame,
    )


# ---------------------------------------------------------------------------
# Procedures
# ---------------------------------------------------------------------------

_READ_X = ActN(lambda env: read_x(), "readX")
_READ_Y = ActN(lambda env: read_y(), "readY")


def read_pair_program(spec=None):
    """readPair(): loop reading x, y, x until the x-version is stable."""
    body = do(
        ("cxvx", _READ_X),
        ("cy_", _READ_Y),
        ("_tx", _READ_X),
        ret=IfN(
            lambda e: e["cxvx"][1] == e["_tx"][1],
            Ret(lambda e: (e["cxvx"][0], e["cy_"][0])),
            RETRY,
        ),
    )
    loop = LoopN(body)
    return SpecedN(spec, loop) if spec is not None else loop


def writer_program(vx, vy):
    """One writer: writeX(vx); writeY(vy)."""
    return do(
        (None, ActN(lambda env, _v=vx: write_x(_v), f"writeX({vx!r})")),
        (None, ActN(lambda env, _v=vy: write_y(_v), f"writeY({vy!r})")),
        ret=const(()),
    )


def action_families() -> list[ActionFamily]:
    conc = concurroid()

    def sample_read(mk):
        def sampler(rng):
            return mk(), sample_state(rng)

        return sampler

    def bad_state(rng):
        """Joint cell inconsistent with the last history entry."""
        w = sample_state(rng)
        jh = w.joint[LB]
        cx, vx = jh[X]
        return read_x(), SubjState(
            w.self_, w.joint.set(LB, Heap({X: (cx, vx + 7), Y: jh[Y]})), w.other
        )

    return [
        ActionFamily("readX", conc, sample_read(read_x), bad_state),
        ActionFamily("readY", conc, sample_read(read_y), bad_state),
        ActionFamily("writeX", conc, partial(_draw_write, "x"), bad_state),
        ActionFamily("writeY", conc, partial(_draw_write, "y"), bad_state),
    ]

"""The interleaving explorer.

Machine configurations are immutable and hashable: a table of the live
threads (leaves carry a program node, an environment, a continuation
stack, and the thread's self map), the forks not yet joined, the shared
joint map, the environment-owned root map, and the installed concurroid.
Administrative reductions (sequencing, conditionals, forks, joins, spec
capture, hiding) are performed eagerly and deterministically; the only
branching points are atomic actions, so interleaving counts are exact.

A fork replaces a thread's slot with its two children, the left keeping
its id and the right taking the next fresh one, and records the fork
(``Fork``).  The table lists the fork tree's leaves left to right and the
records are in the order made, so the pair determines the tree: a
thread's innermost fork is the last it took part in.

Exhaustive mode runs a depth-first search over configurations on an
explicit stack, so its depth is not limited by Python's recursion limit.
Converging interleavings share their subtrees through a memo keyed on
the configuration alone, while path counts stay exact: an entry is
reused only where the step bound cannot cut the subtree differently
from when it was explored, and a subtree it did cut is keyed on the
budget too.  Inconclusive paths are counted by cause: cut
by the step bound, or ended with a thread out of loop iterations.
Random mode draws one schedule from a seeded generator.

Every step is checked, and its reports are made, in this order: the
guarantee (the stepping thread never touches its environment's state),
the post-state's validity and coherence, decided together in one pass
over its labels (``Concurroid.coherent``), claimed-transition
membership, injection scoping (the step changes no self or joint
component outside its action's home labels), monotone growth of
history-valued self components, and the scenario's step invariants.  The
guarantee, injection and growth checks pass over a component the step
handed back as the same object, which equals and extends itself.
Method specs are evaluated at their return points.

The checks decide a property of the transition, not of the step: they
read the concurroid, the claimed transition, the action's home labels and
the pre- and post-states.  Many steps of an exploration make one transition,
so ``explore`` checks a step only if its transition has not passed the
checks before (``_Ctx.checked``); a transition that failed one is checked
and reported again wherever it recurs, so that its reports carry that
path's step index and schedule.  A random run or a replay checks every
step: along one schedule few transitions recur.

The reductions around a step are remembered too, each keyed on exactly
the inputs it reads.  A thread's ``other`` is the join of the root map
and its siblings' self maps (``_other``).  A thread-local run
of administrative reductions, spec captures and posts included, reads
only its leaf, the leaf's view and the loop bound, and stops where the
thread next needs the scheduler: at an action, finished, stuck, or at a
fork or hide.  A move is a step or a join, each with the run after it.
A step leaves its own thread's ``other`` as it was, so the run after a
step takes it from the step's view, and the move reads only the leaf,
the joint map, the thread's ``other``, the concurroid and the next fresh
location.  ``step_action`` takes the whole move, and ``explore``
remembers it (``_Ctx.moves``): where one recurs, its stop leaf is spliced
in with no action, state, event or leaf built.  Only ``explore``
remembers steps: a random run or a replay follows one schedule, along
which an equal one does not recur.  A step that is not part of a
remembered move runs its action.  A join of two finished threads, with
the run after it, reads only their fork, their self maps and results,
the joint map and the joined thread's ``other``: each thread's view is
that ``other`` joined with its sibling's self map, and by cancellativity
the join finds that ``other`` as their common environment part.
``_try_collapse`` takes it, and every run remembers it (``_Ctx.joins``),
so that where one recurs its stop leaf is spliced in and nothing is
computed or driven again.  Only a run after a fork or hide is not
remembered: ``normalize`` drives it each time.  A move that reported a
violation is taken again wherever it recurs, as a failed transition is
checked again.

Equal memo entries are kept as one object (hash-consing), through one
table per run of ``explore`` (``_Ctx.values``): each distinct self or
joint map a checked step produced, each distinct leaf the move memo
holds, in its keys and its values, each distinct stop leaf the join memo
holds, and each distinct (summary, height) entry ``explore`` remembers.
Equal maps and leaves then share one object, and an equal leaf one
environment, continuation and cached hash, so memo hits mostly compare
them by identity.  Thread tables and fork records are not interned: a
step splices a new table, most of them transient, and the table of
values would keep them alive.  A random run or a replay interns nothing.

The memos key on equality.  Map equality is type-exact, so a ``Heap``
never stands in for a plain map, but cells compare with ``==``:
``Heap({LK: 1})`` equals ``Heap({LK: True})``, and the spin lock's
coherence accepts only the second.  So the memos, and the fact table
described below, rely on no action storing such a twin of a cell value;
no shipped action does, since every lock write is ``True`` or ``False``.

Below the explorer, each structure decides the same facts of the same
values over and over: an action's safety predicate, post-state coherence,
transition membership and the step invariants all parse the same joint
and decide the same coherence.  So each run of ``explore`` or
``_run_schedule`` also installs a fact table (``state.fact_table``),
beside the context's memos, that lives only for the run.  It holds the
coherence of each label a concurroid governs, with the part's cells,
keyed on the label's coherence body and its self, joint and other
components, the flat-combiner and Treiber joint parses, keyed on the
joint, and the flat combiner's cumulative contribution, keyed on its
self, joint and other parts.  A step hands the components it did not
touch back as the same objects, so the post-state's untouched parts are
judged from their facts, cells included.  No fact outlives its run, so a
later run, or a test that swaps a structure's function, decides every
fact afresh; outside a run nothing is remembered.

Configurations, leaves, fork records and continuation frames are values,
so the memos may hold them as keys: nothing changes one once it is built,
except that a ``_hash`` cache is filled once.  The explorer builds them
on every edge, so they are slotted, unfrozen dataclasses (a frozen one
pays an ``object.__setattr__`` per field), and the rule is kept by a test
that runs the shipped scenarios with every other store refused
(``tests/test_records.py``), not on each construction.

``step_action`` is the one successor function, called once per edge by
``explore`` and by ``_run_schedule`` (random runs and replays).  It keeps
the path (``_Ctx.path``): a move's entry goes on before its step is
checked and comes off if the move reports, so every violation's schedule
ends with the move that reported it, and replays to it.

Every configuration a driver holds is normal: no thread but those at an
action can reduce, and no two finished threads wait to be joined.  So
after a step only the stepped thread can reduce: ``step_action`` drives
its run, and when the run stops at the next action or stuck,
``normalize`` splices the leaf into its slot of the table, with no scan
of the threads.  Only a fork, hiding or completion sends it on to fork,
hide or join, and to scan the threads for the leaves those made.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Optional

from .actions import ActionSafetyError, AtomicAction, StepCtx, run_atomic, step_matches_claim
from .concurroid import CheckReport, Concurroid
from .fmap import EMPTY_MAP, FrozenMap, hash_once
from .pcm import Heap, Hist, Triple, map_pointwise_join, pcm_order, render, unit_like
from .program import (
    ActN,
    HideN,
    IfN,
    LoopN,
    LOOP_RETRY,
    Node,
    ParN,
    Ret,
    Seq,
    SpecedN,
)
from .state import (
    StateError,
    SubjState,
    fact_table,
    flatten,
    subjective_join,
    subjective_split,
)


class SchedulerError(RuntimeError):
    """A structural scenario bug (bad split directive, hide misuse...)."""


class ReplayError(ValueError):
    """A replayed schedule names a thread that is not ready to step."""


# ---------------------------------------------------------------------------
# Continuation frames
# ---------------------------------------------------------------------------

@dataclass(unsafe_hash=True, slots=True)
class SeqK:
    var: Optional[str]
    rest: Node
    env: FrozenMap


@hash_once
@dataclass(slots=True)
class LoopK:
    loop: LoopN
    env: FrozenMap
    remaining: int
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)


@hash_once
@dataclass(slots=True)
class SpecK:
    spec: Any
    caps: Any
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)


@dataclass(eq=False, slots=True)
class HideK:
    phi: Any
    outer: Concurroid


RUN, DONE, STUCK = "run", "done", "stuck"


@hash_once
@dataclass(slots=True)
class Leaf:
    tid: int
    node: Optional[Node]
    env: FrozenMap
    kont: tuple
    self_: FrozenMap
    status: str = RUN
    result: Any = None  # a finished thread's value, or with no node the one awaiting kont
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)


@hash_once
@dataclass(slots=True)
class Fork:
    """A fork waiting to be joined: the forking thread's id, which its left
    child kept, its right child's id, and the environment and continuation
    that the joined thread resumes with."""

    tid: int
    right: int
    env: FrozenMap
    kont: tuple
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)


@dataclass(eq=False, slots=True)
class Config:
    """A machine configuration.  Its hash, like its leaves', is computed
    once and kept, since configurations key the explorer's memo; it leaves
    out the forks, which the threads and ``next_tid`` all but determine."""

    threads: tuple
    forks: tuple
    joint: FrozenMap
    root_other: FrozenMap
    conc: Concurroid
    next_loc: int
    next_tid: int
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    @property
    def tree(self) -> Leaf:
        """The sole thread of a one-thread configuration."""
        (leaf,) = self.threads
        return leaf

    def __eq__(self, other):
        return (isinstance(other, Config) and self.conc is other.conc
                and self.next_loc == other.next_loc and self.next_tid == other.next_tid
                and self.threads == other.threads and self.forks == other.forks
                and self.joint == other.joint and self.root_other == other.root_other)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.threads, self.joint, self.root_other, id(self.conc),
                      self.next_loc, self.next_tid))
            self._hash = h
        return h


def _splice(threads: tuple, tid: int, repl: tuple) -> tuple:
    """``threads`` with thread ``tid``'s slot replaced by the leaves ``repl``."""
    for i, leaf in enumerate(threads):
        if leaf.tid == tid:
            return threads[:i] + repl + threads[i + 1:]
    raise SchedulerError(f"no thread {tid}")


def _with_leaf(cfg: Config, leaf: Leaf) -> Config:
    """The configuration with the leaf of the same thread id replaced."""
    return Config(_splice(cfg.threads, leaf.tid, (leaf,)), cfg.forks, cfg.joint,
                  cfg.root_other, cfg.conc, cfg.next_loc, cfg.next_tid)


def leaf_view(cfg: Config, leaf: Leaf, others: Optional[dict] = None) -> SubjState:
    """The thread's view: its own self map, the joint map, and as ``other``
    the join of the root map and its siblings' self maps (``_other``)."""
    return SubjState(leaf.self_, cfg.joint, _other(cfg, leaf.tid, others))


def _other(cfg: Config, tid: int, others: Optional[dict]) -> FrozenMap:
    """Thread ``tid``'s ``other``: the root map joined with every sibling
    thread's self map.

    The join is a function of those operands alone, so with ``others`` it
    is remembered there, keyed on the root map and the siblings' self maps.
    """
    sibs = tuple([l2.self_ for l2 in cfg.threads if l2.tid != tid])
    key = (cfg.root_other, sibs)
    other = others.get(key) if others is not None else None
    if other is None:
        other = cfg.root_other
        for self_ in sibs:
            other = map_pointwise_join(self_, other)
            if other is None:
                raise SchedulerError("sibling self maps do not join")
        if others is not None:
            others[key] = other
    return other


# ---------------------------------------------------------------------------
# Hiding
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PhiSpec:
    """Abstraction predicate governing a hidden structure.

    ``erase`` maps an abstract value to the concrete heap it occupies,
    ``install`` builds the hidden labels' initial self/joint fragments
    from that heap, ``membership`` decides whether a hidden-label state
    realizes a given abstract value, ``recover`` extracts the abstract
    value from a final hidden-label state, and ``sample_member`` draws a
    value with a state that realizes it.
    """

    name: str
    conc: Concurroid
    g0: Any
    erase: Callable[[Any], Heap]
    install: Callable[[Any, Heap], tuple[FrozenMap, FrozenMap]]
    membership: Callable[[Any, SubjState], bool]
    recover: Callable[[SubjState], Any]
    sample_member: Callable[[random.Random], tuple[Any, SubjState]]


def check_phi(phi: PhiSpec, n: int, rng: random.Random) -> CheckReport:
    """Sampled coherence, injectivity, guarantee, and precision of Phi."""
    rep = CheckReport("phi-properties", phi.name)
    drawn = []
    for _ in range(n):
        g, w = phi.sample_member(rng)
        rep.samples += 1
        if not phi.membership(g, w):
            rep.add("sampled member rejected by membership")
            continue
        if not phi.conc.coherent(w):
            rep.add(f"member of Phi({render(g)}) incoherent")
        for lbl in phi.conc.labels:
            if w.other[lbl] != unit_like(w.other[lbl]):
                rep.add("member has non-unit environment component")
        drawn.append((g, w))
    for g1, w1 in drawn[:40]:
        for g2, w2 in drawn[:40]:
            if g1 != g2 and w1 == w2:
                rep.add("injectivity: one state realizes two values")
            if g1 == g2 and flatten(w1) == flatten(w2) and w1 != w2:
                rep.add("precision: equal erasures, different states")
    return rep


# ---------------------------------------------------------------------------
# Scenarios and reports
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Scenario:
    name: str
    conc: Concurroid
    root: SubjState
    program: Node
    step_invariants: list = field(default_factory=list)
    on_join: Optional[Callable[[SubjState, SubjState, SubjState], list]] = None
    on_hide_exit: Optional[Callable[[PhiSpec, Any, SubjState], list]] = None
    final_oracle: Optional[Callable[[Config, Any], list]] = None


@dataclass
class Violation:
    """A failed check.  ``schedule`` lists the thread of each move on its
    path, the reporting move included, so ``step == len(schedule)`` for
    every check and ``run_replay`` of the schedule reports it again."""

    step: int
    thread: int
    check: str
    expected: str
    actual: str
    schedule: tuple
    trace: tuple

    def as_dict(self) -> dict:
        return {
            "step": self.step,
            "thread": self.thread,
            "check": self.check,
            "expected": self.expected,
            "actual": self.actual,
            "schedule": list(self.schedule),
            "trace": [list(e) for e in self.trace],
        }


@dataclass
class Event:
    index: int
    tid: int
    action: str
    transition: str
    result: Any
    before: SubjState = field(repr=False)
    after: SubjState = field(repr=False)
    primitive: Any = field(repr=False)  # the action's erasure, replayed by compare_erased

    @property
    def delta(self) -> str:
        """The labels whose self or joint the step changed, with their new
        contents; rendered on demand, since only traces show it."""
        w, w2 = self.before, self.after
        delta = []
        for lbl in sorted(w.labels()):
            if w.self_[lbl] != w2.self_[lbl] or w.joint[lbl] != w2.joint[lbl]:
                delta.append(f"{lbl}: <{render(w2.self_[lbl])} | {render(w2.joint[lbl])}>")
        return "; ".join(delta)

    def as_row(self) -> tuple:
        return (self.index, self.tid, self.action, self.transition,
                render(self.result), self.delta)


@dataclass
class Trace:
    events: list
    schedule: tuple
    final: Optional[Config]
    verdict: str
    violations: list
    results: Any = None

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "schedule": list(self.schedule),
            "events": [e.as_row() for e in self.events],
            "violations": [v.as_dict() for v in self.violations],
            "result": render(self.results),
        }


@dataclass
class ExplorationReport:
    scenario: str
    complete: int = 0
    inconclusive_step_bound: int = 0  # paths cut by the step bound
    inconclusive_loop_bound: int = 0  # paths ending with a thread out of loop iterations
    violating: int = 0
    violations: list = field(default_factory=list)
    finals: set = field(default_factory=set)
    nodes: int = 0
    edges: int = 0
    steps_run: int = 0  # edges whose action ran, not remembered
    transitions_checked: int = 0  # steps whose checks ran, not remembered
    local_runs: int = 0  # runs after steps, joins, forks and hides driven, not remembered
    joins_computed: int = 0  # joins of finished threads computed, not remembered

    @property
    def inconclusive(self) -> int:
        return self.inconclusive_step_bound + self.inconclusive_loop_bound

    @property
    def verdict(self) -> str:
        if self.violations or self.violating:
            return "violation"
        if self.complete == 0:
            return "inconclusive"
        return "pass"

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "verdict": self.verdict,
            "interleavings": self.complete,
            "inconclusive_count": self.inconclusive,
            "violating_paths": self.violating,
            "distinct_final_states": len(self.finals),
            "violations": [v.as_dict() for v in self.violations[:20]],
            "stats": {
                "nodes": self.nodes,
                "edges": self.edges,
                "steps_run": self.steps_run,
                "transitions_checked": self.transitions_checked,
                "local_runs": self.local_runs,
                "joins_computed": self.joins_computed,
                "inconclusive_step_bound": self.inconclusive_step_bound,
                "inconclusive_loop_bound": self.inconclusive_loop_bound,
            },
        }


class _Ctx:
    """Mutable exploration context: bounds, sinks, the current path, and the
    memos of pure reductions; without ``remember_moves``, none of steps."""

    def __init__(self, scenario: Scenario, loop_bound: int, max_violations: int = 50,
                 remember_moves: bool = True):
        self.scenario = scenario
        self.loop_bound = loop_bound
        self.max_violations = max_violations
        self.violations: list[Violation] = []  # the first max_violations
        self.reported = 0  # every violation, recorded or not
        self.path: list[tuple] = []  # (tid, action name, result), rendered on report
        self.steps_run = 0  # steps whose action ran
        # (id(conc), claimed transition, the action's home labels, pre-state
        # maps, post-state maps) of each transition that passed every check, or
        # None where every step is checked; see step_action
        self.checked: Optional[set] = set() if remember_moves else None
        self.transitions_checked = 0  # _check_step runs
        # (root other, sibling self maps) -> their join; see _other
        self.others: dict = {}
        # the thread moves that reported nothing, or None where none are
        # remembered: (leaf, joint, other, id(conc), next_loc) -> (stop leaf,
        # joint, next_loc, path entry) for a step with the run after it (see
        # step_action)
        self.moves: Optional[dict] = {} if remember_moves else None
        # one object per distinct self or joint map a checked step produced,
        # leaf the move memo holds and (summary, height) entry explore
        # remembers, or None without those memos: equal memo entries share
        # their parts, and memo hits compare them by identity
        self.values: Optional[dict] = {} if remember_moves else None
        self.local_runs = 0  # local runs driven through _drive
        # (fork, left self, left result, right self, right result, joint,
        # joined other) -> the leaf where the run after the join stopped, for
        # joins that reported nothing: the siblings' views are the joined
        # other joined with the other sibling's self map; see _try_collapse
        self.joins: dict = {}
        self.joins_computed = 0  # joins whose views, join and run were computed

    def report(self, check: str, expected: str, actual: str, tid: int):
        self.reported += 1
        if len(self.violations) >= self.max_violations:
            return
        self.violations.append(
            Violation(
                step=len(self.path),
                thread=tid,
                check=check,
                expected=expected,
                actual=actual,
                schedule=tuple(t for t, _, _ in self.path),
                trace=tuple((t, a, render(r)) for t, a, r in self.path),
            )
        )


# ---------------------------------------------------------------------------
# Normalization: administrative reductions
# ---------------------------------------------------------------------------

def _drive(leaf: Leaf, joint, other, ctx: _Ctx) -> Leaf:
    """The leaf where the thread-local reductions of ``leaf`` stop: at an
    action, finished (``DONE``, with its value), out of loop iterations
    (``STUCK``), or where the next reduction is structural (a fork, or
    entering or leaving a hide).

    Local reductions change only the leaf's node, environment, continuation
    and value (held only with no node), never its self map or any other part
    of the configuration; so the thread's view is its self map, ``joint``
    and ``other`` throughout the run, which builds one leaf where it stops.
    """
    tid, self_ = leaf.tid, leaf.self_
    node, env, kont, value = leaf.node, leaf.env, leaf.kont, leaf.result
    while True:
        if node is None:
            if not kont:
                return Leaf(tid, None, env, (), self_, DONE, value)
            frame = kont[-1]
            if isinstance(frame, SeqK):
                env = frame.env.set(frame.var, value) if frame.var else frame.env
                node, kont, value = frame.rest, kont[:-1], None
            elif isinstance(frame, LoopK):
                if value is LOOP_RETRY:
                    if frame.remaining <= 0:
                        return Leaf(tid, None, env, kont, self_, STUCK)
                    node, env, value = frame.loop.body, frame.env, None
                    kont = kont[:-1] + (LoopK(frame.loop, frame.env, frame.remaining - 1),)
                else:
                    kont = kont[:-1]
            elif isinstance(frame, SpecK):
                msg = frame.spec.post(frame.caps, SubjState(self_, joint, other), value)
                if msg is not None:
                    ctx.report(f"spec:{frame.spec.name}", frame.spec.name, msg, tid)
                kont = kont[:-1]
            else:
                break
        elif isinstance(node, Ret):
            node, value = None, node.fn(env)
        elif isinstance(node, Seq):
            kont += (SeqK(node.var, node.rest, env),)
            node = node.first
        elif isinstance(node, IfN):
            node = node.then if node.cond(env) else node.els
        elif isinstance(node, LoopN):
            kont += (LoopK(node, env, ctx.loop_bound - 1),)
            node = node.body
        elif isinstance(node, SpecedN):
            kont += (SpecK(node.spec, node.spec.capture(SubjState(self_, joint, other), env)),)
            node = node.body
        else:
            break
        if isinstance(node, ActN):
            break
    return Leaf(tid, node, env, kont, self_, RUN, value)


def run_local(node: Node, loop_bound: int, execute: Callable[[Any], Any]) -> Any:
    """Run a thread program with no specs, forks or hiding by itself, and
    return its value.

    Every reduction but an atomic step is ``_drive``'s, with no memo: the
    runs of a native operation almost never recur, so a memo would only
    hash and store them.  An action's step
    is ``execute(primitive)`` of the action built from the environment, and
    what ``execute`` returns is the step's result.  So the caller decides
    where the program's primitives run, for example on a concrete heap.
    """
    ctx = _Ctx(None, loop_bound, remember_moves=False)
    leaf = _drive(Leaf(0, node, EMPTY_MAP, (), EMPTY_MAP), None, None, ctx)
    while isinstance(leaf.node, ActN):
        res = execute(leaf.node.build(leaf.env).primitive)
        leaf = _drive(Leaf(0, None, leaf.env, leaf.kont, EMPTY_MAP, RUN, res),
                      None, None, ctx)
    if leaf.node is None and not leaf.kont:
        return leaf.result
    raise SchedulerError(f"cannot run {leaf.node!r} alone" if leaf.node is not None
                         else "a retry loop ran out of iterations")


def _settle(cfg: Config, stop: Leaf, ctx: _Ctx) -> Config:
    """``cfg`` with the leaf where a run stopped put in its thread's slot,
    or, when it stopped at a fork or hide, with that reduction taken."""
    if stop.status != RUN or isinstance(stop.node, ActN):
        return _with_leaf(cfg, stop)
    return _restructure(cfg, stop, ctx)


def _restructure(cfg: Config, leaf: Leaf, ctx: _Ctx) -> Config:
    """The structural reduction of a leaf where ``_drive`` stopped at a fork
    or at entering or leaving a hide.  The leaves it makes are driven by
    ``normalize`` on each visit: a run after a fork or hide is not
    remembered."""
    node = leaf.node
    if isinstance(node, ParN):
        return _fork(cfg, leaf, node, ctx)
    if isinstance(node, HideN):
        return _hide_enter(cfg, leaf, node, ctx)
    if node is not None:
        raise SchedulerError(f"cannot reduce node {node!r}")
    frame = leaf.kont[-1]
    if isinstance(frame, HideK):
        return _hide_exit(cfg, leaf, frame, leaf.kont[:-1], leaf.result, ctx)
    raise SchedulerError(f"unknown frame {frame!r}")


def _hide_enter(cfg: Config, leaf: Leaf, node: HideN, ctx: _Ctx) -> Config:
    phi = node.phi
    if len(cfg.threads) != 1:
        raise SchedulerError("hide requires a solo thread")
    if "pv" not in leaf.self_:
        raise SchedulerError("hide requires private heaps")
    k = phi.erase(phi.g0)
    pv_self = leaf.self_["pv"]
    for loc, v in k.items():
        if pv_self.get(loc) != v:
            raise SchedulerError(f"hide: private heap lacks {loc!r} -> {render(v)}")
    pv2 = Heap({loc: v for loc, v in pv_self.items() if loc not in k})
    self_frag, joint_frag = phi.install(phi.g0, k)
    inner = node.entangled_with(cfg.conc)
    self2, joint2, other2 = leaf.self_.set("pv", pv2), cfg.joint, cfg.root_other
    for lbl in sorted(phi.conc.labels):
        self2 = self2.set(lbl, self_frag[lbl])
        joint2 = joint2.set(lbl, joint_frag[lbl])
        other2 = other2.set(lbl, unit_like(self_frag[lbl]))
    nxt = Leaf(leaf.tid, node.body, leaf.env, leaf.kont + (HideK(phi, cfg.conc),), self2)
    cfg2 = Config((nxt,), (), joint2, other2, inner, cfg.next_loc, cfg.next_tid)
    hidden = leaf_view(cfg2, nxt, ctx.others).restrict(phi.conc.labels)
    if not phi.membership(phi.g0, hidden):
        ctx.report("hide:install", f"Phi({render(phi.g0)})", hidden.render(), leaf.tid)
    return cfg2


def _hide_exit(cfg: Config, leaf: Leaf, frame: HideK, rest: tuple, value, ctx: _Ctx) -> Config:
    phi = frame.phi
    labels = phi.conc.labels
    if len(cfg.threads) != 1:
        raise SchedulerError("hide exit requires a solo thread")
    hidden = leaf_view(cfg, leaf, ctx.others).restrict(labels)
    for lbl in sorted(labels):
        if hidden.other[lbl] != unit_like(hidden.other[lbl]):
            ctx.report("hide:exit", "unit environment component",
                       render(hidden.other[lbl]), leaf.tid)
    g2 = phi.recover(hidden)
    if g2 is None or not phi.membership(g2, hidden):
        ctx.report("hide:exit", "a value g' with the final state in Phi(g')",
                   hidden.render(), leaf.tid)
    if ctx.scenario.on_hide_exit is not None:
        for msg in ctx.scenario.on_hide_exit(phi, g2, hidden):
            ctx.report("hide:check", phi.name, msg, leaf.tid)
    back = flatten(hidden)
    pv_self = leaf.self_["pv"].merge_disjoint(back)
    if pv_self is None:
        raise SchedulerError("hide exit: returned heap overlaps private heap")
    self2 = leaf.self_.without(labels).set("pv", Heap(pv_self))
    nxt = Leaf(leaf.tid, None, leaf.env, rest, self2, RUN, value)
    return Config((nxt,), (), cfg.joint.without(labels),
                  cfg.root_other.without(labels), frame.outer,
                  cfg.next_loc, cfg.next_tid)


def _fork(cfg: Config, leaf: Leaf, node: ParN, ctx: _Ctx) -> Config:
    view = leaf_view(cfg, leaf, ctx.others)
    a, b = node.split(leaf.env, view)
    try:
        c1, c2 = subjective_split(view, a, b)
    except StateError as exc:
        raise SchedulerError(f"bad split directive: {exc}") from exc
    left = Leaf(leaf.tid, node.left, leaf.env, (), c1.self_)
    right = Leaf(cfg.next_tid, node.right, leaf.env, (), c2.self_)
    fork = Fork(leaf.tid, cfg.next_tid, leaf.env, leaf.kont)
    return Config(_splice(cfg.threads, leaf.tid, (left, right)), cfg.forks + (fork,),
                  cfg.joint, cfg.root_other, cfg.conc, cfg.next_loc, cfg.next_tid + 1)


def _done_pair(cfg: Config) -> Optional[tuple[int, int]]:
    """The leftmost two adjacent finished threads that their innermost fork
    joins, as the index of the first in ``threads`` and of the fork in
    ``forks``."""
    threads, forks = cfg.threads, cfg.forks
    for i in range(len(threads) - 1):
        if threads[i].status != DONE or threads[i + 1].status != DONE:
            continue
        a, b = threads[i].tid, threads[i + 1].tid
        for k in range(len(forks) - 1, -1, -1):
            f = forks[k]
            if f.tid in (a, b) or f.right in (a, b):
                if f.tid == a and f.right == b:
                    return i, k
                break
    return None


def _try_collapse(cfg: Config, ctx: _Ctx) -> Optional[Config]:
    """Join the leftmost two threads that have finished and that one fork
    joins, and drive the joined thread's run; its ``other`` is ``_other``
    of the table with the two threads merged.

    A join reads only the fork, the two threads' self maps and results,
    the joint map and the joined thread's ``other``: the merged leaf takes
    the fork's environment and continuation, never a finished thread's.
    Those fix both siblings' views, since each sibling's ``other`` is the
    other's self map joined with the joined thread's ``other``, and by
    cancellativity that ``other`` is the one common environment part the
    join finds.  The run after the join reads only the merged leaf, the
    joint map and that ``other``.  So a join that reported nothing, in the
    join or in the run, is remembered by exactly those inputs, with the
    leaf where its run stopped, interned; where it recurs, that leaf is
    spliced in, and neither the siblings' views, the join, the scenario's
    join check nor the run is computed again."""
    pair = _done_pair(cfg)
    if pair is None:
        return None
    i, k = pair
    fork = cfg.forks[k]
    left, right = cfg.threads[i], cfg.threads[i + 1]
    # the table after the join, the left thread (which has the fork's id)
    # still standing in the merged one's slot
    merged_cfg = Config(cfg.threads[:i + 1] + cfg.threads[i + 2:],
                        cfg.forks[:k] + cfg.forks[k + 1:], cfg.joint, cfg.root_other,
                        cfg.conc, cfg.next_loc, cfg.next_tid)
    other = _other(merged_cfg, fork.tid, ctx.others)
    key = (fork, left.self_, left.result, right.self_, right.result, cfg.joint, other)
    stop = ctx.joins.get(key)
    if stop is None:
        before = ctx.reported
        c1 = SubjState(left.self_, cfg.joint, _other(cfg, left.tid, ctx.others))
        c2 = SubjState(right.self_, cfg.joint, _other(cfg, right.tid, ctx.others))
        try:
            joined = subjective_join(c1, c2)
        except StateError as exc:
            ctx.report("join", "sibling views with a common environment part",
                       str(exc), fork.tid)
            joined = SubjState(
                map_pointwise_join(c1.self_, c2.self_) or c1.self_, cfg.joint, other)
        if ctx.scenario.on_join is not None:
            for msg in ctx.scenario.on_join(c1, c2, joined):
                ctx.report("join:check", ctx.scenario.name, msg, fork.tid)
        value = (left.result, right.result)
        ctx.local_runs += 1
        ctx.joins_computed += 1
        stop = _drive(Leaf(fork.tid, None, fork.env, fork.kont, joined.self_, RUN, value),
                      cfg.joint, other, ctx)
        if ctx.reported == before:
            if ctx.values is not None:
                stop = ctx.values.setdefault(stop, stop)
            ctx.joins[key] = stop
    return _settle(merged_cfg, stop, ctx)


def normalize(cfg: Config, ctx: _Ctx, stepped: Optional[tuple] = None) -> Config:
    """Drive every thread to an atomic action, completion, or a stuck state.

    The first reducible leaf, left to right, is driven through its
    thread-local reductions on its own (``_drive``) and spliced into the
    table once, where it stops; a fork or hide it stopped at is taken at
    once (``_settle``), and the threads are scanned again.  Joins wait until
    no leaf can reduce, and each drives its own run.

    ``step_action`` finishes each move here, with ``stepped``, ``(stop,
    joint, next_loc)`` after the step, and ``cfg`` the normal configuration
    the step was taken in.  No other leaf of a normal configuration can
    reduce, so ``stop``, where the stepped thread's run stopped, is spliced
    in by its thread id; when it stopped at an action or stuck, no join can
    follow, and that one splice finishes the move with no scan.
    """
    if stepped is not None:
        stop, joint, next_loc = stepped
        cfg = Config(_splice(cfg.threads, stop.tid, (stop,)), cfg.forks, joint,
                     cfg.root_other, cfg.conc, next_loc, cfg.next_tid)
        if stop.status == STUCK or isinstance(stop.node, ActN):
            return cfg
        if stop.status == RUN:
            cfg = _restructure(cfg, stop, ctx)
    while True:
        for leaf in cfg.threads:  # the first reducible leaf
            if leaf.status == RUN and not isinstance(leaf.node, ActN):
                break
        else:
            collapsed = _try_collapse(cfg, ctx)
            if collapsed is None:
                return cfg
            cfg = collapsed
            continue
        other = _other(cfg, leaf.tid, ctx.others)
        ctx.local_runs += 1
        cfg = _settle(cfg, _drive(leaf, cfg.joint, other, ctx), ctx)


# ---------------------------------------------------------------------------
# Action stepping
# ---------------------------------------------------------------------------

def _check_step(conc: Concurroid, tid: int, action: AtomicAction,
                w: SubjState, w2: SubjState, ctx: _Ctx) -> bool:
    """Every check of the step from ``w`` to ``w2``.  What they decide reads
    only the concurroid, the claimed transition, the action's home labels,
    the two states and the scenario's step invariants; the action's name and
    ``tid`` appear in reports only."""
    ok = True
    if w2.other is not w.other and w2.other != w.other:
        ctx.report("guarantee", "environment component untouched",
                   f"{action.name} changed other", tid)
        ok = False
    if not conc.coherent(w2):
        ctx.report("coherence", f"post-state in {conc.name}",
                   f"{action.name} -> {w2.render()}", tid)
        ok = False
    msg = step_matches_claim(conc, action, w, w2)
    if msg is not None:
        ctx.report("transition", action.claimed, msg, tid)
        ok = False
    for lbl in sorted(w.labels() - action.home):
        s, s2, j, j2 = w.self_.get(lbl), w2.self_.get(lbl), w.joint.get(lbl), w2.joint.get(lbl)
        if (s2 is not s and s2 != s) or (j2 is not j and j2 != j):
            ctx.report("inject", f"labels {sorted(action.home)} only",
                       f"{action.name} touched {lbl}", tid)
            ok = False
    for lbl in w.labels():
        old, new = w.self_[lbl], w2.self_[lbl]
        if old is new:
            continue
        old_h = old.aux if isinstance(old, Triple) else old
        new_h = new.aux if isinstance(new, Triple) else new
        if isinstance(old_h, Hist) and isinstance(new_h, Hist):
            if not pcm_order(old_h, new_h):
                ctx.report("history-growth", f"{lbl} self history grows",
                           f"{action.name} shrank it", tid)
                ok = False
    for inv in ctx.scenario.step_invariants:
        msg = inv(w, w2)
        if msg is not None:
            ctx.report("invariant", ctx.scenario.name, msg, tid)
            ok = False
    return ok


def step_action(cfg: Config, leaf: Leaf, ctx: _Ctx):
    """Take the leaf's move in ``cfg``: fire its pending action, check the
    step, drive the thread-local run after it, and finish the move with
    ``normalize``.  Returns ``(cfg2, event)``, the configuration after the
    move and the step's event, or None when the move reported a violation,
    in the step, its run or a join.  The move's entry ``(tid, action name,
    result)`` goes on ``ctx.path`` as the action fires, its result None until
    the action returns, so that every report of the move carries it; it
    comes off again when the move reported.  The run takes the thread's
    ``other`` from the step's view: a step changes no sibling's self map
    and not the root map.

    A move reads only the leaf, the joint map, the thread's ``other``, the
    concurroid and the next fresh location, its key.  Where ``ctx`` keeps a
    move memo, a step with its run that reported nothing is remembered,
    with its key and stop leaf interned; where it recurs, its stop leaf is
    finished in ``cfg`` with ``event`` None, and no action, state, event or
    leaf is built.  A move that reported is taken again wherever it recurs,
    so that its report carries that path's step index and schedule.

    Otherwise the action runs, and its step is checked unless ``ctx`` keeps
    a transition memo where its transition (concurroid, claimed transition,
    the action's home labels and both states) passed the checks before.
    """
    before = ctx.reported
    other = _other(cfg, leaf.tid, ctx.others)
    moves, memo = ctx.moves, ctx.checked
    key = (leaf, cfg.joint, other, id(cfg.conc), cfg.next_loc)
    hit = moves.get(key) if moves is not None else None
    if hit is not None:
        stop, joint2, next_loc, entry = hit
        ctx.path.append(entry)
        event = None
    else:
        w = SubjState(leaf.self_, cfg.joint, other)
        action: AtomicAction = leaf.node.build(leaf.env)
        ctx.steps_run += 1
        ctx.path.append((leaf.tid, action.name, None))
        try:
            w2, res, sctx = run_atomic(action, w, StepCtx(cfg.next_loc))
        except ActionSafetyError as exc:
            ctx.report("safety", f"{action.name} precondition", str(exc), leaf.tid)
            ctx.path.pop()
            return None
        entry = ctx.path[-1] = (leaf.tid, action.name, res)
        if memo is not None:
            canon = ctx.values
            w2 = SubjState(canon.setdefault(w2.self_, w2.self_),
                           canon.setdefault(w2.joint, w2.joint), w2.other)
            checked = (id(cfg.conc), action.claimed, action.home, w.self_, w.joint,
                       w.other, w2.self_, w2.joint, w2.other)
        if memo is None or checked not in memo:
            ctx.transitions_checked += 1
            if not _check_step(cfg.conc, leaf.tid, action, w, w2, ctx):
                ctx.path.pop()
                return None
            if memo is not None:
                memo.add(checked)
        event = Event(len(ctx.path) - 1, leaf.tid, action.name, action.claimed, res, w,
                      w2, action.primitive)
        ctx.local_runs += 1
        stop = _drive(Leaf(leaf.tid, None, leaf.env, leaf.kont, w2.self_, RUN, res),
                      w2.joint, w.other, ctx)
        joint2, next_loc = w2.joint, sctx.next_loc
        if moves is not None and ctx.reported == before:
            intern = ctx.values.setdefault
            stop = intern(stop, stop)
            moves[(intern(leaf, leaf),) + key[1:]] = (stop, joint2, next_loc, entry)
    cfg2 = normalize(cfg, ctx, (stop, joint2, next_loc))
    if ctx.reported > before:
        ctx.path.pop()
        return None
    return cfg2, event


def ready_leaves(cfg: Config) -> list[Leaf]:
    return sorted([l for l in cfg.threads if l.status == RUN and isinstance(l.node, ActN)],
                  key=attrgetter("tid"))


def initial_config(scenario: Scenario) -> Config:
    f = flatten(scenario.root)
    top = max((loc.n for loc in f.keys()), default=0)
    root = Leaf(0, scenario.program, EMPTY_MAP, (), scenario.root.self_)
    return Config((root,), (), scenario.root.joint, scenario.root.other,
                  scenario.conc, top + 1, 1)


def _finish_path(cfg: Config, ctx: _Ctx) -> str:
    """Classify a configuration with no thread ready to step, running the
    scenario's final oracles on a finished one.  ``explore`` remembers every
    such configuration on its first visit, so the oracles run once per
    distinct final configuration."""
    if len(cfg.threads) != 1 or cfg.threads[0].status != DONE:
        return "inconclusive"
    oracle = ctx.scenario.final_oracle
    msgs = list(oracle(cfg, cfg.threads[0].result)) if oracle is not None else []
    for msg in msgs:
        ctx.report("final", ctx.scenario.name, msg, 0)
    return "violation" if msgs else "complete"


# ---------------------------------------------------------------------------
# Exploration drivers
# ---------------------------------------------------------------------------

@dataclass(unsafe_hash=True, slots=True)
class _Summary:
    complete: int
    bounded: int  # inconclusive: cut by the step bound
    stuck: int  # inconclusive: a thread ran out of loop iterations
    violating: int


# by _finish_path's verdict; a path that ends short of DONE has a stuck thread
_FINISHED = {
    "complete": _Summary(1, 0, 0, 0),
    "inconclusive": _Summary(0, 0, 1, 0),
    "violation": _Summary(0, 0, 0, 1),
}
_CUT = _Summary(0, 1, 0, 0)


class _Frame:
    """A configuration being expanded: its ready leaves, the index of the
    next one to step, and the sums and height of the subtrees below the
    leaves already stepped."""

    __slots__ = ("cfg", "used", "ready", "next", "complete", "bounded",
                 "stuck", "violating", "height")

    def __init__(self, cfg: Config, used: int, ready: list):
        self.cfg, self.used, self.ready, self.next = cfg, used, ready, 0
        self.complete = self.bounded = self.stuck = self.violating = self.height = 0

    def add(self, s: _Summary, height: int):
        """Account for one edge whose subtree has summary ``s`` and height
        ``height``; a violating edge is a subtree of height 0."""
        self.complete += s.complete
        self.bounded += s.bounded
        self.stuck += s.stuck
        self.violating += s.violating
        if height >= self.height:
            self.height = height + 1

    def summary(self) -> _Summary:
        return _Summary(self.complete, self.bounded, self.stuck, self.violating)


def explore(scenario: Scenario, step_bound: int, loop_bound: int,
            max_violations: int = 50) -> ExplorationReport:
    """Depth-first enumeration of every interleaving up to ``step_bound``
    action steps, ties broken by ascending thread id.

    A subtree that the step bound cut nowhere is remembered by its
    configuration with its height (the longest path below, in steps) and
    reused at any remaining budget of at least that height: the subtree is
    then the same.  A subtree the bound did cut is remembered by its
    configuration and the budget it was explored with, and reused at that
    budget only.
    """
    if step_bound < 1:
        raise ValueError("step bound must be >= 1")
    ctx = _Ctx(scenario, loop_bound, max_violations)
    report = ExplorationReport(scenario.name)
    uncut: dict = {}  # cfg -> (summary, height)
    cut: dict = {}  # (cfg, budget) -> (summary, height)

    def remember(cfg: Config, left: int, s: _Summary, height: int) -> tuple:
        entry = (s, height)
        entry = ctx.values.setdefault(entry, entry)
        if s.bounded:
            cut[cfg, left] = entry
        else:
            uncut[cfg] = entry
        return entry

    def visit(cfg: Config, used: int):
        """A new frame for ``cfg``, or (summary, height) when its subtree
        needs no expansion."""
        left = step_bound - used
        hit = uncut.get(cfg)
        if hit is not None and left >= hit[1]:
            return hit
        hit = cut.get((cfg, left)) if cut else None
        if hit is not None:
            return hit
        report.nodes += 1
        ready = ready_leaves(cfg)
        if ready and left > 0:
            return _Frame(cfg, used, ready)
        s = _CUT if ready else _FINISHED[_finish_path(cfg, ctx)]
        if s.complete:
            report.finals.add(cfg)
        return remember(cfg, left, s, 0)

    with fact_table():
        cfg = normalize(initial_config(scenario), ctx)
        # a violation before the first move ends the one empty path
        root = (_FINISHED["violation"], 0) if ctx.reported else visit(cfg, 0)
        stack = [root] if isinstance(root, _Frame) else []
        total = root
        while stack:
            f = stack[-1]
            if f.next == len(f.ready):
                stack.pop()
                entry = remember(f.cfg, step_bound - f.used, f.summary(), f.height)
                if not stack:
                    total = entry
                    break
                ctx.path.pop()
                stack[-1].add(*entry)
                continue
            leaf = f.ready[f.next]
            f.next += 1
            outcome = step_action(f.cfg, leaf, ctx)
            report.edges += 1
            if outcome is None:
                f.add(_FINISHED["violation"], 0)
                continue
            sub = visit(outcome[0], f.used + 1)
            if isinstance(sub, _Frame):
                stack.append(sub)
            else:
                ctx.path.pop()
                f.add(*sub)
    s = total[0]
    report.complete = s.complete
    report.inconclusive_step_bound = s.bounded
    report.inconclusive_loop_bound = s.stuck
    report.violating = s.violating
    report.violations = ctx.violations
    report.steps_run = ctx.steps_run
    report.transitions_checked = ctx.transitions_checked
    report.local_runs = ctx.local_runs
    report.joins_computed = ctx.joins_computed
    return report


def _run_schedule(scenario: Scenario, pick, budget: int, loop_bound: int) -> Trace:
    # one schedule does not revisit a move, so none is remembered
    ctx = _Ctx(scenario, loop_bound, remember_moves=False)
    events: list[Event] = []
    with fact_table():
        cfg = normalize(initial_config(scenario), ctx)
        # a violation before the first move ends the run there
        while not ctx.reported and len(events) < budget:
            ready = ready_leaves(cfg)
            if not ready:
                break
            leaf = pick(ready)
            if leaf is None:
                break
            outcome = step_action(cfg, leaf, ctx)
            if outcome is None:
                break
            cfg, event = outcome
            events.append(event)
        end = "violation" if ctx.reported else _finish_path(cfg, ctx)
    verdict = "pass" if end == "complete" else end
    results = cfg.threads[0].result if len(cfg.threads) == 1 else None
    return Trace(events, tuple(e.tid for e in events), cfg, verdict,
                 ctx.violations, results)


def run_random(scenario: Scenario, seed: int, budget: int, loop_bound: int) -> Trace:
    return _run_schedule(scenario, random.Random(seed).choice, budget, loop_bound)


def run_replay(scenario: Scenario, schedule, loop_bound: int) -> Trace:
    """Re-run a recorded schedule (list of thread ids) deterministically;
    raises ``ReplayError`` at a thread id that is not ready to step."""
    queue = list(schedule)

    def pick(ready):
        if not queue:
            return None
        tid = queue.pop(0)
        for leaf in ready:
            if leaf.tid == tid:
                return leaf
        raise ReplayError(f"replay: thread {tid} not ready")

    return _run_schedule(scenario, pick, len(schedule), loop_bound)

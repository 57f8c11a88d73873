"""Metropolis-Hastings subset sampler targeting approximately exp(c * W(S)).

At each step a node u is drawn uniformly from the proposal pool: the current
subset together with every node adjacent to it by an edge in either
direction.  If u is a member its removal is proposed, otherwise its
addition, and the move is accepted with probability min[1, exp(c * dW)].
Moves that would leave the admissible domain count as rejections.

The ratio ignores the pool's size, which changes from S to S', so the
proposal is not symmetric and the stationary law is only approximately
proportional to exp(c * W).  ``tests/test_sampler.py::TestStationaryLaw``
checks the chain against the exact stationary law of this kernel, solved
from its transition matrix on small graphs.

Each node keeps its edge weight to and from S, so a proposal costs O(1), and
a proposal repeated from an unchanged subset is one lookup.  An accepted move
walks the moved node's merged neighbour row once, updating those weights and
the pool, and starts a new memo.  On a graph of integer weights totalling
below 2**53 every sum is exact: a node's two weights fall back to exactly 0.0
when its last neighbour in S leaves, so they are the pool-membership test and
no count of adjacent members is kept; on other graphs a count is kept.  On a
symmetric graph with exact sums, such as UCE's, the two weights are equal and
one list holds both, so the walk updates one.  Exact sums also make a memo
depend on S alone: the chain keeps the memo of the subset its last accepted
move left, and an accepted move of the same node, which goes back to that
subset, takes it back.  Once every pool node has been proposed from the
current subset and none is accepted outright, nothing a proposal reads can
change until a move is accepted, so a run of rejections expected to go on is
taken in numpy from the same uniform draws, up to the next accepted step.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .criterion import (
    CommunityState,
    Score,
    check_value_bound,
    counts_after_move,
    max_admissible_size,
    score,
    value_function,
)

_RNG_BLOCK = 8192
# A run of rejections that has proposed every pool node is taken by
# _scan_rejections when it is expected to go on for this many steps more.
_SCAN_MIN = 64
# Draws in a scan's first window; each miss takes a window 4x larger, up to
# _SCAN_WINDOW_MAX, which bounds the scan's temporary arrays.
_SCAN_WINDOW = 256
_SCAN_WINDOW_MAX = 4096


class ChainConfigError(ValueError):
    """Invalid sampler configuration (bad init set, degenerate graph, ...)."""


def require_count(name, value, low, error=ValueError):
    """Raise ``error`` naming ``name`` unless ``value`` is an integer of at
    least ``low``: a Python or numpy int passes, a float such as 2.0 does
    not."""
    try:
        operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise error(f"{name} must be >= {low}")


@dataclass(frozen=True)
class ChainConfig:
    """Sampler configuration.

    ``c`` is the inverse temperature, positive and finite.  The chain's
    stationary law is only approximately proportional to exp(c * W); see
    the module docstring.

    ``max_steps`` and ``patience`` default (when None) to 200*N and 20*N for
    a graph of N nodes.  ``init_members`` of None seeds the chain at a
    uniformly random single node.  Per-step diagnostics are not configured
    here: pass an ``observer`` to :func:`run_chain` instead.
    """

    c: float = 1.0
    max_steps: int | None = None
    patience: int | None = None
    seed: int = 0
    init_members: tuple[int, ...] | None = None

    def __post_init__(self):
        if not 0 < self.c < math.inf:  # also rejects NaN
            raise ChainConfigError(f"c must be positive and finite, got {self.c}")
        require_count("seed", self.seed, 0, ChainConfigError)
        for u in self.init_members or ():
            require_count("init_members entry", u, 0, ChainConfigError)
        for name in ("max_steps", "patience"):
            value = getattr(self, name)
            if value is not None:
                require_count(name, value, 1, ChainConfigError)
        if (
            self.max_steps is not None
            and self.patience is not None
            and self.patience > self.max_steps
        ):
            raise ChainConfigError("patience must not exceed max_steps")


class StepEvent(NamedTuple):
    """One proposal: what was drawn, its delta, and the outcome."""

    step: int
    node: int
    direction: str
    delta: float | None  # None for automatic rejections (inadmissible move)
    log_ratio: float | None  # c * delta
    uniform: float | None  # acceptance draw; None when none was consumed
    accepted: bool
    size: int  # |S| after the step
    w: float  # W after the step


@dataclass(frozen=True)
class ChainResult:
    best_state: CommunityState
    best_score: Score
    steps_run: int
    accepted: int
    acceptance_rate: float
    # "no_edges", "patience", "max_steps" or "stalled" (S is one node with
    # no neighbour, at the start or after removals); see run_chain.
    stopped: str


class _IndexedSet:
    """Set of small ints with O(1) add/discard and O(1) uniform sampling."""

    __slots__ = ("items", "pos")

    def __init__(self, capacity: int):
        self.items: list[int] = []
        self.pos = [-1] * capacity

    def add(self, v: int) -> None:
        if self.pos[v] < 0:
            self.pos[v] = len(self.items)
            self.items.append(v)

    def discard(self, v: int) -> None:
        i = self.pos[v]
        if i < 0:
            return
        last = self.items[-1]
        self.items[i] = last
        self.pos[last] = i
        self.items.pop()
        self.pos[v] = -1


def run_chain(
    g,
    params,
    config: ChainConfig,
    observer: Callable[[StepEvent, CommunityState], None] | None = None,
) -> ChainResult:
    """Run one chain on ``g`` and return the best subset seen.

    Fully deterministic given ``config.seed``.  Where W may overflow a float
    on ``g`` (:func:`~dcex.criterion.check_value_bound`), it raises before
    any step.  ``stopped`` says why the chain ended: "no_edges" when ``g``
    has no edge, so no step is run; otherwise "patience" when ``patience``
    steps in a row did not improve on the best W, else "max_steps" when the
    step budget ran out, else "stalled" when S is one node with no
    neighbour, at the start or after removals, from which no move can be
    accepted.  A step at which more than one of these holds is named by
    the first of the three.

    ``observer``, when given, is called once per proposal, after the move
    (if accepted) is applied, as ``observer(event, state)``: ``event`` is
    that step's :class:`StepEvent` and ``state`` the chain's live
    :class:`CommunityState`, which the observer must not mutate.  It sees
    every step the chain runs and draws no random numbers, so observing a
    chain does not change its trajectory or its result.

    The reported ``best_score`` is evaluated from scratch on the reported
    ``best_state``, so it is exactly ``score(g, result.best_state, params)``.

    A proposal repeated from an unchanged subset is a lookup of its delta, log
    ratio and acceptance bar (it still draws its own uniform); an accepted
    move walks its node's merged row once, in O(degree).  When every weight
    is an integer and the total is below 2**53 (:func:`_exact_sums`), all
    sums are exact: a node outside S is in the pool exactly when its weight
    to or from S is nonzero, so no count of adjacent members is kept, and a
    memo made at S holds on a return to S; when ``g.symmetric`` too, the two
    weights are equal and one list keeps both.  An accepted move is applied
    inline, as :meth:`CommunityState.apply_move` applies it, keeps the memo
    it leaves in an undo slot and, on exact sums, swaps it back in when it
    moves the node the last accepted move moved; otherwise it starts a new
    memo, so a float graph's undo slot is never read.  A step that missed
    the memo or accepted a move, after which the memo covers the pool,
    weighs a scan: with no outright accept in the pool and a mean acceptance
    bar that says the rejections should last ``_SCAN_MIN`` more steps, the
    run is taken in numpy (:func:`_scan_rejections`), which reads the same
    draws, stops at the same step and reports the same events as the loop.
    """
    n = g.n_nodes
    top = max_admissible_size(n, params.rho)
    if top < 1:
        raise ChainConfigError(
            f"no admissible subset exists for N={n}, rho={params.rho}"
        )
    check_value_bound(g, params)
    rng = np.random.default_rng(config.seed)

    if config.init_members is not None:
        init = tuple(int(u) for u in config.init_members)
        if len(set(init)) != len(init):
            raise ChainConfigError("init_members contains duplicates")
        if not 1 <= len(init) <= top:
            raise ChainConfigError(
                f"initial set of size {len(init)} is inadmissible for "
                f"N={n}, rho={params.rho}"
            )
    else:
        init = (int(rng.integers(0, n)),)

    state = CommunityState.from_members(g, init)
    value = value_function(n, params)
    w_cur = value(*state.counts())

    def make_result(stopped, steps, accepted, best_members):
        best_state = CommunityState.from_members(g, best_members)
        return ChainResult(
            best_state=best_state,
            best_score=score(g, best_state, params),
            steps_run=steps,
            accepted=accepted,
            acceptance_rate=(accepted / steps) if steps else 0.0,
            stopped=stopped,
        )

    best_members = frozenset(state.members)

    if g.edge_count == 0:
        return make_result("no_edges", 0, 0, best_members)

    max_steps = config.max_steps or 200 * n  # each is None or at least 1
    patience = min(config.patience or 20 * n, max_steps)

    # Proposal pool: S plus every node adjacent to S (either direction).
    # to_s[v] and from_s[v] are the weights from v into S and from S into v,
    # so a proposal costs O(1).  Starting from u or moving it walks u's
    # merged row once: each neighbour v with the weights a of v -> u and b of
    # u -> v (0.0 where no edge is).  Weights are positive, so a node outside
    # S is in the pool iff it has a weight to or from S; when the sums are
    # exact, they fall back to exactly 0.0 as its last neighbour in S leaves
    # and are the pool test, and a memo made at S holds on a return to S.
    # Otherwise they may not, and cov[v] counts the members adjacent to v.
    # On a symmetric graph a row's w_in is its w_out, so exact sums to and
    # from S are equal: from_s is to_s, and each weight is added once.
    exact = _exact_sums(g)
    one = exact and g.symmetric
    pool = _IndexedSet(n)
    cov = None if exact else [0] * n
    to_s = [0.0] * n
    from_s = to_s if one else [0.0] * n
    rows = g.nbr_rows
    members, in_set = state.members, state.in_set
    for u in members:
        pool.add(u)
        for v, a, b in zip(*rows[u]):
            if cov is not None:
                cov[v] += 1
            pool.add(v)
            to_s[v] += a
            if not one:
                from_s[v] += b

    c = config.c
    items = pool.items
    out_strength, in_strength = g.out_strength, g.in_strength
    exp = math.exp
    scan_min = _SCAN_MIN
    # Uniform draws: a numpy block, read by index from its list copy.
    block = rng.random(_RNG_BLOCK)
    draws = block.tolist()
    pos = 0
    refill_at = len(draws) - 1  # a step may take two draws
    best_w = w_cur
    accepted = 0
    since_improve = 0
    step = 0
    # What proposing each node from the current state gives; S and
    # everything a proposal reads change only on an accepted move.
    memo = {}
    # The memo of the subset the last accepted move left, and the node that
    # move moved: moving it again goes back to that subset.  With float
    # weights (x + w) - w may differ from x, so the subset gone back to may
    # not have the counts the memo was made with: the slot is never read.
    undo, moved = {}, -1

    # The pool holds S, so a pool of one node is a member with no neighbour:
    # no move can be accepted from it again.
    pool_len = len(items)  # changes only on an accepted move
    while step < max_steps and since_improve < patience and pool_len > 1:
        step += 1
        if pos >= refill_at:
            block, pos = _refill(rng, block, pos), 0
            del draws  # free the old list before its successor is made
            draws = block.tolist()
            refill_at = len(draws) - 1
        # u < 1 and pool_len < 2**53, so u * pool_len rounds below pool_len.
        u = items[int(draws[pos] * pool_len)]
        pos += 1
        outcome = memo.get(u)
        if outcome is not None:
            direction, new_counts, w_new, delta, log_ratio, bar = outcome
        else:
            if in_set[u]:
                direction = "remove"
                auto_reject = state.size == 1
            else:
                direction = "add"
                auto_reject = state.size >= top
            if auto_reject:
                new_counts = w_new = delta = log_ratio = bar = None
            else:
                new_counts = counts_after_move(state, direction, out_strength[u],
                                               in_strength[u], to_s[u], from_s[u])
                w_new = value(*new_counts)
                delta = w_new - w_cur
                log_ratio = c * delta
                # The acceptance bar; None when the move is accepted outright.
                bar = None if log_ratio >= 0 else exp(log_ratio)
            memo[u] = (direction, new_counts, w_new, delta, log_ratio, bar)

        if bar is None:  # an automatic rejection, or accepted outright
            unif = None
            accept = delta is not None
        else:
            unif = draws[pos]
            pos += 1
            accept = unif < bar

        if accept:
            accepted += 1
            if exact and u == moved:
                memo, undo = undo, memo
            else:
                memo, undo = {}, memo
            moved = u
            w_cur = w_new
            # The move as CommunityState.apply_move makes it, then the walk.
            state.o_s, state.b_in, state.b_out, state.size = new_counts
            nbrs, w_in, w_out = rows[u]
            if direction == "add":
                members.add(u)
                in_set[u] = 1
                if one:
                    for v, a in zip(nbrs, w_in):
                        t = to_s[v]
                        if not t and not in_set[v]:
                            pool.add(v)
                        to_s[v] = t + a
                elif exact:
                    for v, a, b in zip(nbrs, w_in, w_out):
                        t = to_s[v]
                        f = from_s[v]
                        if not (t or f) and not in_set[v]:
                            pool.add(v)
                        to_s[v] = t + a
                        from_s[v] = f + b
                else:
                    for v, a, b in zip(nbrs, w_in, w_out):
                        if cov[v] == 0 and not in_set[v]:
                            pool.add(v)
                        cov[v] += 1
                        to_s[v] += a
                        from_s[v] += b
            else:
                members.remove(u)
                in_set[u] = 0
                if one:
                    for v, a in zip(nbrs, w_in):
                        t = to_s[v] = to_s[v] - a
                        if not t and not in_set[v]:
                            pool.discard(v)
                    if not to_s[u]:
                        pool.discard(u)
                elif exact:
                    for v, a, b in zip(nbrs, w_in, w_out):
                        t = to_s[v] = to_s[v] - a
                        f = from_s[v] = from_s[v] - b
                        if not (t or f) and not in_set[v]:
                            pool.discard(v)
                    if not (to_s[u] or from_s[u]):
                        pool.discard(u)
                else:
                    for v, a, b in zip(nbrs, w_in, w_out):
                        cov[v] -= 1
                        if cov[v] == 0 and not in_set[v]:
                            pool.discard(v)
                        to_s[v] -= a
                        from_s[v] -= b
                    if cov[u] == 0:
                        pool.discard(u)
            # Read before the scan weigh below: a restored memo may cover
            # the new pool at once.
            pool_len = len(items)
            if w_cur > best_w:
                best_w = w_cur
                best_members = frozenset(state.members)
                since_improve = 0
            else:
                since_improve += 1
        else:
            since_improve += 1

        if observer is not None:
            observer(
                StepEvent(step, u, direction, delta, log_ratio, unif, accept,
                          state.size, w_cur),
                state,
            )

        if (outcome is None or accept) and len(memo) == pool_len:
            # Every pool node has been proposed from this state, so until a
            # move is accepted each step is a lookup and reads nothing new:
            # only a miss or an accept can be the first step to see this.
            # Take the run in numpy if it should last scan_min steps: the
            # chance of an accept per step is the mean bar.  A restored memo
            # may hold the outright accept that left this state before (bar
            # None, with a delta), which the scan would read as a rejection.
            # At the step where patience or the budget runs out, limit is
            # at most 0, so no scan is taken.
            bars = [memo[v][5] for v in items]
            limit = min(patience - since_improve, max_steps - step)
            outright = None in bars and any(
                memo[v][3] is not None for v in items if memo[v][5] is None)
            if (limit >= scan_min and not outright
                    and sum(filter(None, bars)) * scan_min <= pool_len):
                taken, new_block, pos, picks = _scan_rejections(
                    rng, block, pos, bars, limit, observer is not None)
                if picks is not None:
                    size = state.size
                    for i, (k, unif) in enumerate(picks, start=step + 1):
                        u = items[k]
                        direction, _, _, delta, log_ratio, _ = memo[u]
                        observer(StepEvent(i, u, direction, delta, log_ratio,
                                           unif, False, size, w_cur), state)
                if new_block is not block:
                    block = new_block
                    del draws
                    draws = block.tolist()
                    refill_at = len(draws) - 1
                step += taken
                since_improve += taken

    stopped = ("patience" if since_improve >= patience
               else "max_steps" if step >= max_steps else "stalled")
    return make_result(stopped, step, accepted, best_members)


def search(g, params, chain: ChainConfig, seeds, observer_of=None):
    """Run one chain per seed; return ``(result, members)`` of the best.

    The best chain has the highest W; of chains with equal W the one whose
    sorted member tuple is smaller wins, so the choice does not depend on
    the order of ``seeds``.  ``observer_of(k)`` gives the k-th chain its
    observer or None.  Both sides of the extraction significance test run
    this search.
    """
    best = best_members = best_w = None
    for k, seed in enumerate(seeds):
        observer = observer_of(k) if observer_of else None
        result = run_chain(g, params, replace(chain, seed=seed), observer)
        members = tuple(sorted(result.best_state.members))
        w = result.best_score.value
        if best is None or w > best_w or (w == best_w and members < best_members):
            best, best_members, best_w = result, members, w
    return best, best_members


def _refill(rng, block, pos):
    """The draws of ``block`` from ``pos`` on, then a fresh block from ``rng``:
    the stream read on is the same as if no block boundary were there."""
    return np.concatenate((block[pos:], rng.random(_RNG_BLOCK)))


def _scan_rejections(rng, block, pos, bars, limit, keep):
    """Take the rejected steps of a chain whose state stays fixed, in numpy.

    ``bars[k]`` is the acceptance bar of the node at pool position k, or None
    when that node's move is rejected outright; no node is accepted
    outright.  Starting at ``block[pos]``, each step draws its pool position
    ``k = int(u * P)`` and, when ``bars[k]`` is not None, an
    acceptance uniform; the step is accepted when that uniform is below the
    bar.  Takes steps until the next accepted one, which is left to be
    drawn again, or until ``limit`` steps.  Returns ``(taken, block, pos,
    picks)``: the steps taken, the block and index where the next draw is,
    and, when ``keep``, each taken step's ``(k, uniform or None)``.
    """
    size = len(bars)
    # With every bar set each step is a plain pair of draws, read by stride
    # at about a sixth of the cost of the general parse below.
    every = None not in bars
    # An outright rejection's bar is 0.0, which no uniform is below.
    bar = np.array(bars if every else [b or 0.0 for b in bars])
    two = None if every else np.array([b is not None for b in bars])
    picks = [] if keep else None
    taken = 0
    window = _SCAN_WINDOW
    while True:
        if len(block) - pos < 2:
            block, pos = _refill(rng, block, pos), 0
        d = block[pos:min(len(block), pos + window, pos + 2 * (limit - taken))]
        if every:
            steps = len(d) // 2
            ks = (d[0:2 * steps:2] * size).astype(np.intp)
            unifs = d[1:2 * steps:2]
            ends = None
        else:
            m = len(d)
            ks = (d * size).astype(np.intp)
            two_d = two[ks]
            # Draw j starts a step unless draw j-1 started a two-draw step:
            # after the last one-draw pick r < j, starts alternate, so j
            # starts a step iff j - r is odd (r = -1 when there is none).
            gap = np.arange(m)
            last = np.where(two_d, -1, gap)
            np.maximum.accumulate(last, out=last)
            gap[0] = 1
            gap[1:] -= last[:-1]  # j - r
            starts = np.flatnonzero(gap & 1)
            ends = starts + 1 + two_d[starts]  # the draw after each step
            if ends[-1] > m:  # its acceptance draw is past the window
                starts, ends = starts[:-1], ends[:-1]
            steps = len(starts)
            ks = ks[starts]
            unifs = d[np.minimum(starts + 1, m - 1)]
        hit = unifs < bar[ks]
        room = min(steps, limit - taken)
        first = int(hit[:room].argmax())
        t = first if hit[first] else room
        if keep:
            picks += [(k, None if bars[k] is None else x)
                      for k, x in zip(ks[:t].tolist(), unifs[:t].tolist())]
        taken += t
        if t:
            pos += 2 * t if ends is None else int(ends[t - 1])
        if t < room or taken == limit:
            return taken, block, pos, picks
        window = min(4 * window, _SCAN_WINDOW_MAX)


def _exact_sums(g) -> bool:
    """Whether every sum of ``g``'s edge weights is exact in floats: every
    weight is an integer and the total weight is below 2**53.  Then a chain
    reads pool membership off its weight sums and keeps an undo memo."""
    weights = g.edge_weight
    return g.total_weight < 2**53 and not np.any(weights != np.floor(weights))


def write_trace_csv(events, path) -> None:
    """Dump observed :class:`StepEvent` s as ``step,W,accepted,|S|`` CSV."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,W,accepted,size\n")
        for e in events:
            fh.write(f"{e.step},{e.w!r},{int(e.accepted)},{e.size}\n")

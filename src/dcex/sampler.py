"""Metropolis-Hastings subset sampler targeting exp(c * W(S)).

At each step a node u is drawn uniformly from the proposal pool: the current
subset together with every node adjacent to it by an edge in either
direction.  If u is a member its removal is proposed, otherwise its
addition, and the move is accepted with probability min[1, exp(c * dW)].
Moves that would leave the admissible domain count as rejections.

The plain ratio ignores the changing pool size, so the stationary law is
only approximately proportional to exp(c * W); ``hastings_corrected``
multiplies the ratio by |pool(S)| / |pool(S')| to make it exact on the
reachable state space.

Each node keeps its edge weight to and from S, so a proposal costs O(1), and
a proposal repeated from an unchanged subset is one lookup.  An accepted move
walks the moved node's merged neighbour row once and clears that memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .criterion import (
    CommunityState,
    Score,
    counts_after_move,
    max_admissible_size,
    score,
    value_function,
)

_RNG_BLOCK = 8192


class ChainConfigError(ValueError):
    """Invalid sampler configuration (bad init set, degenerate graph, ...)."""


@dataclass(frozen=True)
class ChainConfig:
    """Sampler configuration.

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
    hastings_corrected: bool = False

    def __post_init__(self):
        if not self.c > 0:  # also rejects NaN
            raise ChainConfigError(f"c must be positive, got {self.c}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ChainConfigError("max_steps must be >= 1")
        if self.patience is not None and self.patience < 1:
            raise ChainConfigError("patience must be >= 1")
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
    log_ratio: float | None
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
    stopped: str  # "max_steps" | "patience" | "no_edges" | "stalled"


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


def resolve_budget(config: ChainConfig, n_nodes: int) -> tuple[int, int]:
    max_steps = config.max_steps if config.max_steps is not None else 200 * n_nodes
    patience = config.patience if config.patience is not None else 20 * n_nodes
    patience = min(patience, max_steps)
    return max_steps, patience


def run_chain(
    g,
    params,
    config: ChainConfig,
    observer: Callable[[StepEvent, CommunityState], None] | None = None,
) -> ChainResult:
    """Run one chain on ``g`` and return the best subset seen.

    Fully deterministic given ``config.seed``.  On a graph with no edges the
    chain terminates immediately with the initial state and ``stopped`` set
    to "no_edges".

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
    move walks its node's merged row once, in O(degree), and clears that memo.
    """
    n = g.n_nodes
    if n < 2:
        raise ChainConfigError("need at least 2 nodes to run a chain")
    top = max_admissible_size(n, params.rho)
    if top < 1:
        raise ChainConfigError(
            f"no admissible subset exists for N={n}, rho={params.rho}"
        )
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

    max_steps, patience = resolve_budget(config, n)

    # Proposal pool: S plus every node adjacent to S (either direction);
    # cov[v] counts members adjacent to v.  to_s[v] and from_s[v] are the
    # weights from v into S and from S into v, so a proposal costs O(1).
    # Starting from u or moving it walks u's merged row once: each neighbour
    # v with the weights a of v -> u and b of u -> v (0.0 where no edge is).
    pool = _IndexedSet(n)
    cov = [0] * n
    to_s = [0.0] * n
    from_s = [0.0] * n
    rows = g.nbr_rows
    in_set = state.in_set
    for u in state.members:
        pool.add(u)
        for v, a, b in zip(*rows[u]):
            cov[v] += 1
            pool.add(v)
            to_s[v] += a
            from_s[v] += b

    next_uniform = _uniforms(rng).__next__
    c = config.c
    hastings = config.hastings_corrected
    items = pool.items
    out_strength, in_strength = g.out_strength, g.in_strength
    exp, log = math.exp, math.log
    best_w = w_cur
    accepted = 0
    since_improve = 0
    stopped = "max_steps"
    steps = 0
    # What proposing each node from the current state gives; S and
    # everything a proposal reads change only on an accepted move.
    memo = {}

    for step in range(1, max_steps + 1):
        steps = step
        pool_len = len(items)
        if pool_len == 1 and state.size == 1:
            # Isolated single-node state: no admissible move can ever fire.
            steps = step - 1
            stopped = "stalled"
            break
        k = int(next_uniform() * pool_len)
        if k == pool_len:  # guard against rounding at the top of the range
            k = pool_len - 1
        u = items[k]
        outcome = memo.get(u)
        if outcome is not None:
            direction, new_counts, w_new, delta, log_ratio, bar = outcome
        else:
            if in_set[u]:
                direction = "remove"
                # With the correction, a u with no edge to the rest of S stays,
                # as re-adding it could then never be proposed (detailed balance).
                auto_reject = state.size == 1 or (hastings and cov[u] == 0)
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
                if hastings:
                    log_ratio += log(pool_len / _pool_size_after(
                        u, direction, pool_len, cov, in_set, rows[u][0]))
                # The acceptance bar; None when the move is accepted outright.
                bar = None if log_ratio >= 0 else exp(log_ratio)
            memo[u] = (direction, new_counts, w_new, delta, log_ratio, bar)

        if bar is None:  # an automatic rejection, or accepted outright
            unif = None
            accept = delta is not None
        else:
            unif = next_uniform()
            accept = unif < bar

        if accept:
            accepted += 1
            memo.clear()
            state.apply_move(u, direction, new_counts)
            w_cur = w_new
            if direction == "add":
                for v, a, b in zip(*rows[u]):
                    if cov[v] == 0 and not in_set[v]:
                        pool.add(v)
                    cov[v] += 1
                    to_s[v] += a
                    from_s[v] += b
            else:
                for v, a, b in zip(*rows[u]):
                    cov[v] -= 1
                    if cov[v] == 0 and not in_set[v]:
                        pool.discard(v)
                    to_s[v] -= a
                    from_s[v] -= b
                if cov[u] == 0:
                    pool.discard(u)
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
        if since_improve >= patience:
            stopped = "patience"
            break

    return make_result(stopped, steps, accepted, best_members)


def _uniforms(rng):
    """Endless stream of uniform draws on [0, 1), taken from ``rng`` in blocks."""
    while True:
        yield from rng.random(_RNG_BLOCK).tolist()


def _pool_size_after(u, direction, pool_len, cov, in_set, nbrs):
    """Size of the proposal pool if u's move were applied (for the correction)."""
    size = pool_len
    if direction == "add":
        for v in nbrs:
            if cov[v] == 0 and not in_set[v]:
                size += 1
    else:
        for v in nbrs:
            if cov[v] == 1 and not in_set[v] and v != u:
                size -= 1
        if cov[u] == 0:
            size -= 1
    return size


def write_trace_csv(events, path) -> None:
    """Dump observed :class:`StepEvent` s as ``step,W,accepted,|S|`` CSV."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,W,accepted,size\n")
        for e in events:
            fh.write(f"{e.step},{e.w!r},{int(e.accepted)},{e.size}\n")

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .criterion import (
    CommunityState,
    Score,
    is_admissible_size,
    max_admissible_size,
    move_delta,
    score,
    value_from_counts,
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

    def __len__(self):
        return len(self.items)


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
    """
    n = g.n_nodes
    if n < 2:
        raise ChainConfigError("need at least 2 nodes to run a chain")
    if max_admissible_size(n, params.rho) < 1:
        raise ChainConfigError(
            f"no admissible subset exists for N={n}, rho={params.rho}"
        )
    rng = np.random.default_rng(config.seed)

    if config.init_members is not None:
        init = tuple(int(u) for u in config.init_members)
        if len(set(init)) != len(init):
            raise ChainConfigError("init_members contains duplicates")
        if not is_admissible_size(len(init), n, params.rho):
            raise ChainConfigError(
                f"initial set of size {len(init)} is inadmissible for "
                f"N={n}, rho={params.rho}"
            )
    else:
        init = (int(rng.integers(0, n)),)

    state = CommunityState.from_members(g, init)
    w_cur = value_from_counts(
        state.o_s, state.b_in, state.b_out, state.size, n, params
    )

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

    # Proposal pool: S plus every node adjacent to S (either direction).
    # cov[v] counts members adjacent to v, so pool membership is
    # in_set[v] or cov[v] > 0 and can be maintained in O(degree) per move.
    pool = _IndexedSet(n)
    cov = [0] * n
    adj = g.adj_nbrs
    in_set = state.in_set
    for u in state.members:
        pool.add(u)
        for v in adj[u]:
            cov[v] += 1
            pool.add(v)

    uniforms: list[float] = []
    u_idx = 0

    def next_uniform():
        nonlocal uniforms, u_idx
        if u_idx >= len(uniforms):
            uniforms = rng.random(_RNG_BLOCK).tolist()
            u_idx = 0
        val = uniforms[u_idx]
        u_idx += 1
        return val

    c = config.c
    hastings = config.hastings_corrected
    best_w = w_cur
    accepted = 0
    since_improve = 0
    stopped = "max_steps"
    steps = 0

    for step in range(1, max_steps + 1):
        steps = step
        pool_len = len(pool.items)
        if pool_len == 1 and state.size == 1:
            # Isolated single-node state: no admissible move can ever fire.
            steps = step - 1
            stopped = "stalled"
            break
        k = int(next_uniform() * pool_len)
        if k == pool_len:  # guard against rounding at the top of the range
            k = pool_len - 1
        u = pool.items[k]
        direction = "remove" if in_set[u] else "add"

        auto_reject = False
        if direction == "remove":
            if state.size - 1 < 1:
                auto_reject = True
            elif hastings and cov[u] == 0:
                # u has no edge to the rest of S: after removal the reverse
                # (re-adding u) could never be proposed, so detailed balance
                # demands rejecting the forward move outright.
                auto_reject = True
        else:
            if not is_admissible_size(state.size + 1, n, params.rho):
                auto_reject = True

        if auto_reject:
            delta = None
            log_ratio = None
            unif = None
            accept = False
        else:
            delta, new_counts = move_delta(g, state, u, direction, params)
            log_ratio = c * delta
            if hastings:
                log_ratio += math.log(
                    pool_len / _pool_size_after(u, direction, pool_len, cov, in_set, adj)
                )
            if log_ratio >= 0:
                unif = None
                accept = True
            else:
                unif = next_uniform()
                accept = unif < math.exp(log_ratio)

        if accept:
            accepted += 1
            state.apply_move(u, direction, new_counts)
            if direction == "add":
                for v in adj[u]:
                    if cov[v] == 0 and not in_set[v]:
                        pool.add(v)
                    cov[v] += 1
            else:
                for v in adj[u]:
                    cov[v] -= 1
                    if cov[v] == 0 and not in_set[v]:
                        pool.discard(v)
                if cov[u] == 0:
                    pool.discard(u)
            w_cur = value_from_counts(
                state.o_s, state.b_in, state.b_out, state.size, n, params
            )
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


def _pool_size_after(u, direction, pool_len, cov, in_set, adj):
    """Size of the proposal pool if the move were applied (for the correction)."""
    size = pool_len
    if direction == "add":
        for v in adj[u]:
            if cov[v] == 0 and not in_set[v]:
                size += 1
    else:
        for v in adj[u]:
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

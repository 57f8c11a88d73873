"""Quality criterion for local communities in directed graphs.

A candidate community is a node subset S.  Its quality combines internal
density with a penalty on boundary edges, where the penalty is inflated when
the boundary mixes incoming and outgoing directions:

    W(S) = |S| * e(S) * [ O_S / |S|^2  -  q^n * B_S / (|S| * e(S)) ]

with e(S) = rho*N - |S| (an effective complement size), O_S the weight of
edges internal to S, B_S = B_in + B_out the boundary weight, and

    q = (B_S + 1) / (|B_in - B_out| + 1)

the direction-consistency coefficient: q = 1 when every boundary edge points
the same way relative to S, growing to B_S + 1 when in- and out-flow balance.
At n = 0, q^n = 1 and W is the purely density-based, direction-blind form:
the UCE baseline is W at n = 0 on the symmetrized graph.  A :class:`Score`
reports the boundary's q at every n.

The criterion is finite for any 1 <= |S| <= rho*N (at the very top,
e(S) = 0 and only the penalty term survives), and :func:`score` evaluates
that whole range.  The sampler explores the narrower *admissible* region
1 <= |S| and 2|S|/N < rho, which keeps e(S) > |S| > 0; moves that would
leave it are rejected outright.  This module also gives the counts after a
single-node move in O(1) from the weights between that node and S, which the
sampler keeps per node, and :func:`move_delta`, which sums those weights from
scratch as the reference for the sampler's deltas.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

# Slack for the admissibility inequality 2|S| < rho*N, where values within
# this tolerance of the boundary count as on it (and are rejected), and for
# the domain bound |S| <= rho*N of score, where they count as inside it.
_ADM_TOL = 1e-9


class CriterionDomainError(ValueError):
    """Scoring was requested for an inadmissible subset."""


class MoveRejected(Exception):
    """A proposed move would leave the admissible domain.

    Distinct from a numeric or usage error so callers can treat it as an
    automatic rejection.
    """


@dataclass(frozen=True)
class CriterionParams:
    """Criterion configuration: rho in (0, 1] and a finite penalty exponent
    n >= 0; n = 0 switches the direction term off."""

    rho: float = 0.8
    n: float = 5.0

    def __post_init__(self):
        if not (0.0 < self.rho <= 1.0):
            raise ValueError(f"rho must be in (0, 1], got {self.rho}")
        if not 0 <= self.n < math.inf:  # also rejects NaN
            raise ValueError(
                f"penalty exponent n must be finite and >= 0, got {self.n}")


@dataclass(frozen=True)
class Score:
    """Criterion evaluation: value W, coefficient q, and e(S) = rho*N - |S|."""

    value: float
    q_d: float
    effective_size_term: float


def is_admissible_size(size: int, n_nodes: int, rho: float) -> bool:
    """Sampler admissibility: 1 <= |S| and strictly 2|S|/N < rho."""
    return size >= 1 and rho * n_nodes - 2.0 * size > _ADM_TOL


def max_admissible_size(n_nodes: int, rho: float) -> int:
    """Largest admissible |S| for a graph of n_nodes, or 0 if none exists."""
    k = int(rho * n_nodes / 2.0) + 1
    while k >= 1 and not is_admissible_size(k, n_nodes, rho):
        k -= 1
    return k


def q_coefficient(b_in: float, b_out: float) -> float:
    return (b_in + b_out + 1.0) / (abs(b_in - b_out) + 1.0)


def value_function(n_nodes, params):
    """The one formula for W, as ``value(o_s, b_in, b_out, size)`` on a graph
    of n_nodes, with rho*N and n bound once; no admissibility check (callers
    guarantee it).  At n = 0, q ** 0.0 is 1.0 and 1.0 * x == x, so W is
    exactly the direction-blind form."""
    rho_n = params.rho * n_nodes
    n = params.n

    def value(o_s, b_in, b_out, size):
        return ((rho_n - size) * o_s / size
                - q_coefficient(b_in, b_out) ** n * (b_in + b_out))
    return value


def check_value_bound(g, params) -> None:
    """Raise :class:`CriterionDomainError` when W may overflow a float on
    ``g``.  With m the total weight, q <= m + 1, so |W| <= rho*N*m +
    (m+1)^n * m, and a move's delta is at most twice that."""
    m = g.total_weight
    try:
        bound = 2.0 * (params.rho * g.n_nodes * m + (m + 1.0) ** params.n * m)
    except OverflowError:  # float ** raises where * gives inf
        bound = math.inf
    if not math.isfinite(bound):
        raise CriterionDomainError(
            f"W may overflow a float at n={params.n} with total edge weight "
            f"m={m:g}: 2*(rho*N*m + (m+1)**n * m) must be finite")


class CommunityState:
    """A node subset with cached counts (O_S, B_in, B_out, |S|).

    Single-owner mutable: one sampler chain owns one state over a shared
    read-only graph.  ``in_set`` is a bytearray indexed by node id for cheap
    membership tests.
    """

    __slots__ = ("members", "in_set", "size", "o_s", "b_in", "b_out")

    def __init__(self, members, in_set, size, o_s, b_in, b_out):
        self.members = members
        self.in_set = in_set
        self.size = size
        self.o_s = o_s
        self.b_in = b_in
        self.b_out = b_out

    @classmethod
    def from_members(cls, g, members) -> "CommunityState":
        """Build a state by computing all counts from scratch.

        The counts are summed in node order, so they depend on the set alone
        and not on the order in which its members were added.
        """
        mset = set()
        for u in members:
            try:
                u = operator.index(u)  # an int, not a float such as 1.7
            except TypeError:
                raise ValueError(f"member {u!r} is not an integer") from None
            if not (0 <= u < g.n_nodes):
                raise ValueError(f"member {u} out of range")
            mset.add(u)
        in_set = bytearray(g.n_nodes)
        for u in mset:
            in_set[u] = 1
        o_s = 0.0
        b_out = 0.0
        b_in = 0.0
        for u in sorted(mset):
            for v, a, b in zip(*g.nbr_rows[u]):  # a: v -> u, b: u -> v
                if in_set[v]:
                    o_s += b
                else:
                    b_out += b
                    b_in += a
        return cls(mset, in_set, len(mset), o_s, b_in, b_out)

    def counts(self) -> tuple[float, float, float, int]:
        return (self.o_s, self.b_in, self.b_out, self.size)

    def apply_move(self, u: int, direction: str, new_counts) -> None:
        """Commit a move whose post-move counts are ``new_counts``."""
        if direction == "add":
            self.members.add(u)
            self.in_set[u] = 1
        else:
            self.members.remove(u)
            self.in_set[u] = 0
        self.o_s, self.b_in, self.b_out, self.size = new_counts


def score(g, state, params: CriterionParams) -> Score:
    """Evaluate the criterion on a subset.

    ``state`` may be a :class:`CommunityState` or any iterable of node ids.
    Raises :class:`CriterionDomainError` outside the finite range
    1 <= |S| <= rho*N, so out-of-range subsets are never silently evaluated,
    and where W may overflow a float on ``g`` (:func:`check_value_bound`).
    ``q_d`` is the boundary's q at every n, n = 0 included.
    """
    if not isinstance(state, CommunityState):
        state = CommunityState.from_members(g, state)
    effective_size = params.rho * g.n_nodes - state.size
    if not (state.size >= 1 and effective_size > -_ADM_TOL):
        raise CriterionDomainError(
            f"|S|={state.size} outside the criterion's domain for "
            f"N={g.n_nodes}, rho={params.rho} (need 1 <= |S| <= rho*N)"
        )
    check_value_bound(g, params)
    return Score(
        value=value_function(g.n_nodes, params)(*state.counts()),
        q_d=q_coefficient(state.b_in, state.b_out),
        effective_size_term=effective_size,
    )


def counts_after_move(state, direction, out_strength, in_strength,
                      w_u_to_s, w_s_to_u):
    """Counts ``(o_s, b_in, b_out, size)`` after adding or removing a node u, in
    O(1) and unchecked, from u's out- and in-strength and its weights into and
    from S (the same whether or not u is a member, as there are no self-loops)."""
    out_rest = out_strength - w_u_to_s  # u's out-weight outside S
    in_rest = in_strength - w_s_to_u
    if direction == "add":
        return (state.o_s + w_u_to_s + w_s_to_u,
                state.b_in - w_u_to_s + in_rest,
                state.b_out - w_s_to_u + out_rest,
                state.size + 1)
    return (state.o_s - w_u_to_s - w_s_to_u,
            state.b_in - in_rest + w_u_to_s,
            state.b_out - out_rest + w_s_to_u,
            state.size - 1)


def move_delta(g, state: CommunityState, u: int, direction: str, params):
    """Exact criterion change for adding/removing node ``u``.

    Returns ``(delta_w, (o_s, b_in, b_out, size))`` for the post-move state.
    It sums u's weights to and from S over u's edges, in O(degree(u)), so
    it is the reference for the sampler's O(1) deltas, and the benchmark's
    per-call probe.  Raises :class:`MoveRejected` when the move would leave
    the admissible domain, and ``ValueError`` on precondition violations
    (adding a member / removing a non-member).
    """
    in_set = state.in_set
    if direction == "add":
        if in_set[u]:
            raise ValueError(f"cannot add node {u}: already a member")
        if not is_admissible_size(state.size + 1, g.n_nodes, params.rho):
            raise MoveRejected(f"|S|={state.size + 1} would be inadmissible")
    elif direction == "remove":
        if not in_set[u]:
            raise ValueError(f"cannot remove node {u}: not a member")
        if state.size - 1 < 1:
            raise MoveRejected("cannot remove the last member")
    else:
        raise ValueError(f"direction must be 'add' or 'remove', got {direction!r}")

    w_u_to_s = 0.0
    w_s_to_u = 0.0
    for v, a, b in zip(*g.nbr_rows[u]):  # a: v -> u, b: u -> v
        if in_set[v]:
            w_u_to_s += b
            w_s_to_u += a
    counts = counts_after_move(state, direction, g.out_strength[u],
                               g.in_strength[u], w_u_to_s, w_s_to_u)
    value = value_function(g.n_nodes, params)
    return value(*counts) - value(*state.counts()), counts

"""Shared test utilities: independent reference evaluator and graph builders.

The reference evaluator works on dense matrices with none of the library's
incremental machinery, so it can serve as an oracle for the fast paths.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from dcex import (
    BenchmarkSpec,
    DirectedGraph,
    derive_seed,
    max_admissible_size,
    sampler,
)
from dcex.baselines import _leading_eigenvector
from dcex.criterion import (
    MODE_DIRECTED,
    CommunityState,
    Score,
    q_coefficient,
    value_function,
)
from dcex.extraction import _exceedance_limit, _one_null_score


def edge_multiset(g: DirectedGraph) -> dict[tuple[int, int], float]:
    """Mapping (src, dst) -> weight of ``g``'s edges."""
    return {
        (int(s), int(d)): float(w)
        for s, d, w in zip(g.edge_src, g.edge_dst, g.edge_weight)
    }


def labeled_edges(g: DirectedGraph) -> list[tuple]:
    """``(src_label, dst_label, weight)`` of ``g``'s edges in canonical order."""
    return [(g.label_of(int(s)), g.label_of(int(d)), float(w))
            for s, d, w in zip(g.edge_src, g.edge_dst, g.edge_weight)]


def dense_adj(g: DirectedGraph) -> np.ndarray:
    adj = np.zeros((g.n_nodes, g.n_nodes))
    for s, d, w in zip(g.edge_src, g.edge_dst, g.edge_weight):
        adj[int(s), int(d)] = float(w)
    return adj


def directed_modularity(g: DirectedGraph, assignment) -> float:
    """Q = (1/m) * sum over same-community (i, j) of [A_ij - k_in_i k_out_j / m].

    ``assignment`` maps every node id to a community id (sequence or dict).
    On a symmetric graph this equals the classic undirected modularity.
    """
    m = g.total_weight
    if m == 0:
        return 0.0
    if isinstance(assignment, dict):
        assignment = [assignment[u] for u in range(g.n_nodes)]
    internal = 0.0
    for s, d, w in zip(g.edge_src, g.edge_dst, g.edge_weight):
        if assignment[int(s)] == assignment[int(d)]:
            internal += float(w)
    k_in: dict = {}
    k_out: dict = {}
    for u in range(g.n_nodes):
        cid = assignment[u]
        k_in[cid] = k_in.get(cid, 0.0) + g.in_strength[u]
        k_out[cid] = k_out.get(cid, 0.0) + g.out_strength[u]
    expected = sum(k_in[cid] * k_out[cid] for cid in k_in) / m
    return (internal - expected) / m


def admissible_subsets(g: DirectedGraph, params):
    """Every chain-admissible nonempty subset with its counts, from dense sums.

    Yields ``(members, (o_s, b_in, b_out, size))`` with ``members`` a sorted
    tuple, smallest subsets first and lexicographic within a size.
    """
    adj = dense_adj(g)
    row_sums = adj.sum(axis=1)
    col_sums = adj.sum(axis=0)
    for size in range(1, max_admissible_size(g.n_nodes, params.rho) + 1):
        for combo in itertools.combinations(range(g.n_nodes), size):
            idx = list(combo)
            o_s = float(adj[np.ix_(idx, idx)].sum())
            b_out = float(row_sums[idx].sum()) - o_s
            b_in = float(col_sums[idx].sum()) - o_s
            yield combo, (o_s, b_in, b_out, size)


def brute_force_optimum(g: DirectedGraph, params, max_n: int = 20):
    """Exact argmax of W over all admissible nonempty subsets.

    Exponential-time test oracle; refuses graphs larger than ``max_n``.
    Ties are broken toward the lexicographically smallest member tuple.
    Returns ``(members, score)``.
    """
    n = g.n_nodes
    if n > max_n:
        raise ValueError(f"brute force refused: {n} nodes > cap {max_n}")
    if max_admissible_size(n, params.rho) < 1:
        raise ValueError(f"no admissible subset exists for N={n}, rho={params.rho}")
    best_w = -math.inf
    best_members = None
    best_counts = None
    value = value_function(n, params)
    for combo, counts in admissible_subsets(g, params):
        w = value(*counts)
        if w > best_w or (w == best_w and combo < best_members):
            best_w = w
            best_members = combo
            best_counts = counts
    _, b_in, b_out, size = best_counts
    directed = params.mode == MODE_DIRECTED
    return best_members, Score(
        value=best_w,
        q_d=q_coefficient(b_in, b_out) if directed else 1.0,
        effective_size_term=params.rho * n - size,
    )


def exact_chain_law(g: DirectedGraph, params, c: float) -> dict[frozenset, float]:
    """Stationary law of the sampler's kernel over every admissible subset.

    The kernel is built from the dense adjacency, not from the neighbour
    rows the chain reads: the pool of S is S with every in- and
    out-neighbour of a member, and each pool node is proposed with
    probability 1/|pool|.
    Proposing a member proposes its removal, which is rejected for the last
    member; proposing any other node proposes its addition, which is
    rejected at the largest admissible size.  Every other move is accepted
    with probability min(1, exp(c * dW)).  Returns ``{subset: probability}``
    from solving pi P = pi with the probabilities summing to 1.
    """
    adj = dense_adj(g)
    linked = (adj + adj.T) > 0
    value = value_function(g.n_nodes, params)
    w = {frozenset(members): value(*counts)
         for members, counts in admissible_subsets(g, params)}
    index = {s: i for i, s in enumerate(w)}
    p = np.zeros((len(w), len(w)))
    for s, i in index.items():
        pool = set(s).union(*(np.flatnonzero(linked[u]).tolist() for u in s))
        for u in pool:
            t = s - {u} if u in s else s | {u}
            if t in index:  # neither the last member nor past the top size
                p[i, index[t]] = math.exp(min(0.0, c * (w[t] - w[s]))) / len(pool)
        p[i, i] = 1.0 - p[i].sum()
    # pi (P - I) = 0 with one equation traded for sum(pi) = 1.
    a = p.T - np.eye(len(w))
    a[-1] = 1.0
    b = np.zeros(len(w))
    b[-1] = 1.0
    return dict(zip(w, np.linalg.solve(a, b)))


class VisitCounter:
    """Chain observer counting how many steps end in each subset."""

    def __init__(self):
        self.counts: Counter = Counter()

    def __call__(self, event, state) -> None:
        self.counts[frozenset(state.members)] += 1

    def ranked(self) -> list[frozenset]:
        """Visited subsets, most frequent first (ties in first-visit order)."""
        return [s for s, _ in self.counts.most_common()]


class ScanSpy:
    """Wraps ``sampler._scan_rejections`` and records, for each call, the
    acceptance bars it was given, its step limit and the steps it took."""

    def __init__(self, monkeypatch):
        self.calls: list[tuple[list, int, int]] = []
        scan = sampler._scan_rejections

        def spy(rng, block, pos, bars, limit, keep):
            out = scan(rng, block, pos, bars, limit, keep)
            self.calls.append((list(bars), limit, out[0]))
            return out

        monkeypatch.setattr(sampler, "_scan_rejections", spy)

    @property
    def steps(self) -> int:
        return sum(taken for _, _, taken in self.calls)


class ReuseSpy:
    """Wraps ``sampler._reuse``, which a chain calls once per accepted move
    while it parks memos, and counts those calls, the memos they restored
    and those restored memos that held an outright accept (an entry with no
    acceptance bar and a delta).  ``restored`` tells whether the last call
    restored a memo."""

    def __init__(self, monkeypatch):
        self.calls = self.restores = self.outright = 0
        self.restored = False
        reuse = sampler._reuse

        def spy(parked, key, counts):
            memo = reuse(parked, key, counts)
            self.calls += 1
            self.restored = bool(memo)
            if memo:
                self.restores += 1
                self.outright += any(bar is None and delta is not None
                                     for _, _, _, delta, _, bar in memo.values())
            return memo

        monkeypatch.setattr(sampler, "_reuse", spy)


def is_significant(observed: float, null_scores, quantile: float) -> bool:
    """Whether the empirical p-value is at most ``1 - quantile``."""
    exceed = sum(1 for v in null_scores if v >= observed)
    return 1 + exceed <= _exceedance_limit(len(null_scores), quantile)


def full_null_best_scores(residual, config, master, round_idx, observed, jobs):
    """Reference for ``dcex.extraction._null_best_scores``: the full rule.

    Scores all R null replicates on their seed paths, then applies
    :func:`is_significant`; returns the scores, or None for a rejected round.
    """
    scores = [
        _one_null_score(residual, config,
                        (derive_seed(master, round_idx, 1, i),
                         derive_seed(master, round_idx, 2, i)))
        for i in range(config.null_replicates)
    ]
    if not is_significant(observed, scores, config.significance_quantile):
        return None
    return scores


def reference_floyd(total: int, count: int, rng) -> np.ndarray:
    """Floyd's sampler step by step: the reference for
    ``dcex.seeding.sample_without_replacement``, drawing the same numbers."""
    if count == 0:
        return np.empty(0, dtype=np.int64)
    js = np.arange(total - count, total, dtype=np.int64)
    draws = rng.integers(0, js + 1)
    chosen: set[int] = set()
    out = []
    for j, t in zip(js.tolist(), draws.tolist()):
        if t in chosen:
            t = j
        chosen.add(t)
        out.append(t)
    return np.array(out, dtype=np.int64)


def reference_degree_preserving(g: DirectedGraph, rng) -> tuple[DirectedGraph, Counter]:
    """Double-edge swaps one attempt at a time: the reference for
    ``randomize(g, "degree_preserving", seed)`` with
    ``rng = np.random.default_rng(seed)``, drawing the same numbers.

    Also returns how many attempts each key rejected: ``"ad"`` for the
    first new edge a->d, ``"cb"`` for the second, c->b.
    """
    n = g.n_nodes
    src = g.edge_src.tolist()
    dst = g.edge_dst.tolist()
    eset = set((g.edge_src * n + g.edge_dst).tolist())
    eset.update(range(0, n * n, n + 1))  # self-loop keys
    n_edges = len(src)
    target = 10 * n_edges
    max_attempts = 20 * target
    accepted = 0
    attempts = 0
    rejected = Counter()
    while accepted < target and attempts < max_attempts:
        picks = iter(rng.integers(0, n_edges, size=4096).tolist())
        for ia, ic in itertools.islice(zip(picks, picks), max_attempts - attempts):
            attempts += 1
            a, b, c, d = src[ia], dst[ia], src[ic], dst[ic]
            ad, cb = a * n + d, c * n + b
            if ad in eset:
                rejected["ad"] += 1
                continue
            if cb in eset:
                rejected["cb"] += 1
                continue
            eset.discard(a * n + b)
            eset.discard(c * n + d)
            eset.add(ad)
            eset.add(cb)
            dst[ia] = d
            dst[ic] = b
            accepted += 1
            if accepted == target:
                break
    meta = {
        "null_model": "degree_preserving",
        "target_swaps": target,
        "accepted_swaps": accepted,
        "attempts": attempts,
    }
    return g._with_edges(g.edge_src, dst, g.edge_weight, meta), rejected


def reference_counts(adj: np.ndarray, members):
    """O_S, B_in, B_out computed by explicit double loops over a dense matrix."""
    members = set(members)
    n = adj.shape[0]
    o_s = b_in = b_out = 0.0
    for i in range(n):
        for j in range(n):
            if adj[i, j] == 0.0:
                continue
            if i in members and j in members:
                o_s += adj[i, j]
            elif i in members:
                b_out += adj[i, j]
            elif j in members:
                b_in += adj[i, j]
    return o_s, b_in, b_out


def reference_score(adj: np.ndarray, members, rho, n, mode="directed") -> float:
    """From-scratch criterion value; independent of the library implementation."""
    members = set(members)
    size = len(members)
    n_nodes = adj.shape[0]
    o_s, b_in, b_out = reference_counts(adj, members)
    b_s = b_in + b_out
    eff = rho * n_nodes - size
    if mode == "directed":
        q = (b_s + 1.0) / (abs(b_in - b_out) + 1.0)
    else:
        q = 1.0
    return size * eff * (o_s / size**2 - (q**n) * b_s / (size * eff)) if eff != 0 else (
        # at eff == 0 only the penalty term survives
        -(q**n) * b_s
    )


def directed_gnp(
    n: int, p: float, seed: int, max_weight: int = 1, float_weights: bool = False
) -> DirectedGraph:
    """Random directed graph; each ordered pair present independently w.p. p.

    Integer weights in 1..max_weight keep float arithmetic exact in tests.
    ``float_weights`` draws weights uniform in [0.5, 2] instead, whose sums
    round, so the order of a summation shows in the last bits.
    """
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    src, dst = np.nonzero(mask)
    if float_weights:
        weights = rng.uniform(0.5, 2.0, size=len(src))
    elif max_weight == 1:
        weights = np.ones(len(src))
    else:
        weights = rng.integers(1, max_weight + 1, size=len(src)).astype(float)
    edges = [(int(a), int(b), float(w)) for a, b, w in zip(src, dst, weights)]
    return DirectedGraph(n, edges)


def rigid_graph():
    """Complete digraph on 6 nodes less two edges: few swaps exist, so the
    attempt budget runs out before the swap target is met."""
    edges = [(a, b) for a in range(6) for b in range(6)
             if a != b and (a, b) not in ((0, 1), (2, 3))]
    return DirectedGraph.from_arrays(
        6, [a for a, _ in edges], [b for _, b in edges], np.ones(len(edges))
    )


def reference_graph(n_nodes: int, edges) -> dict:
    """What a DirectedGraph on ``edges`` must hold, built the slow way.

    Duplicates are summed through a dict in input order, the pairs sorted,
    and the neighbour rows and strengths filled edge by edge: the reference
    for the array builder.  Keys are the graph's attribute names.
    """
    merged: dict[tuple[int, int], float] = {}
    for s, d, w in edges:
        merged[(s, d)] = merged.get((s, d), 0.0) + w
    items = sorted(merged.items())
    out_strength = [0.0] * n_nodes
    in_strength = [0.0] * n_nodes
    adj = [set() for _ in range(n_nodes)]
    for (s, d), w in items:
        out_strength[s] += w
        in_strength[d] += w
        adj[s].add(d)
        adj[d].add(s)
    adj_nbrs = [sorted(nbrs) for nbrs in adj]
    return {
        "edge_src": np.array([s for (s, _), _ in items], dtype=np.int64),
        "edge_dst": np.array([d for (_, d), _ in items], dtype=np.int64),
        "edge_weight": np.array([w for _, w in items], dtype=np.float64),
        "adj_nbrs": adj_nbrs,
        "nbr_rows": [(nbrs, [merged.get((v, u), 0.0) for v in nbrs],
                      [merged.get((u, v), 0.0) for v in nbrs])
                     for u, nbrs in enumerate(adj_nbrs)],
        "out_strength": out_strength,
        "in_strength": in_strength,
    }


def reference_symmetrized_edges(g: DirectedGraph) -> list:
    """Edges of ``symmetrize(g)``: each edge's weight added both ways."""
    edges = []
    for s, d, w in zip(g.edge_src.tolist(), g.edge_dst.tolist(),
                       g.edge_weight.tolist()):
        edges += [(s, d, w), (d, s, w)]
    return edges


def reference_complement(g: DirectedGraph, removed) -> tuple[list, list]:
    """``(kept, edges)`` of ``subgraph_complement(g, removed)`` by dict lookup."""
    kept = [u for u in range(g.n_nodes) if u not in set(removed)]
    new_id = {old: new for new, old in enumerate(kept)}
    edges = [
        (new_id[s], new_id[d], w)
        for s, d, w in zip(g.edge_src.tolist(), g.edge_dst.tolist(),
                           g.edge_weight.tolist())
        if s in new_id and d in new_id
    ]
    return kept, edges


def assert_graph_equals_reference(g: DirectedGraph, ref: dict) -> None:
    """Arrays equal in value and dtype; lists equal in value and element type.

    The row maps are read node by node, as their rows are made on first read.
    """
    for name, want in ref.items():
        got = getattr(g, name)
        if isinstance(got, dict):
            got = [got[u] for u in range(g.n_nodes)]
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        else:
            assert _typed(got) == _typed(want), name
    assert g.edge_count == len(ref["edge_src"])


def _typed(value):
    if isinstance(value, list):
        return [_typed(v) for v in value]
    if isinstance(value, tuple):
        return tuple, [_typed(v) for v in value]
    return type(value), value


def figure1_spec(seed: int = 0) -> BenchmarkSpec:
    """The 50-node illustration setting: 10 + 10 planted nodes, 30 background."""
    return BenchmarkSpec(n1=10, n2=10, n0=30, p1=0.7, p2=0.1, seed=seed)


def two_cliques_graph() -> DirectedGraph:
    """Two bidirectional 5-cliques joined by a single directed edge 0 -> 5."""
    edges = []
    for base in (0, 5):
        for i in range(5):
            for j in range(5):
                if i != j:
                    edges.append((base + i, base + j, 1.0))
    edges.append((0, 5, 1.0))
    return DirectedGraph(10, edges)


def undirected_components(g: DirectedGraph) -> list[list[int]]:
    seen = [False] * g.n_nodes
    comps = []
    for s in range(g.n_nodes):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in g.adj_nbrs[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


def copy_state(state: CommunityState) -> CommunityState:
    """Independent copy of ``state`` whose cached counts are the same floats.

    The counts are copied, not recomputed with ``from_members``, so a check
    that a move and its inverse restore them bit for bit sees the incremental
    counts themselves.
    """
    return CommunityState(set(state.members), bytearray(state.in_set), state.size,
                          state.o_s, state.b_in, state.b_out)


_DMM_TOL = 1e-12


def reference_dmm(g: DirectedGraph, parts: int, passes: int) -> dict[int, int]:
    """Node -> part id from a standalone DMM with ``parts`` target parts and
    ``passes`` refinement passes.

    It indexes each part with a dict and keeps its own adjacency lists
    instead of calling ``subgraph_complement``, so it checks the library's
    ``run_dmm`` against an independent build of every part.  Its float sums
    run in the same order, so the assignments must agree exactly.  The
    eigen step calls the library's ``_leading_eigenvector``, which
    ``TestLeadingEigenvector`` checks against a dense eigensolver.
    """
    n = g.n_nodes
    split_parts: list[list[int]] = [list(range(n))]
    while n and g.total_weight != 0 and len(split_parts) < parts:
        best_gain, best_idx, best_split = _DMM_TOL, None, None
        for idx, part in enumerate(split_parts):
            split = _ref_split_part(g, part, passes) if len(part) >= 2 else None
            if split is not None and split[2] > best_gain:
                best_gain, best_idx, best_split = split[2], idx, split[:2]
        if best_idx is None:
            break
        split_parts[best_idx:best_idx + 1] = best_split
    return {int(u): cid for cid, part in enumerate(split_parts) for u in part}


def _ref_split_part(g, part, passes):
    nodes = sorted(part)
    k = len(nodes)
    m = g.total_weight
    local = {u: i for i, u in enumerate(nodes)}
    in_part = np.zeros(g.n_nodes, dtype=bool)
    in_part[nodes] = True
    emask = in_part[g.edge_src] & in_part[g.edge_dst]
    src_l = np.fromiter((local[int(s)] for s in g.edge_src[emask]), dtype=np.int64,
                        count=emask.sum())
    dst_l = np.fromiter((local[int(d)] for d in g.edge_dst[emask]), dtype=np.int64,
                        count=emask.sum())
    w_l = g.edge_weight[emask].astype(np.float64)
    k_in = np.array([g.in_strength[u] for u in nodes])
    k_out = np.array([g.out_strength[u] for u in nodes])
    kin_tot = k_in.sum()
    kout_tot = k_out.sum()
    row_a = np.bincount(src_l, weights=w_l, minlength=k)
    col_a = np.bincount(dst_l, weights=w_l, minlength=k)
    row_sum = row_a + col_a - (k_in * kout_tot + k_out * kin_tot) / m

    def matvec(x):
        ax = np.bincount(src_l, weights=w_l * x[dst_l], minlength=k)
        atx = np.bincount(dst_l, weights=w_l * x[src_l], minlength=k)
        rank = (k_in * (k_out @ x) + k_out * (k_in @ x)) / m
        return ax + atx - rank - row_sum * x

    scale = float(
        np.max(row_a + col_a + (k_in * kout_tot + k_out * kin_tot) / m + np.abs(row_sum))
    )
    if scale <= 0:
        return None
    v0 = np.random.default_rng(0xDCE).standard_normal(k)
    theta, v = _leading_eigenvector(matvec, v0, scale)
    if theta <= _DMM_TOL:
        return None
    side = v >= 0
    if side.all() or not side.any():
        return None
    side = _ref_refine_split(nodes, side, k_in, k_out, src_l, dst_l, w_l, m, passes)
    if side.all() or not side.any():
        return None
    same = side[src_l] == side[dst_l]
    kin_a, kout_a = float(k_in[side].sum()), float(k_out[side].sum())
    kin_b, kout_b = float(k_in[~side].sum()), float(k_out[~side].sum())
    before = float(w_l.sum()) - (kin_a + kin_b) * (kout_a + kout_b) / m
    after = float(w_l[same].sum()) - (kin_a * kout_a + kin_b * kout_b) / m
    gain = (after - before) / m
    if gain <= _DMM_TOL:
        return None
    return ([nodes[i] for i in range(k) if side[i]],
            [nodes[i] for i in range(k) if not side[i]], gain)


def _ref_refine_split(nodes, side, k_in, k_out, src_l, dst_l, w_l, m, passes):
    k = len(nodes)
    side = side.copy()
    adj_out: list[list[tuple[int, float]]] = [[] for _ in range(k)]
    adj_in: list[list[tuple[int, float]]] = [[] for _ in range(k)]
    for s, d, w in zip(src_l.tolist(), dst_l.tolist(), w_l.tolist()):
        adj_out[s].append((d, w))
        adj_in[d].append((s, w))
    kin_side = [float(k_in[~side].sum()), float(k_in[side].sum())]
    kout_side = [float(k_out[~side].sum()), float(k_out[side].sum())]
    for _ in range(passes):
        moved = False
        for i in range(k):
            cur = int(side[i])
            oth = 1 - cur
            if (side == bool(cur)).sum() <= 1:
                continue
            w_to_cur = 0.0
            w_to_oth = 0.0
            for j, w in adj_out[i] + adj_in[i]:
                if int(side[j]) == cur:
                    w_to_cur += w
                else:
                    w_to_oth += w
            d_internal = w_to_oth - w_to_cur
            d_expected = (
                k_in[i] * (kout_side[oth] - (kout_side[cur] - k_out[i]))
                + k_out[i] * (kin_side[oth] - (kin_side[cur] - k_in[i]))
            ) / m
            if (d_internal - d_expected) / m > _DMM_TOL:
                side[i] = not side[i]
                kin_side[cur] -= k_in[i]
                kout_side[cur] -= k_out[i]
                kin_side[oth] += k_in[i]
                kout_side[oth] += k_out[i]
                moved = True
        if not moved:
            break
    return side

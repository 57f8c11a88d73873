"""Comparison methods: direction-blind extraction and modularity partitioning.

UCE runs the extraction machinery on the symmetrized graph with the
direction coefficient pinned to 1.  DMM partitions the whole network by
recursive leading-eigenvector bisection of the directed modularity matrix
B[i, j] = A[i, j] - k_in[i] * k_out[j] / m (symmetrized for the eigen step),
with greedy single-node refinement after each split.  This DMM is a
faithful-in-spirit reimplementation of the classic spectral method; exact
agreement with other codebases is not claimed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .criterion import MODE_UNDIRECTED
from .evaluation import PartitionLabels
from .extraction import ExtractionConfig, ExtractionReport, extract_all
from .graph import DirectedGraph, symmetrize

_POWER_TOL = 1e-8
_POWER_MAX_ITERS = 10_000
_GAIN_TOL = 1e-12


@dataclass(frozen=True)
class DmmConfig:
    target_parts: int = 3
    refinement_passes: int = 10

    def __post_init__(self):
        if self.target_parts < 2:
            raise ValueError("target_parts must be >= 2")
        if self.refinement_passes < 0:
            raise ValueError("refinement_passes must be >= 0")


def run_uce(
    g: DirectedGraph, config: ExtractionConfig, chain_observer=None
) -> ExtractionReport:
    """Extraction on the symmetrized graph, ignoring link direction.

    ``chain_observer`` is passed to :func:`extract_all`, so it sees the
    restart chains on the symmetrized graph in undirected mode.
    """
    cfg = replace(config, criterion=replace(config.criterion, mode=MODE_UNDIRECTED))
    return extract_all(symmetrize(g), cfg, chain_observer=chain_observer)


def run_dmm(g: DirectedGraph, config: DmmConfig = DmmConfig()) -> PartitionLabels:
    """Partition ``g`` into at most ``target_parts`` communities.

    Repeatedly splits the part whose bisection yields the largest modularity
    gain; stops when no split improves Q or the target count is reached.
    Every node ends up in exactly one part.  Deterministic.
    """
    n = g.n_nodes
    if n == 0:
        return PartitionLabels(assignments={})
    parts: list[list[int]] = [list(range(n))]
    if g.total_weight == 0:
        return _labels_from_parts(parts)

    while len(parts) < config.target_parts:
        best_gain = _GAIN_TOL
        best_idx = None
        best_split = None
        for idx, part in enumerate(parts):
            if len(part) < 2:
                continue
            split = _split_part(g, part, config.refinement_passes)
            if split is None:
                continue
            side_a, side_b, gain = split
            if gain > best_gain:
                best_gain = gain
                best_idx = idx
                best_split = (side_a, side_b)
        if best_idx is None:
            break
        side_a, side_b = best_split
        parts[best_idx] = side_a
        parts.insert(best_idx + 1, side_b)
    return _labels_from_parts(parts)


def _labels_from_parts(parts) -> PartitionLabels:
    assignments = {}
    for cid, part in enumerate(parts):
        for u in part:
            assignments[int(u)] = cid
    return PartitionLabels(assignments=assignments)


def _split_part(g, part, refinement_passes):
    """Candidate bisection of ``part``: (side_a, side_b, Q gain) or None."""
    nodes = sorted(part)
    k = len(nodes)
    m = g.total_weight
    local = {u: i for i, u in enumerate(nodes)}
    in_part = np.zeros(g.n_nodes, dtype=bool)
    in_part[nodes] = True

    emask = in_part[g.edge_src] & in_part[g.edge_dst]
    src_l = np.fromiter(
        (local[int(s)] for s in g.edge_src[emask]), dtype=np.int64, count=emask.sum()
    )
    dst_l = np.fromiter(
        (local[int(d)] for d in g.edge_dst[emask]), dtype=np.int64, count=emask.sum()
    )
    w_l = g.edge_weight[emask].astype(np.float64)

    k_in = np.array([g.in_strength[u] for u in nodes])
    k_out = np.array([g.out_strength[u] for u in nodes])
    kin_tot = k_in.sum()
    kout_tot = k_out.sum()

    row_a = np.bincount(src_l, weights=w_l, minlength=k)  # within-part out weight
    col_a = np.bincount(dst_l, weights=w_l, minlength=k)  # within-part in weight
    # Row sums of the symmetrized modularity matrix restricted to the part;
    # subtracting them on the diagonal makes the split's Q gain a quadratic
    # form in the +/-1 side vector.
    row_sum = row_a + col_a - (k_in * kout_tot + k_out * kin_tot) / m

    def matvec(x):
        ax = np.bincount(src_l, weights=w_l * x[dst_l], minlength=k)
        atx = np.bincount(dst_l, weights=w_l * x[src_l], minlength=k)
        rank = (k_in * (k_out @ x) + k_out * (k_in @ x)) / m
        return ax + atx - rank - row_sum * x

    shift = float(
        np.max(row_a + col_a + (k_in * kout_tot + k_out * kin_tot) / m + np.abs(row_sum))
    )
    if shift <= 0:
        return None

    rng = np.random.default_rng(0xDCE)
    v = rng.standard_normal(k)
    v /= np.linalg.norm(v)
    eigval = 0.0
    for _ in range(_POWER_MAX_ITERS):
        y = matvec(v) + shift * v
        norm = np.linalg.norm(y)
        if norm == 0:
            return None
        y /= norm
        if y @ v < 0:
            y = -y
        delta = float(np.max(np.abs(y - v)))
        v = y
        if delta < _POWER_TOL:
            break
    eigval = float(v @ matvec(v))
    if eigval <= _GAIN_TOL:
        return None

    side = v >= 0  # True = side A
    if side.all() or not side.any():
        return None

    side = _refine_split(
        g, nodes, side, k_in, k_out, src_l, dst_l, w_l, m, refinement_passes
    )
    if side.all() or not side.any():
        return None

    gain = _split_gain(side, src_l, dst_l, w_l, k_in, k_out, m)
    if gain <= _GAIN_TOL:
        return None
    side_a = [nodes[i] for i in range(k) if side[i]]
    side_b = [nodes[i] for i in range(k) if not side[i]]
    return side_a, side_b, gain


def _split_gain(side, src_l, dst_l, w_l, k_in, k_out, m):
    """Q(part split in two) - Q(part whole)."""
    same = side[src_l] == side[dst_l]
    w_same = float(w_l[same].sum())
    w_all = float(w_l.sum())
    kin_a = float(k_in[side].sum())
    kout_a = float(k_out[side].sum())
    kin_b = float(k_in[~side].sum())
    kout_b = float(k_out[~side].sum())
    before = w_all - (kin_a + kin_b) * (kout_a + kout_b) / m
    after = w_same - (kin_a * kout_a + kin_b * kout_b) / m
    return (after - before) / m


def _refine_split(g, nodes, side, k_in, k_out, src_l, dst_l, w_l, m, passes):
    """Greedy single-node moves between the two sides; only improving moves.

    Q is monotone non-decreasing across passes by construction.
    """
    k = len(nodes)
    side = side.copy()
    # Per-node within-part adjacency for O(degree) move deltas.
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
                continue  # never empty a side
            w_to_cur = 0.0
            w_to_oth = 0.0
            for j, w in adj_out[i]:
                if int(side[j]) == cur:
                    w_to_cur += w
                else:
                    w_to_oth += w
            for j, w in adj_in[i]:
                if int(side[j]) == cur:
                    w_to_cur += w
                else:
                    w_to_oth += w
            d_internal = w_to_oth - w_to_cur
            d_expected = (
                k_in[i] * (kout_side[oth] - (kout_side[cur] - k_out[i]))
                + k_out[i] * (kin_side[oth] - (kin_side[cur] - k_in[i]))
            ) / m
            gain = (d_internal - d_expected) / m
            if gain > _GAIN_TOL:
                side[i] = not side[i]
                kin_side[cur] -= k_in[i]
                kout_side[cur] -= k_out[i]
                kin_side[oth] += k_in[i]
                kout_side[oth] += k_out[i]
                moved = True
        if not moved:
            break
    return side

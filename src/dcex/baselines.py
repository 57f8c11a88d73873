"""Comparison methods: direction-blind extraction and modularity partitioning.

UCE runs the extraction machinery on the symmetrized graph at n = 0, where
q^n = 1 drops the direction term, whatever n it is given.  DMM partitions the
whole network by recursive leading-eigenvector bisection of the directed
modularity matrix B[i, j] = A[i, j] - k_in[i] * k_out[j] / m (symmetrized
for the eigen step), with greedy single-node refinement after each split.
The leading eigenvector comes from an explicitly restarted Krylov
(Rayleigh-Ritz) solve that only applies the part's matrix to vectors, so it
never forms the dense k-by-k matrix of a k-node part.  This DMM is a
faithful-in-spirit reimplementation of the classic spectral method; exact
agreement with other codebases is not claimed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .evaluation import PartitionLabels
from .extraction import ExtractionConfig, ExtractionReport, extract_all
from .graph import DirectedGraph, subgraph_complement, symmetrize
from .sampler import require_count

_GAIN_TOL = 1e-12
_KRYLOV_DIM = 40  # basis vectors per Krylov build
_MAX_BASES = 50  # Krylov builds before the eigen solve gives up
_EIG_TOL = 1e-10  # residual bound, relative to the operator's norm bound


@dataclass(frozen=True)
class DmmConfig:
    target_parts: int = 3
    refinement_passes: int = 10

    def __post_init__(self):
        for name, low in (("target_parts", 2), ("refinement_passes", 0)):
            require_count(name, getattr(self, name), low)


def run_uce(
    g: DirectedGraph, config: ExtractionConfig, jobs: int = 1, chain_observer=None
) -> ExtractionReport:
    """Extraction on the symmetrized graph, ignoring link direction.

    It runs W at n = 0, which the report echoes, whatever
    ``config.criterion.n`` is.  ``jobs`` and ``chain_observer`` are passed to
    :func:`extract_all`, so the report is the same for every ``jobs`` and the
    observer sees the restart chains on the symmetrized graph.
    """
    cfg = replace(config, criterion=replace(config.criterion, n=0.0))
    return extract_all(symmetrize(g), cfg, jobs=jobs, chain_observer=chain_observer)


def run_dmm(g: DirectedGraph, config: DmmConfig = DmmConfig()) -> PartitionLabels:
    """Partition ``g`` into at most ``target_parts`` communities.

    Repeatedly splits the part whose bisection yields the largest modularity
    gain; stops when no split improves Q or the target count is reached.
    Every node ends up in exactly one part.  Deterministic.
    """
    parts: list[list[int]] = [list(range(g.n_nodes))]
    while g.total_weight > 0 and len(parts) < config.target_parts:
        best = None  # (side_a, side_b, gain, index) of the best split so far
        for idx, part in enumerate(parts):
            if len(part) < 2:
                continue
            split = _split_part(g, part, config.refinement_passes)
            if split is not None and (best is None or split[2] > best[2]):
                best = (*split, idx)
        if best is None:
            break
        side_a, side_b, _, idx = best
        parts[idx:idx + 1] = [side_a, side_b]
    return PartitionLabels(
        assignments={u: cid for cid, part in enumerate(parts) for u in part}
    )


def _split_part(g, part, refinement_passes):
    """Candidate bisection of ``part``: (side_a, side_b, Q gain) or None.

    The part's edges and neighbour rows are those of its induced subgraph,
    built by :func:`subgraph_complement`; the degrees and ``m`` stay the
    whole graph's, as Q is the whole graph's modularity.  The side vector
    is the sign of the leading eigenvector of the part's symmetrized
    modularity matrix, from :func:`_leading_eigenvector`, refined by
    :func:`_refine_split`.
    """
    in_part = np.zeros(g.n_nodes, dtype=bool)
    in_part[part] = True
    sub, nodes = subgraph_complement(g, np.flatnonzero(~in_part).tolist())
    nodes = np.asarray(nodes)
    k = sub.n_nodes
    m = g.total_weight
    src_l, dst_l, w_l = sub.edge_src, sub.edge_dst, sub.edge_weight

    k_in = np.asarray(g.in_strength)[nodes]
    k_out = np.asarray(g.out_strength)[nodes]
    expected = (k_in * k_out.sum() + k_out * k_in.sum()) / m

    row_a = np.bincount(src_l, weights=w_l, minlength=k)  # within-part out weight
    col_a = np.bincount(dst_l, weights=w_l, minlength=k)  # within-part in weight
    # Row sums of the symmetrized modularity matrix restricted to the part;
    # subtracting them on the diagonal makes the split's Q gain a quadratic
    # form in the +/-1 side vector.
    row_sum = row_a + col_a - expected

    def matvec(x):
        ax = np.bincount(src_l, weights=w_l * x[dst_l], minlength=k)
        atx = np.bincount(dst_l, weights=w_l * x[src_l], minlength=k)
        rank = (k_in * (k_out @ x) + k_out * (k_in @ x)) / m
        return ax + atx - rank - row_sum * x

    # Gershgorin bound on the norm of the operator ``matvec`` applies.
    scale = float(np.max(row_a + col_a + expected + np.abs(row_sum)))
    if scale <= 0:
        return None

    v0 = np.random.default_rng(0xDCE).standard_normal(k)
    theta, v = _leading_eigenvector(matvec, v0, scale)
    if theta <= _GAIN_TOL:
        return None

    side = v >= 0  # True = side A
    if side.all() or not side.any():
        return None
    side = _refine_split(sub, side, k_in, k_out, m, refinement_passes)

    gain = _split_gain(sub, side, k_in, k_out, m)
    if gain <= _GAIN_TOL:
        return None
    return nodes[side].tolist(), nodes[~side].tolist(), gain


def _leading_eigenvector(matvec, v0, scale):
    """(theta, x): the largest eigenvalue of a symmetric operator and its
    unit eigenvector, oriented so that ``x @ v0 > 0``.

    ``matvec`` applies the operator; ``scale`` bounds its norm.  Each build
    grows an orthonormal basis of up to ``_KRYLOV_DIM`` vectors from the
    current vector (full Gram-Schmidt, applied twice), keeps every image,
    and takes the top eigenpair of the projected matrix.  It stops when
    ``|A x - theta x| <= _EIG_TOL * scale``, or when the basis closes early:
    the space is then invariant and the pair exact.  Otherwise the next
    build starts from ``x``.  Raises RuntimeError when ``_MAX_BASES``
    builds do not converge.
    """
    k = len(v0)
    dim = min(k, _KRYLOV_DIM)
    tol = _EIG_TOL * scale
    basis = np.empty((dim, k))
    images = np.empty((dim, k))
    x = v0 / np.linalg.norm(v0)
    for _ in range(_MAX_BASES):
        q, size, closed = x, 0, False
        while True:
            basis[size] = q
            images[size] = matvec(q)
            size += 1
            if size == dim:
                closed = dim == k
                break
            w = images[size - 1].copy()
            for _ in range(2):
                w -= basis[:size].T @ (basis[:size] @ w)
            norm = np.linalg.norm(w)
            if norm <= tol:
                closed = True
                break
            q = w / norm
        q_mat, aq_mat = basis[:size], images[:size]
        h = q_mat @ aq_mat.T
        vals, vecs = np.linalg.eigh((h + h.T) / 2)
        theta, y = float(vals[-1]), vecs[:, -1]
        x = y @ q_mat
        residual = float(np.linalg.norm(y @ aq_mat - theta * x))
        if closed or residual <= tol:
            return theta, (x if x @ v0 > 0 else -x)
        x /= np.linalg.norm(x)
    raise RuntimeError(
        f"leading eigenvector of a {k}-node part did not converge in "
        f"{_MAX_BASES} Krylov bases: residual {residual:.3g} > {tol:.3g}"
    )


def _split_gain(sub, side, k_in, k_out, m):
    """Q(part split in two) - Q(part whole), for the part's subgraph ``sub``."""
    same = side[sub.edge_src] == side[sub.edge_dst]
    w_same = float(sub.edge_weight[same].sum())
    w_all = float(sub.edge_weight.sum())
    kin_a = float(k_in[side].sum())
    kout_a = float(k_out[side].sum())
    kin_b = float(k_in[~side].sum())
    kout_b = float(k_out[~side].sum())
    before = w_all - (kin_a + kin_b) * (kout_a + kout_b) / m
    after = w_same - (kin_a * kout_a + kin_b * kout_b) / m
    return (after - before) / m


def _refine_split(sub, side, k_in, k_out, m, passes):
    """Greedy single-node moves between the two sides; only improving moves.

    ``sub`` is the part's induced subgraph and ``side`` a boolean array over
    its nodes (True = side A); ``k_in`` and ``k_out`` are their degrees in
    the whole graph of weight ``m``.  A move's delta walks the node's
    neighbour row in ``sub`` once, in O(degree).  No move empties a side,
    and Q is monotone non-decreasing across passes by construction.
    """
    kin_side = [float(k_in[~side].sum()), float(k_in[side].sum())]
    kout_side = [float(k_out[~side].sum()), float(k_out[side].sum())]
    size = [int((~side).sum()), int(side.sum())]
    side, k_in, k_out = side.tolist(), k_in.tolist(), k_out.tolist()

    for _ in range(passes):
        moved = False
        for i in range(sub.n_nodes):
            cur = int(side[i])
            oth = 1 - cur
            if size[cur] <= 1:
                continue  # never empty a side
            w_to_cur = 0.0
            w_to_oth = 0.0
            for j, a, b in zip(*sub.nbr_rows[i]):
                if side[j] == cur:
                    w_to_cur += a + b
                else:
                    w_to_oth += a + b
            d_internal = w_to_oth - w_to_cur
            d_expected = (
                k_in[i] * (kout_side[oth] - (kout_side[cur] - k_out[i]))
                + k_out[i] * (kin_side[oth] - (kin_side[cur] - k_in[i]))
            ) / m
            gain = (d_internal - d_expected) / m
            if gain > _GAIN_TOL:
                side[i] = not side[i]
                size[cur] -= 1
                size[oth] += 1
                kin_side[cur] -= k_in[i]
                kout_side[cur] -= k_out[i]
                kin_side[oth] += k_in[i]
                kout_side[oth] += k_out[i]
                moved = True
        if not moved:
            break
    return np.array(side, dtype=bool)

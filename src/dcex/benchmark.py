"""Planted directed benchmark: two direction-consistent communities in noise.

Nodes split into a sink community S1, a source community S2, and a weakly
connected background.  Pairs inside the dense set S1 u S2 are linked with
probability p1, all other pairs with probability p2.  Orientation rules:
links internal to a group (S1, S2, or background) point in a uniformly
random direction; every link between S2 and the outside leaves S2; every
remaining link between S1 and the outside enters S1.  The two cross rules
agree on S1-S2 pairs (both give S2 -> S1), so no S2 node has an incoming
boundary edge and no S1 node has an outgoing one: the planted communities
are exactly the direction-consistent subsets the extraction criterion
rewards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph
from .seeding import sample_without_replacement

LABEL_S1 = "S1"
LABEL_S2 = "S2"
LABEL_BACKGROUND = "background"


@dataclass(frozen=True)
class BenchmarkSpec:
    """Sizes (sink n1, source n2, background n0), densities p1/p2, and seed."""

    n1: int
    n2: int
    n0: int
    p1: float
    p2: float
    seed: int = 0

    def __post_init__(self):
        if min(self.n1, self.n2, self.n0) < 0:
            raise ValueError("community sizes must be nonnegative")
        if self.n1 + self.n2 < 2:
            raise ValueError("need n1 + n2 >= 2")
        for name, p in (("p1", self.p1), ("p2", self.p2)):
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {p}")

    @property
    def n_nodes(self) -> int:
        return self.n1 + self.n2 + self.n0


@dataclass(frozen=True)
class GroundTruth:
    """Per-node group labels for a generated benchmark graph."""

    labels: tuple[str, ...]

    @property
    def s1(self) -> frozenset:
        return frozenset(i for i, c in enumerate(self.labels) if c == LABEL_S1)

    @property
    def s2(self) -> frozenset:
        return frozenset(i for i, c in enumerate(self.labels) if c == LABEL_S2)

    @property
    def background(self) -> frozenset:
        return frozenset(
            i for i, c in enumerate(self.labels) if c == LABEL_BACKGROUND
        )

    def to_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, c in enumerate(self.labels):
                fh.write(f"{i} {c}\n")


def generate(
    spec: BenchmarkSpec, figure1_variant: bool = False
) -> tuple[DirectedGraph, GroundTruth]:
    """Sample a benchmark graph and its ground truth.

    Deterministic given the spec (including its seed).  With
    ``figure1_variant`` the node layout follows the illustration figure (the
    source group occupies the first indices); the construction is otherwise
    the same, since the source/sink orientation rules already coincide on
    source-sink pairs.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_nodes
    if figure1_variant:
        s2_nodes = np.arange(0, spec.n2)
        s1_nodes = np.arange(spec.n2, spec.n2 + spec.n1)
        s0_nodes = np.arange(spec.n2 + spec.n1, n)
    else:
        s1_nodes = np.arange(0, spec.n1)
        s2_nodes = np.arange(spec.n1, spec.n1 + spec.n2)
        s0_nodes = np.arange(spec.n1 + spec.n2, n)
    s12_nodes = np.sort(np.concatenate([s1_nodes, s2_nodes]))

    group = np.empty(n, dtype=object)
    group[s1_nodes] = LABEL_S1
    group[s2_nodes] = LABEL_S2
    group[s0_nodes] = LABEL_BACKGROUND

    blocks = [
        _within_pairs(s12_nodes, spec.p1, rng),
        _within_pairs(s0_nodes, spec.p2, rng),
        _between_pairs(s12_nodes, s0_nodes, spec.p2, rng),
    ]
    a = np.concatenate([i for i, _ in blocks])
    b = np.concatenate([j for _, j in blocks])

    # Pair (a, b) becomes a -> b unless flipped: a same-group pair flips on
    # its own uniform draw (one per such pair, in pair order); otherwise the
    # edge leaves S2 if either end is in S2, and else enters S1.
    ga, gb = group[a], group[b]
    same = ga == gb
    flip = (ga != LABEL_S2) & ((gb == LABEL_S2) | (ga == LABEL_S1))
    flip[same] = rng.random(int(same.sum())) < 0.5
    src = np.where(flip, b, a)
    dst = np.where(flip, a, b)

    graph = DirectedGraph.from_arrays(n, src, dst, np.ones(len(src)))
    truth = GroundTruth(labels=tuple(group.tolist()))
    return graph, truth


def _within_pairs(nodes, p, rng) -> tuple[np.ndarray, np.ndarray]:
    """Sample unordered pairs inside a node block, each present w.p. ``p``."""
    k = len(nodes)
    total = k * (k - 1) // 2
    if total == 0 or p == 0.0:
        return nodes[:0], nodes[:0]
    count = int(rng.binomial(total, p))
    picks = sample_without_replacement(total, count, rng)
    # cum[i] = number of pairs (a, b), a < b, with a < i.
    row_lengths = np.arange(k - 1, -1, -1, dtype=np.int64)
    cum = np.concatenate([[0], np.cumsum(row_lengths[:-1])])
    i = np.searchsorted(cum, picks, side="right") - 1
    j = picks - cum[i] + i + 1
    return nodes[i], nodes[j]


def _between_pairs(a_nodes, b_nodes, p, rng) -> tuple[np.ndarray, np.ndarray]:
    """Sample unordered pairs across two disjoint blocks, each present w.p. ``p``."""
    total = len(a_nodes) * len(b_nodes)
    if total == 0 or p == 0.0:
        return a_nodes[:0], b_nodes[:0]
    count = int(rng.binomial(total, p))
    picks = sample_without_replacement(total, count, rng)
    i = picks // len(b_nodes)
    j = picks % len(b_nodes)
    return a_nodes[i], b_nodes[j]

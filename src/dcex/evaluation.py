"""Agreement scores between detected communities and ground truth."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations


@dataclass(frozen=True)
class PartitionLabels:
    """Node -> community-id assignment; unassigned nodes are permitted."""

    assignments: dict

    def parts(self) -> dict:
        """Community id -> frozenset of nodes."""
        out: dict = {}
        for node, cid in self.assignments.items():
            out.setdefault(cid, set()).add(node)
        return {cid: frozenset(nodes) for cid, nodes in out.items()}

    def as_sets(self) -> list[frozenset]:
        """Communities as sets, ordered by community id for determinism."""
        parts = self.parts()
        return [parts[cid] for cid in sorted(parts)]


def jaccard(a, b) -> float:
    """|A n B| / |A u B|; two empty sets count as identical (J = 1)."""
    a = set(a)
    b = set(b)
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def adjusted_jaccard(truth, found) -> float:
    """Best-pairing average Jaccard between two true and two found communities.

    ``truth`` is (S1, S2), both nonempty; ``found`` is (C1, C2) where a
    missing community may be None or empty.  The score is the larger of the
    two ways to pair them, each scored as the mean of the two Jaccard
    coefficients; 1.0 means both groups were identified exactly (in either
    order).
    """
    s1, s2 = (set(t) for t in truth)
    if not s1 or not s2:
        raise ValueError("ground-truth communities must be nonempty")
    c1, c2 = (set(c) if c is not None else set() for c in found)
    straight = 0.5 * (jaccard(s1, c1) + jaccard(s2, c2))
    crossed = 0.5 * (jaccard(s1, c2) + jaccard(s2, c1))
    return max(straight, crossed)


def best_pair_adjusted_jaccard(truth, candidates):
    """Adjusted Jaccard of the best pair among candidate communities.

    Used when a method outputs more than two communities (e.g. a background
    part): every unordered pair of candidates is scored and the best is
    returned along with the chosen indices, for transparency.  With fewer
    than two candidates the missing ones count as empty sets.
    """
    candidates = [set(c) for c in candidates]
    if len(candidates) == 0:
        return adjusted_jaccard(truth, (set(), set())), (None, None)
    if len(candidates) == 1:
        return adjusted_jaccard(truth, (candidates[0], set())), (0, None)
    best = None
    best_pair = None
    for i, j in combinations(range(len(candidates)), 2):
        val = adjusted_jaccard(truth, (candidates[i], candidates[j]))
        if best is None or val > best:
            best = val
            best_pair = (i, j)
    return best, best_pair


def save_membership(assignments: dict, path) -> None:
    """Write ``label community_id`` lines, sorted by label for determinism."""
    with open(path, "w", encoding="utf-8") as fh:
        for label in sorted(assignments, key=str):
            fh.write(f"{label} {assignments[label]}\n")


def load_membership(path) -> dict:
    """Read a ``label community_id`` file into a dict of strings; a label
    listed twice is an error."""
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            toks = stripped.split()
            if len(toks) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 'label community_id', got {stripped!r}"
                )
            if toks[0] in out:
                raise ValueError(f"{path}:{lineno}: label {toks[0]!r} listed twice")
            out[toks[0]] = toks[1]
    return out

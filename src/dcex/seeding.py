"""Deterministic derivation of child seeds from a master seed, sampling
without replacement, and the stable radix sort of integer ids."""

from __future__ import annotations

import numpy as np


def derive_seed(master: int, *path: int) -> int:
    """Derive a 64-bit child seed from a master seed and an integer path.

    Pure function of its arguments, so nested experiments (rounds, restarts,
    null replicates) stay reproducible without threading generator state
    through call sites.  The integer path segments must be nonnegative.
    """
    entropy = (int(master),) + tuple(int(p) for p in path)
    ss = np.random.SeedSequence(entropy)
    return int(ss.generate_state(1, np.uint64)[0])


def sample_without_replacement(total: int, count: int, rng) -> np.ndarray:
    """Uniformly sample ``count`` distinct integers from ``range(total)``.

    Floyd's algorithm (Bentley & Floyd 1987): step i, with j = total -
    count + i, draws t uniform in [0, j] and takes t, or j if t is already
    taken.  O(count) work and draws, no O(total) permutation, so it stays
    cheap when picking a sparse edge set out of ~N^2 slots.

    All draws are made at once, so ``rng`` ends in the same state as the
    step-by-step loop, and the picks are then worked out in numpy.  Step i
    is bumped to j exactly when an earlier step drew its t, or when t is
    the j of an earlier step k that was bumped itself; step k's outcome in
    turn follows the same rule, so the links k < i are followed to their
    end by pointer jumping.
    """
    if not (0 <= count <= total):
        raise ValueError(f"cannot pick {count} distinct values from {total}")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    js = np.arange(total - count, total, dtype=np.int64)
    draws = rng.integers(0, js + 1)
    # drawn_before[i]: an earlier step drew draws[i] too.  A stable sort
    # keeps equal draws in step order, so every draw but the first of its
    # run repeats an earlier one.
    steps = np.arange(count)
    order = radix_argsort(draws, total)
    ranked = draws[order]
    drawn_before = np.zeros(count, dtype=bool)
    drawn_before[order[1:][ranked[1:] == ranked[:-1]]] = True
    # Otherwise step i follows the earlier step k whose j is its draw.
    k = draws - js[0]
    ptr = np.where(~drawn_before & (k >= 0) & (k < steps), k, steps)
    while True:
        nxt = ptr[ptr]
        if np.array_equal(nxt, ptr):
            break
        ptr = nxt
    return np.where(drawn_before[ptr], js, draws)


def radix_argsort(ids, bound: int) -> np.ndarray:
    """``np.argsort(ids, kind="stable")`` of integer ids in ``[0, bound)``.

    A least-significant-digit radix sort: one stable pass per 16 bits that
    ``bound - 1`` needs, each on uint16 digits, on which numpy's stable
    argsort is itself a radix sort, several times faster than on int64.
    """
    order = np.argsort(ids.astype(np.uint16), kind="stable")  # low 16 bits
    for shift in range(16, int(bound - 1).bit_length(), 16):
        digit = (ids[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
    return order

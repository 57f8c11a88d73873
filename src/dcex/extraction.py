"""Iterated community extraction with a null-model significance stop rule.

Communities are pulled out one at a time: run restart chains on the current
residual graph, keep the best subset, and compare its criterion value with
the best values found by identical chains on randomized surrogates of the
residual.  If the observed value is not significantly better than chance the
loop stops; otherwise the community's nodes are removed and extraction
continues on the complement.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import asdict, dataclass
from functools import partial
from itertools import islice
from statistics import median

import numpy as np

from .criterion import CriterionParams, Score, max_admissible_size
from .graph import DirectedGraph, subgraph_complement
from .sampler import ChainConfig, require_count, search
from .seeding import derive_seed, sample_without_replacement

NULL_SAME_EDGE_COUNT = "same_edge_count"
NULL_DEGREE_PRESERVING = "degree_preserving"

STOP_NON_SIGNIFICANT = "non_significant"
STOP_MAX_COMMUNITIES = "max_communities"
STOP_GRAPH_EXHAUSTED = "graph_exhausted"

# Seed-path tags for derive_seed(master, round, tag, index).
_TAG_RESTART = 0
_TAG_NULL_GRAPH = 1
_TAG_NULL_CHAIN = 2


@dataclass(frozen=True)
class ExtractionConfig:
    """Full extraction setup.

    ``chain.seed`` acts as the master seed; every restart and null replicate
    derives its own seed from it (see :func:`dcex.seeding.derive_seed`).
    ``null_replicates=0`` disables the significance rule entirely: every
    community found is accepted until ``max_communities`` or exhaustion,
    which is the protocol used for fixed-count comparison studies.

    The empirical p-value cannot go below 1/(null_replicates + 1), so the
    rule needs at least 19 replicates before anything can clear the default
    0.05 cutoff; with fewer, every round stops ``non_significant`` without
    running a null.  The test is sequential: a round is rejected once
    1 + #{null >= observed} exceeds floor((1 - q)(R + 1)) and at least
    min(R, ceil(1 / (1 - q))) nulls have run, so a rejected round's nulls
    are not all run, while an accepted round always runs and reports all R.
    """

    criterion: CriterionParams = CriterionParams()
    chain: ChainConfig = ChainConfig()
    restarts: int = 5
    max_communities: int = 10
    null_replicates: int = 100
    null_model: str = NULL_SAME_EDGE_COUNT
    significance_quantile: float = 0.95

    def __post_init__(self):
        for name, low in (("restarts", 1), ("max_communities", 0),
                          ("null_replicates", 0)):
            require_count(name, getattr(self, name), low)
        if self.null_model not in (NULL_SAME_EDGE_COUNT, NULL_DEGREE_PRESERVING):
            raise ValueError(f"unknown null model {self.null_model!r}")
        if not (0.0 < self.significance_quantile < 1.0):
            raise ValueError("significance_quantile must be in (0, 1)")


@dataclass(frozen=True)
class ExtractedCommunity:
    """One accepted community, reported in the original graph's labels."""

    members: tuple
    score: Score
    null_scores: tuple[float, ...]
    empirical_p: float | None
    chain_steps: int
    chain_acceptance: float
    chain_stopped: str


@dataclass(frozen=True)
class ExtractionReport:
    communities: tuple[ExtractedCommunity, ...]
    stopped_reason: str
    n_nodes: int
    config: ExtractionConfig

    def member_sets(self) -> list[frozenset]:
        return [frozenset(c.members) for c in self.communities]

    def to_dict(self) -> dict:
        comms = []
        for c in self.communities:
            null_summary = None
            if c.null_scores:
                null_summary = {
                    "count": len(c.null_scores),
                    "min": min(c.null_scores),
                    "median": median(c.null_scores),
                    "max": max(c.null_scores),
                }
            comms.append(
                {
                    "members": list(c.members),
                    "size": len(c.members),
                    "w": c.score.value,
                    "q_d": c.score.q_d,
                    "effective_size_term": c.score.effective_size_term,
                    "empirical_p": c.empirical_p,
                    "null_scores": null_summary,
                    "chain": {
                        "steps": c.chain_steps,
                        "acceptance_rate": c.chain_acceptance,
                        "stopped": c.chain_stopped,
                    },
                }
            )
        return {
            "n_nodes": self.n_nodes,
            "stopped_reason": self.stopped_reason,
            "communities": comms,
            "config": asdict(self.config),
        }

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def empirical_p_value(observed: float, null_scores) -> float:
    """(1 + #{null >= observed}) / (1 + #nulls); always in (0, 1]."""
    null_scores = list(null_scores)
    ge = sum(1 for v in null_scores if v >= observed)
    return (1 + ge) / (1 + len(null_scores))


def _exceedance_limit(replicates: int, quantile: float) -> int:
    """Largest 1 + #{null >= observed} that is still significant.

    That is floor((1-q)(R+1)): the empirical p-value is at most ``1 - q``
    exactly when 1 + #{null >= observed} <= floor((1-q)(R+1)).  Integer
    counts avoid the float comparison, which misfires where (1-q)(R+1) is
    an integer: at R=9, q=0.9 the float 1 - 0.9 is just below 0.1, so
    p = 1/10 would be rejected.  The 1e-9 slack absorbs that rounding in
    the product.
    """
    return math.floor((1.0 - quantile) * (replicates + 1) + 1e-9)


def _fewest_nulls_to_reject(replicates: int, quantile: float) -> int:
    """Nulls a rejected round runs at least: min(R, ceil(1/(1-q))).

    Before ceil(1/(1-q)) nulls, the running p-value estimate
    #{null >= observed} / #{nulls run} cannot fall to the cutoff ``1 - q``
    once a single null exceeds, so it does not resolve the cutoff.  Waiting
    for that many also keeps a rejected round's cost near an accepted
    round's when R is small: at R=9, q=0.85 a rejection runs 7 or more of
    the 9 nulls instead of as few as 1, so the run time barely depends on
    the outcome.  The 1e-9 slack absorbs rounding in 1 - q, as in
    :func:`_exceedance_limit`.
    """
    return min(replicates, math.ceil(1.0 / (1.0 - quantile) - 1e-9))


def randomize(g: DirectedGraph, model: str, seed: int) -> DirectedGraph:
    """Randomized surrogate of ``g`` under the given null model.

    ``same_edge_count``: a uniform simple directed graph on the same node
    set with the same number of edges, all weights 1; input weights other
    than 1 are discarded (flagged in ``meta["weights_discarded"]``).

    ``degree_preserving``: repeated directed double-edge swaps
    (a->b, c->d) => (a->d, c->b), keeping every node's in- and out-degree
    sequence exactly; weights travel with the source edge.  Targets
    10 * |E| accepted swaps; if the attempt budget runs out first (tiny or
    rigid graphs) the partially rewired graph is returned with the realized
    swap count recorded in ``meta``; a graph with fewer than two edges has
    no swap to make and comes back unchanged.

    Cost per graph: ``same_edge_count`` is numpy work, about 0.15 ms at
    N=200 (E=1869) and 3.5 ms at N=10000 (E=52,718); ``degree_preserving``
    makes its attempts one by one in Python, about 6.5 ms and 0.33 s.
    """
    rng = np.random.default_rng(seed)
    if model == NULL_SAME_EDGE_COUNT:
        return _randomize_same_edge_count(g, rng)
    if model == NULL_DEGREE_PRESERVING:
        return _randomize_degree_preserving(g, rng)
    raise ValueError(f"unknown null model {model!r}")


def _randomize_same_edge_count(g, rng) -> DirectedGraph:
    n = g.n_nodes
    m = g.edge_count
    slots = n * (n - 1)
    # Sorted picks give edges in (src, dst) order, which the build takes as is.
    picks = np.sort(sample_without_replacement(slots, m, rng))
    src = picks // (n - 1)
    rem = picks % (n - 1)
    dst = rem + (rem >= src)
    weights_discarded = bool(np.any(g.edge_weight != 1.0))
    meta = {"null_model": NULL_SAME_EDGE_COUNT, "weights_discarded": weights_discarded}
    return g._with_edges(src, dst, np.ones(m), meta)


def _randomize_degree_preserving(g, rng) -> DirectedGraph:
    n = g.n_nodes
    # Edge a->b is a*n + b.  Every self-loop key a*n + a is in the set too, so
    # one membership test rejects each swap that would be a no-op (the same
    # edge twice, a == c or b == d: a key of an edge) or make a self-loop
    # (a == d or c == b: a loop key) or a duplicate edge.  A swap keeps each
    # edge's source, so srcn[i] = a*n is fixed and key[i] follows dst[i].
    srcn = (g.edge_src * n).tolist()
    dst = g.edge_dst.tolist()
    key = (g.edge_src * n + g.edge_dst).tolist()
    eset = set(key)
    eset.update(range(0, n * n, n + 1))
    discard, add = eset.discard, eset.add
    n_edges = len(dst)
    target = 10 * n_edges
    max_attempts = 20 * target
    todo = target  # swaps still to make
    attempts = 0
    while todo and attempts < max_attempts:
        picks = iter(rng.integers(0, n_edges, size=4096).tolist())
        block_todo = todo
        misses = 0
        for ia, ic in islice(zip(picks, picks), max_attempts - attempts):
            # (a->b, c->d) => (a->d, c->b)
            d = dst[ic]
            ad = srcn[ia] + d
            if ad in eset:
                misses += 1
                continue
            b = dst[ia]
            cb = srcn[ic] + b
            if cb in eset:
                misses += 1
                continue
            discard(key[ia])
            discard(key[ic])
            add(ad)
            add(cb)
            key[ia] = ad
            key[ic] = cb
            dst[ia] = d
            dst[ic] = b
            todo -= 1
            if not todo:
                break
        attempts += block_todo - todo + misses  # the block's accepts and misses
    meta = {
        "null_model": NULL_DEGREE_PRESERVING,
        "target_swaps": target,
        "accepted_swaps": target - todo,
        "attempts": attempts,
    }
    return g._with_edges(g.edge_src, dst, g.edge_weight, meta)


def extract_all(
    g: DirectedGraph, config: ExtractionConfig, jobs: int = 1, chain_observer=None
) -> ExtractionReport:
    """Extract communities from ``g`` until the stop rule fires.

    Deterministic end to end for a fixed ``config.chain.seed`` (regardless
    of ``jobs``, which only fans the independent null-replicate chains out
    over worker processes).  The effective-size term of the criterion is
    evaluated against the node count of the *current residual* graph, which
    is the network actually being searched in each round.

    ``chain_observer(round_idx, restart)`` gives each restart chain, in order and
    in this process, its ``run_chain`` observer or None; nulls go unobserved.

    Both sides of the significance test run :func:`dcex.sampler.search`, the
    observed side with one seed per restart and each null replicate with
    one, at the same chain budget; for a calibrated p-value use
    ``restarts=1`` on the observed side as well.  Null replicates are scored
    in seed order and a round's null phase stops once its rejection is
    certain and min(R, ceil(1/(1-q))) nulls have run, so a rejected round
    runs only the nulls up to that point; the report is the same as if all
    of them had run, since only accepted rounds report their nulls, and an
    accepted round runs all ``null_replicates``.
    """
    if g.n_nodes == 0:
        raise ValueError("cannot extract communities from an empty graph")
    require_count("jobs", jobs, 1)
    master = config.chain.seed
    rho = config.criterion.rho
    residual = g
    orig_ids = list(range(g.n_nodes))
    communities: list[ExtractedCommunity] = []
    round_idx = 0
    while True:
        if len(communities) >= config.max_communities:
            reason = STOP_MAX_COMMUNITIES
            break
        if max_admissible_size(residual.n_nodes, rho) < 1:
            reason = STOP_GRAPH_EXHAUSTED
            break

        best, members_resid = search(
            residual, config.criterion, config.chain,
            [derive_seed(master, round_idx, _TAG_RESTART, k)
             for k in range(config.restarts)],
            partial(chain_observer, round_idx) if chain_observer else None)
        observed = best.best_score.value

        null_scores: list[float] = []
        empirical_p = None
        if config.null_replicates > 0:
            null_scores = _null_best_scores(residual, config, master, round_idx,
                                            observed, jobs)
            if null_scores is None:
                reason = STOP_NON_SIGNIFICANT
                break
            empirical_p = empirical_p_value(observed, null_scores)

        members_orig = [orig_ids[u] for u in members_resid]
        communities.append(
            ExtractedCommunity(
                members=tuple(g.label_of(u) for u in members_orig),
                score=best.best_score,
                null_scores=tuple(null_scores),
                empirical_p=empirical_p,
                chain_steps=best.steps_run,
                chain_acceptance=best.acceptance_rate,
                chain_stopped=best.stopped,
            )
        )
        if len(communities) < config.max_communities:
            residual, kept = subgraph_complement(residual, members_resid)
            orig_ids = [orig_ids[k] for k in kept]
        round_idx += 1

    return ExtractionReport(
        communities=tuple(communities),
        stopped_reason=reason,
        n_nodes=g.n_nodes,
        config=config,
    )


def _one_null_score(residual, config, seeds) -> float:
    """Randomize + chase one null replicate; module-level for pickling."""
    graph_seed, chain_seed = seeds
    ng = randomize(residual, config.null_model, graph_seed)
    best, _ = search(ng, config.criterion, config.chain, [chain_seed])
    return best.best_score.value


def _null_best_scores(
    residual, config, master, round_idx, observed, jobs
) -> list[float] | None:
    """All R null bests of a significant round, or None once it is rejected.

    Nulls are scored in seed order and the exceedances #{null >= observed}
    counted as they arrive; once they make the round non-significant
    whatever the remaining nulls give (Besag & Clifford 1991, sequential
    Monte Carlo p-values), the phase stops as soon as
    :func:`_fewest_nulls_to_reject` nulls have run.  Only an accepted round
    reports its nulls, so stopping there changes no report.
    """
    quantile = config.significance_quantile
    limit = _exceedance_limit(config.null_replicates, quantile)
    if limit < 1:
        return None  # not even p = 1/(R+1) would be significant
    fewest = _fewest_nulls_to_reject(config.null_replicates, quantile)
    seeds = [
        (
            derive_seed(master, round_idx, _TAG_NULL_GRAPH, i),
            derive_seed(master, round_idx, _TAG_NULL_CHAIN, i),
        )
        for i in range(config.null_replicates)
    ]
    score = partial(_one_null_score, residual, config)
    scores = []
    exceed = 0
    with closing(map_jobs(score, seeds, jobs)) as results:
        for value in results:
            scores.append(value)
            exceed += value >= observed
            if 1 + exceed > limit and len(scores) >= fewest:
                return None
    return scores


def map_jobs(fn, items: list, jobs: int) -> Iterator:
    """``fn(x)`` for each of ``items``, fanned out over ``jobs`` worker processes.

    Ordered and lazy: results are yielded in input order for every ``jobs``,
    so what is built from them does not depend on it, and a caller that only
    needs a prefix can stop early.  With ``jobs > 1``, ``fn`` and the items
    must pickle; ``fn`` goes to each worker once, when it starts, so what
    it carries (say a graph bound with :func:`functools.partial`) is not
    shipped again with every item.  The workers start at the first
    ``next`` and are shut down, the pending items cancelled, when the
    iterator is exhausted, closed or raises.  Wrap it in
    :func:`contextlib.closing` when it may be left unfinished, so the
    workers go at once rather than at garbage collection.
    """
    require_count("jobs", jobs, 1)
    if jobs == 1 or len(items) <= 1:
        return (fn(x) for x in items)
    return _pool_map(fn, items, min(jobs, len(items)))


def _pool_map(fn, items, workers):
    # One item per task: the pool queues at most one item beyond those its
    # workers run, so an early stop wastes little, and every caller's item
    # (a whole chain or benchmark replicate) dwarfs its round trip.
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_install_worker_fn,
                               initargs=(fn,))
    try:
        yield from pool.map(_call_worker_fn, items)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


_worker_fn = None  # set in each worker process by _install_worker_fn


def _install_worker_fn(fn) -> None:
    global _worker_fn
    _worker_fn = fn


def _call_worker_fn(x):
    return _worker_fn(x)

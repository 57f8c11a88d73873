"""Output checks: every problem found counts the operation as failed."""

from __future__ import annotations

from dcex import CriterionParams, score, subgraph_complement

# Relative tolerance between a reported W and the same W recomputed from
# scratch; the floor of 1 keeps it absolute for |W| <= 1.
W_TOLERANCE = 1e-9


def check_report(report: dict, graph) -> list[str]:
    """Check an extraction report (as ``ExtractionReport.to_dict`` gives it).

    ``graph`` is the graph the extraction searched.  Each community is
    rescored from scratch on the residual graph of its round, which is
    rebuilt with ``subgraph_complement``; communities must be pairwise
    disjoint; p-values lie in (0, 1] and every null summary counts exactly
    ``null_replicates`` scores.
    """
    cfg = report["config"]
    params = CriterionParams(**cfg["criterion"])
    nulls = cfg["null_replicates"]
    problems = []
    if report["n_nodes"] != graph.n_nodes:
        problems.append(f"n_nodes {report['n_nodes']} != {graph.n_nodes}")
    residual = graph
    resid_of = {u: u for u in range(graph.n_nodes)}  # original id -> residual id
    taken: set[int] = set()
    for i, comm in enumerate(report["communities"]):
        ids = [graph.id_of(m) if graph.labels is not None else int(m)
               for m in comm["members"]]
        overlap = taken.intersection(ids)
        if overlap or len(set(ids)) != len(ids):
            problems.append(f"community {i} overlaps earlier ones or repeats nodes")
            break
        taken.update(ids)
        local = [resid_of[u] for u in ids]
        w = score(residual, local, params).value
        if abs(w - comm["w"]) > W_TOLERANCE * max(1.0, abs(comm["w"])):
            problems.append(f"community {i}: reported w {comm['w']!r}, rescored {w!r}")
        p = comm["empirical_p"]
        summary = comm["null_scores"]
        if nulls > 0:
            if p is None or not (0.0 < p <= 1.0):
                problems.append(f"community {i}: empirical_p {p!r} outside (0, 1]")
            if summary is None or summary["count"] != nulls:
                problems.append(f"community {i}: null summary {summary!r} does "
                                f"not count {nulls} replicates")
        elif p is not None or summary is not None:
            problems.append(f"community {i}: p-value reported without nulls")
        residual, kept = subgraph_complement(residual, local)
        orig_of = {r: o for o, r in resid_of.items()}
        resid_of = {orig_of[old]: new for new, old in enumerate(kept)}
    return problems


def check_partition(assignments: dict, n_nodes: int) -> list[str]:
    """A DMM result must assign every node exactly once."""
    if sorted(assignments) != list(range(n_nodes)):
        return [f"partition covers {len(assignments)} of {n_nodes} nodes"]
    return []

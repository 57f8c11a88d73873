"""Pinned outputs: sha256 digests of chain event streams, of short
``dcex extract`` runs and of degree-preserving null graphs.

The digests were recorded before the chain learned to reuse a proposal's
outcome while its state is unchanged, before the swap loop keyed its edge
set by ints, (the 2000-node reports) before graphs made their adjacency
rows on first read, (the UCE report) before an accepted move walked one
merged neighbour row, (the subset counts and DMM partitions) before every
reader took a node's edges from its merged row, and (all of them) before
long runs of rejections were taken in numpy and before a chain took back
the memo of a subset it returned to; any change to the
events, the RNG stream, the reports, the null graphs, the counts or the
partitions shows here.
"""

import hashlib
import json
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from dcex import (DirectedGraph, generate_benchmark, randomize, run_chain,
                  save_edge_list, symmetrize)
from dcex.baselines import DmmConfig, run_dmm, run_uce
from dcex.benchmark import BenchmarkSpec
from dcex.cli import main
from dcex.criterion import CommunityState, CriterionParams
from dcex.extraction import ExtractionConfig
from dcex.sampler import ChainConfig

from helpers import ReuseSpy, ScanSpy, directed_gnp, rigid_graph

FIGURE1_EDGELIST = (
    Path(__file__).resolve().parent.parent / "data" / "figure1" / "figure1.edgelist"
)

CHAIN_CASES = list(product(["directed", "undirected"], ["unit", "float"],
                           [0.05, 1000.0]))

CHAIN_DIGESTS = {
    ("directed", "unit", 0.05):
        "2ea3e856032e031b56c7ff14db025bc2d70e4838b00ba218dbe7907b3a22014d",
    ("directed", "unit", 1000.0):
        "5c27c9b48435175ade2e7b103787a236eb1a0553da32bf23a3b41efc46a3721e",
    ("directed", "float", 0.05):
        "ba94cad508368b74d99601376e022aa1b8b199be8c4be1967ca5d78793a4bd64",
    ("directed", "float", 1000.0):
        "bb69dd5c316cad8c5a84ce2641cd7d60192ee049dd89989004b653070d74e16f",
    ("undirected", "unit", 0.05):
        "6e370779af3f8c227f1be2d75d0d25a4113443dd518035f74081d51179b3010b",
    ("undirected", "unit", 1000.0):
        "09f37e27668e252f8028d4aaf57cac349463c19cf04b5fbb39ff7625608e0abc",
    ("undirected", "float", 0.05):
        "637b074e7edcf23250fb1badca6990e7c874d13aece8803c4244c87846f48358",
    ("undirected", "float", 1000.0):
        "85043a8f3ae60cac6c08a3ca3f32d348e5fdf0144d93ca3ef355361025d41387",
}

EXTRACT_REPORT_DIGEST = (
    "449a3406feb9e6a3fdfa433abd3cb5a5ec36013193768aadae0d77ddc597f1a1"
)
EXTRACT_TRACE_DIGEST = (
    "040864b37fc4873c83618fa1b88b616c532a9a99a45d5c6236578bfa4cf81003"
)

# One round on a 2000-node planted graph, at the large-graph benchmark's
# settings scaled down; its chains read the rows of few nodes.
PLANTED_REPORT_DIGESTS = {
    "same_edge_count":
        "b454c6db00a3c34dd60281987f5cd7f64c80c25d455cf1c71e79723744a745df",
    "degree_preserving":
        "a335781fc0476d038fc2ab0ddd209848f346cb4abed7c1a26c09bbab59fdf548",
}

# UCE on a planted graph at a low c, where most proposals are accepted.
UCE_REPORT_DIGEST = (
    "5415d4870a4d2d8a17d76fc7f05af0736aa9f52616777e2386df321aee9c2509"
)

# Subset counts and DMM partitions on planted graphs with float weights,
# whose sums round, so the order of every summation shows.
FROM_MEMBERS_DIGEST = (
    "6e2129f2bc87081194029bc1a7350c79a252a241609ba11e0c06dbe04ba03507"
)
DMM_PARTITION_DIGEST = (
    "1b6bf59c3a523a2882685634eb5d7110a102fd21c39d47ed1b0efa731d225cf8"
)

NULL_GRAPH_DIGESTS = {
    "gnp_seed_0": "a10e9e7b4356efbef506ea4ed266f4c80c1e407b758a148db7db1bac5a63f082",
    "gnp_seed_1": "019a71295cc574bb464031ef083fe12fa826988c2ab62812f72f9156c94e451f",
    "rigid": "9c5bb4496b64b27b44a4cddcfad2febac13411579a074dc8322f5e79836027a0",
}


def chain_digest(mode, weights, c):
    """sha256 of every StepEvent of one chain, then its result."""
    g = directed_gnp(40, 0.1, seed=21, float_weights=weights == "float")
    if mode == "undirected":
        g = symmetrize(g)
    params = CriterionParams(rho=0.8, n=1.0, mode=mode)
    cfg = ChainConfig(c=c, seed=3, max_steps=4000, patience=4000)
    lines = []
    r = run_chain(g, params, cfg,
                  observer=lambda e, state: lines.append(repr(tuple(e))))
    lines.append(repr((sorted(r.best_state.members), r.best_score.value,
                       r.steps_run, r.accepted, r.stopped)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def extract_digests(tmp_path):
    """sha256 of the report and the ``--trace`` CSV of a short extract run."""
    out, trace = tmp_path / "report.json", tmp_path / "trace.csv"
    assert main(["extract", "--graph", str(FIGURE1_EDGELIST),
                 "--null-replicates", "19", "--max-steps", "4000",
                 "--patience", "2000", "--max-communities", "2",
                 "--out", str(out), "--trace", str(trace)]) == 0
    return (hashlib.sha256(out.read_bytes()).hexdigest(),
            hashlib.sha256(trace.read_bytes()).hexdigest())


def planted_report_digest(tmp_path, null_model):
    """sha256 of the report of ``dcex extract`` on a 2000-node planted graph."""
    g, _ = generate_benchmark(BenchmarkSpec(n1=40, n2=50, n0=1910, p1=0.7,
                                            p2=0.005, seed=7))
    graph, out = tmp_path / "planted.edgelist", tmp_path / "report.json"
    save_edge_list(g, graph)
    assert main(["extract", "--graph", str(graph), "--rho", "0.8", "--n", "5",
                 "--c", "0.05", "--restarts", "2", "--max-steps", "2000",
                 "--patience", "2000", "--null-model", null_model,
                 "--null-replicates", "9", "--significance-quantile", "0.85",
                 "--max-communities", "1", "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def uce_report_digest(tmp_path):
    """sha256 of a two-round ``run_uce`` report on a 200-node planted graph."""
    g, _ = generate_benchmark(BenchmarkSpec(n1=20, n2=25, n0=155, p1=0.7,
                                            p2=0.05, seed=5))
    cfg = ExtractionConfig(
        criterion=CriterionParams(rho=0.8, n=5.0),
        chain=ChainConfig(c=0.01, max_steps=4000, patience=4000, seed=5),
        restarts=2,
        max_communities=2,
        null_replicates=0,
    )
    out = tmp_path / "uce.json"
    run_uce(g, cfg).save_json(out)
    return hashlib.sha256(out.read_bytes()).hexdigest()


def float_planted_graph(seed):
    """Planted N=500 graph with weights uniform in [0.5, 2]."""
    g, _ = generate_benchmark(BenchmarkSpec(n1=40, n2=50, n0=410, p1=0.7,
                                            p2=0.05, seed=seed))
    weight = np.random.default_rng(seed).uniform(0.5, 2.0, size=g.edge_count)
    return DirectedGraph.from_arrays(g.n_nodes, g.edge_src, g.edge_dst, weight)


def from_members_digest():
    """sha256 of the counts, as ``float.hex``, of 20 random subsets of each
    float-weighted planted graph."""
    lines = []
    for seed in range(3):
        g = float_planted_graph(seed)
        rng = np.random.default_rng(100 + seed)
        for _ in range(20):
            size = int(rng.integers(1, g.n_nodes // 2))
            s = CommunityState.from_members(
                g, rng.choice(g.n_nodes, size=size, replace=False).tolist())
            lines.append(" ".join([s.o_s.hex(), s.b_in.hex(), s.b_out.hex(),
                                   str(s.size)]))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def dmm_partition_digest():
    """sha256 of the ``run_dmm`` assignments on float-weighted planted graphs."""
    lines = [repr(sorted(run_dmm(float_planted_graph(seed),
                                 DmmConfig(target_parts=3)).assignments.items()))
             for seed in range(3)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


NULL_GRAPH_CASES = {
    "gnp_seed_0": lambda: randomize(directed_gnp(200, 0.05, seed=0),
                                    "degree_preserving", 11),
    "gnp_seed_1": lambda: randomize(
        directed_gnp(200, 0.05, seed=1, float_weights=True), "degree_preserving", 12
    ),
    "rigid": lambda: randomize(rigid_graph(), "degree_preserving", 13),
}


def null_graph_digest(g):
    h = hashlib.sha256()
    for col, dtype in ((g.edge_src, np.int64), (g.edge_dst, np.int64),
                       (g.edge_weight, np.float64)):
        h.update(np.ascontiguousarray(col, dtype=dtype).tobytes())
    h.update(json.dumps(g.meta, sort_keys=True).encode())
    return h.hexdigest()


# "plain" names the Metropolis kernel, as it did when a second kernel that
# weighed its ratio by pool sizes was pinned beside it.
@pytest.mark.parametrize("case", CHAIN_CASES,
                         ids=lambda case: "-".join(["plain", *map(str, case)]))
def test_chain_event_stream_is_pinned(case, monkeypatch):
    spy, reuse = ScanSpy(monkeypatch), ReuseSpy(monkeypatch)
    assert chain_digest(*case) == CHAIN_DIGESTS[case]
    if case[-1] == 1000.0:  # near-frozen: its long rejection runs are scanned
        assert spy.steps > 0
    if case[1] == "float":  # sums round, so no memo is kept for a return
        assert reuse.calls == 0
    elif case[-1] == 0.05:  # a roaming chain comes back to sets it left
        assert reuse.restores > 0


def test_extract_report_and_trace_are_pinned(tmp_path):
    assert extract_digests(tmp_path) == (EXTRACT_REPORT_DIGEST, EXTRACT_TRACE_DIGEST)


@pytest.mark.parametrize("null_model", sorted(PLANTED_REPORT_DIGESTS))
def test_planted_extract_report_is_pinned(tmp_path, null_model):
    assert (planted_report_digest(tmp_path, null_model)
            == PLANTED_REPORT_DIGESTS[null_model])


def test_uce_report_is_pinned(tmp_path):
    assert uce_report_digest(tmp_path) == UCE_REPORT_DIGEST


def test_from_members_counts_are_pinned():
    assert from_members_digest() == FROM_MEMBERS_DIGEST


def test_dmm_partitions_are_pinned():
    assert dmm_partition_digest() == DMM_PARTITION_DIGEST


@pytest.mark.parametrize("name", sorted(NULL_GRAPH_CASES))
def test_degree_preserving_null_graph_is_pinned(name):
    assert null_graph_digest(NULL_GRAPH_CASES[name]()) == NULL_GRAPH_DIGESTS[name]


def test_rigid_graph_exhausts_its_attempt_budget():
    meta = NULL_GRAPH_CASES["rigid"]().meta
    assert meta["attempts"] == 20 * meta["target_swaps"]
    assert 0 < meta["accepted_swaps"] < meta["target_swaps"]

"""Pinned outputs: sha256 digests of chain event streams, of short
``dcex extract`` runs and of degree-preserving null graphs.

The digests were recorded before the chain learned to reuse a proposal's
outcome while its state is unchanged, before the swap loop keyed its edge
set by ints, (the 2000-node reports) before graphs made their adjacency
rows on first read, (the UCE report) before an accepted move walked one
merged neighbour row, (the subset counts and DMM partitions) before every
reader took a node's edges from its merged row, and (all of them) before
long runs of rejections were taken in numpy and before a chain took back
the memo of a subset it returned to; all of them, and the ``int5`` chain
cases (integer weights up to 5), were recorded before a chain on a graph
of exact weight sums dropped its count of adjacent members and read pool
membership off those sums, and before such a chain kept only the memo of
the subset its last accepted move left in place of the memos of the 16
subsets it left last.  The report digests were recorded again when the
criterion's config echo lost its mode and UCE's reports took their echoed n
(0.0) and each community's q_d (its boundary's q) from the n = 0 criterion
it runs; every other field stayed the same.  The scan digests (where each
scan of a chain began and how many steps it took) and the report of a round
whose nulls search a residual too small to swap were recorded before the
chain weighed its scans without a flag and before that residual went
through ``randomize`` rather than around it.  The 2- and 4-part DMM
partitions were recorded before DMM's refinement walked each neighbour row
once, where it had walked it twice.  Any change to the events, the RNG
stream, the scans, the reports, the null graphs, the counts or the
partitions shows here.
"""

import hashlib
import json
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from dcex import (DirectedGraph, extract_all, extraction, generate_benchmark,
                  randomize, run_chain, save_edge_list, symmetrize)
from dcex.baselines import DmmConfig, run_dmm, run_uce
from dcex.benchmark import BenchmarkSpec
from dcex.cli import main
from dcex.criterion import CommunityState, CriterionParams
from dcex.extraction import ExtractionConfig
from dcex.sampler import ChainConfig

from helpers import MemoSpy, directed_gnp, rigid_graph, undo_slot

FIGURE1_EDGELIST = (
    Path(__file__).resolve().parent.parent / "data" / "figure1" / "figure1.edgelist"
)

CHAIN_CASES = list(product(["directed", "undirected"], ["unit", "float", "int5"],
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
    ("directed", "int5", 0.05):
        "5741c7cc988815b75702b582341c696eb6b756edfc046c3f8b5c5d0373bb8d4f",
    ("directed", "int5", 1000.0):
        "e9ff7dd073dc6534aff32c925ed90932c155f340407f551125e5a971149a4355",
    ("undirected", "int5", 0.05):
        "7112c1ae6952487004e36fabc55878edd25873a22deb077db65fdf582844c173",
    ("undirected", "int5", 1000.0):
        "d094b722d66f804f5833ebbe4acf728b0e47b2c937eee9f7ac2929a95a380b28",
}

# sha256 of repr(MemoSpy.scans): each scan's (step it began after, steps).
SCAN_DIGESTS = {
    ("directed", "unit", 0.05):
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("directed", "unit", 1000.0):
        "a4cae3cf473bdce5365d0d49004dc47478cec64c10b48f67a4065f3b567178de",
    ("directed", "float", 0.05):
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("directed", "float", 1000.0):
        "cc0d5d4cde8364daf0bc24a78fa0831703225cb984082b3e00995d2e688c91d6",
    ("undirected", "unit", 0.05):
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("undirected", "unit", 1000.0):
        "24a736bdabb87d84d1db08c25807631304447a26eb8c1e86acfc2be78690c686",
    ("undirected", "float", 0.05):
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("undirected", "float", 1000.0):
        "bdfc4f2cb47f7e6dbdf84375ab5e875b0e7df987719a83d2480656a676bf1484",
    ("directed", "int5", 0.05):
        "1cf8b7a429d6ec8d17bdcf5d12e479e71b47b9a73dd158f77bc5a15762f84efe",
    ("directed", "int5", 1000.0):
        "4a32282957afd133a37b3d8b5ed2998c8504923ddfff3b6dd6c8ab7b3249f35d",
    ("undirected", "int5", 0.05):
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("undirected", "int5", 1000.0):
        "a9fc18ee2ffa9f610654ace07764d7bbbea9477e5fc85bead3cace6e5e379d28",
}

EXTRACT_REPORT_DIGEST = (
    "d3cbed40da7250c933d4e40064cd01895c4cd01bae0ec20e0d6251f11feb9962"
)
EXTRACT_TRACE_DIGEST = (
    "040864b37fc4873c83618fa1b88b616c532a9a99a45d5c6236578bfa4cf81003"
)

# One round on a 2000-node planted graph, at the large-graph benchmark's
# settings scaled down; its chains read the rows of few nodes.
PLANTED_REPORT_DIGESTS = {
    "same_edge_count":
        "c17b025f4b3d11e01c913147090d23b8f6921ffa0ceecb5b13246f3494155840",
    "degree_preserving":
        "bd0bb63c3ee82583cd9ccea97fe6727bb114756d41ab71f5751fa6c29987949f",
}

# UCE on a planted graph at a low c, where most proposals are accepted.
UCE_REPORT_DIGEST = (
    "7bc57bed3b41e4561e16a8e1c41a5a484ab47910a0509729312e7f4f9c4bb43a"
)

# Two rounds with degree-preserving nulls: the second's residual has one edge.
SMALL_RESIDUAL_REPORT_DIGEST = (
    "7a482d89002750d6c03963483a84d53b1fb69c11edb20769eb916c70b921f62e"
)

# Subset counts and DMM partitions on planted graphs with float weights,
# whose sums round, so the order of every summation shows.
FROM_MEMBERS_DIGEST = (
    "6e2129f2bc87081194029bc1a7350c79a252a241609ba11e0c06dbe04ba03507"
)
# At 4 parts no fourth split gains, so the partition is the 3-part one.
DMM_PARTITION_DIGESTS = {
    2: "d02f77247052706050998b38e1a76dabdf48e545b4aa509f94c6d5a60322ac0b",
    3: "1b6bf59c3a523a2882685634eb5d7110a102fd21c39d47ed1b0efa731d225cf8",
    4: "1b6bf59c3a523a2882685634eb5d7110a102fd21c39d47ed1b0efa731d225cf8",
}

NULL_GRAPH_DIGESTS = {
    "gnp_seed_0": "a10e9e7b4356efbef506ea4ed266f4c80c1e407b758a148db7db1bac5a63f082",
    "gnp_seed_1": "019a71295cc574bb464031ef083fe12fa826988c2ab62812f72f9156c94e451f",
    "rigid": "9c5bb4496b64b27b44a4cddcfad2febac13411579a074dc8322f5e79836027a0",
}


def chain_digest(graph, weights, c, observer=None):
    """sha256 of every StepEvent of one chain, then its result; ``observer``,
    when given, also sees every step.  An "undirected" chain runs UCE's
    criterion, W at n = 0 on the symmetrized graph; a "directed" one n = 1."""
    g = directed_gnp(40, 0.1, seed=21, max_weight=5 if weights == "int5" else 1,
                     float_weights=weights == "float")
    if graph == "undirected":
        g = symmetrize(g)
    params = CriterionParams(rho=0.8, n=0.0 if graph == "undirected" else 1.0)
    cfg = ChainConfig(c=c, seed=3, max_steps=4000, patience=4000)
    lines = []

    def record(e, state):
        lines.append(repr(tuple(e)))
        if observer is not None:
            observer(e, state)

    r = run_chain(g, params, cfg, observer=record)
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


def small_residual_report_digest(monkeypatch):
    """sha256 of the report of ``extract_all`` on a heavy 5-node core whose
    light edges reach 9 periphery nodes, beside one edge 5 -> 6 of its own.
    Round 0 takes the core and with it every light edge, so round 1 searches
    a residual of one edge, and so do its nulls: no swap can be made."""
    core = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 0), (2, 4),
            (3, 1), (3, 2), (3, 4), (4, 1), (4, 2), (4, 3)]
    light = [(7, 2), (0, 8), (9, 0), (0, 10), (11, 0), (3, 12), (13, 2),
             (3, 14), (15, 1), (5, 6)]
    g = DirectedGraph(16, [(a, b, 10.0) for a, b in core]
                      + [(a, b, 1.0) for a, b in light])
    searched = []  # the edge count of every graph a search ran on
    search = extraction.search
    monkeypatch.setattr(extraction, "search",
                        lambda ng, *a: searched.append(ng.edge_count)
                        or search(ng, *a))
    report = extract_all(g, ExtractionConfig(
        criterion=CriterionParams(rho=0.8, n=1.0),
        chain=ChainConfig(c=0.5, max_steps=500, patience=250, seed=1),
        restarts=2, max_communities=3, null_replicates=9,
        null_model="degree_preserving", significance_quantile=0.85))
    assert report.member_sets() == [frozenset(range(5))]
    assert report.stopped_reason == "non_significant"
    assert searched.count(1) > 1  # round 1's own search and its nulls'
    data = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(data.encode()).hexdigest()


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


def dmm_partition_digest(target_parts):
    """sha256 of the ``run_dmm`` assignments on float-weighted planted graphs."""
    config = DmmConfig(target_parts=target_parts)
    lines = [repr(sorted(run_dmm(float_planted_graph(seed), config)
                         .assignments.items()))
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


@pytest.mark.parametrize("case", CHAIN_CASES,
                         ids=lambda case: "-".join(map(str, case)))
def test_chain_event_stream_is_pinned(case, monkeypatch):
    spy = MemoSpy(monkeypatch)
    assert chain_digest(*case, observer=spy) == CHAIN_DIGESTS[case]
    if case[-1] == 1000.0:  # near-frozen: its long rejection runs are scanned
        assert sum(taken for _, taken in spy.scans) > 0
    assert (hashlib.sha256(repr(spy.scans).encode()).hexdigest()
            == SCAN_DIGESTS[case])
    # Sums round on float weights, so the undo slot is never read.
    evaluates, restores = undo_slot(spy.events, case[1] != "float")
    assert spy.evaluated == evaluates
    if case[1] != "float" and case[-1] == 0.05:  # a roaming chain undoes moves
        assert len(restores) > 50


def test_extract_report_and_trace_are_pinned(tmp_path):
    assert extract_digests(tmp_path) == (EXTRACT_REPORT_DIGEST, EXTRACT_TRACE_DIGEST)


@pytest.mark.parametrize("null_model", sorted(PLANTED_REPORT_DIGESTS))
def test_planted_extract_report_is_pinned(tmp_path, null_model):
    assert (planted_report_digest(tmp_path, null_model)
            == PLANTED_REPORT_DIGESTS[null_model])


def test_uce_report_is_pinned(tmp_path):
    assert uce_report_digest(tmp_path) == UCE_REPORT_DIGEST


def test_nulls_of_a_residual_too_small_to_swap_are_pinned(monkeypatch):
    assert small_residual_report_digest(monkeypatch) == SMALL_RESIDUAL_REPORT_DIGEST


def test_from_members_counts_are_pinned():
    assert from_members_digest() == FROM_MEMBERS_DIGEST


def test_dmm_partitions_are_pinned():
    for target_parts, digest in DMM_PARTITION_DIGESTS.items():
        assert dmm_partition_digest(target_parts) == digest, target_parts


@pytest.mark.parametrize("name", sorted(NULL_GRAPH_CASES))
def test_degree_preserving_null_graph_is_pinned(name):
    assert null_graph_digest(NULL_GRAPH_CASES[name]()) == NULL_GRAPH_DIGESTS[name]


def test_rigid_graph_exhausts_its_attempt_budget():
    meta = NULL_GRAPH_CASES["rigid"]().meta
    assert meta["attempts"] == 20 * meta["target_swaps"]
    assert 0 < meta["accepted_swaps"] < meta["target_swaps"]

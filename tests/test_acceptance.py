"""End-to-end acceptance suite.

One test per release criterion, each printing a PASS line with its measured
numbers (run ``pytest tests/test_acceptance.py -v -s`` to see them live).
All runs are fully seeded and deterministic.
"""

import csv
import json
import math
import statistics
import time

import numpy as np
import pytest

from dcex import (
    BenchmarkSpec,
    derive_seed,
    extract_all,
    generate_benchmark,
    run_chain,
)
from dcex.baselines import DmmConfig, run_dmm, run_uce
from dcex.cli import fit_runtime_exponent, main as cli_main
from dcex.criterion import (
    CommunityState,
    CriterionParams,
    is_admissible_size,
    move_delta,
    q_coefficient,
    value_function,
)
from dcex.evaluation import best_pair_adjusted_jaccard
from dcex.extraction import ExtractionConfig
from dcex.sampler import ChainConfig

from helpers import brute_force_optimum, copy_state, directed_gnp, figure1_spec


def report(criterion, detail):
    print(f"[acceptance] criterion {criterion}: PASS — {detail}")


# -- criterion 1: sampler matches the exhaustive oracle ----------------------


def test_criterion_1_oracle_optimality():
    params = CriterionParams(rho=1.0, n=5.0)
    t0 = time.perf_counter()
    hits = 0
    for i in range(20):
        g = directed_gnp(12, 0.3, seed=1000 + i)
        _, bf_score = brute_force_optimum(g, params)
        r = run_chain(
            g,
            params,
            ChainConfig(c=1e-5, seed=i, max_steps=50_000, patience=50_000),
        )
        if abs(r.best_score.value - bf_score.value) < 1e-9:
            hits += 1
    elapsed = time.perf_counter() - t0
    assert hits >= 18, f"only {hits}/20 runs matched the exhaustive optimum"
    assert elapsed < 10.0, f"took {elapsed:.1f}s (limit 10s)"
    report(1, f"{hits}/20 oracle matches in {elapsed:.1f}s")


# -- criteria 2 and 3: incremental exactness and the q contract --------------


def _walk_states(n_moves_per_graph=5000, n_graphs=20):
    """Deterministic random walks over random graphs; yields visited states."""
    params = CriterionParams(rho=0.9, n=5.0)
    for gi in range(n_graphs):
        n = 20 + (gi * 7) % 31  # sizes 20..50
        g = directed_gnp(n, 0.2, seed=7000 + gi, max_weight=3)
        rng = np.random.default_rng(gi)
        state = CommunityState.from_members(g, [int(rng.integers(0, n))])
        moves = 0
        while moves < n_moves_per_graph:
            u = int(rng.integers(0, n))
            direction = "remove" if state.in_set[u] else "add"
            if direction == "remove" and state.size == 1:
                continue
            if direction == "add" and not is_admissible_size(
                state.size + 1, n, params.rho
            ):
                continue
            yield g, params, state, u, direction
            moves += 1


def test_criterion_2_incremental_correctness():
    t0 = time.perf_counter()
    checked = 0
    for g, params, state, u, direction in _walk_states():
        w_before = value_function(g.n_nodes, params)(*state.counts())
        delta, new_counts = move_delta(g, state, u, direction, params)
        # involution: inverting the move restores the counts bit for bit
        inverse = "remove" if direction == "add" else "add"
        probe = copy_state(state)
        probe.apply_move(u, direction, new_counts)
        delta_back, back_counts = move_delta(g, probe, u, inverse, params)
        assert back_counts == state.counts()
        assert delta + delta_back == 0.0

        state.apply_move(u, direction, new_counts)
        fresh = CommunityState.from_members(g, state.members)
        assert fresh.counts() == state.counts()
        w_after = value_function(g.n_nodes, params)(*fresh.counts())
        assert abs(delta - (w_after - w_before)) <= 1e-9
        checked += 1
    assert checked == 100_000
    report(2, f"{checked} moves, max tolerance 1e-9, involution exact "
              f"({time.perf_counter() - t0:.0f}s)")


def test_criterion_3_q_contract():
    states = 0
    for g, params, state, u, direction in _walk_states(n_moves_per_graph=1000):
        delta, new_counts = move_delta(g, state, u, direction, params)
        state.apply_move(u, direction, new_counts)
        b_in, b_out = state.b_in, state.b_out
        b = b_in + b_out
        q = q_coefficient(b_in, b_out)
        assert 1.0 <= q <= b + 1.0
        assert (q == 1.0) == (b_in * b_out == 0.0 or b == 0.0)
        states += 1
    assert states == 20_000
    report(3, f"q bounds and equality condition hold on {states} visited states")


# -- criterion 4: three-method comparison on the 50-node construction --------


def _figure1_extraction_config(seed):
    return ExtractionConfig(
        criterion=CriterionParams(rho=0.8, n=5.0),
        chain=ChainConfig(
            c=0.05,
            seed=derive_seed(seed, 0),
            max_steps=20_000,
            patience=10_000,
        ),
        restarts=5,
        max_communities=6,
        null_replicates=0,
    )


def test_criterion_4_figure1_comparison():
    t0 = time.perf_counter()
    dce_scores, uce_scores, dmm_scores = [], [], []
    for seed in range(20):
        g, truth = generate_benchmark(figure1_spec(seed))
        truth_pair = (truth.s1, truth.s2)
        cfg = _figure1_extraction_config(seed)
        dce_rep = extract_all(g, cfg)
        aj, _ = best_pair_adjusted_jaccard(truth_pair, dce_rep.member_sets())
        dce_scores.append(aj)
        uce_rep = run_uce(g, cfg)
        aj, _ = best_pair_adjusted_jaccard(truth_pair, uce_rep.member_sets())
        uce_scores.append(aj)
        labels = run_dmm(g, DmmConfig(target_parts=3))
        aj, _ = best_pair_adjusted_jaccard(truth_pair, labels.as_sets())
        dmm_scores.append(aj)
    elapsed = time.perf_counter() - t0
    dce_mean = statistics.mean(dce_scores)
    uce_mean = statistics.mean(uce_scores)
    dmm_mean = statistics.mean(dmm_scores)
    assert dce_mean >= 0.85, f"DCE mean {dce_mean:.3f} below 0.85"
    assert dce_mean > uce_mean, f"DCE {dce_mean:.3f} not above UCE {uce_mean:.3f}"
    assert dce_mean > dmm_mean, f"DCE {dce_mean:.3f} not above DMM {dmm_mean:.3f}"
    assert elapsed < 120.0, f"took {elapsed:.0f}s (limit 120s)"
    report(4, f"mean adjusted Jaccard DCE={dce_mean:.3f} UCE={uce_mean:.3f} "
              f"DMM={dmm_mean:.3f} in {elapsed:.0f}s")


# -- criterion 5: penalty exponent trend on the 500-node grid ----------------


def _grid_cell_adjusted_jaccard(seed, n_exp, p2):
    spec = BenchmarkSpec(n1=40, n2=50, n0=410, p1=0.7, p2=p2, seed=seed)
    g, truth = generate_benchmark(spec)
    cfg = ExtractionConfig(
        criterion=CriterionParams(rho=0.8, n=n_exp),
        chain=ChainConfig(
            c=0.01,
            seed=derive_seed(seed, 1),
            max_steps=60_000,
            patience=30_000,
        ),
        restarts=5,
        max_communities=2,
        null_replicates=0,
    )
    rep = extract_all(g, cfg)
    aj, _ = best_pair_adjusted_jaccard((truth.s1, truth.s2), rep.member_sets())
    return aj


def test_criterion_5_penalty_exponent_trend():
    t0 = time.perf_counter()
    summary = []
    for p2 in (0.05, 0.1):
        means = {}
        for n_exp in (1.0, 5.0):
            vals = [_grid_cell_adjusted_jaccard(seed, n_exp, p2)
                    for seed in range(20)]
            means[n_exp] = statistics.mean(vals)
        assert means[5.0] >= means[1.0], (
            f"cell p2={p2}: n=5 mean {means[5.0]:.3f} below n=1 mean "
            f"{means[1.0]:.3f}"
        )
        summary.append(f"p2={p2}: n5={means[5.0]:.3f} vs n1={means[1.0]:.3f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0, f"took {elapsed:.0f}s (limit 30 min)"
    report(5, "; ".join(summary) + f" ({elapsed:.0f}s)")


# -- criterion 6: null calibration on structureless graphs -------------------


def test_criterion_6_null_calibration():
    t0 = time.perf_counter()
    zero_stops = 0
    for i in range(20):
        g = directed_gnp(200, 0.05, seed=9000 + i)
        cfg = ExtractionConfig(
            criterion=CriterionParams(rho=0.8, n=5.0),
            chain=ChainConfig(c=0.01, seed=i, max_steps=8000, patience=4000),
            restarts=1,
            max_communities=3,
            null_replicates=100,
            null_model="same_edge_count",
            significance_quantile=0.95,
        )
        rep = extract_all(g, cfg)
        if len(rep.communities) == 0:
            zero_stops += 1
    elapsed = time.perf_counter() - t0
    assert zero_stops >= 18, f"only {zero_stops}/20 runs stopped at zero"
    report(6, f"{zero_stops}/20 noise graphs yielded no community "
              f"({elapsed:.0f}s)")


# -- criterion 7: runtime scaling up to 10000 nodes --------------------------


def test_criterion_7_scaling(tmp_path):
    out = tmp_path / "scaling.csv"
    t0 = time.perf_counter()
    code = cli_main([
        "scaling",
        "--sizes", "2000,4000,6000,8000,10000",
        "--replicates", "1",
        "--seed", "5",
        "--c", "0.01",
        "--out", str(out),
    ])
    elapsed = time.perf_counter() - t0
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [row["size"] for row in rows] == ["2000", "4000", "6000", "8000",
                                             "10000"]
    points = [(int(r["size"]), float(r["mean_runtime_ms"])) for r in rows]
    exponent = fit_runtime_exponent(points)
    assert math.isfinite(points[-1][1])
    assert exponent < 2.0, f"fitted exponent {exponent:.2f} not sub-quadratic"
    report(7, f"N=10000 completes; fitted exponent {exponent:.2f} "
              f"({elapsed:.0f}s wall)")


# -- criterion 8: byte-level determinism of the CLI --------------------------


def _strip_runtime(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row.pop("runtime_ms", None)
    return rows


def test_criterion_8_cli_determinism(tmp_path):
    figure1 = tmp_path / "fig1.edgelist"
    # benchmark twice
    d1, d2 = tmp_path / "b1", tmp_path / "b2"
    for d in (d1, d2):
        assert cli_main([
            "benchmark", "--n1", "10", "--n2", "10", "--n0", "30",
            "--p1", "0.7", "--p2", "0.1", "--figure1", "--replicates", "1",
            "--seed", "5", "--out-dir", str(d),
        ]) == 0
    assert (d1 / "bench_0000.edgelist").read_bytes() == \
        (d2 / "bench_0000.edgelist").read_bytes()
    assert (d1 / "bench_0000.truth").read_bytes() == \
        (d2 / "bench_0000.truth").read_bytes()
    figure1.write_bytes((d1 / "bench_0000.edgelist").read_bytes())

    # extract twice (significance machinery on)
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (r1, r2):
        assert cli_main([
            "extract", "--graph", str(figure1), "--method", "dce",
            "--rho", "0.8", "--n", "5", "--c", "0.05", "--seed", "11",
            "--restarts", "4", "--max-steps", "8000", "--patience", "4000",
            "--max-communities", "2", "--null-replicates", "24",
            "--out", str(out),
        ]) == 0
    assert r1.read_bytes() == r2.read_bytes()

    # sweep twice (runtime columns excluded, like manifest timings)
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    for out in (s1, s2):
        assert cli_main([
            "sweep", "--rho", "0.8", "--n", "5", "--p1", "0.9", "--p2", "0.05",
            "--n1", "8", "--n2", "8", "--n0", "20", "--methods", "dce,dmm",
            "--replicates", "2", "--seed", "3", "--c", "0.05",
            "--restarts", "3", "--max-steps", "4000", "--patience", "2000",
            "--out", str(out),
        ]) == 0
    assert _strip_runtime(s1) == _strip_runtime(s2)
    report(8, "benchmark/extract byte-identical; sweep identical modulo "
              "timing columns")

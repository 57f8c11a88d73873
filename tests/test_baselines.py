import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dcex
from dcex import (
    BenchmarkSpec,
    DirectedGraph,
    generate_benchmark,
    run_chain,
    symmetrize,
)
from dcex import baselines
from dcex.baselines import DmmConfig, run_dmm, run_uce
from dcex.criterion import CommunityState, CriterionParams, score
from dcex.extraction import ExtractionConfig, extract_all
from dcex.sampler import ChainConfig

from helpers import (
    directed_gnp,
    directed_modularity,
    reference_dmm,
    two_cliques_graph,
)


class TestUce:
    def test_equals_extraction_on_symmetrized_graph(self):
        g = directed_gnp(30, 0.15, seed=20)
        cfg = ExtractionConfig(
            criterion=CriterionParams(rho=0.8, n=5.0),
            chain=ChainConfig(c=0.05, seed=9, max_steps=3000, patience=1500),
            restarts=3,
            max_communities=3,
            null_replicates=0,
        )
        direct = extract_all(
            symmetrize(g),
            ExtractionConfig(
                criterion=CriterionParams(rho=0.8, n=0.0),
                chain=cfg.chain,
                restarts=3,
                max_communities=3,
                null_replicates=0,
            ),
        )
        via_uce = run_uce(g, cfg)
        assert via_uce.to_dict() == direct.to_dict()

    def test_symmetrized_undirected_score_doubles_plain_directed(self):
        # O, B_in, B_out all double under symmetrization, so the
        # direction-blind value is exactly twice the n=0 directed value.
        rng = np.random.default_rng(6)
        params = CriterionParams(rho=1.0, n=0.0)
        for seed in range(5):
            g = directed_gnp(16, 0.3, seed=30 + seed, max_weight=3)
            sym = symmetrize(g)
            for _ in range(20):
                size = int(rng.integers(1, 6))
                members = set(rng.choice(16, size=size, replace=False).tolist())
                w_sym = score(sym, members, params).value
                w_dir = score(g, members, params).value
                assert w_sym == pytest.approx(2.0 * w_dir, rel=1e-12, abs=1e-12)

    def test_chain_trajectories_match_at_doubled_c(self):
        # Doubling every count doubles every delta, so the undirected chain
        # at c equals the n=0 directed chain at 2c, step for step.
        g = directed_gnp(20, 0.2, seed=31)
        sym = symmetrize(g)
        ev_sym, ev_dir = [], []
        r_sym = run_chain(
            sym,
            CriterionParams(rho=1.0, n=0.0),
            ChainConfig(c=0.05, seed=77, max_steps=5000, patience=5000),
            observer=lambda e, state: ev_sym.append(e),
        )
        r_dir = run_chain(
            g,
            CriterionParams(rho=1.0, n=0.0),
            ChainConfig(c=0.10, seed=77, max_steps=5000, patience=5000),
            observer=lambda e, state: ev_dir.append(e),
        )
        assert sorted(r_sym.best_state.members) == sorted(r_dir.best_state.members)
        assert r_sym.best_score.value == pytest.approx(2 * r_dir.best_score.value)
        assert len(ev_sym) == len(ev_dir) == r_sym.steps_run
        for a, b in zip(ev_sym, ev_dir):
            assert (a.node, a.direction, a.accepted, a.size) == (
                b.node,
                b.direction,
                b.accepted,
                b.size,
            )

    def test_uce_merges_planted_pair_into_one_blob(self):
        # Direction-blind extraction sees the dense 16-node block as one
        # community; with the size cap it grabs most of it in round one.
        spec = BenchmarkSpec(n1=8, n2=8, n0=24, p1=0.9, p2=0.03, seed=5)
        g, truth = generate_benchmark(spec)
        cfg = ExtractionConfig(
            criterion=CriterionParams(rho=0.8, n=5.0),
            chain=ChainConfig(c=0.05, seed=4, max_steps=6000, patience=3000),
            restarts=4,
            max_communities=1,
            null_replicates=0,
        )
        rep = run_uce(g, cfg)
        first = rep.member_sets()[0]
        dense = truth.s1 | truth.s2
        # the blob straddles both planted communities
        assert len(first & truth.s1) >= 3
        assert len(first & truth.s2) >= 3
        assert len(first & dense) >= 0.7 * len(first)


@st.composite
def dmm_cases(draw):
    """(graph, parts, passes): a random graph on 2-60 nodes, some of them
    isolated, with unit weights or float weights in [0.5, 2]."""
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    linked = rng.permutation(n)[: n - draw(st.integers(0, n // 3))]
    mask = rng.random((len(linked), len(linked))) < draw(st.sampled_from([0.05, 0.3]))
    np.fill_diagonal(mask, False)
    src, dst = np.nonzero(mask)
    if draw(st.booleans()):
        weight = rng.uniform(0.5, 2.0, size=len(src))
    else:
        weight = np.ones(len(src))
    g = DirectedGraph.from_arrays(n, linked[src], linked[dst], weight)
    return g, draw(st.integers(2, 5)), draw(st.integers(0, 10))


def brute_force_best_bisection_q(g):
    """Max directed modularity over all 2-partitions (test oracle)."""
    n = g.n_nodes
    best = -np.inf
    for bits in itertools.product([0, 1], repeat=n - 1):
        assignment = [0] + list(bits)
        best = max(best, directed_modularity(g, assignment))
    return best


class TestDmm:
    def test_two_cliques_split_exactly(self):
        g = two_cliques_graph()
        labels = run_dmm(g, DmmConfig(target_parts=2))
        parts = labels.as_sets()
        assert sorted(tuple(sorted(p)) for p in parts) == [
            (0, 1, 2, 3, 4),
            (5, 6, 7, 8, 9),
        ]
        q = directed_modularity(g, labels.assignments)
        assert q == pytest.approx(brute_force_best_bisection_q(g), abs=1e-9)

    def test_partition_covers_every_node_once(self):
        for seed in range(4):
            g = directed_gnp(30, 0.1, seed=40 + seed)
            labels = run_dmm(g, DmmConfig(target_parts=3))
            assert sorted(labels.assignments) == list(range(30))

    def test_refinement_never_decreases_q(self):
        g = directed_gnp(40, 0.08, seed=50)
        prev = -np.inf
        for passes in (0, 1, 3, 10):
            labels = run_dmm(g, DmmConfig(target_parts=2, refinement_passes=passes))
            q = directed_modularity(g, labels.assignments)
            assert q >= prev - 1e-12
            prev = q

    def test_symmetric_graph_reduces_to_undirected_modularity(self):
        # On a symmetric graph the directed Q equals Newman's undirected Q
        # (with m counting each undirected edge twice).
        g = symmetrize(two_cliques_graph())
        labels = run_dmm(g, DmmConfig(target_parts=2))
        q = directed_modularity(g, labels.assignments)
        # hand calculation: within-weights and degrees of the two halves
        m = g.total_weight
        by_part = labels.parts()
        q_hand = 0.0
        for part in by_part.values():
            st = CommunityState.from_members(g, part)
            k = sum(g.out_strength[u] for u in part)
            q_hand += st.o_s / m - (k / m) ** 2
        assert q == pytest.approx(q_hand, abs=1e-12)

    def test_zero_edge_graph_single_part(self):
        g = DirectedGraph(5, [])
        labels = run_dmm(g, DmmConfig(target_parts=3))
        assert set(labels.assignments.values()) == {0}

    def test_isolated_nodes_assigned(self):
        g = DirectedGraph(7, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)])
        labels = run_dmm(g, DmmConfig(target_parts=3))
        assert sorted(labels.assignments) == list(range(7))

    def test_respects_target_parts_cap(self):
        # four planted cliques but only 2 parts requested
        edges = []
        for base in (0, 4, 8, 12):
            for i in range(4):
                for j in range(4):
                    if i != j:
                        edges.append((base + i, base + j, 1.0))
        edges += [(0, 4, 1.0), (4, 8, 1.0), (8, 12, 1.0)]
        g = DirectedGraph(16, edges)
        labels = run_dmm(g, DmmConfig(target_parts=2))
        assert len(labels.parts()) <= 2

    @settings(max_examples=60, deadline=None)
    @given(dmm_cases())
    def test_matches_reference_dmm(self, case):
        # The reference builds each part with its own index map and
        # adjacency lists; every split and refinement move must agree.
        g, parts, passes = case
        labels = run_dmm(g, DmmConfig(target_parts=parts, refinement_passes=passes))
        assert labels.assignments == reference_dmm(g, parts, passes)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_dmm_on_planted_graph(self, seed):
        spec = BenchmarkSpec(n1=40, n2=50, n0=410, p1=0.7, p2=0.05, seed=seed)
        g, _ = generate_benchmark(spec)
        labels = run_dmm(g, DmmConfig(target_parts=3))
        assert labels.assignments == reference_dmm(g, 3, 10)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DmmConfig(target_parts=1)
        with pytest.raises(ValueError):
            DmmConfig(refinement_passes=-1)

    # 2.5 parts would make 3; 1.5 passes would fail inside range().
    @pytest.mark.parametrize("field, value", [
        ("target_parts", 2.5), ("target_parts", 3.0), ("refinement_passes", 1.5),
    ])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            DmmConfig(**{field: value})

    def test_directed_modularity_hand_value(self):
        # one edge 0->1 plus 1->2: m=2; perfect-partition bookkeeping
        g = DirectedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        all_one = [0, 0, 0]
        # internal = 2, expected = sum_c Kin_c*Kout_c/m = (2*2)/2 = 2
        assert directed_modularity(g, all_one) == pytest.approx(0.0)
        split = [0, 0, 1]
        # internal = 1; Kin_0*Kout_0 = 1*2, Kin_1*Kout_1 = 1*0 -> exp = 1
        assert directed_modularity(g, split) == pytest.approx(0.0)
        assert directed_modularity(g, {0: 0, 1: 0, 2: 1}) == pytest.approx(0.0)


def part_operator(g, nodes):
    """Dense matrix of the operator DMM takes a part's leading eigenvector
    of, and the largest absolute row sum, which bounds its norm.

    It is the symmetrized modularity matrix B + B^T of the nodes ``nodes``,
    with the whole graph's degrees and weight, minus the diagonal of its
    row sums.
    """
    nodes = np.asarray(nodes)
    a = np.zeros((g.n_nodes, g.n_nodes))
    np.add.at(a, (g.edge_src, g.edge_dst), g.edge_weight)
    a = a[np.ix_(nodes, nodes)]
    k_in = np.asarray(g.in_strength)[nodes]
    k_out = np.asarray(g.out_strength)[nodes]
    b = a + a.T - (np.outer(k_in, k_out) + np.outer(k_out, k_in)) / g.total_weight
    op = b - np.diag(b.sum(axis=1))
    return op, float(np.abs(op).sum(axis=1).max())


class TestLeadingEigenvector:
    def check_pair(self, op, scale, v0):
        """Check the top pair of ``op`` solved from ``v0``; return the number
        of matvecs the solve took."""
        count = [0]

        def matvec(x):
            count[0] += 1
            return op @ x

        theta, x = baselines._leading_eigenvector(matvec, v0, scale)
        assert theta == pytest.approx(np.linalg.eigvalsh(op)[-1], abs=1e-8 * scale)
        assert np.linalg.norm(x) == pytest.approx(1.0)
        # recomputed densely, the residual differs from the solver's by rounding
        assert np.linalg.norm(op @ x - theta * x) <= 2 * baselines._EIG_TOL * scale
        assert x @ v0 >= 0
        return count[0]

    @settings(max_examples=60, deadline=None)
    @given(dmm_cases(), st.integers(0, 2**32 - 1))
    def test_small_parts_match_dense_eigensolver(self, case, seed):
        g = case[0]
        assume(g.total_weight > 0)
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, min(g.n_nodes, 40) + 1))
        op, scale = part_operator(g, rng.choice(g.n_nodes, size, replace=False))
        assume(scale > 0)
        # a basis of up to 40 vectors spans a part this small: no restart
        assert self.check_pair(op, scale, rng.standard_normal(size)) <= size

    @pytest.mark.parametrize("seed", [0, 1])
    def test_restarted_solve_matches_dense_eigensolver(self, seed):
        for g, restarts in [(directed_gnp(120, 0.05, seed=seed), True),
                            (generate_benchmark(BenchmarkSpec(
                                n1=20, n2=20, n0=80, p1=0.7, p2=0.05, seed=seed))[0],
                             False)]:
            op, scale = part_operator(g, range(g.n_nodes))
            v0 = np.random.default_rng(0xDCE).standard_normal(g.n_nodes)
            # unstructured graphs need more than one basis of 40 vectors
            assert (self.check_pair(op, scale, v0) > 40) == restarts

    def test_exhausted_budget_raises(self, monkeypatch):
        op, scale = part_operator(directed_gnp(120, 0.05, seed=0), range(120))
        monkeypatch.setattr(baselines, "_MAX_BASES", 1)
        with pytest.raises(RuntimeError, match="120-node part.*residual"):
            baselines._leading_eigenvector(
                lambda x: op @ x, np.random.default_rng(0xDCE).standard_normal(120),
                scale)

    def test_dmm_leaves_scipy_unloaded(self):
        # scipy.sparse.linalg alone adds about 32 MB of peak RSS.
        code = (
            "import sys\n"
            "import dcex\n"
            "from dcex.baselines import DmmConfig, run_dmm\n"
            "g, _ = dcex.generate_benchmark(dcex.BenchmarkSpec(\n"
            "    n1=40, n2=50, n0=410, p1=0.7, p2=0.05, seed=0))\n"
            "run_dmm(g, DmmConfig(target_parts=3))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(dcex.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.strip() == "[]"

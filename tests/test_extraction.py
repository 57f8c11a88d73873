import math
import multiprocessing
import warnings
from collections import Counter
from contextlib import closing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcex import (
    BenchmarkSpec,
    DirectedGraph,
    empirical_p_value,
    extract_all,
    extraction,
    generate_benchmark,
    randomize,
)
from dcex.criterion import CriterionParams
from dcex.extraction import (
    NULL_DEGREE_PRESERVING,
    NULL_SAME_EDGE_COUNT,
    STOP_GRAPH_EXHAUSTED,
    STOP_MAX_COMMUNITIES,
    STOP_NON_SIGNIFICANT,
    ExtractionConfig,
    map_jobs,
)
from dcex.evaluation import adjusted_jaccard
from dcex.sampler import ChainConfig

from helpers import (
    directed_gnp,
    edge_multiset,
    full_null_best_scores,
    reference_degree_preserving,
    rigid_graph,
)


def fast_config(seed=0, **overrides):
    base = dict(
        criterion=CriterionParams(rho=0.8, n=5.0),
        chain=ChainConfig(c=0.05, seed=seed, max_steps=4000, patience=2000),
        restarts=4,
        max_communities=4,
        null_replicates=0,
    )
    base.update(overrides)
    return ExtractionConfig(**base)


class TestEmpiricalP:
    def test_formula(self):
        assert empirical_p_value(5.0, [1.0, 2.0, 3.0]) == pytest.approx(1 / 4)
        assert empirical_p_value(5.0, [6.0, 7.0, 8.0]) == pytest.approx(1.0)
        assert empirical_p_value(5.0, [5.0, 1.0]) == pytest.approx(2 / 3)

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            nulls = rng.normal(size=rng.integers(1, 50)).tolist()
            p = empirical_p_value(float(rng.normal()), nulls)
            assert 0.0 < p <= 1.0


class TestRandomizeSameEdgeCount:
    def test_preserves_node_and_edge_counts(self):
        g = directed_gnp(30, 0.1, seed=3)
        for seed in range(5):
            r = randomize(g, NULL_SAME_EDGE_COUNT, seed)
            assert r.n_nodes == g.n_nodes
            assert r.edge_count == g.edge_count
            assert all(w == 1.0 for w in r.edge_weight)

    def test_no_self_loops_or_duplicates(self):
        g = directed_gnp(12, 0.3, seed=4)
        for seed in range(20):
            r = randomize(g, NULL_SAME_EDGE_COUNT, seed)
            pairs = list(zip(r.edge_src.tolist(), r.edge_dst.tolist()))
            assert len(set(pairs)) == len(pairs) == g.edge_count
            assert all(s != d for s, d in pairs)

    def test_slot_frequencies_binomial(self):
        # N=5, M=6: every ordered slot should be occupied with frequency
        # ~ Binomial(reps, 6/20) across replicates.  Per-slot bands are set
        # at 4 sigma (20 slots make a single 3-sigma excursion likely even
        # for a perfectly uniform sampler); a chi-square bound guards the
        # aggregate.
        g = DirectedGraph(
            5,
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 0, 1.0),
             (0, 2, 1.0)],
        )
        reps = 1000
        hits = {}
        for seed in range(reps):
            r = randomize(g, NULL_SAME_EDGE_COUNT, seed)
            for s, d in zip(r.edge_src.tolist(), r.edge_dst.tolist()):
                hits[(s, d)] = hits.get((s, d), 0) + 1
        p = 6 / 20
        mean = reps * p
        sd = math.sqrt(reps * p * (1 - p))
        assert len(hits) == 20  # every admissible slot appears at least once
        for count in hits.values():
            assert abs(count - mean) <= 4 * sd
        chi2 = sum((c - mean) ** 2 / (mean * (1 - p)) for c in hits.values())
        assert chi2 < 43.0  # ~p=0.001 cutoff at 19 dof

    def test_weighted_input_flagged(self):
        g = DirectedGraph(4, [(0, 1, 2.0), (1, 2, 1.0)])
        r = randomize(g, NULL_SAME_EDGE_COUNT, 0)
        assert r.meta["weights_discarded"] is True
        unweighted = DirectedGraph(4, [(0, 1, 1.0), (1, 2, 1.0)])
        r2 = randomize(unweighted, NULL_SAME_EDGE_COUNT, 0)
        assert r2.meta["weights_discarded"] is False

    def test_deterministic(self):
        g = directed_gnp(20, 0.2, seed=5)
        a = randomize(g, NULL_SAME_EDGE_COUNT, 123)
        b = randomize(g, NULL_SAME_EDGE_COUNT, 123)
        assert edge_multiset(a) == edge_multiset(b)

    @pytest.mark.parametrize("n", [0, 1])
    def test_graph_with_no_slot_comes_back_edgeless(self, n):
        # N(N-1) = 0 slots: the slot ids are divided by N - 1 = 0 or -1,
        # which numpy does without a warning on an empty array.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = randomize(DirectedGraph(n, []), NULL_SAME_EDGE_COUNT, 0)
        assert (r.n_nodes, r.edge_count) == (n, 0)


@pytest.mark.parametrize("model", [NULL_SAME_EDGE_COUNT, NULL_DEGREE_PRESERVING])
def test_randomize_keeps_the_labels(model):
    labels = ("d", "a", "c", "b", "e")
    g = DirectedGraph(5, [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0),
                          (4, 0, 1.0), (1, 3, 1.0)], labels=labels)
    r = randomize(g, model, 0)
    assert r.labels == labels
    assert [r.id_of(lab) for lab in labels] == [g.id_of(lab) for lab in labels]
    unlabeled = randomize(directed_gnp(8, 0.4, seed=1), model, 0)
    assert unlabeled.labels is None
    with pytest.raises(KeyError):
        unlabeled.id_of("a")


class TestRandomizeDegreePreserving:
    def test_degree_sequences_identical(self):
        g = directed_gnp(25, 0.15, seed=6)
        r = randomize(g, NULL_DEGREE_PRESERVING, 7)
        out_deg = lambda gr: np.bincount(gr.edge_src, minlength=gr.n_nodes).tolist()
        in_deg = lambda gr: np.bincount(gr.edge_dst, minlength=gr.n_nodes).tolist()
        assert out_deg(r) == out_deg(g)
        assert in_deg(r) == in_deg(g)

    def test_rewires_something(self):
        g = directed_gnp(25, 0.15, seed=6)
        r = randomize(g, NULL_DEGREE_PRESERVING, 7)
        assert edge_multiset(r) != edge_multiset(g)
        assert r.meta["accepted_swaps"] > 0

    def test_out_strength_preserved_on_weighted_graphs(self):
        rng = np.random.default_rng(1)
        edges = []
        g0 = directed_gnp(20, 0.2, seed=8)
        for s, d in zip(g0.edge_src.tolist(), g0.edge_dst.tolist()):
            edges.append((s, d, float(rng.integers(1, 5))))
        g = DirectedGraph(20, edges)
        r = randomize(g, NULL_DEGREE_PRESERVING, 9)
        assert r.out_strength == g.out_strength

    def test_two_edge_rigid_graph_returned_unchanged(self):
        # No legal swap exists: (0->1, 1->2) swaps into a self-loop.
        g = DirectedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        r = randomize(g, NULL_DEGREE_PRESERVING, 0)
        assert edge_multiset(r) == edge_multiset(g)
        assert r.meta["accepted_swaps"] == 0
        assert r.meta["attempts"] > 0

    @pytest.mark.parametrize("edges, meta", [
        ([], (0, 0, 0)),  # no swap target, so no attempt
        ([(0, 1, 2.0)], (10, 0, 200)),  # each attempt pairs the edge with itself
    ], ids=["no-edge", "one-edge"])
    def test_too_few_edges_to_swap_come_back_unchanged(self, edges, meta):
        g = DirectedGraph(3, edges)
        r = randomize(g, NULL_DEGREE_PRESERVING, 5)
        for col in ("edge_src", "edge_dst", "edge_weight"):
            assert getattr(r, col).tolist() == getattr(g, col).tolist()
        assert (r.meta["target_swaps"], r.meta["accepted_swaps"],
                r.meta["attempts"]) == meta

    def test_unknown_model_rejected(self):
        g = DirectedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(ValueError, match="unknown null model"):
            randomize(g, "shuffle", 0)


def swaps_against_reference(g, seeds=range(50)):
    """Assert that ``randomize`` makes the reference loop's swaps on ``g``
    for every seed; return the reference's metas and summed rejections."""
    metas, rejected = [], Counter()
    for seed in seeds:
        ref, rej = reference_degree_preserving(g, np.random.default_rng(seed))
        r = randomize(g, NULL_DEGREE_PRESERVING, seed)
        for col in ("edge_src", "edge_dst", "edge_weight"):
            assert getattr(r, col).tobytes() == getattr(ref, col).tobytes()
        assert r.meta == ref.meta
        metas.append(ref.meta)
        rejected += rej
    return metas, rejected


BLOCK_PAIRS = 2048  # attempts drawn per rng.integers block


class TestSwapLoopMatchesReference:
    @pytest.mark.parametrize("float_weights", [False, True])
    def test_sparse_graph_reaches_its_target_partway_through_a_block(
            self, float_weights):
        g = directed_gnp(200, 0.05, seed=2, float_weights=float_weights)
        metas, _ = swaps_against_reference(g)
        assert all(m["accepted_swaps"] == m["target_swaps"] for m in metas)
        assert any(m["attempts"] % BLOCK_PAIRS for m in metas)

    def test_dense_graph_rejects_on_either_new_edge(self):
        _, rejected = swaps_against_reference(directed_gnp(30, 0.6, seed=4))
        assert rejected["ad"] > 0 and rejected["cb"] > 0

    def test_two_edge_rigid_graph(self):
        g = DirectedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        metas, _ = swaps_against_reference(g)
        assert all(m["accepted_swaps"] == 0 for m in metas)

    def test_attempt_budget_ends_partway_through_a_block(self):
        metas, _ = swaps_against_reference(rigid_graph())
        for m in metas:
            assert m["attempts"] == 20 * m["target_swaps"]
            assert m["attempts"] % BLOCK_PAIRS
            assert 0 < m["accepted_swaps"] < m["target_swaps"]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 8).flatmap(lambda n: st.tuples(
        st.just(n),
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                .filter(lambda p: p[0] != p[1]), min_size=2),
        st.integers(0, 2**32 - 1))))
    def test_random_small_digraphs(self, case):
        n, pairs, seed = case
        pairs = sorted(pairs)
        weight = np.random.default_rng(seed).uniform(0.5, 2.0, size=len(pairs))
        g = DirectedGraph.from_arrays(
            n, [a for a, _ in pairs], [b for _, b in pairs], weight)
        swaps_against_reference(g, seeds=[seed])


class TestExtractAll:
    def test_recovers_planted_communities(self):
        spec = BenchmarkSpec(n1=8, n2=8, n0=20, p1=0.9, p2=0.05, seed=7)
        g, truth = generate_benchmark(spec)
        rep = extract_all(g, fast_config(seed=3, max_communities=2))
        assert len(rep.communities) == 2
        found = rep.member_sets()
        aj = adjusted_jaccard((truth.s1, truth.s2), (found[0], found[1]))
        assert aj == 1.0

    def test_communities_are_pairwise_disjoint(self):
        g = directed_gnp(40, 0.15, seed=10)
        rep = extract_all(g, fast_config(seed=1, max_communities=6))
        seen = set()
        for comm in rep.member_sets():
            assert not (comm & seen)
            seen |= comm

    def test_deterministic_end_to_end(self):
        g = directed_gnp(35, 0.12, seed=11)
        cfg = fast_config(seed=5, max_communities=3, null_replicates=10)
        r1 = extract_all(g, cfg)
        r2 = extract_all(g, cfg)
        assert r1.to_dict() == r2.to_dict()

    @pytest.mark.parametrize("model", [NULL_SAME_EDGE_COUNT, NULL_DEGREE_PRESERVING])
    def test_jobs_do_not_change_the_report(self, model):
        spec = BenchmarkSpec(n1=8, n2=8, n0=20, p1=0.9, p2=0.05, seed=7)
        g, _ = generate_benchmark(spec)
        cfg = fast_config(seed=3, max_communities=2, null_replicates=9,
                          null_model=model, significance_quantile=0.8)
        serial = extract_all(g, cfg).to_dict()
        assert serial["communities"][0]["null_scores"]["count"] == 9
        assert extract_all(g, cfg, jobs=2).to_dict() == serial

    @pytest.mark.parametrize("model", [NULL_SAME_EDGE_COUNT, NULL_DEGREE_PRESERVING])
    def test_jobs_do_not_change_a_rejected_round(self, model):
        g, cfg = noise_case(0, model)
        serial = extract_all(g, cfg).to_dict()
        assert serial["stopped_reason"] == STOP_NON_SIGNIFICANT
        assert extract_all(g, cfg, jobs=2).to_dict() == serial

    def test_chain_observer_sees_the_restart_chains_in_order(self):
        spec = BenchmarkSpec(n1=8, n2=8, n0=20, p1=0.9, p2=0.05, seed=7)
        g, _ = generate_benchmark(spec)
        cfg = fast_config(seed=3, restarts=3, max_communities=2, null_replicates=9,
                          significance_quantile=0.8)
        chains = []

        def chain_observer(round_idx, restart):
            steps = []
            chains.append(((round_idx, restart), steps))
            return lambda event, state: steps.append(event.step)

        observed = extract_all(g, cfg, chain_observer=chain_observer).to_dict()
        assert observed == extract_all(g, cfg).to_dict()
        assert [key for key, _ in chains] == [(r, k) for r in range(2) for k in range(3)]
        for _, steps in chains:  # each observer saw one whole chain
            assert steps == list(range(1, len(steps) + 1))
        first_round = [len(steps) for (r, _), steps in chains if r == 0]
        assert observed["communities"][0]["chain"]["steps"] in first_round

    def test_no_residual_after_the_last_community(self, monkeypatch):
        spec = BenchmarkSpec(n1=10, n2=10, n0=30, p1=0.95, p2=0.02, seed=1)
        g, _ = generate_benchmark(spec)
        calls = []
        complement = extraction.subgraph_complement
        monkeypatch.setattr(extraction, "subgraph_complement",
                            lambda *a: calls.append(a) or complement(*a))
        rep = extract_all(g, fast_config(seed=3, max_communities=2))
        assert rep.stopped_reason == STOP_MAX_COMMUNITIES
        assert len(rep.communities) == 2
        assert len(calls) == 1  # the residual for round 2 only

    def test_max_communities_zero_gives_empty_report(self):
        g = directed_gnp(20, 0.2, seed=12)
        rep = extract_all(g, fast_config(max_communities=0))
        assert rep.communities == ()
        assert rep.stopped_reason == STOP_MAX_COMMUNITIES

    def test_tiny_residual_stops_exhausted(self, monkeypatch):
        # No subset of a 2-node graph is admissible, so no chain runs.
        def refuse(*args, **kwargs):
            raise AssertionError("a chain ran on a graph with no admissible subset")

        monkeypatch.setattr(extraction, "search", refuse)
        g = DirectedGraph(2, [(0, 1, 1.0)])
        rep = extract_all(g, fast_config())
        assert rep.stopped_reason == STOP_GRAPH_EXHAUSTED
        assert rep.communities == ()

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            extract_all(DirectedGraph(0, []), fast_config())

    def test_er_graph_stops_non_significant(self):
        g = directed_gnp(80, 0.05, seed=301)
        cfg = fast_config(
            seed=1,
            chain=ChainConfig(c=0.05, seed=1, max_steps=3000, patience=1500),
            restarts=1,
            max_communities=5,
            null_replicates=30,
        )
        rep = extract_all(g, cfg)
        assert rep.stopped_reason == STOP_NON_SIGNIFICANT
        assert rep.communities == ()

    def test_null_scores_and_p_recorded(self):
        # Note 24 replicates: the smallest reachable p is 1/(R+1), so with
        # fewer than 19 nulls nothing can clear the default 0.05 cutoff.
        # The planted signal is strong so the observed W beats every null.
        spec = BenchmarkSpec(n1=10, n2=10, n0=30, p1=0.95, p2=0.02, seed=1)
        g, _ = generate_benchmark(spec)
        cfg = fast_config(
            seed=3,
            chain=ChainConfig(c=0.05, seed=3, max_steps=6000, patience=3000),
            max_communities=1,
            null_replicates=24,
        )
        rep = extract_all(g, cfg)
        assert len(rep.communities) == 1
        comm = rep.communities[0]
        assert len(comm.null_scores) == 24
        assert comm.empirical_p == pytest.approx(
            empirical_p_value(comm.score.value, comm.null_scores)
        )
        assert comm.empirical_p <= 0.05

    @pytest.mark.parametrize("nulls, quantile", [(9, 0.9), (4, 0.8)])
    def test_p_at_the_cutoff_is_significant(self, nulls, quantile):
        # An observed W above every null gives p = 1/(R+1) = 1 - q exactly,
        # which must pass although the float 1 - q lies just below it.
        spec = BenchmarkSpec(n1=10, n2=10, n0=30, p1=0.95, p2=0.02, seed=1)
        g, _ = generate_benchmark(spec)
        cfg = fast_config(
            seed=3,
            chain=ChainConfig(c=0.05, seed=3, max_steps=6000, patience=3000),
            max_communities=1,
            null_replicates=nulls,
            significance_quantile=quantile,
        )
        rep = extract_all(g, cfg)
        assert len(rep.communities) == 1
        comm = rep.communities[0]
        assert all(v < comm.score.value for v in comm.null_scores)
        assert comm.empirical_p == 1 / (nulls + 1)
        assert rep.stopped_reason == STOP_MAX_COMMUNITIES

    def test_effective_size_uses_residual_node_count(self):
        # After removing community 1, the size term of community 2 must be
        # computed against the shrunken graph.
        spec = BenchmarkSpec(n1=8, n2=8, n0=20, p1=0.9, p2=0.05, seed=7)
        g, _ = generate_benchmark(spec)
        rep = extract_all(g, fast_config(seed=3, max_communities=2))
        first, second = rep.communities
        n_resid = g.n_nodes - len(first.members)
        expected = 0.8 * n_resid - len(second.members)
        assert second.score.effective_size_term == pytest.approx(expected)

    def test_labels_reported_when_graph_labeled(self):
        spec = BenchmarkSpec(n1=6, n2=6, n0=12, p1=0.95, p2=0.05, seed=2)
        g0, _ = generate_benchmark(spec)
        labels = tuple(f"v{u}" for u in range(g0.n_nodes))
        g = DirectedGraph(
            g0.n_nodes,
            list(zip(g0.edge_src.tolist(), g0.edge_dst.tolist(),
                     g0.edge_weight.tolist())),
            labels=labels,
        )
        rep = extract_all(g, fast_config(seed=4, max_communities=1))
        assert rep.communities
        assert all(isinstance(m, str) and m.startswith("v")
                   for m in rep.communities[0].members)

    def test_report_json_round_trip(self, tmp_path):
        import json

        g = directed_gnp(25, 0.2, seed=13)
        rep = extract_all(g, fast_config(seed=2, max_communities=2,
                                         null_replicates=5))
        path = tmp_path / "report.json"
        rep.save_json(path)
        data = json.loads(path.read_text())
        assert data["stopped_reason"] == rep.stopped_reason
        assert len(data["communities"]) == len(rep.communities)
        assert data["config"]["restarts"] == 4
        for comm in data["communities"]:
            assert set(comm) >= {"members", "size", "w", "q_d", "empirical_p"}


def noise_case(seed, model):
    """A float-weighted noise graph whose rounds run 19 nulls at q = 0.8."""
    g = directed_gnp(30, 0.15, seed=seed, float_weights=True)
    cfg = fast_config(seed=seed, null_replicates=19, null_model=model,
                      significance_quantile=0.8)
    return g, cfg


def count_null_chains(monkeypatch) -> list:
    """Count the null replicates ``extract_all`` scores in this process."""
    calls = []
    score = extraction._one_null_score

    def counted(residual, config, seeds):
        calls.append(seeds)
        return score(residual, config, seeds)

    monkeypatch.setattr(extraction, "_one_null_score", counted)
    return calls


class TestSequentialNulls:
    @pytest.mark.parametrize("model", [NULL_SAME_EDGE_COUNT, NULL_DEGREE_PRESERVING])
    def test_same_report_as_the_full_rule(self, model, monkeypatch):
        accepted = 0
        for seed in range(3):
            g, cfg = noise_case(seed, model)
            sequential = extract_all(g, cfg).to_dict()
            with monkeypatch.context() as m:
                m.setattr(extraction, "_null_best_scores", full_null_best_scores)
                assert extract_all(g, cfg).to_dict() == sequential
            assert sequential["stopped_reason"] == STOP_NON_SIGNIFICANT
            for comm in sequential["communities"]:
                assert comm["null_scores"]["count"] == 19
                accepted += 1
        assert accepted > 0  # the graphs exercise accepted rounds too

    def test_rejected_round_stops_early(self, monkeypatch):
        g, cfg = noise_case(0, NULL_SAME_EDGE_COUNT)
        calls = count_null_chains(monkeypatch)
        rep = extract_all(g, cfg)
        assert rep.stopped_reason == STOP_NON_SIGNIFICANT
        assert rep.communities == ()
        assert 0 < len(calls) < cfg.null_replicates

    def test_accepted_round_runs_every_null(self, monkeypatch):
        spec = BenchmarkSpec(n1=10, n2=10, n0=30, p1=0.95, p2=0.02, seed=1)
        g, _ = generate_benchmark(spec)
        cfg = fast_config(seed=3, max_communities=1, null_replicates=9,
                          significance_quantile=0.9)
        calls = count_null_chains(monkeypatch)
        rep = extract_all(g, cfg)
        assert rep.stopped_reason == STOP_MAX_COMMUNITIES
        assert len(calls) == 9
        assert len(rep.communities[0].null_scores) == 9

    @pytest.mark.parametrize("nulls,quantile,fewest",
                             [(9, 0.85, 7), (19, 0.8, 5), (100, 0.95, 20)])
    def test_rejection_waits_for_the_fewest_nulls(self, nulls, quantile,
                                                  fewest, monkeypatch):
        # Every null beats the observed W, so the rejection is certain after
        # floor((1-q)(R+1)) nulls, fewer than ceil(1/(1-q)) in each case.
        assert extraction._exceedance_limit(nulls, quantile) < fewest
        calls = []
        monkeypatch.setattr(extraction, "_one_null_score",
                            lambda residual, config, seeds:
                            calls.append(seeds) or math.inf)
        g = directed_gnp(30, 0.15, seed=0)
        cfg = fast_config(null_replicates=nulls, significance_quantile=quantile)
        rep = extract_all(g, cfg)
        assert rep.stopped_reason == STOP_NON_SIGNIFICANT
        assert len(calls) == fewest

    @pytest.mark.parametrize("nulls,quantile,fewest",
                             [(9, 0.85, 7), (100, 0.95, 20), (9, 0.9, 9),
                              (19, 0.95, 19), (4, 0.8, 4)])
    def test_fewest_nulls_to_reject(self, nulls, quantile, fewest):
        assert extraction._fewest_nulls_to_reject(nulls, quantile) == fewest

    def test_limit_zero_runs_no_null(self, monkeypatch):
        # floor(0.05 * 6) = 0: not even p = 1/6 could be significant.
        spec = BenchmarkSpec(n1=10, n2=10, n0=30, p1=0.95, p2=0.02, seed=1)
        g, _ = generate_benchmark(spec)
        cfg = fast_config(seed=3, null_replicates=5, significance_quantile=0.95)
        calls = count_null_chains(monkeypatch)
        rep = extract_all(g, cfg)
        assert calls == []
        assert rep.stopped_reason == STOP_NON_SIGNIFICANT
        assert rep.communities == ()


class TestConfigValidation:
    def test_restarts_positive(self):
        with pytest.raises(ValueError):
            fast_config(restarts=0)

    def test_null_model_known(self):
        with pytest.raises(ValueError):
            fast_config(null_model="bogus")

    # 2.0 restarts would fail inside range() at run time; 1.5 communities
    # would extract 2.
    @pytest.mark.parametrize("field, value", [
        ("restarts", 2.0), ("max_communities", 1.5), ("null_replicates", 9.0),
    ])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            fast_config(**{field: value})

    def test_quantile_open_interval(self):
        with pytest.raises(ValueError):
            fast_config(significance_quantile=1.0)


class TestMapJobs:
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_results_in_input_order(self, jobs):
        items = list(range(-7, 7))
        assert list(map_jobs(abs, items, jobs)) == [abs(x) for x in items]

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            map_jobs(abs, [1, 2], 0)

    def test_early_stop_leaves_no_worker(self):
        with closing(map_jobs(abs, list(range(-50, 50)), 2)) as results:
            assert next(results) == 50
        assert multiprocessing.active_children() == []

    def test_worker_error_leaves_no_worker(self):
        with pytest.raises(ValueError, match="math domain"):
            list(map_jobs(math.sqrt, [1.0, -1.0, 4.0], 2))
        assert multiprocessing.active_children() == []

import math

import numpy as np
import pytest

from dcex import BenchmarkSpec, generate_benchmark

from helpers import edge_multiset, figure1_spec


def orientation_violations(g, truth):
    """Boundary edges that break the planted direction rules."""
    s1, s2 = truth.s1, truth.s2
    bad = []
    for s, d, _ in zip(g.edge_src, g.edge_dst, g.edge_weight):
        s, d = int(s), int(d)
        if d in s2 and s not in s2:
            bad.append(("into-source", s, d))
        if s in s1 and d not in s1:
            bad.append(("out-of-sink", s, d))
    return bad


class TestConstruction:
    def test_saturated_dense_block_empty_background(self):
        spec = BenchmarkSpec(n1=4, n2=5, n0=6, p1=1.0, p2=0.0, seed=3)
        g, truth = generate_benchmark(spec)
        # complete oriented graph on the 9 dense nodes, nothing else
        assert g.edge_count == 9 * 8 // 2
        assert not orientation_violations(g, truth)
        for s, d, _ in zip(g.edge_src, g.edge_dst, g.edge_weight):
            assert int(s) < 9 and int(d) < 9
        # every sink-source pair is oriented source -> sink
        for u in truth.s2:
            for v in truth.s1:
                pair_edges = [
                    (int(s), int(d))
                    for s, d in zip(g.edge_src, g.edge_dst)
                    if {int(s), int(d)} == {u, v}
                ]
                assert pair_edges == [(u, v)]

    def test_truth_counts(self):
        spec = BenchmarkSpec(n1=7, n2=9, n0=14, p1=0.5, p2=0.1, seed=1)
        g, truth = generate_benchmark(spec)
        assert g.n_nodes == 30
        assert len(truth.s1) == 7
        assert len(truth.s2) == 9
        assert len(truth.background) == 14
        assert len(truth.labels) == 30

    def test_at_most_one_edge_per_unordered_pair(self):
        for seed in range(5):
            g, _ = generate_benchmark(BenchmarkSpec(10, 10, 20, 0.8, 0.3, seed=seed))
            seen = set()
            for s, d in zip(g.edge_src, g.edge_dst):
                key = frozenset((int(s), int(d)))
                assert key not in seen
                seen.add(key)

    def test_orientation_rules_hold_everywhere(self):
        for seed in range(10):
            spec = BenchmarkSpec(n1=8, n2=8, n0=24, p1=0.7, p2=0.1, seed=seed)
            g, truth = generate_benchmark(spec)
            assert not orientation_violations(g, truth)

    def test_orientation_rules_hold_in_figure1_layout(self):
        for seed in range(10):
            g, truth = generate_benchmark(figure1_spec(seed), figure1_variant=True)
            assert not orientation_violations(g, truth)
            # layout: source group occupies the first indices
            assert truth.s2 == frozenset(range(10))
            assert truth.s1 == frozenset(range(10, 20))

    def test_source_sink_rule_collision_is_benign(self):
        # The source-outward and sink-inward rules meet on S1-S2 pairs; both
        # demand source -> sink, in either layout.
        for variant in (False, True):
            g, truth = generate_benchmark(figure1_spec(42), figure1_variant=variant)
            for s, d in zip(g.edge_src, g.edge_dst):
                s, d = int(s), int(d)
                if s in truth.s1 and d in truth.s2:
                    pytest.fail(f"sink->source edge {s}->{d}")

    def test_determinism(self):
        spec = BenchmarkSpec(n1=10, n2=10, n0=30, p1=0.7, p2=0.1, seed=77)
        g1, t1 = generate_benchmark(spec)
        g2, t2 = generate_benchmark(spec)
        assert edge_multiset(g1) == edge_multiset(g2)
        assert t1 == t2

    def test_different_seeds_differ(self):
        g1, _ = generate_benchmark(BenchmarkSpec(10, 10, 30, 0.7, 0.1, seed=1))
        g2, _ = generate_benchmark(BenchmarkSpec(10, 10, 30, 0.7, 0.1, seed=2))
        assert edge_multiset(g1) != edge_multiset(g2)


class TestEdgeCountCalibration:
    def test_dense_block_count_is_binomial(self):
        # 20 dense nodes at p1=0.7: 190 pairs, mean 133, sd ~6.27.
        spec0 = figure1_spec(0)
        n_pairs = 20 * 19 // 2
        mean = 0.7 * n_pairs
        sd = math.sqrt(n_pairs * 0.7 * 0.3)
        counts = []
        for seed in range(200):
            g, truth = generate_benchmark(figure1_spec(seed))
            dense = truth.s1 | truth.s2
            counts.append(
                sum(
                    1
                    for s, d in zip(g.edge_src, g.edge_dst)
                    if int(s) in dense and int(d) in dense
                )
            )
        observed_mean = float(np.mean(counts))
        assert abs(observed_mean - mean) <= 3 * sd / math.sqrt(200)
        assert all(abs(c - mean) <= 5 * sd for c in counts)

    def test_background_density_matches_p2(self):
        spec = BenchmarkSpec(n1=10, n2=10, n0=40, p1=0.7, p2=0.1, seed=0)
        n_pairs_other = 40 * 39 // 2 + 20 * 40  # background internal + cross
        mean = 0.1 * n_pairs_other
        sd = math.sqrt(n_pairs_other * 0.1 * 0.9)
        counts = []
        for seed in range(200):
            g, truth = generate_benchmark(
                BenchmarkSpec(n1=10, n2=10, n0=40, p1=0.7, p2=0.1, seed=seed)
            )
            dense = truth.s1 | truth.s2
            counts.append(
                sum(
                    1
                    for s, d in zip(g.edge_src, g.edge_dst)
                    if not (int(s) in dense and int(d) in dense)
                )
            )
        assert abs(float(np.mean(counts)) - mean) <= 3 * sd / math.sqrt(200)


class TestSpecValidation:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            BenchmarkSpec(5, 5, 5, p1=1.2, p2=0.1)
        with pytest.raises(ValueError):
            BenchmarkSpec(5, 5, 5, p1=0.5, p2=-0.1)

    def test_minimum_planted_size(self):
        with pytest.raises(ValueError):
            BenchmarkSpec(1, 0, 10, p1=0.5, p2=0.1)

    def test_negative_sizes(self):
        with pytest.raises(ValueError):
            BenchmarkSpec(-1, 5, 10, p1=0.5, p2=0.1)


class TestGroundTruthFile:
    def test_to_file_format(self, tmp_path):
        _, truth = generate_benchmark(BenchmarkSpec(2, 3, 4, 0.5, 0.2, seed=5))
        path = tmp_path / "truth.txt"
        truth.to_file(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 9
        assert lines[0].split() == ["0", "S1"]
        assert lines[-1].split() == ["8", "background"]

import gc
import hashlib
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcex import (
    DirectedGraph,
    EdgeListParseError,
    GraphValidationError,
    load_edge_list,
    randomize,
    run_chain,
    save_edge_list,
    subgraph_complement,
    symmetrize,
)
from dcex import graph as graph_module
from dcex.criterion import CriterionParams
from dcex.sampler import ChainConfig

from helpers import (
    assert_graph_equals_reference,
    directed_gnp,
    edge_multiset,
    labeled_edges,
    reference_complement,
    reference_graph,
    reference_symmetrized_edges,
)


def write(tmp_path, text, name="g.edgelist"):
    path = tmp_path / name
    path.write_text(text)
    return path


def graph_digest(g):
    """sha256 of a graph's edge columns, labels and strengths."""
    h = hashlib.sha256()
    for col in (g.edge_src, g.edge_dst, g.edge_weight):
        h.update(col.tobytes())
    h.update(repr((g.labels, g.out_strength, g.in_strength)).encode())
    return h.hexdigest()


class TestLoadEdgeList:
    def test_basic_two_edges(self, tmp_path):
        g = load_edge_list(write(tmp_path, "a b\nb c\n"))
        assert g.n_nodes == 3
        assert g.edge_count == 2
        assert g.total_weight == 2.0
        assert g.labels == ("a", "b", "c")

    def test_duplicate_lines_sum_weights(self, tmp_path):
        g = load_edge_list(write(tmp_path, "a b 2\na b 3\n"))
        assert g.edge_count == 1
        assert edge_multiset(g) == {(0, 1): 5.0}

    def test_self_loop_rejected_naming_node(self, tmp_path):
        with pytest.raises(GraphValidationError, match="'a'"):
            load_edge_list(write(tmp_path, "a a\n"))

    def test_malformed_line_reports_line_number(self, tmp_path):
        with pytest.raises(EdgeListParseError, match=":2:"):
            load_edge_list(write(tmp_path, "a b\na b c d\n"))

    def test_negative_weight_rejected(self, tmp_path):
        with pytest.raises(GraphValidationError, match="negative"):
            load_edge_list(write(tmp_path, "a b -1\n"))

    def test_zero_weight_rejected(self, tmp_path):
        with pytest.raises(GraphValidationError):
            load_edge_list(write(tmp_path, "a b 0\n"))

    def test_bad_weight_token(self, tmp_path):
        with pytest.raises(EdgeListParseError, match="weight"):
            load_edge_list(write(tmp_path, "a b xx\n"))

    @pytest.mark.parametrize(
        "line, error, message",
        [
            ("a b 1 2", EdgeListParseError, "expected 'src dst \\[weight\\]'"),
            ("a", EdgeListParseError, "expected"),
            ("a a", GraphValidationError, "self-loop at node 'a'"),
            ("a a xx", GraphValidationError, "self-loop at node 'a'"),
            ("a b xx", EdgeListParseError, "bad weight 'xx'"),
            ("a b nan", GraphValidationError, "non-finite weight"),
            ("a b inf", GraphValidationError, "non-finite weight"),
            ("a b -inf", GraphValidationError, "non-finite weight"),
            ("a b -1.5", GraphValidationError, "negative weight -1.5"),
            ("a b 0", GraphValidationError, "zero-weight edge"),
            ("a b -0.0", GraphValidationError, "zero-weight edge"),
        ],
    )
    def test_rejected_line_names_path_and_line(self, tmp_path, line, error, message):
        path = write(tmp_path, f"a b 1\n# comment\n\n{line}\nb c\n")
        with pytest.raises(error, match=message) as info:
            load_edge_list(path)
        assert str(info.value).startswith(f"{path}:4: ")

    def test_bytes_that_are_not_utf8_name_path_and_line(self, tmp_path):
        path = tmp_path / "g.edgelist"
        path.write_bytes("a é 1\n".encode() + b"c d\xff 2\nb c\n")
        with pytest.raises(EdgeListParseError) as info:
            load_edge_list(path)
        assert str(info.value) == f"{path}:2: not UTF-8 text"

    def test_comments_and_blanks_skipped(self, tmp_path):
        g = load_edge_list(write(tmp_path, "# header\n\na b 1.5\n  # indented\n"))
        assert edge_multiset(g) == {(0, 1): 1.5}

    def test_undirected_mode_stores_both_arcs(self, tmp_path):
        g = load_edge_list(write(tmp_path, "a b 2\n"), directed=False)
        assert edge_multiset(g) == {(0, 1): 2.0, (1, 0): 2.0}

    def test_undirected_reciprocal_lines_merge(self, tmp_path):
        g = load_edge_list(write(tmp_path, "a b\nb a\n"), directed=False)
        assert edge_multiset(g) == {(0, 1): 2.0, (1, 0): 2.0}

    def test_reciprocal_float_lines_pinned(self, tmp_path):
        # Undirected lines a b w and b a w' repeated: each merged weight is a
        # sum of rounded floats, so the order of summation shows in its bits.
        rng = np.random.default_rng(9)
        lines = []
        for _ in range(300):
            a, b = rng.choice(12, size=2, replace=False)
            lines.append(f"n{a} n{b} {rng.uniform(0.1, 3.0)!r}\n")
        path = write(tmp_path, "".join(lines))
        assert graph_digest(load_edge_list(path, directed=False)) == (
            "e3f99fe076bcd0cd9e50fb5d9b896f022120563a86b8cccd68700943bacc1d2d")
        assert graph_digest(load_edge_list(path)) == (
            "336c02adc1587a823683f86acc76a2cb094967e7df13c4c6ea4476be930df641")

    def test_empty_file_gives_empty_graph(self, tmp_path):
        g = load_edge_list(write(tmp_path, "# nothing\n"))
        assert g.n_nodes == 0
        assert g.edge_count == 0

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_edge_list(tmp_path / "absent.edgelist")


class TestConstruction:
    def test_out_in_adjacency_describe_same_edges(self):
        g = directed_gnp(25, 0.2, seed=1, max_weight=3)
        rows = [g.nbr_rows[u] for u in range(g.n_nodes)]
        from_out = {
            (u, v): w
            for u, (nbrs, _, w_out) in enumerate(rows)
            for v, w in zip(nbrs, w_out) if w
        }
        from_in = {
            (v, u): w
            for u, (nbrs, w_in, _) in enumerate(rows)
            for v, w in zip(nbrs, w_in) if w
        }
        assert from_out == from_in == edge_multiset(g)

    def test_degree_sums_match_total_weight(self):
        for seed in range(5):
            g = directed_gnp(30, 0.15, seed=seed, max_weight=4)
            assert sum(g.out_strength) == pytest.approx(g.total_weight)
            assert sum(g.in_strength) == pytest.approx(g.total_weight)

    @pytest.mark.parametrize("edges", [
        [(0, 1, 1e308), (1, 0, 1e308)],
        [(0, 1, 1e308), (0, 1, 1e308)],  # merged into one edge of weight inf
    ], ids=["two-edges", "one-merged-edge"])
    def test_overflowing_total_weight_rejected(self, edges):
        # Every weight is finite, their sum is not.  The suite makes a numpy
        # RuntimeWarning an error, so none is issued on the way.
        with pytest.raises(GraphValidationError, match="total edge weight overflows"):
            DirectedGraph(2, edges)

    def test_self_loop_rejected_by_constructor(self):
        with pytest.raises(GraphValidationError, match="self-loop"):
            DirectedGraph(3, [(1, 1, 1.0)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphValidationError, match="out of range"):
            DirectedGraph(2, [(0, 5, 1.0)])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(GraphValidationError, match="unique"):
            DirectedGraph(2, [], labels=("x", "x"))
        with pytest.raises(GraphValidationError, match="unique"):
            DirectedGraph.from_arrays(2, [], [], [], labels=("x", "x"))

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1, 1.0), (2, 2, 1.0), (0, 9, 1.0)], "self-loop at node 'c'"),
            ([(0, 1, 1.0), (0, 9, 1.0), (2, 2, 1.0)], r"edge \(0, 9\) out of range"),
            ([(1, 0, 0.0), (2, 2, 1.0)], r"edge \(1, 0\) has non-positive weight 0.0"),
            ([(1, 0, 2.0), (0, 2, float("nan"))], r"edge \(0, 2\) has non-positive"),
            ([(5, 5, -1.0)], r"edge \(5, 5\) out of range"),
        ],
    )
    def test_invalid_edges_name_the_first_bad_edge(self, edges, message):
        with pytest.raises(GraphValidationError, match=message):
            DirectedGraph(3, edges, labels=("a", "b", "c"))
        src, dst, weight = zip(*edges)
        with pytest.raises(GraphValidationError, match=message):
            DirectedGraph.from_arrays(3, src, dst, weight, labels=("a", "b", "c"))


@st.composite
def float_edge_lists(draw):
    """``(n, edges)``: float weights, some pairs repeated up to 20 times,
    in shuffled order."""
    n = draw(st.integers(2, 25))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]),
                          max_size=40))
    weight = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)
    edges = []
    for s, d in pairs:
        repeats = draw(st.integers(1, 20))
        edges += [(s, d, w) for w in draw(st.lists(weight, min_size=repeats,
                                                   max_size=repeats))]
    return n, draw(st.permutations(edges))


def gnp_edges(n, p, seed):
    g = directed_gnp(n, p, seed=seed, float_weights=True)
    return list(zip(g.edge_src.tolist(), g.edge_dst.tolist(), g.edge_weight.tolist()))


MERGED_ROW_CASES = {
    "reciprocal_unequal": (3, [(0, 1, 1.5), (1, 0, 0.25), (1, 2, 2.0)]),
    "summed_duplicates": (3, [(0, 1, 0.1), (2, 1, 1.0), (0, 1, 0.2), (1, 0, 3.0),
                              (0, 1, 0.3)]),
    "float_weights": (30, gnp_edges(30, 0.2, seed=3)),
    "isolated_nodes": (6, [(0, 4, 0.3), (4, 0, 0.7), (2, 4, 1.1)]),
}


class TestArrayBuilderMatchesReference:
    @pytest.mark.parametrize("name", sorted(MERGED_ROW_CASES))
    def test_merged_rows(self, name):
        n, edges = MERGED_ROW_CASES[name]
        assert_graph_equals_reference(DirectedGraph(n, edges), reference_graph(n, edges))

    def test_merged_row_by_hand(self):
        n, edges = MERGED_ROW_CASES["reciprocal_unequal"]
        g = DirectedGraph(n, edges)
        assert g.nbr_rows[1] == ([0, 2], [1.5, 0.0], [0.25, 2.0])
        n, edges = MERGED_ROW_CASES["isolated_nodes"]
        g = DirectedGraph(n, edges)
        assert [g.nbr_rows[u] for u in (1, 3, 5)] == [([], [], [])] * 3
        assert g.nbr_rows[4] == ([0, 2], [0.3, 1.1], [0.7, 0.0])

    @settings(max_examples=200, deadline=None)
    @given(float_edge_lists())
    def test_constructor_and_columns(self, case):
        n, edges = case
        ref = reference_graph(n, edges)
        assert_graph_equals_reference(DirectedGraph(n, edges), ref)
        src, dst, weight = (list(c) for c in zip(*edges)) if edges else ([], [], [])
        assert_graph_equals_reference(
            DirectedGraph.from_arrays(n, src, dst, weight), ref
        )

    @pytest.mark.parametrize("n", [1 << 16, 70000])
    def test_wide_node_ids(self, n):
        # Past 65,536 nodes a (src, dst) key needs a third 16-bit radix pass.
        rng = np.random.default_rng(n)
        ends = rng.integers(0, n, size=(3000, 2))
        ends[:40] = rng.choice([0, 65534, 65535, n - 1], size=(40, 2))
        ends = ends[ends[:, 0] != ends[:, 1]]
        ends = np.concatenate([ends, ends[:500], ends[::-7]])  # duplicates
        weight = rng.uniform(0.5, 2.0, size=len(ends))
        edges = list(zip(ends[:, 0].tolist(), ends[:, 1].tolist(), weight.tolist()))
        g = DirectedGraph.from_arrays(n, ends[:, 0], ends[:, 1], weight)
        assert_graph_equals_reference(g, reference_graph(n, edges))

    @settings(max_examples=100, deadline=None)
    @given(float_edge_lists())
    def test_symmetrize(self, case):
        n, edges = case
        g = DirectedGraph(n, edges)
        assert_graph_equals_reference(
            symmetrize(g), reference_graph(n, reference_symmetrized_edges(g))
        )

    @settings(max_examples=100, deadline=None)
    @given(float_edge_lists(), st.data())
    def test_subgraph_complement(self, case, data):
        n, edges = case
        g = DirectedGraph(n, edges)
        removed = data.draw(st.sets(st.integers(0, n - 1)))
        sub, kept = subgraph_complement(g, removed)
        ref_kept, ref_edges = reference_complement(g, removed)
        assert kept == ref_kept
        assert sub.n_nodes == len(ref_kept)
        assert_graph_equals_reference(sub, reference_graph(len(ref_kept), ref_edges))


class TestSortedColumns:
    """Columns already in (src, dst) order with no duplicates are taken as
    they come, without the sort and the duplicate sums."""

    @settings(max_examples=100, deadline=None)
    @given(float_edge_lists(), st.randoms(use_true_random=False))
    def test_sorted_and_shuffled_columns_build_the_same_graph(self, case, random):
        n, edges = case
        g = DirectedGraph(n, edges)  # duplicates summed
        columns = (g.edge_src, g.edge_dst, g.edge_weight)
        order = list(range(g.edge_count))
        random.shuffle(order)
        as_sorted = DirectedGraph.from_arrays(n, *columns)
        shuffled = DirectedGraph.from_arrays(n, *(c[order] for c in columns))
        for h in (as_sorted, shuffled):
            assert graph_digest(h) == graph_digest(g)
            assert ([h.nbr_rows[u] for u in range(n)]
                    == [g.nbr_rows[u] for u in range(n)])
        built = (as_sorted.edge_src, as_sorted.edge_dst, as_sorted.edge_weight)
        assert not any(np.shares_memory(a, b) for a in built for b in columns)

    def test_sorted_builds_skip_the_sort(self, monkeypatch):
        g = directed_gnp(40, 0.2, seed=5, float_weights=True)

        def fail(*args):
            raise AssertionError("sorted columns were sorted again")

        monkeypatch.setattr(graph_module, "_sort_and_merge", fail)
        DirectedGraph.from_arrays(g.n_nodes, g.edge_src, g.edge_dst, g.edge_weight)
        randomize(g, "same_edge_count", 0)
        subgraph_complement(g, [3, 17])
        with pytest.raises(AssertionError, match="sorted again"):
            DirectedGraph(2, [(1, 0, 1.0), (0, 1, 1.0)])

    def test_sorted_columns_are_validated_in_input_order(self):
        with pytest.raises(GraphValidationError, match=r"edge \(0, 1\) has non-positive"):
            DirectedGraph.from_arrays(3, [0, 1], [1, 2], [-1.0, 0.0])


class TestSymmetrize:
    def test_single_edge(self):
        g = symmetrize(DirectedGraph(2, [(0, 1, 1.0)]))
        assert edge_multiset(g) == {(0, 1): 1.0, (1, 0): 1.0}

    def test_reciprocal_weights_sum(self):
        g = symmetrize(DirectedGraph(2, [(0, 1, 1.0), (1, 0, 2.0)]))
        assert edge_multiset(g) == {(0, 1): 3.0, (1, 0): 3.0}

    def test_empty_graph(self):
        g = symmetrize(DirectedGraph(0, []))
        assert g.n_nodes == 0
        assert g.edge_count == 0

    def test_idempotent_up_to_weight_doubling(self):
        for seed in range(4):
            g = directed_gnp(20, 0.2, seed=seed, max_weight=3)
            once = symmetrize(g)
            twice = symmetrize(once)
            m1 = edge_multiset(once)
            m2 = edge_multiset(twice)
            assert set(m1) == set(m2)
            for key, w in m1.items():
                assert m2[key] == pytest.approx(2.0 * w)

    def test_preserves_labels_and_node_count(self):
        g = DirectedGraph(4, [(0, 1, 1.0)], labels=("a", "b", "c", "d"))
        s = symmetrize(g)
        assert s.labels == g.labels
        assert s.n_nodes == 4


class TestSubgraphComplement:
    def test_remove_nothing_is_isomorphic_copy(self):
        g = directed_gnp(12, 0.3, seed=2)
        sub, kept = subgraph_complement(g, set())
        assert kept == list(range(12))
        assert edge_multiset(sub) == edge_multiset(g)

    def test_triangle_minus_one_node(self):
        g = DirectedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        sub, kept = subgraph_complement(g, {2})
        assert kept == [0, 1]
        assert sub.n_nodes == 2
        assert edge_multiset(sub) == {(0, 1): 1.0}

    def test_remove_all_nodes_is_valid_empty_graph(self):
        g = DirectedGraph(3, [(0, 1, 1.0)])
        sub, kept = subgraph_complement(g, {0, 1, 2})
        assert sub.n_nodes == 0
        assert kept == []

    def test_out_of_range_rejected(self):
        g = DirectedGraph(3, [(0, 1, 1.0)])
        with pytest.raises(GraphValidationError, match="out of range"):
            subgraph_complement(g, {7})

    def test_index_map_and_labels(self):
        g = DirectedGraph(
            4, [(0, 1, 1.0), (1, 3, 2.0), (3, 0, 1.0)], labels=("a", "b", "c", "d")
        )
        sub, kept = subgraph_complement(g, {2})
        assert kept == [0, 1, 3]
        assert sub.labels == ("a", "b", "d")
        assert edge_multiset(sub) == {(0, 1): 1.0, (1, 2): 2.0, (2, 0): 1.0}


ROW_MAPS = ("adj_nbrs", "nbr_rows")


def made_rows(g) -> dict:
    """Row map name -> the nodes whose rows have been made."""
    return {name: set(getattr(g, name)) for name in ROW_MAPS}


def all_rows(g) -> dict:
    return {name: [getattr(g, name)[u] for u in range(g.n_nodes)]
            for name in ROW_MAPS}


def sparse_graph(n, edges_per_node, seed):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=n * edges_per_node)
    dst = rng.integers(0, n, size=n * edges_per_node)
    keep = src != dst
    return DirectedGraph.from_arrays(n, src[keep], dst[keep],
                                     rng.uniform(0.5, 2.0, size=keep.sum()))


class TestRowsOnFirstRead:
    def test_randomize_reads_no_row(self):
        g = directed_gnp(200, 0.05, seed=0, float_weights=True)
        for model in ("same_edge_count", "degree_preserving"):
            null = randomize(g, model, 3)
            assert made_rows(null) == dict.fromkeys(ROW_MAPS, set())
        assert made_rows(g) == dict.fromkeys(ROW_MAPS, set())

    def test_chain_makes_rows_only_for_nodes_it_moves_or_reports(self):
        g = sparse_graph(2000, 3, seed=4)
        init = int(g.edge_src[0])
        moved = set()

        def observer(event, state):
            if event.accepted:
                moved.add(event.node)

        result = run_chain(
            g, CriterionParams(rho=0.8, n=5.0),
            ChainConfig(c=0.05, seed=1, max_steps=20000, patience=20000,
                        init_members=(init,)),
            observer=observer,
        )
        assert result.steps_run == 20000 and len(moved) > 1
        # The chain walks the rows of the nodes it moves, and counts the
        # initial and the reported sets from theirs; adj_nbrs is not read.
        walked, counted = {init} | moved, {init} | result.best_state.members
        assert made_rows(g) == {"adj_nbrs": set(), "nbr_rows": walked | counted}
        assert len(walked | counted) < g.n_nodes // 10

    def test_rows_share_node_ints(self):
        g = directed_gnp(30, 0.2, seed=2, float_weights=True)
        node = {}
        weight = {}  # (u, v) -> the weight in u's row
        for u in range(g.n_nodes):
            nbrs, _, w_out = g.nbr_rows[u]
            assert nbrs is g.adj_nbrs[u]
            for v, b in zip(nbrs, w_out):
                assert node.setdefault(v, v) is v
                if b:
                    weight[(u, v)] = b
        assert len(weight) == g.edge_count
        seen_in = 0
        for v in range(g.n_nodes):
            nbrs, w_in, _ = g.nbr_rows[v]
            for u, a in zip(nbrs, w_in):
                if a:
                    assert weight[(u, v)] == a
                    seen_in += 1
        assert seen_in == g.edge_count

    @pytest.mark.parametrize("u", [-1, 10])
    def test_node_out_of_range_is_rejected(self, u):
        g = directed_gnp(10, 0.3, seed=0)
        for name in ROW_MAPS:
            with pytest.raises(IndexError):
                getattr(g, name)[u]
        assert made_rows(g) == dict.fromkeys(ROW_MAPS, set())

    def test_dropped_graph_leaves_no_cyclic_garbage(self):
        gc.collect()
        gc.disable()
        try:
            g = directed_gnp(40, 0.1, seed=5, float_weights=True)
            all_rows(g)
            pickle.loads(pickle.dumps(g))
            del g
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("read_first", [(), (0, 3, 7)])
    def test_pickle_round_trip_keeps_every_row(self, read_first):
        base = directed_gnp(12, 0.3, seed=6, float_weights=True)
        g = DirectedGraph.from_arrays(
            12, base.edge_src, base.edge_dst, base.edge_weight,
            labels=[f"n{u}" for u in range(12)], meta={"kind": "test"},
        )
        for u in read_first:
            for name in ROW_MAPS:
                getattr(g, name)[u]
        copy = pickle.loads(pickle.dumps(g))
        assert made_rows(copy) == dict.fromkeys(ROW_MAPS, set())
        assert all_rows(copy) == all_rows(g)
        for name in ("edge_src", "edge_dst", "edge_weight"):
            assert np.array_equal(getattr(copy, name), getattr(g, name))
        assert (copy.n_nodes, copy.edge_count, copy.total_weight, copy.labels,
                copy.meta, copy.out_strength, copy.in_strength) == (
            g.n_nodes, g.edge_count, g.total_weight, g.labels, g.meta,
            g.out_strength, g.in_strength)
        assert copy.id_of("n5") == 5


class TestRoundTrip:
    def test_save_load_preserves_labeled_edge_multiset(self, tmp_path):
        for seed in range(4):
            g = directed_gnp(15, 0.25, seed=seed, max_weight=3)
            path = tmp_path / f"g{seed}.edgelist"
            save_edge_list(g, path)
            g2 = load_edge_list(path)
            original = {(str(s), str(d)): w for s, d, w in labeled_edges(g)}
            reloaded = {(s, d): w for s, d, w in labeled_edges(g2)}
            assert original == reloaded

    @pytest.mark.parametrize("labels, bad", [
        (("#a", "b c", "d"), "#a"),  # read back as a comment
        (("a", "b c", "d"), "b c"),  # read back as two tokens
        (("a", "", "d"), ""),
        ((1, "1", "d"), "1"),  # two labels with the same text
    ])
    def test_labels_that_do_not_load_back_rejected(self, tmp_path, labels, bad):
        g = DirectedGraph(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 1.0)],
                          labels=labels)
        path = tmp_path / "g.edgelist"
        with pytest.raises(GraphValidationError,
                           match=f"label {re.escape(repr(bad))} does not load"):
            save_edge_list(g, path)
        assert not path.exists()

    def test_float_weights_round_trip_exactly(self, tmp_path):
        g = DirectedGraph(3, [(0, 1, 0.1), (1, 2, 2.5)], labels=("x", "y", "z"))
        path = tmp_path / "w.edgelist"
        save_edge_list(g, path)
        g2 = load_edge_list(path)
        assert {(s, d): w for s, d, w in labeled_edges(g2)} == {
            ("x", "y"): 0.1,
            ("y", "z"): 2.5,
        }

    def test_saved_bytes_pinned(self, tmp_path):
        # Float weights, some integral (written as ints), on labels out of
        # id order.
        base = directed_gnp(60, 0.12, seed=11, float_weights=True)
        weight = base.edge_weight.copy()
        weight[::5] = 3.0
        weight[1::9] = 1e20
        labels = [f"v{i}" for i in np.random.default_rng(4).permutation(60)]
        g = DirectedGraph.from_arrays(60, base.edge_src, base.edge_dst, weight,
                                      labels=labels)
        path = tmp_path / "g.edgelist"
        save_edge_list(g, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "3d6b65ae292dc2d07a2f849c7fd83c6bcad2b34f5ec3dea623a9c51712a3659b")

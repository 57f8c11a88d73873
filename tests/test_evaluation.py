import pytest

from dcex.evaluation import (
    PartitionLabels,
    adjusted_jaccard,
    best_pair_adjusted_jaccard,
    jaccard,
    load_membership,
    save_membership,
)


class TestJaccard:
    def test_identical_nonempty(self):
        assert jaccard({1, 2, 3}, {1, 2, 3}) == 1.0

    def test_disjoint(self):
        assert jaccard({1, 2}, {3, 4}) == 0.0

    def test_hand_value(self):
        assert jaccard({1, 2, 3}, {2, 3, 4}) == pytest.approx(0.5)

    def test_both_empty_convention(self):
        assert jaccard(set(), set()) == 1.0

    def test_one_empty(self):
        assert jaccard({1}, set()) == 0.0

    def test_symmetry(self):
        a, b = {1, 2, 5}, {2, 5, 9, 11}
        assert jaccard(a, b) == jaccard(b, a)


class TestAdjustedJaccard:
    TRUTH = ({1, 2, 3, 4}, {5, 6, 7, 8})

    def test_exact_match(self):
        assert adjusted_jaccard(self.TRUTH, ({1, 2, 3, 4}, {5, 6, 7, 8})) == 1.0

    def test_swapped_labels_still_perfect(self):
        assert adjusted_jaccard(self.TRUTH, ({5, 6, 7, 8}, {1, 2, 3, 4})) == 1.0

    def test_missing_second_community(self):
        assert adjusted_jaccard(self.TRUTH, ({1, 2, 3, 4}, set())) == pytest.approx(0.5)
        assert adjusted_jaccard(self.TRUTH, ({1, 2, 3, 4}, None)) == pytest.approx(0.5)

    def test_partial_overlap(self):
        val = adjusted_jaccard(self.TRUTH, ({1, 2, 3}, {5, 6, 7, 8, 9}))
        assert val == pytest.approx(0.5 * (3 / 4 + 4 / 5))

    def test_range_and_symmetry_under_found_swap(self):
        found = ({1, 2, 9}, {5, 6})
        v1 = adjusted_jaccard(self.TRUTH, found)
        v2 = adjusted_jaccard(self.TRUTH, (found[1], found[0]))
        assert v1 == v2
        assert 0.0 <= v1 <= 1.0

    def test_perfect_iff_sets_equal(self):
        assert adjusted_jaccard(self.TRUTH, ({1, 2, 3, 4, 5}, {6, 7, 8})) < 1.0

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            adjusted_jaccard((set(), {1}), ({1}, {2}))


class TestBestPair:
    TRUTH = ({1, 2, 3}, {4, 5, 6})

    def test_picks_best_pair_of_three(self):
        candidates = [{1, 2, 3}, {7, 8, 9}, {4, 5, 6}]
        score, pair = best_pair_adjusted_jaccard(self.TRUTH, candidates)
        assert score == 1.0
        assert pair == (0, 2)

    def test_single_candidate(self):
        score, pair = best_pair_adjusted_jaccard(self.TRUTH, [{1, 2, 3}])
        assert score == pytest.approx(0.5)
        assert pair == (0, None)

    def test_no_candidates(self):
        score, pair = best_pair_adjusted_jaccard(self.TRUTH, [])
        assert score == 0.0
        assert pair == (None, None)


class TestPartitionLabels:
    def test_parts_and_ordering(self):
        labels = PartitionLabels({0: 2, 1: 0, 2: 0, 3: 2, 4: 1})
        parts = labels.parts()
        assert parts == {0: {1, 2}, 1: {4}, 2: {0, 3}}
        assert labels.as_sets() == [{1, 2}, {4}, {0, 3}]

    def test_unassigned_nodes_permitted(self):
        labels = PartitionLabels({0: 0, 2: 1})
        assert labels.as_sets() == [{0}, {2}]


class TestMembershipIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "members.txt"
        save_membership({"a": 0, "b": 1, "c": 0}, path)
        loaded = load_membership(path)
        assert loaded == {"a": "0", "b": "1", "c": "0"}

    def test_sorted_deterministic_output(self, tmp_path):
        path = tmp_path / "members.txt"
        save_membership({"z": 1, "a": 2}, path)
        assert path.read_text() == "a 2\nz 1\n"

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a 1 extra\n")
        with pytest.raises(ValueError, match=":1:"):
            load_membership(path)

    @pytest.mark.parametrize("second", ["a 2", "a 1"])
    def test_duplicate_label_rejected(self, tmp_path, second):
        path = tmp_path / "dup.txt"
        path.write_text(f"a 1\n# comment\nb 1\n{second}\n")
        with pytest.raises(ValueError, match=r"dup\.txt:4: label 'a' listed twice"):
            load_membership(path)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("# comment\na 1\n\n")
        assert load_membership(path) == {"a": "1"}

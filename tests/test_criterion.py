import numpy as np
import pytest

from dcex import DirectedGraph
from dcex.criterion import (
    CommunityState,
    CriterionDomainError,
    CriterionParams,
    MoveRejected,
    is_admissible_size,
    max_admissible_size,
    move_delta,
    q_coefficient,
    score,
    value_function,
)

from helpers import (
    brute_force_optimum,
    dense_adj,
    directed_gnp,
    reference_counts,
    reference_score,
)


def cycle_with_boundary(boundary_edges):
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)] + boundary_edges
    return DirectedGraph(6, edges)


class TestHandValues:
    """Hand-derived evaluations, cross-checked against the dense reference."""

    def test_consistent_boundary(self):
        g = cycle_with_boundary([(0, 3, 1.0), (1, 4, 1.0)])
        params = CriterionParams(rho=1.0, n=1.0)
        s = score(g, {0, 1, 2}, params)
        assert s.value == pytest.approx(1.0)
        assert s.q_d == pytest.approx(1.0)
        assert s.effective_size_term == pytest.approx(3.0)
        assert reference_score(dense_adj(g), {0, 1, 2}, 1.0, 1.0) == pytest.approx(1.0)

    def test_balanced_boundary(self):
        g = cycle_with_boundary([(0, 3, 1.0), (4, 1, 1.0)])
        params = CriterionParams(rho=1.0, n=1.0)
        s = score(g, {0, 1, 2}, params)
        assert s.value == pytest.approx(-3.0)
        assert s.q_d == pytest.approx(3.0)
        assert reference_score(dense_adj(g), {0, 1, 2}, 1.0, 1.0) == pytest.approx(-3.0)

    def test_matches_reference_on_random_states(self):
        rng = np.random.default_rng(5)
        for seed in range(8):
            g = directed_gnp(16, 0.25, seed=seed, max_weight=3)
            adj = dense_adj(g)
            for _ in range(25):
                size = int(rng.integers(1, 6))
                members = set(rng.choice(16, size=size, replace=False).tolist())
                for n_exp in (0.0, 1.0, 5.0):
                    params = CriterionParams(rho=1.0, n=n_exp)
                    got = score(g, members, params).value
                    want = reference_score(adj, members, 1.0, n_exp)
                    # rel tolerance: the reference uses the factored form, so
                    # the huge-penalty regime rounds differently.
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-9)


class TestDirectionCoefficient:
    def test_fully_consistent_boundary_means_q_equals_one(self):
        # All boundary edges leave S: no attenuation of the penalty base.
        g = cycle_with_boundary([(0, 3, 1.0), (1, 4, 1.0), (2, 5, 1.0)])
        s = score(g, {0, 1, 2}, CriterionParams(rho=1.0, n=5.0))
        assert s.q_d == 1.0

    def test_q_bounds_and_equality_conditions(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            b_in = float(rng.integers(0, 20))
            b_out = float(rng.integers(0, 20))
            q = q_coefficient(b_in, b_out)
            b = b_in + b_out
            assert 1.0 <= q <= b + 1.0
            assert (q == 1.0) == (min(b_in, b_out) == 0.0)
            assert (q == b + 1.0) == (b_in == b_out)

    def test_w_monotone_in_boundary_imbalance(self):
        # Fixed (|S|, O_S, B_S): W is maximal at a one-sided boundary and
        # minimal at a balanced one.
        params = CriterionParams(rho=0.9, n=3.0)
        b_total = 12.0
        values = []
        value = value_function(30, params)
        for b_in in np.linspace(0.0, 6.0, 13):  # up to the balanced point
            values.append(value(10.0, b_in, b_total - b_in, 4))
        assert values == sorted(values, reverse=True)
        one_sided = value(10.0, 0.0, b_total, 4)
        balanced = value(10.0, b_total / 2, b_total / 2, 4)
        assert one_sided > balanced

    def test_undirected_mode_and_n_zero_agree_with_plain_form(self):
        rng = np.random.default_rng(3)
        g = directed_gnp(14, 0.3, seed=9)
        for _ in range(40):
            size = int(rng.integers(1, 6))
            members = set(rng.choice(14, size=size, replace=False).tolist())
            undirected = score(g, members, CriterionParams(rho=1.0, n=7.0, mode="undirected"))
            n_zero = score(g, members, CriterionParams(rho=1.0, n=0.0))
            st = CommunityState.from_members(g, members)
            eff = 1.0 * 14 - size
            plain = eff * st.o_s / size - (st.b_in + st.b_out)
            assert undirected.value == pytest.approx(plain, abs=1e-12)
            assert n_zero.value == pytest.approx(plain, abs=1e-12)
            assert undirected.q_d == 1.0

    def test_plain_form_argmax_invariant_under_weight_scaling(self):
        # Doubling all weights scales the direction-blind criterion linearly,
        # so the argmax cannot move.  (The directed form loses this property
        # because of the +1 terms inside q; not asserted.)
        params = CriterionParams(rho=1.0, n=0.0)
        for seed in range(4):
            g = directed_gnp(9, 0.35, seed=100 + seed)
            doubled = DirectedGraph(
                g.n_nodes,
                [(int(s), int(d), 2.0 * float(w)) for s, d, w in
                 zip(g.edge_src, g.edge_dst, g.edge_weight)],
            )
            m1, s1 = brute_force_optimum(g, params)
            m2, s2 = brute_force_optimum(doubled, params)
            assert m1 == m2
            assert s2.value == pytest.approx(2.0 * s1.value, abs=1e-9)


class TestAdmissibility:
    def test_max_admissible_size_values(self):
        assert max_admissible_size(10, 1.0) == 4
        assert max_admissible_size(12, 1.0) == 5
        assert max_admissible_size(50, 0.8) == 19  # 2*20/50 == 0.8 is on the bound
        assert max_admissible_size(3, 1.0) == 1
        assert max_admissible_size(2, 1.0) == 0
        assert max_admissible_size(4, 0.5) == 0

    def test_is_admissible_strict_at_boundary(self):
        assert is_admissible_size(19, 50, 0.8)
        assert not is_admissible_size(20, 50, 0.8)
        assert not is_admissible_size(0, 50, 0.8)

    def test_scorable_extends_to_rho_n(self):
        # The criterion value is finite up to |S| = rho*N.
        params = CriterionParams(rho=1.0)
        g = DirectedGraph(6, [])
        score(g, range(3), params)
        score(g, range(6), params)
        seven = CommunityState(set(), bytearray(6), 7, 0.0, 0.0, 0.0)
        with pytest.raises(CriterionDomainError):
            score(g, seven, params)
        g = DirectedGraph(50, [])
        score(g, range(40), CriterionParams(rho=0.8))
        with pytest.raises(CriterionDomainError):
            score(g, range(41), CriterionParams(rho=0.8))

    def test_score_on_boundary_state(self):
        # 2|S|/N == rho exactly: still evaluable (chains just never go there).
        g = cycle_with_boundary([(0, 3, 1.0)])
        s = score(g, {0, 1, 2}, CriterionParams(rho=1.0, n=1.0))
        assert s.value == pytest.approx(3.0 * 3.0 / 3.0 - 1.0)

    def test_score_domain_errors(self):
        g = cycle_with_boundary([(0, 3, 1.0)])
        params = CriterionParams(rho=1.0, n=1.0)
        with pytest.raises(CriterionDomainError):
            score(g, set(), params)
        with pytest.raises(CriterionDomainError):
            score(g, {0, 1, 2, 3, 4, 5}, CriterionParams(rho=0.5, n=1.0))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            CriterionParams(rho=0.0)
        with pytest.raises(ValueError):
            CriterionParams(rho=1.2)
        with pytest.raises(ValueError):
            CriterionParams(n=-1.0)
        with pytest.raises(ValueError):
            CriterionParams(mode="sideways")

    def test_nan_exponent_rejected(self):
        with pytest.raises(ValueError, match="penalty exponent"):
            CriterionParams(n=float("nan"))
        # An infinite n makes q^n infinite for every q > 1.
        with pytest.raises(ValueError, match="penalty exponent n must be finite"):
            CriterionParams(n=float("inf"))


def random_move_sequence(g, params, n_moves, seed):
    """Yield (state_before, node, direction) for a random admissible walk."""
    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, g.n_nodes))
    state = CommunityState.from_members(g, [start])
    for _ in range(n_moves):
        u = int(rng.integers(0, g.n_nodes))
        direction = "remove" if state.in_set[u] else "add"
        if direction == "remove" and state.size == 1:
            continue
        if direction == "add" and not is_admissible_size(
            state.size + 1, g.n_nodes, params.rho
        ):
            continue
        yield state, u, direction


class TestMoveDelta:
    def test_matches_full_recomputation_integer_weights(self):
        params = CriterionParams(rho=0.9, n=5.0)
        total = 0
        for seed in range(6):
            g = directed_gnp(10 + 8 * seed, 0.25, seed=seed, max_weight=3)
            value = value_function(g.n_nodes, params)
            for state, u, direction in random_move_sequence(g, params, 600, seed):
                w_before = value(*state.counts())
                delta, new_counts = move_delta(g, state, u, direction, params)
                state.apply_move(u, direction, new_counts)
                fresh = CommunityState.from_members(g, state.members)
                assert fresh.counts() == state.counts()
                w_after = value(*fresh.counts())
                assert delta == pytest.approx(w_after - w_before, abs=1e-9)
                total += 1
        assert total > 2000

    def test_matches_full_recomputation_real_weights(self):
        params = CriterionParams(rho=1.0, n=2.0)
        rng = np.random.default_rng(77)
        n = 30
        mask = rng.random((n, n)) < 0.2
        np.fill_diagonal(mask, False)
        src, dst = np.nonzero(mask)
        edges = [
            (int(a), int(b), float(rng.uniform(0.1, 2.0)))
            for a, b in zip(src, dst)
        ]
        g = DirectedGraph(n, edges)
        value = value_function(n, params)
        for state, u, direction in random_move_sequence(g, params, 3000, 7):
            w_before = value(*state.counts())
            delta, new_counts = move_delta(g, state, u, direction, params)
            state.apply_move(u, direction, new_counts)
            fresh = CommunityState.from_members(g, state.members)
            w_after = value(*fresh.counts())
            # real weights drift by float accumulation; relative bound
            assert delta == pytest.approx(w_after - w_before, rel=1e-9, abs=1e-9)

    def test_add_then_remove_restores_counts_exactly(self):
        params = CriterionParams(rho=1.0, n=5.0)
        for seed in range(4):
            g = directed_gnp(20, 0.3, seed=40 + seed, max_weight=2)
            rng = np.random.default_rng(seed)
            members = set(rng.choice(20, size=4, replace=False).tolist())
            state = CommunityState.from_members(g, members)
            before = state.counts()
            for u in range(20):
                if state.in_set[u]:
                    continue
                delta_add, counts_add = move_delta(g, state, u, "add", params)
                state.apply_move(u, "add", counts_add)
                delta_rem, counts_rem = move_delta(g, state, u, "remove", params)
                state.apply_move(u, "remove", counts_rem)
                assert state.counts() == before  # bitwise, zero tolerance
                assert delta_add + delta_rem == 0.0

    def test_counts_agree_with_dense_reference(self):
        g = directed_gnp(18, 0.3, seed=5, max_weight=3)
        adj = dense_adj(g)
        rng = np.random.default_rng(2)
        for _ in range(30):
            members = set(rng.choice(18, size=int(rng.integers(1, 8)),
                                     replace=False).tolist())
            st = CommunityState.from_members(g, members)
            o_s, b_in, b_out = reference_counts(adj, members)
            assert st.o_s == pytest.approx(o_s)
            assert st.b_in == pytest.approx(b_in)
            assert st.b_out == pytest.approx(b_out)

    def test_rejection_and_precondition_errors(self):
        g = directed_gnp(10, 0.4, seed=1)
        params = CriterionParams(rho=1.0, n=1.0)
        state = CommunityState.from_members(g, [0])
        with pytest.raises(MoveRejected):
            move_delta(g, state, 0, "remove", params)
        with pytest.raises(ValueError, match="already a member"):
            move_delta(g, state, 0, "add", params)
        with pytest.raises(ValueError, match="not a member"):
            move_delta(g, state, 3, "remove", params)
        full = CommunityState.from_members(g, [0, 1, 2, 3])  # max admissible for N=10
        with pytest.raises(MoveRejected):
            move_delta(g, full, 5, "add", params)
        with pytest.raises(ValueError, match="direction"):
            move_delta(g, state, 1, "sideways", params)


class TestScoreFromCounts:
    def test_penalty_exact_at_q_one(self):
        # q == 1 must not perturb the penalty term for any exponent.
        for n_exp in (0.0, 1.0, 2.5, 8.0):
            params = CriterionParams(rho=1.0, n=n_exp)
            v = value_function(10, params)(4.0, 0.0, 3.0, 2)
            assert v == (10.0 - 2) * 4.0 / 2 - 3.0

    def test_score_object_fields(self):
        state = CommunityState({0, 1, 2}, bytearray(20), 3, 6.0, 1.0, 3.0)
        s = score(DirectedGraph(20, []), state, CriterionParams(rho=0.5, n=2.0))
        assert s.effective_size_term == pytest.approx(0.5 * 20 - 3)
        assert s.q_d == pytest.approx(5.0 / 3.0)
        assert s.value == pytest.approx(7.0 * 2.0 - (5.0 / 3.0) ** 2 * 4.0)

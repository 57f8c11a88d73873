import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dcex import (
    BenchmarkSpec,
    CommunityState,
    DirectedGraph,
    MoveRejected,
    generate_benchmark,
    load_edge_list,
    move_delta,
    randomize,
    run_chain,
    score,
    symmetrize,
)
from dcex import sampler
from dcex.criterion import (
    CriterionParams,
    counts_after_move,
    is_admissible_size,
    max_admissible_size,
    value_function,
)
from dcex.sampler import ChainConfig, ChainConfigError, write_trace_csv

from helpers import (
    MemoSpy,
    PoolSpy,
    ScanSpy,
    VisitCounter,
    admissible_subsets,
    brute_force_optimum,
    directed_gnp,
    exact_chain_law,
    two_cliques_graph,
    undo_slot,
)


PARAMS_N1 = CriterionParams(rho=1.0, n=1.0)

# Ids and cases named "undirected" run UCE's criterion, W at n = 0 on a
# symmetrized graph: they keep the names they had when that was a criterion
# mode of its own.


def mini_community_graph(extra, boundary=((0, 3), (1, 4))):
    """Bidirectional triangle 0-1-2 with outbound boundary + background cycle."""
    edges = []
    for i, j in [(0, 1), (1, 2), (2, 0)]:
        edges += [(i, j, 1.0), (j, i, 1.0)]
    for i, j in boundary:
        edges.append((i, j, 1.0))
    edges += [(3, 4, 1.0), (4, 5, 1.0), (5, 6, 1.0), (6, 7, 1.0), (7, 8, 1.0),
              (8, 3, 1.0)]
    edges += extra
    return DirectedGraph(9, edges)


def run_observed(g, params, cfg):
    """Run a chain and return its result with every step's event."""
    events = []
    result = run_chain(g, params, cfg, observer=lambda e, state: events.append(e))
    return result, events


def assert_same_result(a, b):
    assert sorted(a.best_state.members) == sorted(b.best_state.members)
    assert a.best_state.counts() == b.best_state.counts()
    assert a.best_score == b.best_score
    assert a.steps_run == b.steps_run
    assert a.accepted == b.accepted
    assert a.acceptance_rate == b.acceptance_rate
    assert a.stopped == b.stopped


class TestDeterminism:
    def test_same_seed_same_result(self):
        g = directed_gnp(20, 0.2, seed=8)
        cfg = ChainConfig(c=0.1, seed=99, max_steps=5000, patience=5000)
        r1, events1 = run_observed(g, PARAMS_N1, cfg)
        r2, events2 = run_observed(g, PARAMS_N1, cfg)
        assert_same_result(r1, r2)
        assert events1 == events2

    def test_observer_does_not_change_the_chain(self):
        g = directed_gnp(30, 0.15, seed=9, float_weights=True)
        cfg = ChainConfig(c=0.2, seed=4, max_steps=5000, patience=2000)
        observed, _ = run_observed(g, PARAMS_N1, cfg)
        assert_same_result(run_chain(g, PARAMS_N1, cfg), observed)


class TestOracleAgreement:
    def test_two_cliques_finds_global_optimum(self):
        # Best admissible subset is a 4-subset of a clique holding a bridge
        # endpoint: the one-sided bridge edge tilts the boundary balance.
        g = two_cliques_graph()
        bf_members, bf_score = brute_force_optimum(g, PARAMS_N1)
        assert bf_members == (0, 1, 2, 3)
        assert bf_score.value == pytest.approx(-27.0)
        hits = 0
        for seed in range(20):
            r = run_chain(
                g,
                PARAMS_N1,
                ChainConfig(c=0.1, seed=seed, max_steps=50_000, patience=50_000),
            )
            if abs(r.best_score.value - bf_score.value) < 1e-9:
                hits += 1
        assert hits >= 18

    def test_small_random_graphs_match_brute_force(self):
        params = CriterionParams(rho=1.0, n=5.0)
        hits = 0
        for seed in range(10):
            g = directed_gnp(10, 0.3, seed=500 + seed)
            _, bf_score = brute_force_optimum(g, params)
            r = run_chain(
                g,
                params,
                # The n=5 penalty carves cliffs of ~1e6 into structureless
                # graphs, so only a near-free walk explores them all.
                ChainConfig(c=1e-5, seed=seed, max_steps=50_000, patience=50_000),
            )
            if abs(r.best_score.value - bf_score.value) < 1e-9:
                hits += 1
        assert hits >= 9


class TestAcceptanceRule:
    def test_decisions_replay_from_records(self):
        g = directed_gnp(15, 0.25, seed=3)
        cfg = ChainConfig(c=0.3, seed=5, max_steps=20_000, patience=20_000)
        _, events = run_observed(g, PARAMS_N1, cfg)
        checked = 0
        for rec in events:
            if rec.delta is None:
                assert not rec.accepted  # automatic rejection
                continue
            assert rec.log_ratio == pytest.approx(0.3 * rec.delta)
            if rec.log_ratio >= 0:
                assert rec.accepted
                assert rec.uniform is None
            else:
                assert rec.uniform is not None
                assert rec.accepted == (rec.uniform < math.exp(rec.log_ratio))
            checked += 1
        assert checked > 1000

    def test_large_c_accepts_no_downhill_move(self):
        g = directed_gnp(15, 0.3, seed=4)
        cfg = ChainConfig(c=1000.0, seed=6, max_steps=10_000, patience=10_000)
        r, events = run_observed(g, PARAMS_N1, cfg)
        assert r.steps_run == 10_000
        for rec in events:
            if rec.accepted:
                assert rec.delta is not None and rec.delta >= 0.0

    def test_acceptance_rate_bounds(self):
        g = directed_gnp(12, 0.3, seed=9)
        r = run_chain(g, PARAMS_N1, ChainConfig(c=0.2, seed=1, max_steps=3000,
                                                patience=3000))
        assert 0.0 <= r.acceptance_rate <= 1.0
        assert r.accepted <= r.steps_run


class TestVisitedStates:
    def test_every_visited_state_admissible(self):
        params = CriterionParams(rho=0.7, n=2.0)
        g = directed_gnp(18, 0.25, seed=12)
        cfg = ChainConfig(c=0.05, seed=2, max_steps=20_000, patience=20_000)
        _, events = run_observed(g, params, cfg)
        top = max_admissible_size(18, 0.7)
        for rec in events:
            assert 1 <= rec.size <= top
            assert is_admissible_size(rec.size, 18, 0.7)

    def test_best_score_dominates_trace(self):
        g = directed_gnp(16, 0.3, seed=13)
        cfg = ChainConfig(c=0.1, seed=3, max_steps=20_000, patience=20_000)
        r, events = run_observed(g, PARAMS_N1, cfg)
        assert len(events) == r.steps_run == 20_000
        # best is either the initial state or the best state ever stepped on
        assert r.best_score.value >= max(e.w for e in events)


class TestBestScore:
    def test_reported_w_is_the_w_of_the_reported_set(self):
        # Float weights make incremental and from-scratch sums differ in the
        # last bits; the reported W must be the reported set's, exactly, and
        # must not depend on the order its members are listed in.
        params = CriterionParams(rho=0.8, n=5.0)
        g = directed_gnp(200, 0.05, seed=17, float_weights=True)
        for seed in range(10):
            r = run_chain(g, params, ChainConfig(c=0.05, seed=seed,
                                                 max_steps=20_000,
                                                 patience=20_000))
            members = sorted(r.best_state.members)
            assert r.best_score == score(g, r.best_state, params)
            assert r.best_score == score(g, members[::-1], params)

    def test_counts_depend_on_the_set_alone(self):
        # Node ids well above the set's hash-table size collide, so a set's
        # iteration order follows its insertion order.
        g = directed_gnp(2000, 0.01, seed=17, float_weights=True)
        rng = np.random.default_rng(5)
        members = rng.choice(2000, size=40, replace=False).tolist()
        ref = CommunityState.from_members(g, sorted(members)).counts()
        for _ in range(20):
            rng.shuffle(members)
            assert CommunityState.from_members(g, members).counts() == ref


@st.composite
def float_weighted_graphs(draw):
    n = draw(st.integers(6, 30))
    node = st.integers(0, n - 1)
    weight = st.floats(0.01, 100.0, allow_nan=False, allow_infinity=False)
    triples = draw(st.lists(st.tuples(node, node, weight),
                            min_size=n, max_size=6 * n))
    edges = [(a, b, w) for a, b, w in triples if a != b]
    assume(edges)
    return DirectedGraph(n, edges)


class ReferenceDeltas:
    """Observer recomputing each proposal's delta with :func:`move_delta`.

    It keeps its own mirror state, updated only through ``move_delta``'s
    counts, and compares before applying each step, so rejected proposals
    are checked too.  ``|delta - reference|`` may be at most ``rel_tol``
    times the larger of the graph's total weight and the two W values: the
    counts are sums of edge weights, and W = ... - q^n * B_S magnifies
    their rounding by up to q^n, so it shows at the scale of W.
    """

    def __init__(self, g, params, init, rel_tol):
        self.g, self.params = g, params
        self.rel_tol = rel_tol
        self.mirror = CommunityState.from_members(g, init)
        self.checked = 0

    def __call__(self, event, state):
        args = (self.g, self.mirror, event.node, event.direction, self.params)
        if event.delta is None:
            assert not event.accepted
            with pytest.raises(MoveRejected):
                move_delta(*args)
            return
        ref, counts = move_delta(*args)
        w = value_function(self.g.n_nodes, self.params)(*self.mirror.counts())
        scale = max(self.g.total_weight, abs(w), abs(w + ref))
        assert abs(event.delta - ref) <= self.rel_tol * scale, (event, ref)
        if event.accepted:
            self.mirror.apply_move(event.node, event.direction, counts)
        self.checked += 1


class TestIncrementalCounts:
    @pytest.mark.parametrize("kind", ["directed", "undirected"])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        g=float_weighted_graphs(),
        c=st.sampled_from([0.01, 0.3, 3.0]),
        penalty=st.sampled_from([0.0, 1.0, 5.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_counts_match_from_scratch_at_every_step(
        self, kind, g, c, penalty, seed
    ):
        if kind == "undirected":
            # UCE's regime: on a symmetrized graph the weights to and from
            # each neighbour are equal, and at c=0.01, with weights scaled
            # into [1e-4, 1], most moves are accepted.
            g = symmetrize(DirectedGraph.from_arrays(
                g.n_nodes, g.edge_src, g.edge_dst, g.edge_weight / 100))
            c, penalty = 0.01, 0.0
        params = CriterionParams(rho=0.8, n=penalty)
        # Counts are sums of edge weights, so the graph's total weight is
        # their natural scale; a count that is 0 from scratch may carry
        # rounding residue incrementally.
        tol = 1e-9 * g.total_weight
        checked = []
        start = int(g.edge_src[0])
        # Float weights: the deltas match the reference within rounding.
        ref_deltas = ReferenceDeltas(g, params, (start,), rel_tol=1e-9)

        def check(event, state):
            ref_deltas(event, state)
            fresh = CommunityState.from_members(g, state.members)
            assert state.size == fresh.size == event.size
            for inc, ref in zip(state.counts()[:3], fresh.counts()[:3]):
                assert math.isclose(inc, ref, rel_tol=1e-9, abs_tol=tol)
            checked.append(event.step)

        cfg = ChainConfig(c=c, seed=seed, max_steps=5000, patience=5000,
                          init_members=(start,))
        r = run_chain(g, params, cfg, observer=check)
        assert r.steps_run == 5000
        assert checked == list(range(1, 5001))
        if kind == "undirected":
            assert r.acceptance_rate > 0.4


class TestReferenceDeltas:
    @pytest.mark.parametrize("kind", ["directed", "undirected"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_unit_weights_match_exactly(self, kind, seed):
        g = directed_gnp(60, 0.08, seed=30 + seed)
        if kind == "undirected":
            g = symmetrize(g)
        params = CriterionParams(rho=0.6, n=0.0 if kind == "undirected" else 5.0)
        start = int(g.edge_src[0])
        ref = ReferenceDeltas(g, params, (start,), rel_tol=0.0)
        cfg = ChainConfig(c=1e-3, seed=seed, max_steps=20_000, patience=20_000,
                          init_members=(start,))
        r = run_chain(g, params, cfg, observer=ref)
        assert ref.checked > r.steps_run // 2
        assert r.accepted > 100


class TestProposalMemo:
    def test_a_repeated_proposal_is_worked_out_once(self, monkeypatch):
        # A near-frozen chain on a small graph rejects almost every
        # proposal, so most proposals repeat a node from an unchanged state.
        g = directed_gnp(30, 0.15, seed=40)
        params = CriterionParams(rho=0.8, n=1.0)
        start = int(g.edge_src[0])
        ref = ReferenceDeltas(g, params, (start,), rel_tol=0.0)
        calls = []

        def counted(*args):
            calls.append(args)
            return counts_after_move(*args)

        monkeypatch.setattr(sampler, "counts_after_move", counted)
        epoch = 0  # accepted moves so far: the state's identity
        outcomes = {}
        repeats = 0

        def check(event, state):
            nonlocal epoch, repeats
            ref(event, state)
            key = (epoch, event.node)
            if calls:  # only the first proposal of a node from a state
                assert len(calls) == 1 and key not in outcomes
                calls.clear()
            if key in outcomes:
                repeats += 1
                assert (event.delta, event.log_ratio) == outcomes[key]
            outcomes[key] = (event.delta, event.log_ratio)
            epoch += event.accepted

        cfg = ChainConfig(c=0.5, seed=7, max_steps=5000, patience=5000,
                          init_members=(start,))
        r = run_chain(g, params, cfg, observer=check)
        assert r.steps_run == 5000
        assert r.accepted >= 50
        assert ref.checked > 4000
        assert repeats > 4000


def scanned_and_stepped(g, params, cfg, monkeypatch):
    """Run the chain with rejection runs taken in numpy whenever the chain
    may (``_SCAN_MIN`` 1) and with every step in the step loop, with and
    without an observer; assert that all four agree, event for event, and
    return the result, the scanning run's spy and its events."""
    monkeypatch.setattr(sampler, "_SCAN_MIN", 10**18)
    stepped, stepped_events = run_observed(g, params, cfg)
    assert_same_result(run_chain(g, params, cfg), stepped)
    monkeypatch.setattr(sampler, "_SCAN_MIN", 1)
    spy = ScanSpy(monkeypatch)
    scanned, events = run_observed(g, params, cfg)
    assert_same_result(scanned, stepped)
    # repr, so a numpy scalar in place of a float would show
    assert [repr(e) for e in events] == [repr(e) for e in stepped_events]
    assert_same_result(run_chain(g, params, cfg), stepped)
    return scanned, spy, events


def local_max_start(g, params):
    """The best set of a frozen chain: a start no single move improves."""
    cfg = ChainConfig(c=1000.0, seed=1, max_steps=4000, patience=4000)
    return tuple(sorted(run_chain(g, params, cfg).best_state.members))


class TestRejectionScan:
    """Runs of rejections taken in numpy give the step loop's chain."""

    PARAMS = CriterionParams(rho=0.8, n=1.0)

    def test_underflowed_bars(self, monkeypatch):
        # At c=1000 a downhill move's bar exp(c * dW) underflows to 0.0: it
        # still takes an acceptance draw and is never accepted.
        g = directed_gnp(40, 0.1, seed=21)
        cfg = ChainConfig(c=1000.0, seed=3, max_steps=4000, patience=4000)
        _, spy, events = scanned_and_stepped(g, self.PARAMS, cfg, monkeypatch)
        assert any(0.0 in bars and taken for bars, _, taken in spy.calls)
        assert any(e.uniform is not None and e.log_ratio < -746 for e in events)

    def test_outright_accepts(self, monkeypatch):
        g = directed_gnp(40, 0.1, seed=21, float_weights=True)
        cfg = ChainConfig(c=0.3, seed=4, max_steps=6000, patience=6000)
        _, spy, events = scanned_and_stepped(g, self.PARAMS, cfg, monkeypatch)
        # Scans that end at an accepted step, which the step loop then takes.
        assert any(0 < taken < limit for _, limit, taken in spy.calls)
        assert any(e.accepted and e.uniform is None for e in events)

    def test_auto_rejected_remove_of_the_last_member(self, monkeypatch):
        g = directed_gnp(30, 0.1, seed=5)
        params = CriterionParams(rho=0.8, n=5.0)
        cfg = ChainConfig(c=1000.0, seed=6, max_steps=3000, patience=3000,
                          init_members=(int(g.edge_src[0]),))
        _, spy, events = scanned_and_stepped(g, params, cfg, monkeypatch)
        assert any(None in bars and taken for bars, _, taken in spy.calls)
        assert any(e.direction == "remove" and e.delta is None and e.size == 1
                   for e in events)

    def test_auto_rejected_add_at_the_top_size(self, monkeypatch):
        g = directed_gnp(12, 0.3, seed=7)
        params = CriterionParams(rho=0.5, n=1.0)  # |S| at most 2
        start = (int(g.edge_src[0]), int(g.edge_dst[0]))
        assert len(start) == max_admissible_size(g.n_nodes, params.rho)
        cfg = ChainConfig(c=1000.0, seed=8, max_steps=3000, patience=3000,
                          init_members=start)
        _, spy, events = scanned_and_stepped(g, params, cfg, monkeypatch)
        assert any(None in bars and taken for bars, _, taken in spy.calls)
        assert any(e.direction == "add" and e.delta is None for e in events)

    def test_isolated_start_stalls(self, monkeypatch):
        g = DirectedGraph(6, [(0, 1, 1.0), (1, 2, 1.0)])
        cfg = ChainConfig(seed=0, init_members=(5,))
        r, spy, events = scanned_and_stepped(g, PARAMS_N1, cfg, monkeypatch)
        assert r.stopped == "stalled"
        assert spy.calls == [] and events == []

    def test_stall_longer_than_a_draw_block(self, monkeypatch):
        g = directed_gnp(40, 0.1, seed=21)
        start = local_max_start(g, self.PARAMS)
        cfg = ChainConfig(c=1000.0, seed=9, max_steps=30000, patience=30000,
                          init_members=start)
        _, spy, events = scanned_and_stepped(g, self.PARAMS, cfg, monkeypatch)
        assert max(taken for _, _, taken in spy.calls) > sampler._RNG_BLOCK
        # Across block boundaries the chain reads one unbroken stream: each
        # step takes a pick draw, then the acceptance draw it reports.
        stream = np.random.default_rng(cfg.seed).random(2 * len(events)).tolist()
        pos = 0
        for e in events:
            pos += 1
            if e.uniform is not None:
                assert e.uniform == stream[pos]
                pos += 1
        assert pos > 2 * sampler._RNG_BLOCK

    @pytest.mark.parametrize("max_steps, patience, stopped", [
        (30000, 3000, "patience"),
        (3000, 3000, "max_steps"),
    ])
    def test_cap_inside_a_scan(self, max_steps, patience, stopped, monkeypatch):
        g = directed_gnp(40, 0.1, seed=21)
        cfg = ChainConfig(c=1000.0, seed=12, max_steps=max_steps,
                          patience=patience)
        r, spy, _ = scanned_and_stepped(g, self.PARAMS, cfg, monkeypatch)
        _, limit, taken = spy.calls[-1]
        assert taken == limit
        assert r.stopped == stopped

    def test_patience_and_max_steps_on_the_same_step(self, monkeypatch):
        # From a local maximum no step improves W, so patience runs out on
        # the last step; patience wins.
        g = directed_gnp(40, 0.1, seed=21)
        start = local_max_start(g, self.PARAMS)
        cfg = ChainConfig(c=1000.0, seed=11, max_steps=2000, patience=2000,
                          init_members=start)
        r, spy, _ = scanned_and_stepped(g, self.PARAMS, cfg, monkeypatch)
        _, limit, taken = spy.calls[-1]
        assert taken == limit
        assert (r.stopped, r.steps_run) == ("patience", 2000)


FIGURE1_EDGELIST = (
    Path(__file__).resolve().parent.parent / "data" / "figure1" / "figure1.edgelist"
)


def int5_graph():
    return directed_gnp(40, 0.1, seed=21, max_weight=5)


def reweighted(g, weight):
    return DirectedGraph.from_arrays(g.n_nodes, g.edge_src, g.edge_dst, weight)


def one_half():
    g = int5_graph()
    weight = g.edge_weight.copy()
    weight[7] = 0.5
    return reweighted(g, weight)


def heavy_total(total):
    """The unit graph and, on a path of three new nodes apart from it, two
    integer edges: one of 2**52 and one that brings the total to ``total``."""
    g = directed_gnp(40, 0.1, seed=21)
    n = g.n_nodes
    rest = total - 2**52 - g.edge_count
    graph = DirectedGraph.from_arrays(
        n + 3, np.append(g.edge_src, [n, n + 1]),
        np.append(g.edge_dst, [n + 1, n + 2]),
        np.append(g.edge_weight, [2.0**52, rest]))
    assert graph.total_weight == total
    return graph


def drifting_graph():
    """The unit graph's edges with weights drawn from {0.1, 0.2, 0.3, 0.7}:
    a sum of them taken apart in another order may not fall back to 0.0."""
    g = directed_gnp(40, 0.1, seed=21)
    weight = np.random.default_rng(21).choice([0.1, 0.2, 0.3, 0.7],
                                               size=g.edge_count)
    return reweighted(g, weight)


# graph maker, penalty exponent n, whether its weight sums are exact
EXACT_SUMS_CASES = {
    "unit": (lambda: directed_gnp(40, 0.1, seed=21), 1.0, True),
    "int5": (int5_graph, 1.0, True),
    "int5-symmetrized": (lambda: symmetrize(int5_graph()), 0.0, True),
    "one-weight-0.5": (one_half, 1.0, False),
    "integer-total-2**53": (lambda: heavy_total(2**53), 1.0, False),
    "integer-total-2**53-1": (lambda: heavy_total(2**53 - 1), 1.0, True),
    "float-drifting": (drifting_graph, 1.0, False),
}


def reused_and_not(g, params, cfg, monkeypatch):
    """Run the chain with ``_exact_sums`` patched to False, so it keeps no
    memo past an accepted move, then as it is, with and without an observer.
    Assert that all three agree, event for event, and that each chain
    evaluated the proposals :func:`undo_slot` replays.  Return the
    reference's and the observed chain's :class:`MemoSpy` and the swaps."""
    exact_sums = sampler._exact_sums
    monkeypatch.setattr(sampler, "_exact_sums", lambda g: False)
    fresh = MemoSpy(monkeypatch)
    reference = run_chain(g, params, cfg, fresh)
    assert fresh.evaluated == undo_slot(fresh.events, False)[0]
    monkeypatch.setattr(sampler, "_exact_sums", exact_sums)
    assert_same_result(run_chain(g, params, cfg), reference)
    spy = MemoSpy(monkeypatch)
    assert_same_result(run_chain(g, params, cfg, spy), reference)
    # repr, so a -0.0 in place of a 0.0 would show
    assert [repr(e) for e in spy.events] == [repr(e) for e in fresh.events]
    evaluates, restores = undo_slot(spy.events, exact_sums(g))
    assert spy.evaluated == evaluates
    return fresh, spy, restores


def epochs(events):
    """The events split after each accepted step: epoch k holds the steps
    taken from the subset that the k-th accepted move reached."""
    out = [[]]
    for e in events:
        out[-1].append(e)
        if e.accepted:
            out.append([])
    return out


def outright(events):
    """Whether one of ``events`` is a move accepted with no draw."""
    return any(e.uniform is None and e.delta is not None for e in events)


class TestMemoReuse:
    """A chain that takes back the memo of the subset it left gives the
    chain that keeps none, and evaluates fewer proposals."""

    PARAMS = CriterionParams(rho=0.8, n=5.0)
    # The pinned int5 chain: it undoes outright accepts and returns to
    # subsets by other paths.
    INT5_CFG = ChainConfig(c=0.05, seed=3, max_steps=4000, patience=4000)

    @pytest.fixture(scope="class")
    def figure1_null(self):
        return randomize(load_edge_list(FIGURE1_EDGELIST), "same_edge_count", 1)

    def test_figure1_null_graph(self, figure1_null, monkeypatch):
        # At c=0.05 most accepted moves undo the one before; the memos they
        # take back hold outright accepts and often cover the pool at once.
        cfg = ChainConfig(c=0.05, seed=0, max_steps=20000, patience=10000)
        fresh, spy, restores = reused_and_not(figure1_null, self.PARAMS, cfg,
                                              monkeypatch)
        accepted = sum(e.accepted for e in spy.events)
        assert len(restores) > 0.8 * accepted > 200
        assert sum(outright(memo) for _, memo in restores) > 100
        scanned = {step for step, _ in spy.scans}
        assert sum(e.step in scanned for e, _ in restores) > 50
        assert sum(spy.evaluated) < 0.2 * sum(fresh.evaluated)

    def test_init_members(self, figure1_null, monkeypatch):
        # The edge 0 -> 17: a start the chain leaves and comes back to.
        assert 17 in figure1_null.adj_nbrs[0]
        cfg = ChainConfig(c=0.05, seed=0, max_steps=20000, patience=10000,
                          init_members=(0, 17))
        _, _, restores = reused_and_not(figure1_null, self.PARAMS, cfg,
                                        monkeypatch)
        assert len(restores) > 20

    def test_near_frozen_chain_scans(self, figure1_null, monkeypatch):
        # At c=1000 a chain seldom undoes a move, but its long rejection
        # runs are scanned while it keeps an undo memo.
        cfg = ChainConfig(c=1000.0, seed=0, max_steps=20000, patience=10000)
        _, spy, _ = reused_and_not(figure1_null, self.PARAMS, cfg, monkeypatch)
        assert any(e.accepted for e in spy.events)
        assert sum(taken for _, taken in spy.scans) > 0

    def test_planted_graph(self, monkeypatch):
        g, _ = generate_benchmark(BenchmarkSpec(n1=40, n2=50, n0=410, p1=0.7,
                                                p2=0.05, seed=3))
        cfg = ChainConfig(c=0.01, seed=4, max_steps=20000, patience=20000)
        _, _, restores = reused_and_not(g, self.PARAMS, cfg, monkeypatch)
        assert restores

    @pytest.mark.parametrize("seed", [3, 4])
    def test_undirected_planted_graph(self, seed, monkeypatch):
        # At c=0.01 the chain roams and seldom undoes a move.
        g, _ = generate_benchmark(BenchmarkSpec(n1=40, n2=50, n0=410, p1=0.7,
                                                p2=0.05, seed=3))
        params = CriterionParams(rho=0.8, n=0.0)
        cfg = ChainConfig(c=0.01, seed=seed, max_steps=20000, patience=20000)
        _, spy, restores = reused_and_not(symmetrize(g), params, cfg,
                                          monkeypatch)
        assert 0 < len(restores) < 0.01 * sum(e.accepted for e in spy.events)

    def test_float_weights_restore_nothing(self, monkeypatch):
        g = directed_gnp(40, 0.1, seed=21, float_weights=True)
        cfg = ChainConfig(c=0.05, seed=3, max_steps=4000, patience=4000)
        fresh, spy, _ = reused_and_not(g, CriterionParams(rho=0.8, n=1.0), cfg,
                                       monkeypatch)
        # It undoes moves, but evaluates every proposal after each one again.
        assert undo_slot(spy.events, True)[1]
        assert spy.evaluated == fresh.evaluated

    def test_integer_weights_above_one(self, monkeypatch):
        g = directed_gnp(40, 0.1, seed=21, max_weight=5)
        cfg = ChainConfig(c=0.05, seed=3, max_steps=4000, patience=4000)
        fresh, spy, restores = reused_and_not(
            g, CriterionParams(rho=0.8, n=1.0), cfg, monkeypatch)
        assert restores and sum(spy.evaluated) < sum(fresh.evaluated)

    @pytest.mark.parametrize("case", sorted(EXACT_SUMS_CASES))
    def test_parks_where_the_sums_are_exact(self, case, monkeypatch):
        # The rule that keeps an undo memo also picks the pool walk.
        make, n, exact = EXACT_SUMS_CASES[case]
        g = make()
        assert sampler._exact_sums(g) is exact
        # Node 0 is on the graph the heavy edges are kept apart from.
        cfg = ChainConfig(c=0.05, seed=3, max_steps=4000, patience=4000,
                          init_members=(0,))
        fresh, spy, _ = reused_and_not(
            g, CriterionParams(rho=0.8, n=n), cfg, monkeypatch)
        assert (sum(spy.evaluated) < sum(fresh.evaluated)) is exact

    def test_ping_pong_evaluates_nothing_new(self, figure1_null, monkeypatch):
        # Add u, remove u, add u: the second visit to S+u looks up every
        # proposal the first visit evaluated.
        cfg = ChainConfig(c=0.05, seed=0, max_steps=20000, patience=10000)
        _, spy, _ = reused_and_not(figure1_null, self.PARAMS, cfg, monkeypatch)
        evaluated = dict(zip((e.step for e in spy.events), spy.evaluated))
        parts = epochs(spy.events)
        repeats = 0
        for i in range(len(parts) - 3):
            moves = [part[-1] for part in parts[i:i + 3]]
            if (moves[0].direction != "add"
                    or {e.node for e in moves} != {moves[0].node}):
                continue
            first = {e.node for e in parts[i + 1] if e.delta is not None}
            again = [e for e in parts[i + 3] if e.node in first]
            assert not any(evaluated[e.step] for e in again)
            repeats += len(again)
        assert repeats > 100

    def test_square_return_starts_a_new_memo(self, monkeypatch):
        # Add u, add v, remove u, remove v returns to S by another path: the
        # memo made at S was dropped, so S's proposals are evaluated again.
        make, n, _ = EXACT_SUMS_CASES["int5"]
        params = CriterionParams(rho=0.8, n=n)
        _, spy, _ = reused_and_not(make(), params, self.INT5_CFG, monkeypatch)
        evaluated = dict(zip((e.step for e in spy.events), spy.evaluated))
        parts = epochs(spy.events)
        squares = 0
        for i in range(len(parts) - 4):
            moves = [(e.direction, e.node) for e in
                     (part[-1] for part in parts[i:i + 4])]
            u, v = moves[0][1], moves[1][1]
            if u == v or moves != [("add", u), ("add", v), ("remove", u),
                                   ("remove", v)]:
                continue
            first = {e.node for e in parts[i] if e.delta is not None}
            firsts = {}
            for e in parts[i + 4]:
                firsts.setdefault(e.node, e)
            again = [e for e in firsts.values() if e.node in first]
            assert all(evaluated[e.step] for e in again)
            squares += bool(again)
        assert squares > 0

    def test_outright_undo_is_not_scanned(self, monkeypatch):
        # The move that left S was accepted outright, so the memo an undo
        # takes back holds that accept (no bar, a delta), which a scan would
        # read as a rejection.  The chain weighs a scan once the memo covers
        # the pool; where the bars are low enough to scan, it starts none.
        make, n, _ = EXACT_SUMS_CASES["int5"]
        g, params = make(), CriterionParams(rho=0.8, n=n)
        _, spy, restores = reused_and_not(g, params, self.INT5_CFG, monkeypatch)
        pools, sizes = PoolSpy(monkeypatch), []
        run_chain(g, params, self.INT5_CFG,
                  lambda e, state: sizes.append(len(pools.pools[-1].items)))
        scanned = {step for step, _ in spy.scans}
        guarded = 0
        for e, memo in restores:
            if not outright(memo):
                continue
            memo, pool = {m.node: m for m in memo}, sizes[e.step - 1]
            # Step k's event is spy.events[k - 1]; go on from the undo.
            for later in [e, *spy.events[e.step:]]:
                if later is not e:
                    if later.accepted:
                        break
                    memo.setdefault(later.node, later)
                if len(memo) == pool:
                    bars = [math.exp(m.log_ratio) for m in memo.values()
                            if m.log_ratio is not None and m.log_ratio < 0]
                    if sum(bars) * sampler._SCAN_MIN <= pool:
                        assert later.step not in scanned
                        guarded += 1
                    break
        assert guarded > 0


def pool_trace(g, params, cfg, monkeypatch):
    """Run an observed chain; return its events and the steps after which
    its proposal pool was not S plus every node adjacent to S, worked out
    from the edge columns."""
    spy = PoolSpy(monkeypatch)
    nbrs = [set() for _ in range(g.n_nodes)]
    for a, b in zip(g.edge_src.tolist(), g.edge_dst.tolist()):
        nbrs[a].add(b)
        nbrs[b].add(a)
    events, wrong = [], []

    def observer(event, state):
        events.append(event)
        members = set(state.members)
        if set(spy.pools[-1].items) != members.union(*(nbrs[u] for u in members)):
            wrong.append(event.step)

    run_chain(g, params, cfg, observer)
    return events, wrong


class TestPoolInvariant:
    """After every step the proposal pool is S plus every node adjacent to
    S, whichever walk keeps it: the weight sums on graphs whose sums are
    exact (one list of them on a symmetric graph), a count of adjacent
    members otherwise."""

    CFG = ChainConfig(c=0.05, seed=3, max_steps=4000, patience=4000)

    @pytest.mark.parametrize("case", ["unit", "int5", "int5-symmetrized",
                                      "float-drifting"])
    def test_pool_is_s_and_its_neighbours(self, case, monkeypatch):
        make, n, exact = EXACT_SUMS_CASES[case]
        g = make()
        params = CriterionParams(rho=0.8, n=n)
        assert sampler._exact_sums(g) is exact
        events, wrong = pool_trace(g, params, self.CFG, monkeypatch)
        assert wrong == [] and sum(e.accepted for e in events) > 100
        if exact:  # the counting walk gives the same chain
            monkeypatch.setattr(sampler, "_exact_sums", lambda g: False)
            counted, wrong = pool_trace(g, params, self.CFG, monkeypatch)
            # repr, so a -0.0 in place of a 0.0 would show
            assert wrong == [] and list(map(repr, counted)) == list(map(repr, events))

    @pytest.mark.parametrize("make", [lambda: symmetrize(int5_graph()),
                                      lambda: symmetrize(two_cliques_graph())],
                             ids=["int5-symmetrized", "two-cliques-symmetrized"])
    def test_one_list_gives_the_two_list_chain(self, make, monkeypatch):
        # A symmetric graph with exact sums keeps one list of weights to and
        # from S; the same graph not flagged symmetric keeps two.
        g = make()
        params = CriterionParams(rho=0.8, n=0.0)
        assert g.symmetric and sampler._exact_sums(g)
        events, wrong = pool_trace(g, params, self.CFG, monkeypatch)
        assert wrong == [] and sum(e.accepted for e in events) > 100
        monkeypatch.setattr(g, "symmetric", False)
        two, wrong = pool_trace(g, params, self.CFG, monkeypatch)
        assert wrong == [] and list(map(repr, two)) == list(map(repr, events))

    def test_sum_walk_breaks_it_where_sums_round(self, monkeypatch):
        # The sum walk taken on rounding sums leaves nodes in the pool whose
        # last neighbour in S has left: the invariant test sees it.
        monkeypatch.setattr(sampler, "_exact_sums", lambda g: True)
        _, wrong = pool_trace(drifting_graph(), CriterionParams(rho=0.8, n=1.0),
                              self.CFG, monkeypatch)
        assert wrong


@given(st.integers(1, 2**53 - 1))
def test_a_pool_position_draw_stays_below_the_pool_size(size):
    # The chain and its scan pick position int(u * P) with no clamp: for u
    # below 1 the rounded product never reaches P.
    assert int(np.nextafter(1.0, 0.0) * size) < size
    assert int((np.array([np.nextafter(1.0, 0.0)]) * size).astype(np.intp)[0]) < size


# Edges added to mini_community_graph's background cycle.
MINI_EXTRAS = pytest.mark.parametrize(
    "extra",
    [
        [(4, 7, 1.0)],
        [(3, 6, 1.0)],
        [(4, 7, 1.0), (4, 8, 1.0)],
    ],
    ids=["bg-shortcut-4-7", "bg-shortcut-3-6", "two-shortcuts"],
)


class TestStationaryLaw:
    @MINI_EXTRAS
    def test_visit_frequencies_match_the_exact_law(self, extra):
        # Every subset of up to 4 of the 9 nodes is admissible at rho=1, so
        # the law has 255 states.  The total-variation distance reads
        # 0.02-0.03 at seeds 11 and 12; a chain that also weighs its ratio
        # by |pool(S)| / |pool(S')| reads about 0.23, so the bound tells
        # the two kernels apart.
        g = mini_community_graph(extra)
        law = exact_chain_law(g, PARAMS_N1, 0.1)
        assert len(law) == 255
        cfg = ChainConfig(c=0.1, seed=11, max_steps=200_000, patience=200_000,
                          init_members=(0,))
        visits = VisitCounter()
        r = run_chain(g, PARAMS_N1, cfg, observer=visits)
        assert r.steps_run == 200_000 and set(visits.counts) <= set(law)
        tv = sum(abs(visits.counts[s] / r.steps_run - p)
                 for s, p in law.items()) / 2
        assert tv <= 0.06


class TestFrequencyRanking:
    @MINI_EXTRAS
    def test_long_run_frequencies_rank_top3_by_w(self, extra):
        # The graphs have distinct, mutually adjacent top-3 subsets (the
        # planted triangle and two one-node extensions), so a chain seeded
        # in that basin visits them in the order of their W.
        g = mini_community_graph(extra)
        top3 = _exact_top_subsets(g, PARAMS_N1, 3)
        assert len({w for _, w in top3}) == 3, "test graphs must have distinct top-3"
        cfg = ChainConfig(c=0.7, seed=11, max_steps=1_000_000,
                          patience=1_000_000, init_members=(0,))
        visits = VisitCounter()
        run_chain(g, PARAMS_N1, cfg, observer=visits)
        assert visits.ranked()[:3] == [s for s, _ in top3]

    def test_frequency_counts_bounded_by_steps(self):
        g = mini_community_graph([(4, 7, 1.0)])
        cfg = ChainConfig(c=0.5, seed=7, max_steps=5000, patience=5000)
        visits = VisitCounter()
        r = run_chain(g, PARAMS_N1, cfg, observer=visits)
        assert sum(visits.counts.values()) == r.steps_run


def _exact_top_subsets(g, params, k):
    value = value_function(g.n_nodes, params)
    scored = [
        (frozenset(members), value(*counts))
        for members, counts in admissible_subsets(g, params)
    ]
    return sorted(scored, key=lambda kv: -kv[1])[:k]


class TestStopping:
    def test_zero_edge_graph_terminates_immediately(self):
        g = DirectedGraph(5, [])
        r = run_chain(g, PARAMS_N1, ChainConfig(seed=0))
        assert r.stopped == "no_edges"
        assert r.steps_run == 0
        assert len(r.best_state.members) == 1

    def test_isolated_init_stalls(self):
        g = DirectedGraph(6, [(0, 1, 1.0), (1, 2, 1.0)])
        r = run_chain(g, PARAMS_N1, ChainConfig(seed=0, init_members=(5,)))
        assert r.stopped == "stalled"
        assert sorted(r.best_state.members) == [5]

    def test_patience_stops_early(self):
        g = two_cliques_graph()
        r = run_chain(
            g, PARAMS_N1,
            ChainConfig(c=1000.0, seed=2, max_steps=100_000, patience=500),
        )
        assert r.stopped == "patience"
        assert r.steps_run < 100_000

    def test_max_steps_reached(self):
        g = directed_gnp(10, 0.4, seed=20)
        r = run_chain(g, PARAMS_N1,
                      ChainConfig(c=0.01, seed=2, max_steps=777, patience=777))
        assert r.stopped == "max_steps"
        assert r.steps_run == 777

    # From {0, 5} the chain adds 1, removes 1, then removes 0 and is left on
    # node 5, which has no neighbour, at step 3.  When the budget or the
    # patience runs out at that same step, it names the stop; patience 1
    # runs out a step sooner.
    @pytest.mark.parametrize("max_steps, patience, stopped, steps", [
        (500, 200, "stalled", 3),
        (3, 3, "max_steps", 3),
        (500, 2, "patience", 3),
        (500, 1, "patience", 2),
    ])
    def test_stall_reached_mid_run(self, max_steps, patience, stopped, steps):
        g = DirectedGraph(8, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        cfg = ChainConfig(c=1.0, seed=0, init_members=(5, 0),
                          max_steps=max_steps, patience=patience)
        r, events = run_observed(g, CriterionParams(rho=0.8, n=1.0), cfg)
        assert r.stopped == stopped
        assert r.steps_run == r.accepted == len(events) == steps
        assert [(e.node, e.direction) for e in events] == [
            (1, "add"), (1, "remove"), (0, "remove")][:steps]
        assert sorted(r.best_state.members) == [0, 1, 5]


class TestSearch:
    # Seeds 0 and 6 end on optimal 4-subsets of different cliques, which tie
    # at W = -27; seed 1 ends on a single node.
    CHAIN = ChainConfig(c=0.5, max_steps=5000, patience=5000)

    def test_equal_w_goes_to_the_smaller_member_tuple(self):
        g = two_cliques_graph()
        ends = {seed: run_chain(g, PARAMS_N1, replace(self.CHAIN, seed=seed))
                for seed in (0, 1, 6)}
        assert tuple(sorted(ends[0].best_state.members)) == (5, 6, 7, 8)
        assert tuple(sorted(ends[6].best_state.members)) == (0, 1, 2, 4)
        assert ends[0].best_score.value == ends[6].best_score.value == -27.0
        assert ends[1].best_score.value < -27.0
        for seeds in itertools.permutations((0, 1, 6)):
            best, members = sampler.search(g, PARAMS_N1, self.CHAIN, seeds)
            assert members == (0, 1, 2, 4)
            assert_same_result(best, ends[6])


class TestConfigValidation:
    def test_c_must_be_positive(self):
        with pytest.raises(ChainConfigError):
            ChainConfig(c=0.0)

    def test_patience_cannot_exceed_max_steps(self):
        with pytest.raises(ChainConfigError):
            ChainConfig(max_steps=100, patience=200)

    def test_c_must_not_be_nan(self):
        with pytest.raises(ChainConfigError, match="c must be positive"):
            ChainConfig(c=float("nan"))

    def test_infinite_c_rejected(self):
        # At c=inf a move with dW=0 would get log ratio inf*0 = nan and be
        # rejected, where every finite c accepts it outright.
        with pytest.raises(ChainConfigError, match="finite"):
            ChainConfig(c=float("inf"))

    @pytest.mark.parametrize("patience", [0, -3])
    def test_patience_must_be_positive(self, patience):
        with pytest.raises(ChainConfigError, match="patience"):
            ChainConfig(patience=patience)

    # A fractional budget runs one step more than its floor.
    @pytest.mark.parametrize("field, value", [
        ("max_steps", 2000.0), ("max_steps", 2000.5),
        ("patience", 10000.5), ("patience", 100.0),
    ])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ChainConfigError, match=f"{field} must be an integer"):
            ChainConfig(**{field: value})

    # A float seed was taken; a float start node was cut to the node below.
    @pytest.mark.parametrize("field, value, message", [
        ("seed", 1.5, "seed must be an integer"),
        ("seed", 2.0, "seed must be an integer"),
        ("seed", -1, "seed must be >= 0"),
        ("init_members", (1.7,), "init_members entry must be an integer"),
        ("init_members", (0, np.float64(2.0)), "init_members entry must be an"),
        ("init_members", (3, -1), "init_members entry must be >= 0"),
    ])
    def test_seed_and_start_nodes_must_be_integers(self, field, value, message):
        with pytest.raises(ChainConfigError, match=message):
            ChainConfig(**{field: value})

    def test_inadmissible_init_rejected(self):
        g = directed_gnp(10, 0.4, seed=1)
        with pytest.raises(ChainConfigError, match="inadmissible"):
            run_chain(g, PARAMS_N1, ChainConfig(init_members=(0, 1, 2, 3, 4)))

    def test_duplicate_init_rejected(self):
        g = directed_gnp(10, 0.4, seed=1)
        with pytest.raises(ChainConfigError, match="duplicates"):
            run_chain(g, PARAMS_N1, ChainConfig(init_members=(1, 1)))

    def test_tiny_graph_rejected(self):
        # Even at rho = 1, 2|S| < N needs N >= 3.
        for g in (DirectedGraph(1, []), DirectedGraph(2, [(0, 1, 1.0)])):
            with pytest.raises(ChainConfigError, match="no admissible subset"):
                run_chain(g, PARAMS_N1, ChainConfig(seed=0))

    def test_no_admissible_subset_rejected(self):
        g = directed_gnp(4, 0.5, seed=1)
        with pytest.raises(ChainConfigError, match="admissible"):
            run_chain(g, CriterionParams(rho=0.5, n=1.0), ChainConfig(seed=0))


class TestTrace:
    def test_observer_sees_every_step_and_the_live_state(self):
        g = directed_gnp(14, 0.3, seed=21)
        cfg = ChainConfig(c=0.1, seed=4, max_steps=2000, patience=2000)
        seen = []

        def observe(event, state):
            w = value_function(g.n_nodes, PARAMS_N1)(*state.counts())
            seen.append((event.step, event.size, event.w, state.size, w))

        r = run_chain(g, PARAMS_N1, cfg, observer=observe)
        assert [step for step, *_ in seen] == list(range(1, r.steps_run + 1))
        for _, size, w, live_size, live_w in seen:
            assert (size, w) == (live_size, live_w)

    def test_trace_csv_format(self, tmp_path):
        g = directed_gnp(10, 0.4, seed=22)
        cfg = ChainConfig(c=0.1, seed=5, max_steps=200, patience=200)
        r, events = run_observed(g, PARAMS_N1, cfg)
        path = tmp_path / "trace.csv"
        write_trace_csv(events, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,W,accepted,size"
        assert len(lines) == r.steps_run + 1
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[2] in ("0", "1")


class TestBruteForce:
    def test_path_graph_hand_enumeration(self):
        # a->b->c at rho=1: only singletons admissible; W({a}) = W({c}) = -1,
        # W({b}) = -6; lexicographic tie-break picks node 0.
        g = DirectedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        members, s = brute_force_optimum(g, PARAMS_N1)
        assert members == (0,)
        assert s.value == pytest.approx(-1.0)

    def test_refuses_large_graphs(self):
        g = directed_gnp(25, 0.2, seed=1)
        with pytest.raises(ValueError, match="refused"):
            brute_force_optimum(g, PARAMS_N1, max_n=20)

    def test_no_admissible_subsets_is_an_error(self):
        g = DirectedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match="admissible"):
            brute_force_optimum(g, PARAMS_N1)

    def test_boundary_pair_excluded_at_n4(self):
        # At N=4, rho=1 a pair sits exactly on 2|S|/N = rho and is not
        # chain-admissible; the best admissible subset is an isolated
        # singleton with W = 0 (lexicographically node 2).
        g = DirectedGraph(4, [(0, 1, 1.0), (1, 0, 1.0)])
        members, s = brute_force_optimum(g, CriterionParams(rho=1.0, n=1.0))
        assert members == (2,)
        assert s.value == pytest.approx(0.0)

    def test_reciprocal_pair_wins_when_admissible(self):
        # One more node makes the pair admissible: W = (5-2)*2/2 - 0 = 3.
        g = DirectedGraph(5, [(0, 1, 1.0), (1, 0, 1.0)])
        members, s = brute_force_optimum(g, CriterionParams(rho=1.0, n=1.0))
        assert members == (0, 1)
        assert s.value == pytest.approx(3.0)

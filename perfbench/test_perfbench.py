"""Tests for the benchmark's own helpers: span self time, the null-decision
count, the percentile summary, the round reader of the traced run, and the
host-speed clock."""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
from spans import (  # noqa: E402
    Recorder,
    Span,
    decided_after,
    null_needed_ratio,
    self_times,
    summarize,
)


def span(name, start, end, parent=None, op="x", **attrs):
    return Span(name, start, end, parent, op, attrs)


class TestSelfTimes:
    def test_nested_spans(self):
        spans = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 4.0, parent=0),
            span("b", 5.0, 6.0, parent=0),
            span("a.child", 2.0, 3.0, parent=1),
        ]
        assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])

    def test_overlapping_children_count_once(self):
        spans = [span("root", 0.0, 10.0), span("a", 1.0, 4.0, parent=0),
                 span("b", 3.0, 6.0, parent=0)]
        assert self_times(spans)[0] == pytest.approx(5.0)

    def test_child_clipped_to_parent(self):
        spans = [span("root", 0.0, 2.0), span("a", 1.0, 5.0, parent=0)]
        assert self_times(spans)[0] == pytest.approx(1.0)

    def test_self_times_sum_to_root_duration(self):
        spans = [span("root", 0.0, 7.0), span("a", 1.0, 3.0, parent=0),
                 span("b", 1.5, 2.0, parent=1), span("c", 4.0, 6.5, parent=0)]
        assert sum(self_times(spans)) == pytest.approx(7.0)


class TestRecorder:
    def test_wrapped_calls_nest_and_restore(self):
        mod = types.ModuleType("fake")

        def inner(x):
            return x + 1

        def outer(x):
            return mod.inner(x) * 2

        mod.inner, mod.outer = inner, outer
        rec = Recorder()
        targets = {inner: ("inner", lambda a, kw, r: {"result": r}),
                   outer: ("outer", None)}
        with rec.installed([mod], targets):
            rec.op = "op1"
            assert mod.outer(1) == 4
        assert mod.inner is inner and mod.outer is outer
        names = [(s.name, s.parent, s.op) for s in rec.spans]
        assert names == [("outer", None, "op1"), ("inner", 0, "op1")]
        assert rec.spans[1].attrs == {"result": 2}
        assert rec.spans[0].start <= rec.spans[1].start <= rec.spans[1].end \
            <= rec.spans[0].end


class TestDecidedAfter:
    def test_rejected_round_decided_at_kth_exceedance(self):
        # R = 100 and q = 0.95 give k = 5.
        scores = [0.0] * 100
        for i in (2, 9, 19, 39, 80, 90):
            scores[i] = 5.0
        assert decided_after(scores, 5.0, 0.95) == 81

    def test_accepted_round_needs_all_nulls(self):
        scores = [0.0] * 100
        for i in (1, 2, 3, 4):
            scores[i] = 9.0
        assert decided_after(scores, 5.0, 0.95) == 100

    def test_ties_count_as_exceedances(self):
        assert decided_after([2.0, 2.0, 1.0], 2.0, 0.5) == 2

    def test_float_boundary_rejects_before_any_null(self):
        # (1 + 0) / 10 > 1 - 0.9 in floats: the round is lost with no null.
        assert decided_after([-1.0] * 9, 0.0, 0.9) == 0
        assert decided_after([-1.0] * 8 + [1.0], 0.0, 0.85) == 9
        assert decided_after([-1.0] * 9, 0.0, 0.85) == 9

    def test_ratio_sums_over_rounds(self):
        rejected = [0.0] * 95 + [9.0] * 5
        accepted = [0.0] * 100
        ratio, needed, run = null_needed_ratio(
            [(rejected, 1.0, 0.95), (accepted, 1.0, 0.95)])
        assert (needed, run) == (200, 200)
        early = [9.0] * 5 + [0.0] * 95
        ratio, needed, run = null_needed_ratio(
            [(early, 1.0, 0.95), (accepted, 1.0, 0.95)])
        assert (needed, run) == (105, 200)
        assert ratio == pytest.approx(105 / 200)
        assert null_needed_ratio([]) == (1.0, 0, 0)

    @pytest.mark.parametrize("quantile", [0.95, 0.9, 0.85, 0.5])
    def test_agrees_with_the_extraction_stop_rule(self, quantile):
        empirical_p_value = pytest.importorskip("dcex").empirical_p_value
        rng = np.random.default_rng(1)
        for _ in range(200):
            r = int(rng.integers(1, 40))
            scores = rng.normal(size=r).tolist()
            observed = float(rng.normal(loc=1.5))
            rejected = empirical_p_value(observed, scores) > 1.0 - quantile
            d = decided_after(scores, observed, quantile)
            if not rejected:
                assert d == r
                continue
            # The first d nulls already force rejection, d - 1 do not.
            def forced(prefix):
                ge = sum(v >= observed for v in prefix)
                return (1 + ge) / (1 + r) > 1.0 - quantile
            assert forced(scores[:d])
            assert d == 0 or not forced(scores[:d - 1])


class TestSummarize:
    def test_small_sample_has_no_percentile(self):
        out = summarize([3.0, 1.0, 2.0])
        assert out == {"n": 3, "median": 2.0, "p": None, "p_value": None}

    def test_needs_ten_samples_beyond(self):
        assert summarize(range(1, 20))["p"] is None
        out = summarize(range(1, 21))
        assert (out["p"], out["p_value"]) == (50.0, 10)

    @pytest.mark.parametrize("n, p, value", [
        (100, 90.0, 90), (199, 90.0, 180), (200, 95.0, 190),
        (1000, 99.0, 990), (10000, 99.9, 9990),
    ])
    def test_highest_qualifying_percentile(self, n, p, value):
        out = summarize(range(n, 0, -1))
        assert (out["n"], out["p"], out["p_value"]) == (n, p, value)
        assert out["median"] == pytest.approx((n + 1) / 2)


class TestRounds:
    def test_rounds_and_null_phase(self):
        traced = pytest.importorskip("traced")
        ext = {"nulls": 3, "quantile": 0.5}
        spans = [
            span("extract_all", 0.0, 20.0, **ext),
            span("run_chain", 1.0, 2.0, 0, kind="restart", best=4.0),
            span("run_chain", 2.0, 3.0, 0, kind="restart", best=5.0),
            span("randomize", 3.0, 3.5, 0, model="same_edge_count"),
            span("run_chain", 3.5, 4.0, 0, kind="null", best=6.0),
            span("run_chain", 4.0, 4.5, 0, kind="null", best=1.0),
            span("run_chain", 4.5, 5.0, 0, kind="null", best=2.0),
            span("subgraph_complement", 6.0, 7.0, 0),
            span("run_chain", 8.0, 9.0, 0, kind="restart", best=1.0),
            span("run_chain", 10.0, 11.0, 0, kind="null", best=3.0),
        ]
        rounds = traced.rounds(spans)
        assert [r["observed"] for r in rounds] == [5.0, 1.0]
        assert [r["nulls"] for r in rounds] == [[6.0, 1.0, 2.0], [3.0]]
        assert [r["null_phase"] for r in rounds] == pytest.approx([3.0, 11.0])


class TestHostClock:
    def test_corrected_rescales_each_stretch_by_its_references(self):
        ref = hostspeed.REF_SECONDS
        # A stretch at reference speed counts as is; one run while the
        # reference took twice as long counts half.
        assert hostspeed.corrected([(1.0, ref, ref)]) == pytest.approx(1.0)
        assert hostspeed.corrected([(1.0, ref, ref), (2.0, 2 * ref, 2 * ref)]) \
            == pytest.approx(2.0)
        assert hostspeed.corrected([(3.0, ref, 2 * ref)]) == pytest.approx(2.0)

    def test_samples_during_a_call_and_restores_the_handler(self, monkeypatch):
        import signal
        import time

        monkeypatch.setattr(hostspeed, "SAMPLE_PERIOD_S", 0.01)
        monkeypatch.setattr(hostspeed, "reference_loop",
                            lambda: time.sleep(0.002))
        clock = hostspeed.HostClock()
        before = signal.getsignal(signal.SIGALRM)

        def busy():
            end = time.perf_counter() + 0.1
            while time.perf_counter() < end:
                pass
            return "done"

        t0 = time.perf_counter()
        out, wall, fixed = clock.time(busy)
        elapsed = time.perf_counter() - t0
        assert out == "done"
        assert len(clock.refs) > 4  # samples taken during the call
        assert wall < elapsed  # the handler's time is cut out
        assert fixed > 0
        assert signal.getsignal(signal.SIGALRM) is before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_an_exception_is_returned(self):
        out, wall, _ = hostspeed.HostClock().time(lambda: 1 / 0)
        assert isinstance(out, ZeroDivisionError)
        assert wall >= 0

"""Per-layer metrics: spans around calls into dcex, plus fixed-work probes."""

from __future__ import annotations

import time
from statistics import median

import numpy as np

import dcex
from dcex import (
    ChainConfig,
    DirectedGraph,
    MoveRejected,
    baselines,
    benchmark,
    cli,
    derive_seed,
    extraction,
    graph,
    move_delta,
    run_chain,
    sampler,
)

from spans import Recorder, children, null_needed_ratio, self_times

TRACED_MODULES = (dcex, cli, extraction, baselines, graph, benchmark, sampler)

# Layers whose self time and share of the traced pass are reported for
# every workload (0 where unused).
SHARE_KEYS = ("cli", "extraction", "extraction.randomize", "graph",
              "sampler.restart", "sampler.null", "benchmark", "baselines")

FIXED_STEPS = 20000
PROBE_REPEATS = 3
REPLAY_CALLS = 20000
SETUP_CALLS = 100


def _chain_attrs(args, kwargs, result):
    return {
        "kind": "null" if "null_model" in args[0].meta else "restart",
        "steps": result.steps_run,
        "accepted": result.accepted,
        "stopped": result.stopped,
        "best": result.best_score.value,
    }


def _extract_attrs(args, kwargs, result):
    config = args[1]
    return {"nulls": config.null_replicates,
            "quantile": config.significance_quantile}


def targets() -> dict:
    """Public entry points to wrap, with their span names."""
    return {
        cli.main: ("cli.main", None),
        extraction.extract_all: ("extract_all", _extract_attrs),
        baselines.run_uce: ("run_uce", None),
        baselines.run_dmm: ("run_dmm", None),
        sampler.run_chain: ("run_chain", _chain_attrs),
        extraction.randomize: ("randomize", lambda a, kw, r: {"model": a[1]}),
        graph.subgraph_complement: ("subgraph_complement", None),
        graph.symmetrize: ("symmetrize", None),
        graph.load_edge_list: ("load_edge_list", None),
        benchmark.generate: ("generate_benchmark", None),
    }


def tracing(recorder: Recorder):
    return recorder.installed(TRACED_MODULES, targets())


def share_key(span) -> str:
    if span.name == "run_chain":
        return f"sampler.{span.attrs['kind']}"
    return {
        "cli.main": "cli",
        "extract_all": "extraction",
        "randomize": "extraction.randomize",
        "subgraph_complement": "graph",
        "symmetrize": "graph",
        "load_edge_list": "graph",
        "generate_benchmark": "benchmark",
        "run_uce": "baselines",
        "run_dmm": "baselines",
    }[span.name]


def rounds(spans) -> list[dict]:
    """Extraction rounds, read off each ``extract_all`` span's children.

    A round opens with its run of restart chains.  Its null phase lasts from
    the end of the last restart chain to the ``subgraph_complement`` that
    removes an accepted community, or to the end of ``extract_all``.  This
    reads the same with ``jobs > 1``, where null chains run in workers and
    leave no spans here.
    """
    kids = children(spans)
    out = []
    for e, ext in enumerate(spans):
        if ext.name != "extract_all":
            continue
        cur, closed = None, True
        for k in kids.get(e, ()):
            s = spans[k]
            if s.name == "run_chain" and s.attrs["kind"] == "restart":
                if closed:
                    cur = {"observed": s.attrs["best"], "nulls": [], "end": ext.end,
                           "null_reps": ext.attrs["nulls"],
                           "quantile": ext.attrs["quantile"]}
                    out.append(cur)
                    closed = False
                cur["observed"] = max(cur["observed"], s.attrs["best"])
                cur["restart_end"] = s.end
            elif cur is not None:
                closed = True
                if s.name == "run_chain":
                    cur["nulls"].append(s.attrs["best"])
                elif s.name == "subgraph_complement":
                    cur["end"] = s.start
    for r in out:
        r["null_phase"] = r["end"] - r["restart_end"] if r["null_reps"] else 0.0
    return out


def span_metrics(spans, pass_s: float) -> dict:
    """Per-layer metrics from the spans of setup plus one traced pass."""
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    m = {}
    extract_under: dict[int, float] = {}  # parent span -> its extract_all time
    for s in spans:
        if s.parent is not None and s.name == "extract_all":
            extract_under[s.parent] = extract_under.get(s.parent, 0.0) + s.duration
    m["cli.overhead_s"] = (sum(s.duration - extract_under.get(i, 0.0)
                               for i, s in enumerate(spans) if s.name == "cli.main"),
                           "s")
    m["cli.calls"] = (calls("cli.main"), "count")
    for key, name in (("load", "load_edge_list"), ("complement", "subgraph_complement"),
                      ("symmetrize", "symmetrize")):
        m[f"graph.{key}_s"] = (total(name), "s")
        m[f"graph.{key}_calls"] = (calls(name), "count")

    chains = by_name.get("run_chain", [])
    for kind in ("restart", "null"):
        mine = [s for s in chains if s.attrs["kind"] == kind]
        m[f"sampler.{kind}_chains"] = (len(mine), "count")
        m[f"sampler.{kind}_chain_s"] = (sum(s.duration for s in mine), "s")
        m[f"sampler.{kind}_proposals"] = (sum(s.attrs["steps"] for s in mine), "count")
    proposals = sum(s.attrs["steps"] for s in chains)
    busy = sum(s.duration for s in chains)
    m["sampler.proposals_per_s"] = (proposals / busy if busy else 0.0, "1/s")
    m["sampler.acceptance_rate"] = (
        sum(s.attrs["accepted"] for s in chains) / proposals if proposals else 0.0,
        "ratio")
    m["sampler.patience_stop_frac"] = (
        sum(s.attrs["stopped"] == "patience" for s in chains) / len(chains)
        if chains else 0.0, "ratio")

    rs = rounds(spans)
    null_phase = sum(r["null_phase"] for r in rs)
    extract_s = total("extract_all")
    m["extraction.calls"] = (calls("extract_all"), "count")
    m["extraction.rounds"] = (len(rs), "count")
    m["extraction.null_phase_s"] = (null_phase, "s")
    m["extraction.null_share"] = (null_phase / extract_s if extract_s else 0.0, "ratio")
    for model in ("same_edge_count", "degree_preserving"):
        mine = [s for s in by_name.get("randomize", ()) if s.attrs["model"] == model]
        m[f"extraction.randomize_{model}_s"] = (sum(s.duration for s in mine), "s")
        m[f"extraction.null_graphs_{model}"] = (len(mine), "count")
    ratio, needed, run = null_needed_ratio(
        [(r["nulls"], r["observed"], r["quantile"]) for r in rs if r["nulls"]])
    m["extraction.null_needed_ratio"] = (ratio, "ratio")
    m["extraction.nulls_needed"] = (needed, "count")
    m["extraction.nulls_run"] = (run, "count")

    m["benchmark.generate_s"] = (total("generate_benchmark"), "s")
    m["benchmark.generate_calls"] = (calls("generate_benchmark"), "count")
    for key, name in (("uce", "run_uce"), ("dmm", "run_dmm")):
        m[f"baselines.{key}_s"] = (total(name), "s")
        m[f"baselines.{key}_calls"] = (calls(name), "count")

    own_s = dict.fromkeys(SHARE_KEYS, 0.0)
    for s, own in zip(spans, selfs):
        if s.op != "setup":
            own_s[share_key(s)] += own
    for key in SHARE_KEYS:
        m[f"self_s.{key}"] = (own_s[key], "s")
        m[f"share.{key}"] = (own_s[key] / pass_s if pass_s else 0.0, "ratio")
    return m


def null_phase_s(spans) -> float:
    return sum(r["null_phase"] for r in rounds(spans))


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def probes(g, params, c, seed) -> dict:
    """Fixed-work probes on one graph, independent of any chain's luck."""
    m = {}
    edges = list(zip(g.edge_src.tolist(), g.edge_dst.tolist(), g.edge_weight.tolist()))
    builds = [_timed(lambda: DirectedGraph(g.n_nodes, edges, labels=g.labels))[0]
              for _ in range(PROBE_REPEATS)]
    m["graph.build_s"] = (median(builds), "s")

    cfg = ChainConfig(c=c, max_steps=FIXED_STEPS, patience=FIXED_STEPS,
                      seed=derive_seed(seed, 7))
    runs = [_timed(lambda: run_chain(g, params, cfg)) for _ in range(PROBE_REPEATS)]
    chain_s = median(t for t, _ in runs)
    result = runs[0][1]
    m["sampler.fixed_proposals"] = (result.steps_run, "count")
    m["sampler.fixed_proposals_per_s"] = (result.steps_run / chain_s, "1/s")

    # Replay one fixed proposal sequence against the fixed chain's best set.
    state = result.best_state
    pool = sorted(set(state.members).union(*(g.adj_nbrs[u] for u in state.members)))
    rng = np.random.default_rng(derive_seed(seed, 8))
    nodes = rng.choice(pool, size=REPLAY_CALLS).tolist()
    moves = [(u, "remove" if state.in_set[u] else "add") for u in nodes]

    def replay():
        for u, direction in moves:
            try:
                move_delta(g, state, u, direction, params)
            except MoveRejected:
                pass

    replays = [_timed(replay)[0] for _ in range(PROBE_REPEATS)]
    m["criterion.move_delta_us"] = (median(replays) / REPLAY_CALLS * 1e6, "us")
    m["criterion.move_delta_calls"] = (REPLAY_CALLS, "count")

    one = ChainConfig(c=c, max_steps=1, patience=1, seed=derive_seed(seed, 9))
    setup_s, _ = _timed(lambda: [run_chain(g, params, one) for _ in range(SETUP_CALLS)])
    m["sampler.chain_setup_us"] = (setup_s / SETUP_CALLS * 1e6, "us")
    return m

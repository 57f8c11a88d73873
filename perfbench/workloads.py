"""The benchmark's four workloads.

Each workload builds its inputs from the run seed, exposes the fixed work of
one pass as a list of operations, checks each operation's output, and
scores the outputs it has ground truth for.  An operation is one extraction,
or one method on one replicate.  Calls into ``dcex`` go through module
attributes at call time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import dcex
from dcex import (
    BenchmarkSpec,
    ChainConfig,
    CriterionParams,
    DirectedGraph,
    DmmConfig,
    ExtractionConfig,
    PartitionLabels,
    best_pair_adjusted_jaccard,
    cli,
    derive_seed,
    load_membership,
)

from checks import check_partition, check_report

ROOT = Path(__file__).resolve().parent.parent
FIGURE1 = ROOT / "data" / "figure1" / "figure1.edgelist"
FIGURE1_TRUTH = ROOT / "data" / "figure1" / "figure1.truth"

SAME = "same_edge_count"
DEGREE = "degree_preserving"


@dataclass
class Op:
    """One operation: ``run`` returns canonical bytes and parsed data."""

    id: str
    run: Callable[[], tuple[bytes, object]]
    check: Callable[[object], list[str]]


def report_bytes(report) -> bytes:
    """The bytes ``ExtractionReport.save_json`` writes."""
    return (json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n").encode()


def _extraction_op(op_id, graph, config, jobs=1, baseline=False):
    """In-process ``extract_all`` (or ``run_uce``) on ``graph``."""

    def run():
        if baseline:
            report = dcex.run_uce(graph, config)
        else:
            report = dcex.extract_all(graph, config, jobs)
        return report_bytes(report), report.to_dict()

    searched = dcex.symmetrize(graph) if baseline else graph
    return Op(op_id, run, lambda data: check_report(data, searched))


class Workload:
    name = ""
    has_null_phase = True

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp

    def setup(self) -> None:
        """Load or build the inputs; timed as ``setup_s``."""
        raise NotImplementedError

    def ops(self, jobs: int = 1) -> list[Op]:
        raise NotImplementedError

    def quality(self, outputs: dict) -> dict:
        """Accuracy metrics ``name -> (value, unit)`` from one pass's data."""
        return {}

    def properties(self) -> dict:
        raise NotImplementedError

    def probe_target(self):
        """``(graph, CriterionParams, c)`` the layer probes run on."""
        raise NotImplementedError


class CliExtract(Workload):
    """``dcex extract`` through ``cli.main``; jobs > 1 runs the same config
    in process, since the command has no ``--jobs``."""

    params: dict = {}

    def cli_op(self, op_id, graph_path):
        out = self.tmp / f"{op_id}.json"
        p = self.params
        argv = ["extract", "--graph", str(graph_path), "--method", "dce",
                "--rho", str(p["rho"]), "--n", str(p["n"]), "--c", str(p["c"]),
                "--seed", str(self.seed), "--restarts", str(p["restarts"]),
                "--max-steps", str(p["max_steps"]), "--patience", str(p["patience"]),
                "--null-replicates", str(p["nulls"]),
                "--significance-quantile", str(p["quantile"]),
                "--max-communities", str(p["max_communities"]), "--out", str(out)]

        def run():
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"dcex extract exited with {code}")
            manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
            if "run_s" not in manifest["timings"]:
                raise RuntimeError("manifest lacks timings.run_s")
            data = out.read_bytes()
            return data, json.loads(data)

        return Op(op_id, run, lambda data: check_report(data, self.graph))

    def config(self) -> ExtractionConfig:
        p = self.params
        return ExtractionConfig(
            criterion=CriterionParams(rho=p["rho"], n=p["n"]),
            chain=ChainConfig(c=p["c"], max_steps=p["max_steps"],
                              patience=p["patience"], seed=self.seed),
            restarts=p["restarts"],
            max_communities=p["max_communities"],
            null_replicates=p["nulls"],
            significance_quantile=p["quantile"],
        )

    def extract_ops(self, graph_path, jobs):
        if jobs == 1:
            return [self.cli_op("dce", graph_path)]
        return [_extraction_op("dce", self.graph, self.config(), jobs)]

    def probe_target(self):
        p = self.params
        return self.graph, CriterionParams(rho=p["rho"], n=p["n"]), p["c"]

    def graph_properties(self) -> dict:
        g = self.graph
        return {"N": g.n_nodes, "E": g.edge_count,
                "weights": "unit" if bool(np.all(g.edge_weight == 1.0)) else "float",
                "null_model": SAME, "null_replicates": self.params["nulls"],
                "seed": self.seed}


class Figure1Extract(CliExtract):
    name = "figure1_extract"
    # The README command, plus --max-communities 2: the figure has two
    # planted groups, and the cap fixes the number of rounds at two, so the
    # run time does not depend on whether the chain seed finds a third round.
    params = {"rho": 0.8, "n": 5.0, "c": 0.05, "restarts": 5, "max_steps": 20000,
              "patience": 10000, "nulls": 100, "quantile": 0.95,
              "max_communities": 2}

    def setup(self):
        self.graph = dcex.load_edge_list(FIGURE1)

    def ops(self, jobs=1):
        return self.extract_ops(FIGURE1, jobs)

    def quality(self, outputs):
        truth = load_membership(FIGURE1_TRUTH)
        s1 = {lab for lab, grp in truth.items() if grp == "S1"}
        s2 = {lab for lab, grp in truth.items() if grp == "S2"}
        found = [set(c["members"]) for c in outputs["dce"]["communities"]]
        aj, _ = best_pair_adjusted_jaccard((s1, s2), found)
        return {"aj_dce": (aj, "ratio")}

    def properties(self):
        return self.graph_properties()


class LargeGraph(CliExtract):
    name = "large_graph"
    # Fixed work: chains run exactly max_steps; one round (max_communities 1).
    # 9 nulls at quantile 0.85 decide at the first exceedance; at 0.9 the
    # rule (1 + 0) / 10 > 1 - 0.9 holds in floats, so every round would be
    # rejected before its nulls are looked at.
    params = {"rho": 0.8, "n": 5.0, "c": 0.05, "restarts": 2, "max_steps": 20000,
              "patience": 20000, "nulls": 9, "quantile": 0.85,
              "max_communities": 1}
    size = 10000

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.path = tmp / "large.edgelist"
        # The `dcex scaling` spec at N = 10000.
        self.spec = BenchmarkSpec(n1=40, n2=50, n0=self.size - 90, p1=0.7,
                                  p2=10.0 / self.size, seed=derive_seed(seed, 0))

    def setup(self):
        g, _ = dcex.generate_benchmark(self.spec)
        dcex.save_edge_list(g, self.path)
        self.graph = dcex.load_edge_list(self.path)

    def ops(self, jobs=1):
        return self.extract_ops(self.path, jobs)

    def properties(self):
        return self.graph_properties()


class NoiseNull(Workload):
    name = "noise_null"
    n_nodes = 200
    density = 0.05
    models = (SAME, DEGREE)  # one graph per null model, in this order

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.arrays = []
        for i in range(len(self.models)):
            rng = np.random.default_rng(derive_seed(seed, i))
            mask = rng.random((self.n_nodes, self.n_nodes)) < self.density
            np.fill_diagonal(mask, False)
            src, dst = np.nonzero(mask)
            wts = rng.uniform(0.5, 2.0, size=len(src))
            self.arrays.append(list(zip(src.tolist(), dst.tolist(), wts.tolist())))

    def setup(self):
        self.graphs = [DirectedGraph(self.n_nodes, edges) for edges in self.arrays]

    def config(self, i):
        # Acceptance criterion 6, with max_communities 1 instead of 3: a
        # false community then ends the extraction instead of adding a round,
        # so every graph costs exactly one round of 100 nulls.
        return ExtractionConfig(
            criterion=CriterionParams(rho=0.8, n=5.0),
            chain=ChainConfig(c=0.01, max_steps=8000, patience=4000,
                              seed=derive_seed(self.seed, i, 1)),
            restarts=1,
            max_communities=1,
            null_replicates=100,
            null_model=self.models[i],
        )

    def ops(self, jobs=1):
        return [_extraction_op(f"g{i}:{m}", g, self.config(i), jobs)
                for i, (g, m) in enumerate(zip(self.graphs, self.models))]

    def quality(self, outputs):
        found = sum(len(d["communities"]) for d in outputs.values())
        return {"false_communities": (found, "count")}

    def properties(self):
        return {"N": self.n_nodes,
                "E": [g.edge_count for g in self.graphs],
                "weights": "float", "null_model": list(self.models),
                "null_replicates": 100, "seed": self.seed}

    def probe_target(self):
        return self.graphs[0], CriterionParams(rho=0.8, n=5.0), 0.01


class PlantedSweep(Workload):
    name = "planted_sweep"
    has_null_phase = False

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.spec = BenchmarkSpec(n1=40, n2=50, n0=410, p1=0.7, p2=0.05,
                                  seed=derive_seed(seed, 0))

    def setup(self):
        self.graph, self.truth = dcex.generate_benchmark(self.spec)

    def ops(self, jobs=1):
        # Acceptance criterion 5's settings at n = 5, except that chains run
        # a fixed 40000 steps (max_steps == patience) instead of stopping
        # 30000 steps after their last improvement (at most 60000): chain
        # lengths, and with them the pass time, then do not vary with the
        # seed.  Criterion-5 chains ran 31k-40k steps on average.
        cfg = ExtractionConfig(
            criterion=CriterionParams(rho=0.8, n=5.0),
            chain=ChainConfig(c=0.01, max_steps=40000, patience=40000,
                              seed=derive_seed(self.spec.seed, 1)),
            restarts=5,
            max_communities=2,
            null_replicates=0,
        )
        g = self.graph

        def dmm():
            labels = dcex.run_dmm(g, DmmConfig(target_parts=3))
            items = sorted(labels.assignments.items())
            return json.dumps(items).encode(), dict(items)

        return [_extraction_op("dce", g, cfg),
                _extraction_op("uce", g, cfg, baseline=True),
                Op("dmm", dmm, lambda data: check_partition(data, g.n_nodes))]

    def quality(self, outputs):
        pair = (self.truth.s1, self.truth.s2)
        found = {m: [set(c["members"]) for c in outputs[m]["communities"]]
                 for m in ("dce", "uce")}
        found["dmm"] = PartitionLabels(assignments=outputs["dmm"]).as_sets()
        return {f"aj_{m}": (best_pair_adjusted_jaccard(pair, sets)[0], "ratio")
                for m, sets in found.items()}

    def properties(self):
        return {"N": self.graph.n_nodes, "E": self.graph.edge_count,
                "weights": "unit", "null_model": None, "null_replicates": 0,
                "seed": self.seed}

    def probe_target(self):
        return self.graph, CriterionParams(rho=0.8, n=5.0), 0.01


WORKLOADS = {w.name: w for w in (Figure1Extract, NoiseNull, PlantedSweep, LargeGraph)}

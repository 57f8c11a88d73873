"""The benchmark's view of dcex.

``perfbench/traced.py`` times fixed-work probes that read ``g.adj_nbrs``,
``move_delta`` and ``MoveRejected``.  The benchmark's own tests do not run
them, so this runs them once on the figure1 graph, with the figure1
workload's parameters: a change under ``src`` that breaks ``--trace 1``
fails here.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import traced  # noqa: E402
from workloads import Figure1Extract  # noqa: E402


def test_probes_run_on_figure1(tmp_path):
    workload = Figure1Extract(0, tmp_path)
    workload.setup()
    metrics = traced.probes(*workload.probe_target(), workload.seed)
    assert metrics["sampler.fixed_proposals"] == (traced.FIXED_STEPS, "count")
    for value, _ in metrics.values():
        assert math.isfinite(value) and value > 0

import csv
import json
from pathlib import Path

import pytest

from dcex import derive_seed, load_edge_list, run_chain, symmetrize
from dcex.cli import _build_parser, main
from dcex.criterion import MODE_UNDIRECTED, CriterionParams
from dcex.sampler import ChainConfig, write_trace_csv

REPO_ROOT = Path(__file__).resolve().parent.parent
FIGURE1_EDGELIST = REPO_ROOT / "data" / "figure1" / "figure1.edgelist"


def run_cli(*args):
    try:
        return main([str(a) for a in args])
    except SystemExit as exc:  # argparse usage failures
        return exc.code


def read_manifest(out_path):
    return json.loads(Path(str(out_path) + ".manifest.json").read_text())


class TestExtractCommand:
    def extract_args(self, out, **over):
        base = {
            "--graph": FIGURE1_EDGELIST,
            "--method": "dce",
            "--rho": 0.8,
            "--n": 5,
            "--c": 0.05,
            "--seed": 11,
            "--restarts": 4,
            "--max-steps": 8000,
            "--patience": 4000,
            "--max-communities": 3,
            "--null-replicates": 24,
            "--out": out,
        }
        base.update(over)
        args = ["extract"]
        for k, v in base.items():
            args += [k, v]
        return args

    def test_dce_on_shipped_sample_finds_significant_community(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli(*self.extract_args(out)) == 0
        report = json.loads(out.read_text())
        assert len(report["communities"]) >= 1
        assert report["communities"][0]["empirical_p"] <= 0.05
        manifest = read_manifest(out)
        assert manifest["command"] == "extract"
        assert manifest["master_seed"] == 11
        assert "timings" in manifest

    def test_repeat_run_is_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run_cli(*self.extract_args(out1)) == 0
        assert run_cli(*self.extract_args(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        m1 = read_manifest(out1)
        m2 = read_manifest(out2)
        m1.pop("timings")
        m2.pop("timings")
        m1["params"].pop("out")
        m2["params"].pop("out")
        assert m1 == m2

    def test_missing_graph_file_exits_2_naming_path(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run_cli(*self.extract_args(out, **{"--graph": tmp_path / "nope.edg"}))
        assert code == 2
        assert "nope.edg" in capsys.readouterr().err

    def test_uce_method_runs(self, tmp_path):
        out = tmp_path / "uce.json"
        code = run_cli(*self.extract_args(out, **{"--method": "uce",
                                                  "--null-replicates": 0}))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["criterion"]["mode"] == "undirected"

    def test_dmm_method_writes_membership(self, tmp_path):
        out = tmp_path / "parts.txt"
        code = run_cli("extract", "--graph", FIGURE1_EDGELIST, "--method", "dmm",
                       "--parts", 3, "--seed", 0, "--out", out)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 50
        parts = {line.split()[1] for line in lines}
        assert 2 <= len(parts) <= 3

    def test_trace_dump(self, tmp_path):
        out = tmp_path / "r.json"
        trace = tmp_path / "trace.csv"
        code = run_cli(*self.extract_args(out, **{"--null-replicates": 0,
                                                  "--trace": trace}))
        assert code == 0
        header = trace.read_text().splitlines()[0]
        assert header == "step,W,accepted,size"

    def test_uce_trace_follows_the_symmetrized_chain(self, tmp_path):
        args = {"--method": "uce", "--null-replicates": 0, "--max-communities": 1,
                "--seed": 4}
        out, trace = tmp_path / "uce.json", tmp_path / "trace.csv"
        assert run_cli(*self.extract_args(out, **args, **{"--trace": trace})) == 0
        sym = symmetrize(load_edge_list(FIGURE1_EDGELIST))
        params = CriterionParams(rho=0.8, n=5, mode=MODE_UNDIRECTED)
        chain = ChainConfig(c=0.05, max_steps=8000, patience=4000,
                            seed=derive_seed(4, 0, 0, 0))
        events = []
        first = run_chain(sym, params, chain,
                          observer=lambda e, state: events.append(e))
        expected = tmp_path / "expected.csv"
        write_trace_csv(events, expected)
        assert trace.read_bytes() == expected.read_bytes()
        # the traced chain is the report's first restart: it cannot beat the
        # best of all restarts
        reported = json.loads(out.read_text())["communities"][0]["w"]
        assert first.best_score.value <= reported

    def test_dce_trace_follows_round_0_first_restart(self, tmp_path):
        args = {"--null-replicates": 0, "--max-communities": 1, "--seed": 4}
        out, trace = tmp_path / "dce.json", tmp_path / "trace.csv"
        assert run_cli(*self.extract_args(out, **args, **{"--trace": trace})) == 0
        params = CriterionParams(rho=0.8, n=5)
        chain = ChainConfig(c=0.05, max_steps=8000, patience=4000,
                            seed=derive_seed(4, 0, 0, 0))
        events = []
        first = run_chain(load_edge_list(FIGURE1_EDGELIST), params, chain,
                          observer=lambda e, state: events.append(e))
        expected = tmp_path / "expected.csv"
        write_trace_csv(events, expected)
        assert trace.read_bytes() == expected.read_bytes()
        reported = json.loads(out.read_text())["communities"][0]["w"]
        assert first.best_score.value <= reported

    def test_trace_runs_no_chain_of_its_own(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the CLI ran a chain itself")

        monkeypatch.setattr("dcex.cli.run_chain", refuse)
        out, trace = tmp_path / "r.json", tmp_path / "trace.csv"
        code = run_cli(*self.extract_args(out, **{"--null-replicates": 0,
                                                  "--trace": trace}))
        assert code == 0
        assert len(trace.read_text().splitlines()) > 1

    def test_trace_of_a_graph_too_small_to_search_is_header_only(self, tmp_path):
        graph = tmp_path / "pair.edgelist"
        graph.write_text("a b\n")
        out, trace = tmp_path / "r.json", tmp_path / "trace.csv"
        code = run_cli("extract", "--graph", graph, "--trace", trace, "--out", out)
        assert code == 0
        assert json.loads(out.read_text())["stopped_reason"] == "graph_exhausted"
        assert read_manifest(out)["command"] == "extract"
        assert trace.read_text() == "step,W,accepted,size\n"

    def test_trace_without_a_round_is_header_only(self, tmp_path):
        out, trace = tmp_path / "r.json", tmp_path / "trace.csv"
        code = run_cli(*self.extract_args(out, **{"--max-communities": 0,
                                                  "--trace": trace}))
        assert code == 0
        assert json.loads(out.read_text())["communities"] == []
        assert trace.read_text() == "step,W,accepted,size\n"

    def test_zero_patience_exits_2(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli(*self.extract_args(out, **{"--patience": 0})) == 2
        assert "patience" in capsys.readouterr().err
        assert not out.exists()

    def test_dmm_trace_exits_2(self, tmp_path, capsys):
        code = run_cli("extract", "--graph", FIGURE1_EDGELIST, "--method", "dmm",
                       "--trace", tmp_path / "t.csv", "--out", tmp_path / "p.txt")
        assert code == 2
        assert "--trace" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()
        assert not (tmp_path / "p.txt").exists()

    def test_unknown_method_exits_2(self, tmp_path):
        code = run_cli("extract", "--graph", FIGURE1_EDGELIST, "--method", "xxx",
                       "--out", tmp_path / "x.json")
        assert code == 2

    @pytest.mark.parametrize("method", ["dce", "uce"])
    def test_jobs_flag_gives_same_report(self, tmp_path, method):
        short = {"--method": method, "--null-replicates": 19,
                 "--max-communities": 1, "--max-steps": 2000, "--patience": 1000}
        seq, par = tmp_path / "seq.json", tmp_path / "par.json"
        assert run_cli(*self.extract_args(seq, **short)) == 0
        assert run_cli(*self.extract_args(par, **short, **{"--jobs": 2})) == 0
        assert seq.read_bytes() == par.read_bytes()

    def test_zero_jobs_exits_2_before_any_work(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli(*self.extract_args(out, **{"--jobs": 0})) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option, value, message", [
        ("--parts", 1, "target_parts must be >= 2"),
        ("--refinement-passes", -1, "refinement_passes must be >= 0"),
    ])
    @pytest.mark.parametrize("method", ["dce", "uce", "dmm"])
    def test_bad_dmm_option_exits_2_before_any_work(self, tmp_path, capsys,
                                                    method, option, value,
                                                    message):
        # Whether or not the method is dmm, as in sweep.
        out = tmp_path / "r.json"
        args = self.extract_args(out, **{"--method": method, option: value})
        assert run_cli(*args) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option, message", [
        pytest.param("--c", "c must be positive and finite", id="c"),
        pytest.param("--n", "penalty exponent n must be finite", id="n"),
    ])
    @pytest.mark.parametrize("method", ["dce", "uce", "dmm"])
    def test_infinite_option_exits_2_before_any_work(self, tmp_path, capsys,
                                                     method, option, message):
        # An infinite value would be written to the report as Infinity,
        # which is not JSON.
        out = tmp_path / "r.json"
        args = self.extract_args(out, **{"--method": method, option: "inf"})
        assert run_cli(*args) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["dce", "uce", "dmm"])
    def test_edge_list_with_no_edges_exits_2(self, tmp_path, capsys, method):
        graph = tmp_path / "empty.edgelist"
        graph.write_text("# a comment and no edge\n\n")
        out = tmp_path / "r.out"
        code = run_cli("extract", "--graph", graph, "--method", method,
                       "--out", out)
        assert code == 2
        assert f"{graph}: no edges" in capsys.readouterr().err
        assert not out.exists()


class TestBenchmarkCommand:
    def test_generates_replicate_files(self, tmp_path):
        out_dir = tmp_path / "bench"
        code = run_cli("benchmark", "--n1", 6, "--n2", 6, "--n0", 12,
                       "--p1", 0.8, "--p2", 0.05, "--replicates", 3,
                       "--seed", 4, "--out-dir", out_dir)
        assert code == 0
        edgelists = sorted(out_dir.glob("*.edgelist"))
        truths = sorted(out_dir.glob("*.truth"))
        assert len(edgelists) == 3
        assert len(truths) == 3
        assert (out_dir / "benchmark.manifest.json").exists()

    def test_zero_replicates_ok(self, tmp_path):
        out_dir = tmp_path / "bench0"
        code = run_cli("benchmark", "--replicates", 0, "--seed", 1,
                       "--out-dir", out_dir)
        assert code == 0
        assert list(out_dir.glob("*.edgelist")) == []
        assert (out_dir / "benchmark.manifest.json").exists()

    def test_invalid_probability_exits_2(self, tmp_path):
        code = run_cli("benchmark", "--p1", 1.5, "--out-dir", tmp_path / "x")
        assert code == 2

    def test_deterministic_outputs(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            assert run_cli("benchmark", "--n1", 5, "--n2", 5, "--n0", 10,
                           "--replicates", 2, "--seed", 9, "--out-dir", d) == 0
        for name in ("bench_0000.edgelist", "bench_0001.edgelist",
                     "bench_0000.truth"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestSweepCommand:
    def sweep_args(self, out, **over):
        base = {
            "--rho": "0.8",
            "--n": "1,5",
            "--p1": "0.9",
            "--p2": "0.05",
            "--n1": 8, "--n2": 8, "--n0": 20,
            "--methods": "dce,dmm",
            "--replicates": 2,
            "--seed": 3,
            "--c": 0.05,
            "--restarts": 3,
            "--max-steps": 4000,
            "--patience": 2000,
            "--out": out,
        }
        base.update(over)
        args = ["sweep"]
        for k, v in base.items():
            args += [k, v]
        return args

    def test_grid_row_count_and_schema(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(*self.sweep_args(out)) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        # 2 n-values x 2 replicates x 2 methods
        assert len(rows) == 8
        assert list(rows[0]) == ["seed", "method", "rho", "n", "p1", "p2",
                                 "adjusted_jaccard", "runtime_ms", "error"]
        for row in rows:
            assert row["error"] == ""
            assert 0.0 <= float(row["adjusted_jaccard"]) <= 1.0

    def test_single_cell_single_replicate(self, tmp_path):
        out = tmp_path / "one.csv"
        assert run_cli(*self.sweep_args(out, **{"--n": "5", "--replicates": 1,
                                                "--methods": "dce"})) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1

    def test_deterministic_modulo_runtime(self, tmp_path):
        def strip_runtime(path):
            with open(path) as fh:
                rows = list(csv.DictReader(fh))
            for row in rows:
                row.pop("runtime_ms")
            return rows

        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert run_cli(*self.sweep_args(out1, **{"--replicates": 1})) == 0
        assert run_cli(*self.sweep_args(out2, **{"--replicates": 1})) == 0
        assert strip_runtime(out1) == strip_runtime(out2)

    def test_jobs_flag_gives_same_rows(self, tmp_path):
        def strip_runtime(path):
            with open(path) as fh:
                rows = list(csv.DictReader(fh))
            for row in rows:
                row.pop("runtime_ms")
            return rows

        seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
        assert run_cli(*self.sweep_args(seq, **{"--replicates": 1})) == 0
        assert run_cli(*self.sweep_args(par, **{"--replicates": 1,
                                                "--jobs": 2})) == 0
        assert strip_runtime(seq) == strip_runtime(par)

    def test_unknown_method_exits_2(self, tmp_path):
        assert run_cli(*self.sweep_args(tmp_path / "x.csv",
                                        **{"--methods": "dce,bogus"})) == 2

    def test_bad_parts_exits_2_before_any_work(self, tmp_path, capsys):
        # Whether or not a method is dmm.
        for methods in ("dce,dmm", "dce"):
            out = tmp_path / f"{methods}.csv"
            args = self.sweep_args(out, **{"--methods": methods, "--parts": 1})
            assert run_cli(*args) == 2
            assert "target_parts must be >= 2" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("option", ["--n1", "--n2"])
    def test_empty_planted_community_exits_2_before_any_work(
            self, tmp_path, capsys, monkeypatch, option):
        # Every row scores against both planted communities, so a sweep
        # with an empty one could only fail every row.
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep generated a graph")

        monkeypatch.setattr("dcex.cli.generate", refuse)
        out = tmp_path / "x.csv"
        assert run_cli(*self.sweep_args(out, **{option: 0})) == 2
        assert "--n1 and --n2 must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_rows_are_kept_and_exit_1(self, tmp_path, capsys, monkeypatch):
        def broken(graph, config):
            raise RuntimeError("dmm broke")

        monkeypatch.setattr("dcex.cli.run_dmm", broken)
        out = tmp_path / "x.csv"
        assert run_cli(*self.sweep_args(out, **{"--jobs": 1})) == 1
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        for row in rows:
            if row["method"] == "dmm":
                assert (row["error"], row["adjusted_jaccard"]) == ("dmm broke", "")
            else:
                assert row["error"] == ""
        assert "4 of 8 rows failed" in capsys.readouterr().err


class TestScalingCommand:
    def test_single_size_single_row(self, tmp_path):
        out = tmp_path / "scale.csv"
        code = run_cli("scaling", "--sizes", "400", "--replicates", 2,
                       "--seed", 5, "--c", 0.01, "--out", out)
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["size"] == "400"
        assert rows[0]["replicates"] == "2"
        assert float(rows[0]["mean_runtime_ms"]) > 0

    def test_chain_speed_and_best_size_columns(self, tmp_path):
        out = tmp_path / "scale.csv"
        assert run_cli("scaling", "--sizes", "300", "--replicates", 2, "--seed", 5,
                       "--c", 0.01, "--max-steps", 2000, "--patience", 2000,
                       "--out", out) == 0
        with open(out) as fh:
            assert fh.readline().strip() == (
                "size,replicates,mean_runtime_ms,min_runtime_ms,max_runtime_ms,"
                "mean_steps,proposals_per_s,mean_best_size"
            )
        with open(out) as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["mean_steps"] == "2000.0"  # patience == max_steps
        mean_s = float(row["mean_runtime_ms"]) / 1e3
        assert float(row["proposals_per_s"]) == pytest.approx(2000 / mean_s, rel=1e-3)
        best_size = float(row["mean_best_size"])
        assert 1 <= best_size < 300 and (2 * best_size).is_integer()

    def test_two_sizes_fit_exponent_in_manifest(self, tmp_path):
        out = tmp_path / "scale2.csv"
        code = run_cli("scaling", "--sizes", "300,600", "--replicates", 1,
                       "--seed", 5, "--c", 0.01, "--out", out)
        assert code == 0
        manifest = read_manifest(out)
        assert "fitted_exponent" in manifest["timings"]

    def test_duplicate_sizes_exit_2(self, tmp_path):
        out = tmp_path / "dup.csv"
        assert run_cli("scaling", "--sizes", "300,300", "--replicates", 1,
                       "--out", out) == 2
        assert not out.exists()

    def test_jobs_flag_gives_same_rows(self, tmp_path):
        def strip_runtime(path):
            with open(path) as fh:
                return [{k: v for k, v in row.items()
                         if "runtime" not in k and k != "proposals_per_s"}
                        for row in csv.DictReader(fh)]

        seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
        args = ["scaling", "--sizes", "150,250", "--replicates", 2, "--seed", 5,
                "--c", 0.01, "--max-steps", 3000]
        assert run_cli(*args, "--out", seq) == 0
        assert run_cli(*args, "--jobs", 2, "--out", par) == 0
        assert strip_runtime(seq) == strip_runtime(par)

    def test_bad_sizes_exit_2(self, tmp_path):
        assert run_cli("scaling", "--sizes", "abc",
                       "--out", tmp_path / "x.csv") == 2
        assert run_cli("scaling", "--sizes", "10",
                       "--out", tmp_path / "y.csv") == 2


class TestChainOptionDefaults:
    @pytest.mark.parametrize("argv, c", [
        (["extract", "--graph", "g.edgelist", "--out", "r.json"], 1.0),
        (["sweep", "--out", "s.csv"], 0.05),
        (["scaling", "--out", "s.csv"], 0.05),
    ])
    def test_each_command_keeps_its_own_defaults(self, argv, c):
        args = _build_parser().parse_args(argv)
        assert (args.c, args.seed, args.max_steps, args.patience, args.jobs) == (
            c, 0, None, None, 1)


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        assert run_cli("--version") == 0
        assert "dcex" in capsys.readouterr().out

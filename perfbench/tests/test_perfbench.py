"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench/tests``."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# The per-layer metrics the benchmark was specified to report.
NAMED_PER_LAYER = [
    "preprocess.read_matrix_s", "preprocess.knn_graph_s", "preprocess.orient_by_pseudotime_s",
    "preprocess.knn_edges", "graph.read_edge_list_s", "graph.lagged_operators_s",
    "graph.operator_nnz", "graph.transpose_apply_batch_s", "graph.transpose_apply_batch_calls",
    "graph.spmm_flops_computed", "graph.spmm_bytes_computed", "model.encode_history_batch_s",
    "model.encode_history_batch_calls", "model.encoded_columns", "train.train_all_s",
    "train.self_s", "train.adam_step_s", "train.adam_step_calls", "train.pairs_dropped",
    "score.score_pair_s", "score.score_pair_calls", "score.rank_pairs_s",
    "score.write_score_records_s", "score.bytes_written", "baselines.pearson_s",
    "baselines.pearson_calls", "baselines.pseudocell_smooth_s",
    "baselines.pseudocell_smooth_calls", "baselines.bin_by_pseudotime_s",
    "baselines.bin_by_pseudotime_calls", "baselines.var_granger_s",
    "baselines.var_granger_calls", "evaluate.auprc_s", "cli.self_s", "synth.generate_s",
    "trace.overhead_s",
] + [f"{layer}.self_s" for layer in tracing.LAYERS]


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)
    return proc


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.per_layer_metrics()
    assert set(NAMED_PER_LAYER) <= set(tracing.per_layer_metrics())
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_workload_runs_end_to_end(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    for line in ("failed_pair_frac", "auprc_dagranger"):
        assert line in proc.stdout
    if trace:
        calls = result["metrics"]["preprocess.knn_graph_calls"]["value"]
        assert (calls == 1) == (workload == "knn-dag")
        assert result["metrics"]["train.pairs_dropped"]["value"] == 0


def test_benchmark_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "acceptance", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _score_files(outdir: Path, candidates):
    for method in checks.METHODS:
        with open(outdir / f"scores_{method}.jsonl", "w", encoding="utf-8") as fh:
            for pid, (xn, yn) in enumerate(candidates):
                rec = {"pair_id": pid, "x_name": xn, "y_name": yn, "score": 1.0 / (pid + 1),
                       "rank": pid + 1}
                if method == "dagranger":
                    rec.update(f_stat=1.0 / (pid + 1), flags=[])
                fh.write(json.dumps(rec) + "\n")


CANDIDATES = [("x0000", "y0000"), ("x0000", "y0001"), ("x0001", "y0000")]


def test_checks_pass_on_intact_outputs(tmp_path):
    _score_files(tmp_path, CANDIDATES)
    result = checks.check_run(tmp_path, CANDIDATES, 0, 0.5, 0.5)
    assert result.ok and result.valid == result.attempted == 12
    assert set(result.digests) == {f"scores_{m}.jsonl" for m in checks.METHODS}


@pytest.mark.parametrize("corrupt", [
    lambda lines: lines[:-1],                                   # a pair is missing
    lambda lines: lines + lines[:1],                            # a pair appears twice
    lambda lines: lines[:1] + ["{not json"] + lines[2:],        # unreadable record
    lambda lines: [l.replace("y0001", "y0009") for l in lines],  # wrong pair names
    lambda lines: [l.replace('"f_stat": 0.5', '"f_stat": NaN') for l in lines],  # NaN, no flag
])
def test_checks_fail_on_a_corrupted_score_file(tmp_path, corrupt):
    _score_files(tmp_path, CANDIDATES)
    path = tmp_path / "scores_dagranger.jsonl"
    path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")
    result = checks.check_run(tmp_path, CANDIDATES, 0, 0.5, 0.5)
    assert not result.ok
    assert result.valid < result.attempted


def test_checks_count_every_record_of_a_failed_run(tmp_path):
    _score_files(tmp_path, CANDIDATES)
    assert checks.check_run(tmp_path, CANDIDATES, 3, 0.5, 0.5).valid == 0
    mismatch = checks.check_run(tmp_path, CANDIDATES, 0, 0.4, 0.5)
    assert not mismatch.ok and mismatch.valid == 9  # all dagranger records fail


def test_missing_wrapped_function_is_reported_not_zero():
    tracer = tracing.Tracer()
    target = ("dagranger.graph", "no_such_function", "graph.no_such_function", None)
    tracer.install((target,))
    assert tracer.missing == ["graph.no_such_function"]
    summary = tracing.summarize(tracer.export(), (target,))
    assert "graph.no_such_function_s" not in summary
    assert "graph.no_such_function_calls" not in summary


def test_self_time_subtracts_nested_spans():
    spans = [
        ["cli.run", 0.0, 10.0, -1],
        ["train.train_all", 1.0, 9.0, 0],
        ["model.encode_history_batch", 2.0, 5.0, 1],
        ["graph.transpose_apply_batch", 2.5, 3.5, 2],
        ["train.adam_step", 6.0, 7.0, 1],
        ["evaluate.auprc", 11.0, 11.5, -1],
    ]
    summary = tracing.summarize({"spans": spans, "counts": {}, "missing": []},
                                tracing.TARGETS)
    assert summary["cli.self_s"] == pytest.approx(2.0)
    assert summary["train.self_s"] == pytest.approx(4.0)  # train_all minus encode and Adam
    assert summary["train.adam_step_s"] == pytest.approx(1.0)
    assert summary["model.self_s"] == pytest.approx(2.0)
    assert summary["graph.self_s"] == pytest.approx(1.0)
    assert summary["evaluate.self_s"] == pytest.approx(0.5)
    assert summary["preprocess.knn_graph_calls"] == 0

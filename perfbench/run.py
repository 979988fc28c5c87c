"""Screen benchmark for dagranger.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 40 --trace 0

Generates the workload's synthetic inputs from ``--seed``, then runs
``dagranger run --method all`` on them again and again, each time in a fresh
interpreter that calls ``dagranger.cli.main`` in-process, until ``--seconds``
have passed. Every invocation's outputs are checked. With ``--trace 0`` it
reports the end-to-end metrics (medians over invocations); with ``--trace 1``
it alternates traced and untraced invocations and reports per-layer metrics
and the tracing overhead. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
EXPECTED_AUPRC = HERE / "expected_auprc.json"

# Pinned before numpy is imported here, and inherited by every invocation.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")

# A run, generation included, must end well inside 180 s.
RUN_DEADLINE_S = 165.0

END_TO_END = {
    "pairs_per_s": "pairs/s",
    "pair_epochs_per_s": "pair-epochs/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "valid_record_frac": "fraction",
}


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unavailable"


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
    }


@dataclass
class Invocation:
    """Outcome of one child process: its metrics, checks and optional trace."""

    traced: bool
    result: dict
    manifest: dict | None
    auprc: float | None
    check: checks.CheckResult

    def metrics(self, inputs) -> dict[str, float]:
        """End-to-end samples of an invocation that passed its checks."""
        n = len(inputs.candidates)
        stages = self.manifest["stages"]
        return {
            "pairs_per_s": n / self.result["wall_s"],
            "pair_epochs_per_s": n * inputs.shape.epochs / stages["dagranger"]["seconds"],
            "setup_s": stages["load"]["seconds"] + stages["dag"]["seconds"],
            "peak_rss_mb": self.result["peak_rss_kb"] / 1024.0,
        }


def invoke(inputs, workdir: Path, index: int, traced: bool, deadline: float,
           expected_auprc) -> Invocation:
    outdir = workdir / f"out{index}"
    job_path = workdir / f"job{index}.json"
    result_path = workdir / f"result{index}.json"
    job = {
        "src": str(SRC),
        "run_argv": inputs.run_argv(outdir),
        "eval_argv": inputs.eval_argv(outdir),
        "trace": traced,
        "result": str(result_path),
    }
    job_path.write_text(json.dumps(job), encoding="utf-8")
    log_path = workdir / f"child{index}.log"
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(job_path)],
                                  stdout=log, stderr=subprocess.STDOUT, check=False,
                                  timeout=max(1.0, deadline - time.monotonic()))
            child_code = proc.returncode
        except subprocess.TimeoutExpired:
            child_code = "timeout"

    result = {"exit_code": child_code, "eval_exit_code": None, "wall_s": float("nan"),
              "peak_rss_kb": 0, "trace": None}
    if child_code == 0 and result_path.is_file():
        result = json.loads(result_path.read_text(encoding="utf-8"))
    manifest_path = outdir / "manifest.json"
    manifest = (json.loads(manifest_path.read_text(encoding="utf-8"))
                if manifest_path.is_file() else None)
    eval_path = outdir / "eval_dagranger.json"
    auprc = (json.loads(eval_path.read_text(encoding="utf-8"))["auprc"]
             if result["eval_exit_code"] == 0 and eval_path.is_file() else None)

    check = checks.check_run(outdir, inputs.candidates, result["exit_code"], auprc,
                             expected_auprc)
    if result["exit_code"] == 0 and auprc is None:
        check.problems.append("dagranger eval failed")
    if not check.ok:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"invocation {index} failed its checks; log tail:\n{tail}", file=sys.stderr)
    shutil.rmtree(outdir, ignore_errors=True)
    return Invocation(traced, result, manifest, auprc, check)


def _load_expected() -> dict:
    if EXPECTED_AUPRC.is_file():
        return json.loads(EXPECTED_AUPRC.read_text(encoding="utf-8"))
    return {}


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        record: bool = False) -> dict:
    """Generate inputs, measure for ``seconds`` and return the report."""
    import workloads  # imports dagranger, so only once src/ is on the path

    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    workload = workloads.WORKLOADS[workload_name]
    expected_table = _load_expected()
    expected = None if tiny or record else expected_table.get(workload_name, {}).get(str(seed))

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-{seed}-", dir=WORK_ROOT))
    try:
        parent_tracer = tracing.Tracer()
        if trace:
            parent_tracer.install(tracing.GENERATE_TARGETS)
        inputs = workloads.make_inputs(workload, seed, workdir / "bundle", tiny=tiny)

        invocations: list[Invocation] = []
        measure_start = time.monotonic()
        while True:
            traced = trace and len(invocations) % 2 == 0
            # Without a recorded value, every invocation must match the first.
            reference = expected if expected is not None or not invocations \
                else invocations[0].auprc
            invocations.append(invoke(inputs, workdir, len(invocations), traced, deadline,
                                      reference))
            # Start another invocation only if it should end within the budget.
            now = time.monotonic()
            per_invocation = (now - measure_start) / len(invocations)
            have_both = not trace or len(invocations) >= 2
            if have_both and now - measure_start + per_invocation > seconds:
                break
            if now + 1.5 * per_invocation > deadline:
                break
        measured_s = time.monotonic() - measure_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for inv in invocations for p in inv.check.problems]
    attempted = sum(inv.check.attempted for inv in invocations)
    failed = attempted - sum(inv.check.valid for inv in invocations)

    untraced = [inv for inv in invocations if not inv.traced]
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    for inv in untraced:
        if inv.check.ok:
            for name, value in inv.metrics(inputs).items():
                samples[name].append(value)
    if untraced:
        samples["valid_record_frac"] = [
            sum(inv.check.valid for inv in untraced)
            / sum(inv.check.attempted for inv in untraced)]

    per_layer: dict[str, list[float]] = {}
    missing: set[str] = set(parent_tracer.missing)
    for inv in invocations:
        if inv.traced and inv.result["trace"] is not None:
            missing |= set(inv.result["trace"]["missing"])
            for name, value in tracing.summarize(inv.result["trace"], tracing.TARGETS).items():
                per_layer.setdefault(name, []).append(value)
    if trace:
        for name, value in tracing.summarize(parent_tracer.export(),
                                             tracing.GENERATE_TARGETS).items():
            per_layer.setdefault(name, []).append(value)
        traced_wall = [inv.result["wall_s"] for inv in invocations if inv.traced]
        untraced_wall = [inv.result["wall_s"] for inv in untraced]
        if traced_wall and untraced_wall:
            per_layer["trace.overhead_s"] = [
                statistics.median(traced_wall) - statistics.median(untraced_wall)]

    digests = [inv.check.digests for inv in invocations if inv.check.digests]
    if record and not tiny and not any(inv.check.problems for inv in invocations):
        expected_table.setdefault(workload_name, {})[str(seed)] = invocations[0].auprc
        EXPECTED_AUPRC.write_text(json.dumps(expected_table, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")

    return {
        "env": environment(workload_name, seed),
        "inputs": inputs,
        "invocations": invocations,
        "measured_s": measured_s,
        "generate_s": measure_start - started,
        "samples": samples,
        "per_layer": per_layer,
        "missing": sorted(missing),
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "expected_auprc": expected,
        "digests": digests,
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(rep: dict, trace: bool) -> dict:
    """Print the human-readable report and return the result object."""
    inputs = rep["inputs"]
    shape = inputs.shape
    print("env " + json.dumps(rep["env"], sort_keys=True))
    print(f"inputs: {len(inputs.candidates)} candidate pairs, {shape.n_nodes} nodes, "
          f"L={shape.n_layers}, {shape.epochs} epochs; generated in {rep['generate_s']:.3f} s")
    n_traced = sum(inv.traced for inv in rep["invocations"])
    print(f"invocations: {len(rep['invocations'])} ({n_traced} traced) "
          f"in {rep['measured_s']:.2f} s")

    metrics = {}
    for name, unit in END_TO_END.items():
        values = rep["samples"][name]
        if not values:
            print(f"  {name:<22} no successful sample {unit}")
            continue
        value = statistics.median(values)
        samples = ", ".join(_fmt(v) for v in values)
        print(f"  {name:<22} {_fmt(value)} {unit} (median of {len(values)}: {samples})")
        metrics[name] = {"value": value, "unit": unit}
    failed_frac = rep["failed"] / rep["attempted"] if rep["attempted"] else 1.0
    print(f"  {'failed_pair_frac':<22} {_fmt(failed_frac)} fraction "
          f"({rep['failed']} of {rep['attempted']} records)")

    expected = rep["expected_auprc"]
    print(f"  {'auprc_dagranger':<22} {rep['invocations'][0].auprc!r} fraction (checked: "
          + ("no value recorded for this seed, so invocations must agree)"
             if expected is None else f"must equal the recorded {expected!r})"))
    stable = len({json.dumps(d, sort_keys=True) for d in rep["digests"]}) <= 1
    print(f"  score digests identical across invocations: {'yes' if stable else 'NO'}")
    for name, digest in (rep["digests"][0] if rep["digests"] else {}).items():
        print(f"    sha256 {name} {digest}")

    if trace:
        layer_metrics = {}
        print("per-layer (median over traced invocations):")
        for name, unit in tracing.per_layer_metrics().items():
            values = rep["per_layer"].get(name)
            if values is None:
                print(f"  {name:<40} missing")
                continue
            value = statistics.median(values)
            note = ""
            if name.endswith("_calls") and value == 0:
                note = "  (not called on this workload)"
            print(f"  {name:<40} {_fmt(value)} {unit}{note}")
            layer_metrics[name] = {"value": value, "unit": unit}
        if rep["missing"]:
            print("missing wrapped functions: " + ", ".join(rep["missing"]))
        metrics = layer_metrics

    for problem in rep["problems"]:
        print(f"CHECK FAILED: {problem}")
    return {
        "correct": not rep["problems"],
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long inputs, for the benchmark's own tests")
    parser.add_argument("--record", action="store_true",
                        help="store this seed's auprc_dagranger in expected_auprc.json, "
                             "replacing a recorded value")
    args = parser.parse_args(argv)

    if not (SRC / "dagranger" / "cli.py").is_file():
        print(f"error: dagranger source not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    rep = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, args.record)
    print(json.dumps(report(rep, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

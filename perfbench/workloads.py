"""Benchmark workloads: synthetic screen inputs made from a seed.

Every workload is a synthetic bundle from ``dagranger.synth`` (three branches,
50% zero-inflation) screened with ``dagranger run --method all`` on one worker
and a fixed epoch count (``--convergence-numerator 0``), so a change to the
numerics cannot change the amount of work.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dagranger import preprocess, synth


@dataclass(frozen=True)
class Shape:
    """Bundle size and training budget of one workload."""

    n_nodes: int
    n_x_vars: int
    n_y_vars: int
    n_causal_pairs: int
    n_candidate_pairs: int | None  # None: the full x-by-y cross product
    n_layers: int
    epochs: int
    k: int = 15  # kNN degree; used only when the DAG comes from an embedding


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    tiny: Shape  # a seconds-long variant for the benchmark's own tests
    dag_from_embedding: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # The scenario of acceptance criteria 6 and 11: batched training is
        # nearly all of the run. Three epochs, not five, so that a 30 s run
        # holds three invocations.
        Workload(
            name="acceptance",
            shape=Shape(2000, 200, 50, 50, 1000, n_layers=10, epochs=3),
            tiny=Shape(120, 10, 5, 5, 20, n_layers=2, epochs=1),
        ),
        # Many pairs on few nodes, the shape of a genome-scale screen: per-pair
        # scoring, baselines and record writing dominate; sparse products are light.
        Workload(
            name="wide",
            shape=Shape(300, 200, 100, 100, None, n_layers=2, epochs=1),
            tiny=Shape(60, 8, 5, 4, None, n_layers=2, epochs=1),
        ),
        # The only workload on the embedding path: kNN construction dominates
        # set-up, and training is tall and narrow (100 columns on 8,000 rows).
        Workload(
            name="knn-dag",
            shape=Shape(8000, 20, 10, 10, 100, n_layers=10, epochs=2),
            tiny=Shape(200, 6, 4, 3, 10, n_layers=2, epochs=1, k=5),
            dag_from_embedding=True,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Files of one generated bundle plus what the checks need to know."""

    paths: dict[str, str]
    candidates: list[tuple[str, str]]  # pair id k is candidates[k]
    shape: Shape
    dag_from_embedding: bool

    def run_argv(self, outdir) -> list[str]:
        p, s = self.paths, self.shape
        argv = [
            "run",
            "--x-matrix", p["x_matrix"], "--y-matrix", p["y_matrix"],
            "--pairs", p["pairs"], "--pseudotime", p["pseudotime"],
            "--method", "all", "--workers", "1", "--seed", "0",
            "--n-layers", str(s.n_layers), "--max-epochs", str(s.epochs),
            "--convergence-numerator", "0",
            "--outdir", str(outdir),
        ]
        if self.dag_from_embedding:
            argv += ["--embedding", p["embedding"], "--k", str(s.k)]
        else:
            argv += ["--edges", p["edges"]]
        return argv

    def eval_argv(self, outdir) -> list[str]:
        outdir = Path(outdir)
        return [
            "eval",
            "--scores", str(outdir / "scores_dagranger.jsonl"),
            "--reference", self.paths["reference"],
            "--out", str(outdir / "eval_dagranger.json"),
        ]


def make_inputs(workload: Workload, seed: int, outdir, tiny: bool = False) -> Inputs:
    """Generate the workload's bundle for ``seed`` into ``outdir``.

    The embedding of ``knn-dag`` is the bundle's pseudotime plus a seeded
    two-dimensional random projection of the x matrix; it is drawn from a
    stream separate from the bundle's, so the bundle is the same one the
    other workloads would generate for this seed and shape.
    """
    shape = workload.tiny if tiny else workload.shape
    spec = synth.SynthSpec(
        n_nodes=shape.n_nodes,
        n_branches=3,
        n_x_vars=shape.n_x_vars,
        n_y_vars=shape.n_y_vars,
        n_causal_pairs=shape.n_causal_pairs,
        n_candidate_pairs=shape.n_candidate_pairs,
        dropout_rate=0.5,
        seed=seed,
    )
    ds = synth.generate(spec)
    paths = synth.write_dataset(ds, outdir)
    if workload.dag_from_embedding:
        rng = np.random.default_rng([seed, 1])
        projection = rng.normal(size=(shape.n_x_vars, 2)) / np.sqrt(shape.n_x_vars)
        coords = np.column_stack([ds.pseudotime, ds.x_matrix @ projection])
        paths["embedding"] = str(Path(outdir) / "embedding.csv")
        preprocess.write_matrix(paths["embedding"], coords, ("pseudotime", "proj1", "proj2"))
    candidates = [(ds.x_names[xi], ds.y_names[yi]) for xi, yi in ds.candidates]
    return Inputs(paths=paths, candidates=candidates, shape=shape,
                  dag_from_embedding=workload.dag_from_embedding)

"""Command-line pipeline: build-dag, candidates, run, eval, synth.

The defaults of the training protocol (learning rate 1e-3, 20 epochs,
minibatch 1024 pairs, 10 layers, one-hop lag) are declared once, in
``train.TrainConfig``; ``RunConfig`` takes them from there.
All randomness flows from one seed recorded in the run manifest; reruns with
the same config and seed produce byte-identical score files regardless of
worker count.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 internal error
(any other exception, logged as one line without a traceback).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import sys
import time
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

from . import __version__, evaluate, graph, preprocess, score, synth, train
from .errors import ConfigError, DataError, ParseError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunConfig:
    """Everything cmd_run needs; echoed verbatim into the manifest.

    The training fields share their names and defaults with TrainConfig.
    """

    x_matrix: str
    y_matrix: str
    pairs: str
    outdir: str
    edges: str | None = None
    embedding: str | None = None
    pseudotime: str | None = None
    k: int = 15
    method: str = "dagranger"
    workers: int = 1
    learning_rate: float = train.TrainConfig.learning_rate
    max_epochs: int = train.TrainConfig.max_epochs
    minibatch_pairs: int = train.TrainConfig.minibatch_pairs
    n_layers: int = train.TrainConfig.n_layers
    lag_hops: int = train.TrainConfig.lag_hops
    convergence_numerator: float = train.TrainConfig.convergence_numerator
    seed: int = train.TrainConfig.seed
    link: str = train.TrainConfig.link
    rank_mode: str = "f"
    var_max_lag: int = 1
    pseudocell_neighborhood: int = 50

    def __post_init__(self):
        have_edges = self.edges is not None
        have_embedding = self.embedding is not None
        if have_edges == have_embedding:
            raise ConfigError("specify exactly one DAG source: --edges or --embedding")
        if have_embedding and self.pseudotime is None:
            raise ConfigError("--embedding requires --pseudotime")
        if self.method not in score.METHODS + ("all",):
            raise ConfigError(f"method must be one of {score.METHODS + ('all',)}")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class _Manifest:
    """Per-stage wall times, output checksums and counts, written once at the end."""

    def __init__(self, config: dict, seed: int):
        self.payload = {
            "config": config,
            "seed": seed,
            "version": __version__,
            "stages": {},
        }

    def stage(self, name: str):
        manifest = self

        class _Stage:
            def __enter__(self):
                self.t0 = time.perf_counter()
                self.outputs: dict[str, str] = {}
                self.counts: dict = {}
                return self

            def add(self, path):
                self.outputs[str(path)] = _sha256(path)

            def __exit__(self, exc_type, exc, tb):
                if exc_type is None:
                    manifest.payload["stages"][name] = {
                        "seconds": time.perf_counter() - self.t0,
                        "outputs": self.outputs,
                        **self.counts,
                    }
                return False

        return _Stage()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.payload, fh, sort_keys=True, indent=2)
            fh.write("\n")


def _read_config_file(path) -> dict[str, str]:
    """Flat ``key=value`` lines; ``#`` comments and blanks ignored."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _merged(args, file_config: dict, key: str, default, cast):
    cli_value = getattr(args, key.replace("-", "_"), None)
    if cli_value is not None:
        return cli_value
    if key in file_config:
        try:
            return cast(file_config[key])
        except ValueError as exc:
            raise ConfigError(f"config key {key}: {exc}") from exc
    return default


def _read_pairs_file(path, x_names, y_names) -> list[tuple[int, int]]:
    x_index = {name: i for i, name in enumerate(x_names)}
    y_index = {name: j for j, name in enumerate(y_names)}
    pairs: list[tuple[int, int]] = []
    first_line: dict[tuple[int, int], int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise ParseError(f"{path}:{lineno}: expected x_name<TAB>y_name")
            xn, yn = parts[0], parts[1]
            if xn not in x_index:
                raise DataError(f"{path}:{lineno}: unknown x variable {xn!r}")
            if yn not in y_index:
                raise DataError(f"{path}:{lineno}: unknown y variable {yn!r}")
            pair = (x_index[xn], y_index[yn])
            if pair in first_line:
                raise DataError(f"{path}:{lineno}: duplicate pair {xn!r} -> {yn!r} "
                                f"(first on line {first_line[pair]})")
            first_line[pair] = lineno
            pairs.append(pair)
    if not pairs:
        raise DataError(f"{path}: no candidate pairs")
    return pairs


def _embedding(path, coords, pt) -> preprocess.Embedding:
    """``Embedding(coords, pt)``, with ``path`` in the message of a rejection."""
    try:
        return preprocess.Embedding(coords=coords, pseudotime=pt)
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _build_dag_for_run(cfg: RunConfig, n_nodes: int, pt):
    """Returns (dag, neighbor_edges, coords).

    ``neighbor_edges`` feed the pseudocell baseline: the pre-orientation kNN
    edges when the DAG is built from an embedding, otherwise the given edge
    list itself.
    """
    coords = None
    if cfg.edges is not None:
        dag = graph.read_edge_list(cfg.edges, n_nodes=n_nodes)
        neighbor_edges = dag.edges
    else:
        emb_matrix = preprocess.read_matrix(cfg.embedding)
        if emb_matrix.values.shape[0] != n_nodes:
            raise DataError(f"{cfg.embedding} has {emb_matrix.values.shape[0]} rows but "
                            f"the matrices have {n_nodes}")
        embedding = _embedding(cfg.embedding, emb_matrix.values, pt)
        neighbor_edges = preprocess.knn_graph(embedding, cfg.k)
        dag = preprocess.orient_by_pseudotime(neighbor_edges, pt)
        coords = embedding.coords
    if dag.n_nodes != n_nodes:
        raise DataError(
            f"DAG has {dag.n_nodes} nodes but matrices have {n_nodes} rows"
        )
    return dag, neighbor_edges, coords


def _record_counts(records, n_pairs: int) -> dict:
    """What a method's manifest stage says of its records.

    ``records`` is their number, ``dropped`` the ids of candidate pairs
    without one, and ``flags`` the number of records raising each flag of
    ``score.FLAGS`` (zero for the baselines, which raise none).
    """
    scored = {rec["pair_id"] for rec in records}
    raised = Counter(flag for rec in records for flag in rec.get("flags", ()))
    return {"records": len(records),
            "dropped": [pid for pid in range(n_pairs) if pid not in scored],
            "flags": {name: raised[name] for name in score.FLAGS}}


def cmd_run(cfg: RunConfig) -> int:
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest(asdict(cfg), cfg.seed)

    with manifest.stage("load"):
        xm = preprocess.read_matrix(cfg.x_matrix)
        ym = preprocess.read_matrix(cfg.y_matrix)
        if xm.values.shape[0] != ym.values.shape[0]:
            raise DataError(f"{cfg.x_matrix} has {xm.values.shape[0]} rows but "
                            f"{cfg.y_matrix} has {ym.values.shape[0]}")
        pairs = _read_pairs_file(cfg.pairs, xm.var_names, ym.var_names)
        dataset = train.Dataset(
            x_values=xm.values, y_values=ym.values,
            x_names=xm.var_names, y_names=ym.var_names,
            pairs=tuple(pairs),
        )
        pt = preprocess.read_pseudotime(cfg.pseudotime) if cfg.pseudotime else None
        if pt is not None and pt.shape[0] != dataset.n_nodes:
            raise DataError(f"{cfg.pseudotime}: {pt.shape[0]} pseudotime values but "
                            f"the matrices have {dataset.n_nodes} rows")

    with manifest.stage("dag"):
        dag, neighbor_edges, coords = _build_dag_for_run(cfg, dataset.n_nodes, pt)
        ops = graph.lagged_operators(dag)

    tcfg = train.TrainConfig(**{
        f.name: getattr(cfg, f.name) for f in fields(train.TrainConfig) if hasattr(cfg, f.name)
    })
    methods = list(score.METHODS) if cfg.method == "all" else [cfg.method]
    for method in methods:
        with manifest.stage(method) as st:
            records = score.score_dataset(
                dataset, method, ops=ops, neighbor_edges=neighbor_edges, coords=coords,
                pseudotime=pt, config=tcfg, workers=cfg.workers, rank_mode=cfg.rank_mode,
                var_max_lag=cfg.var_max_lag,
                pseudocell_neighborhood=cfg.pseudocell_neighborhood)
            out_path = outdir / f"scores_{method.replace('-', '_')}.jsonl"
            score.write_score_records(out_path, records)
            st.add(out_path)
            st.counts = _record_counts(records, len(pairs))

    manifest.write(outdir / "manifest.json")
    return 0


def cmd_build_dag(args) -> int:
    emb_matrix = preprocess.read_matrix(args.embedding)
    pt = preprocess.read_pseudotime(args.pseudotime)
    if emb_matrix.values.shape[0] != pt.shape[0]:
        raise DataError(f"{args.embedding} has {emb_matrix.values.shape[0]} rows but "
                        f"{args.pseudotime} has {pt.shape[0]} values")
    embedding = _embedding(args.embedding, emb_matrix.values, pt)
    edges = preprocess.knn_graph(embedding, args.k)
    dag = preprocess.orient_by_pseudotime(edges, pt)
    if dag.n_edges == 0:
        logger.warning("orientation kept no edges (constant pseudotime?)")
    graph.write_edge_list(args.out_edges, dag)
    ops = graph.lagged_operators(dag)
    stats = {
        "n_nodes": dag.n_nodes,
        "n_edges": dag.n_edges,
        "n_roots": int((dag.in_degree == 0).sum()),
        "max_in_degree": int(dag.in_degree.max()) if dag.n_nodes else 0,
        "a_nonzeros": int(ops.a.nnz),
    }
    with open(args.out_stats, "w", encoding="utf-8") as fh:
        json.dump(stats, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(json.dumps(stats, sort_keys=True))
    return 0


def _read_positions(path) -> dict[str, tuple[str, float]]:
    """TSV ``name<TAB>sequence_key<TAB>position``."""
    out: dict[str, tuple[str, float]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(f"{path}:{lineno}: expected name, key, position")
            try:
                out[parts[0]] = (parts[1], float(parts[2]))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-numeric position") from exc
    return out


def cmd_candidates(args) -> int:
    x_names = preprocess.read_matrix(args.x_matrix).var_names
    y_names = preprocess.read_matrix(args.y_matrix).var_names
    have_positions = args.x_positions is not None and args.y_positions is not None
    with open(args.out_pairs, "w", encoding="utf-8") as fh:
        if not have_positions:
            for xn in x_names:
                for yn in y_names:
                    fh.write(f"{xn}\t{yn}\n")
        else:
            xpos = _read_positions(args.x_positions)
            ypos = _read_positions(args.y_positions)
            for xn in x_names:
                if xn not in xpos:
                    continue
                xkey, xp = xpos[xn]
                for yn in y_names:
                    if yn not in ypos:
                        continue
                    ykey, yp = ypos[yn]
                    if xkey == ykey and abs(xp - yp) <= args.max_distance:
                        fh.write(f"{xn}\t{yn}\n")
    return 0


def cmd_eval(args) -> int:
    records = score.read_score_records(args.scores)
    if not records:
        raise DataError(f"{args.scores}: no score records")
    for i, rec in enumerate(records, start=1):
        names_ok = isinstance(rec.get("x_name"), str) and isinstance(rec.get("y_name"), str)
        value = rec.get("score")
        if (not names_ok or isinstance(value, bool) or not isinstance(value, (int, float))
                or math.isnan(value)):
            raise DataError(f"{args.scores}: record {i} needs string x_name and y_name "
                            "and a numeric score")
    method = records[0].get("method", "unknown")
    reference = evaluate.read_reference(args.reference)
    candidates = [(r["x_name"], r["y_name"]) for r in records]
    labeled = evaluate.label_from_reference(
        candidates, reference, args.true_threshold, args.false_threshold,
        provenance=str(args.reference),
    )
    keyed = {(r["x_name"], r["y_name"]): r["score"] for r in records}
    pairs = sorted(labeled.labels)
    scores_vec = [keyed[p] for p in pairs]
    labels_vec = [labeled.labels[p] for p in pairs]
    auprc_value = evaluate.auprc(scores_vec, labels_vec)
    auroc_value = evaluate.auroc(scores_vec, labels_vec)
    evaluate.write_metric_report(
        args.out, method, auprc_value, auroc_value, labeled.n_true, labeled.n_false)
    print(json.dumps({"method": method, "auprc": auprc_value, "auroc": auroc_value}))
    return 0


def cmd_synth(args) -> int:
    spec = synth.SynthSpec(
        n_nodes=args.n_nodes,
        n_branches=args.n_branches,
        depth=args.depth,
        k_neighbors=args.k_neighbors,
        n_x_vars=args.n_x_vars,
        n_y_vars=args.n_y_vars,
        n_causal_pairs=args.n_causal_pairs,
        lag_steps=args.lag_steps,
        coupling=args.coupling,
        noise_sd=args.noise_sd,
        nonlinearity=args.nonlinearity,
        dropout_rate=args.dropout_rate,
        seed=args.seed,
        n_candidate_pairs=args.n_candidate_pairs,
    )
    ds = synth.generate(spec)
    paths = synth.write_dataset(ds, args.outdir)
    print(json.dumps(paths, sort_keys=True))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dagranger",
        description="Granger-causal screening of variable pairs on a DAG",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dag = sub.add_parser("build-dag", help="kNN graph + pseudotime orientation")
    p_dag.add_argument("--embedding", required=True)
    p_dag.add_argument("--pseudotime", required=True)
    p_dag.add_argument("--k", type=int, default=RunConfig.k)
    p_dag.add_argument("--out-edges", required=True)
    p_dag.add_argument("--out-stats", required=True)

    p_cand = sub.add_parser("candidates", help="emit the candidate pair file")
    p_cand.add_argument("--x-matrix", required=True)
    p_cand.add_argument("--y-matrix", required=True)
    p_cand.add_argument("--x-positions")
    p_cand.add_argument("--y-positions")
    p_cand.add_argument("--max-distance", type=float, default=1e6)
    p_cand.add_argument("--out-pairs", required=True)

    p_run = sub.add_parser("run", help="train, score and rank all candidate pairs")
    p_run.add_argument("--config", help="flat key=value file; flags override")
    p_run.add_argument("--x-matrix")
    p_run.add_argument("--y-matrix")
    p_run.add_argument("--pairs")
    p_run.add_argument("--outdir")
    p_run.add_argument("--edges")
    p_run.add_argument("--embedding")
    p_run.add_argument("--pseudotime")
    p_run.add_argument("--k", type=int)
    p_run.add_argument("--method", choices=score.METHODS + ("all",))
    p_run.add_argument("--workers", type=int)
    p_run.add_argument("--learning-rate", type=float)
    p_run.add_argument("--max-epochs", type=int)
    p_run.add_argument("--minibatch-pairs", type=int)
    p_run.add_argument("--n-layers", type=int)
    p_run.add_argument("--lag-hops", type=int)
    p_run.add_argument("--convergence-numerator", type=float)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--link", choices=("identity", "exponential"))
    p_run.add_argument("--rank-mode", choices=score.RANK_MODES)
    p_run.add_argument("--var-max-lag", type=int)
    p_run.add_argument("--pseudocell-neighborhood", type=int)

    p_eval = sub.add_parser("eval", help="AUPRC/AUROC of a score file vs a reference")
    p_eval.add_argument("--scores", required=True)
    p_eval.add_argument("--reference", required=True)
    p_eval.add_argument("--true-threshold", type=float, default=1e-10)
    p_eval.add_argument("--false-threshold", type=float, default=0.9)
    p_eval.add_argument("--out", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic benchmark bundle")
    p_synth.add_argument("--n-nodes", type=int, required=True)
    p_synth.add_argument("--n-branches", type=int, default=1)
    p_synth.add_argument("--depth", type=int, default=10)
    p_synth.add_argument("--k-neighbors", type=int, default=15)
    p_synth.add_argument("--n-x-vars", type=int, default=10)
    p_synth.add_argument("--n-y-vars", type=int, default=5)
    p_synth.add_argument("--n-causal-pairs", type=int, default=5)
    p_synth.add_argument("--lag-steps", type=int, default=2)
    p_synth.add_argument("--coupling", type=float, default=1.0)
    p_synth.add_argument("--noise-sd", type=float, default=0.3)
    p_synth.add_argument("--nonlinearity", choices=synth.NONLINEARITIES, default="tanh")
    p_synth.add_argument("--dropout-rate", type=float, default=0.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--n-candidate-pairs", type=int)
    p_synth.add_argument("--outdir", required=True)
    return parser


def _run_config_from_args(args) -> RunConfig:
    """Flags over config-file values over the RunConfig defaults."""
    file_config = _read_config_file(args.config) if args.config else {}
    values = {}
    for f in fields(RunConfig):
        default = None if f.default is MISSING else f.default
        cast = str if default is None else type(default)
        value = _merged(args, file_config, f.name, default, cast)
        if value is None and f.default is MISSING:
            raise ConfigError(f"missing required option --{f.name.replace('_', '-')}")
        values[f.name] = value
    return RunConfig(**values)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(_run_config_from_args(args))
        if args.command == "build-dag":
            return cmd_build_dag(args)
        if args.command == "candidates":
            return cmd_candidates(args)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "synth":
            return cmd_synth(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        logger.error("configuration error: %s", exc)
        return 2
    except (DataError, FileNotFoundError) as exc:
        logger.error("data error: %s", exc)
        return 3
    except Exception as exc:
        logger.error("internal error: %s: %s", type(exc).__name__, exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())

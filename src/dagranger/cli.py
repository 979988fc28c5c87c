"""Command-line pipeline: build-dag, candidates, run, eval, synth.

The ``run`` and ``synth`` flags are the fields of ``RunConfig`` and
``synth.SynthSpec`` (``_add_fields``), so each option and its default is
declared once, in a dataclass that also checks its range. The training
protocol's defaults (learning rate 1e-3, 20 epochs, 10 layers, one-hop lag)
live in ``train.TrainConfig``, and ``RunConfig`` takes them from there. Its
minibatch of 1,024 pairs has no setting: no parameter is shared between
pairs, so they train in pair-id order, unshuffled, in chunks of at most
``train._CHUNK`` pairs that bound a pass's memory.
All randomness flows from one seed recorded in the run manifest; reruns with
the same config and seed produce byte-identical score files regardless of
worker count. ``run`` carries the candidate pairs and the score records as
columns from the pairs file to the score files; each method's manifest stage
summarizes its columns (``_record_counts``).

Exit codes: 0 success, 2 configuration error, 3 data error, 4 internal error
(any other exception, logged as one line without a traceback).
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import math
import sys
import time
import typing
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, baselines, evaluate, graph, model, preprocess, score, synth, train
from .errors import ConfigError, DataError
from .textio import cited, numbered_lines, text_file

logger = logging.getLogger(__name__)

# The choices of each option that takes one, as the modules declare them.
_CHOICES = {"method": score.METHODS + ("all",), "link": model.LINKS,
            "rank_mode": score.RANK_MODES, "nonlinearity": synth.NONLINEARITIES}


@dataclass(frozen=True)
class RunConfig:
    """Everything cmd_run needs; echoed verbatim into the manifest.

    Each field is a ``run`` flag and a config-file key. The training fields
    share their names and defaults with TrainConfig, which checks them.
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
        if self.pseudotime is None:
            if have_embedding:
                raise ConfigError("--embedding requires --pseudotime")
            if self.method in ("all", "var-granger"):
                raise ConfigError(f"--method {self.method} requires --pseudotime")
        for name in ("method", "rank_mode"):
            if getattr(self, name) not in _CHOICES[name]:
                raise ConfigError(f"{name} must be one of {_CHOICES[name]}, "
                                  f"got {getattr(self, name)!r}")
        for name, low in (("k", 1), ("pseudocell_neighborhood", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        # More workers than a chunk has pairs would only add threads and
        # workspace segments; a VAR fit of L lags needs 3L + 2 pseudotime bins.
        for name, high in (("workers", train._MAX_WORKERS),
                           ("var_max_lag", (baselines._N_BINS - 2) // 3)):
            if not 1 <= getattr(self, name) <= high:
                raise ConfigError(f"{name} must be in [1, {high}], got {getattr(self, name)}")
        self.train_config()  # TrainConfig checks the training fields

    def train_config(self) -> train.TrainConfig:
        return train.TrainConfig(**{f.name: getattr(self, f.name)
                                    for f in fields(train.TrainConfig)})


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

    @contextlib.contextmanager
    def stage(self, name: str):
        """Times a stage and yields its entry (``outputs``, counts); a failed stage leaves none."""
        t0 = time.perf_counter()
        entry: dict = {"outputs": {}}
        yield entry
        self.payload["stages"][name] = {"seconds": time.perf_counter() - t0, **entry}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.payload, fh, sort_keys=True, indent=2)
            fh.write("\n")


def _read_config_file(path, keys) -> dict[str, str]:
    """Flat ``key=value`` lines, each key one of ``keys`` and given once.

    ``#`` comments and blank lines are ignored.
    """
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in numbered_lines(path):
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} "
                              f"(first on line {first_line[key]})")
        first_line[key] = lineno
        out[key] = value.strip()
    return out


def _read_pairs_file(path, x_names, y_names) -> np.ndarray:
    """The candidate pairs as a ``(P, 2)`` array of (x index, y index), in file order.

    A file of plain ``x_name<TAB>y_name`` lines is read at once: one split
    of its text into names, which must join back into that text, and name
    lookups by ``map``. Any other file (comment, blank or padded lines,
    extra fields, names with whitespace), and one with an unknown name, a
    duplicate pair or no pair, is read again line by line
    (``_read_pairs_lines``), which skips what it may skip and names the
    first bad line.
    """
    x_index = {name: i for i, name in enumerate(x_names)}
    y_index = {name: j for j, name in enumerate(y_names)}
    with text_file(path) as fh:
        text = fh.read()
    words = text.split()
    xs, ys = words[::2], words[1::2]
    if (xs and "\n".join(map("\t".join, zip(xs, ys))) == text.rstrip("\n")
            and not text.startswith("#") and "\n#" not in text):
        try:
            xs, ys = (np.fromiter(map(index.__getitem__, names), dtype=np.int64,
                                  count=len(names))
                      for index, names in ((x_index, xs), (y_index, ys)))
        except KeyError:
            pass
        else:
            if np.diff(np.sort(xs * len(y_names) + ys)).all():  # no duplicate pair
                return np.column_stack((xs, ys))
    return _read_pairs_lines(path, x_index, y_index, len(y_names))


def _read_pairs_lines(path, x_index, y_index, n_y) -> np.ndarray:
    """``_read_pairs_file`` line by line, raising the error of the first bad line."""
    first_line: dict[int, int] = {}  # pair code x index * n_y + y index -> line
    for lineno, line in numbered_lines(path):
        parts = line.split("\t")
        if len(parts) < 2:
            raise DataError(f"{path}:{lineno}: expected x_name<TAB>y_name")
        xn, yn = parts[0], parts[1]
        if xn not in x_index:
            raise DataError(f"{path}:{lineno}: unknown x variable {xn!r}")
        if yn not in y_index:
            raise DataError(f"{path}:{lineno}: unknown y variable {yn!r}")
        code = x_index[xn] * n_y + y_index[yn]
        if code in first_line:
            raise DataError(f"{path}:{lineno}: duplicate pair {xn!r} -> {yn!r} "
                            f"(first on line {first_line[code]})")
        first_line[code] = lineno
    if not first_line:
        raise DataError(f"{path}: no candidate pairs")
    codes = np.fromiter(first_line, dtype=np.int64, count=len(first_line))
    return np.column_stack(np.divmod(codes, n_y))


def _build_dag_for_run(cfg: RunConfig, n_nodes: int, pt):
    """Returns (dag, neighbor_edges, coords).

    ``neighbor_edges`` feed the pseudocell baseline: the pre-orientation kNN
    edges when the DAG is built from an embedding, otherwise the given edge
    list itself.
    """
    if cfg.edges is None:
        return _dag_from_embedding(cfg.embedding, pt, cfg.k, f"the matrices have {n_nodes}")
    dag = graph.read_edge_list(cfg.edges, n_nodes=n_nodes)
    return dag, dag.edges, None


def _dag_from_embedding(path, pt, k: int, rows_wanted: str):
    """(dag, kNN edges, coords): the embedding in ``path``'s ``k``-NN graph, oriented by ``pt``.

    The embedding must have a row per pseudotime value; ``rows_wanted``
    ends the error message that says how many it has instead.
    """
    coords = preprocess.read_matrix(path).values
    if coords.shape[0] != pt.shape[0]:
        raise DataError(f"{path} has {coords.shape[0]} rows but {rows_wanted}")
    with cited(path):
        embedding = preprocess.Embedding(coords=coords, pseudotime=pt)
    edges = preprocess.knn_graph(embedding, k)
    return preprocess.orient_by_pseudotime(edges, pt), edges, embedding.coords


def _record_counts(columns, n_pairs: int) -> dict:
    """What a method's manifest stage says of its score columns.

    ``records`` is their number, ``dropped`` the ids of candidate pairs
    without one, ``flags`` the number of records raising each flag of
    ``score.FLAGS`` (zero for the baselines, which raise none) and
    ``nan_scores`` the number of NaN scores. Each p-value field adds its
    ``min``, ``median`` and ``max`` over the non-NaN values (None when there
    are none) and ``equal_to_1``, the number of p-values equal to 1.
    """
    flags = columns.get("flags", np.zeros(0, dtype=np.int64))
    counts = {"records": columns["pair_id"].size,
              "dropped": np.setdiff1d(np.arange(n_pairs), columns["pair_id"]).tolist(),
              "flags": {name: int(np.count_nonzero(flags >> bit & 1))
                        for bit, name in enumerate(score.FLAGS)},
              "nan_scores": int(np.isnan(columns["score"]).sum())}
    for field in ("f_pvalue", "t_pvalue"):
        if field in columns:
            p = columns[field][~np.isnan(columns[field])]
            summary = ([float(p.min()), float(np.median(p)), float(p.max())] if p.size
                       else [None] * 3)
            counts[field] = {**dict(zip(("min", "median", "max"), summary)),
                             "equal_to_1": int((p == 1.0).sum())}
    return counts


def cmd_run(cfg: RunConfig) -> int:
    outdir = Path(cfg.outdir)
    manifest = _Manifest(asdict(cfg), cfg.seed)

    with manifest.stage("load"):
        xm = preprocess.read_matrix(cfg.x_matrix)
        ym = preprocess.read_matrix(cfg.y_matrix)
        if xm.values.shape[0] != ym.values.shape[0]:
            raise DataError(f"{cfg.x_matrix} has {xm.values.shape[0]} rows but "
                            f"{cfg.y_matrix} has {ym.values.shape[0]}")
        dataset = train.Dataset(
            x_values=xm.values, y_values=ym.values,
            x_names=xm.var_names, y_names=ym.var_names,
            pairs=_read_pairs_file(cfg.pairs, xm.var_names, ym.var_names),
        )
        pt = preprocess.read_pseudotime(cfg.pseudotime) if cfg.pseudotime else None
        if pt is not None and pt.shape[0] != dataset.n_nodes:
            raise DataError(f"{cfg.pseudotime}: {pt.shape[0]} pseudotime values but "
                            f"the matrices have {dataset.n_nodes} rows")

    with manifest.stage("dag"):
        dag, neighbor_edges, coords = _build_dag_for_run(cfg, dataset.n_nodes, pt)
        ops = graph.lagged_operators(dag)

    tcfg = cfg.train_config()
    methods = list(score.METHODS) if cfg.method == "all" else [cfg.method]
    for method in methods:
        with manifest.stage(method) as st:
            columns = score.score_dataset(
                dataset, method, ops=ops, neighbor_edges=neighbor_edges, coords=coords,
                pseudotime=pt, config=tcfg, workers=cfg.workers, rank_mode=cfg.rank_mode,
                var_max_lag=cfg.var_max_lag,
                pseudocell_neighborhood=cfg.pseudocell_neighborhood)
            out_path = outdir / f"scores_{method.replace('-', '_')}.jsonl"
            outdir.mkdir(parents=True, exist_ok=True)  # no input error leaves it behind
            score.write_score_records(out_path, columns)
            st["outputs"][str(out_path)] = _sha256(out_path)
            st.update(_record_counts(columns, len(dataset.pairs)))

    manifest.write(outdir / "manifest.json")
    return 0


def cmd_build_dag(args) -> int:
    pt = preprocess.read_pseudotime(args.pseudotime)
    dag, _, _ = _dag_from_embedding(args.embedding, pt, args.k,
                                    f"{args.pseudotime} has {pt.shape[0]} values")
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
    for lineno, line in numbered_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected name, key, position")
        try:
            out[parts[0]] = (parts[1], float(parts[2]))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-numeric position") from exc
    return out


def cmd_candidates(args) -> int:
    if (args.x_positions is None) != (args.y_positions is None):
        raise ConfigError("--x-positions and --y-positions must be given together")
    x_names = preprocess.read_matrix(args.x_matrix).var_names
    y_names = preprocess.read_matrix(args.y_matrix).var_names
    pairs = ((xn, yn) for xn in x_names for yn in y_names)
    if args.x_positions is not None:  # read before the output file is opened
        xpos = _read_positions(args.x_positions)
        ypos = _read_positions(args.y_positions)
        pairs = ((xn, yn) for xn, yn in pairs if xn in xpos and yn in ypos
                 and xpos[xn][0] == ypos[yn][0]
                 and abs(xpos[xn][1] - ypos[yn][1]) <= args.max_distance)
    with open(args.out_pairs, "w", encoding="utf-8") as fh:
        fh.writelines(f"{xn}\t{yn}\n" for xn, yn in pairs)
    return 0


def cmd_eval(args) -> int:
    t_true, t_false = args.true_threshold, args.false_threshold
    if not (math.isfinite(t_true) and math.isfinite(t_false) and t_true <= t_false):
        raise ConfigError(f"--true-threshold ({t_true}) and --false-threshold ({t_false}) "
                          "must be finite, the first not above the second")
    records = score.read_score_records(args.scores)
    if not records:
        raise DataError(f"{args.scores}: no score records")
    first: dict[tuple[str, str], int] = {}  # pair -> number of its record
    for i, rec in enumerate(records, start=1):
        names_ok = isinstance(rec.get("x_name"), str) and isinstance(rec.get("y_name"), str)
        value = rec.get("score")
        if (not names_ok or isinstance(value, bool) or not isinstance(value, (int, float))
                or math.isnan(value)):
            raise DataError(f"{args.scores}: record {i} needs string x_name and y_name "
                            "and a numeric score")
        pair = (rec["x_name"], rec["y_name"])
        if pair in first:
            raise DataError(f"{args.scores}: record {i} repeats the pair {pair[0]!r} -> "
                            f"{pair[1]!r} of record {first[pair]}")
        first[pair] = i
    method = records[0].get("method", "unknown")
    reference = evaluate.read_reference(args.reference)
    keyed = {(r["x_name"], r["y_name"]): r["score"] for r in records}
    with cited(f"{args.scores} against {args.reference}"):
        labels = evaluate.label_from_reference(
            keyed, reference, args.true_threshold, args.false_threshold)
        scores_vec = [keyed[p] for p in labels]
        labels_vec = list(labels.values())
        auprc_value = evaluate.auprc(scores_vec, labels_vec)
        auroc_value = evaluate.auroc(scores_vec, labels_vec)
    n_true = sum(labels_vec)
    evaluate.write_metric_report(
        args.out, method, auprc_value, auroc_value, n_true, len(labels_vec) - n_true)
    print(json.dumps({"method": method, "auprc": auprc_value, "auroc": auroc_value}))
    return 0


def cmd_synth(args) -> int:
    spec = synth.SynthSpec(**{f.name: getattr(args, f.name) for f in fields(synth.SynthSpec)})
    ds = synth.generate(spec)
    paths = synth.write_dataset(ds, args.outdir)
    print(json.dumps(paths, sort_keys=True))
    return 0


def _field_types(cls) -> dict[str, type]:
    """The annotation of each field of the dataclass ``cls``, without ``| None``."""
    return {name: next((t for t in typing.get_args(hint) if t is not type(None)), hint)
            for name, hint in typing.get_type_hints(cls).items()}


def _add_fields(parser, cls, defaults: bool) -> None:
    """One ``--kebab-name`` flag per field of the dataclass ``cls``.

    A flag's type is its field's (``_field_types``) and its choices are
    those of ``_CHOICES``. With ``defaults`` a flag defaults to its field's
    default and a field without one is required; without, every flag
    defaults to None, so that a flag left out can give way to a config file.
    """
    types = _field_types(cls)
    for f in fields(cls):
        default = None if f.default is MISSING or not defaults else f.default
        parser.add_argument("--" + f.name.replace("_", "-"), type=types[f.name],
                            choices=_CHOICES.get(f.name), default=default,
                            required=defaults and f.default is MISSING)


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
    _add_fields(p_run, RunConfig, defaults=False)

    p_eval = sub.add_parser("eval", help="AUPRC/AUROC of a score file vs a reference")
    p_eval.add_argument("--scores", required=True)
    p_eval.add_argument("--reference", required=True)
    p_eval.add_argument("--true-threshold", type=float, default=1e-10)
    p_eval.add_argument("--false-threshold", type=float, default=0.9)
    p_eval.add_argument("--out", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic benchmark bundle")
    _add_fields(p_synth, synth.SynthSpec, defaults=True)
    p_synth.add_argument("--outdir", required=True)
    return parser


def _run_config_from_args(args) -> RunConfig:
    """Flags over config-file values over the RunConfig defaults."""
    types = _field_types(RunConfig)
    file_config = _read_config_file(args.config, types) if args.config else {}
    values = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name)
        if value is None and f.name in file_config:
            try:
                value = types[f.name](file_config[f.name])
            except ValueError as exc:
                raise ConfigError(f"config key {f.name}: {exc}") from exc
        if value is None and f.default is MISSING:
            raise ConfigError(f"missing required option --{f.name.replace('_', '-')}")
        values[f.name] = f.default if value is None else value
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
    except (DataError, FileNotFoundError, IsADirectoryError) as exc:
        logger.error("data error: %s", exc)
        return 3
    except Exception as exc:
        logger.error("internal error: %s: %s", type(exc).__name__, exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())

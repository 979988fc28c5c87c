import json
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagranger.cli import RunConfig, _build_parser, _run_config_from_args, main
from dagranger.errors import DataError
from dagranger.evaluate import auprc, read_reference
from dagranger.preprocess import write_matrix, write_pseudotime
from dagranger.synth import SynthSpec, generate, write_dataset


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """A small synthetic dataset written in the on-disk formats."""
    outdir = tmp_path_factory.mktemp("bundle")
    spec = SynthSpec(n_nodes=120, n_branches=2, depth=10, k_neighbors=3,
                     n_x_vars=6, n_y_vars=4, n_causal_pairs=3,
                     coupling=1.5, noise_sd=0.2, dropout_rate=0.2, seed=21)
    ds = generate(spec)
    paths = write_dataset(ds, outdir)
    return ds, paths, outdir


def run_cli(*args):
    return main([str(a) for a in args])


class TestParser:
    # the run and synth flags are built from the fields of RunConfig and
    # SynthSpec: their flag sets, and their defaults, are those of the
    # dataclasses
    RUN_FLAGS = ["--config", "--x-matrix", "--y-matrix", "--pairs", "--outdir", "--edges",
                 "--embedding", "--pseudotime", "--k", "--method", "--workers",
                 "--learning-rate", "--max-epochs", "--n-layers", "--lag-hops",
                 "--convergence-numerator", "--seed", "--link", "--rank-mode", "--var-max-lag",
                 "--pseudocell-neighborhood"]
    SYNTH_FLAGS = ["--n-nodes", "--n-branches", "--depth", "--k-neighbors", "--n-x-vars",
                   "--n-y-vars", "--n-causal-pairs", "--lag-steps", "--coupling", "--noise-sd",
                   "--nonlinearity", "--dropout-rate", "--seed", "--n-candidate-pairs",
                   "--outdir"]

    @staticmethod
    def flags(command):
        sub = next(a for a in _build_parser()._actions if a.dest == "command")
        return [a.option_strings[0] for a in sub.choices[command]._actions[1:]]

    def test_flag_sets(self):
        assert self.flags("run") == self.RUN_FLAGS
        assert self.flags("synth") == self.SYNTH_FLAGS

    def test_run_defaults_are_the_run_config_defaults(self):
        args = _build_parser().parse_args(["run", "--x-matrix", "x.csv", "--y-matrix", "y.csv",
                                           "--pairs", "p.tsv", "--outdir", "o",
                                           "--edges", "e.tsv"])
        assert _run_config_from_args(args) == RunConfig(x_matrix="x.csv", y_matrix="y.csv",
                                                        pairs="p.tsv", outdir="o", edges="e.tsv")

    def test_synth_defaults_are_the_spec_defaults(self):
        args = _build_parser().parse_args(["synth", "--n-nodes", "50", "--outdir", "o"])
        assert SynthSpec(**{k: v for k, v in vars(args).items()
                            if k not in ("command", "outdir")}) == SynthSpec(n_nodes=50)

    @pytest.mark.parametrize("argv", [["synth", "--outdir", "o"], ["synth", "--n-nodes", "50"],
                                      ["run", "--minibatch-pairs", "2"],
                                      ["run", "--link", "logistic"]])
    def test_missing_or_unknown_flag_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestEntryPoint:
    def test_module_invocation(self):
        import subprocess, sys

        proc = subprocess.run(
            [sys.executable, "-m", "dagranger.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "build-dag" in proc.stdout and "synth" in proc.stdout


    def test_csv_run_does_not_import_scipy_io(self, bundle, tmp_path):
        import os, subprocess, sys

        import dagranger

        _, paths, _ = bundle
        argv = ["run", "--x-matrix", paths["x_matrix"], "--y-matrix", paths["y_matrix"],
                "--pairs", paths["pairs"], "--edges", paths["edges"],
                "--pseudotime", paths["pseudotime"], "--method", "all", "--max-epochs", 1,
                "--n-layers", 2, "--outdir", tmp_path / "out"]
        script = ("import sys; from dagranger.cli import main; "
                  f"code = main({[str(a) for a in argv]!r}); "
                  "print(code, 'scipy.io' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ,
                                   "PYTHONPATH": str(Path(dagranger.__file__).parents[1])})
        assert proc.stdout.split() == ["0", "False"], proc.stderr


class TestSynthCommand:
    def test_writes_bundle(self, tmp_path, capsys):
        code = run_cli("synth", "--n-nodes", 60, "--depth", 6, "--n-x-vars", 3,
                       "--n-y-vars", 2, "--n-causal-pairs", 1, "--seed", 4,
                       "--outdir", tmp_path / "out")
        assert code == 0
        paths = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        for key in ("x_matrix", "y_matrix", "edges", "pseudotime", "pairs", "truth"):
            assert Path(paths[key]).exists()


    @pytest.mark.parametrize("option, value", [
        ("coupling", "nan"), ("noise_sd", -1), ("noise_sd", "inf"), ("n_x_vars", 0),
        ("n_y_vars", 0), ("n_causal_pairs", -1)])
    def test_out_of_range_option_is_config_error(self, tmp_path, caplog, option, value):
        # checked before anything is written: the output directory is not made
        code = run_cli("synth", "--n-nodes", 40, "--depth", 4, "--outdir", tmp_path / "o",
                       f"--{option.replace('_', '-')}", value)
        assert code == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].startswith(f"configuration error: {option} ")
        assert not (tmp_path / "o").exists()


class TestBuildDagCommand:
    def test_forced_chain(self, tmp_path, capsys):
        # spacing makes each node's nearest neighbor unambiguous
        write_matrix(tmp_path / "emb.csv", np.array([[0.0], [1.0], [1.8]]), ["d0"])
        write_pseudotime(tmp_path / "pt.txt", np.array([0.0, 0.5, 1.0]))
        code = run_cli("build-dag", "--embedding", tmp_path / "emb.csv",
                       "--pseudotime", tmp_path / "pt.txt", "--k", 1,
                       "--out-edges", tmp_path / "edges.tsv",
                       "--out-stats", tmp_path / "stats.json")
        assert code == 0
        lines = [l for l in (tmp_path / "edges.tsv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines == ["0\t1", "1\t2"]
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["n_nodes"] == 3 and stats["n_edges"] == 2

    def test_constant_pseudotime_empty_graph(self, tmp_path):
        write_matrix(tmp_path / "emb.csv", np.arange(4.0)[:, None], ["d0"])
        write_pseudotime(tmp_path / "pt.txt", np.zeros(4))
        code = run_cli("build-dag", "--embedding", tmp_path / "emb.csv",
                       "--pseudotime", tmp_path / "pt.txt", "--k", 2,
                       "--out-edges", tmp_path / "edges.tsv",
                       "--out-stats", tmp_path / "stats.json")
        assert code == 0
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["n_edges"] == 0

    def test_missing_pseudotime_file(self, tmp_path):
        write_matrix(tmp_path / "emb.csv", np.arange(4.0)[:, None], ["d0"])
        code = run_cli("build-dag", "--embedding", tmp_path / "emb.csv",
                       "--pseudotime", tmp_path / "missing.txt", "--k", 1,
                       "--out-edges", tmp_path / "e.tsv",
                       "--out-stats", tmp_path / "s.json")
        assert code == 3

    def test_overflowing_embedding_names_the_file(self, tmp_path, caplog):
        write_matrix(tmp_path / "emb.csv", np.array([[0.0], [1e200], [2e200]]), ["d0"])
        write_pseudotime(tmp_path / "pt.txt", np.array([0.0, 0.5, 1.0]))
        code = run_cli("build-dag", "--embedding", tmp_path / "emb.csv",
                       "--pseudotime", tmp_path / "pt.txt", "--k", 1,
                       "--out-edges", tmp_path / "e.tsv",
                       "--out-stats", tmp_path / "s.json")
        assert code == 3
        assert any("emb.csv" in r.getMessage() for r in caplog.records if r.levelname == "ERROR")


class TestCandidatesCommand:
    def _matrices(self, tmp_path):
        write_matrix(tmp_path / "x.csv", np.zeros((2, 3)), ["p1", "p2", "p3"])
        write_matrix(tmp_path / "y.csv", np.zeros((2, 2)), ["g1", "g2"])

    def test_full_cross_product_without_positions(self, tmp_path):
        self._matrices(tmp_path)
        code = run_cli("candidates", "--x-matrix", tmp_path / "x.csv",
                       "--y-matrix", tmp_path / "y.csv",
                       "--out-pairs", tmp_path / "pairs.tsv")
        assert code == 0
        assert len((tmp_path / "pairs.tsv").read_text().splitlines()) == 6

    def test_distance_rule(self, tmp_path):
        self._matrices(tmp_path)
        (tmp_path / "xp.tsv").write_text("p1\tchr1\t100\np2\tchr1\t5000\np3\tchr2\t100\n")
        (tmp_path / "yp.tsv").write_text("g1\tchr1\t600\ng2\tchr2\t90000\n")
        code = run_cli("candidates", "--x-matrix", tmp_path / "x.csv",
                       "--y-matrix", tmp_path / "y.csv",
                       "--x-positions", tmp_path / "xp.tsv",
                       "--y-positions", tmp_path / "yp.tsv",
                       "--max-distance", 1000,
                       "--out-pairs", tmp_path / "pairs.tsv")
        assert code == 0
        pairs = (tmp_path / "pairs.tsv").read_text().splitlines()
        assert pairs == ["p1\tg1"]  # p2 too far, p3 wrong key, g2 too far

    def test_zero_distance_empty(self, tmp_path):
        self._matrices(tmp_path)
        (tmp_path / "xp.tsv").write_text("p1\tchr1\t100\n")
        (tmp_path / "yp.tsv").write_text("g1\tchr1\t600\n")
        code = run_cli("candidates", "--x-matrix", tmp_path / "x.csv",
                       "--y-matrix", tmp_path / "y.csv",
                       "--x-positions", tmp_path / "xp.tsv",
                       "--y-positions", tmp_path / "yp.tsv",
                       "--max-distance", 0,
                       "--out-pairs", tmp_path / "pairs.tsv")
        assert code == 0
        assert (tmp_path / "pairs.tsv").read_text() == ""

    def test_bad_positions_file_keeps_the_pairs_file(self, tmp_path):
        # the positions are read before the output is opened, so a rejected
        # file leaves an existing pairs file as it was
        self._matrices(tmp_path)
        (tmp_path / "xp.tsv").write_text("p1\tchr1\t100\n")
        (tmp_path / "yp.tsv").write_text("g1\tchr1\n")
        (tmp_path / "pairs.tsv").write_text("p1\tg1\n")
        code = run_cli("candidates", "--x-matrix", tmp_path / "x.csv",
                       "--y-matrix", tmp_path / "y.csv",
                       "--x-positions", tmp_path / "xp.tsv",
                       "--y-positions", tmp_path / "yp.tsv",
                       "--out-pairs", tmp_path / "pairs.tsv")
        assert code == 3
        assert (tmp_path / "pairs.tsv").read_text() == "p1\tg1\n"


class TestRunCommand:
    def test_pearson_bypasses_training(self, bundle, tmp_path):
        ds, paths, _ = bundle
        outdir = tmp_path / "run"
        code = run_cli("run", "--x-matrix", paths["x_matrix"], "--y-matrix",
                       paths["y_matrix"], "--pairs", paths["pairs"],
                       "--edges", paths["edges"], "--pseudotime", paths["pseudotime"],
                       "--method", "pearson", "--outdir", outdir)
        assert code == 0
        records = [json.loads(l) for l in
                   (outdir / "scores_pearson.jsonl").read_text().splitlines()]
        assert len(records) == len(ds.candidates)
        assert all(0.0 <= r["score"] <= 1.0 for r in records)
        assert sorted(r["rank"] for r in records) == list(range(1, len(records) + 1))

    def test_dagranger_end_to_end_with_manifest(self, bundle, tmp_path):
        ds, paths, _ = bundle
        outdir = tmp_path / "run"
        code = run_cli("run", "--x-matrix", paths["x_matrix"], "--y-matrix",
                       paths["y_matrix"], "--pairs", paths["pairs"],
                       "--edges", paths["edges"],
                       "--method", "dagranger", "--outdir", outdir,
                       "--max-epochs", 3, "--n-layers", 3, "--seed", 11)
        assert code == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["seed"] == 11
        scores_path = str(outdir / "scores_dagranger.jsonl")
        checksum = manifest["stages"]["dagranger"]["outputs"][scores_path]
        assert checksum == hashlib.sha256(Path(scores_path).read_bytes()).hexdigest()
        records = [json.loads(l) for l in Path(scores_path).read_text().splitlines()]
        assert {r["pair_id"] for r in records} == set(range(len(ds.candidates)))
        for field in ("f_stat", "f_pvalue", "t_stat", "t_pvalue", "df1", "df2"):
            assert field in records[0]
        stage = manifest["stages"]["dagranger"]
        assert stage["records"] == len(records) and stage["dropped"] == []
        assert stage["flags"] == {"zero_residual": 0, "zero_variance_both": 0}

    def test_manifest_names_dropped_pairs(self, bundle, tmp_path, monkeypatch):
        # an inf in one x column makes every pair of that x non-finite in
        # training; the manifest must name exactly the pairs the score file lacks
        import dagranger.preprocess

        ds, paths, _ = bundle
        real = dagranger.preprocess.read_matrix
        parent = ds.dag.edges[0][0]  # a node whose value some child's lag reads

        def planted(path):
            matrix = real(path)
            if str(path) == str(paths["x_matrix"]):
                matrix.values[parent, 0] = np.inf
            return matrix

        monkeypatch.setattr(dagranger.preprocess, "read_matrix", planted)
        outdir = tmp_path / "run"
        code = run_cli("run", "--x-matrix", paths["x_matrix"], "--y-matrix",
                       paths["y_matrix"], "--pairs", paths["pairs"],
                       "--edges", paths["edges"], "--method", "dagranger",
                       "--outdir", outdir, "--max-epochs", 2, "--n-layers", 2)
        assert code == 0
        stage = json.loads((outdir / "manifest.json").read_text())["stages"]["dagranger"]
        records = [json.loads(l) for l in
                   (outdir / "scores_dagranger.jsonl").read_text().splitlines()]
        missing = sorted(set(range(len(ds.candidates))) - {r["pair_id"] for r in records})
        assert missing == [k for k, (xi, _) in enumerate(ds.candidates) if xi == 0]
        assert stage["dropped"] == missing and stage["records"] == len(records)
        assert stage["flags"] == {name: sum(name in r["flags"] for r in records)
                                  for name in ("zero_residual", "zero_variance_both")}

    @pytest.mark.parametrize("method", ["pearson", "pseudocell"])
    def test_nan_score_ranks_last_and_is_counted(self, bundle, tmp_path, method):
        # column 0 of both matrices scaled by 1e200 (finite, so accepted):
        # the squares overflow and pair (x0, y0) gets r = NaN; it must rank
        # last, be counted in the manifest, and raise no numpy warning
        # (pytest turns a RuntimeWarning into an error)
        ds, paths, _ = bundle
        for key, names, values in (("x_matrix", ds.x_names, ds.x_matrix),
                                   ("y_matrix", ds.y_names, ds.y_matrix)):
            big = values.copy()
            big[:, 0] *= 1e200
            write_matrix(tmp_path / f"{key}.csv", big, names)
        outdir = tmp_path / "run"
        code = run_cli("run", "--x-matrix", tmp_path / "x_matrix.csv",
                       "--y-matrix", tmp_path / "y_matrix.csv", "--pairs", paths["pairs"],
                       "--edges", paths["edges"], "--method", method, "--outdir", outdir)
        assert code == 0
        records = [json.loads(l) for l in
                   (outdir / f"scores_{method}.jsonl").read_text().splitlines()]
        nan = [r for r in records if math.isnan(r["score"])]
        assert [(r["x_name"], r["y_name"]) for r in nan] == [(ds.x_names[0], ds.y_names[0])]
        assert nan[0]["rank"] == len(records)
        assert sorted(r["rank"] for r in records) == list(range(1, len(records) + 1))
        stage = json.loads((outdir / "manifest.json").read_text())["stages"][method]
        assert stage["nan_scores"] == 1

    def test_overflowing_losses_drop_pairs_and_var_granger_stays_finite(self, bundle,
                                                                         tmp_path):
        # the same 1e200 scaling: every pair of y0 has an infinite loss, so
        # dagranger drops it and writes no NaN; var-granger scales each binned
        # series before its fits, so every record stays finite; neither
        # raises a numpy warning (pytest turns a RuntimeWarning into an error)
        ds, paths, _ = bundle
        for key, names, values in (("x_matrix", ds.x_names, ds.x_matrix),
                                   ("y_matrix", ds.y_names, ds.y_matrix)):
            big = values.copy()
            big[:, 0] *= 1e200
            write_matrix(tmp_path / f"{key}.csv", big, names)
        outdir = tmp_path / "run"
        code = run_cli("run", "--x-matrix", tmp_path / "x_matrix.csv",
                       "--y-matrix", tmp_path / "y_matrix.csv", "--pairs", paths["pairs"],
                       "--edges", paths["edges"], "--pseudotime", paths["pseudotime"],
                       "--method", "all", "--max-epochs", 2, "--n-layers", 2,
                       "--outdir", outdir)
        assert code == 0
        stages = json.loads((outdir / "manifest.json").read_text())["stages"]
        y0 = [k for k, (_, y) in enumerate(ds.candidates) if y == 0]
        assert y0 and stages["dagranger"]["dropped"] == y0
        records = [json.loads(l) for l in
                   (outdir / "scores_dagranger.jsonl").read_text().splitlines()]
        assert sorted(r["pair_id"] for r in records) == sorted(
            set(range(len(ds.candidates))) - set(y0))
        assert not any(math.isnan(r[k]) for r in records for k in ("f_stat", "t_stat"))
        records = [json.loads(l) for l in
                   (outdir / "scores_var_granger.jsonl").read_text().splitlines()]
        assert len(records) == len(ds.candidates)
        assert all(math.isfinite(r[k]) for r in records for k in ("f_stat", "f_pvalue"))
        assert stages["var-granger"]["nan_scores"] == 0

    def test_too_few_nodes_stop_before_training(self, bundle, tmp_path, caplog, monkeypatch):
        # 120 nodes with L = 30 leave n - 4L - 1 < 0 degrees of freedom
        import dagranger.train

        def untrainable(*args, **kwargs):
            raise AssertionError("train_all must not run")

        monkeypatch.setattr(dagranger.train, "train_all", untrainable)
        ds, paths, _ = bundle
        code = run_cli("run", "--x-matrix", paths["x_matrix"], "--y-matrix",
                       paths["y_matrix"], "--pairs", paths["pairs"],
                       "--edges", paths["edges"], "--method", "dagranger",
                       "--n-layers", 30, "--outdir", tmp_path / "o")
        assert code == 3
        assert any("need n > 4L+1 = 121 observations, got n = 120" in r.getMessage()
                   for r in caplog.records if r.levelname == "ERROR")

    def test_rerun_same_seed_identical_bytes(self, bundle, tmp_path):
        ds, paths, _ = bundle
        digests = []
        for name, workers in (("a", 1), ("b", 2)):
            outdir = tmp_path / name
            code = run_cli("run", "--x-matrix", paths["x_matrix"], "--y-matrix",
                           paths["y_matrix"], "--pairs", paths["pairs"],
                           "--edges", paths["edges"],
                           "--method", "dagranger", "--outdir", outdir,
                           "--max-epochs", 2, "--n-layers", 2, "--seed", 5,
                           "--workers", workers)
            assert code == 0
            digests.append(hashlib.sha256(
                (outdir / "scores_dagranger.jsonl").read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_pseudocell_via_embedding_source(self, tmp_path):
        rng = np.random.default_rng(2)
        n = 40
        write_matrix(tmp_path / "x.csv", rng.normal(size=(n, 2)), ["p1", "p2"])
        write_matrix(tmp_path / "y.csv", rng.normal(size=(n, 2)), ["g1", "g2"])
        write_matrix(tmp_path / "emb.csv", rng.normal(size=(n, 3)), ["d0", "d1", "d2"])
        write_pseudotime(tmp_path / "pt.txt", np.arange(n, dtype=float))
        (tmp_path / "pairs.tsv").write_text("p1\tg1\np2\tg2\n")
        outdir = tmp_path / "out"
        code = run_cli("run", "--x-matrix", tmp_path / "x.csv",
                       "--y-matrix", tmp_path / "y.csv",
                       "--pairs", tmp_path / "pairs.tsv",
                       "--embedding", tmp_path / "emb.csv",
                       "--pseudotime", tmp_path / "pt.txt", "--k", 5,
                       "--method", "pseudocell", "--outdir", outdir)
        assert code == 0
        records = [json.loads(l) for l in
                   (outdir / "scores_pseudocell.jsonl").read_text().splitlines()]
        assert len(records) == 2 and all("r" in r for r in records)

    def test_var_granger_method(self, bundle, tmp_path):
        ds, paths, _ = bundle
        outdir = tmp_path / "runvg"
        code = run_cli("run", "--x-matrix", paths["x_matrix"], "--y-matrix",
                       paths["y_matrix"], "--pairs", paths["pairs"],
                       "--edges", paths["edges"], "--pseudotime", paths["pseudotime"],
                       "--method", "var-granger", "--outdir", outdir)
        assert code == 0
        assert (outdir / "scores_var_granger.jsonl").exists()

    def test_config_file_with_flag_override(self, bundle, tmp_path):
        ds, paths, _ = bundle
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"x_matrix={paths['x_matrix']}\ny_matrix={paths['y_matrix']}\n"
            f"pairs={paths['pairs']}\nedges={paths['edges']}\n"
            f"outdir={tmp_path / 'cfg_out'}\nmethod=pearson\nseed=3\n"
        )
        code = run_cli("run", "--config", cfg, "--outdir", tmp_path / "cli_out")
        assert code == 0
        assert (tmp_path / "cli_out" / "scores_pearson.jsonl").exists()

    @pytest.mark.parametrize("key", ["learning_rte", "minibatch_pairs", "learning-rate"])
    def test_unknown_config_key_is_config_error(self, bundle, tmp_path, caplog, key):
        _, paths, _ = bundle
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# a run\nmethod=pearson\n{key}=0.5\n")
        code = run_cli("run", "--config", cfg, "--x-matrix", paths["x_matrix"],
                       "--y-matrix", paths["y_matrix"], "--pairs", paths["pairs"],
                       "--edges", paths["edges"], "--outdir", tmp_path / "o")
        assert code == 2
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
            f"configuration error: {cfg}:3: unknown key {key!r}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("option, value", [
        ("workers", 0), ("workers", -2), ("var_max_lag", 0), ("max_epochs", -3),
        ("pseudocell_neighborhood", -1), ("convergence_numerator", -1),
        ("learning_rate", "nan"), ("learning_rate", "inf"), ("seed", -1), ("k", 0)])
    def test_out_of_range_option_is_config_error(self, tmp_path, caplog, option, value):
        # checked before any file is read: none of the input files exists,
        # and the output directory is not made
        missing = tmp_path / "missing"
        code = run_cli("run", "--x-matrix", missing, "--y-matrix", missing, "--pairs", missing,
                       "--edges", missing, "--outdir", tmp_path / "o",
                       f"--{option.replace('_', '-')}", value)
        assert code == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].startswith(f"configuration error: {option} ")
        assert not (tmp_path / "o").exists()

    def test_conflicting_dag_sources_config_error(self, bundle, tmp_path):
        ds, paths, _ = bundle
        code = run_cli("run", "--x-matrix", paths["x_matrix"], "--y-matrix",
                       paths["y_matrix"], "--pairs", paths["pairs"],
                       "--edges", paths["edges"], "--embedding", paths["x_matrix"],
                       "--pseudotime", paths["pseudotime"],
                       "--outdir", tmp_path / "o")
        assert code == 2


class TestRunErrors:
    def _error_lines(self, caplog):
        return [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]

    def test_pseudotime_length_mismatch_is_data_error(self, bundle, tmp_path, caplog):
        ds, paths, _ = bundle
        short = tmp_path / "short_pt.txt"
        write_pseudotime(short, ds.pseudotime[:-1])
        code = run_cli("run", "--x-matrix", paths["x_matrix"], "--y-matrix",
                       paths["y_matrix"], "--pairs", paths["pairs"],
                       "--edges", paths["edges"], "--pseudotime", short,
                       "--method", "var-granger", "--outdir", tmp_path / "o")
        assert code == 3
        assert any(str(short) in line for line in self._error_lines(caplog))

    def test_duplicate_matrix_names_is_data_error(self, bundle, tmp_path, caplog):
        ds, paths, _ = bundle
        names = list(ds.x_names)
        names[1] = names[0]
        dup = tmp_path / "x_dup.csv"
        write_matrix(dup, ds.x_matrix, names)
        code = run_cli("run", "--x-matrix", dup, "--y-matrix", paths["y_matrix"],
                       "--pairs", paths["pairs"], "--edges", paths["edges"],
                       "--method", "pearson", "--outdir", tmp_path / "o")
        assert code == 3
        assert any(str(dup) in line and repr(names[0]) in line
                   for line in self._error_lines(caplog))

    def test_embedding_row_mismatch_names_the_file(self, bundle, tmp_path, caplog):
        ds, paths, _ = bundle
        coords = np.column_stack([ds.pseudotime, ds.x_matrix[:, 0]])
        emb = tmp_path / "emb_long.csv"
        write_matrix(emb, np.vstack([coords, coords[:1]]), ["d0", "d1"])
        code = run_cli("run", "--x-matrix", paths["x_matrix"], "--y-matrix",
                       paths["y_matrix"], "--pairs", paths["pairs"],
                       "--embedding", emb, "--pseudotime", paths["pseudotime"],
                       "--method", "pearson", "--outdir", tmp_path / "o")
        assert code == 3
        assert any(str(emb) in line for line in self._error_lines(caplog))

    def test_duplicate_pair_is_data_error(self, bundle, tmp_path, caplog):
        ds, paths, _ = bundle
        lines = Path(paths["pairs"]).read_text().splitlines()
        first = next(line for line in lines if line and not line.startswith("#"))
        dup = tmp_path / "pairs_dup.tsv"
        dup.write_text("\n".join(lines + [first]) + "\n")
        code = run_cli("run", "--x-matrix", paths["x_matrix"], "--y-matrix",
                       paths["y_matrix"], "--pairs", dup, "--edges", paths["edges"],
                       "--method", "pearson", "--outdir", tmp_path / "o")
        assert code == 3
        assert any(f"{dup}:{len(lines) + 1}: duplicate pair" in line
                   for line in self._error_lines(caplog))

    @pytest.mark.parametrize("defect", ["cycle", "self-loop", "duplicate", "out-of-range"])
    def test_edge_file_defect_names_the_file(self, bundle, tmp_path, caplog, defect):
        ds, paths, _ = bundle
        lines = Path(paths["edges"]).read_text().splitlines()
        u, v = ds.dag.edges[0].tolist()
        n = ds.dag.n_nodes
        bad = tmp_path / "edges_bad.tsv"
        at = f"{bad}:{len(lines) + 1}:"
        extra, message = {
            "cycle": (f"{v}\t{u}", f"{bad}: cycle through nodes"),
            "self-loop": (f"{u}\t{u}", f"{at} self-loop at node {u}"),
            "duplicate": (f"{u}\t{v}", f"{at} edge ({u}, {v}) appears more than once"),
            "out-of-range": (f"{u}\t{n}", f"{at} edge ({u}, {n}) outside [0, {n})"),
        }[defect]
        bad.write_text("\n".join(lines + [extra]) + "\n")
        code = run_cli("run", "--x-matrix", paths["x_matrix"], "--y-matrix",
                       paths["y_matrix"], "--pairs", paths["pairs"], "--edges", bad,
                       "--method", "pearson", "--outdir", tmp_path / "o")
        assert code == 3
        assert any(line.startswith(f"data error: {message}")
                   for line in self._error_lines(caplog))

    def test_pairs_file_reads_to_an_index_array(self, tmp_path):
        from dagranger.cli import _read_pairs_file

        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("# header\nb\tv\n\na\tu\nc\tu\textra\n")
        got = _read_pairs_file(pairs, ("a", "b", "c"), ("u", "v"))
        assert got.dtype == np.int64 and got.tolist() == [[1, 1], [0, 0], [2, 0]]
        pairs.write_text("a\tu\nb\tv\nb\tu\nb\tv\na\tu\n")
        with pytest.raises(DataError, match=r"pairs.tsv:4: duplicate pair 'b' -> 'v' "
                                            r"\(first on line 2\)"):
            _read_pairs_file(pairs, ("a", "b"), ("u", "v"))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(lines=st.lists(st.one_of(
        st.tuples(st.sampled_from(["a", "b", "c", "zz", " a", ""]),
                  st.sampled_from(["u", "v", "w", "u\textra", "", "\t"]))
        .map("\t".join),
        st.sampled_from(["", "  ", "# note", "a", "a u", "\ta\tu"])), max_size=12),
        newline=st.sampled_from(["\n", "\r\n", "\r"]))
    def test_pairs_file_reads_as_the_line_loop(self, tmp_path_factory, lines, newline):
        # one read and one split give the line loop's array, or the line
        # loop runs and raises its error naming the line
        from dagranger.cli import _read_pairs_file, _read_pairs_lines

        pairs = tmp_path_factory.mktemp("pairs") / "pairs.tsv"
        pairs.write_bytes(newline.join(lines).encode())
        x_names, y_names = ("a", "b", "c"), ("u", "v")
        outcomes = []
        for read in (lambda: _read_pairs_file(pairs, x_names, y_names),
                     lambda: _read_pairs_lines(pairs, {n: i for i, n in enumerate(x_names)},
                                               {n: i for i, n in enumerate(y_names)}, 2)):
            try:
                got = read()
                outcomes.append((got.dtype, got.shape, got.tolist()))
            except DataError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]

    def test_unexpected_exception_is_internal_error(self, bundle, tmp_path, caplog,
                                                    capsys, monkeypatch):
        import dagranger.train

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(dagranger.train, "train_all", boom)
        ds, paths, _ = bundle
        code = run_cli("run", "--x-matrix", paths["x_matrix"], "--y-matrix",
                       paths["y_matrix"], "--pairs", paths["pairs"],
                       "--edges", paths["edges"],
                       "--method", "dagranger", "--outdir", tmp_path / "o")
        assert code == 4
        assert self._error_lines(caplog) == ["internal error: RuntimeError: boom"]
        assert all(r.exc_info is None for r in caplog.records)
        assert "Traceback" not in capsys.readouterr().err


class TestExits:
    """Each command's exits on bad input: the exit code and the start of the one error line.

    ``{d}`` is the case's own directory, and ``{x_matrix}`` and the like are
    the files of the bundle. A configuration error (exit 2) is found before
    any file is read, so it leaves no output behind.
    """

    RUN = ["run", "--x-matrix", "{x_matrix}", "--y-matrix", "{y_matrix}", "--pairs", "{pairs}",
           "--outdir", "{d}/o"]
    RUN_CFG = RUN + ["--edges", "{edges}", "--config", "{d}/run.cfg"]
    CANDIDATES = ["candidates", "--x-matrix", "{x_matrix}", "--y-matrix", "{y_matrix}",
                  "--x-positions", "{d}/xp.tsv", "--y-positions", "{d}/yp.tsv",
                  "--out-pairs", "{d}/out.tsv"]
    EVAL = ["eval", "--scores", "{d}/scores.jsonl", "--reference", "{d}/ref.tsv",
            "--out", "{d}/m.json"]
    SCORES = ('{"method": "m", "score": 2.0, "x_name": "a", "y_name": "b"}\n'
              '{"method": "m", "score": 1.0, "x_name": "a", "y_name": "c"}\n')
    LABELS = "{d}/scores.jsonl against {d}/ref.tsv:"
    CASES = {  # files, argv, exit code, start of the error line (None: no error)
        "embedding without pseudotime": (
            {}, RUN + ["--embedding", "{x_matrix}"], 2,
            "configuration error: --embedding requires --pseudotime"),
        "all without pseudotime": (
            {}, RUN + ["--edges", "{edges}", "--method", "all"], 2,
            "configuration error: --method all requires --pseudotime"),
        "var-granger without pseudotime": (
            {}, RUN + ["--edges", "{edges}", "--method", "var-granger"], 2,
            "configuration error: --method var-granger requires --pseudotime"),
        "unknown method in a config file": (
            {"run.cfg": "method=granger\n"}, RUN_CFG, 2,
            "configuration error: method must be one of"),
        "config line without =": (
            {"run.cfg": "# a run\n\nmethod\n"}, RUN_CFG, 2,
            "configuration error: {d}/run.cfg:3: expected key=value"),
        "config value that does not convert": (
            {"run.cfg": "seed=one\n"}, RUN_CFG, 2,
            "configuration error: config key seed: invalid literal"),
        "missing required flag": (
            {}, RUN[:5] + RUN[7:] + ["--edges", "{edges}"], 2,
            "configuration error: missing required option --pairs"),
        "matrices of different row counts": (
            {"y.csv": "g\n1\n2\n"},
            ["run", "--x-matrix", "{x_matrix}", "--y-matrix", "{d}/y.csv", "--pairs", "{pairs}",
             "--edges", "{edges}", "--method", "pearson", "--outdir", "{d}/o"], 3,
            "data error: {x_matrix} has 120 rows but {d}/y.csv has 2"),
        "build-dag embedding and pseudotime of different lengths": (
            {"emb.csv": "d0\n0\n1\n2\n", "pt.txt": "0\n1\n"},
            ["build-dag", "--embedding", "{d}/emb.csv", "--pseudotime", "{d}/pt.txt",
             "--out-edges", "{d}/e.tsv", "--out-stats", "{d}/s.json"], 3,
            "data error: {d}/emb.csv has 3 rows but {d}/pt.txt has 2 values"),
        "one positions file": (
            {"xp.tsv": "p1\tchr1\t100\n"}, CANDIDATES[:7] + CANDIDATES[9:], 2,
            "configuration error: --x-positions and --y-positions must be given together"),
        "positions line of two columns": (
            {"xp.tsv": "p1\tchr1\n", "yp.tsv": "g1\tchr1\t600\n"}, CANDIDATES, 3,
            "data error: {d}/xp.tsv:1: expected name, key, position"),
        "non-numeric position": (
            {"xp.tsv": "# peaks\np1\tchr1\tfar\n", "yp.tsv": "g1\tchr1\t600\n"}, CANDIDATES, 3,
            "data error: {d}/xp.tsv:2: non-numeric position"),
        "non-numeric reference value": (
            {"scores.jsonl": SCORES, "ref.tsv": "a\tb\t0.0\na\tc\tlow\n"}, EVAL, 3,
            "data error: {d}/ref.tsv:2: non-numeric value"),
        "no labeled pair": (
            {"scores.jsonl": SCORES, "ref.tsv": "a\tz\t0.0\n"}, EVAL, 3,
            f"data error: {LABELS} no candidate pair fell below the true threshold"),
        "one-class reference": (
            {"scores.jsonl": SCORES, "ref.tsv": "a\tb\t0.0\na\tc\t0.0\n"}, EVAL, 3,
            f"data error: {LABELS} need at least one true and one false label"),
        "blank lines in a score file": (
            {"scores.jsonl": "\n" + SCORES.replace("\n", "\n  \n"),
             "ref.tsv": "a\tb\t0\na\tc\t1\n"}, EVAL, 0, None),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exit_code_and_message(self, bundle, tmp_path, caplog, case):
        files, argv, code, start = self.CASES[case]
        fill = {**bundle[1], "d": tmp_path}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert main([a.format(**fill) for a in argv]) == code
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        if start is None:
            assert errors == []
        else:
            assert len(errors) == 1 and errors[0].startswith(start.format(**fill)), errors
        if code == 2:
            assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


class TestScoreFiles:
    # sha256 of the four score files of one small `run --method all`, recorded
    # with the per-record JSON writer (json.JSONEncoder(sort_keys=True)) that
    # defined the format; a change here is a change of the score-file bytes.
    # var_granger was re-recorded when the VAR fits moved to one QR per y and
    # one projection per pair: f_stat moved by at most 7.5e-12 relative, and
    # no rank moved
    PINNED = {
        "f": {"dagranger": "903d66f5a94348d76c1d247ef16e255820c5636cfff1813fff4c5135c33d3b1a",
              "pearson": "fad3aa67275530fe9b8d84d902f7b4710ae8f368c06edf0bece54b166f301673",
              "pseudocell": "2f91a7dec7cb0e3df16f6963ed681af47b93941a249c9d6bd9de6fb4d8c9a0f4",
              "var_granger": "0ad5e953e3497480ec739063d762630a45093f46d4d85a0e3f9d12a976548a66"},
        "welch": {"dagranger": "81b3f5af4f8285d0f45a0b412fa3697d9d044658cfb399fe78c4fbbe4107773b"},
    }
    # dagranger's files after 0 and 1 epochs, where the final evaluation runs
    # on the shared start; recorded before that evaluation was built from
    # per-variable encodings, which must not change a byte
    PINNED_SHORT = {
        (0, "f"): "747162ae5c39f779a7f9b36bc77d17891c2bede7a3a880feca267ccfdf33349d",
        (0, "welch"): "8e2881d4d3cfdc9d301f10133511be39acd9dca71911cd4fa9bd0a65a79ef2b9",
        (1, "f"): "26d2f082e8c442dbc7812db2937f84ca1cd849fa51cdf28580e82ec0db7e6523",
        (1, "welch"): "5f888bddcb5bdebbae722167742924d83d5e735e4538decba82f2926e9ab5fda",
    }

    @pytest.fixture(scope="class")
    def pinned_bundle(self, tmp_path_factory):
        spec = SynthSpec(n_nodes=120, n_branches=3, depth=10, k_neighbors=4,
                         n_x_vars=8, n_y_vars=5, n_causal_pairs=4,
                         coupling=1.5, noise_sd=0.2, dropout_rate=0.5, seed=7)
        return write_dataset(generate(spec), tmp_path_factory.mktemp("pinned"))

    def _run_all(self, paths, outdir, *extra, method="all", max_epochs=3):
        return run_cli("run", "--x-matrix", paths["x_matrix"], "--y-matrix",
                       paths["y_matrix"], "--pairs", paths["pairs"],
                       "--edges", paths["edges"], "--pseudotime", paths["pseudotime"],
                       "--method", method, "--max-epochs", max_epochs, "--n-layers", 3,
                       "--seed", 11, "--outdir", outdir, *extra)

    @pytest.mark.parametrize("rank_mode", ["f", "welch"])
    def test_bytes_equal_the_pinned_digests(self, pinned_bundle, tmp_path, rank_mode):
        assert self._run_all(pinned_bundle, tmp_path, "--rank-mode", rank_mode) == 0
        pinned = {**self.PINNED["f"], **self.PINNED[rank_mode]}
        assert {method: hashlib.sha256(
                    (tmp_path / f"scores_{method}.jsonl").read_bytes()).hexdigest()
                for method in pinned} == pinned

    @pytest.mark.parametrize("max_epochs, rank_mode", sorted(PINNED_SHORT))
    def test_short_runs_equal_the_pinned_digests(self, pinned_bundle, tmp_path, max_epochs,
                                                 rank_mode):
        assert self._run_all(pinned_bundle, tmp_path, "--rank-mode", rank_mode,
                             method="dagranger", max_epochs=max_epochs) == 0
        assert hashlib.sha256((tmp_path / "scores_dagranger.jsonl").read_bytes()).hexdigest() \
            == self.PINNED_SHORT[max_epochs, rank_mode]

    def test_manifest_summarizes_p_values(self, pinned_bundle, tmp_path):
        assert self._run_all(pinned_bundle, tmp_path) == 0
        stages = json.loads((tmp_path / "manifest.json").read_text())["stages"]
        for method, fields in (("dagranger", ("f_pvalue", "t_pvalue")),
                               ("var-granger", ("f_pvalue",)), ("pearson", ()),
                               ("pseudocell", ())):
            records = [json.loads(l) for l in (
                tmp_path / f"scores_{method.replace('-', '_')}.jsonl").read_text().splitlines()]
            stage = stages[method]
            assert stage["nan_scores"] == 0
            assert {"f_pvalue", "t_pvalue"} & set(stage) == set(fields)
            for field in fields:
                p = sorted(r[field] for r in records)
                assert stage[field] == {"min": p[0], "median": float(np.median(p)),
                                        "max": p[-1], "equal_to_1": p.count(1.0)}


class TestEvalCommand:
    def test_metrics_from_scores(self, bundle, tmp_path, capsys):
        ds, paths, _ = bundle
        outdir = tmp_path / "run"
        run_cli("run", "--x-matrix", paths["x_matrix"], "--y-matrix",
                paths["y_matrix"], "--pairs", paths["pairs"],
                "--edges", paths["edges"], "--pseudotime", paths["pseudotime"],
                "--method", "pearson", "--outdir", outdir)
        code = run_cli("eval", "--scores", outdir / "scores_pearson.jsonl",
                       "--reference", paths["reference"],
                       "--out", tmp_path / "metrics.json")
        assert code == 0
        report = json.loads((tmp_path / "metrics.json").read_text())
        assert report["method"] == "pearson"
        assert 0.0 <= report["auprc"] <= 1.0
        assert 0.0 <= report["auroc"] <= 1.0
        assert report["n_true"] == len(ds.truth)

    def test_welch_rank_mode_reaches_eval(self, bundle, tmp_path, capsys):
        # in welch mode the score that eval reads is -log10(t_pvalue), so
        # eval's AUPRC is the one of ranking the pairs by ascending t_pvalue
        ds, paths, _ = bundle
        outdir = tmp_path / "run"
        code = run_cli("run", "--x-matrix", paths["x_matrix"], "--y-matrix",
                       paths["y_matrix"], "--pairs", paths["pairs"],
                       "--edges", paths["edges"], "--method", "dagranger",
                       "--rank-mode", "welch", "--outdir", outdir)
        assert code == 0
        scores = outdir / "scores_dagranger.jsonl"
        code = run_cli("eval", "--scores", scores, "--reference", paths["reference"],
                       "--out", tmp_path / "metrics.json")
        assert code == 0
        truth = {pair: value == 0.0 for pair, value in read_reference(paths["reference"])}
        records = [json.loads(l) for l in scores.read_text().splitlines()]
        labeled = [r for r in records if (r["x_name"], r["y_name"]) in truth]
        labels = [truth[(r["x_name"], r["y_name"])] for r in labeled]
        expected = auprc([-r["t_pvalue"] for r in labeled], labels)
        assert expected != auprc([r["f_stat"] for r in labeled], labels)  # the modes differ here
        assert json.loads((tmp_path / "metrics.json").read_text())["auprc"] == expected

    @pytest.mark.parametrize("line", ['{"x_name": "a", "y_name": "b", "score": NaN}',
                                      '{"x_name": "a", "y_name": "b"}', '{"x_name": "a",',
                                      '[1, 2]'])
    def test_malformed_score_record_is_data_error(self, bundle, tmp_path, caplog, line):
        # a NaN score used to send eval's tie sweep into an endless loop
        _, paths, _ = bundle
        scores = tmp_path / "scores.jsonl"
        scores.write_text(line + "\n")
        code = run_cli("eval", "--scores", scores, "--reference", paths["reference"],
                       "--out", tmp_path / "m.json")
        assert code == 3
        assert any(str(scores) in r.getMessage() for r in caplog.records)

    def test_repeated_pair_is_data_error(self, bundle, tmp_path, caplog):
        # eval keys the scores by pair: a repeated pair would keep only its
        # last record's score
        _, paths, _ = bundle
        outdir = tmp_path / "run"
        assert run_cli("run", "--x-matrix", paths["x_matrix"], "--y-matrix",
                       paths["y_matrix"], "--pairs", paths["pairs"], "--edges", paths["edges"],
                       "--method", "pearson", "--outdir", outdir) == 0
        scores = outdir / "scores_pearson.jsonl"
        lines = scores.read_text().splitlines()
        repeat = json.loads(lines[0])
        repeat["score"] = 99.0
        scores.write_text("\n".join(lines + [json.dumps(repeat)]) + "\n")
        code = run_cli("eval", "--scores", scores, "--reference", paths["reference"],
                       "--out", tmp_path / "m.json")
        assert code == 3
        assert any(r.getMessage() == (
            f"data error: {scores}: record {len(lines) + 1} repeats the pair "
            f"{repeat['x_name']!r} -> {repeat['y_name']!r} of record 1")
            for r in caplog.records)
        assert not (tmp_path / "m.json").exists()

    def test_disjoint_reference_is_data_error(self, bundle, tmp_path):
        ds, paths, _ = bundle
        outdir = tmp_path / "run"
        run_cli("run", "--x-matrix", paths["x_matrix"], "--y-matrix",
                paths["y_matrix"], "--pairs", paths["pairs"],
                "--edges", paths["edges"], "--pseudotime", paths["pseudotime"],
                "--method", "pearson", "--outdir", outdir)
        (tmp_path / "ref.tsv").write_text("nosuch\tpair\t0.0\n")
        code = run_cli("eval", "--scores", outdir / "scores_pearson.jsonl",
                       "--reference", tmp_path / "ref.tsv",
                       "--out", tmp_path / "m.json")
        assert code == 3

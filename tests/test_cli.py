import base64
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import prenet
from prenet import harness
from prenet.cli import _spec_from_args, build_parser, main
from prenet.engine import read_scores_csv
from prenet.model import load_checkpoint

# training flags, which every training command takes
FAST = [
    "--seed", "5", "--n-labeled", "8", "--epochs", "2",
    "--batches-per-epoch", "2", "--batch-size", "16",
]
# plus the experiment flags of experiment, ablate and sweep
FAST_EXPERIMENT = [*FAST, "--runs", "2", "--ensemble-size", "4"]
# experiment flags that train rejects
EXPERIMENT_ONLY = ("--runs", "--jobs", "--train-fraction", "--ensemble-size")
# flags of the fields that ablate and sweep set per run themselves
SET_PER_RUN = (("ablate", "--variant", "a2h"), ("ablate", "--hidden-dims", "7"),
               ("sweep", "--contamination", "0.1"))


def make_data(tmp_path, name="d.csv", n_normal="300", n_anomaly="80"):
    path = tmp_path / name
    assert main([
        "synth", "--n-normal", n_normal, "--n-anomaly", n_anomaly,
        "--dim", "3", "--separation", "5", "--seed", "7", "-o", str(path),
    ]) == 0
    return path


def drop_volatile(doc):
    doc = dict(doc)
    doc.pop("generated_at", None)
    return doc


class TestTheory:
    def test_values(self, capsys):
        assert main(["theory", "--eps", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "5.92145" in out and "1.92308" in out and "0.0396" in out

    def test_eps_zero_proportions(self, capsys):
        assert main(["theory", "--eps", "0"]) == 0
        out = capsys.readouterr().out
        assert "0.25 / 0.25 / 0.5" in out

    def test_invalid_eps_exits_2(self, capsys):
        assert main(["theory", "--eps", "1.2"]) == 2
        assert capsys.readouterr().err != ""

    def test_bad_labels_exit_2(self):
        assert main(["theory", "--eps", "0.1", "--labels", "1,2,3"]) == 2

    @pytest.mark.parametrize("labels", ["inf,4,0", "nan,4,0", "8,4,-inf"])
    def test_non_finite_labels_exit_2(self, labels, capsys):
        assert main(["theory", "--eps", "0.1", "--labels", labels]) == 2
        assert "finite" in capsys.readouterr().err

    def test_non_numeric_labels_name_the_flag(self, capsys):
        assert main(["theory", "--eps", "0.1", "--labels", "a,b,c"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--labels" in err, err

    def test_finite_labels_near_the_float_maximum(self, capsys):
        # each expected score is a weighted average of the targets
        assert main(["theory", "--eps", "0.1", "--labels", "1.7e308,1.6e308,0"]) == 0
        scores = [line.split(":")[1] for line in capsys.readouterr().out.splitlines()
                  if line.startswith("expected")]
        assert len(scores) == 2 and all(np.isfinite(float(v)) for v in scores), scores


class TestSynth:
    def test_writes_csv(self, tmp_path):
        path = make_data(tmp_path)
        text = path.read_text().splitlines()
        assert text[0] == "f1,f2,f3,label"
        assert len(text) == 381

    def test_deterministic(self, tmp_path):
        p1 = make_data(tmp_path, "a.csv")
        p2 = make_data(tmp_path, "b.csv")
        assert p1.read_bytes() == p2.read_bytes()


class TestTrainScoreEval:
    def test_pipeline(self, tmp_path):
        data = make_data(tmp_path)
        ckpt = tmp_path / "model.json"
        report = tmp_path / "train.json"
        assert main([
            "train", "--data", str(data), *FAST,
            "-o", str(ckpt), "--report", str(report),
        ]) == 0
        model, extras = load_checkpoint(ckpt)
        assert model.config.variant == "prenet"
        assert extras["anomaly_pool"].shape[0] == 8
        assert extras["mean"] is not None
        doc = json.loads(report.read_text())
        assert len(doc["objective_trace"]) == 4

        scores_path = tmp_path / "scores.csv"
        assert main([
            "score", "--checkpoint", str(ckpt), "--data", str(data),
            "--ensemble-size", "4", "--seed", "1", "-o", str(scores_path),
        ]) == 0
        scores, labels = read_scores_csv(scores_path)
        assert scores.shape[0] == 380
        assert labels is not None

        metrics_path = tmp_path / "metrics.json"
        assert main(["eval", "--scores", str(scores_path), "-o", str(metrics_path)]) == 0
        doc = json.loads(metrics_path.read_text())
        assert 0.0 <= doc["auc_roc"] <= 1.0
        assert doc["n_test"] == 380

    def test_checkpoint_deterministic(self, tmp_path):
        data = make_data(tmp_path)
        c1, c2 = tmp_path / "m1.json", tmp_path / "m2.json"
        args = ["train", "--data", str(data), *FAST]
        assert main(args + ["-o", str(c1)]) == 0
        assert main(args + ["-o", str(c2)]) == 0
        assert c1.read_bytes() == c2.read_bytes()

    def test_one_stream_variant_pipeline(self, tmp_path):
        data = make_data(tmp_path)
        ckpt = tmp_path / "os.json"
        assert main(["train", "--data", str(data), "--variant", "osnet", *FAST,
                     "-o", str(ckpt)]) == 0
        out = tmp_path / "s.csv"
        assert main(["score", "--checkpoint", str(ckpt), "--data", str(data),
                     "-o", str(out)]) == 0
        scores, labels = read_scores_csv(out)
        assert scores.shape[0] == 380 and labels is not None

    def test_score_deterministic(self, tmp_path):
        data = make_data(tmp_path)
        ckpt = tmp_path / "m.json"
        assert main(["train", "--data", str(data), *FAST, "-o", str(ckpt)]) == 0
        s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        args = ["score", "--checkpoint", str(ckpt), "--data", str(data),
                "--ensemble-size", "4", "--seed", "2"]
        assert main(args + ["-o", str(s1)]) == 0
        assert main(args + ["-o", str(s2)]) == 0
        assert s1.read_bytes() == s2.read_bytes()

    def test_score_unlabeled_data(self, tmp_path):
        data = make_data(tmp_path)
        ckpt = tmp_path / "model.json"
        assert main(["train", "--data", str(data), *FAST, "-o", str(ckpt)]) == 0
        bare = tmp_path / "bare.csv"
        lines = data.read_text().splitlines()
        stripped = [",".join(line.split(",")[:-1]) for line in lines]
        bare.write_text("\n".join(stripped) + "\n")
        out = tmp_path / "s.csv"
        assert main([
            "score", "--checkpoint", str(ckpt), "--data", str(bare),
            "--ensemble-size", "2", "-o", str(out),
        ]) == 0
        scores, labels = read_scores_csv(out)
        assert labels is None and scores.shape[0] == 380

    def test_score_wrong_width_exit_3(self, tmp_path):
        data = make_data(tmp_path)
        ckpt = tmp_path / "m.json"
        assert main(["train", "--data", str(data), *FAST, "-o", str(ckpt)]) == 0
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("f1,label\n1.0,0\n2.0,1\n")
        assert main([
            "score", "--checkpoint", str(ckpt), "--data", str(narrow),
            "-o", str(tmp_path / "s.csv"),
        ]) == 3

    def test_eval_malformed_scores_exit_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("row_index,score,true_label\n0,not-a-number,1\n")
        assert main(["eval", "--scores", str(bad), "-o", str(tmp_path / "m.json")]) == 3

    def test_eval_with_external_labels(self, tmp_path):
        data = make_data(tmp_path)
        ckpt = tmp_path / "m.json"
        assert main(["train", "--data", str(data), *FAST, "-o", str(ckpt)]) == 0
        bare = tmp_path / "bare.csv"
        lines = data.read_text().splitlines()
        bare.write_text("\n".join(",".join(l.split(",")[:-1]) for l in lines) + "\n")
        s = tmp_path / "s.csv"
        assert main(["score", "--checkpoint", str(ckpt), "--data", str(bare),
                     "--ensemble-size", "2", "-o", str(s)]) == 0
        m = tmp_path / "m2.json"
        assert main(["eval", "--scores", str(s), "--data", str(data), "-o", str(m)]) == 0
        assert 0.0 <= json.loads(m.read_text())["auc_pr"] <= 1.0


class TestExperiment:
    def test_report_and_determinism(self, tmp_path):
        data = make_data(tmp_path)
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["experiment", "--data", str(data), *FAST_EXPERIMENT]
        assert main(args + ["-o", str(r1)]) == 0
        assert main(args + ["-o", str(r2)]) == 0
        d1 = drop_volatile(json.loads(r1.read_text()))
        d2 = drop_volatile(json.loads(r2.read_text()))
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
        assert d1["seeds"] == [5, 6]
        assert len(d1["auc_pr"]["runs"]) == 2

    def test_missing_data_flag_exit_2(self, tmp_path):
        assert main(["experiment", "-o", str(tmp_path / "r.json")]) == 2

    def test_missing_file_exit_3(self, tmp_path):
        assert main([
            "experiment", "--data", str(tmp_path / "nope.csv"), *FAST_EXPERIMENT,
            "-o", str(tmp_path / "r.json"),
        ]) == 3

    def test_capacity_error_exit_3(self, tmp_path):
        data = make_data(tmp_path)
        assert main([
            "experiment", "--data", str(data), *FAST_EXPERIMENT, "--n-labeled", "5000",
            "-o", str(tmp_path / "r.json"),
        ]) == 3

    @staticmethod
    def spec_file(tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"data = {make_data(tmp_path)}\nruns = 1\nseed = 5\nn-labeled = 8\nepochs = 2\n"
            "batches-per-epoch = 2\nbatch-size = 16\nensemble-size = 4\n"
        )
        return cfg

    def test_spec_file_defaults_and_overrides(self, tmp_path):
        cfg = self.spec_file(tmp_path)
        out = tmp_path / "r.json"
        assert main(["experiment", "--spec-file", str(cfg), "-o", str(out)]) == 0
        assert json.loads(out.read_text())["seeds"] == [5]
        # explicit flag beats the file value
        assert main(["experiment", "--spec-file", str(cfg), "--seed", "9", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["seeds"] == [9]

    @pytest.mark.parametrize("form", [["--spec-file={}"], ["--spec", "{}"]],
                             ids=["equals", "abbreviated"])
    def test_spec_file_in_every_form_argparse_takes(self, form, tmp_path):
        cfg = self.spec_file(tmp_path)
        out = tmp_path / "r.json"
        flags = [token.format(cfg) for token in form]
        assert main(["experiment", *flags, "--seed", "9", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["seeds"] == [9]


class TestAblateSweep:
    def test_ablate_all_variants(self, tmp_path):
        data = make_data(tmp_path)
        out = tmp_path / "ab.json"
        assert main(["ablate", "--data", str(data), *FAST_EXPERIMENT, "--runs", "1",
                     "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["field"] == "variant"
        assert set(doc["values"]) == {"prenet", "bor", "osnet", "ldm", "a2h"}

    def test_ablate_reports_the_default_stacks_that_ran(self, tmp_path):
        # the variants need different layer counts, so ablate takes no widths
        data = make_data(tmp_path)
        out = tmp_path / "ab.json"
        assert main(["ablate", "--data", str(data), *FAST_EXPERIMENT, "--runs", "1",
                     "-o", str(out)]) == 0
        variants = json.loads(out.read_text())["values"].values()
        assert [v["config"]["hidden_dims"] for v in variants] == [None] * 5

    def test_sweep_rates(self, tmp_path):
        data = make_data(tmp_path, n_normal="200", n_anomaly="100")
        out = tmp_path / "sw.json"
        assert main([
            "sweep", "--data", str(data), *FAST_EXPERIMENT, "--runs", "1",
            "--rates", "0,0.05", "-o", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["field"] == "contamination"
        assert set(doc["values"]) == {"0.0", "0.05"}
        # one experiment report per rate, with the spec the rate ran under
        for rate, report in doc["values"].items():
            assert report["config"]["contamination"] == float(rate)
            assert report["variant"] == "prenet" and len(report["auc_pr"]["runs"]) == 1


class TestHelpAndExitCodes:
    @pytest.mark.parametrize(
        "command",
        ["synth", "train", "score", "eval", "experiment", "ablate", "sweep", "theory"],
    )
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["theory", "--eps", "0.1", "--bogus"],
            *(["train", "--data", "d.csv", flag, "1", "-o", "m.json"] for flag in EXPERIMENT_ONLY),
            *([cmd, "--data", "d.csv", flag, value, "-o", "r.json"]
              for cmd, flag, value in SET_PER_RUN),
        ],
        ids=[
            "theory-bogus",
            *(f"train-{flag[2:]}" for flag in EXPERIMENT_ONLY),
            *(f"{cmd}-{flag[2:]}" for cmd, flag, _ in SET_PER_RUN),
        ],
    )
    def test_unknown_flag_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_console_script_entry(self):
        # the child imports the same package, installed or not
        source = str(Path(prenet.__file__).parents[1])
        path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "prenet.cli", "theory", "--eps", "0.05"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "0.0975" in proc.stdout


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A labeled CSV and a prenet checkpoint trained on it."""
    d = tmp_path_factory.mktemp("trained")
    data = make_data(d)
    ckpt = d / "model.json"
    assert main(["train", "--data", str(data), *FAST, "-o", str(ckpt)]) == 0
    return data, ckpt


# A value other than FAST's for each train flag that sets up the training
TRAIN_FLAG_VALUES = {
    "--variant": ["a2h"],
    "--seed": ["6"],
    "--n-labeled": ["9"],
    "--contamination": ["0.1"],
    "--no-standardize": [],
    "--labels": ["9,4,0"],
    "--hidden-dims": ["7"],
    "--l2": ["0.5"],
    "--epochs": ["3"],
    "--batches-per-epoch": ["3"],
    "--batch-size": ["32"],
    "--learning-rate": ["0.01"],
}
# train flags that set up no training: help, files and columns
TRAIN_FILE_FLAGS = {"--help", "--output", "--report", "--data", "--label-column",
                    "--anomaly-value"}


def _actions(command):
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    return [a for a in commands.choices[command]._actions if a.option_strings]


def _flags(command):
    return [a.option_strings[-1] for a in _actions(command)]


def test_every_experiment_spec_field_has_one_experiment_flag():
    dests = [a.dest for a in _actions("experiment")]
    for field in dataclasses.fields(harness.ExperimentSpec):
        # --data sets the source
        assert dests.count(field.name) == (field.name != "source"), field.name


def test_every_synthetic_spec_field_has_one_synth_flag():
    dests = [a.dest for a in _actions("synth")]
    assert all(dests.count(f.name) == 1 for f in dataclasses.fields(harness.SyntheticSpec))
    args = build_parser().parse_args(["synth", "-o", "d.csv"])
    assert {d: getattr(args, d) for d in dests if d not in ("help", "output")} == (
        dataclasses.asdict(harness.SyntheticSpec())
    )


@pytest.mark.parametrize("command", ["train", "experiment", "ablate", "sweep"])
def test_run_flags_default_to_the_spec_defaults(command):
    args = build_parser().parse_args([command, "--data", "d.csv", "-o", "r.json"])
    assert _spec_from_args(args) == harness.ExperimentSpec(source="d.csv")


@pytest.mark.parametrize("command", ["synth", "train", "score", "eval", "experiment", "ablate",
                                     "sweep", "theory"])
def test_help_names_each_value_after_its_flag(command, capsys):
    for action in _actions(command):
        if action.nargs != 0:
            shown = action.metavar or action.dest.upper()
            assert shown == action.option_strings[-1][2:].upper().replace("-", "_"), action
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    assert ("--labels" in out) == ("(default: 8,4,0)" in out)


@pytest.mark.parametrize(
    "flag", [f for f in _flags("train") if f not in TRAIN_FILE_FLAGS]
)
def test_every_train_flag_changes_the_training(flag, trained, tmp_path):
    assert flag in TRAIN_FLAG_VALUES, (
        f"train takes {flag}: give it a value in TRAIN_FLAG_VALUES, or move it "
        "to the experiment flags if training does not read it"
    )
    data, ckpt = trained
    out = tmp_path / "m.json"
    assert main(["train", "--data", str(data), *FAST, flag, *TRAIN_FLAG_VALUES[flag],
                 "-o", str(out)]) == 0

    def report(path):
        doc = json.loads(Path(f"{path}.train.json").read_text())
        doc.pop("wall_seconds")
        return doc

    assert out.read_bytes() != ckpt.read_bytes() or report(out) != report(ckpt)


# ablate and sweep on one run with FAST's training; sweep on two rates
RUN_FAST = [*FAST, "--runs", "1", "--ensemble-size", "4"]
# A value other than RUN_FAST's for each flag of experiment, ablate and sweep.
# The ablate and sweep reports hold one experiment report, config included,
# per variant or rate.
RUN_FLAG_VALUES = {**TRAIN_FLAG_VALUES, "--runs": ["2"], "--train-fraction": ["0.7"],
                   "--ensemble-size": ["5"], "--rates": ["0.05"]}
# flags of the run commands that change no result: help, files, columns and workers
RUN_FILE_FLAGS = {"--help", "--output", "--data", "--label-column", "--anomaly-value",
                  "--jobs", "--spec-file"}


def _run_report(command, data, tmp_path, *flags):
    rates = ["--rates", "0,0.05"] if command == "sweep" else []
    out = tmp_path / f"{command}.json"
    assert main([command, "--data", str(data), *RUN_FAST, *rates, *flags, "-o", str(out)]) == 0
    return drop_volatile(json.loads(out.read_text()))


@pytest.fixture(scope="module")
def run_reports(tmp_path_factory):
    """A labeled CSV and the experiment, ablate and sweep reports of
    RUN_FAST on it."""
    d = tmp_path_factory.mktemp("runs")
    data = make_data(d)
    commands = ("experiment", "ablate", "sweep")
    return data, {command: _run_report(command, data, d) for command in commands}


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c in ("ablate", "sweep", "experiment") for f in _flags(c)
     if f not in RUN_FILE_FLAGS],
)
def test_every_ablate_and_sweep_flag_changes_the_report(command, flag, run_reports, tmp_path):
    assert flag in RUN_FLAG_VALUES, (
        f"{command} takes {flag}: give it a value in RUN_FLAG_VALUES, or drop it "
        f"from {command} if the report does not read it"
    )
    data, reports = run_reports
    assert _run_report(command, data, tmp_path, flag, *RUN_FLAG_VALUES[flag]) != reports[command]


@pytest.mark.parametrize(
    "command, value, flags",
    [("ablate", "ldm", ["--variant", "ldm"]), ("sweep", "0.05", ["--contamination", "0.05"])],
)
def test_each_grid_value_reports_the_experiment_that_ran(
    command, value, flags, run_reports, tmp_path
):
    data, reports = run_reports
    out = tmp_path / "experiment.json"
    assert main(["experiment", "--data", str(data), *RUN_FAST, *flags, "-o", str(out)]) == 0
    assert reports[command]["values"][value] == drop_volatile(json.loads(out.read_text()))


def _score_with_checkpoint(edit):
    """Row: score the data with a copy of the checkpoint text changed by ``edit``."""

    def argv(tmp_path, data, ckpt):
        bad = tmp_path / "bad.json"
        bad.write_text(edit(ckpt.read_text()))
        return ["score", "--checkpoint", str(bad), "--data", str(data),
                "-o", str(tmp_path / "s.csv")]

    return argv


def _edit_document(edit):
    def apply(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)

    return _score_with_checkpoint(apply)


def _score_unlabeled(cell):
    """Row: score a copy of the data without its label column, one cell replaced."""

    def argv(tmp_path, data, ckpt):
        lines = [",".join(line.split(",")[:-1]) for line in data.read_text().splitlines()]
        cells = lines[5].split(",")
        cells[1] = cell
        lines[5] = ",".join(cells)
        bare = tmp_path / "bare.csv"
        bare.write_text("\n".join(lines) + "\n")
        return ["score", "--checkpoint", str(ckpt), "--data", str(bare),
                "-o", str(tmp_path / "s.csv")]

    return argv


def _score_with_label(value):
    """Row: score a copy of the labeled data with one label cell replaced."""

    def argv(tmp_path, data, ckpt):
        lines = data.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + "," + value
        edited = tmp_path / "edited.csv"
        edited.write_text("\n".join(lines) + "\n")
        return ["score", "--checkpoint", str(ckpt), "--data", str(edited),
                "-o", str(tmp_path / "s.csv")]

    return argv


def _set_output_shape(doc):
    doc["params"]["output_weights"]["shape"] = [20, 2]


def _edit_array(section, key, change):
    """Row: score with a checkpoint whose array ``doc[section][key]`` is
    replaced by ``change(array)``."""

    def edit(doc):
        entry = doc[section][key]
        raw = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8")
        a = change(raw.reshape(entry["shape"]).copy())
        entry.update(shape=list(a.shape), data=base64.b64encode(a.tobytes()).decode())

    return _edit_document(edit)


def _first_entry(value):
    def change(a):
        a.flat[0] = value
        return a

    return change


def _eval_file(rows, header="row_index,score,true_label"):
    """Row: evaluate a scores file holding ``header`` and then ``rows``."""

    def argv(tmp_path, data, ckpt):
        scores = tmp_path / "scores.csv"
        scores.write_text(f"{header}\n{rows}")
        return ["eval", "--scores", str(scores), "-o", str(tmp_path / "m.json")]

    return argv


def _eval_scores(last_row):
    """Row: evaluate a scores file with both classes, ending in ``last_row``."""
    return _eval_file(f"0,0.9,1\n1,0.1,0\n{last_row}\n")


def _eval_with_data(labels):
    """Row: evaluate a scores file without true_label against a labeled
    CSV holding ``labels``."""

    def argv(tmp_path, data, ckpt):
        scores, labeled = tmp_path / "scores.csv", tmp_path / "labeled.csv"
        scores.write_text("row_index,score\n" + "".join(f"{i},0.{i}\n" for i in range(len(labels))))
        labeled.write_text("f1,label\n" + "".join(f"{i}.5,{y}\n" for i, y in enumerate(labels)))
        return ["eval", "--scores", str(scores), "--data", str(labeled),
                "-o", str(tmp_path / "m.json")]

    return argv


def _train_on(edit):
    """Row: train on a copy of the labeled data whose lines ``edit`` rewrites."""

    def argv(tmp_path, data, ckpt):
        edited = tmp_path / "edited.csv"
        edited.write_text("\n".join(edit(data.read_text().splitlines())) + "\n")
        return ["train", "--data", str(edited), *FAST, "-o", str(tmp_path / "m.json")]

    return argv


def _zero_spelled_both_ways(lines):
    """Every other normal's label written 0.0, so the labels read 0, 0.0 and 1."""
    return [line + ".0" if i % 2 and line.endswith(",0") else line
            for i, line in enumerate(lines)]


def _experiment(*flags):
    """Row: an experiment on the data with FAST_EXPERIMENT and then ``flags``."""

    def argv(tmp_path, data, ckpt):
        return ["experiment", "--data", str(data), *FAST_EXPERIMENT, *flags,
                "-o", str(tmp_path / "r.json")]

    return argv


def _no_run(*args, **kwargs):
    raise AssertionError("an experiment run started")


# malformed flag values whose one error line names the flag
FLAG_VALUE_ERRORS = [
    # (case, flag, argv builder)
    ("train_labels_not_a_number", "--labels",
     lambda tmp_path, data, ckpt: ["train", "--data", str(data), *FAST, "--labels", "8,4,x",
                                   "-o", str(tmp_path / "m.json")]),
    ("experiment_hidden_dims_not_a_number", "--hidden-dims", _experiment("--hidden-dims", "x")),
    ("sweep_rate_not_a_number", "--rates",
     lambda tmp_path, data, ckpt: ["sweep", "--data", str(data), *FAST_EXPERIMENT,
                                   "--rates", "0,x", "-o", str(tmp_path / "sw.json")]),
]

MALFORMED_INPUTS = [
    # (case, argv builder, expected exit code)
    *((case, argv, 2) for case, _, argv in FLAG_VALUE_ERRORS),
    ("truncated_checkpoint", _score_with_checkpoint(lambda t: t[: len(t) // 2]), 3),
    ("checkpoint_missing_output_bias",
     _edit_document(lambda d: d["params"].pop("output_bias")), 3),
    ("checkpoint_version_2", _edit_document(lambda d: d.update(version=2)), 3),
    ("checkpoint_hidden_dims_disagree",
     _edit_document(lambda d: d.update(hidden_dims=[19])), 3),
    ("checkpoint_output_weights_reshaped", _edit_document(_set_output_shape), 3),
    ("checkpoint_nan_parameter",
     _edit_document(lambda d: d["params"].update(output_bias=float("nan"))), 3),
    ("checkpoint_bad_base64",
     _edit_document(lambda d: d["params"]["output_weights"].update(data="!!")), 3),
    ("checkpoint_foreign_format", _edit_document(lambda d: d.update(format="other")), 3),
    ("checkpoint_not_an_object", _score_with_checkpoint(lambda t: "[1, 2]"), 3),
    ("checkpoint_nan_pool", _edit_array("pools", "unlabeled", _first_entry(np.nan)), 3),
    ("checkpoint_empty_pool", _edit_array("pools", "anomaly", lambda a: a[:0]), 3),
    ("checkpoint_zero_scale",
     _edit_array("standardization", "scale", _first_entry(0.0)), 3),
    ("checkpoint_inf_mean",
     _edit_array("standardization", "mean", _first_entry(np.inf)), 3),
    ("checkpoint_nan_l2", _edit_document(lambda d: d.update(l2_lambda=float("nan"))), 3),
    ("unlabeled_nan_feature", _score_unlabeled("nan"), 3),
    ("unlabeled_inf_feature", _score_unlabeled("-inf"), 3),
    ("label_value_2", _score_with_label("2"), 3),
    ("eval_label_one_half", _eval_scores("2,0.5,0.5"), 3),
    ("eval_nan_score", _eval_scores("2,nan,1"), 3),
    ("eval_label_value_2", _eval_scores("2,0.5,2"), 3),
    ("eval_header_only", _eval_file(""), 3),
    ("eval_no_score_column", _eval_file("0.9,1\n0.1,0\n", header="a,b"), 3),
    ("eval_only_normals", _eval_file("0,0.9,0\n1,0.1,0\n"), 3),
    ("eval_only_anomalies", _eval_file("0,0.9,1\n1,0.1,1\n"), 3),
    ("eval_data_only_normals", _eval_with_data([0, 0, 0]), 3),
    # a scores file follows the dataset-CSV rules
    ("eval_ragged_row", _eval_scores("2,0.5,0,7"), 3),
    ("eval_row_index_not_a_number", _eval_scores("two,0.5,0"), 3),
    ("train_no_feature_column", _train_on(lambda lines: [l.rsplit(",", 1)[1] for l in lines]), 3),
    ("jobs_zero", _experiment("--jobs", "0"), 2),
    ("train_labels_inf",
     lambda tmp_path, data, ckpt: ["train", "--data", str(data), *FAST, "--labels", "inf,4,0",
                                   "-o", str(tmp_path / "m.json")], 2),
    ("train_l2_nan",
     lambda tmp_path, data, ckpt: ["train", "--data", str(data), *FAST, "--l2", "nan",
                                   "-o", str(tmp_path / "m.json")], 2),
    ("train_learning_rate_inf",
     lambda tmp_path, data, ckpt: ["train", "--data", str(data), *FAST, "--learning-rate", "inf",
                                   "-o", str(tmp_path / "m.json")], 2),
    ("synth_separation_nan",
     lambda tmp_path, data, ckpt: ["synth", "--separation", "nan",
                                   "-o", str(tmp_path / "d.csv")], 2),
    ("experiment_missing_spec_file",
     lambda tmp_path, data, ckpt: ["experiment", "--data", str(data),
                                   "--spec-file", str(tmp_path / "nope.cfg"),
                                   "-o", str(tmp_path / "r.json")], 3),
    ("experiment_missing_spec_file_given_with_equals",
     lambda tmp_path, data, ckpt: ["experiment", "--data", str(data),
                                   f"--spec-file={tmp_path / 'nope.cfg'}",
                                   "-o", str(tmp_path / "r.json")], 3),
    # finite targets whose absolute errors sum past the float64 range
    ("train_labels_objective_overflow",
     lambda tmp_path, data, ckpt: ["train", "--data", str(data), *FAST, "--labels", "1e308,4,0",
                                   "-o", str(tmp_path / "m.json")], 4),
    ("sweep_duplicate_rate",
     lambda tmp_path, data, ckpt: ["sweep", "--data", str(data), *FAST_EXPERIMENT,
                                   "--rates", "0.02,0.020,0", "-o", str(tmp_path / "sw.json")],
     2),
    # range errors that need no data fail before the first run trains
    ("experiment_ensemble_size_zero", _experiment("--ensemble-size", "0"), 2),
    ("experiment_batch_size_6", _experiment("--batch-size", "6"), 2),
    ("experiment_epochs_zero", _experiment("--epochs", "0"), 2),
    ("experiment_hidden_dims_zero", _experiment("--hidden-dims", "0"), 2),
    ("experiment_learning_rate_zero", _experiment("--learning-rate", "0"), 2),
    ("sweep_rate_out_of_range_last",
     lambda tmp_path, data, ckpt: ["sweep", "--data", str(data), *FAST_EXPERIMENT,
                                   "--rates", "0,0.02,0.6", "-o", str(tmp_path / "sw.json")],
     2),
]


@pytest.mark.parametrize(
    "case,argv,expected", MALFORMED_INPUTS, ids=[row[0] for row in MALFORMED_INPUTS]
)
def test_malformed_input_exit_code(case, argv, expected, trained, tmp_path, capsys, monkeypatch):
    data, ckpt = trained
    args = argv(tmp_path, data, ckpt)
    # no malformed input gets as far as starting a run of an experiment
    monkeypatch.setattr(harness, "run_single", _no_run)
    assert main(args) == expected
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err and "run 0" not in err, err
    assert not Path(args[args.index("-o") + 1]).exists()


@pytest.mark.parametrize(
    "case,flag,argv", FLAG_VALUE_ERRORS, ids=[row[0] for row in FLAG_VALUE_ERRORS]
)
def test_bad_flag_value_names_the_flag(case, flag, argv, trained, tmp_path, capsys):
    data, ckpt = trained
    assert main(argv(tmp_path, data, ckpt)) == 2
    assert flag in capsys.readouterr().err


# awkward but valid inputs next to the malformed ones
WELL_FORMED_INPUTS = [
    # (case, argv builder)
    ("train_labels_spelled_0_and_0.0", _train_on(_zero_spelled_both_ways)),
    ("score_labels_spelled_0_and_0.0", _score_with_label("0.0")),
    ("eval_labels_spelled_0_and_0.0", _eval_scores("2,0.5,0.0")),
]


@pytest.mark.parametrize(
    "case,argv", WELL_FORMED_INPUTS, ids=[row[0] for row in WELL_FORMED_INPUTS]
)
def test_well_formed_input_exits_0(case, argv, trained, tmp_path, capsys):
    data, ckpt = trained
    args = argv(tmp_path, data, ckpt)
    assert main(args) == 0
    assert capsys.readouterr().err == ""
    assert Path(args[args.index("-o") + 1]).exists()

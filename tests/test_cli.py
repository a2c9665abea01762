"""End-to-end command-line checks on a micro corpus."""

import csv
import hashlib
import json
import os
import struct
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from test_config import LATE_FAILURES
from test_data import f64_payload

from tbpslab import cli, experiments
from tbpslab.cli import main
from tbpslab.config import fingerprint, materialize, resolve
from tbpslab.data import load_jsonl, oracle_rank1
from tbpslab.model import ModelConfig, init_model, save_checkpoint
from tbpslab.numerics import Rng

MICRO = [
    "--set", "data.n_identities=10",
    "--set", "data.images_per_identity=2",
    "--set", "data.captions_per_image=1",
    "--set", "model.hidden_dim=12",
    "--set", "model.embed_dim=6",
    "--set", "train.epochs=2",
    "--set", "train.batch_size=8",
]


def run_files(dirpath):
    return sorted(os.listdir(dirpath))


def micro_experiment():
    return materialize(resolve(overrides=[o for o in MICRO if o != "--set"]))


def count_runs(monkeypatch) -> list:
    """Wrap `experiments.run_training`: the returned list gets one
    (config fingerprint, corpus) pair per run, and holds each corpus."""
    runs = []
    train = experiments.run_training

    def counted(exp, dataset=None, out_dir=None):
        runs.append((fingerprint(exp.raw), dataset))
        return train(exp, dataset=dataset, out_dir=out_dir)

    monkeypatch.setattr(experiments, "run_training", counted)
    return runs


class TestTrainCommand:
    def test_writes_all_artifacts(self, tmp_path):
        out = tmp_path / "run"
        assert main(["train", *MICRO, "--outdir", str(out)]) == 0
        assert run_files(out) == [
            "config.yaml", "final.ckpt", "history.csv", "init.ckpt",
            "manifest.json", "report.json", "report.txt",
        ]
        report = json.loads((out / "report.json").read_text())
        assert set(report["metrics"]) >= {"rank1", "mAP", "mINP"}
        first = (out / "history.csv").read_text().splitlines()[0]
        assert first.startswith("# config=") and "seed=" in first

    def test_rerun_is_byte_identical_except_manifest(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", *MICRO, "--outdir", str(a)]) == 0
        assert main(["train", *MICRO, "--outdir", str(b)]) == 0
        for name in run_files(a):
            if name == "manifest.json":
                continue  # carries wall-clock timings by design
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_train_on_pregenerated_corpus(self, tmp_path):
        data = tmp_path / "corpus.jsonl"
        out = tmp_path / "run"
        assert main(["generate", *MICRO, "--out", str(data)]) == 0
        assert main(["train", *MICRO, "--data", str(data), "--outdir", str(out)]) == 0
        # generating inside the run gives the same corpus, so same model
        out2 = tmp_path / "run2"
        assert main(["train", *MICRO, "--outdir", str(out2)]) == 0
        assert (out / "final.ckpt").read_bytes() == (out2 / "final.ckpt").read_bytes()

    def test_default_outdir_under_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TBPSLAB_OUT", str(tmp_path / "root"))
        assert main(["train", *MICRO]) == 0
        (run,) = os.listdir(tmp_path / "root")
        assert "-" in run  # timestamp-fingerprint


TEXT_VIEWS = [
    "--set", "loss.weights={n_itc: 1.0, ss_t: 0.3}",
    "--set", "augment.text_mode=stack",
]


@pytest.mark.parametrize(
    "knob",
    [
        "augment.text_mode=eda",
        "augment.text_mode=none",
        "augment.text_ops=[random_swap]",
        "augment.alpha=0.3",
    ],
)
def test_text_augment_knob_changes_model(knob, tmp_path):
    # with a term that reads the text view, every text knob reaches the model
    base, turned = tmp_path / "base", tmp_path / "turned"
    assert main(["train", *MICRO, *TEXT_VIEWS, "--outdir", str(base)]) == 0
    assert main(["train", *MICRO, *TEXT_VIEWS, "--set", knob, "--outdir", str(turned)]) == 0
    assert (base / "final.ckpt").read_bytes() != (turned / "final.ckpt").read_bytes()


class TestGenerateAndEval:
    def test_generate_then_eval(self, tmp_path):
        data = tmp_path / "corpus.jsonl"
        out = tmp_path / "run"
        assert main(["generate", *MICRO, "--out", str(data)]) == 0
        ds = load_jsonl(str(data))
        assert oracle_rank1(ds.test, ds.attrs) == 1.0
        assert main(["train", *MICRO, "--outdir", str(out)]) == 0
        rc = main(["eval", "--checkpoint", str(out / "final.ckpt"),
                   "--data", str(data), "--split", "test"])
        assert rc == 0


class TestTables:
    def test_ablate_augmentation_csv(self, tmp_path):
        out = tmp_path / "tab"
        assert main(["ablate", "augmentation", *MICRO, "--outdir", str(out)]) == 0
        lines = (out / "ablate-augmentation.csv").read_text().splitlines()
        assert lines[0].startswith("# config=")
        assert lines[1].split(",")[0] == "row"
        rows = [ln.split(",")[0] for ln in lines[2:]]
        assert rows == ["none", "image-only", "text-only", "full"]

    def test_fewshot_csv(self, tmp_path):
        out = tmp_path / "tab"
        assert main(["fewshot", *MICRO, "--fractions", "0.5,1.0",
                     "--outdir", str(out)]) == 0
        lines = (out / "fewshot.csv").read_text().splitlines()
        assert len(lines) == 4  # comment, header, two rows

    def test_compress_csv(self, tmp_path, monkeypatch):
        runs = count_runs(monkeypatch)
        out = tmp_path / "tab"
        assert main(["compress", *MICRO, "--mode", "freeze", "--xs", "0,1",
                     "--outdir", str(out)]) == 0
        lines = (out / "compress-freeze.csv").read_text().splitlines()
        assert [ln.split(",")[0] for ln in lines[2:]] == ["0", "1"]
        assert len(runs) == 2  # the run that scores the layers is the x = 0 row

    def test_contribution_csv(self, tmp_path):
        out = tmp_path / "tab"
        assert main(["contribution", *MICRO, "--outdir", str(out)]) == 0
        lines = (out / "contribution.csv").read_text().splitlines()
        assert lines[1].split(",") == ["module", "delta", "c1", "c2", "combined"]
        assert len(lines) == 2 + 10  # one row per module


class TestStudy:
    def test_study_writes_run_and_every_table(self, tmp_path, monkeypatch):
        runs = count_runs(monkeypatch)
        out = tmp_path / "study"
        assert main(["study", *MICRO, "--outdir", str(out)]) == 0
        # 29 rows and the run, less the 6 rows whose config is the run's own:
        # one per ablation table, few-shot 1.0 and both x = 0 rows
        assert len(runs) == 23
        assert len({(fp, id(ds)) for fp, ds in runs}) == 23
        tables = [
            "ablate-augmentation", "ablate-loss", "ablate-trick", "fewshot",
            "contribution", "compress-freeze", "compress-drop",
        ]
        assert run_files(out) == sorted(["config.yaml", "run", *(f"{t}.csv" for t in tables)])
        assert {"final.ckpt", "history.csv", "report.txt"} <= set(run_files(out / "run"))
        stamp = (out / "run" / "history.csv").read_text().splitlines()[0]
        assert stamp.startswith("# config=") and stamp.endswith(" seed=0")
        for name in tables:
            lines = (out / f"{name}.csv").read_text().splitlines()
            assert lines[0] == stamp, name
            assert len(lines) > 2, name
        trick_rows = [ln.split(",")[0] for ln in (out / "ablate-trick.csv").read_text().splitlines()[2:]]
        assert trick_rows == ["baseline", "+dropout", "+lock-patch-proj", "+soft-label", "all-tricks"]


class TestExitCodes:
    def test_unknown_key_is_config_error(self, capsys):
        assert main(["train", "--set", "bogus.key=1"]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["file", "set"])
    def test_unknown_loss_term_is_named_not_missing(self, source, tmp_path, capsys):
        if source == "file":
            path = tmp_path / "exp.yaml"
            path.write_text("loss:\n  weights: {n_itc: 1.0, ss_x: 0.5}\n")
            args = ["--config", str(path)]
        else:
            args = ["--set", "loss.weights={n_itc: 1.0, ss_x: 0.5}"]
        assert main(["train", *args, "--outdir", str(tmp_path / "never")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "unknown loss term 'ss_x'" in err
        assert "missing" not in err

    def test_unknown_preset_is_config_error(self):
        assert main(["train", "--preset", "nope"]) == 1

    def test_bad_value_is_config_error(self):
        assert main(["train", "--set", "train.epochs=0"]) == 1

    def test_usage_error(self):
        assert main([]) == 1
        assert main(["no-such-command"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_missing_data_file_is_runtime_error(self, capsys):
        rc = main(["eval", "--checkpoint", "/no/ckpt", "--data", "/no/data.jsonl"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [{"h": 48.0}, {"h": 24, "w": 48}], ids=["float-h", "swapped"])
    def test_record_off_the_header_raster_is_runtime_error(self, edit, tmp_path, capsys):
        data = tmp_path / "corpus.jsonl"
        assert main(["generate", *MICRO, "--out", str(data)]) == 0
        lines = data.read_text().splitlines()
        rec = json.loads(lines[2])
        rec.update(edit)
        lines[2] = json.dumps(rec)
        data.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["train", *MICRO, "--data", str(data), "--outdir", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "ParseError: line 3: " in err and "header's raster is 48x24" in err

    @pytest.mark.parametrize(
        "line, edit, message",
        [
            (2, {"identity": 99}, "identity 99 is not a key of the header's attrs"),
            (2, {"identity": "3"}, "identity '3' is not a key of the header's attrs"),
            (2, {"caption": 5}, "caption 5 is not a string"),
            (2, {"image_b64": 5}, "image_b64 5 is not a string"),
            (2, {"image_mode": "f64", "image_b64": f64_payload(-5.0)}, "f64 image value -5.0 is not a pixel value"),
            (2, {"image_mode": "f64", "image_b64": f64_payload(np.nan)}, "f64 image value nan is not a pixel value"),
            (1, {"attrs": {"0": ["red", "blue"]}}, "attrs '0': ['red', 'blue'] is not an identity's"),
        ],
        ids=["unknown-identity", "string-identity", "int-caption", "int-payload", "negative-f64", "nan-f64",
             "two-word-attrs"],
    )
    def test_record_the_header_does_not_name_is_runtime_error(self, line, edit, message, tmp_path, capsys):
        data = tmp_path / "corpus.jsonl"
        assert main(["generate", *MICRO, "--out", str(data)]) == 0
        lines = data.read_text().splitlines()
        rec = json.loads(lines[line - 1])
        if "attrs" in edit:
            rec["attrs"].update(edit["attrs"])
        else:
            rec.update(edit)
        lines[line - 1] = json.dumps(rec)
        data.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["train", *MICRO, "--data", str(data), "--outdir", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert f"ParseError: line {line}: {message}" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_truncated_checkpoint_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", *MICRO, "--outdir", str(out)]) == 0
        ckpt = out / "final.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:-8])
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", "/no/data.jsonl"])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "cut short in tensor 'txt.out.b' (40 of 48 bytes)" in err

    def test_malformed_checkpoint_header_is_runtime_error(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(init_model(ModelConfig(vocab=("red",)), Rng(1)), ckpt)
        data = ckpt.read_bytes()
        (hlen,) = struct.unpack("<Q", data[8:16])
        header = json.loads(data[16 : 16 + hlen])
        header["tensors"][0]["shape"] = "4x4"  # numpy cannot size this
        blob = json.dumps(header).encode("utf-8")
        ckpt.write_bytes(data[:8] + struct.pack("<Q", len(blob)) + blob + data[16 + hlen :])
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", "/no/data.jsonl"])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "bad tensor entry" in err

    def test_checkpoint_without_a_config_tensor_is_runtime_error(self, tmp_path, capsys):
        model = init_model(ModelConfig(vocab=("red",)), Rng(1))
        del model.params["img.hidden.0.W"]
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(model, ckpt)
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", "/no/data.jsonl"])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "missing tensor 'img.hidden.0.W'" in err

    def test_validation_precedes_side_effects(self, tmp_path):
        out = tmp_path / "never"
        assert main(["train", "--set", "train.epochs=0", "--outdir", str(out)]) == 1
        assert not out.exists()

    def test_compress_budget_out_of_range_fails_before_training(self, monkeypatch, capsys):
        runs = []
        monkeypatch.setattr(experiments, "run_training", lambda *a, **k: runs.append(a))
        assert main(["compress", *MICRO, "--mode", "freeze", "--xs", "0,1,9"]) == 2
        assert "x must be in [0, 3], got 9" in capsys.readouterr().err
        assert runs == []


@pytest.mark.parametrize("override", LATE_FAILURES)
def test_bad_value_fails_before_any_run(override, monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(experiments, "run_training", lambda *a, **k: runs.append(a))
    assert main(["train", *MICRO, "--set", override]) == 1
    assert "config error:" in capsys.readouterr().err
    assert runs == []


def compress_rows(argv, tmp_path) -> list:
    """The rows of `tbpslab compress argv` on MICRO, as dicts of strings."""
    out = tmp_path / "tab"
    assert main(["compress", *MICRO, *argv, "--outdir", str(out)]) == 0
    (table,) = out.glob("compress-*.csv")
    with open(table, newline="") as fh:
        return list(csv.DictReader(fh.readlines()[1:]))


def test_compress_freeze_skips_the_layers_the_config_freezes(tmp_path, monkeypatch):
    runs = count_runs(monkeypatch)
    argv = ["--set", "freeze_modules=[txt.hidden.0]", "--mode", "freeze", "--xs", "0,1"]
    rows = compress_rows(argv, tmp_path)
    assert rows[0]["modules"] == "()"
    assert rows[1]["modules"] in ("('txt.hidden.1',)", "('txt.hidden.2',)")
    assert int(rows[1]["trainable"]) < int(rows[0]["trainable"])
    assert len(runs) == 2 and len({fp for fp, _ in runs}) == 2


def test_compress_drop_keeps_the_layers_the_config_drops(tmp_path, monkeypatch):
    runs = count_runs(monkeypatch)
    argv = ["--set", "model.dropped_text_layers=[1]", "--mode", "drop", "--xs", "0,1"]
    rows = compress_rows(argv, tmp_path)
    # the x = 0 row is the scoring run itself, layer 1 still dropped
    scoring = experiments.variant(micro_experiment(), {"model": {"dropped_text_layers": [1]}})
    assert len(runs) == 2 and runs[0][0] == fingerprint(scoring.raw)
    assert rows[1]["modules"] in ("('txt.hidden.0',)", "('txt.hidden.2',)")
    assert int(rows[1]["trainable"]) < int(rows[0]["trainable"])


def test_compress_budget_counts_only_the_layers_that_train(monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(experiments, "run_training", lambda *a, **k: runs.append(a))
    argv = ["--set", "model.dropped_text_layers=[1]", "--mode", "drop", "--xs", "0,3"]
    assert main(["compress", *MICRO, *argv]) == 2
    assert "x must be in [0, 2], got 3" in capsys.readouterr().err
    assert runs == []


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("PASS ") for line in lines) == 7
    assert not any(line.startswith("FAIL ") for line in lines)


def test_selftest_reports_a_failing_check(monkeypatch, capsys):
    def broken():
        raise AssertionError("broken on purpose")

    checks = cli._selftest_checks()
    schedule = [check for check in checks if check[0] == "schedule endpoints"]
    monkeypatch.setattr(cli, "_selftest_checks", lambda: [*schedule, ("broken", broken)])
    assert main(["selftest"]) == 3
    out = capsys.readouterr().out
    assert "PASS schedule endpoints" in out and "FAIL broken: broken on purpose" in out


@pytest.mark.parametrize(
    "xs, mode, scores, match",
    [
        ((0, 1, 9), "freeze", None, r"\[0, 3\], got 9"),  # three text hidden layers
        ((0, 3), "drop", {"txt.hidden.0": 0.1, "txt.hidden.2": 0.2}, r"\[0, 2\], got 3"),
        ((0,), "shrink", None, "shrink"),
    ],
    ids=["budget", "budget-of-scores", "mode"],
)
def test_compression_series_fails_before_training(xs, mode, scores, match, monkeypatch):
    runs = []
    monkeypatch.setattr(experiments, "run_training", lambda *a, **k: runs.append(a))
    exp = micro_experiment()
    with pytest.raises(ValueError, match=match):
        experiments.compression_series(exp, xs, mode, scores=scores)
    assert runs == []


def test_compression_series_drops_the_lowest_scoring_layers(monkeypatch):
    runs = count_runs(monkeypatch)
    scores = {"txt.hidden.0": 0.1, "txt.hidden.1": 0.5, "txt.hidden.2": 0.3}
    rows = experiments.compression_series(micro_experiment(), (0, 1, 2), "drop", scores=scores)
    assert [r["x"] for r in rows] == [0, 1, 2]
    assert [r["modules"] for r in rows] == [(), ("txt.hidden.0",), ("txt.hidden.0", "txt.hidden.2")]
    # drop mode sheds parameters strictly
    assert rows[0]["trainable"] > rows[1]["trainable"] > rows[2]["trainable"]
    assert len(runs) == 3  # with no run done, x = 0 retrains too


def test_run_many_trains_each_distinct_job_once(monkeypatch):
    trained = []

    def stub(exp, dataset=None, out_dir=None):
        trained.append((exp.seed, dataset))
        return SimpleNamespace(experiment=exp, dataset=dataset)

    monkeypatch.setattr(experiments, "run_training", stub)
    base = micro_experiment()
    other = experiments.variant(base, {"seed": 1})
    corpus, twin = object(), object()
    finished = SimpleNamespace(experiment=base, dataset=corpus)
    jobs = [(other, corpus), (base, corpus), (base, twin), (other, corpus)]
    results = experiments.run_many(jobs, done=(finished,))
    assert [(r.experiment.seed, r.dataset) for r in results] == [(1, corpus), (0, corpus), (0, twin), (1, corpus)]
    assert results[1] is finished and results[3] is results[0]
    # the done run is not retrained; the same config on another corpus is
    assert trained == [(1, corpus), (0, twin)]


# SHA-256 of init.ckpt of the default tbps-clip run at seed 0, recorded
# when a finished run carried a clone of its initial model
DEFAULT_INIT_CKPT = "69254a0e4001e6bcfcb2f445be60518cec7b7fc74ae3866513d78c129207307e"


def test_initial_model_is_derived_when_first_read(monkeypatch, tmp_path):
    built = []
    real = experiments.init_model
    monkeypatch.setattr(experiments, "init_model", lambda *a: built.append(a) or real(*a))
    # the epochs do not enter the initial model; tbps-clip freezes img.patch
    run = experiments.run_training(materialize(resolve(preset="tbps-clip", overrides=["train.epochs=1"])))
    assert len(built) == 1  # the model that trained; the run holds no second one
    assert run.model.frozen == {"img.patch"} and run.model_init.frozen == set()
    assert run.model_init is run.model_init and len(built) == 2  # built on the first read only
    save_checkpoint(run.model_init, tmp_path / "init.ckpt")
    assert hashlib.sha256((tmp_path / "init.ckpt").read_bytes()).hexdigest() == DEFAULT_INIT_CKPT


def test_fewshot_curve_fails_before_training(monkeypatch):
    runs = []
    monkeypatch.setattr(experiments, "run_training", lambda *a, **k: runs.append(a))
    exp = micro_experiment()
    with pytest.raises(ValueError, match=r"fraction must be in \(0, 1\], got 2.0"):
        experiments.fewshot_curve(exp, (0.5, 2.0))
    assert runs == []


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["compress", "--mode", "freeze", "--xs", "0,a"], 1, "argument --xs"),
        (["fewshot", "--fractions", "0.5,x"], 1, "argument --fractions"),
        (["fewshot", "--fractions", "0.5,2.0"], 2, "got 2.0"),
    ],
    ids=["malformed-xs", "malformed-fractions", "fraction-out-of-range"],
)
def test_bad_list_option_fails_before_training(argv, code, message, monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(experiments, "run_training", lambda *a, **k: runs.append(a))
    assert main([*argv, *MICRO]) == code
    assert message in capsys.readouterr().err
    assert runs == []


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tbpslab.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "selftest" in proc.stdout

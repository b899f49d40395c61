import csv
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snnkit import cli, data, modelio, pipeline
from snnkit.ann import AnnTrainConfig, CalibrationConfig
from snnkit.config import DatasetConfig, ExperimentConfig, RunReport
from snnkit.errors import ConfigurationError, EmissionError
from snnkit.metrics import energy, energy_ratio
from snnkit.network import AvgPool, Conv, FullyConnected, NetworkSpec
from snnkit.neuron import LayerParams
from snnkit.training import TrainConfig


@pytest.fixture(scope="module")
def tiny_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    paths = data.write_synthetic_idx(root / "ds", 160, 60, seed=5)
    return root, paths


def tiny_config(root, paths, out_name="out", **overrides):
    cfg = ExperimentConfig(
        dataset=DatasetConfig(format="idx", **paths),
        network=NetworkSpec(
            layers=(FullyConnected(24), FullyConnected(10)),
            input_shape=(1, 28, 28),
            num_classes=10,
            total_timesteps=3,
        ),
        encoder="hybrid",
        calibration=CalibrationConfig(num_images=32, calib_timesteps=8),
        ann_train=AnnTrainConfig(epochs=4, batch_size=32),
        snn_train=TrainConfig(lr=1e-3, epochs=2, batch_size=32),
        seed=7,
        out_dir=str(root / out_name),
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**6), 10**6) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def field_paths(node, prefix=()):
    """Key paths of every field (sections, list items and leaves) in a config dict."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from field_paths(value, prefix + (key,))


def write_config(root, cfg, name="config.json"):
    path = root / name
    cfg.to_json(path)
    return str(path)


@pytest.fixture(scope="module")
def small_conv_run(tiny_root):
    """A finished run-all of a conv network whose hidden fc layer has 16 units."""
    root, paths = tiny_root
    cfg = tiny_config(root, paths, "out_small_conv")
    cfg.network = NetworkSpec(
        layers=(Conv(4, 5), AvgPool(2), FullyConnected(16), FullyConnected(10)),
        input_shape=(1, 28, 28),
        num_classes=10,
        total_timesteps=3,
    )
    assert cli.main(["run-all", "--config", write_config(root, cfg, "small_conv.json")]) == 0
    return root, paths, cfg


class TestRunAll:
    def test_full_pipeline_produces_artifacts(self, tiny_root, capsys):
        root, paths = tiny_root
        cfg_path = write_config(root, tiny_config(root, paths, "out_a"))
        assert cli.main(["run-all", "--config", cfg_path]) == 0
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert 0.0 <= printed["accuracy_ann"] <= 100.0
        out = root / "out_a"
        for name in (
            pipeline.ANN_MODEL,
            pipeline.THRESHOLDS_FILE,
            pipeline.CONVERTED_MODEL,
            pipeline.SNN_MODEL,
            pipeline.REPORT_FILE,
            pipeline.SPIKE_CSV,
            pipeline.ENERGY_CSV,
            pipeline.LOSS_CSV,
        ):
            assert (out / name).exists(), name

    def test_report_round_trips(self, tiny_root):
        root, _ = tiny_root
        report = pipeline.load_report(root / "out_a")
        again = RunReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert again.to_dict() == report.to_dict()

    def test_energy_csv_ratio_matches_report(self, tiny_root):
        root, _ = tiny_root
        report = pipeline.load_report(root / "out_a")
        with open(root / "out_a" / pipeline.ENERGY_CSV) as fh:
            rows = list(csv.DictReader(fh))
        total = [r for r in rows if r["layer"] == "total"][0]
        assert abs(float(total["ratio"]) - report.energy.ratio) < 1e-9

    def test_energy_csv_has_no_blank_cells_and_layers_sum_to_total(self, tiny_root):
        root, _ = tiny_root
        report = pipeline.load_report(root / "out_a")
        with open(root / "out_a" / pipeline.ENERGY_CSV) as fh:
            rows = list(csv.DictReader(fh))
        assert all(value != "" for row in rows for value in row.values())
        *layers, total = rows
        assert [r["layer"] for r in layers] == [r.name for r in report.energy.layers]
        for column in ("e_ann_pj", "e_snn_pj"):
            layer_sum = sum(float(r[column]) for r in layers)
            assert layer_sum == pytest.approx(float(total[column]), rel=1e-9), column
        for row in layers:
            assert float(row["ratio"]) == pytest.approx(energy_ratio(float(row["e_ann_pj"]), float(row["e_snn_pj"])))
        f_ann = sum(float(r["ann_flops"]) for r in layers)
        f_snn = sum(float(r["snn_flops"]) for r in layers)
        assert float(total["input_activity"]) == pytest.approx(f_snn / f_ann, rel=1e-8)

    def test_failed_emission_keeps_earlier_files(self, tiny_root, tmp_path, monkeypatch):
        root, _ = tiny_root
        report = pipeline.load_report(root / "out_a")
        out = tmp_path / "emit"
        pipeline.emit_report(report, out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real_writer = csv.writer
        calls = []

        def writer_then_fail(fh):
            calls.append(fh)
            if len(calls) == 2:  # energy.csv, with its temp file already open
                raise OSError("disk full")
            return real_writer(fh)

        monkeypatch.setattr(pipeline.csv, "writer", writer_then_fail)
        report.accuracy_ann = -1.0
        with pytest.raises(EmissionError):
            pipeline.emit_report(report, out)
        assert sorted(p.name for p in out.iterdir()) == sorted(before)
        assert (out / pipeline.ENERGY_CSV).read_bytes() == before[pipeline.ENERGY_CSV]
        assert (out / pipeline.LOSS_CSV).read_bytes() == before[pipeline.LOSS_CSV]
        assert json.loads((out / pipeline.REPORT_FILE).read_text())["accuracy_ann"] == -1.0

    def test_spike_csv_has_one_row_per_hidden_layer(self, tiny_root):
        root, _ = tiny_root
        with open(root / "out_a" / pipeline.SPIKE_CSV) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1  # one hidden fc layer
        assert 0.0 <= float(rows[0]["spikes_per_neuron"]) <= 1.0

    @pytest.mark.parametrize("encoder,neuron_model", [("direct", "multi_spike"), ("rate", "multi_spike")])
    def test_other_encoders_and_models_run(self, tiny_root, capsys, encoder, neuron_model):
        root, paths = tiny_root
        cfg = tiny_config(root, paths, f"out_{encoder}", encoder=encoder, neuron_model=neuron_model)
        cfg_path = write_config(root, cfg, f"{encoder}.json")
        assert cli.main(["run-all", "--config", cfg_path]) == 0
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert 0.0 <= printed["accuracy_finetuned"] <= 100.0
        report = pipeline.load_report(root / f"out_{encoder}")
        assert report.energy.encoding == encoder

    def test_cifar_binary_pipeline(self, tmp_path, rng):
        def write_batch(path, n, offset):
            records = np.zeros((n, data.CIFAR_RECORD_BYTES), dtype=np.uint8)
            records[:, 0] = (np.arange(n) + offset) % 10
            records[:, 1:] = rng.integers(0, 256, size=(n, 3072))
            path.write_bytes(records.tobytes())

        train = tmp_path / "train.bin"
        test = tmp_path / "test.bin"
        write_batch(train, 60, 0)
        write_batch(test, 20, 1)
        cfg = ExperimentConfig(
            dataset=DatasetConfig(format="cifar-binary", train_files=[str(train)], test_files=[str(test)]),
            network=NetworkSpec(
                layers=(FullyConnected(12), FullyConnected(10)),
                input_shape=(3, 32, 32),
                num_classes=10,
                total_timesteps=3,
            ),
            calibration=CalibrationConfig(num_images=16, calib_timesteps=4),
            ann_train=AnnTrainConfig(epochs=2, batch_size=16),
            snn_train=TrainConfig(lr=1e-3, epochs=1, batch_size=16),
            seed=3,
            out_dir=str(tmp_path / "out"),
        )
        report = pipeline.run_experiment(cfg)
        assert 0.0 <= report.accuracy_finetuned <= 100.0
        assert report.energy is not None

    def test_determinism_across_runs(self, tiny_root):
        root, paths = tiny_root
        for name in ("det_1", "det_2"):
            cfg_path = write_config(root, tiny_config(root, paths, name), f"{name}.json")
            assert cli.main(["run-all", "--config", cfg_path]) == 0
        a = pipeline.load_report(root / "det_1").to_dict()
        b = pipeline.load_report(root / "det_2").to_dict()
        a.pop("wall_clock_s")
        b.pop("wall_clock_s")
        a["config"].pop("out_dir")
        b["config"].pop("out_dir")
        assert a == b


class TestEvalOnly:
    def test_zero_weight_model_predicts_class_zero(self, tiny_root, capsys):
        root, paths = tiny_root
        cfg = tiny_config(root, paths, "out_zero")
        cfg_path = write_config(root, cfg, "zero.json")
        out_dir = root / "out_zero"
        out_dir.mkdir(exist_ok=True)
        zero = [
            LayerParams(np.zeros(s, np.float32), 1.0, 1.0) for s in cfg.network.weight_shapes()
        ]
        modelio.save_params(out_dir / "zero.model", zero)
        assert cli.main(["eval", "--config", cfg_path, "--model", "zero.model"]) == 0
        acc = json.loads(capsys.readouterr().out.strip())["accuracy"]
        labels = data.read_idx_labels(paths["test_labels"])
        assert acc == pytest.approx(100.0 * (labels == 0).mean())

    def test_missing_model_is_config_error(self, tiny_root, capsys):
        root, paths = tiny_root
        cfg_path = write_config(root, tiny_config(root, paths, "out_missing"), "missing.json")
        assert cli.main(["eval", "--config", cfg_path]) == 2
        assert "run the earlier phases" in capsys.readouterr().err


def count_evaluate_calls(monkeypatch):
    """Spy on the evaluate pass the pipeline runs; returns the list of counters each call filled."""
    calls = []
    evaluate = pipeline.evaluate

    def spy(*args, **kwargs):
        calls.append(kwargs.get("counters"))
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(pipeline, "evaluate", spy)
    return calls


ONE_EPOCH = TrainConfig(lr=1e-3, epochs=1, batch_size=32)


class TestOneCountedPass:
    """eval and profile read one counted inference pass over the eval slice."""

    def test_run_all_scores_the_fine_tuned_model_once(self, tiny_root, monkeypatch):
        root, paths = tiny_root
        calls = count_evaluate_calls(monkeypatch)
        report = pipeline.Experiment(tiny_config(root, paths, "out_one_pass", snn_train=ONE_EPOCH)).run_all()
        # convert's fidelity pass, then the one counted pass both eval and profile read
        assert len(calls) == 2 and calls[0] is None and calls[1] is not None
        assert calls[1].samples == 60
        assert report.accuracy_finetuned is not None and report.energy is not None

    @pytest.mark.parametrize("command", ["eval", "profile"])
    def test_each_command_alone_runs_the_pass_once(self, small_conv_run, monkeypatch, capsys, command):
        root, _, cfg = small_conv_run
        calls = count_evaluate_calls(monkeypatch)
        assert cli.main([command, "--config", str(root / "small_conv.json")]) == 0
        assert len(calls) == 1 and calls[0] is not None
        printed = json.loads(capsys.readouterr().out)
        report = pipeline.load_report(cfg.out_dir)
        if command == "eval":
            assert printed == {"accuracy": report.accuracy_finetuned}
        else:
            assert printed == {"e_ann_pj": report.energy.e_ann_pj, "e_snn_pj": report.energy.e_snn_pj, "ratio": report.energy.ratio}

    def test_a_new_fine_tuned_model_is_scored_again(self, tiny_root, monkeypatch):
        root, paths = tiny_root
        exp = pipeline.Experiment(tiny_config(root, paths, "out_rescored", snn_train=ONE_EPOCH))
        exp.run_all()
        calls = count_evaluate_calls(monkeypatch)
        exp.profile()
        assert calls == []
        exp.train_snn()
        exp.eval()
        exp.profile()
        assert len(calls) == 1


class TestFineTuningScore:
    """Each fine-tuning epoch scores the eval slice, the last one counted, and snn.model keeps that score."""

    def test_the_last_epoch_is_counted_and_eval_and_profile_run_nothing(self, tiny_root, monkeypatch):
        root, paths = tiny_root
        phases, seen = [], []
        timed, evaluate = pipeline.Experiment._timed, pipeline.evaluate

        def track(self, phase, fn):
            phases.append(phase)
            return timed(self, phase, fn)

        def spy(*args, **kwargs):
            seen.append((phases[-1], kwargs.get("counters")))
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(pipeline.Experiment, "_timed", track)
        monkeypatch.setattr(pipeline, "evaluate", spy)
        cfg = tiny_config(root, paths, "out_epoch_passes")
        assert cfg.snn_train.epochs == 2
        report = pipeline.Experiment(cfg).run_all()
        assert phases == ["train-ann", "calibrate", "convert", "train-snn", "eval", "profile"]
        assert [phase for phase, _ in seen] == ["convert", "train-snn", "train-snn"]
        assert seen[0][1] is None and seen[1][1] is None and seen[2][1].samples == 60
        # the last epoch's counters, since keep_best is off
        assert report.energy.to_dict() == energy(cfg.network, seen[-1][1], cfg.encoder).to_dict()

    def test_kept_best_epoch_scores_as_the_saved_model(self, tiny_root, monkeypatch):
        root, paths = tiny_root
        # with this rate the second of three epochs scores best
        cfg = tiny_config(root, paths, "out_keep_best", snn_train=TrainConfig(lr=1e-2, epochs=3, batch_size=32, keep_best=True))
        calls = count_evaluate_calls(monkeypatch)
        report = pipeline.Experiment(cfg).run_all()
        curve = report.snn_accuracy_curve
        assert max(curve) > curve[-1] and report.accuracy_finetuned == max(curve)
        # convert, three epochs (the last counted), then eval counts the kept uncounted epoch once
        assert [c is None for c in calls] == [True, True, True, False, False]
        monkeypatch.undo()
        fresh = pipeline.Experiment(cfg)
        calls = count_evaluate_calls(monkeypatch)
        assert fresh.eval() == report.accuracy_finetuned
        assert fresh.profile().to_dict() == report.energy.to_dict()
        assert len(calls) == 1

    def test_rate_coding_curve_ends_at_the_fine_tuned_accuracy(self, tiny_root):
        root, paths = tiny_root
        report = pipeline.Experiment(tiny_config(root, paths, "out_rate_score", encoder="rate")).run_all()
        assert len(report.snn_accuracy_curve) == 2
        assert report.snn_accuracy_curve[-1] == report.accuracy_finetuned


@pytest.fixture(scope="module")
def overridable_run(tiny_root):
    """A finished run-all of the tiny config (hybrid, seed 7, T=3) and its config file."""
    root, paths = tiny_root
    cfg_path = write_config(root, tiny_config(root, paths, "out_overrides"), "overrides.json")
    assert cli.main(["run-all", "--config", cfg_path]) == 0
    return cfg_path, root / "out_overrides"


OVERRIDES = [("--encoder", "direct", "encoder"), ("--seed", "8", "seed"), ("--timesteps", "4", "network.total_timesteps")]


class TestProfileAfterRunAll:
    """The profile command rewrites a run's energy and keeps the rest of its results."""

    @pytest.mark.parametrize("flag, value, key", OVERRIDES + [("--model", pipeline.CONVERTED_MODEL, "model (snn.model) than converted.model")])
    def test_an_override_of_the_run_is_configuration_error(self, overridable_run, capsys, flag, value, key):
        cfg_path, out = overridable_run
        names = (pipeline.REPORT_FILE, pipeline.SPIKE_CSV, pipeline.ENERGY_CSV, pipeline.LOSS_CSV)
        before = {name: (out / name).read_bytes() for name in names}
        assert cli.main(["profile", "--config", cfg_path, flag, value]) == 2
        err = capsys.readouterr().err
        assert f"{pipeline.REPORT_FILE} in {out} records another {key};" in err
        assert {name: (out / name).read_bytes() for name in names} == before

    @pytest.mark.parametrize("flag, value", [("--encoder", "hybrid"), ("--seed", "7"), ("--timesteps", "3"), ("--out", ""), ("--model", "snn.model")])
    def test_flags_that_match_the_run_keep_working(self, overridable_run, flag, value):
        cfg_path, out = overridable_run
        before = pipeline.load_report(out)
        assert cli.main(["profile", "--config", cfg_path, flag, value or str(out)]) == 0
        assert pipeline.load_report(out).energy == before.energy

    @pytest.mark.parametrize("flag, value, key", OVERRIDES)
    def test_an_override_into_a_fresh_out_profiles_that_run(self, overridable_run, tmp_path, flag, value, key):
        cfg_path, out = overridable_run
        (tmp_path / pipeline.SNN_MODEL).write_bytes((out / pipeline.SNN_MODEL).read_bytes())
        assert cli.main(["profile", "--config", cfg_path, flag, value, "--out", str(tmp_path)]) == 0
        report = pipeline.load_report(tmp_path)
        assert cli.config_differences(pipeline.load_report(out).config, report.config) == [key]
        assert report.energy.encoding == report.config["encoder"]
        assert report.energy.total_timesteps == report.config["network"]["total_timesteps"]

    def test_another_model_into_a_fresh_out_profiles_that_model(self, overridable_run, tmp_path):
        cfg_path, out = overridable_run
        (tmp_path / pipeline.CONVERTED_MODEL).write_bytes((out / pipeline.CONVERTED_MODEL).read_bytes())
        assert cli.main(["profile", "--config", cfg_path, "--model", pipeline.CONVERTED_MODEL, "--out", str(tmp_path)]) == 0
        converted = pipeline.load_report(tmp_path).energy
        assert converted is not None and converted != pipeline.load_report(out).energy

    def test_keeps_the_run_results(self, tiny_root):
        root, paths = tiny_root
        cfg_path = write_config(root, tiny_config(root, paths, "out_profile_again"), "profile_again.json")
        assert cli.main(["run-all", "--config", cfg_path]) == 0
        out = root / "out_profile_again"
        names = (pipeline.REPORT_FILE, pipeline.SPIKE_CSV, pipeline.ENERGY_CSV, pipeline.LOSS_CSV)
        before = {name: (out / name).read_bytes() for name in names}
        assert cli.main(["profile", "--config", cfg_path]) == 0
        after = {name: (out / name).read_bytes() for name in names}
        old, new = (json.loads(files.pop(pipeline.REPORT_FILE)) for files in (before, after))
        assert after == before
        assert new["wall_clock_s"].pop("profile") > 0
        old["wall_clock_s"].pop("profile")
        assert new == old
        assert new["accuracy_finetuned"] is not None and new["snn_loss_curve"]

    @pytest.mark.parametrize("content", ["{trunc", "[]", '{"seed": 7}', '{"config": {}, "seed": 7, "energy": {"layers": 3}}'])
    def test_unreadable_report_is_ingestion_error(self, small_conv_run, tmp_path, capsys, content):
        root, _, cfg = small_conv_run
        out = tmp_path / "out"
        out.mkdir()
        for name in (pipeline.SNN_MODEL,):
            (out / name).write_bytes((root / "out_small_conv" / name).read_bytes())
        (out / pipeline.REPORT_FILE).write_text(content)
        cfg_path = write_config(tmp_path, dataclasses.replace(cfg, out_dir=str(out)))
        assert cli.main(["profile", "--config", cfg_path]) == 3
        assert str(out / pipeline.REPORT_FILE) in capsys.readouterr().err
        assert (out / pipeline.REPORT_FILE).read_text() == content


class TestExitCodes:
    def test_malformed_config_json(self, tiny_root, capsys):
        root, _ = tiny_root
        bad = root / "broken.json"
        bad.write_text("{not json")
        assert cli.main(["run-all", "--config", str(bad)]) == 2

    def test_missing_dataset_file(self, tiny_root):
        root, paths = tiny_root
        cfg = tiny_config(root, dict(paths, train_images=str(root / "absent.idx")), "out_b")
        cfg_path = write_config(root, cfg, "absent.json")
        assert cli.main(["run-all", "--config", cfg_path]) == 2

    def test_truncated_dataset_is_ingestion_error(self, tiny_root):
        root, paths = tiny_root
        broken = root / "trunc.idx"
        blob = open(paths["train_images"], "rb").read()
        broken.write_bytes(blob[:50])
        cfg = tiny_config(root, dict(paths, train_images=str(broken)), "out_c")
        cfg_path = write_config(root, cfg, "trunc.json")
        assert cli.main(["run-all", "--config", cfg_path]) == 3

    def test_calibration_failure_is_training_error(self, tiny_root, capsys):
        root, paths = tiny_root
        cfg = tiny_config(root, paths, "out_calib")
        cfg_path = write_config(root, cfg, "calib.json")
        out_dir = root / "out_calib"
        out_dir.mkdir(exist_ok=True)
        zero = [LayerParams(np.zeros(s, np.float32), 1.0, 1.0) for s in cfg.network.weight_shapes()]
        modelio.save_params(out_dir / pipeline.ANN_MODEL, zero)
        assert cli.main(["calibrate", "--config", cfg_path]) == 4
        assert "[phase calibrate]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,field,value",
        [
            ("snn_train", "lr_decay_every", 0),
            ("snn_train", "epochs", -1),
            ("snn_train", "epochs", 0),
            ("snn_train", "batch_size", 0),
            ("snn_train", "lr_decay", float("nan")),
            ("ann_train", "batch_size", 0),
            ("ann_train", "epochs", 2.5),
            ("ann_train", "base_lr", 0.0),
            ("calibration", "calib_timesteps", 0),
            ("calibration", "num_images", 0),
        ],
    )
    def test_out_of_range_config_is_rejected(self, tiny_root, section, field, value):
        root, paths = tiny_root
        d = tiny_config(root, paths).to_dict()
        d[section][field] = value
        with pytest.raises(ConfigurationError, match=field):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize(
        "section,key,value",
        [(None, "neuron_modle", "multi_spike"), (None, "snn_trian", {"epochs": 1}), ("network", "timesteps", 5)],
    )
    def test_unknown_key_exits_2(self, tiny_root, capsys, section, key, value):
        root, paths = tiny_root
        d = tiny_config(root, paths, "out_unknown_key").to_dict()
        (d[section] if section else d)[key] = value
        cfg_path = root / "unknown_key.json"
        cfg_path.write_text(json.dumps(d))
        assert cli.main(["train-ann", "--config", str(cfg_path)]) == 2
        assert key in capsys.readouterr().err

    def test_zero_epoch_train_snn_is_config_error(self, tiny_root, capsys):
        root, paths = tiny_root
        d = tiny_config(root, paths, "out_zero").to_dict()
        d["snn_train"]["epochs"] = 0
        cfg_path = root / "zero_epochs.json"
        cfg_path.write_text(json.dumps(d))
        assert cli.main(["train-snn", "--config", str(cfg_path)]) == 2
        assert "snn_train.epochs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,field,value",
        [
            ("network", "num_classes", "ten"),
            ("network", "total_timesteps", 2.5),
            (None, "seed", "x"),
            (None, "seed", -1),
            (None, "eval_samples", -3),
            (None, "eval_samples", 0),
            ("calibration", "calib_encoding", "hybrid"),
            ("calibration", "calib_leak", 1.5),
        ],
    )
    def test_bad_value_exits_2(self, tiny_root, capsys, section, field, value):
        root, paths = tiny_root
        d = tiny_config(root, paths, "out_bad").to_dict()
        (d[section] if section else d)[field] = value
        cfg_path = root / "bad_value.json"
        cfg_path.write_text(json.dumps(d))
        assert cli.main(["eval", "--config", str(cfg_path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [
            "{trunc",
            "[0.5, 0.5]",
            '{"thresh": [0.5, 0.5]}',
            '{"thresholds": 0.5}',
            '{"thresholds": {"conv1": 0.5}}',
            '{"thresholds": ["a", "b"]}',
            '{"thresholds": [true, 0.5]}',
            '{"thresholds": [Infinity, 0.5]}',
            '{"thresholds": [0.5, NaN]}',
            '{"thresholds": [0.0, 0.5]}',
            '{"thresholds": [0.5, -1.0]}',
            '{"thresholds": [0.5]}',
            '{"thresholds": [0.5, 0.5, 0.5]}',
        ],
        ids=[
            "bad-json", "not-an-object", "no-key", "number", "object", "strings", "bool",
            "infinite", "nan", "zero", "negative", "too-few", "too-many",
        ],
    )
    def test_malformed_thresholds_is_ingestion_error(self, tiny_root, capsys, content):
        root, paths = tiny_root
        cfg = tiny_config(root, paths, "out_thresholds")
        cfg_path = write_config(root, cfg, "bad_thresholds.json")
        out_dir = root / "out_thresholds"
        out_dir.mkdir(exist_ok=True)
        zero = [LayerParams(np.zeros(s, np.float32), 1.0, 1.0) for s in cfg.network.weight_shapes()]
        modelio.save_params(out_dir / pipeline.ANN_MODEL, zero)
        (out_dir / pipeline.THRESHOLDS_FILE).write_text(content)
        assert cli.main(["convert", "--config", cfg_path]) == 3
        assert pipeline.THRESHOLDS_FILE in capsys.readouterr().err

    @pytest.mark.parametrize(
        "layers",
        [
            (Conv(4, 5), AvgPool(2), FullyConnected(24), FullyConnected(10)),
            (Conv(4, 5), AvgPool(2), FullyConnected(16), FullyConnected(16), FullyConnected(10)),
            (Conv(6, 5), AvgPool(2), FullyConnected(16), FullyConnected(10)),
        ],
        ids=["wider-fc", "extra-fc", "wider-conv"],
    )
    @pytest.mark.parametrize(
        "phase,model_file",
        [
            ("calibrate", pipeline.ANN_MODEL),
            ("convert", pipeline.ANN_MODEL),
            ("train-snn", pipeline.CONVERTED_MODEL),
            ("eval", pipeline.SNN_MODEL),
        ],
    )
    def test_model_built_for_another_network_is_ingestion_error(self, small_conv_run, capsys, phase, model_file, layers):
        root, paths, cfg = small_conv_run
        other = tiny_config(root, paths, "out_small_conv")
        other.network = NetworkSpec(layers=layers, input_shape=(1, 28, 28), num_classes=10, total_timesteps=3)
        cfg_path = write_config(root, other, "other_network.json")
        assert cli.main([phase, "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert model_file in err
        assert str(cfg.network.weight_shapes()) in err and str(other.network.weight_shapes()) in err

    @pytest.mark.parametrize("scaling", [1e-60, 1e300])
    def test_threshold_out_of_float32_range_is_configuration_error(self, tiny_root, capsys, scaling):
        # the converted thresholds round to 0 or inf in the model file's float32
        root, paths = tiny_root
        cfg = tiny_config(root, paths, f"out_scaling_{scaling}")
        cfg.calibration = CalibrationConfig(num_images=32, calib_timesteps=8, scaling=scaling)
        assert cli.main(["run-all", "--config", write_config(root, cfg, "scaling.json")]) == 2
        assert "layer 0's threshold" in capsys.readouterr().err
        out_dir = root / f"out_scaling_{scaling}"
        assert pipeline.ANN_MODEL in os.listdir(out_dir)
        assert not [name for name in os.listdir(out_dir) if name.endswith((".model", ".tmp")) and name != pipeline.ANN_MODEL]

    def test_model_path_naming_a_directory_is_ingestion_error(self, tiny_root, capsys):
        root, paths = tiny_root
        cfg_path = write_config(root, tiny_config(root, paths, "out_dir_model"), "dir_model.json")
        (root / "out_dir_model").mkdir(exist_ok=True)
        assert cli.main(["eval", "--config", cfg_path, "--model", "."]) == 3
        assert "cannot read model file" in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize("extra", [-7, 5], ids=["short", "long"])
    def test_label_count_mismatch_is_ingestion_error(self, tiny_root, capsys, split, extra):
        root, paths = tiny_root
        key = f"{split}_labels"
        labels = data.read_idx_labels(paths[key])
        labels = labels[:extra] if extra < 0 else np.concatenate([labels, labels[:extra]])
        path = root / f"{split}-labels{extra}.idx"
        data.write_idx_labels(path, labels)
        cfg = tiny_config(root, dict(paths, **{key: str(path)}), f"out_count_{split}{extra}")
        cfg_path = write_config(root, cfg, f"count_{split}{extra}.json")
        assert cli.main(["train-ann", "--config", cfg_path]) == 3
        assert f"{len(labels)} labels for the" in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_empty_idx_split_is_ingestion_error(self, tiny_root, capsys, split):
        root, paths = tiny_root
        images, labels = root / f"empty-{split}-images.idx", root / f"empty-{split}-labels.idx"
        data.write_idx_images(images, np.zeros((0, 1, 28, 28), np.float32))
        data.write_idx_labels(labels, np.zeros(0, np.uint8))
        split_paths = {f"{split}_images": str(images), f"{split}_labels": str(labels)}
        cfg = tiny_config(root, dict(paths, **split_paths), f"out_empty_{split}")
        cfg_path = write_config(root, cfg, f"empty_{split}.json")
        assert cli.main(["run-all", "--config", cfg_path]) == 3
        assert "holds no images" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "layers, shape",
        [
            ((Conv(4, 3), FullyConnected(10)), (1, 12, 12)),
            ((FullyConnected(24), FullyConnected(10)), (1, 14, 56)),
        ],
        ids=["conv", "fc-same-size"],
    )
    def test_image_shape_unlike_the_network_input_is_config_error(self, tiny_root, capsys, layers, shape):
        # the data is 28x28; the fc case holds as many elements, so only the shape can tell
        root, paths = tiny_root
        cfg = tiny_config(root, paths, f"out_shape_{shape[2]}")
        cfg.network = NetworkSpec(layers=layers, input_shape=shape, num_classes=10, total_timesteps=3)
        cfg_path = write_config(root, cfg, f"shape_{shape[2]}.json")
        assert cli.main(["train-ann", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert "(1, 28, 28)" in err and str(shape) in err

    @pytest.mark.parametrize("fmt", ["idx", "cifar-binary"])
    def test_dataset_path_naming_a_directory_is_ingestion_error(self, tiny_root, capsys, fmt):
        root, paths = tiny_root
        cfg = tiny_config(root, dict(paths, train_images=str(root)), f"out_dir_{fmt}")
        if fmt == "cifar-binary":
            cfg.dataset = DatasetConfig(format=fmt, train_files=[str(root)], test_files=[str(root)])
            cfg.network = NetworkSpec(layers=(FullyConnected(10),), input_shape=(3, 32, 32), num_classes=10, total_timesteps=3)
        cfg_path = write_config(root, cfg, f"dir_{fmt}.json")
        assert cli.main(["train-ann", "--config", cfg_path]) == 3
        assert "cannot read" in capsys.readouterr().err

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_any_single_field_validates_or_is_a_config_error(self, tiny_root, data):
        root, paths = tiny_root
        d = tiny_config(root, paths).to_dict()
        d["network"]["layers"] = [
            {"type": "conv", "out_channels": 2, "kernel": 5, "stride": 1, "padding": 0},
            {"type": "avgpool", "window": 2},
            {"type": "dropout", "rate": 0.1},
            {"type": "fc", "units": 10},
        ]
        path = data.draw(st.sampled_from(list(field_paths(d))), label="field")
        parent = d
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(JSON_VALUES, label="value")
        try:
            ExperimentConfig.from_dict(d).validate()
        except ConfigurationError:
            pass

    def test_emission_error(self, tmp_path):
        report = RunReport(config={}, seed=0)
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(EmissionError):
            pipeline.emit_report(report, blocker / "sub")

    def test_flag_overrides(self, tiny_root):
        root, paths = tiny_root
        cfg_path = write_config(root, tiny_config(root, paths, "out_d"), "flags.json")
        args = cli.build_parser().parse_args(
            ["eval", "--config", cfg_path, "--seed", "99", "--encoder", "direct", "--timesteps", "6", "--out", str(root / "elsewhere")]
        )
        cfg = cli.load_config(args)
        assert cfg.seed == 99
        assert cfg.encoder == "direct"
        assert cfg.network.total_timesteps == 6
        assert cfg.out_dir == str(root / "elsewhere")


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "snnkit.cli", "run-all", "--config", "/nonexistent.json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr

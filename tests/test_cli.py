import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from banditrank import training
from banditrank.cli import run
from banditrank.training import TrainConfig


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


@pytest.fixture
def sim_run(tmp_path):
    cfg = tmp_path / "sim.json"
    write_json(
        cfg,
        {
            "n_queries": 12,
            "products_per_query": 8,
            "feature_dim": 4,
            "n_interactions": 1500,
            "seed": 5,
        },
    )
    out = tmp_path / "w1"
    assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


class TestSimulate:
    def test_outputs_and_manifest(self, sim_run):
        names = set(os.listdir(sim_run))
        assert {"world.json", "log.jsonl", "dev.tsv", "test.tsv", "qrels.txt",
                "config.json", "manifest.json"} <= names
        manifest = json.loads((sim_run / "manifest.json").read_text())
        assert "log.jsonl" in manifest
        resolved = json.loads((sim_run / "config.json").read_text())
        assert resolved["seed"] == 5
        assert resolved["split_ratios"] == [0.6, 0.2, 0.2]

    def test_deterministic_outputs(self, sim_run, tmp_path):
        out2 = tmp_path / "w2"
        cfg = tmp_path / "sim.json"
        assert run(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("log.jsonl", "dev.tsv", "test.tsv", "qrels.txt"):
            assert (sim_run / name).read_bytes() == (out2 / name).read_bytes()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        write_json(cfg, {"n_querys": 10})
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1


class TestTrainAndEvaluate:
    def test_full_workflow(self, sim_run, tmp_path):
        model_dir = tmp_path / "m1"
        rc = run([
            "train-crm", "--log", str(sim_run / "log.jsonl"),
            "--dev", str(sim_run / "dev.tsv"), "--lambda", "0.4",
            "--epochs", "3", "--eval-every", "500",
            "--out", str(model_dir),
        ])
        assert rc == 0
        assert (model_dir / "model.json").exists()
        history = (model_dir / "history.tsv").read_text().splitlines()
        assert history[0].startswith("records_seen\tobjective\tS")
        assert len(history) > 1

        eval_dir = tmp_path / "e1"
        rc = run([
            "evaluate", "--model", str(model_dir / "model.json"),
            "--test", str(sim_run / "test.tsv"), "--ks", "5,10",
            "--out", str(eval_dir),
        ])
        assert rc == 0
        metrics = dict(
            line.split("\t") for line in (eval_dir / "metrics.txt").read_text().splitlines()
        )
        assert 0.0 <= float(metrics["map"]) <= 1.0
        assert (eval_dir / "run.txt").read_text().splitlines()[0].split()[1] == "Q0"

    def test_train_fullinfo(self, sim_run, tmp_path):
        out = tmp_path / "fi"
        rc = run([
            "train-fullinfo", "--train", str(sim_run / "dev.tsv"),
            "--dev", str(sim_run / "dev.tsv"), "--epochs", "2",
            "--out", str(out),
        ])
        assert rc == 0
        assert (out / "model.json").exists()

    def test_train_fullinfo_history_has_no_s_column(self, sim_run, tmp_path):
        # a full-information run has no importance weights, so no S to write
        out = tmp_path / "fi"
        assert run(["train-fullinfo", "--train", str(sim_run / "dev.tsv"), "--dev",
                    str(sim_run / "dev.tsv"), "--epochs", "2", "--eval-every", "10",
                    "--out", str(out)]) == 0
        header, *rows = (out / "history.tsv").read_text().splitlines()
        assert header == "records_seen\tobjective\tmap\tndcg@10\tavg_rank\tavg_dcg"
        assert len(rows) >= 2
        fields = [row.split("\t") for row in rows]
        assert all(len(f) == 6 and all(math.isfinite(float(x)) for x in f) for f in fields)

    def test_lambda_sweep(self, sim_run, tmp_path):
        out = tmp_path / "sw"
        cfg = tmp_path / "sweep.json"
        write_json(cfg, {"epochs": 2, "probe_epochs": 1, "max_probes": 2})
        rc = run([
            "lambda-sweep", "--config", str(cfg),
            "--log", str(sim_run / "log.jsonl"),
            "--dev", str(sim_run / "dev.tsv"),
            "--out", str(out),
        ])
        assert rc == 0
        sweep = (out / "sweep.tsv").read_text().splitlines()
        assert sweep[0] == "lambda\tprobe_S\tS\tmap\tndcg@5"
        lam = json.loads((out / "lambda.json").read_text())["lambda"]
        assert 0.0 <= lam <= 1.0

    def test_bad_log_value_names_its_line(self, sim_run, tmp_path, capsys):
        meta, first, *rest = (sim_run / "log.jsonl").read_text().splitlines()
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([meta, json.dumps({**json.loads(first), "propensity": "0.8"}), *rest]))
        rc = run([
            "train-crm", "--log", str(bad), "--dev", str(sim_run / "dev.tsv"),
            "--out", str(tmp_path / "m"),
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert "line 2" in err
        assert "Traceback" not in err

    def test_missing_input_is_io_error(self, tmp_path):
        rc = run([
            "train-crm", "--log", str(tmp_path / "absent.jsonl"),
            "--dev", str(tmp_path / "absent.tsv"), "--out", str(tmp_path / "m"),
        ])
        assert rc == 2


class TestAggregateCommand:
    def test_aggregate(self, tmp_path):
        imp = tmp_path / "impressions.tsv"
        pos = tmp_path / "positives.tsv"
        imp.write_text("".join(f"q1\tp{i % 3}\n" for i in range(180)))
        pos.write_text("".join("q1\tp0\n" for _ in range(30)))
        out = tmp_path / "agg"
        rc = run([
            "aggregate", "--impressions", str(imp), "--positives", str(pos),
            "--visibility-threshold", "50", "--out", str(out),
        ])
        assert rc == 0
        lines = (out / "relevance.tsv").read_text().splitlines()
        assert lines[0].startswith("query_id\tproduct_id\tlabel\tnrr")
        assert len(lines) == 4  # header + 3 products


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_missing_out(self):
        assert run(["simulate"]) == 1

    def test_console_entry_point(self, tmp_path):
        """``python -m banditrank.cli`` in a process of its own exits with the codes of
        ``run``: 0 for help, 1 for a missing ``--out``, 2 with one error line for a
        model that cannot be read."""
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

        def cli(*argv):
            return subprocess.run([sys.executable, "-m", "banditrank.cli", *argv], env=env,
                                  cwd=tmp_path, capture_output=True, text=True, timeout=120)

        assert cli("--help").returncode == 0
        assert cli("simulate").returncode == 1
        done = cli("evaluate", "--model", "absent.json", "--test", "absent.tsv", "--out", "out")
        error_lines = [line for line in done.stderr.splitlines() if "error:" in line]
        assert done.returncode == 2 and len(error_lines) == 1, done.stderr
        assert error_lines[0].startswith("error: ") and "absent.json" in error_lines[0]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Paths of a small simulated run, plus empty, broken and absent inputs."""
    root = tmp_path_factory.mktemp("inputs")
    sim = root / "sim"
    write_json(root / "sim.json", {"n_queries": 12, "products_per_query": 8, "feature_dim": 4,
                                   "n_interactions": 600, "seed": 5})
    assert run(["simulate", "--config", str(root / "sim.json"), "--out", str(sim)]) == 0
    (root / "empty.jsonl").write_text("")
    (root / "header.tsv").write_text("query_id\tproduct_id\tlabel\tnrr\tf0\tf1\tf2\tf3\n")
    (root / "bad.json").write_text("{not json")
    write_json(root / "list.json", [1])
    write_json(root / "unknown.json", {"n_querys": 3})
    write_json(root / "no_probes.json", {"max_probes": 0})
    write_json(root / "ratios_str.json", {"split_ratios": "0.5"})
    write_json(root / "two_ratios.json", {"split_ratios": [0.5, 0.5]})
    # json reads NaN, so a config file can hold it
    write_json(root / "nan_ratio.json", {"split_ratios": [math.nan, 0.2, 0.2], "n_queries": 5,
                                         "n_interactions": 50})
    write_json(root / "nan_temperature.json", {"temperature": math.nan})
    write_json(root / "top_fraction_5.json", {"top_fraction": 5.0, "n_queries": 5,
                                              "n_interactions": 50})
    write_json(root / "nan_learning_rate.json", {"learning_rate": math.nan})
    # JSON integers past the largest float, which no float key can take
    write_json(root / "huge_noise.json", {"noise_scale": 10**400})
    write_json(root / "huge_temperature.json", {"temperature": 10**400})
    write_json(root / "huge_learning_rate.json", {"learning_rate": 10**400})
    write_json(root / "hidden_float.json", {"policy": "mlp", "hidden": 2.7})
    write_json(root / "no_hidden.json", {"policy": "mlp", "hidden": 0})
    write_json(root / "tree.json", {"policy": "tree"})
    write_json(root / "epochs_bool.json", {"epochs": True})
    write_json(root / "ks_strings.json", {"ks": ["5"]})
    write_json(root / "spaced_tag.json", {"run_tag": "my run"})
    write_json(root / "log_number.json", {"log": 5})
    write_json(root / "diverging.json", {"learning_rate": 1e308, "epochs": 1})
    write_json(root / "model_list.json", [1, 2])
    write_json(root / "model_no_arrays.json", {"kind": "linear", "shapes": [[2, 4], [2]]})
    write_json(root / "model_numbers.json", {"kind": "linear", "arrays": 1, "shapes": 2})
    model = {"kind": "linear", "arrays": [[0.5] * 8, [0.0, 0.0]], "shapes": [[2, 4], [2]]}
    write_json(root / "model_bool.json", {**model, "arrays": [[True] + [0.5] * 7, [0.0, False]]})
    write_json(root / "model_string.json", {**model, "arrays": [["0.1"] + [0.5] * 7, [0.0, 0.0]]})
    write_json(root / "model_long.json", {**model, "arrays": [*model["arrays"], [1.0]]})
    write_json(root / "model_short.json", {**model, "arrays": model["arrays"][:1]})
    write_json(root / "model_no_hidden.json", {"kind": "mlp", "arrays": [[], [], [], [0.0, 1.0]],
                                                "shapes": [[0, 4], [0], [2, 0], [2]]})
    (root / "one_field.tsv").write_text("q1\tp0\nq1\n")
    (root / "short_row.tsv").write_text((sim / "dev.tsv").read_text() + "q1\tp1\n")
    (root / "bad_line.jsonl").write_text((sim / "log.jsonl").read_text() + '{"query_id": 1}\n')
    paths = {
        "log": sim / "log.jsonl", "dev": sim / "dev.tsv", "test": sim / "test.tsv",
        "model": sim / "logging_policy.json", "absent": root / "absent.tsv",
        "empty_log": root / "empty.jsonl", "header_only": root / "header.tsv",
        "bad_json": root / "bad.json", "list_json": root / "list.json",
        "unknown_key": root / "unknown.json", "no_probes": root / "no_probes.json",
        "one_field": root / "one_field.tsv", "short_row": root / "short_row.tsv",
        "bad_line": root / "bad_line.jsonl",
        **{name: root / f"{name}.json" for name in (
            "ratios_str", "two_ratios", "nan_ratio", "nan_temperature", "top_fraction_5",
            "nan_learning_rate",
            "huge_noise", "huge_temperature", "huge_learning_rate",
            "hidden_float", "no_hidden", "tree", "epochs_bool", "ks_strings", "spaced_tag",
            "log_number",
            "diverging", "model_list", "model_no_arrays", "model_numbers", "model_bool",
            "model_string", "model_long", "model_short", "model_no_hidden")},
    }
    return {name: str(path) for name, path in paths.items()}


# (case, arguments before --out with {name} standing for inputs[name], exit code,
# text the one error line must hold)
ERRORS = [
    ("config file missing", ["simulate", "--config", "{absent}"], 2, "absent.tsv"),
    ("config not JSON", ["simulate", "--config", "{bad_json}"], 1, "bad.json"),
    ("config not an object", ["simulate", "--config", "{list_json}"], 1, "list.json"),
    ("unknown key", ["simulate", "--config", "{unknown_key}"], 1, "n_querys"),
    ("required input missing", ["train-crm", "--dev", "{dev}"], 1, "requires log"),
    ("input file absent", ["train-crm", "--log", "{absent}", "--dev", "{dev}"], 2, "absent.tsv"),
    ("empty log", ["train-crm", "--log", "{empty_log}", "--dev", "{dev}"], 1, "log is empty"),
    ("max_probes below 1",
     ["lambda-sweep", "--config", "{no_probes}", "--log", "{log}", "--dev", "{dev}"], 1,
     "max_probes must be >= 1"),
    ("empty training set", ["train-fullinfo", "--train", "{header_only}", "--dev", "{dev}"], 1,
     "training set is empty"),
    ("empty test set", ["evaluate", "--model", "{model}", "--test", "{header_only}"], 1,
     "test set is empty"),
    ("ks not a number", ["evaluate", "--model", "{model}", "--test", "{test}", "--ks", "a"], 1,
     "--ks"),
    ("ks below 1", ["evaluate", "--model", "{model}", "--test", "{test}", "--ks", "0"], 1,
     "got [0]"),
    ("model not an object", ["evaluate", "--model", "{model_list}", "--test", "{test}"], 1,
     "model_list.json: not a model: expected a JSON object"),
    ("model key missing", ["evaluate", "--model", "{model_no_arrays}", "--test", "{test}"], 1,
     "model_no_arrays.json: not a model: expected a JSON object with keys kind, arrays, shapes"),
    ("model value of the wrong type",
     ["evaluate", "--model", "{model_numbers}", "--test", "{test}"], 1,
     "model_numbers.json: not a model: arrays and shapes must be lists"),
    ("model array holding a boolean", ["evaluate", "--model", "{model_bool}", "--test", "{test}"],
     1, "model_bool.json: not a model: array 0 must be a list of numbers"),
    ("model array holding a string",
     ["evaluate", "--model", "{model_string}", "--test", "{test}"], 1,
     "model_string.json: not a model: array 0 must be a list of numbers"),
    ("model with more arrays than shapes",
     ["evaluate", "--model", "{model_long}", "--test", "{test}"], 1,
     "model_long.json: not a model: arrays and shapes must be lists of equal length"),
    ("model with fewer arrays than shapes",
     ["evaluate", "--model", "{model_short}", "--test", "{test}"], 1,
     "model_short.json: not a model: arrays and shapes must be lists of equal length"),
    ("model with no hidden units",
     ["evaluate", "--model", "{model_no_hidden}", "--test", "{test}"], 1,
     "model_no_hidden.json: bad mlp shapes"),
    ("eval_every below 1",
     ["train-crm", "--log", "{log}", "--dev", "{dev}", "--epochs", "1", "--eval-every=0"], 1,
     "eval_every must be >= 1"),
    ("eval_every negative",
     ["train-crm", "--log", "{log}", "--dev", "{dev}", "--epochs", "1", "--eval-every=-5"], 1,
     "eval_every must be >= 1"),
    ("string for a list", ["simulate", "--config", "{ratios_str}"], 1,
     "split_ratios: expected list of float, got '0.5'"),
    ("two split ratios", ["simulate", "--config", "{two_ratios}"], 1,
     "ratios must be three positive numbers"),
    ("NaN train split ratio", ["simulate", "--config", "{nan_ratio}"], 1,
     "ratios must be three positive numbers"),
    ("NaN temperature", ["simulate", "--config", "{nan_temperature}"], 1,
     "bad noise/temperature"),
    ("top_fraction above 1", ["simulate", "--config", "{top_fraction_5}"], 1,
     "top_fraction must lie in (0, 1], got 5.0"),
    ("NaN learning rate", ["train-crm", "--config", "{nan_learning_rate}", "--log", "{log}",
                           "--dev", "{dev}"], 1, "learning_rate must be positive"),
    ("int past a float for noise_scale", ["simulate", "--config", "{huge_noise}"], 1,
     "noise_scale: expected float, got 1000"),
    ("int past a float for temperature", ["simulate", "--config", "{huge_temperature}"], 1,
     "temperature: expected float, got 1000"),
    ("int past a float for learning_rate",
     ["train-crm", "--config", "{huge_learning_rate}", "--log", "{log}", "--dev", "{dev}"], 1,
     "learning_rate: expected float, got 1000"),
    # the config is checked before the (absent) log or training set is read
    ("negative seed", ["train-crm", "--log", "{absent}", "--dev", "{dev}", "--seed=-1"], 1,
     "seed must be >= 0"),
    ("negative seed, full information",
     ["train-fullinfo", "--train", "{absent}", "--dev", "{dev}", "--seed=-1"], 1,
     "seed must be >= 0"),
    ("mlp with no hidden units",
     ["train-crm", "--config", "{no_hidden}", "--log", "{absent}", "--dev", "{dev}"], 1,
     "hidden must be >= 1 for mlp, got 0"),
    ("mlp with no hidden units, lambda sweep",
     ["lambda-sweep", "--config", "{no_hidden}", "--log", "{absent}", "--dev", "{dev}"], 1,
     "hidden must be >= 1 for mlp, got 0"),
    ("mlp with no hidden units, full information",
     ["train-fullinfo", "--config", "{no_hidden}", "--train", "{absent}", "--dev", "{dev}"], 1,
     "hidden must be >= 1 for mlp, got 0"),
    ("unknown policy kind",
     ["train-crm", "--config", "{tree}", "--log", "{absent}", "--dev", "{dev}"], 1,
     "unknown policy kind 'tree'"),
    ("unknown policy kind, lambda sweep",
     ["lambda-sweep", "--config", "{tree}", "--log", "{absent}", "--dev", "{dev}"], 1,
     "unknown policy kind 'tree'"),
    ("unknown policy kind, full information",
     ["train-fullinfo", "--config", "{tree}", "--train", "{absent}", "--dev", "{dev}"], 1,
     "unknown policy kind 'tree'"),
    ("negative simulate seed", ["simulate", "--seed=-1"], 1, "seed must be >= 0, got -1"),
    ("float for an int", ["train-crm", "--config", "{hidden_float}", "--log", "{log}", "--dev",
                          "{dev}"], 1, "hidden: expected int, got 2.7"),
    ("bool for an int", ["train-crm", "--config", "{epochs_bool}", "--log", "{log}", "--dev",
                         "{dev}"], 1, "epochs: expected int, got True"),
    ("list of the wrong element type",
     ["evaluate", "--config", "{ks_strings}", "--model", "{model}", "--test", "{test}"], 1,
     "ks: expected list of int, got ['5']"),
    ("run tag with a space",
     ["evaluate", "--config", "{spaced_tag}", "--model", "{model}", "--test", "{test}"], 1,
     "run tag 'my run' is empty or holds whitespace, unfit for trec_eval"),
    ("number for a required input", ["train-crm", "--config", "{log_number}", "--dev", "{dev}"],
     1, "log: expected str, got 5"),
    ("pairs line with one field",
     ["aggregate", "--impressions", "{one_field}", "--positives", "{one_field}"], 1,
     "one_field.tsv line 2"),
    ("diverging run", ["train-crm", "--config", "{diverging}", "--log", "{log}", "--dev", "{dev}"],
     1, "non-finite logits"),
    ("dev row too short", ["train-crm", "--log", "{log}", "--dev", "{short_row}"], 1,
     "short_row.tsv line 18: expected 8 columns, got 2"),
    ("test row too short", ["evaluate", "--model", "{model}", "--test", "{short_row}"], 1,
     "short_row.tsv line 18: expected 8 columns, got 2"),
    ("training row too short", ["train-fullinfo", "--train", "{short_row}", "--dev", "{dev}"], 1,
     "short_row.tsv line 18: expected 8 columns, got 2"),
    ("log line missing keys", ["lambda-sweep", "--log", "{bad_line}", "--dev", "{dev}"], 1,
     "bad_line.jsonl line 602: missing keys"),
]


class TestErrors:
    @pytest.mark.parametrize(
        "argv, code, names", [case[1:] for case in ERRORS], ids=[case[0] for case in ERRORS]
    )
    def test_exit_code_and_one_error_line(self, inputs, tmp_path, capsys, recwarn, argv, code,
                                          names):
        argv = [arg.format_map(inputs) for arg in argv]
        assert run([*argv, "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        error_lines = [line for line in err.splitlines() if "error:" in line]
        assert len(error_lines) == 1 and names in error_lines[0], err
        assert "Traceback" not in err
        # numpy's warnings would reach stderr before the error line outside pytest
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestDivergence:
    @pytest.fixture
    def diverging(self, monkeypatch):
        """Adam steps whose gradients turn infinite after each run's first step."""
        adam_step = training.adam_step

        def step(params, grads, state, config):
            if state.t >= 1:
                grads = np.full_like(grads, np.inf)
            return adam_step(params, grads, state, config)

        monkeypatch.setattr(training, "adam_step", step)

    @pytest.mark.parametrize("command", ["train-crm", "lambda-sweep"])
    def test_one_warning_line_per_stopped_run(self, inputs, tmp_path, capsys, diverging, command):
        # a checkpoint after the first batch of 256, then a step to non-finite parameters
        out = tmp_path / "out"
        assert run([command, "--log", inputs["log"], "--dev", inputs["dev"], "--epochs", "2",
                    "--eval-every", "256", "--out", str(out)]) == 0
        lines = capsys.readouterr().err.splitlines()
        runs = 1 if command == "train-crm" else len((out / "sweep.tsv").read_text().splitlines()) - 1
        prefix = "warning: " + ("" if command == "train-crm" else "lambda ")
        reason = "training stopped after 256 records: policy parameters must be finite"
        assert len(lines) == runs and all(
            line.startswith(prefix) and line.endswith(reason) for line in lines), lines
        if command == "train-crm":
            assert (out / "history.tsv").read_text().splitlines()[1].startswith("256\t")


class TestConfigPrecedence:
    @pytest.mark.parametrize("command, fixed, key, default, in_file, by_flag", [
        (["train-crm", "--log", "{log}", "--dev", "{dev}"], {"epochs": 1},
         "lambda", TrainConfig().lam, 0.3, 0.2),
        (["simulate"], {"n_queries": 4, "products_per_query": 3, "feature_dim": 2},
         "n_interactions", 20_000, 300, 200),
    ])
    def test_flag_beats_file_beats_default(self, inputs, tmp_path, command, fixed, key,
                                           default, in_file, by_flag):
        argv = [arg.format_map(inputs) for arg in command]
        flag = "--" + key.replace("_", "-")
        given = {}
        for name, file_cfg, flags in [
            ("default", fixed, []),
            ("in_file", {**fixed, key: in_file}, []),
            ("by_flag", {**fixed, key: in_file}, [flag, str(by_flag)]),
        ]:
            write_json(tmp_path / f"{name}.json", file_cfg)
            out = tmp_path / name
            assert run([*argv, "--config", str(tmp_path / f"{name}.json"), *flags,
                        "--out", str(out)]) == 0
            given[name] = json.loads((out / "config.json").read_text())[key]
        assert given == {"default": default, "in_file": in_file, "by_flag": by_flag}

    def test_int_for_a_float_and_list_for_a_tuple_accepted(self, inputs, tmp_path):
        write_json(tmp_path / "crm.json", {"lambda": 1, "epochs": 1})
        assert run(["train-crm", "--config", str(tmp_path / "crm.json"), "--log", inputs["log"],
                    "--dev", inputs["dev"], "--out", str(tmp_path / "crm")]) == 0
        assert json.loads((tmp_path / "crm" / "config.json").read_text())["lambda"] == 1
        write_json(tmp_path / "eval.json", {"ks": [1, 3]})
        assert run(["evaluate", "--config", str(tmp_path / "eval.json"), "--model",
                    inputs["model"], "--test", inputs["test"], "--out", str(tmp_path / "ev")]) == 0
        assert "p@3\t" in (tmp_path / "ev" / "metrics.txt").read_text()

    def test_train_crm_records_every_train_config_default(self, inputs, tmp_path):
        out = tmp_path / "crm"
        assert run(["train-crm", "--log", inputs["log"], "--dev", inputs["dev"],
                    "--out", str(out)]) == 0
        resolved = json.loads((out / "config.json").read_text())
        for field, value in asdict(TrainConfig()).items():
            assert resolved[{"lam": "lambda"}.get(field, field)] == value, field

import json
import os

import pytest

from banditrank.cli import run


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

        curve_dir = tmp_path / "c1"
        rc = run([
            "learning-curve", "--history", str(model_dir / "history.tsv"),
            "--out", str(curve_dir),
        ])
        assert rc == 0
        curve = (curve_dir / "curve.tsv").read_text().splitlines()
        assert curve[0] == "records_seen\tavg_rank\tavg_dcg\tmap\tndcg@10"
        assert len(curve) == len(history)

    def test_train_fullinfo(self, sim_run, tmp_path):
        out = tmp_path / "fi"
        rc = run([
            "train-fullinfo", "--train", str(sim_run / "dev.tsv"),
            "--dev", str(sim_run / "dev.tsv"), "--epochs", "2",
            "--out", str(out),
        ])
        assert rc == 0
        assert (out / "model.json").exists()

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
        assert sweep[0] == "lambda\tS\tmap\tndcg@5"
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

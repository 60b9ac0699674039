import json

import numpy as np
import pytest

from fusionscreen import cli, models


def run(argv):
    return cli.main(argv)


def gen_dataset(tmp_path, count=30):
    out = tmp_path / "data"
    code = run(["gen", "--count", str(count), "--seed", "3",
                "--out", str(out), "--box-size", "8", "--c-elem", "2"])
    assert code == cli.EXIT_OK
    return out / "dataset.jsonl"


class TestGen:
    def test_writes_dataset_and_manifests(self, tmp_path):
        data = gen_dataset(tmp_path)
        assert data.exists()
        manifest = json.loads((data.parent / "run_manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["seed"] == 3
        assert manifest["config_hash"]
        assert "dataset.jsonl" in manifest["artifacts"]
        timings = json.loads((data.parent / "timings.json").read_text())
        assert "generate_s" in timings
        # timings never leak into the result manifest
        assert "generate_s" not in json.dumps(manifest)

    def test_manifest_hash_tracks_config(self, tmp_path):
        a = gen_dataset(tmp_path / "a")
        run(["gen", "--count", "31", "--seed", "3",
             "--out", str(tmp_path / "b"), "--box-size", "8",
             "--c-elem", "2"])
        ha = json.loads((a.parent / "run_manifest.json").read_text())
        hb = json.loads((tmp_path / "b" / "run_manifest.json").read_text())
        assert ha["config_hash"] != hb["config_hash"]


class TestScreenEvalReport:
    def test_pipeline_synthetic(self, tmp_path):
        data = gen_dataset(tmp_path)
        scr = tmp_path / "scr"
        assert run(["screen", "--library", str(data), "--jobs", "3",
                    "--ranks", "2", "--out", str(scr),
                    "--corruption-rate", "0.05",
                    "--rank-failure-rate", "0.3",
                    "--fault-seed", "5"]) == cli.EXIT_OK
        manifest = json.loads((scr / "campaign_manifest.json").read_text())
        assert manifest["complete"]
        ev = tmp_path / "ev"
        assert run(["eval", "--predictions", str(scr), "--truth", str(data),
                    "--cutoff", "3.0", "--out", str(ev)]) == cli.EXIT_OK
        metrics = json.loads((ev / "metrics.json").read_text())
        assert metrics["n"] + manifest["corrupted"] == 30
        assert metrics["rmse"] >= 0
        rep = tmp_path / "rep"
        assert run(["report", "--campaign", str(scr),
                    "--out", str(rep)]) == cli.EXIT_OK
        summary = json.loads((rep / "report.json").read_text())
        t = summary["throughput"]
        assert t["poses_per_hour"] == 3600.0 * t["poses_per_second"]

    def test_report_rate_uses_wall_clock(self, tmp_path):
        data = gen_dataset(tmp_path, count=200)
        scr = tmp_path / "scr"
        assert run(["screen", "--library", str(data), "--jobs", "4",
                    "--ranks", "2", "--parallelism", "2",
                    "--out", str(scr)]) == cli.EXIT_OK
        rep = tmp_path / "rep"
        assert run(["report", "--campaign", str(scr),
                    "--out", str(rep)]) == cli.EXIT_OK
        summary = json.loads((rep / "report.json").read_text())
        timings = summary["campaign"]["timings"]
        # per-job phase times sum over both workers; the rate is wall clock
        assert summary["throughput"]["poses_per_second"] == \
            200 / timings["wall_s"]

    def test_incomplete_screen_exits_3(self, tmp_path):
        data = gen_dataset(tmp_path)
        code = run(["screen", "--library", str(data), "--jobs", "4",
                    "--ranks", "2", "--out", str(tmp_path / "scr"),
                    "--rank-failure-rate", "0.9", "--retries", "0",
                    "--fault-seed", "1"])
        assert code == cli.EXIT_INCOMPLETE

    def test_eval_without_shards_is_usage_error(self, tmp_path):
        data = gen_dataset(tmp_path)
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run(["eval", "--predictions", str(empty), "--truth",
                    str(data), "--out", str(tmp_path / "ev")]) == \
            cli.EXIT_USAGE


@pytest.fixture(scope="module")
def heads(tmp_path_factory):
    """A tiny dataset with a voxel and a graph head trained on it."""
    tmp = tmp_path_factory.mktemp("heads")
    data = gen_dataset(tmp, count=24)
    ckpts = []
    for kind in ("voxel", "graph"):
        out = tmp / kind
        assert run(["train", "--data", str(data), "--mode", kind,
                    "--out", str(out), "--epochs", "1", "--batch-size", "8",
                    "--grid-extent", "8", "--c-elem", "2"]) == cli.EXIT_OK
        ckpts.append(out / f"{kind}_head.ckpt.npz")
    return data, *ckpts


class TestTrain:
    def test_graph_head_training(self, tmp_path):
        data = gen_dataset(tmp_path, count=20)
        out = tmp_path / "tr"
        code = run(["train", "--data", str(data), "--mode", "graph",
                    "--out", str(out), "--epochs", "1",
                    "--batch-size", "8", "--learning-rate", "1e-3",
                    "--grid-extent", "8", "--c-elem", "2"])
        assert code == cli.EXIT_OK
        assert (out / "graph_head.ckpt.npz").exists()
        history = json.loads((out / "history.json").read_text())
        assert len(history) == 1

    def test_coherent_fusion_training_and_model_screen(self, tmp_path):
        data = gen_dataset(tmp_path, count=20)
        out = tmp_path / "tr"
        assert run(["train", "--data", str(data), "--mode", "coherent",
                    "--out", str(out), "--epochs", "1",
                    "--batch-size", "16", "--grid-extent", "8",
                    "--c-elem", "2"]) == cli.EXIT_OK
        ckpt = out / "fusion.ckpt.npz"
        assert ckpt.exists()
        timings = json.loads((out / "timings.json").read_text())
        assert isinstance(timings["minor_page_faults"], int)
        assert timings["minor_page_faults"] >= 0
        assert timings["peak_rss_mb"] > 0
        scr = tmp_path / "scr"
        assert run(["screen", "--library", str(data), "--model", str(ckpt),
                    "--jobs", "2", "--ranks", "2",
                    "--out", str(scr)]) == cli.EXIT_OK
        manifest = json.loads((scr / "campaign_manifest.json").read_text())
        assert manifest["n_poses"] == 20

    def test_readme_pipeline_mid_from_head_checkpoints(self, heads, tmp_path):
        data, vckpt, gckpt = heads
        out = tmp_path / "mid"
        assert run(["train", "--data", str(data), "--mode", "mid",
                    "--out", str(out), "--epochs", "1", "--batch-size", "8",
                    "--grid-extent", "8", "--c-elem", "2",
                    "--voxel-ckpt", str(vckpt),
                    "--graph-ckpt", str(gckpt)]) == cli.EXIT_OK
        assert len(json.loads((out / "history.json").read_text())) == 1
        model = models.FusionModel.load(out / "fusion.ckpt.npz")
        assert model.heads_pretrained
        # mid fusion trains only the fusion layers: the heads stay as saved
        for ckpt, cfg, params in ((vckpt, model.voxel_cfg, model.voxel_params),
                                  (gckpt, model.graph_cfg, model.graph_params)):
            saved, _ = models.load_head(ckpt, cfg)
            assert sorted(saved) == sorted(params)
            assert all(np.array_equal(saved[k], params[k]) for k in saved)

    def test_swapped_head_checkpoints_exit_1(self, heads, tmp_path, capsys):
        data, vckpt, gckpt = heads
        assert run(["train", "--data", str(data), "--mode", "mid",
                    "--out", str(tmp_path / "mid"), "--epochs", "1",
                    "--grid-extent", "8", "--c-elem", "2",
                    "--voxel-ckpt", str(gckpt),
                    "--graph-ckpt", str(vckpt)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert str(gckpt) in err and "'voxel-head'" in err

    def test_head_checkpoints_checked_before_featurizing(
            self, heads, tmp_path, monkeypatch):
        data, vckpt, gckpt = heads
        calls = []
        featurize = models.featurize
        monkeypatch.setattr(
            models, "featurize",
            lambda *a, **k: calls.append(a) or featurize(*a, **k))
        assert run(["train", "--data", str(data), "--mode", "mid",
                    "--out", str(tmp_path / "mid"), "--epochs", "1",
                    "--grid-extent", "8", "--c-elem", "2",
                    "--voxel-ckpt", str(gckpt),
                    "--graph-ckpt", str(vckpt)]) == cli.EXIT_USAGE
        assert calls == []

    def test_grid_extent_differing_from_heads_exits_1(self, heads, tmp_path,
                                                      capsys):
        data, vckpt, gckpt = heads
        assert run(["train", "--data", str(data), "--mode", "mid",
                    "--out", str(tmp_path / "mid"), "--epochs", "1",
                    "--grid-extent", "16", "--c-elem", "2",
                    "--voxel-ckpt", str(vckpt),
                    "--graph-ckpt", str(gckpt)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert str(vckpt) in err and "grid_extent=8 (expected 16)" in err

    def test_preset_of_another_fusion_mode_exits_1(self, heads, tmp_path,
                                                   monkeypatch, capsys):
        data, vckpt, gckpt = heads
        calls = []
        monkeypatch.setattr(models, "load_head",
                            lambda *a, **k: calls.append(a))
        monkeypatch.setattr(models, "featurize",
                            lambda *a, **k: calls.append(a))
        for mode, preset in (("mid", "coherent"), ("coherent", "mid")):
            out = tmp_path / mode
            assert run(["train", "--data", str(data), "--mode", mode,
                        "--preset", preset, "--out", str(out),
                        "--epochs", "1", "--grid-extent", "8",
                        "--c-elem", "2", "--voxel-ckpt", str(vckpt),
                        "--graph-ckpt", str(gckpt)]) == cli.EXIT_USAGE
            err = capsys.readouterr().err
            assert f"--preset {preset}" in err and f"--mode {mode}" in err
            assert not out.exists()
        assert calls == []

    def test_preset_lends_a_head_its_schedule(self, tmp_path, monkeypatch):
        data = gen_dataset(tmp_path, count=20)
        seen = []
        train_head = models.train_head
        monkeypatch.setattr(
            models, "train_head",
            lambda *a, **k: seen.append(k) or train_head(*a, **k))
        assert run(["train", "--data", str(data), "--mode", "graph",
                    "--preset", "mid", "--out", str(tmp_path / "tr"),
                    "--epochs", "1", "--grid-extent", "8",
                    "--c-elem", "2"]) == cli.EXIT_OK
        mid = models.table_mid_fusion_config()
        assert [(k["batch_size"], k["optimizer_cfg"]) for k in seen] == \
            [(mid.batch_size, mid.optimizer)]

    def test_late_mode_is_usage_error(self, tmp_path):
        data = gen_dataset(tmp_path, count=20)
        assert run(["train", "--data", str(data), "--mode", "late",
                    "--out", str(tmp_path / "tr"), "--grid-extent", "8",
                    "--c-elem", "2"]) == cli.EXIT_USAGE


class TestHpo:
    def test_preset_space_run(self, tmp_path):
        out = tmp_path / "hpo"
        code = run(["hpo", "--space", "fusion", "--population", "4",
                    "--budget", "10", "--t-ready", "5", "--seed", "0",
                    "--out", str(out)])
        assert code == cli.EXIT_OK
        best = json.loads((out / "best_config.json").read_text())
        assert "learning_rate" in best["config"]
        log = json.loads((out / "hpo_log.json").read_text())
        assert len(log) == 2

    def test_space_file_run(self, tmp_path):
        from fusionscreen import pb2
        space_path = tmp_path / "space.json"
        space_path.write_text(pb2.graph_head_search_space().to_json())
        assert run(["hpo", "--space", str(space_path), "--population", "4",
                    "--budget", "5", "--t-ready", "5",
                    "--out", str(tmp_path / "hpo")]) == cli.EXIT_OK


class TestHpoSpaceFile:
    """A malformed ``--space`` file is bad usage: exit 1, naming the fault."""

    LR = {"name": "learning_rate", "kind": "continuous",
          "domain": [1e-4, 1.0], "scale": "log"}

    @pytest.mark.parametrize("space, message", [
        ({"dimensions": [{"name": "lr", "domain": [0.1, 1.0]}]},
         "dimension 'lr': missing field 'kind'"),
        ({"dims": [LR]}, 'an object with a "dimensions" list'),
        ([LR], 'an object with a "dimensions" list'),
        ({"dimensions": [{"name": "learning_rate", "kind": "continuous",
                          "domain": [1e-4]}]},
         "dimension 'learning_rate': continuous domain must be two numbers"),
        ({"dimensions": [dict(LR, scale="lgo")]},
         "dimension 'learning_rate': scale must be 'linear' or 'log', "
         "got 'lgo'"),
        ({"dimensions": [{"name": "optimizer", "kind": "categorical",
                          "domain": ["adam", "sgd"]}]},
         "needs a continuous 'learning_rate' dimension"),
    ], ids=["no-kind", "no-dimensions", "top-level-list", "one-bound",
            "unknown-scale", "no-learning-rate"])
    def test_malformed_space_exits_1(self, tmp_path, capsys, space, message):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(space))
        out = tmp_path / "hpo"
        assert run(["hpo", "--space", str(path), "--population", "4",
                    "--budget", "5", "--t-ready", "5",
                    "--out", str(out)]) == cli.EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    def test_unknown_argument_is_usage(self):
        assert run(["gen", "--count", "5", "--bogus"]) == cli.EXIT_USAGE

    def test_missing_subcommand_is_usage(self):
        assert run([]) == cli.EXIT_USAGE

    def test_missing_file_is_usage(self, tmp_path):
        assert run(["screen", "--library", str(tmp_path / "nope.jsonl"),
                    "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE

    def test_negative_retries_is_usage(self, tmp_path, capsys):
        data = gen_dataset(tmp_path)
        assert run(["screen", "--library", str(data), "--jobs", "2",
                    "--retries", "-1",
                    "--out", str(tmp_path / "scr")]) == cli.EXIT_USAGE
        assert "retries must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("parallelism", ["0", "-4"])
    def test_parallelism_below_one_is_usage(self, tmp_path, capsys,
                                            parallelism):
        data = gen_dataset(tmp_path)
        out = tmp_path / "scr"
        assert run(["screen", "--library", str(data), "--jobs", "2",
                    "--parallelism", parallelism,
                    "--out", str(out)]) == cli.EXIT_USAGE
        assert "parallelism must be >= 1" in capsys.readouterr().err
        assert not (out / "run_manifest.json").exists()

    def test_version_exits_zero(self, capsys):
        assert run(["--version"]) == cli.EXIT_OK

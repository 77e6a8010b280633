import csv

import numpy as np
import pytest

from sceneseg import cli, config as cfgmod, inference, scenegen
from sceneseg.model import SegModel

SMALL = [
    "n_scenes=2",
    "n_objects=2",
    "n_points=600",
    "room_extent=3.0",
    "backbone.base_voxel=0.3",
    "backbone.channels=8",
    "backbone.levels=1",
    "superpoints.coarse_size=0.6",
    "msa.cap=8",
    "msa.k_cand=6",
    "msa.width=8",
    "decoder.k=4",
    "decoder.d=16",
    "decoder.layers=2",
    "decoder.heads=4",
    "train.steps=5",
]


def run(args, sets=()):
    argv = list(args)
    for s in list(SMALL) + list(sets):
        argv += ["--set", s]
    return cli.main(argv)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("ws")
    data = root / "data"
    runs = root / "runs"
    assert run(["gen", "--out", str(data)]) == 0
    assert run(["train", "--data", str(data), "--out", str(runs)]) == 0
    return root


class TestGen:
    def test_outputs_exist(self, workspace):
        data = workspace / "data"
        assert sorted(p.name for p in data.glob("*.ply")) == [
            "scene_000.ply",
            "scene_001.ply",
        ]
        assert (data / "scene_000.labels").exists()
        assert (data / "run_config.cfg").exists()

    def test_scenes_distinct(self, workspace):
        a = scenegen.read_ply(workspace / "data" / "scene_000.ply")
        b = scenegen.read_ply(workspace / "data" / "scene_001.ply")
        assert not np.array_equal(a.points, b.points)

    def test_byte_identical_rerun(self, workspace, tmp_path):
        again = tmp_path / "data2"
        assert run(["gen", "--out", str(again)]) == 0
        for name in ("scene_000.ply", "scene_001.ply", "scene_000.labels"):
            assert (again / name).read_bytes() == (workspace / "data" / name).read_bytes()

    def test_config_echo_parses_back(self, workspace):
        text = (workspace / "data" / "run_config.cfg").read_text()
        echoed = cfgmod.parse_config_text(text)
        direct = cfgmod.load_config(None, SMALL)
        assert echoed == direct


class TestTrain:
    def test_outputs_exist(self, workspace):
        runs = workspace / "runs"
        assert (runs / "checkpoint.psgw").exists()
        assert (runs / "loss.csv").exists()

    def test_loss_csv_shape(self, workspace):
        with open(workspace / "runs" / "loss.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "cls", "score", "bce", "dice", "foreground", "total"]
        assert len(rows) == 1 + 5
        for row in rows[1:]:
            assert all(np.isfinite(float(v)) for v in row[1:])

    def test_deterministic_losses(self, workspace, tmp_path):
        again = tmp_path / "runs2"
        assert run(["train", "--data", str(workspace / "data"), "--out", str(again)]) == 0
        assert (again / "loss.csv").read_bytes() == (
            workspace / "runs" / "loss.csv"
        ).read_bytes()

    def test_zero_steps_checkpoint_is_initialization(self, workspace, tmp_path):
        out = tmp_path / "runs0"
        assert (
            run(
                ["train", "--data", str(workspace / "data"), "--out", str(out)],
                sets=["train.steps=0"],
            )
            == 0
        )
        from sceneseg import autodiff as ad

        trained = ad.ParamStore.read_arrays(out / "checkpoint.psgw")
        fresh = SegModel(cfgmod.model_config(cfgmod.load_config(None, SMALL)))
        for name in fresh.store.names():
            np.testing.assert_array_equal(trained[name], fresh.store[name].value)


class TestPredict:
    def test_outputs_and_determinism(self, workspace, tmp_path):
        ckpt = workspace / "runs" / "checkpoint.psgw"
        scene = workspace / "data" / "scene_000.ply"
        outs = []
        for sub in ("p1", "p2"):
            out = tmp_path / sub
            assert (
                run(["predict", "--checkpoint", str(ckpt), "--scene", str(scene), "--out", str(out)])
                == 0
            )
            assert (out / "scene_000.pred.txt").exists()
            assert (out / "scene_000.instances.ply").exists()
            outs.append(out)
        for name in ("scene_000.pred.txt", "scene_000.instances.ply"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_pred_file_parses(self, workspace, tmp_path):
        ckpt = workspace / "runs" / "checkpoint.psgw"
        scene = workspace / "data" / "scene_001.ply"
        out = tmp_path / "p"
        assert (
            run(["predict", "--checkpoint", str(ckpt), "--scene", str(scene), "--out", str(out)])
            == 0
        )
        sid, n_sp, instances = inference.read_predictions(out / "scene_001.pred.txt")
        assert sid == "scene_001"
        for inst in instances:
            assert 0 <= inst.class_id < 3
            assert 0 <= inst.final_score <= 1


class TestEval:
    def write_perfect_preds(self, workspace, pred_dir):
        pred_dir.mkdir()
        coarse = cfgmod.DEFAULTS["superpoints.coarse_size"][1]
        for ply in sorted((workspace / "data").glob("*.ply")):
            scene = scenegen.read_ply(ply)
            part = scenegen.build_superpoints(scene, coarse)
            gt = scenegen.ground_truth(scene, part)
            instances = [
                inference.InstanceResult(int(c), 0.9, None, m)
                for c, m in zip(gt.instance_classes, gt.point_masks)
            ]
            inference.write_predictions(
                pred_dir / f"{ply.stem}.pred.txt",
                ply.stem,
                scene.n_points,
                part.n_superpoints,
                instances,
            )

    def test_perfect_predictions_score_one(self, workspace, tmp_path, capsys):
        pred_dir = tmp_path / "preds"
        self.write_perfect_preds(workspace, pred_dir)
        out = tmp_path / "eval"
        assert (
            cli.main(["eval", "--pred", str(pred_dir), "--gt", str(workspace / "data"), "--out", str(out)])
            == 0
        )
        text = (out / "report.txt").read_text()
        assert text == capsys.readouterr().out
        csv_text = (out / "report.csv").read_text()
        assert "all,mAP,1.000000" in csv_text
        assert "all,AP50,1.000000" in csv_text
        assert "all,AP25,1.000000" in csv_text

    def test_mismatched_ids_exit_3(self, workspace, tmp_path):
        pred_dir = tmp_path / "partial"
        pred_dir.mkdir()
        (pred_dir / "scene_000.pred.txt").write_text("scene scene_000 600 10\n")
        out = tmp_path / "eval"
        code = cli.main(
            ["eval", "--pred", str(pred_dir), "--gt", str(workspace / "data"), "--out", str(out)]
        )
        assert code == 3


class TestInspectAttn:
    def test_weights_dump(self, workspace, tmp_path):
        ckpt = workspace / "runs" / "checkpoint.psgw"
        scene = workspace / "data" / "scene_000.ply"
        out = tmp_path / "attn.csv"
        assert (
            run(
                ["inspect-attn", "--checkpoint", str(ckpt), "--scene", str(scene),
                 "--layer", "1", "--head", "2", "--out", str(out)]
            )
            == 0
        )
        with open(out) as fh:
            rows = list(csv.reader(fh))
        weights = np.array([[float(v) for v in row] for row in rows[1:]])
        assert weights.shape[0] == 4  # one row per query
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(weights >= 0)

    def test_matches_recomputation(self, workspace, tmp_path):
        ckpt = workspace / "runs" / "checkpoint.psgw"
        ply = workspace / "data" / "scene_000.ply"
        out = tmp_path / "attn.csv"
        run(["inspect-attn", "--checkpoint", str(ckpt), "--scene", str(ply),
             "--layer", "0", "--head", "1", "--out", str(out)])
        with open(out) as fh:
            rows = list(csv.reader(fh))
        dumped = np.array([[float(v) for v in row] for row in rows[1:]])

        cfg = cfgmod.load_config(None, SMALL)
        model = SegModel(cfgmod.model_config(cfg))
        model.store.load(ckpt)
        prep = model.prepare(scenegen.read_ply(ply))
        res = model.forward(prep, capture_attention=True)
        np.testing.assert_array_equal(dumped, res.attention[0][1])

    def test_layer_out_of_range_exit_2(self, workspace, tmp_path):
        code = run(
            ["inspect-attn", "--checkpoint", str(workspace / "runs" / "checkpoint.psgw"),
             "--scene", str(workspace / "data" / "scene_000.ply"),
             "--layer", "9", "--head", "0", "--out", str(tmp_path / "a.csv")]
        )
        assert code == 2


class TestExitCodes:
    def test_unknown_config_key_exit_2(self, tmp_path):
        assert cli.main(["gen", "--out", str(tmp_path / "x"), "--set", "bogus.key=1"]) == 2

    def test_malformed_override_exit_2(self, tmp_path):
        assert cli.main(["gen", "--out", str(tmp_path / "x"), "--set", "n_scenes"]) == 2

    def test_missing_data_dir_exit_3(self, tmp_path):
        assert run(["train", "--data", str(tmp_path / "void"), "--out", str(tmp_path / "o")]) == 3

    def test_bad_checkpoint_exit_3(self, workspace, tmp_path):
        bad = tmp_path / "bad.psgw"
        bad.write_bytes(b"JUNK" + b"\x00" * 32)
        code = run(
            ["predict", "--checkpoint", str(bad),
             "--scene", str(workspace / "data" / "scene_000.ply"),
             "--out", str(tmp_path / "o")]
        )
        assert code == 3


class TestConfigRanges:
    """Out-of-range values exit 2 with one line naming the key: before range
    checks these ended in a traceback (exit 1) or in a silent success."""

    @pytest.mark.parametrize(
        "command, sets, key",
        [
            ("train", ["backbone.levels=0"], "backbone.levels"),
            ("train", ["backbone.channels=4"], "backbone.channels"),
            ("train", ["decoder.heads=3"], "decoder.heads"),
            ("train", ["decoder.heads=0"], "decoder.heads"),
            ("train", ["decoder.tau=1.5"], "decoder.tau"),
            ("train", ["decoder.k=0"], "decoder.k"),
            ("train", ["decoder.layers=-1"], "decoder.layers"),
            ("train", ["msa.r1=0.5"], "msa.r1"),
            ("train", ["msa.k_cand=0"], "msa.k_cand"),
            ("train", ["train.steps=-1"], "train.steps"),
            ("gen", ["n_points=0"], "n_points"),
            ("gen", ["n_objects=-1"], "n_objects"),
            ("gen", ["n_class=0"], "n_class"),
            ("gen", ["room_extent=0.5"], "room_extent"),
            ("gen", ["n_objects=40", "n_points=4000"], "n_objects"),
            ("gen", ["n_scenes=0"], "n_scenes"),
        ],
    )
    def test_exit_2_naming_the_key(self, workspace, tmp_path, capsys, command, sets, key):
        out = tmp_path / "out"
        args = [command, "--out", str(out)]
        if command == "train":
            args += ["--data", str(workspace / "data")]
        assert run(args, sets) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and key in err[0], err
        assert not list(out.glob("*.ply")) and not (out / "checkpoint.psgw").exists()


class TestBadInputExitCodes:
    """Each malformed input exits 3 with a one-line message, never 0 or 1."""

    @pytest.fixture()
    def predict(self, workspace, tmp_path):
        def go(scene=None, checkpoint=None):
            return run(
                ["predict",
                 "--checkpoint", str(checkpoint or workspace / "runs" / "checkpoint.psgw"),
                 "--scene", str(scene or workspace / "data" / "scene_000.ply"),
                 "--out", str(tmp_path / "o")]
            )

        return go

    @pytest.fixture()
    def eval_one(self, workspace, tmp_path):
        """Evaluate one ground-truth scene against one prediction file."""

        def go(scene, pred_text):
            gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
            gt_dir.mkdir()
            pred_dir.mkdir()
            scenegen.write_ply(gt_dir / "scene_000.ply", scene)
            if isinstance(pred_text, str):
                pred_text = pred_text.encode()
            (pred_dir / "scene_000.pred.txt").write_bytes(pred_text)
            return cli.main(
                ["eval", "--pred", str(pred_dir), "--gt", str(gt_dir), "--out", str(tmp_path / "e")]
            )

        return go

    @pytest.fixture()
    def scene(self, workspace):
        return scenegen.read_ply(workspace / "data" / "scene_000.ply")

    @pytest.mark.parametrize("column, token", [(0, "nan"), (2, "-inf"), (3, "nan"), (5, "inf")])
    def test_non_finite_ply_value(self, workspace, tmp_path, predict, column, token):
        lines = (workspace / "data" / "scene_000.ply").read_text().splitlines()
        at = lines.index("end_header") + 1
        parts = lines[at].split()
        parts[column] = token
        lines[at] = " ".join(parts)
        bad = tmp_path / "bad.ply"
        bad.write_text("\n".join(lines) + "\n")
        assert predict(scene=bad) == 3

    def test_non_contiguous_instance_ids(self, scene, eval_one):
        last = scene.n_instances - 1
        scene.instance[scene.instance == last] = last + 2
        assert eval_one(scene, f"scene scene_000 {scene.n_points} 1\n") == 3

    def test_instance_class_out_of_range(self, scene, eval_one):
        scene.semantic[scene.instance == 0] = scene.n_class
        assert eval_one(scene, f"scene scene_000 {scene.n_points} 1\n") == 3

    def test_blank_line_in_predictions(self, scene, eval_one):
        n = scene.n_points
        text = f"scene scene_000 {n} 1\n\ninstance 0 0.5 0 {n}\n"
        assert eval_one(scene, text) == 3

    def test_prediction_mask_length_differs(self, scene, eval_one):
        n = scene.n_points
        assert eval_one(scene, f"scene scene_000 {n + 1} 1\ninstance 0 0.5 0 {n + 1}\n") == 3

    def test_non_utf8_ply(self, workspace, tmp_path, predict, capsys):
        raw = (workspace / "data" / "scene_000.ply").read_bytes()
        bad = tmp_path / "bad.ply"
        bad.write_bytes(raw.replace(b"end_header\n", b"end_header\n\xff", 1))
        assert predict(scene=bad) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "line 14" in err and "UTF-8" in err

    def test_non_utf8_predictions(self, scene, eval_one, capsys):
        n = scene.n_points
        text = f"scene scene_000 {n} 1\ninstance 0 0.5 {n}\xe9\n"
        assert eval_one(scene, text.encode("latin-1")) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "line 2" in err and "UTF-8" in err

    def test_non_utf8_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed=1\n# caf\xe9\n")
        assert cli.main(["gen", "--config", str(cfg), "--out", str(tmp_path / "g")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "line 2" in err and "UTF-8" in err

    def test_truncated_checkpoint(self, workspace, tmp_path, predict):
        raw = (workspace / "runs" / "checkpoint.psgw").read_bytes()
        bad = tmp_path / "short.psgw"
        bad.write_bytes(raw[:-8])
        assert predict(checkpoint=bad) == 3

    def test_checkpoint_trailing_bytes(self, workspace, tmp_path, predict):
        raw = (workspace / "runs" / "checkpoint.psgw").read_bytes()
        bad = tmp_path / "long.psgw"
        bad.write_bytes(raw + b"\x00")
        assert predict(checkpoint=bad) == 3

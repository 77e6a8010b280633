import contextlib
import csv
import io
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sceneseg import autodiff as ad, cli, config as cfgmod, inference, scenegen
from sceneseg.model import SegModel

from helpers import SMALL_CFG, forward_tensors, traced, write_labels_loop

SMALL = [s for s in SMALL_CFG if not s.startswith("train.steps=")] + ["train.steps=5"]


def run(args, sets=()):
    argv = list(args)
    for s in list(SMALL) + list(sets):
        argv += ["--set", s]
    return cli.main(argv)


def patched_checkpoint(workspace, path, names, value):
    """The workspace checkpoint with every entry of `names` set to `value`."""
    store = ad.ParamStore()
    for name, arr in ad.ParamStore.read_arrays(workspace / "runs" / "checkpoint.psgw").items():
        store.create(name, *arr.shape, None, fill=0.0).value = (
            np.full_like(arr, value) if name in names else arr)
    store.save(path)
    return path


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

    def test_labels_match_loop_oracle(self, workspace, tmp_path):
        for stem in ("scene_000", "scene_001"):
            scene = scenegen.read_ply(workspace / "data" / f"{stem}.ply")
            write_labels_loop(tmp_path / f"{stem}.labels", scene)
            want = (tmp_path / f"{stem}.labels").read_bytes()
            assert (workspace / "data" / f"{stem}.labels").read_bytes() == want

    def test_config_echo_parses_back(self, workspace):
        text = (workspace / "data" / "run_config.cfg").read_text()
        echoed = cfgmod.parse_config_text(text)
        direct = cfgmod.load_config(None, SMALL)
        assert echoed.values == direct.values


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
        n_points = scenegen.read_ply(scene).n_points
        sid, n_sp, instances = inference.read_predictions(out / "scene_001.pred.txt", n_points, 3)
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

    def test_scene_stem_containing_pred(self, workspace, tmp_path, capsys):
        """The scene id is the file name less ".pred.txt", so a stem that
        itself holds ".pred" still pairs with its ground truth."""
        data = tmp_path / "data"
        data.mkdir()
        (data / "room.pred1.ply").write_bytes((workspace / "data" / "scene_000.ply").read_bytes())
        runs, preds = tmp_path / "runs", tmp_path / "preds"
        assert run(["train", "--data", str(data), "--out", str(runs)]) == 0
        assert run(["predict", "--checkpoint", str(runs / "checkpoint.psgw"),
                    "--scene", str(data / "room.pred1.ply"), "--out", str(preds)]) == 0
        assert (preds / "room.pred1.pred.txt").exists()
        out = tmp_path / "eval"
        assert cli.main(["eval", "--pred", str(preds), "--gt", str(data), "--out", str(out)]) == 0
        assert (out / "report.txt").read_text() == capsys.readouterr().out


    def test_scene_id_with_space(self, workspace, tmp_path, capsys):
        """predict writes the header `scene my room <n> <m>`; eval reads the
        counts as the last two fields, so the id may hold a space."""
        data = tmp_path / "data"
        data.mkdir()
        (data / "my room.ply").write_bytes((workspace / "data" / "scene_000.ply").read_bytes())
        runs, preds = tmp_path / "runs", tmp_path / "preds"
        assert run(["train", "--data", str(data), "--out", str(runs)], ["train.steps=1"]) == 0
        assert run(["predict", "--checkpoint", str(runs / "checkpoint.psgw"),
                    "--scene", str(data / "my room.ply"), "--out", str(preds)]) == 0
        assert (preds / "my room.pred.txt").read_text().startswith("scene my room ")
        out = tmp_path / "eval"
        assert cli.main(["eval", "--pred", str(preds), "--gt", str(data), "--out", str(out)]) == 0
        assert (out / "report.txt").read_text() == capsys.readouterr().out


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
        with traced("attention_trace") as trace:
            model.forward(prep)
        assert len(trace) == cfg["decoder.layers"]
        np.testing.assert_array_equal(dumped, trace[0][1])

    def test_corrupt_checkpoint_exit_3_resets_sink(self, workspace, tmp_path):
        bad = tmp_path / "bad.psgw"
        bad.write_bytes(b"JUNK" + b"\x00" * 32)
        code = run(["inspect-attn", "--checkpoint", str(bad),
                    "--scene", str(workspace / "data" / "scene_000.ply"),
                    "--layer", "0", "--head", "0", "--out", str(tmp_path / "a.csv")])
        assert code == 3
        assert ad.attention_trace is None
        assert not (tmp_path / "a.csv").exists()

    def test_layer_out_of_range_exit_2(self, workspace, tmp_path):
        code = run(
            ["inspect-attn", "--checkpoint", str(workspace / "runs" / "checkpoint.psgw"),
             "--scene", str(workspace / "data" / "scene_000.ply"),
             "--layer", "9", "--head", "0", "--out", str(tmp_path / "a.csv")]
        )
        assert code == 2


class TestUntaped:
    """predict and inspect-attn run the forward pass without a tape."""

    @pytest.mark.parametrize(
        "command, extra", [("predict", []), ("inspect-attn", ["--layer", "1", "--head", "0"])]
    )
    def test_forward_outputs_have_no_parents(
        self, workspace, tmp_path, monkeypatch, command, extra
    ):
        outs = []
        forward = SegModel.forward

        def recording_forward(self, *a, **kw):
            outs.append(forward(self, *a, **kw))
            return outs[-1]

        monkeypatch.setattr(SegModel, "forward", recording_forward)
        code = run([command, *extra, "--out", str(tmp_path / "out"),
                    "--checkpoint", str(workspace / "runs" / "checkpoint.psgw"),
                    "--scene", str(workspace / "data" / "scene_000.ply")])
        assert code == 0 and len(outs) == 1
        assert all(t.parents == () for t in forward_tensors(outs[0]))

    @pytest.mark.parametrize(
        "command, extra", [("predict", []), ("inspect-attn", ["--layer", "1", "--head", "0"])]
    )
    def test_checkpoint_model_draws_no_init(self, workspace, tmp_path, monkeypatch, command, extra):
        """The model is read from the checkpoint without drawing an init
        first, and every file written keeps its bytes."""

        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"the checkpoint's model drew rng.{name}")

        args = [command, *extra, "--checkpoint", str(workspace / "runs" / "checkpoint.psgw"),
                "--scene", str(workspace / "data" / "scene_000.ply")]
        def written(out):  # predict's --out is a directory, inspect-attn's a file
            assert run(args + ["--out", str(out)]) == 0
            return {p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir() else out.read_bytes()

        drawn = written(tmp_path / "drawn")
        monkeypatch.setattr(np.random, "default_rng", lambda seed: NoDraws())
        assert written(tmp_path / "read") == drawn


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


class TestOSErrorExitCodes:
    """A path the command cannot read or write exits 3 with one line; these
    ended in an IsADirectoryError or FileExistsError traceback (exit 1)."""

    @pytest.mark.parametrize("case", ["scene-directory", "checkpoint-directory", "out-file"])
    def test_exit_3_with_one_line(self, workspace, tmp_path, capsys, case):
        ckpt = workspace / "runs" / "checkpoint.psgw"
        scene = workspace / "data" / "scene_000.ply"
        if case == "out-file":
            (tmp_path / "taken").write_text("")
            args = ["gen", "--out", str(tmp_path / "taken")]
        else:
            directory = str(tmp_path)
            args = ["predict", "--out", str(tmp_path / "o"),
                    "--checkpoint", directory if case == "checkpoint-directory" else str(ckpt),
                    "--scene", directory if case == "scene-directory" else str(scene)]
        assert run(args) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("data error: "), err


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
            ("train", ["msa.cap=0"], "msa.cap"),
            ("train", ["msa.width=0"], "msa.width"),
            ("train", ["decoder.d=0"], "decoder.d"),
            ("train", ["backbone.base_voxel=0"], "backbone.base_voxel"),
            ("train", ["superpoints.coarse_size=-0.5"], "superpoints.coarse_size"),
            ("train", ["infer.top_k=-1"], "infer.top_k"),
            ("train", ["train.lr=0"], "train.lr"),
            ("train", ["train.lr=-0.01"], "train.lr"),
            ("train", ["train.w_bce=-1"], "train.w_bce"),
            ("train", ["msa.rq=-0.3"], "msa.rq"),
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


COMMANDS = [("predict", []), ("inspect-attn", ["--layer", "0", "--head", "0"])]


class TestFixedExits:
    """Inputs that once ended in an IndexError traceback (exit 1), or trained
    without complaint, now exit with a one-line message."""

    def test_inspect_attn_without_masked_attention_exit_2(self, workspace, tmp_path, capsys):
        code = run(
            ["inspect-attn", "--checkpoint", str(workspace / "runs" / "checkpoint.psgw"),
             "--scene", str(workspace / "data" / "scene_000.ply"),
             "--layer", "0", "--head", "0", "--out", str(tmp_path / "a.csv")],
            ["model.use_global=false"],
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "model.use_global" in err
        assert not (tmp_path / "a.csv").exists()

    @staticmethod
    def exits_4_on(workspace, tmp_path, capsys, recwarn, command, extra, names, value, what):
        """`command` on the workspace checkpoint with `names` set to `value`
        exits 4 with the one line naming the non-finite output `what`, writes
        nothing and leaves the attention sink reset."""
        ckpt = patched_checkpoint(workspace, tmp_path / "bad.psgw", names, value)
        out = tmp_path / "o"
        code = run([command, *extra, "--checkpoint", str(ckpt), "--out", str(out),
                    "--scene", str(workspace / "data" / "scene_000.ply")])
        assert code == 4
        assert capsys.readouterr().err == f"numeric failure: non-finite {what}\n"
        assert not [w.message for w in recwarn], [str(w.message) for w in recwarn]
        assert not out.is_file() and not list(out.glob("*.pred.txt"))
        assert ad.attention_trace is None

    @pytest.mark.parametrize("command, extra", COMMANDS)
    def test_class_logits_without_a_finite_entry_exit_4(
        self, workspace, tmp_path, capsys, recwarn, command, extra
    ):
        """Class-head weights of -1e308 overflow every logit to -inf; the
        softmax's error ended in a traceback (exit 1), after two overflow
        RuntimeWarnings."""
        self.exits_4_on(workspace, tmp_path, capsys, recwarn, command, extra,
                        ["head.cls.1.w", "head.cls.1.b"], -1e308, "class_probs of decoder stage 0")

    @pytest.mark.parametrize("command, extra", COMMANDS)
    @pytest.mark.parametrize(
        "names, what",
        [(["head.cls.1.w", "head.cls.1.b"], "class_probs of decoder stage 0"),
         (["global.mask.1.w", "global.mask.1.b"], "sp_mask of decoder stage 0"),
         (["global.proj.w", "global.proj.b"], "class_probs of decoder stage 2"),
         (["backbone.norm.gain", "foreground.lin.w"], "foreground")],
    )
    def test_non_finite_forward_output_exit_4(
        self, workspace, tmp_path, capsys, recwarn, command, extra, names, what
    ):
        """Parameters of +1e308 that overflow into NaN: predict exited 0 on
        each, writing scores of nan (the class head), no instances after a
        RuntimeWarning (the global branch) or ranking by a NaN foreground.
        The norm gain gives the features magnitudes past 1.8 of both signs,
        so that the foreground's dot products meet inf - inf."""
        self.exits_4_on(workspace, tmp_path, capsys, recwarn, command, extra,
                        names, 1e308, what)

    @pytest.mark.parametrize(
        "sets, message",
        [(["train.lambda_cls=1e308", "train.lambda_mask=1e308"], "non-finite matching cost"),
         (["train.w_cls=1e308"], "non-finite loss component 'total'")],
    )
    def test_train_overflow_exit_4(self, workspace, tmp_path, capsys, recwarn, sets, message):
        """An overflowing matching cost ended in a ContractError traceback
        (exit 1); an overflowing loss printed a RuntimeWarning before its
        line. train.lambda_cls=1e308 alone overflows the cost once a class
        NLL passes 1.8 (step 17 here, step 1 at the default config)."""
        out = tmp_path / "run"
        code = run(["train", "--data", str(workspace / "data"), "--out", str(out)], sets)
        assert code == 4
        assert capsys.readouterr().err == f"numeric failure: {message} at step 0\n"
        assert not [w.message for w in recwarn], [str(w.message) for w in recwarn]
        assert not (out / "checkpoint.psgw").exists()

    @pytest.mark.parametrize("n_class", [1, 2])
    def test_train_rejects_classes_beyond_n_class_exit_3(
        self, workspace, tmp_path, capsys, n_class
    ):
        data = tmp_path / "data"
        data.mkdir()
        scene = scenegen.read_ply(workspace / "data" / "scene_000.ply")
        scene.semantic[scene.instance >= 0] = 0
        scenegen.write_ply(data / "scene_000.ply", scene)
        scene.semantic[scene.instance == 0] = 2
        scenegen.write_ply(data / "scene_001.ply", scene)
        out = tmp_path / "run"
        code = run(["train", "--data", str(data), "--out", str(out)], [f"n_class={n_class}"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "scene_001.ply" in err and "class 2" in err
        assert not (out / "loss.csv").exists() and not (out / "checkpoint.psgw").exists()

    def test_train_with_a_radius_whose_square_overflows(self, workspace, tmp_path):
        """msa.r2=1e300 ended in an OverflowError traceback (exit 1)."""
        out = tmp_path / "run"
        code = run(["train", "--data", str(workspace / "data"), "--out", str(out)],
                   ["msa.r2=1e300", "train.steps=1"])
        assert code == 0 and (out / "checkpoint.psgw").exists()


def test_predict_loads_no_scipy(workspace, tmp_path):
    """A one-shot predict in a fresh interpreter imports no SciPy module:
    only training.hungarian uses SciPy, and it imports it at its first call."""
    argv = ["predict", "--checkpoint", str(workspace / "runs" / "checkpoint.psgw"),
            "--scene", str(workspace / "data" / "scene_000.ply"), "--out", str(tmp_path / "o")]
    argv += [a for s in SMALL for a in ("--set", s)]
    script = ("import sys\nfrom sceneseg import cli\n"
              f"code = cli.main({argv!r})\n"
              "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"
    assert (tmp_path / "o" / "scene_000.pred.txt").exists()


class TestExtremeCheckpoints:
    """A checkpoint with one parameter at an extreme finite value either
    predicts a file that eval reads or exits 4 with one line."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_predict_exits_0_or_4(self, workspace, tmp_path_factory, data):
        names = sorted(ad.ParamStore.read_arrays(workspace / "runs" / "checkpoint.psgw"))
        name = data.draw(st.sampled_from(names), label="parameter")
        value = data.draw(st.sampled_from([-1.0, 1.0]), label="sign") * data.draw(
            st.floats(1e150, 1e308), label="magnitude")
        tmp = tmp_path_factory.mktemp("extreme")
        ckpt = patched_checkpoint(workspace, tmp / "x.psgw", [name], value)
        scene_path = workspace / "data" / "scene_000.ply"
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = run(["predict", "--checkpoint", str(ckpt), "--scene", str(scene_path),
                        "--out", str(tmp / "o")])
        assert not caught, [str(w.message) for w in caught]
        pred = tmp / "o" / "scene_000.pred.txt"
        if code == 0:
            assert err.getvalue() == ""
            scene = scenegen.read_ply(scene_path)
            inference.read_predictions(pred, scene.n_points, scene.n_class)
        else:
            assert code == 4
            assert err.getvalue().startswith("numeric failure: non-finite ")
            assert err.getvalue().count("\n") == 1 and not pred.exists()
        assert ad.attention_trace is None


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

    def test_cell_index_beyond_int64(self, workspace, tmp_path, predict, capsys):
        """x = 1e20 casts to no int64 voxel cell: predict exited 0 after a
        RuntimeWarning, on garbage superpoints."""
        scene = scenegen.Scene(
            points=np.array([[1e20, 0.0, 0.0, 0.5, 0.5, 0.5]]),
            semantic=np.array([-1]),
            instance=np.array([-1]),
            n_class=3,
        )
        far = tmp_path / "far.ply"
        scenegen.write_ply(far, scene)
        assert predict(scene=far) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "2**62" in err, err

    def test_line_after_the_vertex_body(self, workspace, tmp_path, predict, capsys):
        """The lines past the declared vertex count were ignored, so predict
        exited 0 on this file."""
        raw = (workspace / "data" / "scene_000.ply").read_text()
        n_lines = len(raw.splitlines())
        bad = tmp_path / "extra.ply"
        bad.write_text(raw + "garbage line here\n1 2 3\n")
        assert predict(scene=bad) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"line {n_lines + 1}" in err and "garbage" in err, err

    def test_non_contiguous_instance_ids(self, scene, eval_one):
        last = scene.n_instances - 1
        scene.instance[scene.instance == last] = last + 2
        assert eval_one(scene, f"scene scene_000 {scene.n_points} 1\n") == 3

    def test_instance_class_out_of_range(self, scene, eval_one):
        scene.semantic[scene.instance == 0] = scene.n_class
        assert eval_one(scene, f"scene scene_000 {scene.n_points} 1\n") == 3

    @pytest.mark.parametrize(
        "cls, score, match",
        [("3", "0.5", "class 3"), ("7", "0.5", "class 7"), ("-1", "0.5", "class -1"),
         ("0", "nan", "score nan"), ("0", "inf", "score inf"), ("0", "-inf", "score -inf")],
    )
    def test_garbage_prediction(self, scene, eval_one, capsys, cls, score, match):
        """A class outside [0, n_class) or a non-finite score: eval dropped or
        mis-sorted the instance and exited 0."""
        n = scene.n_points
        text = f"scene scene_000 {n} 1\ninstance 0 0.5 0 {n}\ninstance {cls} {score} 0 {n}\n"
        assert eval_one(scene, text) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "scene_000.pred.txt" in err and "line 3" in err
        assert match in err, err

    def test_blank_line_in_predictions(self, scene, eval_one):
        n = scene.n_points
        text = f"scene scene_000 {n} 1\n\ninstance 0 0.5 0 {n}\n"
        assert eval_one(scene, text) == 3

    def test_prediction_mask_length_differs(self, scene, eval_one):
        n = scene.n_points
        assert eval_one(scene, f"scene scene_000 {n + 1} 1\ninstance 0 0.5 0 {n + 1}\n") == 3

    def test_huge_header_point_count(self, scene, eval_one, capsys):
        # decoding this header's mask would ask numpy for 90.9 TiB
        n = 99999999999999
        assert eval_one(scene, f"scene scene_000 {n} 1\ninstance 0 0.5 {n}\n") == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "scene_000.pred.txt" in err
        assert f"header gives {n} points" in err

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

    def test_checkpoint_naming_a_parameter_twice(self, workspace, tmp_path, predict, capsys):
        """Every parameter plus a second record of the first one: without the
        check the set matches and the later record wins."""
        raw = (workspace / "runs" / "checkpoint.psgw").read_bytes()
        (count,) = struct.unpack_from("<I", raw, 8)
        (nlen,) = struct.unpack_from("<I", raw, 12)
        name = raw[16:16 + nlen]
        rows, cols = struct.unpack_from("<II", raw, 16 + nlen)
        first = raw[12:24 + nlen + 8 * rows * cols]
        bad = tmp_path / "twice.psgw"
        bad.write_bytes(raw[:8] + struct.pack("<I", count + 1) + raw[12:] + first)
        assert predict(checkpoint=bad) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{name.decode()!r} twice" in err

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_checkpoint_parameter(self, workspace, tmp_path, predict, capsys, bad):
        """predict exited 0 on such a checkpoint, with no instances for NaN
        and after a RuntimeWarning for inf; train never writes one."""
        ckpt = patched_checkpoint(workspace, tmp_path / "bad.psgw", ["head.cls.1.b"], bad)
        assert predict(checkpoint=ckpt) == 3
        err = capsys.readouterr().err
        assert err == "data error: checkpoint parameter 'head.cls.1.b' holds a non-finite value\n"
        assert not list((tmp_path / "o").glob("*.pred.txt"))

    def test_checkpoint_trailing_bytes(self, workspace, tmp_path, predict):
        raw = (workspace / "runs" / "checkpoint.psgw").read_bytes()
        bad = tmp_path / "long.psgw"
        bad.write_bytes(raw + b"\x00")
        assert predict(checkpoint=bad) == 3

import pytest

from sceneseg import config as cfgmod
from sceneseg.errors import ConfigError


class TestParse:
    def test_defaults(self):
        cfg = cfgmod.RunConfig()
        assert cfg["decoder.tau"] == 0.5
        assert cfg["train.w_cls"] == 0.5
        assert cfg["model.use_local"] is True

    def test_types_coerced(self):
        cfg = cfgmod.parse_config_text("n_scenes=7\ntrain.lr=0.01\nmodel.use_local=no\n")
        assert cfg["n_scenes"] == 7
        assert cfg["train.lr"] == 0.01
        assert cfg["model.use_local"] is False

    def test_comments_and_blank_lines(self):
        cfg = cfgmod.parse_config_text("# header\n\nseed=9  # trailing\n")
        assert cfg["seed"] == 9

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            cfgmod.parse_config_text("nope=1\n")

    def test_bad_int(self):
        with pytest.raises(ConfigError):
            cfgmod.parse_config_text("n_scenes=two\n")

    def test_bad_bool(self):
        with pytest.raises(ConfigError):
            cfgmod.parse_config_text("model.use_local=maybe\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            cfgmod.parse_config_text("seed=1\nbroken\n")


class TestLoad:
    def test_overrides_win(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed=1\nn_scenes=2\n")
        cfg = cfgmod.load_config(p, ["seed=5"])
        assert cfg["seed"] == 5
        assert cfg["n_scenes"] == 2

    def test_malformed_override(self):
        with pytest.raises(ConfigError):
            cfgmod.load_config(None, ["seed"])

    def test_dump_roundtrip(self):
        cfg = cfgmod.load_config(None, ["train.lr=0.0025", "decoder.k=7", "model.use_global=false"])
        back = cfgmod.parse_config_text(cfg.dump())
        assert back == cfg


class TestBuilders:
    def test_model_config_carries_values(self):
        cfg = cfgmod.load_config(None, ["decoder.k=5", "msa.r1=0.15", "seed=3"])
        mc = cfgmod.model_config(cfg)
        assert mc.dec.k == 5
        assert mc.agg.r1 == 0.15
        assert mc.seed == 3

    def test_train_config_carries_values(self):
        cfg = cfgmod.load_config(None, ["train.steps=12", "train.deep_supervision=0"])
        tc = cfgmod.train_config(cfg)
        assert tc.steps == 12
        assert tc.deep_supervision is False

    def test_scene_spec(self):
        cfg = cfgmod.load_config(None, ["n_points=800", "n_objects=3"])
        spec = cfgmod.scene_spec(cfg)
        assert spec.n_points == 800 and spec.n_objects == 3

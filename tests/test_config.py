import typing
from dataclasses import fields

import pytest

from sceneseg import aggregation, backbone, config as cfgmod, decoder, model, scenegen, training
from sceneseg.errors import ConfigError, ContractError

# a valid value for every key, each different from its default
NON_DEFAULT = {
    "seed": 7,
    "n_scenes": 2,
    "n_objects": 3,
    "n_points": 900,
    "n_class": 2,
    "room_extent": 5.0,
    "backbone.base_voxel": 0.2,
    "backbone.channels": 16,
    "backbone.levels": 3,
    "superpoints.coarse_size": 0.3,
    "msa.r1": 0.1,
    "msa.r2": 0.5,
    "msa.beta": 0.4,
    "msa.cap": 16,
    "msa.rq": 0.25,
    "msa.k_cand": 12,
    "msa.width": 24,
    "decoder.k": 10,
    "decoder.d": 48,
    "decoder.layers": 3,
    "decoder.heads": 4,
    "decoder.tau": 0.6,
    "model.use_local": False,
    "model.use_global": False,
    "train.lr": 0.01,
    "train.steps": 7,
    "train.w_cls": 0.25,
    "train.w_score": 0.75,
    "train.w_bce": 2.0,
    "train.w_dice": 3.0,
    "train.deep_supervision": False,
    "train.lambda_cls": 1.5,
    "train.lambda_mask": 2.5,
    "infer.top_k": 5,
    "infer.min_score": 0.1,
}


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
        assert back.values == cfg.values


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

    def test_defaults_build_the_dataclass_defaults(self):
        cfg = cfgmod.RunConfig()
        assert cfgmod.scene_spec(cfg) == scenegen.SceneSpec()
        assert cfgmod.model_config(cfg) == model.ModelConfig()
        assert cfgmod.train_config(cfg) == training.TrainConfig()
        assert scenegen.SceneSpec().n_class == decoder.DecoderConfig().n_class

    def test_each_key_has_its_field_type(self):
        renamed = {"superpoints.coarse_size": "model.coarse_size", "seed": "model.seed",
                   "n_class": "decoder.n_class"}
        hints = {}
        for prefix, cls in [("", scenegen.SceneSpec), ("backbone.", backbone.BackboneConfig),
                            ("msa.", aggregation.AggregationConfig),
                            ("decoder.", decoder.DecoderConfig), ("model.", model.ModelConfig),
                            ("train.", training.TrainConfig)]:
            hints.update({prefix + f: hint for f, hint in typing.get_type_hints(cls).items()})
        for key, (typ, default) in cfgmod.DEFAULTS.items():
            if key not in {"n_scenes", "infer.top_k", "infer.min_score"}:
                assert typ is hints[renamed.get(key, key)], key
            assert type(default) is typ, key

    def test_every_key_reaches_its_dataclass(self):
        assert set(NON_DEFAULT) == set(cfgmod.DEFAULTS)
        assert all(v != cfgmod.DEFAULTS[k][1] for k, v in NON_DEFAULT.items())
        cfg = cfgmod.load_config(None, [f"{k}={v}" for k, v in NON_DEFAULT.items()])
        spec, mc, tc = cfgmod.scene_spec(cfg), cfgmod.model_config(cfg), cfgmod.train_config(cfg)
        built = {"superpoints.coarse_size": mc.coarse_size, "seed": mc.seed}
        for prefix, obj in [("", spec), ("backbone.", mc.backbone), ("msa.", mc.agg),
                            ("decoder.", mc.dec), ("model.", mc), ("train.", tc)]:
            built.update({prefix + f.name: getattr(obj, f.name) for f in fields(obj)})
        assert mc.dec.n_class == NON_DEFAULT["n_class"]
        read_by_cli = {"n_scenes", "infer.top_k", "infer.min_score"}
        for key, value in NON_DEFAULT.items():
            assert cfg[key] == value, key
            if key not in read_by_cli:
                assert built[key] == value, key


class TestComponentRanges:
    """Each range rule lives in the dataclass holding its field, for Python
    callers and the config alike."""

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: decoder.DecoderConfig(heads=0), "heads"),
            (lambda: decoder.DecoderConfig(k=0), "k"),
            (lambda: backbone.BackboneConfig(base_voxel=0.0), "base_voxel"),
            (lambda: scenegen.SceneSpec(n_class=0), "n_class"),
            (lambda: aggregation.AggregationConfig(cap=0), "cap"),
            (lambda: training.TrainConfig(steps=-1), "steps"),
            (lambda: model.ModelConfig(coarse_size=0.0), "coarse_size"),
            pytest.param(lambda: decoder.DecoderConfig(n_class=0), "n_class", id="decoder-n_class"),
            (lambda: training.TrainConfig(lr=0.0), "lr"),
            (lambda: training.TrainConfig(lambda_mask=-1.0), "lambda_mask"),
        ],
    )
    def test_contract_error_names_the_field(self, make, field):
        with pytest.raises(ContractError) as exc:
            make()
        assert exc.value.field == field
        assert str(exc.value).startswith(f"{field}=")

    @pytest.mark.parametrize(
        "item, message",
        [
            ("decoder.d=0", "decoder.d=0 out of range: must be >= 1"),
            ("msa.r1=0.5", "msa.r1=0.5 out of range: must be in (0, r2 = 0.4)"),
            ("superpoints.coarse_size=0", "superpoints.coarse_size=0.0 out of range: must be > 0"),
            ("n_class=0", "n_class=0 out of range: must be >= 1"),
            ("infer.top_k=-1", "infer.top_k=-1 out of range: must be >= 0"),
            ("n_points=300", "n_points=300 out of range: must be >= 100 * n_objects = 400"),
            ("train.lr=-0.01", "train.lr=-0.01 out of range: must be > 0"),
            ("train.w_dice=-0.5", "train.w_dice=-0.5 out of range: must be >= 0"),
        ],
    )
    def test_config_error_names_the_key(self, item, message):
        with pytest.raises(ConfigError) as exc:
            cfgmod.load_config(None, [item])
        assert str(exc.value) == message

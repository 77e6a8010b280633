import numpy as np
import pytest

from sceneseg import autodiff as ad, decoder
from sceneseg.decoder import (
    Decoder,
    DecoderConfig,
    DecoderLayer,
    MultiHeadAttention,
    PredictionHead,
    build_attention_mask,
)
from sceneseg.errors import ContractError

from helpers import sum_all, traced


def micro_cfg(**kw):
    base = dict(k=4, d=16, layers=2, heads=4, tau=0.5, n_class=3)
    base.update(kw)
    return DecoderConfig(**base)


class TestAttentionMask:
    def test_threshold_semantics(self):
        prev = np.array([[0.6, 0.4], [0.5, 0.2]])
        a = build_attention_mask(prev, 0.5)
        assert a[0, 0] == 0.0 and a[0, 1] == -np.inf
        assert a[1, 0] == 0.0  # boundary value tau is unmasked

    def test_dead_row_fallback(self):
        a = build_attention_mask(np.array([[0.1, 0.2], [0.9, 0.9]]), 0.5)
        np.testing.assert_array_equal(a[0], [0.0, 0.0])
        np.testing.assert_array_equal(a[1], [0.0, 0.0])

    def test_open_pattern_recorded(self, monkeypatch):
        """The mask is the {0, -inf} where-form with dead rows opened, NaN
        entries closed, and its np.isfinite pattern is its one trace entry."""
        monkeypatch.setattr(ad, "structure_trace", [])
        prev = np.array([[0.6, 0.5, np.nan], [0.1, 0.2, 0.3], [np.nan, 0.9, 0.4]])
        a = build_attention_mask(prev, 0.5)
        want = np.where(prev >= 0.5, 0.0, -np.inf)
        want[~np.isfinite(want).any(axis=1)] = 0.0
        assert a.tobytes() == want.tobytes() and a.shape == want.shape
        assert ad.structure_trace == [np.isfinite(a).tobytes()]

    def test_all_zero_prev_mask_no_nan(self):
        a = build_attention_mask(np.zeros((3, 5)), 0.5)
        np.testing.assert_array_equal(a, np.zeros((3, 5)))

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(0)
        prev = rng.uniform(size=(6, 10))
        taus = np.linspace(0.1, 0.9, 9)
        prev_open = None
        for t in taus:
            open_ = np.isfinite(build_attention_mask(prev, t))
            if prev_open is not None:
                # ignore rows where the dead-row fallback kicked in
                raw = prev >= t
                live = raw.any(axis=1)
                assert np.all(open_[live] <= prev_open[live])
            prev_open = open_


class TestMultiHeadAttention:
    def make(self, d=8, heads=2, seed=0):
        store = ad.ParamStore()
        return MultiHeadAttention(store, "attn", d, heads, np.random.default_rng(seed)), store

    def test_masked_columns_zero_weight(self):
        attn, _ = self.make()
        rng = np.random.default_rng(1)
        z = ad.constant(rng.normal(size=(3, 8)))
        f = ad.constant(rng.normal(size=(5, 8)))
        mask = np.zeros((3, 5))
        mask[:, 2] = -np.inf
        with traced("attention_trace") as cap:
            attn(z, f, mask=mask)
        (weights,) = cap
        assert weights.shape == (2, 3, 5)
        for w in weights:
            assert np.all(w[:, 2] == 0.0)
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_mask_equals_unmasked(self):
        attn, _ = self.make()
        rng = np.random.default_rng(2)
        z = ad.constant(rng.normal(size=(3, 8)))
        f = ad.constant(rng.normal(size=(5, 8)))
        a = attn(z, f, mask=np.zeros((3, 5))).value
        b = attn(z, f, mask=None).value
        np.testing.assert_array_equal(a, b)

    def test_one_hot_mask_selects_single_row(self):
        attn, _ = self.make()
        rng = np.random.default_rng(3)
        z = ad.constant(rng.normal(size=(2, 8)))
        f = ad.constant(rng.normal(size=(4, 8)))
        mask = np.full((2, 4), -np.inf)
        mask[0, 1] = 0.0
        mask[1, 3] = 0.0
        with traced("attention_trace") as cap:
            out = attn(z, f, mask=mask).value
        (weights,) = cap
        assert weights.shape == (2, 2, 4)
        for w in weights:
            np.testing.assert_allclose(w[0], [0, 1, 0, 0], atol=1e-15)
            np.testing.assert_allclose(w[1], [0, 0, 0, 1], atol=1e-15)
        # with one-hot attention the context is just the selected value rows
        v = attn.v(f).value
        q_ctx = np.stack([v[1], v[3]])
        want = q_ctx @ attn.out.w.value + attn.out.b.value
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_hand_evaluated_single_head(self):
        # d=2, 1 head, identity projections: out = softmax(q k^T / sqrt(2)) v
        store = ad.ParamStore()
        attn = MultiHeadAttention(store, "a", 2, 1, np.random.default_rng(0))
        for lin in (attn.q, attn.k, attn.v, attn.out):
            lin.w.value = np.eye(2)
            lin.b.value[:] = 0
        z = np.array([[1.0, 0.0]])
        f = np.array([[2.0, 0.0], [0.0, 2.0]])
        out = attn(ad.constant(z), ad.constant(f)).value
        logits = z @ f.T / np.sqrt(2)
        e = np.exp(logits - logits.max())
        w = e / e.sum()
        np.testing.assert_allclose(out, w @ f, atol=1e-12)

    def test_empty_context_bias_only(self):
        attn, _ = self.make()
        z = ad.constant(np.random.default_rng(4).normal(size=(3, 8)))
        out = attn(z, ad.constant(np.zeros((0, 8)))).value
        np.testing.assert_array_equal(out, np.tile(attn.out.b.value, (3, 1)))

    def test_context_permutation_invariance(self):
        attn, _ = self.make()
        rng = np.random.default_rng(5)
        z = ad.constant(rng.normal(size=(3, 8)))
        f = rng.normal(size=(6, 8))
        base = attn(z, ad.constant(f)).value
        perm = rng.permutation(6)
        out = attn(z, ad.constant(f[perm])).value
        np.testing.assert_allclose(out, base, atol=1e-12)

    def test_duplicate_context_rows_invariant(self):
        # attention over {x, x, y} equals attention over {x, y} only in the
        # weighted-average sense; check the exactly-duplicated full set instead:
        # duplicating every row leaves softmax-weighted averages unchanged
        attn, _ = self.make()
        rng = np.random.default_rng(6)
        z = ad.constant(rng.normal(size=(2, 8)))
        f = rng.normal(size=(4, 8))
        base = attn(z, ad.constant(f)).value
        doubled = attn(z, ad.constant(np.concatenate([f, f]))).value
        np.testing.assert_allclose(doubled, base, atol=1e-12)


class TestDecoderLayer:
    def make(self, cfg=None, seed=0):
        cfg = cfg or micro_cfg()
        store = ad.ParamStore()
        layer = DecoderLayer(store, "layer", cfg, 8, np.random.default_rng(seed))
        return layer, store, cfg

    def rand_inputs(self, cfg, m=7, n_key=5, seed=1):
        rng = np.random.default_rng(seed)
        z = ad.constant(rng.normal(size=(cfg.k, cfg.d)))
        f_g = ad.constant(rng.normal(size=(m, cfg.d)))
        f_l = ad.constant(rng.normal(size=(n_key, 8)))
        return z, f_g, f_l

    def test_output_shape(self):
        layer, _, cfg = self.make()
        z, f_g, f_l = self.rand_inputs(cfg)
        out = layer(z, f_g, f_l, np.zeros((cfg.k, 7)))
        assert out.value.shape == (cfg.k, cfg.d)
        assert np.all(np.isfinite(out.value))

    def silence(self, store, branch):
        """Zero one cross-attention's out-projection, so that branch adds
        exactly zero whatever its features."""
        for part in ("w", "b"):
            store[f"layer.{branch}.out.{part}"].value[:] = 0.0

    def test_disabled_global_branch_ignores_f_g(self):
        """A None f_g gives the bytes of a global branch that adds zero."""
        layer, store, cfg = self.make()
        z, f_g, f_l = self.rand_inputs(cfg)
        other = ad.constant(np.random.default_rng(9).normal(size=f_g.shape))
        a = layer(z, None, f_l, None).value
        self.silence(store, "cross_g")
        b = layer(z, f_g, f_l, np.zeros((cfg.k, 7))).value
        c = layer(z, other, f_l, np.zeros((cfg.k, 7))).value
        assert a.tobytes() == b.tobytes() == c.tobytes()

    def test_disabled_local_branch_ignores_f_l(self):
        """A None f_l gives the bytes of a local branch that adds zero."""
        layer, store, cfg = self.make()
        z, f_g, f_l = self.rand_inputs(cfg)
        other = ad.constant(np.random.default_rng(9).normal(size=f_l.shape))
        mask = np.zeros((cfg.k, 7))
        a = layer(z, f_g, None, mask).value
        self.silence(store, "cross_l")
        b = layer(z, f_g, f_l, mask).value
        c = layer(z, f_g, other, mask).value
        assert a.tobytes() == b.tobytes() == c.tobytes()

    def test_empty_local_features(self):
        layer, _, cfg = self.make()
        z, f_g, _ = self.rand_inputs(cfg)
        f_l = ad.constant(np.zeros((0, 8)))
        out = layer(z, f_g, f_l, np.zeros((cfg.k, 7)))
        assert np.all(np.isfinite(out.value))

    def test_zero_weights_reduce_to_normed_residual(self):
        layer, store, cfg = self.make()
        for name in store.names():
            if name.startswith("layer.fuse") or ".out." in name or name.startswith("layer.ffn"):
                if name.endswith(".w") or name.endswith(".b"):
                    store[name].value[:] = 0
        z, f_g, f_l = self.rand_inputs(cfg)
        out = layer(z, f_g, f_l, np.zeros((cfg.k, 7))).value
        # every sub-block contributes zero, so output = LN(LN(LN(z)))
        x = z.value
        for gain, bias in layer.norms:
            mu = x.mean(axis=1, keepdims=True)
            var = x.var(axis=1, keepdims=True)
            x = (x - mu) / np.sqrt(var + 1e-5) * gain.value + bias.value
        np.testing.assert_allclose(out, x, atol=1e-12)


class TestDecoder:
    def make(self, cfg=None, seed=0):
        cfg = cfg or micro_cfg()
        store = ad.ParamStore()
        return Decoder(store, cfg, 8, np.random.default_rng(seed)), store, cfg

    def inputs(self, cfg, m=9, n_key=5, seed=2):
        rng = np.random.default_rng(seed)
        f_g = ad.constant(rng.normal(size=(m, cfg.d)))
        f_l = ad.constant(rng.normal(size=(n_key, 8)))
        s_mask = ad.constant(rng.normal(size=(m, cfg.d)))
        return f_g, f_l, s_mask

    def test_prediction_count(self):
        for layers in (0, 2, 6):
            dec, _, cfg = self.make(micro_cfg(layers=layers))
            preds = dec.run(*self.inputs(cfg))
            assert len(preds) == layers + 1

    def test_prediction_invariants(self):
        dec, _, cfg = self.make()
        for p in dec.run(*self.inputs(cfg)):
            assert np.abs(p.class_probs.value.sum(axis=1) - 1).max() < 1e-12
            assert np.all((p.iou_score.value > 0) & (p.iou_score.value < 1))
            assert np.all((p.sp_mask.value > 0) & (p.sp_mask.value < 1))

    def test_attention_masks_recorded(self, monkeypatch):
        """Each layer is gated by the mask of the prediction before it, whose
        open pattern goes to the structure trace in layer order; the last
        prediction gates nothing, so its mask is not built."""
        dec, _, cfg = self.make()
        built = []

        def spy(prev_mask, tau):
            built.append((prev_mask, build_attention_mask(prev_mask, tau)))
            return built[-1][1]

        monkeypatch.setattr(decoder, "build_attention_mask", spy)
        monkeypatch.setattr(ad, "structure_trace", [])
        preds = dec.run(*self.inputs(cfg))
        assert len(built) == cfg.layers == len(preds) - 1
        patterns = iter(ad.structure_trace)
        for (prev, mask), p in zip(built, preds):
            assert prev is p.sp_mask.value
            want = np.where(p.sp_mask.value >= cfg.tau, 0.0, -np.inf)
            dead = ~np.isfinite(want).any(axis=1)
            want[dead] = 0.0
            np.testing.assert_array_equal(mask, want)
            assert np.isfinite(mask).tobytes() in patterns  # consumes: in order

    def test_no_gating_mask_without_global_branch(self, monkeypatch):
        """With f_g None no attention reads a gating mask, so none is built
        and none of their open patterns reaches the structure trace."""
        dec, _, cfg = self.make()
        calls = []

        def spy(prev_mask, tau):
            calls.append(tau)
            return build_attention_mask(prev_mask, tau)

        monkeypatch.setattr(decoder, "build_attention_mask", spy)
        lengths = {}
        for use_global in (True, False):
            calls.clear()
            f_g, f_l, s_mask = self.inputs(cfg)
            with traced("structure_trace") as trace, traced("attention_trace") as weights:
                dec.run(f_g if use_global else None, f_l, s_mask)
            lengths[use_global] = len(trace)
            assert len(calls) == len(weights) == (cfg.layers if use_global else 0)
        # the same ReLU patterns either way; the gated run adds one per layer
        assert lengths[True] - lengths[False] == cfg.layers

    def test_attention_trace_shape(self):
        """With the sink set, each layer's gated cross-attention records its
        heads x K x M weights, and no other attention records any."""
        dec, _, cfg = self.make()
        with traced("attention_trace") as cap:
            dec.run(*self.inputs(cfg))
        assert len(cap) == cfg.layers
        for per_layer in cap:
            assert per_layer.shape == (cfg.heads, cfg.k, 9)
            for w in per_layer:
                np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_attention_trace_off_keeps_nothing(self):
        """With the sink None again, a run appends to no list: not to the
        sink, and not to a list that an earlier caller set and reset."""
        dec, _, cfg = self.make()
        with traced("attention_trace") as earlier:
            pass
        preds = dec.run(*self.inputs(cfg))
        assert len(preds) == cfg.layers + 1
        assert ad.attention_trace is None and earlier == []

    def test_no_nan_under_adversarial_masks(self):
        dec, _, cfg = self.make()
        rng = np.random.default_rng(3)
        # extreme s_mask drives every sigmoid to ~0: dead-row fallback everywhere
        f_g = ad.constant(rng.normal(size=(6, cfg.d)))
        f_l = ad.constant(rng.normal(size=(4, 8)))
        s_mask = ad.constant(np.full((6, cfg.d), -40.0))
        preds = dec.run(f_g, f_l, s_mask)
        for p in preds:
            assert np.all(np.isfinite(p.class_probs.value))
            assert np.all(np.isfinite(p.sp_mask.value))

    def test_superpoint_permutation_equivariance(self):
        dec, _, cfg = self.make()
        rng = np.random.default_rng(4)
        f_g = rng.normal(size=(9, cfg.d))
        f_l = ad.constant(rng.normal(size=(5, 8)))
        s_mask = rng.normal(size=(9, cfg.d))
        base = dec.run(ad.constant(f_g), f_l, ad.constant(s_mask))
        perm = rng.permutation(9)
        out = dec.run(ad.constant(f_g[perm]), f_l, ad.constant(s_mask[perm]))
        for p0, p1 in zip(base, out):
            np.testing.assert_allclose(p1.sp_mask.value, p0.sp_mask.value[:, perm], atol=1e-10)
            np.testing.assert_allclose(p1.class_probs.value, p0.class_probs.value, atol=1e-10)

    def test_config_validation(self):
        with pytest.raises(ContractError):
            micro_cfg(d=10, heads=4)
        with pytest.raises(ContractError):
            micro_cfg(tau=0.0)
        with pytest.raises(ContractError):
            micro_cfg(tau=1.5)
        # zero heads once raised ZeroDivisionError in the divisor check
        with pytest.raises(ContractError):
            micro_cfg(heads=0)
        with pytest.raises(ContractError):
            micro_cfg(k=0)


class TestPredictionHead:
    def test_uniform_classes_with_zero_params(self):
        store = ad.ParamStore()
        cfg = micro_cfg()
        head = PredictionHead(store, cfg, np.random.default_rng(0))
        for layer in head.cls.layers:
            layer.w.value[:] = 0
            layer.b.value[:] = 0
        z = ad.constant(np.random.default_rng(1).normal(size=(cfg.k, cfg.d)))
        s_mask = ad.constant(np.random.default_rng(2).normal(size=(5, cfg.d)))
        pred = head(z, ad.transpose(s_mask))
        np.testing.assert_allclose(
            pred.class_probs.value, np.full((cfg.k, cfg.n_class + 1), 1 / (cfg.n_class + 1))
        )

    def test_mask_is_sigmoid_of_inner_products(self):
        store = ad.ParamStore()
        cfg = micro_cfg()
        head = PredictionHead(store, cfg, np.random.default_rng(0))
        rng = np.random.default_rng(3)
        z = rng.normal(size=(cfg.k, cfg.d))
        s = rng.normal(size=(7, cfg.d))
        pred = head(ad.constant(z), ad.transpose(ad.constant(s)))
        want = 1.0 / (1.0 + np.exp(-(z @ s.T)))
        np.testing.assert_allclose(pred.sp_mask.value, want, atol=1e-12)

    def test_mask_feature_gradient_is_f_ordered(self):
        """The gradient of S_mask is the F-ordered copy of g.T that its
        transpose hands on; a C-ordered one would change later matmul bytes."""
        cfg = micro_cfg()
        dec = Decoder(ad.ParamStore(), cfg, 6, np.random.default_rng(0))
        rng = np.random.default_rng(4)
        s_mask = ad.Tensor(rng.normal(size=(9, cfg.d)))
        preds = dec.run(None, ad.constant(rng.normal(size=(3, 6))), s_mask)
        loss = preds[0].sp_mask
        for p in preds[1:]:
            loss = ad.add(loss, p.sp_mask)
        ad.backward(sum_all(loss))
        assert s_mask.grad.flags.f_contiguous and not s_mask.grad.flags.c_contiguous

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sceneseg import autodiff as ad
from sceneseg.errors import ContractError, ShapeError

from helpers import composed_attention, finite_diff, rel_err, slice_cols


class TestMatmul:
    def test_identity(self):
        x = ad.constant([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        out = ad.matmul(ad.constant(np.eye(2)), x)
        np.testing.assert_array_equal(out.value, x.value)

    def test_zero(self):
        out = ad.matmul(ad.constant(np.zeros((2, 3))), ad.constant(np.ones((3, 2))))
        np.testing.assert_array_equal(out.value, np.zeros((2, 2)))

    def test_hand_case(self):
        out = ad.matmul(ad.constant([[1.0, 2.0], [3.0, 4.0]]), ad.constant([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.value, [[19.0, 22.0], [43.0, 50.0]])

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m, k, n = rng.integers(1, 9, size=3)
            a = rng.normal(size=(m, k))
            b = rng.normal(size=(k, n))
            want = np.zeros((m, n))
            for i in range(m):
                for j in range(n):
                    acc = 0.0
                    for p in range(k):
                        acc += a[i, p] * b[p, j]
                    want[i, j] = acc
            got = ad.matmul(ad.constant(a), ad.constant(b)).value
            assert np.abs(got - want).max() < 1e-12

    def test_pure(self):
        a = ad.constant(np.random.default_rng(1).normal(size=(4, 4)))
        out1 = ad.matmul(a, a).value
        out2 = ad.matmul(a, a).value
        assert np.array_equal(out1, out2)


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax_rows(ad.constant(np.zeros((1, 4))))
        np.testing.assert_array_equal(out.value, np.full((1, 4), 0.25))

    def test_shift_invariance(self):
        x = np.array([[0.3, -1.2, 2.0]])
        a = ad.softmax_rows(ad.constant(x)).value
        b = ad.softmax_rows(ad.constant(x + 7.5)).value
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_hand_case(self):
        out = ad.softmax_rows(ad.constant([[1.0, 2.0, 3.0]])).value
        np.testing.assert_allclose(out, [[0.0900, 0.2447, 0.6652]], atol=5e-5)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 9)) * 10
        out = ad.softmax_rows(ad.constant(x)).value
        assert np.abs(out.sum(axis=1) - 1).max() < 1e-12

    def test_neg_inf_exact_zero(self):
        extra = np.array([[0.0, -np.inf, 0.0]])
        out = ad.softmax_rows(ad.constant([[1.0, 50.0, 2.0]]), extra=extra).value
        assert out[0, 1] == 0.0
        assert abs(out.sum() - 1) < 1e-12

    def test_all_masked_row_signaled(self):
        extra = np.full((1, 3), -np.inf)
        with pytest.raises(ad.FullyMaskedRowError):
            ad.softmax_rows(ad.constant([[1.0, 2.0, 3.0]]), extra=extra)


class TestElementwise:
    def test_sigmoid_zero(self):
        assert ad.sigmoid(ad.constant([[0.0]])).value[0, 0] == 0.5

    def test_relu(self):
        np.testing.assert_array_equal(ad.relu(ad.constant([[-1.0, 2.0]])).value, [[0.0, 2.0]])

    def test_layer_norm_constant_row(self):
        gain = ad.constant(np.ones((1, 4)))
        bias = ad.constant([[0.3, -0.1, 0.0, 2.0]])
        out = ad.layer_norm(ad.constant(np.full((1, 4), 5.0)), gain, bias)
        np.testing.assert_allclose(out.value, bias.value, atol=1e-12)

    def test_layer_norm_standardizes(self):
        gain = ad.constant(np.ones((1, 8)))
        bias = ad.constant(np.zeros((1, 8)))
        x = np.random.default_rng(3).normal(2.0, 3.0, size=(5, 8))
        out = ad.layer_norm(ad.constant(x), gain, bias).value
        assert np.abs(out.mean(axis=1)).max() < 1e-12
        assert np.abs(out.std(axis=1) - 1).max() < 1e-3  # variance floor skews slightly


class TestMLP:
    def test_identity_layer(self):
        store = ad.ParamStore()
        rng = np.random.default_rng(0)
        mlp = ad.MLP(store, "m", [3, 3], ["none"], rng)
        mlp.layers[0].w.value = np.eye(3)
        mlp.layers[0].b.value = np.zeros((1, 3))
        x = np.random.default_rng(1).normal(size=(4, 3))
        np.testing.assert_array_equal(mlp(ad.constant(x)).value, x)

    def test_zero_weights_broadcast_bias(self):
        store = ad.ParamStore()
        mlp = ad.MLP(store, "m", [3, 2], ["none"], np.random.default_rng(0))
        mlp.layers[0].w.value = np.zeros((3, 2))
        mlp.layers[0].b.value = np.array([[1.5, -2.0]])
        out = mlp(ad.constant(np.random.default_rng(1).normal(size=(5, 3)))).value
        np.testing.assert_array_equal(out, np.tile([[1.5, -2.0]], (5, 1)))

    def test_matches_independent_forward(self):
        store = ad.ParamStore()
        mlp = ad.MLP(store, "m", [4, 6, 2], ["relu", "none"], np.random.default_rng(42))
        x = np.random.default_rng(5).normal(size=(7, 4))
        got = mlp(ad.constant(x)).value
        # independent plain-numpy forward pass
        h = np.maximum(x @ mlp.layers[0].w.value + mlp.layers[0].b.value, 0.0)
        want = h @ mlp.layers[1].w.value + mlp.layers[1].b.value
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_bad_widths(self):
        with pytest.raises(ContractError):
            ad.MLP(ad.ParamStore(), "m", [3], [], np.random.default_rng(0))


class TestBackward:
    def test_sum_of_squares(self):
        x = ad.Tensor([[1.0, 2.0]])
        loss = ad.sum_all(ad.mul(x, x))
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, [[2.0, 4.0]])

    def test_unreached_parameter_zero_grad(self):
        store = ad.ParamStore()
        used = store.create("used", 2, 2, np.random.default_rng(0))
        unused = store.create("unused", 2, 2, np.random.default_rng(1))
        ad.backward(ad.sum_all(ad.mul(used, used)))
        np.testing.assert_array_equal(store.grad_of("unused"), np.zeros((2, 2)))

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            ad.backward(ad.constant(np.ones((2, 2))))

    def test_composite_graph_finite_differences(self):
        rng = np.random.default_rng(7)
        store = ad.ParamStore()
        w1 = store.create("w1", 3, 5, rng)
        w2 = store.create("w2", 5, 2, rng)
        gain = store.create("gain", 1, 5, rng)
        bias = store.create("bias", 1, 5, rng)
        x = rng.normal(size=(4, 3))

        def loss():
            h = ad.layer_norm(ad.relu(ad.matmul(ad.constant(x), w1)), gain, bias)
            out = ad.sigmoid(ad.matmul(ad.softmax_rows(h), w2))
            return ad.sum_all(ad.mul(out, out))

        l = loss()
        ad.backward(l)
        for t in (w1, w2, gain, bias):
            fd = finite_diff(lambda: float(loss().value[0, 0]), t.value)
            assert rel_err(t.grad, fd) < 1e-3, t.name

    @pytest.mark.parametrize(
        "op",
        [
            lambda x, y: ad.add(x, y),
            lambda x, y: ad.sub(x, y),
            lambda x, y: ad.mul(x, y),
            lambda x, y: ad.div(x, ad.affine(ad.sigmoid(y), 1.0, 0.5)),
            lambda x, y: ad.matmul(x, ad.transpose(y)),
            lambda x, y: ad.concat_cols([x, y]),
            lambda x, y: ad.add_bias(x, ad.gather_rows(y, [1])),
            lambda x, y: slice_cols(ad.add(x, y), 1, 3),
            lambda x, y: ad.clip(ad.add(x, y), -0.5, 0.5),
        ],
    )
    def test_primitive_gradients(self, op):
        rng = np.random.default_rng(11)
        x = ad.Tensor(rng.normal(size=(3, 4)))
        y = ad.Tensor(rng.normal(size=(3, 4)))

        def loss():
            return ad.sum_all(ad.mul(op(x, y), op(x, y)))

        ad.backward(loss())
        for t in (x, y):
            g = t.grad if t.grad is not None else np.zeros(t.shape)
            fd = finite_diff(lambda: float(loss().value[0, 0]), t.value)
            assert rel_err(g, fd) < 1e-3

    def test_segment_and_group_gradients(self):
        rng = np.random.default_rng(13)
        x = ad.Tensor(rng.normal(size=(6, 3)))
        seg = np.array([0, 0, 1, 2, 2, 2])
        groups = [np.array([0, 2, 4]), np.array([], dtype=np.int64), np.array([1, 5])]

        def loss():
            a = ad.segment_mean(x, seg, 3)
            b = ad.group_max(x, groups)
            return ad.sum_all(ad.mul(a, a)) if False else ad.add(
                ad.sum_all(ad.mul(a, a)), ad.sum_all(ad.mul(b, b))
            )

        ad.backward(loss())
        fd = finite_diff(lambda: float(loss().value[0, 0]), x.value)
        assert rel_err(x.grad, fd) < 1e-3


def attention_case(attend, data, heads, mask):
    """Run `attend` between Linear projections, as the decoder does, and
    return the output, the captured weights and every gradient."""
    store = ad.ParamStore()
    z, f, g = (ad.Tensor(x.copy()) for x in data[:3])
    rng = np.random.default_rng(0)
    d = z.shape[1]
    proj = [ad.Linear(store, name, d, d, rng) for name in "qkv"]
    q, k, v = proj[0](z), proj[1](f), proj[2](f)
    capture = []
    out = attend(q, k, v, heads, mask, capture)
    ad.backward(ad.sum_all(ad.mul(out, g)))
    grads = [t.grad for t in (q, k, v, z, f)] + [store.grad_of(n) for n in store.names()]
    return out.value, capture, grads


@st.composite
def attention_inputs(draw):
    heads = draw(st.integers(1, 4))
    d = heads * draw(st.integers(1, 5))
    rows, n = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    data = (rng.normal(size=(rows, d)), rng.normal(size=(n, d)), rng.normal(size=(rows, d)))
    kind = draw(st.sampled_from(["none", "zeros", "random", "one_hot"]))
    mask = None
    if kind == "zeros":
        mask = np.zeros((rows, n))
    elif kind == "random":
        mask = np.where(rng.uniform(size=(rows, n)) < draw(st.floats(0.0, 1.0)), -np.inf, 0.0)
        mask[np.arange(rows), rng.integers(0, n, size=rows)] = 0.0
    elif kind == "one_hot":
        mask = np.full((rows, n), -np.inf)
        mask[np.arange(rows), rng.integers(0, n, size=rows)] = 0.0
    return data, heads, mask


class TestAttention:
    @settings(max_examples=150, deadline=None)
    @given(attention_inputs())
    def test_bit_identical_to_composed_chain(self, case):
        data, heads, mask = case
        out, cap, grads = attention_case(ad.attention, data, heads, mask)
        want_out, want_cap, want_grads = attention_case(composed_attention, data, heads, mask)
        assert out.tobytes() == want_out.tobytes()
        assert len(cap) == len(want_cap) == heads
        for a, b in zip(cap, want_cap):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(grads, want_grads):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert a.flags.c_contiguous == b.flags.c_contiguous

    def test_one_tape_node(self):
        rng = np.random.default_rng(0)
        q, k, v = (ad.Tensor(rng.normal(size=s)) for s in [(3, 8), (5, 8), (5, 8)])
        out = ad.attention(q, k, v, 4)
        assert out.parents == (q, k, v)

    def test_fully_masked_row_raises(self):
        rng = np.random.default_rng(1)
        q, k, v = (ad.constant(rng.normal(size=s)) for s in [(3, 4), (5, 4), (5, 4)])
        mask = np.zeros((3, 5))
        mask[1] = -np.inf
        with pytest.raises(ad.FullyMaskedRowError):
            ad.attention(q, k, v, 2, mask)

    def test_zero_context_rows_give_zero_constant(self):
        q = ad.Tensor(np.ones((3, 4)))
        empty = ad.Tensor(np.zeros((0, 4)))
        cap = []
        out = ad.attention(q, empty, empty, 2, np.zeros((3, 0)), cap)
        np.testing.assert_array_equal(out.value, np.zeros((3, 4)))
        assert out.parents == () and cap == []

    def test_shape_errors(self):
        x = ad.constant(np.ones((3, 6)))
        with pytest.raises(ShapeError):
            ad.attention(x, x, x, 4)  # 6 columns do not split into 4 heads
        with pytest.raises(ShapeError):
            ad.attention(x, ad.constant(np.ones((3, 4))), x, 2)
        with pytest.raises(ShapeError):
            ad.attention(x, x, x, 2, np.zeros((3, 2)))

    def test_finite_differences(self):
        rng = np.random.default_rng(7)
        q, k, v = (ad.Tensor(rng.normal(size=s)) for s in [(4, 6), (7, 6), (7, 6)])
        g = rng.normal(size=(4, 6))
        mask = np.where(rng.uniform(size=(4, 7)) < 0.4, -np.inf, 0.0)
        mask[:, 0] = 0.0

        def loss():
            return ad.sum_all(ad.mul(ad.attention(q, k, v, 3, mask), ad.constant(g)))

        ad.backward(loss())
        for t in (q, k, v):
            fd = finite_diff(lambda: float(loss().value[0, 0]), t.value)
            assert rel_err(t.grad, fd) < 1e-6


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        store = ad.ParamStore()
        rng = np.random.default_rng(0)
        store.create("a.w", 3, 4, rng)
        store.create("b.bias", 1, 7, rng)
        path = tmp_path / "ckpt.psgw"
        store.save(path)

        store2 = ad.ParamStore()
        rng2 = np.random.default_rng(99)
        store2.create("a.w", 3, 4, rng2)
        store2.create("b.bias", 1, 7, rng2)
        store2.load(path)
        for name in store.names():
            np.testing.assert_array_equal(store[name].value, store2[name].value)

    def test_shape_mismatch_names_parameter(self, tmp_path):
        from sceneseg.errors import CheckpointError

        store = ad.ParamStore()
        store.create("a.w", 3, 4, np.random.default_rng(0))
        path = tmp_path / "ckpt.psgw"
        store.save(path)
        other = ad.ParamStore()
        other.create("a.w", 2, 4, np.random.default_rng(0))
        with pytest.raises(CheckpointError, match="a.w"):
            other.load(path)

    def test_magic_checked(self, tmp_path):
        from sceneseg.errors import ParseError

        path = tmp_path / "bad.psgw"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ParseError):
            ad.ParamStore.read_arrays(path)

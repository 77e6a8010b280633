import struct
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sceneseg import autodiff as ad
from sceneseg.errors import ContractError, ShapeError

from sceneseg import config, scenegen, training
from sceneseg.model import SegModel, seed_for

from helpers import (
    add_bias,
    attention,
    attention_with_temporaries,
    backward_keep_tape,
    clip,
    composed_add_layer_norm,
    composed_attention,
    composed_attention_block,
    composed_linear,
    composed_set_criterion,
    composed_weighted_bce,
    div,
    finite_diff,
    forward_tensors,
    layer_norm_with_temporaries,
    log,
    mean_all,
    mul,
    nodes_of,
    rel_err,
    relu,
    scatter_add_at,
    shared_grads,
    slice_cols,
    sub,
    sum_all,
    sum_rows,
    traced,
)


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
        out = ad.softmax_rows(ad.constant([[1.0, -np.inf, 2.0]])).value
        assert out[0, 1] == 0.0
        assert abs(out.sum() - 1) < 1e-12

    def test_all_masked_row_signaled(self):
        """A row with no finite logit, or with a +inf one, turns NaN and so
        reaches SegModel.forward's check of the outputs."""
        x = np.array([[-np.inf] * 3, [np.inf, 0.0, 1.0], [0.0, 1.0, 2.0]])
        with np.errstate(invalid="ignore"):
            out = ad.softmax_rows(ad.constant(x)).value
        assert np.isnan(out[:2]).all()
        np.testing.assert_array_equal(out[2], ad.softmax_rows(ad.constant(x[2:])).value[0])


class TestElementwise:
    def test_sigmoid_zero(self):
        assert ad.sigmoid(ad.constant([[0.0]])).value[0, 0] == 0.5

    def test_sigmoid_far_below_range_is_quiet(self):
        x = ad.Tensor(np.array([[-800.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ad.sigmoid(x)
            ad.backward(sum_all(out))
        assert out.value.tobytes() == np.zeros((1, 1)).tobytes()
        assert x.grad.tobytes() == np.zeros((1, 1)).tobytes()

    def test_relu(self):
        np.testing.assert_array_equal(relu(ad.constant([[-1.0, 2.0]])).value, [[0.0, 2.0]])

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
        mlp = ad.MLP(store, "m", [3, 3], rng)
        mlp.layers[0].w.value = np.eye(3)
        mlp.layers[0].b.value = np.zeros((1, 3))
        x = np.random.default_rng(1).normal(size=(4, 3))
        np.testing.assert_array_equal(mlp(ad.constant(x)).value, x)

    def test_zero_weights_broadcast_bias(self):
        store = ad.ParamStore()
        mlp = ad.MLP(store, "m", [3, 2], np.random.default_rng(0))
        mlp.layers[0].w.value = np.zeros((3, 2))
        mlp.layers[0].b.value = np.array([[1.5, -2.0]])
        out = mlp(ad.constant(np.random.default_rng(1).normal(size=(5, 3)))).value
        np.testing.assert_array_equal(out, np.tile([[1.5, -2.0]], (5, 1)))

    def test_matches_independent_forward(self):
        store = ad.ParamStore()
        mlp = ad.MLP(store, "m", [4, 6, 2], np.random.default_rng(42))
        assert [layer.relu for layer in mlp.layers] == [True, False]
        x = np.random.default_rng(5).normal(size=(7, 4))
        got = mlp(ad.constant(x)).value
        # independent plain-numpy forward pass
        h = np.maximum(x @ mlp.layers[0].w.value + mlp.layers[0].b.value, 0.0)
        want = h @ mlp.layers[1].w.value + mlp.layers[1].b.value
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_bad_widths(self):
        with pytest.raises(ContractError):
            ad.MLP(ad.ParamStore(), "m", [3], np.random.default_rng(0))


class TestBackward:
    def test_sum_of_squares(self):
        x = ad.Tensor([[1.0, 2.0]])
        loss = sum_all(mul(x, x))
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, [[2.0, 4.0]])

    def test_unreached_parameter_zero_grad(self):
        store = ad.ParamStore()
        used = store.create("used", 2, 2, np.random.default_rng(0))
        unused = store.create("unused", 2, 2, np.random.default_rng(1))
        ad.backward(sum_all(mul(used, used)))
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
            h = ad.layer_norm(relu(ad.matmul(ad.constant(x), w1)), gain, bias)
            out = ad.sigmoid(ad.matmul(ad.softmax_rows(h), w2))
            return sum_all(mul(out, out))

        l = loss()
        ad.backward(l)
        for t in (w1, w2, gain, bias):
            fd = finite_diff(lambda: float(loss().value[0, 0]), t.value)
            assert rel_err(t.grad, fd) < 1e-3, t.name

    @pytest.mark.parametrize(
        "op",
        [
            lambda x, y: ad.add(x, y),
            lambda x, y: sub(x, y),
            lambda x, y: mul(x, y),
            lambda x, y: div(x, ad.affine(ad.sigmoid(y), 1.0, 0.5)),
            lambda x, y: ad.matmul(x, ad.transpose(y)),
            lambda x, y: ad.concat_cols([x, y]),
            lambda x, y: add_bias(x, ad.gather_rows(y, [1])),
            lambda x, y: slice_cols(ad.add(x, y), 1, 3),
            lambda x, y: clip(ad.add(x, y), -0.5, 0.5),
            lambda x, y: log(ad.affine(ad.sigmoid(ad.add(x, y)), 1.0, 0.5)),
            lambda x, y: sum_rows(mul(x, y)),
            lambda x, y: mean_all(div(x, ad.affine(ad.sigmoid(y), 1.0, 0.5))),
        ],
    )
    def test_primitive_gradients(self, op):
        rng = np.random.default_rng(11)
        x = ad.Tensor(rng.normal(size=(3, 4)))
        y = ad.Tensor(rng.normal(size=(3, 4)))

        def loss():
            return sum_all(mul(op(x, y), op(x, y)))

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
            return sum_all(mul(a, a)) if False else ad.add(
                sum_all(mul(a, a)), sum_all(mul(b, b))
            )

        ad.backward(loss())
        fd = finite_diff(lambda: float(loss().value[0, 0]), x.value)
        assert rel_err(x.grad, fd) < 1e-3


def attention_case(attend, data, heads, mask):
    """Run `attend` between Linear projections, as the decoder does, and
    return the output, the weights it sent to ad.attention_trace and every
    gradient."""
    store = ad.ParamStore()
    z, f, g = (ad.Tensor(x.copy()) for x in data[:3])
    rng = np.random.default_rng(0)
    d = z.shape[1]
    proj = [ad.Linear(store, name, d, d, rng) for name in "qkv"]
    q, k, v = proj[0](z), proj[1](f), proj[2](f)
    with traced("attention_trace") as trace:
        out = attend(q, k, v, heads, mask)
    ad.backward(sum_all(mul(out, g)))
    grads = [t.grad for t in (q, k, v, z, f)] + [store.grad_of(n) for n in store.names()]
    return out.value, trace, grads


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
        out, cap, grads = attention_case(attention, data, heads, mask)
        want_out, want_cap, want_grads = attention_case(composed_attention, data, heads, mask)
        assert out.tobytes() == want_out.tobytes()
        # only a masked call records its weights: heads x rows x context
        assert len(cap) == len(want_cap) == (mask is not None)
        for a, b in zip(cap, want_cap):
            assert a.shape == b.shape == (heads,) + mask.shape
            assert a.tobytes() == b.tobytes()
        for a, b in zip(grads, want_grads):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert a.flags.c_contiguous == b.flags.c_contiguous

    def test_one_tape_node(self):
        rng = np.random.default_rng(0)
        q, k, v = (ad.Tensor(rng.normal(size=s)) for s in [(3, 8), (5, 8), (5, 8)])
        out = attention(q, k, v, 4)
        assert out.parents == nodes_of(q, k, v)

    def test_fully_masked_row_gives_nan(self):
        """Only that row turns NaN; SegModel.forward rejects the outputs it reaches."""
        rng = np.random.default_rng(1)
        q, k, v = (ad.constant(rng.normal(size=s)) for s in [(3, 4), (5, 4), (5, 4)])
        mask = np.zeros((3, 5))
        mask[1] = -np.inf
        with np.errstate(invalid="ignore"):
            out = attention(q, k, v, 2, mask).value
        assert np.isnan(out[1]).all()
        np.testing.assert_array_equal(out[[0, 2]], attention(q, k, v, 2).value[[0, 2]])

    def test_zero_context_rows_give_zero_constant(self):
        q = ad.Tensor(np.ones((3, 4)))
        empty = ad.Tensor(np.zeros((0, 4)))
        with traced("attention_trace") as cap:
            out = attention(q, empty, empty, 2, np.zeros((3, 0)))
        np.testing.assert_array_equal(out.value, np.zeros((3, 4)))
        assert out.parents == () and cap == []

    def test_shape_errors(self):
        x = ad.constant(np.ones((3, 6)))
        with pytest.raises(ShapeError):
            attention(x, x, x, 4)  # 6 columns do not split into 4 heads
        with pytest.raises(ShapeError):
            attention(x, ad.constant(np.ones((3, 4))), x, 2)
        with pytest.raises(ShapeError):
            attention(x, x, x, 2, np.zeros((3, 2)))

    def test_finite_differences(self):
        rng = np.random.default_rng(7)
        q, k, v = (ad.Tensor(rng.normal(size=s)) for s in [(4, 6), (7, 6), (7, 6)])
        g = rng.normal(size=(4, 6))
        mask = np.where(rng.uniform(size=(4, 7)) < 0.4, -np.inf, 0.0)
        mask[:, 0] = 0.0

        def loss():
            return sum_all(mul(attention(q, k, v, 3, mask), ad.constant(g)))

        ad.backward(loss())
        for t in (q, k, v):
            fd = finite_diff(lambda: float(loss().value[0, 0]), t.value)
            assert rel_err(t.grad, fd) < 1e-6


@st.composite
def attention_layouts(draw):
    """q, k, v in C or F order; a mask that leaves some rows fully unmasked,
    masks others down to a few entries, or is absent; a consumer."""
    heads = draw(st.integers(1, 4))
    d = heads * draw(st.integers(1, 4))
    rows, n = draw(st.integers(1, 6)), draw(st.integers(1, 10))
    values, rng = draw_values(draw, [(rows, d), (n, d), (n, d)])
    mask = None
    if draw(st.booleans()):
        mask = np.where(rng.uniform(size=(rows, n)) < draw(st.floats(0.0, 1.0)), -np.inf, 0.0)
        mask[np.arange(rows), rng.integers(0, n, size=rows)] = 0.0
        mask[rng.uniform(size=rows) < 0.3] = 0.0
    return values, heads, mask, draw(st.sampled_from(sorted(CONSUMERS))), rng.normal(size=(rows, d))


@st.composite
def layer_norm_inputs(draw):
    """x, gain and bias in C or F order, with constant rows and rows at
    scales from 1e-3 to 1e3, and a consumer."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    (x, gain, bias), rng = draw_values(draw, [(rows, cols), (1, cols), (1, cols)])
    x *= 10.0 ** rng.integers(-3, 4, size=(rows, 1))
    x[rng.uniform(size=rows) < 0.2] = rng.normal()
    return (x, gain, bias), draw(st.sampled_from(sorted(CONSUMERS))), rng.normal(size=(rows, cols))


class TestInPlaceOps:
    """attention and layer_norm compute in arrays they allocate themselves;
    their values, recorded weights and gradients keep the bytes and the C/F
    order of the same op computed with a fresh array for every step."""

    @settings(max_examples=200, deadline=None)
    @given(attention_layouts())
    def test_attention_same_bytes_as_fresh_arrays(self, case):
        values, heads, mask, consumer, g = case
        results = []
        for op in (attention, attention_with_temporaries):
            with traced("attention_trace") as weights:
                got = fused_case(
                    lambda q, k, v: op(q, k, v, heads, mask),
                    values,
                    lambda out: CONSUMERS[consumer](out, g),
                )
            results.append((got, weights))
        (got, weights), (want, want_weights) = results
        assert_same_bytes_and_order(got, want)
        assert len(weights) == len(want_weights) == (mask is not None)
        for a, b in zip(weights, want_weights):
            assert a.shape == b.shape == (heads,) + mask.shape
            assert a.tobytes() == b.tobytes() and a.flags.c_contiguous

    @settings(max_examples=200, deadline=None)
    @given(layer_norm_inputs())
    def test_layer_norm_same_bytes_as_fresh_arrays(self, case):
        values, consumer, g = case
        loss_of = lambda out: CONSUMERS[consumer](out, g)
        got = fused_case(ad.layer_norm, values, loss_of)
        want = fused_case(layer_norm_with_temporaries, values, loss_of)
        assert_same_bytes_and_order(got, want)

    def test_layer_norm_finite_differences(self):
        rng = np.random.default_rng(5)
        x, gain, bias = (ad.Tensor(rng.normal(size=s)) for s in [(4, 6), (1, 6), (1, 6)])
        g = ad.constant(rng.normal(size=(4, 6)))

        def loss():
            return sum_all(mul(ad.layer_norm(x, gain, bias), g))

        ad.backward(loss())
        for t in (x, gain, bias):
            fd = finite_diff(lambda: float(loss().value[0, 0]), t.value)
            assert rel_err(t.grad, fd) < 1e-6


# How a fused op's output reaches the loss decides the layout of the gradient
# its push receives: C from `mul`, F through `transpose`, and a C copy of a
# column slice, accumulated twice, through `concat_cols`.
CONSUMERS = {
    "mul": lambda out, g: sum_all(mul(out, ad.constant(g))),
    "transpose": lambda out, g: sum_all(mul(ad.transpose(out), ad.constant(g.T.copy()))),
    "concat": lambda out, g: sum_all(
        mul(ad.concat_cols([out, out]), ad.constant(np.concatenate([g, -0.5 * g], axis=1)))
    ),
}


def fused_case(op, values, loss_of, shared=()):
    """Run op on fresh leaves holding `values` (layout kept), back-propagate
    loss_of(out), and return the output, the structure the op recorded and
    the gradients of the output and of every leaf. `shared` lists (i, j)
    pairs where argument j is the same tensor as argument i."""
    leaves = [ad.Tensor(v.copy(order="K")) for v in values]
    for i, j in shared:
        leaves[j] = leaves[i]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "structure_trace", [])
        out = op(*leaves)
        structure = ad.structure_trace
    ad.backward(loss_of(out))
    return out.value, structure, [out.grad] + [t.grad for t in leaves]


def assert_same_bytes_and_order(got, want):
    out, structure, grads = got
    want_out, want_structure, want_grads = want
    assert out.tobytes() == want_out.tobytes()
    assert (out.flags.c_contiguous, out.flags.f_contiguous) == (
        want_out.flags.c_contiguous,
        want_out.flags.f_contiguous,
    )
    assert structure == want_structure
    for a, b in zip(grads, want_grads):
        assert a.shape == b.shape and a.tobytes(order="A") == b.tobytes(order="A")
        assert (a.flags.c_contiguous, a.flags.f_contiguous) == (
            b.flags.c_contiguous,
            b.flags.f_contiguous,
        )


def assert_same_grads(got, want):
    """assert_same_bytes_and_order where some gradients may be None: the same
    ones on both sides."""
    grads, want_grads = got[2], want[2]
    assert [a is None for a in grads] == [b is None for b in want_grads]
    kept = lambda gs: [a for a in gs if a is not None]
    assert_same_bytes_and_order([*got[:2], kept(grads)], [*want[:2], kept(want_grads)])


def draw_values(draw, shapes):
    """Normal values in the shapes given, all C- or all F-ordered."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = draw(st.sampled_from("CF"))
    return [np.asarray(rng.normal(size=s), order=order) for s in shapes], rng


class TestLinear:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_same_bytes_as_matmul_add_bias(self, data):
        rows = data.draw(st.integers(0, 30))
        cin, cout = data.draw(st.integers(1, 70)), data.draw(st.integers(1, 70))
        values, rng = draw_values(data.draw, [(rows, cin), (cin, cout), (1, cout)])
        consumer = CONSUMERS[data.draw(st.sampled_from(sorted(CONSUMERS)))]
        g = rng.normal(size=(rows, cout))
        got = fused_case(ad.linear, values, lambda out: consumer(out, g))
        want = fused_case(composed_linear, values, lambda out: consumer(out, g))
        assert_same_bytes_and_order(got, want)

    def test_one_tape_node(self):
        x, w, b = (ad.Tensor(np.ones(s)) for s in [(3, 2), (2, 4), (1, 4)])
        assert ad.linear(x, w, b).parents == nodes_of(x, w, b)

    def test_shape_errors(self):
        x = ad.constant(np.ones((3, 2)))
        with pytest.raises(ShapeError):
            ad.linear(x, ad.constant(np.ones((3, 4))), ad.constant(np.ones((1, 4))))
        with pytest.raises(ShapeError):
            ad.linear(x, ad.constant(np.ones((2, 4))), ad.constant(np.ones((2, 4))))

    def test_finite_differences(self):
        rng = np.random.default_rng(17)
        x, w, b = (ad.Tensor(rng.normal(size=s)) for s in [(5, 3), (3, 4), (1, 4)])
        g = ad.constant(rng.normal(size=(5, 4)))

        def loss():
            y = ad.linear(x, w, b)
            return sum_all(mul(mul(y, y), g))

        ad.backward(loss())
        for t in (x, w, b):
            fd = finite_diff(lambda: float(loss().value[0, 0]), t.value)
            assert rel_err(t.grad, fd) < 1e-6


@st.composite
def linear_relu_inputs(draw):
    """x, w, b whose pre-activations hold exact zeros, -0.0 and ties, and the
    gradient and consumer of the output."""
    rows = draw(st.integers(0, 20))
    cin, cout = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    values, rng = draw_values(draw, [(rows, cin), (cin, cout), (1, cout)])
    x, w, b = values
    kind = draw(st.sampled_from(["normal", "integers", "underflow"]))
    if kind == "integers":  # sums are exact, so ties and zeros abound
        for v in values:
            v[...] = rng.integers(-2, 3, size=v.shape)
    elif kind == "underflow":  # x @ w rounds to ±0.0, so y = -0.0 where b is
        for v in (x, w):
            v[...] = rng.choice([-1e-300, 1e-300], size=v.shape)
        b[...] = rng.choice([-0.0, 0.0, -1.0, 1.0], size=b.shape)
    for v in values:
        hits = rng.uniform(size=v.shape) < 0.2
        v[hits] = rng.choice([0.0, -0.0], size=hits.sum())
    w[:, rng.uniform(size=cout) < 0.2] = draw(st.sampled_from([0.0, -0.0]))  # y = ±0 + b
    if rows > 1:
        x[rng.integers(1, rows)] = x[0]  # two rows with equal pre-activations
    if cout > 1:
        w[:, -1], b[0, -1] = w[:, 0], b[0, 0]  # and two equal columns
    g = rng.normal(size=(rows, cout))
    consumer = CONSUMERS[draw(st.sampled_from(sorted(CONSUMERS)))]
    return values, lambda out: consumer(out, g)


class TestLinearReLU:
    @settings(max_examples=200, deadline=None)
    @given(linear_relu_inputs())
    def test_same_bytes_as_linear_then_relu(self, case):
        """Value, recorded y > 0 pattern, and the bytes and memory order of
        every gradient, against a linear node followed by a relu node."""
        values, loss_of = case
        got = fused_case(lambda x, w, b: ad.linear(x, w, b, relu=True), values, loss_of)
        want = fused_case(lambda x, w, b: relu(ad.linear(x, w, b)), values, loss_of)
        assert len(got[1]) == 1
        assert_same_bytes_and_order(got, want)

    def test_one_tape_node(self):
        x, w, b = (ad.Tensor(np.ones(s)) for s in [(3, 2), (2, 4), (1, 4)])
        assert ad.linear(x, w, b, relu=True).parents == nodes_of(x, w, b)

    def test_finite_differences(self):
        rng = np.random.default_rng(19)
        x, w, b = (ad.Tensor(rng.normal(size=s)) for s in [(6, 3), (3, 5), (1, 5)])
        g = ad.constant(rng.normal(size=(6, 5)))
        pre = x.value @ w.value + b.value
        # both sides of the kink, and every entry clear of it for the probe
        assert (pre > 0).any() and (pre < 0).any() and np.abs(pre).min() > 1e-2

        def loss():
            return sum_all(mul(ad.linear(x, w, b, relu=True), g))

        ad.backward(loss())
        for t in (x, w, b):
            fd = finite_diff(lambda: float(loss().value[0, 0]), t.value)
            assert rel_err(t.grad, fd) < 1e-6


BCE_CLAMP = (ad.PROB_CLAMP, 1.0 - ad.PROB_CLAMP)


@st.composite
def bce_inputs(draw):
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 40))
    (p,), rng = draw_values(draw, [(rows, cols)])
    lo, hi = draw(st.sampled_from([BCE_CLAMP, (0.1, 0.9), (0.25, 0.5)]))
    # probabilities in and out of the clamp, some exactly on its bounds
    p[...] = rng.uniform(-0.2, 1.2, size=p.shape)
    hits = rng.uniform(size=p.shape) < 0.2
    p[hits] = rng.choice([0.0, 1.0, lo, hi], size=hits.sum())

    def weights():
        shape = draw(st.sampled_from([(rows, cols), (1, cols), (rows, 1), ()]))
        w = rng.uniform(0.0, 2.0, size=shape)
        return np.where(rng.uniform(size=shape) < 0.2, 0.0, w)  # zeros give -0.0 terms

    return p, weights(), weights(), lo, hi, rng.normal()


class TestWeightedBCE:
    @settings(max_examples=150, deadline=None)
    @given(bce_inputs())
    def test_same_bytes_as_composed_chain(self, case):
        p, pos_w, neg_w, lo, hi, scale = case

        def case_of(op):
            return fused_case(
                lambda t: op(t, pos_w, neg_w, lo, hi), [p], lambda out: ad.affine(out, scale)
            )

        assert_same_bytes_and_order(case_of(ad.weighted_bce), case_of(composed_weighted_bce))

    def test_one_tape_node(self):
        p = ad.Tensor(np.full((2, 3), 0.5))
        out = ad.weighted_bce(p, 1.0, 1.0, *BCE_CLAMP)
        assert out.parents == nodes_of(p) and out.shape == (1, 1)

    def test_hand_case(self):
        p = ad.constant([[0.25, 0.5]])
        out = ad.weighted_bce(p, [[2.0, 0.0]], [[0.0, 1.0]], *BCE_CLAMP)
        np.testing.assert_allclose(out.value, [[2.0 * np.log(0.25) + np.log(0.5)]], rtol=1e-15)

    def test_finite_differences(self):
        rng = np.random.default_rng(23)
        p = ad.Tensor(rng.uniform(0.05, 0.95, size=(4, 7)))
        pos_w, neg_w = rng.uniform(0.0, 2.0, size=(4, 7)), rng.uniform(0.0, 2.0, size=(1, 7))

        def loss():
            return ad.weighted_bce(p, pos_w, neg_w, *BCE_CLAMP)

        ad.backward(loss())
        fd = finite_diff(lambda: float(loss().value[0, 0]), p.value, h=1e-6)
        assert rel_err(p.grad, fd) < 1e-6

    def test_clamped_entries_get_no_gradient(self):
        p = ad.Tensor([[0.0, 0.5, 1.0]])
        ad.backward(ad.weighted_bce(p, 2.0, 1.0, *BCE_CLAMP))
        assert p.grad[0, 0] == 0.0 and p.grad[0, 2] == 0.0 and p.grad[0, 1] != 0.0



# at and beside the clamps of the class (1e-12, 1) and mask (1e-7, 1 - 1e-7) terms
CLAMP_EDGES = np.unique(
    np.clip([np.nextafter(e, t) for e in (0.0, 1e-12, 1e-7, 1.0 - 1e-7, 1.0)
             for t in (-np.inf, e, np.inf)], 0.0, 1.0)
)


@st.composite
def criterion_inputs(draw):
    """(class probabilities, IoU scores and masks, C- or F-ordered, with some
    entries on CLAMP_EDGES; then the constants: matched rows, one-hot
    targets, IoU targets, matched gt rows, sizes, weights, eps, and the
    scale of the loss)."""
    k, k_gt, m = draw(st.integers(1, 12)), draw(st.integers(0, 12)), draw(st.integers(1, 30))
    n_class = draw(st.integers(1, 4))
    values, rng = draw_values(draw, [(k, n_class + 1), (k, 1), (k, m)])
    probs, score, mask = values
    probs[...] = rng.dirichlet(np.ones(n_class + 1), size=k)
    score[...] = rng.uniform(size=(k, 1))
    mask[...] = rng.uniform(size=(k, m))
    for a in values:
        hits = rng.uniform(size=a.shape) < draw(st.sampled_from([0.0, 0.2, 0.7]))
        a[hits] = rng.choice(CLAMP_EDGES, size=hits.sum())
    n = draw(st.integers(0, min(k, k_gt)))
    rows = np.sort(rng.choice(k, n, replace=False)).astype(np.int64)
    targets = np.full(k, n_class)
    targets[rows] = rng.integers(0, n_class, size=n)
    if draw(st.booleans()):  # every class right: cls is exactly 0
        probs[...] = np.eye(n_class + 1)[targets]
    gt = (rng.uniform(size=(n, m)) < draw(st.sampled_from([0.0, 0.4, 1.0]))).astype(np.float64)
    iou = np.where(rng.uniform(size=n) < 0.3, rng.integers(0, 2, size=n), rng.uniform(size=n))
    sizes = rng.integers(1, 50, size=m).astype(np.float64)
    weights = tuple(draw(st.sampled_from([0.0, 0.3, 0.5, 1.0, 2.5])) for _ in range(4))
    constants = (rows, np.eye(n_class + 1)[targets], iou, gt, sizes, weights)
    return values, constants, draw(st.sampled_from([1.0, 0.5, 1e-3])), rng.normal()


def criterion_case(op, case):
    """fused_case for a set criterion, with its four components."""
    values, constants, eps, scale = case
    parts = []

    def run(probs, score, mask):
        total, components = op(probs, score, mask, *constants, eps)
        parts.append(components)
        return total

    out, structure, grads = fused_case(run, values, lambda out: ad.affine(out, scale))
    return out, structure, grads, parts[0]


class TestSetCriterion:
    @settings(max_examples=300, deadline=None)
    @given(criterion_inputs())
    def test_same_bytes_as_composed_chain(self, case):
        """Total, components, clamp patterns and the bytes and memory order of
        every gradient, against the chain of small ops it replaced."""
        *got, parts = criterion_case(ad.set_criterion, case)
        *want, want_parts = criterion_case(composed_set_criterion, case)
        assert [np.float64(v).tobytes() for v in parts] == [
            np.float64(v).tobytes() for v in want_parts
        ]
        assert_same_grads(got, want)  # score and mask: None with no matched row

    def test_one_tape_node(self):
        probs, score = ad.Tensor(np.full((2, 3), 1 / 3)), ad.Tensor(np.full((2, 1), 0.5))
        mask = ad.Tensor(np.full((2, 4), 0.5))
        onehot, sizes, w = np.eye(3)[[0, 2]], np.ones(4), (1.0, 1.0, 1.0, 1.0)
        gt = np.array([[1.0, 0.0, 1.0, 0.0]])
        one = (np.array([0]), onehot, np.array([0.5]), gt, sizes, w, 1.0)
        out, parts = ad.set_criterion(probs, score, mask, *one)
        assert out.parents == nodes_of(probs, score, mask) and out.shape == (1, 1) and len(parts) == 4
        out, parts = ad.set_criterion(
            probs, score, mask, np.zeros(0, np.int64), onehot, np.zeros(0), gt[:0], sizes, w, 1.0
        )
        assert out.parents == nodes_of(probs) and parts[1:] == (0.0, 0.0, 0.0)

    def test_finite_differences(self):
        rng = np.random.default_rng(37)
        probs = ad.Tensor(rng.dirichlet(np.ones(4), size=5))
        score = ad.Tensor(rng.uniform(size=(5, 1)))
        mask = ad.Tensor(rng.uniform(0.05, 0.95, size=(5, 9)))
        rows = np.array([0, 2, 3])
        onehot = np.eye(4)[[1, 3, 0, 2, 3]]
        gt = (rng.uniform(size=(3, 9)) < 0.5).astype(np.float64)
        sizes = rng.integers(1, 20, size=9).astype(np.float64)
        constants = (rows, onehot, rng.uniform(size=3), gt, sizes, (0.5, 0.7, 1.3, 2.0), 1.0)

        def loss():
            return ad.set_criterion(probs, score, mask, *constants)[0]

        ad.backward(loss())
        for t in (probs, score, mask):
            fd = finite_diff(lambda: float(loss().value[0, 0]), t.value, h=1e-6)
            assert rel_err(t.grad, fd) < 1e-6


@st.composite
def attention_block_inputs(draw):
    """z, f and the q, k, v and out weight/bias pairs, all C- or F-ordered,
    for one of four kinds of block: masked (some rows fully open, as the
    decoder's fallback rows are), unmasked, self-attention (f is z) and
    zero context rows (with or without a K x 0 mask); a consumer."""
    heads = draw(st.integers(1, 4))
    d = heads * draw(st.integers(1, 4))
    rows = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["masked", "unmasked", "self", "empty"]))
    n = {"self": rows, "empty": 0}.get(kind, draw(st.integers(1, 10)))
    values, rng = draw_values(draw, [(rows, d), (n, d)] + [(d, d), (1, d)] * 4)
    mask = None
    if kind == "masked":
        mask = np.where(rng.uniform(size=(rows, n)) < draw(st.floats(0.0, 1.0)), -np.inf, 0.0)
        mask[np.arange(rows), rng.integers(0, n, size=rows)] = 0.0
        mask[rng.uniform(size=rows) < 0.3] = 0.0
    elif kind == "empty" and draw(st.booleans()):
        mask = np.zeros((rows, 0))
    consumer = draw(st.sampled_from(sorted(CONSUMERS)))
    return values, heads, mask, kind, consumer, rng.normal(size=(rows, d))


def block_case(op, case):
    """fused_case for an attention block (q, k, v and out pairs from the
    leaves after z and f), with the weights it sent to ad.attention_trace."""
    values, heads, mask, kind, consumer, g = case

    def run(z, f, *params):
        pairs = [params[i : i + 2] for i in range(0, 8, 2)]
        return op(z, f, *pairs, heads, mask)

    with traced("attention_trace") as weights:
        got = fused_case(
            run, values, lambda out: CONSUMERS[consumer](out, g), [(0, 1)] if kind == "self" else ()
        )
    return got, [w.tobytes() for w in weights]


def block_params(rng, d):
    return [(ad.Tensor(rng.normal(size=(d, d))), ad.Tensor(rng.normal(size=(1, d)))) for _ in range(4)]


class TestAttentionBlock:
    @settings(max_examples=300, deadline=None)
    @given(attention_block_inputs())
    def test_same_bytes_as_composed_chain(self, case):
        """Output, recorded weights and the bytes and memory order of every
        gradient, against linear x 3 -> attention -> linear."""
        (got, weights), (want, want_weights) = (
            block_case(op, case) for op in (ad.attention_block, composed_attention_block)
        )
        assert_same_grads(got, want)
        assert weights == want_weights and len(weights) == (case[2] is not None and case[3] != "empty")
        if case[3] == "empty":  # the out bias alone; only the out pair learns
            assert [a is None for a in got[2][1:]] == [True] * 8 + [False] * 2

    def test_one_tape_node(self):
        rng = np.random.default_rng(0)
        z, f = ad.Tensor(rng.normal(size=(3, 8))), ad.Tensor(rng.normal(size=(5, 8)))
        pairs = block_params(rng, 8)
        (wq, bq), (wk, bk), (wv, bv), (wo, bo) = pairs
        out = ad.attention_block(z, f, *pairs, 4)
        assert out.parents == nodes_of(z, wq, bq, wk, bk, f, wv, bv, wo, bo)
        empty = ad.Tensor(np.zeros((0, 8)))
        out = ad.attention_block(z, empty, *pairs, 4)
        assert out.parents == nodes_of(wo, bo)
        assert out.value.tobytes() == np.tile(bo.value, (3, 1)).tobytes()

    def test_shape_errors(self):
        rng = np.random.default_rng(1)
        x = ad.constant(np.ones((3, 6)))
        pairs = block_params(rng, 6)
        with pytest.raises(ShapeError):
            ad.attention_block(x, x, *pairs, 4)  # 6 columns do not split into 4 heads
        with pytest.raises(ShapeError):
            ad.attention_block(x, ad.constant(np.ones((3, 4))), *pairs, 2)
        with pytest.raises(ShapeError):
            ad.attention_block(x, x, *pairs[:3], block_params(rng, 4)[0], 2)
        with pytest.raises(ShapeError):
            ad.attention_block(x, x, *pairs, 2, np.zeros((3, 2)))

    @pytest.mark.parametrize("kind", ["masked", "self"])
    def test_finite_differences(self, kind):
        rng = np.random.default_rng(11)
        z = ad.Tensor(rng.normal(size=(4, 6)))
        f = z if kind == "self" else ad.Tensor(rng.normal(size=(7, 6)))
        pairs = block_params(rng, 6)
        g = ad.constant(rng.normal(size=(4, 6)))
        mask = None
        if kind == "masked":
            mask = np.where(rng.uniform(size=(4, 7)) < 0.4, -np.inf, 0.0)
            mask[:, 0] = 0.0
            mask[1] = 0.0

        def loss():
            return sum_all(mul(ad.attention_block(z, f, *pairs, 3, mask), g))

        ad.backward(loss())
        for t in [z, f] + [t for pair in pairs for t in pair]:
            fd = finite_diff(lambda: float(loss().value[0, 0]), t.value)
            # bk's gradient is 0: it shifts every logit of a row alike
            assert np.abs(t.grad - fd).max() < 1e-6 * max(np.abs(fd).max(), 1.0)


@st.composite
def add_layer_norm_inputs(draw):
    """x, y, gain and bias in C or F order, with constant sums and rows at
    scales from 1e-3 to 1e3; whether y is x; a consumer."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    values, rng = draw_values(draw, [(rows, cols), (rows, cols), (1, cols), (1, cols)])
    x, y = values[:2]
    scale = 10.0 ** rng.integers(-3, 4, size=(rows, 1))
    x *= scale
    y *= scale
    flat = rng.uniform(size=rows) < 0.2
    x[flat], y[flat] = rng.normal(), rng.normal()
    consumer = draw(st.sampled_from(sorted(CONSUMERS)))
    return values, draw(st.booleans()), consumer, rng.normal(size=(rows, cols))


class TestAddLayerNorm:
    @settings(max_examples=300, deadline=None)
    @given(add_layer_norm_inputs())
    def test_same_bytes_as_composed_chain(self, case):
        """Output and the bytes and memory order of every gradient against
        add -> layer_norm; x's gradient is a copy, never y's array."""
        values, same, consumer, g = case
        got, want = (
            fused_case(op, values, lambda out: CONSUMERS[consumer](out, g), [(0, 1)] if same else ())
            for op in (ad.add_layer_norm, composed_add_layer_norm)
        )
        assert_same_bytes_and_order(got, want)
        out_grad, x_grad, y_grad = got[2][:3]
        assert not np.shares_memory(out_grad, x_grad) and not np.shares_memory(out_grad, y_grad)
        assert same or not np.shares_memory(x_grad, y_grad)

    def test_one_tape_node(self):
        x, y, gain, bias = (ad.Tensor(np.ones(s)) for s in [(3, 4), (3, 4), (1, 4), (1, 4)])
        assert ad.add_layer_norm(x, y, gain, bias).parents == nodes_of(x, y, gain, bias)
        with pytest.raises(ShapeError):
            ad.add_layer_norm(x, ad.constant(np.ones((3, 2))), gain, bias)
        with pytest.raises(ShapeError):
            ad.add_layer_norm(x, y, ad.constant(np.ones((1, 3))), bias)

    def test_finite_differences(self):
        rng = np.random.default_rng(13)
        x, y, gain, bias = (ad.Tensor(rng.normal(size=s)) for s in [(4, 6), (4, 6), (1, 6), (1, 6)])
        g = ad.constant(rng.normal(size=(4, 6)))

        def loss():
            return sum_all(mul(ad.add_layer_norm(x, y, gain, bias), g))

        ad.backward(loss())
        for t in (x, y, gain, bias):
            fd = finite_diff(lambda: float(loss().value[0, 0]), t.value)
            assert rel_err(t.grad, fd) < 1e-6


def default_step():
    """The loss report of one training step on the seed-1 default scene 0."""
    cfg = config.RunConfig()
    m = SegModel(config.model_config(cfg))
    prep = m.prepare(scenegen.generate_scene(seed_for(1, "scene0"), scenegen.SceneSpec()))
    return training.scene_loss(m, prep, config.train_config(cfg))


@pytest.fixture(scope="module")
def default_step_nodes():
    """Every tape node of one default training step, held through its
    backward pass."""
    report = default_step()
    nodes = ad._toposort(report.total_tensor)
    ad.backward(report.total_tensor)
    return nodes


def default_step_grads():
    """The bytes of every parameter gradient of one default training step."""
    m = SegModel(config.model_config(config.RunConfig()))
    prep = m.prepare(scenegen.generate_scene(seed_for(1, "scene0"), scenegen.SceneSpec()))
    ad.backward(training.scene_loss(m, prep, config.train_config(config.RunConfig())).total_tensor)
    return {n: m.store.grad_of(n).tobytes(order="A") for n in m.store.names()}


def test_default_step_same_gradients_as_composed_chains(monkeypatch):
    """At the default config (six layers, keypoint branch on) the walk over
    the fused blocks and residual norms sums every gradient in the chains'
    order: f_g's pushes, for one, last layer first."""
    fused = default_step_grads()
    monkeypatch.setattr(ad, "attention_block", composed_attention_block)
    monkeypatch.setattr(ad, "add_layer_norm", composed_add_layer_norm)
    assert default_step_grads() == fused


class TestGradientOwnership:
    """A push may keep a gradient it allocated, but never one another node
    holds: no two nodes' .grad may share memory after a backward pass."""

    def test_default_training_step(self, default_step_nodes):
        assert all(n.grad is not None for n in default_step_nodes)
        assert shared_grads(default_step_nodes) == []

    def test_default_step_tape_nodes(self, default_step_nodes):
        assert len(default_step_nodes) <= 446
        nodes = ad._toposort(default_step().total_tensor)
        assert "relu" not in [n._push.__qualname__.split(".")[0] for n in nodes if n._push]

    def test_default_step_has_one_criterion_node_per_supervised_layer(self):
        nodes = ad._toposort(default_step().total_tensor)
        kinds = [n._push.__qualname__.split(".")[0] for n in nodes if n._push is not None]
        assert kinds.count("set_criterion") == 7 and kinds.count("weighted_bce") == 1

    def test_add_of_one_tensor(self):
        x = ad.Tensor(np.arange(6.0).reshape(2, 3))
        c = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
        s = ad.add(x, x)
        loss = sum_all(mul(s, ad.constant(c)))
        nodes = ad._toposort(loss)
        ad.backward(loss)
        assert x.grad.tobytes() == (c + c).tobytes()
        assert shared_grads(nodes) == []

    def test_matmul_of_one_tensor(self):
        rng = np.random.default_rng(29)
        a = ad.Tensor(rng.normal(size=(4, 4)))
        c = rng.normal(size=(4, 4))
        loss = sum_all(mul(ad.matmul(a, a), ad.constant(c)))
        nodes = ad._toposort(loss)
        ad.backward(loss)
        np.testing.assert_allclose(a.grad, c @ a.value.T + a.value.T @ c, rtol=1e-12)
        assert shared_grads(nodes) == []

    def test_concat_cols(self):
        rng = np.random.default_rng(31)
        x, y = ad.Tensor(rng.normal(size=(3, 2))), ad.Tensor(rng.normal(size=(3, 4)))
        c = rng.normal(size=(3, 8))
        loss = sum_all(mul(ad.concat_cols([x, y, x]), ad.constant(c)))
        nodes = ad._toposort(loss)
        ad.backward(loss)
        assert x.grad.tobytes() == (c[:, :2] + c[:, 6:]).tobytes()
        assert y.grad.tobytes() == np.ascontiguousarray(c[:, 2:6]).tobytes()
        assert shared_grads(nodes) == []


# Small graphs with shared subexpressions. Every tensor is n x n: the unary
# and binary ops take any earlier tensors, so a tensor may feed one op twice
# (add(x, x)) or feed many ops; "concat" is matmul(concat_cols([x, y, x]), w).
GRAPH_OPS = {
    "add": lambda x, y, w: ad.add(x, y),
    "sub": lambda x, y, w: sub(x, y),
    "mul": lambda x, y, w: mul(x, y),
    "matmul": lambda x, y, w: ad.matmul(x, y),
    "transpose": lambda x, y, w: ad.transpose(x),
    "sigmoid": lambda x, y, w: ad.sigmoid(x),
    "affine": lambda x, y, w: ad.affine(x, 0.5, -0.25),
    "concat": lambda x, y, w: ad.matmul(ad.concat_cols([x, y, x]), w),
}


@st.composite
def shared_graphs(draw):
    """(leaf values, the last the w of "concat"; loss weights; program;
    held): program steps are (op, i, j) over the tensors so far, the three
    n x n leaves first, and held marks the interior tensors the test keeps."""
    n = draw(st.integers(1, 5))
    leaves, rng = draw_values(draw, [(n, n)] * 3 + [(3 * n, n)])
    # add(x, x) is tensor 3; its consumers are concat, mul and the loss
    program = [("add", 0, 0), ("concat", 3, 1), ("mul", 3, 4)]
    for _ in range(draw(st.integers(0, 8))):
        size = 3 + len(program)
        op = draw(st.sampled_from(sorted(GRAPH_OPS)))
        program.append((op, draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))))
    held = draw(st.lists(st.booleans(), min_size=len(program), max_size=len(program)))
    return leaves, rng.normal(size=(n, n)), program, held


def run_shared_graph(case, walk):
    """Build the graph on fresh leaves, walk it back with `walk`, and return
    the gradients of the leaves and of the held interior tensors."""
    values, g, program, held = case
    *leaves, w = [ad.Tensor(v.copy(order="K")) for v in values]
    tensors = list(leaves)
    for op, i, j in program:
        tensors.append(GRAPH_OPS[op](tensors[i], tensors[j], w))
    loss = sum_all(mul(tensors[-1], ad.constant(g)))
    for t in tensors[3:-1]:
        loss = ad.add(loss, sum_all(t))
    kept = [t for t, keep in zip(tensors[3:], held) if keep]
    del tensors
    walk(loss)
    return [t.grad for t in leaves + [w] + kept]


class TestTapeLifetime:
    """backward frees each node once its consumers have pushed, keeps the
    bytes of the walk that keeps the tape, and refuses a consumed graph."""

    @settings(max_examples=150, deadline=None)
    @given(shared_graphs())
    def test_same_gradients_as_keeping_the_tape(self, case):
        got = run_shared_graph(case, ad.backward)
        want = run_shared_graph(case, backward_keep_tape)
        for a, b in zip(got, want):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.tobytes(order="A") == b.tobytes(order="A")
                assert (a.flags.c_contiguous, a.flags.f_contiguous) == (
                    b.flags.c_contiguous,
                    b.flags.f_contiguous,
                )

    def test_default_step_leaves_only_the_root(self):
        report = default_step()
        ad.backward(report.total_tensor)
        assert ad._toposort(report.total_tensor) == [report.total_tensor.node]

    def test_backward_peak_is_the_forward_tape(self):
        tracemalloc.start()
        try:
            root = default_step().total_tensor
            tracemalloc.reset_peak()
            start, _ = tracemalloc.get_traced_memory()
            ad.backward(root)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * start

    def test_second_backward_raises(self):
        x = ad.Tensor([[0.5, -1.0]])
        loss = sum_all(ad.sigmoid(x))
        ad.backward(loss)
        with pytest.raises(ContractError, match="after its backward pass"):
            ad.backward(loss)

    def test_backward_through_consumed_tensor_raises(self):
        x = ad.Tensor([[0.5, -1.0]])
        h = ad.sigmoid(x)
        ad.backward(sum_all(h))
        with pytest.raises(ContractError, match="after its backward pass"):
            ad.backward(sum_all(mul(h, h)))

    def test_leaves_are_not_released(self):
        x = ad.Tensor([[0.5, -1.0]])
        ad.backward(sum_all(ad.sigmoid(x)))
        first = x.grad.copy()
        ad.backward(sum_all(ad.sigmoid(x)))
        assert x.grad.tobytes() == first.tobytes()

    def test_taped_loss_frees_what_no_push_reads(self, monkeypatch):
        """The tape holds parent nodes and the arrays pushes read, never a
        parent tensor: while the loss holds the tape, the backbone's point
        embedding, per-point gather, head output and layer-norm output and
        every head's mask logits are freed, while the backbone's output,
        which the foreground linear reads, is alive."""
        n_points = scenegen.SceneSpec().n_points
        refs = {}

        def spy(name, arrays):
            inner = getattr(ad, name)

            def wrapped(*args):
                out = inner(*args)
                for label, a in arrays(args, out):
                    refs.setdefault(label, []).append(weakref.ref(a))
                return out

            monkeypatch.setattr(ad, name, wrapped)

        def point_concat(args, out):
            if len(out.value) != n_points:
                return []
            point_emb, p2v_gather = args[0]
            return [("point embedding", point_emb.value), ("p2v gather", p2v_gather.value)]

        spy("concat_cols", point_concat)
        spy("layer_norm", lambda args, out: [("head output", args[0].value),
                                             ("layer-norm output", out.value)])
        spy("matmul", lambda args, out: [("mask logits", out.value)])
        spy("gather_rows", lambda args, out: [("backbone output", out.value)]
            if len(args[0].value) == len(out.value) == n_points else [])
        report = default_step()
        assert len(ad._toposort(report.total_tensor)) == 446
        assert {k: len(v) for k, v in refs.items()} == {
            "point embedding": 1, "p2v gather": 1, "head output": 1, "layer-norm output": 1,
            "mask logits": 7, "backbone output": 1,
        }
        alive = {k for k, v in refs.items() for r in v if r() is not None}
        assert alive == {"backbone output"}

    def test_taped_forward_holds_under_eight_point_feature_arrays(self):
        """What a taped forward of the seed-1 20,000-point room leaves held,
        layout built beforehand, is 7.42 N x C float64 arrays (12.3 while
        the tape kept every forward value: 62.9 MB)."""
        m = SegModel(config.model_config(config.RunConfig()))
        spec = scenegen.SceneSpec(n_points=20000)
        prep = m.prepare(scenegen.generate_scene(seed_for(1, "scene0"), spec))
        prep.layout = m.backbone.layout(prep.scene)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            out = m.forward(prep)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.preds and held - start <= 8 * spec.n_points * m.backbone.cfg.channels * 8


def forward_bytes(model, prep):
    """Every output of one forward pass, every discrete choice and every
    masked attention weight it records, as bytes."""
    with traced("structure_trace") as trace, traced("attention_trace") as weights:
        out = model.forward(prep)
    layers = [
        (p.class_probs.value.tobytes(), p.iou_score.value.tobytes(), p.sp_mask.value.tobytes())
        for p in out.preds
    ]
    attention = [w.tobytes() for w in weights]
    return layers, out.foreground.value.tobytes(), out.keypoints.tobytes(), trace, attention


class TestNoTape:
    """no_tape() builds the same values without a tape, and a backward pass
    that would need the missing tape raises."""

    @pytest.mark.parametrize(
        "spec",
        [scenegen.SceneSpec(), scenegen.SceneSpec(n_objects=16, n_points=8000, room_extent=8.0)],
        ids=["default", "cluttered"],
    )
    def test_forward_same_bytes_as_taped(self, spec):
        m = SegModel(config.model_config(config.RunConfig()))
        prep = m.prepare(scenegen.generate_scene(seed_for(1, "scene0"), spec))
        taped = forward_bytes(m, prep)
        with ad.no_tape():
            untaped = forward_bytes(m, prep)
            out = m.forward(prep)
        assert untaped == taped
        assert all(t.parents == () for t in forward_tensors(out))

    def test_untaped_forward_peak_is_well_below_the_taped_one(self):
        m = SegModel(config.model_config(config.RunConfig()))
        spec = scenegen.SceneSpec(n_points=20000)
        prep = m.prepare(scenegen.generate_scene(seed_for(1, "scene0"), spec))

        def traced_forward():
            tracemalloc.start()
            try:
                out = m.forward(prep)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return out, held, peak

        _, taped_held, taped_peak = traced_forward()
        with ad.no_tape():
            _, held, peak = traced_forward()
        # 39.7 -> 21.8 MB peak and 39.3 -> 0.6 MB held on the seed-1 room (the
        # taped pass peaked at 64.3 MB while its tape held every forward value);
        # the taped pass builds the scene's voxel layout, the untaped one reuses it
        assert peak <= 0.6 * taped_peak
        assert held <= 0.05 * taped_held

    def test_backward_from_untaped_root_raises(self):
        x = ad.Tensor([[0.5, -1.0]])
        with ad.no_tape():
            loss = sum_all(ad.sigmoid(x))
        assert loss.parents == ()
        with pytest.raises(ContractError, match="no_tape"):
            ad.backward(loss)
        assert x.grad is None

    def test_taped_graph_reaching_untaped_tensor_raises(self):
        x = ad.Tensor([[0.5, -1.0]])
        with ad.no_tape():
            h = ad.sigmoid(x)
        with pytest.raises(ContractError, match="no_tape"):
            ad.backward(sum_all(mul(h, h)))
        assert x.grad is None

    def test_loss_on_untaped_forward_raises(self):
        cfg = config.RunConfig()
        m = SegModel(config.model_config(cfg))
        prep = m.prepare(scenegen.generate_scene(seed_for(1, "scene0"), scenegen.SceneSpec()))
        with ad.no_tape():
            out = m.forward(prep)
        report = training.total_loss(
            out.preds, prep.gt, prep.partition.sizes, out.foreground, prep.scene,
            config.train_config(cfg),
        )
        with pytest.raises(ContractError, match="no_tape"):
            ad.backward(report.total_tensor)

    def test_leaves_stay_leaves(self):
        with ad.no_tape():
            c = ad.constant([[2.0]])
        x = ad.Tensor([[3.0]])
        ad.backward(sum_all(mul(x, c)))
        assert c.node._push is None and x.grad.tolist() == [[2.0]]

    def test_nests(self):
        x = ad.Tensor([[1.0]])
        with ad.no_tape():
            with ad.no_tape():
                assert ad.sigmoid(x).parents == ()
            assert ad.sigmoid(x).parents == ()
        assert ad.sigmoid(x).parents == nodes_of(x)

    def test_restores_the_tape_after_an_exception(self):
        x = ad.Tensor([[1.0]])
        with pytest.raises(ShapeError):
            with ad.no_tape():
                ad.add(x, ad.Tensor([[1.0, 2.0]]))
        y = ad.sigmoid(x)
        assert y.parents == nodes_of(x)
        ad.backward(sum_all(y))
        assert x.grad is not None


# signed zeros, infinities and magnitudes whose sums depend on their order
SCATTER_VALUES = st.sampled_from([0.0, -0.0, np.inf, -np.inf, 1e300, -1e300, 1e-300]) | st.floats(
    -1e6, 1e6, allow_nan=False
)


@st.composite
def scatter_cases(draw):
    """(n, row indices into n rows, one value row per index)."""
    n = draw(st.integers(1, 6))
    c = draw(st.integers(0, 4))
    idx = np.array(draw(st.lists(st.integers(0, n - 1), max_size=24)), dtype=np.int64)
    return n, idx, draw(arrays(np.float64, (len(idx), c), elements=SCATTER_VALUES))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf is nan on both sides
class TestScatterAdd:
    """ad.scatter_add against np.add.at into zeros, the form it replaced in
    gather_rows' backward, segment_mean's forward and group_max's backward."""

    @settings(max_examples=300, deadline=None)
    @given(scatter_cases())
    @example((3, np.zeros(0, np.int64), np.zeros((0, 2))))
    @example((4, np.array([2, 2, 2]), np.array([[0.0, -0.0], [-0.0, np.inf], [-0.0, -np.inf]])))
    def test_same_bytes_as_add_at(self, case):
        n, idx, rows = case
        c = rows.shape[1]
        want = np.zeros((n, c))
        np.add.at(want, idx, rows)
        keys = idx[:, None] * c + np.arange(c)
        assert ad.scatter_add(keys, rows, n, c).tobytes() == want.tobytes()
        assert scatter_add_at(keys, rows, n, c).tobytes() == want.tobytes()

        # gather_rows' backward scatters the output gradient back
        x = ad.Tensor(np.zeros((n, c)))
        ad.backward(sum_all(mul(ad.gather_rows(x, idx), ad.constant(rows))))
        assert x.grad.tobytes() == want.tobytes()

        # segment_mean's forward sums rows per segment; every segment non-empty
        seg = np.concatenate([idx, np.arange(n)])
        full = np.concatenate([rows, np.ones((n, c))])
        sums = np.zeros((n, c))
        np.add.at(sums, seg, full)
        got = ad.segment_mean(ad.constant(full), seg, n).value
        assert got.tobytes() == (sums / np.bincount(seg)[:, None]).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_group_max_gradient_same_bytes(self, data):
        n = data.draw(st.integers(1, 8))
        c = data.draw(st.integers(1, 4))
        x_val = data.draw(arrays(np.float64, (n, c), elements=st.floats(-4, 4).map(round)))
        g_val = data.draw(arrays(np.float64, (5, c), elements=SCATTER_VALUES))
        # overlapping, repeated and empty groups
        groups = data.draw(st.lists(st.lists(st.integers(0, n - 1), max_size=6), min_size=5, max_size=5))

        def grad(scatter):
            x = ad.Tensor(x_val.copy())
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ad, "scatter_add", scatter)
                out = ad.group_max(x, groups)
                ad.backward(sum_all(mul(out, ad.constant(g_val))))
            return x.grad.tobytes()

        assert grad(ad.scatter_add) == grad(scatter_add_at)

    def test_gather_rows_rejects_negative_index(self):
        with pytest.raises(ContractError, match="negative"):
            ad.gather_rows(ad.constant(np.ones((3, 2))), [0, -1])


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

    def test_parameter_named_twice_rejected(self, tmp_path):
        """Records a, b and a second a, count 3: the last record must not
        silently win."""
        from sceneseg.errors import ParseError

        def record(name, value):
            raw = name.encode()
            return (struct.pack("<I", len(raw)) + raw + struct.pack("<II", 1, 2)
                    + np.array(value, dtype="<f8").tobytes())

        path = tmp_path / "twice.psgw"
        path.write_bytes(ad.CHECKPOINT_MAGIC + struct.pack("<II", ad.CHECKPOINT_VERSION, 3)
                         + record("a", [1.0, 2.0]) + record("b", [3.0, 4.0])
                         + record("a", [9.0, 9.0]))
        store = ad.ParamStore()
        for name in ("a", "b"):
            store.create(name, 1, 2, None, fill=0.0)
        with pytest.raises(ParseError, match="checkpoint names parameter 'a' twice"):
            store.load(path)
        assert store["a"].value.tolist() == [[0.0, 0.0]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, bad):
        """`train` never saves a non-finite parameter; a checkpoint holding
        one is corrupt, and loading it leaves the model as it was."""
        from sceneseg.errors import ParseError

        store = ad.ParamStore()
        store.create("a.w", 3, 4, np.random.default_rng(0))
        store.create("b.bias", 1, 7, None, fill=0.0)
        store["b.bias"].value[0, 5] = bad
        path = tmp_path / "ckpt.psgw"
        store.save(path)
        other = ad.ParamStore()
        other.create("a.w", 3, 4, None, fill=1.0)
        other.create("b.bias", 1, 7, None, fill=1.0)
        with pytest.raises(ParseError, match="^checkpoint parameter 'b.bias' holds a non-finite"):
            other.load(path)
        assert all(np.all(other[n].value == 1.0) for n in other.names())

    def test_magic_checked(self, tmp_path):
        from sceneseg.errors import ParseError

        path = tmp_path / "bad.psgw"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ParseError):
            ad.ParamStore.read_arrays(path)


import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sceneseg import autodiff as ad, backbone, scenegen, training
from sceneseg.backbone import Backbone, BackboneConfig
from sceneseg.errors import ContractError
from sceneseg.model import seed_for

from helpers import (
    finite_diff,
    forward_tensors,
    lexsort_order,
    micro_model,
    micro_scene,
    mul,
    rel_err,
    sum_all,
)


def make_backbone(channels=8, levels=2, seed=0):
    store = ad.ParamStore()
    cfg = BackboneConfig(base_voxel=0.15, channels=channels, levels=levels)
    return Backbone(store, cfg, np.random.default_rng(seed)), store


def permuted(scene, perm):
    return scenegen.Scene(
        points=scene.points[perm],
        semantic=scene.semantic[perm],
        instance=scene.instance[perm],
        n_class=scene.n_class,
    )


class TestBackbone:
    def test_shape_and_finite(self):
        scene = micro_scene()
        bb, _ = make_backbone(channels=16)
        out = bb(bb.layout(scene)).value
        assert out.shape == (scene.n_points, 16)
        assert np.all(np.isfinite(out))

    def test_permutation_equivariance_exact(self):
        scene = micro_scene(seed=5)
        bb, _ = make_backbone()
        base = bb(bb.layout(scene)).value
        perm = np.random.default_rng(0).permutation(scene.n_points)
        out = bb(bb.layout(permuted(scene, perm))).value
        assert np.array_equal(out, base[perm])

    def test_identical_points_identical_features(self):
        scene = micro_scene(seed=2)
        # force two points into the same voxel with identical offset and color
        scene.points[1] = scene.points[0]
        bb, _ = make_backbone()
        out = bb(bb.layout(scene)).value
        assert np.array_equal(out[0], out[1])

    def test_deterministic_across_runs(self):
        scene = micro_scene(seed=9)
        bb_a, bb_b = make_backbone(seed=4)[0], make_backbone(seed=4)[0]
        a = bb_a(bb_a.layout(scene)).value
        b = bb_b(bb_b.layout(scene)).value
        assert np.array_equal(a, b)

    def test_empty_scene_rejected(self):
        empty = scenegen.Scene(
            points=np.zeros((0, 6)),
            semantic=np.zeros(0, dtype=int),
            instance=np.zeros(0, dtype=int),
            n_class=3,
        )
        bb, _ = make_backbone()
        with pytest.raises(ContractError):
            bb.layout(empty)

    def test_gradients_reach_every_parameter(self):
        scene = micro_scene(seed=1, n_points=50 * 2, n_objects=1)
        bb, store = make_backbone()
        loss = sum_all(mul(bb(bb.layout(scene)), bb(bb.layout(scene))))
        ad.backward(loss)
        for name in store.names():
            assert np.any(store.grad_of(name) != 0), name

    def test_gradient_matches_finite_differences(self):
        scene = micro_scene(seed=1, n_points=100, n_objects=1)
        bb, store = make_backbone()

        def loss():
            out = bb(bb.layout(scene))
            return sum_all(mul(out, out))

        l = loss()
        ad.backward(l)
        rng = np.random.default_rng(0)
        for name in ["backbone.embed.0.w", "backbone.down0.0.w", "backbone.up1.0.w",
                     "backbone.head.0.b"]:
            t = store[name]
            i = tuple(rng.integers(0, s) for s in t.shape)
            fd = finite_diff(lambda: float(loss().value[0, 0]),
                             t.value) if t.value.size <= 16 else None
            if fd is None:
                # spot-check one entry to keep runtime down
                h = 1e-4
                orig = t.value[i]
                t.value[i] = orig + h
                hi = float(loss().value[0, 0])
                t.value[i] = orig - h
                lo = float(loss().value[0, 0])
                t.value[i] = orig
                fd_v = (hi - lo) / (2 * h)
                g = t.grad[i]
                assert abs(fd_v - g) / max(abs(fd_v), abs(g), 1e-8) < 1e-3, name
            else:
                assert rel_err(t.grad, fd) < 1e-3, name

    def test_untaped_peak_is_four_point_feature_arrays(self):
        """Without a tape, the head's concat is the last reader of the point
        embedding and the per-point gather, and the head the concat's: on the
        seed-1 20,000-point room the peak above entry is 4.27 N x C float64
        arrays (5.44 while they were kept through the head)."""
        bb = Backbone(ad.ParamStore(), BackboneConfig(), np.random.default_rng(0))
        scene = scenegen.generate_scene(seed_for(1, "scene0"), scenegen.SceneSpec(n_points=20000))
        layout = bb.layout(scene)
        tracemalloc.start()
        try:
            with ad.no_tape():
                start, _ = tracemalloc.get_traced_memory()
                bb(layout)
                _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 4.6 * scene.n_points * bb.cfg.channels * 8

    def test_config_validation(self):
        with pytest.raises(ContractError):
            BackboneConfig(levels=0)
        with pytest.raises(ContractError):
            BackboneConfig(channels=4)
        # a zero voxel once cast NaN cells to int64 and ran without complaint
        with pytest.raises(ContractError):
            BackboneConfig(base_voxel=0.0)


def forward_bytes(model, prep):
    return [t.value.tobytes() for t in forward_tensors(model.forward(prep))]


class TestVoxelLayout:
    def test_built_once_per_prepared_scene_across_fit(self, monkeypatch):
        m = micro_model()
        preps = [m.prepare(micro_scene(seed=s)) for s in (3, 4)]
        assert all(p.layout is None for p in preps)
        built, inner = [], Backbone.layout

        def spy(self, scene):
            built.append(scene)
            return inner(self, scene)

        monkeypatch.setattr(Backbone, "layout", spy)
        training.fit(m, preps, training.TrainConfig(steps=3 * len(preps)))
        assert built == [p.scene for p in preps]
        assert all(p.layout is not None for p in preps)

    def test_reused_layout_same_forward_as_fresh_prepare(self):
        m, scene = micro_model(), micro_scene(seed=5)
        prep = m.prepare(scene)
        m.forward(prep)
        layout = prep.layout
        reused = forward_bytes(m, prep)
        assert prep.layout is layout
        assert reused == forward_bytes(m, m.prepare(scene))


# few distinct values, -0.0 beside 0.0: many rows tie on x, and on more
TIE_VALUES = [0.0, -0.0, 0.25, -1.5, 2.0, 1e-300, -1e-300]


@st.composite
def tied_points(draw):
    """n x 6 rows drawn from a small pool of rows, so whole rows repeat. Each
    column takes 1 to 3 of TIE_VALUES, or all of them, or distinct normal
    values, so rows often tie on every column but a later one."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.empty((draw(st.integers(1, 16)), 6))
    for c in range(6):
        width = draw(st.sampled_from([1, 2, 3, len(TIE_VALUES), None]))
        if width is None:
            pool[:, c] = rng.normal(size=len(pool))
        else:
            pool[:, c] = rng.choice(rng.choice(TIE_VALUES, size=width), size=len(pool))
    return pool[rng.integers(0, len(pool), size=draw(st.integers(1, 60)))]


class TestCanonicalOrder:
    @settings(max_examples=300, deadline=None)
    @given(tied_points())
    def test_same_order_as_lexsort(self, points):
        got, want = backbone.canonical_order(points), lexsort_order(points)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_no_ties_and_all_tied(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(50, 6))
        assert backbone.canonical_order(points).tobytes() == lexsort_order(points).tobytes()
        points[:, 0] = -0.0
        points[::2, 0] = 0.0
        assert backbone.canonical_order(points).tobytes() == lexsort_order(points).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.05, 0.3]))
    def test_backbone_same_bytes_as_with_lexsort(self, seed, grid):
        """Positions snapped to a grid tie on x; features and every
        parameter gradient keep their bytes with the one-lexsort order."""
        scene = micro_scene(seed=seed % 1000, n_points=100)
        scene.points[:, :3] = np.round(scene.points[:, :3] / grid) * grid
        scene.points[1] = scene.points[0]
        results = []
        for order in (backbone.canonical_order, lexsort_order):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(backbone, "canonical_order", order)
                bb, store = make_backbone(seed=seed % 7)
                out = bb(bb.layout(scene))
                ad.backward(sum_all(mul(out, out)))
            results.append([out.value] + [store.grad_of(n) for n in store.names()])
        for a, b in zip(*results):
            assert a.tobytes() == b.tobytes()

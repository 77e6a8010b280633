import numpy as np
import pytest

from sceneseg import autodiff as ad, scenegen
from sceneseg.backbone import Backbone, BackboneConfig
from sceneseg.errors import ContractError

from helpers import finite_diff, micro_scene, rel_err


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
        out = bb(scene).value
        assert out.shape == (scene.n_points, 16)
        assert np.all(np.isfinite(out))

    def test_permutation_equivariance_exact(self):
        scene = micro_scene(seed=5)
        bb, _ = make_backbone()
        base = bb(scene).value
        perm = np.random.default_rng(0).permutation(scene.n_points)
        out = bb(permuted(scene, perm)).value
        assert np.array_equal(out, base[perm])

    def test_identical_points_identical_features(self):
        scene = micro_scene(seed=2)
        # force two points into the same voxel with identical offset and color
        scene.points[1] = scene.points[0]
        bb, _ = make_backbone()
        out = bb(scene).value
        assert np.array_equal(out[0], out[1])

    def test_deterministic_across_runs(self):
        scene = micro_scene(seed=9)
        a = make_backbone(seed=4)[0](scene).value
        b = make_backbone(seed=4)[0](scene).value
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
            bb(empty)

    def test_gradients_reach_every_parameter(self):
        scene = micro_scene(seed=1, n_points=50 * 2, n_objects=1)
        bb, store = make_backbone()
        loss = ad.sum_all(ad.mul(bb(scene), bb(scene)))
        ad.backward(loss)
        for name in store.names():
            assert np.any(store.grad_of(name) != 0), name

    def test_gradient_matches_finite_differences(self):
        scene = micro_scene(seed=1, n_points=100, n_objects=1)
        bb, store = make_backbone()

        def loss():
            out = bb(scene)
            return ad.sum_all(ad.mul(out, out))

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

    def test_config_validation(self):
        with pytest.raises(ContractError):
            BackboneConfig(levels=0)
        with pytest.raises(ContractError):
            BackboneConfig(channels=4)

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sceneseg import aggregation as agg, autodiff as ad, kernels, scenegen
from sceneseg.errors import ContractError

from helpers import candidate_sample_quadratic, finite_diff, rel_err


class TestForegroundHead:
    def test_zero_params_give_half(self):
        store = ad.ParamStore()
        head = agg.ForegroundHead(store, 4, np.random.default_rng(0))
        head.lin.w.value[:] = 0
        head.lin.b.value[:] = 0
        out = head(ad.constant(np.random.default_rng(1).normal(size=(5, 4)))).value
        np.testing.assert_array_equal(out, np.full((5, 1), 0.5))

    def test_large_bias_saturates(self):
        store = ad.ParamStore()
        head = agg.ForegroundHead(store, 4, np.random.default_rng(0))
        head.lin.w.value[:] = 0
        head.lin.b.value[:] = 50.0
        out = head(ad.constant(np.zeros((3, 4)))).value
        assert np.all(out > 0.999999)


class TestEligiblePoints:
    def test_no_candidates(self):
        f = np.array([0.1, 0.8, 0.9])
        out = agg.eligible_points(f, None, 0.3)
        np.testing.assert_array_equal(out, [False, True, True])

    def test_beta_zero_boundary(self):
        f = np.array([0.0, 0.5, 1.0])
        out = agg.eligible_points(f, None, 0.0)
        np.testing.assert_array_equal(out, [False, True, True])

    def test_full_coverage_empties_set(self):
        f = np.full(4, 0.9)
        cands = agg.CandidateSet(
            indices=np.array([0]), coverage=np.ones((1, 4), dtype=bool)
        )
        assert not agg.eligible_points(f, cands, 0.3).any()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_monotone_in_beta(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.uniform(size=20)
        cov = rng.uniform(size=(2, 20)) < 0.3
        cands = agg.CandidateSet(indices=np.array([0, 1]), coverage=cov)
        betas = np.linspace(0.05, 0.95, 10)
        prev = None
        for b in betas:
            cur = agg.eligible_points(f, cands, b)
            if prev is not None:
                assert np.all(cur <= prev)  # raising beta never grows the set
            prev = cur


class TestIterativeCandidateSample:
    def test_two_separated_objects(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 0.05, size=(30, 3))
        b = rng.normal(0, 0.05, size=(30, 3)) + [5, 0, 0]
        pos = np.concatenate([a, b])
        f = np.full(60, 0.9)
        cands = agg.iterative_candidate_sample(pos, f, 0.3, 2, rq=0.5)
        assert len(cands.indices) == 2
        sides = {int(i >= 30) for i in cands.indices}
        assert sides == {0, 1}

    def test_high_beta_empty(self):
        pos = np.random.default_rng(1).uniform(size=(10, 3))
        cands = agg.iterative_candidate_sample(pos, np.full(10, 0.5), 0.9, 4, rq=0.1)
        assert len(cands.indices) == 0

    def test_single_candidate_is_argmax(self):
        pos = np.random.default_rng(2).uniform(size=(15, 3))
        f = np.random.default_rng(3).uniform(0.4, 1.0, size=15)
        cands = agg.iterative_candidate_sample(pos, f, 0.3, 1, rq=0.1)
        assert cands.indices[0] == np.argmax(f)

    def test_coverage_recorded(self):
        pos = np.zeros((5, 3))
        pos[:, 0] = [0.0, 0.1, 0.2, 2.0, 3.0]
        f = np.array([0.9, 0.8, 0.8, 0.8, 0.8])
        cands = agg.iterative_candidate_sample(pos, f, 0.3, 3, rq=0.5)
        assert cands.indices[0] == 0
        np.testing.assert_array_equal(cands.coverage[0], [True, True, True, False, False])

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(0, 7), min_size=1, max_size=40),
        st.lists(st.sampled_from([0.1, 0.3, 0.6, 0.9]), min_size=40, max_size=40),
        st.integers(0, 10_000),
        st.sampled_from([0.0, 0.3, 0.5]),
        st.integers(1, 10),
        st.sampled_from([0.0, 0.4, 1.0, 3.0]),
    )
    def test_matches_quadratic_oracle(self, which, scores, seed, beta, k_cand, rq):
        # few distinct positions and scores: duplicate points and ties
        base = np.random.default_rng(seed).integers(0, 3, size=(8, 3)).astype(np.float64)
        pos = base[which]
        f = np.array(scores[: len(which)])
        got = agg.iterative_candidate_sample(pos, f, beta, k_cand, rq)
        want = candidate_sample_quadratic(pos, f, beta, k_cand, rq)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.coverage, want.coverage)
        assert got.coverage.shape == want.coverage.shape


class TestSuperpointAvgPool:
    def test_single_point_superpoint(self):
        f = ad.constant(np.random.default_rng(0).normal(size=(3, 4)))
        part = scenegen.SuperpointPartition(
            assignment=np.array([0, 1, 2]), sizes=np.array([1, 1, 1])
        )
        out = agg.superpoint_avg_pool(f, part).value
        np.testing.assert_array_equal(out, f.value)

    def test_constant_features(self):
        f = ad.constant(np.full((6, 2), 1.5))
        part = scenegen.SuperpointPartition(
            assignment=np.array([0, 0, 1, 1, 1, 0]), sizes=np.array([3, 3])
        )
        np.testing.assert_array_equal(agg.superpoint_avg_pool(f, part).value, np.full((2, 2), 1.5))

    def test_matches_groupby(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 3))
        seg = rng.integers(0, 7, size=50)
        seg[:7] = np.arange(7)  # keep all segments non-empty
        part = scenegen.SuperpointPartition(
            assignment=seg, sizes=np.bincount(seg, minlength=7)
        )
        out = agg.superpoint_avg_pool(ad.constant(x), part).value
        for s in range(7):
            np.testing.assert_allclose(out[s], x[seg == s].mean(axis=0), atol=1e-12)

    def test_gradient_splits_by_size(self):
        rng = np.random.default_rng(5)
        x = ad.Tensor(rng.normal(size=(6, 2)))
        seg = np.array([0, 0, 0, 1, 1, 1])
        part = scenegen.SuperpointPartition(assignment=seg, sizes=np.array([3, 3]))

        def loss():
            out = agg.superpoint_avg_pool(x, part)
            return ad.sum_all(ad.mul(out, out))

        ad.backward(loss())
        fd = finite_diff(lambda: float(loss().value[0, 0]), x.value)
        assert rel_err(x.grad, fd) < 1e-3


class TestLocalAggregator:
    def make(self, channels=4, **kw):
        store = ad.ParamStore()
        cfg = agg.AggregationConfig(r1=0.2, r2=0.4, cap=8, width=4, **kw)
        return agg.LocalAggregator(store, channels, cfg, np.random.default_rng(0)), store

    def test_empty_neighborhood_gives_bias_only(self):
        local, _ = self.make()
        pos = np.array([[0.0, 0, 0], [10.0, 0, 0]])
        f = ad.constant(np.random.default_rng(1).normal(size=(2, 4)))
        out = local(f, pos, np.array([0]))
        # keypoint 0 has itself as a neighbor (distance 0), so use a far one:
        lonely = local(f, np.array([[0, 0, 0], [100.0, 0, 0]]), np.array([1]))
        assert np.all(np.isfinite(lonely.value))

    def test_no_keypoints(self):
        local, _ = self.make()
        out = local(ad.constant(np.zeros((3, 4))), np.zeros((3, 3)), np.array([], dtype=int))
        assert out.value.shape == (0, 4)

    def test_duplicate_neighbor_invariance(self):
        local, _ = self.make()
        rng = np.random.default_rng(2)
        pos = rng.uniform(0, 0.3, size=(6, 3))
        feats = rng.normal(size=(6, 4))
        base = local(ad.constant(feats), pos, np.array([0])).value
        # duplicate point 3 (same position and feature)
        pos2 = np.concatenate([pos, pos[3:4]])
        feats2 = np.concatenate([feats, feats[3:4]])
        dup = local(ad.constant(feats2), pos2, np.array([0])).value
        np.testing.assert_allclose(dup, base, atol=1e-12)

    def test_inner_radius_subset_dominated(self):
        # with an identity-like MLP (non-negative pass-through), max over the
        # larger ball dominates max over the smaller one elementwise
        local, store = self.make()
        for layer in local.point_mlp.layers:
            layer.w.value[:] = 0
            layer.b.value[:] = 0
        local.point_mlp.layers[0].w.value[:4, :4] = np.eye(4)
        local.point_mlp.layers[1].w.value[:] = np.eye(4)
        rng = np.random.default_rng(3)
        pos = rng.uniform(0, 0.35, size=(12, 3))
        feats = np.abs(rng.normal(size=(12, 4)))
        f = ad.constant(feats)
        g1 = kernels.sphere_query_lists(pos[:1], pos, 0.2, 8)[0]
        g2 = kernels.sphere_query_lists(pos[:1], pos, 0.4, 8)[0]
        assert set(g1) <= set(g2)
        hidden = np.maximum(feats, 0)
        s1 = hidden[g1].max(axis=0) if len(g1) else np.zeros(4)
        s2 = hidden[g2].max(axis=0) if len(g2) else np.zeros(4)
        assert np.all(s2 >= s1)

    def test_gradients_flow(self):
        local, store = self.make()
        rng = np.random.default_rng(6)
        pos = rng.uniform(0, 0.3, size=(10, 3))
        f = ad.Tensor(rng.normal(size=(10, 4)))

        def loss():
            out = local(f, pos, np.array([0, 4]))
            return ad.sum_all(ad.mul(out, out))

        ad.backward(loss())
        assert f.grad is not None and np.any(f.grad != 0)
        fd = finite_diff(lambda: float(loss().value[0, 0]), f.value)
        assert rel_err(f.grad, fd) < 1e-3

    def test_radius_ordering_enforced(self):
        with pytest.raises(ContractError):
            agg.AggregationConfig(r1=0.5, r2=0.3)


class TestGlobalProjector:
    def test_identity_projection(self):
        store = ad.ParamStore()
        proj = agg.GlobalProjector(store, 3, 3, np.random.default_rng(0))
        proj.proj.w.value = np.eye(3)
        proj.proj.b.value[:] = 0
        x = np.random.default_rng(1).normal(size=(5, 3))
        f_g, _ = proj(ad.constant(x))
        np.testing.assert_array_equal(f_g.value, x)

    def test_zero_mask_mlp_gives_bias(self):
        store = ad.ParamStore()
        proj = agg.GlobalProjector(store, 3, 4, np.random.default_rng(0))
        for layer in proj.mask_mlp.layers:
            layer.w.value[:] = 0
        proj.mask_mlp.layers[-1].b.value = np.array([[1.0, 2.0, 3.0, 4.0]])
        _, s_mask = proj(ad.constant(np.random.default_rng(1).normal(size=(5, 3))))
        np.testing.assert_array_equal(s_mask.value, np.tile([[1.0, 2.0, 3.0, 4.0]], (5, 1)))

    def test_deterministic(self):
        x = np.random.default_rng(2).normal(size=(4, 3))
        outs = []
        for _ in range(2):
            store = ad.ParamStore()
            proj = agg.GlobalProjector(store, 3, 4, np.random.default_rng(7))
            f_g, s_mask = proj(ad.constant(x))
            outs.append((f_g.value, s_mask.value))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert np.array_equal(outs[0][1], outs[1][1])

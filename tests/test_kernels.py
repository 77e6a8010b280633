import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sceneseg import aggregation, kernels
from sceneseg.errors import ContractError

from helpers import min_sq_dist_from_inf, sq_dists_with_temporaries


def brute_sphere(keypts, pos, r, cap):
    out = []
    for k in keypts:
        d2 = ((pos - k) ** 2).sum(axis=1)
        hits = np.flatnonzero(d2 < r * r)
        if len(hits) > cap:
            order = sorted(hits, key=lambda j: (d2[j], j))[:cap]
            hits = np.sort(order)
        out.append(np.asarray(hits, dtype=np.int64))
    return out


class TestSphereQuery:
    def test_simple(self):
        pos = np.array([[0.5, 0, 0], [1.5, 0, 0]])
        lists = kernels.sphere_query_lists(np.zeros((1, 3)), pos, 1.0, 8)
        np.testing.assert_array_equal(lists[0], [0])

    def test_strict_boundary(self):
        pos = np.array([[1.0, 0, 0], [0.999999, 0, 0]])
        lists = kernels.sphere_query_lists(np.zeros((1, 3)), pos, 1.0, 8)
        np.testing.assert_array_equal(lists[0], [1])

    def test_huge_radius_capped(self):
        rng = np.random.default_rng(0)
        pos = rng.normal(size=(50, 3))
        lists = kernels.sphere_query_lists(pos[:3], pos, 1e9, 10)
        assert all(len(g) == 10 for g in lists)

    def test_radius_whose_square_overflows(self):
        """float(r) ** 2 overflows for r above about 1.3e154; every point is
        then in range, as for any radius beyond the cloud, and the cap keeps
        the nearest."""
        rng = np.random.default_rng(2)
        pos = rng.normal(size=(50, 3))
        for cap in (10, 50):
            got = kernels.sphere_query_lists(pos[:3], pos, 1e300, cap)
            want = kernels.sphere_query_lists(pos[:3], pos, 1e9, cap)
            assert [g.tolist() for g in got] == [w.tolist() for w in want]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        pos = rng.uniform(0, 2, size=(200, 3))
        keypts = pos[rng.choice(200, size=20, replace=False)]
        for r, cap in [(0.3, 8), (0.7, 16), (0.05, 4)]:
            got = kernels.sphere_query_lists(keypts, pos, r, cap)
            want = brute_sphere(keypts, pos, r, cap)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)

    def test_bad_radius(self):
        with pytest.raises(ContractError):
            kernels.sphere_query_lists(np.zeros((1, 3)), np.zeros((1, 3)), 0.0, 4)


def max_min_picks(pos, k):
    """Greedy max-min (farthest point) selection of up to k indices: the
    candidate sampler with every point eligible, no ball but each pick's own,
    and index 0 as the first pick."""
    return aggregation.iterative_candidate_sample(pos, np.ones(len(pos)), 0.5, k, 0.0).indices


class TestFPS:
    def test_all_points(self):
        pos = np.random.default_rng(0).normal(size=(9, 3))
        idx = max_min_picks(pos, 9)
        assert sorted(idx) == list(range(9))

    def test_unit_square(self):
        pos = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
        idx = max_min_picks(pos, 2)
        assert idx[0] == 0 and idx[1] == 3  # opposite corner

    def test_prefix_property(self):
        pos = np.random.default_rng(2).uniform(size=(40, 3))
        for n in range(1, 15):
            a = max_min_picks(pos, n)
            b = max_min_picks(pos, n + 1)
            np.testing.assert_array_equal(a, b[:n])

    def test_greedy_optimality(self):
        # each pick is the point with maximum distance to the selected set
        rng = np.random.default_rng(3)
        pos = rng.uniform(size=(30, 3))
        idx = max_min_picks(pos, 10)
        assert len(idx) == 10
        for step in range(1, 10):
            prev = idx[:step]
            d = kernels.min_sq_dist_to_set(pos, prev)
            assert d[idx[step]] == d.max()

    def test_too_many(self):
        """Asked for more picks than points, each point is picked once, also
        when all of them coincide."""
        np.testing.assert_array_equal(max_min_picks(np.zeros((3, 3)), 4), [0, 1, 2])
        pos = np.random.default_rng(4).normal(size=(5, 3))
        assert sorted(max_min_picks(pos, 9)) == list(range(5))

    def test_tie_break_lowest_index(self):
        pos = np.array([[0, 0, 0], [1, 0, 0], [1, 0, 0], [0.5, 0, 0]])
        idx = max_min_picks(pos, 2)
        assert idx[1] == 1


@st.composite
def point_sets(draw):
    """Positions in C or F order: normal, on a coarse grid (equal distances,
    repeated points) or spanning 1e-3 to 1e3; and a list of indices into
    them, repeats allowed, possibly empty."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["normal", "grid", "scales"]))
    if kind == "grid":
        pos = rng.integers(-2, 3, size=(n, 3)) * 0.5
    else:
        pos = rng.normal(size=(n, 3))
        if kind == "scales":
            pos *= 10.0 ** rng.integers(-3, 4, size=(n, 1))
    pos = np.asarray(pos, order=draw(st.sampled_from("CF")))
    return pos, rng.integers(0, n, size=draw(st.integers(0, 6)))


class TestDistanceRows:
    @settings(max_examples=200, deadline=None)
    @given(point_sets())
    def test_sq_dists_same_bytes_as_fresh_arrays(self, case):
        pos, idx = case
        for c in list(pos[idx]) + [np.array([0.1, -0.2, 0.3])]:
            got, want = kernels._sq_dists(pos, c), sq_dists_with_temporaries(pos, c)
            assert got.tobytes() == want.tobytes() and got.flags.c_contiguous

    @settings(max_examples=200, deadline=None)
    @given(point_sets())
    def test_min_sq_dist_same_bytes_as_from_inf(self, case):
        pos, idx = case
        got, want = kernels.min_sq_dist_to_set(pos, idx), min_sq_dist_from_inf(pos, idx)
        assert got.tobytes() == want.tobytes() and got.flags.c_contiguous

    def test_min_sq_dist_to_no_point_is_inf(self):
        got = kernels.min_sq_dist_to_set(np.zeros((3, 3)), np.zeros(0, dtype=np.int64))
        np.testing.assert_array_equal(got, np.full(3, np.inf))

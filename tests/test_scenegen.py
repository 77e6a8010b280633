import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from helpers import box_surface_loop, read_ply_loop, unique_rows_np, write_ply_loop
from sceneseg import scenegen
from sceneseg.errors import ContractError, DataError, ParseError

FINITE = st.floats(-1e4, 1e4, allow_nan=False)


@st.composite
def labelled_scenes(draw):
    """Valid scenes in shuffled point order: background (-1) points plus up
    to three instances of at least MIN_INSTANCE_POINTS points each."""
    sizes = draw(st.lists(st.integers(10, 13), max_size=3))
    classes = draw(st.lists(st.integers(0, 2), min_size=len(sizes), max_size=len(sizes)))
    n_bg = draw(st.integers(0 if sizes else 1, 6))
    instance = np.repeat(np.arange(-1, len(sizes)), [n_bg] + sizes)
    semantic = np.repeat([-1] + classes, [n_bg] + sizes)
    order = np.array(draw(st.permutations(range(len(instance)))), dtype=np.int64)
    points = draw(arrays(np.float64, (len(instance), 6), elements=FINITE))
    return scenegen.Scene(
        points=points, semantic=semantic[order], instance=instance[order], n_class=3
    )


def ply_lines(path):
    return path.read_text().splitlines()


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def scene():
    return scenegen.generate_scene(7, scenegen.SceneSpec(n_objects=5, n_points=4000))


class TestGenerate:
    def test_deterministic(self, scene):
        again = scenegen.generate_scene(7, scenegen.SceneSpec(n_objects=5, n_points=4000))
        assert np.array_equal(scene.points, again.points)
        assert np.array_equal(scene.semantic, again.semantic)
        assert np.array_equal(scene.instance, again.instance)

    def test_single_object(self):
        s = scenegen.generate_scene(1, scenegen.SceneSpec(n_objects=1, n_points=500))
        assert s.n_instances == 1

    def test_point_counts(self, scene):
        n_floor = (scene.instance == scenegen.FLOOR_INSTANCE).sum()
        assert (scene.instance >= 0).sum() == scene.n_points - n_floor
        assert scene.n_instances == 5

    def test_instances_valid(self, scene):
        scene.validate()
        for k in range(scene.n_instances):
            sel = scene.instance == k
            assert sel.sum() >= scenegen.MIN_INSTANCE_POINTS
            assert len(np.unique(scene.semantic[sel])) == 1

    def test_preconditions(self):
        with pytest.raises(ContractError):
            scenegen.generate_scene(0, scenegen.SceneSpec(n_objects=0))
        with pytest.raises(ContractError):
            scenegen.generate_scene(0, scenegen.SceneSpec(n_objects=5, n_points=400))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 300))
    def test_box_surface_matches_loop_oracle(self, seed, n):
        size = np.random.default_rng(seed).uniform(0.4, 0.9, size=3)
        got = scenegen._sample_surface(np.random.default_rng(seed), 0, size, n)
        want = box_surface_loop(np.random.default_rng(seed), size, n)
        assert got.tobytes() == want.tobytes()


class TestVoxelize:
    def test_single_cell(self):
        pos = np.full((10, 3), 0.2)
        vox = scenegen.voxelize(pos, 1.0)
        assert len(vox.coords) == 1

    def test_distinct_cells(self):
        vox = scenegen.voxelize(np.array([[0, 0, 0], [1, 0, 0]], dtype=float), 0.5)
        assert len(vox.coords) == 2

    def test_matches_hash_set(self, scene):
        vox = scenegen.voxelize(scene.positions, 0.05)
        want = {tuple(c) for c in np.floor(scene.positions / 0.05).astype(int)}
        assert len(vox.coords) == len(want)
        assert {tuple(c) for c in vox.coords} == want

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.integers(1, 4).flatmap(
                lambda c: arrays(
                    np.int64,
                    (n, c),
                    elements=st.sampled_from([np.iinfo(np.int64).min, np.iinfo(np.int64).max])
                    | st.integers(-3, 3),
                )
            )
        )
    )
    def test_unique_rows_matches_np_unique(self, cells):
        """Negatives, int64 extremes, repeated rows and a single row."""
        coords, inverse = scenegen.unique_rows(cells)
        want_coords, want_inverse = unique_rows_np(cells)
        assert coords.dtype == want_coords.dtype and coords.shape == want_coords.shape
        assert coords.tobytes() == want_coords.tobytes()
        assert inverse.dtype == want_inverse.dtype
        assert inverse.tobytes() == want_inverse.tobytes()

    def test_maps_consistent(self, scene):
        vox = scenegen.voxelize(scene.positions, 0.1)
        cells = np.floor(scene.positions / 0.1).astype(np.int64)
        np.testing.assert_array_equal(vox.coords[vox.point_to_voxel], cells)
        assert np.all(np.bincount(vox.point_to_voxel, minlength=len(vox.coords)) > 0)


class TestSuperpoints:
    def test_single_superpoint_limit(self, scene):
        part = scenegen.build_superpoints(scene, 1000.0)
        assert part.n_superpoints == 1

    def test_fine_limit(self, scene):
        part = scenegen.build_superpoints(scene, 1e-9)
        distinct = len(np.unique(scene.positions.round(12), axis=0))
        assert part.n_superpoints == distinct

    def test_hundreds_of_superpoints(self, scene):
        part = scenegen.build_superpoints(scene, 0.25)
        assert 100 <= part.n_superpoints <= 900

    def test_partition_exhaustive(self, scene):
        part = scenegen.build_superpoints(scene, 0.25)
        assert part.sizes.sum() == scene.n_points
        assert np.all(part.sizes > 0)


class TestGtSuperpointMasks:
    def test_pure_inside_and_background(self):
        part = scenegen.SuperpointPartition(
            assignment=np.array([0, 0, 1, 1, 2]), sizes=np.array([2, 2, 1])
        )
        masks = np.array([[True, True, False, False, False]])
        out = scenegen.gt_superpoint_masks(part, masks)
        np.testing.assert_array_equal(out, [[True, False, False]])

    def test_majority_split(self):
        # superpoint 0: 3 points of instance 0, 2 of instance 1
        part = scenegen.SuperpointPartition(
            assignment=np.zeros(5, dtype=int), sizes=np.array([5])
        )
        masks = np.array(
            [[True, True, True, False, False], [False, False, False, True, True]]
        )
        out = scenegen.gt_superpoint_masks(part, masks)
        np.testing.assert_array_equal(out, [[True], [False]])

    def test_exact_half_goes_to_background(self):
        part = scenegen.SuperpointPartition(
            assignment=np.zeros(4, dtype=int), sizes=np.array([4])
        )
        masks = np.array([[True, True, False, False]])
        out = scenegen.gt_superpoint_masks(part, masks)
        assert not out.any()

    def test_disjoint_rows(self, scene):
        part = scenegen.build_superpoints(scene, 0.25)
        gt = scenegen.ground_truth(scene, part)
        assert np.all(gt.superpoint_masks.sum(axis=0) <= 1)
        assert np.all(gt.point_masks.sum(axis=0) <= 1)


class TestPly:
    def test_roundtrip(self, tmp_path, scene):
        path = tmp_path / "scene.ply"
        scenegen.write_ply(path, scene)
        back = scenegen.read_ply(path)
        assert np.abs(back.positions - scene.positions).max() < 1e-6
        assert np.array_equal(back.semantic, scene.semantic)
        assert np.array_equal(back.instance, scene.instance)
        assert back.n_class == scene.n_class

    @settings(max_examples=60, deadline=None)
    @given(labelled_scenes(), st.booleans(), st.data())
    def test_matches_loop_oracle(self, tmp_path_factory, scene, override, data):
        colors = None
        if override:
            colors = data.draw(arrays(np.float64, (scene.n_points, 3), elements=FINITE))
        tmp = tmp_path_factory.mktemp("ply")
        fast, loop = tmp / "fast.ply", tmp / "loop.ply"
        scenegen.write_ply(fast, scene, color_override=colors)
        write_ply_loop(loop, scene, color_override=colors)
        assert fast.read_bytes() == loop.read_bytes()
        got, want = scenegen.read_ply(fast), read_ply_loop(fast)
        assert np.array_equal(got.points, want.points)
        assert np.array_equal(got.semantic, want.semantic)
        assert np.array_equal(got.instance, want.instance)
        assert got.n_class == want.n_class

    def test_chunked_write_matches_loop_oracle(self, tmp_path):
        n = 2 * scenegen._PLY_CHUNK + 17  # two full chunks and a partial one
        scene = scenegen.generate_scene(5, scenegen.SceneSpec(n_points=n))
        colors = np.random.default_rng(0).uniform(size=(n, 3))
        scenegen.write_ply(tmp_path / "fast.ply", scene, color_override=colors)
        write_ply_loop(tmp_path / "loop.ply", scene, color_override=colors)
        assert (tmp_path / "fast.ply").read_bytes() == (tmp_path / "loop.ply").read_bytes()

    def test_unlabelled_file_reads_as_background(self, tmp_path):
        path = tmp_path / "bare.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property float red\nproperty float green\nproperty float blue\n"
            "end_header\n0 0 0 1 1 1\n1 2 3 0.5 0.5 0.5\n"
        )
        back = scenegen.read_ply(path)
        assert back.points.tolist() == [[0, 0, 0, 1, 1, 1], [1, 2, 3, 0.5, 0.5, 0.5]]
        assert back.semantic.tolist() == [0, 0] and back.instance.tolist() == [-1, -1]

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("column", [0, 2, 4])
    def test_non_finite_value_rejected(self, tmp_path, scene, token, column):
        path = tmp_path / "scene.ply"
        scenegen.write_ply(path, scene)
        lines = ply_lines(path)
        at = lines.index("end_header") + 5
        parts = lines[at].split()
        parts[column] = token
        lines[at] = " ".join(parts)
        write_lines(path, lines)
        with pytest.raises(DataError, match=f"line {at + 1}"):
            scenegen.read_ply(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda parts: parts[:7], "expected 8 values, found 7"),
            (lambda parts: [], "expected 8 values, found 0"),
            (lambda parts: parts[:6] + ["3.0", parts[7]], "non-numeric"),
            (lambda parts: ["x"] + parts[1:], "non-numeric"),
        ],
    )
    def test_bad_vertex_line_named(self, tmp_path, scene, edit, message):
        path = tmp_path / "scene.ply"
        scenegen.write_ply(path, scene)
        lines = ply_lines(path)
        at = lines.index("end_header") + 9
        lines[at] = " ".join(edit(lines[at].split()))
        write_lines(path, lines)
        with pytest.raises(ParseError, match=message) as info:
            scenegen.read_ply(path)
        assert info.value.line == at + 1

    def test_bad_header_value(self, tmp_path, scene):
        path = tmp_path / "scene.ply"
        scenegen.write_ply(path, scene)
        lines = ply_lines(path)
        lines[lines.index(f"comment n_class {scene.n_class}")] = "comment n_class three"
        write_lines(path, lines)
        with pytest.raises(ParseError, match="header"):
            scenegen.read_ply(path)

    def test_non_contiguous_instances_rejected(self, tmp_path, scene):
        gap = scenegen.Scene(
            scene.points, scene.semantic, np.where(scene.instance == 4, 7, scene.instance), 3
        )
        scenegen.write_ply(tmp_path / "gap.ply", gap)
        with pytest.raises(DataError, match="contiguous"):
            scenegen.read_ply(tmp_path / "gap.ply")

    def test_class_out_of_range_rejected(self, tmp_path, scene):
        bad = scenegen.Scene(
            scene.points, np.where(scene.instance == 0, 3, scene.semantic), scene.instance, 3
        )
        scenegen.write_ply(tmp_path / "bad.ply", bad)
        with pytest.raises(DataError, match="class 3"):
            scenegen.read_ply(tmp_path / "bad.ply")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("not a ply\n")
        with pytest.raises(ParseError):
            scenegen.read_ply(path)

    def test_count_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "short.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property float red\nproperty float green\nproperty float blue\n"
            "end_header\n0 0 0 1 1 1\n"
        )
        with pytest.raises(ParseError, match="line"):
            scenegen.read_ply(path)

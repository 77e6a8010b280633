"""Synthetic indoor scenes, PLY I/O, voxelization and superpoint partitions.

A scene is a floor plane plus a handful of non-overlapping primitives
(box / sphere / cylinder) sampled on their surfaces. Primitive kind doubles
as the semantic class, so the default vocabulary has three classes; the
"no instance" class used by the prediction head is index n_class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError, GenerationError, ParseError, read_text

CLASS_NAMES = ("box", "sphere", "cylinder")
FLOOR_INSTANCE = -1
MIN_INSTANCE_POINTS = 10


@dataclass
class Scene:
    points: np.ndarray  # N x 6: x, y, z (meters), r, g, b in [0, 1]
    semantic: np.ndarray  # N class ids, -1 = floor/background
    instance: np.ndarray  # N instance ids, -1 = floor/background
    n_class: int

    @property
    def n_points(self):
        return len(self.points)

    @property
    def positions(self):
        return self.points[:, :3]

    @property
    def colors(self):
        return self.points[:, 3:]

    @property
    def n_instances(self):
        return int(self.instance.max()) + 1 if np.any(self.instance >= 0) else 0

    def validate(self):
        if self.n_points < 1:
            raise DataError("scene has no points")
        ids = np.unique(self.instance[self.instance >= 0])
        if len(ids) and not np.array_equal(ids, np.arange(len(ids))):
            raise DataError("instance ids must be contiguous from 0")
        for k in ids:
            sel = self.instance == k
            if sel.sum() < MIN_INSTANCE_POINTS:
                raise DataError(f"instance {k} has fewer than {MIN_INSTANCE_POINTS} points")
            classes = np.unique(self.semantic[sel])
            if len(classes) != 1:
                raise DataError(f"instance {k} mixes semantic classes")
            if not 0 <= classes[0] < self.n_class:
                raise DataError(f"instance {k} has class {classes[0]} outside [0, {self.n_class})")


@dataclass
class SuperpointPartition:
    assignment: np.ndarray  # N superpoint ids in [0, M)
    sizes: np.ndarray  # M point counts

    @property
    def n_superpoints(self):
        return len(self.sizes)


@dataclass
class GroundTruth:
    instance_classes: np.ndarray  # K_gt
    point_masks: np.ndarray  # K_gt x N bool
    superpoint_masks: np.ndarray | None  # K_gt x M bool; None when built for evaluation


@dataclass
class SceneSpec:
    n_objects: int = 4
    n_points: int = 2000
    n_class: int = 3
    room_extent: float = 4.0
    floor_fraction: float = 0.3
    noise: float = 0.01


# ---------------------------------------------------------------------------
# generation

_PLACE_RETRIES = 200
_SIZE_RANGE = (0.4, 0.9)  # object extent per axis, metres
_MARGIN = 0.1  # keeps objects separated
MIN_ROOM_EXTENT = 2 * (_SIZE_RANGE[1] / 2 + _MARGIN)  # fits the widest object
_OTHER_AXES = np.array([[1, 2], [0, 2], [0, 1]])  # the two axes spanning each box face


def _sample_surface(rng, kind, size, n):
    """n points on the surface of a unit-ish primitive centred at the origin."""
    if kind == 0:  # box: pick a face, uniform on it
        face = rng.integers(0, 6, size=n)
        uv = rng.uniform(-0.5, 0.5, size=(n, 2))
        pts = np.empty((n, 3))
        axis = face // 2
        rest = _OTHER_AXES[axis]
        rows = np.arange(n)
        pts[rows, axis] = np.where(face % 2 == 0, -0.5, 0.5)
        pts[rows, rest[:, 0]] = uv[:, 0]
        pts[rows, rest[:, 1]] = uv[:, 1]
        return pts * size
    if kind == 1:  # sphere
        v = rng.normal(size=(n, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return v * (size[0] / 2.0)
    # cylinder: lateral surface plus caps, area-weighted
    radius, height = size[0] / 2.0, size[2]
    lateral = 2 * np.pi * radius * height
    caps = 2 * np.pi * radius**2
    on_side = rng.uniform(size=n) < lateral / (lateral + caps)
    theta = rng.uniform(0, 2 * np.pi, size=n)
    pts = np.empty((n, 3))
    z_side = rng.uniform(-0.5, 0.5, size=n) * height
    r_cap = radius * np.sqrt(rng.uniform(size=n))
    cap_sign = np.where(rng.uniform(size=n) < 0.5, -0.5, 0.5) * height
    pts[:, 0] = np.where(on_side, radius, r_cap) * np.cos(theta)
    pts[:, 1] = np.where(on_side, radius, r_cap) * np.sin(theta)
    pts[:, 2] = np.where(on_side, z_side, cap_sign)
    return pts


def generate_scene(seed, spec: SceneSpec) -> Scene:
    """Deterministic procedural scene: floor plane + non-overlapping primitives."""
    if spec.n_objects < 1:
        raise ContractError("n_objects must be >= 1")
    if spec.n_points < 100 * spec.n_objects:
        raise ContractError("need n_points >= 100 * n_objects")
    if spec.room_extent < MIN_ROOM_EXTENT:
        raise ContractError(f"need room_extent >= {MIN_ROOM_EXTENT}")
    rng = np.random.default_rng(seed)
    ext = spec.room_extent

    n_floor = int(spec.n_points * spec.floor_fraction)
    n_obj_pts = spec.n_points - n_floor
    per_obj = np.full(spec.n_objects, n_obj_pts // spec.n_objects)
    per_obj[: n_obj_pts % spec.n_objects] += 1

    # place axis-aligned bounding boxes with bounded rejection sampling
    placed = []  # (center xy, half-extent xy)
    kinds = rng.integers(0, spec.n_class, size=spec.n_objects)
    sizes = rng.uniform(*_SIZE_RANGE, size=(spec.n_objects, 3))
    for i in range(spec.n_objects):
        half = sizes[i, :2] * 0.5 + _MARGIN
        for _ in range(_PLACE_RETRIES):
            c = rng.uniform(half, ext - half)
            if all(np.any(np.abs(c - pc) > half + ph) for pc, ph in placed):
                placed.append((c, half))
                break
        else:
            raise GenerationError(f"could not place object {i} after {_PLACE_RETRIES} tries")

    chunks, sem_chunks, inst_chunks = [], [], []
    floor_xy = rng.uniform(0, ext, size=(n_floor, 2))
    floor = np.concatenate(
        [
            floor_xy,
            np.zeros((n_floor, 1)),
            np.full((n_floor, 3), 0.55) + rng.normal(0, spec.noise, size=(n_floor, 3)),
        ],
        axis=1,
    )
    chunks.append(floor)
    sem_chunks.append(np.full(n_floor, -1, dtype=np.int64))
    inst_chunks.append(np.full(n_floor, FLOOR_INSTANCE, dtype=np.int64))

    for i in range(spec.n_objects):
        kind = int(kinds[i])
        surf = _sample_surface(rng, kind, sizes[i], int(per_obj[i]))
        center = np.array([placed[i][0][0], placed[i][0][1], sizes[i, 2] * 0.5 + 0.05])
        pos = surf + center
        base = rng.uniform(0.1, 0.9, size=3)
        col = np.clip(base + rng.normal(0, spec.noise, size=(len(pos), 3)), 0.0, 1.0)
        chunks.append(np.concatenate([pos, col], axis=1))
        sem_chunks.append(np.full(len(pos), kind, dtype=np.int64))
        inst_chunks.append(np.full(len(pos), i, dtype=np.int64))

    scene = Scene(
        points=np.concatenate(chunks),
        semantic=np.concatenate(sem_chunks),
        instance=np.concatenate(inst_chunks),
        n_class=spec.n_class,
    )
    scene.validate()
    return scene


# ---------------------------------------------------------------------------
# voxelization and superpoints


def unique_rows(cells):
    """Distinct rows of an integer matrix in lexicographic order, and each
    row's index among them: what np.unique returns along axis 0 with
    return_inverse, from one lexsort and a row-change mask."""
    order = np.lexsort(cells.T[::-1])
    ordered = cells[order]
    new = np.ones(len(ordered), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


@dataclass
class Voxelization:
    coords: np.ndarray  # V x 3 integer cells, lexicographically sorted
    point_to_voxel: np.ndarray  # N


def voxelize(positions, voxel_size) -> Voxelization:
    if voxel_size <= 0:
        raise ContractError("voxel_size must be positive")
    cells = np.floor(np.asarray(positions)[:, :3] / voxel_size).astype(np.int64)
    coords, inverse = unique_rows(cells)
    return Voxelization(coords=coords, point_to_voxel=inverse)


def build_superpoints(scene: Scene, coarse_size) -> SuperpointPartition:
    """One superpoint per occupied coarse voxel cell."""
    vox = voxelize(scene.positions, coarse_size)
    sizes = np.bincount(vox.point_to_voxel, minlength=len(vox.coords))
    return SuperpointPartition(assignment=vox.point_to_voxel, sizes=sizes)


def gt_point_masks(scene: Scene):
    k = scene.n_instances
    return np.stack([scene.instance == i for i in range(k)]) if k else np.zeros((0, scene.n_points), bool)


def gt_superpoint_masks(partition: SuperpointPartition, point_masks):
    """Superpoint s belongs to instance k iff strictly more than half of its
    points carry instance k; ties go to background, keeping masks disjoint."""
    m = partition.n_superpoints
    k = len(point_masks)
    out = np.zeros((k, m), dtype=bool)
    for i in range(k):
        inside = np.bincount(partition.assignment[point_masks[i]], minlength=m)
        out[i] = inside * 2 > partition.sizes
    return out


def ground_truth(scene: Scene, partition: SuperpointPartition | None = None) -> GroundTruth:
    """Instance classes and point masks; superpoint masks only when a
    partition is given (training needs them, evaluation does not)."""
    pm = gt_point_masks(scene)
    classes = np.array(
        [scene.semantic[scene.instance == i][0] for i in range(len(pm))], dtype=np.int64
    )
    return GroundTruth(
        instance_classes=classes,
        point_masks=pm,
        superpoint_masks=None if partition is None else gt_superpoint_masks(partition, pm),
    )


# ---------------------------------------------------------------------------
# PLY I/O (ASCII, with semantic/instance integer properties)


_PLY_ROW = "%.8f %.8f %.8f %.8f %.8f %.8f %d %d\n"
_PLY_CHUNK = 4096  # rows formatted per write; bounds the text held in memory


def write_ply(path, scene: Scene, color_override=None):
    """ASCII PLY dump; color_override (N x 3 floats) replaces stored colors."""
    cols = np.asarray(color_override if color_override is not None else scene.colors)
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {scene.n_points}",
        "property float x",
        "property float y",
        "property float z",
        "property float red",
        "property float green",
        "property float blue",
        "property int semantic",
        "property int instance",
        f"comment n_class {scene.n_class}",
        "end_header",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        for start in range(0, scene.n_points, _PLY_CHUNK):
            stop = min(start + _PLY_CHUNK, scene.n_points)
            block = np.empty((stop - start, 8), dtype=object)
            block[:, :3] = scene.positions[start:stop]
            block[:, 3:6] = cols[start:stop]
            block[:, 6] = scene.semantic[start:stop]
            block[:, 7] = scene.instance[start:stop]
            fh.write((_PLY_ROW * (stop - start)) % tuple(block.ravel().tolist()))


_COLOR_PROPS = ["x", "y", "z", "red", "green", "blue"]


def _vertex_dtype(props):
    """One field per property: coordinates, colours and any extra property as
    float64, the semantic and instance labels as int64."""
    return np.dtype(
        [
            (f"c{k}", np.int64 if name in ("semantic", "instance") else np.float64)
            for k, name in enumerate(props)
        ]
    )


def _bad_vertex_line(body, props, first_line):
    """ParseError naming the first vertex line that does not parse."""
    dtype = _vertex_dtype(props)
    for i, text in enumerate(body):
        found = len(text.split())
        if found != len(props):
            return ParseError(
                f"expected {len(props)} values, found {found}", line=first_line + i
            )
        try:
            np.loadtxt([text], dtype=dtype, comments=None)
        except ValueError:
            return ParseError("non-numeric vertex value", line=first_line + i)
    return ParseError("malformed vertex data", line=first_line)


def read_ply(path) -> Scene:
    """Parse an ASCII PLY written by write_ply.

    Coordinates and colours must be finite and the scene must pass
    Scene.validate; a malformed file raises ParseError, bad values DataError.
    """
    raw = read_text(path).splitlines()
    if not raw or raw[0].strip() != "ply":
        raise ParseError("not a PLY file", line=1)
    n_vertex = None
    n_class = 3
    props = []
    body_at = None
    for ln, text in enumerate(raw[1:], start=2):
        t = text.strip()
        try:
            if t.startswith("element vertex"):
                n_vertex = int(t.split()[-1])
            elif t.startswith("property"):
                props.append(t.split()[-1])
            elif t.startswith("comment n_class"):
                n_class = int(t.split()[-1])
            elif t == "end_header":
                body_at = ln
                break
        except ValueError:
            raise ParseError(f"bad header line {t!r}", line=ln) from None
    if body_at is None or n_vertex is None:
        raise ParseError("missing end_header or vertex element", line=len(raw))
    if n_vertex < 1:
        raise ParseError(f"vertex count must be positive, got {n_vertex}", line=body_at)
    if props[:6] != _COLOR_PROPS:
        raise ParseError(f"expected properties {_COLOR_PROPS}, got {props[:6]}", line=body_at)
    body = raw[body_at : body_at + n_vertex]
    if len(body) != n_vertex:
        raise ParseError(
            f"expected {n_vertex} vertex lines, found {len(body)}", line=len(raw)
        )
    try:
        table = np.loadtxt(body, dtype=_vertex_dtype(props), comments=None, ndmin=1)
    except ValueError:
        table = None
    # loadtxt skips blank lines, so a short table also marks a bad line
    if table is None or len(table) != n_vertex:
        raise _bad_vertex_line(body, props, body_at + 1)
    pts = np.stack([table[f"c{k}"] for k in range(6)], axis=1)
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise DataError(
            f"line {body_at + 1 + int(np.argmin(finite))}: non-finite coordinate or colour"
        )
    if "semantic" in props and "instance" in props:
        sem = np.ascontiguousarray(table[f"c{props.index('semantic')}"])
        inst = np.ascontiguousarray(table[f"c{props.index('instance')}"])
    else:
        sem = np.zeros(n_vertex, dtype=np.int64)
        inst = np.full(n_vertex, FLOOR_INSTANCE, dtype=np.int64)
    scene = Scene(points=pts, semantic=sem, instance=inst, n_class=n_class)
    scene.validate()
    return scene

"""Synthetic indoor scenes, PLY I/O, voxelization and superpoint partitions.

A scene is a floor plane plus a handful of non-overlapping primitives
(box / sphere / cylinder) sampled on their surfaces. Primitive kind doubles
as the semantic class, so the default vocabulary has three classes; the
"no instance" class used by the prediction head is index n_class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ParseError, at_least, read_text, require

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

    def __post_init__(self):
        at_least(self, n_objects=1)
        n = 100 * self.n_objects
        require(self.n_points >= n, self, "n_points", f">= 100 * n_objects = {n}")
        at_least(self, n_class=1, room_extent=MIN_ROOM_EXTENT)


# ---------------------------------------------------------------------------
# generation

_PLACE_RETRIES = 200
_SIZE_RANGE = (0.4, 0.9)  # object extent per axis, metres
_MARGIN = 0.1  # keeps objects separated
_FLOOR_FRACTION = 0.3  # share of the points on the floor
_COLOR_NOISE = 0.01  # standard deviation of the per-point color jitter
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
    rng = np.random.default_rng(seed)
    ext = spec.room_extent

    n_floor = int(spec.n_points * _FLOOR_FRACTION)
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
            raise ConfigError(f"n_objects={spec.n_objects} do not fit in room_extent={ext!r}: "
                              f"could not place object {i} after {_PLACE_RETRIES} tries")

    chunks, sem_chunks, inst_chunks = [], [], []
    floor_xy = rng.uniform(0, ext, size=(n_floor, 2))
    floor = np.concatenate(
        [
            floor_xy,
            np.zeros((n_floor, 1)),
            np.full((n_floor, 3), 0.55) + rng.normal(0, _COLOR_NOISE, size=(n_floor, 3)),
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
        col = np.clip(base + rng.normal(0, _COLOR_NOISE, size=(len(pos), 3)), 0.0, 1.0)
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


def build_superpoints(scene: Scene, coarse_size) -> SuperpointPartition:
    """One superpoint per occupied coarse voxel cell."""
    cells = np.floor(scene.positions / coarse_size).astype(np.int64)
    assignment = unique_rows(cells)[1]
    return SuperpointPartition(assignment=assignment, sizes=np.bincount(assignment))


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
    pm = scene.instance == np.arange(scene.n_instances)[:, None]
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


_PLY_CHUNK = 4096  # rows formatted per write; bounds the text held in memory
_EXACT_LIMIT = 2.0**52 / 1e8  # keeps |x| * 1e8 below 2**52, where p - rint(p) is exact
_INT_LIMIT = 10**8  # eight digits, the width of a float field's integer part
_SPLIT = 2.0**27 + 1  # Veltkamp's splitter for a double
_PAIRS = np.frombuffer("".join(f"{k:02d}" for k in range(100)).encode(), np.uint16)  # "00".."99"
_TENS = 10 ** np.arange(1, 8)  # n >= 10**k has k + 1 digits
# _KEEP[k] as 8 bytes: k zero bytes, then 8 - k bytes of ones
_KEEP = np.array([np.uint8([0] * k + [255] * (8 - k)).view(np.uint64)[0] for k in range(8)])


def _fixed8(x):
    """round(|x| * 1e8) half to even over the exact product, as %.8f rounds.
    p + e is that product (Dekker's two-product; 1e8 has 19 significant
    bits, so each partial product is exact). rint(p) is the answer unless p
    lies on a tie, which the sign of e breaks."""
    a = np.abs(x)
    p = a * 1e8
    t = a * _SPLIT
    hi = t - (t - a)
    e = (hi * 1e8 - p) + (a - hi) * 1e8
    r = np.rint(p)
    tie = p - r
    return r.astype(np.int64) + ((tie == 0.5) & (e > 0)) - ((tie == -0.5) & (e < 0))


def _digits(n):
    """The eight ASCII digits of each n in [0, 1e8), from the two-digit table."""
    hi, lo = np.divmod(n.astype(np.uint32), 10_000)
    return _PAIRS.take(np.stack([hi // 100, hi % 100, lo // 100, lo % 100], -1)).view(np.uint8)


def _significant(n):
    """_digits with NUL for each leading zero, as %d writes none."""
    lead = 7 - np.searchsorted(_TENS, n, side="right")
    return (_digits(n).view(np.uint64) & _KEEP[lead][..., None]).view(np.uint8)


def _exact_rows(floats, ints):
    """Rows of `%.8f` fields for the float columns then `%d` fields for the
    int columns, space-separated: each field is rendered NUL-padded to a
    fixed width of sign, 8 digits, point, 8 digits and separator, and one
    mask drops the padding."""
    nf = floats.shape[1]
    units = _fixed8(floats)
    whole = np.concatenate([units // 10**8, np.abs(ints)], axis=1)
    buf = np.zeros(whole.shape + (19,), np.uint8)
    buf[..., 0] = np.concatenate([np.signbit(floats), ints < 0], axis=1) * ord("-")
    buf[..., 1:9] = _significant(whole)
    buf[:, :nf, 9] = ord(".")
    buf[:, :nf, 10:18] = _digits(units % 10**8)
    buf[..., 18] = ord(" ")
    buf[:, -1, 18] = ord("\n")
    return buf[buf != 0].tobytes()


def _percent_rows(floats, ints):
    """The same rows through Python's % formatting."""
    n, nf = floats.shape
    row = " ".join(["%.8f"] * nf + ["%d"] * ints.shape[1]) + "\n"
    block = np.empty((n, nf + ints.shape[1]), dtype=object)
    block[:, :nf] = floats
    block[:, nf:] = ints
    return ((row * n) % tuple(block.ravel().tolist())).encode()


def _write_rows(fh, floats, ints):
    """Write one row per point to the binary file fh, _PLY_CHUNK rows per
    write. A chunk holding a value the exact renderer cannot take (a
    non-finite or |x| >= 2**52 / 1e8 float, an int of 1e8 or more in size, or
    int columns of no signed integer type) is written through % formatting."""
    for start in range(0, len(ints), _PLY_CHUNK):
        f, i = floats[start : start + _PLY_CHUNK], ints[start : start + _PLY_CHUNK]
        exact = (
            i.dtype.kind == "i"
            and (np.abs(f) < _EXACT_LIMIT).all()
            and ((-_INT_LIMIT < i) & (i < _INT_LIMIT)).all()
        )
        fh.write(_exact_rows(f, i) if exact else _percent_rows(f, i))


def write_labels(path, scene: Scene):
    """The `.labels` file: `n_class <n>`, then `<semantic> <instance>` per point."""
    with open(path, "wb") as fh:
        fh.write(f"n_class {scene.n_class}\n".encode())
        _write_rows(fh, np.empty((scene.n_points, 0)), np.stack([scene.semantic, scene.instance], 1))


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
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode())
        floats = np.concatenate([scene.positions, cols], axis=1).astype(np.float64, copy=False)
        _write_rows(fh, floats, np.stack([scene.semantic, scene.instance], 1))


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
        if n_class < 1:  # DecoderConfig's rule
            raise ParseError(f"bad header line {t!r}: n_class must be >= 1", line=ln)
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
    if len(raw) > body_at + n_vertex:
        extra = raw[body_at + n_vertex]
        raise ParseError(f"line after the {n_vertex} vertex lines: {extra[:40]!r}",
                         line=body_at + n_vertex + 1)
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

"""Conforming triangular meshes of 2-D polygonal domains.

Meshes carry a partition of the boundary into a Dirichlet part ``D``
(tag ``DIRICHLET``) and a flux part ``N`` (tag ``FLUX``, Robin/Neumann).
Structured generators split every rectangular cell along a fixed
diagonal, which makes all triangles right triangles and therefore
nonobtuse; downstream positivity certificates rely on that.

A plain text format is supported for interchange, see :func:`save_mesh`.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


class MeshError(ValueError):
    """Raised for invalid mesh data; carries the offending simplex index."""


class BoundaryTag(Enum):
    DIRICHLET = "D"
    FLUX = "N"


_TAG_ALIASES = {
    "d": BoundaryTag.DIRICHLET,
    "dirichlet": BoundaryTag.DIRICHLET,
    "n": BoundaryTag.FLUX,
    "flux": BoundaryTag.FLUX,
    "neumann": BoundaryTag.FLUX,
    "robin": BoundaryTag.FLUX,
}


def as_tag(value) -> BoundaryTag:
    if isinstance(value, BoundaryTag):
        return value
    try:
        return _TAG_ALIASES[str(value).strip().lower()]
    except KeyError:
        raise MeshError(f"unknown boundary tag {value!r}") from None


@dataclass(frozen=True)
class MeshQuality:
    min_angle: float  # degrees
    max_angle: float  # degrees
    is_nonobtuse: bool
    h_max: float


@dataclass(frozen=True)
class CorkscrewResult:
    """Outcome of the Dirichlet-part thickness check.

    ``witnesses`` maps ``(vertex, r)`` to a point ``y`` of ``D`` that keeps
    the ball ``B(y, delta*r)`` clear of the flux part; on failure,
    ``failure`` names the first ``(vertex, r)`` with no such point.
    """

    ok: bool
    delta: float
    witnesses: dict
    failure: tuple | None = None


@dataclass(frozen=True)
class TriMesh:
    """Immutable conforming triangulation with tagged boundary edges.

    vertices : (nv, 2) float array of coordinates
    triangles : (nt, 3) int array, counterclockwise vertex triples
    boundary_edges : (nb, 2) int array; exactly the edges lying in one triangle
    boundary_tags : tuple of BoundaryTag, one per boundary edge
    domain_label : free-text description
    edge_table : ``_edge_table(triangles, nv)`` when the caller has built
        it already, so validation does not build it again

    ``h_max``, the longest triangle side, is computed with the checks.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: tuple
    domain_label: str = ""
    edge_table: InitVar[tuple | None] = None

    def __post_init__(self, edge_table):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        t = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64))
        e = np.ascontiguousarray(np.asarray(self.boundary_edges, dtype=np.int64))
        if e.size == 0:
            e = e.reshape(0, 2)
        tags = tuple(as_tag(x) for x in self.boundary_tags)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        object.__setattr__(self, "boundary_edges", e)
        object.__setattr__(self, "boundary_tags", tags)
        self._validate(edge_table)
        for arr in (v, t, e):
            arr.setflags(write=False)

    # -- derived quantities ------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def signed_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])

    def edge_lengths(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        out = np.empty((self.n_triangles, 3))
        for k, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
            out[:, k] = np.linalg.norm(p[:, i] - p[:, j], axis=1)
        return out

    def boundary_vertices(self) -> np.ndarray:
        """Sorted indices of vertices lying on the boundary."""
        return np.unique(self.boundary_edges)

    def dirichlet_vertices(self) -> np.ndarray:
        """Vertices on the closed Dirichlet part (endpoints of D-edges)."""
        return np.unique(self.edges_with_tag(BoundaryTag.DIRICHLET))

    def edges_with_tag(self, tag: BoundaryTag) -> np.ndarray:
        mask = [t is tag for t in self.boundary_tags]
        return self.boundary_edges[np.asarray(mask, dtype=bool)] if mask else \
            np.empty((0, 2), dtype=np.int64)

    # -- validation ----------------------------------------------------------

    def _validate(self, edge_table=None):
        nv = len(self.vertices)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (n, 2) array")
        if not np.all(np.isfinite(self.vertices)):
            raise MeshError("vertex coordinates must be finite")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (m, 3) array")
        if len(self.triangles) == 0:
            raise MeshError("mesh has no triangles")
        if self.triangles.min() < 0 or self.triangles.max() >= nv:
            raise MeshError("triangle vertex index out of range")

        areas = self.signed_areas()
        bad = np.flatnonzero(areas <= 0)
        if bad.size:
            raise MeshError(
                f"triangle {bad[0]} has nonpositive signed area "
                f"({areas[bad[0]]:.3e}); vertices must be counterclockwise")
        object.__setattr__(self, "h_max",
                           _longest_side(self.vertices, self.triangles))

        edges, counts, side_edge = _edge_table(self.triangles, nv) \
            if edge_table is None else edge_table
        over = edges[counts > 2]
        if len(over):
            raise MeshError(f"edge {over[0].tolist()} shared by more than two "
                            "triangles; mesh is not conforming")

        given, repeats = np.unique(np.sort(self.boundary_edges, axis=1),
                                   axis=0, return_counts=True)
        if np.any(repeats > 1):
            raise MeshError(f"boundary edge {given[repeats > 1][0].tolist()} "
                            "listed more than once (duplicate tag)")
        # both lists are sorted, so they are equal exactly when the sets are
        expected = edges[counts == 1]
        if not np.array_equal(given, expected):
            listed = set(map(tuple, given.tolist()))
            wanted = set(map(tuple, expected.tolist()))
            detail = []
            if wanted - listed:
                detail.append(f"untagged boundary edge "
                              f"{list(min(wanted - listed))}")
            if listed - wanted:
                detail.append(f"edge {list(min(listed - wanted))} is not a "
                              "boundary edge")
            raise MeshError("; ".join(detail))
        if len(self.boundary_tags) != len(self.boundary_edges):
            raise MeshError("one tag required per boundary edge")

        # triangles joined to their edges: a boundary edge hangs off one
        # triangle and an interior edge links two, so this graph is
        # connected exactly when the triangle adjacency graph is
        nt = self.n_triangles
        graph = sp.coo_matrix(
            (np.ones(3 * nt), (np.repeat(np.arange(nt), 3), nt + side_edge)),
            shape=(nt + len(edges),) * 2)
        if connected_components(graph, directed=False)[0] != 1:
            raise MeshError("triangle adjacency graph is not connected")


def _longest_side(vertices: np.ndarray, triangles: np.ndarray) -> float:
    """The largest of ``TriMesh.edge_lengths``, one side at a time: the
    square root of the largest squared length, the same float because
    sqrt is correctly rounded and monotone."""
    longest = 0.0
    for i, j in ((0, 1), (1, 2), (2, 0)):
        d = vertices[triangles[:, i]] - vertices[triangles[:, j]]
        longest = max(longest, float((d[:, 0] * d[:, 0]
                                      + d[:, 1] * d[:, 1]).max()))
    return math.sqrt(longest)


def _edge_table(triangles: np.ndarray, nv: int):
    """The distinct edges of a triangulation, listed once.

    Returns (edges, counts, side_edge): the (ne, 2) vertex pairs, smaller
    index first, in lexicographic order; how many triangles contain each
    edge; and for each of the 3*nt triangle sides (sides 01, 12, 20 of
    triangle 0, then of triangle 1, ...) the row of its edge.
    """
    sides = np.sort(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    keys, side_edge, counts = np.unique(sides[:, 0] * nv + sides[:, 1],
                                        return_inverse=True,
                                        return_counts=True)
    edges = np.column_stack((keys // nv, keys % nv))
    return edges, counts, side_edge.ravel()


# ---------------------------------------------------------------------------
# structured generation

_SHAPE_SEGMENTS = {
    "unit_square": ("bottom", "right", "top", "left"),
    "rectangle": ("bottom", "right", "top", "left"),
    "l_shape": ("bottom", "right", "inner_h", "inner_v", "top", "left"),
}


def _resolve_tag_rule(shape: str, tags) -> dict:
    segments = _SHAPE_SEGMENTS[shape]
    if isinstance(tags, (BoundaryTag, str)):
        tag = as_tag(tags)
        return {seg: tag for seg in segments}
    rule = {seg: as_tag(t) for seg, t in dict(tags).items()}
    unknown = set(rule) - set(segments)
    if unknown:
        raise MeshError(f"unknown boundary segment(s) {sorted(unknown)} "
                        f"for shape {shape!r}")
    missing = [seg for seg in segments if seg not in rule]
    if missing:
        raise MeshError(f"boundary segment(s) {missing} left untagged")
    return rule


def _grid_mesh(nx, ny, width, height, keep_cell):
    """Right-triangle mesh over grid cells selected by ``keep_cell(i, j)``,
    a predicate on arrays of cell indices.

    Each kept cell is split along the diagonal from its lower-left to its
    upper-right corner, producing counterclockwise right triangles.
    Vertices are numbered in the order a row-major sweep of the kept cells
    first meets them, corners taken as (i, j), (i+1, j), (i, j+1),
    (i+1, j+1); that order fixes every downstream byte. Coordinates are
    (i * width) / nx so that grid points shared between a mesh and its
    refinement coincide bitwise.
    """
    j, i = np.divmod(np.arange(nx * ny), nx)
    kept = keep_cell(i, j)
    i, j = i[kept], j[kept]
    key = j * (nx + 1) + i   # grid point (i, j)
    keys = np.stack([key, key + 1, key + nx + 1, key + nx + 2],
                    axis=1).ravel()
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    visit = np.argsort(first)
    number = np.empty_like(visit)
    number[visit] = np.arange(visit.size)
    v00, v10, v01, v11 = number[inverse.ravel()].reshape(-1, 4).T
    vj, vi = np.divmod(keys[first[visit]], nx + 1)
    verts = np.stack([(vi * width) / nx, (vj * height) / ny], axis=1)
    tris = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    return verts, tris


def _segment_of_point(shape, x, y, w, h):
    # classify a boundary-edge midpoint; tolerances are exact for grid points
    eps = 1e-12 * max(w, h, 1.0)
    if shape in ("unit_square", "rectangle"):
        if abs(y) <= eps:
            return "bottom"
        if abs(x - w) <= eps:
            return "right"
        if abs(y - h) <= eps:
            return "top"
        if abs(x) <= eps:
            return "left"
    else:  # l_shape on [0,2]^2 minus (1,2]x(1,2]
        if abs(y) <= eps:
            return "bottom"
        if abs(x - 2.0) <= eps:
            return "right"
        if abs(y - 1.0) <= eps and x >= 1.0 - eps:
            return "inner_h"
        if abs(x - 1.0) <= eps and y >= 1.0 - eps:
            return "inner_v"
        if abs(y - 2.0) <= eps:
            return "top"
        if abs(x) <= eps:
            return "left"
    return None


def generate_structured(shape: str, n: int, tags="flux", *,
                        width: float = 1.0, height: float = 1.0) -> TriMesh:
    """Build a structured right-triangle mesh of a reference shape.

    Parameters
    ----------
    shape : {"unit_square", "rectangle", "l_shape"}
        ``rectangle`` spans [0, width] x [0, height]; ``l_shape`` is
        [0, 2]^2 with the open top-right unit square removed, meshed at
        grid spacing 1/n.
    n : int
        Subdivisions per unit cell edge (n >= 1).
    tags : BoundaryTag, str, or {segment: tag}
        Either one tag for the whole boundary or a mapping that covers
        every boundary segment of the shape. Square/rectangle segments:
        bottom, right, top, left. L-shape adds inner_h, inner_v.
    """
    if n < 1:
        raise MeshError("subdivision count n must be >= 1")
    if shape not in _SHAPE_SEGMENTS:
        raise MeshError(f"unknown shape {shape!r}")
    rule = _resolve_tag_rule(shape, tags)

    if shape == "unit_square":
        w = h = 1.0
        verts, tris = _grid_mesh(n, n, 1.0, 1.0,
                                 lambda i, j: np.full(i.shape, True))
    elif shape == "rectangle":
        if width <= 0 or height <= 0:
            raise MeshError("rectangle needs positive width and height")
        w, h = float(width), float(height)
        verts, tris = _grid_mesh(n, n, w, h,
                                 lambda i, j: np.full(i.shape, True))
    else:
        w = h = 2.0
        verts, tris = _grid_mesh(2 * n, 2 * n, 2.0, 2.0,
                                 lambda i, j: (i < n) | (j < n))

    table = _edge_table(tris, len(verts))
    edges, counts, _ = table
    bedges = edges[counts == 1]
    btags = []
    for a, b in bedges:
        mid = 0.5 * (verts[a] + verts[b])
        seg = _segment_of_point(shape, mid[0], mid[1], w, h)
        if seg is None:
            raise MeshError(f"boundary edge ({a}, {b}) not on any shape segment")
        btags.append(rule[seg])

    label = shape if shape != "rectangle" else f"rectangle({w}x{h})"
    return TriMesh(verts, tris, bedges, tuple(btags),
                   domain_label=f"{label} n={n}", edge_table=table)


# ---------------------------------------------------------------------------
# text format

def save_mesh(mesh: TriMesh) -> str:
    """Serialize to the canonical text form (idempotent under load/save)."""
    lines = ["trimesh 2", f"vertices {mesh.n_vertices}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    lines.append(f"triangles {mesh.n_triangles}")
    for i, j, k in mesh.triangles:
        lines.append(f"{i} {j} {k}")
    lines.append(f"boundary {len(mesh.boundary_edges)}")
    for (i, j), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        lines.append(f"{i} {j} {tag.value}")
    return "\n".join(lines) + "\n"


def _file_tag(token: str) -> BoundaryTag:
    if token not in ("D", "N"):
        raise MeshError(f"tag must be D or N, got {token!r}")
    return as_tag(token)


def load_mesh(text: str) -> TriMesh:
    """Parse the text format; reports line numbers on malformed input."""
    # (line number, tokens) of each line with content, comments stripped
    lines = iter([(no, body.split()) for no, raw in
                  enumerate(text.splitlines(), start=1)
                  if (body := raw.split("#", 1)[0].strip())])

    def next_line(what):
        item = next(lines, None)
        if item is None:
            raise MeshError(f"unexpected end of file while reading {what}")
        return item

    no, tok = next_line("header")
    if tok != ["trimesh", "2"]:
        raise MeshError(f"line {no}: expected header 'trimesh 2'")

    def read_section(keyword, what, width, needs, parse, malformed):
        """A '<keyword> <count>' line, then one line of ``width`` tokens
        per row, read by ``parse``; a ValueError there is ``malformed``."""
        no, tok = next_line(f"'{keyword}' count")
        if len(tok) != 2 or tok[0] != keyword:
            raise MeshError(f"line {no}: expected '{keyword} <count>'")
        try:
            count = int(tok[1])
        except ValueError:
            raise MeshError(f"line {no}: malformed count {tok[1]!r}") from None
        if count < 0:
            raise MeshError(f"line {no}: negative count")
        rows = []
        for i in range(count):
            no, tok = next_line(f"{what} {i}")
            if len(tok) != width:
                raise MeshError(f"line {no}: {what} needs {needs}")
            try:
                rows.append(parse(tok))
            except MeshError as exc:
                raise MeshError(f"line {no}: {exc}") from None
            except ValueError:
                raise MeshError(f"line {no}: malformed {malformed}") from None
        return rows

    verts = read_section("vertices", "vertex", 2, "two coordinates",
                         lambda t: [float(x) for x in t], "coordinate")
    tris = read_section("triangles", "triangle", 3, "three vertex indices",
                        lambda t: [int(x) for x in t], "vertex index")
    boundary = read_section("boundary", "boundary edge", 3, "'i j TAG'",
                            lambda t: (int(t[0]), int(t[1]), _file_tag(t[2])),
                            "vertex index")
    trailing = next(lines, None)
    if trailing is not None:
        raise MeshError(f"line {trailing[0]}: trailing content after mesh "
                        "data")
    return TriMesh(np.array(verts, dtype=float).reshape(-1, 2),
                   np.array(tris, dtype=np.int64).reshape(-1, 3),
                   np.array([b[:2] for b in boundary],
                            dtype=np.int64).reshape(-1, 2),
                   tuple(b[2] for b in boundary))


# ---------------------------------------------------------------------------
# quality and corkscrew checks

def quality(mesh: TriMesh) -> MeshQuality:
    """Per-triangle angle extremes and the nonobtuseness flag.

    Angles come from atan2(cross, dot), which stays accurate for slivers;
    obtuseness is decided by the (exact) sign of the dot product, which
    agrees with the 90-degree threshold even for exact right angles.
    """
    p = mesh.vertices[mesh.triangles]
    min_angle = math.inf
    max_angle = -math.inf
    nonobtuse = True
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        u = p[:, b] - p[:, a]
        v = p[:, c] - p[:, a]
        dots = np.einsum("ij,ij->i", u, v)
        crosses = np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
        if np.any(dots < 0):
            nonobtuse = False
        angles = np.degrees(np.arctan2(crosses, dots))
        min_angle = min(min_angle, angles.min())
        max_angle = max(max_angle, angles.max())
    if nonobtuse:
        max_angle = min(max_angle, 90.0)
    return MeshQuality(min_angle=min_angle, max_angle=max_angle,
                       is_nonobtuse=nonobtuse, h_max=mesh.h_max)


def _distance_to_segments(points, a, b, chunk_bytes=4 * 2 ** 20):
    """Distance from each point to the nearest segment [a_e, b_e], one
    broadcast over chunks of a few MB of (segment, point) pairs. The
    dot products go through matmul, as a per-segment ``(points - a) @ ab``
    would, so the distances are bitwise those of a loop over segments."""
    ab = b - a
    denom = (ab[:, None, :] @ ab[:, :, None])[:, 0, 0]
    # a degenerate segment projects every point onto a
    denom = np.where(denom > 0.0, denom, np.inf)
    step = max(1, chunk_bytes // (16 * len(points)))
    best = np.full(len(points), np.inf)
    for s in range(0, len(a), step):
        e = slice(s, s + step)
        t = ((points - a[e, None, :]) @ ab[e, :, None])[..., 0]
        t = np.clip(t / denom[e, None], 0.0, 1.0)
        rx = points[:, 0] - (a[e, 0, None] + t * ab[e, 0, None])
        ry = points[:, 1] - (a[e, 1, None] + t * ab[e, 1, None])
        np.minimum(best, (rx * rx + ry * ry).min(axis=0), out=best)
    # sqrt is monotone, so the root of the least square is the least root
    return np.sqrt(best)


def _sample_segment(a, b, resolution):
    length = float(np.linalg.norm(b - a))
    k = max(1, int(math.ceil(length / resolution)))
    ts = np.linspace(0.0, 1.0, k + 1)
    return a + ts[:, None] * (b - a)


def check_corkscrew(mesh: TriMesh, delta: float) -> CorkscrewResult:
    """Sampling check that the Dirichlet part is thick near its relative
    boundary: for each vertex x where a D-edge meets an N-edge, and each
    radius r on the dyadic grid {1, 1/2, ...} down to h_max, look for a
    point y of D within distance r of x whose delta*r-ball avoids N.

    This is a finite search (candidate y sampled on D-edges at spacing
    h_max/4), so a True result is evidence, not a proof; False results
    exhibit a concrete failing (x, r).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    d_edges = mesh.edges_with_tag(BoundaryTag.DIRICHLET)
    n_edges = mesh.edges_with_tag(BoundaryTag.FLUX)
    if len(d_edges) == 0 or len(n_edges) == 0:
        # relative boundary of D is empty; every quantifier is vacuous
        return CorkscrewResult(ok=True, delta=delta, witnesses={})

    d_vertices = set(np.unique(d_edges).tolist())
    n_vertices = set(np.unique(n_edges).tolist())
    junction = sorted(d_vertices & n_vertices)

    radii = []
    r = 1.0
    while r > mesh.h_max:
        radii.append(r)
        r *= 0.5
    radii.append(r)

    resolution = mesh.h_max / 4.0
    candidates = np.vstack([
        _sample_segment(mesh.vertices[a], mesh.vertices[b], resolution)
        for a, b in d_edges])
    dist_to_n = _distance_to_segments(candidates, mesh.vertices[n_edges[:, 0]],
                                      mesh.vertices[n_edges[:, 1]])

    witnesses = {}
    for x_idx in junction:
        x = mesh.vertices[x_idx]
        dist_to_x = np.linalg.norm(candidates - x, axis=1)
        for r in radii:
            ok = (dist_to_x <= r) & (dist_to_n >= delta * r)
            hits = np.flatnonzero(ok)
            if hits.size == 0:
                return CorkscrewResult(ok=False, delta=delta,
                                       witnesses=witnesses,
                                       failure=(int(x_idx), r))
            witnesses[(int(x_idx), r)] = candidates[hits[0]].copy()
    return CorkscrewResult(ok=True, delta=delta, witnesses=witnesses)

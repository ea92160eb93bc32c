"""Deterministic SVG heatmaps of nodal fields on triangular meshes.

Triangles are flat-shaded by the mean of their vertex values through a
fixed five-stop color ramp; output bytes depend only on the input arrays,
so images can be diffed across runs.
"""

from __future__ import annotations

import numpy as np

from .mesh import TriMesh

# five-stop ramp, dark blue -> teal -> green -> yellow
_RAMP = (
    (0.0, (68, 1, 84)),
    (0.25, (59, 82, 139)),
    (0.5, (33, 145, 140)),
    (0.75, (94, 201, 98)),
    (1.0, (253, 231, 37)),
)

_STOPS = np.array([s for s, _ in _RAMP])
_RGB = np.array([c for _, c in _RAMP], dtype=float)

_CANVAS = 420.0
_MARGIN = 20.0


def _color(s: float) -> str:
    """Ramp color of one value, clamped to [0, 1]; the scalar reference
    for ``_colors``."""
    s = min(max(s, 0.0), 1.0)
    for (s0, c0), (s1, c1) in zip(_RAMP, _RAMP[1:]):
        if s <= s1:
            w = 0.0 if s1 == s0 else (s - s0) / (s1 - s0)
            rgb = tuple(round(a + w * (b - a)) for a, b in zip(c0, c1))
            return "#%02x%02x%02x" % rgb
    return "#%02x%02x%02x" % _RAMP[-1][1]


def _colors(s: np.ndarray) -> list[str]:
    """``_color`` of every value at once, byte for byte: the same segment
    (the first stop >= s), the same float arithmetic and half-even
    rounding, and NaN at the top of the ramp."""
    s = np.where(s <= 1.0, np.maximum(s, 0.0), 1.0)
    seg = np.searchsorted(_STOPS[1:], s)
    w = (s - _STOPS[seg]) / (_STOPS[seg + 1] - _STOPS[seg])
    c0, c1 = _RGB[seg], _RGB[seg + 1]
    rgb = np.rint(c0 + w[:, None] * (c1 - c0)).astype(int)
    return ["#%02x%02x%02x" % tuple(c) for c in rgb.tolist()]


def _triangle_points(mesh: TriMesh, x0: float, y0: float, lo: np.ndarray,
                     hi: np.ndarray, scale: float) -> list[str]:
    """SVG ``points`` of every triangle, with the mesh's bounding box
    [lo, hi] scaled by ``scale`` and its top-left corner at (x0, y0).

    Each vertex is formatted once; the elementwise array arithmetic rounds
    exactly as the scalar expression would.
    """
    x = x0 + (mesh.vertices[:, 0] - lo[0]) * scale
    y = y0 + (hi[1] - mesh.vertices[:, 1]) * scale  # SVG y grows downward
    pairs = ["%.3f,%.3f" % p for p in zip(x.tolist(), y.tolist())]
    return [f"{pairs[a]} {pairs[b]} {pairs[c]}"
            for a, b, c in mesh.triangles.tolist()]


def _svg(width: float, height: float, body: list) -> str:
    """An SVG document of the given size: a white background, then body."""
    return "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.1f}" '
        f'height="{height:.1f}" viewBox="0 0 {width:.1f} {height:.1f}">',
        f'<rect width="{width:.1f}" height="{height:.1f}" fill="white"/>',
        *body, "</svg>"]) + "\n"


def render_heatmap(field: np.ndarray, mesh: TriMesh) -> str:
    """SVG document for a nodal field; a constant field renders in the low
    ramp color with the (equal) min and max annotated."""
    field = np.asarray(field, dtype=float)
    if field.shape != (mesh.n_vertices,):
        raise ValueError(f"field must have one value per vertex "
                         f"({mesh.n_vertices}), got shape {field.shape}")

    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    span = hi - lo
    scale = (_CANVAS - 2 * _MARGIN) / max(span[0], span[1], 1e-300)

    vmin = float(field.min())
    vmax = float(field.max())
    # nonnegative fields are colored on [0, max]: zero values (eliminated
    # boundary nodes) get the bottom of the ramp, strictly positive fields
    # never touch it
    lo_anchor = 0.0 if vmin >= 0.0 else vmin
    width = _CANVAS
    height = 2 * _MARGIN + span[1] * scale + 24.0

    parts = []
    means = field[mesh.triangles].mean(axis=1)
    points = _triangle_points(mesh, _MARGIN, _MARGIN, lo, hi, scale)
    s = np.ones_like(means) if vmax == lo_anchor \
        else (means - lo_anchor) / (vmax - lo_anchor)
    for pts, color in zip(points, _colors(s)):
        parts.append(f'<polygon points="{pts}" fill="{color}" '
                     f'stroke="none"/>')
    label = (f"min = max = {vmin!r}" if vmin == vmax
             else f"min = {vmin!r}  max = {vmax!r}")
    parts.append(f'<text x="{_MARGIN:.1f}" y="{height - 8.0:.1f}" '
                 f'font-family="monospace" font-size="12">{label}</text>')
    return _svg(width, height, parts)


def emit_heatmap(field: np.ndarray, mesh: TriMesh, path) -> None:
    """Write the heatmap to a file (bytes are deterministic)."""
    svg = render_heatmap(field, mesh)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)


def render_strip(fields: np.ndarray, times: np.ndarray, mesh: TriMesh,
                 max_frames: int = 6) -> str:
    """Row of mini heatmaps at evenly spaced times, shared color scale."""
    fields = np.asarray(fields, dtype=float)
    times = np.asarray(times, dtype=float)
    n_frames = min(max_frames, len(times))
    picks = np.unique(np.linspace(0, len(times) - 1, n_frames).round()
                      .astype(int))

    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    span = hi - lo
    cell = 150.0
    pad = 12.0
    scale = (cell - 2 * pad) / max(span[0], span[1], 1e-300)
    vmin = float(fields[picks].min())
    vmax = float(fields[picks].max())

    width = cell * len(picks)
    height = 2 * pad + span[1] * scale + 20.0
    parts = []
    for frame, k in enumerate(picks):
        x0 = frame * cell + pad
        field = fields[k]
        means = field[mesh.triangles].mean(axis=1)
        points = _triangle_points(mesh, x0, pad, lo, hi, scale)
        s = np.zeros_like(means) if vmax == vmin \
            else (means - vmin) / (vmax - vmin)
        for pts, color in zip(points, _colors(s)):
            parts.append(f'<polygon points="{pts}" '
                         f'fill="{color}" stroke="none"/>')
        parts.append(f'<text x="{x0:.1f}" y="{height - 6.0:.1f}" '
                     f'font-family="monospace" font-size="10">'
                     f't = {times[k]:.6g}</text>')
    return _svg(width, height, parts)

"""Deterministic SVG heatmaps of nodal fields on triangular meshes.

Triangles are flat-shaded by the mean of their vertex values through a
fixed five-stop color ramp; output bytes depend only on the input arrays,
so images can be diffed across runs. Renderers write to a text stream a
block of polygons at a time, so no more than one block's text is held in
memory.
"""

from __future__ import annotations

import itertools

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
STRIP_FRAMES = 6  # most heatmaps in one render_strip row
_CHUNK = 1024     # triangles per block of polygon text


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


def _polygons(mesh: TriMesh, s: np.ndarray, x0: float, y0: float,
              lo: np.ndarray, hi: np.ndarray, scale: float):
    """Flat-shaded ``<polygon>`` lines, one per triangle, colored by ``s``
    (one ramp position per triangle), with the mesh's bounding box
    [lo, hi] scaled by ``scale`` and its top-left corner at (x0, y0);
    yielded as text blocks of ``_CHUNK`` lines, each made when asked for.

    Each vertex is formatted once; the elementwise array arithmetic rounds
    exactly as the scalar expression would.
    """
    x = x0 + (mesh.vertices[:, 0] - lo[0]) * scale
    y = y0 + (hi[1] - mesh.vertices[:, 1]) * scale  # SVG y grows downward
    pairs = ["%.3f,%.3f" % p for p in zip(x.tolist(), y.tolist())]
    for i in range(0, mesh.n_triangles, _CHUNK):
        chunk = slice(i, i + _CHUNK)
        yield "\n".join(
            f'<polygon points="{pairs[a]} {pairs[b]} {pairs[c]}" '
            f'fill="{color}" stroke="none"/>'
            for a, b, c, color in zip(*mesh.triangles[chunk].T.tolist(),
                                      _colors(s[chunk])))


def _svg(fh, width: float, height: float, body) -> None:
    """An SVG document of the given size into the text stream fh: a white
    background, then body, an iterable of text blocks, each written
    before the next is made."""
    size = f'width="{width:.1f}" height="{height:.1f}"'
    fh.write('<?xml version="1.0" encoding="UTF-8"?>\n'
             f'<svg xmlns="http://www.w3.org/2000/svg" {size} '
             f'viewBox="0 0 {width:.1f} {height:.1f}">\n'
             f'<rect {size} fill="white"/>\n')
    for text in body:
        fh.write(text)
        fh.write("\n")
    fh.write("</svg>\n")


def render_heatmap(field: np.ndarray, mesh: TriMesh, fh) -> None:
    """SVG document for a nodal field, written to the text stream fh; a
    constant field renders in the low ramp color with the (equal) min and
    max annotated."""
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

    means = field[mesh.triangles].mean(axis=1)
    s = np.ones_like(means) if vmax == lo_anchor \
        else (means - lo_anchor) / (vmax - lo_anchor)
    label = (f"min = max = {vmin!r}" if vmin == vmax
             else f"min = {vmin!r}  max = {vmax!r}")
    _svg(fh, width, height, itertools.chain(
        _polygons(mesh, s, _MARGIN, _MARGIN, lo, hi, scale),
        [f'<text x="{_MARGIN:.1f}" y="{height - 8.0:.1f}" '
         f'font-family="monospace" font-size="12">{label}</text>']))


def emit_heatmap(field: np.ndarray, mesh: TriMesh, path) -> None:
    """Write the heatmap to a file (bytes are deterministic)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        render_heatmap(field, mesh, fh)


def strip_steps(n_times: int) -> np.ndarray:
    """The steps ``render_strip`` draws out of n_times: at most
    ``STRIP_FRAMES``, evenly spaced, first and last included. Drawn from
    its own picks alone, a strip picks every one of them again."""
    return np.unique(np.linspace(0, n_times - 1, min(STRIP_FRAMES, n_times))
                     .round().astype(int))


def render_strip(fields, times: np.ndarray, mesh: TriMesh, fh) -> None:
    """Row of mini heatmaps at the ``strip_steps`` of times, shared color
    scale, written to the text stream fh a block at a time. fields holds
    one nodal row per time, or only the rows of those steps."""
    times = np.asarray(times, dtype=float)
    picks = strip_steps(len(times))
    frames = [np.asarray(fields[k], dtype=float) for k in picks]

    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    span = hi - lo
    cell = 150.0
    pad = 12.0
    scale = (cell - 2 * pad) / max(span[0], span[1], 1e-300)
    vmin = min(float(f.min()) for f in frames)
    vmax = max(float(f.max()) for f in frames)

    width = cell * len(picks)
    height = 2 * pad + span[1] * scale + 20.0

    def blocks():
        for index, (k, field) in enumerate(zip(picks, frames)):
            x0 = index * cell + pad
            means = field[mesh.triangles].mean(axis=1)
            s = np.zeros_like(means) if vmax == vmin \
                else (means - vmin) / (vmax - vmin)
            yield from _polygons(mesh, s, x0, pad, lo, hi, scale)
            yield (f'<text x="{x0:.1f}" y="{height - 6.0:.1f}" '
                   f'font-family="monospace" font-size="10">'
                   f't = {times[k]:.6g}</text>')

    _svg(fh, width, height, blocks())

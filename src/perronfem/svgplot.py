"""Deterministic SVG heatmaps of nodal fields on triangular meshes.

Triangles are flat-shaded by the mean of their vertex values through a
fixed five-stop color ramp; output bytes depend only on the input arrays,
so images can be diffed across runs. Renderers write to a text stream a
block of polygons at a time, so no more than one block's text is held in
memory. A block's text is joined from shared pieces: each distinct color
and coordinate is formatted once, the y text once per image, and each
polygon line is put together by array indexing, not by a Python-level
step per triangle.
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
STRIP_FRAMES = 6  # most heatmaps strip_steps picks for one strip
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


def _text(values: np.ndarray, fmt: str) -> np.ndarray:
    """``fmt % v`` for every value v, as an object array of str: each
    distinct value is formatted once and shared by the entries that hold
    it. Values that compare equal must have the same text (no -0.0 beside
    0.0)."""
    keys, index = np.unique(values, return_inverse=True)
    return np.array([fmt % v for v in keys.tolist()], dtype=object)[index]


def _colors(s: np.ndarray) -> list[str]:
    """``_color`` of every value at once, byte for byte: the same segment
    (the first stop >= s), the same float arithmetic and half-even
    rounding, and NaN at the top of the ramp. Each rgb is packed into one
    int, so each distinct color is formatted once."""
    s = np.where(s <= 1.0, np.maximum(s, 0.0), 1.0)
    seg = np.searchsorted(_STOPS[1:], s)
    w = (s - _STOPS[seg]) / (_STOPS[seg + 1] - _STOPS[seg])
    rgb = np.zeros(len(s), dtype=np.int64)
    for channel in _RGB.T:  # a channel at a time keeps the temporaries small
        c0, c1 = channel[seg], channel[seg + 1]
        rgb = rgb << 8 | np.rint(c0 + w * (c1 - c0)).astype(np.int64)
    return _text(rgb, "#%06x").tolist()


def _painter(mesh: TriMesh, y0: float, lo: np.ndarray, hi: np.ndarray,
             scale: float):
    """A function ``polygons(s, x0)`` that yields flat-shaded
    ``<polygon>`` lines, one per triangle, colored by ``s`` (one ramp
    position per triangle), with the mesh's bounding box [lo, hi] scaled
    by ``scale`` and its top-left corner at (x0, y0), as text blocks of
    ``_CHUNK`` lines, each made when asked for and ending in a newline.

    The y text, which every frame of a row shares, is formatted here
    once; each call formats its x text and its colors, one text per
    distinct value, and joins each block's pieces by array indexing, with
    no Python-level step per triangle. The elementwise array arithmetic
    rounds exactly as the scalar expression would, and x and y are at
    least the positive margins, so no coordinate is -0.0.
    """
    y = y0 + (hi[1] - mesh.vertices[:, 1]) * scale  # SVG y grows downward
    y_text = _text(y, ",%.3f")
    # one polygon line: '<polygon points="', x_a, y_a, ' ', x_b, y_b, ' ',
    # x_c, y_c, '" fill="', color, '" stroke="none"/>\n'
    line = np.empty((min(_CHUNK, mesh.n_triangles), 12), dtype=object)
    line[:, 0] = '<polygon points="'
    line[:, 3] = line[:, 6] = " "
    line[:, 9] = '" fill="'
    line[:, 11] = '" stroke="none"/>\n'

    def polygons(s: np.ndarray, x0: float):
        x = x0 + (mesh.vertices[:, 0] - lo[0]) * scale
        x_text = _text(x, "%.3f")
        fills = _colors(s)
        for i in range(0, mesh.n_triangles, _CHUNK):
            chunk = slice(i, i + _CHUNK)
            triangles = mesh.triangles[chunk]
            block = line[:len(triangles)]
            block[:, 1:9:3] = x_text[triangles]
            block[:, 2:9:3] = y_text[triangles]
            block[:, 10] = fills[chunk]
            yield "".join(block.ravel().tolist())

    return polygons


def _svg(fh, width: float, height: float, body) -> None:
    """An SVG document of the given size into the text stream fh: a white
    background, then body, an iterable of text blocks, each ending in a
    newline and written before the next is made."""
    size = f'width="{width:.1f}" height="{height:.1f}"'
    fh.write('<?xml version="1.0" encoding="UTF-8"?>\n'
             f'<svg xmlns="http://www.w3.org/2000/svg" {size} '
             f'viewBox="0 0 {width:.1f} {height:.1f}">\n'
             f'<rect {size} fill="white"/>\n')
    for text in body:
        fh.write(text)
    fh.write("</svg>\n")


def render_heatmap(field: np.ndarray, mesh: TriMesh, fh) -> None:
    """SVG document for a nodal field, written to the text stream fh, with
    its min and max annotated. A nonnegative field is colored on [0, max],
    so a positive constant renders in the top ramp color; an all-zero or
    negative constant field renders in the bottom one, as a strip of
    constant frames does."""
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
    s = np.zeros_like(means) if vmax == lo_anchor \
        else (means - lo_anchor) / (vmax - lo_anchor)
    label = (f"min = max = {vmin!r}" if vmin == vmax
             else f"min = {vmin!r}  max = {vmax!r}")
    polygons = _painter(mesh, _MARGIN, lo, hi, scale)
    _svg(fh, width, height, itertools.chain(
        polygons(s, _MARGIN),
        [f'<text x="{_MARGIN:.1f}" y="{height - 8.0:.1f}" '
         f'font-family="monospace" font-size="12">{label}</text>\n']))


def emit_heatmap(field: np.ndarray, mesh: TriMesh, path) -> None:
    """Write the heatmap to a file (bytes are deterministic)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        render_heatmap(field, mesh, fh)


def strip_steps(n_times: int) -> np.ndarray:
    """The steps a strip of n_times states shows: at most
    ``STRIP_FRAMES``, evenly spaced, first and last included."""
    return np.unique(np.linspace(0, n_times - 1, min(STRIP_FRAMES, n_times))
                     .round().astype(int))


def render_strip(frames, times: np.ndarray, mesh: TriMesh, fh) -> None:
    """Row of mini heatmaps, one per nodal field in frames at the matching
    time in times, on a shared color scale, written to the text stream fh
    a block at a time; frames that all hold one constant render in the
    bottom ramp color."""
    frames = [np.asarray(f, dtype=float) for f in frames]

    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    span = hi - lo
    cell = 150.0
    pad = 12.0
    scale = (cell - 2 * pad) / max(span[0], span[1], 1e-300)
    vmin = min(float(f.min()) for f in frames)
    vmax = max(float(f.max()) for f in frames)

    width = cell * len(frames)
    height = 2 * pad + span[1] * scale + 20.0

    polygons = _painter(mesh, pad, lo, hi, scale)

    def blocks():
        for index, (t, field) in enumerate(zip(times, frames)):
            x0 = index * cell + pad
            means = field[mesh.triangles].mean(axis=1)
            s = np.zeros_like(means) if vmax == vmin \
                else (means - vmin) / (vmax - vmin)
            yield from polygons(s, x0)
            yield (f'<text x="{x0:.1f}" y="{height - 6.0:.1f}" '
                   f'font-family="monospace" font-size="10">'
                   f't = {t:.6g}</text>\n')

    _svg(fh, width, height, blocks())

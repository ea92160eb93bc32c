import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perronfem.mesh import BoundaryTag, MeshError, TriMesh, _edge_table, \
    check_corkscrew, generate_structured, load_mesh, quality, save_mesh


def edge_set(triangles):
    edges = Counter()
    for t in triangles:
        for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            edges[frozenset((int(a), int(b)))] += 1
    return edges


def test_unit_square_n1_counts():
    mesh = generate_structured("unit_square", 1, "flux")
    assert mesh.n_vertices == 4
    assert mesh.n_triangles == 2
    assert len(mesh.boundary_edges) == 4
    assert all(t is BoundaryTag.FLUX for t in mesh.boundary_tags)


def test_unit_square_n2_all_dirichlet_counts():
    mesh = generate_structured("unit_square", 2, "dirichlet")
    assert mesh.n_vertices == 9
    assert mesh.n_triangles == 8
    assert len(mesh.boundary_edges) == 8
    assert all(t is BoundaryTag.DIRICHLET for t in mesh.boundary_tags)


def test_l_shape_counts_and_euler_characteristic():
    # independent combinatorics: V - E + F = 2 counting the outer face
    mesh = generate_structured("l_shape", 2, "flux")
    assert mesh.n_triangles == 3 * 2 * 2 ** 2  # 24
    edges = edge_set(mesh.triangles)
    V = mesh.n_vertices
    E = len(edges)
    F = mesh.n_triangles + 1
    assert V - E + F == 2
    boundary = [e for e, c in edges.items() if c == 1]
    assert len(boundary) == len(mesh.boundary_edges)


@pytest.mark.parametrize("shape,n,area", [
    ("unit_square", 1, 1.0),
    ("unit_square", 7, 1.0),
    ("l_shape", 3, 3.0),
])
def test_triangle_areas_sum_to_polygon_area(shape, n, area):
    mesh = generate_structured(shape, n, "flux")
    total = mesh.signed_areas().sum()
    assert abs(total - area) <= 1e-12 * area


def test_rectangle_area_and_tags():
    mesh = generate_structured("rectangle", 4, {"bottom": "D", "right": "N",
                                                "top": "N", "left": "N"},
                               width=2.0, height=0.5)
    assert abs(mesh.signed_areas().sum() - 1.0) <= 1e-12
    d_edges = mesh.edges_with_tag(BoundaryTag.DIRICHLET)
    assert np.all(mesh.vertices[np.unique(d_edges)][:, 1] == 0.0)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_refinement_halves_h_max_exactly(n):
    # power-of-two subdivisions have exactly representable coordinates
    coarse = generate_structured("unit_square", n, "flux")
    fine = generate_structured("unit_square", 2 * n, "flux")
    assert fine.h_max == coarse.h_max / 2


@pytest.mark.parametrize("n", [3, 5, 7])
def test_refinement_halves_h_max_general(n):
    coarse = generate_structured("unit_square", n, "flux")
    fine = generate_structured("unit_square", 2 * n, "flux")
    assert fine.h_max == pytest.approx(coarse.h_max / 2, rel=4e-16)


def test_generator_rejects_bad_input():
    with pytest.raises(MeshError):
        generate_structured("unit_square", 0, "flux")
    with pytest.raises(MeshError):
        generate_structured("unit_square", 2, {"bottom": "D"})  # untagged
    with pytest.raises(MeshError):
        generate_structured("unit_square", 2, {"bottom": "D", "right": "N",
                                               "top": "N", "left": "N",
                                               "inner_h": "N"})


# -- quality ---------------------------------------------------------------

def test_structured_quality():
    q = quality(generate_structured("unit_square", 4, "flux"))
    assert q.min_angle == pytest.approx(45.0, abs=1e-9)
    assert q.max_angle == 90.0
    assert q.is_nonobtuse
    assert q.h_max == pytest.approx(math.sqrt(2) / 4)


def equilateral_mesh():
    verts = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)]
    return TriMesh(verts, [(0, 1, 2)], [(0, 1), (1, 2), (0, 2)],
                   (BoundaryTag.FLUX,) * 3)


def test_equilateral_angles():
    q = quality(equilateral_mesh())
    assert q.min_angle == pytest.approx(60.0, abs=1e-9)
    assert q.max_angle == pytest.approx(60.0, abs=1e-9)
    assert q.is_nonobtuse


def test_sliver_triangle_quality():
    verts = [(0.0, 0.0), (1.0, 0.0), (0.5, 1e-6)]
    mesh = TriMesh(verts, [(0, 1, 2)], [(0, 1), (1, 2), (0, 2)],
                   (BoundaryTag.FLUX,) * 3)
    q = quality(mesh)
    # direct trigonometry: base angle is atan(1e-6 / 0.5)
    expected_min = math.degrees(math.atan(1e-6 / 0.5))
    assert q.min_angle == pytest.approx(expected_min, rel=1e-6)
    assert q.min_angle < 1e-3
    assert not q.is_nonobtuse


# -- text format -----------------------------------------------------------

def test_save_load_round_trip_is_canonical():
    mesh = generate_structured("l_shape", 2, {"bottom": "D", "right": "N",
                                              "inner_h": "N", "inner_v": "N",
                                              "top": "N", "left": "D"})
    text = save_mesh(mesh)
    again = save_mesh(load_mesh(text))
    assert again == text


def test_load_accepts_comments_and_whitespace():
    text = """# a two-triangle square
trimesh 2
vertices 4
0 0
1 0   # lower right
1 1
0 1
triangles 2
0 1 2
0 2 3
boundary 4
0 1 N
1 2 N
2 3 D
3 0 D
"""
    mesh = load_mesh(text)
    assert mesh.n_triangles == 2
    assert mesh.boundary_tags[2] is BoundaryTag.DIRICHLET


def test_load_reports_clockwise_triangle_index():
    text = """trimesh 2
vertices 4
0 0
1 0
1 1
0 1
triangles 2
0 1 2
0 3 2
boundary 4
0 1 N
1 2 N
2 3 N
3 0 N
"""
    with pytest.raises(MeshError, match="triangle 1"):
        load_mesh(text)


def test_load_rejects_duplicate_boundary_tag():
    text = """trimesh 2
vertices 3
0 0
1 0
0 1
triangles 1
0 1 2
boundary 4
0 1 N
1 2 N
2 0 N
0 1 D
"""
    with pytest.raises(MeshError, match="more than once"):
        load_mesh(text)


def test_load_rejects_untagged_boundary_edge():
    text = """trimesh 2
vertices 3
0 0
1 0
0 1
triangles 1
0 1 2
boundary 2
0 1 N
1 2 N
"""
    with pytest.raises(MeshError, match="untagged"):
        load_mesh(text)


def test_load_reports_malformed_line_number():
    with pytest.raises(MeshError, match="line 3"):
        load_mesh("trimesh 2\nvertices 1\nnot-a-number 0\n")


# -- corkscrew -------------------------------------------------------------

def test_corkscrew_bottom_dirichlet_passes(mixed_mesh8):
    result = check_corkscrew(mixed_mesh8, 0.1)
    assert result.ok
    assert result.witnesses  # one per junction vertex and radius


def test_corkscrew_tiny_dirichlet_part_fails():
    mesh = generate_structured("unit_square", 4, "flux")
    # retag only the two edges meeting at the origin corner as Dirichlet
    tags = []
    for (a, b) in mesh.boundary_edges:
        mid = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        near_corner = (mid[0] <= 0.26 and mid[1] == 0.0) or \
                      (mid[1] <= 0.26 and mid[0] == 0.0)
        tags.append(BoundaryTag.DIRICHLET if near_corner else
                    BoundaryTag.FLUX)
    mesh = TriMesh(mesh.vertices, mesh.triangles, mesh.boundary_edges,
                   tuple(tags))
    result = check_corkscrew(mesh, 10.0)
    assert not result.ok
    assert result.failure is not None


def _corkscrew_cases():
    """A mixed L-shape, the same turned so that no edge is axis-parallel,
    and a square whose two Dirichlet edges at a corner fail the check."""
    lshape = generate_structured(
        "l_shape", 32, {"bottom": "D", "right": "N", "inner_h": "N",
                        "inner_v": "N", "top": "N", "left": "N"})
    c, s = math.cos(0.3), math.sin(0.3)
    turned = TriMesh(lshape.vertices @ np.array([[c, s], [-s, c]]) + 0.123,
                     lshape.triangles, lshape.boundary_edges,
                     lshape.boundary_tags)
    square = generate_structured("unit_square", 4, "flux")
    # the two edges at the origin corner are Dirichlet, too thin at delta 10
    corner = tuple(
        BoundaryTag.DIRICHLET if square.vertices[[a, b]].max() <= 0.25
        else BoundaryTag.FLUX for a, b in square.boundary_edges)
    failing = TriMesh(square.vertices, square.triangles, square.boundary_edges,
                      corner)
    return [(lshape, 0.1), (turned, 0.1), (failing, 10.0)]


def _distances_edge_by_edge(points, a, b):
    """The per-edge loop the broadcast replaced: one projection per edge."""
    out = []
    for p, q in zip(a, b):
        ab = q - p
        denom = float(ab @ ab)
        if denom == 0.0:
            out.append(np.linalg.norm(points - p, axis=1))
            continue
        t = np.clip(((points - p) @ ab) / denom, 0.0, 1.0)
        out.append(np.linalg.norm(points - (p + t[:, None] * ab), axis=1))
    return np.min(np.vstack(out), axis=0)


def test_corkscrew_distances_are_bitwise_those_of_the_edge_loop(monkeypatch):
    import perronfem.mesh as mesh_module
    cases = _corkscrew_cases()
    assert [check_corkscrew(m, delta).ok for m, delta in cases] == \
        [True, True, False]
    for mesh, delta in cases:
        flux = mesh.edges_with_tag(BoundaryTag.FLUX)
        a, b = mesh.vertices[flux[:, 0]], mesh.vertices[flux[:, 1]]
        low, high = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
        points = np.random.default_rng(3).uniform(low, high, (500, 2))
        reference = _distances_edge_by_edge(points, a, b)
        # chunks of one edge and of all edges give the same bits
        for chunk in (1, 2 ** 22):
            assert np.array_equal(mesh_module._distance_to_segments(
                points, a, b, chunk_bytes=chunk), reference)
        broadcast = check_corkscrew(mesh, delta)
        with monkeypatch.context() as patch:
            patch.setattr(mesh_module, "_distance_to_segments",
                          _distances_edge_by_edge)
            looped = check_corkscrew(mesh, delta)
        assert (broadcast.ok, broadcast.failure) == \
            (looped.ok, looped.failure)
        assert broadcast.witnesses.keys() == looped.witnesses.keys()
        assert all(np.array_equal(broadcast.witnesses[key],
                                  looped.witnesses[key])
                   for key in looped.witnesses)


def _samples_edge_by_edge(a, b, resolution):
    """The per-edge sampling the broadcast replaced: np.linalg.norm for the
    length, np.linspace for the parameters."""
    out = []
    for p, q in zip(a, b):
        length = float(np.linalg.norm(q - p))
        k = max(1, int(math.ceil(length / resolution)))
        ts = np.linspace(0.0, 1.0, k + 1)
        out.append(p + ts[:, None] * (q - p))
    return np.vstack(out)


def test_corkscrew_samples_are_bitwise_those_of_the_edge_loop(monkeypatch):
    import perronfem.mesh as mesh_module
    rng = np.random.default_rng(7)
    for shape, n in (("unit_square", 8), ("l_shape", 12), ("rectangle", 5)):
        mesh = generate_structured(shape, n, "N", width=2.5, height=0.7)
        edges = mesh.boundary_edges
        # turned, scaled and shifted, at spacings off the edge lengths
        for _ in range(6):
            angle = rng.uniform(0.0, 2 * math.pi)
            c, s = math.cos(angle), math.sin(angle)
            scale = rng.uniform(0.01, 50.0)
            moved = scale * mesh.vertices @ np.array([[c, s], [-s, c]]) \
                + rng.uniform(-3.0, 3.0, 2)
            a, b = moved[edges[:, 0]], moved[edges[:, 1]]
            resolution = scale * mesh.h_max * rng.uniform(0.1, 0.5)
            assert np.array_equal(
                mesh_module._sample_segments(a, b, resolution),
                _samples_edge_by_edge(a, b, resolution))
    # lengths of whole multiples of the spacing, up to rounding, where one
    # ulp of length changes the count, and counts up to 120, where
    # k * (1 / k) is not 1 at k = 49, 98, 103 and 107
    angle = rng.uniform(0.0, 2 * math.pi, 2000)
    a = rng.uniform(-1.0, 1.0, (2000, 2))
    b = a + np.c_[np.cos(angle), np.sin(angle)] \
        * (0.037 * rng.integers(1, 120, 2000))[:, None]
    assert np.array_equal(mesh_module._sample_segments(a, b, 0.037),
                          _samples_edge_by_edge(a, b, 0.037))
    # the corkscrew payloads do not move
    for mesh, delta in _corkscrew_cases():
        broadcast = check_corkscrew(mesh, delta)
        with monkeypatch.context() as patch:
            patch.setattr(mesh_module, "_sample_segments",
                          _samples_edge_by_edge)
            looped = check_corkscrew(mesh, delta)
        assert (broadcast.ok, broadcast.failure) == \
            (looped.ok, looped.failure)
        assert broadcast.witnesses.keys() == looped.witnesses.keys()
        assert all(np.array_equal(broadcast.witnesses[key],
                                  looped.witnesses[key])
                   for key in looped.witnesses)


@pytest.mark.parametrize("delta", [0.01, 0.1, 0.25, 0.5, 1.0, 10.0])
def test_corkscrew_prune_changes_no_result(monkeypatch, delta):
    # the far flux edges are dropped before the distance search; measuring
    # to every flux edge gives the same verdict, witnesses and failure
    import perronfem.mesh as mesh_module
    distances = mesh_module._distance_to_segments
    square = generate_structured("unit_square", 8,
                                 {"bottom": "D", "right": "N", "top": "D",
                                  "left": "N"})
    # the top edges are a box gap of 0.25 away, and nearest in the middle
    strip = generate_structured(
        "rectangle", 8, {"bottom": "D", "right": "N", "top": "N",
                         "left": "N"}, width=3.0, height=0.25)
    meshes = [mesh for mesh, _ in _corkscrew_cases()] + [square, strip]
    searched = []
    for mesh in meshes:
        flux = mesh.edges_with_tag(BoundaryTag.FLUX)

        def every_edge(points, a, b):
            searched.append((len(a), len(flux)))
            return distances(points, mesh.vertices[flux[:, 0]],
                             mesh.vertices[flux[:, 1]])

        pruned = check_corkscrew(mesh, delta)
        with monkeypatch.context() as patch:
            patch.setattr(mesh_module, "_distance_to_segments", every_edge)
            full = check_corkscrew(mesh, delta)
        assert (pruned.ok, pruned.failure) == (full.ok, full.failure)
        assert pruned.witnesses.keys() == full.witnesses.keys()
        assert all(np.array_equal(pruned.witnesses[key], full.witnesses[key])
                   for key in full.witnesses)
    if delta <= 0.1:  # the L-shape's far edges are really dropped
        kept, total = searched[0]
        assert kept < total


def test_corkscrew_all_dirichlet_vacuous():
    mesh = generate_structured("unit_square", 2, "dirichlet")
    assert check_corkscrew(mesh, 0.5).ok


@settings(max_examples=20, deadline=None)
@given(delta=st.floats(min_value=0.02, max_value=2.0),
       shrink=st.floats(min_value=0.1, max_value=1.0))
def test_corkscrew_monotone_in_delta(delta, shrink):
    mesh = generate_structured("unit_square", 4,
                               {"bottom": "D", "right": "N", "top": "N",
                                "left": "N"})
    if check_corkscrew(mesh, delta).ok:
        assert check_corkscrew(mesh, delta * shrink).ok


# -- invariant validation ---------------------------------------------------

def test_constructor_rejects_nonconforming_boundary():
    verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    tris = [(0, 1, 2), (0, 2, 3)]
    with pytest.raises(MeshError):
        TriMesh(verts, tris, [(0, 1), (1, 2), (2, 3)],
                (BoundaryTag.FLUX,) * 3)  # missing edge (3, 0)


def test_constructor_rejects_disconnected_mesh():
    verts = [(0, 0), (1, 0), (0, 1), (5, 5), (6, 5), (5, 6)]
    tris = [(0, 1, 2), (3, 4, 5)]
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    with pytest.raises(MeshError, match="connected"):
        TriMesh(verts, tris, edges, (BoundaryTag.FLUX,) * 6)


def test_constructor_rejects_edge_in_three_triangles():
    # three counterclockwise triangles stacked on the edge (0, 1)
    verts = [(0, 0), (1, 0), (0.5, 1), (0.5, -1), (0.5, 2)]
    tris = [(0, 1, 2), (1, 0, 3), (0, 1, 4)]
    edges = [(1, 2), (2, 0), (0, 3), (3, 1), (1, 4), (4, 0)]
    with pytest.raises(MeshError, match=r"edge \[0, 1\] shared by more "
                                        "than two triangles"):
        TriMesh(verts, tris, edges, (BoundaryTag.FLUX,) * 6)


def test_constructor_rejects_listed_interior_edge():
    verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    tris = [(0, 1, 2), (0, 2, 3)]
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (2, 0)]
    with pytest.raises(MeshError,
                       match=r"edge \[0, 2\] is not a boundary edge"):
        TriMesh(verts, tris, edges, (BoundaryTag.FLUX,) * 5)


def test_constructor_rejects_out_of_range_boundary_edge():
    # (0, 5) must not pass for the edge with the same key i * nv + j, (1, 2)
    verts = [(0, 0), (1, 0), (0, 1)]
    with pytest.raises(MeshError, match=r"untagged boundary edge \[1, 2\]; "
                                        r"edge \[0, 5\] is not a boundary"):
        TriMesh(verts, [(0, 1, 2)], [(0, 1), (2, 0), (0, 5)],
                (BoundaryTag.FLUX,) * 3)


def test_constructor_rejects_repeated_vertex():
    # a repeated vertex makes the signed area exactly zero
    verts = [(0, 0), (1, 0), (0, 1)]
    with pytest.raises(MeshError, match="triangle 0 has nonpositive signed "
                                        r"area \(0.000e\+00\)"):
        TriMesh(verts, [(0, 1, 1)], [(0, 1), (1, 2), (2, 0)],
                (BoundaryTag.FLUX,) * 3)


@pytest.mark.parametrize("shape, n", [("unit_square", 3), ("l_shape", 2),
                                      ("rectangle", 4)])
def test_edge_table_matches_counted_edges(shape, n):
    mesh = generate_structured(shape, n, "flux")
    edges, counts, side_edge = _edge_table(mesh.triangles, mesh.n_vertices)
    reference = edge_set(mesh.triangles)
    assert edges.tolist() == sorted(sorted(e) for e in reference)
    assert counts.tolist() == [reference[frozenset(e)] for e in
                               edges.tolist()]
    sides = mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    assert np.array_equal(np.sort(sides, axis=1), edges[side_edge])
    assert np.array_equal(mesh.boundary_edges, edges[counts == 1])


def test_h_max_is_computed_once(monkeypatch):
    import perronfem.mesh
    calls = []
    longest = perronfem.mesh._longest_side
    monkeypatch.setattr(perronfem.mesh, "_longest_side",
                        lambda *a: calls.append(1) or longest(*a))
    mesh = generate_structured("unit_square", 4,
                               {"bottom": "D", "right": "N", "top": "N",
                                "left": "N"})
    check_corkscrew(mesh, 0.1)
    assert mesh.h_max == 0.25 * math.sqrt(2)
    assert len(calls) == 1


@pytest.mark.parametrize("shape, n", [("unit_square", 7), ("l_shape", 5),
                                      ("rectangle", 3)])
def test_h_max_is_the_longest_edge_length(shape, n):
    mesh = generate_structured(shape, n, "N", width=2.5, height=0.7)
    rng = np.random.default_rng(n)
    moved = TriMesh(mesh.vertices + rng.uniform(-0.2, 0.2, mesh.vertices.shape)
                    / (4 * n), mesh.triangles, mesh.boundary_edges,
                    mesh.boundary_tags)
    for m in (mesh, moved):
        assert m.h_max == float(m.edge_lengths().max())


def test_generated_mesh_builds_its_edge_table_once(monkeypatch):
    import perronfem.mesh
    calls = []
    table = perronfem.mesh._edge_table
    monkeypatch.setattr(perronfem.mesh, "_edge_table",
                        lambda *a: calls.append(1) or table(*a))
    mesh = generate_structured("l_shape", 6, MIXED_L)
    assert len(calls) == 1
    # a mesh built from arrays alone, as load_mesh builds one, builds it
    TriMesh(mesh.vertices, mesh.triangles, mesh.boundary_edges,
            mesh.boundary_tags)
    assert len(calls) == 2


# save_mesh bytes of generated meshes, recorded before the edge listing was
# vectorised
MIXED_L = {"bottom": "D", "right": "N", "inner_h": "N", "inner_v": "N",
           "top": "N", "left": "N"}
PINNED_MESHES = {
    "square-n7-N": (
        ("unit_square", 7, "N"), {},
        "5f986093287e4e7efcc75ea5f4f3b84ef6c9f3ea62fffc970f445d4f8bc64089"),
    "square-n24-D": (
        ("unit_square", 24, "D"), {},
        "ee39f8bbfa1445b08481a0b20b4abe6cd3c276fb07591f9ca2798fb0e0e6bfc1"),
    "rectangle-n5-mixed": (
        ("rectangle", 5, {"bottom": "D", "right": "N", "top": "N",
                          "left": "D"}), {"width": 2.0, "height": 0.5},
        "04130770f5420617733f88690779393aceb34c8ff31a4a35a900a570a500518d"),
    "lshape-n9-mixed": (
        ("l_shape", 9, MIXED_L), {},
        "2cbe4ea5b0fb4edfcdb3a3fdd52b4a1259dcd19972e541dceaa12dd9eaaec6ca"),
    "lshape-n40-mixed": (
        ("l_shape", 40, MIXED_L), {},
        "e6a7b68c161ea2a5081bb196e448a9a089d0a9fa7519b34c282ef3e5fceb81a7"),
}


@pytest.mark.parametrize("name", sorted(PINNED_MESHES))
def test_generated_mesh_bytes_pinned(name):
    import hashlib
    args, kwargs, digest = PINNED_MESHES[name]
    text = save_mesh(generate_structured(*args, **kwargs))
    assert hashlib.sha256(text.encode()).hexdigest() == digest

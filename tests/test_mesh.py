import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hybridfem.errors import ConfigError, DegenerateElement, NonConformingMesh, ParseError
from hybridfem.mesh import (
    Mesh,
    ReferenceTriangle,
    build_reference_map,
    load_mesh,
    loads_mesh,
    uniform_refine,
    unit_square,
)

RHO_HAT = 2.0 * ReferenceTriangle.area / (ReferenceTriangle.edge_lengths.sum() / 2.0)


def test_reference_triangle_geometry():
    assert np.allclose(ReferenceTriangle.vertices, [[0, 0], [1, 0], [0, 1]])
    assert np.allclose(np.linalg.norm(ReferenceTriangle.edge_normals, axis=1), 1.0)
    assert np.allclose(ReferenceTriangle.edge_normals[0], [1 / np.sqrt(2)] * 2)
    assert ReferenceTriangle.area == 0.5


def test_identity_map():
    em = build_reference_map([[0, 0], [1, 0], [0, 1]])
    assert np.allclose(em.B, np.eye(2))
    assert em.detJ == 1.0
    assert np.allclose(em.edge_jacobians, 1.0)


def test_pure_scaling_map():
    em = build_reference_map([[0, 0], [2, 0], [0, 2]])
    assert np.allclose(em.B, 2 * np.eye(2))
    assert em.detJ == pytest.approx(4.0)
    assert np.allclose(em.edge_jacobians, 2.0)


def test_edge_jacobian_length_ratio():
    em = build_reference_map([[0, 0], [1, 0], [0, 2]])
    assert em.detJ == pytest.approx(2.0)
    # edge 0 joins (1,0) and (0,2)
    assert em.edge_jacobians[0] == pytest.approx(np.sqrt(5) / np.sqrt(2))


def test_map_invariants():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.random((3, 2)) * 4 - 2
        try:
            em = build_reference_map(v)
        except DegenerateElement:
            continue
        assert np.abs(em.B @ em.invB - np.eye(2)).max() < 1e-13
        # vertices map where they should
        assert np.abs(em.forward(ReferenceTriangle.vertices) - em.vertices).max() < 1e-13
        for i in range(3):
            assert em.edge_jacobians[i] * ReferenceTriangle.edge_lengths[i] == pytest.approx(
                em.edge_lengths[i], abs=1e-13
            )


def test_degenerate_element_raises():
    with pytest.raises(DegenerateElement):
        build_reference_map([[0, 0], [1, 1], [2, 2]])


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(0.2, 3.0),
    y=st.floats(0.2, 3.0),
    shear=st.floats(-1.5, 1.5),
    scale=st.floats(0.05, 20.0),
)
def test_scaling_bounds_on_shape_regular_family(x, y, shear, scale):
    # ||B|| <= h / rho_hat and ||B^{-1}|| <= h_hat / rho, both with c <= 2.
    v = scale * np.array([[0.0, 0.0], [x, 0.0], [shear, y]])
    em = build_reference_map(v)
    sides = em.edge_lengths
    h = sides.max()
    area = 0.5 * em.detJ
    rho = 2.0 * area / (sides.sum() / 2.0)
    normB = np.linalg.norm(em.B, 2)
    normBinv = np.linalg.norm(em.invB, 2)
    assert normB <= h / RHO_HAT * (1 + 1e-12)
    assert normB <= 2.0 * h
    assert normBinv <= np.sqrt(2.0) / rho * (1 + 1e-12)
    assert normBinv <= 2.0 / rho
    # |J| ~ h^2 within the aspect-ratio-dependent window
    gamma = h / rho
    assert 1.0 / gamma <= em.detJ / h**2 + 1e-12
    assert em.detJ / h**2 <= 2.0


def test_unit_square_counts_and_area():
    m = unit_square(1)
    assert m.num_triangles == 2
    assert m.num_edges == 5
    assert m.boundary.sum() == 4
    m = unit_square(2)
    assert m.num_triangles == 8
    assert abs(m.areas.sum() - 1.0) < 1e-12
    m = unit_square(3)
    assert m.num_triangles == 18


def test_uniform_refine_counts():
    m = unit_square(1)
    r = uniform_refine(m)
    assert r.num_triangles == 8
    assert r.h_max == pytest.approx(m.h_max / 2)
    assert r.boundary.sum() == 2 * m.boundary.sum()
    rr = uniform_refine(r)
    assert rr.num_triangles == 32
    assert abs(rr.areas.sum() - 1.0) < 1e-12


def test_refine_preserves_shape_regularity():
    def h_over_rho(mesh):
        # rho, the inscribed-circle diameter, is 2 * area / semiperimeter
        rho = 2.0 * mesh.areas / (0.5 * mesh.geometry.edge_lengths.sum(axis=1))
        return (mesh.h / rho).max()

    m = unit_square(2)
    ratio = h_over_rho(m)
    r = m
    for _ in range(3):
        r = uniform_refine(r)
        assert h_over_rho(r) == pytest.approx(ratio, rel=1e-12)


def test_refine_conformity():
    m = uniform_refine(unit_square(2))
    interior = ~m.boundary
    assert (m.edge_tris[interior] >= 0).all()
    assert (m.edge_tris[m.boundary, 1] == -1).all()


def test_triangles_counterclockwise():
    m = uniform_refine(unit_square(3))
    p = m.vertices[m.triangles]
    a, b = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    assert (cross > 0).all()


def test_edge_normal_convention():
    # The stored edge direction makes the right-handed normal outward for the
    # lower-id owner.
    m = uniform_refine(unit_square(2))
    for e in range(m.num_edges):
        t = m.edge_tris[e, 0]
        loc = int(np.flatnonzero(m.tri_edges[t] == e)[0])
        em = m.element_map(t)
        tang = m.vertices[m.edges[e, 1]] - m.vertices[m.edges[e, 0]]
        assert np.allclose(np.array([tang[1], -tang[0]]) / m.edge_lengths[e], em.edge_normals[loc])


SQUARE = """4 2
0 0
1 0
1 1
0 1
0 1 2
0 2 3
"""

# triangles 1 and 2 are one triangle, listed twice, meeting triangle 0 at a vertex
DUPLICATE_TRIANGLE = """5 3
0 0
1 0
1 1
2 1
2 2
0 1 2
2 3 4
4 3 2
"""


def test_load_mesh_square():
    m = loads_mesh(SQUARE)
    assert m.num_vertices == 4
    assert m.num_triangles == 2
    assert m.num_edges == 5
    assert m.boundary.sum() == 4


def test_load_mesh_duplicate_triangle():
    # appending a copy of the first triangle gives edge (0, 2) three owners
    text = SQUARE.replace("4 2", "4 3") + "0 1 2\n"
    with pytest.raises(NonConformingMesh):
        loads_mesh(text)


def test_triangle_listed_twice_in_another_vertex_order_raises():
    # the two copies own every edge together, so no edge has three owners
    with pytest.raises(NonConformingMesh, match="triangles 0 and 1"):
        Mesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2], [0, 2, 1]])


def test_load_mesh_triangle_listed_twice():
    with pytest.raises(NonConformingMesh, match="triangles 1 and 2"):
        loads_mesh(DUPLICATE_TRIANGLE)


def test_load_mesh_empty_triangles():
    with pytest.raises(ParseError):
        loads_mesh("4 0\n0 0\n1 0\n1 1\n0 1\n")


def test_load_mesh_reports_line_numbers():
    with pytest.raises(ParseError) as err:
        loads_mesh("4 2\n0 0\n1 0\nbad line\n0 1\n0 1 2\n0 2 3\n")
    assert err.value.line == 4


def test_load_mesh_rejects_surplus_lines():
    # header "4 1" with two triangle lines: the second must not be dropped
    with pytest.raises(ParseError, match="expected 5 data lines, found 6") as err:
        loads_mesh("4 1\n0 0\n1 0\n1 1\n0 1\n0 1 2\n\n0 2 3\n")
    assert err.value.line == 8


def test_load_mesh_from_file_object():
    m = load_mesh(io.StringIO(SQUARE))
    assert m.num_triangles == 2


@pytest.mark.parametrize("form", ["path", "string", "stream"])
def test_load_mesh_accepts_a_byte_order_mark(tmp_path, form):
    # some editors start a UTF-8 file with U+FEFF
    text = "\ufeff3 1\n0 0\n1 0\n0 1\n0 1 2\n"
    if form == "path":
        path = tmp_path / "bom.msh"
        path.write_bytes(text.encode("utf-8"))
        mesh = load_mesh(path)
    else:
        mesh = loads_mesh(text) if form == "string" else load_mesh(io.StringIO(text))
    plain = loads_mesh(text[1:])
    assert np.array_equal(mesh.vertices, plain.vertices)
    assert np.array_equal(mesh.triangles, plain.triangles)
    assert (mesh.num_vertices, mesh.num_triangles) == (3, 1)


def test_load_mesh_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.msh"
    path.write_bytes(b"\xff\xfe 3 1\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        load_mesh(path)


@pytest.mark.parametrize(
    "triangles",
    [[[0, 1]], [0, 1, 2], [[[0, 1, 2]]], [[0, 1, 3]], [[0, -1, 2]]],
    ids=["two-columns", "flat", "three-axes", "missing-vertex", "negative-index"],
)
def test_mesh_rejects_a_bad_triangle_array(triangles):
    with pytest.raises(NonConformingMesh):
        Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], triangles)


@pytest.mark.parametrize(
    "vertices",
    [[[0, 0], [1, 0]], [[0, 0, 0], [1, 0, 0], [0, 1, 0]], [0, 1, 2], [[0, 0], [1, 0], [0, 1], [1, 1]]],
    ids=["two-vertices", "3d-vertices", "flat", "four-vertices"],
)
def test_reference_map_needs_three_2d_vertices(vertices):
    with pytest.raises(DegenerateElement):
        build_reference_map(vertices)


@pytest.mark.parametrize("n", [0, -1])
def test_unit_square_needs_a_positive_size(n):
    with pytest.raises(ConfigError):
        unit_square(n)


def test_mesh_rejects_bad_indices():
    with pytest.raises(ParseError):
        loads_mesh("3 1\n0 0\n1 0\n0 1\n0 1 5\n")


def _perturbed_square():
    m = uniform_refine(unit_square(3))
    rng = np.random.default_rng(11)
    interior = np.ones(m.num_vertices, dtype=bool)
    interior[m.edges[m.boundary].ravel()] = False
    verts = m.vertices.copy()
    verts[interior] += 0.03 * (rng.random((int(interior.sum()), 2)) - 0.5)
    return Mesh(verts, m.triangles)


def _connectivity_cases():
    for n in range(1, 5):
        m = unit_square(n)
        for level in range(3):
            yield pytest.param(m, id=f"unit_square({n})-refined-{level}")
            m = uniform_refine(m)
    yield pytest.param(_perturbed_square(), id="perturbed")
    # the loaded square lists its second triangle clockwise
    yield pytest.param(loads_mesh(SQUARE.replace("0 2 3", "0 3 2")), id="loaded")


@pytest.mark.parametrize("mesh", list(_connectivity_cases()))
def test_connectivity_matches_dict_builder(mesh):
    want = oracles.reference_connectivity(mesh.vertices, mesh.triangles)
    got = (mesh.triangles, mesh.edges, mesh.edge_tris, mesh.tri_edges, mesh.tri_edge_aligned)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unit_square_and_refinement_match_loop_builders(n):
    verts, tris = oracles.reference_unit_square(n)
    m = unit_square(n)
    assert np.array_equal(m.vertices, verts) and np.array_equal(m.triangles, tris)
    for _ in range(2):
        verts, tris = oracles.reference_refine(m)
        m = uniform_refine(m)
        assert np.array_equal(m.vertices, verts) and np.array_equal(m.triangles, tris)


def test_element_maps_are_views_of_the_mesh_geometry():
    m = _perturbed_square()
    for t in (0, 7, m.num_triangles - 1):
        em, ref = m.element_map(t), build_reference_map(m.vertices[m.triangles[t]])
        for name in ("B", "b", "det", "detJ", "invB", "vertices", "edge_lengths",
                     "edge_jacobians", "edge_normals", "h"):
            assert np.array_equal(getattr(em, name), getattr(ref, name)), name
    assert np.array_equal(m.h, m.geometry.edge_lengths.max(axis=1))
    assert np.array_equal(m.areas, 0.5 * m.geometry.detJ)


def test_three_owners_of_an_edge_raise():
    verts = [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.3, 2.0]]
    with pytest.raises(NonConformingMesh):
        Mesh(verts, [[0, 1, 2], [0, 1, 3], [0, 1, 4]])


def test_degenerate_triangle_rejected_on_construction():
    verts = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]
    with pytest.raises(DegenerateElement):
        Mesh(verts, [[0, 1, 3], [0, 1, 2]])
    with pytest.raises(DegenerateElement):
        loads_mesh("4 2\n0 0\n1 0\n2 0\n0 1\n0 1 3\n0 1 2\n")
    # a non-finite vertex, rejected before the orientation test multiplies it
    for value in (np.nan, np.inf, -np.inf):
        bad = [[0.0, 0.0], [1.0, 0.0], [1.0, value], [0.0, 1.0]]
        with pytest.raises(DegenerateElement):
            Mesh(bad, [[0, 1, 2], [0, 2, 3]])
        with pytest.raises(DegenerateElement):
            build_reference_map(bad[:3])


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_mesh_rejects_nonfinite_vertex(value):
    with pytest.raises(ParseError) as err:
        loads_mesh(SQUARE.replace("0 1\n0 1 2", f"{value} 1\n0 1 2"))
    assert err.value.line == 5
    assert "finite" in str(err.value)


def test_load_mesh_rejects_oversized_vertex_index():
    with pytest.raises(ParseError) as err:
        loads_mesh("3 1\n0 0\n1 0\n0 1\n0 1 99999999999999999999999\n")
    assert err.value.line == 5


def test_forward_maps_match_per_element_affine_maps():
    m = _perturbed_square()
    geo = m.geometry
    xhat = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.2, 0.3], [0.7, 0.1]])
    t = np.array([0.0, 0.25, 0.9])
    got, got_edges = geo.forward(xhat), geo.edge_forward(t)
    for e in range(m.num_triangles):
        B, b = geo.B[e], geo.vertices[e, 0]
        want = np.array([B @ x + b for x in xhat])
        assert np.abs(got[e] - want).max() <= 1e-15 * np.abs(want).max()
        for loc in range(3):
            want = np.array([B @ x + b for x in ReferenceTriangle.edge_points(loc, t)])
            assert np.abs(got_edges[e, loc] - want).max() <= 1e-15 * np.abs(want).max()
        # the element map is a view of row e, and maps back and forth
        em = m.element_map(e)
        for name in ("B", "detJ", "invB", "edge_lengths", "edge_jacobians", "edge_normals", "b", "h"):
            assert np.array_equal(getattr(em, name), getattr(geo, name)[e]), name
        assert np.shares_memory(em.B, geo.B)
        assert np.abs(em.inverse(em.forward(xhat)) - xhat).max() <= 1e-14
        scaled = dataclasses.replace(em, detJ=2.0 * float(em.detJ))
        assert scaled.rows(None).detJ[0] == 2.0 * geo.detJ[e]


_MESH_TEXT = "9 8\n" + "".join(
    f"{x} {y}\n" for y in (0, 0.5, 1) for x in (0, 0.5, 1)
) + "0 1 4\n0 4 3\n1 2 5\n1 5 4\n3 4 7\n3 7 6\n4 5 8\n4 8 7\n"

_TOKENS = st.one_of(
    st.integers(-(10**25), 10**25).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(alphabet="0123456789+-.eEinfa_ ", max_size=6),
)


@st.composite
def _mutated_mesh_text(draw):
    """The 3x3-vertex square file with a few tokens replaced and lines
    dropped, repeated or swapped."""
    lines = [line.split() for line in _MESH_TEXT.splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("token", "token", "drop", "repeat", "swap")))
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "token" and lines[i]:
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(_TOKENS)
        elif kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, list(lines[i]))
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(" ".join(tok) for tok in lines) + "\n"


def test_mutation_base_file_is_valid():
    assert loads_mesh(_MESH_TEXT).num_triangles == 8


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(max_size=80), _mutated_mesh_text()))
def test_loads_mesh_fuzz_raises_only_mesh_errors(text):
    try:
        mesh = loads_mesh(text)
    except (ParseError, NonConformingMesh, DegenerateElement):
        return
    assert np.isfinite(mesh.vertices).all()
    assert (mesh.geometry.det > 0).all()


def test_load_mesh_rejects_huge_vertex_coordinate():
    with pytest.raises(ParseError) as err:
        loads_mesh(SQUARE.replace("0 1\n0 1 2", "1e200 1\n0 1 2"))
    assert err.value.line == 5

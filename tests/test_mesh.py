import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hybridfem.errors import DegenerateElement, NonConformingMesh, ParseError
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
    assert m.num_boundary_edges == 4
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
    assert r.num_boundary_edges == 2 * m.num_boundary_edges
    rr = uniform_refine(r)
    assert rr.num_triangles == 32
    assert abs(rr.areas.sum() - 1.0) < 1e-12


def test_refine_preserves_shape_regularity():
    m = unit_square(2)
    ratio = m.shape_regularity()
    r = m
    for _ in range(3):
        r = uniform_refine(r)
        assert r.shape_regularity() == pytest.approx(ratio, rel=1e-12)


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
        assert np.allclose(m.edge_unit_normal(e), em.edge_normals[loc])


SQUARE = """4 2
0 0
1 0
1 1
0 1
0 1 2
0 2 3
"""


def test_load_mesh_square():
    m = loads_mesh(SQUARE)
    assert m.num_vertices == 4
    assert m.num_triangles == 2
    assert m.num_edges == 5
    assert m.num_boundary_edges == 4


def test_load_mesh_duplicate_triangle():
    # appending a copy of the first triangle gives edge (0, 2) three owners
    text = SQUARE.replace("4 2", "4 3") + "0 1 2\n"
    with pytest.raises(NonConformingMesh):
        loads_mesh(text)


def test_load_mesh_empty_triangles():
    with pytest.raises(ParseError):
        loads_mesh("4 0\n0 0\n1 0\n1 1\n0 1\n")


def test_load_mesh_reports_line_numbers():
    with pytest.raises(ParseError) as err:
        loads_mesh("4 2\n0 0\n1 0\nbad line\n0 1\n0 1 2\n0 2 3\n")
    assert err.value.line == 4


def test_load_mesh_from_file_object():
    m = load_mesh(io.StringIO(SQUARE))
    assert m.num_triangles == 2


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_mesh_rejects_nonfinite_vertex(value):
    with pytest.raises(ParseError) as err:
        loads_mesh(SQUARE.replace("0 1\n0 1 2", f"{value} 1\n0 1 2"))
    assert err.value.line == 5
    assert "finite" in str(err.value)

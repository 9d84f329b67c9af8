"""Batched operators against their element-by-element references.

Error norms, projections, postprocessing and diagnostics run as array code
over all elements; ``tests/oracles.py`` keeps the one-element-at-a-time
versions they replaced.  Coefficients agree to 1e-12 relative to their
scale.  Norms agree to 1e-12 relative, but never closer than 1e-16
absolute: the superconvergent norms are distances of order 1e-6 between
fields of order one, whose pointwise values carry round-off near 1e-16 in
either evaluation order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hybridfem.polyspaces as ps
import hybridfem.projections as pj
import oracles
from hybridfem.harness import CASES, SATURATION, StudyConfig, compute_error_norms, run_study
from hybridfem.mesh import Mesh, uniform_refine, unit_square
from hybridfem.methods import (
    SpaceDescriptor,
    StabilizationFunction,
    _flux_mass,
    _project_elements,
    _project_faces,
    assemble,
    conservation_residuals,
    energy_identity_residual,
    flux_jump_norms,
    solve_hybridized,
    solve_saddle,
)
from hybridfem.postprocess import _stiffness, gradient_postprocess, stenberg

SPACES = (
    [("rt", k, None) for k in range(4)]
    + [("bdm", k, None) for k in range(1, 4)]
    + [("hdg", k, tau) for k in range(4) for tau in ("constant", "single-face")]
)


def perturbed(mesh, seed, amplitude):
    """``mesh`` with every interior vertex moved by at most ``amplitude``
    times the shortest edge, in a random direction."""
    rng = np.random.default_rng(seed)
    interior = np.ones(mesh.num_vertices, dtype=bool)
    interior[mesh.edges[mesh.boundary].ravel()] = False
    n = int(interior.sum())
    radius = amplitude * mesh.edge_lengths.min() * np.sqrt(rng.random(n))
    angle = 2.0 * np.pi * rng.random(n)
    verts = mesh.vertices.copy()
    verts[interior] += np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    return Mesh(verts, mesh.triangles)


MESHES = {
    "regular": uniform_refine(unit_square(2)),
    "perturbed": perturbed(uniform_refine(unit_square(2)), 3, 0.2),
}


def assemble_case(mesh, method, k, tau, case, quad_exactness=None):
    if tau == "constant":
        tau = StabilizationFunction.constant(mesh)
    elif tau == "single-face":
        tau = StabilizationFunction.single_face(mesh)
    return assemble(mesh, SpaceDescriptor(method, k), case.data(), tau=tau,
                    quad_exactness=quad_exactness)


def solve(mesh, method, k, tau, case):
    return solve_hybridized(assemble_case(mesh, method, k, tau, case))


def assert_norms_match(got, want):
    assert list(got) == list(want)
    for key, value in want.items():
        tol = 1e-13 if value < SATURATION else 1e-12 * max(value, 1e-4)
        assert abs(got[key] - value) <= tol, (key, got[key], value)


def assert_close(got, want, rtol=1e-12):
    scale = max(float(np.abs(want).max(initial=0.0)), 1e-300)
    assert np.abs(np.asarray(got) - want).max(initial=0.0) <= rtol * scale


def project_elements(triple, q, u, exactness):
    """The element projections of an exact solution on the whole mesh."""
    vol, erule = ps.quadrature_rules(triple.space.degree, exactness)
    return _project_elements(triple, *pj._sample([q, u], triple.mesh.geometry, vol, erule), exactness)


def check_against_oracles(triple, case):
    data = case.data()
    k = triple.space.degree
    posts = [stenberg(triple, data), gradient_postprocess(triple, data)]
    norms = oracles.reference_error_norms(triple, case, posts)
    assert_norms_match(compute_error_norms(triple, case, posts), norms)
    # A projection applied to the mesh gives the bits of its batches of one.
    got = (*project_elements(triple, case.q, case.u, 2 * k + 6), _project_faces(triple, case.u, 2 * k + 6))
    want = oracles.reference_project_triple(triple, case.q, case.u, 2 * k + 6)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    coeffs, decomposed = oracles.reference_stenberg(triple, data)
    assert_close(posts[0].coeffs, coeffs)
    assert np.array_equal(posts[0].decomposed, decomposed)
    assert_close(posts[1].coeffs, oracles.reference_gradient_postprocess(triple, data))
    # Residuals and jumps are round-off; their scale is that of the data.
    want = oracles.reference_conservation_residuals(triple, data)
    fscale = max(1.0, float(np.abs(want).max()))
    assert np.abs(conservation_residuals(triple, data) - want).max() <= 1e-12 * fscale
    assert np.abs(flux_jump_norms(triple) - oracles.reference_flux_jump_norms(triple)).max() <= 1e-12
    got = energy_identity_residual(triple, case.q, case.u, data)
    want = oracles.reference_energy_identity_residual(triple, case.q, case.u, data)
    assert abs(got - want) <= 1e-12 * max(norms["eq_proj_w"] ** 2, 1e-4)


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
@pytest.mark.parametrize("case_name", ["linear", "smooth", "varkappa", "reaction"])
@pytest.mark.parametrize("method,k,tau", SPACES)
def test_batched_operators_match_oracles(method, k, tau, case_name, mesh_name):
    case = CASES[case_name]
    check_against_oracles(solve(MESHES[mesh_name], method, k, tau, case), case)


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
@pytest.mark.parametrize("quad_exactness", [None, 20])
@pytest.mark.parametrize("method,k,tau", SPACES)
def test_element_matrices_match_quadrature_loop(method, k, tau, quad_exactness, mesh_name):
    """The flux mass, the reaction (plus stabilization) block, the edge
    blocks and the postprocessing stiffness, each built from reference
    tables, against sums over the points of every element."""
    mesh = MESHES[mesh_name]
    case = CASES["varkappa"].with_reaction(CASES["reaction"].c)
    blocks = assemble_case(mesh, method, k, tau, case, quad_exactness)
    C, D, Swl = oracles.element_blocks(blocks)
    A_ref, D_ref = oracles.reference_element_masses(blocks, quad_exactness)
    assert_close(_flux_mass(blocks), A_ref, rtol=1e-13)
    assert_close(D, D_ref, rtol=1e-13)
    C_ref, Swl_ref = oracles.reference_edge_blocks(blocks, quad_exactness)
    assert_close(C, C_ref, rtol=1e-13)
    assert_close(Swl, Swl_ref, rtol=1e-13)
    vol = ps.triangle_rule(quad_exactness or 2 * (k + 1) + 4)
    kappa = case.kappa(mesh.geometry.forward(vol.points).reshape(-1, 2)).reshape(mesh.num_triangles, -1)
    want = oracles.reference_stiffness(mesh, k + 1, case.kappa, vol)
    table = ps.packed_gram_table(ps.scalar_basis(k + 1).grad(vol.points))
    assert_close(_stiffness(mesh.geometry, table, vol, kappa), want, rtol=1e-13)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    amplitude=st.floats(0.0, 0.25),
    space=st.sampled_from([s for s in SPACES if s[1] <= 2] + [("hdg", k, "drawn") for k in range(3)]),
    case_name=st.sampled_from(["smooth", "varkappa", "reaction"]),
    # "drawn" HDG stabilization: tau in [0.1, 10] on every face of the 8
    # triangles, except one face with tau = 0 in the elements drawn for it
    tau_faces=st.lists(st.floats(0.1, 10.0), min_size=24, max_size=24),
    zero_face=st.lists(st.sampled_from([None, 0, 1, 2]), min_size=8, max_size=8),
)
def test_perturbed_meshes_batched_and_saddle_agree(seed, amplitude, space, case_name, tau_faces, zero_face):
    mesh = perturbed(uniform_refine(unit_square(1)), seed, amplitude)
    case = CASES[case_name]
    method, k, tau = space
    if tau == "drawn":
        values = np.reshape(tau_faces, (8, 3))
        for t, face in enumerate(zero_face):
            if face is not None:
                values[t, face] = 0.0
        tau = StabilizationFunction(values)
    triple = solve(mesh, method, k, tau, case)
    check_against_oracles(triple, case)
    tau = None if tau is None else triple.tau
    saddle = solve_saddle(assemble(mesh, SpaceDescriptor(method, k), case.data(), tau=tau))
    for name in ("q_coeffs", "u_coeffs", "lam"):
        assert_close(getattr(saddle, name), getattr(triple, name), rtol=1e-9)
    # One owner of every interior edge runs along it and the other against
    # it; the element balance and the flux continuity hold to round-off.
    assert np.abs(conservation_residuals(triple, case.data())).max() <= 1e-12
    assert flux_jump_norms(triple).max() <= 1e-12


def test_study_and_diagnostics_use_no_element_maps(monkeypatch):
    def per_element(*args):
        raise AssertionError("per-element map requested")

    monkeypatch.setattr(Mesh, "element_map", per_element)
    monkeypatch.setattr(Mesh, "element_maps", per_element)
    report = run_study(StudyConfig(method="hdg", degree=1, levels=3, postprocess="both"))
    assert report.passed
    case = CASES["smooth"]
    triple = solve(uniform_refine(unit_square(2)), "hdg", 1, "constant", case)
    assert np.abs(conservation_residuals(triple, case.data())).max() < 1e-10
    assert flux_jump_norms(triple).max() < 1e-10
    assert energy_identity_residual(triple, case.q, case.u, case.data()) < 1e-6

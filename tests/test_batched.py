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

import oracles
from hybridfem.harness import CASES, SATURATION, StudyConfig, compute_error_norms, run_study
from hybridfem.mesh import Mesh, uniform_refine, unit_square
from hybridfem.methods import (
    SpaceDescriptor,
    StabilizationFunction,
    _project_triple,
    assemble,
    conservation_residuals,
    energy_identity_residual,
    flux_jump_norms,
    solve_hybridized,
    solve_saddle,
)
from hybridfem.postprocess import gradient_postprocess, stenberg

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


def solve(mesh, method, k, tau, case):
    if tau == "constant":
        tau = StabilizationFunction.constant(mesh)
    elif tau == "single-face":
        tau = StabilizationFunction.single_face(mesh)
    return solve_hybridized(assemble(mesh, SpaceDescriptor(method, k), case.data(), tau=tau))


def assert_norms_match(got, want):
    assert list(got) == list(want)
    for key, value in want.items():
        tol = 1e-13 if value < SATURATION else 1e-12 * max(value, 1e-4)
        assert abs(got[key] - value) <= tol, (key, got[key], value)


def assert_close(got, want, rtol=1e-12):
    scale = max(float(np.abs(want).max(initial=0.0)), 1e-300)
    assert np.abs(np.asarray(got) - want).max(initial=0.0) <= rtol * scale


def check_against_oracles(triple, case):
    data = case.data()
    k = triple.space.degree
    posts = [stenberg(triple, data), gradient_postprocess(triple, data)]
    norms = oracles.reference_error_norms(triple, case, posts)
    assert_norms_match(compute_error_norms(triple, case, posts), norms)
    got = _project_triple(triple, case.q, case.u, 2 * k + 6)
    want = oracles.reference_project_triple(triple, case.q, case.u, 2 * k + 6)
    for g, w in zip(got, want):
        assert_close(g, w)
    coeffs, decomposed = oracles.reference_stenberg(triple, data)
    assert_close(posts[0].coeffs, coeffs)
    assert np.array_equal(posts[0].decomposed, decomposed)
    assert_close(posts[1].coeffs, oracles.reference_gradient_postprocess(triple, data))
    # Residuals and jumps are round-off; their scale is that of the data.
    fscale = max(1.0, float(np.abs(oracles.reference_conservation_residuals(triple, data)).max()))
    for reaction in (False, True):
        got = conservation_residuals(triple, data, include_reaction=reaction)
        want = oracles.reference_conservation_residuals(triple, data, include_reaction=reaction)
        assert np.abs(got - want).max() <= 1e-12 * fscale
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


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    amplitude=st.floats(0.0, 0.25),
    space=st.sampled_from([s for s in SPACES if s[1] <= 2]),
    case_name=st.sampled_from(["smooth", "varkappa", "reaction"]),
)
def test_perturbed_meshes_batched_and_saddle_agree(seed, amplitude, space, case_name):
    mesh = perturbed(uniform_refine(unit_square(1)), seed, amplitude)
    case = CASES[case_name]
    method, k, tau = space
    triple = solve(mesh, method, k, tau, case)
    check_against_oracles(triple, case)
    tau = None if tau is None else triple.tau
    saddle = solve_saddle(assemble(mesh, SpaceDescriptor(method, k), case.data(), tau=tau))
    for name in ("q_coeffs", "u_coeffs", "lam"):
        assert_close(getattr(saddle, name), getattr(triple, name), rtol=1e-9)


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

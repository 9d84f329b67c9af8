import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse.linalg as spla

import hybridfem.methods as methods
import hybridfem.polyspaces as ps
from hybridfem.errors import (
    InvalidProblemData,
    InvalidStabilization,
    NonPositiveDiffusion,
    SingularLocalSolver,
    SingularSystem,
    TooLarge,
    UnsupportedDegree,
)
from hybridfem.harness import CASES, compute_error_norms
from hybridfem.mesh import Mesh, unit_square, uniform_refine
from hybridfem.methods import (
    FieldTriple,
    ProblemData,
    SpaceDescriptor,
    StabilizationFunction,
    _project_triple,
    _saddle_matrix,
    assemble,
    condensed_system,
    conservation_residuals,
    dirichlet_form,
    energy_identity_residual,
    flux_jump_norms,
    solve_hybridized,
    solve_primal,
    solve_saddle,
    system_residual,
)

from oracles import reference_dirichlet_pieces, reference_saddle_matrix

SMOOTH = CASES["smooth"]
LINEAR = CASES["linear"]
REACTION = CASES["reaction"]


def make_tau(mesh, value=1.0):
    return StabilizationFunction.constant(mesh, value)


def solve_case(mesh, method, k, case, tau_value=1.0, path="hybridized"):
    space = SpaceDescriptor(method, k)
    tau = make_tau(mesh, tau_value) if method == "hdg" else None
    blocks = assemble(mesh, space, case.data(), tau=tau)
    triple = solve_hybridized(blocks) if path == "hybridized" else solve_saddle(blocks)
    return blocks, triple


# ------------------------------------------------------------- descriptors


def test_space_descriptor_validation():
    with pytest.raises(UnsupportedDegree):
        SpaceDescriptor("bdm", 0)
    with pytest.raises(UnsupportedDegree):
        SpaceDescriptor("rt", 4)
    with pytest.raises(UnsupportedDegree):
        SpaceDescriptor("nope", 1)


def test_dof_counts_two_triangles():
    mesh = unit_square(1)
    space = SpaceDescriptor("rt", 0)
    blocks = assemble(mesh, space, LINEAR.data())
    assert blocks.layout.n_flux == 6      # 3 per element
    assert blocks.layout.n_scalar == 2
    assert blocks.layout.n_face == 5      # (k+1) per edge
    for k in range(3):
        sp = SpaceDescriptor("hdg", k)
        b = assemble(mesh, sp, LINEAR.data(), tau=make_tau(mesh))
        assert b.layout.n_face == (k + 1) * mesh.num_edges


def test_assemble_requires_matching_stabilization():
    mesh = unit_square(1)
    with pytest.raises(InvalidStabilization):
        assemble(mesh, SpaceDescriptor("hdg", 1), LINEAR.data())
    with pytest.raises(InvalidStabilization):
        assemble(mesh, SpaceDescriptor("rt", 1), LINEAR.data(), tau=make_tau(mesh))
    with pytest.raises(InvalidStabilization):
        StabilizationFunction(np.zeros((2, 3)))
    with pytest.raises(InvalidStabilization):
        StabilizationFunction(-np.ones((2, 3)))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_stabilization_rejects_nonfinite_values(value):
    with pytest.raises(InvalidStabilization):
        StabilizationFunction(np.array([[1.0, value, 1.0]]))


def test_assemble_rejects_nonpositive_diffusion():
    mesh = unit_square(1)
    bad = ProblemData(
        kappa=lambda x: x[:, 0] - 0.5, f=lambda x: np.zeros(len(x)), g=lambda x: np.zeros(len(x))
    )
    with pytest.raises(NonPositiveDiffusion):
        assemble(mesh, SpaceDescriptor("rt", 0), bad)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_assemble_rejects_nonfinite_diffusion(value):
    data = ProblemData(
        kappa=lambda x: np.where(x[:, 0] > 0.5, value, 1.0),
        f=lambda x: np.zeros(len(x)),
        g=lambda x: np.zeros(len(x)),
    )
    with pytest.raises(NonPositiveDiffusion):
        assemble(unit_square(2), SpaceDescriptor("rt", 1), data)


@pytest.mark.parametrize("name", ["f", "g", "c"])
@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_assemble_rejects_nonfinite_data(name, value):
    def bad(x):
        return np.where(x[:, 1] > 0.5, value, 1.0)

    def one(x):
        return np.ones(len(x))

    data = ProblemData(kappa=one, f=one, g=one, c=one)
    setattr(data, name, bad)
    mesh = unit_square(2)
    with pytest.raises(InvalidProblemData):
        assemble(mesh, SpaceDescriptor("hdg", 1), data, tau=make_tau(mesh))


def test_assemble_rejects_negative_reaction():
    data = REACTION.data()
    data.c = lambda x: x[:, 0] - 0.5
    with pytest.raises(InvalidProblemData):
        assemble(unit_square(2), SpaceDescriptor("bdm", 1), data)


@pytest.mark.parametrize("solve", [solve_hybridized, solve_saddle])
def test_solvers_reject_nonfinite_blocks(solve):
    # blocks edited after assembly bypass its data checks; both solvers
    # still refuse to return a NaN field
    blocks = assemble(uniform_refine(unit_square(2)), SpaceDescriptor("rt", 1), SMOOTH.data())
    blocks.F[:] = np.nan
    with pytest.raises(SingularSystem):
        solve(blocks)


def test_condensed_system_rejects_singular_element():
    # with A = 0 the RT k=0 local matrix [[0, -B^T], [B, 0]] has rank 2
    blocks = assemble(uniform_refine(unit_square(1)), SpaceDescriptor("rt", 0), SMOOTH.data())
    blocks.A[3] = 0.0
    with pytest.raises(SingularLocalSolver):
        condensed_system(blocks)


def test_single_face_stabilization_picks_longest_edge():
    mesh = unit_square(2)
    tau = StabilizationFunction.single_face(mesh)
    for t in range(mesh.num_triangles):
        active = np.flatnonzero(tau.values[t])
        assert len(active) == 1
        lengths = mesh.edge_lengths[mesh.tri_edges[t]]
        assert lengths[active[0]] == pytest.approx(lengths.max())


def test_tau_dependence_localized_to_stabilization_blocks():
    # doubling tau changes exactly the stabilization entries, linearly;
    # extrapolating them to tau = 0 recovers the mixed-method blocks
    mesh = unit_square(2)
    space = SpaceDescriptor("hdg", 1)
    b1 = assemble(mesh, space, SMOOTH.data(), tau=make_tau(mesh, 1.0))
    b2 = assemble(mesh, space, SMOOTH.data(), tau=make_tau(mesh, 2.0))
    assert np.abs(b1.A - b2.A).max() == 0.0
    assert np.abs(b1.C - b2.C).max() == 0.0
    assert np.abs(b1.F - b2.F).max() == 0.0
    assert np.abs((b2.D - b1.D) - b1.D).max() < 1e-13  # D linear in tau, D(0) = 0
    assert np.abs((b2.Swl - b1.Swl) - b1.Swl).max() < 1e-13


# ------------------------------------------------------------- saddle solve


@pytest.mark.parametrize("method,k", [("rt", 1), ("bdm", 2), ("hdg", 1)])
def test_saddle_matrix_symmetry_after_sign_flip(method, k):
    mesh = uniform_refine(unit_square(1))
    space = SpaceDescriptor(method, k)
    tau = make_tau(mesh) if method == "hdg" else None
    blocks = assemble(mesh, space, SMOOTH.data(), tau=tau)
    A, rhs, interior = _saddle_matrix(blocks)
    D = np.ones(A.shape[0])
    nQ = blocks.layout.n_flux
    D[nQ : nQ + blocks.layout.n_scalar] = -1.0
    M = A.toarray() * D[None, :]
    assert np.abs(M - M.T).max() < 1e-13 * max(1.0, np.abs(M).max())


@pytest.mark.parametrize("method,k", [("rt", 0), ("rt", 1), ("bdm", 1), ("hdg", 0), ("hdg", 2)])
def test_solver_residual(method, k):
    mesh = uniform_refine(unit_square(2))
    blocks, triple = solve_case(mesh, method, k, SMOOTH)
    assert system_residual(blocks, triple) < 1e-10


@pytest.mark.parametrize("method,k", [("rt", 0), ("rt", 2), ("bdm", 1), ("hdg", 1), ("hdg", 3)])
def test_hybridized_matches_saddle(method, k):
    # reference configuration: 32 triangles, coefficient gap below 1e-8
    mesh = uniform_refine(uniform_refine(unit_square(1)))
    assert mesh.num_triangles == 32
    b1, t1 = solve_case(mesh, method, k, SMOOTH, path="hybridized")
    _, t2 = solve_case(mesh, method, k, SMOOTH, path="saddle")
    assert np.abs(t1.q_coeffs - t2.q_coeffs).max() < 1e-8
    assert np.abs(t1.u_coeffs - t2.u_coeffs).max() < 1e-8
    assert np.abs(t1.lam - t2.lam).max() < 1e-8


def test_double_valued_interior_stabilization():
    # tau may differ between the two owners of an interior edge; both solve
    # paths agree and the numerical flux stays single-valued
    mesh = uniform_refine(unit_square(1))
    rng = np.random.default_rng(8)
    tau = StabilizationFunction(rng.random((mesh.num_triangles, 3)) + 0.2)
    space = SpaceDescriptor("hdg", 1)
    blocks = assemble(mesh, space, SMOOTH.data(), tau=tau)
    t1 = solve_hybridized(blocks)
    t2 = solve_saddle(blocks)
    assert np.abs(t1.q_coeffs - t2.q_coeffs).max() < 1e-8
    assert system_residual(blocks, t1) < 1e-10
    assert flux_jump_norms(t1).max() < 1e-9
    # linear data stays exact for k >= 1 under any admissible tau
    blocks = assemble(mesh, space, LINEAR.data(), tau=tau)
    t3 = solve_hybridized(blocks)
    qc, uc, lamc = _project_triple(t3, LINEAR.q, LINEAR.u, None)
    assert np.abs(qc - t3.q_coeffs).max() < 1e-10
    assert np.abs(uc - t3.u_coeffs).max() < 1e-10


def test_hybridized_matches_saddle_with_reaction():
    mesh = uniform_refine(unit_square(1))
    for method, k in (("rt", 1), ("bdm", 1), ("hdg", 1)):
        b1, t1 = solve_case(mesh, method, k, REACTION, path="hybridized")
        _, t2 = solve_case(mesh, method, k, REACTION, path="saddle")
        assert np.abs(t1.q_coeffs - t2.q_coeffs).max() < 1e-8
        assert np.abs(t1.u_coeffs - t2.u_coeffs).max() < 1e-8


def test_boundary_multiplier_is_face_projection_of_g():
    mesh = unit_square(2)
    blocks, triple = solve_case(mesh, "rt", 1, SMOOTH)
    for e in np.flatnonzero(mesh.boundary):
        assert np.abs(triple.lam[e] - blocks.gdir[e]).max() < 1e-13


def perturbed_mesh(seed=3, levels=1):
    mesh = unit_square(2)
    for _ in range(levels):
        mesh = uniform_refine(mesh)
    v = mesh.vertices.copy()
    inner = np.all((v > 1e-12) & (v < 1.0 - 1e-12), axis=1)
    v[inner] += np.random.default_rng(seed).uniform(-0.04, 0.04, size=(inner.sum(), 2))
    return Mesh(v, mesh.triangles)


def rel_diff(a, ref):
    return np.abs(a - ref).max() / np.abs(ref).max()


GLOBAL_SYSTEM_CASES = [("rt", 0), ("rt", 1), ("bdm", 2), ("hdg", 1), ("hdg", 2)]


@pytest.mark.parametrize("method,k", GLOBAL_SYSTEM_CASES)
def test_saddle_matrix_matches_reference(method, k):
    mesh = perturbed_mesh()
    tau = StabilizationFunction.single_face(mesh, 2.0) if method == "hdg" else None
    blocks = assemble(mesh, SpaceDescriptor(method, k), CASES["varkappa"].data(), tau=tau)
    A, rhs, interior = _saddle_matrix(blocks)
    A_ref, rhs_ref = reference_saddle_matrix(blocks)
    assert rel_diff(A.toarray(), A_ref.toarray()) < 1e-13
    assert rel_diff(rhs, rhs_ref) < 1e-13
    triple = solve_saddle(blocks)
    sol = np.concatenate([triple.q_coeffs.ravel(), triple.u_coeffs.ravel(), triple.lam.ravel()[interior]])
    assert rel_diff(sol, np.linalg.solve(A_ref.toarray(), rhs_ref)) < 1e-13


# ------------------------------------------------------------- condensation


@pytest.mark.parametrize("method,k", [("rt", 0), ("bdm", 1), ("hdg", 1)])
def test_condensed_matrix_symmetric_positive_definite(method, k):
    mesh = uniform_refine(unit_square(1))
    assert mesh.num_triangles == 8
    space = SpaceDescriptor(method, k)
    tau = make_tau(mesh) if method == "hdg" else None
    blocks = assemble(mesh, space, SMOOTH.data(), tau=tau)
    K, rhs, lam_full, interior, X, Y = condensed_system(blocks)
    Kd = K.toarray()
    assert np.abs(Kd - Kd.T).max() < 1e-12 * max(1.0, np.abs(Kd).max())
    eigs = np.linalg.eigvalsh(0.5 * (Kd + Kd.T))
    assert eigs.min() > 0.0


CONDENSED_SPACES = (
    [("rt", k, None) for k in range(4)]
    + [("bdm", k, None) for k in range(1, 4)]
    + [("hdg", k, tau) for k in range(4) for tau in ("constant", "single-face")]
)


def condensed_blocks(mesh, method, k, tau):
    if tau is not None:
        make = StabilizationFunction.constant if tau == "constant" else StabilizationFunction.single_face
        tau = make(mesh)
    return assemble(mesh, SpaceDescriptor(method, k), CASES["varkappa"].data(), tau=tau)


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("method,k,tau", CONDENSED_SPACES)
def test_condensed_asymmetry_is_roundoff(monkeypatch, method, k, tau, perturbed):
    """Before it is symmetrized, K - K^T is round-off of the element Schur
    complements, and the returned K is its symmetric part."""
    mesh = perturbed_mesh() if perturbed else uniform_refine(unit_square(2))
    scatter, scattered = methods._scatter, []

    def spy(*args):
        scattered.append(scatter(*args))
        return scattered[-1]

    monkeypatch.setattr(methods, "_scatter", spy)
    K, _, _, interior, _, _ = condensed_system(condensed_blocks(mesh, method, k, tau))
    (Hmat,) = scattered
    raw = -Hmat[interior][:, interior].toarray()
    assert np.abs(raw - raw.T).max() <= 1e-12 * np.abs(raw).max()
    assert np.array_equal(K.toarray(), 0.5 * (raw + raw.T))


@pytest.mark.parametrize("method,k,tau", CONDENSED_SPACES)
def test_condensed_matrix_exactly_symmetric(method, k, tau):
    K = condensed_system(condensed_blocks(perturbed_mesh(), method, k, tau))[0]
    assert (K != K.T).nnz == 0


@pytest.mark.parametrize("method,k,tau", CONDENSED_SPACES)
def test_hybridized_solve_matches_default_lu(method, k, tau):
    blocks = condensed_blocks(perturbed_mesh(), method, k, tau)
    K, rhs, _, interior, _, _ = condensed_system(blocks)
    want = spla.splu(K).solve(rhs)
    got = solve_hybridized(blocks).lam.ravel()[interior]
    assert rel_diff(got, want) <= 1e-12


def block_bytes(space, elements):
    """Value of ``methods._BLOCK_BYTES`` that streams ``elements`` element
    matrices of this space at a time."""
    n = space.flux_dim + space.scalar_dim + 3 * space.face_dim
    return elements * 8 * n * n


@pytest.mark.parametrize("method,k,tau", CONDENSED_SPACES)
def test_condensation_independent_of_element_blocks(monkeypatch, method, k, tau):
    """128 elements streamed 7 at a time (the last block holds 2) give the
    one-block condensed system and Dirichlet form bit for bit."""
    mesh = perturbed_mesh(levels=2)
    blocks = condensed_blocks(mesh, method, k, tau)
    data = CASES["varkappa"].data()

    def run():
        return condensed_system(blocks), dirichlet_form(mesh, blocks.space, data, tau=blocks.tau)

    monkeypatch.setattr(methods, "_BLOCK_BYTES", block_bytes(blocks.space, mesh.num_triangles))
    (K1, *rest1), D1 = run()
    monkeypatch.setattr(methods, "_BLOCK_BYTES", block_bytes(blocks.space, 7))
    (K7, *rest7), D7 = run()
    for a, b in [(K1.indptr, K7.indptr), (K1.indices, K7.indices), (K1.data, K7.data), (D1, D7)]:
        assert np.array_equal(a, b)
    for a, b in zip(rest1, rest7):
        assert np.array_equal(a, b)


def test_singular_element_in_last_block_rejected(monkeypatch):
    blocks = assemble(perturbed_mesh(levels=2), SpaceDescriptor("rt", 0), SMOOTH.data())
    monkeypatch.setattr(methods, "_BLOCK_BYTES", block_bytes(blocks.space, 7))
    blocks.A[-1] = 0.0
    with pytest.raises(SingularLocalSolver):
        condensed_system(blocks)


def test_condensation_peak_memory_below_element_stack():
    """Condensation never holds all element matrices at once: its traced
    peak above the inputs stays below one (nt, n, n) float64 stack."""
    mesh = unit_square(2)
    for _ in range(4):
        mesh = uniform_refine(mesh)
    blocks = assemble(mesh, SpaceDescriptor("hdg", 3), SMOOTH.data(), tau=make_tau(mesh))
    stack = block_bytes(blocks.space, mesh.num_triangles)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        condensed_system(blocks)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < stack


# ------------------------------------------------------------- Dirichlet form


@pytest.mark.parametrize("method,k", [("rt", 0), ("bdm", 1), ("hdg", 0)])
def test_dirichlet_form_spd(method, k):
    mesh = uniform_refine(unit_square(1))
    tau = make_tau(mesh) if method == "hdg" else None
    D = dirichlet_form(mesh, SpaceDescriptor(method, k), SMOOTH.data(), tau=tau)
    assert np.abs(D - D.T).max() < 1e-11 * max(1.0, np.abs(D).max())
    eigs = np.linalg.eigvalsh(0.5 * (D + D.T))
    assert eigs.min() > 0.0


@pytest.mark.parametrize("method,k", [("rt", 0), ("rt", 1), ("hdg", 1)])
def test_primal_solve_reproduces_potential(method, k):
    mesh = uniform_refine(unit_square(1))
    blocks, triple = solve_case(mesh, method, k, SMOOTH)
    tau = make_tau(mesh) if method == "hdg" else None
    u = solve_primal(mesh, SpaceDescriptor(method, k), SMOOTH.data(), tau=tau)
    assert np.abs(u - triple.u_coeffs).max() < 1e-8


@pytest.mark.parametrize("method,k", GLOBAL_SYSTEM_CASES)
def test_dirichlet_form_and_primal_match_reference(method, k):
    mesh = perturbed_mesh()
    space = SpaceDescriptor(method, k)
    tau = make_tau(mesh, 1.5) if method == "hdg" else None
    data = CASES["varkappa"].data()
    diffusion_only = ProblemData(kappa=data.kappa, f=data.f, g=data.g)
    blocks = assemble(mesh, space, diffusion_only, tau=tau)
    D_ref, lg_ref = reference_dirichlet_pieces(blocks)
    assert rel_diff(dirichlet_form(mesh, space, data, tau=tau), D_ref) < 1e-13
    u_ref = np.linalg.solve(D_ref, blocks.F.ravel() - lg_ref)
    assert rel_diff(solve_primal(mesh, space, data, tau=tau).ravel(), u_ref) < 1e-13


def test_dirichlet_form_too_large():
    mesh = unit_square(16)
    with pytest.raises(TooLarge):
        dirichlet_form(mesh, SpaceDescriptor("rt", 3), SMOOTH.data())


# ------------------------------------------------------------- identities


@pytest.mark.parametrize("method,k", [("rt", 0), ("rt", 1), ("bdm", 1), ("hdg", 0), ("hdg", 1)])
def test_energy_identity_balances(method, k):
    # data integrals (f, g) resolved beyond the tolerance: the identity is a
    # statement about exact integration, and the solver's data quadrature is
    # the only non-algebraic ingredient
    mesh = uniform_refine(unit_square(2))
    space = SpaceDescriptor(method, k)
    tau = make_tau(mesh) if method == "hdg" else None
    blocks = assemble(mesh, space, SMOOTH.data(), tau=tau, quad_exactness=20)
    triple = solve_hybridized(blocks)
    res = energy_identity_residual(triple, SMOOTH.q, SMOOTH.u, SMOOTH.data(), quad_exactness=20)
    assert res < 1e-9


@pytest.mark.parametrize("method,k", [("rt", 0), ("hdg", 1)])
def test_energy_identity_default_quadrature_level(method, k):
    # with the production quadrature the identity balances to the data
    # quadrature error, well below the error magnitudes themselves
    mesh = uniform_refine(unit_square(2))
    blocks, triple = solve_case(mesh, method, k, SMOOTH)
    res = energy_identity_residual(triple, SMOOTH.q, SMOOTH.u, SMOOTH.data())
    norms = compute_error_norms(triple, SMOOTH)
    assert res < 1e-4 * norms["eq_proj_w"] ** 2 + 1e-12


def test_energy_identity_zero_for_exact_polynomial_solution():
    mesh = unit_square(2)
    blocks, triple = solve_case(mesh, "rt", 1, LINEAR)
    res = energy_identity_residual(triple, LINEAR.q, LINEAR.u, LINEAR.data())
    assert res < 1e-13


@pytest.mark.parametrize("method,k", [("rt", 0), ("rt", 1), ("bdm", 1), ("bdm", 2), ("hdg", 0), ("hdg", 1)])
def test_per_element_conservation(method, k):
    mesh = uniform_refine(unit_square(2))
    _, triple = solve_case(mesh, method, k, SMOOTH)
    res = conservation_residuals(triple, SMOOTH.data())
    assert np.abs(res).max() < 1e-10


def test_conservation_with_reaction_balance():
    mesh = uniform_refine(unit_square(2))
    _, triple = solve_case(mesh, "rt", 1, REACTION)
    res = conservation_residuals(triple, REACTION.data(), include_reaction=True)
    assert np.abs(res).max() < 1e-10


@pytest.mark.parametrize("method,k", [("rt", 0), ("rt", 1), ("bdm", 1), ("hdg", 0), ("hdg", 2)])
def test_flux_single_valuedness(method, k):
    mesh = uniform_refine(unit_square(2))
    _, triple = solve_case(mesh, method, k, SMOOTH)
    assert flux_jump_norms(triple).max() < 1e-9


@pytest.mark.parametrize("method,k", [("rt", 0), ("rt", 1), ("bdm", 1), ("bdm", 2)])
def test_energy_estimate_inequality(method, k):
    # || Pi q - q_h ||_{kappa^{-1}} <= || Pi q - q ||_{kappa^{-1}} + slack
    case = CASES["varkappa"]
    mesh = uniform_refine(unit_square(2))
    blocks, triple = solve_case(mesh, method, k, case)
    norms = compute_error_norms(triple, case)
    qc, _, _ = _project_triple(triple, case.q, case.u, 2 * k + 6)
    # || Pi q - q ||_{kappa^{-1}} by quadrature
    import hybridfem.projections as pj

    vol = ps.triangle_rule(2 * k + 6)
    total = 0.0
    for t in range(mesh.num_triangles):
        em = mesh.element_map(t)
        pts = em.forward(vol.points)
        kinv = 1.0 / case.kappa(pts)
        diff = pj.LocalVectorField(em, triple.space.flux_space, k, qc[t])(pts) - case.q(pts)
        total += (vol.weights * em.detJ) @ (kinv * np.einsum("nc,nc->n", diff, diff))
    proj_defect = np.sqrt(total)
    assert norms["eq_proj_w"] <= proj_defect + 1e-10


def test_reaction_energy_estimate():
    # || eps_q ||^2 + | eps_u |_c^2 <= || Pi q - q ||^2 + | Pi u - u |_c^2
    case = REACTION
    k = 1
    mesh = uniform_refine(unit_square(2))
    blocks, triple = solve_case(mesh, "bdm", k, case)
    qc, uc, _ = _project_triple(triple, case.q, case.u, 2 * k + 6)
    import hybridfem.projections as pj

    vol = ps.triangle_rule(2 * k + 6)
    lhs = rhs = 0.0
    for t in range(mesh.num_triangles):
        em = mesh.element_map(t)
        pts = em.forward(vol.points)
        w = vol.weights * em.detJ
        cvals = case.c(pts)
        eq = pj.LocalVectorField(em, "P", k, qc[t] - triple.q_coeffs[t])(pts)
        eu = pj.LocalScalarField(em, k - 1, uc[t] - triple.u_coeffs[t])(pts)
        lhs += w @ np.einsum("nc,nc->n", eq, eq) + w @ (cvals * eu**2)
        dq = pj.LocalVectorField(em, "P", k, qc[t])(pts) - case.q(pts)
        du = pj.LocalScalarField(em, k - 1, uc[t])(pts) - case.u(pts)
        rhs += w @ np.einsum("nc,nc->n", dq, dq) + w @ (cvals * du**2)
    assert lhs <= rhs + 1e-10


def test_flux_norm_ratio_bounded():
    # || eps_q . n ||_h / || eps_q ||_Omega stays bounded under refinement
    mesh = unit_square(2)
    ratios = []
    for _ in range(3):
        blocks, triple = solve_case(mesh, "rt", 0, SMOOTH)
        norms = compute_error_norms(triple, SMOOTH)
        qc, _, _ = _project_triple(triple, SMOOTH.q, SMOOTH.u, 8)
        import hybridfem.projections as pj

        vol = ps.triangle_rule(8)
        erule = ps.edge_rule(5)
        num = den = 0.0
        for t in range(mesh.num_triangles):
            em = mesh.element_map(t)
            eps = pj.LocalVectorField(em, "RT", 0, qc[t] - triple.q_coeffs[t])
            pts = em.forward(vol.points)
            vals = eps(pts)
            den += (vol.weights * em.detJ) @ np.einsum("nc,nc->n", vals, vals)
            for loc in range(3):
                tr = eps.normal_trace(loc, erule.points)
                num += em.h * em.edge_lengths[loc] * (erule.weights @ tr**2)
        ratios.append(np.sqrt(num / den))
        mesh = uniform_refine(mesh)
    ratios = np.array(ratios)
    assert ratios.max() < 10.0
    assert ratios.max() / ratios.min() < 2.0


# ------------------------------------------------------------- eq. with V_h^div


@pytest.mark.parametrize("k", [0, 1])
def test_conforming_formulation_equivalence(k):
    # Build V_h^div by nullspace extraction of the jump operator and solve
    # the conforming two-field system; it must match the three-field solve.
    mesh = uniform_refine(unit_square(1))
    space = SpaceDescriptor("rt", k)
    blocks = assemble(mesh, space, SMOOTH.data())
    triple = solve_saddle(blocks)

    nt = mesh.num_triangles
    nq, nw, nf = space.flux_dim, space.scalar_dim, space.face_dim
    nQ, nW = blocks.layout.n_flux, blocks.layout.n_scalar

    interior_edges = np.flatnonzero(~mesh.boundary)
    J = np.zeros((len(interior_edges) * nf, nQ))
    for row, e in enumerate(interior_edges):
        for t in mesh.edge_tris[e]:
            loc = int(np.flatnonzero(mesh.tri_edges[t] == e)[0])
            J[row * nf : (row + 1) * nf, t * nq : (t + 1) * nq] += blocks.C[t, loc]
    N = la.null_space(J)
    assert N.shape[1] == nQ - len(interior_edges) * nf  # jump operator has full rank

    Aglob = np.zeros((nQ, nQ))
    Bglob = np.zeros((nW, nQ))
    tg = np.zeros(nQ)
    for t in range(nt):
        Aglob[t * nq : (t + 1) * nq, t * nq : (t + 1) * nq] = blocks.A[t]
        Bglob[t * nw : (t + 1) * nw, t * nq : (t + 1) * nq] = blocks.Bdiv
        for loc in range(3):
            e = mesh.tri_edges[t, loc]
            if mesh.boundary[e]:
                tg[t * nq : (t + 1) * nq] += blocks.C[t, loc].T @ blocks.gdir[e]
    nv = N.shape[1]
    sys = np.zeros((nv + nW, nv + nW))
    sys[:nv, :nv] = N.T @ Aglob @ N
    sys[:nv, nv:] = -(Bglob @ N).T
    sys[nv:, :nv] = Bglob @ N
    rhs = np.concatenate([-N.T @ tg, blocks.F.ravel()])
    sol = np.linalg.solve(sys, rhs)
    q_conf = (N @ sol[:nv]).reshape(nt, nq)
    u_conf = sol[nv:].reshape(nt, nw)
    assert np.abs(q_conf - triple.q_coeffs).max() < 1e-8
    assert np.abs(u_conf - triple.u_coeffs).max() < 1e-8

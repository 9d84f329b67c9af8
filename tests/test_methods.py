import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import hybridfem.harness as harness
import hybridfem.methods as methods
import hybridfem.polyspaces as ps
import hybridfem.postprocess as postprocess
import hybridfem.projections as pj
from hybridfem.errors import (
    InvalidProblemData,
    InvalidStabilization,
    NonPositiveDiffusion,
    SingularLocalSolver,
    SingularSystem,
    UnsupportedDegree,
)
from hybridfem.harness import CASES, compute_error_norms
from hybridfem.mesh import Mesh, unit_square, uniform_refine
from hybridfem.postprocess import gradient_postprocess, stenberg
from hybridfem.methods import (
    FieldTriple,
    ProblemData,
    SpaceDescriptor,
    StabilizationFunction,
    _reduce,
    assemble,
    condensed_system,
    conservation_residuals,
    energy_identity_residual,
    flux_jump_norms,
    solve_hybridized,
    solve_primal,
    solve_saddle,
    system_residual,
)

from oracles import (
    dense_dirichlet_form,
    element_blocks,
    reference_condensed_matrix,
    reference_dirichlet_pieces,
    reference_saddle_matrix,
    reference_saddle_solve,
)
from test_batched import perturbed as perturbed_by, project_elements

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
    triple = solve_hybridized(assemble(mesh, space, LINEAR.data()))
    assert triple.q_coeffs.size == 6      # 3 per element
    assert triple.u_coeffs.size == 2
    assert triple.lam.size == 5           # (k+1) per edge
    for k in range(3):
        sp = SpaceDescriptor("hdg", k)
        t = solve_hybridized(assemble(mesh, sp, LINEAR.data(), tau=make_tau(mesh)))
        assert t.lam.size == (k + 1) * mesh.num_edges


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


@pytest.mark.parametrize(
    "row",
    [[1.0, 1.0], [np.nan, 1.0, 1.0], [1.0, np.inf, 1.0], [1.0, 1.0, -1.0], [0.0, 0.0, 0.0]],
    ids=["shape", "nan", "inf", "negative", "zeros"],
)
def test_every_stabilization_entry_rejects_the_same_values(row):
    # StabilizationFunction, assemble and the HDG projection share one check
    mesh = Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
    row = np.array(row)
    with pytest.raises(InvalidStabilization):
        StabilizationFunction(row[None])
    with pytest.raises(InvalidStabilization):
        assemble(mesh, SpaceDescriptor("hdg", 1), LINEAR.data(), tau=row[None])
    with pytest.raises(InvalidStabilization):
        pj.hdg_project(LINEAR.q, LINEAR.u, 1, mesh.element_map(0), row)


def test_assemble_rejects_the_stabilization_of_another_mesh():
    with pytest.raises(InvalidStabilization):
        assemble(unit_square(1), SpaceDescriptor("hdg", 1), LINEAR.data(), tau=make_tau(unit_square(2)))


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


@pytest.mark.parametrize("name", ["kappa", "f", "g", "c"])
@pytest.mark.parametrize(
    "wrong",
    [
        pytest.param(lambda x: 1.0, id="float"),
        pytest.param(lambda x: np.ones(len(x) + 1), id="one-too-many"),
        pytest.param(lambda x: np.ones((len(x), 1)), id="column"),
    ],
)
def test_assemble_rejects_wrong_shaped_data(name, wrong):
    def one(x):
        return np.ones(len(x))

    data = ProblemData(kappa=one, f=one, g=one, c=one)
    setattr(data, name, wrong)
    with pytest.raises(InvalidProblemData):
        assemble(unit_square(2), SpaceDescriptor("rt", 1), data)


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
    (C1, D1, S1), (C2, D2, S2) = element_blocks(b1), element_blocks(b2)
    assert np.abs(b1.A - b2.A).max() == 0.0
    assert np.abs(C1 - C2).max() == 0.0
    assert np.abs(b1.F - b2.F).max() == 0.0
    assert np.abs((D2 - D1) - D1).max() < 1e-13  # D linear in tau, D(0) = 0
    assert np.abs((S2 - S1) - S1).max() < 1e-13


# ------------------------------------------------------------- saddle solve


@pytest.mark.parametrize("method,k", [("rt", 1), ("bdm", 2), ("hdg", 1)])
def test_saddle_matrix_symmetry_after_sign_flip(method, k):
    mesh = uniform_refine(unit_square(1))
    space = SpaceDescriptor(method, k)
    tau = make_tau(mesh) if method == "hdg" else None
    blocks = assemble(mesh, space, SMOOTH.data(), tau=tau)
    A, rhs, _ = _reduce(blocks, 0)
    D = np.ones(A.shape[0])
    nQ = mesh.num_triangles * space.flux_dim
    D[nQ : nQ + mesh.num_triangles * space.scalar_dim] = -1.0
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
    qc, uc = project_elements(t3, LINEAR.q, LINEAR.u, None)
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


CONDENSED_SPACES = (
    [("rt", k, None) for k in range(4)]
    + [("bdm", k, None) for k in range(1, 4)]
    + [("hdg", k, tau) for k in range(4) for tau in ("constant", "single-face")]
)


def condensed_blocks(mesh, method, k, tau, case="varkappa"):
    if tau is not None:
        make = StabilizationFunction.constant if tau == "constant" else StabilizationFunction.single_face
        tau = make(mesh)
    return assemble(mesh, SpaceDescriptor(method, k), CASES[case].data(), tau=tau)


def saddle_solution(triple, interior):
    return np.concatenate([triple.q_coeffs.ravel(), triple.u_coeffs.ravel(), triple.lam.ravel()[interior]])


GLOBAL_SYSTEM_CASES = [("rt", 0), ("rt", 1), ("bdm", 2), ("hdg", 1), ("hdg", 2)]


@pytest.mark.parametrize("method,k", GLOBAL_SYSTEM_CASES)
def test_saddle_matrix_matches_reference(method, k):
    mesh = perturbed_mesh()
    tau = StabilizationFunction.single_face(mesh, 2.0) if method == "hdg" else None
    blocks = assemble(mesh, SpaceDescriptor(method, k), CASES["varkappa"].data(), tau=tau)
    A, rhs, _ = _reduce(blocks, 0)
    interior = blocks.interior_dofs
    A_ref, rhs_ref = reference_saddle_matrix(blocks)
    assert rel_diff(A.toarray(), A_ref.toarray()) < 1e-13
    assert rel_diff(rhs, rhs_ref) < 1e-13
    sol = saddle_solution(solve_saddle(blocks), interior)
    assert rel_diff(sol, np.linalg.solve(A_ref.toarray(), rhs_ref)) < 1e-13


@pytest.mark.parametrize("mesh_name", ["regular", "perturbed"])
@pytest.mark.parametrize("case", ["varkappa", "reaction"])
@pytest.mark.parametrize("method,k,tau", CONDENSED_SPACES)
def test_saddle_solve_matches_colamd_lu(method, k, tau, case, mesh_name):
    mesh = perturbed_mesh() if mesh_name == "perturbed" else uniform_refine(unit_square(2))
    blocks = condensed_blocks(mesh, method, k, tau, case)
    A, rhs, _ = _reduce(blocks, 0)
    interior = blocks.interior_dofs
    got = saddle_solution(solve_saddle(blocks), interior)
    assert rel_diff(got, reference_saddle_solve(A, rhs)) <= 1e-12


ONE_TRIANGLE = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]))


@pytest.mark.parametrize("mesh", [ONE_TRIANGLE, unit_square(1)], ids=["one-triangle", "two-triangles"])
@pytest.mark.parametrize("method,k,tau", CONDENSED_SPACES)
def test_saddle_order_on_the_smallest_meshes(method, k, tau, mesh):
    """All flux dofs, then all potential dofs, then the multipliers of the
    interior edge of the square (the one triangle has none): the order of
    the reduced saddle system itself."""
    blocks = condensed_blocks(mesh, method, k, tau)
    A, rhs, _ = _reduce(blocks, 0)
    interior = blocks.interior_dofs
    assert len(interior) == (0 if mesh.num_triangles == 1 else k + 1)
    assert np.array_equal(methods._saddle_order(blocks), np.arange(len(rhs)))
    triple = solve_saddle(blocks)
    assert rel_diff(saddle_solution(triple, interior), reference_saddle_solve(A, rhs)) <= 1e-12
    assert rel_diff(triple.q_coeffs, solve_hybridized(blocks).q_coeffs) <= 1e-12


@pytest.mark.parametrize(
    "element,message", [(3, "zero pivot"), (1, "is singular")], ids=["regular-system", "singular-system"]
)
def test_saddle_solve_rejects_a_zero_pivot(element, message):
    # with A = 0 on an RT k=0 element its first flux pivot is exactly zero;
    # on element 3 the global system stays regular and partial pivoting
    # would solve it, but condensation rejects that element too
    blocks = assemble(uniform_refine(unit_square(1)), SpaceDescriptor("rt", 0), SMOOTH.data())
    blocks.A[element] = 0.0
    A, rhs, _ = _reduce(blocks, 0)
    assert (np.linalg.matrix_rank(A.toarray()) == len(rhs)) == (element == 3)
    with pytest.raises(SingularSystem, match=message):
        solve_saddle(blocks)


# The ordered factor's fill against COLAMD's on 512 perturbed triangles is
# 0.14-0.84 (hdg 3 to rt 0); these spaces stay at or below half of it.
HALF_FILL = {("bdm", 2), ("hdg", 1), ("hdg", 3)}


@pytest.mark.parametrize("method,k,tau", CONDENSED_SPACES)
def test_saddle_order_fills_less_than_colamd(monkeypatch, method, k, tau):
    mesh = unit_square(2)
    for _ in range(3):
        mesh = uniform_refine(mesh)
    blocks = condensed_blocks(perturbed_by(mesh, 3, 0.2), method, k, tau)
    A, _, _ = _reduce(blocks, 0)
    factors, splu = [], spla.splu

    def spy(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(methods.spla, "splu", spy)
    solve_saddle(blocks)
    monkeypatch.undo()
    ordered = factors[-1]
    assert ordered.shape == A.shape
    colamd = spla.splu(A)
    bound = 0.5 if (method, k) in HALF_FILL else 1.0
    assert ordered.L.nnz + ordered.U.nnz <= bound * (colamd.L.nnz + colamd.U.nnz)


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


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("method,k,tau", CONDENSED_SPACES)
def test_condensed_asymmetry_is_roundoff(method, k, tau, perturbed):
    """Before it is symmetrized, K - K^T is round-off of the element Schur
    complements, and the returned K sums their symmetric parts in element
    order."""
    mesh = perturbed_mesh() if perturbed else uniform_refine(unit_square(2))
    blocks = condensed_blocks(mesh, method, k, tau)
    K = condensed_system(blocks)[0]
    raw = -_reduce(blocks, blocks.space.flux_dim + blocks.space.scalar_dim)[0].toarray()
    assert np.abs(raw - raw.T).max() <= 1e-12 * np.abs(raw).max()
    assert np.array_equal(K.toarray(), reference_condensed_matrix(blocks))


@pytest.mark.parametrize("method,k,tau", CONDENSED_SPACES)
def test_condensed_matrix_exactly_symmetric(method, k, tau):
    K = condensed_system(condensed_blocks(perturbed_mesh(), method, k, tau))[0]
    assert (K != K.T).nnz == 0


@pytest.mark.parametrize("method,k,tau", CONDENSED_SPACES)
def test_symmetry_defect_is_roundoff(method, k, tau):
    """The largest ||H_e - H_e^T||_F / ||H_e||_F of the element complements
    that the solve reports is round-off."""
    defect = solve_hybridized(condensed_blocks(perturbed_mesh(), method, k, tau)).solve_info.symmetry_defect
    assert np.isfinite(defect)
    assert defect < 1e-12


@pytest.mark.parametrize("method,k,tau", [("bdm", 1, None), ("hdg", 0, "constant"), ("hdg", 0, "single-face"),
                                          ("hdg", 1, "constant"), ("hdg", 1, "single-face")])
def test_reduced_pattern_independent_of_roundoff(method, k, tau):
    """Entries of the primal system that cancel in exact arithmetic are
    dropped whatever the last bits of the flux mass: scaling each of its
    entries by 1 +- 1e-15 keeps the pattern (the exact zeros alone gave 975
    to 992 entries for BDM k=1 here)."""
    blocks = condensed_blocks(uniform_refine(unit_square(2)), method, k, tau)
    scale = 1.0 + 1e-15 * np.random.default_rng(7).uniform(-1.0, 1.0, blocks.A.shape)
    A, B = (_reduce(b, blocks.space.flux_dim)[0] for b in (blocks, replace(blocks, A=blocks.A * scale)))
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)


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
    one-block condensed system, saddle system and primal system bit for
    bit."""
    mesh = perturbed_mesh(levels=2)
    blocks = condensed_blocks(mesh, method, k, tau)

    def run():
        K, *out = condensed_system(blocks)
        out += [K.indptr, K.indices, K.data]
        for m in (0, blocks.space.flux_dim):
            A, rhs, R = _reduce(blocks, m)
            out += [A.indptr, A.indices, A.data, rhs, R]
        return out

    monkeypatch.setattr(methods, "_BLOCK_BYTES", block_bytes(blocks.space, mesh.num_triangles))
    one = run()
    monkeypatch.setattr(methods, "_BLOCK_BYTES", block_bytes(blocks.space, 7))
    for a, b in zip(one, run(), strict=True):
        assert np.array_equal(a, b)


def test_singular_element_in_last_block_rejected(monkeypatch):
    blocks = assemble(perturbed_mesh(levels=2), SpaceDescriptor("rt", 0), SMOOTH.data())
    monkeypatch.setattr(methods, "_BLOCK_BYTES", block_bytes(blocks.space, 7))
    blocks.A[-1] = 0.0
    with pytest.raises(SingularLocalSolver):
        condensed_system(blocks)


@pytest.mark.parametrize("method", ["rt", "bdm", "hdg"])
def test_assembly_stores_no_edge_blocks(method):
    """Apart from the flux and reaction masses, what ``assemble`` stores
    per element is data, not element blocks: under 1 KiB at k=3, where the
    edge blocks C and S alone would take 2.5-3.3 KB."""
    mesh = uniform_refine(unit_square(2))
    tau = make_tau(mesh) if method == "hdg" else None
    blocks = assemble(mesh, SpaceDescriptor(method, 3), REACTION.data(), tau=tau)
    assert blocks.Mc is not None
    stored = sum(value.nbytes for name, value in vars(blocks).items()
                 if isinstance(value, np.ndarray) and name not in ("A", "Mc"))
    assert stored < 1024 * mesh.num_triangles


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


def test_condensation_peak_memory_near_its_output():
    """The reduction adds the element complements straight into the sparse
    pattern of K: on 2,048 HDG k=3 triangles the traced peak of
    ``condensed_system`` above its inputs stays below 1.65 times the bytes it
    returns, R = [X | Y] and K.  A COO scatter of the element complements
    and its CSR copies read 1.88."""
    mesh = unit_square(2)
    for _ in range(4):
        mesh = uniform_refine(mesh)
    blocks = assemble(mesh, SpaceDescriptor("hdg", 3), SMOOTH.data(), tau=make_tau(mesh))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        K, _, _, _, X, _ = condensed_system(blocks)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    returned = X.base.nbytes + K.data.nbytes + K.indices.nbytes + K.indptr.nbytes
    assert peak < 1.65 * returned


@pytest.mark.parametrize("mesh", [ONE_TRIANGLE, unit_square(1), perturbed_mesh()],
                         ids=["one-triangle", "two-triangles", "perturbed"])
@pytest.mark.parametrize("kq,kw,nf", [(0, 0, 2), (0, 3, 2), (6, 3, 2)], ids=["condensed", "primal", "saddle"])
def test_pattern_slots_address_their_entries(mesh, kq, kw, nf):
    """Every kept entry (a, b) of every element matrix has a slot in row
    dofs[a] that holds column dofs[b]; the slots cover the pattern, whose
    rows are sorted."""
    pattern = methods._Pattern(mesh, kq, kw, nf)
    slots, dofs = pattern.slots(slice(None)), pattern.dofs
    kept = dofs < pattern.n
    assert np.array_equal(slots >= 0, kept[:, :, None] & kept[:, None, :])
    t, a, b = np.nonzero(slots >= 0)
    rows = np.repeat(np.arange(pattern.n), np.diff(pattern.indptr))
    assert np.array_equal(rows[slots[t, a, b]], dofs[t, a])
    assert np.array_equal(pattern.indices[slots[t, a, b]], dofs[t, b])
    assert np.array_equal(np.unique(slots[t, a, b]), np.arange(pattern.nnz))
    assert np.all(np.diff(pattern.indices)[np.diff(rows) == 0] > 0)


def stream_by(monkeypatch, elements):
    """Make every element pass stream ``elements`` elements (and edges) at
    a time, whatever its bytes per element."""
    def blocks(n, bytes_per_element):
        return (slice(start, start + elements) for start in range(0, n, elements))

    for module in (methods, harness, postprocess):
        monkeypatch.setattr(module, "_blocks", blocks)


@pytest.mark.parametrize("method,k,tau", CONDENSED_SPACES)
def test_streamed_passes_independent_of_element_blocks(monkeypatch, method, k, tau):
    """128 elements streamed 7 at a time give the one-block error norms,
    energy identity and postprocessed coefficients within 1e-14 relative,
    and the same Stenberg ``decomposed`` flags."""
    mesh = perturbed_mesh(levels=2)
    triple = solve_hybridized(condensed_blocks(mesh, method, k, tau, case="reaction"))
    data = REACTION.data()

    def run(posts):
        norms = compute_error_norms(triple, REACTION, posts)
        return norms, energy_identity_residual(triple, REACTION.q, REACTION.u, data)

    stream_by(monkeypatch, mesh.num_triangles)
    posts = [stenberg(triple, data), gradient_postprocess(triple, data)]
    norms, energy = run(posts)
    stream_by(monkeypatch, 7)
    posts7 = [stenberg(triple, data), gradient_postprocess(triple, data)]
    norms7, energy7 = run(posts)  # the same postprocessed fields
    assert norms7.keys() == norms.keys()
    for key, value in norms.items():
        assert abs(norms7[key] - value) <= 1e-14 * value, key
    # the identity's defect is round-off of sums of the size ||Pi q - q_h||^2
    assert abs(energy7 - energy) <= 1e-14 * norms["eq_proj_w"] ** 2
    for p, p7 in zip(posts, posts7, strict=True):
        assert rel_diff(p7.coeffs, p.coeffs) <= 1e-14
        assert np.array_equal(p7.decomposed, p.decomposed)


def test_streamed_passes_peak_memory_below_a_quadrature_array():
    """The error norms and both postprocessors stream their elements: on
    2,048 HDG k=1 triangles the traced peak of each above its inputs stays
    below one (nt, ng, 2) float64 array of the norm rule, of which the
    whole-mesh passes held several."""
    mesh = unit_square(2)
    for _ in range(4):
        mesh = uniform_refine(mesh)
    data = SMOOTH.data()
    triple = solve_hybridized(assemble(mesh, SpaceDescriptor("hdg", 1), data, tau=make_tau(mesh)))
    posts = [stenberg(triple, data), gradient_postprocess(triple, data)]
    ng = len(ps.quadrature_rules(1, 2 * 1 + 6)[0].weights)
    array = mesh.num_triangles * ng * 2 * 8
    passes = {
        "norms": lambda: compute_error_norms(triple, SMOOTH, posts),
        "stenberg": lambda: stenberg(triple, data),
        "gradient": lambda: gradient_postprocess(triple, data),
    }
    for name, run in passes.items():
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < array, name


# ------------------------------------------------------ iterative solve


def refinement_family(kind):
    """Meshes of 128, 512 and 2,048 triangles: regular, each one perturbed
    on its own, or the refinements of one perturbed 32-triangle mesh."""
    mesh = uniform_refine(unit_square(2))
    if kind == "one-perturbed":
        mesh = perturbed_by(mesh, 3, 0.2)
    for level in range(3):
        mesh = uniform_refine(mesh)
        yield perturbed_by(mesh, level, 0.2) if kind == "each-perturbed" else mesh


# On refinements of one perturbed mesh (perturbation seed 3) the lowest
# order needs 27 -> 31 iterations (rt), 26 -> 31 (hdg, constant tau) and
# 26 -> 30 (hdg, single-face tau) from 128 to 2,048 triangles: the condition
# number of the preconditioned rt k=0 system grows from 3.1 to 3.9 there,
# and with this seed the count levels off at 31-32 up to 32,768 triangles.
# The flatness gate misses by one or two iterations.  The drift depends on
# the mesh: with seed 5, rt k=0 needs 28 -> 31 -> 36 -> 41 -> 42 -> 42 from
# 128 to 32,768 triangles, above the 35 of the first gate as well.
LOWEST_ORDER_DRIFT = pytest.mark.xfail(
    strict=True, reason="k=0 iteration count drifts on refinements of one perturbed mesh"
)


@pytest.mark.parametrize(
    "method,k,tau,family",
    [
        pytest.param(method, k, tau, family,
                     marks=LOWEST_ORDER_DRIFT if (family, k) == ("one-perturbed", 0) else ())
        for family in ("regular", "each-perturbed", "one-perturbed")
        for method, k, tau in CONDENSED_SPACES
    ],
)
def test_pcg_iterations_flat_under_refinement(method, k, tau, family):
    """On 128, 512 and 2,048 triangles the two-level PCG needs at most 35
    iterations, and the finest mesh at most 3 more than the coarsest."""
    counts = [
        solve_hybridized(condensed_blocks(mesh, method, k, tau)).solve_info.iterations
        for mesh in refinement_family(family)
    ]
    assert max(counts) <= 35
    assert counts[-1] <= counts[0] + 3


@pytest.mark.parametrize("method,k,tau", CONDENSED_SPACES)
def test_pcg_without_coarse_space_matches_lu(method, k, tau):
    # two triangles: one interior edge, whose ends both lie on the boundary
    mesh = unit_square(1)
    blocks = condensed_blocks(mesh, method, k, tau)
    K, rhs, _, interior, _, _ = condensed_system(blocks)
    assert len(interior) == k + 1
    assert methods._coarse_space(mesh, k + 1).shape[1] == 0
    got = solve_hybridized(blocks).lam.ravel()[interior]
    assert rel_diff(got, spla.splu(K).solve(rhs)) <= 1e-12


@pytest.mark.parametrize("method,k,tau", CONDENSED_SPACES)
def test_mesh_without_interior_edge_solves(method, k, tau):
    blocks = condensed_blocks(ONE_TRIANGLE, method, k, tau)
    triple = solve_hybridized(blocks)
    assert triple.solve_info == methods.SolveInfo(n=0, nnz=0, iterations=0, residual=0.0)
    saddle = solve_saddle(blocks)
    for got, want in [(triple.q_coeffs, saddle.q_coeffs), (triple.u_coeffs, saddle.u_coeffs)]:
        assert rel_diff(got, want) <= 1e-12
    assert np.array_equal(triple.lam, blocks.gdir)


@pytest.mark.parametrize("method,k,tau", CONDENSED_SPACES)
def test_solve_info_reports_the_condensed_solve(method, k, tau):
    blocks = condensed_blocks(perturbed_mesh(), method, k, tau)
    K, rhs, _, interior, _, _ = condensed_system(blocks)
    triple = solve_hybridized(blocks)
    info = triple.solve_info
    lam = triple.lam.ravel()[interior]
    assert (info.n, info.nnz) == (len(interior), K.nnz)
    assert 0 < info.iterations <= 35
    assert not info.lu_fallback
    assert info.residual == pytest.approx(np.linalg.norm(K @ lam - rhs) / np.linalg.norm(rhs), rel=1e-12)
    assert info.residual < 1e-13
    phases = (info.condense_s, info.precondition_s, info.iterate_s, info.reconstruct_s)
    assert min(phases) > 0.0
    assert info == replace(info, condense_s=0.0, precondition_s=0.0, iterate_s=0.0, reconstruct_s=0.0)
    with pytest.raises(AttributeError):
        info.iterations = 0


@pytest.mark.parametrize("perturbed", [False, True], ids=["regular", "perturbed"])
@pytest.mark.parametrize("method,k,tau", CONDENSED_SPACES)
def test_solve_info_backward_error(method, k, tau, perturbed):
    """The normwise backward error ||K lam - rhs||_inf / (||K||_inf
    ||lam||_inf + ||rhs||_inf) of the solve reads round-off."""
    mesh = perturbed_mesh(levels=2) if perturbed else uniform_refine(uniform_refine(unit_square(2)))
    blocks = condensed_blocks(mesh, method, k, tau)
    K, rhs, _, interior, _, _ = condensed_system(blocks)
    triple = solve_hybridized(blocks)
    lam = triple.lam.ravel()[interior]
    want = np.abs(K @ lam - rhs).max() / (spla.norm(K, np.inf) * np.abs(lam).max() + np.abs(rhs).max())
    assert triple.solve_info.backward_error == pytest.approx(want, rel=1e-12)
    assert triple.solve_info.backward_error <= 1e-14


def test_stretched_mesh_falls_back_to_lu():
    # elements stretched 100:1 are hard for the two-level preconditioner:
    # PCG would need 213 iterations here, past the cap, so K is factored
    mesh = unit_square(2)
    for _ in range(3):
        mesh = uniform_refine(mesh)
    mesh = Mesh(mesh.vertices * [1.0, 0.01], mesh.triangles)
    blocks = condensed_blocks(mesh, "bdm", 2, None)
    K, rhs, _, interior, _, _ = condensed_system(blocks)
    triple = solve_hybridized(blocks)
    assert triple.solve_info.lu_fallback
    assert triple.solve_info.iterations == methods._PCG_MAXITER
    assert rel_diff(triple.lam.ravel()[interior], spla.splu(K).solve(rhs)) <= 1e-12


@pytest.mark.parametrize("method,k,tau", [("rt", 0, None), ("bdm", 2, None), ("hdg", 1, "constant")])
def test_pcg_past_the_cap_factors_k(monkeypatch, method, k, tau):
    monkeypatch.setattr(methods, "_PCG_MAXITER", 1)
    blocks = condensed_blocks(perturbed_mesh(), method, k, tau)
    K, rhs, _, interior, _, _ = condensed_system(blocks)
    triple = solve_hybridized(blocks)
    assert (triple.solve_info.iterations, triple.solve_info.lu_fallback) == (1, True)
    assert triple.solve_info.residual < 1e-13
    assert rel_diff(triple.lam.ravel()[interior], spla.splu(K).solve(rhs)) <= 1e-12


@pytest.mark.parametrize("method,k,tau", [("rt", 0, None), ("bdm", 2, None), ("hdg", 1, "constant")])
def test_unused_vertices_leave_the_solve_unchanged(method, k, tau):
    """Vertices no triangle uses are no interior vertices of the coarse
    space: the multipliers are bitwise those of the mesh without them."""
    mesh = uniform_refine(unit_square(2))
    padded = Mesh(np.vstack([mesh.vertices, [[5.0, 5.0], [6.0, 5.0]]]), mesh.triangles)
    assert np.array_equal(padded.edges, mesh.edges)
    want, got = (solve_hybridized(condensed_blocks(m, method, k, tau)).lam for m in (mesh, padded))
    assert np.array_equal(got, want)


def test_coarse_space_holds_the_p1_hats():
    """Column v of the prolongation is the face projection of the hat of
    interior vertex v on every interior edge: (1/2, -+sqrt(3)/6) sqrt(L) on
    dofs 0 and 1 from the start and end vertex, zero above."""
    mesh, nf = perturbed_mesh(), 4
    edges = np.flatnonzero(~mesh.boundary)
    inner = np.setdiff1d(np.arange(mesh.num_vertices), mesh.edges[mesh.boundary])
    P = methods._coarse_space(mesh, nf).toarray()
    want = np.zeros((len(edges) * nf, len(inner)))
    for j, e in enumerate(edges):
        a, b = mesh.vertices[mesh.edges[e]]
        d = b - a
        for end, v in enumerate(mesh.edges[e]):
            if v in inner:
                def hat(x, a=a, d=d, end=end):
                    s = (x - a) @ d / (d @ d)
                    return s if end else 1.0 - s
                want[j * nf:(j + 1) * nf, np.searchsorted(inner, v)] = pj.project_face(hat, nf - 1, a, b)
    assert np.abs(P - want).max() <= 1e-14


@pytest.mark.parametrize("method,k,tau", [("rt", 0, None), ("bdm", 2, None), ("hdg", 3, "single-face")])
def test_two_level_preconditioner_spd(method, k, tau):
    blocks = condensed_blocks(perturbed_mesh(), method, k, tau)
    K = condensed_system(blocks)[0]
    M = methods._two_level(K, blocks.mesh, k + 1)
    dense = M @ np.eye(K.shape[0])
    assert np.abs(dense - dense.T).max() <= 1e-12 * np.abs(dense).max()
    assert la.eigvalsh(0.5 * (dense + dense.T)).min() > 0.0


# ------------------------------------------------------------- Dirichlet form


@pytest.mark.parametrize("method,k", [("rt", 0), ("bdm", 1), ("hdg", 0)])
def test_dirichlet_form_spd(method, k):
    mesh = uniform_refine(unit_square(1))
    tau = make_tau(mesh) if method == "hdg" else None
    D = dense_dirichlet_form(assemble(mesh, SpaceDescriptor(method, k), SMOOTH.data(), tau=tau))
    assert np.abs(D - D.T).max() < 1e-11 * max(1.0, np.abs(D).max())
    eigs = np.linalg.eigvalsh(0.5 * (D + D.T))
    assert eigs.min() > 0.0


@pytest.mark.parametrize(
    "method,k,case,tau,mesh",
    [
        pytest.param(method, k, case, "constant" if method == "hdg" else None, None, id=f"{method}-{k}{suffix}")
        for case, suffix in [(SMOOTH, ""), (REACTION, "-reaction")]
        for method, k in [("rt", 0), ("rt", 1), ("hdg", 1)]
    ]
    + [
        # Bdiv = 0 at k = 0, so the potential block is the stabilization alone
        pytest.param("hdg", 0, SMOOTH, "single-face", None, id="hdg-0-single-face"),
        pytest.param("hdg", 3, REACTION, "single-face", None, id="hdg-3-single-face-reaction"),
        pytest.param("bdm", 2, SMOOTH, None, "perturbed", id="bdm-2-perturbed"),
    ],
)
def test_primal_solve_reproduces_potential(method, k, case, tau, mesh):
    mesh = perturbed_mesh() if mesh == "perturbed" else uniform_refine(unit_square(1))
    blocks = condensed_blocks(mesh, method, k, tau, case=case.name)
    u = solve_primal(mesh, blocks.space, case.data(), tau=blocks.tau)
    assert np.abs(u - solve_hybridized(blocks).u_coeffs).max() < 1e-8


@pytest.mark.parametrize("method,k", [("rt", 0), ("rt", 2), ("bdm", 2), ("hdg", 1), ("hdg", 3)])
def test_saddle_schur_complements_are_condensed_and_dirichlet_forms(method, k):
    """One summed element matrix, different dofs eliminated: the saddle
    matrix reduced onto the interior multipliers is -K, and reduced onto
    the potential it is the Dirichlet form (c-free data)."""
    mesh = perturbed_mesh()
    blocks = condensed_blocks(mesh, method, k, "single-face" if method == "hdg" else None)
    A = _reduce(blocks, 0)[0].toarray()
    nQ = mesh.num_triangles * blocks.space.flux_dim
    nU = nQ + mesh.num_triangles * blocks.space.scalar_dim

    def schur(keep):
        drop = np.setdiff1d(np.arange(len(A)), keep)
        coupling = A[np.ix_(keep, drop)] @ la.solve(A[np.ix_(drop, drop)], A[np.ix_(drop, keep)])
        return A[np.ix_(keep, keep)] - coupling

    K = condensed_system(blocks)[0].toarray()
    assert rel_diff(schur(np.arange(nU, len(A))), -K) < 1e-12
    assert rel_diff(schur(np.arange(nQ, nU)), dense_dirichlet_form(blocks)) < 1e-12


@pytest.mark.parametrize("method,k", GLOBAL_SYSTEM_CASES)
def test_dirichlet_form_and_primal_match_reference(method, k):
    mesh = perturbed_mesh()
    space = SpaceDescriptor(method, k)
    tau = make_tau(mesh, 1.5) if method == "hdg" else None
    data = CASES["varkappa"].data()
    diffusion_only = ProblemData(kappa=data.kappa, f=data.f, g=data.g)
    blocks = assemble(mesh, space, diffusion_only, tau=tau)
    D_ref, lg_ref = reference_dirichlet_pieces(blocks)
    assert rel_diff(dense_dirichlet_form(blocks), D_ref) < 1e-13
    u_ref = np.linalg.solve(D_ref, blocks.F.ravel() - lg_ref)
    assert rel_diff(solve_primal(mesh, space, data, tau=tau).ravel(), u_ref) < 1e-13


def test_primal_solve_on_2048_potential_dofs():
    mesh = unit_square(2)
    for _ in range(4):
        mesh = uniform_refine(mesh)
    space = SpaceDescriptor("rt", 0)
    assert mesh.num_triangles * space.scalar_dim == 2048
    u = solve_primal(mesh, space, SMOOTH.data())
    assert rel_diff(u, solve_hybridized(assemble(mesh, space, SMOOTH.data())).u_coeffs) < 1e-9


def test_factor_spd_rejects_a_zero_pivot():
    with pytest.raises(SingularSystem):
        methods._splu(sp.csc_matrix([[0.0, 1.0], [1.0, 0.0]]), "x")


# ------------------------------------------------------------- identities


@pytest.mark.parametrize(
    "method,k,case",
    [pytest.param(method, k, case, id=f"{method}-{k}" + ("" if case is SMOOTH else "-reaction"))
     for case in (SMOOTH, REACTION)
     for method, k in [("rt", 0), ("rt", 1), ("bdm", 1), ("hdg", 0), ("hdg", 1)]],
)
def test_energy_identity_balances(method, k, case):
    # data integrals (f, g, c) resolved beyond the tolerance: the identity is
    # a statement about exact integration, and the solver's data quadrature
    # is the only non-algebraic ingredient
    mesh = uniform_refine(unit_square(2))
    space = SpaceDescriptor(method, k)
    tau = make_tau(mesh) if method == "hdg" else None
    blocks = assemble(mesh, space, case.data(), tau=tau, quad_exactness=20)
    triple = solve_hybridized(blocks)
    res = energy_identity_residual(triple, case.q, case.u, case.data(), quad_exactness=20)
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
    res = conservation_residuals(triple, REACTION.data())
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
    qc, _ = project_elements(triple, case.q, case.u, 2 * k + 6)
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
    qc, uc = project_elements(triple, case.q, case.u, 2 * k + 6)
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
        qc, _ = project_elements(triple, SMOOTH.q, SMOOTH.u, 8)
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
    C, A = element_blocks(blocks)[0], methods._flux_mass(blocks)

    nt = mesh.num_triangles
    nq, nw, nf = space.flux_dim, space.scalar_dim, space.face_dim
    nQ, nW = nt * nq, nt * nw

    interior_edges = np.flatnonzero(~mesh.boundary)
    J = np.zeros((len(interior_edges) * nf, nQ))
    for row, e in enumerate(interior_edges):
        for t in mesh.edge_tris[e]:
            loc = int(np.flatnonzero(mesh.tri_edges[t] == e)[0])
            J[row * nf : (row + 1) * nf, t * nq : (t + 1) * nq] += C[t, loc]
    N = la.null_space(J)
    assert N.shape[1] == nQ - len(interior_edges) * nf  # jump operator has full rank

    Aglob = np.zeros((nQ, nQ))
    Bglob = np.zeros((nW, nQ))
    tg = np.zeros(nQ)
    for t in range(nt):
        Aglob[t * nq : (t + 1) * nq, t * nq : (t + 1) * nq] = A[t]
        Bglob[t * nw : (t + 1) * nw, t * nq : (t + 1) * nq] = blocks.Bdiv
        for loc in range(3):
            e = mesh.tri_edges[t, loc]
            if mesh.boundary[e]:
                tg[t * nq : (t + 1) * nq] += C[t, loc].T @ blocks.gdir[e]
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

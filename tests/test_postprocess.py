import numpy as np
import pytest

import hybridfem.polyspaces as ps
import hybridfem.projections as pj
from hybridfem.harness import CASES, StudyConfig, run_study
from hybridfem.mesh import unit_square, uniform_refine
from hybridfem.methods import (
    FieldTriple,
    SpaceDescriptor,
    StabilizationFunction,
    assemble,
    conservation_residuals,
    solve_hybridized,
)
from hybridfem.postprocess import gradient_postprocess, stenberg

SMOOTH = CASES["smooth"]
REACTION = CASES["reaction"]


def solve(mesh, method, k, case, quad_exactness=None):
    space = SpaceDescriptor(method, k)
    tau = StabilizationFunction.constant(mesh) if method == "hdg" else None
    blocks = assemble(mesh, space, case.data(), tau=tau, quad_exactness=quad_exactness)
    return solve_hybridized(blocks)


def make_polynomial_case(k):
    """Exact solution u in P_{k+1} globally, kappa = 1."""
    from hybridfem.harness import ManufacturedCase

    if k == 0:
        u = lambda x: x[:, 0] ** 1 + 0.5 * x[:, 1] - 0.25  # degree 1 = k+1
        gu = lambda x: np.tile([1.0, 0.5], (len(x), 1))
        lap = lambda x: np.zeros(len(x))
    else:
        u = lambda x: x[:, 0] ** 2 - x[:, 0] * x[:, 1]      # degree 2 = k+1
        gu = lambda x: np.stack([2 * x[:, 0] - x[:, 1], -x[:, 0]], axis=-1)
        lap = lambda x: np.full(len(x), 2.0)
    return ManufacturedCase(
        name="poly",
        u=u,
        grad_u=gu,
        laplace_u=lap,
        kappa=lambda x: np.ones(len(x)),
        grad_kappa=lambda x: np.zeros((len(x), 2)),
    )


def exact_triple(mesh, method, k, case):
    """Triple with q_h = q exact and u_h = Pi_k u (postprocessing inputs)."""
    space = SpaceDescriptor(method, k)
    qc = np.zeros((mesh.num_triangles, space.flux_dim))
    uc = np.zeros((mesh.num_triangles, space.scalar_dim))
    lam = np.zeros((mesh.num_edges, space.face_dim))
    for t in range(mesh.num_triangles):
        em = mesh.element_map(t)
        if method == "rt":
            qc[t] = pj.rt_project(case.q, k, em).coeffs
        else:
            qc[t] = pj.bdm_project(case.q, k, em).coeffs
        uc[t] = pj.project_scalar(case.u, space.scalar_degree, em).coeffs
    for e in range(mesh.num_edges):
        a, b = mesh.edges[e]
        lam[e] = pj.project_face(case.u, k, mesh.vertices[a], mesh.vertices[b])
    return FieldTriple(mesh=mesh, space=space, q_coeffs=qc, u_coeffs=uc, lam=lam)


@pytest.mark.parametrize("k", [0, 1])
def test_stenberg_reproduces_polynomials(k):
    # exact inputs with u in P_{k+1}: the reconstruction returns u itself
    case = make_polynomial_case(k)
    mesh = uniform_refine(unit_square(1))
    triple = exact_triple(mesh, "rt", k, case)
    post = stenberg(triple, case.data())
    assert not post.decomposed.any()
    rng = np.random.default_rng(0)
    for t in range(mesh.num_triangles):
        pts = mesh.element_map(t).forward(rng.random((6, 2)) * 0.3 + 0.1)
        assert np.abs(post.field(t)(pts) - case.u(pts)).max() < 1e-11


@pytest.mark.parametrize("k", [0, 1])
def test_gradient_reproduces_polynomials(k):
    case = make_polynomial_case(k)
    mesh = uniform_refine(unit_square(1))
    triple = exact_triple(mesh, "rt", k, case)
    post = gradient_postprocess(triple, case.data())
    rng = np.random.default_rng(1)
    for t in range(mesh.num_triangles):
        pts = mesh.element_map(t).forward(rng.random((6, 2)) * 0.3 + 0.1)
        assert np.abs(post.field(t)(pts) - case.u(pts)).max() < 1e-11


@pytest.mark.parametrize("method,k", [("rt", 0), ("rt", 1), ("bdm", 1), ("hdg", 1)])
def test_mean_preservation(method, k):
    mesh = uniform_refine(unit_square(1))
    triple = solve(mesh, method, k, SMOOTH)
    data = SMOOTH.data()
    for post in (stenberg(triple, data), gradient_postprocess(triple, data)):
        means = post.element_means()
        uh_means = np.array([triple.u_field(t).mean() for t in range(mesh.num_triangles)])
        assert np.abs(means - uh_means).max() < 1e-12


def test_field_means_are_the_element_means_bit_for_bit():
    # LocalScalarField.mean and PostprocessedField.element_means share one rule
    mesh = uniform_refine(unit_square(2))  # level 1 of a study
    triple = solve(mesh, "hdg", 1, SMOOTH)
    for post in (stenberg(triple, SMOOTH.data()), gradient_postprocess(triple, SMOOTH.data())):
        means = post.element_means()
        for t in range(mesh.num_triangles):
            assert post.field(t).mean() == means[t]
            assert triple.u_field(t).mean() == means[t]


def test_hdg_numerical_flux_satisfies_precondition():
    # the flux balance that the reconstruction relies on holds to round-off
    # when fed the numerical flux
    mesh = uniform_refine(unit_square(1))
    triple = solve(mesh, "hdg", 1, SMOOTH)
    post = stenberg(triple, SMOOTH.data())
    assert not post.decomposed.any()


@pytest.mark.parametrize("refinements", [1, 3])  # 8 and 128 triangles
@pytest.mark.parametrize("method,k", [("rt", 0), ("bdm", 2), ("hdg", 1)])
@pytest.mark.parametrize("case,quad_exactness", [(SMOOTH, 20), (REACTION, None)], ids=["exactness20", "reaction"])
def test_balance_of_a_correct_solve_holds(case, quad_exactness, method, k, refinements):
    # the conservation law takes the reaction term and the assembly's data
    # rule from the solve, so a correct solve breaks it on no element
    mesh = unit_square(1)
    for _ in range(refinements):
        mesh = uniform_refine(mesh)
    triple = solve(mesh, method, k, case, quad_exactness)
    assert np.abs(conservation_residuals(triple, case.data())).max() < 1e-13
    assert not stenberg(triple, case.data()).decomposed.any()


@pytest.mark.parametrize("method", ["rt", "hdg"])
def test_stenberg_superconverges_with_reaction(method):
    # the reconstruction balances f - c u_h, not f alone
    config = StudyConfig(method=method, degree=2, levels=4, case="reaction", postprocess="stenberg")
    assert run_study(config).verdicts["epost_stenberg"]["pass"]


def test_incompatible_flux_sets_flag_and_fixes_mean():
    # feed a flux that violates the balance: the flag trips and the mean-free
    # decomposition still produces a mean-preserving field
    mesh = unit_square(1)
    case = SMOOTH
    triple = solve(mesh, "rt", 0, case)
    bad = FieldTriple(
        mesh=mesh,
        space=triple.space,
        q_coeffs=triple.q_coeffs + 0.1,  # breaks the per-element balance
        u_coeffs=triple.u_coeffs,
        lam=triple.lam,
    )
    post = stenberg(bad, case.data())
    assert post.decomposed.all()
    means = post.element_means()
    uh_means = np.array([bad.u_field(t).mean() for t in range(mesh.num_triangles)])
    assert np.abs(means - uh_means).max() < 1e-12


def test_local_stiffness_spd():
    # the zero-mean stiffness blocks are symmetric positive definite
    import hybridfem.postprocess as pp

    mesh = unit_square(2)
    sb = ps.scalar_basis(2)
    vol = ps.triangle_rule(8)
    weight = np.ones((mesh.num_triangles, len(vol.points)))
    for S in pp._stiffness(mesh.geometry, ps.gram_table(sb.grad(vol.points)), vol, weight):
        inner = S[1:, 1:]
        assert np.abs(inner - inner.T).max() < 1e-12
        assert np.linalg.eigvalsh(inner).min() > 0.0


def _post_error(mesh, post, case):
    vol = ps.triangle_rule(12)
    total = 0.0
    for t in range(mesh.num_triangles):
        em = mesh.element_map(t)
        pts = em.forward(vol.points)
        total += (vol.weights * em.detJ) @ (case.u(pts) - post.field(t)(pts)) ** 2
    return np.sqrt(total)


@pytest.mark.parametrize("method,k", [("rt", 0), ("rt", 1)])
def test_stenberg_superconvergence(method, k):
    errs = []
    mesh = unit_square(2)
    for _ in range(4):
        triple = solve(mesh, method, k, SMOOTH)
        post = stenberg(triple, SMOOTH.data())
        errs.append(_post_error(mesh, post, SMOOTH))
        mesh = uniform_refine(mesh)
    slope = np.log2(errs[-2] / errs[-1])
    assert k + 2 - 0.15 <= slope <= k + 2 + 0.45


def test_gradient_superconvergence_rt1():
    errs = []
    mesh = unit_square(2)
    for _ in range(4):
        triple = solve(mesh, "rt", 1, SMOOTH)
        post = gradient_postprocess(triple, SMOOTH.data())
        errs.append(_post_error(mesh, post, SMOOTH))
        mesh = uniform_refine(mesh)
    slope = np.log2(errs[-2] / errs[-1])
    assert 3 - 0.15 <= slope <= 3 + 0.45


def test_gradient_bdm_slope_recorded_not_asserted():
    # BDM input: the potential-mean term limits the rate; record the slope
    # and only require it not to diverge
    errs = []
    mesh = unit_square(2)
    for _ in range(4):
        triple = solve(mesh, "bdm", 1, SMOOTH)
        post = gradient_postprocess(triple, SMOOTH.data())
        errs.append(_post_error(mesh, post, SMOOTH))
        mesh = uniform_refine(mesh)
    slope = np.log2(errs[-2] / errs[-1])
    assert slope > 0.5  # converges; the precise order is data, not contract


def test_stenberg_error_bound_structure():
    # || u - u*_h || <= C (|| u - Pi_{k+1} u || + h-weighted H1 term
    #                      + || u_h - Pi_k u || + h || (q - q_h).n ||_h)
    # with C recorded and stable across refinements
    from hybridfem.harness import compute_error_norms

    k = 0
    consts = []
    mesh = unit_square(2)
    for _ in range(3):
        triple = solve(mesh, "rt", k, SMOOTH)
        post = stenberg(triple, SMOOTH.data())
        err = _post_error(mesh, post, SMOOTH)
        norms = compute_error_norms(triple, SMOOTH)
        vol = ps.triangle_rule(12)
        a1 = a2 = 0.0
        for t in range(mesh.num_triangles):
            em = mesh.element_map(t)
            proj = pj.project_scalar(SMOOTH.u, k + 1, em)
            pts = em.forward(vol.points)
            w = vol.weights * em.detJ
            a1 += w @ (SMOOTH.u(pts) - proj(pts)) ** 2
            gdiff = SMOOTH.grad_u(pts) - proj.grad(pts)
            a2 += em.h**2 * (w @ np.einsum("nc,nc->n", gdiff, gdiff))
        bound = np.sqrt(a1) + np.sqrt(a2) + norms["eu_proj"] + mesh.h_max * norms["eflux"]
        consts.append(err / bound)
        mesh = uniform_refine(mesh)
    consts = np.array(consts)
    assert consts.max() < 5.0
    assert consts.max() / consts.min() < 3.0

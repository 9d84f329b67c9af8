import numpy as np
import pytest

import hybridfem.polyspaces as ps
import hybridfem.projections as pj
from hybridfem.errors import InvalidStabilization, SingularLocalSystem, UnsupportedDegree
from hybridfem.mesh import build_reference_map

from oracles import physical_hdg_projection, physical_hdiv_projection

RNG = np.random.default_rng(2024)
EM = build_reference_map([[0.12, 0.07], [1.05, 0.33], [0.41, 1.21]])
EM_REF = build_reference_map([[0, 0], [1, 0], [0, 1]])


def exact_integral_x2():
    # integral of x^2 over the reference triangle, by the monomial formula
    from math import factorial

    return factorial(2) * factorial(0) / factorial(4)


# ---------------------------------------------------------------- scalar / face


def test_project_scalar_fixes_polynomials():
    for k in range(4):
        coeffs = RNG.standard_normal(ps.scalar_dim(k))
        f = pj.LocalScalarField(EM, k, coeffs)
        proj = pj.project_scalar(f, k, EM)
        assert np.abs(proj.coeffs - coeffs).max() < 1e-12


def test_project_scalar_mean_example():
    # k=0 projection of x^2 on the reference triangle is its mean 1/6
    proj = pj.project_scalar(lambda x: x[:, 0] ** 2, 0, EM_REF)
    mean = exact_integral_x2() / 0.5
    assert proj(np.array([[0.3, 0.2]]))[0] == pytest.approx(mean, abs=1e-14)
    assert mean == pytest.approx(1 / 6)


def test_project_scalar_orthogonality():
    # the defining moments vanish with respect to the projection's own
    # quadrature (non-polynomial data is only known through it)
    u = lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    for k in (0, 1, 2):
        proj = pj.project_scalar(u, k, EM)
        rule = ps.triangle_rule(2 * k + 4)
        pts = EM.forward(rule.points)
        resid = u(pts) - proj(pts)
        W = ps.scalar_basis(k).eval(rule.points)
        moments = W.T @ (rule.weights * EM.detJ * resid)
        assert np.abs(moments).max() < 1e-12


def test_project_face_examples():
    p0, p1 = np.array([0.3, 0.1]), np.array([1.1, 0.9])
    L = np.linalg.norm(p1 - p0)
    # constants and linears are reproduced
    c = pj.project_face(lambda x: np.full(len(x), 2.5), 1, p0, p1)
    t = np.linspace(0, 1, 5)
    assert np.abs(pj.face_values(c, L, t) - 2.5).max() < 1e-13
    lin = lambda x: 3.0 * x[:, 0] - x[:, 1]
    c = pj.project_face(lin, 1, p0, p1)
    pts = p0 + t[:, None] * (p1 - p0)
    assert np.abs(pj.face_values(c, L, t) - lin(pts)).max() < 1e-13
    # k=0 projection is the arc-length mean
    f = lambda x: x[:, 0] ** 2
    c = pj.project_face(f, 0, p0, p1)
    rule = ps.edge_rule(8)
    qpts = p0 + rule.points[:, None] * (p1 - p0)
    mean = rule.weights @ f(qpts)
    assert pj.face_values(c, L, np.array([0.5]))[0] == pytest.approx(mean, abs=1e-13)


# ---------------------------------------------------------------- RT / BDM


@pytest.mark.parametrize("k", range(4))
def test_rt_fixes_its_space(k):
    coeffs = RNG.standard_normal(ps.rt_dim(k))
    q = pj.LocalVectorField(EM, "RT", k, coeffs)
    proj = pj.rt_project(q, k, EM)
    assert np.abs(proj.coeffs - coeffs).max() < 1e-11


def test_rt_commutativity():
    # div Pi q = Pi_k div q for q = (x^3, y^2) at k = 1, both sides by quadrature
    k = 1
    q = lambda x: np.stack([x[:, 0] ** 3, x[:, 1] ** 2], axis=-1)
    divq = lambda x: 3 * x[:, 0] ** 2 + 2 * x[:, 1]
    proj = pj.rt_project(q, k, EM)
    scal = pj.project_scalar(divq, k, EM)
    rule = ps.triangle_rule(12)
    pts = EM.forward(rule.points)
    assert np.abs(proj.div(pts) - scal(pts)).max() < 1e-11


def test_rt_projection_error_rate():
    # || q - Pi q ||_K <= C h^{k+1} |q|_{k+1,K}; on a single shrinking element
    # the seminorm itself scales like h (area factor), so the absolute L2
    # error decays one order faster.  Normalize it away and fit k+1.
    q = lambda x: np.stack([np.sin(x[:, 1]), np.cos(x[:, 0])], axis=-1)
    for k in (0, 1, 2):
        errs = []
        for lvl in range(4):
            h = 0.5**lvl
            em = build_reference_map(np.array([[0.2, 0.1], [1.1, 0.3], [0.4, 1.2]]) * h)
            proj = pj.rt_project(q, k, em, quad_exactness=2 * k + 8)
            rule = ps.triangle_rule(2 * k + 8)
            pts = em.forward(rule.points)
            diff = q(pts) - proj(pts)
            err = np.sqrt((rule.weights * em.detJ) @ np.einsum("nc,nc->n", diff, diff))
            errs.append(err / np.sqrt(em.detJ))
        slope = np.log2(errs[-2] / errs[-1])
        assert abs(slope - (k + 1)) < 0.15


def test_bdm_projection_error_rate():
    # || q - Pi q ||_K = O(h^{k+1} |q|_{k+1,K}) on a shrinking element,
    # normalized by the area factor of the local seminorm
    q = lambda x: np.stack([np.sin(x[:, 1] + 0.3), np.cos(x[:, 0] - 0.2)], axis=-1)
    center = np.array([0.4, 0.35])
    for k in (1, 2):
        errs = []
        for lvl in range(4):
            h = 0.5**lvl
            em = build_reference_map(center + np.array([[0.0, 0.0], [1.0, 0.15], [0.25, 0.95]]) * h)
            proj = pj.bdm_project(q, k, em, quad_exactness=2 * k + 8)
            rule = ps.triangle_rule(2 * k + 8)
            pts = em.forward(rule.points)
            diff = q(pts) - proj(pts)
            err = np.sqrt((rule.weights * em.detJ) @ np.einsum("nc,nc->n", diff, diff))
            errs.append(err / np.sqrt(em.detJ))
        slope = np.log2(errs[-2] / errs[-1])
        assert abs(slope - (k + 1)) < 0.15


@pytest.mark.parametrize("k", (1, 2, 3))
def test_bdm_fixes_full_space(k):
    coeffs = RNG.standard_normal(ps.vector_dim("P", k))
    q = pj.LocalVectorField(EM, "P", k, coeffs)
    proj = pj.bdm_project(q, k, EM)
    assert np.abs(proj.coeffs - coeffs).max() < 1e-11


def test_bdm_degree_one_is_pure_edge_moments():
    # dim P_1^2 = 6 equals the 6 edge equations; the system matrix has no
    # interior-moment rows
    prob = pj.projection_problem("bdm", 1)
    assert prob.matrix.shape == (6, 6)


def test_bdm_rejects_k0():
    with pytest.raises(UnsupportedDegree):
        pj.bdm_project(lambda x: np.ones((len(x), 2)), 0, EM)


def test_bdm_commutativity():
    k = 2
    q = lambda x: np.stack([x[:, 0] ** 2 * x[:, 1], x[:, 1] ** 3], axis=-1)
    divq = lambda x: 2 * x[:, 0] * x[:, 1] + 3 * x[:, 1] ** 2
    proj = pj.bdm_project(q, k, EM)
    scal = pj.project_scalar(divq, k - 1, EM)
    rule = ps.triangle_rule(12)
    pts = EM.forward(rule.points)
    assert np.abs(proj.div(pts) - scal(pts)).max() < 1e-11


# ---------------------------------------------------------------- HDG


def smooth_pair():
    u = lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    q = lambda x: -np.pi * np.stack(
        [
            np.cos(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]),
            np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1]),
        ],
        axis=-1,
    )
    divq = lambda x: 2 * np.pi**2 * u(x)
    return q, divq, u


@pytest.mark.parametrize("k", range(4))
def test_hdg_fixes_pairs(k):
    tau = np.array([2.0, 0.5, 1.0])
    cq = RNG.standard_normal(ps.vector_dim("P", k))
    cu = RNG.standard_normal(ps.scalar_dim(k))
    qf = pj.LocalVectorField(EM, "P", k, cq)
    uf = pj.LocalScalarField(EM, k, cu)
    Pq, Pu = pj.hdg_project(qf, uf, k, EM, tau)
    assert np.abs(Pq.coeffs - cq).max() < 1e-11
    assert np.abs(Pu.coeffs - cu).max() < 1e-11


def test_hdg_residuals_of_defining_equations():
    # the defining moments, evaluated directly in physical space with the
    # same quadrature exactness the projection used
    k = 2
    exact = 14
    tau = np.array([1.0, 2.0, 0.3])
    q, divq, u = smooth_pair()
    Pq, Pu = pj.hdg_project(q, u, k, EM, tau, quad_exactness=exact)
    vol = ps.triangle_rule(exact)
    pts = EM.forward(vol.points)
    w = vol.weights * EM.detJ
    vb = ps.vector_basis("P", k - 1)
    lhs = np.einsum("g,gdc,gc->d", w, vb.eval(pts), Pq(pts) - q(pts))
    assert np.abs(lhs).max() < 1e-11
    low = ps.scalar_basis(k - 1)
    lhs_u = low.eval(pts).T @ (w * (Pu(pts) - u(pts)))
    assert np.abs(lhs_u).max() < 1e-11
    erule = ps.edge_rule((exact + 2) // 2)
    for loc in range(3):
        pe = EM.edge_points(loc, erule.points)
        mu = ps.legendre01(k, erule.points)
        diff = (Pq(pe) - q(pe)) @ EM.edge_normals[loc] + tau[loc] * (Pu(pe) - u(pe))
        moments = mu.T @ (erule.weights * EM.edge_lengths[loc] * diff)
        assert np.abs(moments).max() < 1e-11


def test_hdg_weak_commutativity():
    # (div Pi q, v)_K + <tau Pi u, v>_dK = (div q, v)_K + <tau u, v>_dK
    k = 1
    tau = np.array([1.5, 1.0, 0.5])
    q, divq, u = smooth_pair()
    Pq, Pu = pj.hdg_project(q, u, k, EM, tau, quad_exactness=16)
    vol = ps.triangle_rule(16)
    erule = ps.edge_rule(10)
    pts = EM.forward(vol.points)
    sb = ps.scalar_basis(k)
    w = vol.weights * EM.detJ
    lhs = sb.eval(vol.points).T @ (w * Pq.div(pts))
    rhs = sb.eval(vol.points).T @ (w * divq(pts))
    for loc in range(3):
        pe = EM.edge_points(loc, erule.points)
        we = erule.weights * EM.edge_lengths[loc]
        vals = sb.eval(EM.inverse(pe))
        lhs += tau[loc] * vals.T @ (we * Pu(pe))
        rhs += tau[loc] * vals.T @ (we * u(pe))
    assert np.abs(lhs - rhs).max() < 1e-11


def test_hdg_single_face_vector_part_tau_independent():
    k = 1
    q, divq, u = smooth_pair()
    tau = np.array([0.0, 3.0, 0.0])
    Pq1, _ = pj.hdg_project(q, u, k, EM, tau)
    Pq2, _ = pj.hdg_project(q, u, k, EM, tau * 10.0)
    assert np.abs(Pq1.coeffs - Pq2.coeffs).max() < 1e-12


def test_hdg_decoupled_matches_coupled():
    q, divq, u = smooth_pair()
    for k in (0, 1, 2):
        tau = np.array([1.0, 2.0, 0.0]) if k else np.array([1.0, 1.0, 1.0])
        # polynomial data: exact agreement at the default quadrature
        cq = RNG.standard_normal(ps.vector_dim("P", k))
        cu = RNG.standard_normal(ps.scalar_dim(k))
        qf = pj.LocalVectorField(EM, "P", k, cq)
        uf = pj.LocalScalarField(EM, k, cu)
        divf = lambda x, qf=qf: qf.div(x)
        a = pj.hdg_project(qf, uf, k, EM, tau)
        b = pj.hdg_project_decoupled(qf, divf, uf, k, EM, tau)
        assert np.abs(a[0].coeffs - b[0].coeffs).max() < 1e-12
        assert np.abs(a[1].coeffs - b[1].coeffs).max() < 1e-12
        # smooth data, shared overkill quadrature: round-off agreement
        a = pj.hdg_project(q, u, k, EM, tau, quad_exactness=18)
        b = pj.hdg_project_decoupled(q, divq, u, k, EM, tau, quad_exactness=18)
        assert np.abs(a[0].coeffs - b[0].coeffs).max() < 1e-13


def test_hdg_u_part_rate():
    # || u - Pi u ||_K = O(h^{k+1} (|u|_{k+1,K} + |div q|_{k,K})) with
    # tau = 1 and q = -grad u; normalized by the area factor as above.
    q, divq, u = smooth_pair()
    tau = np.ones(3)
    center = np.array([0.31, 0.47])  # generic point: no derivative of u vanishes
    for k in (0, 1):
        errs = []
        for lvl in range(4):
            h = 0.5**lvl
            em = build_reference_map(center + np.array([[0.0, 0.0], [0.9, 0.2], [0.2, 1.0]]) * h)
            _, Pu = pj.hdg_project(q, u, k, em, tau, quad_exactness=2 * k + 8)
            rule = ps.triangle_rule(2 * k + 8)
            pts = em.forward(rule.points)
            err = np.sqrt((rule.weights * em.detJ) @ (u(pts) - Pu(pts)) ** 2)
            errs.append(err / np.sqrt(em.detJ))
        slope = np.log2(errs[-2] / errs[-1])
        assert abs(slope - (k + 1)) < 0.15


def test_hdg_invalid_stabilization():
    q, divq, u = smooth_pair()
    with pytest.raises(InvalidStabilization):
        pj.hdg_project(q, u, 1, EM, np.array([-1.0, 1.0, 0.0]))
    with pytest.raises(InvalidStabilization):
        pj.hdg_project(q, u, 1, EM, np.zeros(3))


# scipy warns about the exact zero pivot before _factor rejects the element
@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_factor_rejects_singular_element():
    M = np.tile(np.eye(4), (3, 1, 1))
    M[1, 2] = M[1, 0]
    with pytest.raises(SingularLocalSystem):
        pj._factor("rt", 1, M)


def test_hdg_sign_flip_is_solvable_and_distinct():
    q, divq, u = smooth_pair()
    tau = np.ones(3)
    Pq1, Pu1 = pj.hdg_project(q, u, 1, EM, tau, sign=1)
    Pq2, Pu2 = pj.hdg_project(q, u, 1, EM, tau, sign=-1)
    assert np.abs(Pq1.coeffs - Pq2.coeffs).max() > 1e-6  # genuinely different
    # and the -tau variant still fixes polynomial pairs
    cq = RNG.standard_normal(ps.vector_dim("P", 1))
    cu = RNG.standard_normal(ps.scalar_dim(1))
    qf = pj.LocalVectorField(EM, "P", 1, cq)
    uf = pj.LocalScalarField(EM, 1, cu)
    Pq, Pu = pj.hdg_project(qf, uf, 1, EM, tau, sign=-1)
    assert np.abs(Pq.coeffs - cq).max() < 1e-11
    assert np.abs(Pu.coeffs - cu).max() < 1e-11


# ---------------------------------------------------------------- invariance


@pytest.mark.parametrize("method,k", [("rt", 0), ("rt", 1), ("rt", 2), ("bdm", 1), ("bdm", 2)])
def test_piola_invariance_hdiv(method, k):
    # reference-route projection pushed forward equals the independently
    # computed physical-space projection (same data quadrature on both
    # routes; different test bases of the same spans)
    em = EM
    pts = em.forward(RNG.random((40, 2)) * 0.4 + 0.1)

    # polynomial data of one degree more than the target space
    coeffs = RNG.standard_normal(ps.vector_dim("P", k + 1))
    poly = pj.LocalVectorField(em, "P", k + 1, coeffs)
    ref_route = pj.rt_project(poly, k, em) if method == "rt" else pj.bdm_project(poly, k, em)
    phys_route = physical_hdiv_projection(poly, method, k, em)
    assert np.abs(ref_route(pts) - phys_route(pts)).max() < 1e-11

    # smooth data
    q, divq, u = smooth_pair()
    if method == "rt":
        ref_route = pj.rt_project(q, k, em, quad_exactness=2 * k + 6)
    else:
        ref_route = pj.bdm_project(q, k, em, quad_exactness=2 * k + 6)
    phys_route = physical_hdiv_projection(q, method, k, em)
    assert np.abs(ref_route(pts) - phys_route(pts)).max() < 1e-11


@pytest.mark.parametrize("k", (0, 1, 2))
def test_piola_invariance_hdg(k):
    # same dual-route check for the coupled projection
    q, divq, u = smooth_pair()
    tau = np.array([1.0, 0.5, 2.0])
    em = EM
    Pq, Pu = pj.hdg_project(q, u, k, em, tau, quad_exactness=2 * k + 6)
    qfield, ufield = physical_hdg_projection(q, u, k, em, tau)
    sample = em.forward(RNG.random((30, 2)) * 0.4 + 0.1)
    assert np.abs(Pq(sample) - qfield(sample)).max() < 1e-11
    assert np.abs(Pu(sample) - ufield(sample)).max() < 1e-11


# ---------------------------------------------------------------- liftings


@pytest.mark.parametrize("method,k", [("rt", 0), ("rt", 1), ("rt", 2), ("bdm", 1), ("bdm", 2)])
def test_lifting_reproduces_normal_trace(method, k):
    coeffs = RNG.standard_normal((3, k + 1))
    lift = pj.lift_normal_trace(coeffs, method, k, EM)
    t = np.linspace(0.02, 0.98, 9)
    for loc in range(3):
        target = pj.face_values(coeffs[loc], EM.edge_lengths[loc], t)
        assert np.abs(lift.normal_trace(loc, t) - target).max() < 1e-11


def test_lifting_zero_gives_zero():
    lift = pj.lift_normal_trace(np.zeros((3, 2)), "rt", 1, EM)
    assert np.abs(lift.coeffs).max() < 1e-13


def test_lifting_consistency_with_projection():
    # mu = (Pi q) . n lifts back to a field with the same normal trace
    k = 1
    q, divq, u = smooth_pair()
    proj = pj.rt_project(q, k, EM)
    mu = lambda loc, t: proj.normal_trace(loc, t)
    lift = pj.lift_normal_trace(mu, "rt", k, EM)
    t = np.linspace(0.05, 0.95, 7)
    for loc in range(3):
        assert np.abs(lift.normal_trace(loc, t) - proj.normal_trace(loc, t)).max() < 1e-11


def test_lifting_divergence_theorem_k0():
    # constant trace mu = 1: <q.n, 1> = (div q, 1) forces div q = |dK|/|K|
    coeffs = np.sqrt(EM_REF.edge_lengths)[:, None]
    lift = pj.lift_normal_trace(coeffs, "rt", 0, EM_REF)
    expected = (2 + np.sqrt(2.0)) / 0.5
    assert lift.div(np.array([[0.25, 0.25]]))[0] == pytest.approx(expected, rel=1e-12)


def test_lifting_norm_bound_recorded():
    # || L mu ||_K <= C h^{1/2} || mu ||_dK with C stable over refinements
    q, divq, u = smooth_pair()
    consts = {"rt": [], "bdm": []}
    coeffs = RNG.standard_normal((3, 2))
    for lvl in range(4):
        h = 0.5**lvl
        em = build_reference_map(np.array([[0.1, 0.0], [1.2, 0.2], [0.3, 1.0]]) * h)
        for method in ("rt", "bdm"):
            lift = pj.lift_normal_trace(coeffs, method, 1, em)
            rule = ps.triangle_rule(10)
            pts = em.forward(rule.points)
            vals = lift(pts)
            norm = np.sqrt((rule.weights * em.detJ) @ np.einsum("nc,nc->n", vals, vals))
            mu_norm = np.sqrt(np.sum(coeffs**2))
            consts[method].append(norm / (np.sqrt(em.h) * mu_norm))
    for method, vals in consts.items():
        vals = np.array(vals)
        # same constant across the scaling family (exact similarity here)
        assert vals.max() / vals.min() < 1.5
        assert vals.max() < 10.0


def test_unisolvence_condition_numbers():
    for k in range(4):
        assert pj.projection_problem("rt", k).condition() < 1e8
        if k >= 1:
            assert pj.projection_problem("bdm", k).condition() < 1e8
        prob = pj.hdg_projection_problem(k, np.ones(3), EM)
        assert prob.condition() < 1e8


def test_unisolvence_over_shape_regular_family():
    # the element only enters the HDG system through |a| tau; sweep a random
    # family with bounded aspect ratio
    rng = np.random.default_rng(314)
    count = 0
    while count < 30:
        v = rng.random((3, 2)) * 2 - 1
        try:
            em = build_reference_map(v)
        except Exception:
            continue
        sides = em.edge_lengths
        rho = 2.0 * em.detJ / sides.sum()
        if sides.max() / rho > 8.0:
            continue
        count += 1
        tau = rng.random(3) + 0.1
        for k in (0, 2):
            assert pj.hdg_projection_problem(k, tau, em).condition() < 1e8

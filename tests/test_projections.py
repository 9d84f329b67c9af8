import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings
from hypothesis import strategies as st

import hybridfem.polyspaces as ps
import hybridfem.projections as pj
from hybridfem.errors import (
    DegenerateElement,
    InvalidProblemData,
    InvalidStabilization,
    SingularLocalSystem,
    UnsupportedDegree,
)
from hybridfem.harness import CASES
from hybridfem.mesh import Mesh, build_reference_map, uniform_refine, unit_square

from oracles import (
    hdg_matrices,
    hdg_projection_problem,
    physical_hdg_projection,
    physical_hdiv_projection,
    reference_hdg_coeffs,
)
from test_batched import MESHES, perturbed

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
    assert proj.mean() == pytest.approx(mean, abs=1e-14)


def test_mean_is_a_mean_not_an_integral():
    # the constant 1 on a triangle of area 2 has mean 1 (its integral is 2)
    em = build_reference_map([[0, 0], [2, 0], [0, 2]])
    proj = pj.project_scalar(lambda x: np.ones(len(x)), 0, em)
    assert proj.mean() == pytest.approx(1.0, abs=1e-14)


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


def test_project_face_rejects_bad_input():
    one = lambda x: np.ones(len(x))
    p0 = np.array([0.3, 0.1])
    with pytest.raises(DegenerateElement):
        pj.project_face(one, 1, p0, p0.copy())
    with pytest.raises(DegenerateElement):
        pj.project_face(one, 1, np.stack([p0, p0]), np.stack([p0 + 1.0, p0]))
    with pytest.raises(UnsupportedDegree):
        pj.project_face(one, -1, p0, p0 + 1.0)


def test_unknown_method_is_rejected():
    with pytest.raises(UnsupportedDegree, match="unknown method"):
        pj.lift_normal_trace(np.ones((3, 2)), "xx", 1, EM)
    with pytest.raises(UnsupportedDegree, match="unknown method"):
        pj.lift_normal_trace(np.ones((3, 2)), "hdg", 1, EM)


ONES = lambda x: np.ones(len(x))
ONES2 = lambda x: np.ones((len(x), 2))
UNSUPPORTED = [("rt", 4), ("bdm", 0), ("hdg", 4), ("xx", 1), ("rt", 1.0), ("hdg", True)]
# each entry point, and the method it projects onto (None: any)
ENTRY_POINTS = [
    ("SpaceDescriptor", None, lambda m, k: ps.SpaceDescriptor(m, k)),
    ("rt_project", "rt", lambda m, k: pj.rt_project(ONES2, k, EM)),
    ("bdm_project", "bdm", lambda m, k: pj.bdm_project(ONES2, k, EM)),
    ("hdg_project", "hdg", lambda m, k: pj.hdg_project(ONES2, ONES, k, EM, np.ones(3))),
    ("hdg_project_decoupled", "hdg", lambda m, k: pj.hdg_project_decoupled(ONES2, ONES, ONES, k, EM, np.ones(3))),
    ("lift_normal_trace", None, lambda m, k: pj.lift_normal_trace(np.ones((3, 2)), m, k, EM)),
]


@pytest.mark.parametrize(
    "call, method, k",
    [
        pytest.param(call, m, k, id=f"{name}-{m}{k}")
        for name, own, call in ENTRY_POINTS
        for m, k in UNSUPPORTED
        if own in (None, m)
    ],
)
def test_unsupported_space_is_rejected_by_the_descriptor(call, method, k):
    with pytest.raises(UnsupportedDegree) as want:
        ps.SpaceDescriptor(method, k)
    with pytest.raises(UnsupportedDegree) as got:
        call(method, k)
    assert str(got.value) == str(want.value)


def _nan(x):
    return np.full(len(x), np.nan)


@pytest.mark.parametrize(
    "call",
    [
        lambda: pj.project_scalar(_nan, 1, EM),
        lambda: pj.project_face(lambda x: np.full(len(x), np.inf), 1, [0, 0], [1, 0]),
        lambda: pj.rt_project(lambda x: np.full((len(x), 2), np.nan), 1, EM),
        lambda: pj.bdm_project(lambda x: np.full((len(x), 2), -np.inf), 2, EM),
        lambda: pj.hdg_project(lambda x: np.ones((len(x), 2)), _nan, 1, EM, np.ones(3)),
        lambda: pj.hdg_project_decoupled(
            lambda x: np.ones((len(x), 2)), _nan, lambda x: np.ones(len(x)), 1, EM, np.ones(3)
        ),
        lambda: pj.lift_normal_trace(np.full((3, 2), np.nan), "rt", 1, EM),
        lambda: pj.lift_normal_trace(lambda e, t: np.full(len(t), np.inf), "bdm", 1, EM),
    ],
    ids=["scalar", "face", "rt", "bdm", "hdg", "hdg-div", "lift-coeffs", "lift-callable"],
)
def test_nonfinite_data_is_rejected(call):
    with pytest.raises(InvalidProblemData):
        call()


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
    prob = pj._ref(ps.SpaceDescriptor("bdm", 1)).problem
    assert prob.matrix.shape == (6, 6)


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
    for tau in ([-1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [np.nan, 1, 1], [np.inf, 1, 1], [1, -np.inf, 1]):
        with pytest.raises(InvalidStabilization):
            pj.hdg_project(q, u, 1, EM, np.array(tau))


def test_factor_rejects_singular_element():
    M = np.tile(np.eye(4), (3, 1, 1))
    M[1, 2] = M[1, 0]
    with pytest.raises(SingularLocalSystem):
        pj._factor("rt", 1, M)


@pytest.mark.parametrize("shift", (0.0, 1e-14), ids=("scaled", "shifted"))
def test_factor_rejects_near_singular_element(shift):
    rng = np.random.default_rng(5)
    M = np.eye(6) + 0.1 * rng.standard_normal((4, 6, 6))
    pj._factor("hdg", 2, M)
    # not exactly singular: row 2 is row 0 scaled by 1 + 1e-15, plus a
    # random shift that keeps LU off an exact zero pivot (condition ~1e14)
    M[2, 2] = M[2, 0] * (1.0 + 1e-15) + shift * rng.standard_normal(6)
    assert not np.array_equal(M[2, 2], M[2, 0])
    with pytest.raises(SingularLocalSystem):
        pj._factor("hdg", 2, M)


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("tau", ((1.5, 1.5, 1.5), (2.0, 0.0, 0.0)), ids=("constant", "single-face"))
@pytest.mark.parametrize("k", range(4))
def test_hdg_stack_solve_matches_per_element_solve(k, tau, sign):
    mesh = uniform_refine(unit_square(2))
    rng = np.random.default_rng(k)
    verts = mesh.vertices + 0.02 * rng.standard_normal(mesh.vertices.shape) * ~np.isin(
        mesh.vertices, (0.0, 1.0)
    )
    geo = Mesh(verts, mesh.triangles).geometry
    M = hdg_matrices(pj._ref(ps.SpaceDescriptor("hdg", k)), geo, np.tile(tau, (len(geo), 1)), sign)
    rhs = rng.standard_normal(M.shape[:2])
    got = pj._factor("hdg", k, M).solve(rhs)
    # each row of the stack gets the bits of its element's own checked inverse
    assert np.array_equal(got, np.stack([pj._factor("hdg", k, a).solve(b) for a, b in zip(M, rhs)]))
    want = np.stack([la.solve(a, b) for a, b in zip(M, rhs)])
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def assert_kernel_matches_coupled(geo, k, tau, sign):
    case = CASES["smooth"]
    ref = pj._ref(ps.SpaceDescriptor("hdg", k))
    got = pj._hdg_coeffs(*pj._sample([case.q, case.u], geo, ref.vol, ref.edge), k, geo, tau, sign)
    want = reference_hdg_coeffs(case.q, case.u, k, geo, tau, sign)
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("tau", ("constant", "single-face", "drawn"))
@pytest.mark.parametrize("k", range(4))
def test_hdg_kernel_matches_coupled_solve(k, tau, sign, mesh_name):
    geo = MESHES[mesh_name].geometry
    n = len(geo)
    if tau == "constant":
        values = np.full((n, 3), 1.5)
    elif tau == "single-face":
        values = np.zeros((n, 3))
        values[:, 0] = 2.0
    else:
        rng = np.random.default_rng(k)
        values = rng.uniform(0.1, 10.0, (n, 3))
        values[::2, 1] = 0.0
    assert_kernel_matches_coupled(geo, k, values, sign)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    k=st.integers(0, 3),
    sign=st.sampled_from([1, -1]),
    # tau in [0.1, 10] on every face of the 8 triangles, except one face
    # with tau = 0 in the elements drawn for it
    tau_faces=st.lists(st.floats(0.1, 10.0), min_size=24, max_size=24),
    zero_face=st.lists(st.sampled_from([None, 0, 1, 2]), min_size=8, max_size=8),
)
def test_hdg_kernel_matches_coupled_solve_on_perturbed_meshes(seed, k, sign, tau_faces, zero_face):
    geo = perturbed(uniform_refine(unit_square(1)), seed, 0.25).geometry
    values = np.reshape(tau_faces, (8, 3))
    for t, face in enumerate(zero_face):
        if face is not None:
            values[t, face] = 0.0
    assert_kernel_matches_coupled(geo, k, values, sign)


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


@pytest.mark.parametrize("shape", [(3, 1), (2, 2), (3, 3), (6,)])
def test_lifting_rejects_misshapen_coefficients(shape):
    with pytest.raises(InvalidProblemData):
        pj.lift_normal_trace(np.zeros(shape), "rt", 1, EM)


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
        assert np.linalg.cond(pj._ref(ps.SpaceDescriptor("rt", k)).problem.matrix) < 1e8
        if k >= 1:
            assert np.linalg.cond(pj._ref(ps.SpaceDescriptor("bdm", k)).problem.matrix) < 1e8
        prob = hdg_projection_problem(k, np.ones(3), EM)
        assert np.linalg.cond(prob.matrix) < 1e8


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
            assert np.linalg.cond(hdg_projection_problem(k, tau, em).matrix) < 1e8

from math import comb, factorial

import numpy as np
import pytest

import hybridfem.polyspaces as ps
import oracles
from hybridfem.errors import UnsupportedDegree
from hybridfem.mesh import ReferenceTriangle


def l2_inner(fa, fb, exactness=14):
    rule = ps.triangle_rule(exactness)
    return fa(rule.points).T @ (rule.weights[:, None] * fb(rule.points))


@pytest.mark.parametrize("k", range(5))
def test_scalar_basis_orthonormal(k):
    b = ps.scalar_basis(k)
    assert b.dim == (k + 1) * (k + 2) // 2
    G = l2_inner(b.eval, b.eval)
    assert np.abs(G - np.eye(b.dim)).max() < 1e-12


def test_scalar_dims_match_binomials():
    for k in range(5):
        assert ps.scalar_dim(k) == comb(k + 2, 2)
        assert ps.face_space_dim(k) == 3 * comb(k + 1, 1)


@pytest.mark.parametrize("k,dim", [(0, 3), (1, 8), (2, 15), (3, 24)])
def test_rt_dims(k, dim):
    assert ps.rt_dim(k) == dim
    assert ps.vector_basis("RT", k).dim == dim
    # eq form: d*C(k+d,d) + C(k+d-1,d-1) with d=2
    assert dim == 2 * comb(k + 2, 2) + comb(k + 1, 1)


def test_orthocomplement_basis():
    # k=0: the single constant 1/sqrt(|Khat|) = sqrt(2)
    c0 = ps.orthocomplement_basis(0)
    assert c0.dim == 1
    assert np.allclose(c0.eval(np.array([[0.1, 0.3], [0.2, 0.2]])), np.sqrt(2.0))
    # k=1: two zero-mean functions
    c1 = ps.orthocomplement_basis(1)
    assert c1.dim == 2
    rule = ps.triangle_rule(8)
    means = rule.weights @ c1.eval(rule.points)
    assert np.abs(means).max() < 1e-13
    # general: orthogonal to everything of lower degree, and to x*y at k=2
    for k in (1, 2, 3):
        comp = ps.orthocomplement_basis(k)
        assert comp.dim == k + 1
        low = ps.scalar_basis(k - 1)
        cross = l2_inner(low.eval, comp.eval)
        assert np.abs(cross).max() < 1e-12
    # graded construction: the last k=2 complement function is built after
    # x*y in the monomial order, hence orthogonal to it; x*y itself has a
    # genuine degree-2 complement component, so full orthogonality to x*y
    # cannot hold for the whole block.
    comp2 = ps.orthocomplement_basis(2)
    xy = lambda pts: (pts[:, 0] * pts[:, 1])[:, None]
    cross = l2_inner(xy, comp2.eval)
    assert abs(cross[0, -1]) < 1e-12
    low = ps.scalar_basis(1)
    assert np.abs(l2_inner(low.eval, comp2.eval)).max() < 1e-12


@pytest.mark.parametrize("k", range(4))
def test_rt_space_sandwich(k):
    # P_k^2 subset RT_k subset P_{k+1}^2, via least-squares membership
    rule = ps.triangle_rule(10)
    rt = ps.vector_basis("RT", k).eval(rule.points)
    pk = ps.vector_basis("P", k).eval(rule.points)
    pk1 = ps.vector_basis("P", k + 1).eval(rule.points)

    def fits(target, basis):
        T = target.transpose(0, 2, 1).reshape(-1, target.shape[1])
        Bm = basis.transpose(0, 2, 1).reshape(-1, basis.shape[1])
        sol, *_ = np.linalg.lstsq(Bm, T, rcond=None)
        return np.abs(Bm @ sol - T).max()

    assert fits(pk, rt) < 1e-10          # P_k inside RT_k
    assert fits(rt, pk1) < 1e-10         # RT_k inside P_{k+1}
    # both inclusions proper: dimensions strictly increase
    assert ps.vector_dim("P", k) < ps.rt_dim(k) < ps.vector_dim("P", k + 1)


def test_rotated_space_is_rotation_of_rt():
    pts = np.random.default_rng(0).random((6, 2)) * 0.4
    for k in range(3):
        vr = ps.vector_basis("RT", k).eval(pts)
        vn = ps.vector_basis("N", k).eval(pts)
        rot = np.stack([-vr[:, :, 1], vr[:, :, 0]], axis=-1)
        assert np.abs(rot - vn).max() == 0.0


@pytest.mark.parametrize("k", range(3))
def test_rotated_dimension_count(k):
    # dim N_{k-1} + dim R_{k+1}(dK) = dim P_{k+1}^2   (2D instance)
    n_dim = ps.vector_dim("N", k - 1)
    assert n_dim + ps.face_space_dim(k + 1) == ps.vector_dim("P", k + 1)


@pytest.mark.parametrize("k", range(4))
def test_divergence_free_rt_lies_in_full_space(k):
    # div q = 0 with q in RT_k implies q in P_k^2: the nullspace of the
    # divergence has no component on the x-weighted block.
    rt = ps.vector_basis("RT", k)
    D = rt.div_coeffs()
    ns = np.linalg.svd(D)[2][np.linalg.matrix_rank(D, tol=1e-10) :]
    if len(ns):
        assert np.abs(ns[:, 2 * ps.scalar_dim(k) :]).max() < 1e-10


@pytest.mark.parametrize("k", range(4))
def test_divergence_surjectivity(k):
    assert ps.divergence_surjectivity_check(k) < 1e-10


def test_divergence_of_scaled_position_field():
    # div(x/2) = 1 solves the k=0 case of surjectivity by hand
    rt = ps.vector_basis("RT", 0)
    pts = np.random.default_rng(1).random((5, 2)) * 0.3
    # x/2 = (phi_0-block coefficient on the position-field function) / (2 sqrt(2))
    coeffs = np.zeros(rt.dim)
    coeffs[2] = 1.0  # the x * (constant sqrt(2)) function
    div = rt.div(pts) @ coeffs
    assert np.allclose(div, 2.0 * np.sqrt(2.0))


@pytest.mark.parametrize("k", range(3))
def test_boundary_decomposition(k):
    sigma_min, cross = ps.boundary_decomposition_check(k)
    assert sigma_min > 1e-8
    assert cross < 1e-11
    # dimension count 2(k+1) + (k+1) = 3(k+1)
    assert ps.orthocomplement_basis(k).dim * 3 == ps.face_space_dim(k)


@pytest.mark.parametrize("k", range(4))
def test_complement_trace_injectivity(k):
    # A complement function vanishing on any single edge vanishes entirely:
    # the trace map onto each edge has full rank.
    comp = ps.orthocomplement_basis(k)
    rule = ps.edge_rule(k + 2)
    for e in range(3):
        pts = ReferenceTriangle.edge_points(e, rule.points)
        vals = comp.eval(pts)
        M = ps.legendre01(k, rule.points).T @ (rule.weights[:, None] * vals)
        assert np.linalg.matrix_rank(M, tol=1e-10) == k + 1
        assert np.linalg.svd(M, compute_uv=False).min() > 1e-8


@pytest.mark.parametrize("k", range(4))
def test_vector_complement_normal_trace_injectivity(k):
    # q in (P_k^perp)^2 with q.n = 0 on the whole boundary must vanish.
    comp = ps.orthocomplement_basis(k)
    rule = ps.edge_rule(k + 2)
    cols = []
    for j in range(comp.dim):
        for c in range(2):
            blocks = []
            for e in range(3):
                pts = ReferenceTriangle.edge_points(e, rule.points)
                vals = comp.eval(pts)[:, j] * ReferenceTriangle.edge_normals[e][c]
                blocks.append(ps.legendre01(k, rule.points).T @ (rule.weights * vals))
            cols.append(np.concatenate(blocks))
    M = np.column_stack(cols)
    assert np.linalg.matrix_rank(M, tol=1e-10) == 2 * (k + 1)


def test_quadrature_exactness_and_positivity():
    for exact in (2, 5, 8, 12):
        rule = ps.triangle_rule(exact)
        assert (rule.weights > 0).all()
        for a in range(exact + 1):
            for b in range(exact + 1 - a):
                val = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
                ref = factorial(a) * factorial(b) / factorial(a + b + 2)
                assert abs(val - ref) < 1e-13


def test_edge_rule_exactness():
    rule = ps.edge_rule(4)
    for p in range(2 * 4):
        assert np.sum(rule.weights * rule.points**p) == pytest.approx(1 / (p + 1), abs=1e-14)


@pytest.mark.parametrize(
    "call",
    [lambda: ps.vector_dim("Q", 1), lambda: ps.vector_basis("Q", 1),
     lambda: ps.triangle_rule(-1), lambda: ps.edge_rule(0)],
    ids=["vector-dim-tag", "vector-basis-tag", "triangle-rule", "edge-rule"],
)
def test_out_of_range_requests_raise_unsupported_degree(call):
    with pytest.raises(UnsupportedDegree):
        call()


def test_face_basis_orthonormal_per_edge():
    fb = ps.FaceBasis(2)
    rule = ps.edge_rule(6)
    for e in range(3):
        vals = fb.eval_edge(e, rule.points)
        L = ReferenceTriangle.edge_lengths[e]
        G = vals.T @ (rule.weights[:, None] * vals) * L
        assert np.abs(G - np.eye(3)).max() < 1e-13


def test_compose_affine_matches_pointwise():
    rng = np.random.default_rng(5)
    exps = ps.monomial_exponents(4)
    c = rng.standard_normal(len(exps))
    B = rng.standard_normal((2, 2))
    b = rng.standard_normal(2)
    cc = ps.compose_affine(exps, c, B, b)
    pts = rng.random((20, 2))
    lhs = ps.monomial_eval(exps, pts) @ cc
    rhs = ps.monomial_eval(exps, pts @ B.T + b) @ c
    assert np.abs(lhs - rhs).max() < 1e-11


@pytest.mark.parametrize("k", range(7))
def test_compose_affine_matches_term_by_term_reference(k):
    rng = np.random.default_rng(40 + k)
    exps = ps.monomial_exponents(k)
    maps = [(rng.standard_normal((2, 2)), rng.standard_normal(2)) for _ in range(3)]
    maps.append((np.array([[0.3, 1.2], [0.9, -0.4]]), rng.standard_normal(2)))  # det B < 0
    for B, b in maps:
        stack = rng.standard_normal((3, len(exps)))
        ref = np.array([oracles.reference_compose_affine(exps, c, B, b) for c in stack])
        got = ps.compose_affine(exps, stack, B, b)
        assert got.shape == (3, len(exps))
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        row = ps.compose_affine(exps, stack[1], B, b)
        assert row.shape == (len(exps),)
        assert np.abs(row - ref[1]).max() <= 1e-14 * np.abs(ref[1]).max()

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hybridfem.polyspaces as ps
from hybridfem.mesh import build_reference_map
from hybridfem.piola import TransformKind, pull_back, push_forward, verify_operator_identities

RNG = np.random.default_rng(11)


def random_map(seed, scale=1.0):
    rng = np.random.default_rng(seed)
    while True:
        v = rng.random((3, 2)) * 2 - 1
        try:
            em = build_reference_map(scale * v)
        except Exception:
            continue
        if em.detJ > 0.05 * scale**2:
            return em


def test_identity_map_leaves_fields_unchanged():
    em = build_reference_map([[0, 0], [1, 0], [0, 1]])
    pts = RNG.random((8, 2)) * 0.4
    u = lambda x: np.sin(x[:, 0] + 2 * x[:, 1])
    q = lambda x: np.stack([x[:, 1], np.cos(x[:, 0])], axis=-1)
    for kind, f in [
        (TransformKind.PRIMAL_SCALAR, u),
        (TransformKind.DUAL_SCALAR, u),
        (TransformKind.PRIMAL_VECTOR, q),
        (TransformKind.DUAL_VECTOR, q),
    ]:
        assert np.abs(pull_back(f, kind, em)(pts) - f(pts)).max() < 1e-14


def test_scaling_map_examples():
    em = build_reference_map([[0, 0], [2, 0], [0, 2]])
    qhat = lambda xh: np.tile([1.0, 0.0], (len(xh), 1))
    pts = np.array([[0.5, 0.5], [1.0, 0.2]])
    phys = push_forward(qhat, TransformKind.PRIMAL_VECTOR, em)(pts)
    assert np.allclose(phys, [0.5, 0.0])
    phys = push_forward(qhat, TransformKind.DUAL_VECTOR, em)(pts)
    assert np.allclose(phys, [0.5, 0.0])


@pytest.mark.parametrize(
    "kind",
    [
        TransformKind.PRIMAL_SCALAR,
        TransformKind.PRIMAL_VECTOR,
        TransformKind.DUAL_SCALAR,
        TransformKind.DUAL_VECTOR,
    ],
)
def test_push_pull_roundtrip(kind):
    em = random_map(4)
    if "VECTOR" in kind.name:
        f = lambda x: np.stack([np.sin(x[:, 0]), x[:, 1] ** 3], axis=-1)
    else:
        f = lambda x: np.cos(x[:, 0] * x[:, 1])
    back = push_forward(pull_back(f, kind, em), kind, em)
    pts = em.forward(RNG.random((10, 2)) * 0.3)
    assert np.abs(back(pts) - f(pts)).max() < 1e-13


def test_trace_roundtrip():
    em = random_map(9)
    mu = lambda e, t: np.sin(3 * t) + e
    for kind in (TransformKind.PRIMAL_TRACE, TransformKind.DUAL_TRACE):
        back = push_forward(pull_back(mu, kind, em), kind, em)
        t = np.linspace(0, 1, 7)
        for e in range(3):
            assert np.abs(back(e, t) - mu(e, t)).max() < 1e-13


def test_pairing_preservation():
    # (u, u*)_K = (uhat, ucheck*)_Khat, and likewise for vectors and traces.
    em = random_map(21)
    rule = ps.triangle_rule(16)
    u = lambda x: np.sin(x[:, 0]) * x[:, 1]
    us = lambda x: np.cos(x[:, 1]) + x[:, 0]
    q = lambda x: np.stack([x[:, 0] ** 2, np.sin(x[:, 1])], axis=-1)
    qs = lambda x: np.stack([np.cos(x[:, 0]), x[:, 1]], axis=-1)

    phys_pts = em.forward(rule.points)
    w_phys = rule.weights * em.detJ
    lhs = w_phys @ (u(phys_pts) * us(phys_pts))
    uhat = pull_back(u, TransformKind.PRIMAL_SCALAR, em)
    ucheck = pull_back(us, TransformKind.DUAL_SCALAR, em)
    rhs = rule.weights @ (uhat(rule.points) * ucheck(rule.points))
    assert abs(lhs - rhs) < 1e-12 * max(1, abs(lhs))

    lhs = w_phys @ np.einsum("nc,nc->n", q(phys_pts), qs(phys_pts))
    qhat = pull_back(q, TransformKind.PRIMAL_VECTOR, em)
    qcheck = pull_back(qs, TransformKind.DUAL_VECTOR, em)
    rhs = rule.weights @ np.einsum("nc,nc->n", qhat(rule.points), qcheck(rule.points))
    assert abs(lhs - rhs) < 1e-12 * max(1, abs(lhs))

    erule = ps.edge_rule(8)
    mu = lambda e, t: np.sin(t + e)
    mus = lambda e, t: t**2 - e
    lhs = sum(
        em.edge_lengths[e] * (erule.weights @ (mu(e, erule.points) * mus(e, erule.points)))
        for e in range(3)
    )
    muhat = pull_back(mu, TransformKind.PRIMAL_TRACE, em)
    mucheck = pull_back(mus, TransformKind.DUAL_TRACE, em)
    import hybridfem.mesh as hm

    rhs = sum(
        hm.ReferenceTriangle.edge_lengths[e]
        * (erule.weights @ (muhat(e, erule.points) * mucheck(e, erule.points)))
        for e in range(3)
    )
    assert abs(lhs - rhs) < 1e-12 * max(1, abs(lhs))


def test_operator_identities_trivial_cases():
    # degree-1 fields: the chain rule is exact for affine maps, residual is
    # pure round-off
    em = random_map(33)
    assert verify_operator_identities(em, degree=1, rng=0) < 1e-13


def test_operator_identities_random_cubics():
    worst = 0.0
    for seed in range(25):
        em = random_map(100 + seed)
        worst = max(worst, verify_operator_identities(em, degree=3, rng=seed))
    assert worst < 1e-11


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda em: {"edge_normals": -em.edge_normals},
        lambda em: {"invB": em.invB.T},
        lambda em: {"detJ": 1.5 * em.detJ},
    ],
    ids=["negated-edge-normals", "transposed-invB", "scaled-detJ"],
)
def test_operator_identities_reject_corrupted_map(corrupt):
    em = random_map(7)
    assert verify_operator_identities(em, degree=3, rng=0) < 1e-11
    wrong = dataclasses.replace(em, **corrupt(em))
    assert verify_operator_identities(wrong, degree=3, rng=0) > 1e-6


@pytest.mark.parametrize("tag,kind", [("RT", "primal"), ("P", "primal"), ("N", "dual")])
def test_space_preservation_under_transforms(tag, kind):
    # Random reference field -> physical via the space's transform -> fit in
    # the physical-coordinate span of the same space.
    k = 2
    em = random_map(55)
    basis = ps.vector_basis(tag, k)
    coeffs = RNG.standard_normal(basis.dim)

    def ref_field(xh):
        return np.einsum("ndc,d->nc", basis.eval(xh), coeffs)

    tk = TransformKind.PRIMAL_VECTOR if kind == "primal" else TransformKind.DUAL_VECTOR
    phys = push_forward(ref_field, tk, em)

    pts = em.forward(ps.triangle_rule(10).points)
    vals = phys(pts)
    # the same coefficient family evaluated in physical coordinates spans the
    # physical-element space (both spaces are affine-invariant)
    Bm = basis.eval(pts).transpose(0, 2, 1).reshape(-1, basis.dim)
    T = vals.reshape(-1)
    sol, *_ = np.linalg.lstsq(Bm, T, rcond=None)
    assert np.abs(Bm @ sol - T).max() < 1e-10 * max(1.0, np.abs(vals).max())


def test_complement_space_preserved():
    # scalar complement: primal transform of a complement function stays
    # orthogonal to the lower-degree space on the reference element
    k = 2
    em = random_map(77)
    comp = ps.orthocomplement_basis(k)
    coeffs = RNG.standard_normal(comp.dim)

    def phys(x):  # physical polynomial whose pull-back we want
        return comp.eval(x) @ coeffs

    # P_k^perp(K) in physical coordinates: orthogonal against P_{k-1}(K)
    rule = ps.triangle_rule(12)
    phys_pts = em.forward(rule.points)
    w_phys = rule.weights * em.detJ
    # build P_k^perp(K) from physical monomials by Gram-Schmidt against P_{k-1}(K)
    low = ps.scalar_basis(k - 1)
    low_vals = low.eval(phys_pts)  # physical-coordinate polynomials
    G = low_vals.T @ (w_phys[:, None] * low_vals)
    target = phys(phys_pts)
    proj = low_vals @ np.linalg.solve(G, low_vals.T @ (w_phys * target))
    perp_phys = target - proj  # now in P_k^perp(K)
    # pull back primally and check orthogonality against P_{k-1}(Khat)
    uhat_vals = perp_phys  # values at mapped points = values of pull-back at rule.points
    lowhat = low.eval(rule.points)
    cross = lowhat.T @ (rule.weights * uhat_vals)
    assert np.abs(cross).max() < 1e-11 * max(1.0, np.abs(uhat_vals).max())


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(0.01, 10.0), seed=st.integers(0, 1000))
def test_norm_scaling_equivalences(scale, seed):
    # d=2: ||u||_K / (h ||uhat||) in a fixed window on shape-regular elements,
    # ||mu||_dK / (h^{1/2} ||muhat||) likewise.
    em = random_map(seed, scale=scale)
    sides = em.edge_lengths
    h = sides.max()
    rho = 2.0 * em.detJ / sides.sum()
    gamma = h / rho
    u = lambda x: np.sin(x[:, 0] / scale) + x[:, 1] / scale
    rule = ps.triangle_rule(12)
    uhat = pull_back(u, TransformKind.PRIMAL_SCALAR, em)(rule.points)
    norm_hat = np.sqrt(rule.weights @ uhat**2)
    phys_pts = em.forward(rule.points)
    norm_phys = np.sqrt((rule.weights * em.detJ) @ u(phys_pts) ** 2)
    ratio = norm_phys / (h * norm_hat)
    assert 1.0 / (2.0 * gamma) <= ratio <= 2.0

    erule = ps.edge_rule(8)
    import hybridfem.mesh as hm

    mu = lambda e, t: np.cos(t) + 0.5 * e
    n_phys = np.sqrt(
        sum(sides[e] * (erule.weights @ mu(e, erule.points) ** 2) for e in range(3))
    )
    n_hat = np.sqrt(
        sum(
            hm.ReferenceTriangle.edge_lengths[e] * (erule.weights @ mu(e, erule.points) ** 2)
            for e in range(3)
        )
    )
    ratio = n_phys / (np.sqrt(h) * n_hat)
    assert 1.0 / (2.0 * np.sqrt(gamma)) <= ratio <= 1.0 + 1e-12


def test_trace_compatibility():
    # (u|dK)^ = uhat|dKhat: restriction commutes with the primal transform.
    em = random_map(123)
    u = lambda x: np.sin(2 * x[:, 0]) * x[:, 1]
    uhat = pull_back(u, TransformKind.PRIMAL_SCALAR, em)
    t = np.linspace(0, 1, 9)
    import hybridfem.mesh as hm

    for e in range(3):
        ref_pts = hm.ReferenceTriangle.edge_points(e, t)
        lhs = uhat(ref_pts)
        rhs = u(em.edge_points(e, t))
        assert np.abs(lhs - rhs).max() < 1e-13

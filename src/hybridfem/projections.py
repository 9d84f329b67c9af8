"""Local projections and liftings defined by their moment equations.

Every projection is characterized by a square linear system on the reference
triangle; physical-element results follow from the transform invariance of
the defining equations, so coefficients returned here are simultaneously
reference-basis coefficients and physical-field coefficients under the
conventions of :class:`LocalVectorField` / :class:`LocalScalarField`:

* vector fields: q(x) = |J|^-1 B qhat(G(x)) with qhat spanned by the
  reference basis (contravariant convention, preserves normal traces),
* scalar fields: u(x) = uhat(G(x)) (plain composition).

The element L2 projection and the face L2 projection diagonalize in the
orthonormal bases; RT/BDM systems are built and checked once per space
descriptor (:class:`~hybridfem.polyspaces.SpaceDescriptor`, which fixes the
local spaces).  The HDG projection is computed in its decoupled form
(Cockburn, Gopalakrishnan & Sayas 2010): the complement part of the
potential solves a (k+1) x (k+1) system per element, and the flux one of
three reference systems checked once per descriptor (:func:`_hdg_coeffs`).

Every system is applied through its checked inverse
(:class:`ProjectionProblem`), and every per-element product is a stacked
one (:func:`_times`).  Every projection is computed by one kernel over a
stack of elements (the affine maps of a block of a mesh and the data
sampled at their quadrature points by :func:`_sample`); the per-element
functions call it with a batch of one and get the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import polyspaces as ps
from .errors import (
    DegenerateElement,
    InvalidProblemData,
    InvalidStabilization,
    SingularLocalSystem,
    UnsupportedDegree,
)
from .mesh import ElementMap, ReferenceTriangle

__all__ = [
    "LocalScalarField",
    "LocalVectorField",
    "ProjectionProblem",
    "project_scalar",
    "project_face",
    "rt_project",
    "bdm_project",
    "hdg_project",
    "hdg_project_decoupled",
    "lift_normal_trace",
    "check_stabilization",
]

_ROOT_LHAT = np.sqrt(ReferenceTriangle.edge_lengths)[:, None, None]


@dataclass
class LocalScalarField:
    """Scalar polynomial on one element, coefficients in the pulled-back
    orthonormal reference basis (so the element mass matrix is |J| I)."""

    emap: ElementMap
    degree: int
    coeffs: np.ndarray

    def basis(self):
        return ps.scalar_basis(self.degree)

    def __call__(self, x):
        return self.ref_values(self.emap.inverse(x))

    def ref_values(self, xhat):
        return self.basis().eval(xhat) @ self.coeffs

    def grad(self, x):
        g = self.basis().grad(self.emap.inverse(x))  # (n, dim, 2)
        return np.einsum("nic,i->nc", g, self.coeffs) @ self.emap.invB

    def edge_values(self, local_edge, t):
        xhat = ReferenceTriangle.edge_points(local_edge, np.asarray(t, dtype=float))
        return self.ref_values(xhat)

    def mean(self):
        return float(_element_mean(self.coeffs[0]))


def _element_mean(c0):
    """Mean over its element of a scalar field with first coefficient c0:
    the first basis function is the constant sqrt(2) on the reference
    triangle, and all the others have zero mean."""
    return c0 * np.sqrt(2.0)


@dataclass
class LocalVectorField:
    """Vector polynomial on one element in the contravariant convention."""

    emap: ElementMap
    space: str
    degree: int
    coeffs: np.ndarray

    def basis(self):
        return ps.vector_basis(self.space, self.degree)

    def ref_values(self, xhat):
        return np.einsum("ndc,d->nc", self.basis().eval(xhat), self.coeffs)

    def __call__(self, x):
        vals = self.ref_values(self.emap.inverse(x))
        return vals @ self.emap.B.T / self.emap.detJ

    def div(self, x):
        d = self.basis().div(self.emap.inverse(x)) @ self.coeffs
        return d / self.emap.detJ

    def normal_trace(self, local_edge, t):
        """q . n on a local edge of the physical element."""
        nt = self.basis().normal_trace(local_edge, np.asarray(t, dtype=float))
        return (nt @ self.coeffs) / self.emap.edge_jacobians[local_edge]


def _at(fn, x, finite=True):
    """Values of a callable of (N, 2) point arrays at points x (..., 2), one
    scalar or 2-vector per point, which must be finite unless ``finite`` is
    False."""
    n = x.size // 2
    vals = np.asarray(fn(x.reshape(n, 2)), dtype=float)
    if vals.shape not in ((n,), (n, 2)):
        raise InvalidProblemData(f"data must give one value per point: shape {vals.shape} at {n} points")
    if finite and not np.isfinite(vals).all():
        raise InvalidProblemData("data must be finite at the quadrature points")
    return vals.reshape(x.shape[:-1] + vals.shape[1:])


def _flat_moments(weights, vals):
    """Table (ng * 2, n) that takes vector values at ng quadrature points,
    flattened to (..., ng * 2), to their weighted moments against the
    vector test values ``vals`` (ng, n, 2)."""
    return (weights[:, None, None] * vals).transpose(0, 2, 1).reshape(2 * len(vals), -1)


def _times(x, M):
    """Rows x (..., m) times M.mT, with M (p, m) or a stack (..., p, m): one
    stacked product per row, so unlike one GEMM over the batch its bits do
    not depend on the batch size."""
    return (x[..., None, :] @ M.mT)[..., 0, :]


def _ref_vector_values(coeffs, V):
    """Reference values (n, m, 2) of stacked vector fields (coefficients
    (n, dim)) from the basis values V (m, dim, 2) at m reference points: one
    GEMM against the basis table."""
    table = V.transpose(1, 0, 2)  # (dim, m, 2)
    return (coeffs @ table.reshape(len(table), -1)).reshape(len(coeffs), len(V), 2)


def _vector_values(geo: ElementMap, V, coeffs):
    """Physical values (n, m, 2) of stacked vector fields (coefficients
    (n, dim)) at the images of the reference points of the basis values V
    (m, dim, 2)."""
    qhat = _ref_vector_values(coeffs, V)
    return qhat @ (geo.B / geo.detJ[:, None, None]).transpose(0, 2, 1)


def _normal_table(vb: ps.VectorBasis, s):
    """Normal traces q . nhat of the vector basis on the three reference
    edges at the edge parameters s, (3, ns, dim)."""
    return np.stack([vb.normal_trace(e, s) for e in range(3)])


def _normal_traces(geo: ElementMap, N, coeffs):
    """q . n of stacked vector fields on every local edge, from the
    reference table N = _normal_table(vb, s) at the edge parameters s,
    (n, 3, ns)."""
    return np.einsum("lgq,eq->elg", N, coeffs) / geo.edge_jacobians[:, :, None]


def _edge_table(basis: ps.PolyFamily, s):
    """Scalar basis values on the three reference edges at the edge
    parameters s, (3, ns, dim)."""
    return np.stack([basis.eval(ReferenceTriangle.edge_points(e, s)) for e in range(3)])


def _sample(fns, geo: ElementMap, vol, edge):
    """Values of each data function of ``fns`` on every element at the
    points of the triangle rule ``vol``, (n, ng, ...), and of the edge rule
    ``edge`` on each local edge, (n, 3, ns, ...): what the projection
    kernels take."""
    xq, xe = geo.forward(vol.points), geo.edge_forward(edge.points)
    return [(_at(fn, xq), _at(fn, xe)) for fn in fns]


@lru_cache(maxsize=None)
def _scalar_table(k: int, exactness: int):
    """The scalar basis of degree k at the points of
    ``triangle_rule(exactness)``, (ng, dim), tabulated once."""
    W = ps.scalar_basis(k).eval(ps.triangle_rule(exactness).points)
    W.flags.writeable = False
    return W


def _scalar_coeffs(u, k: int, vol):
    """Element L2 projection coefficients (n, dim P_k) of data with the
    values u (n, ng) at the points of the triangle rule ``vol``."""
    return _times(vol.weights * u, _scalar_table(k, vol.exactness).T)


def project_scalar(u, k: int, emap: ElementMap, quad_exactness=None) -> LocalScalarField:
    """Element L2 projection onto the degree-k scalar space."""
    vol = ps.quadrature_rules(k, quad_exactness)[0]
    coeffs = _scalar_coeffs(_at(u, emap.rows(None).forward(vol.points)), k, vol)[0]
    return LocalScalarField(emap, k, coeffs)


def project_face(mu, k: int, p0, p1, npoints=None) -> np.ndarray:
    """L2 projection onto P_k of the directed physical segment p0 -> p1.

    ``mu`` is a callable of physical points; the returned coefficients refer
    to the Legendre basis orthonormalized in physical arc length.  With
    stacks of segments (p0, p1 of shape (n, 2)) the result is (n, k+1).
    """
    if k < 0:
        raise UnsupportedDegree(f"face degree {k} is negative")
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    d = p1 - p0
    L = np.sqrt(np.vecdot(d, d))[..., None]
    if not (L > 0.0).all():
        raise DegenerateElement("face of zero or non-finite length")
    npoints = len(ps.quadrature_rules(k)[1].points) if npoints is None else npoints
    rule = ps.edge_rule(npoints)
    vals = _at(mu, p0[..., None, :] + rule.points[:, None] * d[..., None, :])
    P = _legendre_table(k, npoints) / np.sqrt(L)[..., None]
    return (np.swapaxes(P, -1, -2) @ (rule.weights * L * vals)[..., None])[..., 0]


@lru_cache(maxsize=None)
def _legendre_table(k: int, npoints: int):
    """The Legendre basis of degree k at the points of
    ``edge_rule(npoints)``, (npoints, k+1), tabulated once."""
    P = ps.legendre01(k, ps.edge_rule(npoints).points)
    P.flags.writeable = False
    return P


def face_values(coeffs, length, t):
    """Evaluate face coefficients (physical orthonormal basis) at parameters t."""
    k = len(coeffs) - 1
    return (ps.legendre01(k, t) / np.sqrt(length)) @ coeffs


@dataclass
class ProjectionProblem:
    """Defining system of a projection and its inverse, checked by
    :func:`_factor`: one matrix (N, N) on the reference element, or a stack
    (n, N, N) with one per element.  ``solve`` takes right-hand sides
    (..., N), one row per element for a stack, and applies the inverse by
    :func:`_times`."""

    matrix: np.ndarray
    inverse: np.ndarray

    def solve(self, rhs):
        return _times(rhs, self.inverse)


def _factor(method, k, M):
    """Invert one system (N, N) or a stack (n, N, N) and check it.

    Each element is checked on its own: it is rejected as singular when LU
    meets an exactly zero pivot, when its inverse is not finite, or when its
    1-norm condition number ||M||_1 ||M^-1||_1 reaches 1e13.
    """
    err = SingularLocalSystem(f"{method} system at degree {k} is singular")
    try:
        inv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        raise err from None
    cond = np.linalg.norm(M, 1, axis=(-2, -1)) * np.linalg.norm(inv, 1, axis=(-2, -1))
    if not np.all(cond < 1e13):
        raise err
    return ProjectionProblem(M, inv)


@lru_cache(maxsize=None)
def _edge_tables(space: ps.SpaceDescriptor):
    """Read-only reference edge tables (C, S, T) of the spaces of the
    descriptor ``space`` of degree k: with P the Legendre basis of degree k
    on [0, 1], v the flux basis and W_l the scalar basis on reference edge l,

        C[l] = sum_g w_g P_i (v . nhat_l)_q    (3, k+1, nq)
        S[l] = sum_g w_g W_l,j P_i             (3, nw, k+1)
        T[l] = sum_g w_g W_l,i W_l,j           (3, nw, nw)

    The integrands have degree at most 2k, which the (k+1)-point Gauss rule
    integrates exactly.  Every physical edge block is one of these tables
    times per-element scalars and the orientation signs of its edges."""
    k = space.degree
    vb = ps.vector_basis(space.flux_space, k)
    sb = ps.scalar_basis(space.scalar_degree)
    rule = ps.edge_rule(k + 1)
    wP = rule.weights[:, None] * ps.legendre01(k, rule.points)
    N = _normal_table(vb, rule.points)
    W = _edge_table(sb, rule.points)
    tables = (
        np.einsum("gi,lgq->liq", wP, N),
        np.einsum("lgj,gi->lji", W, wP),
        np.einsum("lgi,g,lgj->lij", W, rule.weights, W),
    )
    for t in tables:
        t.flags.writeable = False
    return tables


def _moment_rows(vb, test_vb, rule):
    vals = vb.eval(rule.points)
    tvals = test_vb.eval(rule.points)
    return np.einsum("g,gic,gjc->ij", rule.weights, tvals, vals)


class _RefRules:
    """Quadrature rules, test functions and flux rows of the projection of
    the spaces of ``space``: ``q_moments``, the interior moments of the flux
    basis against P_{k-1}^2 (RT, HDG) or the rotated N_{k-2} (BDM), and
    ``trace_q``, its edge moments.  ``test_w`` folds the volume weights into
    the interior test functions (see :func:`_flat_moments`), ``mu_w`` the
    edge weights and reference lengths into the edge test functions."""

    def __init__(self, space: ps.SpaceDescriptor, exactness):
        k = space.degree
        self.vb = ps.vector_basis(space.flux_space, k)
        self.test_vb = ps.vector_basis("N", k - 2) if space.method == "bdm" else ps.vector_basis("P", k - 1)
        self.vol, self.edge = ps.quadrature_rules(k, exactness)
        self.test_w = _flat_moments(self.vol.weights, self.test_vb.eval(self.vol.points))
        # the face basis, orthonormal in reference arc length, is P / sqrt(Lhat)
        self.mu_w = _ROOT_LHAT * (self.edge.weights[:, None] * ps.legendre01(k, self.edge.points))
        self.q_moments = _moment_rows(self.vb, self.test_vb, self.vol)
        self.trace_q = _ROOT_LHAT * _edge_tables(space)[0]  # <v . nhat, mu>_e, (3, k+1, nq)

    def flux_moments(self, geo: ElementMap, q):
        """Interior moments of the pulled-back flux |J| B^-1 q from its
        values q (n, ng, 2) at the volume points, (n, ntest)."""
        qhat = q @ geo.invB.transpose(0, 2, 1)
        return geo.detJ[:, None] * _times(qhat.reshape(len(geo), -1), self.test_w.T)

    def edge_moments(self, vals):
        """Edge moments (n, 3 (k+1)) of reference-edge values (n, 3, ns)."""
        return np.einsum("lgi,elg->eli", self.mu_w, vals).reshape(len(vals), -1)


def _dual_normal(geo: ElementMap, q):
    """The dual trace |a| q . n from the values q (n, 3, ns, 2) at the edge
    points."""
    return geo.edge_jacobians[..., None] * np.vecdot(q, geo.edge_normals[:, :, None])


class _HdivRef(_RefRules):
    """Cached reference data shared by the RT/BDM projection and lifting."""

    def __init__(self, space: ps.SpaceDescriptor, exactness):
        super().__init__(space, exactness)
        M = np.vstack([self.q_moments, self.trace_q.reshape(-1, self.vb.dim)])
        self.problem = _factor(space.method, space.degree, M)


def _hdiv_coeffs(space: ps.SpaceDescriptor, geo: ElementMap, q, exactness=None):
    """RT/BDM projection coefficients (n, dim) of physical data on every
    element from its values q = _sample(data, geo, vol, edge) on the rules
    of ``exactness``: one solve of the shared reference system."""
    ref = _ref(space, exactness)
    rhs = np.hstack([ref.flux_moments(geo, q[0]), ref.edge_moments(_dual_normal(geo, q[1]))])
    return ref.problem.solve(rhs)


def _hdiv_field(space: ps.SpaceDescriptor, q, emap: ElementMap, exactness) -> LocalVectorField:
    ref, geo = _ref(space, exactness), emap.rows(None)
    coeffs = _hdiv_coeffs(space, geo, *_sample([q], geo, ref.vol, ref.edge), exactness)[0]
    return LocalVectorField(emap, space.flux_space, space.degree, coeffs)


def rt_project(q, k: int, emap: ElementMap, quad_exactness=None) -> LocalVectorField:
    """Raviart-Thomas projection: interior moments against full vector
    polynomials of degree k-1 plus edgewise normal-trace moments."""
    return _hdiv_field(ps.SpaceDescriptor("rt", k), q, emap, quad_exactness)


def bdm_project(q, k: int, emap: ElementMap, quad_exactness=None) -> LocalVectorField:
    """BDM projection: interior moments against the rotated space of degree
    k-2 (void for k = 1) plus edgewise normal-trace moments."""
    return _hdiv_field(ps.SpaceDescriptor("bdm", k), q, emap, quad_exactness)


def _checked_tau(values, shape) -> np.ndarray:
    """Stabilization values of the given shape (None matches any length),
    one per local edge of an element: finite, nonnegative up to round-off
    (clipped to zero) and positive on some edge of every element."""
    tau = np.asarray(values, dtype=float)
    if tau.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, tau.shape)):
        raise InvalidStabilization(f"expected stabilization values of shape {shape}, got {tau.shape}")
    if not np.isfinite(tau).all():
        raise InvalidStabilization("stabilization must be finite")
    if tau.min() < -1e-14:
        raise InvalidStabilization("stabilization must be nonnegative")
    if (tau.max(axis=-1) <= 0.0).any():
        raise InvalidStabilization("stabilization vanishes on some element")
    return np.maximum(tau, 0.0)


def check_stabilization(tau) -> np.ndarray:
    return _checked_tau(tau, (3,))


class _HdgRef(_RefRules):
    """Degree-dependent reference data for the HDG projection: the rows of
    the coupled system (flux moments ``q_moments``, edge rows ``trace_q``
    and ``trace_u``) and, with w_c the k+1 complement functions (the
    trailing scalar basis functions, orthogonal to P_{k-1}), what its
    decoupled form (:func:`_hdg_coeffs`) needs:

    * ``edge_mass`` (3, k+1, nw): Lhat_e T_e[c, :], the edge mass between
      the w_c and the scalar basis;
    * ``null_rows`` (k+1, 2 dim P_{k-1} + 3 (k+1)): for each w_c the
      combination -(., grad w_c) + sum_e <., w_c>_e of the flux-moment and
      edge rows; it cancels the flux columns, as (div qhat, w_c) = 0;
    * ``flux`` (3): the checked flux systems [q_moments; trace_q on the
      edges other than s], one :class:`ProjectionProblem` per skipped edge s.
    """

    def __init__(self, space: ps.SpaceDescriptor, exactness):
        super().__init__(space, exactness)
        k = space.degree
        self.sb = ps.scalar_basis(k)
        low = self.sdim_low = ps.scalar_dim(k - 1)
        _, S, T = _edge_tables(space)
        self.trace_u = _ROOT_LHAT * S.transpose(0, 2, 1)  # <w, mu>_e without tau
        self.edge_mass = ReferenceTriangle.edge_lengths[:, None, None] * T[:, low:]
        sb_vals = self.sb.eval(self.vol.points)
        self.test_sb_vals, self.comp_vals = sb_vals[:, :low], sb_vals[:, low:]
        # grad w_c lies in P_{k-1}^2: its coefficients in the test basis,
        # and the face-basis coefficients of w_c on every edge.  Rounded,
        # these rows leave 4e-14 of the flux columns at k=3, which the
        # complement solve divides by tau_check; projected onto the left
        # null space of the flux columns, they leave 2e-15.
        rule = ps.triangle_rule(2 * k)
        grad = np.einsum("g,gic,gjc->ji", rule.weights, self.test_vb.eval(rule.points), self.sb.grad(rule.points))
        Y = np.hstack([-grad[low:], self.trace_u[:, :, low:].transpose(2, 0, 1).reshape(k + 1, -1)])
        flux_cols = np.vstack([self.q_moments, self.trace_q.reshape(-1, self.vb.dim)])
        self.null_rows = Y - (Y @ flux_cols) @ np.linalg.pinv(flux_cols)
        flux = [np.vstack([self.q_moments, *np.delete(self.trace_q, s, axis=0)]) for s in range(3)]
        self.flux = [_factor("hdg", k, M) for M in flux]


@lru_cache(maxsize=None)
def _ref(space: ps.SpaceDescriptor, exactness=None) -> _RefRules:
    """Reference data of the projection of ``space`` on the rules of
    ``exactness``, built and checked once."""
    return (_HdgRef if space.is_hdg else _HdivRef)(space, exactness)


def _hdg_coeffs(q, u, k: int, geo: ElementMap, tau, sign: int = 1, exactness=None, div_q=None):
    """HDG projection coefficients, vector (n, nq) and scalar (n, nw), of
    every element: interior moments of both components against degree k-1
    plus edgewise moments of q . n + sign * tau * u, solved in decoupled
    form.  The data come as their values on the rules of ``exactness``: q
    and u as ``_sample(data, geo, vol, edge)``, div_q at the volume points.

    1. The P_{k-1} part of u is its P_{k-1} moments.
    2. The complement part solves, per element, the (k+1) x (k+1) system
       sum_e tau_check_e <u, w_c>_e = b_c.  Without ``div_q``, b_c is
       -(q, grad w_c) + sum_e <q . n + tau_check u, w_c>_e, the null rows
       of :class:`_HdgRef` applied to the coupled right-hand side; with it,
       b_c is (div q, w_c) + sum_e tau_check_e <u, w_c>_e.
    3. The flux solves its moments and its trace equations on the two
       edges other than the one of largest tau (ties to the lowest index).
    """
    ref = _ref(ps.SpaceDescriptor("hdg", k), exactness)
    n, low = len(geo), ref.sdim_low
    tau_check = sign * tau * geo.edge_jacobians
    u_edge = tau_check[..., None] * u[1]
    r_q = ref.flux_moments(geo, q[0])
    r_e = ref.edge_moments(_dual_normal(geo, q[1]) + u_edge)
    u_low = _times(ref.vol.weights * u[0], ref.test_sb_vals.T)
    if div_q is None:
        b = _times(np.hstack([r_q, r_e]), ref.null_rows)
    else:
        div_moments = _times(ref.vol.weights * geo.detJ[:, None] * div_q, ref.comp_vals.T)
        b = div_moments + _times(ref.edge_moments(u_edge), ref.null_rows[:, 2 * low :])
    A = np.sum(tau_check[:, :, None, None] * ref.edge_mass, axis=1)
    b -= (A[:, :, :low] @ u_low[..., None])[..., 0]
    u_c = _factor("hdg", k, A[:, :, low:]).solve(b)
    uc = np.hstack([u_low, u_c])
    r_e = r_e.reshape(n, 3, -1) - tau_check[..., None] * (ref.trace_u @ uc[:, None, :, None])[..., 0]
    skip = np.argmax(tau, axis=1)
    qc = np.empty((n, ref.vb.dim))
    for s in np.unique(skip):
        rows, flux = skip == s, ref.flux[s]
        rhs = np.hstack([r_q[rows], np.delete(r_e[rows], s, axis=1).reshape(-1, 2 * k + 2)])
        qc[rows] = flux.solve(rhs)
    return qc, uc


def _hdg_fields(q, u, k, emap, tau, sign, exactness, div_q=None):
    ref, geo = _ref(ps.SpaceDescriptor("hdg", k), exactness), emap.rows(None)
    tau = check_stabilization(tau)
    if div_q is not None:
        div_q = _at(div_q, geo.forward(ref.vol.points))
    q, u = _sample([q, u], geo, ref.vol, ref.edge)
    qc, uc = _hdg_coeffs(q, u, k, geo, tau[None], sign, exactness, div_q)
    return LocalVectorField(emap, "P", k, qc[0]), LocalScalarField(emap, k, uc[0])


def hdg_project(q, u, k: int, emap: ElementMap, tau, sign: int = 1, quad_exactness=None):
    """HDG projection of the pair (q, u): :func:`_hdg_coeffs` with a batch
    of one.  Returns the vector and scalar parts."""
    return _hdg_fields(q, u, k, emap, tau, sign, quad_exactness)


def hdg_project_decoupled(q, div_q, u, k: int, emap: ElementMap, tau, sign: int = 1, quad_exactness=None):
    """HDG projection with the complement part of u driven by div q
    (cross-check path): :func:`hdg_project` with (div q, w_c) in place of
    the flux terms integrated by parts."""
    return _hdg_fields(q, u, k, emap, tau, sign, quad_exactness, div_q)


def lift_normal_trace(mu, method: str, k: int, emap: ElementMap) -> LocalVectorField:
    """Local lifting of a boundary trace: zero interior moments, normal
    trace matching ``mu`` on every edge.

    ``mu`` is either a callable (local_edge, t) -> values in the physical
    trace parametrization, or a (3, k+1) coefficient array in the physical
    orthonormal edge bases of this element.
    """
    space = ps.SpaceDescriptor(method, k)
    if space.is_hdg:
        raise UnsupportedDegree("unknown method 'hdg' for a normal-trace lifting (rt or bdm)")
    ref = _ref(space)
    if not callable(mu):
        coeffs = np.asarray(mu, dtype=float)
        if coeffs.shape != (3, k + 1):
            raise InvalidProblemData("expected shape (3, k+1) for face coefficients")

        def mu(local_edge, t, coeffs=coeffs):
            L = emap.edge_lengths[local_edge]
            return face_values(coeffs[local_edge], L, np.asarray(t, dtype=float))

    vals = np.stack([np.asarray(mu(e, ref.edge.points), dtype=float) for e in range(3)])
    if not np.isfinite(vals).all():
        raise InvalidProblemData("the trace to lift must be finite")
    trace = ref.edge_moments((emap.edge_jacobians[:, None] * vals)[None])[0]
    coeffs = ref.problem.solve(np.concatenate([np.zeros(ref.test_vb.dim), trace]))
    return LocalVectorField(emap, space.flux_space, k, coeffs)

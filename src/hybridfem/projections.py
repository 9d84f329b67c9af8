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
orthonormal bases; RT/BDM systems are factorized once per degree; the HDG
system depends on the element through the weighted stabilization and is
assembled per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as la

from . import polyspaces as ps
from .errors import InvalidStabilization, SingularLocalSystem, UnsupportedDegree
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
    "projection_problem",
    "check_stabilization",
]

MAX_DEGREE = 3


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
        # First basis function is the constant sqrt(2) on the reference
        # triangle; all the others have zero mean.
        return float(self.coeffs[0]) * np.sqrt(2.0) * 0.5 * self.emap.detJ


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


def project_scalar(u, k: int, emap: ElementMap) -> LocalScalarField:
    """Element L2 projection onto the degree-k scalar space."""
    rule = ps.triangle_rule(2 * k + 4)
    vals = np.asarray(u(emap.forward(rule.points)), dtype=float)
    W = ps.scalar_basis(k).eval(rule.points)
    return LocalScalarField(emap, k, W.T @ (rule.weights * vals))


def project_face(mu, k: int, p0, p1, npoints=None) -> np.ndarray:
    """L2 projection onto P_k of the directed physical segment p0 -> p1.

    ``mu`` is a callable of physical points; the returned coefficients refer
    to the Legendre basis orthonormalized in physical arc length.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    L = float(np.linalg.norm(p1 - p0))
    rule = ps.edge_rule(k + 3 if npoints is None else npoints)
    pts = p0 + rule.points[:, None] * (p1 - p0)
    vals = np.asarray(mu(pts), dtype=float)
    P = ps.legendre01(k, rule.points) / np.sqrt(L)
    return P.T @ (rule.weights * L * vals)


def face_values(coeffs, length, t):
    """Evaluate face coefficients (physical orthonormal basis) at parameters t."""
    k = len(coeffs) - 1
    return (ps.legendre01(k, t) / np.sqrt(length)) @ coeffs


@dataclass
class ProjectionProblem:
    """Factorized defining system of a projection on the reference element."""

    method: str
    degree: int
    matrix: np.ndarray
    lu: tuple
    tau: tuple | None = None

    def solve(self, rhs):
        return la.lu_solve(self.lu, rhs)

    def condition(self):
        return float(np.linalg.cond(self.matrix))


def _factor(method, k, M, tau=None):
    lu, piv = la.lu_factor(M)
    diag = np.abs(np.diag(lu))
    if diag.min() <= 1e-13 * max(diag.max(), 1.0):
        raise SingularLocalSystem(f"{method} system at degree {k} is singular")
    return ProjectionProblem(method=method, degree=k, matrix=M, lu=(lu, piv), tau=tau)


def _trace_rows(vb, k, erule):
    """Rows <v . nhat, mu>_edge for all edges and face-basis functions."""
    fb = ps.FaceBasis(k)
    rows = []
    for e in range(3):
        nt = vb.normal_trace(e, erule.points)  # (ng, dim)
        mu = fb.eval_edge(e, erule.points)  # (ng, k+1)
        L = ReferenceTriangle.edge_lengths[e]
        rows.append(np.einsum("g,gi,gj->ij", erule.weights * L, mu, nt))
    return np.vstack(rows)


def _moment_rows(vb, test_vb, rule):
    vals = vb.eval(rule.points)
    tvals = test_vb.eval(rule.points)
    return np.einsum("g,gic,gjc->ij", rule.weights, tvals, vals)


class _HdivRef:
    """Cached reference data shared by the RT/BDM projection and lifting."""

    def __init__(self, method, k, exactness=None):
        if method == "rt":
            self.vb = ps.vector_basis("RT", k)
            self.test_vb = ps.vector_basis("P", k - 1)
        else:
            if k < 1:
                raise UnsupportedDegree("BDM requires degree k >= 1")
            self.vb = ps.vector_basis("P", k)
            self.test_vb = ps.vector_basis("N", k - 2)
        self.k = k
        self.vol, self.edge = ps.quadrature_rules(k, exactness)
        self.fb = ps.FaceBasis(k)
        self.test_vals = self.test_vb.eval(self.vol.points)
        self.mu_vals = [self.fb.eval_edge(e, self.edge.points) for e in range(3)]
        M = np.vstack(
            [
                _moment_rows(self.vb, self.test_vb, self.vol),
                _trace_rows(self.vb, k, self.edge),
            ]
        )
        self.problem = _factor(method, k, M)


@lru_cache(maxsize=None)
def _hdiv_ref(method: str, k: int, exactness=None) -> _HdivRef:
    if k < 0 or k > MAX_DEGREE:
        raise UnsupportedDegree(f"degree {k} outside [0, {MAX_DEGREE}]")
    return _HdivRef(method, k, exactness)


def projection_problem(method: str, k: int) -> ProjectionProblem:
    """Factorized reference system for the RT or BDM projection."""
    return _hdiv_ref(method, k).problem


def _hdiv_rhs(ref: _HdivRef, emap: ElementMap, q):
    """Right-hand side of the RT/BDM system for physical data q."""
    xq = emap.forward(ref.vol.points)
    qhat = emap.detJ * np.asarray(q(xq), dtype=float) @ emap.invB.T
    rhs = [np.einsum("g,gic,gc->i", ref.vol.weights, ref.test_vals, qhat)]
    for e in range(3):
        pts = emap.edge_points(e, ref.edge.points)
        qn = np.asarray(q(pts), dtype=float) @ emap.edge_normals[e]
        qn_hat = emap.edge_jacobians[e] * qn
        L = ReferenceTriangle.edge_lengths[e]
        rhs.append(ref.mu_vals[e].T @ (ref.edge.weights * L * qn_hat))
    return np.concatenate(rhs)


def rt_project(q, k: int, emap: ElementMap, quad_exactness=None) -> LocalVectorField:
    """Raviart-Thomas projection: interior moments against full vector
    polynomials of degree k-1 plus edgewise normal-trace moments."""
    ref = _hdiv_ref("rt", k, quad_exactness)
    coeffs = ref.problem.solve(_hdiv_rhs(ref, emap, q))
    return LocalVectorField(emap, "RT", k, coeffs)


def bdm_project(q, k: int, emap: ElementMap, quad_exactness=None) -> LocalVectorField:
    """BDM projection: interior moments against the rotated space of degree
    k-2 (void for k = 1) plus edgewise normal-trace moments."""
    ref = _hdiv_ref("bdm", k, quad_exactness)
    coeffs = ref.problem.solve(_hdiv_rhs(ref, emap, q))
    return LocalVectorField(emap, "P", k, coeffs)


def check_stabilization(tau) -> np.ndarray:
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (3,):
        raise InvalidStabilization("expected one stabilization value per edge")
    if tau.min() < -1e-14:
        raise InvalidStabilization("stabilization must be nonnegative")
    if tau.max() <= 0.0:
        raise InvalidStabilization("stabilization must be nonzero on some edge")
    return np.maximum(tau, 0.0)


class _HdgRef:
    """Degree-dependent reference data for the HDG projection."""

    def __init__(self, k, exactness=None):
        self.k = k
        self.vb = ps.vector_basis("P", k)
        self.sb = ps.scalar_basis(k)
        self.test_vb = ps.vector_basis("P", k - 1)
        self.vol, self.edge = ps.quadrature_rules(k, exactness)
        self.fb = ps.FaceBasis(k)
        self.q_moments = _moment_rows(self.vb, self.test_vb, self.vol)
        self.sdim_low = ps.scalar_dim(k - 1)
        self.trace_q = _trace_rows(self.vb, k, self.edge)
        self.mu_vals = [self.fb.eval_edge(e, self.edge.points) for e in range(3)]
        self.sb_edge = [
            self.sb.eval(ReferenceTriangle.edge_points(e, self.edge.points))
            for e in range(3)
        ]
        # <w_j, mu_i> per edge, without the stabilization weight
        self.trace_u = [
            np.einsum(
                "g,gi,gj->ij",
                self.edge.weights * ReferenceTriangle.edge_lengths[e],
                self.mu_vals[e],
                self.sb_edge[e],
            )
            for e in range(3)
        ]
        self.test_sb_vals = self.sb.eval(self.vol.points)[:, : self.sdim_low]


@lru_cache(maxsize=None)
def _hdg_ref(k: int, exactness=None) -> _HdgRef:
    if k < 0 or k > MAX_DEGREE:
        raise UnsupportedDegree(f"degree {k} outside [0, {MAX_DEGREE}]")
    return _HdgRef(k, exactness)


def hdg_projection_problem(k: int, tau, emap: ElementMap, sign: int = 1, quad_exactness=None) -> ProjectionProblem:
    """Assemble and factorize the coupled HDG system for one element.

    The stabilization enters through its dual-trace transform
    tau_check = |a| tau, so the reference projection reproduces the
    physical one exactly.
    """
    tau = check_stabilization(tau)
    ref = _hdg_ref(k, quad_exactness)
    nq = ref.vb.dim
    nw = ref.sb.dim
    M = np.zeros((nq + nw, nq + nw))
    M[: 2 * ref.sdim_low, :nq] = ref.q_moments
    M[2 * ref.sdim_low : 3 * ref.sdim_low, nq:] = np.eye(nw)[: ref.sdim_low]
    row = 3 * ref.sdim_low
    for e in range(3):
        tau_check = sign * tau[e] * emap.edge_jacobians[e]
        blk = slice(row, row + k + 1)
        M[blk, :nq] = ref.trace_q[e * (k + 1) : (e + 1) * (k + 1)]
        M[blk, nq:] = tau_check * ref.trace_u[e]
        row += k + 1
    return _factor("hdg", k, M, tau=tuple(tau))


def _hdg_rhs(ref: _HdgRef, emap: ElementMap, q, u, tau, sign):
    xq = emap.forward(ref.vol.points)
    qhat = emap.detJ * np.asarray(q(xq), dtype=float) @ emap.invB.T
    uhat = np.asarray(u(xq), dtype=float)
    rhs = [
        np.einsum("g,gic,gc->i", ref.vol.weights, ref.test_vb.eval(ref.vol.points), qhat),
        ref.test_sb_vals.T @ (ref.vol.weights * uhat),
    ]
    for e in range(3):
        pts = emap.edge_points(e, ref.edge.points)
        qn_hat = emap.edge_jacobians[e] * (
            np.asarray(q(pts), dtype=float) @ emap.edge_normals[e]
        )
        tau_check = sign * tau[e] * emap.edge_jacobians[e]
        trace = qn_hat + tau_check * np.asarray(u(pts), dtype=float)
        L = ReferenceTriangle.edge_lengths[e]
        rhs.append(ref.mu_vals[e].T @ (ref.edge.weights * L * trace))
    return np.concatenate(rhs)


def hdg_project(q, u, k: int, emap: ElementMap, tau, sign: int = 1, quad_exactness=None):
    """Coupled HDG projection of the pair (q, u).

    Interior moments of both components against degree k-1, plus edgewise
    moments of q . n + sign * tau * u.  Returns the vector and scalar parts.
    """
    problem = hdg_projection_problem(k, tau, emap, sign, quad_exactness)
    ref = _hdg_ref(k, quad_exactness)
    sol = problem.solve(_hdg_rhs(ref, emap, q, u, np.asarray(problem.tau), sign))
    nq = ref.vb.dim
    return (
        LocalVectorField(emap, "P", k, sol[:nq]),
        LocalScalarField(emap, k, sol[nq:]),
    )


def hdg_project_decoupled(q, div_q, u, k: int, emap: ElementMap, tau, sign: int = 1, quad_exactness=None):
    """HDG projection through its decoupled form (cross-check path).

    The scalar part is solved first from interior moments plus complement
    moments of the stabilized trace driven by div q; the vector part then
    solves normal-trace equations on the boundary minus the edge carrying
    the largest stabilization (ties to the lowest local index), which is the
    excluded-edge construction with the reference hypotenuse mapped there.
    """
    tau = check_stabilization(tau)
    ref = _hdg_ref(k, quad_exactness)
    nw = ref.sb.dim

    # Scalar part: rows are P_{k-1} moments (identity in the orthonormal
    # basis) and complement-tested boundary terms.
    A = np.zeros((nw, nw))
    A[: ref.sdim_low] = np.eye(nw)[: ref.sdim_low]
    b = np.zeros(nw)
    xq = emap.forward(ref.vol.points)
    b[: ref.sdim_low] = ref.test_sb_vals.T @ (
        ref.vol.weights * np.asarray(u(xq), dtype=float)
    )
    comp_cols = slice(ref.sdim_low, nw)
    div_hat = emap.detJ * np.asarray(div_q(xq), dtype=float)
    comp_vals = ref.sb.eval(ref.vol.points)[:, comp_cols]
    b[ref.sdim_low :] = comp_vals.T @ (ref.vol.weights * div_hat)
    for e in range(3):
        tau_check = sign * tau[e] * emap.edge_jacobians[e]
        if tau_check == 0.0:
            continue
        L = ReferenceTriangle.edge_lengths[e]
        w = ref.edge.weights * L
        comp_edge = ref.sb_edge[e][:, comp_cols]
        A[ref.sdim_low :, :] += tau_check * np.einsum(
            "g,gi,gj->ij", w, comp_edge, ref.sb_edge[e]
        )
        pts = emap.edge_points(e, ref.edge.points)
        b[ref.sdim_low :] += tau_check * comp_edge.T @ (
            w * np.asarray(u(pts), dtype=float)
        )
    try:
        u_coeffs = la.solve(A, b)
    except la.LinAlgError as exc:
        raise SingularLocalSystem("decoupled HDG scalar system") from exc

    # Vector part: moments plus traces on the boundary minus the tau-max edge.
    skip = int(np.argmax(tau))
    nq = ref.vb.dim
    B = np.zeros((nq, nq))
    B[: 2 * ref.sdim_low] = ref.q_moments
    rhs = np.zeros(nq)
    qhat = emap.detJ * np.asarray(q(xq), dtype=float) @ emap.invB.T
    rhs[: 2 * ref.sdim_low] = np.einsum(
        "g,gic,gc->i", ref.vol.weights, ref.test_vb.eval(ref.vol.points), qhat
    )
    row = 2 * ref.sdim_low
    for e in range(3):
        if e == skip:
            continue
        blk = slice(row, row + k + 1)
        B[blk] = ref.trace_q[e * (k + 1) : (e + 1) * (k + 1)]
        pts = emap.edge_points(e, ref.edge.points)
        qn_hat = emap.edge_jacobians[e] * (
            np.asarray(q(pts), dtype=float) @ emap.edge_normals[e]
        )
        tau_check = sign * tau[e] * emap.edge_jacobians[e]
        u_proj_edge = ref.sb_edge[e] @ u_coeffs
        trace = qn_hat + tau_check * (np.asarray(u(pts), dtype=float) - u_proj_edge)
        L = ReferenceTriangle.edge_lengths[e]
        rhs[blk] = ref.mu_vals[e].T @ (ref.edge.weights * L * trace)
        row += k + 1
    try:
        q_coeffs = la.solve(B, rhs)
    except la.LinAlgError as exc:
        raise SingularLocalSystem("decoupled HDG vector system") from exc
    return (
        LocalVectorField(emap, "P", k, q_coeffs),
        LocalScalarField(emap, k, u_coeffs),
    )


def lift_normal_trace(mu, method: str, k: int, emap: ElementMap) -> LocalVectorField:
    """Local lifting of a boundary trace: zero interior moments, normal
    trace matching ``mu`` on every edge.

    ``mu`` is either a callable (local_edge, t) -> values in the physical
    trace parametrization, or a (3, k+1) coefficient array in the physical
    orthonormal edge bases of this element.
    """
    ref = _hdiv_ref(method, k)
    if not callable(mu):
        coeffs = np.asarray(mu, dtype=float)
        if coeffs.shape != (3, k + 1):
            raise ValueError("expected shape (3, k+1) for face coefficients")

        def mu(local_edge, t, coeffs=coeffs):
            L = emap.edge_lengths[local_edge]
            return face_values(coeffs[local_edge], L, np.asarray(t, dtype=float))

    rhs = [np.zeros(ref.test_vb.dim)]
    for e in range(3):
        vals = np.asarray(mu(e, ref.edge.points), dtype=float)
        mu_check = emap.edge_jacobians[e] * vals
        L = ReferenceTriangle.edge_lengths[e]
        rhs.append(ref.mu_vals[e].T @ (ref.edge.weights * L * mu_check))
    coeffs = ref.problem.solve(np.concatenate(rhs))
    space = "RT" if method == "rt" else "P"
    return LocalVectorField(emap, space, k, coeffs)

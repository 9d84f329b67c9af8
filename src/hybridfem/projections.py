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
assembled and factorized for all elements of a batch at once.

Every projection is computed by one kernel over a stack of elements (the
affine maps of a mesh, data evaluated at all their quadrature points at
once); the per-element functions call it with a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as la

from . import polyspaces as ps
from .errors import InvalidStabilization, SingularLocalSystem, UnsupportedDegree
from .mesh import ElementMap, ReferenceTriangle, _AffineMaps

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


def _batch(emap: ElementMap) -> _AffineMaps:
    """The element of ``emap`` as a batch of one."""
    return _AffineMaps(emap.vertices[None])


def _at(fn, x):
    """Values of a callable of (N, 2) point arrays at points x (..., 2)."""
    vals = np.asarray(fn(x.reshape(-1, 2)), dtype=float)
    return vals.reshape(x.shape[:-1] + vals.shape[1:])


def _vector_values(geo: _AffineMaps, space: str, k: int, coeffs, xhat):
    """Physical values (n, m, 2) of stacked vector fields (coefficients
    (n, dim)) at the images of the reference points xhat (m, 2)."""
    qhat = np.einsum("gqc,eq->egc", ps.vector_basis(space, k).eval(xhat), coeffs)
    return np.einsum("ecd,egd->egc", geo.B, qhat) / geo.detJ[:, None, None]


def _normal_traces(geo: _AffineMaps, space: str, k: int, coeffs, s):
    """q . n of stacked vector fields on every local edge at the edge
    parameters s, (n, 3, ns)."""
    vb = ps.vector_basis(space, k)
    N = np.stack([vb.normal_trace(e, s) for e in range(3)])
    return np.einsum("lgq,eq->elg", N, coeffs) / geo.edge_jacobians[:, :, None]


def _edge_table(basis: ps.PolyFamily, s):
    """Scalar basis values on the three reference edges at the edge
    parameters s, (3, ns, dim)."""
    return np.stack([basis.eval(ReferenceTriangle.edge_points(e, s)) for e in range(3)])


def _scalar_coeffs(u, k: int, geo: _AffineMaps):
    """Element L2 projection coefficients (n, dim P_k) of u on every element."""
    rule = ps.triangle_rule(2 * k + 4)
    vals = _at(u, geo.forward(rule.points))
    return (rule.weights * vals) @ ps.scalar_basis(k).eval(rule.points)


def project_scalar(u, k: int, emap: ElementMap) -> LocalScalarField:
    """Element L2 projection onto the degree-k scalar space."""
    return LocalScalarField(emap, k, _scalar_coeffs(u, k, _batch(emap))[0])


def project_face(mu, k: int, p0, p1, npoints=None) -> np.ndarray:
    """L2 projection onto P_k of the directed physical segment p0 -> p1.

    ``mu`` is a callable of physical points; the returned coefficients refer
    to the Legendre basis orthonormalized in physical arc length.  With
    stacks of segments (p0, p1 of shape (n, 2)) the result is (n, k+1).
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    d = p1 - p0
    L = np.sqrt(np.vecdot(d, d))[..., None]
    rule = ps.edge_rule(k + 3 if npoints is None else npoints)
    vals = _at(mu, p0[..., None, :] + rule.points[:, None] * d[..., None, :])
    P = ps.legendre01(k, rule.points) / np.sqrt(L)[..., None]
    return (np.swapaxes(P, -1, -2) @ (rule.weights * L * vals)[..., None])[..., 0]


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
    """Factorize one system (N, N) or a stack (n, N, N), rejecting any
    element whose pivots are near zero."""
    lu, piv = la.lu_factor(M)
    diag = np.abs(np.diagonal(lu, axis1=-2, axis2=-1))
    if (diag.min(axis=-1) <= 1e-13 * np.maximum(diag.max(axis=-1), 1.0)).any():
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


class _RefRules:
    """Quadrature rules and edge test functions of a projection system;
    ``mu_w`` folds the edge weights and reference lengths into the test
    functions."""

    def __init__(self, k, test_vb, exactness):
        self.k = k
        self.test_vb = test_vb
        self.vol, self.edge = ps.quadrature_rules(k, exactness)
        self.fb = ps.FaceBasis(k)
        self.test_vals = test_vb.eval(self.vol.points)
        self.mu_vals = [self.fb.eval_edge(e, self.edge.points) for e in range(3)]
        weights = self.edge.weights * ReferenceTriangle.edge_lengths[:, None]
        self.mu_w = np.stack(self.mu_vals) * weights[:, :, None]

    def flux_moments(self, geo: _AffineMaps, q):
        """Interior moments of the pulled-back flux |J| B^-1 q, (n, ntest)."""
        x = geo.forward(self.vol.points)
        qhat = geo.detJ[:, None, None] * np.einsum("egc,edc->egd", _at(q, x), geo.invB)
        return np.einsum("g,gic,egc->ei", self.vol.weights, self.test_vals, qhat)

    def edge_moments(self, vals):
        """Edge moments (n, 3 (k+1)) of reference-edge values (n, 3, ns)."""
        return np.einsum("lgi,elg->eli", self.mu_w, vals).reshape(len(vals), -1)


def _dual_normal(geo: _AffineMaps, q, xe):
    """The dual trace |a| q . n at edge points (n, 3, ns, 2)."""
    qn = np.einsum("elgc,elc->elg", _at(q, xe), geo.edge_normals)
    return geo.edge_jacobians[..., None] * qn


class _HdivRef(_RefRules):
    """Cached reference data shared by the RT/BDM projection and lifting."""

    def __init__(self, method, k, exactness=None):
        if method == "rt":
            self.vb = ps.vector_basis("RT", k)
            test_vb = ps.vector_basis("P", k - 1)
        else:
            if k < 1:
                raise UnsupportedDegree("BDM requires degree k >= 1")
            self.vb = ps.vector_basis("P", k)
            test_vb = ps.vector_basis("N", k - 2)
        super().__init__(k, test_vb, exactness)
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


def _hdiv_coeffs(method: str, k: int, geo: _AffineMaps, q, exactness=None):
    """RT/BDM projection coefficients (n, dim) of physical data q on every
    element: one solve of the shared reference system."""
    ref = _hdiv_ref(method, k, exactness)
    xe = geo.edge_forward(ref.edge.points)
    rhs = np.hstack([ref.flux_moments(geo, q), ref.edge_moments(_dual_normal(geo, q, xe))])
    return ref.problem.solve(rhs.T).T


def rt_project(q, k: int, emap: ElementMap, quad_exactness=None) -> LocalVectorField:
    """Raviart-Thomas projection: interior moments against full vector
    polynomials of degree k-1 plus edgewise normal-trace moments."""
    coeffs = _hdiv_coeffs("rt", k, _batch(emap), q, quad_exactness)[0]
    return LocalVectorField(emap, "RT", k, coeffs)


def bdm_project(q, k: int, emap: ElementMap, quad_exactness=None) -> LocalVectorField:
    """BDM projection: interior moments against the rotated space of degree
    k-2 (void for k = 1) plus edgewise normal-trace moments."""
    coeffs = _hdiv_coeffs("bdm", k, _batch(emap), q, quad_exactness)[0]
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


class _HdgRef(_RefRules):
    """Degree-dependent reference data for the HDG projection."""

    def __init__(self, k, exactness=None):
        self.vb = ps.vector_basis("P", k)
        self.sb = ps.scalar_basis(k)
        super().__init__(k, ps.vector_basis("P", k - 1), exactness)
        self.q_moments = _moment_rows(self.vb, self.test_vb, self.vol)
        self.sdim_low = ps.scalar_dim(k - 1)
        self.trace_q = _trace_rows(self.vb, k, self.edge)
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


def _hdg_matrices(ref: _HdgRef, geo: _AffineMaps, tau, sign):
    """Coupled HDG systems (n, N, N) of stacked elements, tau (n, 3)."""
    k, nq, nw, low = ref.k, ref.vb.dim, ref.sb.dim, ref.sdim_low
    M = np.zeros((len(geo), nq + nw, nq + nw))
    M[:, : 2 * low, :nq] = ref.q_moments
    M[:, 2 * low : 3 * low, nq:] = np.eye(nw)[:low]
    tau_check = sign * tau * geo.edge_jacobians
    for e in range(3):
        blk = slice(3 * low + e * (k + 1), 3 * low + (e + 1) * (k + 1))
        M[:, blk, :nq] = ref.trace_q[e * (k + 1) : (e + 1) * (k + 1)]
        M[:, blk, nq:] = tau_check[:, e, None, None] * ref.trace_u[e]
    return M


def hdg_projection_problem(k: int, tau, emap: ElementMap, sign: int = 1, quad_exactness=None) -> ProjectionProblem:
    """Assemble and factorize the coupled HDG system for one element.

    The stabilization enters through its dual-trace transform
    tau_check = |a| tau, so the reference projection reproduces the
    physical one exactly.
    """
    tau = check_stabilization(tau)
    M = _hdg_matrices(_hdg_ref(k, quad_exactness), _batch(emap), tau[None], sign)[0]
    return _factor("hdg", k, M, tau=tuple(tau))


def _hdg_coeffs(q, u, k: int, geo: _AffineMaps, tau, sign: int = 1, exactness=None):
    """HDG projection coefficients, vector (n, nq) and scalar (n, nw), of
    every element: interior moments of both components against degree k-1
    plus edgewise moments of q . n + sign * tau * u."""
    ref = _hdg_ref(k, exactness)
    problem = _factor("hdg", k, _hdg_matrices(ref, geo, tau, sign))
    xe = geo.edge_forward(ref.edge.points)
    trace = _dual_normal(geo, q, xe) + (sign * tau * geo.edge_jacobians)[..., None] * _at(u, xe)
    u_moments = (ref.vol.weights * _at(u, geo.forward(ref.vol.points))) @ ref.test_sb_vals
    rhs = np.hstack([ref.flux_moments(geo, q), u_moments, ref.edge_moments(trace)])
    sol = problem.solve(rhs[..., None])[..., 0]
    return sol[:, : ref.vb.dim], sol[:, ref.vb.dim :]


def hdg_project(q, u, k: int, emap: ElementMap, tau, sign: int = 1, quad_exactness=None):
    """Coupled HDG projection of the pair (q, u).

    Interior moments of both components against degree k-1, plus edgewise
    moments of q . n + sign * tau * u.  Returns the vector and scalar parts.
    """
    tau = check_stabilization(tau)
    qc, uc = _hdg_coeffs(q, u, k, _batch(emap), tau[None], sign, quad_exactness)
    return LocalVectorField(emap, "P", k, qc[0]), LocalScalarField(emap, k, uc[0])


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
        "g,gic,gc->i", ref.vol.weights, ref.test_vals, qhat
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

    vals = np.stack([np.asarray(mu(e, ref.edge.points), dtype=float) for e in range(3)])
    trace = ref.edge_moments((emap.edge_jacobians[:, None] * vals)[None])[0]
    coeffs = ref.problem.solve(np.concatenate([np.zeros(ref.test_vb.dim), trace]))
    space = "RT" if method == "rt" else "P"
    return LocalVectorField(emap, space, k, coeffs)

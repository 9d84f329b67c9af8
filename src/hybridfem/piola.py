"""Primal and dual change-of-variable rules between physical and reference
elements, and numerical verification of the operator identities they satisfy.

Volume fields are callables of (n, 2) point arrays returning (n,) scalars or
(n, 2) vectors.  Boundary fields are callables ``f(local_edge, t)`` with the
edge parameter t in [0, 1] running along the (counter-clockwise) local edge;
the parameter is shared between a physical triangle and its reference
preimage, so only the |a| weight distinguishes the trace transforms.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

import numpy as np

from . import polyspaces as ps
from .mesh import ElementMap, ReferenceTriangle

__all__ = [
    "TransformKind",
    "pull_back",
    "push_forward",
    "verify_operator_identities",
]


class TransformKind(Enum):
    PRIMAL_SCALAR = "primal_scalar"  # uhat = u o F
    PRIMAL_VECTOR = "primal_vector"  # qhat = |J| B^-1 q o F
    PRIMAL_TRACE = "primal_trace"    # muhat = mu o F
    DUAL_SCALAR = "dual_scalar"      # ucheck = |J| u o F
    DUAL_VECTOR = "dual_vector"      # qcheck = B^T q o F
    DUAL_TRACE = "dual_trace"        # mucheck = |a| mu o F


_VOLUME = {
    TransformKind.PRIMAL_SCALAR,
    TransformKind.PRIMAL_VECTOR,
    TransformKind.DUAL_SCALAR,
    TransformKind.DUAL_VECTOR,
}


def pull_back(field, kind: TransformKind, emap: ElementMap):
    """Reference-side field (hat or check) of a physical field."""
    if kind in _VOLUME:

        def ref(xhat, field=field, kind=kind, emap=emap):
            x = emap.forward(xhat)
            vals = np.asarray(field(x), dtype=float)
            if kind is TransformKind.PRIMAL_SCALAR:
                return vals
            if kind is TransformKind.DUAL_SCALAR:
                return emap.detJ * vals
            if kind is TransformKind.PRIMAL_VECTOR:
                return emap.detJ * vals @ emap.invB.T
            return vals @ emap.B  # DUAL_VECTOR: B^T q

        return ref

    def ref_trace(local_edge, t, field=field, kind=kind, emap=emap):
        vals = np.asarray(field(local_edge, t), dtype=float)
        if kind is TransformKind.DUAL_TRACE:
            return emap.edge_jacobians[local_edge] * vals
        return vals

    return ref_trace


def push_forward(field, kind: TransformKind, emap: ElementMap):
    """Physical field whose pull-back of the given kind is ``field``."""
    if kind in _VOLUME:

        def phys(x, field=field, kind=kind, emap=emap):
            xhat = emap.inverse(x)
            vals = np.asarray(field(xhat), dtype=float)
            if kind is TransformKind.PRIMAL_SCALAR:
                return vals
            if kind is TransformKind.DUAL_SCALAR:
                return vals / emap.detJ
            if kind is TransformKind.PRIMAL_VECTOR:
                return vals @ emap.B.T / emap.detJ
            return vals @ emap.invB  # invB^T applied from the left

        return phys

    def phys_trace(local_edge, t, field=field, kind=kind, emap=emap):
        vals = np.asarray(field(local_edge, t), dtype=float)
        if kind is TransformKind.DUAL_TRACE:
            return vals / emap.edge_jacobians[local_edge]
        return vals

    return phys_trace


@lru_cache(maxsize=None)
def _reference_tables(degree: int):
    """Fixed reference-side tables of the identity checks at total degree
    k: (monomials at the degree-2k triangle rule, Gauss points of the three
    reference edges stacked, monomials at those edge points)."""
    exps = ps.monomial_exponents(degree)
    t = ps.edge_rule(degree + 2).points
    pts_hat = np.vstack([ReferenceTriangle.edge_points(e, t) for e in range(3)])
    tables = (ps.monomial_eval(exps, ps.triangle_rule(2 * degree).points), pts_hat,
              ps.monomial_eval(exps, pts_hat))
    for a in tables:
        a.flags.writeable = False
    return tables


def verify_operator_identities(emap: ElementMap, degree: int = 3, rng=None) -> float:
    """Largest residual of the three transform identities for random
    polynomial fields of the given total degree.

    The identities state that divergence, gradient, and normal trace map
    primal-transformed fields to dual-transformed ones.  The left-hand sides
    are built from exact affine composition of the polynomial coefficients,
    one composition matrix applied to the six fields q_0, q_1, u, div q,
    d_x u and d_y u, so the check does not reuse the chain rule it is
    verifying.  The normal-trace identity is compared at Gauss points of all
    three edges at once.
    """
    rng = np.random.default_rng(rng)
    exps = ps.monomial_exponents(degree)
    nm = len(exps)
    Dx = ps._deriv_matrix(degree, 0)
    Dy = ps._deriv_matrix(degree, 1)

    q = rng.standard_normal((2, nm))
    u = rng.standard_normal(nm)

    # Exact reference-side coefficient representations, one row per field.
    fields = np.vstack([q, u, Dx @ q[0] + Dy @ q[1], Dx @ u, Dy @ u])
    composed = ps.compose_affine(exps, fields, emap.B, emap.b)
    qhat = emap.detJ * emap.invB @ composed[:2]
    uhat = composed[2]

    V, pts_hat, V_edges = _reference_tables(degree)

    div_qhat = Dx @ qhat[0] + Dy @ qhat[1]
    div_check = emap.detJ * composed[3]
    res = float(np.abs(V @ (div_qhat - div_check)).max())

    grad_uhat = np.stack([Dx @ uhat, Dy @ uhat])
    grad_check = emap.B.T @ composed[4:]
    res = max(res, float(np.abs(V @ (grad_uhat - grad_check).T).max()))

    qhat_vals = (V_edges @ qhat.T).reshape(3, -1, 2)
    q_vals = (ps.monomial_eval(exps, emap.forward(pts_hat)) @ q.T).reshape(3, -1, 2)
    lhs = np.einsum("epc,ec->ep", qhat_vals, ReferenceTriangle.edge_normals)
    rhs = emap.edge_jacobians[:, None] * np.einsum("epc,ec->ep", q_vals, emap.edge_normals)
    return max(res, float(np.abs(lhs - rhs).max()))

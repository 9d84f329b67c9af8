"""Element-local postprocessing of the potential into degree k+1.

Both schemes solve a local Neumann-style problem on the zero-mean subspace
of P_{k+1}(K) and then fix the element mean to that of the computed
potential.  The zero-mean subspace is literal in coefficients: the
orthonormal scalar basis is hierarchical in the constant, so dropping the
first function realizes it exactly, and the mean constraint only sets the
constant coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import polyspaces as ps
from . import projections as pj
from .errors import SingularLocalSystem
from .methods import FieldTriple, ProblemData

__all__ = ["PostprocessedField", "stenberg", "gradient_postprocess"]

COMPATIBILITY_TOL = 1e-9


@dataclass
class PostprocessedField:
    """Elementwise degree-(k+1) reconstruction of the potential, stacked
    over the elements; ``field(t)`` is the view of one element."""

    mesh: object
    degree: int                  # k+1
    scheme: str                  # "stenberg" | "gradient"
    coeffs: np.ndarray           # (nt, dim P_{k+1})
    decomposed: np.ndarray       # (nt,) flag: flux balance failed, mean-free
                                 # system used as a standalone decomposition

    def field(self, t) -> pj.LocalScalarField:
        return pj.LocalScalarField(self.mesh.element_map(t), self.degree, self.coeffs[t])

    def element_means(self):
        # The first basis function is the constant sqrt(2) on the reference
        # triangle; all the others have zero mean.
        return self.coeffs[:, 0] * np.sqrt(2.0) * 0.5 * self.mesh.geometry.detJ


def _stiffness(geo, sb, vol, weight):
    """Stiffness matrices (nt, dim, dim) of the physical gradients with a
    pointwise weight (nt, ng): the weights are contracted with the reference
    gradient products before the metric invB invB^T is applied."""
    G = sb.grad(vol.points)                                   # (ng, dim, 2)
    metric = np.einsum("ead,ebd->eab", geo.invB, geo.invB)    # (nt, 2, 2)
    wk = weight * vol.weights
    S = np.zeros((len(wk), sb.dim, sb.dim))
    for a in range(2):
        for b in range(2):
            S += metric[:, a, b, None, None] * np.einsum("eg,gi,gj->eij", wk, G[:, :, a], G[:, :, b])
    return geo.detJ[:, None, None] * S


def _solve_elements(S, rhs, mean_coeff):
    """Solve on the zero-mean blocks and prepend the constant coefficients."""
    try:
        inner = np.linalg.solve(S[:, 1:, 1:], rhs[:, 1:, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise SingularLocalSystem("local postprocessing stiffness is singular") from exc
    return np.hstack([mean_coeff[:, None], inner])


def stenberg(triple: FieldTriple, data: ProblemData) -> PostprocessedField:
    """Flux-driven reconstruction: the weighted gradient of the result
    matches the source minus the boundary flux against all test functions.

    For HDG the boundary flux is the numerical flux, which restores the
    elementwise balance that the scheme relies on.  Elements whose flux
    balance defect exceeds the tolerance are flagged and solved through the
    mean-free decomposition (the two formulations coincide otherwise).
    """
    mesh, space = triple.mesh, triple.space
    geo = mesh.geometry
    k = space.degree
    kp = k + 1
    sb = ps.scalar_basis(kp)
    vol = ps.triangle_rule(2 * kp + 4)
    # The balance check must see the same (f, 1)_K functional the solver
    # enforced, i.e. the assembly rule of degree k, not the finer rule used
    # for the reconstruction integrals.
    vol_check = ps.triangle_rule(2 * k + 4)
    erule = ps.edge_rule(k + 4)

    xq = geo.forward(vol.points)
    S = _stiffness(geo, sb, vol, pj._at(data.kappa, xq))
    flux = geo.edge_lengths[:, :, None] * triple.normal_flux(erule.points) * erule.weights
    rhs = geo.detJ[:, None] * ((vol.weights * pj._at(data.f, xq)) @ sb.eval(vol.points))
    rhs -= np.einsum("elg,lgi->ei", flux, pj._edge_table(sb, erule.points))
    fmean = geo.detJ * (pj._at(data.f, geo.forward(vol_check.points)) @ vol_check.weights)
    balance = fmean - flux.sum(axis=(1, 2))
    decomposed = np.abs(balance) > COMPATIBILITY_TOL * np.maximum(1.0, np.abs(fmean))
    coeffs = _solve_elements(S, rhs, triple.u_coeffs[:, 0])
    return PostprocessedField(mesh=mesh, degree=kp, scheme="stenberg", coeffs=coeffs, decomposed=decomposed)


def gradient_postprocess(triple: FieldTriple, data: ProblemData) -> PostprocessedField:
    """Gradient-matching reconstruction: the plain gradient of the result
    matches the weighted discrete flux against zero-mean test functions."""
    mesh, space = triple.mesh, triple.space
    geo = mesh.geometry
    kp = space.degree + 1
    sb = ps.scalar_basis(kp)
    vol = ps.triangle_rule(2 * kp + 4)

    nt = mesh.num_triangles
    xq = geo.forward(vol.points)
    S = _stiffness(geo, sb, vol, np.ones((nt, len(vol.weights))))
    qh = pj._vector_values(geo, space.flux_space, space.degree, triple.q_coeffs, vol.points)
    # (grad w_i invB) . q/kappa = grad w_i . (invB q/kappa)
    z = np.einsum("ecd,egd->egc", geo.invB, qh / pj._at(data.kappa, xq)[:, :, None])
    rhs = -geo.detJ[:, None] * np.einsum("g,gic,egc->ei", vol.weights, sb.grad(vol.points), z)
    coeffs = _solve_elements(S, rhs, triple.u_coeffs[:, 0])
    return PostprocessedField(
        mesh=mesh, degree=kp, scheme="gradient", coeffs=coeffs,
        decomposed=np.zeros(nt, dtype=bool),
    )

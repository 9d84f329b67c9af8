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
from math import isqrt

import numpy as np

from . import polyspaces as ps
from . import projections as pj
from .errors import SingularLocalSystem
from .methods import FieldTriple, ProblemData, _balance, _blocks, _pass_bytes, conservation_residuals

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
    decomposed: np.ndarray       # (nt,) flag: the element breaks the conservation law

    def field(self, t) -> pj.LocalScalarField:
        return pj.LocalScalarField(self.mesh.element_map(t), self.degree, self.coeffs[t])

    def element_means(self):
        return pj._element_mean(self.coeffs[:, 0])


def _stiffness(geo, table, vol, weight):
    """Stiffness matrices (nb, dim, dim) of the physical gradients with a
    pointwise weight (nb, ng): the packed reference gradient products
    ``table`` (``ps.packed_gram_table`` of the basis gradients at the points
    of ``vol``) under the metric entries (0, 0), (1, 1) and (0, 1) of
    invB invB^T, unpacked per block."""
    metric = np.einsum("ead,ebd->eab", geo.invB, geo.invB)[:, [0, 1, 0], [0, 1, 1]]  # (nb, 3)
    wk = geo.detJ[:, None] * weight * vol.weights
    packed = (wk[:, :, None] * metric[:, None]).reshape(len(wk), -1) @ table
    return packed[:, ps.packed_positions(isqrt(2 * table.shape[1]))]  # isqrt(n (n + 1)) = n


def _solve_elements(S, rhs, mean_coeff):
    """Solve on the zero-mean blocks and prepend the constant coefficients."""
    try:
        inner = np.linalg.solve(S[:, 1:, 1:], rhs[:, 1:, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise SingularLocalSystem("local postprocessing stiffness is singular") from exc
    return np.hstack([mean_coeff[:, None], inner])


def stenberg(triple: FieldTriple, data: ProblemData) -> PostprocessedField:
    """Flux-driven reconstruction: the weighted gradient of the result
    matches the element balance (f - c u_h, w)_K - <q_h . n, w>_dK of
    :func:`methods._balance` for all w in P_{k+1}, with the numerical flux
    for HDG.

    Every element is solved the same way, one element block at a time.
    ``decomposed`` checks the conservation law that makes the result
    consistent: it flags the elements whose
    :func:`methods.conservation_residuals` exceeds ``COMPATIBILITY_TOL``
    times the largest entry of their right-hand side (at least one).
    """
    mesh, k = triple.mesh, triple.space.degree
    nt, sb = mesh.num_triangles, ps.scalar_basis(k + 1)
    vol, erule = ps.quadrature_rules(k + 1)
    table = ps.packed_gram_table(sb.grad(vol.points))
    balance = _balance(triple, data, sb, vol, erule)
    defect = np.abs(conservation_residuals(triple, data))
    coeffs, decomposed = np.empty((nt, sb.dim)), np.empty(nt, dtype=bool)

    def block(rows):
        geo = mesh.geometry.rows(rows)
        S = _stiffness(geo, table, vol, pj._at(data.kappa, geo.forward(vol.points)))
        rhs = balance(rows)
        decomposed[rows] = defect[rows] > COMPATIBILITY_TOL * np.maximum(1.0, np.abs(rhs).max(axis=1))
        coeffs[rows] = _solve_elements(S, rhs, triple.u_coeffs[rows, 0])

    for rows in _blocks(nt, _pass_bytes(vol, erule)):
        block(rows)
    return PostprocessedField(mesh=mesh, degree=k + 1, scheme="stenberg", coeffs=coeffs, decomposed=decomposed)


def gradient_postprocess(triple: FieldTriple, data: ProblemData) -> PostprocessedField:
    """Gradient-matching reconstruction: the plain gradient of the result
    matches the weighted discrete flux against zero-mean test functions,
    one element block at a time."""
    mesh, space = triple.mesh, triple.space
    kp = space.degree + 1
    nt, sb = mesh.num_triangles, ps.scalar_basis(kp)
    vol = ps.quadrature_rules(kp)[0]
    grads = sb.grad(vol.points)
    table, moments = ps.packed_gram_table(grads), pj._flat_moments(vol.weights, grads)
    V = ps.vector_basis(space.flux_space, space.degree).eval(vol.points)
    coeffs = np.empty((nt, sb.dim))

    def block(rows):
        geo = mesh.geometry.rows(rows)
        S = _stiffness(geo, table, vol, np.ones((len(geo), len(vol.weights))))
        # With q = B qhat / |J|: (grad w_i invB) . q / kappa = grad w_i . qhat / (|J| kappa),
        # and the |J| cancels against the quadrature weight.
        qhat = pj._ref_vector_values(triple.q_coeffs[rows], V)
        z = qhat / pj._at(data.kappa, geo.forward(vol.points))[:, :, None]
        rhs = -(z.reshape(len(geo), -1) @ moments)
        coeffs[rows] = _solve_elements(S, rhs, triple.u_coeffs[rows, 0])

    for rows in _blocks(nt, _pass_bytes(vol, None)):
        block(rows)
    return PostprocessedField(
        mesh=mesh, degree=kp, scheme="gradient", coeffs=coeffs,
        decomposed=np.zeros(nt, dtype=bool),
    )

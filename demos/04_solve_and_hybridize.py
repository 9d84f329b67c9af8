"""Solving the three-field system, with and without static condensation.

The full saddle system in (flux, potential, trace) and the condensed system
in the interior trace alone produce the same coefficients; the condensed
matrix is symmetric positive definite, as is the discrete Dirichlet form
obtained by eliminating everything except the potential.
"""

import numpy as np

from hybridfem.harness import CASES
from hybridfem.mesh import unit_square, uniform_refine
from hybridfem.methods import (
    SpaceDescriptor,
    StabilizationFunction,
    _reduce,
    assemble,
    condensed_system,
    conservation_residuals,
    energy_identity_residual,
    flux_jump_norms,
    solve_hybridized,
    solve_primal,
    solve_saddle,
    system_residual,
)

case = CASES["smooth"]
mesh = uniform_refine(uniform_refine(unit_square(1)))
print(f"mesh: {mesh.num_triangles} triangles, {mesh.num_edges} edges")

for method, k in (("rt", 0), ("bdm", 1), ("hdg", 1)):
    space = SpaceDescriptor(method, k)
    tau = StabilizationFunction.constant(mesh) if method == "hdg" else None
    blocks = assemble(mesh, space, case.data(), tau=tau)
    hyb = solve_hybridized(blocks)
    sad = solve_saddle(blocks)
    gap = max(
        np.abs(hyb.q_coeffs - sad.q_coeffs).max(),
        np.abs(hyb.u_coeffs - sad.u_coeffs).max(),
        np.abs(hyb.lam - sad.lam).max(),
    )
    K, *_ = condensed_system(blocks)
    eig_min = np.linalg.eigvalsh(K.toarray()).min()
    print(
        f"{method} k={k}: residual {system_residual(blocks, hyb):.1e}, "
        f"hybridized-vs-saddle {gap:.1e}, condensed eig_min {eig_min:.3e}, "
        f"max flux jump {flux_jump_norms(hyb).max():.1e}, "
        f"max conservation defect {np.abs(conservation_residuals(hyb, case.data())).max():.1e}"
    )

# The energy identity balances once the data integrals are resolved finely
# enough for both sides.
space = SpaceDescriptor("hdg", 1)
tau = StabilizationFunction.constant(mesh)
blocks = assemble(mesh, space, case.data(), tau=tau, quad_exactness=20)
triple = solve_hybridized(blocks)
print(
    "\nHDG energy identity residual:",
    energy_identity_residual(triple, case.q, case.u, case.data(), quad_exactness=20),
)

# The primal form: one SPD matrix on the potential space reproduces the
# mixed-method potential exactly.  That matrix, the Dirichlet form D, is the
# Schur complement onto the potential of the (potential, interior
# multiplier) system left once the flux is eliminated element by element.
mesh8 = uniform_refine(unit_square(1))
space = SpaceDescriptor("rt", 0)
blocks = assemble(mesh8, space, case.data())
triple = solve_hybridized(blocks)
n = mesh8.num_triangles * space.scalar_dim
A = _reduce(blocks, space.flux_dim)[0].toarray()
D = A[:n, :n] - A[:n, n:] @ np.linalg.solve(A[n:, n:], A[n:, :n])
u_primal = solve_primal(mesh8, space, case.data())
print("Dirichlet form symmetry defect:", np.abs(D - D.T).max())
print("Dirichlet form smallest eigenvalue:", np.linalg.eigvalsh(D).min())
print("primal potential vs mixed potential:", np.abs(u_primal - triple.u_coeffs).max())

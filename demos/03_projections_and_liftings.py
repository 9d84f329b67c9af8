"""The tailored projections and the normal-trace liftings.

Each projection is pinned down by interior moments plus boundary moments;
this script checks the headline identities numerically: commutativity with
the divergence for RT/BDM, the weak variant for HDG, the decoupling of the
coupled HDG system, and the boundedness of the liftings.
"""

import numpy as np

import hybridfem.polyspaces as ps
import hybridfem.projections as pj
from hybridfem.mesh import build_reference_map

em = build_reference_map([[0.1, 0.05], [1.2, 0.25], [0.35, 1.1]])
pi = np.pi
u = lambda x: np.sin(pi * x[:, 0]) * np.sin(pi * x[:, 1])
q = lambda x: -pi * np.stack(
    [np.cos(pi * x[:, 0]) * np.sin(pi * x[:, 1]), np.sin(pi * x[:, 0]) * np.cos(pi * x[:, 1])],
    axis=-1,
)
divq = lambda x: 2 * pi * pi * u(x)

pts = em.forward(np.random.default_rng(1).random((20, 2)) * 0.4 + 0.1)

# Commutativity: projecting then taking the divergence equals projecting the
# divergence.
for k in (0, 1, 2):
    P = pj.rt_project(q, k, em, quad_exactness=16)
    Pd = pj.project_scalar(divq, k, em)
    print(f"RT commutativity defect, k={k}:", np.abs(P.div(pts) - Pd(pts)).max())
for k in (1, 2):
    P = pj.bdm_project(q, k, em, quad_exactness=16)
    Pd = pj.project_scalar(divq, k - 1, em)
    print(f"BDM commutativity defect, k={k}:", np.abs(P.div(pts) - Pd(pts)).max())

# The HDG projection, with the complement part of u fixed by the flux
# terms integrated by parts or by div q, gives the same answer either way.
tau = np.array([1.0, 2.0, 0.5])
Pq, Pu = pj.hdg_project(q, u, 1, em, tau, quad_exactness=16)
Dq, Du = pj.hdg_project_decoupled(q, divq, u, 1, em, tau, quad_exactness=16)
print("\nHDG decoupling defect:",
      max(np.abs(Pq.coeffs - Dq.coeffs).max(), np.abs(Pu.coeffs - Du.coeffs).max()))

# Single-face stabilization: the vector part does not see the value of tau.
tau_sf = np.array([0.0, 3.0, 0.0])
a, _ = pj.hdg_project(q, u, 1, em, tau_sf)
b, _ = pj.hdg_project(q, u, 1, em, tau_sf * 100)
print("single-face tau-independence of the vector part:", np.abs(a.coeffs - b.coeffs).max())

# Liftings reproduce a prescribed normal trace with a norm bound ~ h^{1/2}.
coeffs = np.random.default_rng(2).standard_normal((3, 2))
print("\nscale   ||L mu||_K / (h^{1/2} ||mu||_dK)")
for scale in (1.0, 0.5, 0.25):
    ems = build_reference_map(np.asarray([[0.1, 0.05], [1.2, 0.25], [0.35, 1.1]]) * scale)
    lift = pj.lift_normal_trace(coeffs, "rt", 1, ems)
    rule = ps.triangle_rule(10)
    vals = lift(ems.forward(rule.points))
    norm = np.sqrt((rule.weights * ems.detJ) @ np.einsum("nc,nc->n", vals, vals))
    print(f"{scale:5.3f}   {norm / (np.sqrt(ems.h) * np.linalg.norm(coeffs)):.6f}")

"""Inputs, timed bodies and output checks of the three benchmark workloads.

Each workload is a ``Workload`` with three parts:

* ``setup(seed, small, outdir)`` builds the inputs (meshes with their element
  maps).  It is timed as part of ``setup_s``.
* ``run(inputs)`` is the timed body (``wall_s``).  One call is one round.
* ``check(inputs, outputs)`` compares the round's outputs with properties the
  method must have and returns ``{operation: reason}`` for every operation
  whose output is wrong.  It is not timed.

The checks rest on the a priori rates and the discrete identities of the
projection-based analysis (Cockburn, Gopalakrishnan & Sayas, Math. Comp. 79,
2010), never on copies of the program's output.  Every tolerance below is
relative to a scale stated next to it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import hybridfem
from hybridfem import cli, methods, piola
from hybridfem import polyspaces as ps

# ---------------------------------------------------------------- exact data

# The varkappa case: u = sin(pi x) sin(pi y), kappa = 1 + x^2 y, q = -kappa grad u.
# Written out here so that the checks do not reuse the program's case table.


def exact_u(x):
    return np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])


def exact_kappa(x):
    return 1.0 + x[..., 0] ** 2 * x[..., 1]


def exact_q(x):
    sx, cx = np.sin(np.pi * x[..., 0]), np.cos(np.pi * x[..., 0])
    sy, cy = np.sin(np.pi * x[..., 1]), np.cos(np.pi * x[..., 1])
    grad = np.pi * np.stack([cx * sy, sx * cy], axis=-1)
    return -exact_kappa(x)[..., None] * grad


def exact_f(x):
    """div q for the varkappa case (no reaction)."""
    X, Y = x[..., 0], x[..., 1]
    sx, cx = np.sin(np.pi * X), np.cos(np.pi * X)
    sy, cy = np.sin(np.pi * Y), np.cos(np.pi * Y)
    grad_k_dot_grad_u = np.pi * (2.0 * X * Y * cx * sy + X**2 * sx * cy)
    return -(grad_k_dot_grad_u - 2.0 * np.pi**2 * exact_kappa(x) * sx * sy)


def collapsed_gauss(n):
    """Reference-triangle rule from n x n Gauss points on the collapsed square,
    exact for total degree 2n - 2."""
    x, w = np.polynomial.legendre.leggauss(n)
    s, ws = 0.5 * (x + 1.0), 0.5 * w
    S, T = np.meshgrid(s, s, indexing="ij")
    WS, WT = np.meshgrid(ws, ws, indexing="ij")
    pts = np.column_stack([S.ravel(), (T * (1.0 - S)).ravel()])
    return pts, (WS * WT * (1.0 - S)).ravel()


def l2_errors(triple, npoints=8):
    """L2 errors of u_h and q_h (plain and kappa^-1 weighted) against the exact
    varkappa solution, by the benchmark's own quadrature.

    Coefficients are read in the program's documented convention: u_h is the
    pulled-back orthonormal scalar basis, q_h the contravariant Piola map
    B qhat / det B of the reference vector basis.
    """
    mesh, space = triple.mesh, triple.space
    xhat, w = collapsed_gauss(npoints)
    v = mesh.vertices[mesh.triangles]                       # (nt, 3, 2)
    B = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1)
    det = B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]
    x = v[:, None, 0, :] + np.einsum("ecd,gd->egc", B, xhat)  # (nt, ng, 2)
    W = ps.scalar_basis(space.scalar_degree).eval(xhat)        # (ng, nw)
    V = ps.vector_basis(space.flux_space, space.degree).eval(xhat)  # (ng, nq, 2)
    uh = triple.u_coeffs @ W.T
    qhat = np.einsum("gqd,eq->egd", V, triple.q_coeffs)
    qh = np.einsum("ecd,egd->egc", B, qhat) / det[:, None, None]
    wK = np.abs(det)[:, None] * w[None, :]
    dq = np.sum((exact_q(x) - qh) ** 2, axis=-1)
    return {
        "eu": math.sqrt(np.sum(wK * (exact_u(x) - uh) ** 2)),
        "eq": math.sqrt(np.sum(wK * dq)),
        "eq_w": math.sqrt(np.sum(wK * dq / exact_kappa(x))),
    }


def refined_square(levels):
    mesh = hybridfem.unit_square(2)
    for _ in range(levels):
        mesh = hybridfem.uniform_refine(mesh)
    return mesh


def perturbed_square(levels, seed, amplitude):
    """The refined criss-cross mesh with every interior vertex moved by at most
    ``amplitude`` times the grid spacing, in a uniformly random direction.

    All triangles of the unrefined mesh are right isosceles with legs equal to
    the grid spacing, so amplitudes below 1/4 keep them shape regular.
    """
    mesh = refined_square(levels)
    spacing = 1.0 / (2 * 2**levels)
    interior = np.ones(mesh.num_vertices, dtype=bool)
    interior[mesh.edges[mesh.boundary].ravel()] = False
    rng = np.random.default_rng(seed)
    n = int(interior.sum())
    radius = amplitude * spacing * np.sqrt(rng.random(n))
    angle = 2.0 * np.pi * rng.random(n)
    verts = mesh.vertices.copy()
    verts[interior] += np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    return hybridfem.Mesh(verts, mesh.triangles)


def interior_edges(levels):
    """Interior-edge count of unit_square(2) refined ``levels`` times.

    The refined mesh is the criss-cross mesh of an N x N grid, N = 2 * 2^levels:
    (N+1)^2 vertices, 2 N^2 triangles and, by Euler's formula for a disk,
    3 N^2 + 2 N edges, 4 N of them on the boundary.
    """
    n = 2 * 2**levels
    return 3 * n * n - 2 * n


def slope(coarse, fine):
    return math.log2(coarse / fine)


def _window(name, observed, lo, hi):
    if not lo <= observed <= hi:
        return f"{name} rate {observed:.4f} outside [{lo}, {hi}]"
    return None


@dataclass(frozen=True)
class Workload:
    operations: tuple
    setup: Callable
    run: Callable
    check: Callable


# --------------------------------------------------------------- study-hdg1

# Finest-pair a priori orders of the HDG k=1 study with Stenberg
# postprocessing, with the harness's bands: -0.15 below every order, and
# +0.45 above the superconvergent ones.
STUDY_ORDERS = {
    "eq": (1.85, 2.15),
    "eu_proj": (2.85, 3.45),
    "ehat_proj": (2.85, 3.45),
    "epost_stenberg": (2.85, 3.45),
}
STUDY_DEGREE = 1


def study_setup(seed, small, outdir):
    levels = 4 if small else 6
    src = Path(hybridfem.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.read_bytes())
    out = outdir / "study-hdg1"
    argv = [
        "--method", "hdg", "--degree", str(STUDY_DEGREE), "--case", "smooth",
        "--postprocess", "both", "--levels", str(levels), "--check",
        "--out", str(out),
    ]
    # CSV of an earlier run of the same program sources, for the
    # byte-identity check across runs.
    reference = outdir / "reference" / f"study-hdg1-L{levels}-{digest.hexdigest()[:16]}.csv"
    return {"argv": argv, "levels": levels, "out": out, "reference": reference}


def study_run(inputs):
    shutil.rmtree(inputs["out"], ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(inputs["argv"])
    csv_path = inputs["out"] / f"hdg_k{STUDY_DEGREE}_smooth.csv"
    return {"exit_code": code, "csv": csv_path.read_bytes()}


def study_check(inputs, outputs):
    problems = check_study_csv(outputs["csv"], inputs["levels"])
    if outputs["exit_code"] != 0:
        problems.append(f"exit code {outputs['exit_code']} under --check")
    reference = inputs["reference"]
    if reference.exists():
        if reference.read_bytes() != outputs["csv"]:
            problems.append(f"CSV differs from the one written by an earlier run ({reference.name})")
    elif not problems:
        reference.parent.mkdir(parents=True, exist_ok=True)
        tmp = reference.with_suffix(".tmp")
        tmp.write_bytes(outputs["csv"])
        tmp.replace(reference)
    return {"study": "; ".join(problems)} if problems else {}


def check_study_csv(data: bytes, levels):
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    if len(rows) != levels:
        return [f"{len(rows)} CSV rows for {levels} levels"]
    problems = []
    for row in rows:
        level = int(row["level"])
        want = (STUDY_DEGREE + 1) * interior_edges(level)
        if int(row["dof_condensed"]) != want:
            problems.append(f"level {level}: dof_condensed {row['dof_condensed']} != {want}")
    for norm, (lo, hi) in STUDY_ORDERS.items():
        rate = slope(float(rows[-2][norm]), float(rows[-1][norm]))
        problems.append(_window(norm, rate, lo, hi))
    return [p for p in problems if p]


# --------------------------------------------------------------- solve-hdg3

HDG3 = hybridfem.SpaceDescriptor("hdg", 3)
# Rate k+1 = 4 of both L2 errors, with the harness's +-0.15 band.
HDG3_RATE = (3.85, 4.15)


def hdg3_setup(seed, small, outdir):
    levels = (2, 3) if small else (4, 5)
    meshes = [refined_square(n) for n in levels]
    for mesh in meshes:
        mesh.element_maps()
    return {
        "meshes": meshes,
        "taus": [hybridfem.StabilizationFunction.constant(m, 1.0) for m in meshes],
        "data": hybridfem.CASES["varkappa"].data(),
    }


def hdg3_run(inputs):
    triples = []
    for mesh, tau in zip(inputs["meshes"], inputs["taus"]):
        blocks = hybridfem.assemble(mesh, HDG3, inputs["data"], tau=tau)
        triples.append(hybridfem.solve_hybridized(blocks))
    return {"triples": triples}


def hdg3_check(inputs, outputs):
    coarse, fine = outputs["triples"]
    problems = {}
    for name, triple in (("coarse", coarse), ("fine", fine)):
        arrays = (triple.q_coeffs, triple.u_coeffs, triple.lam)
        if not all(np.isfinite(a).all() for a in arrays):
            problems[name] = "non-finite coefficients"
    if problems:
        return problems
    e0, e1 = l2_errors(coarse), l2_errors(fine)
    rates = [_window(key, slope(e0[key], e1[key]), *HDG3_RATE) for key in ("eu", "eq")]
    rates = [r for r in rates if r]
    if rates:
        problems["fine"] = "; ".join(rates)
    return problems


# ---------------------------------------------------------- crosscheck-bdm2

BDM2 = hybridfem.SpaceDescriptor("bdm", 2)
PERTURBATION = 0.15   # interior-vertex displacement, in grid spacings
DATA_EXACTNESS = 20   # data quadrature that resolves the energy identity
PIOLA_STRIDE = 4      # Piola identities on every 4th element
# Relative tolerances; the scale of each is given in crosscheck_check.
TOL_AGREE = 1e-9
TOL_RESIDUAL = 1e-10
TOL_CONSERVATION = 1e-10
TOL_JUMP = 1e-10
TOL_ENERGY = 1e-6
TOL_PIOLA = 1e-11
CROSSCHECK_OPERATIONS = (
    "hybridized-vs-saddle",
    "system-residual",
    "conservation",
    "flux-jumps",
    "energy-identity",
    "piola",
    "primal-vs-hybridized",
)


def crosscheck_setup(seed, small, outdir):
    levels, primal_levels = (2, 1) if small else (4, 3)
    mesh = perturbed_square(levels, seed, PERTURBATION)
    primal_mesh = perturbed_square(primal_levels, seed + 1, PERTURBATION)
    mesh.element_maps()
    primal_mesh.element_maps()
    return {"mesh": mesh, "primal_mesh": primal_mesh, "case": hybridfem.CASES["varkappa"]}


def crosscheck_run(inputs):
    mesh, primal_mesh, case = inputs["mesh"], inputs["primal_mesh"], inputs["case"]
    data = case.data()
    blocks = hybridfem.assemble(mesh, BDM2, data, quad_exactness=DATA_EXACTNESS)
    hyb = hybridfem.solve_hybridized(blocks)
    saddle = hybridfem.solve_saddle(blocks)
    maps = mesh.element_maps()[::PIOLA_STRIDE]
    primal_hyb = hybridfem.solve_hybridized(hybridfem.assemble(primal_mesh, BDM2, data))
    return {
        "blocks": blocks,
        "hyb": hyb,
        "saddle": saddle,
        **diagnostics(blocks, hyb, case),
        "piola": max(
            piola.verify_operator_identities(em, degree=3, rng=i) for i, em in enumerate(maps)
        ),
        "primal_hyb": primal_hyb,
        "primal": methods.solve_primal(primal_mesh, BDM2, data),
    }


def diagnostics(blocks, triple, case):
    data = case.data()
    return {
        "residual": methods.system_residual(blocks, triple),
        "conservation": methods.conservation_residuals(
            triple, data, quad_exactness=DATA_EXACTNESS
        ),
        "jumps": methods.flux_jump_norms(triple),
        "energy": methods.energy_identity_residual(
            triple, case.q, case.u, data, quad_exactness=DATA_EXACTNESS
        ),
    }


def crosscheck_check(inputs, outputs):
    hyb, saddle = outputs["hyb"], outputs["saddle"]
    mesh = inputs["mesh"]
    problems = {}

    def require(op, value, tol, what):
        if not value <= tol:  # also rejects NaN
            problems[op] = f"{what} {value:.3e} > {tol:.0e}"

    # Scale: largest coefficient of the hybridized solution.
    pairs = [(hyb.q_coeffs, saddle.q_coeffs), (hyb.u_coeffs, saddle.u_coeffs), (hyb.lam, saddle.lam)]
    gap = max(np.abs(a - b).max() / np.abs(a).max() for a, b in pairs)
    require("hybridized-vs-saddle", gap, TOL_AGREE, "relative coefficient gap")
    # system_residual is already relative to the load.
    require("system-residual", outputs["residual"], TOL_RESIDUAL, "relative residual")
    # Scale: largest |integral of f| over an element (centroid rule).
    v = mesh.vertices[mesh.triangles]
    source = np.abs(exact_f(v.mean(axis=1))) * mesh.areas
    require("conservation", np.abs(outputs["conservation"]).max() / source.max(),
            TOL_CONSERVATION, "relative conservation defect")
    # Scale: largest |q| at the vertices times the square root of the
    # longest edge, the L2 norm on that edge of a flux of that size.
    qmax = np.abs(exact_q(mesh.vertices)).max()
    require("flux-jumps", outputs["jumps"].max() / (qmax * math.sqrt(mesh.edge_lengths.max())),
            TOL_JUMP, "relative normal-flux jump")
    # Scale: ||q - q_h||^2 in the kappa^-1 norm, which bounds both sides of
    # the identity up to the projection error.
    energy_scale = l2_errors(hyb)["eq_w"] ** 2
    require("energy-identity", outputs["energy"] / energy_scale, TOL_ENERGY,
            "relative energy-identity defect")
    # Random standard-normal polynomial coefficients: the residual is
    # relative to values of order one.
    require("piola", outputs["piola"], TOL_PIOLA, "Piola identity residual")
    primal_hyb = outputs["primal_hyb"].u_coeffs
    require("primal-vs-hybridized",
            np.abs(outputs["primal"] - primal_hyb).max() / np.abs(primal_hyb).max(),
            TOL_AGREE, "relative potential gap")
    return problems


WORKLOADS = {
    "study-hdg1": Workload(("study",), study_setup, study_run, study_check),
    "solve-hdg3": Workload(("coarse", "fine"), hdg3_setup, hdg3_run, hdg3_check),
    "crosscheck-bdm2": Workload(
        CROSSCHECK_OPERATIONS, crosscheck_setup, crosscheck_run, crosscheck_check
    ),
}

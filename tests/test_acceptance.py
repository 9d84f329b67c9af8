"""Regression targets for the convergence tables and the identity suites,
one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Two subcases are strict-xfail because the nominal target is mathematically
unattainable for the pinned data: HDG k=0 cannot reproduce the linear case
exactly (the coupled projection only fixes pairs inside its local spaces,
and u = x + y is not an elementwise constant), and a smooth reaction
coefficient cannot degrade the BDM k=1 flux order (the reaction coupling
term gains an extra power of h because the potential error is elementwise
constant).  The xfail strictness re-verifies both facts on every run.
"""

import time

import numpy as np
import pytest

import hybridfem.polyspaces as ps
import hybridfem.projections as pj
from hybridfem.harness import CASES, StudyConfig, run_study
from hybridfem.mesh import build_reference_map, unit_square, uniform_refine
from hybridfem.methods import (
    SpaceDescriptor,
    StabilizationFunction,
    assemble,
    condensed_system,
    conservation_residuals,
    energy_identity_residual,
    solve_hybridized,
    solve_saddle,
)

from oracles import dense_dirichlet_form

_REPORTS = {}
_TIMES = {}


def study(method, degree, case="smooth", postprocess="none", levels=5):
    key = (method, degree, case, postprocess, levels)
    if key not in _REPORTS:
        t0 = time.perf_counter()
        _REPORTS[key] = run_study(
            StudyConfig(method=method, degree=degree, levels=levels, case=case, postprocess=postprocess)
        )
        _TIMES[key] = time.perf_counter() - t0
    return _REPORTS[key]


def finest(report, key):
    slopes = report.eoc[key]
    return slopes[-1] if slopes else None


def check_band(report, key, order, lo, hi, label, failures):
    slope = finest(report, key)
    ok = slope is not None and (order - lo) <= slope <= (order + hi)
    if not ok:
        failures.append(f"{label}:{key} expected {order} (-{lo}/+{hi}), got {slope}")
    return ok


def report_line(name, failures):
    status = "PASS" if not failures else "FAIL " + "; ".join(failures)
    print(f"[{name}] {status}")
    assert not failures, failures


def test_criterion_1_rt_convergence_table():
    failures = []
    for k in (0, 1):
        rep = study("rt", k, postprocess="both")
        label = f"rt k={k}"
        check_band(rep, "eq", k + 1, 0.15, 0.15, label, failures)
        check_band(rep, "eu", k + 1, 0.15, 0.15, label, failures)
        check_band(rep, "eu_proj", k + 2, 0.15, 0.45, label, failures)
        check_band(rep, "ehat_proj", k + 2, 0.15, 0.45, label, failures)
        check_band(rep, "eflux", k + 1, 0.2, 0.2, label, failures)
        runtime = _TIMES[("rt", k, "smooth", "both", 5)]
        if runtime >= 120.0:
            failures.append(f"{label}: runtime {runtime:.1f}s exceeds 2 min")
    report_line("criterion 1: RT convergence table", failures)


def test_criterion_2_bdm_convergence_table():
    failures = []
    for k in (1, 2):
        rep = study("bdm", k)
        label = f"bdm k={k}"
        check_band(rep, "eq", k + 1, 0.15, 0.15, label, failures)
        check_band(rep, "eu", k, 0.15, 0.15, label, failures)
        check_band(rep, "eu_proj", k + min(k, 2), 0.15, 0.45, label, failures)
        check_band(rep, "ehat", k + 1, 0.2, 0.2, label, failures)
    report_line("criterion 2: BDM convergence table", failures)


def test_criterion_3_hdg_convergence_table():
    failures = []
    for k in (0, 1, 2):
        rep = study("hdg", k, postprocess="stenberg" if k == 1 else "none")
        label = f"hdg k={k}"
        check_band(rep, "eq", k + 1, 0.15, 0.15, label, failures)
        check_band(rep, "eu_proj", k + 1 + min(k, 1), 0.15, 0.45, label, failures)
        check_band(rep, "eflux_proj", k + 1, 0.2, 0.2, label, failures)
        if k >= 1:
            check_band(rep, "ehat_proj", k + 2, 0.15, 0.45, label, failures)
    report_line("criterion 3: HDG convergence table", failures)


def test_criterion_4_stenberg_postprocessing():
    failures = []
    for method, k in (("rt", 0), ("rt", 1), ("hdg", 1)):
        rep = study(method, k, postprocess="both" if method == "rt" else "stenberg")
        check_band(rep, "epost_stenberg", k + 2, 0.15, 0.45, f"{method} k={k}", failures)
    report_line("criterion 4: Stenberg postprocessing", failures)


def test_criterion_5_reaction_rt_retains_order():
    failures = []
    rep = study("rt", 1, case="reaction")
    check_band(rep, "eq", 2, 0.2, 0.2, "rt k=1 reaction", failures)
    report_line("criterion 5a: reaction keeps RT flux order", failures)


@pytest.mark.xfail(
    strict=True,
    reason="a smooth reaction coefficient cannot drag the BDM k=1 flux down to "
    "first order: the coupling term (c (Pi u - u), eps_u) gains an extra power "
    "of h because eps_u is elementwise constant, so the flux keeps EOC 2 and "
    "the h^k energy bound is not sharp here",
)
def test_criterion_5_reaction_degrades_bdm_flux():
    failures = []
    rep = study("bdm", 1, case="reaction")
    check_band(rep, "eq", 1, 0.2, 0.2, "bdm k=1 reaction", failures)
    report_line("criterion 5b: reaction degrades BDM flux to h^k", failures)


LINEAR_KEYS = ["eq", "eq_proj", "eu_proj", "ehat_proj", "eflux", "eflux_proj"]

EXACT_CASES = [("rt", k) for k in range(4)] + [("bdm", k) for k in (1, 2, 3)] + [
    pytest.param(
        "hdg",
        0,
        marks=pytest.mark.xfail(
            strict=True,
            reason="the coupled HDG projection only fixes pairs in P_k^2 x P_k; "
            "u = x + y is not in P_0, its projection defect is O(h), and the "
            "energy identity transfers that defect to the discrete errors",
        ),
    ),
    ("hdg", 1),
    ("hdg", 2),
    ("hdg", 3),
]


@pytest.mark.parametrize("method,k", EXACT_CASES)
def test_criterion_6_linear_exactness(method, k):
    rep = study(method, k, case="linear", levels=3)
    failures = []
    for row in rep.levels:
        for key in LINEAR_KEYS:
            if row["norms"][key] >= 1e-10:
                failures.append(
                    f"{method} k={k} level {row['level']} {key}={row['norms'][key]:.2e}"
                )
        # the plain potential error is also exact whenever x+y lies in the
        # local scalar space
        if (method in ("rt", "hdg") and k >= 1) or (method == "bdm" and k >= 2):
            if row["norms"]["eu"] >= 1e-10:
                failures.append(f"{method} k={k} level {row['level']} eu")
    report_line(f"criterion 6: linear exactness [{method} k={k}]", failures)


def test_criterion_7_identity_suite():
    failures = []
    em = build_reference_map([[0.15, 0.1], [1.1, 0.3], [0.35, 1.2]])
    rng = np.random.default_rng(99)

    # commutativity: RT and BDM, exact polynomial data
    q = lambda x: np.stack([x[:, 0] ** 3, x[:, 1] ** 2], axis=-1)
    divq = lambda x: 3 * x[:, 0] ** 2 + 2 * x[:, 1]
    pts = em.forward(rng.random((25, 2)) * 0.4 + 0.1)
    proj = pj.rt_project(q, 1, em)
    scal = pj.project_scalar(divq, 1, em)
    if np.abs(proj.div(pts) - scal(pts)).max() >= 1e-11:
        failures.append("commRT")
    proj = pj.bdm_project(q, 2, em)
    scal = pj.project_scalar(divq, 1, em)
    if np.abs(proj.div(pts) - scal(pts)).max() >= 1e-11:
        failures.append("commBDM")
    # HDG weak commutativity, matched quadrature
    u = CASES["smooth"].u
    qs = CASES["smooth"].q
    tau = np.array([1.0, 0.7, 1.3])
    Pq, Pu = pj.hdg_project(qs, u, 1, em, tau, quad_exactness=16)
    vol = ps.triangle_rule(16)
    erule = ps.edge_rule(9)
    xq = em.forward(vol.points)
    sb = ps.scalar_basis(1)
    w = vol.weights * em.detJ
    lhs = sb.eval(vol.points).T @ (w * Pq.div(xq))
    rhs = sb.eval(vol.points).T @ (w * CASES["smooth"].div_q(xq))
    for loc in range(3):
        pe = em.edge_points(loc, erule.points)
        we = erule.weights * em.edge_lengths[loc]
        vals = sb.eval(em.inverse(pe))
        lhs += tau[loc] * vals.T @ (we * Pu(pe))
        rhs += tau[loc] * vals.T @ (we * u(pe))
    if np.abs(lhs - rhs).max() >= 1e-11:
        failures.append("commHDG")

    # Piola invariance: reference route against the independent
    # physical-coordinate solve of the same defining systems
    from oracles import physical_hdg_projection, physical_hdiv_projection

    for method, k in (("rt", 1), ("bdm", 2)):
        coeffs = rng.standard_normal(ps.vector_dim("P", k + 1))
        poly = pj.LocalVectorField(em, "P", k + 1, coeffs)
        route = pj.rt_project(poly, k, em) if method == "rt" else pj.bdm_project(poly, k, em)
        oracle = physical_hdiv_projection(poly, method, k, em)
        if np.abs(route(pts) - oracle(pts)).max() >= 1e-11:
            failures.append(f"piola-{method}")
    Pq, Pu = pj.hdg_project(qs, u, 2, em, np.array([1.0, 0.5, 2.0]), quad_exactness=10)
    qfield, ufield = physical_hdg_projection(qs, u, 2, em, np.array([1.0, 0.5, 2.0]))
    if max(np.abs(Pq(pts) - qfield(pts)).max(), np.abs(Pu(pts) - ufield(pts)).max()) >= 1e-11:
        failures.append("piola-hdg")

    # energy identities balance below 1e-9
    smooth = CASES["smooth"]
    mesh = uniform_refine(unit_square(2))
    for method, k in (("rt", 0), ("bdm", 1), ("hdg", 1)):
        space = SpaceDescriptor(method, k)
        tau_s = StabilizationFunction.constant(mesh) if method == "hdg" else None
        blocks = assemble(mesh, space, smooth.data(), tau=tau_s, quad_exactness=20)
        triple = solve_hybridized(blocks)
        res = energy_identity_residual(triple, smooth.q, smooth.u, smooth.data(), quad_exactness=20)
        if res >= 1e-9:
            failures.append(f"energy-{method}{k}:{res:.1e}")
        cons = np.abs(
            conservation_residuals(triple, smooth.data(), quad_exactness=20)
        ).max()
        if cons >= 1e-10:
            failures.append(f"conservation-{method}{k}:{cons:.1e}")
        # and on the production assembly rule
        blocks_std = assemble(mesh, space, smooth.data(), tau=tau_s)
        cons_std = np.abs(
            conservation_residuals(solve_hybridized(blocks_std), smooth.data())
        ).max()
        if cons_std >= 1e-10:
            failures.append(f"conservation-std-{method}{k}:{cons_std:.1e}")

    # hybridized vs saddle agreement
    mesh32 = uniform_refine(uniform_refine(unit_square(1)))
    space = SpaceDescriptor("hdg", 1)
    blocks = assemble(mesh32, space, smooth.data(), tau=StabilizationFunction.constant(mesh32))
    t1 = solve_hybridized(blocks)
    t2 = solve_saddle(blocks)
    gap = max(
        np.abs(t1.q_coeffs - t2.q_coeffs).max(),
        np.abs(t1.u_coeffs - t2.u_coeffs).max(),
        np.abs(t1.lam - t2.lam).max(),
    )
    if gap >= 1e-8:
        failures.append(f"hybridized-vs-saddle:{gap:.1e}")

    # SPD diagnostics on small problems (< 200 dofs)
    mesh8 = uniform_refine(unit_square(1))
    blocks = assemble(mesh8, SpaceDescriptor("rt", 0), smooth.data())
    K, *_ = condensed_system(blocks)
    eigs = np.linalg.eigvalsh(K.toarray())
    if eigs.min() <= 0:
        failures.append("condensed-not-pd")
    D = dense_dirichlet_form(blocks)
    if np.abs(D - D.T).max() >= 1e-11 * np.abs(D).max():
        failures.append("dirichlet-not-symmetric")
    if np.linalg.eigvalsh(0.5 * (D + D.T)).min() <= 0:
        failures.append("dirichlet-not-pd")

    report_line("criterion 7: identity suite", failures)


def test_criterion_8_structure_suite():
    failures = []
    # dimension formulas for k <= 3
    for k in range(4):
        if ps.rt_dim(k) != 2 * ps.scalar_dim(k) + (k + 1):
            failures.append(f"rt-dim k={k}")
        # rotated-space dimension: d * dim P_{k+1} - dim of homogeneous k+2
        if ps.vector_dim("N", k) != 2 * ps.scalar_dim(k + 1) - (k + 3):
            failures.append(f"rot-dim k={k}")
        if ps.vector_dim("N", k - 1) + ps.face_space_dim(k + 1) != ps.vector_dim("P", k + 1):
            failures.append(f"rot-face-count k={k}")
        # HDG square count
        if 3 * ps.scalar_dim(k) != 3 * ps.scalar_dim(k - 1) + ps.face_space_dim(k):
            failures.append(f"hdg-count k={k}")

    # boundary decomposition: full rank plus cross-orthogonality
    for k in range(4):
        sigma, cross = ps.boundary_decomposition_check(k)
        if sigma <= 1e-8 or cross >= 1e-11:
            failures.append(f"decomposition k={k} sigma={sigma:.1e} cross={cross:.1e}")

    # liftings: trace reproduction and bounded norm constant over refinements
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal((3, 2))
    base = np.array([[0.1, 0.05], [1.15, 0.25], [0.3, 1.05]])
    for method in ("rt", "bdm"):
        consts = []
        for lvl in range(4):
            em = build_reference_map(base * 0.5**lvl)
            lift = pj.lift_normal_trace(coeffs, method, 1, em)
            t = np.linspace(0.02, 0.98, 9)
            for loc in range(3):
                target = pj.face_values(coeffs[loc], em.edge_lengths[loc], t)
                if np.abs(lift.normal_trace(loc, t) - target).max() >= 1e-11:
                    failures.append(f"lift-trace-{method}-lvl{lvl}")
            rule = ps.triangle_rule(10)
            pts = em.forward(rule.points)
            vals = lift(pts)
            norm = np.sqrt((rule.weights * em.detJ) @ np.einsum("nc,nc->n", vals, vals))
            consts.append(norm / (np.sqrt(em.h) * np.linalg.norm(coeffs)))
        if max(consts) > 10.0 or max(consts) / min(consts) > 2.0:
            failures.append(f"lift-bound-{method}: {consts}")

    report_line("criterion 8: structure suite", failures)

import json

import numpy as np
import pytest

import hybridfem.harness as harness
import hybridfem.polyspaces as ps
import hybridfem.projections as pj
from hybridfem.errors import ConfigError, UnsupportedDegree
from hybridfem.harness import (
    CASES,
    SATURATION,
    StudyConfig,
    compare_methods,
    compute_error_norms,
    eoc,
    run_study,
)
from hybridfem.cli import main as cli_main
from hybridfem.mesh import unit_square, uniform_refine
from hybridfem.methods import SpaceDescriptor, assemble, solve_hybridized


# ------------------------------------------------------------- cases


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_self_consistency(name):
    """Strong-form residuals at random interior points."""
    case = CASES[name]
    x = np.random.default_rng(0).random((64, 2))
    r1 = case.q(x) + np.asarray(case.kappa(x), dtype=float)[:, None] * case.grad_u(x)
    cu = 0.0 if case.c is None else np.asarray(case.c(x), dtype=float) * case.u(x)
    r2 = case.div_q(x) + cu - case.f(x)
    assert max(np.abs(r1).max(), np.abs(r2).max()) < 1e-12


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_divergence_fd_oracle(name):
    # central finite differences of q reproduce the hand-coded divergence
    case = CASES[name]
    rng = np.random.default_rng(4)
    x = rng.random((40, 2)) * 0.8 + 0.1
    h = 1e-6
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    div_fd = (case.q(x + ex)[:, 0] - case.q(x - ex)[:, 0]) / (2 * h) + (
        case.q(x + ey)[:, 1] - case.q(x - ey)[:, 1]
    ) / (2 * h)
    assert np.abs(div_fd - case.div_q(x)).max() < 1e-6


def test_case_gradient_fd_oracle():
    case = CASES["varkappa"]
    rng = np.random.default_rng(5)
    x = rng.random((40, 2)) * 0.8 + 0.1
    h = 1e-6
    for c, step in enumerate((np.array([h, 0]), np.array([0, h]))):
        g_fd = (case.u(x + step) - case.u(x - step)) / (2 * h)
        assert np.abs(g_fd - case.grad_u(x)[:, c]).max() < 1e-6
        k_fd = (case.kappa(x + step) - case.kappa(x - step)) / (2 * h)
        assert np.abs(k_fd - case.grad_kappa(x)[:, c]).max() < 1e-6


def test_reaction_toggle():
    cfg = StudyConfig(case="smooth", reaction="on")
    case = cfg.resolved_case()
    assert case.c is not None
    x = np.array([[0.25, 0.5]])
    assert case.c(x)[0] == pytest.approx(1.25)
    cfg = StudyConfig(case="reaction", reaction="off")
    assert cfg.resolved_case().c is None


# ------------------------------------------------------------- eoc


def test_eoc_examples():
    assert eoc([1e-2, 2.5e-3]) == [pytest.approx(2.0)]
    assert eoc([8.0, 4.0, 2.0]) == [pytest.approx(1.0), pytest.approx(1.0)]
    assert eoc([1e-14, 1e-15]) == [None]
    assert eoc([1.0, 1e-14]) == [None]


# ------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ConfigError):
        StudyConfig(case="nope").validate()
    with pytest.raises(ConfigError):
        StudyConfig(levels=1).validate()
    for levels in (2.5, "3"):
        with pytest.raises(ConfigError):
            StudyConfig(levels=levels).validate()
    with pytest.raises(ConfigError):
        StudyConfig(formats=("csv", "xml")).validate()
    for method, degree in (("bdm", 0), ("rt", 1.0), ("hdg", True)):
        with pytest.raises(UnsupportedDegree):
            StudyConfig(method=method, degree=degree).validate()
    with pytest.raises(ConfigError):
        StudyConfig(postprocess="everything").validate()
    with pytest.raises(ConfigError):
        StudyConfig(tau="-2").validate()
    StudyConfig(method="hdg", degree=1, tau="single-face").validate()


# ------------------------------------------------------------- norms


def test_norm_cross_check_against_oracle():
    # harness eu matches an independent per-element quadrature two degrees
    # up; checked in the resolved regime (coarse meshes are quadrature-bound)
    case = CASES["smooth"]
    mesh = uniform_refine(uniform_refine(uniform_refine(unit_square(2))))
    space = SpaceDescriptor("rt", 1)
    blocks = assemble(mesh, space, case.data())
    triple = solve_hybridized(blocks)
    norms = compute_error_norms(triple, case)
    rule = ps.triangle_rule(2 * 1 + 8)
    total = 0.0
    for t in range(mesh.num_triangles):
        em = mesh.element_map(t)
        pts = em.forward(rule.points)
        total += (rule.weights * em.detJ) @ (case.u(pts) - triple.u_field(t)(pts)) ** 2
    assert norms["eu"] == pytest.approx(np.sqrt(total), rel=1e-10)


def test_face_norm_definition():
    # || mu ||_h = (sum_K h_K || mu ||_{dK}^2)^{1/2}: interior edges counted
    # once per owner element
    case = CASES["smooth"]
    mesh = unit_square(1)
    space = SpaceDescriptor("rt", 0)
    blocks = assemble(mesh, space, case.data())
    triple = solve_hybridized(blocks)
    norms = compute_error_norms(triple, case)
    erule = ps.edge_rule(0 + 4)  # the harness rule for k = 0: structural check
    total = 0.0
    for t in range(mesh.num_triangles):
        em = mesh.element_map(t)
        for loc in range(3):
            pts = em.edge_points(loc, erule.points)
            e = mesh.tri_edges[t, loc]
            tri = mesh.triangles[t]
            same = mesh.edges[e, 0] == tri[(loc + 1) % 3]
            tpar = erule.points if same else 1.0 - erule.points
            diff = case.u(pts) - pj.face_values(triple.lam[e], mesh.edge_lengths[e], tpar)
            total += em.h * em.edge_lengths[loc] * (erule.weights @ diff**2)
    assert norms["ehat"] == pytest.approx(np.sqrt(total), rel=1e-9)


# ------------------------------------------------------------- studies


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("study")
    cfg = StudyConfig(method="rt", degree=0, levels=3, case="smooth", out=str(out))
    return cfg, run_study(cfg), out


def test_report_files_and_schema(small_report):
    cfg, report, out = small_report
    data = json.loads((out / "rt_k0_smooth.json").read_text())
    assert set(data) == {"config", "levels", "eoc", "verdicts"}
    assert len(data["levels"]) == 3
    row = data["levels"][0]
    assert {"level", "h", "dofs", "norms", "time_ms"} <= set(row)
    assert {"flux", "scalar", "face", "condensed"} <= set(row["dofs"])
    csv = (out / "rt_k0_smooth.csv").read_text().splitlines()
    assert csv[0].startswith("level,h,dof_flux,dof_scalar,dof_face,dof_condensed,eq,")
    assert len(csv) == 4


def test_report_solver_blocks(small_report):
    # every JSON level row carries the condensed solve's facts; the CSV none
    cfg, report, out = small_report
    data = json.loads((out / "rt_k0_smooth.json").read_text())
    for row in data["levels"]:
        solver = row["solver"]
        assert set(solver) == {"n", "nnz", "iterations", "residual", "backward_error", "lu_fallback",
                               "symmetry_defect", "condense_s", "precondition_s", "iterate_s",
                               "reconstruct_s"}
        assert solver["lu_fallback"] is False
        assert solver["n"] == row["dofs"]["condensed"]
        assert solver["nnz"] > solver["n"]
        assert 0 < solver["iterations"] <= 35
        assert 0.0 <= solver["residual"] < 1e-13
        assert 0.0 <= solver["symmetry_defect"] < 1e-12
    assert "iterations" not in (out / "rt_k0_smooth.csv").read_text()


def test_report_timings_blocks(small_report):
    # every JSON level row times its four phases, in seconds; time_ms keeps
    # covering assembly and solve, and the CSV carries no timing
    cfg, report, out = small_report
    data = json.loads((out / "rt_k0_smooth.json").read_text())
    for row in data["levels"]:
        timings = row["timings"]
        assert set(timings) == {"assemble", "solve", "postprocess", "norms"}
        assert all(value >= 0.0 for value in timings.values())
        assert row["time_ms"] == pytest.approx(1000.0 * (timings["assemble"] + timings["solve"]))
    assert "assemble" not in (out / "rt_k0_smooth.csv").read_text()


def test_report_determinism_across_processes(tmp_path):
    # the stronger form: two separate interpreter runs write identical bytes
    import subprocess
    import sys

    args = [sys.executable, "-m", "hybridfem", "--method", "hdg", "--degree", "0",
            "--levels", "2", "--case", "smooth", "--format", "csv"]
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        subprocess.run(args + ["--out", str(d)], check=True, capture_output=True)
        outs.append((d / "hdg_k0_smooth.csv").read_bytes())
    assert outs[0] == outs[1]


def test_report_determinism(small_report):
    cfg, report, out = small_report
    again = run_study(
        StudyConfig(method="rt", degree=0, levels=3, case="smooth")
    )
    assert again.to_csv() == report.to_csv()  # bit-identical


def test_dof_bookkeeping(small_report):
    # every count follows from the mesh and the local spaces; the condensed
    # system keeps the multipliers of the interior edges
    reports = [small_report[1]] + [
        run_study(StudyConfig(method=m, degree=k, levels=2, case="smooth"))
        for m, k in [("bdm", 2), ("hdg", 1)]
    ]
    for report in reports:
        space = SpaceDescriptor(report.config["method"], report.config["degree"])
        k, mesh = space.degree, unit_square(2)
        for row in report.levels:
            nt, ne = mesh.num_triangles, mesh.num_edges
            assert row["dofs"]["flux"] == nt * space.flux_dim
            assert row["dofs"]["scalar"] == nt * space.scalar_dim
            assert row["dofs"]["face"] == ne * (k + 1)
            interior = int((~mesh.boundary).sum())
            assert row["dofs"]["condensed"] == row["solver"]["n"] == (k + 1) * interior
            mesh = uniform_refine(mesh)


def test_linear_case_all_levels_tiny(small_report):
    rep = run_study(StudyConfig(method="rt", degree=0, levels=3, case="linear"))
    for row in rep.levels:
        assert row["norms"]["eq"] < 1e-10
        assert row["norms"]["eu_proj"] < 1e-10
    assert all(s is None for s in rep.eoc["eq"])  # saturated


def test_saturated_norms_pass_the_check(capsys):
    # BDM k=3 reproduces the linear case: every asserted norm is round-off
    rep = run_study(StudyConfig(method="bdm", degree=3, levels=3, case="linear"))
    assert rep.passed and rep.verdicts
    for key, v in rep.verdicts.items():
        assert rep.levels[-1]["norms"][key] < SATURATION
        assert v["observed"] is None and v["pass"] is True
    assert "saturated: pass" in rep.table() and "FAIL" not in rep.table()
    verdict = json.loads(rep.to_json())["verdicts"]["eq"]
    assert verdict["observed"] is None and verdict["pass"] is True
    rc = cli_main(["--method", "bdm", "--degree", "3", "--levels", "3", "--case", "linear", "--check"])
    assert rc == 0
    assert "saturated: pass" in capsys.readouterr().out


def test_varkappa_study_orders():
    # variable diffusion keeps the flux order (coefficients enter pointwise
    # at the quadrature nodes)
    rep = run_study(StudyConfig(method="rt", degree=1, levels=4, case="varkappa"))
    assert rep.eoc["eq"][-1] == pytest.approx(2.0, abs=0.2)
    assert rep.eoc["eu_proj"][-1] == pytest.approx(3.0, abs=0.4)


@pytest.mark.parametrize("method,k", [("rt", 3), ("bdm", 3), ("hdg", 3)])
def test_top_degree_studies(method, k):
    # k = 3 is supported end to end; errors hit the saturation guard fast,
    # so check the first usable slope window
    rep = run_study(StudyConfig(method=method, degree=k, levels=3, case="smooth"))
    slope = rep.eoc["eq"][-1]
    expected = k + 1
    assert slope is None or abs(slope - expected) < 0.6


def test_single_face_tau_study_runs():
    rep = run_study(
        StudyConfig(method="hdg", degree=1, levels=3, case="smooth", tau="single-face")
    )
    assert rep.eoc["eq"][-1] == pytest.approx(2.0, abs=0.3)


def test_user_mesh_reports_but_does_not_assert(tmp_path):
    mesh_file = tmp_path / "square.mesh"
    mesh_file.write_text("4 2\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3\n")
    rep = run_study(
        StudyConfig(method="rt", degree=0, levels=3, case="smooth", mesh_file=str(mesh_file))
    )
    assert not rep.asserted
    assert rep.levels[0]["dofs"]["flux"] == 6


def test_compare_methods_shares_condensed_size():
    reports, text = compare_methods(("rt", "bdm", "hdg"), degree=1, levels=3)
    sizes = {m: [row["dofs"]["condensed"] for row in reports[m].levels] for m in reports}
    assert sizes["rt"] == sizes["bdm"] == sizes["hdg"]
    # u-error orders differ by one between RT and BDM at equal degree
    rt_slope = reports["rt"].eoc["eu"][-1]
    bdm_slope = reports["bdm"].eoc["eu"][-1]
    assert rt_slope - bdm_slope == pytest.approx(1.0, abs=0.35)
    assert "condensed" in text


def test_compare_methods_rejects_bdm_k0():
    with pytest.raises(UnsupportedDegree):
        compare_methods(("rt", "bdm"), degree=0)


# ------------------------------------------------------------- CLI


def test_cli_runs_and_writes(tmp_path, capsys):
    rc = cli_main(
        [
            "--method", "rt", "--degree", "0", "--levels", "3",
            "--case", "smooth", "--out", str(tmp_path), "--format", "json",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "eoc" in out
    assert (tmp_path / "rt_k0_smooth.json").exists()
    assert not (tmp_path / "rt_k0_smooth.csv").exists()


def test_cli_check_failure_exit_code(tmp_path):
    # an intentionally pre-asymptotic run that still passes is hard to fake;
    # instead check the error path and the tau plumbing
    rc = cli_main(["--method", "bdm", "--degree", "0", "--levels", "3"])
    assert rc == 2  # UnsupportedDegree surfaces as a config error exit


def test_cli_tau_single_face():
    rc = cli_main(
        ["--method", "hdg", "--degree", "0", "--levels", "2", "--tau", "single-face"]
    )
    assert rc == 0


@pytest.mark.parametrize(
    "args",
    [["--tau", "abc"], ["--mesh", "missing.msh"], ["--method", "hdg", "--tau", "nan"],
     ["--format", "csv"], ["--mesh", "bad.msh"]],
    ids=["tau-not-a-number", "missing-mesh", "tau-nan", "format-without-out", "mesh-not-utf8"],
)
def test_cli_bad_arguments_fail_fast(args, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.msh").write_bytes(b"\xff\xfe 3 1\n")
    rc = cli_main(args + ["--levels", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


def test_cli_mesh_with_an_unused_vertex_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.msh").write_text("5 2\n0 0\n1 0\n0 1\n1 1\n5 5\n0 1 2\n1 3 2\n")
    assert cli_main(["--mesh", "f.msh", "--levels", "2"]) == 0


def test_cli_mesh_with_a_triangle_listed_twice_fails_fast(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dup.msh").write_text("3 2\n0 0\n1 0\n0 1\n0 1 2\n0 2 1\n")
    rc = cli_main(["--mesh", "dup.msh", "--levels", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "triangles 0 and 1" in err
    assert len(err.strip().splitlines()) == 1


def test_cli_unusable_out_fails_before_the_first_level(tmp_path, capsys, monkeypatch):
    """An --out below a regular file exits 2 before anything is assembled,
    not after solving every level."""
    def assemble_never(*args, **kwargs):
        raise AssertionError("assembled before --out was checked")

    monkeypatch.setattr(harness, "assemble", assemble_never)
    (tmp_path / "file").write_text("")
    rc = cli_main(["--method", "hdg", "--degree", "1", "--levels", "6", "--out", str(tmp_path / "file" / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1

"""Self-test of the benchmark: every workload runs at small size, the traced
counts repeat, and each output check rejects a corrupted result.

    PYTHONPATH=src python -m pytest bench -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads as wl
from hybridfem import piola

BENCH = Path(__file__).resolve().parent


def run_bench(*args, cwd=BENCH.parent):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--small", "--seconds", "0", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_workload_runs_small_and_passes_its_checks():
    result = last_json(run_bench())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + 2 + len(wl.CROSSCHECK_OPERATIONS)
    for name in wl.WORKLOADS:
        for metric in ("setup_s", "wall_s", "peak_rss_mb"):
            assert result["metrics"][f"{name}.{metric}"]["value"] > 0


def test_traced_counts_repeat_across_seeds():
    counts = []
    for seed in (1, 2):
        result = last_json(run_bench("--trace", "1", "--seed", str(seed)))
        assert result["correct"]
        counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["solve-hdg3.methods.lu_fill_nnz"] > 0


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ------------------------------------------------------------------ study


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    inputs = wl.study_setup(1, True, tmp_path_factory.mktemp("out"))
    outputs = wl.study_run(inputs)
    assert wl.study_check(inputs, outputs) == {}
    return inputs, outputs


def edit_csv(data, level, column, fn):
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    cells = lines[1 + level].split(",")
    col = header.index(column)
    cells[col] = fn(cells[col])
    lines[1 + level] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


def test_study_rejects_rate_out_of_window(study):
    inputs, outputs = study
    bad = edit_csv(outputs["csv"], inputs["levels"] - 1, "eq", lambda v: repr(2 * float(v)))
    problems = wl.study_check(inputs, {**outputs, "csv": bad})
    assert "eq rate" in problems["study"]


def test_study_rejects_wrong_condensed_size(study):
    inputs, outputs = study
    bad = edit_csv(outputs["csv"], 1, "dof_condensed", lambda v: str(int(v) + 2))
    assert "dof_condensed" in wl.study_check(inputs, {**outputs, "csv": bad})["study"]


def test_study_rejects_csv_that_differs_between_runs(study):
    inputs, outputs = study
    bad = edit_csv(outputs["csv"], 0, "eu", lambda v: repr(float(v) * (1 + 1e-12)))
    assert "differs" in wl.study_check(inputs, {**outputs, "csv": bad})["study"]


def test_study_rejects_failed_exit_code(study):
    inputs, outputs = study
    assert "exit code" in wl.study_check(inputs, {**outputs, "exit_code": 1})["study"]


def test_interior_edge_formula_matches_refined_meshes():
    for levels in range(3):
        mesh = wl.refined_square(levels)
        assert int((~mesh.boundary).sum()) == wl.interior_edges(levels)


# -------------------------------------------------------------- solve-hdg3


@pytest.fixture(scope="module")
def hdg3():
    inputs = wl.hdg3_setup(1, True, None)
    outputs = wl.hdg3_run(inputs)
    assert wl.hdg3_check(inputs, outputs) == {}
    return inputs, outputs


def test_hdg3_rejects_non_finite_coefficients(hdg3):
    inputs, outputs = hdg3
    coarse, fine = outputs["triples"]
    u = fine.u_coeffs.copy()
    u[3, 0] = np.nan
    bad = dataclasses.replace(fine, u_coeffs=u)
    assert "non-finite" in wl.hdg3_check(inputs, {"triples": [coarse, bad]})["fine"]


def test_hdg3_rejects_perturbed_solution(hdg3):
    inputs, outputs = hdg3
    coarse, fine = outputs["triples"]
    bad = dataclasses.replace(fine, u_coeffs=fine.u_coeffs * (1 + 1e-4))
    assert "eu rate" in wl.hdg3_check(inputs, {"triples": [coarse, bad]})["fine"]


def test_own_quadrature_matches_exact_errors_of_zero_solution(hdg3):
    # With zero coefficients the errors are the norms of the exact fields:
    # ||u|| = 1/2 and ||grad u|| = pi / sqrt(2) for u = sin(pi x) sin(pi y).
    _, outputs = hdg3
    fine = outputs["triples"][1]
    zero = dataclasses.replace(fine, u_coeffs=0 * fine.u_coeffs, q_coeffs=0 * fine.q_coeffs)
    errors = wl.l2_errors(zero)
    assert errors["eu"] == pytest.approx(0.5, rel=1e-10)
    assert errors["eq"] > math.pi / math.sqrt(2)


# --------------------------------------------------------- crosscheck-bdm2


@pytest.fixture(scope="module")
def crosscheck():
    inputs = wl.crosscheck_setup(1, True, None)
    outputs = wl.crosscheck_run(inputs)
    assert wl.crosscheck_check(inputs, outputs) == {}
    return inputs, outputs


def perturbed(triple, seed=0):
    q = triple.q_coeffs.copy()
    q[0] += 1e-6 * np.abs(q).max() * np.random.default_rng(seed).standard_normal(q.shape[1])
    return dataclasses.replace(triple, q_coeffs=q)


def test_crosscheck_rejects_solver_disagreement(crosscheck):
    inputs, outputs = crosscheck
    bad = {**outputs, "saddle": perturbed(outputs["saddle"])}
    assert "hybridized-vs-saddle" in wl.crosscheck_check(inputs, bad)


@pytest.mark.parametrize("op", ["system-residual", "conservation", "flux-jumps", "energy-identity"])
def test_crosscheck_diagnostics_reject_perturbed_flux(crosscheck, op):
    inputs, outputs = crosscheck
    hyb = perturbed(outputs["hyb"])
    bad = {**outputs, **wl.diagnostics(outputs["blocks"], hyb, inputs["case"]), "hyb": hyb}
    assert op in wl.crosscheck_check(inputs, bad)


def test_crosscheck_rejects_wrong_piola_map(crosscheck):
    inputs, outputs = crosscheck
    em = inputs["mesh"].element_map(0)
    wrong = dataclasses.replace(em, edge_normals=-em.edge_normals)
    bad = {**outputs, "piola": piola.verify_operator_identities(wrong, degree=3, rng=0)}
    assert "piola" in wl.crosscheck_check(inputs, bad)


def test_crosscheck_rejects_primal_mismatch(crosscheck):
    inputs, outputs = crosscheck
    bad = {**outputs, "primal": outputs["primal"] * (1 + 1e-6)}
    assert "primal-vs-hybridized" in wl.crosscheck_check(inputs, bad)

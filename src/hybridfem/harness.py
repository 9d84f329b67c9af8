"""Convergence-study driver: manufactured solutions, error norms, estimated
orders of convergence, and machine-readable reports.

The error norms follow the projection-based analysis: alongside the plain
L2 distances to the exact solution, each method is compared against its own
projections (element projection of the flux pair, edgewise projection of
the potential trace), which is where superconvergence shows up.  The face
norm is the broken boundary norm (sum over elements of h_K times the
squared boundary L2 norm).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import polyspaces as ps
from . import projections as pj
from .errors import ConfigError, UnsupportedDegree
from .mesh import Mesh, load_mesh, uniform_refine, unit_square
from .methods import (
    FieldTriple,
    ProblemData,
    SpaceDescriptor,
    StabilizationFunction,
    assemble,
    solve_hybridized,
    _TraceTables,
    _blocks,
    _local_face_values,
    _pass_bytes,
    _project_elements,
    _project_faces,
)
from .postprocess import gradient_postprocess, stenberg

__all__ = [
    "ManufacturedCase",
    "CASES",
    "StudyConfig",
    "ConvergenceReport",
    "compute_error_norms",
    "eoc",
    "expected_orders",
    "run_study",
    "compare_methods",
]

SATURATION = 1e-13

NORM_KEYS = [
    "eq",
    "eq_w",
    "eq_proj",
    "eq_proj_w",
    "eu",
    "eu_proj",
    "ehat",
    "ehat_proj",
    "eflux",
    "eflux_proj",
]

# Wall time is reported in the JSON only; keeping it out of the CSV makes
# repeated runs bit-identical.
CSV_COLUMNS = [
    "level",
    "h",
    "dof_flux",
    "dof_scalar",
    "dof_face",
    "dof_condensed",
    *NORM_KEYS,
    "epost_stenberg",
    "epost_gradient",
]


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution with hand-differentiated data.

    The flux is q = -kappa grad u; the divergence uses the product rule with
    the stored gradient of kappa, and the source is f = div q + c u, so the
    strong residuals vanish identically.
    """

    name: str
    u: callable
    grad_u: callable
    laplace_u: callable
    kappa: callable
    grad_kappa: callable
    c: callable | None = None

    def q(self, x):
        return -np.asarray(self.kappa(x), dtype=float)[:, None] * self.grad_u(x)

    def div_q(self, x):
        gk = np.asarray(self.grad_kappa(x), dtype=float)
        gu = np.asarray(self.grad_u(x), dtype=float)
        return -(np.einsum("nc,nc->n", gk, gu) + np.asarray(self.kappa(x), dtype=float) * self.laplace_u(x))

    def f(self, x):
        out = self.div_q(x)
        if self.c is not None:
            out = out + np.asarray(self.c(x), dtype=float) * self.u(x)
        return out

    def data(self) -> ProblemData:
        return ProblemData(kappa=self.kappa, f=self.f, g=self.u, c=self.c)

    def with_reaction(self, c, suffix="+reaction"):
        return replace(self, name=self.name + suffix, c=c)

    def without_reaction(self):
        if self.c is None:
            return self
        return replace(self, name=self.name + "-reaction", c=None)


def _sin_case(name, kappa, grad_kappa, c=None):
    pi = np.pi

    def u(x):
        return np.sin(pi * x[:, 0]) * np.sin(pi * x[:, 1])

    def grad_u(x):
        return pi * np.stack(
            [
                np.cos(pi * x[:, 0]) * np.sin(pi * x[:, 1]),
                np.sin(pi * x[:, 0]) * np.cos(pi * x[:, 1]),
            ],
            axis=-1,
        )

    def laplace_u(x):
        return -2.0 * pi * pi * u(x)

    return ManufacturedCase(
        name=name, u=u, grad_u=grad_u, laplace_u=laplace_u,
        kappa=kappa, grad_kappa=grad_kappa, c=c,
    )


def _ones(x):
    return np.ones(len(x))


def _zeros2(x):
    return np.zeros((len(x), 2))


CASES = {
    "linear": ManufacturedCase(
        name="linear",
        u=lambda x: x[:, 0] + x[:, 1],
        grad_u=lambda x: np.ones((len(x), 2)),
        laplace_u=lambda x: np.zeros(len(x)),
        kappa=_ones,
        grad_kappa=_zeros2,
    ),
    "smooth": _sin_case("smooth", _ones, _zeros2),
    "varkappa": _sin_case(
        "varkappa",
        kappa=lambda x: 1.0 + x[:, 0] ** 2 * x[:, 1],
        grad_kappa=lambda x: np.stack(
            [2.0 * x[:, 0] * x[:, 1], x[:, 0] ** 2], axis=-1
        ),
    ),
    "reaction": _sin_case("reaction", _ones, _zeros2, c=lambda x: 1.0 + x[:, 0]),
}


def compute_error_norms(triple: FieldTriple, case: ManufacturedCase, postprocessed=()):
    """All error norms of a solved triple against the exact solution,
    summed one element block at a time.

    ``postprocessed`` is an iterable of PostprocessedField objects; their
    L2 errors are reported under ``epost_<scheme>``.
    """
    mesh, space = triple.mesh, triple.space
    k = space.degree
    exactness = 2 * k + 6
    vol, erule = ps.quadrature_rules(k, exactness)  # k + 4 edge points
    dlam = _project_faces(triple, case.u, exactness) - triple.lam
    # Reference values, tabulated once for all blocks.
    V = ps.vector_basis(space.flux_space, k).eval(vol.points)
    W = ps.scalar_basis(space.scalar_degree).eval(vol.points).T
    traces = _TraceTables(space, erule.points)
    posts = [(p, ps.scalar_basis(p.degree).eval(vol.points).T) for p in postprocessed]
    if space.is_hdg:
        # edgewise L2 projection of the exact normal flux, element side
        r = ps.quadrature_rules(k)[1]
        Pr = ps.legendre01(k, r.points) * r.weights[:, None]

    def block(rows):
        geo = mesh.geometry.rows(rows)
        # the exact solution at the rule points, for the projections and the norms
        (qv, qe), (ue, u_edge), (kappa, _) = pj._sample([case.q, case.u, case.kappa], geo, vol, erule)
        qc, uc = _project_elements(triple, (qv, qe), (ue, u_edge), exactness, rows)
        q_h, u_h = triple.q_coeffs[rows], triple.u_coeffs[rows]
        w = geo.detJ[:, None] * vol.weights
        kinv = 1.0 / kappa
        # Distances to the projections come from coefficient differences: the
        # pointwise difference of two order-one fields would cancel.
        d_exact = np.sum((qv - pj._vector_values(geo, V, q_h)) ** 2, axis=-1)
        d_proj = np.sum(pj._vector_values(geo, V, qc - q_h) ** 2, axis=-1)
        part = {
            "eq": np.sum(w * d_exact),
            "eq_w": np.sum(w * kinv * d_exact),
            "eq_proj": np.sum(w * d_proj),
            "eq_proj_w": np.sum(w * kinv * d_proj),
            "eu": np.sum(w * (ue - u_h @ W) ** 2),
            "eu_proj": np.sum(w * ((uc - u_h) @ W) ** 2),
        }

        # Broken boundary norms: h_K times the squared L2 norm on dK, summed.
        we = (mesh.h[rows, None] * geo.edge_lengths)[..., None] * erule.weights
        lam_h = _local_face_values(mesh, triple.lam, traces.P, rows)
        part["ehat"] = np.sum(we * (u_edge - lam_h) ** 2)
        part["ehat_proj"] = np.sum(we * _local_face_values(mesh, dlam, traces.P, rows) ** 2)
        flux_h = triple._normal_flux(traces, rows)
        qen = np.einsum("elgc,elc->elg", qe, geo.edge_normals)
        part["eflux"] = np.sum(we * (qen - flux_h) ** 2)
        if space.is_hdg:
            qn = np.einsum("elgc,elc->elg", pj._at(case.q, geo.edge_forward(r.points)), geo.edge_normals)
            gap = np.einsum("si,gi,elg->els", traces.P, Pr, qn) - flux_h
        else:
            gap = pj._normal_traces(geo, traces.N, qc - q_h)
        part["eflux_proj"] = np.sum(we * gap**2)
        for p, Wp in posts:
            part[f"epost_{p.scheme}"] = np.sum(w * (ue - p.coeffs[rows] @ Wp) ** 2)
        return part

    # a function per block, so that no block's arrays outlive it
    parts = [block(rows) for rows in _blocks(mesh.num_triangles, _pass_bytes(vol, erule))]
    return {key: float(np.sqrt(max(sum(part[key] for part in parts), 0.0))) for key in parts[0]}


def eoc(errors):
    """Slopes log2(e_i / e_{i+1}) for errors on meshes with halved h.

    Pairs touching values below the saturation threshold give None (the
    quotient measures round-off, not convergence).
    """
    errors = list(errors)
    slopes = []
    for a, b in zip(errors, errors[1:]):
        if a < SATURATION or b < SATURATION:
            slopes.append(None)
        else:
            slopes.append(float(np.log2(a / b)))
    return slopes


def expected_orders(space: SpaceDescriptor, postprocess=()):
    """Asserted norms with (expected order, lower slack, upper slack).

    Superconvergent quantities carry the wide upward slack; everything else
    is a two-sided band.
    """
    k = space.degree
    if space.method == "rt":
        table = {
            "eq": (k + 1, 0.15, 0.15),
            "eu": (k + 1, 0.15, 0.15),
            "eu_proj": (k + 2, 0.15, 0.45),
            "ehat_proj": (k + 2, 0.15, 0.45),
            "eflux": (k + 1, 0.2, 0.2),
        }
        if "stenberg" in postprocess:
            table["epost_stenberg"] = (k + 2, 0.15, 0.45)
        if "gradient" in postprocess:
            table["epost_gradient"] = (k + 2, 0.15, 0.45)
    elif space.method == "bdm":
        table = {
            "eq": (k + 1, 0.15, 0.15),
            "eu": (k, 0.15, 0.15),
            "eu_proj": (k + min(k, 2), 0.15, 0.45),
            "ehat": (k + 1, 0.2, 0.2),
        }
    else:
        table = {
            "eq": (k + 1, 0.15, 0.15),
            "eu_proj": (k + 1 + min(k, 1), 0.15, 0.45),
            "eflux_proj": (k + 1, 0.2, 0.2),
        }
        if k >= 1:
            table["ehat_proj"] = (k + 2, 0.15, 0.45)
            if "stenberg" in postprocess:
                table["epost_stenberg"] = (k + 2, 0.15, 0.45)
    return table


@dataclass
class StudyConfig:
    method: str = "rt"
    degree: int = 0
    levels: int = 5
    case: str = "smooth"
    tau: object = 1.0          # float or "single-face"
    reaction: str | None = None  # None (case default) | "on" | "off"
    postprocess: str = "none"  # none | stenberg | gradient | both
    mesh_file: str | None = None
    out: str | None = None
    formats: tuple = ("csv", "json")

    def resolved_case(self) -> ManufacturedCase:
        if self.case not in CASES:
            raise ConfigError(f"unknown case {self.case!r}; have {sorted(CASES)}")
        case = CASES[self.case]
        if self.reaction == "on" and case.c is None:
            case = case.with_reaction(lambda x: 1.0 + x[:, 0])
        elif self.reaction == "off":
            case = case.without_reaction()
        elif self.reaction not in (None, "on", "off"):
            raise ConfigError("reaction must be 'on' or 'off'")
        return case

    def postprocess_schemes(self):
        if self.postprocess == "none":
            return ()
        if self.postprocess == "both":
            return ("stenberg", "gradient")
        if self.postprocess in ("stenberg", "gradient"):
            return (self.postprocess,)
        raise ConfigError(f"unknown postprocess choice {self.postprocess!r}")

    def validate(self):
        if not isinstance(self.levels, (int, np.integer)):
            raise ConfigError(f"levels must be an integer, got {self.levels!r}")
        if self.levels < 2:
            raise ConfigError("need at least two levels for an EOC")
        SpaceDescriptor(self.method, self.degree)  # raises UnsupportedDegree
        self.resolved_case()
        self.postprocess_schemes()
        if self.tau != "single-face":
            try:
                tau = float(self.tau)
            except (TypeError, ValueError):
                raise ConfigError("tau must be a number or 'single-face'") from None
            if not (tau > 0 and np.isfinite(tau)):
                raise ConfigError("tau must be positive and finite")
        unknown = set(self.formats) - {"csv", "json"}
        if unknown:
            raise ConfigError(f"unknown output formats {sorted(unknown)}; have ['csv', 'json']")


@dataclass
class ConvergenceReport:
    config: dict
    levels: list
    eoc: dict
    verdicts: dict
    asserted: bool = True

    @property
    def passed(self) -> bool:
        return all(v["pass"] for v in self.verdicts.values()) if self.verdicts else True

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": self.config,
                "levels": self.levels,
                "eoc": self.eoc,
                "verdicts": self.verdicts,
            },
            indent=2,
        )

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.levels:
            cells = []
            for col in CSV_COLUMNS:
                if col == "level":
                    cells.append(str(row["level"]))
                elif col == "h":
                    cells.append(f"{row['h']:.16e}")
                elif col.startswith("dof_"):
                    cells.append(str(row["dofs"][col[4:]]))
                else:
                    val = row["norms"].get(col)
                    cells.append("" if val is None else f"{val:.16e}")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def table(self) -> str:
        keys = [k for k in NORM_KEYS if k in self.levels[0]["norms"]]
        keys += [k for k in self.levels[0]["norms"] if k.startswith("epost_")]
        head = f"{'lvl':>3} {'h':>9} {'dofs':>8} " + " ".join(f"{k:>12}" for k in keys)
        lines = [head]
        for row in self.levels:
            lines.append(
                f"{row['level']:>3} {row['h']:9.3e} {row['dofs']['condensed']:>8} "
                + " ".join(f"{row['norms'][k]:12.4e}" for k in keys)
            )
        eoc_cells = []
        for k in keys:
            slopes = self.eoc.get(k, [])
            last = slopes[-1] if slopes else None
            eoc_cells.append("   saturated" if last is None else f"{last:12.3f}")
        lines.append(f"{'eoc':>3} {'':>9} {'':>8} " + " ".join(eoc_cells))
        for key, v in self.verdicts.items():
            status = "pass" if v["pass"] else ("FAIL" if self.asserted else "reported")
            seen = "saturated" if v["observed"] is None and v["pass"] else f"observed {v['observed']}"
            lines.append(f"  {key}: expected {v['expected']} in [{v['lo']:.2f}, {v['hi']:.2f}], {seen}: {status}")
        return "\n".join(lines)


def _study_tau(config: StudyConfig, mesh: Mesh):
    if config.method != "hdg":
        return None
    if config.tau == "single-face":
        return StabilizationFunction.single_face(mesh)
    return StabilizationFunction.constant(mesh, float(config.tau))


@contextmanager
def _timed(timings: dict, phase: str):
    """Store the wall time of the block, in seconds, as ``timings[phase]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[phase] = time.perf_counter() - start


def run_study(config: StudyConfig) -> ConvergenceReport:
    """Run the refinement study described by the config.

    Levels are solved through the hybridized path.  The report carries one
    row per level (with the condensed solve's ``solver`` facts and the
    ``timings`` of its phases in the JSON only), slope sequences for every
    norm, and pass/fail verdicts for the method's asserted orders
    (evaluated on the finest level pair; a norm below ``SATURATION`` on the
    finest level passes with slope None).
    With a user-supplied mesh the verdicts are reported but not asserted
    (no convexity guarantee for the duality rates).
    """
    config.validate()
    case = config.resolved_case()
    space = SpaceDescriptor(config.method, config.degree)
    schemes = config.postprocess_schemes()
    data = case.data()

    mesh = load_mesh(config.mesh_file) if config.mesh_file else unit_square(2)
    rows = []
    for level in range(config.levels):
        timings = {}
        with _timed(timings, "assemble"):
            blocks = assemble(mesh, space, data, tau=_study_tau(config, mesh))
        with _timed(timings, "solve"):
            triple = solve_hybridized(blocks)
        with _timed(timings, "postprocess"):
            posts = [
                stenberg(triple, data) if scheme == "stenberg" else gradient_postprocess(triple, data)
                for scheme in schemes
            ]
        with _timed(timings, "norms"):
            norms = compute_error_norms(triple, case, postprocessed=posts)
        rows.append(
            {
                "level": level,
                "h": mesh.h_max,
                "dofs": {
                    "flux": triple.q_coeffs.size,
                    "scalar": triple.u_coeffs.size,
                    "face": triple.lam.size,
                    "condensed": triple.solve_info.n,
                },
                "norms": norms,
                "solver": asdict(triple.solve_info),
                "timings": timings,
                "time_ms": 1000.0 * (timings["assemble"] + timings["solve"]),
            }
        )
        if level < config.levels - 1:
            mesh = uniform_refine(mesh)

    slopes = {
        key: eoc([row["norms"][key] for row in rows]) for key in rows[0]["norms"]
    }
    verdicts = {}
    for key, (order, lo, hi) in expected_orders(space, schemes).items():
        observed = slopes[key][-1] if slopes[key] else None
        # a norm the method reproduces exactly has no slope, and passes
        ok = rows[-1]["norms"][key] < SATURATION or (
            observed is not None and (order - lo) <= observed <= (order + hi))
        verdicts[key] = {
            "expected": order,
            "lo": order - lo,
            "hi": order + hi,
            "observed": None if observed is None else round(observed, 4),
            "pass": bool(ok),
        }

    report = ConvergenceReport(
        config={
            "method": config.method,
            "degree": config.degree,
            "levels": config.levels,
            "case": case.name,
            "tau": config.tau if config.method == "hdg" else None,
            "postprocess": list(schemes),
            "mesh_file": config.mesh_file,
        },
        levels=rows,
        eoc=slopes,
        verdicts=verdicts,
        asserted=config.mesh_file is None,
    )
    if config.out:
        _write_report(report, config)
    return report


def _write_report(report: ConvergenceReport, config: StudyConfig):
    import pathlib

    outdir = pathlib.Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = f"{config.method}_k{config.degree}_{report.config['case']}"
    if "json" in config.formats:
        (outdir / f"{stem}.json").write_text(report.to_json())
    if "csv" in config.formats:
        (outdir / f"{stem}.csv").write_text(report.to_csv())


def compare_methods(methods, degree, levels=4, case="smooth", tau=1.0):
    """Side-by-side study of several methods on the same mesh sequence.

    All requested methods must support the degree (BDM starts at 1).  The
    condensed system size is shared whenever the multiplier space is,
    which is the point of the comparison.
    """
    for m in methods:
        SpaceDescriptor(m, degree)  # raises UnsupportedDegree early
    reports = {}
    for m in methods:
        cfg = StudyConfig(method=m, degree=degree, levels=levels, case=case, tau=tau)
        reports[m] = run_study(cfg)
    lines = [f"degree k={degree}, case={case}"]
    for level in range(levels):
        for m in methods:
            row = reports[m].levels[level]
            lines.append(
                f"  lvl {level} {m:>4}: condensed={row['dofs']['condensed']:>7} "
                f"eq={row['norms']['eq']:.4e} eu={row['norms']['eu']:.4e} "
                f"eu_proj={row['norms']['eu_proj']:.4e}"
            )
    return reports, "\n".join(lines)

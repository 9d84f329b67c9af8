"""Global three-field systems (flux, potential, trace multiplier) for the
diffusion and reaction-diffusion model problem, discretized with RT, BDM, or
HDG local spaces, solved either as one saddle system or by element-wise
static condensation onto the edge multiplier.

Conventions
-----------
* Flux unknowns per element are coefficients in the contravariant reference
  basis (see :mod:`hybridfem.projections`), potentials in the pulled-back
  orthonormal scalar basis, multipliers in the Legendre basis of each global
  edge orthonormalized in physical arc length and oriented along the stored
  edge direction.
* The multiplier equation on interior edges enforces continuity of the
  normal flux (plus the stabilization term for HDG); on boundary edges the
  multiplier is the edgewise L2 projection of the Dirichlet datum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import polyspaces as ps
from . import projections as pj
from .errors import (
    InvalidProblemData,
    InvalidStabilization,
    NonPositiveDiffusion,
    SingularLocalSolver,
    SingularSystem,
    TooLarge,
    UnsupportedDegree,
)
from .mesh import Mesh, ReferenceTriangle

__all__ = [
    "SpaceDescriptor",
    "ProblemData",
    "StabilizationFunction",
    "DofLayout",
    "LocalBlocks",
    "FieldTriple",
    "assemble",
    "solve_saddle",
    "solve_hybridized",
    "condensed_system",
    "system_residual",
    "dirichlet_form",
    "solve_primal",
    "energy_identity_residual",
    "conservation_residuals",
    "flux_jump_norms",
]

_SUPPORTED = {"rt": range(0, 4), "bdm": range(1, 4), "hdg": range(0, 4)}


@dataclass(frozen=True)
class SpaceDescriptor:
    """Method tag plus degree; fixes all three local spaces."""

    method: str
    degree: int

    def __post_init__(self):
        if self.method not in _SUPPORTED:
            raise UnsupportedDegree(f"unknown method {self.method!r}")
        if self.degree not in _SUPPORTED[self.method]:
            raise UnsupportedDegree(
                f"{self.method} supports degrees {list(_SUPPORTED[self.method])}, got {self.degree}"
            )

    @property
    def flux_space(self) -> str:
        return "RT" if self.method == "rt" else "P"

    @property
    def scalar_degree(self) -> int:
        return self.degree - 1 if self.method == "bdm" else self.degree

    @property
    def flux_dim(self) -> int:
        return ps.vector_dim(self.flux_space, self.degree)

    @property
    def scalar_dim(self) -> int:
        return ps.scalar_dim(self.scalar_degree)

    @property
    def face_dim(self) -> int:
        return self.degree + 1

    @property
    def is_hdg(self) -> bool:
        return self.method == "hdg"


@dataclass
class ProblemData:
    """Coefficients and data of the model problem.

    ``kappa`` must be strictly positive; ``c`` is the optional nonnegative
    reaction coefficient; ``f`` the volume source; ``g`` the Dirichlet
    boundary value.  Assembly checks all of them, finite included, at its
    quadrature points.
    """

    kappa: callable
    f: callable
    g: callable
    c: callable | None = None


class StabilizationFunction:
    """Per-element, per-local-edge nonnegative constants (HDG only).

    Interior edges may carry two values, one from each owner element, which
    matches the elementwise product structure of the trace space.
    """

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != 3:
            raise InvalidStabilization("expected an (n_elements, 3) array")
        if not np.isfinite(values).all():
            raise InvalidStabilization("stabilization must be finite")
        if values.min() < -1e-14:
            raise InvalidStabilization("stabilization must be nonnegative")
        if (values.max(axis=1) <= 0.0).any():
            raise InvalidStabilization("stabilization vanishes on some element")
        self.values = np.maximum(values, 0.0)

    @classmethod
    def constant(cls, mesh: Mesh, value: float = 1.0):
        return cls(np.full((mesh.num_triangles, 3), float(value)))

    @classmethod
    def single_face(cls, mesh: Mesh, value: float = 1.0):
        """Positive on the longest local edge of each element only (ties go
        to the lowest local index), zero elsewhere."""
        vals = np.zeros((mesh.num_triangles, 3))
        longest = np.argmax(np.round(mesh.edge_lengths[mesh.tri_edges], 12), axis=1)
        vals[np.arange(mesh.num_triangles), longest] = value
        return cls(vals)


@dataclass
class DofLayout:
    """Block offsets of the three unknown groups."""

    space: SpaceDescriptor
    num_triangles: int
    num_edges: int
    interior_edges: np.ndarray
    boundary_edges: np.ndarray

    @property
    def n_flux(self):
        return self.num_triangles * self.space.flux_dim

    @property
    def n_scalar(self):
        return self.num_triangles * self.space.scalar_dim

    @property
    def n_face(self):
        return self.num_edges * self.space.face_dim

    @property
    def interior_dofs(self):
        """Multiplier dof ids on the interior edges, edge by edge."""
        nf = self.space.face_dim
        return (self.interior_edges[:, None] * nf + np.arange(nf)).ravel()


@dataclass
class LocalBlocks:
    """Element blocks of the three-field system, stacked over elements."""

    mesh: Mesh
    space: SpaceDescriptor
    data: ProblemData
    layout: DofLayout
    A: np.ndarray          # (nt, nq, nq) weighted flux mass
    Bdiv: np.ndarray       # (nw, nq) reference divergence coupling, shared
    C: np.ndarray          # (nt, 3, nf, nq) trace coupling per local edge
    D: np.ndarray          # (nt, nw, nw) reaction mass + HDG stabilization
    Swl: np.ndarray        # (nt, nw, 3, nf) stabilization coupling to traces
    tau: np.ndarray | None # (nt, 3) or None
    F: np.ndarray          # (nt, nw) load
    gdir: np.ndarray       # (ne, nf) Dirichlet projection, zero off the boundary
    lamidx: np.ndarray     # (nt, 3, nf) global face dof ids per local edge


def assemble(mesh: Mesh, space: SpaceDescriptor, data: ProblemData, tau=None,
             quad_exactness=None) -> LocalBlocks:
    """Build all element blocks of the three-field system.

    ``tau`` (a :class:`StabilizationFunction` or a plain (nt, 3) array) is
    required for HDG and rejected otherwise.  With the stabilization set to
    zero the HDG blocks coincide with the RT/BDM blocks of the same spaces.
    ``quad_exactness`` raises the data quadrature above the default 2k+4
    (used by identity diagnostics that need the data integrals resolved
    beyond the tolerance under test).
    """
    if space.is_hdg:
        if tau is None:
            raise InvalidStabilization("HDG assembly requires a stabilization function")
        if not isinstance(tau, StabilizationFunction):
            tau = StabilizationFunction(tau)
        if tau.values.shape[0] != mesh.num_triangles:
            raise InvalidStabilization("stabilization shape does not match the mesh")
        tau_vals = tau.values
    else:
        if tau is not None:
            raise InvalidStabilization(f"{space.method} does not take a stabilization")
        tau_vals = None

    k = space.degree
    nq, nw, nf = space.flux_dim, space.scalar_dim, space.face_dim
    vb = ps.vector_basis(space.flux_space, k)
    sb = ps.scalar_basis(space.scalar_degree)
    vol, erule = ps.quadrature_rules(k, max(quad_exactness or 0, 2 * k + 4))

    geo = mesh.geometry
    nt = mesh.num_triangles
    Bmat, detJ = geo.B, geo.detJ

    # Volume data at all quadrature points of all elements.
    flat = geo.forward(vol.points).reshape(-1, 2)
    kap = np.asarray(data.kappa(flat), dtype=float).reshape(nt, -1)
    if not np.all((kap > 0.0) & np.isfinite(kap)):
        raise NonPositiveDiffusion("kappa must be finite and strictly positive")
    fvals = np.asarray(data.f(flat), dtype=float).reshape(nt, -1)
    if not np.isfinite(fvals).all():
        raise InvalidProblemData("f must be finite")
    cvals = None
    if data.c is not None:
        cvals = np.asarray(data.c(flat), dtype=float).reshape(nt, -1)
        if not np.all((cvals >= 0.0) & np.isfinite(cvals)):
            raise InvalidProblemData("c must be finite and nonnegative")

    Vhat = vb.eval(vol.points)        # (ng, nq, 2)
    What = sb.eval(vol.points)        # (ng, nw)
    divhat = vb.div(vol.points)       # (ng, nq)

    T = np.einsum("edc,edb->ecb", Bmat, Bmat)  # B^T B, (nt, 2, 2)
    wk = vol.weights / (kap * detJ[:, None])
    A = ps.weighted_gram(wk[:, :, None, None] * T[:, None], Vhat)

    Bdiv = np.einsum("g,gq,gi->iq", vol.weights, divhat, What)

    F = np.einsum("eg,gi->ei", vol.weights[None, :] * fvals, What) * detJ[:, None]

    D = np.zeros((nt, nw, nw))
    if cvals is not None:
        D += ps.weighted_gram((vol.weights * cvals * detJ[:, None])[:, :, None, None], What[:, :, None])

    # Edge machinery: reference traces per local edge, multiplier values in
    # both orientations of the shared edge parameter.
    s = erule.points
    mu_both = np.stack([ps.legendre01(k, s), ps.legendre01(k, 1.0 - s)])  # (2, ng, nf)
    nt_ref = [vb.normal_trace(loc, s) for loc in range(3)]                # (ng, nq)
    w_ref = [sb.eval(ReferenceTriangle.edge_points(loc, s)) for loc in range(3)]
    Lhat = ReferenceTriangle.edge_lengths

    edge_len = mesh.edge_lengths[mesh.tri_edges]  # (nt, 3)

    C = np.zeros((nt, 3, nf, nq))
    Swl = np.zeros((nt, nw, 3, nf))
    for loc in range(3):
        mu_sel = mu_both[np.where(mesh.tri_edge_aligned[:, loc], 0, 1)]  # (nt, ng, nf)
        scale = Lhat[loc] / np.sqrt(edge_len[:, loc])
        C[:, loc] = scale[:, None, None] * np.einsum(
            "g,egi,gq->eiq", erule.weights, mu_sel, nt_ref[loc]
        )
        if space.is_hdg:
            tl = tau_vals[:, loc] * np.sqrt(edge_len[:, loc])
            Swl[:, :, loc, :] = tl[:, None, None] * np.einsum(
                "g,gj,egi->eji", erule.weights, w_ref[loc], mu_sel
            )
            tL = tau_vals[:, loc] * edge_len[:, loc]
            D += tL[:, None, None] * np.einsum(
                "g,gi,gj->ij", erule.weights, w_ref[loc], w_ref[loc]
            )[None]

    # Dirichlet data on boundary edges, in the global edge bases; g is
    # checked at the quadrature points before it is projected.
    def g_checked(x):
        vals = np.asarray(data.g(x), dtype=float)
        if not np.isfinite(vals).all():
            raise InvalidProblemData("g must be finite on the boundary")
        return vals

    gdir = np.zeros((mesh.num_edges, nf))
    ends = mesh.vertices[mesh.edges[mesh.boundary]]
    gdir[mesh.boundary] = pj.project_face(
        g_checked, k, ends[:, 0], ends[:, 1], npoints=len(erule.points)
    )

    layout = DofLayout(
        space=space,
        num_triangles=nt,
        num_edges=mesh.num_edges,
        interior_edges=np.flatnonzero(~mesh.boundary),
        boundary_edges=np.flatnonzero(mesh.boundary),
    )
    lamidx = (mesh.tri_edges[:, :, None] * nf + np.arange(nf)[None, None, :])

    return LocalBlocks(
        mesh=mesh,
        space=space,
        data=data,
        layout=layout,
        A=A,
        Bdiv=Bdiv,
        C=C,
        D=D,
        Swl=Swl,
        tau=tau_vals,
        F=F,
        gdir=gdir,
        lamidx=lamidx,
    )


@dataclass
class FieldTriple:
    """Solution coefficients of the three-field system, stacked over the
    elements and edges.

    Operators work on the stacked arrays over all elements at once;
    :meth:`normal_flux` evaluates the (numerical) normal flux on every local
    edge.  ``u_field(t)`` and ``lam_values(e, t)`` are per-element and
    per-edge views.
    """

    mesh: Mesh
    space: SpaceDescriptor
    q_coeffs: np.ndarray   # (nt, nq)
    u_coeffs: np.ndarray   # (nt, nw)
    lam: np.ndarray        # (ne, nf)
    tau: np.ndarray | None = None

    def u_field(self, t) -> pj.LocalScalarField:
        return pj.LocalScalarField(
            self.mesh.element_map(t), self.space.scalar_degree, self.u_coeffs[t]
        )

    def lam_values(self, e, tpar):
        """Multiplier values on global edge e at parameters along the stored
        edge direction."""
        return pj.face_values(self.lam[e], self.mesh.edge_lengths[e], np.asarray(tpar, dtype=float))

    def normal_flux(self, s):
        """Normal flux on every local edge at the local edge parameters s,
        (nt, 3, ns): q_h . n for RT/BDM, the numerical flux
        q_h . n + tau (u_h - uhat_h) for HDG."""
        s = np.asarray(s, dtype=float)
        space = self.space
        vals = pj._normal_traces(self.mesh.geometry, space.flux_space, space.degree, self.q_coeffs, s)
        if space.is_hdg:
            W = pj._edge_table(ps.scalar_basis(space.scalar_degree), s)
            uh = np.einsum("lgw,ew->elg", W, self.u_coeffs)
            vals = vals + self.tau[:, :, None] * (uh - _local_face_values(self.mesh, self.lam, s))
        return vals


def _local_face_values(mesh: Mesh, coeffs, s):
    """Edge fields (coefficients (ne, k+1) in the global edge bases) seen
    from every element on its local edges at the local edge parameters s,
    (nt, 3, ns)."""
    k = coeffs.shape[1] - 1
    L = mesh.edge_lengths[mesh.tri_edges]
    c = coeffs[mesh.tri_edges] / np.sqrt(L)[..., None]
    along = np.einsum("gi,eli->elg", ps.legendre01(k, s), c)
    against = np.einsum("gi,eli->elg", ps.legendre01(k, 1.0 - s), c)
    return np.where(mesh.tri_edge_aligned[..., None], along, against)


def _local_matrices(blocks: LocalBlocks, rows=slice(None)):
    """Stacked element matrices over (flux, potential, multiplier) dofs,

        [[A, -B^T,  C^T      ],
         [B,  D,   -S        ],
         [C,  S^T, -diag tau ]],

    of shape (nb, n, n) with n = nq + nw + 3 nf, for the slice ``rows`` of
    the elements.  The condensed, saddle and Dirichlet-form systems are all
    Schur complements of their sum; condensation streams over blocks."""
    C = blocks.C[rows]
    nb, _, nf, nq = C.shape
    nw = blocks.Bdiv.shape[0]
    m = nq + nw
    C = C.reshape(nb, 3 * nf, nq)
    S = blocks.Swl[rows].reshape(nb, nw, 3 * nf)
    L = np.zeros((nb, m + 3 * nf, m + 3 * nf))
    L[:, :nq, :nq] = blocks.A[rows]
    L[:, :nq, nq:m] = -blocks.Bdiv.T
    L[:, :nq, m:] = C.transpose(0, 2, 1)
    L[:, nq:m, :nq] = blocks.Bdiv
    L[:, nq:m, nq:m] = blocks.D[rows]
    L[:, nq:m, m:] = -S
    L[:, m:, :nq] = C
    L[:, m:, nq:m] = S.transpose(0, 2, 1)
    if blocks.tau is not None:
        idx = np.arange(m, m + 3 * nf)
        L[:, idx, idx] = -np.repeat(blocks.tau[rows], nf, axis=1)
    return L


def _scatter(local, dofs, N):
    """Sum the stacked element matrices ``local`` (nt, n, n) into an N x N
    CSR matrix, element t at rows and columns ``dofs[t]``."""
    nt, n = dofs.shape
    dofs = dofs.astype(np.int32 if N < 2**31 else np.int64)
    rows = np.broadcast_to(dofs[:, :, None], (nt, n, n)).ravel()
    cols = np.broadcast_to(dofs[:, None, :], (nt, n, n)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(N, N)).tocsr()


_BLOCK_BYTES = 4 << 20  # of element matrices that condensation builds at a time


def _eliminate(blocks: LocalBlocks, F):
    """Eliminate the leading m dofs of every element matrix, loaded by F
    (nt, m), streaming over element blocks of ``_BLOCK_BYTES`` of local
    matrices with one batched solve per block.

    Returns (R, S, g): R = L11^{-1} [-L12 | F] reconstructs the eliminated
    dofs from the others, S = L22 + L21 R[..., :-1] holds the element Schur
    complements and g = L21 L11^{-1} F the condensed load."""
    nt, m = F.shape
    nw, nq = blocks.Bdiv.shape
    n = nq + nw + 3 * blocks.lamidx.shape[2]
    nl = n - m
    step = max(1, _BLOCK_BYTES // (8 * n * n))
    R, S, g = np.empty((nt, m, nl + 1)), np.empty((nt, nl, nl)), np.empty((nt, nl))
    for start in range(0, nt, step):
        rows = slice(start, start + step)
        L = _local_matrices(blocks, rows)
        rhs = np.concatenate([-L[:, :m, m:], F[rows, :, None]], axis=2)
        try:
            R[rows] = np.linalg.solve(L[:, :m, :m], rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularLocalSolver("element solver is singular") from exc
        LR = L[:, m:, :m] @ R[rows]
        np.add(LR[:, :, :nl], L[:, m:, m:], out=S[rows])
        g[rows] = LR[:, :, -1]
    return R, S, g


def _factor_spd(K, what):
    """SuperLU factorization of a sparse SPD matrix in symmetric mode with
    the minimum-degree ordering of K^T + K, which for HDG k=3 on 8,192
    triangles makes less than half the fill of the default COLAMD."""
    try:
        return spla.splu(K, permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SingularSystem(f"{what} is singular") from exc


def condensed_system(blocks: LocalBlocks):
    """Statically condensed SPD system on the interior multiplier dofs, with K
    symmetrized as (K + K^T)/2: the element Schur complements are symmetric
    only up to round-off.  Flux and potential are eliminated one element
    block at a time, never holding all element matrices at once.

    Returns (K, rhs, lam_full, interior, X, Y): ``lam_full`` holds the
    Dirichlet values on boundary dofs and zeros elsewhere, ``interior`` the
    interior dof ids, and (X, Y) the local reconstruction operators
    [q; u]_K = X_K lam_K + Y_K.
    """
    layout = blocks.layout
    nt = layout.num_triangles
    nq = blocks.space.flux_dim
    m = nq + blocks.space.scalar_dim
    F = np.zeros((nt, m))
    F[:, nq:] = blocks.F
    R, S, g = _eliminate(blocks, F)

    lamidx = blocks.lamidx.reshape(nt, -1)
    gvec = np.bincount(lamidx.ravel(), weights=g.ravel(), minlength=layout.n_face)
    interior = layout.interior_dofs
    H_int = _scatter(S, lamidx, layout.n_face)[interior]
    lam_full = blocks.gdir.ravel().copy()
    rhs = H_int @ lam_full + gvec[interior]
    K = -H_int[:, interior]
    del S, g, H_int  # before the symmetrization copies K
    return ((K + K.T) * 0.5).tocsc(), rhs, lam_full, interior, R[:, :, :-1], R[:, :, -1]


def solve_hybridized(blocks: LocalBlocks) -> FieldTriple:
    """Solve by static condensation onto the interior multiplier dofs, K
    factored by SuperLU in symmetric mode with the minimum-degree ordering of
    K^T + K, and element-by-element reconstruction of flux and potential."""
    K, rhs, lam_full, interior, X, Y = condensed_system(blocks)
    if len(interior):
        lam_full[interior] = _factor_spd(K, "condensed system").solve(rhs)
    nt = blocks.layout.num_triangles
    nf = blocks.space.face_dim
    lam_loc = lam_full[blocks.lamidx.reshape(nt, 3 * nf)]
    qu = np.einsum("eij,ej->ei", X, lam_loc) + Y
    if not (np.isfinite(qu).all() and np.isfinite(lam_full).all()):
        raise SingularSystem("condensed system produced non-finite values")
    nq = blocks.space.flux_dim
    lam = lam_full.reshape(blocks.layout.num_edges, nf)
    return FieldTriple(
        mesh=blocks.mesh,
        space=blocks.space,
        q_coeffs=qu[:, :nq],
        u_coeffs=qu[:, nq:],
        lam=lam,
        tau=blocks.tau,
    )


def _saddle_matrix(blocks: LocalBlocks):
    """Global sparse system over (Q, U, interior multiplier dofs) with the
    boundary multipliers moved to the right-hand side: the element matrices
    summed over all dofs, then applied to the Dirichlet values on the
    boundary multiplier dofs, whose rows and columns are dropped.

    Returns (A, rhs, interior)."""
    layout = blocks.layout
    nt = layout.num_triangles
    nQ, nU = layout.n_flux, layout.n_flux + layout.n_scalar
    dofs = np.hstack(
        [
            np.arange(layout.n_flux).reshape(nt, -1),
            layout.n_flux + np.arange(layout.n_scalar).reshape(nt, -1),
            nU + blocks.lamidx.reshape(nt, -1),
        ]
    )
    known = np.concatenate([np.zeros(nU), blocks.gdir.ravel()])
    S = _scatter(_local_matrices(blocks), dofs, len(known))
    # Stored zeros (the empty blocks of RT/BDM, off-diagonal multiplier
    # entries) steer the LU ordering and would double its fill.
    S.eliminate_zeros()
    interior = layout.interior_dofs
    keep = np.concatenate([np.arange(nU), nU + interior])
    rows = S[keep]
    rhs = -(rows @ known)
    rhs[nQ:nU] += blocks.F.ravel()
    return rows[:, keep].tocsc(), rhs, interior


def solve_saddle(blocks: LocalBlocks) -> FieldTriple:
    """Direct solve of the full three-field system (cross-check path)."""
    A, rhs, interior = _saddle_matrix(blocks)
    try:
        sol = spla.spsolve(A, rhs)
    except RuntimeError as exc:
        raise SingularSystem("saddle system is singular") from exc
    if not np.all(np.isfinite(sol)):
        raise SingularSystem("saddle system produced non-finite values")
    layout = blocks.layout
    nq, nw, nf = blocks.space.flux_dim, blocks.space.scalar_dim, blocks.space.face_dim
    nQ, nW = layout.n_flux, layout.n_scalar
    lam_full = blocks.gdir.ravel().copy()
    lam_full[interior] = sol[nQ + nW :]
    return FieldTriple(
        mesh=blocks.mesh,
        space=blocks.space,
        q_coeffs=sol[:nQ].reshape(-1, nq),
        u_coeffs=sol[nQ : nQ + nW].reshape(-1, nw),
        lam=lam_full.reshape(-1, nf),
        tau=blocks.tau,
    )


def system_residual(blocks: LocalBlocks, triple: FieldTriple) -> float:
    """Max-norm residual of all equation groups, relative to the load."""
    A, rhs, interior = _saddle_matrix(blocks)
    sol = np.concatenate(
        [triple.q_coeffs.ravel(), triple.u_coeffs.ravel(), triple.lam.ravel()[interior]]
    )
    res = A @ sol - rhs
    scale = max(float(np.abs(rhs).max()), float(np.abs(blocks.gdir).max()), 1e-30)
    # Boundary group: multiplier equals the Dirichlet projection by
    # construction in both solvers; include it for completeness.
    bnd = blocks.layout.boundary_edges
    bres = float(np.abs(triple.lam[bnd] - blocks.gdir[bnd]).max(initial=0.0))
    return max(float(np.abs(res).max()), bres) / scale


def dirichlet_form(mesh: Mesh, space: SpaceDescriptor, data: ProblemData, tau=None):
    """Dense matrix of the discrete Dirichlet form on the potential space.

    The flux is eliminated element by element, and the summed (potential,
    multiplier) element complements are reduced onto the potential through
    the interior multiplier block, factored as SPD like the condensed
    system: column j applies the divergence (plus stabilization, for HDG)
    coupling to the flux and multiplier lifted from the j-th potential basis
    function with zero Dirichlet data.  Reaction terms are not part of the
    form.  Limited to 2000 potential dofs.
    """
    return _dirichlet_pieces(mesh, space, data, tau)[0]


def _dirichlet_pieces(mesh: Mesh, space: SpaceDescriptor, data: ProblemData, tau):
    """Schur complement of the diffusion-only three-field system onto the
    potential, within the 2000-dof cap of its dense matrix.

    ``_eliminate`` removes the flux of each element; the element complements
    over (potential, multiplier) are summed, and one SPD factorization of
    the negated interior-multiplier block lifts the potential basis
    functions and the Dirichlet data in blocks of columns.  Returns (D
    matrix, Dirichlet load l_g, load (f, .))."""
    n = mesh.num_triangles * space.scalar_dim
    if n > 2000:
        raise TooLarge(f"the Dirichlet form is limited to 2000 potential dofs, got {n}")
    blocks = assemble(mesh, space, ProblemData(kappa=data.kappa, f=data.f, g=data.g), tau=tau)
    layout = blocks.layout
    nt, nW = layout.num_triangles, layout.n_scalar
    _, S, _ = _eliminate(blocks, np.zeros((nt, space.flux_dim)))
    dofs = np.hstack([np.arange(nW).reshape(nt, -1), nW + blocks.lamidx.reshape(nt, -1)])
    T = _scatter(S, dofs, nW + layout.n_face)
    # Columns: the potential basis functions, then the Dirichlet data.
    W = sp.block_diag([sp.identity(nW), blocks.gdir.reshape(-1, 1)], format="csr")
    inner = nW + layout.interior_dofs
    T_pot, T_int = T[:nW], T[inner]
    lu = _factor_spd(-T_int[:, inner].tocsc(), "interior multiplier block")
    coupling, lift = T_pot[:, inner], (T_int @ W).tocsc()
    pieces = (T_pot @ W).toarray()
    # 64 columns at a time: the whole dense lift is 26 MB at 512 BDM k=2
    # triangles, and SuperLU solves it faster in column blocks.
    for j in range(0, lift.shape[1], 64):
        pieces[:, j : j + 64] += coupling @ lu.solve(lift[:, j : j + 64].toarray())
    return pieces[:, :-1], pieces[:, -1], blocks.F.ravel()


def solve_primal(mesh: Mesh, space: SpaceDescriptor, data: ProblemData, tau=None):
    """Solve the potential-only (primal) form D_h u = (f, .) - l_g and return
    the potential coefficients (diagnostic cross-check of the Dirichlet form)."""
    D, lg, F = _dirichlet_pieces(mesh, space, data, tau)
    return np.linalg.solve(D, F - lg).reshape(-1, space.scalar_dim)


def conservation_residuals(triple: FieldTriple, data: ProblemData, include_reaction=False,
                           quad_exactness=None):
    """Per-element defect of (f, 1)_K = <flux . n, 1>_dK.

    For HDG the flux is the numerical flux.  With ``include_reaction`` the
    left side becomes (f - c u_h, 1)_K, the balance that holds for the
    reaction variant.  ``quad_exactness`` must match the assembly quadrature
    of the solve; the balance is exact with respect to that rule."""
    mesh, space = triple.mesh, triple.space
    k = space.degree
    vol, erule = ps.quadrature_rules(k, max(quad_exactness or 0, 2 * k + 4))
    xq = mesh.geometry.forward(vol.points)
    fv = pj._at(data.f, xq)
    if include_reaction and data.c is not None:
        uh = triple.u_coeffs @ ps.scalar_basis(space.scalar_degree).eval(vol.points).T
        fv = fv - pj._at(data.c, xq) * uh
    lhs = mesh.geometry.detJ * (fv @ vol.weights)
    flux = triple.normal_flux(erule.points) @ erule.weights
    return lhs - np.sum(mesh.geometry.edge_lengths * flux, axis=1)


def flux_jump_norms(triple: FieldTriple):
    """L2 norms of the normal-flux jump over the interior edges."""
    mesh = triple.mesh
    erule = ps.edge_rule(triple.space.degree + 3)
    # Both owners' fluxes at the same points, in the stored edge direction.
    s = erule.points
    flux = np.where(
        mesh.tri_edge_aligned[..., None], triple.normal_flux(s), triple.normal_flux(1.0 - s)
    )
    jump = np.zeros((mesh.num_edges, len(s)))
    np.add.at(jump, mesh.tri_edges.ravel(), flux.reshape(-1, len(s)))
    inner = ~mesh.boundary
    return np.sqrt(mesh.edge_lengths[inner] * (jump[inner] ** 2 @ erule.weights))


def _project_triple(triple: FieldTriple, q_exact, u_exact, quad_exactness):
    """Method-specific projections (Pi q, Pi u, P u) of an exact solution."""
    mesh, space = triple.mesh, triple.space
    k = space.degree
    if space.is_hdg:
        qc, uc = pj._hdg_coeffs(
            q_exact, u_exact, k, mesh.geometry, triple.tau, exactness=quad_exactness
        )
    else:
        qc = pj._hdiv_coeffs(space.method, k, mesh.geometry, q_exact, quad_exactness)
        uc = pj._scalar_coeffs(u_exact, space.scalar_degree, mesh.geometry)
    npoints = len(ps.quadrature_rules(k, quad_exactness)[1].points)
    ends = mesh.vertices[mesh.edges]
    lamc = pj.project_face(u_exact, k, ends[:, 0], ends[:, 1], npoints=npoints)
    return qc, uc, lamc


def energy_identity_residual(triple: FieldTriple, q_exact, u_exact, data: ProblemData, quad_exactness=None) -> float:
    """Absolute defect of the energy identity, computed with overkill
    quadrature so that only solver and projection round-off remains.

    For RT/BDM the identity balances the weighted norm of the projected flux
    error against its pairing with the projection defect; HDG adds the
    stabilization seminorm of the potential/trace mismatch.
    """
    space = triple.space
    k = space.degree
    if quad_exactness is None:
        quad_exactness = max(2 * k + 10, 16)
    mesh = triple.mesh
    geo = mesh.geometry
    qc, uc, lamc = _project_triple(triple, q_exact, u_exact, quad_exactness)
    eq = qc - triple.q_coeffs
    eu = uc - triple.u_coeffs
    elam = lamc - triple.lam

    vol, erule = ps.quadrature_rules(k, quad_exactness)
    xq = geo.forward(vol.points)
    wk = geo.detJ[:, None] * vol.weights / pj._at(data.kappa, xq)
    vals = pj._vector_values(geo, space.flux_space, k, eq, vol.points)
    diff = pj._vector_values(geo, space.flux_space, k, qc, vol.points) - pj._at(q_exact, xq)
    lhs = np.sum(wk * np.einsum("egc,egc->eg", vals, vals))
    rhs = np.sum(wk * np.einsum("egc,egc->eg", diff, vals))
    if space.is_hdg:
        s = erule.points
        eu_edges = np.einsum("lgw,ew->elg", pj._edge_table(ps.scalar_basis(k), s), eu)
        gap = eu_edges - _local_face_values(mesh, elam, s)
        lhs += np.sum(triple.tau * geo.edge_lengths * (gap**2 @ erule.weights))
    return abs(lhs - rhs)

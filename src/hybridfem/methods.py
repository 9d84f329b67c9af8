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
* Edge orientation is a parity sign: P_i(1 - s) = (-1)^i P_i(s), so a local
  edge that runs against its global edge sees multiplier dof i with the
  sign (-1)^i.  Every edge block is a reference edge table, computed once
  per space and degree, times per-element scalars and these signs.
* The multiplier equation on interior edges enforces continuity of the
  normal flux (plus the stabilization term for HDG); on boundary edges the
  multiplier is the edgewise L2 projection of the Dirichlet datum.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache

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
)
from .mesh import Mesh, ReferenceTriangle
from .polyspaces import SpaceDescriptor

__all__ = [
    "SpaceDescriptor",
    "ProblemData",
    "StabilizationFunction",
    "LocalBlocks",
    "FieldTriple",
    "SolveInfo",
    "assemble",
    "solve_saddle",
    "solve_hybridized",
    "condensed_system",
    "system_residual",
    "solve_primal",
    "energy_identity_residual",
    "conservation_residuals",
    "flux_jump_norms",
]


@dataclass
class ProblemData:
    """Coefficients and data of the model problem.

    ``kappa`` must be strictly positive; ``c`` is the optional nonnegative
    reaction coefficient; ``f`` the volume source; ``g`` the Dirichlet
    boundary value.  Each is a callable of (N, 2) point arrays that returns
    N values; assembly checks all of them, finite included, at its
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
        self.values = pj._checked_tau(values, (None, 3))

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


def _edge_dofs(edges, nf):
    """Multiplier dof ids (..., nf) of the edge ids ``edges`` (...)."""
    return edges[..., None] * nf + np.arange(nf)


_BLOCK_BYTES = 1 << 20  # per block of the bytes per element that each element pass declares


def _blocks(nt, bytes_per_element):
    """Consecutive slices of the nt elements (or edges),
    each of ``_BLOCK_BYTES`` at ``bytes_per_element`` (one element at least).
    Every element pass runs over them: the reduction declares its element
    matrices, the quadrature passes :func:`_pass_bytes`.  A pass that sums
    over elements sums per block and then the block sums in element
    order."""
    step = max(1, _BLOCK_BYTES // bytes_per_element)
    for start in range(0, nt, step):
        yield slice(start, start + step)


def _pass_bytes(vol, erule):
    """Bytes per element that a pass on the rules ``vol`` and ``erule``
    (either may be None) declares to :func:`_blocks`: twelve doubles for
    each of its quadrature values, two per volume point and one per point of
    each edge.  The passes hold four to seven doubles per value at once, so
    the arrays of a block stay within about half the budget."""
    values = (2 * len(vol.weights) if vol else 0) + (3 * len(erule.weights) if erule else 0)
    return 8 * 12 * values


@dataclass
class LocalBlocks:
    """Element data of the three-field system, stacked over elements: the
    flux and reaction masses, the load and the Dirichlet data.  The edge
    blocks exist only in :func:`_local_matrices`, per streamed block.

    The flux mass is symmetric, so ``A`` holds only its upper triangle: row
    t packs the nq (nq + 1) / 2 entries (i, j), i <= j, of element t row by
    row, in the order of ``np.triu_indices(nq)``.  :func:`_flux_mass`
    unpacks it."""

    mesh: Mesh
    space: SpaceDescriptor
    data: ProblemData
    A: np.ndarray          # (nt, nq (nq + 1) / 2) weighted flux mass, packed
    Bdiv: np.ndarray       # (nw, nq) reference divergence coupling, shared
    Mc: np.ndarray | None  # (nt, nw, nw) reaction mass, or None without reaction
    tau: np.ndarray | None # (nt, 3) or None
    quad_exactness: int    # exactness of the data rule the load was integrated with
    F: np.ndarray          # (nt, nw) load
    gdir: np.ndarray       # (ne, nf) Dirichlet projection, zero off the boundary

    @property
    def interior_dofs(self):
        """Multiplier dof ids on the interior edges, edge by edge."""
        return _edge_dofs(self.mesh.interior_edges, self.space.face_dim).ravel()


@lru_cache(maxsize=None)
def _packed_positions(nq):
    """Position (nq, nq) of every entry of a flux mass in its packed row."""
    i, j = np.triu_indices(nq)
    at = np.empty((nq, nq), dtype=int)
    at[i, j] = at[j, i] = np.arange(len(i))
    at.setflags(write=False)  # shared by every caller
    return at


def _flux_mass(blocks: LocalBlocks, rows=slice(None)):
    """The flux masses (nb, nq, nq) of the elements ``rows``, unpacked from
    the upper triangles that ``blocks.A`` stores."""
    return blocks.A[rows][:, _packed_positions(blocks.space.flux_dim)]


def _packed_gram_table(V):
    """Reference table (3 ng, nq (nq + 1) / 2) of the packed flux mass from
    the basis values V (ng, nq, 2): at each point the products V_i^c V_j^d
    for the metric entries (0, 0), (1, 1) and (0, 1), the last with (1, 0)
    merged in, since the metric B^T B is symmetric."""
    i, j = np.triu_indices(V.shape[1])
    Vi, Vj = V[:, i], V[:, j]
    products = [Vi[..., 0] * Vj[..., 0], Vi[..., 1] * Vj[..., 1],
                Vi[..., 0] * Vj[..., 1] + Vi[..., 1] * Vj[..., 0]]
    return np.stack(products, axis=1).reshape(-1, len(i))


def assemble(mesh: Mesh, space: SpaceDescriptor, data: ProblemData, tau=None,
             quad_exactness=None) -> LocalBlocks:
    """Build the element data of the three-field system (:class:`LocalBlocks`).

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
        values = tau.values if isinstance(tau, StabilizationFunction) else tau
        tau_vals = pj._checked_tau(values, (mesh.num_triangles, 3))
    else:
        if tau is not None:
            raise InvalidStabilization(f"{space.method} does not take a stabilization")
        tau_vals = None

    k = space.degree
    vb = ps.vector_basis(space.flux_space, k)
    sb = ps.scalar_basis(space.scalar_degree)
    quad_exactness = max(quad_exactness or 0, 2 * k + 4)
    vol, erule = ps.quadrature_rules(k, quad_exactness)

    geo = mesh.geometry
    Bmat, detJ = geo.B, geo.detJ

    # Volume data at all quadrature points of all elements.
    xq = geo.forward(vol.points)
    kap = pj._at(data.kappa, xq, finite=False)  # non-finite kappa is NonPositiveDiffusion
    if not np.all((kap > 0.0) & np.isfinite(kap)):
        raise NonPositiveDiffusion("kappa must be finite and strictly positive")
    fvals = pj._at(data.f, xq)
    cvals = None
    if data.c is not None:
        cvals = pj._at(data.c, xq)
        if not np.all(cvals >= 0.0):
            raise InvalidProblemData("c must be nonnegative")

    Vhat = vb.eval(vol.points)        # (ng, nq, 2)
    What = sb.eval(vol.points)        # (ng, nw)
    divhat = vb.div(vol.points)       # (ng, nq)

    T = np.einsum("edc,edb->ecb", Bmat, Bmat)[:, [0, 1, 0], [0, 1, 1]]  # B^T B entries, (nt, 3)
    wk = vol.weights / (kap * detJ[:, None])
    A = (wk[:, :, None] * T[:, None]).reshape(len(T), -1) @ _packed_gram_table(Vhat)

    Bdiv = np.einsum("g,gq,gi->iq", vol.weights, divhat, What)

    F = np.einsum("eg,gi->ei", vol.weights[None, :] * fvals, What) * detJ[:, None]

    Mc = None
    if cvals is not None:
        Mc = ps.weighted_gram((vol.weights * cvals * detJ[:, None])[:, :, None, None],
                              ps.gram_table(What[:, :, None]))

    # Dirichlet data on boundary edges, in the global edge bases;
    # project_face rejects g that is not finite at its quadrature points.
    gdir = np.zeros((mesh.num_edges, space.face_dim))
    ends = mesh.vertices[mesh.edges[mesh.boundary]]
    gdir[mesh.boundary] = pj.project_face(
        data.g, k, ends[:, 0], ends[:, 1], npoints=len(erule.points)
    )

    return LocalBlocks(
        mesh=mesh,
        space=space,
        data=data,
        A=A,
        Bdiv=Bdiv,
        Mc=Mc,
        tau=tau_vals,
        quad_exactness=quad_exactness,
        F=F,
        gdir=gdir,
    )


@dataclass
class FieldTriple:
    """Solution coefficients of the three-field system, stacked over the
    elements and edges.

    Operators work on the stacked arrays over a slice of the elements;
    :meth:`normal_flux` evaluates the (numerical) normal flux on their local
    edges.  ``u_field(t)`` is the per-element view of the potential.
    """

    mesh: Mesh
    space: SpaceDescriptor
    q_coeffs: np.ndarray   # (nt, nq)
    u_coeffs: np.ndarray   # (nt, nw)
    lam: np.ndarray        # (ne, nf)
    tau: np.ndarray | None = None
    quad_exactness: int | None = None    # the assembly's data rule, set by the solvers
    solve_info: SolveInfo | None = None  # set by solve_hybridized

    def u_field(self, t) -> pj.LocalScalarField:
        return pj.LocalScalarField(
            self.mesh.element_map(t), self.space.scalar_degree, self.u_coeffs[t]
        )

    def normal_flux(self, s):
        """Normal flux on the local edges of every element at the local edge
        parameters s, (nt, 3, ns): q_h . n for RT/BDM, the numerical flux
        q_h . n + tau (u_h - uhat_h) for HDG."""
        return self._normal_flux(_TraceTables(self.space, np.asarray(s, dtype=float)), slice(None))

    def _normal_flux(self, traces: _TraceTables, rows):
        """:meth:`normal_flux` of the elements ``rows`` at the edge
        parameters of ``traces``."""
        vals = pj._normal_traces(self.mesh.geometry.rows(rows), traces.N, self.q_coeffs[rows])
        if self.space.is_hdg:
            gap = _trace_gap(self.mesh, self.u_coeffs[rows], self.lam, traces, rows)
            vals = vals + self.tau[rows, :, None] * gap
        return vals


class _TraceTables:
    """Reference tables of the traces of a space's fields at the edge
    parameters s, tabulated once per pass: the normal traces N (3, ns, nq)
    of the flux basis and the scalar basis W (3, ns, nw) on the three
    reference edges, and the Legendre basis P (ns, nf)."""

    def __init__(self, space: SpaceDescriptor, s):
        self.N = pj._normal_table(ps.vector_basis(space.flux_space, space.degree), s)
        self.W = pj._edge_table(ps.scalar_basis(space.scalar_degree), s)
        self.P = ps.legendre01(space.degree, s)


def _edge_signs(mesh: Mesh, nf: int, rows=slice(None)):
    """Orientation signs (nb, 3, nf) of the nf Legendre face dofs seen from
    every local edge of the elements ``rows``.  The basis has parity,
    P_i(1 - s) = (-1)^i P_i(s), so a local edge that runs against its
    global edge flips the odd dofs."""
    return np.where(mesh.tri_edge_aligned[rows, :, None], 1.0, (-1.0) ** np.arange(nf))


def _local_face_values(mesh: Mesh, coeffs, P, rows):
    """Edge fields (coefficients (ne, nf) in the global edge bases) seen
    from the elements ``rows`` on their local edges, from the Legendre table
    P (ns, nf) at the local edge parameters, (nb, 3, ns)."""
    edges = mesh.tri_edges[rows]
    L = mesh.edge_lengths[edges]
    c = _edge_signs(mesh, P.shape[1], rows) * coeffs[edges] / np.sqrt(L)[..., None]
    return c @ P.T


def _trace_gap(mesh: Mesh, u, lam, traces: _TraceTables, rows):
    """HDG trace gap u - lam on the local edges of the elements ``rows`` at
    the edge parameters of ``traces``, (nb, 3, ns): u (nb, nw) holds their
    potential coefficients, lam (ne, nf) the edge coefficients."""
    return np.einsum("lgw,ew->elg", traces.W, u) - _local_face_values(mesh, lam, traces.P, rows)


def _local_matrices(blocks: LocalBlocks, rows=slice(None)):
    """Stacked element matrices over (flux, potential, multiplier) dofs,

        [[A, -B^T,  C^T      ],
         [B,  D,   -S        ],
         [C,  S^T, -diag tau ]],

    of shape (nb, n, n) with n = nq + nw + 3 nf, for the slice ``rows`` of
    the elements.  D is the reaction mass plus the stabilization; C, S and
    the stabilization are the reference edge tables scaled by the edge
    lengths (and tau) and signed by the edge orientations of each element.
    The condensed, saddle and Dirichlet-form systems are all Schur
    complements of their sum, which :func:`_reduce` builds one block of
    elements at a time."""
    space, mesh = blocks.space, blocks.mesh
    (nw, nq), nf = blocks.Bdiv.shape, space.face_dim
    Cref, Sref, Tref = pj._edge_tables(space)
    sign, edge_len = _edge_signs(mesh, nf, rows), mesh.edge_lengths[mesh.tri_edges[rows]]
    nb, m = len(edge_len), nq + nw
    C = (ReferenceTriangle.edge_lengths / np.sqrt(edge_len))[..., None, None] * sign[..., None] * Cref
    C = C.reshape(nb, 3 * nf, nq)
    L = np.zeros((nb, m + 3 * nf, m + 3 * nf))
    L[:, :nq, :nq] = _flux_mass(blocks, rows)
    L[:, :nq, nq:m] = -blocks.Bdiv.T
    L[:, :nq, m:] = C.transpose(0, 2, 1)
    L[:, nq:m, :nq] = blocks.Bdiv
    L[:, m:, :nq] = C
    if blocks.Mc is not None:
        L[:, nq:m, nq:m] = blocks.Mc[rows]
    if blocks.tau is not None:
        tau = blocks.tau[rows]
        S = (tau * np.sqrt(edge_len))[:, None, :, None] * sign[:, None] * Sref.transpose(1, 0, 2)
        S = S.reshape(nb, nw, 3 * nf)
        L[:, nq:m, nq:m] += ((tau * edge_len) @ Tref.reshape(3, -1)).reshape(nb, nw, nw)
        L[:, nq:m, m:] = -S
        L[:, m:, nq:m] = S.transpose(0, 2, 1)
        idx = np.arange(m, m + 3 * nf)
        L[:, idx, idx] = -np.repeat(tau, nf, axis=1)
    return L


class _Pattern:
    """Sparsity pattern of a system that :func:`_reduce` leaves, from the
    element-edge incidence: each element couples the ko = kq + kw flux and
    potential dofs it keeps with the multipliers of its interior edges.
    Rows and columns number the kept flux dofs element by element, then the
    kept potential dofs, then the interior multipliers edge by edge, in the
    order of ``LocalBlocks.interior_dofs``.  The pattern is symmetric, so
    (indptr, indices) are its CSR and its CSC arrays at once; a matrix on it
    is symmetric when its element terms are.  Boundary multipliers have no
    row or column: ``dofs`` (nt, nl), the row of every kept local dof (own
    dofs first, then the 3 nf multipliers), holds n for them."""

    def __init__(self, mesh: Mesh, kq, kw, nf):
        nt, ni = mesh.num_triangles, len(mesh.interior_edges)
        ko, f = kq + kw, np.arange(nf)
        self.n = n = nt * ko + ni * nf
        edges, el = mesh.tri_edges, np.arange(nt)[:, None]
        inner = ~mesh.boundary[edges]
        pos = np.full(mesh.num_edges, ni)
        pos[mesh.interior_edges] = np.arange(ni)

        # own rows hold the element's kept dofs; the rows of an interior
        # edge those of both its elements, its own multipliers once
        n_inner = inner.sum(axis=1)
        own_len = ko + nf * n_inner
        edge_len = 2 * ko + nf * (n_inner[mesh.edge_tris[mesh.interior_edges]].sum(axis=1) - 1)
        lengths = np.concatenate([np.repeat(own_len, kq), np.repeat(own_len, kw), np.repeat(edge_len, nf)])
        self.nnz = int(lengths.sum())
        index = np.int32 if 2 * (self.nnz + n + 1) < 2**31 else np.int64  # two drop markers fit
        self.indptr = np.zeros(n + 1, dtype=index)
        np.cumsum(lengths, out=self.indptr[1:])

        own = np.hstack([el * kq + np.arange(kq), nt * kq + el * kw + np.arange(kw)])
        mult = np.repeat(inner, nf, axis=1)
        epos = pos[edges]
        mult_dofs = np.where(mult, (nt * ko + epos[..., None] * nf + f).reshape(nt, -1), n)
        self.dofs = np.hstack([own, mult_dofs]).astype(index)

        # Slot of local entry (a, b) of element t: the start of row a plus the
        # offset of column b in it, which depends on the row's group (the own
        # rows, or the rows of local edge l) and on b.  Columns are sorted:
        # flux before potential dofs, the lower element first, and the
        # multipliers by rank among the row's interior edges.  Dropped rows
        # and columns carry -(nnz + 1), so their sums are negative.
        drop = -(self.nnz + 1)
        self.start = np.where(self.dofs < n, self.indptr[np.minimum(self.dofs, n - 1)], drop).astype(index)

        def count(less):  # of the true entries along the last axis, of length 3
            less = less.view(np.int8)
            return (less[..., 0] + less[..., 1] + less[..., 2]).astype(index)

        rank = count(epos[:, None, :] < epos[:, :, None])  # among the element's interior edges
        owners = mesh.edge_tris[edges]
        other = np.where(inner, owners[..., 0] + owners[..., 1] - el, el)
        side = (other < el)[..., None]  # the neighbour across comes first
        across = edges[other]  # the edges of the neighbour across each local edge
        across = np.where(across == edges[:, :, None], ni, pos[across])
        union_rank = rank[:, None, :] + count(across[:, :, None, :] < epos[:, None, :, None])  # among both's
        off = np.empty((nt, 4, ko + 3 * nf), dtype=index)
        off[:, 0, :ko] = np.arange(ko)
        off[:, 0, ko:] = (ko + nf * rank[..., None] + f).reshape(nt, -1)
        off[:, 1:, :ko] = np.concatenate([side * kq + np.arange(kq), 2 * kq + side * kw + np.arange(kw)], axis=2)
        off[:, 1:, ko:] = (2 * ko + nf * union_rank[..., None] + f).reshape(nt, 3, -1)
        off[:, :, ko:][~np.broadcast_to(mult[:, None], (nt, 4, 3 * nf))] = drop
        self.offset = off
        self.group = np.concatenate([np.zeros(ko, int), 1 + np.repeat(np.arange(3), nf)])

        indices = np.empty(self.nnz + 1, dtype=index)
        for rows in _blocks(nt, 16 * self.dofs.shape[1] ** 2):
            indices[self.slots(rows)] = self.dofs[rows, None, :]
        self.indices = indices[:-1]

    def slots(self, rows):
        """Positions (nb, nl, nl) in the pattern's CSR arrays of the entries
        of the kept element matrices of ``rows``; -1 where a boundary
        multiplier drops the entry."""
        slots = self.start[rows][:, :, None] + self.offset[rows][:, self.group]
        return np.maximum(slots, -1, out=slots)


def _sum_complements(blocks: LocalBlocks, m, symmetrize=False):
    """The work of :func:`_reduce`: returns (A, rhs, R, defect), the summed
    CSC system A with its exact zeros still stored.  With ``symmetrize``
    (the condensed system) each element complement S is added as -(S +
    S^T)/2, so that the sum is exactly symmetric, and ``defect`` is the
    largest ||S - S^T||_F / ||S||_F (else 0); rhs and R come from S."""
    nt, tri_edges = blocks.mesh.num_triangles, blocks.mesh.tri_edges
    (nw, nq), nf = blocks.Bdiv.shape, blocks.space.face_dim
    n = nq + nw + 3 * nf
    nl = n - m
    pattern = _Pattern(blocks.mesh, max(nq - m, 0), nq + nw - max(m, nq), nf)
    data, rhs = np.zeros(pattern.nnz + 1), np.zeros(pattern.n + 1)
    R = np.empty((nt, m, nl + 1))
    defect = 0.0
    for rows in _blocks(nt, 8 * n * n):
        L = _local_matrices(blocks, rows)
        nb = len(L)
        load = np.zeros((nb, n))
        load[:, nq : nq + nw] = blocks.F[rows]
        rhs_m = np.concatenate([-L[:, :m, m:], load[:, :m, None]], axis=2)
        try:
            R[rows] = np.linalg.solve(L[:, :m, :m], rhs_m)
        except np.linalg.LinAlgError as exc:
            raise SingularLocalSolver("element solver is singular") from exc
        LR = L[:, m:, :m] @ R[rows]
        S = np.add(LR[:, :, :nl], L[:, m:, m:])
        # the boundary multipliers are the Dirichlet values (gdir is zero elsewhere)
        known = blocks.gdir[tri_edges[rows]].reshape(nb, -1)
        local = load[:, m:] - LR[:, :, -1] - (S[:, :, nl - 3 * nf :] @ known[..., None])[..., 0]
        if symmetrize:
            St = S.transpose(0, 2, 1)
            defect = max(defect, float((np.linalg.norm(S - St, axis=(1, 2)) / np.linalg.norm(S, axis=(1, 2))).max()))
            S = (S + St) * -0.5
        # CSC slots: entry (a, b) of an element matrix sits at the CSR slot of (b, a)
        np.add.at(data, pattern.slots(rows).transpose(0, 2, 1).ravel(), S.ravel())
        np.add.at(rhs, pattern.dofs[rows].ravel(), local.ravel())
    A = sp.csc_matrix((data[:-1], pattern.indices, pattern.indptr), shape=(pattern.n, pattern.n))
    return A, rhs[:-1], R, defect


def _reduce(blocks: LocalBlocks, m):
    """Eliminate the leading m dofs (none, the flux, or flux and potential)
    of every element matrix under the load [0 | F | 0], and sum what is left
    into one global system.

    Streams over the element blocks of :func:`_blocks`, counting the local
    matrices, with one batched solve per block.  The element dofs that are
    left are numbered group by group (flux, then potential, element by
    element in each) and the interior multipliers follow.  Each block's
    Schur complements are added, in element order, straight into the data
    of the CSC pattern of :class:`_Pattern`, and the boundary multipliers,
    fixed to the Dirichlet values ``gdir``, move to the right-hand side
    element by element; no (nt, nl, nl) stack and no COO copy is formed.

    Returns (A, rhs, R): the CSC system A x = rhs over the element dofs left
    and the interior multipliers, and R = L11^{-1} [-L12 | load] (nt, m,
    nl + 1), which rebuilds the eliminated dofs from the nl others."""
    A, rhs, R, _ = _sum_complements(blocks, m)
    # Stored zeros (the empty blocks of RT/BDM, off-diagonal multiplier
    # entries) steer the LU ordering and would double its fill.  What cancels
    # in exact arithmetic is 0 or round-off (up to about 50 eps of the row and
    # column scale) as the last bits fall, so every entry below 128 eps times
    # the geometric mean of its row's and column's largest magnitudes goes.
    # The systems are symmetric in magnitude, so the largest magnitude of a
    # column (each holds its diagonal slot) is that of its row as well.
    big = np.maximum.reduceat(np.abs(A.data), A.indptr[:-1])
    A.eliminate_zeros()
    limit = np.repeat(big * (128 * np.finfo(float).eps) ** 2, np.diff(A.indptr))
    limit *= big[A.indices]
    A.data[A.data**2 <= limit] = 0.0
    A.eliminate_zeros()
    return A, rhs, R


def _splu(K, what, order="MMD_AT_PLUS_A"):
    """SuperLU factor in symmetric mode with diagonal pivots only (so
    perm_r = perm_c), columns in the order ``order``: by default the
    minimum-degree ordering of K^T + K, which makes it Cholesky-equivalent
    on an SPD matrix; "NATURAL" keeps the given order.  The ordering makes
    211k fill against 256k for the default COLAMD on the P1 coarse matrix
    of 8,192 triangles; the diagonal pivots make 147k against 1.14M with
    partial pivoting on the primal system of 512 BDM k=2 triangles.  A zero
    pivot, which SuperLU would trade for an off-diagonal one, raises
    :class:`SingularSystem`."""
    try:
        lu = spla.splu(K, permc_spec=order, diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SingularSystem(f"{what} is singular") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SingularSystem(f"{what} has a zero pivot")
    return lu


def condensed_system(blocks: LocalBlocks):
    """Statically condensed SPD system on the interior multiplier dofs.
    :func:`_sum_complements` eliminates flux and potential one element
    block at a time, never holding all element matrices at once, and adds
    each element's Schur complement H_e as its negated symmetric part
    -(H_e + H_e^T)/2: H_e is symmetric only up to round-off, and K, the sum
    of these terms in element order, is exactly symmetric.

    Returns (K, rhs, lam_full, interior, X, Y): K in CSC, ``lam_full``
    holds the Dirichlet values on boundary dofs and zeros elsewhere,
    ``interior`` the interior dof ids, and (X, Y) the local reconstruction
    operators [q; u]_K = X_K lam_K + Y_K.
    """
    return _condense(blocks)[:-1]


def _condense(blocks: LocalBlocks):
    """:func:`condensed_system` and the largest symmetry defect
    ||H_e - H_e^T||_F / ||H_e||_F of its element complements."""
    lam_full = blocks.gdir.ravel().copy()  # outlives the reduction, so allocated before it
    K, rhs, R, defect = _sum_complements(blocks, blocks.space.flux_dim + blocks.space.scalar_dim, symmetrize=True)
    K.eliminate_zeros()
    return K, -rhs, lam_full, blocks.interior_dofs, R[:, :, :-1], R[:, :, -1], defect


_OMEGA = 0.6        # < 2/3 keeps M SPD: three edges per element give lambda_max(D^-1 K) <= 3
_PCG_RTOL = 1e-15   # stop once ||rhs - K lam|| <= _PCG_RTOL ||rhs||
_PCG_MAXITER = 200  # shape-regular meshes take 19-42 iterations, 10:1 stretched ones ~150


def _coarse_space(mesh: Mesh, nf):
    """Prolongation (n, nc) from the P1 hats of the interior vertices (the
    ends of interior edges off the boundary; a vertex no triangle uses is
    none) to the interior multiplier dofs.  On an edge of length L the hat
    of the start vertex has the coefficients (1/2, -sqrt(3)/6) sqrt(L) on
    face dofs 0 and 1, the end vertex (1/2, sqrt(3)/6) sqrt(L), and none
    above."""
    ends = mesh.edges[mesh.interior_edges]                  # (m, 2)
    inner = np.zeros(mesh.num_vertices, dtype=bool)
    inner[ends] = True
    inner[mesh.edges[mesh.boundary]] = False
    vid = np.cumsum(inner) - 1
    root = np.sqrt(mesh.edge_lengths[mesh.interior_edges])  # (m,)
    coef = np.array([[0.5, -np.sqrt(3.0) / 6.0], [0.5, np.sqrt(3.0) / 6.0]])[:, : min(nf, 2)]
    vals = root[:, None, None] * coef                       # (m, 2 ends, dofs)
    rows, cols, keep = np.broadcast_arrays(
        _edge_dofs(np.arange(len(ends))[:, None], nf)[..., : coef.shape[1]],
        vid[ends][..., None],
        inner[ends][..., None],
    )
    return sp.csr_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(len(ends) * nf, int(inner.sum()))
    )


def _two_level(K, mesh: Mesh, nf):
    """Symmetric two-level preconditioner of K: a damped edge-block Jacobi
    sweep, the Galerkin correction in the P1 hats of the interior vertices
    (P^T K P factored by :func:`_splu`), and a second sweep.  The edge
    blocks are read from K entry by entry, a search in each sorted row of
    its CSR arrays, not by a pass over all its nonzeros."""
    dofs = _edge_dofs(np.arange(K.shape[0] // nf), nf)
    rows, cols = np.broadcast_arrays(dofs[:, :, None], dofs[:, None, :])
    try:
        Dinv = _OMEGA * np.linalg.inv(np.asarray(K[rows.ravel(), cols.ravel()]).reshape(rows.shape))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("condensed system has a singular edge block") from exc
    m = len(Dinv)
    Dinv = sp.bsr_matrix((Dinv, np.arange(m), np.arange(m + 1)), shape=K.shape).tocsr()
    P = _coarse_space(mesh, nf)
    PT, KP = P.T.tocsr(), (K @ P).tocsr()
    coarse = _splu((PT @ KP).tocsc(), "coarse system") if P.shape[1] else None

    def apply(r):
        x = Dinv @ r
        r = r - K @ x
        if coarse is not None:
            y = coarse.solve(PT @ r)
            x += P @ y
            r -= KP @ y
        return x + Dinv @ r

    return spla.LinearOperator(K.shape, matvec=apply, dtype=float)


def _dot(x, y):
    # numpy's pairwise sum, not the BLAS dot: a multithreaded BLAS wakes its
    # worker threads on every call, milliseconds each after an idle pause,
    # and its bits depend on the thread count
    return float(np.sum(x * y))


def _pcg(K, rhs, M):
    """Conjugate gradients for K x = rhs from zero with the preconditioner
    M until ||rhs - K x|| <= _PCG_RTOL ||rhs||.  Returns x (None if
    _PCG_MAXITER iterations do not get there) and the iteration count."""
    x, r = np.zeros_like(rhs), rhs.copy()
    p, rz = np.zeros_like(rhs), 1.0
    stop = _PCG_RTOL**2 * _dot(rhs, rhs)
    it = 0
    while _dot(r, r) > stop:
        if it == _PCG_MAXITER:
            return None, it
        it += 1
        z = M @ r
        rz, rz_old = _dot(r, z), rz
        p = z + (rz / rz_old) * p
        Kp = K @ p
        alpha = rz / _dot(p, Kp)
        x += alpha * p
        r -= alpha * Kp
    return x, it


@dataclass(frozen=True)
class SolveInfo:
    """Facts of one condensed solve: the size n and nonzeros of K, the PCG
    iteration count, the final relative residual ||K lam - rhs|| / ||rhs||,
    the normwise backward error ||K lam - rhs||_inf / (||K||_inf
    ||lam||_inf + ||rhs||_inf), whether PCG passed its cap and K was
    factored instead, and the symmetry defect of :func:`_condense` (0, as
    the others, without interior dofs).  The wall times, in seconds, of its
    phases close the record and take no part in comparisons: forming K
    (``condense_s``), the preconditioner (``precondition_s``), the
    iteration with its residual checks and any fallback factorization
    (``iterate_s``), and the local reconstruction (``reconstruct_s``)."""

    n: int
    nnz: int
    iterations: int
    residual: float
    backward_error: float = 0.0
    lu_fallback: bool = False
    symmetry_defect: float = 0.0
    condense_s: float = field(default=0.0, compare=False)
    precondition_s: float = field(default=0.0, compare=False)
    iterate_s: float = field(default=0.0, compare=False)
    reconstruct_s: float = field(default=0.0, compare=False)


def solve_hybridized(blocks: LocalBlocks) -> FieldTriple:
    """Solve by static condensation onto the interior multiplier dofs and
    element-by-element reconstruction of flux and potential.

    K is solved by conjugate gradients with the symmetric two-level
    preconditioner of :func:`_two_level`, from zero, until the residual is
    below 1e-15 of the right-hand side.  A solve that does not get there
    within ``_PCG_MAXITER`` iterations (elements stretched far from
    shape-regular) factors K by :func:`_splu` instead.  K is exactly
    symmetric, so the iteration runs on its faster CSR view K^T.  The
    triple's ``solve_info`` records the solve and times its phases."""
    t0 = time.perf_counter()
    # the output is allocated before the reduction's temporaries, so that
    # it does not keep the heap they free from returning to the system
    qu = np.empty((blocks.mesh.num_triangles, blocks.space.flux_dim + blocks.space.scalar_dim))
    K, rhs, lam_full, interior, X, Y, defect = _condense(blocks)
    K, nf = K.T, blocks.space.face_dim
    if not (np.isfinite(K.data).all() and np.isfinite(rhs).all()):
        raise SingularSystem("condensed system is not finite")
    t1 = t2 = t3 = time.perf_counter()
    iterations, residual, backward_error, lu_fallback = 0, 0.0, 0.0, False
    if len(interior):
        # K is exactly symmetric, so its largest row sum is its largest
        # column sum; taken before the preconditioner and the iterates exist
        K_inf = np.add.reduceat(np.abs(K.data), K.indptr[:-1]).max()
        M = _two_level(K, blocks.mesh, nf)
        t2 = time.perf_counter()
        lam, iterations = _pcg(K, rhs, M)
        if lam is None:
            lam, lu_fallback = _splu(K.T, "condensed system").solve(rhs), True
        res, scale = K @ lam - rhs, _dot(rhs, rhs)
        residual = float(np.sqrt(_dot(res, res) / scale)) if scale else 0.0
        scale = K_inf * np.abs(lam).max() + np.abs(rhs).max()
        backward_error = float(np.abs(res).max() / scale) if scale else 0.0
        lam_full[interior] = lam
        t3 = time.perf_counter()
    np.einsum("eij,ej->ei", X, lam_full[_edge_dofs(blocks.mesh.tri_edges, nf)].reshape(len(X), -1), out=qu)
    qu += Y
    nq = blocks.space.flux_dim
    info = SolveInfo(len(interior), K.nnz, iterations, residual, backward_error, lu_fallback,
                     defect if len(interior) else 0.0, t1 - t0, t2 - t1, t3 - t2, time.perf_counter() - t3)
    return _solved_triple(blocks, "condensed system", qu[:, :nq], qu[:, nq:], lam_full, info)


def _solved_triple(blocks: LocalBlocks, what, q, u, lam_full, solve_info=None) -> FieldTriple:
    """The triple of a solve of ``what``: flux and potential coefficients
    (nt, nq) and (nt, nw), and every multiplier dof, the Dirichlet values
    included.  A non-finite value raises :class:`SingularSystem`."""
    if not all(np.isfinite(a).all() for a in (q, u, lam_full)):
        raise SingularSystem(f"{what} produced non-finite values")
    return FieldTriple(mesh=blocks.mesh, space=blocks.space, q_coeffs=q, u_coeffs=u,
                       lam=lam_full.reshape(-1, blocks.space.face_dim), tau=blocks.tau,
                       quad_exactness=blocks.quad_exactness, solve_info=solve_info)


def _saddle_order(blocks: LocalBlocks):
    """Elimination order of the saddle system: the element dofs in the
    numbering of :func:`_reduce`, all flux dofs, then all potential dofs;
    then the interior multipliers, the nf dofs of an edge together, edges
    in the minimum-degree order of the graph in which two interior edges
    are adjacent when they share an element."""
    mesh, space = blocks.mesh, blocks.space
    nt, m = mesh.num_triangles, len(mesh.interior_edges)
    edges, own = np.arange(m), nt * (space.flux_dim + space.scalar_dim)
    if m:
        incidence = (np.ones(3 * nt), (np.repeat(np.arange(nt), 3), mesh.tri_edges.ravel()))
        E = sp.csr_matrix(incidence, shape=(nt, mesh.num_edges))[:, mesh.interior_edges]
        # E^T E + I is SPD with the pattern of the edge graph; the factor's
        # perm_c gives each edge its position, so the order is its argsort
        edges = np.argsort(_splu((E.T @ E + sp.identity(m)).tocsc(), "edge graph").perm_c)
    return np.concatenate([np.arange(own), own + _edge_dofs(edges, space.face_dim).ravel()])


def solve_saddle(blocks: LocalBlocks) -> FieldTriple:
    """Direct solve of the full three-field system (cross-check path).

    One :func:`_splu` factorization, in natural order, of the system
    permuted to the order of :func:`_saddle_order`: every flux dof, then
    every potential dof, then the interior multipliers.  Every pivot block
    in that order is definite.  The flux dofs of different elements are not
    coupled, so each flux pivot lies in an element's flux mass A, which is
    SPD; what the flux leaves on the potential is block diagonal too, with
    the element Schur complements D + B A^{-1} B^T, SPD for every supported
    space (BDM has D = 0, HDG with single-face tau a semidefinite D); and
    the multiplier block that remains is -K, with K the SPD condensed
    matrix.  So the factorization is as stable as static condensation.
    A zero pivot, which SuperLU would trade for an off-diagonal one,
    raises :class:`SingularSystem`, as condensation rejects a singular
    element."""
    A, rhs, _ = _reduce(blocks, 0)
    p = _saddle_order(blocks)
    A, rhs = A[p][:, p], rhs[p]  # frees the unpermuted system before SuperLU runs
    sol = np.empty_like(rhs)
    sol[p] = _splu(A, "saddle system", "NATURAL").solve(rhs)
    nt, space = blocks.mesh.num_triangles, blocks.space
    nQ, nW = nt * space.flux_dim, nt * space.scalar_dim
    lam_full = blocks.gdir.ravel().copy()
    lam_full[blocks.interior_dofs] = sol[nQ + nW :]
    q, u = sol[:nQ].reshape(nt, -1), sol[nQ : nQ + nW].reshape(nt, -1)
    return _solved_triple(blocks, "saddle system", q, u, lam_full)


def system_residual(blocks: LocalBlocks, triple: FieldTriple) -> float:
    """Max-norm residual of all equation groups of the summed saddle system, relative to the load."""
    A, rhs, _, _ = _sum_complements(blocks, 0)
    lam = triple.lam.ravel()[blocks.interior_dofs]
    sol = np.concatenate([triple.q_coeffs.ravel(), triple.u_coeffs.ravel(), lam])
    res = A @ sol - rhs
    scale = max(float(np.abs(rhs).max()), float(np.abs(blocks.gdir).max()), 1e-30)
    # Boundary group: multiplier equals the Dirichlet projection by
    # construction in both solvers; include it for completeness.
    bnd = blocks.mesh.boundary
    bres = float(np.abs(triple.lam[bnd] - blocks.gdir[bnd]).max(initial=0.0))
    return max(float(np.abs(res).max()), bres) / scale


def solve_primal(mesh: Mesh, space: SpaceDescriptor, data: ProblemData, tau=None):
    """Potential coefficients of the primal form D u = (f, .) - l_g of the
    full problem, reaction included.  D, the Schur complement of the
    three-field system onto the potential, is the Dirichlet form of the
    primal characterization; the potential equals that of
    :func:`solve_hybridized`, reached through another factorization.

    D is not formed: one :func:`_splu` solves the (potential, interior
    multiplier) system of :func:`_reduce`, which is SPD once its multiplier
    rows are negated: its potential block D_tau + Mc + B A^{-1} B^T is SPD
    as every local solve is unique, and its multiplier Schur complement is K."""
    n = mesh.num_triangles * space.scalar_dim
    A, rhs, _ = _reduce(assemble(mesh, space, data, tau=tau), space.flux_dim)
    A.data[A.indices >= n] *= -1.0
    rhs[n:] *= -1.0
    return _splu(A, "primal system").solve(rhs)[:n].reshape(-1, space.scalar_dim)


def _balance(triple: FieldTriple, data: ProblemData, basis: ps.PolyFamily, vol, erule):
    """The discrete conservation law (f - c u_h, w)_K - <q_h . n, w>_dK on
    the rules ``vol`` and ``erule`` for every w of the reference family
    ``basis``: numerical flux for HDG, reaction if set.  Tabulates the
    reference values once and returns the law of an element slice
    ``rows``, (nb, basis.dim), as a function."""
    mesh = triple.mesh
    w_vol, w_edge = basis.eval(vol.points), pj._edge_table(basis, erule.points)
    W = ps.scalar_basis(triple.space.scalar_degree).eval(vol.points)
    traces = _TraceTables(triple.space, erule.points)

    def law(rows):
        geo = mesh.geometry.rows(rows)
        xq = geo.forward(vol.points)
        fv = pj._at(data.f, xq)
        if data.c is not None:
            fv = fv - pj._at(data.c, xq) * (triple.u_coeffs[rows] @ W.T)
        flux = geo.edge_lengths[:, :, None] * triple._normal_flux(traces, rows) * erule.weights
        source = geo.detJ[:, None] * ((vol.weights * fv) @ w_vol)
        return source - np.einsum("elg,lgi->ei", flux, w_edge)

    return law


def conservation_residuals(triple: FieldTriple, data: ProblemData, quad_exactness=None):
    """Per-element defect of (f - c u_h, 1)_K = <q_h . n, 1>_dK, the w = 1
    row of :func:`_balance`, on the assembly's data rule recorded on the
    triple (2k+4 for a triple built by hand) unless ``quad_exactness`` is
    given, one element block at a time.  A solve satisfies it to
    round-off."""
    one = ps.PolyFamily(ps.monomial_exponents(0), np.ones((1, 1)))
    rules = ps.quadrature_rules(triple.space.degree, quad_exactness or triple.quad_exactness)
    law = _balance(triple, data, one, *rules)
    blocks = _blocks(triple.mesh.num_triangles, _pass_bytes(*rules))
    return np.concatenate([law(rows)[:, 0] for rows in blocks])


def flux_jump_norms(triple: FieldTriple):
    """L2 norms of the normal-flux jump over the interior edges.

    The normal flux lies in P_k on every edge, so its Legendre moments,
    signed into the global edge orientation and summed over both owners,
    are the moments of the jump."""
    mesh, k = triple.mesh, triple.space.degree
    rule = ps.edge_rule(k + 1)  # exact to degree 2k+1
    P = rule.weights[:, None] * ps.legendre01(k, rule.points)
    moments = _edge_signs(mesh, k + 1) * (triple.normal_flux(rule.points) @ P)
    jump = np.zeros((mesh.num_edges, k + 1))
    np.add.at(jump, mesh.tri_edges.ravel(), moments.reshape(-1, k + 1))
    inner = mesh.interior_edges
    return np.sqrt(mesh.edge_lengths[inner] * np.sum(jump[inner] ** 2, axis=1))


def _project_elements(triple: FieldTriple, q, u, quad_exactness, rows=slice(None)):
    """Method-specific element projections (Pi q, Pi u) on the elements
    ``rows`` of an exact solution, given by its values q and u on them
    (``projections._sample``) on the rules of ``quad_exactness``."""
    space = triple.space
    k, geo = space.degree, triple.mesh.geometry.rows(rows)
    if space.is_hdg:
        return pj._hdg_coeffs(q, u, k, geo, triple.tau[rows], exactness=quad_exactness)
    qc = pj._hdiv_coeffs(space, geo, q, quad_exactness)
    return qc, pj._scalar_coeffs(u[0], space.scalar_degree, ps.quadrature_rules(k, quad_exactness)[0])


def _project_faces(triple: FieldTriple, u_exact, quad_exactness):
    """Edgewise L2 projection P u (ne, nf) of an exact potential on every
    edge, on the edge rule of ``quad_exactness``: one pass over the edges,
    in blocks of :func:`_blocks` as the element passes."""
    mesh, k = triple.mesh, triple.space.degree
    erule = ps.quadrature_rules(k, quad_exactness)[1]
    lamc = np.empty((mesh.num_edges, k + 1))
    for edges in _blocks(mesh.num_edges, _pass_bytes(None, erule)):
        ends = mesh.vertices[mesh.edges[edges]]
        lamc[edges] = pj.project_face(u_exact, k, ends[:, 0], ends[:, 1], npoints=len(erule.points))
    return lamc


def energy_identity_residual(triple: FieldTriple, q_exact, u_exact, data: ProblemData, quad_exactness=None) -> float:
    """Absolute defect of the energy identity, computed with overkill
    quadrature so that only solver and projection round-off remains.

    For RT/BDM the identity balances the weighted norm of the projected flux
    error, plus the reaction pairing (c (u - u_h), P u - u_h) when ``data.c``
    is set, against its pairing with the projection defect; HDG adds the
    stabilization seminorm of the potential/trace mismatch.  Both sides are
    summed one element block at a time.
    """
    space, mesh = triple.space, triple.mesh
    k = space.degree
    if quad_exactness is None:
        quad_exactness = max(2 * k + 10, 16)
    vol, erule = ps.quadrature_rules(k, quad_exactness)
    V = ps.vector_basis(space.flux_space, k).eval(vol.points)
    W = ps.scalar_basis(space.scalar_degree).eval(vol.points).T
    traces = _TraceTables(space, erule.points)
    elam = _project_faces(triple, u_exact, quad_exactness) - triple.lam

    def block(rows):
        geo = mesh.geometry.rows(rows)
        (q, qe), (u, ue), (kappa, _) = pj._sample([q_exact, u_exact, data.kappa], geo, vol, erule)
        qc, uc = _project_elements(triple, (q, qe), (u, ue), quad_exactness, rows)
        eq, eu = qc - triple.q_coeffs[rows], uc - triple.u_coeffs[rows]
        wk = geo.detJ[:, None] * vol.weights / kappa
        vals = pj._vector_values(geo, V, eq)
        diff = pj._vector_values(geo, V, qc) - q
        lhs = np.sum(wk * np.einsum("egc,egc->eg", vals, vals))
        rhs = np.sum(wk * np.einsum("egc,egc->eg", diff, vals))
        if data.c is not None:
            cw = geo.detJ[:, None] * vol.weights * pj._at(data.c, geo.forward(vol.points))
            lhs += np.sum(cw * (u - triple.u_coeffs[rows] @ W) * (eu @ W))
        if space.is_hdg:
            gap = _trace_gap(mesh, eu, elam, traces, rows)
            lhs += np.sum(triple.tau[rows] * geo.edge_lengths * (gap**2 @ erule.weights))
        return lhs, rhs

    lhs, rhs = zip(*[block(rows) for rows in _blocks(mesh.num_triangles, _pass_bytes(vol, erule))])
    return abs(sum(lhs) - sum(rhs))

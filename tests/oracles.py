"""Independent oracles for the tests.

The physical-space oracles for the transform-invariance checks solve the
defining projection systems directly in physical coordinates (physical test
bases, physical quadrature) so they share nothing with the library's
reference-element route except the quadrature points of the data integrals.
The element-by-element references for the global systems are at the end.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import hybridfem.polyspaces as ps


def physical_hdiv_projection(q, method, k, em, exactness=None):
    tag = "RT" if method == "rt" else "P"
    vb = ps.vector_basis(tag, k)
    test_vb = ps.vector_basis("P", k - 1) if method == "rt" else ps.vector_basis("N", k - 2)
    exactness = 2 * k + 6 if exactness is None else exactness
    vol = ps.triangle_rule(exactness)
    erule = ps.edge_rule(max(k + 3, (exactness + 2) // 2))
    pts = em.forward(vol.points)
    w = vol.weights * em.detJ
    basis_vals = vb.eval(pts)
    test_vals = test_vb.eval(pts)
    rows = [np.einsum("g,gic,gjc->ij", w, test_vals, basis_vals)]
    rhs = [np.einsum("g,gic,gc->i", w, test_vals, q(pts))]
    for loc in range(3):
        pe = em.edge_points(loc, erule.points)
        n = em.edge_normals[loc]
        mu = ps.legendre01(k, erule.points)
        we = erule.weights * em.edge_lengths[loc]
        rows.append(np.einsum("g,gi,gjc,c->ij", we, mu, vb.eval(pe), n))
        rhs.append(mu.T @ (we * (q(pe) @ n)))
    sol = np.linalg.solve(np.vstack(rows), np.concatenate(rhs))

    def field(x):
        return np.einsum("gdc,d->gc", vb.eval(x), sol)

    return field


def physical_hdg_projection(q, u, k, em, tau, exactness=None):
    vb = ps.vector_basis("P", k)
    sb = ps.scalar_basis(k)
    nq, nw = vb.dim, sb.dim
    exactness = 2 * k + 6 if exactness is None else exactness
    vol = ps.triangle_rule(exactness)
    erule = ps.edge_rule(max(k + 3, (exactness + 2) // 2))
    pts = em.forward(vol.points)
    w = vol.weights * em.detJ
    sdim_low = ps.scalar_dim(k - 1)
    M = np.zeros((nq + nw, nq + nw))
    rhs = np.zeros(nq + nw)
    if sdim_low:
        tv = ps.vector_basis("P", k - 1).eval(pts)
        M[: 2 * sdim_low, :nq] = np.einsum("g,gic,gjc->ij", w, tv, vb.eval(pts))
        rhs[: 2 * sdim_low] = np.einsum("g,gic,gc->i", w, tv, q(pts))
        ts = sb.eval(pts)[:, :sdim_low]
        M[2 * sdim_low : 3 * sdim_low, nq:] = np.einsum("g,gi,gj->ij", w, ts, sb.eval(pts))
        rhs[2 * sdim_low : 3 * sdim_low] = ts.T @ (w * u(pts))
    row = 3 * sdim_low
    for loc in range(3):
        pe = em.edge_points(loc, erule.points)
        n = em.edge_normals[loc]
        mu = ps.legendre01(k, erule.points)
        we = erule.weights * em.edge_lengths[loc]
        blk = slice(row, row + k + 1)
        M[blk, :nq] = np.einsum("g,gi,gjc,c->ij", we, mu, vb.eval(pe), n)
        M[blk, nq:] = tau[loc] * np.einsum("g,gi,gj->ij", we, mu, sb.eval(pe))
        rhs[blk] = mu.T @ (we * (q(pe) @ n + tau[loc] * u(pe)))
        row += k + 1
    sol = np.linalg.solve(M, rhs)

    def qfield(x):
        return np.einsum("gdc,d->gc", vb.eval(x), sol[:nq])

    def ufield(x):
        return sb.eval(x) @ sol[nq:]

    return qfield, ufield


# --------------------------------------------------------------------------
# Element-by-element references for the global three-field systems.  They
# assemble block by block and solve the Dirichlet form one potential column
# at a time, sharing only the element blocks with the library.


def _interior_positions(blocks):
    """Position of every multiplier dof among the interior ones (-1 on the
    boundary) and the interior dof ids."""
    layout = blocks.layout
    nf = blocks.space.face_dim
    interior = np.array(
        [e * nf + i for e in layout.interior_edges for i in range(nf)], dtype=np.int64
    )
    face_pos = -np.ones(layout.n_face, dtype=np.int64)
    face_pos[interior] = np.arange(len(interior))
    return face_pos, interior


def _edge_positions(face_pos, e, nf):
    return face_pos[e * nf : (e + 1) * nf]


class _Triplets:
    def __init__(self):
        self.rows, self.cols, self.vals = [], [], []

    def add(self, r0, c0, block):
        r, c = np.meshgrid(r0, c0, indexing="ij")
        self.rows.append(r.ravel())
        self.cols.append(c.ravel())
        self.vals.append(np.asarray(block).ravel())

    def matrix(self, N):
        return sp.coo_matrix(
            (np.concatenate(self.vals), (np.concatenate(self.rows), np.concatenate(self.cols))),
            shape=(N, N),
        ).tocsc()


def reference_saddle_matrix(blocks):
    """Saddle system over (Q, U, interior multiplier dofs) and its load,
    assembled element by element and local edge by local edge."""
    layout, space, mesh = blocks.layout, blocks.space, blocks.mesh
    nq, nw, nf = space.flux_dim, space.scalar_dim, space.face_dim
    nQ, nW = layout.n_flux, layout.n_scalar
    face_pos, interior = _interior_positions(blocks)
    N = nQ + nW + len(interior)
    trip = _Triplets()
    rhs = np.zeros(N)
    for t in range(layout.num_triangles):
        qs = np.arange(t * nq, (t + 1) * nq)
        us = nQ + np.arange(t * nw, (t + 1) * nw)
        trip.add(qs, qs, blocks.A[t])
        trip.add(qs, us, -blocks.Bdiv.T)
        trip.add(us, qs, blocks.Bdiv)
        trip.add(us, us, blocks.D[t])
        rhs[us] += blocks.F[t]
        for loc in range(3):
            e = mesh.tri_edges[t, loc]
            pos = _edge_positions(face_pos, e, nf)
            Cl = blocks.C[t, loc]
            Sl = blocks.Swl[t, :, loc, :]
            if pos[0] >= 0:
                ls = nQ + nW + pos
                trip.add(qs, ls, Cl.T)
                trip.add(us, ls, -Sl)
                trip.add(ls, qs, Cl)
                trip.add(ls, us, Sl.T)
                if blocks.tau is not None:
                    trip.add(ls, ls, -blocks.tau[t, loc] * np.eye(nf))
            else:
                rhs[qs] -= Cl.T @ blocks.gdir[e]
                rhs[us] += Sl @ blocks.gdir[e]
    return trip.matrix(N), rhs


def reference_dirichlet_pieces(blocks):
    """Dirichlet-form matrix and Dirichlet load: one (flux, interior
    multiplier) solve per potential basis function, then the divergence and
    stabilization couplings applied element by element."""
    layout, space, mesh = blocks.layout, blocks.space, blocks.mesh
    nq, nw, nf = space.flux_dim, space.scalar_dim, space.face_dim
    nt, nQ, nW = layout.num_triangles, layout.n_flux, layout.n_scalar
    face_pos, interior = _interior_positions(blocks)
    N = nQ + len(interior)
    trip = _Triplets()
    for t in range(nt):
        qs = np.arange(t * nq, (t + 1) * nq)
        trip.add(qs, qs, blocks.A[t])
        for loc in range(3):
            pos = _edge_positions(face_pos, mesh.tri_edges[t, loc], nf)
            if pos[0] < 0:
                continue
            trip.add(qs, nQ + pos, blocks.C[t, loc].T)
            trip.add(nQ + pos, qs, blocks.C[t, loc])
            if blocks.tau is not None:
                trip.add(nQ + pos, nQ + pos, -blocks.tau[t, loc] * np.eye(nf))
    lu = spla.splu(trip.matrix(N))

    def apply_coupling(sol, lam_boundary):
        out = np.zeros(nW)
        for t in range(nt):
            contrib = blocks.Bdiv @ sol[t * nq : (t + 1) * nq]
            if blocks.tau is not None:
                lam_loc = np.zeros((3, nf))
                for loc in range(3):
                    e = mesh.tri_edges[t, loc]
                    pos = _edge_positions(face_pos, e, nf)
                    lam_loc[loc] = sol[nQ + pos] if pos[0] >= 0 else lam_boundary[e]
                contrib = contrib - np.einsum("wlf,lf->w", blocks.Swl[t], lam_loc)
            out[t * nw : (t + 1) * nw] = contrib
        return out

    D = np.zeros((nW, nW))
    zero_boundary = np.zeros_like(blocks.gdir)
    for t in range(nt):
        for j in range(nw):
            rhs = np.zeros(N)
            rhs[t * nq : (t + 1) * nq] = blocks.Bdiv.T[:, j]
            if blocks.tau is not None:
                for loc in range(3):
                    pos = _edge_positions(face_pos, mesh.tri_edges[t, loc], nf)
                    if pos[0] >= 0:
                        rhs[nQ + pos] = -blocks.Swl[t, j, loc, :]
            col = apply_coupling(lu.solve(rhs), zero_boundary)
            col[t * nw : (t + 1) * nw] += blocks.D[t][:, j]
            D[:, t * nw + j] = col

    rhs = np.zeros(N)
    for t in range(nt):
        for loc in range(3):
            e = mesh.tri_edges[t, loc]
            if mesh.boundary[e]:
                rhs[t * nq : (t + 1) * nq] -= blocks.C[t, loc].T @ blocks.gdir[e]
    return D, apply_coupling(lu.solve(rhs), blocks.gdir)

"""Independent oracles for the tests.

The physical-space oracles for the transform-invariance checks solve the
defining projection systems directly in physical coordinates (physical test
bases, physical quadrature) so they share nothing with the library's
reference-element route except the quadrature points of the data integrals.
The element-by-element references for the global systems follow, and at the
end the one-element-at-a-time references for the batched operators.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import hybridfem.polyspaces as ps
import hybridfem.projections as pj
from hybridfem.mesh import ReferenceTriangle


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


# --------------------------------------------------------------------------
# Element-by-element references for the batched operators: the mesh
# connectivity builder, the projections of an exact solution, the error
# norms, the postprocessing schemes and the diagnostics, each one element
# (or one edge) at a time through the per-element views.


def reference_connectivity(vertices, triangles):
    """Edges of a triangulation from a dict of owners keyed by sorted vertex
    pairs.  Returns (triangles re-oriented counter-clockwise, edges,
    edge_tris, tri_edges, tri_edge_aligned)."""
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.array(triangles, dtype=np.int64)
    p = vertices[triangles]
    a, b = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    flip = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0] < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    owners = {}
    for t, tri in enumerate(triangles):
        for i in range(3):
            u, v = tri[(i + 1) % 3], tri[(i + 2) % 3]
            owners.setdefault((min(u, v), max(u, v)), []).append(t)
    keys = sorted(owners)
    edges = np.empty((len(keys), 2), dtype=np.int64)
    edge_tris = np.full((len(keys), 2), -1, dtype=np.int64)
    index = {}
    for e, key in enumerate(keys):
        index[key] = e
        tris = sorted(owners[key])
        edge_tris[e, : len(tris)] = tris
        tri = triangles[tris[0]]
        loc = [i for i in range(3) if set(key) == {tri[(i + 1) % 3], tri[(i + 2) % 3]}][0]
        edges[e] = (tri[(loc + 1) % 3], tri[(loc + 2) % 3])
    tri_edges = np.empty((len(triangles), 3), dtype=np.int64)
    aligned = np.empty((len(triangles), 3), dtype=bool)
    for t, tri in enumerate(triangles):
        for i in range(3):
            u, v = tri[(i + 1) % 3], tri[(i + 2) % 3]
            tri_edges[t, i] = index[(min(u, v), max(u, v))]
            aligned[t, i] = edges[tri_edges[t, i], 0] == u
    return triangles, edges, edge_tris, tri_edges, aligned


def reference_unit_square(n):
    """Criss-cross grid built square by square: (vertices, triangles)."""
    xs = np.linspace(0.0, 1.0, n + 1)
    verts = np.array([[x, y] for y in xs for x in xs])
    tris = []
    for j in range(n):
        for i in range(n):
            v00 = j * (n + 1) + i
            v10, v01 = v00 + 1, v00 + n + 1
            if (i + j) % 2 == 0:
                tris += [(v00, v10, v01 + 1), (v00, v01 + 1, v01)]
            else:
                tris += [(v00, v10, v01), (v10, v01 + 1, v01)]
    return verts, np.array(tris)


def reference_refine(mesh):
    """Red refinement triangle by triangle: (vertices, triangles)."""
    mid = mesh.num_vertices + np.arange(mesh.num_edges)
    ends = mesh.vertices[mesh.edges]
    verts = np.vstack([mesh.vertices, 0.5 * (ends[:, 0] + ends[:, 1])])
    tris = np.empty((4 * mesh.num_triangles, 3), dtype=np.int64)
    for t, (a, b, c) in enumerate(mesh.triangles):
        m = mid[mesh.tri_edges[t]]
        tris[4 * t : 4 * t + 4] = [(a, m[2], m[1]), (m[2], b, m[0]), (m[1], m[0], c), (m[0], m[1], m[2])]
    return verts, tris


def _q_field(triple, t):
    space = triple.space
    return pj.LocalVectorField(
        triple.mesh.element_map(t), space.flux_space, space.degree, triple.q_coeffs[t]
    )


def _lam_values_local(mesh, lam, t, loc, s):
    e = mesh.tri_edges[t, loc]
    s = s if mesh.tri_edge_aligned[t, loc] else 1.0 - s
    return pj.face_values(lam[e], mesh.edge_lengths[e], s)


def _flux_trace(triple, t, loc, s):
    vals = _q_field(triple, t).normal_trace(loc, s)
    if triple.space.is_hdg:
        uh = triple.u_field(t).edge_values(loc, s)
        lam = _lam_values_local(triple.mesh, triple.lam, t, loc, s)
        vals = vals + triple.tau[t, loc] * (uh - lam)
    return vals


def reference_project_triple(triple, q_exact, u_exact, quad_exactness):
    mesh, space = triple.mesh, triple.space
    k = space.degree
    qc = np.zeros_like(triple.q_coeffs)
    uc = np.zeros_like(triple.u_coeffs)
    for t in range(mesh.num_triangles):
        em = mesh.element_map(t)
        if space.method == "rt":
            qc[t] = pj.rt_project(q_exact, k, em, quad_exactness=quad_exactness).coeffs
            uc[t] = pj.project_scalar(u_exact, k, em).coeffs
        elif space.method == "bdm":
            qc[t] = pj.bdm_project(q_exact, k, em, quad_exactness=quad_exactness).coeffs
            uc[t] = pj.project_scalar(u_exact, k - 1, em).coeffs
        else:
            Pq, Pu = pj.hdg_project(
                q_exact, u_exact, k, em, triple.tau[t], quad_exactness=quad_exactness
            )
            qc[t], uc[t] = Pq.coeffs, Pu.coeffs
    npoints = len(ps.quadrature_rules(k, quad_exactness)[1].points)
    lamc = np.zeros_like(triple.lam)
    for e in range(mesh.num_edges):
        a, b = mesh.edges[e]
        lamc[e] = pj.project_face(u_exact, k, mesh.vertices[a], mesh.vertices[b], npoints=npoints)
    return qc, uc, lamc


def reference_error_norms(triple, case, postprocessed=()):
    mesh, space = triple.mesh, triple.space
    k = space.degree
    exactness = 2 * k + 6
    vol, erule = ps.quadrature_rules(k, exactness)
    qc, uc, lamc = reference_project_triple(triple, case.q, case.u, exactness)
    keys = ["eq", "eq_w", "eq_proj", "eq_proj_w", "eu", "eu_proj",
            "ehat", "ehat_proj", "eflux", "eflux_proj"]
    acc = dict.fromkeys(keys, 0.0)
    acc.update({f"epost_{p.scheme}": 0.0 for p in postprocessed})
    for t in range(mesh.num_triangles):
        em = mesh.element_map(t)
        xq = em.forward(vol.points)
        w = vol.weights * em.detJ
        kinv = 1.0 / np.asarray(case.kappa(xq), dtype=float)
        qh = _q_field(triple, t)(xq)
        qe = case.q(xq)
        qp = pj.LocalVectorField(em, space.flux_space, k, qc[t])(xq)
        d_exact = np.einsum("nc,nc->n", qe - qh, qe - qh)
        d_proj = np.einsum("nc,nc->n", qp - qh, qp - qh)
        acc["eq"] += w @ d_exact
        acc["eq_w"] += w @ (kinv * d_exact)
        acc["eq_proj"] += w @ d_proj
        acc["eq_proj_w"] += w @ (kinv * d_proj)
        uh = triple.u_field(t)(xq)
        up = pj.LocalScalarField(em, space.scalar_degree, uc[t])(xq)
        acc["eu"] += w @ (case.u(xq) - uh) ** 2
        acc["eu_proj"] += w @ (up - uh) ** 2
        for p in postprocessed:
            acc[f"epost_{p.scheme}"] += w @ (case.u(xq) - p.field(t)(xq)) ** 2
        for loc in range(3):
            e = mesh.tri_edges[t, loc]
            tpar = erule.points if mesh.tri_edge_aligned[t, loc] else 1.0 - erule.points
            we = erule.weights * em.edge_lengths[loc]
            pts = em.edge_points(loc, erule.points)
            lam_h = triple.lam_values(e, tpar)
            acc["ehat"] += em.h * (we @ (case.u(pts) - lam_h) ** 2)
            lam_p = pj.face_values(lamc[e], mesh.edge_lengths[e], tpar)
            acc["ehat_proj"] += em.h * (we @ (lam_p - lam_h) ** 2)
            flux_h = _flux_trace(triple, t, loc, erule.points)
            acc["eflux"] += em.h * (we @ (case.q(pts) @ em.edge_normals[loc] - flux_h) ** 2)
            if space.is_hdg:
                Pqn = pj.project_face(
                    lambda x, loc=loc, em=em: case.q(x) @ em.edge_normals[loc],
                    k, em.vertices[(loc + 1) % 3], em.vertices[(loc + 2) % 3],
                )
                ref = pj.face_values(Pqn, em.edge_lengths[loc], erule.points)
            else:
                ref = pj.LocalVectorField(em, space.flux_space, k, qc[t]).normal_trace(
                    loc, erule.points
                )
            acc["eflux_proj"] += em.h * (we @ (ref - flux_h) ** 2)
    return {key: float(np.sqrt(max(val, 0.0))) for key, val in acc.items()}


def _local_stiffness(em, grads, weight, vol):
    g_phys = np.einsum("gic,cd->gid", grads, em.invB)
    return em.detJ * np.einsum("g,gic,gjc->ij", vol.weights * weight, g_phys, g_phys)


def _solve_element(S, rhs, mean_coeff):
    return np.concatenate([[mean_coeff], np.linalg.solve(S[1:, 1:], rhs[1:])])


def reference_stenberg(triple, data, tol=1e-9):
    """Coefficients and ``decomposed`` flags of the Stenberg reconstruction."""
    mesh, k = triple.mesh, triple.space.degree
    sb = ps.scalar_basis(k + 1)
    vol = ps.triangle_rule(2 * (k + 1) + 4)
    vol_check = ps.triangle_rule(2 * k + 4)
    erule = ps.edge_rule(k + 4)
    grads = sb.grad(vol.points)
    vals_edge = [sb.eval(ReferenceTriangle.edge_points(loc, erule.points)) for loc in range(3)]
    W = sb.eval(vol.points)
    coeffs = np.zeros((mesh.num_triangles, sb.dim))
    decomposed = np.zeros(mesh.num_triangles, dtype=bool)
    for t in range(mesh.num_triangles):
        em = mesh.element_map(t)
        xq = em.forward(vol.points)
        S = _local_stiffness(em, grads, np.asarray(data.kappa(xq), dtype=float), vol)
        rhs = em.detJ * (W.T @ (vol.weights * np.asarray(data.f(xq), dtype=float)))
        fmean = em.detJ * float(vol_check.weights @ data.f(em.forward(vol_check.points)))
        balance = fmean
        for loc in range(3):
            flux = _flux_trace(triple, t, loc, erule.points)
            rhs -= em.edge_lengths[loc] * (vals_edge[loc].T @ (erule.weights * flux))
            balance -= em.edge_lengths[loc] * float(erule.weights @ flux)
        decomposed[t] = abs(balance) > tol * max(1.0, abs(fmean))
        coeffs[t] = _solve_element(S, rhs, triple.u_coeffs[t, 0])
    return coeffs, decomposed


def reference_gradient_postprocess(triple, data):
    mesh, k = triple.mesh, triple.space.degree
    sb = ps.scalar_basis(k + 1)
    vol = ps.triangle_rule(2 * (k + 1) + 4)
    grads = sb.grad(vol.points)
    coeffs = np.zeros((mesh.num_triangles, sb.dim))
    for t in range(mesh.num_triangles):
        em = mesh.element_map(t)
        xq = em.forward(vol.points)
        S = _local_stiffness(em, grads, np.ones(len(xq)), vol)
        qh = _q_field(triple, t)(xq) / np.asarray(data.kappa(xq), dtype=float)[:, None]
        g_phys = np.einsum("gic,cd->gid", grads, em.invB)
        rhs = -em.detJ * np.einsum("g,gc,gic->i", vol.weights, qh, g_phys)
        coeffs[t] = _solve_element(S, rhs, triple.u_coeffs[t, 0])
    return coeffs


def reference_conservation_residuals(triple, data, include_reaction=False, quad_exactness=None):
    mesh, k = triple.mesh, triple.space.degree
    vol, erule = ps.quadrature_rules(k, max(quad_exactness or 0, 2 * k + 4))
    out = np.zeros(mesh.num_triangles)
    for t in range(mesh.num_triangles):
        em = mesh.element_map(t)
        xq = em.forward(vol.points)
        fv = np.asarray(data.f(xq), dtype=float)
        if include_reaction and data.c is not None:
            fv = fv - np.asarray(data.c(xq), dtype=float) * triple.u_field(t)(xq)
        out[t] = em.detJ * float(vol.weights @ fv)
        for loc in range(3):
            flux = _flux_trace(triple, t, loc, erule.points)
            out[t] -= em.edge_lengths[loc] * float(erule.weights @ flux)
    return out


def reference_flux_jump_norms(triple):
    mesh = triple.mesh
    erule = ps.edge_rule(triple.space.degree + 3)
    norms = []
    for e in np.flatnonzero(~mesh.boundary):
        total = 0.0
        for t in mesh.edge_tris[e]:
            loc = int(np.flatnonzero(mesh.tri_edges[t] == e)[0])
            s = erule.points if mesh.tri_edge_aligned[t, loc] else 1.0 - erule.points
            total = total + _flux_trace(triple, t, loc, s)
        norms.append(float(np.sqrt(mesh.edge_lengths[e] * np.sum(erule.weights * total**2))))
    return np.array(norms)


def reference_energy_identity_residual(triple, q_exact, u_exact, data, quad_exactness=None):
    mesh, space = triple.mesh, triple.space
    k = space.degree
    if quad_exactness is None:
        quad_exactness = max(2 * k + 10, 16)
    qc, uc, lamc = reference_project_triple(triple, q_exact, u_exact, quad_exactness)
    eq, eu, elam = qc - triple.q_coeffs, uc - triple.u_coeffs, lamc - triple.lam
    vol, erule = ps.quadrature_rules(k, quad_exactness)
    Vhat = ps.vector_basis(space.flux_space, k).eval(vol.points)
    lhs = rhs = 0.0
    for t in range(mesh.num_triangles):
        em = mesh.element_map(t)
        xq = em.forward(vol.points)
        kinv = 1.0 / np.asarray(data.kappa(xq), dtype=float)
        vals = np.einsum("gqc,q->gc", Vhat, eq[t]) @ em.B.T / em.detJ
        lhs += em.detJ * float(vol.weights @ (kinv * np.einsum("gc,gc->g", vals, vals)))
        qproj = pj.LocalVectorField(em, space.flux_space, k, qc[t])
        diff = qproj(xq) - np.asarray(q_exact(xq), dtype=float)
        rhs += em.detJ * float(vol.weights @ (kinv * np.einsum("gc,gc->g", diff, vals)))
        if space.is_hdg:
            for loc in range(3):
                vals = pj.LocalScalarField(em, k, eu[t]).edge_values(loc, erule.points)
                vals = vals - _lam_values_local(mesh, elam, t, loc, erule.points)
                lhs += triple.tau[t, loc] * em.edge_lengths[loc] * float(erule.weights @ vals**2)
    return abs(lhs - rhs)

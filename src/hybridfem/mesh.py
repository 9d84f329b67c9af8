"""Triangle meshes and affine element geometry.

The reference triangle is the unit simplex with vertices (0,0), (1,0), (0,1).
Local edge ``i`` is the edge opposite local vertex ``i``, traversed
counter-clockwise, so edge 0 is the hypotenuse with outward normal
(1,1)/sqrt(2).  Physical triangles are stored counter-clockwise, which keeps
every element-map determinant positive.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateElement, NonConformingMesh, ParseError

__all__ = [
    "ReferenceTriangle",
    "ElementMap",
    "Mesh",
    "build_reference_map",
    "uniform_refine",
    "load_mesh",
    "loads_mesh",
    "unit_square",
]

_SQRT2 = float(np.sqrt(2.0))


def _cross2(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


class ReferenceTriangle:
    """Geometry of the reference unit simplex.

    Attributes:
        vertices: (3, 2) array, vertices (0,0), (1,0), (0,1).
        edge_vertices: (3, 2) int array; row i holds the local vertex ids of
            edge i in counter-clockwise traversal order.
        edge_normals: (3, 2) array of unit outward normals.
        edge_lengths: (3,) array; edge 0 (hypotenuse) has length sqrt(2).
        area: 1/2.
    """

    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    edge_vertices = np.array([[1, 2], [2, 0], [0, 1]])
    edge_normals = np.array([[1.0 / _SQRT2, 1.0 / _SQRT2], [-1.0, 0.0], [0.0, -1.0]])
    edge_lengths = np.array([_SQRT2, 1.0, 1.0])
    area = 0.5

    @classmethod
    def edge_points(cls, local_edge, t):
        """Points on local edge at parameters ``t`` in [0, 1] (start -> end)."""
        a, b = cls.edge_vertices[local_edge]
        p0, p1 = cls.vertices[a], cls.vertices[b]
        t = np.asarray(t, dtype=float)
        return p0 + t[:, None] * (p1 - p0)


@dataclass(frozen=True)
class ElementMap:
    """Affine map F(xhat) = B xhat + b from the reference triangle: the
    view of one element of a mesh's stacked geometry.

    ``det`` is the signed determinant of B; ``detJ`` its absolute value.
    ``edge_jacobians[i]`` is |a| on local edge i, the ratio of physical to
    reference edge length (the tangential Jacobian, constant per edge).
    """

    B: np.ndarray
    b: np.ndarray
    det: float
    detJ: float
    invB: np.ndarray
    vertices: np.ndarray
    edge_lengths: np.ndarray
    edge_jacobians: np.ndarray
    edge_normals: np.ndarray
    h: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "h", float(self.edge_lengths.max()))

    def forward(self, xhat):
        """Map reference points (n, 2) to physical points."""
        xhat = np.atleast_2d(np.asarray(xhat, dtype=float))
        return xhat @ self.B.T + self.b

    def inverse(self, x):
        """Map physical points (n, 2) to reference points."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return (x - self.b) @ self.invB.T

    def edge_points(self, local_edge, t):
        """Physical points on local edge at parameters ``t`` in [0, 1]."""
        return self.forward(ReferenceTriangle.edge_points(local_edge, t))


class _AffineMaps:
    """Affine maps F(xhat) = B xhat + b of stacked triangles, as arrays over
    the leading axis.  A mesh builds one for all its elements; an
    :class:`ElementMap` is the view of one entry.

    Attributes:
        corners: (n, 3, 2) vertices.
        B, invB: (n, 2, 2); det: (n,) signed determinants; detJ: (n,) |det|.
        edge_lengths, edge_jacobians: (n, 3) per local edge; the Jacobian is
            the ratio of physical to reference edge length.
        edge_normals: (n, 3, 2) unit outward normals per local edge.

    Raises DegenerateElement when a triangle is numerically collinear
    (|det B| below 1e-14 times its squared bounding-box scale).
    """

    def __init__(self, corners):
        self.corners = v = corners
        self.B = B = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1)
        self.det = det = B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]
        scale = np.maximum(
            np.maximum(np.abs(v).max(axis=(1, 2)), np.ptp(v, axis=1).max(axis=1)), 1e-30
        )
        bad = np.abs(det) < 1e-14 * scale * scale
        if bad.any():
            t = int(np.argmax(bad))
            raise DegenerateElement(f"triangle with vertices {v[t].tolist()} is degenerate")
        self.detJ = np.abs(det)
        self.invB = np.stack(
            [B[:, 1, 1], -B[:, 0, 1], -B[:, 1, 0], B[:, 0, 0]], axis=-1
        ).reshape(-1, 2, 2) / det[:, None, None]
        ev = ReferenceTriangle.edge_vertices
        tang = v[:, ev[:, 1]] - v[:, ev[:, 0]]
        self.edge_lengths = lengths = np.linalg.norm(tang, axis=-1)
        self.edge_jacobians = lengths / ReferenceTriangle.edge_lengths
        # CCW traversal has the outward normal at -90 degrees from the tangent.
        orient = np.where(det > 0, 1.0, -1.0)[:, None, None]
        self.edge_normals = np.stack([tang[..., 1], -tang[..., 0]], axis=-1) * orient / lengths[..., None]
        for a in vars(self).values():
            a.flags.writeable = False

    def __len__(self):
        return len(self.det)

    def forward(self, xhat):
        """Map reference points (m, 2) into every element, (n, m, 2)."""
        return np.einsum("ecd,gd->egc", self.B, xhat) + self.corners[:, None, 0, :]

    def edge_forward(self, t):
        """Points at the parameters t (m,) of every local edge, (n, 3, m, 2)."""
        xhat = np.vstack([ReferenceTriangle.edge_points(e, t) for e in range(3)])
        return self.forward(xhat).reshape(len(self), 3, len(t), 2)

    def __getitem__(self, t) -> ElementMap:
        return ElementMap(
            B=self.B[t],
            b=self.corners[t, 0],
            det=float(self.det[t]),
            detJ=float(self.detJ[t]),
            invB=self.invB[t],
            vertices=self.corners[t],
            edge_lengths=self.edge_lengths[t],
            edge_jacobians=self.edge_jacobians[t],
            edge_normals=self.edge_normals[t],
        )


def build_reference_map(triangle_vertices) -> ElementMap:
    """Build the affine map sending the reference vertices onto a triangle.

    Raises DegenerateElement when the vertices are numerically collinear
    (|det B| below 1e-14 times the squared bounding-box scale).
    """
    v = np.array(triangle_vertices, dtype=float)
    if v.shape != (3, 2):
        raise ValueError("expected three 2D vertices")
    return _AffineMaps(v[None])[0]


class Mesh:
    """Conforming triangulation with derived edge connectivity and element
    geometry.

    Triangles are re-oriented counter-clockwise on construction.  Edges are
    deduplicated; ``edge_tris[e] = (t_plus, t_minus)`` holds the owner
    triangle ids with ``t_plus < t_minus`` and ``t_minus = -1`` on the
    boundary.  Edges are numbered in lexicographic order of their sorted
    vertex pairs.  The stored edge direction (``edges[e] = (a, b)``) is chosen
    so that the right-handed normal of a->b is the outward normal of
    ``t_plus``, i.e. the global edge normal points from the lower- to the
    higher-id owner.

    Attributes:
        vertices: (nv, 2) float array.
        triangles: (nt, 3) int array, counter-clockwise.
        geometry: affine maps of all elements as stacked arrays (``B``,
            ``invB``, ``detJ``, and per local edge ``edge_lengths``,
            ``edge_jacobians`` and ``edge_normals``), computed once; a
            degenerate triangle raises DegenerateElement here.
        edges: (ne, 2) int array of directed vertex pairs.
        edge_tris: (ne, 2) int array of owner triangle ids.
        boundary: (ne,) bool array.
        edge_lengths: (ne,) global edge lengths.
        tri_edges: (nt, 3) int array; column i is the global id of the edge
            opposite local vertex i.
        tri_edge_aligned: (nt, 3) bool array; True where local edge i runs
            along the stored direction of its global edge.
        h: (nt,) triangle diameters (longest edge).
        rho: (nt,) inscribed-circle diameters, 2*area/semiperimeter.
        areas: (nt,) triangle areas.
    """

    def __init__(self, vertices, triangles):
        vertices = np.asarray(vertices, dtype=float)
        triangles = np.asarray(triangles, dtype=np.int64)
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError("triangles must be an (nt, 3) index array")
        if triangles.size and (triangles.min() < 0 or triangles.max() >= len(vertices)):
            raise ValueError("triangle vertex index out of range")

        # Normalize orientation: swap the last two vertices of clockwise cells.
        p = vertices[triangles]
        cross = _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        flip = cross < 0
        triangles = triangles.copy()
        triangles[flip] = triangles[flip][:, [0, 2, 1]]

        self.vertices = vertices
        self.triangles = triangles
        self.geometry = _AffineMaps(vertices[triangles])

        # Local edge i runs from local vertex i+1 to i+2 (mod 3); key each
        # by its sorted vertex pair.
        nt, nv = len(triangles), len(vertices)
        start, end = triangles[:, [1, 2, 0]], triangles[:, [2, 0, 1]]
        keys = np.minimum(start, end) * nv + np.maximum(start, end)
        codes, tri_edges, owners = np.unique(
            keys.ravel(), return_inverse=True, return_counts=True
        )
        if owners.size and owners.max() > 2:
            e = int(np.argmax(owners > 2))
            raise NonConformingMesh(
                f"edge {(int(codes[e] // nv), int(codes[e] % nv))} is owned by "
                f"{owners[e]} triangles"
            )
        # Local edges grouped by global edge, in increasing triangle order.
        order = np.argsort(tri_edges, kind="stable")
        first = np.cumsum(owners) - owners
        lead = order[first]
        second = np.where(owners == 2, order[np.minimum(first + 1, len(order) - 1)] // 3, -1)
        # Direct each edge along the lower-id owner's CCW traversal, so its
        # right-handed normal is outward for that owner.
        self.edges = np.stack([start.ravel()[lead], end.ravel()[lead]], axis=1)
        self.edge_tris = np.stack([lead // 3, second], axis=1)
        self.boundary = self.edge_tris[:, 1] < 0
        self.tri_edges = tri_edges.reshape(nt, 3)
        self.tri_edge_aligned = self.edges[self.tri_edges, 0] == start

        sides = self.geometry.edge_lengths
        self.areas = 0.5 * self.geometry.detJ
        self.h = sides.max(axis=1)
        self.rho = 2.0 * self.areas / (0.5 * sides.sum(axis=1))
        self.edge_lengths = np.linalg.norm(
            vertices[self.edges[:, 1]] - vertices[self.edges[:, 0]], axis=1
        )

    # -- derived quantities -------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def num_boundary_edges(self):
        return int(self.boundary.sum())

    @property
    def h_max(self):
        return float(self.h.max())

    def shape_regularity(self):
        """Largest ratio h_K / rho_K over the mesh (reported, never enforced)."""
        return float((self.h / self.rho).max())

    def element_maps(self):
        """Per-element views of the affine maps."""
        return [self.geometry[t] for t in range(self.num_triangles)]

    def element_map(self, t):
        return self.geometry[t]

    def edge_unit_normal(self, e):
        """Global unit normal of edge e (outward for the lower-id owner)."""
        a, b = self.edges[e]
        t = self.vertices[b] - self.vertices[a]
        n = np.array([t[1], -t[0]])
        return n / np.linalg.norm(n)


def unit_square(n: int) -> Mesh:
    """Criss-cross mesh of the unit square with 2*n^2 triangles.

    The (n+1)^2 grid vertices are split square-by-square along alternating
    diagonals, which keeps the mesh symmetric under quarter turns.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs)
    verts = np.column_stack([X.ravel(), Y.ravel()])
    j, i = np.divmod(np.arange(n * n), n)
    v00 = j * (n + 1) + i
    v10, v01 = v00 + 1, v00 + (n + 1)
    v11 = v01 + 1
    even = ((i + j) % 2 == 0)[:, None]
    first = np.where(even, np.stack([v00, v10, v11], axis=1), np.stack([v00, v10, v01], axis=1))
    second = np.where(even, np.stack([v00, v11, v01], axis=1), np.stack([v10, v11, v01], axis=1))
    return Mesh(verts, np.stack([first, second], axis=1).reshape(-1, 3))


def uniform_refine(mesh: Mesh) -> Mesh:
    """Red refinement: split every triangle into four by edge midpoints."""
    verts = np.vstack(
        [
            mesh.vertices,
            0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]]),
        ]
    )
    a, b, c = mesh.triangles.T
    m0, m1, m2 = (mesh.num_vertices + mesh.tri_edges).T  # midpoint opposite each vertex
    tris = np.stack([a, m2, m1, m2, b, m0, m1, m0, c, m0, m1, m2], axis=1)
    return Mesh(verts, tris.reshape(-1, 3))


def loads_mesh(text: str) -> Mesh:
    """Parse a mesh from text.

    Format: first non-empty line ``nv nt``; then nv lines ``x y``; then nt
    lines ``i j k`` with 0-based vertex indices.  Edges and boundary flags are
    always derived, never read.
    """
    lines = text.splitlines()
    # Pair each payload line with its 1-based line number, skipping blanks.
    payload = [
        (num, line.split()) for num, line in enumerate(lines, start=1) if line.strip()
    ]
    if not payload:
        raise ParseError("empty mesh file")
    num, head = payload[0]
    if len(head) != 2:
        raise ParseError("expected header 'nv nt'", line=num)
    try:
        nv, nt = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("header entries must be integers", line=num) from None
    if nv < 3:
        raise ParseError("need at least three vertices", line=num)
    if nt < 1:
        raise ParseError("empty triangle list", line=num)
    if len(payload) - 1 < nv + nt:
        raise ParseError(
            f"expected {nv + nt} data lines, found {len(payload) - 1}",
            line=payload[-1][0],
        )
    verts = np.empty((nv, 2))
    for row, (num, tok) in enumerate(payload[1 : 1 + nv]):
        if len(tok) != 2:
            raise ParseError("expected 'x y'", line=num)
        try:
            verts[row] = (float(tok[0]), float(tok[1]))
        except ValueError:
            raise ParseError("vertex coordinates must be numbers", line=num) from None
        if not np.isfinite(verts[row]).all():
            raise ParseError("vertex coordinates must be finite", line=num)
    tris = np.empty((nt, 3), dtype=np.int64)
    for row, (num, tok) in enumerate(payload[1 + nv : 1 + nv + nt]):
        if len(tok) != 3:
            raise ParseError("expected 'i j k'", line=num)
        try:
            tris[row] = (int(tok[0]), int(tok[1]), int(tok[2]))
        except ValueError:
            raise ParseError("triangle entries must be integers", line=num) from None
        if tris[row].min() < 0 or tris[row].max() >= nv:
            raise ParseError("vertex index out of range", line=num)
        if len(set(tris[row])) != 3:
            raise ParseError("triangle repeats a vertex", line=num)
    return Mesh(verts, tris)


def load_mesh(path) -> Mesh:
    """Read a mesh file (see :func:`loads_mesh` for the format)."""
    if isinstance(path, io.TextIOBase):
        return loads_mesh(path.read())
    with open(path, "r", encoding="utf-8") as fh:
        return loads_mesh(fh.read())

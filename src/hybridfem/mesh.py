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
    perimeter = 2.0 + _SQRT2

    @classmethod
    def edge_points(cls, local_edge, t):
        """Points on local edge at parameters ``t`` in [0, 1] (start -> end)."""
        a, b = cls.edge_vertices[local_edge]
        p0, p1 = cls.vertices[a], cls.vertices[b]
        t = np.asarray(t, dtype=float)
        return p0 + t[:, None] * (p1 - p0)


@dataclass(frozen=True)
class ElementMap:
    """Affine map F(xhat) = B xhat + b from the reference triangle.

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
        a, b = ReferenceTriangle.edge_vertices[local_edge]
        p0, p1 = self.vertices[a], self.vertices[b]
        t = np.asarray(t, dtype=float)
        return p0 + t[:, None] * (p1 - p0)


def build_reference_map(triangle_vertices) -> ElementMap:
    """Build the affine map sending the reference vertices onto a triangle.

    Raises DegenerateElement when the vertices are numerically collinear
    (|det B| below 1e-14 times the squared bounding-box scale).
    """
    v = np.asarray(triangle_vertices, dtype=float)
    if v.shape != (3, 2):
        raise ValueError("expected three 2D vertices")
    B = np.column_stack([v[1] - v[0], v[2] - v[0]])
    det = float(B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0])
    scale = max(float(np.abs(v).max()), float(np.ptp(v, axis=0).max()), 1e-30)
    if abs(det) < 1e-14 * scale * scale:
        raise DegenerateElement(f"triangle with vertices {v.tolist()} is degenerate")
    invB = np.array([[B[1, 1], -B[0, 1]], [-B[1, 0], B[0, 0]]]) / det
    lengths = np.array(
        [
            float(np.linalg.norm(v[2] - v[1])),
            float(np.linalg.norm(v[0] - v[2])),
            float(np.linalg.norm(v[1] - v[0])),
        ]
    )
    jac = lengths / ReferenceTriangle.edge_lengths
    orient = 1.0 if det > 0 else -1.0
    normals = np.empty((3, 2))
    for i in range(3):
        a, b = ReferenceTriangle.edge_vertices[i]
        tang = v[b] - v[a]
        # CCW traversal has the outward normal at -90 degrees from the tangent.
        n = np.array([tang[1], -tang[0]]) * orient
        normals[i] = n / np.linalg.norm(n)
    return ElementMap(
        B=B,
        b=v[0].copy(),
        det=det,
        detJ=abs(det),
        invB=invB,
        vertices=v.copy(),
        edge_lengths=lengths,
        edge_jacobians=jac,
        edge_normals=normals,
    )


class Mesh:
    """Conforming triangulation with derived edge connectivity.

    Triangles are re-oriented counter-clockwise on construction.  Edges are
    deduplicated; ``edge_tris[e] = (t_plus, t_minus)`` holds the owner
    triangle ids with ``t_plus < t_minus`` and ``t_minus = -1`` on the
    boundary.  The stored edge direction (``edges[e] = (a, b)``) is chosen so
    that the right-handed normal of a->b is the outward normal of ``t_plus``,
    i.e. the global edge normal points from the lower- to the higher-id owner.

    Attributes:
        vertices: (nv, 2) float array.
        triangles: (nt, 3) int array, counter-clockwise.
        edges: (ne, 2) int array of directed vertex pairs.
        edge_tris: (ne, 2) int array of owner triangle ids.
        boundary: (ne,) bool array.
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

        owners: dict[tuple[int, int], list[int]] = {}
        for t, tri in enumerate(triangles):
            for i in range(3):
                a, b = tri[(i + 1) % 3], tri[(i + 2) % 3]
                key = (min(a, b), max(a, b))
                owners.setdefault(key, []).append(t)
        for key, tris in owners.items():
            if len(tris) > 2:
                raise NonConformingMesh(
                    f"edge {key} is owned by {len(tris)} triangles"
                )

        keys = sorted(owners)
        ne = len(keys)
        edges = np.empty((ne, 2), dtype=np.int64)
        edge_tris = np.full((ne, 2), -1, dtype=np.int64)
        index = {}
        for e, key in enumerate(keys):
            index[key] = e
            tris = sorted(owners[key])
            edge_tris[e, 0] = tris[0]
            if len(tris) == 2:
                edge_tris[e, 1] = tris[1]
            # Direct the edge so its right-handed normal is outward for the
            # lower-id owner (CCW traversal of that triangle).
            tri = triangles[tris[0]]
            loc = [i for i in range(3) if key[0] in (tri[(i + 1) % 3], tri[(i + 2) % 3]) and key[1] in (tri[(i + 1) % 3], tri[(i + 2) % 3])][0]
            edges[e] = (tri[(loc + 1) % 3], tri[(loc + 2) % 3])

        self.edges = edges
        self.edge_tris = edge_tris
        self.boundary = edge_tris[:, 1] < 0

        tri_edges = np.empty((len(triangles), 3), dtype=np.int64)
        for t, tri in enumerate(triangles):
            for i in range(3):
                a, b = tri[(i + 1) % 3], tri[(i + 2) % 3]
                tri_edges[t, i] = index[(min(a, b), max(a, b))]
        self.tri_edges = tri_edges
        # local edge i runs from local vertex i+1 to i+2 (mod 3)
        self.tri_edge_aligned = edges[tri_edges, 0] == triangles[:, [1, 2, 0]]

        p = vertices[triangles]
        sides = np.stack(
            [
                np.linalg.norm(p[:, 2] - p[:, 1], axis=1),
                np.linalg.norm(p[:, 0] - p[:, 2], axis=1),
                np.linalg.norm(p[:, 1] - p[:, 0], axis=1),
            ],
            axis=1,
        )
        self.areas = 0.5 * np.abs(_cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]))
        self.h = sides.max(axis=1)
        self.rho = 2.0 * self.areas / (0.5 * sides.sum(axis=1))
        self.edge_lengths = np.linalg.norm(
            vertices[edges[:, 1]] - vertices[edges[:, 0]], axis=1
        )

        self._maps: list[ElementMap] | None = None

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
        """Affine maps of all elements (built once, cached)."""
        if self._maps is None:
            self._maps = [
                build_reference_map(self.vertices[tri]) for tri in self.triangles
            ]
        return self._maps

    def element_map(self, t):
        return self.element_maps()[t]

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
    verts = np.array([[x, y] for y in xs for x in xs])
    tris = []
    for j in range(n):
        for i in range(n):
            v00 = j * (n + 1) + i
            v10 = v00 + 1
            v01 = v00 + (n + 1)
            v11 = v01 + 1
            if (i + j) % 2 == 0:
                tris.append((v00, v10, v11))
                tris.append((v00, v11, v01))
            else:
                tris.append((v00, v10, v01))
                tris.append((v10, v11, v01))
    return Mesh(verts, np.array(tris))


def uniform_refine(mesh: Mesh) -> Mesh:
    """Red refinement: split every triangle into four by edge midpoints."""
    nv = mesh.num_vertices
    mid = nv + np.arange(mesh.num_edges)
    verts = np.vstack(
        [
            mesh.vertices,
            0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]]),
        ]
    )
    tris = np.empty((4 * mesh.num_triangles, 3), dtype=np.int64)
    for t, tri in enumerate(mesh.triangles):
        m = mid[mesh.tri_edges[t]]  # midpoint opposite each local vertex
        a, b, c = tri
        tris[4 * t + 0] = (a, m[2], m[1])
        tris[4 * t + 1] = (m[2], b, m[0])
        tris[4 * t + 2] = (m[1], m[0], c)
        tris[4 * t + 3] = (m[0], m[1], m[2])
    return Mesh(verts, tris)


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

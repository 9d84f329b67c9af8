"""Triangle meshes and affine element geometry.

The reference triangle is the unit simplex with vertices (0,0), (1,0), (0,1).
Local edge ``i`` is the edge opposite local vertex ``i``, traversed
counter-clockwise, so edge 0 is the hypotenuse with outward normal
(1,1)/sqrt(2).  Physical triangles are stored counter-clockwise, which keeps
every element-map determinant positive.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DegenerateElement, NonConformingMesh, ParseError

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


@lru_cache(maxsize=None)
def _edge_xhat(t):
    """Reference points (3 m, 2) at the parameters t (a tuple of m) of the
    three local edges, read-only: tabulated once per rule."""
    xhat = np.vstack([ReferenceTriangle.edge_points(e, t) for e in range(3)])
    xhat.flags.writeable = False
    return xhat


@dataclass(frozen=True)
class ElementMap:
    """Affine maps F(xhat) = B xhat + b from the reference triangle, with
    b the first vertex: either stacked over a leading element axis (a
    mesh's ``geometry``, built once by :meth:`of`) or one element's arrays
    with no leading axis (a view from :meth:`rows`).

    Attributes:
        vertices: (..., 3, 2) vertices.
        B, invB: (..., 2, 2); det: (...) signed determinants; detJ: |det|.
        edge_lengths, edge_jacobians: (..., 3) per local edge; the Jacobian
            |a| is the ratio of physical to reference edge length.
        edge_normals: (..., 3, 2) unit outward normals per local edge.
    """

    vertices: np.ndarray
    B: np.ndarray
    det: np.ndarray
    detJ: np.ndarray
    invB: np.ndarray
    edge_lengths: np.ndarray
    edge_jacobians: np.ndarray
    edge_normals: np.ndarray

    @classmethod
    def of(cls, vertices) -> ElementMap:
        """The stacked maps of the triangles ``vertices`` (n, 3, 2), as
        read-only arrays.

        Raises DegenerateElement when a triangle is numerically collinear
        (|det B| below 1e-14 times its squared bounding-box scale).
        """
        v = vertices
        B = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1)
        det = B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]
        scale = np.maximum(
            np.maximum(np.abs(v).max(axis=(1, 2)), np.ptp(v, axis=1).max(axis=1)), 1e-30
        )
        bad = np.abs(det) < 1e-14 * scale * scale
        if bad.any():
            t = int(np.argmax(bad))
            raise DegenerateElement(f"triangle with vertices {v[t].tolist()} is degenerate")
        invB = np.stack(
            [B[:, 1, 1], -B[:, 0, 1], -B[:, 1, 0], B[:, 0, 0]], axis=-1
        ).reshape(-1, 2, 2) / det[:, None, None]
        ev = ReferenceTriangle.edge_vertices
        tang = v[:, ev[:, 1]] - v[:, ev[:, 0]]
        lengths = np.linalg.norm(tang, axis=-1)
        # CCW traversal has the outward normal at -90 degrees from the tangent.
        orient = np.where(det > 0, 1.0, -1.0)[:, None, None]
        normals = np.stack([tang[..., 1], -tang[..., 0]], axis=-1) * orient / lengths[..., None]
        maps = cls(v, B, det, np.abs(det), invB, lengths,
                   lengths / ReferenceTriangle.edge_lengths, normals)
        for a in vars(maps).values():
            a.flags.writeable = False
        return maps

    def __len__(self):
        return len(self.det)

    @property
    def b(self):
        return self.vertices[..., 0, :]

    @property
    def h(self):
        """Diameter, the longest edge."""
        return self.edge_lengths.max(axis=-1)

    def rows(self, sl) -> ElementMap:
        """Views of these arrays, nothing recomputed: the block of elements
        ``sl`` (a slice), one element (an int), or, with None, this one
        element as a batch of one (a field given as a float included)."""
        return ElementMap(**{name: np.asarray(a)[sl] for name, a in vars(self).items()})

    def forward(self, xhat):
        """Map reference points (m, 2) into the element, (m, 2), or into
        every element of a stack, (n, m, 2)."""
        xhat = np.atleast_2d(np.asarray(xhat, dtype=float))
        return xhat @ np.swapaxes(self.B, -1, -2) + self.b[..., None, :]

    def inverse(self, x):
        """Map physical points (m, 2), or (n, m, 2) for a stack, to
        reference points."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return (x - self.b[..., None, :]) @ np.swapaxes(self.invB, -1, -2)

    def edge_points(self, local_edge, t):
        """Physical points on local edge at parameters ``t`` in [0, 1]."""
        return self.forward(ReferenceTriangle.edge_points(local_edge, t))

    def edge_forward(self, t):
        """Points at the parameters t (m,) of every local edge of a stack,
        (n, 3, m, 2)."""
        xhat = _edge_xhat(tuple(np.asarray(t, dtype=float)))
        return self.forward(xhat).reshape(len(self), 3, len(t), 2)


def build_reference_map(triangle_vertices) -> ElementMap:
    """Build the affine map sending the reference vertices onto a triangle.

    Raises DegenerateElement when the input is not three 2D vertices, a
    vertex is not finite, or the vertices are numerically collinear (|det B|
    below 1e-14 times the squared bounding-box scale).
    """
    v = np.array(triangle_vertices, dtype=float)
    if v.shape != (3, 2):
        raise DegenerateElement("expected three 2D vertices")
    if not np.isfinite(v).all():
        raise DegenerateElement(f"triangle with vertices {v.tolist()} is not finite")
    return ElementMap.of(v[None]).rows(0)


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
    higher-id owner.  A triangle array that is not (nt, 3) or indexes a
    missing vertex, an edge with more than two owners, or a triangle listed
    twice in any vertex order raises NonConformingMesh.

    Attributes:
        vertices: (nv, 2) float array.
        triangles: (nt, 3) int array, counter-clockwise.
        geometry: the :class:`ElementMap` of all elements, stacked and
            computed once; ``element_map(t)`` is its view of element t.  A
            degenerate triangle raises DegenerateElement here, as does a
            non-finite vertex.
        edges: (ne, 2) int array of directed vertex pairs.
        edge_tris: (ne, 2) int array of owner triangle ids.
        boundary: (ne,) bool array.
        interior_edges: (ni,) int array, the ids of the edges off the
            boundary in increasing order.
        edge_lengths: (ne,) global edge lengths.
        tri_edges: (nt, 3) int array; column i is the global id of the edge
            opposite local vertex i.
        tri_edge_aligned: (nt, 3) bool array; True where local edge i runs
            along the stored direction of its global edge.
        h: (nt,) triangle diameters (longest edge).
        areas: (nt,) triangle areas.
    """

    def __init__(self, vertices, triangles):
        vertices = np.asarray(vertices, dtype=float)
        triangles = np.asarray(triangles, dtype=np.int64)
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise NonConformingMesh("triangles must be an (nt, 3) index array")
        if triangles.size and (triangles.min() < 0 or triangles.max() >= len(vertices)):
            raise NonConformingMesh("triangle vertex index out of range")
        # before the orientation test: a NaN determinant passes every size test
        if not np.isfinite(vertices).all():
            raise DegenerateElement("vertex coordinates must be finite")

        # Normalize orientation: swap the last two vertices of clockwise cells.
        p = vertices[triangles]
        cross = _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        flip = cross < 0
        triangles = triangles.copy()
        triangles[flip] = triangles[flip][:, [0, 2, 1]]

        self.vertices = vertices
        self.triangles = triangles
        self.geometry = ElementMap.of(vertices[triangles])

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
        self.interior_edges = np.flatnonzero(~self.boundary)
        self.tri_edges = tri_edges.reshape(nt, 3)
        # Two triangles sharing two edges share all three vertices: a
        # triangle listed twice, whose copies own every edge together.
        across = self.edge_tris[self.tri_edges[:, :2]].sum(axis=2) - np.arange(nt)[:, None]
        twin = (across[:, 0] == across[:, 1]) & (across[:, 0] >= 0)
        if twin.any():
            t = int(np.argmax(twin))
            raise NonConformingMesh(
                f"triangles {t} and {int(across[t, 0])} have the same vertices "
                f"{sorted(triangles[t].tolist())}"
            )
        self.tri_edge_aligned = self.edges[self.tri_edges, 0] == start

        self.areas = 0.5 * self.geometry.detJ
        self.h = self.geometry.h
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
    def h_max(self):
        return float(self.h.max())

    def element_maps(self):
        """Per-element views of the affine maps."""
        return [self.geometry.rows(t) for t in range(self.num_triangles)]

    def element_map(self, t):
        return self.geometry.rows(t)


def unit_square(n: int) -> Mesh:
    """Criss-cross mesh of the unit square with 2*n^2 triangles.

    The (n+1)^2 grid vertices are split square-by-square along alternating
    diagonals, which keeps the mesh symmetric under quarter turns.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
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
    always derived, never read.  Malformed, missing or surplus lines,
    coordinates that are not finite or exceed 1e150 in magnitude, and
    out-of-range or repeated vertex indices raise ParseError with the line
    number.  A leading byte-order mark (U+FEFF) is dropped.
    """
    lines = text.removeprefix("\ufeff").splitlines()
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
    found = len(payload) - 1
    if found != nv + nt:
        # the last line when lines are missing, the first surplus line else
        raise ParseError(
            f"expected {nv + nt} data lines, found {found}",
            line=payload[min(found, nv + nt + 1)][0],
        )
    verts = np.empty((nv, 2))
    for row, (num, tok) in enumerate(payload[1 : 1 + nv]):
        if len(tok) != 2:
            raise ParseError("expected 'x y'", line=num)
        try:
            verts[row] = (float(tok[0]), float(tok[1]))
        except ValueError:
            raise ParseError("vertex coordinates must be numbers", line=num) from None
        # the element geometry multiplies coordinate differences pairwise
        if not (np.abs(verts[row]) <= 1e150).all():
            raise ParseError("vertex coordinates must be finite and at most 1e150", line=num)
    tris = np.empty((nt, 3), dtype=np.int64)
    for row, (num, tok) in enumerate(payload[1 + nv : 1 + nv + nt]):
        if len(tok) != 3:
            raise ParseError("expected 'i j k'", line=num)
        try:
            idx = [int(t) for t in tok]
        except ValueError:
            raise ParseError("triangle entries must be integers", line=num) from None
        # checked as Python ints, before they must fit the int64 array
        if min(idx) < 0 or max(idx) >= nv:
            raise ParseError("vertex index out of range", line=num)
        if len(set(idx)) != 3:
            raise ParseError("triangle repeats a vertex", line=num)
        tris[row] = idx
    return Mesh(verts, tris)


def load_mesh(path) -> Mesh:
    """Read a mesh file (see :func:`loads_mesh` for the format); a file that
    is not UTF-8 text raises ParseError.  ``path`` may also be an open text
    stream."""
    try:
        if isinstance(path, io.TextIOBase):
            text = path.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"mesh file is not UTF-8 text: {exc.reason}") from None
    return loads_mesh(text)

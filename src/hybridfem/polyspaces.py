"""Polynomial bases, boundary bases, and quadrature on the reference triangle.

Scalar bases are L2(Khat)-orthonormal, built by exact rational LDL^T
factorization of the monomial Gram matrix over the graded monomial list
(degree blocks, descending x-power inside a block).  The grading makes the
family hierarchical: the first dim P_{k-1} functions span P_{k-1}, and the
trailing degree-k block spans the orthogonal complement of P_{k-1} in P_k.

Vector bases reuse the scalar family: the full space pairs scalars with the
two coordinate directions, the Raviart-Thomas space appends x-weighted
degree-k scalars, and the rotated space is its quarter-turn in 2D.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from .errors import UnsupportedDegree
from .mesh import ReferenceTriangle

__all__ = [
    "monomial_exponents",
    "monomial_eval",
    "scalar_dim",
    "face_space_dim",
    "rt_dim",
    "vector_dim",
    "SpaceDescriptor",
    "PolyFamily",
    "ScalarBasis",
    "VectorBasis",
    "scalar_basis",
    "orthocomplement_basis",
    "vector_basis",
    "FaceBasis",
    "legendre01",
    "QuadratureRule",
    "triangle_rule",
    "edge_rule",
    "quadrature_rules",
    "packed_gram_table",
    "packed_positions",
    "compose_affine",
    "boundary_decomposition_check",
    "divergence_surjectivity_check",
]

MAX_SCALAR_DEGREE = 6
_SUPPORTED = {"rt": range(0, 4), "bdm": range(1, 4), "hdg": range(0, 4)}


def scalar_dim(k: int) -> int:
    """dim P_k in two variables: (k+1)(k+2)/2; zero for k < 0."""
    return 0 if k < 0 else (k + 1) * (k + 2) // 2


def face_space_dim(k: int) -> int:
    """dim of the product of edgewise P_k over the three edges."""
    return 3 * (k + 1)


def rt_dim(k: int) -> int:
    """dim RT_k = 2*dim P_k + (k+1) in 2D."""
    return 2 * scalar_dim(k) + (k + 1)


def vector_dim(tag: str, k: int) -> int:
    if tag == "P":
        return 2 * scalar_dim(k)
    if tag in ("RT", "N"):
        return 0 if k < 0 else rt_dim(k)
    raise UnsupportedDegree(f"unknown vector space tag {tag!r}")


@dataclass(frozen=True)
class SpaceDescriptor:
    """Method tag plus integer degree (not a bool); fixes all three local spaces."""

    method: str
    degree: int

    def __post_init__(self):
        if self.method not in _SUPPORTED:
            raise UnsupportedDegree(f"unknown method {self.method!r}")
        if not np.issubdtype(type(self.degree), np.integer) or self.degree not in _SUPPORTED[self.method]:
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
        return vector_dim(self.flux_space, self.degree)

    @property
    def scalar_dim(self) -> int:
        return scalar_dim(self.scalar_degree)

    @property
    def face_dim(self) -> int:
        return self.degree + 1

    @property
    def is_hdg(self) -> bool:
        return self.method == "hdg"


@lru_cache(maxsize=None)
def monomial_exponents(k: int):
    """Graded monomial exponent list [(a, b)] for total degree <= k."""
    return tuple((d - j, j) for d in range(k + 1) for j in range(d + 1))


def monomial_eval(exps, points):
    """Vandermonde matrix (npts, nmono) of x^a y^b at the given points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    out = np.empty((len(pts), len(exps)))
    for m, (a, b) in enumerate(exps):
        out[:, m] = x**a * y**b
    return out


@lru_cache(maxsize=None)
def _deriv_matrix(k: int, var: int):
    """Matrix sending monomial coefficients (degree <= k) to the coefficients
    of the partial derivative, expressed over the same exponent list."""
    exps = monomial_exponents(k)
    index = {e: i for i, e in enumerate(exps)}
    D = np.zeros((len(exps), len(exps)))
    for m, (a, b) in enumerate(exps):
        if var == 0 and a > 0:
            D[index[(a - 1, b)], m] = a
        if var == 1 and b > 0:
            D[index[(a, b - 1)], m] = b
    return D


@lru_cache(maxsize=None)
def _shift_matrix(k: int, var: int):
    """Matrix for multiplication by x (var=0) or y (var=1), mapping
    coefficients over degree-<=k monomials to degree-<=k+1 coefficients."""
    src = monomial_exponents(k)
    dst = monomial_exponents(k + 1)
    index = {e: i for i, e in enumerate(dst)}
    M = np.zeros((len(dst), len(src)))
    for m, (a, b) in enumerate(src):
        tgt = (a + 1, b) if var == 0 else (a, b + 1)
        M[index[tgt], m] = 1.0
    return M


def _reference_moment(a: int, b: int) -> Fraction:
    """Exact integral of x^a y^b over the reference triangle."""
    return Fraction(factorial(a) * factorial(b), factorial(a + b + 2))


@lru_cache(maxsize=None)
def _orthonormal_coeffs(kmax: int):
    """Columns of the orthonormal scalar basis in monomial coordinates.

    The Gram matrix is factored as L D L^T in exact rational arithmetic;
    the coefficient matrix L^{-T} D^{-1/2} is upper triangular, so function m
    has leading monomial m and the family is graded.
    """
    exps = monomial_exponents(kmax)
    n = len(exps)
    G = [[_reference_moment(exps[i][0] + exps[j][0], exps[i][1] + exps[j][1]) for j in range(n)] for i in range(n)]
    L = [[Fraction(0)] * n for _ in range(n)]
    D = [Fraction(0)] * n
    for j in range(n):
        D[j] = G[j][j] - sum(L[j][s] * L[j][s] * D[s] for s in range(j))
        L[j][j] = Fraction(1)
        for i in range(j + 1, n):
            L[i][j] = (G[i][j] - sum(L[i][s] * L[j][s] * D[s] for s in range(j))) / D[j]
    # Back substitution for X = L^{-T}: column c solves L^T x = e_c.
    X = [[Fraction(0)] * n for _ in range(n)]
    for c in range(n):
        for i in range(c, -1, -1):
            rhs = Fraction(1) if i == c else Fraction(0)
            rhs -= sum(L[r][i] * X[r][c] for r in range(i + 1, c + 1))
            X[i][c] = rhs
    C = np.array([[float(X[i][j]) for j in range(n)] for i in range(n)])
    C /= np.sqrt(np.array([float(d) for d in D]))[None, :]
    C.flags.writeable = False
    return C


class PolyFamily:
    """A finite family of scalar polynomials in monomial coordinates.

    ``coeffs`` has shape (nmono, dim); column j holds the monomial
    coefficients of the j-th function over ``exps``.
    """

    def __init__(self, exps, coeffs):
        self.exps = exps
        self.coeffs = np.asarray(coeffs, dtype=float)

    @property
    def dim(self):
        return self.coeffs.shape[1]

    def eval(self, points):
        return monomial_eval(self.exps, points) @ self.coeffs

    def grad(self, points):
        k = max(a + b for a, b in self.exps)
        V = monomial_eval(self.exps, points)
        gx = V @ (_deriv_matrix(k, 0) @ self.coeffs)
        gy = V @ (_deriv_matrix(k, 1) @ self.coeffs)
        return np.stack([gx, gy], axis=-1)


class ScalarBasis(PolyFamily):
    """Orthonormal basis of P_k on the reference triangle."""

    def __init__(self, degree: int):
        if degree < 0 or degree > MAX_SCALAR_DEGREE:
            raise UnsupportedDegree(f"scalar degree {degree} outside [0, {MAX_SCALAR_DEGREE}]")
        C = _orthonormal_coeffs(MAX_SCALAR_DEGREE)
        n = scalar_dim(degree)
        exps = monomial_exponents(degree)
        super().__init__(exps, C[: len(exps), :n])
        self.degree = degree


@lru_cache(maxsize=None)
def scalar_basis(k: int) -> ScalarBasis:
    return ScalarBasis(k)


@lru_cache(maxsize=None)
def orthocomplement_basis(k: int) -> PolyFamily:
    """Orthonormal basis of the L2-orthogonal complement of P_{k-1} in P_k.

    These are the k+1 trailing functions of the graded orthonormal family;
    for k = 0 the single function is the constant sqrt(2).
    """
    basis = scalar_basis(k)
    return PolyFamily(basis.exps, basis.coeffs[:, scalar_dim(k - 1) :])


class VectorBasis:
    """Basis of a vector polynomial space on the reference triangle.

    ``tag`` selects the space: "P" for full degree-k vector polynomials,
    "RT" for the Raviart-Thomas space P_k^2 + x * (degree-k scalars), and
    "N" for its quarter-turn rotation (the 2D rotated space used for the
    internal BDM moments).  ``coeffs`` has shape (dim, 2, nmono).
    """

    def __init__(self, tag: str, degree: int):
        if degree < -1:
            raise UnsupportedDegree("vector degree must be >= -1")
        store_degree = degree if tag == "P" else degree + 1
        store_degree = max(store_degree, 0)
        exps = monomial_exponents(store_degree)
        nmono = len(exps)
        sdim = scalar_dim(degree)
        scal = scalar_basis(max(degree, 0))

        # The graded monomial lists are nested, so the P_k^2 part, (phi_j, 0)
        # and (0, phi_j), is the scalar coefficients padded with zeros.
        coeffs = np.zeros((vector_dim(tag, degree), 2, nmono))
        c = scal.coeffs[:, :sdim].T
        coeffs[0 : 2 * sdim : 2, 0, : c.shape[1]] = c
        coeffs[1 : 2 * sdim : 2, 1, : c.shape[1]] = c
        if tag != "P" and degree >= 0:
            # x * (the orthogonal complement of P_{k-1} in P_k)
            shift = np.stack([_shift_matrix(degree, 0), _shift_matrix(degree, 1)])
            coeffs[2 * sdim :] = (shift @ orthocomplement_basis(degree).coeffs).transpose(2, 0, 1)
        if tag == "N":
            coeffs = np.stack([-coeffs[:, 1, :], coeffs[:, 0, :]], axis=1)

        self.tag = tag
        self.degree = degree
        self.exps = exps
        self.coeffs = coeffs

    @property
    def dim(self):
        return self.coeffs.shape[0]

    def eval(self, points):
        """Values (npts, dim, 2)."""
        V = monomial_eval(self.exps, points)
        return np.einsum("pm,dcm->pdc", V, self.coeffs)

    def div(self, points):
        """Divergences (npts, dim)."""
        return monomial_eval(self.exps, points) @ self.div_coeffs()

    def div_coeffs(self):
        """Monomial coefficients of the divergences, shape (nmono, dim)."""
        k = max(a + b for a, b in self.exps)
        return _deriv_matrix(k, 0) @ self.coeffs[:, 0, :].T + _deriv_matrix(k, 1) @ self.coeffs[:, 1, :].T

    def normal_trace(self, local_edge, t):
        """q . nhat on a local reference edge at parameters t, (npts, dim)."""
        pts = ReferenceTriangle.edge_points(local_edge, np.asarray(t, dtype=float))
        vals = self.eval(pts)
        return vals @ ReferenceTriangle.edge_normals[local_edge]


@lru_cache(maxsize=None)
def vector_basis(tag: str, degree: int) -> VectorBasis:
    return VectorBasis(tag, degree)


def legendre01(k: int, t):
    """Shifted Legendre values (npts, k+1), orthonormal in L2(0, 1)."""
    t = np.asarray(t, dtype=float)
    s = 2.0 * t - 1.0
    out = np.empty((len(t), k + 1))
    for i in range(k + 1):
        c = np.zeros(i + 1)
        c[i] = 1.0
        out[:, i] = np.sqrt(2 * i + 1) * np.polynomial.legendre.legval(s, c)
    return out


class FaceBasis:
    """Edgewise polynomial basis on the reference triangle boundary.

    On each local edge the k+1 functions are Legendre polynomials in the
    edge parameter, normalized to be orthonormal in the reference arc
    length.  The full boundary space is edge-major: block e holds the
    functions supported on local edge e only.
    """

    def __init__(self, degree: int):
        if degree < 0:
            raise UnsupportedDegree("face degree must be >= 0")
        self.degree = degree
        self.dim = face_space_dim(degree)

    def eval_edge(self, local_edge: int, t):
        """Values of the k+1 functions of one edge block, (npts, k+1)."""
        L = ReferenceTriangle.edge_lengths[local_edge]
        return legendre01(self.degree, t) / np.sqrt(L)


@dataclass(frozen=True)
class QuadratureRule:
    """Points and positive weights with a declared polynomial exactness."""

    points: np.ndarray
    weights: np.ndarray
    exactness: int


@lru_cache(maxsize=None)
def triangle_rule(exactness: int) -> QuadratureRule:
    """Collapsed Gauss-Legendre rule on the reference triangle.

    The square (u, v) in [0,1]^2 is mapped by (u, v(1-u)); with n Gauss
    points per direction the rule is exact for total degree 2n-2, so n is
    chosen as ceil((exactness + 2) / 2).  All weights are positive.
    """
    if exactness < 0:
        raise UnsupportedDegree("exactness must be >= 0")
    n = (exactness + 3) // 2
    x, w = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    U, V = np.meshgrid(u, u, indexing="ij")
    WU, WV = np.meshgrid(wu, wu, indexing="ij")
    pts = np.column_stack([U.ravel(), (V * (1.0 - U)).ravel()])
    wts = (WU * WV * (1.0 - U)).ravel()
    pts.flags.writeable = False
    wts.flags.writeable = False
    return QuadratureRule(points=pts, weights=wts, exactness=exactness)


@lru_cache(maxsize=None)
def edge_rule(npoints: int) -> QuadratureRule:
    """Gauss-Legendre rule on [0, 1] with ``npoints`` nodes."""
    if npoints < 1:
        raise UnsupportedDegree("an edge rule needs at least one point")
    x, w = np.polynomial.legendre.leggauss(npoints)
    t = 0.5 * (x + 1.0)
    wt = 0.5 * w
    t.flags.writeable = False
    wt.flags.writeable = False
    return QuadratureRule(points=t, weights=wt, exactness=2 * npoints - 1)


def quadrature_rules(k: int, exactness=None):
    """Triangle and edge rules for degree-k data integrals.

    The triangle rule has the requested exactness (default 2k+4); the edge
    rule has max(k+3, (exactness+2)//2) Gauss points, k+3 by default.
    """
    if exactness is None:
        exactness = 2 * k + 4
    return triangle_rule(exactness), edge_rule(max(k + 3, (exactness + 2) // 2))


def packed_gram_table(values):
    """Reference table of the packed Gram matrices of basis values (ng, n)
    or (ng, n, 2) at ng points.  Column p holds the products for the entry
    (i, j), i <= j, at position p of ``np.triu_indices(n)``: per point
    v_i v_j for scalars; for vectors three rows, v_i^c v_j^d for the metric
    entries (0, 0), (1, 1) and (0, 1), the last with (1, 0) merged in, since
    the metric is symmetric.  The packed element matrices are the weights
    (nt, ng) or (nt, 3 ng) times this table."""
    i, j = np.triu_indices(values.shape[1])
    Vi, Vj = values[:, i], values[:, j]
    if values.ndim == 2:
        return Vi * Vj
    products = [Vi[..., 0] * Vj[..., 0], Vi[..., 1] * Vj[..., 1],
                Vi[..., 0] * Vj[..., 1] + Vi[..., 1] * Vj[..., 0]]
    return np.stack(products, axis=1).reshape(-1, len(i))


@lru_cache(maxsize=None)
def packed_positions(n):
    """Position (n, n) of every entry of a symmetric n x n matrix in its
    packed row (see :func:`packed_gram_table`): ``packed[..., at]``
    unpacks.  Cached and read-only, as every caller shares it."""
    i, j = np.triu_indices(n)
    at = np.empty((n, n), dtype=int)
    at[i, j] = at[j, i] = np.arange(len(i))
    at.setflags(write=False)
    return at


def compose_affine(exps, coeffs, B, b):
    """Coefficients of p(B xhat + b) over the same exponent list.

    Affine substitution preserves the total degree and is linear in the
    coefficients, so it is one matrix C(B, b) over the graded degree-k list:
    ``coeffs`` may be one coefficient row or a stack of rows (..., nm), and
    the result is ``coeffs @ C.T``.  Column (a, b) of C holds the expansion
    of (B_0 xhat + b_0)^a (B_1 xhat + b_1)^b, the product of row v of the map
    with an earlier column; multiplication by row v is the matrix
    b_v I + B_v0 Sx + B_v1 Sy with the shifts by x and y truncated to degree
    k.  Rows and columns are read off at the positions of ``exps`` in that
    list.  The result is exact polynomial algebra, used to express
    pulled-back polynomial fields without the chain rule.
    """
    k = max(px + py for px, py in exps)
    nm = scalar_dim(k)
    Sx, Sy = _shift_matrix(k, 0)[:nm], _shift_matrix(k, 1)[:nm]
    rows = [b[v] * np.eye(nm) + B[v, 0] * Sx + B[v, 1] * Sy for v in range(2)]
    C = np.zeros((nm, nm))
    C[0, 0] = 1.0
    lo = 0
    for d in range(1, k + 1):
        # C[:, lo:hi] is the degree-(d-1) block.  The degree-d block is the
        # x-row times each of its columns, then the y-row times the last one,
        # (0, d-1) -> (0, d).
        hi = lo + d
        C[:, hi : hi + d] = rows[0] @ C[:, lo:hi]
        C[:, hi + d] = rows[1] @ C[:, hi - 1]
        lo = hi
    pos = [(px + py) * (px + py + 1) // 2 + py for px, py in exps]
    return np.asarray(coeffs, dtype=float) @ C[np.ix_(pos, pos)].T


def boundary_decomposition_check(k: int):
    """Numerical check of the orthogonal boundary-space decomposition.

    Expands the traces of the scalar complement space and the normal traces
    of the vector complement space (the componentwise scalar complement) in
    the edgewise orthonormal basis and returns (smallest singular value of
    the combined square matrix, largest cross-Gram entry between the two
    blocks).
    """
    rule = edge_rule(k + 2)
    ref = ReferenceTriangle
    start, end = ref.vertices[ref.edge_vertices].transpose(1, 0, 2)
    pts = start[:, None] + rule.points[:, None] * (end - start)[:, None]  # (3, ng, 2)
    vals = orthocomplement_basis(k).eval(pts.reshape(-1, 2)).reshape(3, len(rule.points), -1)
    # moments against FaceBasis(k) in reference arc length, (3, k+1, ng)
    moments = np.sqrt(ref.edge_lengths)[:, None, None] * (rule.weights[:, None] * legendre01(k, rule.points)).T
    scalar = moments @ vals  # (3, k+1, ncomp)
    vector = scalar[..., None] * ref.edge_normals[:, None, None]  # (3, k+1, ncomp, 2)
    scalar_block = scalar.reshape(face_space_dim(k), -1)
    vector_block = vector.reshape(face_space_dim(k), -1)
    M = np.hstack([scalar_block, vector_block])
    sigma_min = float(np.linalg.svd(M, compute_uv=False).min())
    cross = float(np.abs(scalar_block.T @ vector_block).max())
    return sigma_min, cross


def divergence_surjectivity_check(k: int) -> float:
    """Largest least-squares defect of div: RT_k -> P_k, measured in L2."""
    exps = monomial_exponents(k)
    G = np.array([[float(_reference_moment(a + c, b + d)) for c, d in exps] for a, b in exps])
    D = vector_basis("RT", k).div_coeffs()[: len(exps), :]  # div RT_k lives in P_k
    target = scalar_basis(k).coeffs
    R = D @ np.linalg.lstsq(D, target, rcond=None)[0] - target
    return float(np.sqrt(np.abs(np.einsum("ij,ik,kj->j", R, G, R))).max())

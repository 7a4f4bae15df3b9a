"""Genus-2 hyperbolic structure from the regular octagon.

The regular hyperbolic octagon with vertex angles pi/4 (circumradius r,
cosh r = 3 + 2 sqrt(2), vertex 0 on the x-axis) has opposite sides paired
by the four hyperbolic translations g_0..g_3 whose axes run through the
center at angles (2k+1) pi/8.  Each translates by L = 2 arccosh(1+sqrt(2)),
so tr g_k = 2 (1 + sqrt(2)), and the octagon vertex cycle gives the
defining relation

    g_0^{-1} g_1 g_2^{-1} g_3 g_0 g_1^{-1} g_2 g_3^{-1} = Id.

A standard generating quadruple satisfying the single commutator relation
[a1, b1] [a2, b2] = Id is obtained from the side pairings by the change of
generators

    a1 = g_0,  b1 = g_1,  a2 = g_1 g_3^{-1} g_0^{-1},  b2 = g_0 g_2 g_1^{-1},

which is symplectic on homology and regenerates all g_k; remarkably all
four words are again translations of the same length.

The same octagon is triangulated (central fan, iterated geodesic-midpoint
subdivision) and glued along the side pairings into a closed genus-2
complex carrying first-order finite-element Laplace operators.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import DomainError, MeshResourceError

SQRT2 = np.sqrt(2.0)
COSH_HALF_LENGTH = 1.0 + SQRT2                      # cosh(L/2), L = translation length
COSH_CIRCUMRADIUS = 3.0 + 2.0 * SQRT2               # cosh r of the octagon vertices
GENERATOR_TRACE = 2.0 * COSH_HALF_LENGTH
PAIRING_AXIS_ANGLES = tuple((2 * k + 1) * np.pi / 8.0 for k in range(4))
MAX_MESH_LEVEL = 7
GLUING_DISTANCE_TOL = 1e-9

# standard quadruple as words in the side pairings (index, exponent)
STANDARD_QUADRUPLE_WORDS = (
    ((0, +1),),
    ((1, +1),),
    ((1, +1), (3, -1), (0, -1)),
    ((0, +1), (2, +1), (1, -1)),
)

OCTAGON_RELATOR_WORD = ((0, -1), (1, +1), (2, -1), (3, +1),
                        (0, +1), (1, -1), (2, +1), (3, -1))


# ---------------------------------------------------------------------------
# SL(2,R) and SO(2,1) building blocks

def sl2_rotation(theta: float):
    """Lift of the apex rotation by theta (Y -> m Y m^T convention)."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


def sl2_x_translation(length: float):
    """Lift of the hyperboloid translation along the y1-axis."""
    e = np.exp(length / 2.0)
    return np.array([[e, 0.0], [0.0, 1.0 / e]])


def so21_of_sl2(m):
    """Image of m under the symmetric-matrix representation Y -> m Y m^T,
    written in hyperboloid coordinates (y1, y2, y3)."""
    m = np.asarray(m, dtype=float)
    basis = (np.array([[1.0, 0.0], [0.0, -1.0]]),
             np.array([[0.0, 1.0], [1.0, 0.0]]),
             np.eye(2))
    cols = []
    for bmat in basis:
        Y = m @ bmat @ m.T
        cols.append([(Y[0, 0] - Y[1, 1]) / 2.0, Y[0, 1], (Y[0, 0] + Y[1, 1]) / 2.0])
    return np.array(cols).T


def word_matrix(word, gens):
    m = np.eye(2)
    for idx, exp in word:
        g = gens[idx]
        m = m @ (g if exp > 0 else np.linalg.inv(g))
    return m


def residual_to_pm_identity(m) -> float:
    m = np.asarray(m, dtype=float)
    eye = np.eye(m.shape[0])
    return float(min(np.abs(m - eye).max(), np.abs(m + eye).max()))


# ---------------------------------------------------------------------------
# holonomy generators

@dataclass(frozen=True)
class HolonomySet:
    """Standard genus-2 generators plus the octagon side pairings."""

    a1: np.ndarray
    b1: np.ndarray
    a2: np.ndarray
    b2: np.ndarray
    side_pairings: tuple = field(repr=False)

    @property
    def quadruple(self):
        return (self.a1, self.b1, self.a2, self.b2)

    def commutator_relator_residual(self) -> float:
        def comm(x, y):
            return x @ y @ np.linalg.inv(x) @ np.linalg.inv(y)

        return residual_to_pm_identity(
            comm(self.a1, self.b1) @ comm(self.a2, self.b2))

    def octagon_relator_residual(self) -> float:
        return residual_to_pm_identity(
            word_matrix(OCTAGON_RELATOR_WORD, self.side_pairings))

    def traces(self):
        return tuple(float(np.trace(m)) for m in self.quadruple)

    def all_hyperbolic(self, tol: float = 1e-9) -> bool:
        mats = list(self.quadruple) + list(self.side_pairings)
        return all(abs(np.trace(m)) > 2.0 + tol for m in mats)


def octagon_generators() -> HolonomySet:
    """Holonomy of the regular-octagon genus-2 surface.

    Side pairings translate opposite sides through the center; the standard
    quadruple is the frozen change of generators above.
    """
    length = 2.0 * np.arccosh(COSH_HALF_LENGTH)
    pairings = []
    for theta in PAIRING_AXIS_ANGLES:
        rot = sl2_rotation(theta)
        pairings.append(rot @ sl2_x_translation(length) @ rot.T)
    pairings = tuple(pairings)
    words = [word_matrix(w, pairings) for w in STANDARD_QUADRUPLE_WORDS]
    return HolonomySet(a1=words[0], b1=words[1], a2=words[2], b2=words[3],
                       side_pairings=pairings)


# ---------------------------------------------------------------------------
# hyperboloid helpers (R^{2,1}, signature (+, +, -))

def mdot(p, q):
    """Minkowski product of points, or of (3, n) coordinate stacks."""
    return p[0] * q[0] + p[1] * q[1] - p[2] * q[2]


def hyp_dist(p, q):
    """Hyperbolic distance of points, or of (3, n) coordinate stacks."""
    return np.arccosh(np.maximum(-mdot(p, q), 1.0))


def hyp_dist_small(p, q) -> float:
    """Chord version, accurate for tiny separations where arccosh is not."""
    d = p - q
    return float(np.sqrt(max(mdot(d, d), 0.0)))


def hyp_midpoint(p, q):
    s = p + q
    return s / np.sqrt(-mdot(s, s))


def triangle_angles(p, q, r):
    """Interior angles of the geodesic triangle (p, q, r)."""
    def angle_at(a, b, c):
        u = b + mdot(b, a) * a
        v = c + mdot(c, a) * a
        cosang = mdot(u, v) / np.sqrt(mdot(u, u) * mdot(v, v))
        return float(np.arccos(np.clip(cosang, -1.0, 1.0)))

    return angle_at(p, q, r), angle_at(q, r, p), angle_at(r, p, q)


def triangle_area_defect(p, q, r) -> float:
    """Hyperbolic area by angle defect."""
    return float(np.pi - sum(triangle_angles(p, q, r)))


# ---------------------------------------------------------------------------
# the glued octagon mesh

class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


@dataclass(frozen=True)
class Genus2Mesh:
    """Triangulated octagon fundamental domain with side-pairing gluing.

    ``vertices`` are chart-local hyperboloid positions (seam vertices are
    duplicated); ``vertex_class`` maps them onto the glued complex whose
    vertex count is ``n_classes``.  ``boundary_pairs`` identifies boundary
    half-edges 3*tri + e, where edge e of triangle (v0, v1, v2) joins
    vertices (ve, v(e+1 mod 3)).
    """

    level: int
    vertices: np.ndarray
    triangles: np.ndarray
    vertex_class: np.ndarray
    n_classes: int
    boundary_pairs: tuple
    side_paths: tuple = field(repr=False)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def glued_edge_count(self) -> int:
        # boundary_pairs lists both directions; each unordered pair is one edge
        interior = set()
        boundary_set = {h for pair in self.boundary_pairs for h in pair}
        for t, tri in enumerate(self.triangles):
            for e in range(3):
                if 3 * t + e in boundary_set:
                    continue
                a, b = int(tri[e]), int(tri[(e + 1) % 3])
                interior.add((min(a, b), max(a, b)))
        return len(interior) + len(self.boundary_pairs) // 2

    def euler_characteristic(self) -> int:
        return self.n_classes - self.glued_edge_count() + self.n_triangles

    def area_angle_defect(self) -> float:
        v = self.vertices
        return float(sum(triangle_area_defect(v[a], v[b], v[c])
                         for a, b, c in self.triangles))

    @functools.cached_property
    def element_geometry(self):
        """(lengths, areas) of the Euclidean-layout elements: the hyperbolic
        length of the edge opposite each triangle corner, shape (M, 3), and
        the Heron area of each triangle, shape (M,)."""
        corners = self.vertices[self.triangles].T      # (coordinate, corner, M)
        lengths = np.stack([hyp_dist(corners[:, 1], corners[:, 2]),
                            hyp_dist(corners[:, 0], corners[:, 2]),
                            hyp_dist(corners[:, 0], corners[:, 1])], axis=1)
        la, lb, lc = lengths.T
        s = 0.5 * (la + lb + lc)
        areas = np.sqrt(np.maximum(s * (s - la) * (s - lb) * (s - lc), 0.0))
        return lengths, areas

    def area_elementwise(self) -> float:
        """Total area of the Euclidean-layout elements (what the mass
        matrix integrates)."""
        return float(self.element_geometry[1].sum())


def _octagon_corners():
    sinh_r = np.sqrt(COSH_CIRCUMRADIUS ** 2 - 1.0)
    return [np.array([sinh_r * np.cos(k * np.pi / 4.0),
                      sinh_r * np.sin(k * np.pi / 4.0),
                      COSH_CIRCUMRADIUS]) for k in range(8)]


def genus2_mesh(level: int, max_level: int = MAX_MESH_LEVEL) -> Genus2Mesh:
    """Fan triangulation of the octagon, subdivided ``level`` times and
    glued along opposite sides (8 * 4^level triangles)."""
    if level < 0:
        raise DomainError("mesh level must be >= 0")
    if level > max_level:
        raise MeshResourceError(f"mesh level {level} exceeds maximum {max_level}")

    corners = _octagon_corners()
    vertices = [np.array([0.0, 0.0, 1.0])] + corners
    triangles = [(0, 1 + k, 1 + (k + 1) % 8) for k in range(8)]
    side_paths = [[1 + k, 1 + (k + 1) % 8] for k in range(8)]

    for _ in range(level):
        midpoint_of = {}

        def midpoint_id(i, j):
            key = (min(i, j), max(i, j))
            if key not in midpoint_of:
                vertices.append(hyp_midpoint(vertices[i], vertices[j]))
                midpoint_of[key] = len(vertices) - 1
            return midpoint_of[key]

        new_triangles = []
        for v0, v1, v2 in triangles:
            m01 = midpoint_id(v0, v1)
            m12 = midpoint_id(v1, v2)
            m02 = midpoint_id(v0, v2)
            new_triangles += [(v0, m01, m02), (v1, m12, m01),
                              (v2, m02, m12), (m01, m12, m02)]
        triangles = new_triangles
        side_paths = [
            [x for a, b in zip(path, path[1:]) for x in (a, midpoint_id(a, b))] + [path[-1]]
            for path in side_paths
        ]

    vertices = np.array(vertices)
    triangles = np.array(triangles, dtype=int)

    # vertex gluing: side k matches side k+4 reversed, checked against the
    # explicit pairing isometries within the documented tolerance
    pairing_so21 = [so21_of_sl2(g) for g in octagon_generators().side_pairings]
    uf = _UnionFind(len(vertices))
    n_sub = len(side_paths[0]) - 1
    for k in range(4):
        gk = pairing_so21[k]
        near, far = side_paths[k], side_paths[k + 4]
        for j, far_id in enumerate(far):
            near_id = near[n_sub - j]
            mapped = gk @ vertices[far_id]
            dist = hyp_dist_small(mapped, vertices[near_id])
            if dist > GLUING_DISTANCE_TOL:
                raise DomainError(
                    f"side pairing mismatch on side {k}: distance {dist:.3e}")
            uf.union(near_id, far_id)

    roots = sorted({uf.find(i) for i in range(len(vertices))})
    root_index = {r: i for i, r in enumerate(roots)}
    vertex_class = np.array([root_index[uf.find(i)] for i in range(len(vertices))])

    # boundary half-edge pairing
    edge_owner = {}
    for t, tri in enumerate(triangles):
        for e in range(3):
            a, b = int(tri[e]), int(tri[(e + 1) % 3])
            edge_owner.setdefault((min(a, b), max(a, b)), []).append(3 * t + e)

    def halfedge_of(i, j):
        owners = edge_owner[(min(i, j), max(i, j))]
        if len(owners) != 1:
            raise DomainError("boundary edge is not simple")
        return owners[0]

    boundary_pairs = []
    for k in range(4):
        near, far = side_paths[k], side_paths[k + 4]
        for j in range(n_sub):
            h_far = halfedge_of(far[j], far[j + 1])
            h_near = halfedge_of(near[n_sub - 1 - j], near[n_sub - j])
            boundary_pairs.append((h_near, h_far))
            boundary_pairs.append((h_far, h_near))

    return Genus2Mesh(level=level, vertices=vertices, triangles=triangles,
                      vertex_class=vertex_class, n_classes=len(roots),
                      boundary_pairs=tuple(boundary_pairs),
                      side_paths=tuple(tuple(p) for p in side_paths))


# ---------------------------------------------------------------------------
# first-order finite elements on the glued complex

@dataclass(frozen=True)
class DiscreteOperators:
    """P1 stiffness/mass pair on glued mesh functions.

    x^T stiffness x integrates |grad u|^2 (conformally invariant in 2d);
    mass integrates products, scaled by the conformal area factor.
    """

    stiffness: scipy.sparse.csr_matrix
    mass: scipy.sparse.csr_matrix
    n: int
    scale: float


def discrete_operators(mesh: Genus2Mesh, scale: float = 1.0) -> DiscreteOperators:
    """Assemble cotangent stiffness and consistent mass for the hyperbolic
    metric multiplied by the conformal constant ``scale``."""
    if scale <= 0.0:
        raise DomainError("conformal scale must be positive")
    lengths, area = mesh.element_geometry
    if area.min() < 1e-14:
        raise DomainError("degenerate triangle in mesh")
    lensq = lengths ** 2
    # cot[:, i]: cotangent of the angle at corner i, opposite edge i
    cot = (lensq[:, [1, 0, 0]] + lensq[:, [2, 2, 1]] - lensq) / (4.0 * area)[:, None]
    k_local = np.empty((len(area), 3, 3))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        k_local[:, j, k] = k_local[:, k, j] = -0.5 * cot[:, i]
    for i in range(3):
        k_local[:, i, i] = -k_local[:, i, (i + 1) % 3] - k_local[:, i, (i + 2) % 3]
    m_local = (scale * area / 12.0)[:, None, None] * (np.ones((3, 3)) + np.eye(3))
    # entries ordered by triangle, row, column: tocsr sums duplicates in this order
    ids = mesh.vertex_class[mesh.triangles]
    rows, cols = np.repeat(ids, 3, axis=1).ravel(), np.tile(ids, 3).ravel()
    s_vals, m_vals = k_local.ravel(), m_local.ravel()
    n = mesh.n_classes
    stiffness = scipy.sparse.coo_matrix((s_vals, (rows, cols)), shape=(n, n)).tocsr()
    mass = scipy.sparse.coo_matrix((m_vals, (rows, cols)), shape=(n, n)).tocsr()
    return DiscreteOperators(stiffness=stiffness, mass=mass, n=n, scale=scale)


DENSE_EIG_LIMIT = 2000


def generalized_eigs(a, m, k: int = 6, seed: int = 0):
    """k generalized eigenvalues of a x = lambda m x nearest zero, sorted by
    magnitude.  Dense below DENSE_EIG_LIMIT unknowns, else shift-invert
    about 0 with a deterministic start vector."""
    n = a.shape[0]
    k = min(k, n - 1)
    if n < DENSE_EIG_LIMIT:
        vals = scipy.linalg.eigh(a.toarray(), m.toarray(), eigvals_only=True)
        order = np.argsort(np.abs(vals), kind="stable")
        return vals[order][:k]
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    vals = scipy.sparse.linalg.eigsh(a, k=k, M=m, sigma=0.0, which="LM",
                                     v0=v0, return_eigenvectors=False)
    order = np.argsort(np.abs(vals), kind="stable")
    return vals[order]


def laplace_eigenvalues(ops: DiscreteOperators, k: int = 6, seed: int = 0):
    """Smallest k eigenvalues of the (positive) Laplace pair (S, M)."""
    vals = generalized_eigs(ops.stiffness, ops.mass, k=k, seed=seed)
    return np.sort(vals)


# ---------------------------------------------------------------------------
# plain-text mesh exchange format

def export_mesh(mesh: Genus2Mesh) -> str:
    lines = [f"# genus-2 octagon mesh, level {mesh.level}"]
    lines.append(f"vertices {len(mesh.vertices)}")
    for v in mesh.vertices:
        lines.append(f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}")
    lines.append(f"triangles {len(mesh.triangles)}")
    for t in mesh.triangles:
        lines.append(f"{t[0]} {t[1]} {t[2]}")
    seen = set()
    pairs = []
    for h1, h2 in mesh.boundary_pairs:
        key = (min(h1, h2), max(h1, h2))
        if key not in seen:
            seen.add(key)
            pairs.append(key)
    lines.append(f"gluings {len(pairs)}")
    for h1, h2 in pairs:
        lines.append(f"{h1} {h2}")
    return "\n".join(lines) + "\n"


def parse_mesh_text(text: str):
    """Parse the exported format back into (vertices, triangles, gluings)."""
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    pos = 0

    def section(name):
        nonlocal pos
        tag, count = rows[pos].split()
        if tag != name:
            raise DomainError(f"expected section {name}, found {tag}")
        pos += 1
        out = rows[pos:pos + int(count)]
        pos += int(count)
        return out

    verts = np.array([[float(x) for x in ln.split()] for ln in section("vertices")])
    tris = np.array([[int(x) for x in ln.split()] for ln in section("triangles")], dtype=int)
    glue = [tuple(int(x) for x in ln.split()) for ln in section("gluings")]
    return verts, tris, glue

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

# scipy is imported inside the functions that use it, so that importing the
# package (and every surface command) loads none of it
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

    def all_hyperbolic(self) -> bool:
        """Every generator and side pairing has |trace| > 2 + 1e-9."""
        mats = list(self.quadruple) + list(self.side_pairings)
        return all(abs(np.trace(m)) > 2.0 + 1e-9 for m in mats)


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


def hyp_dist_small(p, q):
    """Chord version of ``hyp_dist``, accurate for tiny separations where
    arccosh is not: a float for points, an array for (3, n) stacks."""
    d = p - q
    return _float_if_point(np.sqrt(np.maximum(mdot(d, d), 0.0)))


def hyp_midpoint(p, q):
    """Geodesic midpoint of points, or of (3, n) coordinate stacks."""
    s = p + q
    return s / np.sqrt(-mdot(s, s))


def triangle_angles(p, q, r):
    """Interior angles at p, q and r of the geodesic triangle (p, q, r):
    floats for points, arrays for (3, n) corner stacks."""
    def angle_at(a, b, c):
        u = b + mdot(b, a) * a
        v = c + mdot(c, a) * a
        cosang = mdot(u, v) / np.sqrt(mdot(u, u) * mdot(v, v))
        return _float_if_point(np.arccos(np.clip(cosang, -1.0, 1.0)))

    return angle_at(p, q, r), angle_at(q, r, p), angle_at(r, p, q)


def triangle_area_defect(p, q, r):
    """Hyperbolic area by angle defect: a float for points, an array for
    (3, n) corner stacks."""
    a, b, c = triangle_angles(p, q, r)
    return _float_if_point(np.pi - (a + b + c))


def _float_if_point(x):
    return float(x) if np.ndim(x) == 0 else x


# ---------------------------------------------------------------------------
# the glued octagon mesh

@dataclass(frozen=True)
class Genus2Mesh:
    """Triangulated octagon fundamental domain with side-pairing gluing.

    ``vertices`` are chart-local hyperboloid positions, shape (n, 3) (seam
    vertices are duplicated); ``vertex_class`` (int64) maps them onto the
    glued complex whose vertex count is ``n_classes``.  ``boundary_pairs``
    identifies boundary half-edges 3*tri + e, where edge e of triangle
    (v0, v1, v2) joins vertices (ve, v(e+1 mod 3)).  The methods hand the
    point helpers above (3, M) stacks, one column per triangle, so each
    triangle gets the bits of a call on its own corners.
    ``elimination_order`` is a permutation of the classes for sparse
    factorization: a nested dissection (see ``genus2_mesh``).
    """

    level: int
    vertices: np.ndarray
    triangles: np.ndarray
    vertex_class: np.ndarray
    n_classes: int
    boundary_pairs: tuple
    side_paths: tuple = field(repr=False)
    elimination_order: np.ndarray = field(repr=False)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def glued_edge_count(self) -> int:
        # boundary_pairs lists both directions; each unordered pair is one edge
        interior = np.ones(3 * self.n_triangles, dtype=bool)
        interior[np.array(self.boundary_pairs).ravel()] = False
        keys = _halfedge_keys(self.triangles, len(self.vertices))
        return len(np.unique(keys[interior])) + len(self.boundary_pairs) // 2

    def euler_characteristic(self) -> int:
        return self.n_classes - self.glued_edge_count() + self.n_triangles

    def area_angle_defect(self) -> float:
        corners = self.vertices[self.triangles].T      # (coordinate, corner, M)
        defects = triangle_area_defect(corners[:, 0], corners[:, 1], corners[:, 2])
        # summed in triangle order: the total is 4 pi up to roundoff, which
        # the octagon_area row prints, so np.sum's pairwise order would
        # change report digits
        return float(sum(defects.tolist()))

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


def _edge_keys(a, b, n):
    """Key min * n + max of the undirected edges (a, b), vertex ids below n."""
    return np.minimum(a, b) * n + np.maximum(a, b)


def _halfedge_keys(triangles, n):
    """Edge key of each half-edge 3 * tri + e, shape (3 M,)."""
    return _edge_keys(triangles, np.roll(triangles, -1, axis=1), n).ravel()


def _subdivide(vertices, triangles, edge_tier, vertex_tier, side_paths, tier):
    """Split every triangle at its edge midpoints.

    New vertices are numbered in the order in which a scan over the
    triangles, edges (v0, v1), (v1, v2), (v0, v2) in turn, first meets
    their edge; each side path gains the midpoints of its edges.
    ``edge_tier[t, e]`` is the dissection tier of edge e of triangle t:
    the two halves of an edge keep its tier, the edges of each middle
    triangle get ``tier``, and each midpoint takes the tier of the edge it
    splits.
    """
    n = len(vertices)
    v0, v1, v2 = triangles.T
    keys = np.stack([_edge_keys(v0, v1, n), _edge_keys(v1, v2, n),
                     _edge_keys(v0, v2, n)], axis=1).ravel()
    edges, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    midpoint_id = np.empty(len(edges), dtype=np.int64)
    midpoint_id[order] = n + np.arange(len(edges))
    ends = edges[order]
    midpoints = hyp_midpoint(vertices[ends // n].T, vertices[ends % n].T).T
    m01, m12, m02 = midpoint_id[inverse].reshape(-1, 3).T
    children = np.stack([v0, m01, m02, v1, m12, m01, v2, m02, m12, m01, m12, m02],
                        axis=1).reshape(-1, 3)
    # edge e of a triangle joins corners e and e + 1 (mod 3)
    t01, t12, t20 = edge_tier.T
    new = np.full_like(t01, tier)
    child_tiers = np.stack([t01, new, t20, t12, new, t01, t20, new, t12, new, new, new],
                           axis=1).reshape(-1, 3)
    paths = np.empty((len(side_paths), 2 * side_paths.shape[1] - 1), dtype=np.int64)
    paths[:, ::2] = side_paths
    paths[:, 1::2] = midpoint_id[np.searchsorted(
        edges, _edge_keys(side_paths[:, :-1], side_paths[:, 1:], n))]
    return (np.concatenate([vertices, midpoints]), children, child_tiers,
            np.concatenate([vertex_tier, edge_tier.ravel()[first[order]]]), paths)


def genus2_mesh(level: int) -> Genus2Mesh:
    """Fan triangulation of the octagon, subdivided ``level`` times and
    glued along opposite sides (8 * 4^level triangles), for level up to
    MAX_MESH_LEVEL.

    Each step works on whole arrays: the midpoints of all new edges are one
    ``hyp_midpoint`` call on (3, n) stacks, and the side pairings map each
    far side as one (3, n) stack.

    The subdivision hierarchy also gives the ``elimination_order``: a
    nested dissection (George, SIAM J. Numer. Anal. 10, 1973) whose
    separators are the edges of the coarser levels.  Classes on the edges
    of the latest subdivision step come first, then those on the edges of
    each earlier step, then the odd spokes, and the even spokes and octagon
    sides last, each group in class order.
    """
    if level < 0:
        raise DomainError("mesh level must be >= 0")
    if level > MAX_MESH_LEVEL:
        raise MeshResourceError(f"mesh level {level} exceeds maximum {MAX_MESH_LEVEL}")

    vertices = np.array([[0.0, 0.0, 1.0]] + _octagon_corners())
    triangles = np.array([(0, 1 + k, 1 + (k + 1) % 8) for k in range(8)], dtype=np.int64)
    side_paths = np.array([[1 + k, 1 + (k + 1) % 8] for k in range(8)], dtype=np.int64)
    # dissection tiers: octagon sides and even spokes 0, odd spokes 1 (they
    # split the four fan-triangle pairs that the rest of tier 0 leaves),
    # and the edges made by subdivision step i get tier i + 1
    edge_tier = np.zeros_like(triangles)
    edge_tier[1::2, 0] = edge_tier[0::2, 2] = 1
    vertex_tier = np.zeros(len(vertices), dtype=np.int64)
    for tier in range(2, level + 2):
        vertices, triangles, edge_tier, vertex_tier, side_paths = _subdivide(
            vertices, triangles, edge_tier, vertex_tier, side_paths, tier)
    n = len(vertices)

    # vertex gluing: side k matches side k+4 reversed (vertex j of the far
    # side onto vertex n_sub - j of the near side), checked against the
    # explicit pairing isometries within the documented tolerance
    near, far = side_paths[:4, ::-1], side_paths[4:]
    for k, g in enumerate(octagon_generators().side_pairings):
        dist = hyp_dist_small(so21_of_sl2(g) @ vertices[far[k]].T, vertices[near[k]].T)
        bad = np.flatnonzero(dist > GLUING_DISTANCE_TOL)
        if bad.size:
            raise DomainError(
                f"side pairing mismatch on side {k}: distance {dist[bad[0]]:.3e}")
    # components are labelled in the order of their smallest vertex id
    import scipy.sparse.csgraph
    glue = scipy.sparse.coo_matrix((np.ones(near.size), (near.ravel(), far.ravel())),
                                   shape=(n, n))
    n_classes, labels = scipy.sparse.csgraph.connected_components(glue, directed=False)

    # boundary half-edge pairing: each side edge has exactly one owner
    edges, owner, owners = np.unique(_halfedge_keys(triangles, n),
                                     return_index=True, return_counts=True)

    def halfedges(path):
        at = np.searchsorted(edges, _edge_keys(path[:, :-1], path[:, 1:], n))
        if (owners[at] != 1).any():
            raise DomainError("boundary edge is not simple")
        return owner[at]

    h_near, h_far = halfedges(near), halfedges(far)
    pairs = np.stack([h_near, h_far, h_far, h_near], axis=-1).reshape(-1, 2)

    # the edges of each tier split the regions left by the lower tiers, so
    # the highest tier is eliminated first; a glued class is a separator
    # vertex of the lowest tier among its copies
    class_tier = np.full(n_classes, level + 1, dtype=np.int64)
    np.minimum.at(class_tier, labels, vertex_tier)
    return Genus2Mesh(level=level, vertices=vertices, triangles=triangles,
                      vertex_class=labels.astype(np.int64), n_classes=int(n_classes),
                      boundary_pairs=tuple(map(tuple, pairs.tolist())),
                      side_paths=tuple(map(tuple, side_paths.tolist())),
                      elimination_order=np.argsort(-class_tier, kind="stable"))


# ---------------------------------------------------------------------------
# first-order finite elements on the glued complex

@dataclass(frozen=True)
class DiscreteOperators:
    """P1 stiffness/mass pair on glued mesh functions.

    x^T stiffness x integrates |grad u|^2; mass integrates products over
    the element areas.
    ``elimination_order`` is the mesh's nested-dissection order of the
    unknowns.
    """

    stiffness: scipy.sparse.csr_matrix
    mass: scipy.sparse.csr_matrix
    n: int
    elimination_order: np.ndarray = field(repr=False)


def discrete_operators(mesh: Genus2Mesh) -> DiscreteOperators:
    """Assemble cotangent stiffness and consistent mass for the hyperbolic
    metric on the Euclidean-layout elements (``Genus2Mesh.element_geometry``)."""
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
    m_local = (area / 12.0)[:, None, None] * (np.ones((3, 3)) + np.eye(3))
    # entries ordered by triangle, row, column: tocsr sums duplicates in this order
    ids = mesh.vertex_class[mesh.triangles]
    rows, cols = np.repeat(ids, 3, axis=1).ravel(), np.tile(ids, 3).ravel()
    s_vals, m_vals = k_local.ravel(), m_local.ravel()
    n = mesh.n_classes
    import scipy.sparse
    stiffness = scipy.sparse.coo_matrix((s_vals, (rows, cols)), shape=(n, n)).tocsr()
    mass = scipy.sparse.coo_matrix((m_vals, (rows, cols)), shape=(n, n)).tocsr()
    return DiscreteOperators(stiffness=stiffness, mass=mass, n=n,
                             elimination_order=mesh.elimination_order)


def generalized_eigs(a, m, order, k: int = 6, seed: int = 0):
    """Smallest k generalized eigenvalues of a x = lambda m x, ascending,
    for a symmetric positive definite ``a`` (all eigenvalues positive, so
    the ones nearest zero are the smallest); k is capped at n - 1.

    Shift-invert about 0 with a deterministic start vector, at every size,
    where ``a`` is factored once by SuperLU with rows and columns in
    ``order``, a permutation of the unknowns.  ``Genus2Mesh.elimination_order``
    fills L + U with about 40% fewer nonzeros than SuperLU's own COLAMD
    column order.  Pivots stay on the diagonal (threshold 0): a definite
    ``a`` needs no row exchange, and none may undo the order.
    """
    n = a.shape[0]
    k = min(k, n - 1)
    import scipy.sparse.linalg
    lu = scipy.sparse.linalg.splu(a[order][:, order].tocsc(), permc_spec="NATURAL",
                                  diag_pivot_thresh=0.0,
                                  options=dict(SymmetricMode=True))

    def solve(x):
        y = np.empty_like(x)
        y[order] = lu.solve(x[order])
        return y

    a_inv = scipy.sparse.linalg.LinearOperator((n, n), matvec=solve, dtype=a.dtype)
    v0 = np.random.default_rng(seed).standard_normal(n)
    vals = scipy.sparse.linalg.eigsh(a, k=k, M=m, sigma=0.0, which="LM", v0=v0,
                                     OPinv=a_inv, return_eigenvectors=False)
    return np.sort(vals)


def laplace_eigenvalues(ops: DiscreteOperators, k: int = 6, seed: int = 0):
    """Smallest k eigenvalues of the (positive) Laplace pair (S, M), ascending.

    S is singular (constants are in its kernel), so the positive definite
    pair (S + M, M) is solved and shifted back by 1.
    """
    return generalized_eigs(ops.stiffness + ops.mass, ops.mass, ops.elimination_order,
                            k=k, seed=seed) - 1.0


# ---------------------------------------------------------------------------
# plain-text mesh exchange format

def export_mesh(mesh: Genus2Mesh) -> str:
    # boundary_pairs lists each gluing twice, as (near, far) then (far, near)
    gluings = [sorted(pair) for pair in mesh.boundary_pairs[::2]]
    lines = [f"# genus-2 octagon mesh, level {mesh.level}", f"vertices {len(mesh.vertices)}"]
    lines += [f"{x!r} {y!r} {z!r}" for x, y, z in mesh.vertices.tolist()]
    lines.append(f"triangles {len(mesh.triangles)}")
    lines += [f"{a} {b} {c}" for a, b, c in mesh.triangles.tolist()]
    lines.append(f"gluings {len(gluings)}")
    lines += [f"{a} {b}" for a, b in gluings]
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

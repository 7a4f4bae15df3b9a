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
import numbers
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
# largest residual of X Q = Q B for the reduced pencil B, relative to max|X| max|Q r| (see reduced_pencil)
SYMMETRY_TOL = 1e-8

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

def octagon_generators():
    """Holonomy of the regular-octagon genus-2 surface: (side_pairings,
    quadruple), the tuples (g_0, g_1, g_2, g_3) and (a1, b1, a2, b2).

    Side pairings translate opposite sides through the center; the standard
    quadruple is the frozen change of generators above.
    """
    length = 2.0 * np.arccosh(COSH_HALF_LENGTH)
    pairings = []
    for theta in PAIRING_AXIS_ANGLES:
        rot = sl2_rotation(theta)
        pairings.append(rot @ sl2_x_translation(length) @ rot.T)
    pairings = tuple(pairings)
    return pairings, tuple(word_matrix(w, pairings) for w in STANDARD_QUADRUPLE_WORDS)


def relator_residuals(side_pairings, quadruple):
    """Distances to +-Id of [a1, b1] [a2, b2] and of the octagon word."""
    def comm(x, y):
        return x @ y @ np.linalg.inv(x) @ np.linalg.inv(y)

    a1, b1, a2, b2 = quadruple
    return (residual_to_pm_identity(comm(a1, b1) @ comm(a2, b2)),
            residual_to_pm_identity(word_matrix(OCTAGON_RELATOR_WORD, side_pairings)))


# ---------------------------------------------------------------------------
# hyperboloid helpers (R^{2,1}, signature (+, +, -))

def mdot(p, q):
    """Minkowski product of points, or of (3, n) coordinate stacks."""
    return p[0] * q[0] + p[1] * q[1] - p[2] * q[2]


def hyp_dist(p, q):
    """Hyperbolic distance of hyperboloid points, or of (3, n) stacks:
    2 asinh(|p - q| / 2), as the chord's Minkowski norm is 2 sinh(d / 2),
    at full relative precision on short edges as on long ones."""
    d = p - q
    return 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(mdot(d, d), 0.0)))


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
        return np.arccos(np.clip(cosang, -1.0, 1.0))

    return angle_at(p, q, r), angle_at(q, r, p), angle_at(r, p, q)


def triangle_area_defect(p, q, r):
    """Hyperbolic area by angle defect: a float for points, an array for
    (3, n) corner stacks."""
    a, b, c = triangle_angles(p, q, r)
    return np.pi - (a + b + c)


# ---------------------------------------------------------------------------
# the glued octagon mesh

@dataclass(frozen=True)
class Genus2Mesh:
    """Triangulated octagon fundamental domain with side-pairing gluing.

    ``vertices`` are chart-local hyperboloid positions, shape (n, 3) (seam
    vertices are duplicated); ``vertex_class`` (int64) maps them onto the
    glued complex whose vertex count is ``n_classes``.  ``boundary_pairs``
    (int64, shape (4 * 2^level, 2)) has one (near, far) row per gluing of
    boundary half-edges 3*tri + e, where edge e of triangle (v0, v1, v2)
    joins vertices (ve, v(e+1 mod 3)).  The methods hand the point helpers
    above (3, M) stacks, one column per triangle, cut from one contiguous
    (coordinate, corner, M) gather of the corners, so each triangle gets
    the bits of a call on its own corners.
    """

    level: int
    vertices: np.ndarray
    triangles: np.ndarray
    vertex_class: np.ndarray
    n_classes: int
    boundary_pairs: np.ndarray

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def glued_edge_count(self) -> int:
        interior = np.ones(3 * self.n_triangles, dtype=bool)
        interior[self.boundary_pairs.ravel()] = False
        keys = _halfedge_keys(self.triangles, len(self.vertices))[interior]
        keys.sort()
        # the distinct keys: the first, then one more at each change
        distinct = 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))
        return distinct + len(self.boundary_pairs)

    def euler_characteristic(self) -> int:
        return self.n_classes - self.glued_edge_count() + self.n_triangles

    @functools.cached_property
    def _corners(self):
        """Triangle corners as a C-contiguous (coordinate, corner, M) array."""
        return self.vertices.T[:, self.triangles.T]

    def area_angle_defect(self) -> float:
        corners = self._corners
        defects = triangle_area_defect(corners[:, 0], corners[:, 1], corners[:, 2])
        # summed in triangle order: the total is 4 pi up to roundoff, which
        # the octagon_area row prints, so np.sum's pairwise order would
        # change report digits
        return float(np.add.accumulate(defects)[-1])

    @functools.cached_property
    def element_geometry(self):
        """(lengths, areas) of the Euclidean-layout elements: the hyperbolic
        length of the edge opposite each triangle corner, shape (3, M), and
        the Heron area of each triangle, shape (M,)."""
        corners = self._corners
        lengths = np.stack([hyp_dist(corners[:, 1], corners[:, 2]),
                            hyp_dist(corners[:, 0], corners[:, 2]),
                            hyp_dist(corners[:, 0], corners[:, 1])])
        la, lb, lc = lengths
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


def _subdivide(vertices, triangles, sides):
    """Split every triangle at its edge midpoints.

    New vertices are numbered in the order in which a scan over the
    triangles, edges (v0, v1), (v1, v2), (v0, v2) in turn, first meets
    their edge.  Triangle t = (v0, v1, v2) has the children 4t + c
    (v0, m01, m02), (v1, m12, m01), (v2, m02, m12), (m01, m12, m02), so
    half-edge 3t + e, from corner e to corner e + 1 mod 3, splits into
    half-edges 3 (4t + e) and 3 (4t + (e + 1) mod 3) + 2 of the children:
    each boundary half-edge in the rows of ``sides`` becomes that pair.
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
    t, e = np.divmod(sides, 3)
    halves = np.stack([3 * (4 * t + e), 3 * (4 * t + (e + 1) % 3) + 2], axis=-1)
    return np.concatenate([vertices, midpoints]), children, halves.reshape(len(sides), -1)


def genus2_mesh(level: int) -> Genus2Mesh:
    """Fan triangulation of the octagon, subdivided ``level`` times and
    glued along opposite sides (8 * 4^level triangles), for level up to
    MAX_MESH_LEVEL.

    Each step works on whole arrays: the midpoints of all new edges are one
    ``hyp_midpoint`` call on (3, n) stacks, and the side pairings map each
    far side as one (3, n) stack.
    """
    if not isinstance(level, numbers.Integral) or level < 0:
        raise DomainError(f"mesh level must be an integer >= 0, got {level!r}")
    if level > MAX_MESH_LEVEL:
        raise MeshResourceError(f"mesh level {level} exceeds maximum {MAX_MESH_LEVEL}")

    vertices = np.array([[0.0, 0.0, 1.0]] + _octagon_corners())
    triangles = np.array([(0, 1 + k, 1 + (k + 1) % 8) for k in range(8)], dtype=np.int64)
    # side k (corner k to k + 1) is half-edge 1 of fan triangle k
    sides = 3 * np.arange(8, dtype=np.int64)[:, None] + 1
    for _ in range(level):
        vertices, triangles, sides = _subdivide(vertices, triangles, sides)
    n = len(vertices)
    # a side's vertices: the starts of its half-edges, then the next side's start
    starts = triangles.ravel()[sides]
    paths = np.column_stack([starts, np.roll(starts[:, 0], -1)])

    # vertex gluing: side k matches side k+4 reversed (vertex j of the far
    # side onto vertex n_sub - j of the near side), checked against the
    # explicit pairing isometries within the documented tolerance
    near, far = paths[:4, ::-1], paths[4:]
    for k, g in enumerate(octagon_generators()[0]):
        dist = hyp_dist(so21_of_sl2(g) @ vertices[far[k]].T, vertices[near[k]].T)
        bad = np.flatnonzero(dist > GLUING_DISTANCE_TOL)
        if bad.size:
            raise DomainError(
                f"side pairing mismatch on side {k}: distance {dist[bad[0]]:.3e}")
    # components are labelled in the order of their smallest vertex id
    import scipy.sparse.csgraph
    glue = scipy.sparse.coo_matrix((np.ones(near.size), (near.ravel(), far.ravel())),
                                   shape=(n, n))
    n_classes, labels = scipy.sparse.csgraph.connected_components(glue, directed=False)

    # side k's half-edges, in reverse, glue to those of side k + 4
    h_near, h_far = sides[:4, ::-1], sides[4:]
    return Genus2Mesh(level=level, vertices=vertices, triangles=triangles,
                      vertex_class=labels.astype(np.int64), n_classes=int(n_classes),
                      boundary_pairs=np.stack([h_near, h_far], axis=-1).reshape(-1, 2))


# ---------------------------------------------------------------------------
# D8 symmetry of the glued mesh

# irreducible representations of D8 = <r, s | r^8 = s^2 = 1, s r s = r^-1>
IRREPS = ("A1", "A2", "B1", "B2", "E1", "E2", "E3")
IRREP_DIMS = (1, 1, 1, 1, 2, 2, 2)


def _chart_keys(points):
    """Integer key of each column of a (3, n) stack: (y1, y2) rounded to
    1e-6, so positions a roundoff apart share it (|y2| < 6 < 2^23 / 1e6)."""
    k1, k2 = np.rint(points[:2] * 1e6).astype(np.int64)
    return (k1 << 24) + k2


def symmetry_permutations(mesh: Genus2Mesh):
    """Class permutation of each element r^a s^b of D8, row a + 8 b of an
    int64 array of shape (16, n_classes): r rotates the octagon by pi/4
    about its center, s reflects y2 -> -y2, and row g maps each class to
    the class of its image under g.

    A generator's vertex image is found by matching rounded chart
    positions (``searchsorted`` of the sorted image positions in the
    sorted vertex positions) and checked within GLUING_DISTANCE_TOL; it
    must also map glued copies onto glued copies.  Either failure raises
    DomainError.
    """
    c, s = np.cos(np.pi / 4.0), np.sin(np.pi / 4.0)
    generators = {"rotation": np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]),
                  "reflection": np.diag([1.0, -1.0, 1.0])}
    points, cls = mesh.vertices.T, mesh.vertex_class
    keys = _chart_keys(points)
    order = np.argsort(keys)
    keys = keys[order]
    perms = []
    for name, g in generators.items():
        moved = g @ points
        needles = _chart_keys(moved)
        # sorted needles make searchsorted's memory access sequential
        by = np.argsort(needles)
        at = np.empty_like(by)
        at[by] = np.searchsorted(keys, needles[by])
        image = order[np.minimum(at, len(order) - 1)]
        dist = hyp_dist(moved, points[:, image])
        bad = np.flatnonzero(dist > GLUING_DISTANCE_TOL)
        if bad.size:
            raise DomainError(f"{name} does not map the mesh onto itself: "
                              f"vertex {bad[0]} is {dist[bad[0]]:.3e} from its match")
        perm = np.empty(mesh.n_classes, dtype=np.int64)
        perm[cls] = cls[image]
        if (perm[cls] != cls[image]).any():
            raise DomainError(f"{name} does not map glued vertices onto glued vertices")
        perms.append(perm)
    rotation, reflection = perms
    table = np.empty((16, mesh.n_classes), dtype=np.int64)
    table[0], table[8] = np.arange(mesh.n_classes), reflection
    for a in range(1, 8):
        table[a], table[a + 8] = rotation[table[a - 1]], rotation[table[a + 7]]
    return table


def _pivot_columns(x):
    """Columns piv of the (r, m) matrix x of rank r at which x[:, piv] is
    invertible: the rows of x^T that LAPACK's LU with partial pivoting
    moves to the top."""
    from scipy.linalg.lapack import dgetrf
    order = list(range(x.shape[1]))
    for i, j in enumerate(dgetrf(x.T)[1].tolist()):
        order[i], order[j] = order[j], order[i]
    return order[:len(x)]


def symmetry_basis(mesh: Genus2Mesh):
    """Symmetry-adapted basis of the functions on the glued classes:
    (Q, block, W), where Q is a sparse (n_classes, n_red) matrix with
    orthonormal columns, ``block[j]`` indexes IRREPS for column j, and the
    sparse (n_red, n_classes) W holds a left inverse of each block of Q,
    W_b Q_b = I: Q_b[pivots]^-1 in the columns of one pivot class each.

    With (T_g f)(g c) = f(c), block b spans the range of the projector
    (d / 16) sum_g D(g)_11 T_g of its irrep D of dimension d (Fassler &
    Stiefel, Group Theoretical Methods and Their Applications, 1992): the
    whole isotypic part for the 1-dim irreps, its reflection-fixed half for
    E1, E2 and E3.  An operator that commutes with D8 has no entries
    between blocks, and each eigenvalue of an E block is a double one of
    the full operator.

    Each column lives on one D8 orbit, so it has at most 16 nonzeros.  The
    projectors have one matrix on all orbits whose smallest class has the
    same stabilizer, so one batch of small SVDs per stabilizer serves all
    of them.  Columns are grouped by block, then by stabilizer and orbit.

    The columns of one orbit have their support on its members, so
    Q[pivots] is block diagonal by orbit, with one block of order at most
    2 per orbit.  All orbits of a stabilizer share its matrix, so one
    small elimination per stabilizer and irrep picks the pivot members,
    and one small inverse serves every orbit of that stabilizer.
    """
    n = mesh.n_classes
    table = symmetry_permutations(mesh)
    a, b = np.arange(16) % 8, np.arange(16) // 8
    # D(r^a s^b)_11: the character of a 1-dim irrep, cos(2 pi j a / 8) for E_j
    d11 = np.array([np.ones(16), (-1.0) ** b, (-1.0) ** a, (-1.0) ** (a + b)]
                   + [np.cos(np.pi * j * a / 4.0) for j in (1, 2, 3)])
    weights = d11 * np.array(IRREP_DIMS)[:, None] / 16.0
    reps = np.flatnonzero(table.min(axis=0) == np.arange(n))
    images = table[:, reps]                 # (16, orbits): class g x of the smallest x
    # orbits whose x has one stabilizer (as a bit mask) share the projectors
    stabilizer = (1 << np.arange(16)) @ (images == images[0])
    orbit_kinds = []
    for mask in np.unique(stabilizer):
        orbits = images[:, stabilizer == mask]
        # (orbits, m), as int32 sparse indices
        members = orbits[np.unique(orbits[:, 0], return_index=True)[1]].T.astype(np.int32)
        # hits[g, i, j]: g maps member j onto member i
        m0 = members[0]
        hits = (table[:, m0][:, None, :] == m0[:, None]).astype(float)
        u, sv, _ = np.linalg.svd(np.tensordot(weights, hits, axes=1))
        orbit_kinds.append((members, u, sv))
    import scipy.sparse
    basis, inverse, block = [], [], []
    for irrep in range(len(IRREPS)):
        for members, u, sv in orbit_kinds:
            # the projector's range, without the SVD's roundoff off its support
            vecs = u[irrep][:, sv[irrep] > 0.5].T
            if not len(vecs):
                continue
            vecs[np.abs(vecs) < 1e-12] = 0.0
            piv = _pivot_columns(vecs)
            # on each orbit, the rows of Q at the pivot members are vecs[:, piv].T
            basis.append((vecs, members))
            inverse.append((np.linalg.inv(vecs[:, piv].T), members[:, piv]))
            block.append(np.full(vecs.shape[0] * len(members), irrep))
    block = np.concatenate(block)

    def compressed(parts, layout, shape):
        # each part's lines (columns of Q, rows of W) repeated for every
        # orbit o, with the entry positions read from targets[o]
        data, indices, counts = [], [], []
        for x, targets in parts:
            line, at = np.nonzero(x)
            data.append(np.tile(x[line, at], len(targets)))
            indices.append(targets[:, at].ravel())
            counts.append(np.tile(np.bincount(line, minlength=len(x)), len(targets)))
        indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
        return layout((np.concatenate(data), np.concatenate(indices), indptr), shape=shape)

    return (compressed(basis, scipy.sparse.csc_matrix, (n, len(block))), block,
            compressed(inverse, scipy.sparse.csr_matrix, (len(block), n)))


# ---------------------------------------------------------------------------
# first-order finite elements on the glued complex

@dataclass(frozen=True)
class DiscreteOperators:
    """P1 stiffness/mass pair on glued mesh functions.

    x^T stiffness x integrates |grad u|^2; mass integrates products over
    the element areas.  Both are assembled from one (row, col) list, so
    they share one pattern: equal ``indptr`` and ``indices``, entry for
    entry.  ``basis``, ``block`` and the CSR ``left_inverse`` are the
    mesh's ``symmetry_basis`` (Q, block, W).
    """

    stiffness: scipy.sparse.csr_matrix
    mass: scipy.sparse.csr_matrix
    n: int
    basis: scipy.sparse.csc_matrix = field(repr=False)
    block: np.ndarray = field(repr=False)
    left_inverse: scipy.sparse.csr_matrix = field(repr=False)


def discrete_operators(mesh: Genus2Mesh) -> DiscreteOperators:
    """Assemble cotangent stiffness and consistent mass for the hyperbolic
    metric on the Euclidean-layout elements (``Genus2Mesh.element_geometry``)."""
    lengths, area = mesh.element_geometry
    if area.min() < 1e-14:
        raise DomainError("degenerate triangle in mesh")
    lensq = lengths ** 2                                # (edge, M)
    # cot[i]: cotangent of the angle at corner i, opposite edge i
    cot = (lensq[[1, 0, 0]] + lensq[[2, 2, 1]] - lensq) / (4.0 * area)
    k_local = np.empty((3, 3, len(area)))               # (row, col, M)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        k_local[j, k] = k_local[k, j] = -0.5 * cot[i]
    for i in range(3):
        k_local[i, i] = -k_local[i, (i + 1) % 3] - k_local[i, (i + 2) % 3]
    # entries ordered by triangle, row, column: tocsr sums duplicates in this
    # order; one (M, 3, 3) value array is alive at a time
    ids = mesh.vertex_class[mesh.triangles].astype(np.int32)
    rows, cols = np.repeat(ids, 3, axis=1).ravel(), np.tile(ids, 3).ravel()
    n = mesh.n_classes
    import scipy.sparse

    def assemble(values):
        return scipy.sparse.coo_matrix((values.ravel(), (rows, cols)), shape=(n, n)).tocsr()

    stiffness = assemble(k_local.transpose(2, 0, 1))
    del k_local
    mass = assemble((area / 12.0)[:, None, None] * (np.ones((3, 3)) + np.eye(3)))
    basis, block, left_inverse = symmetry_basis(mesh)
    return DiscreteOperators(stiffness=stiffness, mass=mass, n=n, basis=basis, block=block,
                             left_inverse=left_inverse)


def shared_pattern(ops: DiscreteOperators):
    """(S, M) of ``ops``, raising DomainError unless they store one sparsity
    pattern: the pattern on which S and M are combined entry by entry."""
    s, m = ops.stiffness, ops.mass
    if not (np.array_equal(s.indptr, m.indptr) and np.array_equal(s.indices, m.indices)):
        raise DomainError("the stiffness and mass matrices do not share one sparsity pattern")
    return s, m


def reduced_pencil(ops: DiscreteOperators):
    """The pair (S + M, M) in the symmetry-adapted basis Q: exactly
    symmetric, block diagonal canonical CSR matrices with no stored zeros,
    with the blocks B_b = Q_b^T X Q_b in the order of the columns of Q.

    S and M commute with D8, so X Q_b = Q_b B_b, and the pivot rows of
    that identity give B_b = W_b X Q_b, where W_b = Q_b[pivots]^-1 sits in
    the pivot columns (``ops.left_inverse``).  Both matrices go through at
    once, as the real and imaginary parts of the complex (S + M) + iM on
    the ``shared_pattern`` of S and M.  One product forms every block and
    no entry between blocks: the class index of each row of W X and of each
    column of Q is shifted by n times its block, so that only entries of
    one block meet.
    B is then replaced by (B + B^T) / 2.  The pivot rows hold the identity
    only for a pencil that commutes with D8, so the B returned is checked
    against all of it, X Q r = Q B r, for one fixed random vector r: a
    real or imaginary part whose residual is NaN or exceeds SYMMETRY_TOL of
    max|X| max|Q r| in that part raises DomainError.  This also catches a
    symmetric B from a pencil that is not; a break whose residual is
    orthogonal to r passes."""
    import scipy.sparse
    (s, m), q, n = shared_pattern(ops), ops.basis, ops.n
    entries = np.empty(len(m.data), dtype=complex)
    entries.real, entries.imag = s.data + m.data, m.data
    x = scipy.sparse.csr_matrix((entries, s.indices, s.indptr), shape=s.shape)
    tops = np.abs(entries.real).max(), np.abs(entries.imag).max()
    # the probe of X Q = Q B, taken before X goes
    probe = np.random.default_rng(0).standard_normal(len(ops.block))
    image = q @ probe
    lhs = x @ image
    rows = ops.left_inverse @ x
    # each temporary is let go as soon as it is used: their high-water mark
    # is part of the heap under the band that generalized_eigs factors
    del entries, x
    shape = (len(IRREPS) * n, len(ops.block))
    rows = scipy.sparse.csr_matrix(
        (rows.data, rows.indices + n * np.repeat(ops.block, np.diff(rows.indptr)), rows.indptr),
        shape=shape[::-1])
    q = scipy.sparse.csc_matrix(
        (q.data, q.indices + n * np.repeat(ops.block, np.diff(q.indptr)), q.indptr), shape=shape)
    pencil = rows @ q
    del rows, q
    # canonical operands: the sum stays canonical
    pencil.sort_indices()
    pencil = pencil + pencil.T.tocsr()
    pencil.data *= 0.5
    back = pencil @ probe
    scale = np.abs(image).max()
    for name, take, top in zip(("real", "imaginary"), (np.real, np.imag), tops):
        # two real products: Q times a complex vector would copy Q to complex
        worst = np.abs(take(lhs) - ops.basis @ take(back)).max()
        if not worst <= SYMMETRY_TOL * top * scale:
            raise DomainError(
                f"the reduced pencil's {name} part fails X Q = Q B: the residual {worst:.3e} "
                f"exceeds {SYMMETRY_TOL:g} of max|X| max|Q r| = {top * scale:.3e}, so the "
                "pencil does not commute with D8 or is not symmetric")

    def part(data):
        # a copy of the index arrays each: eliminate_zeros compacts them in
        # place, dropping the zeros that the other part's entry kept stored
        x = scipy.sparse.csr_matrix((data, pencil.indices, pencil.indptr),
                                    shape=pencil.shape, copy=True)
        x.eliminate_zeros()
        return x

    return part(pencil.data.real), part(pencil.data.imag)


def generalized_eigs(a, m, k: int = 6, seed: int = 0):
    """Smallest k generalized eigenpairs of a x = lambda m x, ascending:
    (values, y, factor, rank), for a symmetric positive definite ``a`` and
    a symmetric positive semidefinite ``m``; k is an integer >= 1, capped
    at n - 1.  Positive definiteness is required, not assumed: a Cholesky
    pivot that is not positive raises DomainError naming its leading minor.

    ``a`` is reordered by reverse Cuthill-McKee, P a P^T (``_rcm_band``),
    and its band is factored in place as L L^T by LAPACK's band Cholesky.
    ARPACK (``eigsh``) then finds, from a deterministic start vector, the k
    largest eigenvalues mu of the symmetric operator L^-1 P m P^T L^-T, each
    application two banded triangular solves around one CSR product:
    lambda = 1 / mu, with the orthonormal Ritz vectors y as columns in the
    reordered unknowns (entry rank[i] belongs to unknown i) and the band
    ``factor`` L.  No back-substitution runs: the a-orthonormal vectors
    x = P^T L^-T y are x = dtbtrs(factor, y, uplo="L", trans="T")[0][rank].
    """
    if not isinstance(k, numbers.Integral) or k < 1:
        raise DomainError(f"eigenvalue count must be an integer >= 1, got {k!r}")
    n = a.shape[0]
    k = min(k, n - 1)
    import scipy.sparse.linalg
    from scipy.linalg.lapack import dpbtrf, dtbtrs
    rank, ab = _rcm_band(a)
    factor, info = dpbtrf(ab, lower=1, overwrite_ab=1)
    if info > 0:
        raise DomainError(f"matrix is not positive definite: leading minor {info} "
                          "of its reverse Cuthill-McKee order is not positive")
    m = _permuted(m, rank)

    def matvec(y):
        z = dtbtrs(factor, y, uplo="L", trans="T")[0]
        return dtbtrs(factor, m @ z, uplo="L", overwrite_b=1)[0]

    op = scipy.sparse.linalg.LinearOperator((n, n), matvec=matvec, dtype=float)
    v0 = np.random.default_rng(seed).standard_normal(n)
    mu, y = scipy.sparse.linalg.eigsh(op, k=k, which="LA", v0=v0)
    order = np.argsort(mu)[::-1]
    return 1.0 / mu[order], y[:, order], factor, rank


def _rcm_band(a):
    """(rank, ab) of the symmetric sparse ``a``: ``rank[i]`` is the position
    of unknown i in the reverse Cuthill-McKee order (Cuthill & McKee, 1969),
    and ``ab`` holds the lower band of the reordered matrix in LAPACK band
    storage, ab[r - c, c] = a[i, j] for r = rank[i] >= c = rank[j], as a
    Fortran-ordered (bandwidth + 1, n) array that the factor may overwrite."""
    import scipy.sparse.csgraph
    a = a.tocsr()
    order = scipy.sparse.csgraph.reverse_cuthill_mckee(a, symmetric_mode=True)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    row = np.repeat(rank, np.diff(a.indptr))
    col = rank[a.indices]
    lower = row >= col
    offset, col = (row - col)[lower], col[lower]
    ab = np.zeros((offset.max() + 1, len(rank)), order="F")
    ab[offset, col] = a.data[lower]
    return rank, ab


def _permuted(x, rank):
    """P x P^T as canonical CSR (sorted indices, duplicates summed), where P
    moves unknown i to position ``rank[i]``: a gather of the rows of ``x``
    in their new order, then its column indices mapped through ``rank``."""
    import scipy.sparse
    order = np.empty_like(rank)
    order[rank] = np.arange(len(rank))
    rows = x.tocsr()[order]
    x = scipy.sparse.csr_matrix((rows.data, rank[rows.indices], rows.indptr), shape=x.shape)
    x.sum_duplicates()
    return x


def laplace_spectrum(ops: DiscreteOperators, k: int = 6, seed: int = 0):
    """Smallest k eigenvalues of the (positive) Laplace pair (S, M),
    ascending, and the name in IRREPS of each; k is capped at n - 1.

    S is singular (constants are in its kernel), so the positive definite
    pair (S + M, M) is solved and shifted back by 1.  One eigensolve of
    its ``reduced_pencil`` by ``generalized_eigs``: each value is labelled
    by the block that holds its standard-form Ritz vector y = L^T P x,
    which is that of x since the band factor L of the block diagonal
    pencil keeps the blocks apart, and counted twice for an E irrep.  The
    k smallest values lie among the k smallest of the reduced pencil,
    since each of those is at least one full value.
    """
    k = min(k, ops.n - 1)
    vals, vecs, _, rank = generalized_eigs(*reduced_pencil(ops), k, seed)
    block = np.empty_like(ops.block)
    block[rank] = ops.block
    # shares[j, b]: the weight of vector j on block b, summed in row order
    shares = np.array([np.bincount(block, weights=w, minlength=len(IRREPS))
                       for w in (vecs ** 2).T])
    irrep = shares.argmax(axis=1)
    copies = np.array(IRREP_DIMS)[irrep]
    vals, irrep = np.repeat(vals, copies)[:k], np.repeat(irrep, copies)[:k]
    return vals - 1.0, tuple(IRREPS[i] for i in irrep)


def laplace_eigenvalues(ops: DiscreteOperators, k: int = 6, seed: int = 0):
    """Smallest k eigenvalues of the (positive) Laplace pair (S, M),
    ascending (``laplace_spectrum`` without the labels)."""
    return laplace_spectrum(ops, k=k, seed=seed)[0]


# ---------------------------------------------------------------------------
# plain-text mesh exchange format

def export_mesh(mesh: Genus2Mesh) -> str:
    gluings = np.sort(mesh.boundary_pairs, axis=1).tolist()
    lines = [f"# genus-2 octagon mesh, level {mesh.level}", f"vertices {len(mesh.vertices)}"]
    lines += [f"{x!r} {y!r} {z!r}" for x, y, z in mesh.vertices.tolist()]
    lines.append(f"triangles {len(mesh.triangles)}")
    lines += [f"{a} {b} {c}" for a, b, c in mesh.triangles.tolist()]
    lines.append(f"gluings {len(gluings)}")
    lines += [f"{a} {b}" for a, b in gluings]
    return "\n".join(lines) + "\n"


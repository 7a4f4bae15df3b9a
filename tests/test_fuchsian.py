import dataclasses
import decimal
import hashlib

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg
from scipy.linalg.lapack import dtbtrs

from adsgeo import fuchsian as fu
from adsgeo.errors import DomainError, MeshResourceError
from adsgeo.rigidity import rigidity_spectrum


# ---------------------------------------------------------------------------
# holonomy generators

def test_generator_traces_match_octagon_trigonometry():
    # trace oracle: translation length between opposite sides is twice the
    # apothem, cosh of half of it = cot(pi/8) = 1 + sqrt(2)
    side_pairings, quadruple = fu.octagon_generators()
    target = 2.0 * (1.0 + np.sqrt(2.0))
    for g in side_pairings:
        assert abs(np.trace(g)) == pytest.approx(target, abs=1e-12)
        assert np.linalg.det(g) == pytest.approx(1.0, abs=1e-12)
    for m in quadruple:
        assert abs(np.trace(m)) == pytest.approx(target, abs=1e-12)


def test_translation_length_against_midpoint_distance():
    # independent cross-check: the pairing must displace one side midpoint
    # onto the opposite one, a distance of twice the apothem
    pairing = fu.octagon_generators()[0][0]
    g0 = fu.so21_of_sl2(pairing)
    corners = fu._octagon_corners()
    m0 = fu.hyp_midpoint(corners[0], corners[1])
    m4 = fu.hyp_midpoint(corners[4], corners[5])
    assert fu.hyp_dist(g0 @ m4, m0) < 1e-12
    length = fu.hyp_dist(m0, m4)
    assert np.cosh(length / 2.0) == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-12)
    assert abs(np.trace(pairing)) == pytest.approx(
        2.0 * np.cosh(length / 2.0), abs=1e-12)


def test_relators():
    side_pairings, quadruple = fu.octagon_generators()
    commutator, octagon_word = fu.relator_residuals(side_pairings, quadruple)
    assert commutator < 1e-8
    assert octagon_word < 1e-8
    # every generator and side pairing is hyperbolic
    assert all(abs(np.trace(g)) > 2.0 + 1e-9 for g in quadruple + side_pairings)


def test_standard_quadruple_is_symplectic_on_homology():
    # exponent-sum vectors of the quadruple span Z^4 with determinant +-1
    vecs = []
    for word in fu.STANDARD_QUADRUPLE_WORDS:
        v = np.zeros(4, dtype=int)
        for idx, e in word:
            v[idx] += e
        vecs.append(v)
    assert abs(round(np.linalg.det(np.array(vecs, dtype=float)))) == 1


def test_standard_quadruple_regenerates_pairings():
    # a2, b2 are words in the pairings; conversely g2, g3 are recovered
    (g0, g1, g2, g3), (_, _, a2, b2) = fu.octagon_generators()
    g2_back = np.linalg.inv(g0) @ b2 @ g1
    g3_back = np.linalg.inv(np.linalg.inv(g1) @ a2 @ g0)
    assert np.abs(g2_back - g2).max() < 1e-10
    assert np.abs(g3_back - g3).max() < 1e-10


def test_rotation_conjugation_cycles_pairings():
    side_pairings = fu.octagon_generators()[0]
    rho = fu.sl2_rotation(np.pi / 4.0)
    for k in range(3):
        conj = rho @ side_pairings[k] @ np.linalg.inv(rho)
        assert np.abs(conj - side_pairings[k + 1]).max() < 1e-12


def test_octagon_area_gauss_bonnet():
    corners = fu._octagon_corners()
    apex = np.array([0.0, 0.0, 1.0])
    total = sum(fu.triangle_area_defect(apex, corners[k], corners[(k + 1) % 8])
                for k in range(8))
    assert total == pytest.approx(4.0 * np.pi, abs=1e-12)


def test_octagon_vertex_angles():
    corners = fu._octagon_corners()
    apex = np.array([0.0, 0.0, 1.0])
    angles = fu.triangle_angles(apex, corners[0], corners[1])
    assert angles[0] == pytest.approx(np.pi / 4.0, abs=1e-12)
    assert angles[1] == pytest.approx(np.pi / 8.0, abs=1e-12)
    assert angles[2] == pytest.approx(np.pi / 8.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the glued mesh

@pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5, 6])
def test_mesh_combinatorics(level):
    mesh = fu.genus2_mesh(level)
    assert mesh.n_triangles == 8 * 4 ** level
    assert mesh.euler_characteristic() == -2
    assert mesh.area_angle_defect() == pytest.approx(4.0 * np.pi, rel=1e-12)


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5, 6])
def test_glued_edges_of_a_closed_triangulation(level):
    # each triangle has 3 edges and each edge of a closed surface borders 2
    # triangles, whatever the edge keys
    mesh = fu.genus2_mesh(level)
    assert mesh.glued_edge_count() == 3 * mesh.n_triangles // 2


# sha256 of export_mesh and of vertex_class.tobytes() as the per-vertex
# dict/union-find construction produced them
PINNED_MESHES = {
    0: ("5e7d42fc1afe4a7a328c551f5d1516923e43d8c7028ab7d479feee8ac6e57181",
        "092243bbdcd482637af3607ebfdde0b85754b401109cf29eb3b89eef520a7b03"),
    1: ("9ef116bea37d898f1d0d98b05acd6e7eb079acf1b49c401aa020ce6effe96557",
        "2f1dd026a5aa59a37229f5cfc45bdb2170ccd06390471bf418f6824c9ce71391"),
    2: ("589d8f6bec0f768bca7bc479f99781ba869aa2a5a20d6ecb5bc6c03e5adfce88",
        "c34f16b94770790820a65f882d7253d82bf74ea44d8f2cde9053a8f9b5ed900c"),
    3: ("cf256cbefd824f8329db302cbe58b3ce1a852bd1b943e44390d5269d2143a0c2",
        "91c736c4a8302b3193687534927b7b5d7b5c1e92f5cdf249d05cc492eef6bca2"),
    4: ("b4462a490f9f7bba3f95c578582f2e58bdbda65a19d073d447e297c6f7368daa",
        "b3c9c163a5a33197669ea7dd7c00b0c2b4feeb9afd402c02fe9acbab39fd9037"),
    5: ("1e2bdc829096c452bf3affbc879fd7bf5e8c50a629437dfead83a8e5954ef4ab",
        "f9f7ec916b8f99ac39abba1ed1eec750942d02404a2b0b0e0fccc4b637b697f9"),
}


@pytest.mark.parametrize("level", sorted(PINNED_MESHES))
def test_mesh_pinned(level):
    mesh = fu.genus2_mesh(level)
    assert mesh.vertex_class.dtype == np.int64
    digests = (hashlib.sha256(fu.export_mesh(mesh).encode()).hexdigest(),
               hashlib.sha256(mesh.vertex_class.tobytes()).hexdigest())
    assert digests == PINNED_MESHES[level]


# repr of area_angle_defect() (summed in triangle order) and glued_edge_count()
@pytest.mark.parametrize("level, area, edges", [
    (3, "12.566370614359062", 768),
    (4, "12.566370614359066", 3072),
    (5, "12.566370614358089", 12288),
    (6, "12.566370614355021", 49152),
])
def test_mesh_area_and_edges_pinned(level, area, edges):
    mesh = fu.genus2_mesh(level)
    assert repr(mesh.area_angle_defect()) == area
    assert mesh.glued_edge_count() == edges


def test_mesh_level_cap():
    with pytest.raises(MeshResourceError):
        fu.genus2_mesh(fu.MAX_MESH_LEVEL + 1)
    with pytest.raises(DomainError):
        fu.genus2_mesh(-1)


@pytest.mark.parametrize("level", [2.0, 0.5, "1"])
def test_mesh_level_must_be_an_integer(level):
    with pytest.raises(DomainError):
        fu.genus2_mesh(level)


def test_mesh_rejects_a_side_pairing_off_its_sides(monkeypatch):
    # g2 turned by 1e-6 about the centre maps side 6 off side 2
    side_pairings, quadruple = fu.octagon_generators()
    pairings = list(side_pairings)
    pairings[2] = fu.sl2_rotation(1e-6) @ pairings[2]
    monkeypatch.setattr(fu, "octagon_generators", lambda: (tuple(pairings), quadruple))
    with pytest.raises(DomainError, match="side pairing mismatch on side 2: distance 5.742e-06"):
        fu.genus2_mesh(1)


def test_mesh_gluing_involutive():
    # each boundary half-edge (one whose edge no other half-edge shares)
    # appears exactly once in boundary_pairs, and never in its own row
    mesh = fu.genus2_mesh(2)
    keys = fu._halfedge_keys(mesh.triangles, len(mesh.vertices))
    _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    boundary = np.flatnonzero(counts[inverse] == 1)
    assert np.array_equal(np.sort(mesh.boundary_pairs.ravel()), boundary)
    assert (mesh.boundary_pairs[:, 0] != mesh.boundary_pairs[:, 1]).all()


def test_mesh_boundary_vertices_identified_in_pairs():
    mesh = fu.genus2_mesh(1)
    # all 8 octagon corners, vertices 1-8, collapse to a single vertex class
    classes = {mesh.vertex_class[i] for i in range(1, 9)}
    assert len(classes) == 1


def test_element_stacks_match_calls_on_each_triangle():
    # the corner stacks give each triangle the bits of the point helpers
    # called on its own three corners, and the defects are summed in
    # triangle order
    mesh = fu.genus2_mesh(2)
    lengths, areas = mesh.element_geometry
    total = 0.0
    for t, (p, q, r) in enumerate(mesh.vertices[mesh.triangles]):
        own = [fu.hyp_dist(q, r), fu.hyp_dist(p, r), fu.hyp_dist(p, q)]
        assert lengths[:, t].tolist() == own
        s = 0.5 * (own[0] + own[1] + own[2])
        heron = s * (s - own[0]) * (s - own[1]) * (s - own[2])
        assert areas[t] == np.sqrt(max(heron, 0.0))
        total += fu.triangle_area_defect(p, q, r)
    corners = mesh._corners
    defects = fu.triangle_area_defect(corners[:, 0], corners[:, 1], corners[:, 2])
    assert defects.tolist() == [fu.triangle_area_defect(*c)
                                for c in mesh.vertices[mesh.triangles]]
    assert mesh.area_angle_defect() == total


def _reference_distance(p, q):
    """Distance of the float points p and q, normalized onto the
    hyperboloid, at 40 digits: ln(x + sqrt(x^2 - 1)), x = -<p, q>."""
    with decimal.localcontext(decimal.Context(prec=40)):
        p, q = ([decimal.Decimal(c) for c in point] for point in (p, q))

        def mdot(a, b):
            return a[0] * b[0] + a[1] * b[1] - a[2] * b[2]

        x = -mdot(p, q) / (mdot(p, p) * mdot(q, q)).sqrt()
        return float((x + (x * x - 1).sqrt()).ln())


def test_hyp_dist_against_a_40_digit_reference():
    # every element edge at level 3; arccosh(-<p, q>) is off by about 1e-13
    # relative on these edges
    mesh = fu.genus2_mesh(3)
    corners = mesh.vertices[mesh.triangles]
    starts, ends = corners.reshape(-1, 3), np.roll(corners, -1, axis=1).reshape(-1, 3)
    dist = fu.hyp_dist(starts.T, ends.T)
    ref = np.array([_reference_distance(p, q) for p, q in zip(starts.tolist(), ends.tolist())])
    assert np.abs(dist / ref - 1.0).max() <= 1e-14


def _side_paths_from_geometry(mesh):
    """The vertices on each octagon side's geodesic, ordered by distance
    from the side's first corner, one row per side."""
    corners = fu._octagon_corners()
    points = mesh.vertices.T
    paths = []
    for k in range(8):
        a, b = corners[k], corners[(k + 1) % 8]
        # the unit spacelike normal of the plane through a, b and the origin
        normal = np.cross(a, b) * np.array([1.0, 1.0, -1.0])
        normal /= np.sqrt(fu.mdot(normal, normal))
        on_side = np.flatnonzero(np.abs(fu.mdot(points, normal)) < 1e-9)
        paths.append(on_side[np.argsort(fu.hyp_dist(a[:, None], points[:, on_side]))])
    return np.array(paths)


def _boundary_pairs_from_all_halfedges(mesh):
    """boundary_pairs by a lookup among all half-edge keys of the mesh,
    along side paths found from the vertex positions alone."""
    n = len(mesh.vertices)
    edges, owner, owners = np.unique(fu._halfedge_keys(mesh.triangles, n),
                                     return_index=True, return_counts=True)
    paths = _side_paths_from_geometry(mesh)
    assert paths.shape == (8, 2 ** mesh.level + 1)
    near, far = paths[:4, ::-1], paths[4:]

    def halfedges(path):
        at = np.searchsorted(edges, fu._edge_keys(path[:, :-1], path[:, 1:], n))
        assert (edges[at] == fu._edge_keys(path[:, :-1], path[:, 1:], n)).all()
        assert (owners[at] == 1).all()
        return owner[at]

    return np.stack([halfedges(near), halfedges(far)], axis=-1).reshape(-1, 2)


@pytest.mark.parametrize("level", range(fu.MAX_MESH_LEVEL + 1))
def test_boundary_pairs_match_lookup_over_all_halfedges(level):
    mesh = fu.genus2_mesh(level)
    assert np.array_equal(mesh.boundary_pairs, _boundary_pairs_from_all_halfedges(mesh))
    assert mesh.boundary_pairs.dtype == np.int64
    assert mesh.boundary_pairs.shape == (4 * 2 ** level, 2)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_subdivide_splits_each_halfedge_at_its_midpoint(level):
    # the two child half-edges that _subdivide names for half-edge h run
    # from h's first corner to the midpoint of h and on to h's second one
    mesh = fu.genus2_mesh(level)
    halfedges = np.arange(3 * mesh.n_triangles)[:, None]
    vertices, children, halves = fu._subdivide(mesh.vertices, mesh.triangles, halfedges)

    def ends(triangles, h):
        return triangles.ravel()[h], np.roll(triangles, -1, axis=1).ravel()[h]

    start, end = ends(mesh.triangles, halfedges[:, 0])
    (start0, mid0), (mid1, end1) = ends(children, halves[:, 0]), ends(children, halves[:, 1])
    assert (start0 == start).all() and (end1 == end).all() and (mid0 == mid1).all()
    assert (mid0 >= len(mesh.vertices)).all()
    assert vertices[mid0].tolist() == fu.hyp_midpoint(vertices[start].T, vertices[end].T).T.tolist()


def test_element_area_converges_to_octagon_area():
    rel = []
    for level in (1, 2, 3):
        mesh = fu.genus2_mesh(level)
        rel.append(abs(mesh.area_elementwise() / (4.0 * np.pi) - 1.0))
    assert rel[2] < 1e-2                    # within 1% at level 3
    assert rel[1] / rel[2] > 3.0            # second-order decay
    assert rel[0] / rel[1] > 3.0


def parse_mesh_text(text: str):
    """Parse the exported format back into (vertices, triangles, gluings)."""
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    pos = 0

    def section(name):
        nonlocal pos
        tag, count = rows[pos].split()
        assert tag == name, f"expected section {name}, found {tag}"
        pos += 1
        out = rows[pos:pos + int(count)]
        pos += int(count)
        return out

    verts = np.array([[float(x) for x in ln.split()] for ln in section("vertices")])
    tris = np.array([[int(x) for x in ln.split()] for ln in section("triangles")], dtype=int)
    glue = [tuple(int(x) for x in ln.split()) for ln in section("gluings")]
    return verts, tris, glue


def test_mesh_export_roundtrip(tmp_path):
    mesh = fu.genus2_mesh(1)
    text = fu.export_mesh(mesh)
    verts, tris, glue = parse_mesh_text(text)
    assert np.allclose(verts, mesh.vertices)
    assert np.array_equal(tris, mesh.triangles)
    assert glue == [tuple(sorted(pair)) for pair in mesh.boundary_pairs.tolist()]


# ---------------------------------------------------------------------------
# D8 symmetry blocks

@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_symmetry_permutations_preserve_operators(level):
    mesh = fu.genus2_mesh(level)
    ops = fu.discrete_operators(mesh)
    table = fu.symmetry_permutations(mesh)
    assert table.shape == (16, ops.n)
    assert len({perm.tobytes() for perm in table}) == 16
    # to roundoff: reduced_pencil reads the blocks at the orbit pivot rows,
    # which is exact only for a pencil that commutes with D8
    for x in (ops.stiffness, ops.mass):
        scale = np.abs(x).max()
        for perm in table:
            assert np.array_equal(np.sort(perm), np.arange(ops.n))
            assert np.abs(x[perm][:, perm] - x).max() <= 1e-12 * scale


def test_symmetry_permutations_reject_asymmetric_mesh():
    mesh = fu.genus2_mesh(2)
    # turn one interior vertex by 1e-6 about the center
    vertices = mesh.vertices.copy()
    c, s = np.cos(1e-6), np.sin(1e-6)
    x, y = vertices[40, :2]
    vertices[40, :2] = c * x - s * y, s * x + c * y
    with pytest.raises(DomainError, match="onto itself"):
        fu.symmetry_permutations(dataclasses.replace(mesh, vertices=vertices))
    # glue one interior vertex onto the center, and none of its images
    vertex_class = mesh.vertex_class.copy()
    vertex_class[40] = vertex_class[0]
    with pytest.raises(DomainError, match="glued"):
        fu.symmetry_permutations(dataclasses.replace(mesh, vertex_class=vertex_class))


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5, 6])
def test_symmetry_basis_orthonormal(level):
    mesh = fu.genus2_mesh(level)
    basis, block, _ = fu.symmetry_basis(mesh)
    assert abs(basis.T @ basis - scipy.sparse.eye(basis.shape[1])).max() <= 1e-14
    assert np.diff(basis.indptr).max() <= 16
    assert (np.diff(block) >= 0).all()
    # the E blocks hold half of each 2-dim isotypic part
    sizes = np.bincount(block, minlength=len(fu.IRREPS))
    assert sizes @ np.array(fu.IRREP_DIMS) == mesh.n_classes


def test_symmetry_block_sizes_level6():
    _, block, _ = fu.symmetry_basis(fu.genus2_mesh(6))
    sizes = dict(zip(fu.IRREPS, np.bincount(block).tolist()))
    assert sizes == {"A1": 1089, "A2": 961, "B1": 1024, "B2": 1024,
                     "E1": 2047, "E2": 2048, "E3": 2047}


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5, 6])
def test_block_eigenvalues_match_full_pencil(level):
    ops = fu.discrete_operators(fu.genus2_mesh(level))
    k = min(9, ops.n - 1)
    vals = fu.laplace_eigenvalues(ops, k=9)
    if level <= 4:
        ref = scipy.linalg.eigh(ops.stiffness.toarray(), ops.mass.toarray(),
                                eigvals_only=True, subset_by_index=[0, k - 1])
    else:
        v0 = np.random.default_rng(0).standard_normal(ops.n)
        ref = np.sort(scipy.sparse.linalg.eigsh(ops.stiffness, k=k, M=ops.mass, sigma=-1.0,
                                                v0=v0, return_eigenvectors=False))
    # relative to the solved pencil (S + M, M), whose values are 1 + ref:
    # level 0 has the single value 0
    assert np.abs(vals - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())


@pytest.mark.parametrize("k", [2.5, 0, -2])
@pytest.mark.parametrize("solve", [
    lambda ops, k: fu.generalized_eigs(*fu.reduced_pencil(ops), k=k),
    lambda ops, k: fu.laplace_spectrum(ops, k=k),
    lambda ops, k: fu.laplace_eigenvalues(ops, k=k),
    lambda ops, k: rigidity_spectrum(ops, -0.7, k=k),
], ids=["generalized_eigs", "laplace_spectrum", "laplace_eigenvalues", "rigidity_spectrum"])
def test_eigenvalue_count_must_be_a_positive_integer(solve, k):
    with pytest.raises(DomainError):
        solve(fu.discrete_operators(fu.genus2_mesh(1)), k)


@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_bolza_clusters_by_irrep(level):
    # lambda1 = E2 + A1 (multiplicity 3), lambda2 = E1 + E3 (multiplicity 4)
    vals, irreps = fu.laplace_spectrum(fu.discrete_operators(fu.genus2_mesh(level)), k=8)
    assert irreps[0] == "A1"
    assert sorted(irreps[1:4]) == ["A1", "E2", "E2"]
    assert sorted(irreps[4:8]) == ["E1", "E1", "E3", "E3"]
    assert vals[3] < vals[4]


def _generalized_pairs(a, m, k):
    """(values, x) of ``generalized_eigs``: the a-orthonormal vectors x
    back-substituted from its standard-form Ritz vectors, as its docstring
    states."""
    vals, y, factor, rank = fu.generalized_eigs(a, m, k=k)
    return vals, dtbtrs(factor, y, uplo="L", trans="T")[0][rank]


def test_laplace_spectrum_solves_through_generalized_eigs(monkeypatch):
    # the one eigensolve runs under its public name, so a wrapper of that
    # name (such as a tracer's) sees it
    ops = fu.discrete_operators(fu.genus2_mesh(3))
    vals, labels = fu.laplace_spectrum(ops, k=8)
    calls, solve = [], fu.generalized_eigs

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(fu, "generalized_eigs", counted)
    again, again_labels = fu.laplace_spectrum(ops, k=8)
    assert len(calls) == 1
    assert again.tobytes() == vals.tobytes() and again_labels == labels


@pytest.mark.parametrize("level", [1, 3, 6])
def test_ritz_vectors_lie_in_one_block(level):
    ops = fu.discrete_operators(fu.genus2_mesh(level))
    _, vecs = _generalized_pairs(*fu.reduced_pencil(ops), k=9)
    for v in vecs.T:
        shares = np.bincount(ops.block, weights=v ** 2, minlength=len(fu.IRREPS))
        assert shares.max() >= (1.0 - 1e-8) * shares.sum()


@pytest.mark.parametrize("level", range(1, 7))
def test_labels_from_standard_vectors_match_generalized_vectors(level):
    # laplace_spectrum labels each value by the block of its standard-form
    # Ritz vector; the a-orthonormal vector of generalized_eigs gives the same
    ops = fu.discrete_operators(fu.genus2_mesh(level))
    _, labels = fu.laplace_spectrum(ops, k=9)
    _, vecs = _generalized_pairs(*fu.reduced_pencil(ops), k=9)
    irrep = np.array([np.bincount(ops.block, weights=v ** 2, minlength=len(fu.IRREPS)).argmax()
                      for v in vecs.T])
    irrep = np.repeat(irrep, np.array(fu.IRREP_DIMS)[irrep])[:9]
    assert labels == tuple(fu.IRREPS[i] for i in irrep)


@pytest.mark.parametrize("level", [1, 3, 6])
def test_generalized_pairs_are_a_orthonormal(level):
    a, m = fu.reduced_pencil(fu.discrete_operators(fu.genus2_mesh(level)))
    vals, vecs = _generalized_pairs(a, m, k=9)
    assert np.all(np.diff(vals) >= 0.0)
    for lam, x in zip(vals, vecs.T):
        mx = m @ x
        assert np.linalg.norm(a @ x - lam * mx) <= 1e-10 * lam * np.linalg.norm(mx)
    gram = vecs.T @ (a @ vecs)
    assert np.abs(gram - np.eye(len(vals))).max() <= 1e-12


@pytest.mark.parametrize("sign, shift, minor", [(-1.0, 0.0, "1 "), (1.0, 2.0, r"\d+ ")],
                         ids=["negative", "indefinite"])
def test_generalized_eigs_requires_positive_definite_a(sign, shift, minor):
    # -(S + M) fails at the first pivot; S + M - 2 M = S - M has the value
    # -1 (the constants) and fails further down
    a, m = fu.reduced_pencil(fu.discrete_operators(fu.genus2_mesh(2)))
    with pytest.raises(DomainError, match="leading minor " + minor):
        fu.generalized_eigs(sign * a - shift * m, m)


@pytest.mark.parametrize("level", range(1, 7))
def test_reduced_pencil_bandwidth_is_at_most_two_to_the_level(level):
    # the cost model of the banded Cholesky: one reverse Cuthill-McKee band
    # of width 2^level over all blocks, Fortran-ordered so that LAPACK
    # factors and solves on it without a copy
    a, _ = fu.reduced_pencil(fu.discrete_operators(fu.genus2_mesh(level)))
    _, ab = fu._rcm_band(a)
    assert ab.shape[1] == a.shape[0] and ab.flags.f_contiguous
    assert ab.shape[0] - 1 <= 2 ** level


def _rcm_band_through_coo(a):
    """``_rcm_band`` through a COO copy of ``a``."""
    order = scipy.sparse.csgraph.reverse_cuthill_mckee(a, symmetric_mode=True)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    a = a.tocoo()
    row, col = rank[a.row], rank[a.col]
    lower = row >= col
    offset, col = (row - col)[lower], col[lower]
    ab = np.zeros((offset.max() + 1, len(rank)), order="F")
    ab[offset, col] = a.data[lower]
    return rank, ab


@pytest.mark.parametrize("level", range(1, 7))
def test_band_and_permuted_mass_match_coo_route(level):
    a, m = fu.reduced_pencil(fu.discrete_operators(fu.genus2_mesh(level)))
    rank, ab = fu._rcm_band(a)
    ref_rank, ref_ab = _rcm_band_through_coo(a)
    assert np.array_equal(rank, ref_rank)
    assert ab.tobytes(order="F") == ref_ab.tobytes(order="F") and ab.shape == ref_ab.shape
    permuted = fu._permuted(m, rank)
    coo = m.tocoo()
    ref = scipy.sparse.csr_matrix((coo.data, (rank[coo.row], rank[coo.col])), shape=m.shape)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(permuted, name), getattr(ref, name)), name
        assert getattr(permuted, name).dtype == getattr(ref, name).dtype, name


# ---------------------------------------------------------------------------
# discrete operators

def test_operators_reject_a_degenerate_triangle():
    mesh = fu.genus2_mesh(1)
    triangles = mesh.triangles.copy()
    triangles[0, 1] = triangles[0, 0]       # one corner moved onto another
    with pytest.raises(DomainError, match="degenerate triangle in mesh"):
        fu.discrete_operators(dataclasses.replace(mesh, triangles=triangles))


def test_operators_structure():
    mesh = fu.genus2_mesh(2)
    ops = fu.discrete_operators(mesh)
    s, m = ops.stiffness, ops.mass
    assert np.abs((s - s.T).toarray()).max() < 1e-12
    assert np.abs((m - m.T).toarray()).max() < 1e-12
    ones = np.ones(ops.n)
    assert np.abs(s @ ones).max() < 1e-12            # constants in the kernel
    assert np.linalg.eigvalsh(m.toarray())[0] > 0.0  # mass positive definite
    evals = np.linalg.eigvalsh(s.toarray())
    assert evals[0] > -1e-12                         # stiffness PSD


# sha256 of the CSR arrays (data, indices, indptr) of the level-4 operators
PINNED_OPERATORS = {
    "stiffness": ("59b56f8a4f4354e3c51ea7df822ef3b0473118970db864fe9c89922fd03838ab",
                  "48f6dc41b4771b59e255f6fea19921abf870821cd43e1849ce2409d04259e6e5",
                  "44affc53bc3991b74756663d96819a02db7c7c2e40da2b6d43cf721f4cbcfed4"),
    "mass": ("240fa0db36907c5d1d1087bb1c9902df3ced75adfbbe5695e43f3ef35900c7fe",
             "48f6dc41b4771b59e255f6fea19921abf870821cd43e1849ce2409d04259e6e5",
             "44affc53bc3991b74756663d96819a02db7c7c2e40da2b6d43cf721f4cbcfed4"),
}


def test_operators_pinned():
    ops = fu.discrete_operators(fu.genus2_mesh(4))
    for name, pins in PINNED_OPERATORS.items():
        x = getattr(ops, name)
        digests = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                        for a in (x.data, x.indices, x.indptr))
        assert digests == pins, name


@pytest.mark.parametrize("level", range(7))
def test_stiffness_and_mass_share_one_pattern(level):
    # reduced_pencil and constant_function_check combine S and M entry by
    # entry on this pattern
    ops = fu.discrete_operators(fu.genus2_mesh(level))
    for name in ("indptr", "indices"):
        assert np.array_equal(getattr(ops.stiffness, name), getattr(ops.mass, name)), name


# sha256 of the CSR arrays (data, indices, indptr) of the level-4 reduced
# pencil (S + M, M), measured with the blocks read at the orbit pivot rows,
# W_b X Q_b, and then symmetrized
PINNED_REDUCED = (
    ("33c0c305cd969090a6f1a411ed21eff12c8297de793b12fc6fd6e5fcc987e358",
     "de2ce842e294eb4639e22cfdbfe6189f21b7060385848644b3245540eb230352",
     "582ac0d18383f5ce72426b53fe9fc9ea783ddb652f840454109d114f0f7e0fa5"),
    ("06b98b18f3b3a1d5f58591bdc7a0011ef28ee1328a95198ed31cc90549ffe30e",
     "de2ce842e294eb4639e22cfdbfe6189f21b7060385848644b3245540eb230352",
     "582ac0d18383f5ce72426b53fe9fc9ea783ddb652f840454109d114f0f7e0fa5"),
)


def test_reduced_pencil_pinned():
    pencil = fu.reduced_pencil(fu.discrete_operators(fu.genus2_mesh(4)))
    for name, x, pins in zip(("S + M", "M"), pencil, PINNED_REDUCED):
        digests = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                        for a in (x.data, x.indices, x.indptr))
        assert digests == pins, name


@pytest.mark.parametrize("level", range(7))
def test_reduced_pencil_is_canonical_without_stored_zeros(level):
    # reverse Cuthill-McKee reads the stored pattern, so neither matrix may
    # keep an entry that is zero in it but not in the other
    ops = fu.discrete_operators(fu.genus2_mesh(level))
    for name, x in zip(("S + M", "M"), fu.reduced_pencil(ops)):
        assert x.format == "csr" and x.dtype == np.float64, name
        assert x.shape == (ops.basis.shape[1],) * 2, name
        # a fresh matrix checks the arrays, not a flag the code has set
        fresh = scipy.sparse.csr_matrix((x.data, x.indices, x.indptr), shape=x.shape)
        assert fresh.has_canonical_format, name
        assert np.all(x.data != 0.0), name


def _projected_pencil(ops):
    """The pair (S + M, M) reduced by the projections Q_b^T X Q_b, each
    block on its own, put on the block diagonal by scipy.sparse.block_diag."""
    bounds = np.searchsorted(ops.block, np.arange(len(fu.IRREPS) + 1))
    blocks = [ops.basis[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    return tuple(scipy.sparse.block_diag([q.T @ x @ q for q in blocks], format="csr")
                 for x in (ops.stiffness + ops.mass, ops.mass))


@pytest.mark.parametrize("level", range(7))
def test_reduced_pencil_matches_projection(level):
    ops = fu.discrete_operators(fu.genus2_mesh(level))
    for name, x, ref in zip(("S + M", "M"), fu.reduced_pencil(ops), _projected_pencil(ops)):
        assert abs(x - ref).max() <= 1e-10 * abs(ref).max(), name
        transpose = x.T.tocsr()
        transpose.sort_indices()
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(x, attr), getattr(transpose, attr)), (name, attr)


@pytest.mark.parametrize("level", range(7))
def test_laplace_eigenvalues_match_projected_pencil(level, monkeypatch):
    ops = fu.discrete_operators(fu.genus2_mesh(level))
    vals = fu.laplace_eigenvalues(ops, k=9)
    monkeypatch.setattr(fu, "reduced_pencil", _projected_pencil)
    ref = fu.laplace_eigenvalues(ops, k=9)
    # relative to the solved pencil (S + M, M), whose values are 1 + ref
    assert np.abs(vals - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())


def test_reduced_pencil_keeps_only_the_structural_entries():
    # the projection Q_b^T X Q_b stores 95,679 and 95,647 entries here
    for x in fu.reduced_pencil(fu.discrete_operators(fu.genus2_mesh(6))):
        assert x.nnz == 70362


@pytest.mark.parametrize("level", range(7))
def test_left_inverse_of_each_block(level):
    ops = fu.discrete_operators(fu.genus2_mesh(level))
    w, q = ops.left_inverse, ops.basis
    assert w.shape == q.shape[::-1]
    bounds = np.searchsorted(ops.block, np.arange(len(fu.IRREPS) + 1))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        product = (w[lo:hi] @ q[:, lo:hi]).toarray()
        assert np.abs(product - np.eye(hi - lo)).max(initial=0.0) <= 1e-15
    # one pivot class per column of Q, where Q[pivots] is diagonal on D8
    assert np.array_equal(np.diff(w.indptr), np.ones(q.shape[1]))
    at_pivots = np.asarray(q.tocsr()[w.indices, np.arange(q.shape[1])]).ravel()
    assert np.abs(at_pivots * w.data - 1.0).max() <= 1e-15


def test_reduced_pencil_rejects_a_pencil_without_the_symmetry():
    ops = fu.discrete_operators(fu.genus2_mesh(3))
    s = ops.stiffness
    # a symmetric change of S on its own pattern that breaks D8: random
    # values plus their transpose, 1e-6 of the largest entry
    noise = scipy.sparse.csr_matrix(
        (np.random.default_rng(0).random(s.nnz), s.indices, s.indptr), shape=s.shape)
    noise = 1e-6 * abs(s).max() * (noise + noise.T)
    stiffness = s + noise
    stiffness.sort_indices()
    assert np.array_equal(stiffness.indices, ops.mass.indices)
    with pytest.raises(DomainError, match="fails X Q = Q B"):
        fu.reduced_pencil(dataclasses.replace(ops, stiffness=stiffness))


@pytest.mark.parametrize("name, letter", [("stiffness", "S"), ("mass", "M")])
def test_reduced_pencil_rejects_a_diagonal_without_the_symmetry(name, letter):
    # a change of the diagonal alone leaves every reduced block symmetric:
    # random values of 1e-3 of the largest entry
    ops = fu.discrete_operators(fu.genus2_mesh(3))
    x = getattr(ops, name)
    noise = 1e-3 * abs(x).max() * np.random.default_rng(0).random(ops.n)
    changed = x + scipy.sparse.diags(noise, format="csr")
    changed.sort_indices()
    assert np.array_equal(changed.indices, x.indices)
    with pytest.raises(DomainError, match="fails X Q = Q B"):
        fu.reduced_pencil(dataclasses.replace(ops, **{name: changed}))


@pytest.mark.parametrize("i, j, at_pivots", [(5, 101, False), (2, 67, True)],
                         ids=["off-pivot", "pivot-pivot"])
def test_reduced_pencil_rejects_one_edge_without_the_symmetry(i, j, at_pivots):
    # one symmetric edge of S changed by 1e-6 of its largest entry: (5, 101)
    # joins two classes off the pivot rows, where W X does not read it, and
    # (2, 67) two pivot classes; each leaves every reduced block symmetric
    ops = fu.discrete_operators(fu.genus2_mesh(3))
    s = ops.stiffness
    pivots = ops.left_inverse.indices
    assert (i in pivots, j in pivots) == (at_pivots, at_pivots)
    bump = scipy.sparse.csr_matrix(([1.0, 1.0], ([i, j], [j, i])), shape=s.shape)
    stiffness = s + 1e-6 * abs(s).max() * bump
    stiffness.sort_indices()
    assert np.array_equal(stiffness.indices, s.indices)
    with pytest.raises(DomainError, match="real part fails X Q = Q B"):
        fu.reduced_pencil(dataclasses.replace(ops, stiffness=stiffness))


def test_reduced_pencil_rejects_a_commuting_pencil_that_is_not_symmetric():
    # S D - D S, D = diag(M), commutes with D8 but is antisymmetric: its
    # reduced blocks vanish in (B + B^T) / 2, so B alone cannot show it
    ops = fu.discrete_operators(fu.genus2_mesh(3))
    s, d = ops.stiffness, scipy.sparse.diags(ops.mass.diagonal())
    commutator = s @ d - d @ s
    stiffness = (s + 1e-6 * abs(s).max() / abs(commutator).max() * commutator).tocsr()
    stiffness.sort_indices()
    assert np.array_equal(stiffness.indices, s.indices)
    with pytest.raises(DomainError, match="real part fails X Q = Q B"):
        fu.reduced_pencil(dataclasses.replace(ops, stiffness=stiffness))


@pytest.mark.parametrize("name", ["stiffness", "mass"])
def test_reduced_pencil_rejects_a_nan_entry(name):
    # one stored NaN makes the residual of X Q = Q B NaN, which must fail
    ops = fu.discrete_operators(fu.genus2_mesh(3))
    x = getattr(ops, name).copy()
    x.data[0] = np.nan
    with pytest.raises(DomainError, match="fails X Q = Q B"):
        fu.reduced_pencil(dataclasses.replace(ops, **{name: x}))


def test_reduced_pencil_rejects_operators_on_two_patterns():
    # one more stored entry in S, between two classes that share no triangle
    ops = fu.discrete_operators(fu.genus2_mesh(3))
    s = ops.stiffness
    j = np.setdiff1d(np.arange(ops.n), s.indices[s.indptr[0]:s.indptr[1]])[0]
    stiffness = s + scipy.sparse.csr_matrix(([1e-3], ([0], [j])), shape=s.shape)
    assert stiffness.nnz == s.nnz + 1
    with pytest.raises(DomainError, match="do not share one sparsity pattern"):
        fu.reduced_pencil(dataclasses.replace(ops, stiffness=stiffness))


def test_mass_total_is_conformal_area():
    mesh = fu.genus2_mesh(3)
    ops = fu.discrete_operators(mesh)
    assert ops.mass.sum() == pytest.approx(mesh.area_elementwise(), rel=1e-12)
    assert abs(ops.mass.sum() / (4.0 * np.pi) - 1.0) < 1e-2


def test_laplace_zero_eigenvalue_simple():
    mesh = fu.genus2_mesh(2)
    ops = fu.discrete_operators(mesh)
    vals = fu.laplace_eigenvalues(ops, k=4)
    assert abs(vals[0]) < 1e-10
    assert vals[1] > 0.5


def test_spectral_gap_stable_under_refinement():
    lam2 = fu.laplace_eigenvalues(fu.discrete_operators(fu.genus2_mesh(2)), k=2)[1]
    lam3 = fu.laplace_eigenvalues(fu.discrete_operators(fu.genus2_mesh(3)), k=2)[1]
    assert abs(lam2 - lam3) / lam3 < 0.10


def test_dirichlet_energy_nonnegative(rng):
    mesh = fu.genus2_mesh(2)
    ops = fu.discrete_operators(mesh)
    for _ in range(10):
        x = rng.standard_normal(ops.n)
        assert x @ (ops.stiffness @ x) >= -1e-10


def test_laplace_eigenvalues_sparse_path():
    ops = fu.discrete_operators(fu.genus2_mesh(5))
    vals = fu.laplace_eigenvalues(ops, k=6, seed=3)
    # reference: scipy's own shift-invert of (S, M) about -1, COLAMD order
    v0 = np.random.default_rng(3).standard_normal(ops.n)
    ref = np.sort(scipy.sparse.linalg.eigsh(ops.stiffness, k=6, M=ops.mass, sigma=-1.0,
                                            v0=v0, return_eigenvectors=False))
    assert np.abs(vals - ref).max() <= 1e-12 * np.abs(ref).max()

"""The batch axis: a layer called once on an (N, 2) stack of chart points,
or a hyperboloid helper on a (3, N) stack of points, returns for each point
the bits of the same call on that point alone.  The closed-form 2x2 algebra
behind the batches is checked against numpy and LAPACK."""
import numpy as np
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adsgeo import batch as bat
from adsgeo import constructions as con
from adsgeo import embedding as emb
from adsgeo import fuchsian as fu
from adsgeo import mess_metrics as mes
from adsgeo import rigidity as rig
from adsgeo.fd import FDScheme, evaluate, partials, stencil

CHECKS = settings(max_examples=6, deadline=None, database=None)

# parameters well inside the strongly convex, spacelike regime, so that
# every layer below succeeds at every point of the chart box
surfaces = st.one_of(
    st.builds(emb.family_immersion, st.floats(-1.3, -0.1)),
    st.builds(emb.bump_immersion, amplitude=st.floats(-0.1, 0.1),
              width=st.floats(0.7, 2.0), base=st.floats(-1.2, -0.6)),
)
coordinate = st.floats(-0.8, 0.8)
chart_points = st.lists(st.tuples(coordinate, coordinate),
                        min_size=1, max_size=4).map(np.array)
schemes = st.builds(FDScheme, st.floats(1e-3, 5e-2), st.booleans())
# values on a 0.01 grid: no underflow, so relative errors stay meaningful
# and distinct triangle corners lie at least 0.01 apart
grid = st.integers(-300, 300).map(lambda i: i / 100.0)
# corners of geodesic triangles on the hyperboloid, one column per triangle
triangle_corners = st.lists(st.tuples(*[st.tuples(grid, grid)] * 3),
                            min_size=1, max_size=6)
square = st.lists(grid, min_size=4, max_size=4).map(lambda x: np.reshape(x, (2, 2)))
pencils = st.lists(st.tuples(square, square), min_size=1, max_size=8)
extension_points = st.lists(st.tuples(coordinate, coordinate, st.floats(-1.4, 0.0)),
                            min_size=1, max_size=3).map(np.array)


def assert_rows_equal(batched, pointwise):
    """Row k of ``batched`` has the bits of ``pointwise[k]``."""
    batched = np.asarray(batched, dtype=float)
    rows = np.array([np.asarray(r, dtype=float) for r in pointwise])
    assert batched.shape == rows.shape
    assert batched.tobytes() == rows.tobytes()


@CHECKS
@given(surfaces, chart_points)
def test_embedding_data_rows(surface, pts):
    batch = emb.embedding_data_at(surface, pts)
    rows = [emb.embedding_data_at(surface, u) for u in pts]
    for name in ("point", "I", "B", "J", "n"):
        assert_rows_equal(getattr(batch, name), [getattr(r, name) for r in rows])


@CHECKS
@given(surfaces, chart_points)
def test_structure_residual_rows(surface, pts):
    gauss, codazzi = emb.structure_residuals(surface, pts)
    rows = [emb.structure_residuals(surface, u) for u in pts]
    assert_rows_equal(gauss, [r[0] for r in rows])
    assert_rows_equal(codazzi, [r[1] for r in rows])


@CHECKS
@given(surfaces, chart_points)
def test_sharp_curvature_rows(surface, pts):
    assert_rows_equal(mes.sharp_curvature(surface, pts),
                      [mes.sharp_curvature(surface, u) for u in pts])


@CHECKS
@given(surfaces, chart_points)
def test_dual_diagnostic_rows(surface, pts):
    _, batch = con.dual_surface(surface, pts)
    rows = [con.dual_surface(surface, u)[1] for u in pts]
    for name in batch:
        assert_rows_equal(batch[name], [r[name] for r in rows])
    fstar = emb.normal_field(surface)
    assert_rows_equal(emb.gaussian_curvature(fstar, pts),
                      [emb.gaussian_curvature(fstar, u) for u in pts])


def test_leading_axes_nest():
    # a (2, 3) grid of points gives the rows of the flat (6,) batch
    grid = np.stack(np.meshgrid(np.linspace(-0.7, 0.7, 3), [-0.4, 0.5]), axis=-1)
    bump = emb.bump_immersion()
    nested = emb.structure_residuals(bump, grid)
    flat = emb.structure_residuals(bump, grid.reshape(-1, 2))
    for a, b in zip(nested, flat):
        assert a.shape == (2, 3)
        assert_rows_equal(a.reshape(-1), b)


@CHECKS
@given(surfaces, extension_points)
def test_extension_curvature_rows(surface, pts):
    assert_rows_equal(con.extension_curvature(surface, pts),
                      [con.extension_curvature(surface, p) for p in pts])


@CHECKS
@given(surfaces, chart_points, schemes)
def test_stencil_partials_match_gradient(surface, pts, scheme):
    # one call of a batch-capable field on the whole stencil gives the bits
    # of the field and of its gradient at the centre from one call per point
    g = emb.metric_field(surface)
    for u in (pts, pts[0]):
        points = stencil(u, scheme)
        value, d = partials(g(points), scheme)[:2]
        # g is marked batched; the unmarked wrapper gets one call per point
        value1, d1 = partials(evaluate(lambda w: g(w), points), scheme)[:2]
        assert value.tobytes() == g(u).tobytes() == value1.tobytes()
        assert d.shape == d1.shape
        assert d.tobytes() == d1.tobytes()


@CHECKS
@given(st.integers(0, 2 ** 31), st.integers(1, 20))
def test_convex_pairs_match_successive_draws(seed, n):
    batch = rig.random_convex_pairs(np.random.default_rng(seed), n)
    rng = np.random.default_rng(seed)
    rows = [[m[0] for m in rig.random_convex_pairs(rng, 1)] for _ in range(n)]
    for k in range(3):
        assert_rows_equal(batch[k], [r[k] for r in rows])


@CHECKS
@given(st.integers(0, 2 ** 31), st.integers(1, 50))
def test_convex_pairs_properties(seed, n):
    # LAPACK as the independent reference for the closed-form sampler
    I, B, bdot = rig.random_convex_pairs(np.random.default_rng(seed), n)
    assert np.array_equal(I, np.swapaxes(I, -1, -2))
    assert (np.linalg.eigvalsh(I) > 0.0).all()
    for m in (B, bdot):
        im = I @ m
        assert np.abs(im - np.swapaxes(im, -1, -2)).max() <= 1e-12
    k = np.linalg.eigvals(B)
    assert np.abs(np.imag(k)).max() == 0.0
    assert ((0.3 <= np.real(k)) & (np.real(k) <= 2.5)).all()
    assert np.abs(np.trace(np.linalg.solve(B, bdot), axis1=-2, axis2=-1)).max() <= 1e-13


@CHECKS
@given(pencils)
def test_entry_tuple_algebra_matches_numpy(pairs):
    # mul2, inv2 and trace2 against @, np.linalg.inv and np.trace, relative
    # to the size of the result; each member gets the bits of its own call
    m = np.array([x for x, _ in pairs])
    n = np.array([y for _, y in pairs])
    assume((np.linalg.cond(m) < 1e3).all())
    me, ne = bat.entries(m), bat.entries(n)
    prod, inv = bat.matrix(*bat.mul2(me, ne)), bat.matrix(*bat.inv2(me))
    tr = bat.trace2(me)
    for k in range(len(pairs)):
        size = np.abs(m[k]).max() * np.abs(n[k]).max()
        assert np.abs(prod[k] - m[k] @ n[k]).max() <= 2e-12 * size
        ref = np.linalg.inv(m[k])
        assert np.abs(inv[k] - ref).max() <= 1e-12 * np.abs(ref).max()
        assert abs(tr[k] - np.trace(m[k])) <= 1e-12 * np.abs(m[k]).max()
    rows = [(bat.mul2(bat.entries(x), bat.entries(y)), bat.inv2(bat.entries(x)),
             bat.trace2(bat.entries(x))) for x, y in zip(m, n)]
    assert_rows_equal(prod, [bat.matrix(*r[0]) for r in rows])
    assert_rows_equal(inv, [bat.matrix(*r[1]) for r in rows])
    assert_rows_equal(tr, [r[2] for r in rows])
    assert_rows_equal(bat.inv(m), [bat.inv(x) for x in m])
    assert_rows_equal(bat.det(m), [bat.det(x) for x in m])


@CHECKS
@given(st.integers(0, 2 ** 31), st.integers(1, 20))
def test_trace_conditions_are_batch_rows(seed, n):
    # one implementation: trace_conditions at pair i has the bits of row i
    # of the batch's signed residuals, whose maxima linearized_chain_batch
    # reports
    I, B, bdot = rig.random_convex_pairs(np.random.default_rng(seed), n)
    J = emb.complex_structure(I)
    je, be, bde = bat.entries(J), bat.entries(B), bat.entries(bdot)
    signed = rig._traces(je, be, rig._b_of_bdot(je, be, bde), bde)
    signed["cayley_hamilton"] = rig._cayley_hamilton(je, be)
    for i in range(n):
        tc = rig.trace_conditions(I[i], B[i], bdot[i])
        assert_rows_equal([tc[k] for k in signed], [v[i] for v in signed.values()])
    worst = {k: float(np.abs(v).max()) for k, v in signed.items()}
    assert rig.linearized_chain_batch(n, seed) == worst


@CHECKS
@given(pencils)
def test_eigvalsh_rows_match_lapack(pairs):
    # symmetric a against SPD m; errors relative to the largest eigenvalue
    a = np.array([g + g.T for g, _ in pairs])
    m = np.array([h @ h.T + np.eye(2) for _, h in pairs])
    lo, hi = bat.eigvalsh(a, m)
    for k in range(len(pairs)):
        ref = scipy.linalg.eigh(a[k], m[k], eigvals_only=True)
        assert np.abs([lo[k] - ref[0], hi[k] - ref[1]]).max() <= 1e-12 * np.abs(ref).max()
    rows = [bat.eigvalsh(x, y) for x, y in zip(a, m)]
    assert_rows_equal(lo, [r[0] for r in rows])
    assert_rows_equal(hi, [r[1] for r in rows])


def test_eigvalsh_umbilic():
    # a = lam m: one double eigenvalue, no NaN from the vanishing radius
    assert bat.eigvalsh(np.eye(2), np.eye(2)) == (1.0, 1.0)
    m = np.array([[2.0, 0.3], [0.3, 0.5]])
    lo, hi = bat.eigvalsh(-0.7 * m, m)
    assert lo <= hi
    assert abs(lo + 0.7) <= 1e-15 and abs(hi + 0.7) <= 1e-15


@CHECKS
@given(surfaces, chart_points)
def test_curvature_spectrum_rows(surface, pts):
    batch = emb.embedding_data_at(surface, pts)
    rows = [emb.embedding_data_at(surface, u) for u in pts]
    assert_rows_equal(emb.principal_curvatures(batch),
                      [emb.principal_curvatures(r) for r in rows])
    jbj = rig.jbj_sharp(batch)
    singles = [rig.jbj_sharp(r) for r in rows]
    for k in range(3):
        assert_rows_equal(jbj[k], [s[k] for s in singles])


@CHECKS
@given(triangle_corners)
def test_hyperboloid_helpers_columns(triangles):
    # (corner, coordinate, triangle): lift chart points onto the hyperboloid
    xy = np.array(triangles, dtype=float).transpose(1, 2, 0)
    corners = np.concatenate([xy, np.sqrt(1.0 + (xy * xy).sum(axis=1))[:, None]], axis=1)
    for t in range(corners.shape[2]):
        assume(len({tuple(c) for c in corners[:, :, t]}) == 3)
    p, q, r = corners
    columns = [corners[:, :, t] for t in range(corners.shape[2])]
    defects = [fu.triangle_area_defect(*c) for c in columns]
    dists = [fu.hyp_dist(a, b) for a, b, _ in columns]
    assert all(isinstance(x, float) for x in defects + dists)
    assert_rows_equal(np.transpose(fu.triangle_angles(p, q, r)),
                      [fu.triangle_angles(*c) for c in columns])
    assert_rows_equal(fu.triangle_area_defect(p, q, r), defects)
    assert_rows_equal(fu.hyp_dist(p, q), dists)
    assert_rows_equal(fu.hyp_midpoint(p, q).T, [fu.hyp_midpoint(a, b) for a, b, _ in columns])

"""The requests of ``fd.stencil`` and ``fd.partials``: the first partials
``(u, s)``, the jet ``(u, s, s)`` and the request ``(u, inner, inner2)`` of
``embedding_data_at``, against the separate one-coordinate difference
formulas they replaced, kept here as the reference, their points against
copies of ``u`` shifted in place, and the one calling rule ``fd.evaluate``
that every layer differentiating a user callable follows."""
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adsgeo import constructions as con
from adsgeo import embedding as emb
from adsgeo import mess_metrics as mes
from adsgeo import rigidity as rig
from adsgeo.errors import DomainError
from adsgeo.fd import (DEFAULT_DIFF, DiffConfig, FDScheme, evaluate, partials, shift_partials,
                       shifts, stencil)


# ---------------------------------------------------------------------------
# reference formulas: one call of f per shifted point

def _shift(u, i, h):
    v = np.array(u, dtype=float)
    v.T[i] += h
    return v


def _offsets(scheme):
    h = scheme.step
    if not scheme.richardson:
        return (h, -h)
    return (h, -h, h / 2.0, -h / 2.0)


def ref_d1(f, u, i, scheme):
    values = [np.asarray(f(_shift(u, i, s))) for s in _offsets(scheme)]
    h = scheme.step
    a = (values[0] - values[1]) / (2.0 * h)
    if not scheme.richardson:
        return a
    b = (values[2] - values[3]) / (2.0 * (h / 2.0))
    return (4.0 * b - a) / 3.0


def _ref_d2_plain(f, u, i, j, h, f0):
    if i == j:
        return (np.asarray(f(_shift(u, i, h))) - 2.0 * f0
                + np.asarray(f(_shift(u, i, -h)))) / (h * h)
    upp = _shift(_shift(u, i, h), j, h)
    upm = _shift(_shift(u, i, h), j, -h)
    ump = _shift(_shift(u, i, -h), j, h)
    umm = _shift(_shift(u, i, -h), j, -h)
    return (np.asarray(f(upp)) - np.asarray(f(upm))
            - np.asarray(f(ump)) + np.asarray(f(umm))) / (4.0 * h * h)


def ref_d2(f, u, i, j, scheme):
    f0 = np.asarray(f(np.asarray(u, dtype=float)))
    h = scheme.step
    a = _ref_d2_plain(f, u, i, j, h, f0)
    if not scheme.richardson:
        return a
    b = _ref_d2_plain(f, u, i, j, h / 2.0, f0)
    return (4.0 * b - a) / 3.0


# ---------------------------------------------------------------------------
# smooth test functions of points (..., dim), any dim >= 2

def scalar_field(u):
    x, y = u[..., 0], u[..., -1]
    return np.sin(1.3 * x + 0.2) * np.cos(y) + np.exp(0.3 * u.sum(axis=-1)) + x * y * y


def vector_field(u):
    return np.stack([scalar_field(u), np.cos(u[..., 1] - u[..., 0]),
                     u[..., 0] * u[..., 1] / (2.0 + u[..., -1])], axis=-1)


def matrix_field(u):
    x, y = u[..., 0], u[..., 1]
    return np.stack([1.0 + x * x, np.sin(x * y), np.cos(y) * x, np.exp(-y * y)],
                    axis=-1).reshape(u.shape[:-1] + (2, 2))


FIELDS = {"scalar": scalar_field, "vector": vector_field, "matrix": matrix_field}
CHECKS = settings(max_examples=40, deadline=None, database=None)


@CHECKS
@given(batch=st.sampled_from([(), (3,), (2, 4)]), dim=st.sampled_from([2, 3]),
       kind=st.sampled_from(sorted(FIELDS)), richardson=st.booleans(),
       step=st.floats(1e-4, 1e-1), first_step=st.floats(1e-4, 1e-1),
       seed=st.integers(0, 2 ** 32 - 1))
def test_jet_matches_reference_formulas(batch, dim, kind, richardson, step, first_step, seed):
    field = FIELDS[kind]
    scheme = FDScheme(step, richardson)
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, size=batch + (dim,))
    points = stencil(u, scheme, scheme)
    f0, d, dd = partials(field(points), scheme, scheme)
    # every point distinct, the first ones those of the first-order stencil
    assert len({p.tobytes() for p in points}) == len(points) \
        == 1 + len(_offsets(scheme)) * dim * dim
    first_points = stencil(u, scheme)
    assert points[:len(first_points)].tobytes() == first_points.tobytes()
    centre, first, _ = partials(field(first_points), scheme)
    assert f0.tobytes() == centre.tobytes() == np.asarray(field(u)).tobytes()
    for i in range(dim):
        assert d[i].tobytes() == first[i].tobytes() == ref_d1(field, u, i, scheme).tobytes()
        for j in range(i, dim):
            # the callers of the separate formulas took i <= j and mirrored
            ref = ref_d2(field, u, i, j, scheme).tobytes()
            assert dd[i, j].tobytes() == dd[j, i].tobytes() == ref
    # the fused request: first partials at another step, second ones at step
    first = FDScheme(first_step, richardson)
    f0, d, dd_fused = partials(field(stencil(u, first, scheme)), first, scheme)
    assert f0.tobytes() == centre.tobytes()
    assert dd_fused.tobytes() == dd.tobytes()
    for i in range(dim):
        assert d[i].tobytes() == ref_d1(field, u, i, first).tobytes()


@pytest.mark.parametrize("richardson", [True, False])
@pytest.mark.parametrize("batch", [(), (5,), (2, 3)])
def test_fused_request_is_the_jet_and_the_stencil(batch, richardson):
    # embedding_data_at's one request: the jet at inner2, then the shifted
    # points of the stencil at inner, with the bits of the separate requests
    cfg = DiffConfig(richardson=richardson)
    u = np.random.default_rng(len(batch)).uniform(-0.8, 0.8, batch + (2,))
    jet, first = stencil(u, cfg.inner2, cfg.inner2), stencil(u, cfg.inner)[1:]
    points = stencil(u, cfg.inner, cfg.inner2)
    assert points.tobytes() == np.concatenate([jet, first]).tobytes()
    assert len(points) == (25 if richardson else 13)
    values = emb.bump_immersion()(points)
    f0, d, dd = partials(values, cfg.inner, cfg.inner2)
    want = partials(values[:len(jet)], cfg.inner2, cfg.inner2)
    assert f0.tobytes() == want[0].tobytes()
    assert dd.shape == want[2].shape and dd.tobytes() == want[2].tobytes()
    want_d = shift_partials(values[len(jet):], cfg.inner)
    assert d.shape == want_d.shape and d.tobytes() == want_d.tobytes()


def test_fused_request_needs_one_richardson_setting():
    schemes = FDScheme(1e-3, True), FDScheme(1e-2, False)
    with pytest.raises(DomainError, match="Richardson"):
        stencil(np.zeros(2), *schemes)
    # 25 rows fit the request's length in 2-D, so the setting is what fails
    with pytest.raises(DomainError, match="Richardson"):
        partials(np.zeros((25, 4)), *schemes)


# label: the kind of request and the first part of the test id, the old
# name of its partials call where it had one; scheme: the schemes of the
# request, (first,) or (first, second)
@pytest.mark.parametrize("label, scheme, rows, expected", [
    ("shift_partials", (DEFAULT_DIFF.inner,), 7, "4 dim values"),
    ("stencil_partials", (DEFAULT_DIFF.inner,), 8, "1 + 4 dim values"),
    ("shift_partials", (FDScheme(1e-3, False),), 3, "2 dim values"),
    ("jet_partials", (DEFAULT_DIFF.inner2,) * 2, 20, "1 + 4 dim^2 values"),
    ("fused", (DEFAULT_DIFF.inner, DEFAULT_DIFF.inner2), 24,
     "1 + 4 dim^2 + 4 dim values"),
])
def test_partials_reject_a_stack_that_fits_no_stencil(label, scheme, rows, expected):
    # a length that fits no stencil once broadcast slices of unequal length
    # into a wrong answer, or failed in a numpy reshape
    call = shift_partials if label == "shift_partials" else partials
    with pytest.raises(DomainError, match=f"takes {re.escape(expected)} .*got {rows}$"):
        call(np.zeros((rows, 4)), *scheme)


@pytest.mark.parametrize("richardson", [True, False])
@pytest.mark.parametrize("dim", [2, 3])
def test_jet_stencil_follows_jet_shifts(dim, richardson):
    # the layout extension_curvature reads its chart points from
    scheme = FDScheme(1e-2, richardson)
    u = np.linspace(-0.4, 0.5, 2 * dim).reshape(2, dim)
    jet = shifts(dim, scheme, scheme)
    assert jet[0] == () and len(jet) == 1 + len(_offsets(scheme)) * dim * dim
    for point, shift in zip(stencil(u, scheme, scheme), jet, strict=True):
        expected = u.copy()
        for i, s in shift:
            expected[..., i] += s
        assert point.tobytes() == expected.tobytes()


def ref_points(u, layout):
    """Each point of ``layout``, as listed by ``fd.shifts``, as a copy of ``u``
    shifted in place, stacked."""
    points = []
    for shift in layout:
        v = np.array(u, dtype=float)
        for i, s in shift:
            v = _shift(v, i, s)
        points.append(v)
    return np.array(points)


# the three requests, by the label of their test ids (the old name of the
# call that built the first two): the first partials, the jet and the
# request of embedding_data_at, inner = inner2 / 4
REQUESTS = {
    "stencil": lambda richardson: (FDScheme(1e-2, richardson),),
    "jet_stencil": lambda richardson: (FDScheme(1e-2, richardson),) * 2,
    "fused": lambda richardson: (FDScheme(2.5e-3, richardson), FDScheme(1e-2, richardson)),
}


EDGE_POINTS = {
    # unshifted coordinates keep the sign of a zero
    "negative_zero": lambda: np.array([[-0.0, 0.3], [0.2, -0.0], [-0.0, -0.0]]),
    "reversed": lambda: np.linspace(-0.4, 0.5, 6).reshape(3, 2)[::-1, ::-1],
    "strided": lambda: np.linspace(-0.4, 0.5, 24).reshape(6, 4)[::2, ::3],
    "single_negative_zero": lambda: np.array([-0.0, 0.25]),
}


@pytest.mark.parametrize("richardson", [True, False])
@pytest.mark.parametrize("build", list(REQUESTS))
@pytest.mark.parametrize("case", sorted(EDGE_POINTS))
def test_stencil_points_match_copy_and_add(case, build, richardson):
    schemes = REQUESTS[build](richardson)
    u = EDGE_POINTS[case]()
    points = stencil(u, *schemes)
    want = ref_points(u, shifts(u.shape[-1], *schemes))
    assert points.shape == want.shape and points.tobytes() == want.tobytes()
    assert points[0].tobytes() == np.ascontiguousarray(u).tobytes()


def test_nested_stencil_matches_copy_and_add():
    # the stencil of a stencil, as exterior_derivative_identities builds it
    scheme = DEFAULT_DIFF.field
    u = np.array([0.3, -0.0])
    first = shifts(2, scheme)
    nested = stencil(stencil(u, scheme), scheme)
    want = ref_points(ref_points(u, first), first)
    assert nested.shape == want.shape == (9, 9, 2)
    assert nested.tobytes() == want.tobytes()


@pytest.mark.parametrize("build", list(REQUESTS))
def test_stencil_is_a_new_array(build):
    # writing to a stencil touches neither u nor the next stencil
    schemes = REQUESTS[build](True)
    u = np.array([[0.3, -0.2], [0.1, 0.4]])
    before = u.tobytes()
    first = stencil(u, *schemes)
    again = first.copy()
    first += 1.0
    first[0] = 7.0
    assert u.tobytes() == before
    assert stencil(u, *schemes).tobytes() == again.tobytes()


def test_second_order_step_is_four_first_order_steps():
    # the step of second differences follows immersion_step; the default
    # keeps the bits of 2e-3
    assert DiffConfig(immersion_step=1e-4).inner2.step == 4e-4
    assert DiffConfig().inner2.step == 2e-3


def test_schemes_built_once_per_config():
    # each scheme is one object per config; the kept schemes change neither
    # the config's equality nor its hash
    cfg = DiffConfig(field_step=0.08, richardson=False)
    schemes = cfg.inner, cfg.inner2, cfg.field
    assert (cfg.inner, cfg.inner2, cfg.field) == schemes
    assert all(a is b for a, b in zip((cfg.inner, cfg.inner2, cfg.field), schemes))
    assert schemes == (FDScheme(5e-4, False), FDScheme(2e-3, False), FDScheme(0.08, False))
    fresh = DiffConfig(field_step=0.08, richardson=False)
    assert fresh == cfg and hash(fresh) == hash(cfg)


# ---------------------------------------------------------------------------
# the calling rule: an unmarked callable gets one point per call

@CHECKS
@given(batch=st.sampled_from([(), (1,), (3,), (2, 4)]), dim=st.sampled_from([2, 3]),
       kind=st.sampled_from(sorted(FIELDS)), seed=st.integers(0, 2 ** 32 - 1))
def test_evaluate_calls_unmarked_one_point_at_a_time(batch, dim, kind, seed):
    field = FIELDS[kind]
    points = np.random.default_rng(seed).uniform(-1.0, 1.0, size=batch + (dim,))
    seen = []

    def f(w):
        seen.append(np.array(w))
        return field(w)

    values = evaluate(f, points)
    # single (dim,) points, in stack order, values in the points' layout
    assert all(w.shape == (dim,) for w in seen)
    assert np.array(seen).tobytes() == points.reshape(-1, dim).tobytes()
    want = field(points)
    assert values.shape == want.shape and values.tobytes() == want.tobytes()
    seen.clear()
    f.batched = True
    assert evaluate(f, points).tobytes() == want.tobytes()
    assert len(seen) == 1 and seen[0].shape == points.shape


def pointwise(fn, ndim):
    def wrapped(w):
        assert w.shape == (ndim,)
        return fn(w)

    return wrapped


def test_pointwise_callables_through_jet(bump):
    u = np.array([0.3, -0.2])
    frame = mes.sharp_frame(bump, u)

    def mu(w):
        return np.sin(w[0]) * np.cos(0.5 * w[1])

    b = rig.b_from_mu(pointwise(mu, 2), frame, DEFAULT_DIFF.inner2)
    assert abs(np.trace(b)) < 1e-9
    plane = emb.make_immersion("totally_geodesic")
    k = emb.gaussian_curvature(pointwise(plane, 2), u)
    assert abs(k + 1.0) < 1e-6

    single = pointwise(bump, 2)
    ext = con.extension_metric(single)
    p = np.array([0.2, -0.1, -0.5])
    r = con.riemann_constant_curvature_residual(pointwise(ext, 3), p, FDScheme(1e-2, True))
    assert r == con.extension_curvature(single, p) < 1e-3


def test_marked_metric_called_once_on_the_jet(bump):
    ext = con.extension_metric(bump)
    p = np.array([0.2, -0.1, -0.5])
    shapes = []

    def metric(q):
        shapes.append(q.shape)
        return ext(q)

    metric.batched = True
    r = con.riemann_constant_curvature_residual(metric, p, FDScheme(1e-2, True))
    assert shapes == [(37, 3)]
    assert r == con.extension_curvature(bump, p)


def test_builtin_metric_fields_are_marked_batched(bump, monkeypatch):
    # the extension metric and the chart metric field map over leading axes
    # and say so: one call on a batch's whole stencil, with the bits of one
    # call per point
    p = np.array([[0.2, -0.1, -0.5], [0.1, 0.3, -0.4], [-0.3, 0.0, -0.6], [0.0, 0.2, -0.3]])
    scheme = FDScheme(1e-2, True)
    ext = con.extension_metric(bump)
    per_point = [con.riemann_constant_curvature_residual(pointwise(ext, 3), q, scheme)
                 for q in p]
    data_calls = []

    def embedding_data_at(*args, **kwargs):
        data_calls.append(args[1].shape)
        return emb.embedding_data_at(*args, **kwargs)

    monkeypatch.setattr(con, "embedding_data_at", embedding_data_at)
    r = con.riemann_constant_curvature_residual(ext, p, scheme)
    assert data_calls == [(37, 4, 2)]
    assert r.tobytes() == np.array(per_point).tobytes()
    assert r.tobytes() == con.extension_curvature(bump, p).tobytes()

    immersion_calls = []

    def evaluator(w):
        immersion_calls.append(w.shape)
        return bump(w)

    evaluator.batched = True
    g = emb.metric_field(evaluator)
    u = p[:, :2]
    gamma = emb.christoffels(g, u, DEFAULT_DIFF.field)
    assert immersion_calls == [(8, 9, 4, 2)]
    assert gamma.tobytes() == np.array([emb.christoffels(pointwise(g, 2), w, DEFAULT_DIFF.field)
                                        for w in u]).tobytes()


def test_pointwise_evaluator_gets_the_builtin_bits(bump):
    # a non-batched evaluator is called one (2,) point at a time on every
    # stacked stencil, and the layers return the bits of the built-in one
    single = pointwise(bump, 2)
    pts = np.random.default_rng(7).uniform(-0.8, 0.8, (5, 2))

    def mu(w):
        return np.sin(w[0]) * np.cos(0.5 * w[1])

    assert rig.exterior_derivative_identities(single, pointwise(mu, 2), pts[0]) \
        == rig.exterior_derivative_identities(bump, mu, pts[0])
    for layer in (emb.embedding_data_at, mes.sharp_frame):
        got, want = layer(single, pts), layer(bump, pts)
        for f in fields(want):
            value = getattr(want, f.name)
            assert np.asarray(getattr(got, f.name)).tobytes() == np.asarray(value).tobytes()
            assert np.shape(value)[:1] == (5,)
    for got, want in zip(emb.structure_residuals(single, pts),
                         emb.structure_residuals(bump, pts), strict=True):
        assert got.tobytes() == want.tobytes() and got.shape == (5,)


# ---------------------------------------------------------------------------
# the request layout and difference pass before the one-gather pass, kept as
# the reference: a table of shifts, the points as copies of u with one
# indexed add, and each numerator kind formed from views of the values

def _halves(scheme):
    h = scheme.step
    return (h, h / 2.0) if scheme.richardson else (h,)


def ref_table(dim, request):
    """(shifts, rows, cols, steps, first, second, divisors, pick)."""
    centre, first, second = request
    shifts = ((),) if centre else ()
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    rows = {}
    for scheme in dict.fromkeys(s for s in (second, first) if s is not None):
        rows[scheme] = len(shifts)
        shifts += tuple(((i, s),) for i in range(dim) for s in _offsets(scheme))
        if scheme == second:
            corners = [(a, b) for t in _halves(scheme) for a in (t, -t) for b in (t, -t)]
            shifts += tuple(((i, a), (j, b)) for a, b in corners for i, j in pairs)
    divisors, pick = [], None
    if first is not None:
        divisors += [[2.0 * t for t in _halves(first)]] * dim
    if second is not None:
        ts = _halves(second)
        pick = np.empty((dim, dim), dtype=int)
        for i in range(dim):
            pick[i, i] = len(divisors) + i
        for q, (i, j) in enumerate(pairs, start=len(divisors) + dim):
            pick[i, j] = pick[j, i] = q
        divisors += [[t * t for t in ts]] * dim + [[4.0 * t * t for t in ts]] * len(pairs)
    entries = [(row, i, s) for row, shift in enumerate(shifts) for i, s in shift]
    rows_, cols, steps = (np.array(column) for column in zip(*entries))
    return (shifts, rows_, cols, steps, rows.get(first), rows.get(second),
            np.ascontiguousarray(np.transpose(divisors)), pick)


def ref_request_points(u, request):
    u = np.asarray(u, dtype=float)
    shifts, rows, cols, steps = ref_table(u.shape[-1], request)[:4]
    points = u[None].repeat(len(shifts), axis=0)
    points[rows, ..., cols] += steps.reshape((-1,) + (1,) * (u.ndim - 1))
    return points


def ref_request_partials(values, request, dim):
    values = np.asarray(values)
    _, _, _, _, first, second, divisors, pick = ref_table(dim, request)
    shape = values.shape[1:]
    halves = len(divisors)
    width = 2 * halves * dim
    numerators = np.empty(divisors.shape + shape)
    q = 0
    if first is not None:
        axis = values[first:first + width].reshape((dim, halves, 2) + shape).swapaxes(0, 1)
        np.subtract(axis[:, :, 0], axis[:, :, 1], out=numerators[:, :dim])
        q = dim
    if second is not None:
        axis = values[second:second + width].reshape((dim, halves, 2) + shape).swapaxes(0, 1)
        diag = numerators[:, q:q + dim]
        np.subtract(axis[:, :, 0], 2.0 * values[0], out=diag)
        np.add(diag, axis[:, :, 1], out=diag)
        mixed = numerators[:, q + dim:]
        start = second + width
        corner = values[start:start + 4 * halves * mixed.shape[1]]
        corner = corner.reshape((halves, 4, mixed.shape[1]) + shape)
        np.subtract(corner[:, 0], corner[:, 1], out=mixed)
        np.subtract(mixed, corner[:, 2], out=mixed)
        np.add(mixed, corner[:, 3], out=mixed)
    numerators /= divisors.reshape(divisors.shape + (1,) * len(shape))
    quotients = (4.0 * numerators[1] - numerators[0]) / 3.0 if halves == 2 else numerators[0]
    return (values[0] if request[0] else None,
            None if first is None else quotients[:dim],
            None if pick is None else quotients[pick])


# the requests by kind, from two schemes of one Richardson setting
KINDS = {"centre": lambda a, b: (True, a, None), "shift_only": lambda a, b: (False, a, None),
         "jet": lambda a, b: (True, b, b), "two_schemes": lambda a, b: (True, a, b)}
SPECIAL_VALUES = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -1e-300,
                           1e300, -1.0])


@settings(max_examples=200, deadline=None, database=None)
@given(chart=st.sampled_from([(2,), (5, 2), (9, 100, 2)]),
       value=st.sampled_from([(), (4,), (2, 2)]), kind=st.sampled_from(sorted(KINDS)),
       richardson=st.booleans(), steps=st.tuples(st.floats(1e-6, 1e-1), st.floats(1e-6, 1e-1)),
       special=st.sampled_from([0.0, 0.05, 0.5, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_partials_keep_the_reference_bits(chart, value, kind, richardson, steps, special, seed):
    # the one-gather pass against the reference, bit for bit: signed zeros,
    # infinities and NaN of either sign in the values, -0.0 in the points,
    # and NaN where the reference has NaN
    request = KINDS[kind](*(FDScheme(step, richardson) for step in steps))
    centre, first, second = request
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, chart)
    u[rng.random(chart) < special / 2] = -0.0
    points = stencil(u, first, second)
    want_points = ref_request_points(u, (True, first, second))
    assert points.shape == want_points.shape and points.tobytes() == want_points.tobytes()
    if not centre:
        points = points[1:]
    values = rng.standard_normal(points.shape[:-1] + value)
    mask = rng.random(values.shape) < special
    values[mask] = rng.choice(SPECIAL_VALUES, int(mask.sum()))
    with np.errstate(all="ignore"):     # inf - inf, overflow
        got = (partials(values, first, second) if centre
               else (None, shift_partials(values, first), None))
        want = ref_request_partials(values, request, chart[-1])
    for g, w in zip(got, want, strict=True):
        assert (g is None) == (w is None)
        if w is not None:
            assert g.shape == w.shape and g.dtype == w.dtype
            # where two NaNs meet, numpy's strided and contiguous loops return
            # different ones: np.add(-nan, +nan) gives +nan on the reference's
            # strided views and -nan on contiguous arrays, so a NaN's sign
            # and payload are not part of the reference's bits
            nan = np.isnan(w)
            assert np.array_equal(np.isnan(g), nan) and g[~nan].tobytes() == w[~nan].tobytes()

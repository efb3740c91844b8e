"""Grid windows, stencil selection, and Lagrange interpolation."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsde_multistep import spacegrid
from fbsde_multistep import (
    ActiveWindow,
    GridSpec,
    OutOfDomainError,
    ValueField,
    grid_points,
    interpolate_values,
    neighbor_set,
)


def spec1d(h=0.1, origin=0.0):
    return GridSpec(q=1, h=h, origin=[origin])


def test_neighbor_set_enclosing_cell():
    window = ActiveWindow(lo=[-50], hi=[50])
    stencil = neighbor_set(spec1d(), window, [0.05], r=1)
    assert sorted(stencil[:, 0].tolist()) == [0, 1]


def test_neighbor_set_centered_with_tie_toward_lower():
    window = ActiveWindow(lo=[-50], hi=[50])
    stencil = neighbor_set(spec1d(), window, [0.0], r=2)
    assert sorted(stencil[:, 0].tolist()) == [-1, 0, 1]


def test_neighbor_set_tie_break_on_grid_point():
    window = ActiveWindow(lo=[0], hi=[50])
    stencil = neighbor_set(spec1d(), window, [0.50], r=1)
    assert sorted(stencil[:, 0].tolist()) == [4, 5]


def test_neighbor_set_clamps_at_window_edge():
    window = ActiveWindow(lo=[0], hi=[10])
    stencil = neighbor_set(spec1d(), window, [0.05], r=4)
    assert sorted(stencil[:, 0].tolist()) == [0, 1, 2, 3, 4]


def test_neighbor_set_cardinality_2d():
    spec = GridSpec(q=2, h=[0.1, 0.2], origin=[0.0, 0.0])
    window = ActiveWindow(lo=[-5, -5], hi=[5, 5])
    stencil = neighbor_set(spec, window, [0.12, 0.33], r=2)
    assert stencil.shape == (9, 2)


def test_neighbor_set_out_of_domain():
    window = ActiveWindow(lo=[-5], hi=[5])
    with pytest.raises(OutOfDomainError):
        neighbor_set(spec1d(), window, [0.7], r=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_queries_out_of_domain(bad):
    spec = GridSpec(q=2, h=[0.1, 0.2], origin=[0.0, 0.0])
    window = ActiveWindow(lo=[-5, -5], hi=[5, 5])
    values = np.zeros(window.extents)
    points = np.array([[0.0, 0.0], [0.1, bad]])
    with pytest.raises(OutOfDomainError):
        interpolate_values(values, window, spec, points, r=2)
    with pytest.raises(OutOfDomainError):
        neighbor_set(spec, window, points[1], r=2)


def test_neighbor_set_requires_positive_degree():
    window = ActiveWindow(lo=[-5], hi=[5])
    with pytest.raises(ValueError):
        neighbor_set(spec1d(), window, [0.0], r=0)


def sample_field(spec, window, fn):
    pts = grid_points(spec, window)
    return fn(pts).reshape(window.extents)


def test_constant_field_reproduced_everywhere():
    spec = spec1d()
    window = ActiveWindow(lo=[-30], hi=[30])
    values = sample_field(spec, window, lambda X: np.full(X.shape[0], 2.25))
    probes = np.linspace(-2.9, 2.9, 41)[:, None]
    out = interpolate_values(values, window, spec, probes, r=5)
    np.testing.assert_allclose(out, 2.25, atol=1e-12)


def test_partition_of_unity_random_points():
    # Interpolating the constant 1 exercises the basis-weight sums directly.
    rng = np.random.default_rng(7)
    spec = GridSpec(q=2, h=[0.13, 0.09], origin=[0.4, -0.2])
    window = ActiveWindow(lo=[-20, -20], hi=[20, 20])
    values = np.ones(window.extents)
    probes = np.stack(
        [rng.uniform(-1.5, 1.5, 200) * 0.13 + 0.4, rng.uniform(-1.5, 1.5, 200) * 0.09 - 0.2],
        axis=1,
    )
    for r in (1, 3, 6):
        out = interpolate_values(values, window, spec, probes, r=r)
        np.testing.assert_allclose(out, 1.0, atol=1e-12)


def test_grid_point_queries_return_stored_values():
    spec = spec1d(h=0.25)
    window = ActiveWindow(lo=[-8], hi=[8])
    rng = np.random.default_rng(3)
    values = rng.normal(size=window.extents)
    pts = grid_points(spec, window)
    out = interpolate_values(values, window, spec, pts, r=4)
    np.testing.assert_allclose(out, values.ravel(), atol=1e-12)


@pytest.mark.parametrize("r", [1, 2, 3, 6, 10, 15])
def test_grid_node_queries_raise_no_warning(r):
    # Dyadic spacings keep the grid coordinates of the nodes exact integers.
    rng = np.random.default_rng(r)
    for spec, window in [
        (spec1d(h=0.25), ActiveWindow(lo=[-8], hi=[8])),
        (GridSpec(q=2, h=[0.25, 0.5], origin=[0.0, 0.0]), ActiveWindow(lo=[-9, -8], hi=[8, 9])),
    ]:
        values = rng.normal(size=window.extents + (2,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = interpolate_values(values, window, spec, grid_points(spec, window), r)
        np.testing.assert_array_equal(out, values.reshape(-1, 2))


def test_cubic_reproduces_cubic_polynomial():
    spec = spec1d()
    window = ActiveWindow(lo=[-60], hi=[60])
    values = sample_field(spec, window, lambda X: X[:, 0] ** 3)
    probes = np.linspace(-4.9, 4.9, 57)[:, None]
    out = interpolate_values(values, window, spec, probes, r=3)
    np.testing.assert_allclose(out, probes[:, 0] ** 3, atol=1e-10)


@pytest.mark.parametrize("r", [1, 2, 3, 6, 8, 10, 12, 14])
def test_polynomial_reproduction_random_coeffs(r):
    rng = np.random.default_rng(100 + r)
    spec = spec1d(h=0.2, origin=0.3)
    window = ActiveWindow(lo=[-40], hi=[40])
    coeff = rng.uniform(-1, 1, size=r + 1)
    values = sample_field(spec, window, lambda X: np.polyval(coeff, X[:, 0]))
    probes = (rng.uniform(-5.0, 5.0, 64) + 0.3)[:, None]
    out = interpolate_values(values, window, spec, probes, r=r)
    np.testing.assert_allclose(out, np.polyval(coeff, probes[:, 0]), atol=1e-10, rtol=1e-10)


def test_tensor_polynomial_reproduction_2d():
    rng = np.random.default_rng(11)
    spec = GridSpec(q=2, h=[0.15, 0.1], origin=[0.0, 0.0])
    window = ActiveWindow(lo=[-25, -25], hi=[25, 25])
    cx = rng.uniform(-1, 1, 4)
    cy = rng.uniform(-1, 1, 4)
    fn = lambda X: np.polyval(cx, X[:, 0]) * np.polyval(cy, X[:, 1])
    values = sample_field(spec, window, fn)
    probes = rng.uniform(-1.5, 1.5, size=(50, 2))
    out = interpolate_values(values, window, spec, probes, r=3)
    np.testing.assert_allclose(out, fn(probes), atol=1e-10)


def sin_interp_error(h, r):
    spec = spec1d(h=h)
    window = ActiveWindow(lo=[int(-3 / h)], hi=[int(3 / h)])
    values = sample_field(spec, window, lambda X: np.sin(X[:, 0]))
    probes = np.linspace(-1.0, 1.0, 201)[:, None]
    out = interpolate_values(values, window, spec, probes, r=r)
    return np.max(np.abs(out - np.sin(probes[:, 0])))


def test_sin_refinement_order_r4():
    # Halving h must shrink the error by roughly 2^(r+1).
    ratio = sin_interp_error(0.1, 4) / sin_interp_error(0.05, 4)
    assert 2**4.5 < ratio < 2**5.5


@pytest.mark.parametrize("trailing", [(), (2, 3)])
@pytest.mark.parametrize("r", [1, 6, 8, 10, 12, 14])
@pytest.mark.parametrize("q", [1, 2])
def test_query_blocks_match_one_point_calls(q, r, trailing):
    rng = np.random.default_rng(100 * q + r + len(trailing))
    spec = GridSpec(q=q, h=[0.25, 0.5][:q], origin=[0.5, -1.0][:q])
    window = ActiveWindow(lo=[-r - 2] * q, hi=[r + 3] * q)
    values = rng.normal(size=window.extents + trailing)
    block = spacegrid.queries_per_block(q, r)
    u = rng.uniform(window.lo - 0.49, window.hi + 0.49, size=(3 * block + 7, q))
    u[::5] = np.rint(u[::5])  # exact node hits, whose basis rows are one-hot
    points = spec.origin + spec.h * u
    out = interpolate_values(values, window, spec, points, r)
    edges = {b * block + e for b in (1, 2, 3) for e in (-1, 0)}
    tail = set(range(len(points) - 7, len(points)))  # the remainder block
    for i in sorted(set(range(0, len(points), 97)) | edges | tail):
        one = interpolate_values(values, window, spec, points[i : i + 1], r)
        np.testing.assert_array_equal(out[i : i + 1], one)


def test_value_field_rejects_mismatched_extents():
    window = ActiveWindow(lo=[0], hi=[4])
    with pytest.raises(ValueError):
        ValueField(window=window, values=np.zeros((3, 2)), p=1, level=0)


def test_value_field_rejects_non_finite():
    window = ActiveWindow(lo=[0], hi=[2])
    y = np.array([[0.0], [np.nan], [1.0]])
    with pytest.raises(ValueError):
        ValueField(window=window, values=np.concatenate([y, np.zeros((3, 1))], -1), p=1, level=1)


def _field_p2_d2(window):
    # row [y1 y2 | z11 z12 z21 z22] per point, z row-major
    values = np.arange(np.prod(window.extents) * 6, dtype=float).reshape(window.extents + (6,))
    return ValueField(window=window, values=values, p=2, level=4)


def test_value_field_is_read_only_with_views_into_its_rows():
    window = ActiveWindow(lo=[0, -1], hi=[2, 1])
    field = _field_p2_d2(window)
    assert field.y_values.shape == (3, 3, 2) and field.z_values.shape == (3, 3, 2, 2)
    assert np.shares_memory(field.y_values, field.values)
    assert np.shares_memory(field.z_values, field.values)
    np.testing.assert_array_equal(field.y_values[1, 2], field.values[1, 2, :2])
    np.testing.assert_array_equal(field.z_values[1, 2], field.values[1, 2, 2:].reshape(2, 2))
    with pytest.raises(ValueError):
        field.values[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        field.y_values[0, 0] = 1.0
    with pytest.raises(ValueError):
        field.z_values[0, 0] = 1.0


@pytest.mark.parametrize("width, p", [(1, 1), (3, 2), (5, 2), (2, 0)])
def test_value_field_rejects_a_last_axis_not_p_plus_p_d(width, p):
    # the last axis must be p + p*d with p >= 1 and d >= 1
    with pytest.raises(ValueError):
        ValueField(window=ActiveWindow(lo=[0], hi=[2]), values=np.zeros((3, width)), p=p, level=0)


def test_value_field_rejects_leading_extents_off_the_window():
    window = ActiveWindow(lo=[0, 0], hi=[2, 3])
    _field_p2_d2(window)
    for shape in [(4, 3, 6), (3, 4), (3, 4, 1, 6), (12, 6)]:
        with pytest.raises(ValueError):
            ValueField(window=window, values=np.zeros(shape), p=2, level=0)


def test_window_validation():
    with pytest.raises(ValueError):
        ActiveWindow(lo=[3], hi=[1])
    with pytest.raises(ValueError):
        GridSpec(q=1, h=0.0, origin=[0.0])


def _lagrange_fractions(u, nodes):
    """Exact 1-d Lagrange basis l_i(u) on the given integer nodes."""
    return [
        math.prod((Fraction(u) - b) / (a - b) for b in nodes if b != a) for a in nodes
    ]


# Kernel rounding bound per probe and column: KERNEL_ROUNDING * eps *
# sum_i |l_i(x)| |v_i|, the Lebesgue-weighted data of the probe's stencil
# (Berrut & Trefethen, SIAM Review 2004).  The product form is backward stable
# (Higham, IMA J. Numer. Anal. 2004), edge bands included: the multiple
# measures at most 1.12, 0.98, 1.51, 1.60 and 1.05 for r = 1, 3, 6, 10 and 15.
# The second barycentric form it replaced measured 1.7 for r <= 6 but 48 at
# r = 10 and 2.3e3 at r = 15, at the outer limit of the half-cell edge band.
# A wrong stencil or weight errs by O(|v|), far above the bound.
KERNEL_ROUNDING = 4


def _probe_coordinates(lo, hi, rng):
    """Grid coordinates, per dimension, of the probes of the reference test.

    Exact nodes, half-cell points (the stencil tie for even and, at the
    nodes, for odd r), both half-cell edge bands including their outer
    limits, and interior points; all dyadic, so x = origin + h*u is exact.
    """
    return [
        float(lo), float(hi), lo + 1.0, (lo + hi) // 2 + 0.5, hi - 1.5,
        lo - 0.5, lo - 0.125, hi + 0.25, hi + 0.5,
        *(rng.integers(lo * 1024, hi * 1024, size=3) / 1024.0),
    ]


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([1, 2]), r=st.integers(1, 10), data=st.data())
def test_partition_of_unity_within_a_lebesgue_weighted_bound(q, r, data):
    # Interpolating ones on a random window gives 1 to within q *
    # KERNEL_ROUNDING * eps * Lambda(x), Lambda(x) = prod over axes of
    # sum_i |l_i(u)| over the probe's stencil: each axis contraction rounds
    # once per Lebesgue-weighted sum (measured at most 2.5 for q = 1 and 2.9
    # for q = 2 over 3000 random windows)
    axes = st.lists(st.integers(-40, 0), min_size=q, max_size=q)
    lo = np.array(data.draw(axes))
    hi = lo + np.array(data.draw(st.lists(st.integers(r, r + 30), min_size=q, max_size=q)))
    h = data.draw(st.lists(st.floats(0.01, 2.0), min_size=q, max_size=q))
    origin = data.draw(st.lists(st.floats(-5.0, 5.0), min_size=q, max_size=q))
    spec, window = GridSpec(q=q, h=h, origin=origin), ActiveWindow(lo=lo, hi=hi)
    u = np.array(data.draw(st.lists(
        st.tuples(*(st.floats(float(a) - 0.49, float(b) + 0.49) for a, b in zip(lo, hi))),
        min_size=1, max_size=20,
    )))
    points = spec.origin + spec.h * u
    out = interpolate_values(np.ones(window.extents), window, spec, points, r)
    for x, got in zip(points, out):
        stencil, coords = neighbor_set(spec, window, x, r), spec.to_grid_coords(x)
        lebesgue = math.prod(
            sum(abs(math.prod((c - b) / (a - b) for b in nodes if b != a)) for a in nodes)
            for c, nodes in ((coords[dim], np.unique(stencil[:, dim])) for dim in range(q))
        )
        assert abs(got - 1.0) <= q * KERNEL_ROUNDING * np.finfo(float).eps * lebesgue


@pytest.mark.parametrize("trailing", [(), (2,), (2, 1), (2, 3)])
@pytest.mark.parametrize("r", [1, 3, 6, 8, 10, 12, 14, 15])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_kernel_matches_exact_lagrange_reference(q, r, trailing):
    rng = np.random.default_rng(1000 * q + 10 * r + len(trailing))
    spec = GridSpec(q=q, h=[0.5, 0.25, 0.125][:q], origin=[0.75, -1.5, 2.0][:q])
    window = ActiveWindow(lo=[-3] * q, hi=[r] * q)
    values = rng.normal(size=window.extents + trailing) * 10.0 ** rng.integers(-3, 4)
    coords = _probe_coordinates(-3, r, rng)
    u = np.array([rng.permutation(coords) for _ in range(q)]).T
    points = spec.origin + spec.h * u
    np.testing.assert_array_equal(spec.to_grid_coords(points), u)
    out = interpolate_values(values, window, spec, points, r=r)
    assert out.shape == (len(points),) + trailing

    columns = values.reshape(window.extents + (-1,))
    eps = np.finfo(float).eps
    for x, ux, got in zip(points, u, out.reshape(len(points), -1)):
        stencil = neighbor_set(spec, window, x, r)
        axes = [np.unique(stencil[:, dim]) for dim in range(q)]
        ell = [_lagrange_fractions(ux[dim], axes[dim].tolist()) for dim in range(q)]
        weights = [math.prod(ws) for ws in itertools.product(*ell)]
        data = columns[tuple((stencil - window.lo).T)]  # (stencil, columns)
        for col in range(data.shape[1]):
            v = [Fraction(float(d)) for d in data[:, col]]
            exact = float(sum(w * d for w, d in zip(weights, v)))
            floor = eps * float(sum(abs(w) * abs(d) for w, d in zip(weights, v)))
            assert abs(got[col] - exact) <= KERNEL_ROUNDING * floor


PLAIN_SUM_CASES = [(1, r) for r in range(1, 15)] + [(2, 3), (2, 6), (2, 8)]


@pytest.mark.parametrize(
    "q, r", PLAIN_SUM_CASES, ids=[str(r) if q == 1 else f"q{q}-{r}" for q, r in PLAIN_SUM_CASES]
)
def test_one_column_1d_result_is_a_plain_stencil_sum(q, r):
    # The kernel sums each axis in stencil order, one weighted term w_i v_i
    # at a time, the last axis first: a one-column result is bitwise the
    # plain sequential sum along every axis, for every (q, r).  Coupled
    # outer loops, whose exits compare residuals with eps0, rely on it.
    # numpy's np.sum over 8 or more contiguous terms would not be that: its
    # pairwise summation splits them into partial sums.
    rng = np.random.default_rng(70 + r + 100 * (q - 1))
    lo, hi = [-12, -9][:q], [15, 11][:q]
    spec = GridSpec(q=q, h=[0.3, 0.2][:q], origin=[-0.2, 0.1][:q])
    window = ActiveWindow(lo=lo, hi=hi)
    values = rng.normal(size=window.extents) * 10.0 ** rng.integers(-3, 4, size=window.extents)
    u = rng.uniform(window.lo - 0.5, window.hi + 0.5, size=(2000 if q == 1 else 600, q))
    points = spec.origin + spec.h * u
    got = interpolate_values(values, window, spec, points, r)
    # Interpolating the identity on one axis's grid gives every query's
    # weight of every grid point along that axis.
    weights, starts = [], []
    for dim in range(q):
        axis_spec = spec1d(h=spec.h[dim], origin=spec.origin[dim])
        axis_window = ActiveWindow(lo=[lo[dim]], hi=[hi[dim]])
        along = points[:, dim : dim + 1]
        eye = np.eye(window.extents[dim])
        weights.append(interpolate_values(eye, axis_window, axis_spec, along, r))
        first = [neighbor_set(axis_spec, axis_window, x, r)[0, 0] for x in along]
        starts.append(np.array(first) - lo[dim])
    rows = np.arange(len(points))

    def plain_sum(dim, term):
        """sum_i w_i term(i) along ``dim``, added in stencil order."""
        total = weights[dim][rows, starts[dim]] * term(0)
        for i in range(1, r + 1):
            total = total + weights[dim][rows, starts[dim] + i] * term(i)
        return total

    if q == 1:
        plain = plain_sum(0, lambda i: values[starts[0] + i])
    else:  # the last axis in stencil order, then the first
        plain = plain_sum(0, lambda i: plain_sum(1, lambda j: values[starts[0] + i, starts[1] + j]))
    np.testing.assert_array_equal(got, plain)


@pytest.mark.parametrize("trailing", [(), (2, 3)])
@pytest.mark.parametrize("q, r", [(1, 1), (1, 6), (1, 7), (1, 15), (2, 1), (2, 6), (3, 3)])
def test_plan_applies_bitwise_as_interpolate_values(q, r, trailing):
    # A plan built once reads any field on its window as a streaming call
    # would, across several query blocks.
    rng = np.random.default_rng(10 * q + r)
    spec = GridSpec(q=q, h=[0.25, 0.5, 0.2][:q], origin=[0.5, -1.0, 0.1][:q])
    window = ActiveWindow(lo=[-r - 2] * q, hi=[r + 3] * q)
    block = spacegrid.queries_per_block(q, r)
    u = rng.uniform(window.lo - 0.5, window.hi + 0.5, size=(2 * block + 5, q))
    points = spec.origin + spec.h * u
    plan = spacegrid.interpolation_plan(window, spec, points, r)
    for _ in range(2):
        values = rng.normal(size=window.extents + trailing)
        np.testing.assert_array_equal(
            plan.apply(values), interpolate_values(values, window, spec, points, r)
        )
    with pytest.raises(ValueError, match="window extents"):
        plan.apply(np.zeros((3,) * q))

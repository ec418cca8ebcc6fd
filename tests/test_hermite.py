import dataclasses
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from oscilab import hermite
from oscilab.hermite import (
    BasisError,
    audit_axis,
    build_basis,
    enumerate_multi_indices,
    gauss_hermite_nodes,
    gram_deviation,
    hermite_function_values,
)
from oscilab.fields import SpectralField, analyze, product_quadrature, synthesize, unit_field


def tensor_grid(axis: np.ndarray, dim: int) -> np.ndarray:
    """The dim-fold tensor grid of a 1-D axis as points, shape (len(axis)^dim, dim), C order:
    the point order of ``grid_values``, ``BasisGrid.radius2`` and ``BasisGrid.weights``."""
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def test_ground_state_value(basis64):
    # closed form h_0(x) = pi^(-1/4) exp(-x^2/2)
    val = (unit_field(basis64, 0).coeffs @ basis64.eval_at(np.array([0.0])))[0]
    assert abs(val - np.pi**-0.25) < 1e-14


def test_gram_identity_reference(basis64):
    assert gram_deviation(basis64) <= 1e-10


def test_gram_identity_n32():
    assert gram_deviation(build_basis(1, 32, 128)) <= 1e-10


def test_single_function_basis():
    basis = build_basis(1, 0, 8)
    assert basis.size == 1
    val = (unit_field(basis, 0).coeffs @ basis.eval_at(np.array([0.0])))[0]
    assert abs(val - 0.7511255444649425) < 1e-12


def test_enumeration_count_and_order():
    idx = enumerate_multi_indices(2, 3)
    assert len(idx) == 10  # pairs (n1, n2) with n1 + n2 <= 3
    degrees = [sum(n) for n in idx]
    assert degrees == sorted(degrees)
    assert len(set(idx)) == len(idx)
    for dim in (1, 2, 3):
        for max_degree in (0, 1, 3, 4, 9):
            idx = enumerate_multi_indices(dim, max_degree)
            assert list(idx) == sorted(idx, key=lambda n: (sum(n), n))  # graded lexicographic


def test_eigenvalues():
    # lambda_n^2 = 2|n| + d, per enumerated index
    assert build_basis(1, 5, 12).lambda2.tolist() == [1.0, 3.0, 5.0, 7.0, 9.0, 11.0]
    assert build_basis(3, 1, 4).lambda2[0] == 3.0


def test_eigenvalue_by_finite_differences():
    # independent oracle: apply -d^2/dx^2 + x^2 on a uniform grid, 4th order
    h = 0.01
    x = np.arange(-12.0, 12.0 + h / 2, h)
    u = hermite_function_values(5, x)[5]
    d2 = (-u[:-4] + 16 * u[1:-3] - 30 * u[2:-2] + 16 * u[3:-1] - u[4:]) / (12 * h * h)
    xin = x[2:-2]
    hu = -d2 + xin * xin * u[2:-2]
    rayleigh = np.sum(hu * u[2:-2]) / np.sum(u[2:-2] ** 2)
    assert abs(rayleigh - 11.0) < 1e-6


def test_quadrature_threshold_rejected():
    with pytest.raises(BasisError):
        build_basis(1, 32, 60)


def test_coefficient_budget_rejected():
    # C(123, 3) = 302,621 functions, over the 200,000 budget
    with pytest.raises(BasisError, match="coefficient budget"):
        build_basis(3, 120, 242)


def test_weights_positive_nodes_symmetric():
    nodes, weights, _ = gauss_hermite_nodes(512, 0)
    assert np.all(weights > 0)
    assert np.all(np.isfinite(weights))
    assert np.max(np.abs(nodes + nodes[::-1])) < 1e-12


def test_recurrence_bounded():
    # Hermite functions never exceed the ground-state peak
    table = hermite_function_values(200, audit_axis(200, 1))
    assert np.abs(table).max() <= 0.76


def test_synthesize_unit_and_zero(basis16):
    u = unit_field(basis16, 0)
    assert np.allclose(synthesize(u), basis16.eval_table[0])
    z = SpectralField(basis16, np.zeros(basis16.size, complex))
    assert np.all(synthesize(z) == 0)


def test_analyze_left_inverse(basis64, rng):
    c = rng.normal(size=basis64.size) + 1j * rng.normal(size=basis64.size)
    u = SpectralField(basis64, c)
    back = analyze(synthesize(u), basis64)
    assert np.max(np.abs(back.coeffs - c)) <= 1e-10 * np.linalg.norm(c)


def test_analyze_picks_out_single_mode(basis64):
    vals = basis64.eval_table[3]
    c = analyze(vals, basis64).coeffs
    assert abs(c[3] - 1.0) < 1e-10
    c[3] = 0
    assert np.max(np.abs(c)) <= 1e-10


def test_analyze_x_times_ground_state(basis64):
    # x h_0 = h_1 / sqrt(2) from the ladder recurrence
    vals = basis64.axis_nodes * basis64.eval_table[0]
    c = analyze(vals, basis64).coeffs
    assert abs(c[1] - 1.0 / np.sqrt(2)) < 1e-12


def test_analyze_out_of_span_energy():
    basis = build_basis(1, 16, 40)
    h17 = hermite_function_values(17, basis.axis_nodes)[17]
    u = analyze(h17, basis)
    assert np.max(np.abs(u.coeffs)) <= 1e-10  # orthogonal to the span
    # its quadrature mass is all outside the span: analysis drops it
    assert float(np.sum(basis.weights * h17**2)) - u.l2_norm**2 > 0.99


def test_parseval(basis64, rng):
    c = rng.normal(size=basis64.size) + 1j * rng.normal(size=basis64.size)
    u = SpectralField(basis64, c)
    quad_mass = float(np.sum(basis64.weights * np.abs(synthesize(u)) ** 2))
    assert abs(quad_mass - u.l2_norm**2) <= 1e-10 * u.l2_norm**2


@pytest.mark.parametrize("dim,n", [(1, 8), (2, 4)])
def test_shared_tables_read_only(dim, n):
    # worker threads share these arrays; an in-place write must fail, not race
    basis = build_basis(dim, n, 2 * (n + 1))
    tables = [getattr(basis, name) for name in (
        "radius2", "weights", "eval_table", "axis_nodes", "axis_weights", "degrees", "lambda2")]
    tables += [basis.audit_table(), *product_quadrature(basis, 2 * n)]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0


@pytest.mark.parametrize("dim,n", [(1, 40), (2, 12), (3, 6)])
def test_frozen_basis_derives_each_table_once(dim, n):
    basis = build_basis(dim, n, 2 * (n + 1))
    for field in dataclasses.fields(basis):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(basis, field.name, getattr(basis, field.name))
    derived = ("degrees", "lambda2", "radius2", "_positions", "_index_array", "_box_positions", "_audit_peak")
    for name in derived:
        assert getattr(basis, name) is getattr(basis, name), name
        if name != "_positions":
            with pytest.raises(ValueError, match="read-only"):
                getattr(basis, name)[...] = 0
    assert basis.audit_table() is basis.audit_table()
    # the axis-only grid gives the bits of the (points x dim) grid that it replaces
    points = tensor_grid(basis.axis_nodes, dim)
    assert np.array_equal(basis.radius2, np.sum(points**2, axis=1))
    weights = np.ones(len(points))
    for w in tensor_grid(basis.axis_weights, dim).T:
        weights = weights * w
    assert np.array_equal(basis.weights, weights)
    radius2, _, table = product_quadrature(basis, 5 * n)
    points = tensor_grid(gauss_hermite_nodes(table.shape[1], 0)[0], dim)
    assert np.array_equal(radius2, np.sum(points**2, axis=1))


@pytest.mark.parametrize("n", [8, 40])
def test_product_quadrature_reuses_a_fine_enough_basis(n):
    basis = build_basis(1, n, 2 * (n + 1))
    radius2, weights, table = product_quadrature(basis, 2 * n)
    assert radius2 is basis.radius2 and weights is basis.weights and table is basis.eval_table
    # a quintic product needs ceil(6n / 2) + 1 > 2(n + 1) nodes: a finer grid is built
    radius2, weights, table = product_quadrature(basis, 5 * n)
    assert radius2.shape == (3 * n + 1,) and table.shape == (basis.size, 3 * n + 1)
    assert table is not basis.eval_table


def test_multidim_basis_orthonormal():
    basis = build_basis(2, 3, 16)
    assert basis.size == 10
    assert gram_deviation(basis) <= 1e-10


def test_multidim_rayleigh():
    from oscilab.fields import rayleigh_quotient

    basis = build_basis(2, 4, 12)
    u = unit_field(basis, (1, 1))
    assert abs(rayleigh_quotient(u) - 6.0) < 1e-8


def test_three_dim_basis():
    basis = build_basis(3, 2, 6)
    assert basis.size == 10  # C(5, 3)
    assert gram_deviation(basis) <= 1e-10
    assert basis.lambda2[basis.index_position((1, 0, 1))] == 7.0
    with pytest.raises(BasisError):
        build_basis(4, 2, 6)


def test_off_node_evaluation_matches_table(basis16):
    pts = basis16.axis_nodes[:5]
    table = basis16.eval_at(pts)
    assert np.allclose(table, basis16.eval_table[:, :5], atol=1e-13)


def test_tensor_grid_too_large_is_refused_before_allocating():
    # 400^3 nodes x (3 coordinates + 1 weight) x 8 B is 2 GB: refused from the sizes alone
    start = time.perf_counter()
    with pytest.raises(BasisError, match="tensor grid"):
        build_basis(3, 2, 400)
    assert time.perf_counter() - start < 5.0


def test_product_quadrature_holds_no_dense_table(traced_peak):
    # the quintic d = 3, N = 12 grid: 43^3 nodes, where a (modes x nodes) table took 287 MiB
    basis = build_basis(3, 12, 26)
    (radius2, weights, table), peak = traced_peak(product_quadrature, basis, 72)
    assert radius2.shape == (43**3,) and weights.shape == (43**3,) and table.shape == (13, 43)
    assert peak < 16 * 2**20


def audit_value_slabs(basis, coeffs):
    """grid_values(coeffs, audit_table()) one slab of ``audit_tiles`` at a time, as (start, values):
    the (m, points) values of the grid points start, start + 1, ... in C order.

    A slab is the points of one first-axis grid point.  It runs the
    contractions of grid_values, so the whole (m, P^dim) values never exist
    at once.
    """
    table = basis.audit_table()
    if basis.dim == 1:
        yield 0, basis.grid_values(coeffs, table)
        return
    partial = basis._contract(basis._box(coeffs), table, range(1))
    for i in range(len(partial)):
        vals = basis._contract(partial[i : i + 1], table, range(1, basis.dim))
        yield i * table.shape[1] ** (basis.dim - 1), np.moveaxis(vals, -1, 0).reshape(len(coeffs), -1)


@pytest.mark.parametrize("dim,n", [(1, 0), (1, 6), (2, 1), (2, 6), (3, 2), (3, 6)])
def test_factored_audit_values_match_eval_at(dim, n):
    basis = build_basis(dim, n, 2 * (n + 1))
    rng = np.random.default_rng(dim * 100 + n)
    coeffs = rng.normal(size=(3, basis.size)) + 1j * rng.normal(size=(3, basis.size))
    axis = audit_axis(n, dim)
    count = axis.size**dim
    assert basis.audit_table().shape == (n + 1, axis.size)
    subset = rng.choice(count, size=min(500, count), replace=False)
    # the C-order points of grid_values, as tensor_grid lists them
    points = axis[np.stack(np.unravel_index(subset, (axis.size,) * dim), axis=1)]
    if dim < 3:
        assert np.array_equal(points, tensor_grid(axis, dim)[subset])
    want = coeffs @ basis.eval_at(points)
    seen = err = single_err = single_max = 0.0
    # one field synthesizes like a row of the batch
    for (start, values), (_, single) in zip(audit_value_slabs(basis, coeffs), audit_value_slabs(basis, coeffs[1:2])):
        assert values.shape[0] == 3 and start == seen
        seen += values.shape[1]
        inside = (subset >= start) & (subset < seen)
        got = values[:, subset[inside] - start]
        if dim == 1:
            assert np.array_equal(got, want[:, inside])
        else:
            err = max(err, np.max(np.abs(got - want[:, inside]), initial=0.0))
        single_err = max(single_err, np.max(np.abs(single[0] - values[1])))
        single_max = max(single_max, np.max(np.abs(single)))
    assert seen == count
    assert err <= 1e-13 * np.max(np.abs(want))
    assert single_err <= 1e-13 * single_max


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_eval_at_on_nodes_is_the_eval_table(dim):
    # the per-axis table synthesizes and analyzes on the nodes like the dense (modes x nodes) table
    basis = build_basis(dim, 3, 8)
    assert basis.eval_table.shape == (4, 8)
    rng = np.random.default_rng(dim)
    coeffs = rng.normal(size=(3, basis.size)) + 1j * rng.normal(size=(3, basis.size))
    dense = basis.eval_at(tensor_grid(basis.axis_nodes, dim))
    want = coeffs @ dense
    values = basis.grid_values(coeffs, basis.eval_table)
    assert np.max(np.abs(values - want)) <= 1e-13 * np.max(np.abs(want))
    want = (values * basis.weights) @ dense.T
    back = basis.grid_coeffs(values, basis.eval_table, basis.weights)
    assert np.max(np.abs(back - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(back - coeffs)) <= 1e-12 * np.max(np.abs(coeffs))


@pytest.mark.parametrize("dim,n", [(1, 9), (2, 5), (3, 3)])
@pytest.mark.parametrize("m", [1, 65])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_project_pointwise_is_grid_coeffs_of_f_of_grid_values_bitwise(dim, n, m, kind):
    basis = build_basis(dim, n, 2 * (n + 1))
    _, weights, table = product_quadrature(basis, 6 * n)  # a grid finer than the basis's own
    rng = np.random.default_rng(10 * dim + m)
    coeffs = rng.normal(size=(m, basis.size))
    if kind == "complex":
        coeffs = coeffs + 1j * rng.normal(size=(m, basis.size))

    def f(values):
        values *= np.abs(values)

    values = basis.grid_values(coeffs, table)
    f(values)
    want = basis.grid_coeffs(values, table, weights)
    got = basis.project_pointwise(coeffs, table, weights, f)
    assert got.shape == (m, basis.size) and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def by_tiles(fn, rows, width):
    """fn over tiles of ``width`` rows, every one starting at a multiple of width, stacked in order."""
    return np.concatenate([fn(rows[lo : lo + width]) for lo in range(0, len(rows), width)])


@pytest.mark.parametrize("dim,n", [(1, 9), (2, 5), (3, 3)])
def test_tiles_of_four_rows_keep_the_bits_of_the_whole(dim, n):
    # the tile rule of picard._Workspace: rows (time nodes) tiled from multiples of 4 give each
    # row the bits of one whole call, through the pointwise projection and the audit sup alike
    basis = build_basis(dim, n, 2 * (n + 1))
    _, weights, table = product_quadrature(basis, 6 * n)
    rng = np.random.default_rng(dim)

    def project(rows):
        def f(values):
            mod = np.abs(values)
            np.power(mod, 4, out=mod)
            values *= mod

        return basis.project_pointwise(rows, table, weights, f)

    for m in [*range(1, 10), 65]:
        # rows like a solve's, the ground state and a part decaying with the degree, so that the
        # audit sup prunes as it would there (on plain random rows this test takes 4x longer)
        coeffs = 0.1 * (rng.normal(size=(m, basis.size)) + 1j * rng.normal(size=(m, basis.size))) * 0.5**basis.degrees
        coeffs[:, 0] += 1.0
        whole = project(coeffs), basis.audit_sup(coeffs)
        for width in (4, 8, 16):
            assert by_tiles(project, coeffs, width).tobytes() == whole[0].tobytes(), (m, width)
            assert by_tiles(basis.audit_sup, coeffs, width).tobytes() == whole[1].tobytes(), (m, width)


def tile_sup(basis, coeffs):
    """The max over ``audit_tiles``, the audit sup before it pruned: the bitwise reference."""
    sup = np.zeros(coeffs.shape[0])
    for vals in basis.audit_tiles(coeffs):
        np.maximum(sup, vals.max(axis=0), out=sup)
    return sup


@pytest.mark.parametrize("dim,n", [(1, 6), (2, 4), (2, 6), (3, 2), (3, 4)])
def test_audit_sup_does_not_depend_on_tile_size(monkeypatch, dim, n):
    basis = build_basis(dim, n, 2 * (n + 1))
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=(5, basis.size)) + 1j * rng.normal(size=(5, basis.size))
    want = tile_sup(basis, coeffs)
    full = None
    if audit_axis(n, dim).size ** dim < 10**7:  # the whole grid: 9.8M points at d = 3, N = 2, 13.1M at N = 4
        full = np.max([np.abs(values).max(axis=1) for _, values in audit_value_slabs(basis, coeffs)], axis=0)
    sups = []
    for tile_bytes in (1, 3 * 2**10, 2**16, hermite.AUDIT_TILE_BYTES, 2**40):
        monkeypatch.setattr(hermite, "AUDIT_TILE_BYTES", tile_bytes)
        sups.append(basis.audit_sup(coeffs))
    assert all(np.array_equal(sup, want) for sup in sups)
    if full is not None:
        assert np.max(np.abs(sups[0] - full) / full) <= 1e-13


FINITE_ROW_KINDS = ("random", "zero", "single", "large", "small", "phase")


@st.composite
def audit_rows(draw, dim, kinds):
    n = draw(st.integers(0, {1: 16, 2: 8, 3: 4}[dim]))
    basis = hermite.cached_basis(dim, n, 2 * (n + 1))
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.normal(size=(len(kinds), basis.size)) + 1j * rng.normal(size=(len(kinds), basis.size))
    for r, kind in enumerate(kinds):
        if kind == "zero":
            rows[r] = 0
        elif kind == "single":
            rows[r] = 0
            rows[r, rng.integers(basis.size)] = np.exp(2j * np.pi * rng.random())
        elif kind in ("large", "small", "subnormal"):
            rows[r] *= 2.0 ** {"large": 400, "small": -400, "subnormal": -1060}[kind]
        elif kind == "scaled":  # any magnitude from below 2^-900 up to 1e300
            rows[r] *= 2.0 ** rng.uniform(-1000.0, np.log2(1e300))
        elif kind == "phase":  # a time node of the flow of row 0
            rows[r] = rows[0] * np.exp(-1j * np.pi * rng.random() * basis.lambda2)
        elif kind == "nan":
            rows[r, rng.integers(basis.size)] = np.nan
        elif kind == "inf":  # h_0..0 has no zero on the audit grid, so no inf * 0 arises
            rows[r, 0] = np.inf
    return basis, rows


def runtime_warnings(fn, *args):
    """fn(*args) and the set of RuntimeWarning messages it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        out = fn(*args)
    return out, {str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)}


def check_audit_sup_against_tile_max(basis, rows):
    # bit for bit, NaN rows included; and no RuntimeWarning the tile max does not raise too
    want, expected = runtime_warnings(tile_sup, basis, rows)
    got, raised = runtime_warnings(basis.audit_sup, rows)
    assert np.array_equal(got, want, equal_nan=True)
    assert raised <= expected


@settings(max_examples=40, deadline=None)
@given(
    audit_rows(1, FINITE_ROW_KINDS + ("subnormal", "nan", "inf")),
    st.sampled_from([1, 3 * 2**10, hermite.AUDIT_TILE_BYTES]),
)
def test_audit_sup_is_the_tile_max_bit_for_bit_d1(case, tile_bytes):
    # the point blocks of |u| in the d = 1 sup: one point at a time, a few, and all points at once
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(hermite, "AUDIT_TILE_BYTES", tile_bytes)
        check_audit_sup_against_tile_max(*case)


@settings(max_examples=40, deadline=None)
@given(audit_rows(2, FINITE_ROW_KINDS + ("subnormal", "nan", "inf")))
def test_audit_sup_is_the_tile_max_bit_for_bit_d2(case):
    check_audit_sup_against_tile_max(*case)


# rows that are never pruned (NaN, inf, and subnormal, whose bounds are below 2^-900) each cost
# two whole-grid passes of 1-3 s at d = 3, so they are drawn at d = 2, whose walk d = 3 recurses
@settings(max_examples=10, deadline=None)
@given(audit_rows(3, FINITE_ROW_KINDS))
def test_audit_sup_is_the_tile_max_bit_for_bit_d3(case):
    check_audit_sup_against_tile_max(*case)


def unbounded_slabs(basis, rows):
    """Per row, whether a slab's sum |partial| prod M is not a rigorous bound (see ``BasisGrid.audit_sup``):
    not finite, or below 2^-900 with a nonzero entry.  The sums run first degree axis first, the
    other way round from ``_cell_bounds``."""
    partial = basis._contract(basis._box(rows), basis.audit_table(), range(1))
    peak = np.abs(basis.audit_table()).max(axis=1)
    nonzero = (partial != 0).any(axis=tuple(range(1, basis.dim)))
    sums = np.abs(partial)
    with np.errstate(over="ignore"):
        for _ in range(1, basis.dim):
            sums = np.moveaxis(sums, 1, -1) @ peak
    return (~np.isfinite(sums) | ((sums < 2.0**-900) & nonzero)).any(axis=0)


BOUND_ROW_KINDS = ("random", "zero", "single", "phase", "scaled", "scaled", "subnormal", "nan", "inf")


@pytest.mark.parametrize("dim", [1, 2, 3])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_audit_sup_bound_is_at_least_the_audit_sup(dim, data):
    # the first level of the walk bounds each row's sup, or is NaN where a slab bound is not rigorous
    basis, rows = data.draw(audit_rows(dim, BOUND_ROW_KINDS))
    bound, raised = runtime_warnings(basis.audit_sup_bound, rows)
    assert bound.shape == (len(rows),) and not raised
    if dim == 1:  # the first contraction is the values: the bound is the sup
        assert np.array_equal(bound, basis.audit_sup(rows), equal_nan=True)
        return
    assert np.array_equal(np.isnan(bound), unbounded_slabs(basis, rows))
    # the sup of the rows whose slabs are all bounded; the others would walk the whole grid
    kept = rows[~np.isnan(bound)]
    if len(kept):
        assert np.all(basis.audit_sup_bound(kept) >= basis.audit_sup(kept))


def test_audit_sup_contracts_few_slabs_of_the_ground_state(monkeypatch):
    basis = build_basis(2, 16, 34)
    contract, contracted = hermite.BasisGrid._contract, []

    def counting(vals, table, axes):
        if list(axes) == [1]:
            contracted.append(len(vals))
        return contract(vals, table, axes)

    h00 = unit_field(basis, (0, 0)).coeffs[None, :]
    want = tile_sup(basis, h00)
    monkeypatch.setattr(hermite.BasisGrid, "_contract", staticmethod(counting))
    assert np.array_equal(basis.audit_sup(h00), want)
    assert 0 < sum(contracted) < audit_axis(16, 2).size / 2


def test_d1_audit_sup_memory(traced_peak):
    # 4096 complex rows at N = 15 (308 points): the grid values and one quarter-tile block of their |u|
    basis = build_basis(1, 15, 32)
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(4096, basis.size)) + 1j * rng.normal(size=(4096, basis.size))
    table = basis.audit_table()
    sup, peak = traced_peak(basis.audit_sup, rows)
    assert np.array_equal(sup, tile_sup(basis, rows))
    values_bytes = rows.shape[0] * table.shape[1] * 16
    # the (m,) sup and a block's (m,) max take the 2^16 B; a table-sized margin covers the small rest
    margin_bytes = table.size * 16
    assert peak <= values_bytes + hermite.AUDIT_TILE_BYTES // 4 + margin_bytes + 2**16


def test_d3_audit_sup_memory(traced_peak):
    # 65 time-node rows at d = 3, N = 2: a first-axis tile of 214^2 points x 65 rows alone is 47.6 MB
    basis = build_basis(3, 2, 6)
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    rows = coeffs * np.exp(-1j * np.linspace(0.0, np.pi / 4, 65)[:, None] * basis.lambda2)
    basis.audit_table()
    sup, peak = traced_peak(basis.audit_sup, rows)
    assert sup.shape == (65,) and np.all(sup > 0)
    assert peak <= 32 * 2**20


@st.composite
def fields_on_bases(draw):
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(0, {1: 12, 2: 8, 3: 4}[dim]))
    basis = hermite.cached_basis(dim, n, 2 * (n + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return SpectralField(basis, rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size))


@settings(max_examples=60, deadline=None)
@given(fields_on_bases())
def test_analysis_inverts_synthesis(u):
    back = analyze(synthesize(u), u.basis)
    assert np.max(np.abs(back.coeffs - u.coeffs)) <= 1e-13 * np.max(np.abs(u.coeffs))


# the d = 2 cases keep their bare-N ids
@pytest.mark.parametrize(
    "dim,n", [pytest.param(d, n, id=f"{n}" if d == 2 else f"d1-{n}") for d in (1, 2) for n in (1, 3, 4, 6, 7, 8)]
)
def test_contract_warns_for_no_lone_inf(dim, n):
    # OpenBLAS flags an invalid operation for a lone inf at some stack widths; only its values count
    basis = hermite.cached_basis(dim, n, 2 * (n + 1))
    row = np.zeros((1, basis.size), dtype=complex)
    row[0, 0] = np.inf  # the ground state has no zero on the audit grid
    table = basis.audit_table()
    zeroed = table.copy()
    zeroed[:, 5] = 0.0  # every h_n vanishes at axis point 5: inf * 0 there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = basis.grid_values(row, table)
        assert np.all(np.isposinf(values.real)) and np.all(values.imag == 0)
        assert np.all(np.isposinf(basis.audit_sup(row)))
        values = basis.grid_values(row, zeroed).real.reshape((table.shape[1],) * dim)
    on_zero = np.zeros(values.shape, dtype=bool)
    for a in range(dim):
        on_zero[(slice(None),) * a + (5,)] = True
    assert np.all(np.isnan(values[on_zero])) and np.all(np.isposinf(values[~on_zero]))


def reference_hermite_function_values(n_max, x):
    """The recurrence loop that the row-selecting kernel replaced, verbatim: the bitwise reference."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n_max + 1, x.size))
    log_h0 = -0.5 * x * x - 0.25 * np.log(np.pi)
    exponent = np.floor(log_h0 / np.log(2.0)).astype(np.int64)
    prev = np.exp(log_h0 - exponent * np.log(2.0))  # mantissa of h_0, O(1)
    out[0] = np.ldexp(prev, exponent)
    if n_max == 0:
        return out
    cur = np.sqrt(2.0) * x * prev
    out[1] = np.ldexp(cur, exponent)
    for k in range(1, n_max):
        nxt = np.sqrt(2.0 / (k + 1)) * x * cur - np.sqrt(k / (k + 1.0)) * prev
        big = np.abs(nxt) > 2.0**300
        if np.any(big):
            # shift the scale into the exponent; the pair keeps its ratio
            nxt = np.where(big, nxt * 2.0**-600, nxt)
            cur = np.where(big, cur * 2.0**-600, cur)
            exponent = exponent + np.where(big, 600, 0)
        out[k + 1] = np.ldexp(nxt, exponent)
        prev, cur = cur, nxt
    return out


def reference_gauss_hermite_nodes(q):
    """Nodes and weights as computed before the rows-only passes, on the reference recurrence."""
    if q == 1:
        nodes = np.zeros(1)
    else:
        off = np.sqrt(np.arange(1, q) / 2.0)
        nodes = eigh_tridiagonal(np.zeros(q), off, eigvals_only=True)
    for _ in range(2):
        table = reference_hermite_function_values(q, nodes)
        deriv = np.sqrt(2.0 * q) * table[q - 1] - nodes * table[q]
        nodes = nodes - table[q] / deriv
    table = reference_hermite_function_values(q - 1, nodes)
    return nodes, 1.0 / (q * table[q - 1] ** 2)


def same_bits(a, b):
    """Equal shapes and equal bit patterns: the sign of every zero included."""
    return a.shape == b.shape and np.array_equal(np.signbit(a), np.signbit(b)) and np.array_equal(
        a.view(np.int64), b.view(np.int64)
    )


# the zeros of both signs, the Gaussian seed's underflow at |x| ~ 38.6, a subnormal-adjacent x
SPECIAL_POINTS = (0.0, -0.0, 38.6, -38.6, 1e-300, -1e-300)


@st.composite
def recurrence_cases(draw):
    n_max = draw(st.integers(0, 2048))
    points = draw(st.lists(st.floats(-60.0, 60.0), min_size=0, max_size=24))
    points += draw(st.lists(st.sampled_from(SPECIAL_POINTS), min_size=1 if not points else 0, max_size=6))
    degree = draw(st.integers(0, n_max))
    extra = draw(st.integers(degree, n_max))
    subset = draw(st.lists(st.integers(0, n_max), min_size=1, max_size=4, unique=True))
    return n_max, np.array(points), degree, extra, subset


@settings(max_examples=30, deadline=None)
@given(recurrence_cases())
@example((2048, np.array([-60.0, -7.5, 59.25, *SPECIAL_POINTS]), 1024, 2047, [0, 700, 2048]))
def test_recurrence_kernel_matches_the_reference_bitwise(case):
    n_max, x, degree, extra, subset = case
    full = hermite_function_values(n_max, x)
    assert same_bits(full, reference_hermite_function_values(n_max, x))
    # the Newton polish's two rows, the shared pass's rows 0..degree plus one, any other subset
    newton = sorted({max(n_max - 1, 0), n_max})
    assert same_bits(hermite._recurrence(n_max, x, newton), full[newton])
    rows = sorted({*range(degree + 1), extra})
    assert same_bits(hermite._recurrence(rows[-1], x, rows), full[rows])
    assert same_bits(hermite._recurrence(n_max, x, subset), full[subset])


# (quad_per_axis, max_degree) of every basis built by a command at either tier, by solve-nlsh
# at dim = 2 and by bench/solve_d2.py, recorded by wrapping gauss_hermite_nodes
PRESET_QUADRATURES = (
    (26, 12), (34, 15), (34, 16), (43, 12), (57, 16), (64, 31), (66, 32), (68, 33), (84, 40), (113, 32),
    (130, 64), (194, 96), (204, 101), (225, 64), (256, 64), (258, 65), (258, 128), (322, 160), (514, 256),
)


@pytest.mark.parametrize(
    "q,degree", [*PRESET_QUADRATURES, *((q, max(q // 2 - 1, 0)) for q in (1, 2, 3, 5, 7, 97, 640, 1021, 2050))]
)
def test_gauss_hermite_nodes_match_the_reference_bitwise(q, degree):
    nodes, weights, table = gauss_hermite_nodes(q, degree)
    want_nodes, want_weights = reference_gauss_hermite_nodes(q)
    assert same_bits(nodes, want_nodes) and same_bits(weights, want_weights)
    assert same_bits(table, reference_hermite_function_values(degree, want_nodes))


def test_gauss_hermite_nodes_match_the_reference_bitwise_for_every_q_up_to_300():
    # one looped case: the dsterf on the Jacobi diagonals must start the Newton polish on scipy's exact eigenvalues
    for q in range(1, 301):
        degree = max(q // 2 - 1, 0)
        nodes, weights, table = gauss_hermite_nodes(q, degree)
        want_nodes, want_weights = reference_gauss_hermite_nodes(q)
        assert same_bits(nodes, want_nodes) and same_bits(weights, want_weights), q
        assert same_bits(table, reference_hermite_function_values(degree, want_nodes)), q


def test_nodes_come_from_dsterf_without_a_dense_matrix(monkeypatch, traced_peak):
    assert hermite._dsterf() is not None  # numpy's OpenBLAS has the ILP64 symbol
    monkeypatch.setattr(np.linalg, "eigvalsh", None)  # the dense route is not taken
    q, degree = 2050, 1024
    _, peak = traced_peak(gauss_hermite_nodes, q, degree)
    # the last pass's table (rows 0..degree and q - 1) is the output; the dense route's q x q matrix is 33.6 MB
    assert peak - (degree + 2) * q * 8 < 2**20


def test_dense_fallback_gives_the_bits_of_dsterf(monkeypatch):
    # the eigenvalues start the Newton polish, so equal eigenvalues give equal nodes, weights and tables
    sizes = sorted({*range(1, 301), *(q for q, _ in PRESET_QUADRATURES)})
    fast = [hermite._jacobi_eigenvalues(q) for q in sizes]
    monkeypatch.setattr(hermite, "_dsterf", lambda: None)
    for q, want in zip(sizes, fast):
        assert same_bits(hermite._jacobi_eigenvalues(q), want), q


def test_dsterf_failure_is_a_basis_error(monkeypatch):
    def failing(n, diag, off, info):
        info._obj.value = 1

    monkeypatch.setattr(hermite, "_dsterf", lambda: failing)
    with pytest.raises(BasisError, match="dsterf"):
        gauss_hermite_nodes(8, 3)


@pytest.mark.parametrize("dim,n", [(1, 8), (2, 4), (3, 2)])
def test_audit_sup_of_no_rows_is_empty(dim, n):
    basis = build_basis(dim, n, 2 * (n + 1))
    for dtype in (float, complex):
        rows = np.zeros((0, basis.size), dtype=dtype)
        assert basis.audit_sup(rows).shape == (0,)
        assert basis.audit_sup_bound(rows).shape == (0,)


@pytest.mark.parametrize("dim,n", [(1, 40), (2, 12), (3, 6)])
def test_basis_builds_its_quadrature_on_first_read(monkeypatch, dim, n):
    builds = []
    nodes = hermite.gauss_hermite_nodes
    monkeypatch.setattr(hermite, "gauss_hermite_nodes", lambda q, degree: builds.append((q, degree)) or nodes(q, degree))
    basis = build_basis(dim, n, 2 * (n + 1))
    basis.audit_sup(np.eye(basis.size)[:3])
    assert basis.size and basis.degrees.size and builds == []
    assert basis.weights is basis.weights and basis.eval_table is basis.eval_table
    assert basis.axis_nodes is basis.axis_nodes and basis.axis_weights is basis.axis_weights
    assert builds == [(2 * (n + 1), n)]
    want = nodes(2 * (n + 1), n)
    assert same_bits(basis.axis_nodes, want[0]) and same_bits(basis.axis_weights, want[1])
    assert same_bits(basis.eval_table, want[2])
    # the budget checks stay eager
    with pytest.raises(BasisError, match="budget"):
        build_basis(3, 10, 2**10)
    assert builds == [(2 * (n + 1), n)]

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from oscilab.fields import (
    NORM_KINDS,
    NormSpec,
    SpectralField,
    classical_sobolev_norm,
    derivative_coefficients,
    evaluate_norm,
    fourier_transform,
    fractional_laplacian_L2_norm,
    harmonic_sobolev_norm,
    product_quadrature,
    propagate_linear,
    rayleigh_quotient,
    smoothing_constant,
    smoothing_functional,
    spacetime_norm,
    unit_field,
    weighted_x_L2_norm,
    _smoothing_blocks,
    _unit_grid_values,
)
from oscilab import hermite
from oscilab.blas import one_blas_thread
from oscilab.hermite import build_basis, cached_basis, gauss_hermite_nodes
from test_hermite import tensor_grid


def embed_field(u, basis):
    """u re-expressed in a basis of the same dimension and at least its degree:
    the graded enumeration of degree <= N is a prefix of every finer one."""
    c = np.zeros(basis.size, dtype=complex)
    c[: u.basis.size] = u.coeffs
    return SpectralField(basis, c)


def random_unit_field(basis, rng):
    c = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    return SpectralField(basis, c / np.linalg.norm(c))


@st.composite
def small_fields(draw, dims=(1, 2)):
    """A random complex field on a small basis of a drawn dimension."""
    dim = draw(st.sampled_from(dims))
    n = draw(st.integers(0, 16) if dim == 1 else st.integers(0, 4))
    basis = cached_basis(dim, n, 2 * (n + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return SpectralField(basis, rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size))


@st.composite
def norm_specs(draw, kind):
    return NormSpec(kind, s=draw(st.floats(0.0, 2.0)), r=draw(st.floats(2.0, 8.0)))


# ---------------------------------------------------------------- norms


def test_harmonic_sobolev_examples(basis64):
    assert abs(harmonic_sobolev_norm(unit_field(basis64, 0), 2.0) - 1.0) < 1e-14
    assert abs(harmonic_sobolev_norm(unit_field(basis64, 5), 1.0) - np.sqrt(11)) < 1e-12


def test_harmonic_sobolev_s0_is_l2(basis64, rng):
    u = random_unit_field(basis64, rng)
    assert abs(harmonic_sobolev_norm(u, 0.0) - u.l2_norm) < 1e-14


def test_weighted_x_examples(basis64):
    h0 = unit_field(basis64, 0)
    assert abs(weighted_x_L2_norm(h0, 0.0) - 1.0) < 1e-12
    # integral (1 + x^2) h_0^2 = 1 + 1/2 from the Gaussian second moment
    assert abs(weighted_x_L2_norm(h0, 1.0) - np.sqrt(1.5)) < 1e-12


def test_weighted_x_monotone_in_s(basis64, rng):
    u = random_unit_field(basis64, rng)
    values = [weighted_x_L2_norm(u, s) for s in (0.0, 0.5, 1.0, 2.0)]
    assert all(values[i] <= values[i + 1] + 1e-12 for i in range(3))


def test_fractional_laplacian_examples(basis64):
    # || d/dx h_n ||^2 = (2n+1)/2 by the x <-> xi symmetry
    for n in (0, 3, 10):
        got = fractional_laplacian_L2_norm(unit_field(basis64, n), 1.0)
        assert abs(got - np.sqrt((2 * n + 1) / 2.0)) < 1e-10
    # Gaussian fourth moment: ||x^2 h_0|| = sqrt(3)/2
    assert abs(fractional_laplacian_L2_norm(unit_field(basis64, 0), 2.0) - np.sqrt(3) / 2) < 1e-12


def test_gradient_ratio_invsqrt2():
    basis = build_basis(1, 101, 204)
    for n in (0, 17, 50, 100):
        lam = np.sqrt(2.0 * n + 1.0)
        ratio = fractional_laplacian_L2_norm(unit_field(basis, n), 1.0) / lam
        assert abs(ratio - 2.0**-0.5) < 1e-6


def test_classical_sobolev(basis64, rng):
    h0 = unit_field(basis64, 0)
    assert abs(classical_sobolev_norm(h0, 0.0) - 1.0) < 1e-12  # H^0 is L^2
    u = random_unit_field(basis64, rng)
    assert classical_sobolev_norm(u, 1.0) >= u.l2_norm
    assert abs(classical_sobolev_norm(SpectralField(basis64, 2 * u.coeffs), 1.0)
               - 2 * classical_sobolev_norm(u, 1.0)) < 1e-10


def test_classical_dominated_by_weighted_plus_fractional(basis64):
    for n in range(0, 51, 10):
        u = unit_field(basis64, n)
        lhs = classical_sobolev_norm(u, 0.5)
        rhs = np.sqrt(2) * (weighted_x_L2_norm(u, 0.5) + fractional_laplacian_L2_norm(u, 0.5))
        assert lhs <= rhs + 1e-12


def test_norm_equivalence_bracket(basis64):
    # combined classical quantity vs harmonic Sobolev stays in [0.5, 3]
    basis = build_basis(1, 101, 204)
    for s in (0.5, 1.0):
        for n in range(0, 101, 5):
            u = unit_field(basis, n)
            num = fractional_laplacian_L2_norm(u, s) + weighted_x_L2_norm(u, s)
            ratio = num / harmonic_sobolev_norm(u, s)
            assert 0.5 <= ratio <= 3.0


def test_norm_equivalence_refinement_stable():
    # the bracket values are quadrature artifacts; they must not move under
    # grid refinement
    for quad in (204, 408):
        basis = build_basis(1, 101, quad)
        u = unit_field(basis, 33)
        val = fractional_laplacian_L2_norm(u, 0.5) + weighted_x_L2_norm(u, 0.5)
        if quad == 204:
            first = val
    assert abs(first - val) / val < 0.05


# ------------------------------------------------------- propagator / Fourier


def test_propagator_identity_and_period(basis64, rng):
    u = random_unit_field(basis64, rng)
    assert np.array_equal(propagate_linear(u, 0.0).coeffs, u.coeffs)
    back = propagate_linear(u, 2 * np.pi)
    # odd integer spectrum in d = 1: the flow is 2 pi periodic exactly
    assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-12


def test_propagator_unitary(basis64, rng):
    u = random_unit_field(basis64, rng)
    moved = propagate_linear(u, 0.37)
    assert abs(moved.l2_norm - u.l2_norm) < 1e-14
    assert abs(harmonic_sobolev_norm(moved, 1.3) - harmonic_sobolev_norm(u, 1.3)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(small_fields(dims=(1, 2, 3)), st.floats(-100.0, 100.0))
def test_propagator_unitary_property(u, t):
    assert abs(propagate_linear(u, t).l2_norm - u.l2_norm) <= 1e-14 * u.l2_norm


def test_fourier_transform(basis64, rng):
    assert np.array_equal(fourier_transform(unit_field(basis64, 0)).coeffs[0], 1.0 + 0j)
    assert fourier_transform(unit_field(basis64, 1)).coeffs[1] == -1j
    u = random_unit_field(basis64, rng)
    four = fourier_transform(fourier_transform(fourier_transform(fourier_transform(u))))
    assert np.max(np.abs(four.coeffs - u.coeffs)) < 1e-15
    assert abs(fourier_transform(u).l2_norm - u.l2_norm) < 1e-15


def test_rayleigh_quotients(basis64):
    for n in range(0, 41, 8):
        assert abs(rayleigh_quotient(unit_field(basis64, n)) - (2 * n + 1)) < 1e-6


# ------------------------------------------------------------- derivative


def test_derivative_ground_state(basis64):
    d = derivative_coefficients(unit_field(basis64, 0))
    assert abs(d.coeffs[1] + 1.0 / np.sqrt(2)) < 1e-14


def test_derivative_norms(basis64):
    for n in range(41):
        d = derivative_coefficients(unit_field(basis64, n))
        assert abs(d.l2_norm**2 - (2 * n + 1) / 2.0) < 1e-10


def test_derivative_linearity(basis32, rng):
    u = random_unit_field(basis32, rng)
    v = random_unit_field(basis32, rng)
    lhs = derivative_coefficients(SpectralField(basis32, 2.0 * u.coeffs + 3.0 * v.coeffs))
    rhs = 2.0 * derivative_coefficients(u).coeffs + 3.0 * derivative_coefficients(v).coeffs
    assert np.max(np.abs(lhs.coeffs - rhs)) < 1e-12


# ---------------------------------------------------------- spacetime norms


def test_spacetime_sup_is_l2(basis64, rng):
    u = random_unit_field(basis64, rng)
    got = spacetime_norm(u, np.inf, NormSpec("harmonic_sobolev", 0.0), 3.0, 33)
    assert abs(got - 1.0) < 1e-12


def test_spacetime_constant_integrand(basis64):
    got = spacetime_norm(unit_field(basis64, 0), 2.0, NormSpec("harmonic_sobolev", 0.0), 1.0, 65)
    assert abs(got - np.sqrt(2)) < 1e-12


def test_spacetime_time_refinement(basis32, rng):
    u = random_unit_field(basis32, rng)
    spec = NormSpec("lebesgue_Lr", r=4.0)
    coarse = spacetime_norm(u, 4.0, spec, 1.0, 64)
    fine = spacetime_norm(u, 4.0, spec, 1.0, 128)
    assert abs(fine - coarse) / fine < 0.01


def test_spacetime_validation(basis32):
    u = unit_field(basis32, 0)
    with pytest.raises(ValueError):
        spacetime_norm(u, 2.0, NormSpec("harmonic_sobolev"), 1.0, 8)
    with pytest.raises(ValueError):
        spacetime_norm(u, 0.5, NormSpec("harmonic_sobolev"), 1.0, 33)
    with pytest.raises(ValueError):
        spacetime_norm(u, 2.0, NormSpec("harmonic_sobolev"), -1.0, 33)


def test_norm_spec_validation():
    with pytest.raises(ValueError):
        NormSpec("no_such_norm")
    with pytest.raises(ValueError):
        NormSpec("harmonic_sobolev", s=-1.0)
    with pytest.raises(ValueError):
        NormSpec("lebesgue_Lr", r=1.0)


def test_evaluate_norm_dispatch(basis32):
    u = unit_field(basis32, 0)
    sup = evaluate_norm(u, NormSpec("sup_norm"))
    assert abs(sup - np.pi**-0.25) < 1e-6
    l4 = evaluate_norm(u, NormSpec("lebesgue_Lr", r=4.0))
    assert abs(l4 - (2 * np.pi) ** -0.125) < 1e-6


@pytest.mark.parametrize("dim,n", [(2, 6), (3, 2)])
def test_lebesgue_norm_tiles_sum_to_the_whole_grid(monkeypatch, dim, n):
    basis = build_basis(dim, n, 2 * (n + 1))
    u = random_unit_field(basis, np.random.default_rng(5))
    vals = np.abs(basis.grid_values(u.coeffs, basis.audit_table()))
    whole = (basis.audit_cell_volume() * np.sum(vals**4)) ** 0.25
    for tile_bytes in (1, 3 * 2**10, hermite.AUDIT_TILE_BYTES, 2**40):
        monkeypatch.setattr(hermite, "AUDIT_TILE_BYTES", tile_bytes)
        assert abs(evaluate_norm(u, NormSpec("lebesgue_Lr", r=4.0)) - whole) <= 1e-14 * whole


@pytest.mark.parametrize("kind", NORM_KINDS)
@settings(max_examples=12, deadline=None)
@given(data=st.data(), k=st.integers(-8, 8))
def test_evaluate_norm_power_of_two_scaling_bitwise(kind, data, k):
    u = data.draw(small_fields())
    spec = data.draw(norm_specs(kind))
    scaled = SpectralField(u.basis, 2.0**k * u.coeffs)
    assert evaluate_norm(scaled, spec) == 2.0**k * evaluate_norm(u, spec)


@settings(max_examples=20, deadline=None)
@given(
    small_fields(dims=(1,)),
    st.sampled_from(NORM_KINDS).flatmap(norm_specs),
    st.sampled_from([1.0, 2.0, 5.0, np.inf]),
    st.integers(16, 40),
    st.integers(-8, 8),
)
def test_spacetime_norm_power_of_two_scaling_bitwise(u, spec, q, time_nodes, k):
    scaled = SpectralField(u.basis, 2.0**k * u.coeffs)
    a = spacetime_norm(u, q, spec, 1.0, time_nodes)
    assert spacetime_norm(scaled, q, spec, 1.0, time_nodes) == 2.0**k * a


# ----------------------------------------------------------- smoothing


def test_smoothing_eigenfunction_closed_form(basis64):
    # for an eigenfunction the integrand is time independent
    for eps in (0.05, 0.25, 0.45):
        got = smoothing_functional(unit_field(basis64, 0), eps, "sqrtH")
        weight_int = quad(
            lambda x: (1 + x * x) ** (-(0.5 - eps)) * np.exp(-x * x) / np.sqrt(np.pi),
            -np.inf,
            np.inf,
        )[0]
        assert abs(got - np.sqrt(4 * np.pi * weight_int)) < 1e-10


def test_smoothing_scale_invariance(basis64, rng):
    u = random_unit_field(basis64, rng)
    doubled = SpectralField(basis64, 2.0 * u.coeffs)
    for variant in ("sqrtH", "fractional_grad"):
        assert smoothing_functional(u, 0.25, variant) == smoothing_functional(doubled, 0.25, variant)


def test_smoothing_refinement_stability(rng):
    coarse = build_basis(1, 64, 130)
    fine = build_basis(1, 128, 258)
    u = random_unit_field(coarse, rng)
    for variant in ("sqrtH", "fractional_grad"):
        a = smoothing_functional(u, 0.25, variant)
        b = smoothing_functional(embed_field(u, fine), 0.25, variant)
        assert abs(a - b) / b < 0.05

    # d = 2: every coefficient lands on its own multi-index, the rest stay zero
    small, big = build_basis(2, 3, 8), build_basis(2, 5, 12)
    v = SpectralField(small, rng.standard_normal(small.size) + 1j * rng.standard_normal(small.size))
    w = embed_field(v, big)
    for k, n in enumerate(big.indices):
        expected = v.coeffs[small.index_position(n)] if sum(n) <= small.max_degree else 0.0
        assert w.coeffs[k] == expected


def test_smoothing_validation(basis32):
    u = unit_field(basis32, 0)
    for eps, variant in ((0.7, "sqrtH"), (0.0, "fractional_grad"), (0.25, "bogus")):
        with pytest.raises(ValueError):
            smoothing_functional(u, eps, variant)
        with pytest.raises(ValueError):
            smoothing_constant(basis32, eps, variant)
    with pytest.raises(ValueError):
        smoothing_functional(SpectralField(basis32, np.zeros(basis32.size, complex)), 0.25, "sqrtH")


@pytest.mark.parametrize("dim,n", [(1, 9), (2, 5), (3, 3)])
def test_unit_grid_values_are_the_identity_rows(dim, n):
    basis = build_basis(dim, n, 2 * (n + 1))
    tables = [basis.eval_table, product_quadrature(basis, 2 * n)[2]]
    if dim < 3:  # the d = 3 audit grid holds 225^3 points
        tables.append(basis.audit_table())
    for table in tables:
        for a, b in ((0, basis.size), (1, basis.size - 2), (basis.size - 1, basis.size)):
            want = basis.grid_values(np.eye(b - a, basis.size, a), table)
            assert np.array_equal(_unit_grid_values(basis, a, b, table), want)


# ------------------------------------------- smoothing as a quadratic form


def per_time_smoothing(u, eps, variant, time_nodes):
    """The smoothing ratio by the direct formula: the flow at every time node,
    synthesized on the de-aliased grid, weighted, summed by the trapezoid rule."""
    basis = u.basis
    d = basis.dim
    denom = u.l2_norm if variant == "sqrtH" or d == 1 else harmonic_sobolev_norm(u, (d - 1) / 2.0)
    _, weights, table = product_quadrature(basis, 2 * basis.max_degree)
    nodes = tensor_grid(gauss_hermite_nodes(table.shape[1], 0)[0], d)
    table = basis.eval_at(nodes)  # dense (modes x nodes), independent of the factored path
    times = np.linspace(-2 * np.pi, 2 * np.pi, time_nodes)
    phases = np.exp(1j * np.outer(times, basis.lambda2))
    if variant == "sqrtH":
        coeff_mat = phases * (basis.lambda2 ** ((0.5 - 2 * eps) / 2.0) * u.coeffs)[None, :]
    else:
        mult = np.sum(nodes**2, axis=1) ** ((d / 2.0 - 2 * eps) / 2.0)
        grid_vals = (phases * ((-1j) ** basis.degrees * u.coeffs)[None, :]) @ table
        coeff_mat = ((grid_vals * mult[None, :]) @ (table * weights).T) * (1j) ** basis.degrees[None, :]
    grid_vals = coeff_mat @ table
    weight_sq = (1.0 + np.sum(nodes**2, axis=1)) ** (-(0.5 - eps))
    space_sq = np.sum(weights * weight_sq * np.abs(grid_vals) ** 2, axis=1)
    tw = np.full(time_nodes, times[1] - times[0])
    tw[0] = tw[-1] = tw[0] / 2.0
    return float(np.sqrt(np.sum(tw * space_sq))) / denom


@st.composite
def smoothing_batches(draw):
    dim = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(1, {1: 12, 2: 5, 3: 3}[dim]))
    basis = cached_basis(dim, n, 2 * (n + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fields = [
        SpectralField(basis, rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size))
        for _ in range(draw(st.integers(1, 4)))
    ]
    eps = draw(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
    return fields, eps, draw(st.sampled_from(["sqrtH", "fractional_grad"]))


SMOOTHING_SETTINGS = settings(max_examples=60, deadline=None)


@SMOOTHING_SETTINGS
@given(smoothing_batches(), st.data())
def test_smoothing_batch_matches_per_time_reference(case, data):
    fields, eps, variant = case
    n = fields[0].basis.max_degree
    # M - 1 > 4N: the trapezoid sums no e^{2ikt}, 0 < |k| <= N, to 4 pi
    time_nodes = data.draw(st.sampled_from([m for m in (17, 33, 65, 129) if m - 1 > 4 * n]))
    for u in fields:
        got = smoothing_functional(u, eps, variant)
        want = per_time_smoothing(u, eps, variant, time_nodes)
        assert isinstance(got, float)
        assert abs(got - want) / want < 1e-13


@SMOOTHING_SETTINGS
@given(smoothing_batches(), st.floats(0.0, 2 * np.pi))
def test_smoothing_global_phase_invariance(case, theta):
    fields, eps, variant = case
    for u in fields:
        a = smoothing_functional(u, eps, variant)
        b = smoothing_functional(SpectralField(u.basis, np.exp(1j * theta) * u.coeffs), eps, variant)
        assert abs(a - b) / a < 1e-14


@SMOOTHING_SETTINGS
@given(smoothing_batches(), st.integers(-40, 40))
def test_smoothing_power_of_two_scaling_bitwise(case, k):
    fields, eps, variant = case
    for u in fields:
        a = smoothing_functional(u, eps, variant)
        assert smoothing_functional(SpectralField(u.basis, 2.0**k * u.coeffs), eps, variant) == a


@pytest.mark.parametrize("dim,n", [(1, 40), (2, 6)])
def test_smoothing_matches_fine_trapezoid(dim, n):
    basis = cached_basis(dim, n, 2 * (n + 1))
    rng = np.random.default_rng(dim)
    fields = [SpectralField(basis, rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)) for _ in range(2)]
    for variant in ("sqrtH", "fractional_grad"):
        for eps in (0.05, 0.45):
            for u in fields:
                want = per_time_smoothing(u, eps, variant, 8193)
                assert abs(smoothing_functional(u, eps, variant) - want) / want < 1e-12


def test_smoothing_time_integral_does_not_alias():
    # h_0 + h_16: a 65-node trapezoid sums e^{2i 16 t} to 4 pi, since 64 divides 4 * 16
    basis = cached_basis(1, 32, 66)
    u = SpectralField(basis, unit_field(basis, 0).coeffs + unit_field(basis, 16).coeffs)
    got = smoothing_functional(u, 0.25, "sqrtH")
    exact = per_time_smoothing(u, 0.25, "sqrtH", 133)
    assert abs(got - exact) <= 1e-13 * exact
    aliased = per_time_smoothing(u, 0.25, "sqrtH", 65)
    assert abs(got - aliased) > 1e-4 * exact


def test_smoothing_independent_of_tile_size(monkeypatch):
    # at d = 1 all eigenspaces have one mode, so the tile alone decides how many go through together
    basis = cached_basis(1, 12, 26)
    rng = np.random.default_rng(12)
    fields = [SpectralField(basis, rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)) for _ in range(3)]
    variants = ("sqrtH", "fractional_grad")
    whole = {v: ([smoothing_functional(u, 0.05, v) for u in fields], smoothing_constant(basis, 0.05, v)) for v in variants}
    for tile_bytes in (1, 2**11, 2**14):  # 4, 8 and all 13 eigenspaces per tile
        monkeypatch.setattr(hermite, "GRID_TILE_BYTES", tile_bytes)
        for variant, (values, (constant, mode)) in whole.items():
            for u, want in zip(fields, values):
                assert abs(smoothing_functional(u, 0.05, variant) - want) / want < 1e-14
            value, tiled_mode = smoothing_constant(basis, 0.05, variant)
            assert abs(value - constant) / constant < 1e-14
            assert np.array_equal(np.flatnonzero(tiled_mode.coeffs), np.flatnonzero(mode.coeffs))


def _blocks(basis, variant, eps=0.25):
    return [(a, b, blocks) for a, b, blocks in _smoothing_blocks(basis, eps, variant)]


def test_smoothing_runs_start_at_multiples_of_four(monkeypatch):
    # a run holds GRID_TILE_BYTES of grid values rounded down to a multiple of 4 eigenspaces (at least 4)
    basis = cached_basis(1, 32, 66)
    weight_bytes = product_quadrature(basis, 2 * basis.max_degree)[1].nbytes  # one eigenspace's grid values
    monkeypatch.setattr(hermite, "GRID_TILE_BYTES", 2**40)
    whole = {v: _blocks(basis, v) for v in ("sqrtH", "fractional_grad")}
    assert [(a, b) for a, b, _ in whole["sqrtH"]] == [(0, basis.size)]
    for tile_bytes, per_run in ((1, 4), (11 * weight_bytes, 8)):
        monkeypatch.setattr(hermite, "GRID_TILE_BYTES", tile_bytes)
        for variant, ((_, _, want),) in whole.items():
            runs = _blocks(basis, variant)
            assert [a for a, _, _ in runs] == list(range(0, basis.size, per_run))
            assert [b for _, b, _ in runs] == [*range(per_run, basis.size, per_run), basis.size]
            got = np.concatenate([blocks for _, _, blocks in runs])
            if variant == "sqrtH":  # each eigenspace on its own: the runs keep every bit
                assert got.tobytes() == want.tobytes()
            else:
                # the analysis and synthesis are matmuls over a run's rows, and at these widths OpenBLAS
                # rounds some rows otherwise than in one 33-row call (28 of 33 blocks for runs of 4,
                # the lone last one for runs of 8), by up to 1.1e-15
                assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14


@pytest.mark.parametrize("n", [128, 256])
def test_smoothing_tiles_keep_the_reference_bases_bits(monkeypatch, n):
    # smoothing's reference bases are the ones the default tile cuts: N = 128 into runs of 124 and 5
    # eigenspaces, N = 256 into four of 60 and one of 17.  On one BLAS thread, as the CLI runs, they
    # keep one whole run's bits
    basis = cached_basis(1, n, 2 * (n + 1))
    for variant in ("sqrtH", "fractional_grad"):
        for eps in (0.05, 0.25, 0.45):
            monkeypatch.undo()
            with one_blas_thread():
                runs = _blocks(basis, variant, eps)
                monkeypatch.setattr(hermite, "GRID_TILE_BYTES", 2**40)
                ((_, _, whole),) = _blocks(basis, variant, eps)
            assert len(runs) == {128: 2, 256: 5}[n] and all(a % 4 == 0 for a, _, _ in runs)
            assert np.concatenate([blocks for _, _, blocks in runs]).tobytes() == whole.tobytes(), (variant, eps)


def test_smoothing_constant_holds_one_tile(traced_peak):
    # smoothing's reference basis: 84-eigenspace runs of 385 quadrature points, where one run of all
    # 257 held 3.0 MiB
    basis = cached_basis(1, 256, 514)
    smoothing_constant(basis, 0.25, "fractional_grad")  # the product quadrature is cached outside the trace
    _, peak = traced_peak(smoothing_constant, basis, 0.25, "fractional_grad")
    assert peak <= 1.5 * 2**20


# ------------------------------------------- the sharp smoothing constant


@SMOOTHING_SETTINGS
@given(smoothing_batches())
def test_smoothing_constant_bounds_every_field_and_its_mode_attains_it(case):
    fields, eps, variant = case
    basis = fields[0].basis
    value, mode = smoothing_constant(basis, eps, variant)
    # the mode is an l2-unit field inside one eigenspace
    degrees = basis.degrees[mode.coeffs != 0]
    assert degrees.size and np.all(degrees == degrees[0])
    assert abs(mode.l2_norm - 1.0) < 1e-14
    assert abs(smoothing_functional(mode, eps, variant) - value) <= 1e-12 * value
    # every field tried, and its part in the mode's eigenspace (where the sup sits), stays below
    for u in fields:
        inside = SpectralField(basis, np.where(basis.degrees == degrees[0], u.coeffs, 0))
        for w in (u, inside):
            assert smoothing_functional(w, eps, variant) <= value * (1 + 1e-12)


@pytest.mark.parametrize("variant", ["sqrtH", "fractional_grad"])
def test_smoothing_constant_is_the_best_unit_field_at_d1(variant):
    # at d = 1 every eigenspace is one basis function, so the sup is a max over the N + 1 of them
    basis = cached_basis(1, 24, 50)
    for eps in (0.05, 0.25, 0.45):
        value, mode = smoothing_constant(basis, eps, variant)
        units = [smoothing_functional(unit_field(basis, n), eps, variant) for n in range(basis.size)]
        assert abs(value - max(units)) <= 1e-14 * value
        assert np.flatnonzero(mode.coeffs).tolist() == [int(np.argmax(units))]

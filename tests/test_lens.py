import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscilab.fields import SpectralField, propagate_linear, unit_field
from oscilab.hermite import audit_axis, cached_basis
from oscilab.lens import (
    AliasingGuardError,
    frame_l2_norm,
    free_propagate,
    free_propagate_field,
    free_time_limit,
    lens_forward,
    lens_time_inverse,
    lens_time_map,
)


def test_time_map_examples():
    assert lens_time_map(0.0) == 0.0
    assert abs(lens_time_inverse(np.pi / 8) - 0.5) < 1e-14
    # monotone and bounded by pi/4
    ts = np.linspace(0, 1000, 200)
    ss = np.array([lens_time_map(t) for t in ts])
    assert np.all(np.diff(ss) > 0)
    assert ss[-1] < np.pi / 4
    for t in (0.0, 0.3, 2.0, 50.0):
        assert abs(lens_time_inverse(lens_time_map(t)) - t) < 1e-9 * max(1.0, t)
    with pytest.raises(ValueError):
        lens_time_inverse(np.pi / 4)


def test_lens_identity_at_zero(basis64, rng):
    c = rng.normal(size=basis64.size) + 1j * rng.normal(size=basis64.size)
    u = SpectralField(basis64, c / np.linalg.norm(c))
    frame = lens_forward(u, 0.0)
    direct = u.coeffs @ u.basis.eval_at(frame.axis)
    assert np.max(np.abs(frame.values - direct)) < 1e-13


def test_lens_isometry(basis64, rng):
    c = rng.normal(size=basis64.size) + 1j * rng.normal(size=basis64.size)
    u = SpectralField(basis64, c / np.linalg.norm(c))
    for t in (0.1, 0.5, 2.0, 10.0):
        assert abs(frame_l2_norm(lens_forward(u, t)) - 1.0) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(0, 24), st.integers(0, 2**32 - 1), st.floats(-50.0, 50.0))
def test_lens_frames_isometric(dim, n, seed, t):
    n = n if dim == 1 else n // 4
    basis = cached_basis(dim, n, 2 * (n + 1))
    rng = np.random.default_rng(seed)
    c = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    u = SpectralField(basis, c / np.linalg.norm(c))
    assert abs(frame_l2_norm(lens_forward(u, t)) - u.l2_norm) <= 1e-10


def test_conjugation_with_free_flow(basis64):
    # harmonic flow carried through the lens equals the free flow
    u0 = unit_field(basis64, 3)
    for t in (0.25, 0.5, 1.0):
        s = lens_time_map(t)
        frame = lens_forward(propagate_linear(u0, s), t)
        free = free_propagate(u0, t)
        assert np.array_equal(free.axis, frame.axis)
        dx = float(frame.axis[1] - frame.axis[0])
        err = np.sqrt(dx * np.sum(np.abs(frame.values - free.values) ** 2))
        assert err <= 1e-6


def test_free_propagate_identity_and_isometry(basis64):
    u0 = unit_field(basis64, 3)
    assert np.array_equal(free_propagate_field(u0, 0.0).coeffs, u0.coeffs)
    out = free_propagate_field(u0, 0.3)
    assert abs(out.l2_norm - 1.0) <= 1e-8


def test_free_gaussian_spreading(basis64):
    frame = free_propagate(unit_field(basis64, 0), 0.5)
    expected = np.pi**-0.25 * (1 + 4 * 0.25) ** -0.25
    assert abs(np.abs(frame.values).max() - expected) < 1e-8


def test_aliasing_guard(basis64):
    u0 = unit_field(basis64, 3)
    tmax = free_time_limit(u0)
    with pytest.raises(AliasingGuardError):
        free_propagate_field(u0, 2.0 * tmax + 1.0)
    # inside the guard everything stays finite and isometric
    out = free_propagate_field(u0, 0.9 * tmax)
    assert abs(out.l2_norm - 1.0) <= 1e-8


def test_two_dimensional_free_flow_is_the_product_of_one_dimensional_flows():
    # degree 128 at d = 2: 8385 functions on 258^2 nodes, a span priced out while a
    # (modes x nodes) table was built; the product data h_1 (x) h_1 evolve axis by axis
    one = free_propagate_field(unit_field(cached_basis(1, 2, 6), 1), 0.8)
    two = free_propagate_field(unit_field(cached_basis(2, 2, 6), (1, 1)), 0.8)
    assert two.basis.max_degree == one.basis.max_degree == 128
    want = np.array([one.coeffs[a] * one.coeffs[b] for a, b in two.basis.indices])
    assert np.max(np.abs(two.coeffs - want)) <= 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_aliasing_guard_prices_the_span_before_building_it(dim):
    # degree ~940 is under the cap, but its basis or its tensor grid is too large to build
    u0 = unit_field(cached_basis(dim, 2, 6), (0,) * dim)
    with pytest.raises(AliasingGuardError, match="too large"):
        free_propagate_field(u0, 3.0)


def test_lens_on_given_points(basis32):
    # the frame grid is the audit grid scaled by sqrt(alpha); recurrence
    # synthesis at its preimage gives the same values
    u = unit_field(basis32, 0)
    frame = lens_forward(u, 0.7)
    alpha = 1 + 4 * 0.49
    assert np.allclose(frame.axis / np.sqrt(alpha), audit_axis(basis32.max_degree, 1), rtol=0, atol=1e-13)
    inner = u.coeffs @ basis32.eval_at(frame.axis / np.sqrt(alpha))
    expected = alpha**-0.25 * inner * np.exp(1j * frame.axis**2 * 0.7 / alpha)
    assert np.max(np.abs(frame.values - expected)) < 1e-13

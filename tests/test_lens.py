import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscilab.fields import SpectralField, propagate_linear, unit_field
from oscilab import hermite
from oscilab.hermite import audit_axis, cached_basis, grid_radius2
from oscilab.lens import (
    FREE_MARGIN,
    AliasingGuardError,
    frame_l2_norm,
    free_propagate,
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


def _free_flow_error(u0, t):
    """L^2 distance on the frame's grid between exp(it del^2) u0 and the lens image of the oscillator flow."""
    frame = lens_forward(propagate_linear(u0, lens_time_map(t)), t)
    free = free_propagate(u0, t)
    assert np.array_equal(free.axis, frame.axis)
    diff = free.values
    diff -= frame.values  # in place: at d = 3 a frame is 13 million points
    return float(np.sqrt(float(frame.axis[1] - frame.axis[0]) ** frame.dim * np.vdot(diff, diff).real))


def _t_max(basis, degree):
    """Largest |t| at which the frame's Nyquist bound pi/dx covers data of this degree:
    dx = sqrt(1 + 4t^2) dy, dy the audit spacing, against the extent sqrt(2n + d) + margin."""
    audit = audit_axis(basis.max_degree, basis.dim)
    dy = audit[1] - audit[0]
    extent = np.sqrt(2.0 * degree + basis.dim) + FREE_MARGIN
    return 0.5 * np.sqrt((np.pi / (dy * extent)) ** 2 - 1.0)


def test_conjugation_with_free_flow(basis64):
    # harmonic flow carried through the lens equals the free flow
    u0 = unit_field(basis64, 3)
    for t in (0.25, 0.5, 1.0):
        assert _free_flow_error(u0, t) <= 1e-6


@pytest.mark.parametrize("data", ["random", "top"])
def test_free_propagate_matches_the_lens_image(basis64, data):
    rng = np.random.default_rng(5)
    c = rng.normal(size=basis64.size) + 1j * rng.normal(size=basis64.size)
    u0 = SpectralField(basis64, c / np.linalg.norm(c)) if data == "random" else unit_field(basis64, 64)
    for t in (0.25, 0.5, 1.0, 0.99 * _t_max(basis64, 64)):
        assert _free_flow_error(u0, t) <= 1e-10, t


@pytest.mark.parametrize("dim", [2, 3])
def test_free_propagate_matches_the_lens_image_in_higher_dimensions(dim):
    basis = cached_basis(dim, 4, 10)
    u0 = unit_field(basis, basis.indices[-1])
    # a d = 3 frame is 236^3 points, two seconds a time: only the time nearest the guard
    times = (0.25, 0.5, 1.0) if dim == 2 else ()
    for t in (*times, 0.99 * _t_max(basis, 4)):
        assert _free_flow_error(u0, t) <= 1e-8, t


@pytest.mark.parametrize("n", [32, 64, 128])
def test_free_propagate_keeps_low_degree_data_near_the_guard(n):
    # the ground state's Gaussian spectrum has the widest tail past its turning point:
    # a margin of 4 let 1.4e-6 of it fold back at 0.99 t_max
    basis = cached_basis(1, n, 2 * n + 2)
    u0 = unit_field(basis, 0)
    assert _free_flow_error(u0, 0.99 * _t_max(basis, 0)) <= 1e-10


def test_lens_forward_works_in_place(traced_peak):
    # one call holds the synthesis and a 256 KiB tile of the phase with its |x|^2 (1.5 frames
    # here), where a whole-grid phase held 2.6 frames and the product of separate factors four
    basis = cached_basis(2, 16, 34)
    u = SpectralField(basis, np.ones(basis.size) / np.sqrt(basis.size))
    frame_bytes = lens_forward(u, 2.0).values.nbytes  # and the audit table is cached
    _, peak = traced_peak(lens_forward, u, 2.0)
    assert peak <= 1.6 * frame_bytes


def _whole_grid_lens(u, t, axis):
    """The lens values with the phase built on the whole grid at once, the reference for its tiles."""
    basis = u.basis
    alpha = 1.0 + 4.0 * t * t
    values = basis.grid_values(u.coeffs, basis.audit_table())
    values *= alpha ** (-basis.dim / 4.0)
    phase = 1j * grid_radius2(axis, basis.dim)
    phase *= t
    phase /= alpha
    values *= np.exp(phase, out=phase)
    return values


@pytest.mark.parametrize("dim,n", [(1, 0), (1, 64), (2, 3), (2, 16)])
def test_lens_tiles_keep_the_whole_grid_bits(monkeypatch, dim, n):
    # the least tiles (one slice; two points at d = 1, whose odd axes leave a lone last point to join
    # the tile before), 1 KiB tiles (64 points at d = 1), 16 KiB tiles (3 of the 316-point d = 2 slices
    # at N = 16), the default 256 KiB (7 tiles there, the last one short) and one whole-grid tile
    basis = cached_basis(dim, n, 2 * (n + 1))
    rng = np.random.default_rng(n)
    u = SpectralField(basis, rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size))
    for t in (-3.0, -0.5, 0.0, 0.25, 2.0, 10.0):
        monkeypatch.undo()
        frame = lens_forward(u, t)
        want = _whole_grid_lens(u, t, frame.axis).tobytes()
        assert frame.values.tobytes() == want, t
        for tile_bytes in (1, 2**10, 2**14, 2**40):
            monkeypatch.setattr(hermite, "GRID_TILE_BYTES", tile_bytes)
            assert lens_forward(u, t).values.tobytes() == want, (t, tile_bytes)


def test_d3_lens_tiles_keep_the_whole_grid_bits():
    # 185^3 points (101 MB of values): every 548 KB first-axis slab is a tile of its own
    basis = cached_basis(3, 0, 2)
    u = SpectralField(basis, np.array([0.6 - 0.8j]))
    for t in (-0.5, 2.0):
        frame = lens_forward(u, t)
        assert frame.values.tobytes() == _whole_grid_lens(u, t, frame.axis).tobytes(), t


def test_d3_lens_frame_is_one_frame_and_a_tile(traced_peak):
    # a 225^3-point frame (174 MiB): the whole-grid phase and its |x|^2 took the peak to 435 MiB
    basis = cached_basis(3, 3, 8)
    u = SpectralField(basis, np.ones(basis.size) / np.sqrt(basis.size))
    frame, peak = traced_peak(lens_forward, u, 2.0)
    assert peak <= 1.05 * frame.values.nbytes
    assert peak < 200 * 2**20


def test_free_propagate_identity_and_isometry(basis64, rng):
    u0 = unit_field(basis64, 3)
    assert np.max(np.abs(free_propagate(u0, 0.0).values - lens_forward(u0, 0.0).values)) <= 1e-14
    c = rng.normal(size=basis64.size) + 1j * rng.normal(size=basis64.size)
    u = SpectralField(basis64, c / np.linalg.norm(c))
    for t in (0.3, -1.0, 0.99 * _t_max(basis64, 64)):
        assert abs(frame_l2_norm(free_propagate(u, t)) - 1.0) <= 1e-10


def test_free_gaussian_spreading(basis64):
    frame = free_propagate(unit_field(basis64, 0), 0.5)
    expected = np.pi**-0.25 * (1 + 4 * 0.25) ** -0.25
    assert abs(np.abs(frame.values).max() - expected) < 1e-8


def test_aliasing_guard(basis64):
    for degree in (0, 3, 64):
        u0 = unit_field(basis64, degree)
        t_max = _t_max(basis64, degree)
        for t in (1.01 * t_max, -1.01 * t_max):
            with pytest.raises(AliasingGuardError, match=rf"Nyquist bound .* max admissible \|t\| is {t_max:.4g}$"):
                free_propagate(u0, t)
        # inside the guard everything stays finite and isometric
        assert abs(frame_l2_norm(free_propagate(u0, 0.99 * t_max)) - 1.0) <= 1e-10


@pytest.mark.parametrize("dim", [2, 3])
def test_aliasing_guard_prices_the_span_before_building_it(dim, traced_peak):
    # the refused frame would be 214^dim points (157 MB of values at d = 3): the
    # guard prices it from the audit axis and refuses before allocating any of it
    u0 = unit_field(cached_basis(dim, 2, 6), (0,) * dim)
    frame_bytes = 16 * len(audit_axis(u0.basis.max_degree, dim)) ** dim

    def refused():
        with pytest.raises(AliasingGuardError):
            free_propagate(u0, 50.0)

    _, peak = traced_peak(refused)
    assert peak < frame_bytes / 16
    assert peak < 2**20


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

"""Lens transform between the harmonic-oscillator frame and free space,
plus an independent free-space propagator for cross-validation.

The transform sends a function u of internal time s = arctan(2t)/2 to

    u_lens(t, x) = (1 + 4 t^2)^(-d/4) u(s, x / sqrt(1 + 4 t^2)) e^{i |x|^2 t / (1 + 4 t^2)},

an L^2 isometry for each t that intertwines the oscillator flow exp(-isH)
with the free flow exp(it del^2).  A frame holds the axis of its tensor grid,
the audit axis scaled by sqrt(1 + 4 t^2), and the values at its points.  The
values are the one frame-sized array a transform makes: the phase multiplies
them one tile of first-axis slices at a time, at most hermite.GRID_TILE_BYTES
(256 KiB) of complex phase a tile, with the bits of a whole-grid phase.  The
free propagator works on that same grid with an FFT, so it shares nothing with
the transform but the synthesis of the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.fft  # numpy 2 loads it on first attribute access: load it here, not in a command's work

from . import hermite
from .fields import SpectralField
from .hermite import audit_axis, hermite_function_values

__all__ = [
    "PhysicalFrame",
    "AliasingGuardError",
    "lens_time_map",
    "lens_time_inverse",
    "lens_forward",
    "frame_l2_norm",
    "free_propagate",
]

# coefficient magnitude below this fraction of the total norm is treated as
# unoccupied when estimating the data's phase-space extent
BANDWIDTH_RTOL = 1e-9
# frequency margin past sqrt(2n + d) that the free propagator's guard keeps
# below the Nyquist bound.  The Hermite tail past the turning point is widest at
# n = 0: the spectrum of h_0, exp(-xi^2 / 2), is 2e-11 at 1 + 6 (d = 1), where
# the audit grid's margin of 4 left 4e-6, which folded back as an L^2 error of
# 1.4e-6 near the admissible limit
FREE_MARGIN = 6.0


class AliasingGuardError(RuntimeError):
    """Requested free evolution would alias on the frame's grid."""


@dataclass
class PhysicalFrame:
    """Complex values at one external time on the C-order dim-fold tensor grid of a uniform axis."""

    axis: np.ndarray    # (P,)
    dim: int
    values: np.ndarray  # (P^dim,)
    time: float

    def __post_init__(self):
        if self.values.shape != (self.axis.size**self.dim,):
            raise ValueError("values must hold one entry per point of the axis's tensor grid")


def lens_time_map(t: float) -> float:
    """External to internal time: s = arctan(2t) / 2; monotone, |s| < pi/4."""
    return 0.5 * np.arctan(2.0 * t)


def lens_time_inverse(s: float) -> float:
    """Internal to external time: t = tan(2s) / 2, defined for |s| < pi/4."""
    if abs(s) >= np.pi / 4:
        raise ValueError(f"internal time |s| must be < pi/4, got {s}")
    return 0.5 * np.tan(2.0 * s)


def _scaled_axis(basis, t: float) -> np.ndarray:
    """Audit axis stretched by sqrt(1 + 4 t^2); the frame has its mass on its tensor grid."""
    return np.sqrt(1.0 + 4.0 * t * t) * audit_axis(basis.max_degree, basis.dim)


def lens_forward(u_internal: SpectralField, t: float) -> PhysicalFrame:
    """Lens image at external time t of the field u at internal time arctan(2t)/2.

    The caller supplies the field already at the matching internal time; the
    solver-facing wrapper in the fixed-point module handles the time lookup.
    The frame sits on the audit grid scaled by sqrt(1 + 4t^2), whose preimage
    x / sqrt(1 + 4t^2) is the audit grid itself, so the resampling is the
    field's own audit-grid synthesis.
    """
    basis, dim = u_internal.basis, u_internal.basis.dim
    alpha = 1.0 + 4.0 * t * t
    axis = _scaled_axis(basis, t)
    # in place: the synthesis is the one frame-sized array.  The phase is built on tiles of
    # first-axis slices, at most GRID_TILE_BYTES of it but at least one slice, in the order
    # ((1j |x|^2) t) / alpha, which its bits depend on; a tile's |x|^2 is grid_radius2's
    # on its first-axis slices.  numpy multiplies a one-point complex array in place
    # through another loop, with other bits, so at d = 1 a tile holds two points at
    # least and a lone last point joins the tile before
    values = basis.grid_values(u_internal.coeffs, basis.audit_table())
    values *= alpha ** (-dim / 4.0)
    slab = axis.size ** (dim - 1)  # points per first-axis slice
    rows = max(hermite.GRID_TILE_BYTES // (16 * slab), 1 if dim > 1 else 2)
    bounds = [*range(0, axis.size - (dim == 1), rows), axis.size]
    for lo, hi in zip(bounds, bounds[1:]):
        phase = 1j * hermite.grid_radius2(axis, dim, slice(lo, hi))
        phase *= t
        phase /= alpha
        values[lo * slab : hi * slab] *= np.exp(phase, out=phase)
    return PhysicalFrame(axis=axis, dim=dim, values=values, time=float(t))


def frame_l2_norm(frame: PhysicalFrame) -> float:
    """L^2 norm of a frame on its uniform grid (Riemann sum)."""
    cell = float(frame.axis[1] - frame.axis[0]) ** frame.dim
    return float(np.sqrt(cell * np.sum(np.abs(frame.values) ** 2)))


def _effective_degree(u0: SpectralField) -> int:
    mags = np.abs(u0.coeffs)
    total = mags.max()
    if total == 0:
        return 0
    occupied = u0.basis.degrees[mags > BANDWIDTH_RTOL * total]
    return int(occupied.max()) if occupied.size else 0


def free_propagate(u0: SpectralField, t: float) -> PhysicalFrame:
    """exp(it del^2) u0 on the lens frame's grid, the audit grid scaled by sqrt(1 + 4t^2).

    u0 is synthesized on the grid, and the Fourier multiplier exp(-it |xi|^2)
    is applied by FFT, one axis at a time.  The free flow keeps the data's
    frequency extent sqrt(2n + d) + FREE_MARGIN (n its effective degree),
    while the grid's Nyquist frequency pi / dx falls as the grid stretches; a
    time at which the extent passes pi / dx is refused before anything
    grid-sized is allocated, rather than aliased silently.
    """
    basis, dim = u0.basis, u0.basis.dim
    axis = _scaled_axis(basis, t)
    dx = float(axis[1] - axis[0])
    n_eff = _effective_degree(u0)
    extent = np.sqrt(2.0 * n_eff + dim) + FREE_MARGIN
    if extent * dx > np.pi:
        # dx = sqrt(1 + 4t^2) times the audit spacing
        ratio = np.pi * np.sqrt(1.0 + 4.0 * t * t) / (extent * dx)
        t_max = 0.5 * np.sqrt(max(ratio * ratio - 1.0, 0.0))
        raise AliasingGuardError(
            f"free propagation to t={t} aliases: data of degree {n_eff} reach frequency {extent:.4g}, "
            f"above the Nyquist bound pi/dx = {np.pi / dx:.4g} of the frame's grid; max admissible |t| is {t_max:.4g}"
        )
    # the transforms work in place: the frame's values are the one grid-sized array
    grid = basis.grid_values(u0.coeffs, hermite_function_values(basis.max_degree, axis)).reshape((axis.size,) * dim)
    np.fft.fftn(grid, out=grid)
    phase = np.exp(-1j * t * (2.0 * np.pi * np.fft.fftfreq(axis.size, dx)) ** 2)
    for a in range(dim):
        grid *= phase.reshape((-1,) + (1,) * (dim - 1 - a))
    np.fft.ifftn(grid, out=grid)
    return PhysicalFrame(axis=axis, dim=dim, values=grid.ravel(), time=float(t))

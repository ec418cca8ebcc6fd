"""Lens transform between the harmonic-oscillator frame and free space,
plus an independent free-space propagator for cross-validation.

The transform sends a function u of internal time s = arctan(2t)/2 to

    u_lens(t, x) = (1 + 4 t^2)^(-d/4) u(s, x / sqrt(1 + 4 t^2)) e^{i |x|^2 t / (1 + 4 t^2)},

an L^2 isometry for each t that intertwines the oscillator flow exp(-isH)
with the free flow exp(it del^2).  A frame holds the axis of its tensor grid,
the audit axis scaled by sqrt(1 + 4 t^2), and the values at its points.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .fields import SpectralField, analyze, embed_field, fourier_transform, inverse_fourier_transform, synthesize
from .hermite import DEFAULT_COEFF_BUDGET, audit_axis, cached_basis, grid_radius2, hermite_function_values

__all__ = [
    "PhysicalFrame",
    "AliasingGuardError",
    "lens_time_map",
    "lens_time_inverse",
    "lens_forward",
    "frame_l2_norm",
    "free_propagate",
    "free_propagate_field",
    "free_time_limit",
]

# coefficient magnitude below this fraction of the total norm is treated as
# unoccupied when estimating the data's phase-space extent
BANDWIDTH_RTOL = 1e-9

# chirp-tail truncation target for the enlarged free-propagation span
FREE_TAIL_TOL = 1e-10

# largest Hermite degree the enlarged free-propagation span may reach
DEGREE_CAP = 1024

# largest tensor grid (nodes and weights) of the enlarged free-propagation span
FREE_GRID_BYTES = 2**27


class AliasingGuardError(RuntimeError):
    """Requested free evolution would alias on any affordable span."""


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
    basis = u_internal.basis
    alpha = 1.0 + 4.0 * t * t
    axis = _scaled_axis(basis, t)
    inner = basis.grid_values(u_internal.coeffs, basis.audit_table())
    values = alpha ** (-basis.dim / 4.0) * inner * np.exp(1j * grid_radius2(axis, basis.dim) * t / alpha)
    return PhysicalFrame(axis=axis, dim=basis.dim, values=values, time=float(t))


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


def _free_span_degree(n_eff: int, t: float, dim: int) -> int:
    """Span needed to hold exp(it del^2) applied to data of degree n_eff.

    The free flow is the metaplectic operator of the shear (x, xi) ->
    (x + 2 t xi, xi); its largest singular value squared is
    sigma2 = 1 + 2 t^2 + 2 |t| sqrt(1 + t^2), which dilates the occupied
    phase-space disk, and the expansion tail beyond that decays geometrically
    with ratio rho = (sigma2 - 1) / (sigma2 + 1) per mode pair.
    """
    a = 2.0 * abs(t)
    sigma2 = 0.5 * (2.0 + a * a + np.sqrt((2.0 + a * a) ** 2 - 4.0))
    center = sigma2 * (2.0 * n_eff + dim) / 2.0
    rho = (sigma2 - 1.0) / (sigma2 + 1.0)
    if rho <= 0:
        margin = 8
    else:
        margin = int(np.ceil(2.0 * np.log(1.0 / FREE_TAIL_TOL) / np.log(1.0 / rho))) + 8
    return int(np.ceil(center)) + margin


def free_time_limit(u0: SpectralField) -> float:
    """Largest |t| the guard admits for this data under the degree cap."""
    n_eff = _effective_degree(u0)
    lo, hi = 0.0, 1.0
    while _free_span_degree(n_eff, hi, u0.basis.dim) <= DEGREE_CAP and hi < 1e6:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _free_span_degree(n_eff, mid, u0.basis.dim) <= DEGREE_CAP:
            lo = mid
        else:
            hi = mid
    return lo


def free_propagate_field(u0: SpectralField, t: float) -> SpectralField:
    """exp(it del^2) u0 as a spectral field on an internally enlarged span.

    Realized as the Fourier multiplier e^{-it |xi|^2}: transform, multiply on
    the quadrature grid, project back, inverse transform.  The span is grown
    until the chirp tail falls below FREE_TAIL_TOL; if that would exceed
    DEGREE_CAP the call fails loudly rather than aliasing silently.
    """
    if t == 0:
        return u0.copy()
    n_eff = _effective_degree(u0)
    need = _free_span_degree(n_eff, t, u0.basis.dim)
    if need > DEGREE_CAP:
        raise AliasingGuardError(
            f"free propagation to t={t} needs degree {need} > cap {DEGREE_CAP} "
            f"(data degree {n_eff}); max admissible |t| is {free_time_limit(u0):.4g}"
        )
    dim = u0.basis.dim
    big_degree = max(need, u0.basis.max_degree)
    big_degree = 32 * int(np.ceil((big_degree + 1) / 32))  # quantize to bound the basis cache
    size, grid_bytes = comb(big_degree + dim, dim), (2 * (big_degree + 1)) ** dim * (dim + 1) * 8
    if size > DEFAULT_COEFF_BUDGET or grid_bytes > FREE_GRID_BYTES:
        raise AliasingGuardError(
            f"free propagation span (degree {big_degree}, dim {dim}) is too large: "
            f"{size} functions on a grid of {grid_bytes} B"
        )
    big = cached_basis(dim, big_degree, 2 * (big_degree + 1))
    uhat = fourier_transform(embed_field(u0, big))
    vals = synthesize(uhat)
    vals = np.exp(-1j * t * big.radius2) * vals
    return inverse_fourier_transform(analyze(vals, big))


def free_propagate(u0: SpectralField, t: float) -> PhysicalFrame:
    """exp(it del^2) u0 sampled on the audit grid scaled by sqrt(1 + 4t^2), the lens frame's grid."""
    out = free_propagate_field(u0, t)
    axis = _scaled_axis(u0.basis, t)
    table = hermite_function_values(out.basis.max_degree, axis)
    values = out.basis.grid_values(out.coeffs, table)
    return PhysicalFrame(axis=axis, dim=u0.basis.dim, values=values, time=float(t))

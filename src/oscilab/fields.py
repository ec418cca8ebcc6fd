"""Spectral fields on a Hermite basis: norms, propagators, smoothing functional.

A SpectralField is a complex coefficient vector over the basis enumeration.
All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermite import BasisGrid, BasisError, build_basis, cached_basis

__all__ = [
    "SpectralField",
    "NormSpec",
    "unit_field",
    "embed_field",
    "synthesize",
    "analyze",
    "out_of_span_energy",
    "derivative_coefficients",
    "rayleigh_quotient",
    "harmonic_sobolev_norm",
    "propagate_linear",
    "fourier_transform",
    "weighted_x_L2_norm",
    "fractional_laplacian_L2_norm",
    "classical_sobolev_norm",
    "evaluate_norm",
    "spacetime_norm",
    "smoothing_functional",
]

NORM_KINDS = (
    "harmonic_sobolev",
    "classical_sobolev",
    "weighted_x",
    "fractional_laplacian_L2",
    "lebesgue_Lr",
    "sup_norm",
    "harmonic_sobolev_sup",
)


@dataclass
class SpectralField:
    """Complex coefficient vector c over a BasisGrid; the object sum_n c_n h_n."""

    basis: BasisGrid
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (self.basis.size,):
            raise BasisError(
                f"coefficient length {self.coeffs.shape} does not match basis size {self.basis.size}"
            )
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("field coefficients must be finite")

    @property
    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def copy(self) -> "SpectralField":
        return SpectralField(self.basis, self.coeffs.copy())


@dataclass(frozen=True)
class NormSpec:
    """Which spatial norm to evaluate: kind, regularity s, Lebesgue exponent r."""

    kind: str
    s: float = 0.0
    r: float = 2.0

    def __post_init__(self):
        if self.kind not in NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}; expected one of {NORM_KINDS}")
        if self.s < 0:
            raise ValueError(f"regularity s must be >= 0, got {self.s}")
        if self.r < 2:
            raise ValueError(f"Lebesgue exponent r must be >= 2, got {self.r}")


def unit_field(basis: BasisGrid, index) -> SpectralField:
    """Field equal to a single basis function h_index."""
    c = np.zeros(basis.size, dtype=complex)
    c[basis.index_position(index)] = 1.0
    return SpectralField(basis, c)


def embed_field(u: SpectralField, basis: BasisGrid) -> SpectralField:
    """Re-express u in a finer basis of the same dimension (degree >= original)."""
    if basis.dim != u.basis.dim or basis.max_degree < u.basis.max_degree:
        raise BasisError("target basis must have same dim and at least the same degree")
    c = np.zeros(basis.size, dtype=complex)
    for k, n in enumerate(u.basis.indices):
        c[basis.index_position(n)] = u.coeffs[k]
    return SpectralField(basis, c)


def synthesize(u: SpectralField, points: np.ndarray | None = None) -> np.ndarray:
    """Physical values sum_n c_n h_n at the quadrature nodes (or given points)."""
    if points is None:
        return u.coeffs @ u.basis.eval_table
    return u.coeffs @ u.basis.eval_at(points)


def analyze(values: np.ndarray, basis: BasisGrid) -> SpectralField:
    """Project nodal values onto the basis: c_n = sum_j w_j h_n(x_j) values_j.

    Exact left inverse of synthesize on the truncated span.
    """
    values = np.asarray(values)
    if values.shape != (basis.nodes.shape[0],):
        raise BasisError(
            f"value array length {values.shape} does not match node count {basis.nodes.shape[0]}"
        )
    coeffs = (basis.eval_table * basis.weights) @ values
    return SpectralField(basis, coeffs.astype(complex))


def out_of_span_energy(values: np.ndarray, basis: BasisGrid) -> float:
    """Quadrature mass of the component orthogonal to the truncated span.

    Positive when the sampled function has content beyond degree N; used to
    flag aliased input in reports.
    """
    u = analyze(values, basis)
    total = float(np.sum(basis.weights * np.abs(np.asarray(values)) ** 2))
    return max(total - u.l2_norm**2, 0.0)


def _shift_index(basis: BasisGrid, target: BasisGrid, n: tuple, axis: int, delta: int):
    m = list(n)
    m[axis] += delta
    if m[axis] < 0 or sum(m) > target.max_degree:
        return None
    return target.index_position(tuple(m))


def derivative_coefficients(u: SpectralField, axis: int = 0) -> SpectralField:
    """Coefficients of d/dx_axis u, in a basis of degree N + 1.

    Implements h_n' = sqrt(n/2) h_{n-1} - sqrt((n+1)/2) h_{n+1} per axis.
    """
    basis = u.basis
    target = cached_basis(basis.dim, basis.max_degree + 1, basis.quad_per_axis + 2)
    out = np.zeros(target.size, dtype=complex)
    for k, n in enumerate(basis.indices):
        c = u.coeffs[k]
        if c == 0:
            continue
        na = n[axis]
        down = _shift_index(basis, target, n, axis, -1)
        if down is not None:
            out[down] += c * np.sqrt(na / 2.0)
        up = _shift_index(basis, target, n, axis, +1)
        if up is not None:
            out[up] -= c * np.sqrt((na + 1) / 2.0)
    return SpectralField(target, out)


def rayleigh_quotient(u: SpectralField) -> float:
    """<(-del^2 + |x|^2) u, u> / <u, u> via derivative coefficients and x^2 quadrature.

    Independent of the eigenvalue formula: the kinetic term uses the ladder
    derivative twice (through its l2 norm), the potential term integrates
    |x|^2 |u|^2 with the quadrature rule.
    """
    denom = u.l2_norm**2
    if denom == 0:
        raise ValueError("Rayleigh quotient of the zero field")
    kinetic = sum(
        derivative_coefficients(u, axis=a).l2_norm ** 2 for a in range(u.basis.dim)
    )
    vals = synthesize(u)
    x2 = np.sum(u.basis.nodes**2, axis=1)
    potential = float(np.sum(u.basis.weights * x2 * np.abs(vals) ** 2))
    return (kinetic + potential) / denom


# ---------------------------------------------------------------------------
# norms


def harmonic_sobolev_norm(u: SpectralField, s: float) -> float:
    """sqrt( sum_n lambda_n^{2s} |c_n|^2 ) with lambda_n^2 = 2|n| + d."""
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    return float(np.sqrt(np.sum(u.basis.lambda2**s * np.abs(u.coeffs) ** 2)))


def propagate_linear(u: SpectralField, t: float) -> SpectralField:
    """Diagonal oscillator flow: c_n -> exp(-i t lambda_n^2) c_n; exactly unitary."""
    return SpectralField(u.basis, np.exp(-1j * t * u.basis.lambda2) * u.coeffs)


def fourier_transform(u: SpectralField) -> SpectralField:
    """Unitary Fourier transform: c_n -> (-i)^{|n|} c_n (Hermite eigenfunctions)."""
    return SpectralField(u.basis, (-1j) ** u.basis.degrees * u.coeffs)


def inverse_fourier_transform(u: SpectralField) -> SpectralField:
    return SpectralField(u.basis, (1j) ** u.basis.degrees * u.coeffs)


_PRODUCT_QUAD_CACHE: dict = {}


def product_quadrature(basis: BasisGrid, product_degree: int):
    """Quadrature grid exact for degree-product_degree polynomial factors.

    Returns (nodes, weights, table) with table[k, j] = h_{indices[k]} at the
    de-aliased nodes.  Used to integrate nonlinear products and non-polynomial
    weights; sized so that (product of fields) x (basis function) stays inside
    the exactness degree.
    """
    per_axis = max(basis.quad_per_axis, int(np.ceil((product_degree + basis.max_degree) / 2)) + 1)
    key = (basis.dim, basis.max_degree, basis.quad_per_axis, per_axis)
    if key not in _PRODUCT_QUAD_CACHE:
        fine = build_basis(basis.dim, basis.max_degree, per_axis)
        _PRODUCT_QUAD_CACHE[key] = (fine.nodes, fine.weights, fine.eval_table)
    return _PRODUCT_QUAD_CACHE[key]


def weighted_x_L2_norm(u: SpectralField, s: float) -> float:
    """|| <x>^s u ||_{L^2} with <x> = sqrt(1 + |x|^2), by de-aliased quadrature."""
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    nodes, weights, table = product_quadrature(u.basis, 2 * u.basis.max_degree)
    vals = u.coeffs @ table
    w = (1.0 + np.sum(nodes**2, axis=1)) ** s
    return float(np.sqrt(np.sum(weights * w * np.abs(vals) ** 2)))


def fractional_laplacian_L2_norm(u: SpectralField, s: float) -> float:
    """|| |del|^s u ||_{L^2} computed as || |x|^s u_hat ||_{L^2} via Plancherel."""
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    if s == 0:
        return u.l2_norm
    uhat = fourier_transform(u)
    nodes, weights, table = product_quadrature(u.basis, 2 * u.basis.max_degree)
    vals = uhat.coeffs @ table
    w = np.sum(nodes**2, axis=1) ** s
    return float(np.sqrt(np.sum(weights * w * np.abs(vals) ** 2)))


def classical_sobolev_norm(u: SpectralField, s: float) -> float:
    """Equivalent H^s norm: sqrt( ||u||^2 + || |del|^s u ||^2 ); plain L^2 at s = 0."""
    if s == 0:
        return u.l2_norm
    return float(np.hypot(u.l2_norm, fractional_laplacian_L2_norm(u, s)))


def _audit_values(u: SpectralField) -> np.ndarray:
    return u.coeffs @ u.basis.audit_table()


def lebesgue_audit_norm(u: SpectralField, r: float) -> float:
    """L^r norm over the uniform audit grid (Riemann sum); r = inf is the sup."""
    vals = np.abs(_audit_values(u))
    if np.isinf(r):
        return float(vals.max())
    cell = u.basis.audit_cell_volume()
    vmax = vals.max()
    if vmax == 0:
        return 0.0
    # factored form keeps the evaluation exactly degree-1 homogeneous in u
    return float(vmax * (cell * np.sum((vals / vmax) ** r)) ** (1.0 / r))


def harmonic_filter(u: SpectralField, s: float) -> SpectralField:
    """Apply H^{s/2} spectrally: c_n -> lambda_n^s c_n."""
    return SpectralField(u.basis, u.basis.lambda2 ** (s / 2.0) * u.coeffs)


def evaluate_norm(u: SpectralField, spec: NormSpec) -> float:
    if spec.kind == "harmonic_sobolev":
        return harmonic_sobolev_norm(u, spec.s)
    if spec.kind == "classical_sobolev":
        return classical_sobolev_norm(u, spec.s)
    if spec.kind == "weighted_x":
        return weighted_x_L2_norm(u, spec.s)
    if spec.kind == "fractional_laplacian_L2":
        return fractional_laplacian_L2_norm(u, spec.s)
    if spec.kind == "lebesgue_Lr":
        return lebesgue_audit_norm(u, spec.r)
    if spec.kind == "sup_norm":
        return lebesgue_audit_norm(u, np.inf)
    if spec.kind == "harmonic_sobolev_sup":
        # W^{s,inf} proxy: sup over the audit grid of the H^{s/2}-filtered field
        return lebesgue_audit_norm(harmonic_filter(u, spec.s), np.inf)
    raise ValueError(f"unhandled norm kind {spec.kind!r}")


def _trapezoid_weights(n: int, step: float) -> np.ndarray:
    w = np.full(n, step)
    w[0] = w[-1] = step / 2.0
    return w


def spacetime_norm(
    u0: SpectralField,
    q: float,
    norm: NormSpec,
    T: float,
    time_nodes: int,
) -> float:
    """L^q-in-time norm over [-T, T] of the spatial norm of exp(-itH) u0.

    Composite trapezoid in time; q = inf returns the max over the nodes.
    The evaluation is factored so that scaling u0 by a power of two scales
    the result exactly (bitwise degree-1 homogeneity).
    """
    if q < 1:
        raise ValueError(f"time exponent q must be >= 1, got {q}")
    if T <= 0:
        raise ValueError(f"T must be > 0, got {T}")
    if time_nodes < 16:
        raise ValueError(f"time_nodes must be >= 16, got {time_nodes}")
    times = np.linspace(-T, T, time_nodes)
    vals = np.array([evaluate_norm(propagate_linear(u0, t), norm) for t in times])
    if np.isinf(q):
        return float(vals.max())
    vmax = vals.max()
    if vmax == 0:
        return 0.0
    w = _trapezoid_weights(time_nodes, times[1] - times[0])
    return float(vmax * np.sum(w * (vals / vmax) ** q) ** (1.0 / q))


def smoothing_functional(
    u0: SpectralField,
    eps: float,
    variant: str = "sqrtH",
    time_nodes: int = 129,
) -> float:
    """Normalized space-time smoothing ratio of the oscillator flow.

    variant "sqrtH": || <x>^{-(1/2-eps)} H^{(1/2-2 eps)/2} e^{itH} u0 ||
    over L^2([-2 pi, 2 pi] x R^d), divided by ||u0||_{L^2}.

    variant "fractional_grad": same weight with |del|^{d/2-2 eps} instead,
    divided by ||u0|| in the harmonic Sobolev space of order (d-1)/2.

    The weight acts pointwise on the de-aliased grid; the fractional
    derivative acts through the Fourier side with a projection back onto the
    span (a logged approximation).  Returns an empirical candidate for the
    inequality constant.
    """
    if not 0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    if variant not in ("sqrtH", "fractional_grad"):
        raise ValueError(f"unknown variant {variant!r}")
    basis = u0.basis
    d = basis.dim
    if variant == "sqrtH":
        denom = u0.l2_norm
    else:
        denom = harmonic_sobolev_norm(u0, (d - 1) / 2.0)
        if d == 1:
            denom = u0.l2_norm  # (d-1)/2 = 0
    if denom == 0:
        raise ValueError("smoothing functional of the zero field")

    nodes, weights, table = product_quadrature(basis, 2 * basis.max_degree)
    times = np.linspace(-2 * np.pi, 2 * np.pi, time_nodes)
    phases = np.exp(1j * np.outer(times, basis.lambda2))  # e^{+itH}

    if variant == "sqrtH":
        filt = basis.lambda2 ** ((0.5 - 2 * eps) / 2.0)
        coeff_mat = phases * (filt * u0.coeffs)[None, :]
    else:
        s_grad = d / 2.0 - 2 * eps
        mult = np.sum(nodes**2, axis=1) ** (s_grad / 2.0)
        fwd = (-1j) ** basis.degrees
        inv = (1j) ** basis.degrees
        proj = table * weights  # analysis operator
        coeff_mat = phases * (fwd * u0.coeffs)[None, :]   # Fourier side, per time
        grid_vals = coeff_mat @ table
        grid_vals *= mult[None, :]
        coeff_mat = (grid_vals @ proj.T) * inv[None, :]   # back to x side, in span

    grid_vals = coeff_mat @ table
    # squared weight: (<x>^{-(1/2-eps)})^2 = (1 + |x|^2)^{-(1/2-eps)}
    weight_sq = (1.0 + np.sum(nodes**2, axis=1)) ** (-(0.5 - eps))
    space_sq = np.sum(weights * weight_sq * np.abs(grid_vals) ** 2, axis=1)
    tw = _trapezoid_weights(time_nodes, times[1] - times[0])
    value = float(np.sqrt(np.sum(tw * space_sq)))
    return value / denom

"""Spectral fields on a Hermite basis: norms, propagators, the smoothing functional and its sharp constant.

A SpectralField is a complex coefficient vector over the basis enumeration.
All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import hermite
from .hermite import BasisGrid, BasisError, build_basis, cached_basis

__all__ = [
    "SpectralField",
    "NormSpec",
    "unit_field",
    "synthesize",
    "analyze",
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
    "smoothing_constant",
    "trapezoid_weights",
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


def synthesize(u: SpectralField) -> np.ndarray:
    """Physical values sum_n c_n h_n at the quadrature nodes."""
    return u.basis.grid_values(u.coeffs, u.basis.eval_table)


def analyze(values: np.ndarray, basis: BasisGrid) -> SpectralField:
    """Project nodal values onto the basis: c_n = sum_j w_j h_n(x_j) values_j.

    Exact left inverse of synthesize on the truncated span.
    """
    values = np.asarray(values)
    if values.shape != basis.weights.shape:
        raise BasisError(
            f"value array length {values.shape} does not match node count {basis.weights.size}"
        )
    coeffs = basis.grid_coeffs(values, basis.eval_table, basis.weights)
    return SpectralField(basis, coeffs.astype(complex))


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
    potential = float(np.sum(u.basis.weights * u.basis.radius2 * np.abs(vals) ** 2))
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


_PRODUCT_QUAD_CACHE: dict = {}


def product_quadrature(basis: BasisGrid, product_degree: int):
    """Quadrature grid exact for degree-product_degree polynomial factors.

    Returns (radius2, weights, table): |x|^2 and the weights on the
    de-aliased tensor grid, and its per-axis table h_n(axis node j) for
    ``basis.grid_values`` and ``basis.grid_coeffs``, sized so that (product
    of fields) x (basis function) stays inside the exactness degree.  The
    arrays are a BasisGrid's, read-only: the input's own when its grid is
    already fine enough, else a cached finer one.
    """
    per_axis = max(basis.quad_per_axis, int(np.ceil((product_degree + basis.max_degree) / 2)) + 1)
    if per_axis == basis.quad_per_axis:
        return basis.radius2, basis.weights, basis.eval_table
    key = (basis.dim, basis.max_degree, basis.quad_per_axis, per_axis)
    if key not in _PRODUCT_QUAD_CACHE:
        fine = build_basis(basis.dim, basis.max_degree, per_axis)
        _PRODUCT_QUAD_CACHE[key] = (fine.radius2, fine.weights, fine.eval_table)
    return _PRODUCT_QUAD_CACHE[key]


def weighted_x_L2_norm(u: SpectralField, s: float) -> float:
    """|| <x>^s u ||_{L^2} with <x> = sqrt(1 + |x|^2), by de-aliased quadrature."""
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    radius2, weights, table = product_quadrature(u.basis, 2 * u.basis.max_degree)
    vals = u.basis.grid_values(u.coeffs, table)
    w = (1.0 + radius2) ** s
    return float(np.sqrt(np.sum(weights * w * np.abs(vals) ** 2)))


def fractional_laplacian_L2_norm(u: SpectralField, s: float) -> float:
    """|| |del|^s u ||_{L^2} computed as || |x|^s u_hat ||_{L^2} via Plancherel."""
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    if s == 0:
        return u.l2_norm
    uhat = fourier_transform(u)
    radius2, weights, table = product_quadrature(u.basis, 2 * u.basis.max_degree)
    vals = u.basis.grid_values(uhat.coeffs, table)
    w = radius2**s
    return float(np.sqrt(np.sum(weights * w * np.abs(vals) ** 2)))


def classical_sobolev_norm(u: SpectralField, s: float) -> float:
    """Equivalent H^s norm: sqrt( ||u||^2 + || |del|^s u ||^2 ); plain L^2 at s = 0."""
    if s == 0:
        return u.l2_norm
    return float(np.hypot(u.l2_norm, fractional_laplacian_L2_norm(u, s)))


def lebesgue_audit_norm(u: SpectralField, r: float) -> float:
    """L^r norm over the uniform audit grid (Riemann sum), summed tile by tile; r = inf is the sup."""
    basis, rows = u.basis, u.coeffs[None, :]
    vmax = basis.audit_sup(rows)[0]
    if np.isinf(r):
        return float(vmax)
    if vmax == 0:
        return 0.0
    # factored form keeps the evaluation exactly degree-1 homogeneous in u; the tiles come after the sup,
    # so the whole grid never exists at once
    total = sum(np.sum((vals / vmax) ** r) for vals in basis.audit_tiles(rows))
    return float(vmax * (basis.audit_cell_volume() * total) ** (1.0 / r))


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


def trapezoid_weights(n: int, step: float) -> np.ndarray:
    """Composite trapezoid weights of n equally spaced nodes step apart."""
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
    w = trapezoid_weights(time_nodes, times[1] - times[0])
    return float(vmax * np.sum(w * (vals / vmax) ** q) ** (1.0 / q))


def _unit_grid_values(basis: BasisGrid, a: int, b: int, table: np.ndarray) -> np.ndarray:
    """Grid values of the unit rows a..b-1 of the enumeration, shape (b - a, P^dim).

    Bit for bit ``basis.grid_values(np.eye(b - a, basis.size, a), table)``
    without the identity matmul: a unit row's values are the product of its
    per-axis table rows, multiplied in the order in which ``grid_values``
    contracts the axes (the matmul adds only exact zeros to each product).
    At d = 1 they are the table rows themselves.
    """
    idx = np.array(basis.indices[a:b])
    vals = table[idx[:, 0]]
    for axis in range(1, basis.dim):
        vals = (vals[:, :, None] * table[idx[:, axis]][:, None, :]).reshape(b - a, -1)
    return vals


def _smoothing_order(basis: BasisGrid, variant: str) -> float:  # of the smoothing ratio's denominator norm
    return 0.0 if variant == "sqrtH" else (basis.dim - 1) / 2.0


def _smoothing_blocks(basis: BasisGrid, eps: float, variant: str):
    """Yield (a, b, S) for each run of consecutive equal-size eigenspaces |n| = k (all of
    them at d = 1), cut where their grid values outgrow a tile: positions a..b-1 of the graded
    enumeration, and the run's blocks S_k, the real symmetric weighted Gram matrices of the
    spatial operator, stacked (eigenspaces, size, size).  For "sqrtH" they carry
    H^{(1/2-2 eps)/2} on both sides, a factor (2k + d)^{1/2-2 eps}.

    A run holds at most hermite.GRID_TILE_BYTES of grid values, rounded down to a multiple
    of 4 eigenspaces (at least 4), so at d = 1 every run starts at a multiple of 4 rows, as
    the rows of BasisGrid.project_pointwise do.  At d >= 2 the eigenspace sizes differ, so
    every run is one eigenspace.  "sqrtH" blocks take each eigenspace on its own, so no run
    changes their bits.  The "fractional_grad" analysis and synthesis are matmuls over a run's
    rows, and OpenBLAS can round a run's last rows otherwise than one whole run's: on one BLAS
    thread the smoothing command's bases (N = 32, 64, 128, 256) keep the whole run's bits, but
    at 52 of the 292 split bases from N = 128 to 419 a constant moves by up to 8e-16."""
    if not 0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    if variant not in ("sqrtH", "fractional_grad"):
        raise ValueError(f"unknown variant {variant!r}")
    radius2, weights, table = product_quadrature(basis, 2 * basis.max_degree)
    # quadrature weights times the squared weight (<x>^{-(1/2-eps)})^2 = (1 + |x|^2)^{-(1/2-eps)}
    weight_sq = weights * (1.0 + radius2) ** (-(0.5 - eps))
    if variant == "fractional_grad":
        mult = radius2 ** ((basis.dim / 2.0 - 2 * eps) / 2.0)
        # the Fourier conjugation's phase i^{|m|-|n|} on the parity classes the even multiplier couples
        sign = 1.0 - 2.0 * (basis.degrees // 2 % 2)
    sizes = np.bincount(basis.degrees)  # eigenspace k: the sizes[k] consecutive positions of degree k
    per_tile = max(4, hermite.GRID_TILE_BYTES // (weight_sq.nbytes * sizes.max()) // 4 * 4)
    for (_, size), run in itertools.groupby(range(len(sizes)), lambda k: (k // per_tile, sizes[k])):
        run = list(run)
        a, b = np.searchsorted(basis.degrees, (run[0], run[-1] + 1))
        v = _unit_grid_values(basis, a, b, table)
        if variant == "fractional_grad":
            # to the Fourier side, |xi|^s on the grid, analysis back onto the span, back to x
            v *= mult  # v is a fresh array: in place, one grid-sized array fewer during the analysis
            v = basis.grid_values(sign * basis.grid_coeffs(v, table, weights), table)
        v = v.reshape(len(run), size, -1)
        blocks = (v * weight_sq) @ v.mT
        if variant == "sqrtH":
            blocks *= basis.lambda2[a:b:size, None, None] ** (0.5 - 2 * eps)
        yield a, b, blocks


def smoothing_functional(u0: SpectralField, eps: float, variant: str) -> float:
    """Normalized space-time smoothing ratio of the oscillator flow.

    variant "sqrtH": || <x>^{-(1/2-eps)} H^{(1/2-2 eps)/2} e^{itH} u0 || over L^2([-2 pi, 2 pi] x R^d),
    divided by ||u0||_{L^2}.  variant "fractional_grad": |del|^{d/2-2 eps} in place of the H power,
    through the Fourier side with a projection back onto the span (a logged approximation), divided
    by the harmonic Sobolev norm of order (d-1)/2.  The weight acts pointwise on the de-aliased grid.
    Every lambda_n^2 = 2|n| + d is an integer, so the time integral is exact: the squared numerator
    is 4 pi sum_k c_k^H S_k c_k over the eigenspaces |n| = k.
    """
    form_c = np.empty_like(u0.coeffs)  # S_k c_k, eigenspace by eigenspace
    for a, b, blocks in _smoothing_blocks(u0.basis, eps, variant):
        form_c[a:b] = (blocks @ u0.coeffs[a:b].reshape(len(blocks), -1, 1)).reshape(-1)
    denom = harmonic_sobolev_norm(u0, _smoothing_order(u0.basis, variant))
    if denom == 0:
        raise ValueError("smoothing functional of the zero field")
    return float(np.sqrt(4 * np.pi * np.vecdot(u0.coeffs, form_c).real) / denom)


def smoothing_constant(basis: BasisGrid, eps: float, variant: str) -> tuple[float, SpectralField]:
    """Sharp constant of smoothing_functional over the span of basis, and an l2-unit
    field inside one eigenspace that attains it: the squared ratio is
    4 pi sum_k c_k^H S_k c_k / sum_k w_k |c_k|^2 with w_k = (2k + d)^s, s the
    denominator's order, so its sup is 4 pi max_k top-eig(S_k) / w_k.
    """
    best = -np.inf
    for a, b, blocks in _smoothing_blocks(basis, eps, variant):
        evals, evecs = np.linalg.eigh(blocks)
        ratio = evals[:, -1] / basis.lambda2[a:b:blocks.shape[1]] ** _smoothing_order(basis, variant)
        k = int(np.argmax(ratio))
        if ratio[k] > best:
            best, start, top = ratio[k], a + k * evecs.shape[1], evecs[k, :, -1]
    mode = np.zeros(basis.size, dtype=complex)
    mode[start : start + top.size] = top
    return float(np.sqrt(4 * np.pi * best)), SpectralField(basis, mode)

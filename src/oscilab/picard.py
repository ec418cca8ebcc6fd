"""Picard fixed-point solver for the weighted harmonic Schrodinger equation

    i du/dt - H u = K cos(2t)^e |u|^{p-1} u,   u(0) = u0,   e = d(p-1)/2 - 2,

on the time window [-T, T], T = pi/4, with p >= 5 odd and K = +-1.
Writing u = exp(-itH) u0 + v, the correction v is the fixed point of

    L(v)(t) = -i int_0^t exp(-i(t-s)H) cos(2s)^e K |u(s)|^{p-1} u(s) ds,

iterated on a uniform grid with spectral space handling (de-aliased
quadrature for the nonlinearity) and a fourth-order cumulative rule in time.
Also extracts scattering profiles of the lens-transported global solution.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, asdict, fields
from functools import cached_property

import numpy as np

from .fields import SpectralField, classical_sobolev_norm, product_quadrature, trapezoid_weights
from .hermite import BasisGrid, cached_basis
from .lens import PhysicalFrame, lens_forward, lens_time_map

__all__ = [
    "SolverConfig",
    "Trajectory",
    "ScatteringPair",
    "DivergenceError",
    "picard_solve",
    "residual",
    "mass_curve",
    "scattering_extract",
    "global_nls_solution",
    "save_trajectory",
    "load_trajectory",
]

TRAJECTORY_VERSION = 4

T = np.pi / 4  # half-width of the solved time window; the lens maps every external time inside it
TOL = 1e-12  # the iteration stops once an update's surrogate norm is at most TOL
MAX_ITER = 25

BLOWUP_FACTOR = 1e6

# bytes of grid values that one tile of a Picard pass holds in its largest array; the tile width
# in time nodes is this over one node's share of that array, in whole groups of four nodes
PICARD_TILE_BYTES = 2**20

# external times at which scattering_extract reports the decay of the profile residual
SCATTERING_TIMES = (1.0, 5.0, 20.0)


class DivergenceError(RuntimeError):
    """Fixed-point iteration left the contraction regime."""

    def __init__(self, message: str, time_node: float | None = None, history=None):
        super().__init__(message)
        self.time_node = time_node
        self.history = list(history or [])


@dataclass(frozen=True)
class SolverConfig:
    """Problem data for one fixed-point solve on [-T, T].

    The cosine weight exponent d(p-1)/2 - 2 must be a non-negative integer,
    which pins p to odd values >= 5.
    """

    dim: int = 1
    nonlinearity_p: int = 5
    K: int = 1
    N: int = 32
    time_nodes: int = 65

    def __post_init__(self):
        if self.nonlinearity_p < 5 or self.nonlinearity_p % 2 == 0:
            raise ValueError("nonlinearity_p must be odd >= 5")
        if self.K not in (-1, 1):
            raise ValueError(f"K must be -1 or +1, got {self.K}")
        if self.time_nodes < 33 or self.time_nodes % 2 == 0:
            raise ValueError("time_nodes must be odd and >= 33")
        exponent = self.cos_exponent
        if exponent != int(exponent) or exponent < 0:
            raise ValueError(f"cosine weight exponent {exponent} must be a non-negative integer")

    @property
    def s(self) -> float:
        """Midpoint of the admissible regularity window (d/2 - 2/(p-1), d/2)."""
        lo = self.dim / 2.0 - 2.0 / (self.nonlinearity_p - 1)
        hi = self.dim / 2.0
        return (max(lo, 0.0) + hi) / 2.0

    @property
    def cos_exponent(self) -> int:
        return self.dim * (self.nonlinearity_p - 1) // 2 - 2

    def times(self) -> np.ndarray:
        mid = (self.time_nodes - 1) // 2
        # anchored at the middle node so t = 0 is exact
        return (np.arange(self.time_nodes) - mid) * (T / mid)

    def as_dict(self) -> dict:
        """The fields, the fixed T, TOL and MAX_ITER, the derived s and nonlinear (always), as reports list them."""
        return {
            "dim": self.dim, "nonlinearity_p": self.nonlinearity_p, "K": self.K, "T": T, "N": self.N,
            "time_nodes": self.time_nodes, "tol": TOL, "max_iter": MAX_ITER, "s": self.s, "nonlinear": True,
        }


@dataclass
class Trajectory:
    """Solved correction v on the config's time grid, plus the linear data to rebuild u; only a
    converged solve returns one."""

    config: SolverConfig
    basis: BasisGrid
    u0: np.ndarray            # initial coefficients
    v: np.ndarray             # (time_nodes, basis.size) fixed-point correction
    contraction_history: list[float]  # the update norm of each iteration

    @property
    def iterations(self) -> int:
        return len(self.contraction_history)

    @cached_property
    def times(self) -> np.ndarray:
        return self.config.times()

    def u_matrix(self) -> np.ndarray:
        phases = np.exp(-1j * np.outer(self.times, self.basis.lambda2))
        return phases * self.u0[None, :] + self.v

    def v_at_time(self, s: float) -> np.ndarray:
        """Four-point Lagrange interpolation of v at an off-grid time."""
        if s < self.times[0] - 1e-12 or s > self.times[-1] + 1e-12:
            raise ValueError(f"time {s} outside the solved window [{self.times[0]}, {self.times[-1]}]")
        j = int(np.searchsorted(self.times, s))
        j = min(max(j, 2), len(self.times) - 2)
        idx = np.arange(j - 2, j + 2)
        ts = self.times[idx]
        w = np.array(
            [
                np.prod([(s - ts[m]) / (ts[k] - ts[m]) for m in range(4) if m != k])
                for k in range(4)
            ]
        )
        return w @ self.v[idx]


@dataclass
class ScatteringPair:
    """Asymptotic profiles of the lens-transported solution and the decay curve."""

    L_plus: SpectralField
    L_minus: SpectralField
    residual_curve: list[tuple[float, float]]

    def __post_init__(self):
        if any(r < 0 for _, r in self.residual_curve):
            raise ValueError("residual curve must be nonnegative")


class _Workspace:
    """Per-solve tables: de-aliased quadrature, time phases, the H^s weights, the H^{s/2} filter,
    the trapezoid weights in time and the tile width.

    ``nonlinearity`` and the audit sup bounds and sups of ``surrogate_norm`` walk the time nodes
    in tiles of ``tile`` nodes, so their grid arrays are a tile's, not (time nodes x grid).  A
    node costs 16 bytes a point of the larger of the quadrature grid and the audit sup's
    first-axis partial (audit axis x (N+1)^(d-1)): 16 nodes at d = 2, N = 12, 12 at N = 16,
    4 at d = 3 from N = 5 on, and over 65, one tile, at the d = 1 presets.

    The tiles follow the row-tile rule of ``BasisGrid.project_pointwise``: each starts at a
    multiple of ``tile`` (itself a multiple of 4), and the last may hold one node, as the
    65-node passes at d = 2, N = 12 and at d = 3 do ([64:65]).  Joining that node to the tile
    before, as ``ensembles._tile_bounds`` does, keeps the bits but makes that tile's arrays one
    node larger than a tile's: at d = 3, N = 8 the pass then peaked at 3.23 MB under
    tracemalloc, above the 2.77 MB bound of ``test_nonlinearity_holds_one_tile_of_grid_arrays``.
    ``test_tiled_passes_are_the_whole_passes_bitwise`` pins the bits.
    """

    def __init__(self, cfg: SolverConfig, basis: BasisGrid):
        self.cfg = cfg
        self.basis = basis
        p = cfg.nonlinearity_p
        _, self.weights, self.table = product_quadrature(basis, (p + 1) * basis.max_degree)
        self.times = cfg.times()
        self.h = float(self.times[1] - self.times[0])
        self.phases = np.exp(-1j * np.outer(self.times, basis.lambda2))
        self.cos_weight = np.cos(2.0 * self.times) ** cfg.cos_exponent
        self.filter_s = basis.lambda2 ** (cfg.s / 2.0)
        self.hs_weight = basis.lambda2**cfg.s
        self.time_weights = trapezoid_weights(len(self.times), self.h)
        node_bytes = 16 * max(self.weights.size, basis.audit_partial_points)
        self.tile = max(4, PICARD_TILE_BYTES // node_bytes // 4 * 4)

    def _by_tile(self, rows: np.ndarray, out: np.ndarray, pass_) -> np.ndarray:
        """``out[lo:hi] = pass_(rows[lo:hi])`` over the tiles of ``tile`` rows; returns ``out``."""
        for lo in range(0, len(rows), self.tile):
            out[lo : lo + self.tile] = pass_(rows[lo : lo + self.tile])
        return out

    def nonlinearity(self, u_mat: np.ndarray) -> np.ndarray:
        """K cos(2t)^e |u|^{p-1} u projected back onto the span, per time node.

        One ``BasisGrid.project_pointwise`` pass per tile of time nodes, into
        one (time nodes, modes) result: |u|^{p-1} u is formed in place on the
        complex (grid points x tile) values, so a call holds that array, one
        real one of its shape and the result at its peak.  Tile rule: every
        tile starts at a multiple of 4 nodes, where the pass gives each node
        the bits of one whole call (see ``BasisGrid.project_pointwise``);
        ``test_nonlinearity_is_one_pointwise_projection_bitwise`` and
        ``test_tiled_passes_are_the_whole_passes_bitwise`` pin it.
        """
        p = self.cfg.nonlinearity_p

        def power_times(values: np.ndarray) -> None:
            mod = np.abs(values)
            np.power(mod, p - 1, out=mod)
            values *= mod

        def project(rows: np.ndarray) -> np.ndarray:
            return self.basis.project_pointwise(rows, self.table, self.weights, power_times)

        out = self._by_tile(u_mat, np.empty(u_mat.shape, complex), project)
        return np.multiply(self.cfg.K * self.cos_weight[:, None], out, out=out)

    def surrogate_norm(self, v_mat: np.ndarray) -> float:
        """Stopping norm: max of sup_t (harmonic H^s) and L^2_t (audit sup of H^{s/2} u).

        A computable surrogate for the intersection-space norm; dominates the
        admissible pairs used at desk scale.  The L^2_t part is the costly
        half, so it is first bounded: ``BasisGrid.audit_sup_bound`` runs per
        tile of time nodes, by the tile rule of ``nonlinearity``, and when the
        L^2_t of those bounds is at most the sup_t part, that part is the max
        and the audit grid is never walked.  The bits are those of the walk:
        per node the bound is at least the computed audit sup, and squaring,
        weighting by the trapezoid weights (>= 0), numpy's fixed-order
        pairwise sum and sqrt are monotone in floating point, so the computed
        L^2_t of the sups is at most that of the bounds, hence at most the
        sup_t part, which ``max`` returns.  A NaN bound, or an L^2_t that
        overflows to inf, fails the test unless the sup_t part is inf too.
        Otherwise the audit sup is walked once, per tile as well; at d = 1 the
        bounds already are the audit sups and no walk follows.
        """
        hs = np.sqrt(np.sum(self.hs_weight[None, :] * np.abs(v_mat) ** 2, axis=1))
        sup_part = float(hs.max())
        filtered = v_mat * self.filter_s[None, :]
        bounds = self._by_tile(filtered, np.empty(len(v_mat)), self.basis.audit_sup_bound)
        with np.errstate(over="ignore"):
            if self._l2t(bounds) <= sup_part:
                return sup_part
        sups = bounds if self.basis.dim == 1 else self._by_tile(filtered, bounds, self.basis.audit_sup)
        return max(sup_part, self._l2t(sups))

    def _l2t(self, per_node: np.ndarray) -> float:
        """Trapezoid L^2_t norm of one nonnegative value per time node."""
        return float(np.sqrt(np.sum(self.time_weights * per_node**2)))


def _cumulative_from_zero(values: np.ndarray, h: float, mid: int) -> np.ndarray:
    """Cumulative integral from the middle node, fourth order on a uniform grid.

    Each interval gets the integral of the cubic through its four nearest
    nodes; the one-sided end rules keep the order at the boundary.  The
    stencil is translation invariant in the interior, so the quadrature error
    is smooth in the node index and survives time differentiation at full
    order (a parity-oscillating rule would not).
    """
    m = values.shape[0]
    seg = np.empty_like(values)
    seg[0] = h * (9.0 * values[0] + 19.0 * values[1] - 5.0 * values[2] + values[3]) / 24.0
    seg[1:-2] = h * (-values[:-3] + 13.0 * values[1:-2] + 13.0 * values[2:-1] - values[3:]) / 24.0
    seg[-2] = h * (values[-4] - 5.0 * values[-3] + 19.0 * values[-2] + 9.0 * values[-1]) / 24.0
    out = np.zeros_like(values)
    np.cumsum(seg[:-1], axis=0, out=out[1:])
    return out - out[mid]


def _apply_duhamel(ws: _Workspace, u0: np.ndarray, v_mat: np.ndarray) -> np.ndarray:
    u_mat = ws.phases * u0[None, :] + v_mat
    if not np.all(np.isfinite(u_mat)):
        bad = np.where(~np.isfinite(u_mat).all(axis=1))[0]
        raise DivergenceError(
            "non-finite field during Duhamel application",
            time_node=float(ws.times[bad[0]]),
        )
    g_mat = ws.nonlinearity(u_mat)
    integrand = np.conj(ws.phases) * g_mat          # e^{+isH} applied node-wise
    mid = (len(ws.times) - 1) // 2
    cumulative = _cumulative_from_zero(integrand, ws.h, mid)
    return -1j * ws.phases * cumulative


def picard_solve(u0: SpectralField, cfg: SolverConfig) -> Trajectory:
    """Iterate v <- L(v) from v = 0 to the fixed point.

    Stops when the update, measured in the surrogate intersection norm,
    falls to TOL.  Raises DivergenceError when the blow-up guard trips (any
    field norm beyond 1e6 times the data) or MAX_ITER is hit;
    the error carries the contraction history.
    """
    return _iterate(u0, cfg, np.zeros((cfg.time_nodes, u0.basis.size), dtype=complex))


def _iterate(u0: SpectralField, cfg: SolverConfig, v_mat: np.ndarray) -> Trajectory:
    """picard_solve from the complex (time nodes x modes) start v_mat, which
    it reads but does not modify."""
    basis = u0.basis
    if basis.dim != cfg.dim:
        raise ValueError(f"basis dim {basis.dim} != config dim {cfg.dim}")
    if basis.max_degree != cfg.N:
        raise ValueError(f"basis degree {basis.max_degree} != config N {cfg.N}")
    ws = _Workspace(cfg, basis)
    guard = BLOWUP_FACTOR * max(float(np.linalg.norm(u0.coeffs)), 1e-30)
    history: list[float] = []
    for _ in range(MAX_ITER):
        new_v = _apply_duhamel(ws, u0.coeffs, v_mat)
        norms = np.linalg.norm(new_v, axis=1)
        if norms.max() > guard:
            j = int(np.argmax(norms))
            raise DivergenceError(
                f"blow-up guard tripped at t={ws.times[j]:.6f} "
                f"(field norm {norms[j]:.3e} > {guard:.3e})",
                time_node=float(ws.times[j]),
                history=history,
            )
        update = ws.surrogate_norm(new_v - v_mat)
        history.append(update)
        v_mat = new_v
        if update <= TOL:
            return Trajectory(config=cfg, basis=basis, u0=u0.coeffs.copy(), v=v_mat, contraction_history=history)
    raise DivergenceError(
        f"no contraction after {MAX_ITER} iterations (last update {history[-1]:.3e})",
        history=history,
    )


def _median(xs) -> float:
    """np.median of a short list of floats, bit for bit, without the numpy.ma import it makes."""
    xs = sorted(xs)
    mid = len(xs) // 2
    return float(xs[mid]) if len(xs) % 2 else float((xs[mid - 1] + xs[mid]) / 2.0)


def contraction_factor(traj: Trajectory) -> float:
    """Median of successive update-norm ratios; < 1 inside the contraction ball."""
    h = traj.contraction_history
    if len(h) < 2:
        return 0.0
    ratios = [h[k + 1] / h[k] for k in range(len(h) - 1) if h[k] > 0]
    return _median(ratios) if ratios else 0.0


def geometric_fit_r2(traj: Trajectory) -> float:
    """R^2 of the log-linear fit to the update norms (geometric decay check)."""
    h = [x for x in traj.contraction_history if x > 0]
    if len(h) < 3:
        return 1.0
    y = np.log(h)
    x = np.arange(len(y), dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def residual(traj: Trajectory) -> float:
    """Max over interior nodes of || i u_t - H u - nonlinearity ||_{L^2}.

    The time derivative is a fourth-order five-point stencil; H acts
    spectrally; the nonlinearity is evaluated exactly as in the solver
    (Galerkin residual of the truncated system).
    """
    ws = _Workspace(traj.config, traj.basis)
    u_mat = traj.u_matrix()
    g_mat = ws.nonlinearity(u_mat)
    h = ws.h
    worst = 0.0
    for j in range(2, len(ws.times) - 2):
        du = (u_mat[j - 2] - 8.0 * u_mat[j - 1] + 8.0 * u_mat[j + 1] - u_mat[j + 2]) / (12.0 * h)
        r = 1j * du - traj.basis.lambda2 * u_mat[j] - g_mat[j]
        worst = max(worst, float(np.linalg.norm(r)))
    return worst


def mass_curve(traj: Trajectory) -> dict:
    """L^2 mass per node and its drift (max - min)."""
    masses = np.linalg.norm(traj.u_matrix(), axis=1)
    return {
        "times": traj.times.tolist(),
        "mass": masses.tolist(),
        "drift": float(masses.max() - masses.min()),
    }


def scattering_extract(traj: Trajectory, u0: SpectralField) -> ScatteringPair:
    """Asymptotic profiles of the lens-transported solution.

    L_plus = exp(iTH) v(T) equals the forward Duhamel integral
    int_0^T exp(isH) F(s) ds accumulated by the solver; likewise L_minus at
    -T.  The decay curve reports, at each external time t of SCATTERING_TIMES,

        || u_lens(t) - exp(it del^2) u0 - exp(it del^2) L_plus ||_{H^s},

    evaluated through the conjugation identity: the difference equals
    exp(it del^2) (exp(i s H) v(s) - L_plus) at s = arctan(2t)/2, and the
    free flow preserves the classical Sobolev norm, so the norm is computed
    on the spectral side and stays accurate at large t where a multiplier
    propagator would alias.  u0 must be the trajectory's initial data.
    """
    basis = traj.basis
    if u0.basis != basis or not np.array_equal(u0.coeffs, traj.u0):
        raise ValueError("u0 is not the initial data of the trajectory")
    cfg = traj.config
    t_end = float(traj.times[-1])
    lam2 = basis.lambda2
    lp = SpectralField(basis, np.exp(1j * t_end * lam2) * traj.v[-1])
    lm = SpectralField(basis, np.exp(-1j * t_end * lam2) * traj.v[0])
    curve = []
    for t in SCATTERING_TIMES:
        s_star = lens_time_map(t)
        d_coeffs = np.exp(1j * s_star * lam2) * traj.v_at_time(s_star)
        w = SpectralField(basis, d_coeffs - lp.coeffs)
        curve.append((float(t), classical_sobolev_norm(w, cfg.s)))
    return ScatteringPair(L_plus=lp, L_minus=lm, residual_curve=curve)


def global_nls_solution(traj: Trajectory, t: float) -> PhysicalFrame:
    """Lens image at external time t of the solved oscillator-frame trajectory."""
    s_star = lens_time_map(t)
    u_coeffs = np.exp(-1j * s_star * traj.basis.lambda2) * traj.u0 + traj.v_at_time(s_star)
    return lens_forward(SpectralField(traj.basis, u_coeffs), t)


# ---------------------------------------------------------------------------
# checkpointing


def save_trajectory(traj: Trajectory, path) -> None:
    np.savez(
        path,
        version=np.array([TRAJECTORY_VERSION]),
        config_json=np.array([json.dumps(asdict(traj.config), sort_keys=True)]),
        quad_per_axis=np.array([traj.basis.quad_per_axis]),
        u0=traj.u0,
        v=traj.v,
        contraction_history=np.array(traj.contraction_history),
    )


def load_trajectory(path) -> Trajectory:
    """The trajectory of a save_trajectory checkpoint; ValueError if the file is not a complete one of this version."""
    if not zipfile.is_zipfile(path):
        raise ValueError("not an npz archive")
    with np.load(path) as data:
        names = ("version", "config_json", "quad_per_axis", "u0", "v", "contraction_history")
        missing = [name for name in names if name not in data]
        if missing:
            raise ValueError(f"missing checkpoint arrays {missing}")
        version = int(data["version"][0])
        if version != TRAJECTORY_VERSION:
            raise ValueError(f"checkpoint version {version}, expected {TRAJECTORY_VERSION}")
        config = json.loads(str(data["config_json"][0]))
        known = {f.name for f in fields(SolverConfig)}  # every one an int
        if not (isinstance(config, dict) and config.keys() <= known and all(type(v) is int for v in config.values())):
            raise ValueError(f"checkpoint config {config!r} is not an object of integer SolverConfig fields")
        cfg = SolverConfig(**config)
        return Trajectory(
            config=cfg,
            basis=cached_basis(cfg.dim, cfg.N, int(data["quad_per_axis"][0])),
            u0=data["u0"],
            v=data["v"],
            contraction_history=list(data["contraction_history"]),
        )

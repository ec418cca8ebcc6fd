"""Picard fixed-point solver for the weighted harmonic Schrodinger equation

    i du/dt - H u = K cos(2t)^e |u|^{p-1} u,   u(0) = u0,   e = d(p-1)/2 - 2,

on a symmetric time window [-T, T], T <= pi/4, with p >= 5 odd and K = +-1.
Writing u = exp(-itH) u0 + v, the correction v is the fixed point of

    L(v)(t) = -i int_0^t exp(-i(t-s)H) cos(2s)^e K |u(s)|^{p-1} u(s) ds,

iterated on a uniform grid with spectral space handling (de-aliased
quadrature for the nonlinearity) and a fourth-order cumulative rule in time.
Also extracts scattering profiles of the lens-transported global solution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .fields import (
    SpectralField,
    classical_sobolev_norm,
    product_quadrature,
)
from .hermite import BasisGrid, cached_basis
from .lens import PhysicalFrame, lens_forward, lens_time_map

__all__ = [
    "SolverConfig",
    "Trajectory",
    "ScatteringPair",
    "DivergenceError",
    "picard_solve",
    "duhamel_apply",
    "residual",
    "mass_curve",
    "uniqueness_probe",
    "scattering_extract",
    "global_nls_solution",
    "save_trajectory",
    "load_trajectory",
]

TRAJECTORY_VERSION = 1

BLOWUP_FACTOR = 1e6


class DivergenceError(RuntimeError):
    """Fixed-point iteration left the contraction regime."""

    def __init__(self, message: str, time_node: float | None = None, history=None):
        super().__init__(message)
        self.time_node = time_node
        self.history = list(history or [])


@dataclass(frozen=True)
class SolverConfig:
    """Problem data for one fixed-point solve.

    s defaults to the midpoint of the admissible regularity window
    (d/2 - 2/(p-1), d/2); the cosine weight exponent d(p-1)/2 - 2 must be a
    non-negative integer, which pins p to odd values >= 5.
    """

    dim: int = 1
    nonlinearity_p: int = 5
    K: int = 1
    T: float = np.pi / 4
    N: int = 32
    time_nodes: int = 65
    tol: float = 1e-12
    max_iter: int = 25
    s: float | None = None
    nonlinear: bool = True

    def __post_init__(self):
        if self.nonlinearity_p < 5 or self.nonlinearity_p % 2 == 0:
            raise ValueError("nonlinearity_p must be odd >= 5")
        if self.K not in (-1, 1):
            raise ValueError(f"K must be -1 or +1, got {self.K}")
        if not 0 < self.T <= np.pi / 4 + 1e-12:
            raise ValueError(f"T must lie in (0, pi/4], got {self.T}")
        if self.time_nodes < 33 or self.time_nodes % 2 == 0:
            raise ValueError("time_nodes must be odd and >= 33")
        exponent = self.cos_exponent
        if exponent != int(exponent) or exponent < 0:
            raise ValueError(f"cosine weight exponent {exponent} must be a non-negative integer")
        if self.s is None:
            lo = self.dim / 2.0 - 2.0 / (self.nonlinearity_p - 1)
            hi = self.dim / 2.0
            object.__setattr__(self, "s", (max(lo, 0.0) + hi) / 2.0)

    @property
    def cos_exponent(self) -> int:
        return self.dim * (self.nonlinearity_p - 1) // 2 - 2

    def times(self) -> np.ndarray:
        mid = (self.time_nodes - 1) // 2
        # anchored at the middle node so t = 0 is exact
        return (np.arange(self.time_nodes) - mid) * (self.T / mid)

    def as_dict(self) -> dict:
        d = asdict(self)
        return d


@dataclass
class Trajectory:
    """Solved correction v on the time grid, plus the linear data to rebuild u."""

    config: SolverConfig
    basis: BasisGrid
    u0: np.ndarray            # initial coefficients
    times: np.ndarray
    v: np.ndarray             # (time_nodes, basis.size) fixed-point correction
    iterations: int
    contraction_history: list[float]
    converged: bool

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
    """Per-solve tables: de-aliased quadrature and audit synthesis."""

    def __init__(self, cfg: SolverConfig, basis: BasisGrid):
        self.cfg = cfg
        self.basis = basis
        p = cfg.nonlinearity_p
        self.nodes, self.weights, self.table = product_quadrature(basis, (p + 1) * basis.max_degree)
        self.project = (self.table * self.weights).T  # (n_nodes, size)
        self.times = cfg.times()
        self.h = float(self.times[1] - self.times[0])
        self.phases = np.exp(-1j * np.outer(self.times, basis.lambda2))
        self.cos_weight = np.cos(2.0 * self.times) ** cfg.cos_exponent
        self.audit = basis.audit_table()
        self.filter_s = basis.lambda2 ** (cfg.s / 2.0)

    def nonlinearity(self, u_mat: np.ndarray) -> np.ndarray:
        """K cos(2t)^e |u|^{p-1} u projected back onto the span, per time node."""
        vals = u_mat @ self.table
        p = self.cfg.nonlinearity_p
        nl = (np.abs(vals) ** (p - 1)) * vals
        out = nl @ self.project
        return self.cfg.K * self.cos_weight[:, None] * out

    def surrogate_norm(self, v_mat: np.ndarray) -> float:
        """Stopping norm: max of sup_t (harmonic H^s) and L^2_t (audit sup of H^{s/2} u).

        A computable surrogate for the intersection-space norm; dominates the
        admissible pairs used at desk scale.
        """
        hs = np.sqrt(np.sum(self.basis.lambda2[None, :] ** self.cfg.s * np.abs(v_mat) ** 2, axis=1))
        sup_part = float(hs.max())
        filtered = (v_mat * self.filter_s[None, :]) @ self.audit
        sups = np.abs(filtered).max(axis=1)
        w = np.full(len(self.times), self.h)
        w[0] = w[-1] = self.h / 2.0
        l2t_part = float(np.sqrt(np.sum(w * sups**2)))
        return max(sup_part, l2t_part)


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
    if not ws.cfg.nonlinear:
        return np.zeros_like(v_mat)
    g_mat = ws.nonlinearity(u_mat)
    integrand = np.conj(ws.phases) * g_mat          # e^{+isH} applied node-wise
    mid = (len(ws.times) - 1) // 2
    cumulative = _cumulative_from_zero(integrand, ws.h, mid)
    return -1j * ws.phases * cumulative


def duhamel_apply(v: Trajectory, u0: SpectralField, cfg: SolverConfig) -> Trajectory:
    """One application of the Duhamel map L to a trajectory (no iteration)."""
    ws = _Workspace(cfg, u0.basis)
    if v.v.shape != (cfg.time_nodes, u0.basis.size):
        raise ValueError("trajectory grid does not match the solver config")
    new_v = _apply_duhamel(ws, u0.coeffs, v.v)
    return Trajectory(
        config=cfg,
        basis=u0.basis,
        u0=u0.coeffs.copy(),
        times=ws.times,
        v=new_v,
        iterations=v.iterations + 1,
        contraction_history=list(v.contraction_history),
        converged=False,
    )


def empty_trajectory(u0: SpectralField, cfg: SolverConfig) -> Trajectory:
    return Trajectory(
        config=cfg,
        basis=u0.basis,
        u0=u0.coeffs.copy(),
        times=cfg.times(),
        v=np.zeros((cfg.time_nodes, u0.basis.size), dtype=complex),
        iterations=0,
        contraction_history=[],
        converged=False,
    )


def picard_solve(
    u0: SpectralField,
    cfg: SolverConfig,
    v_init: np.ndarray | None = None,
) -> Trajectory:
    """Iterate v <- L(v) to the fixed point.

    Stops when the update, measured in the surrogate intersection norm,
    falls below cfg.tol.  Raises DivergenceError when the blow-up guard
    trips (any field norm beyond 1e6 times the data) or max_iter is hit;
    the error carries the contraction history.
    """
    basis = u0.basis
    if basis.dim != cfg.dim:
        raise ValueError(f"basis dim {basis.dim} != config dim {cfg.dim}")
    if basis.max_degree != cfg.N:
        raise ValueError(f"basis degree {basis.max_degree} != config N {cfg.N}")
    ws = _Workspace(cfg, basis)
    v_mat = (
        np.zeros((cfg.time_nodes, basis.size), dtype=complex)
        if v_init is None
        else np.array(v_init, dtype=complex, copy=True)
    )
    guard = BLOWUP_FACTOR * max(float(np.linalg.norm(u0.coeffs)), 1e-30)
    history: list[float] = []
    for iteration in range(1, cfg.max_iter + 1):
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
        if update <= cfg.tol:
            return Trajectory(
                config=cfg,
                basis=basis,
                u0=u0.coeffs.copy(),
                times=ws.times,
                v=v_mat,
                iterations=iteration,
                contraction_history=history,
                converged=True,
            )
    raise DivergenceError(
        f"no contraction after {cfg.max_iter} iterations (last update {history[-1]:.3e})",
        history=history,
    )


def contraction_factor(traj: Trajectory) -> float:
    """Median of successive update-norm ratios; < 1 inside the contraction ball."""
    h = traj.contraction_history
    if len(h) < 2:
        return 0.0
    ratios = [h[k + 1] / h[k] for k in range(len(h) - 1) if h[k] > 0]
    return float(np.median(ratios)) if ratios else 0.0


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
    cfg = traj.config
    ws = _Workspace(cfg, traj.basis)
    u_mat = traj.u_matrix()
    g_mat = ws.nonlinearity(u_mat) if cfg.nonlinear else np.zeros_like(u_mat)
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


def uniqueness_probe(
    u0: SpectralField,
    cfg: SolverConfig,
    perturbation: SpectralField,
) -> dict:
    """Fixed-point uniqueness and the Gronwall-type differential inequality.

    Part one solves from v = 0 and from v = perturbation (inside the ball)
    and checks both initializations land on the same fixed point within
    10 tol.  Part two compares the solutions with data u0 and
    u0 + perturbation, whose gap is genuinely nonzero, and verifies
    |d/dt ||u_a - u_b||^2| <= 2 (p-1) (sup|u_a|^{p-1} + sup|u_b|^{p-1}) ||u_a - u_b||^2
    at the interior nodes (identical-data trajectories coincide to solver
    tolerance, which would leave the ratio undefined).
    """
    if perturbation.basis is not u0.basis and perturbation.basis.size != u0.basis.size:
        raise ValueError("perturbation must live on the data's basis")
    traj_a = picard_solve(u0, cfg)
    pert_stack = np.tile(perturbation.coeffs, (cfg.time_nodes, 1))
    traj_b = picard_solve(u0, cfg, v_init=pert_stack)
    gap = float(np.max(np.linalg.norm(traj_a.v - traj_b.v, axis=1)))

    shifted = SpectralField(u0.basis, u0.coeffs + perturbation.coeffs)
    traj_c = picard_solve(shifted, cfg)
    ua = traj_a.u_matrix()
    uc = traj_c.u_matrix()
    diff_sq = np.linalg.norm(ua - uc, axis=1) ** 2
    h = float(traj_a.times[1] - traj_a.times[0])
    audit = u0.basis.audit_table()
    sup_a = np.abs(ua @ audit).max(axis=1)
    sup_c = np.abs(uc @ audit).max(axis=1)
    p = cfg.nonlinearity_p
    ratios, bounds = [], []
    for j in range(1, cfg.time_nodes - 1):
        if diff_sq[j] <= (10 * cfg.tol) ** 2:
            continue
        ratios.append(abs(diff_sq[j + 1] - diff_sq[j - 1]) / (2 * h) / diff_sq[j])
        bounds.append(2.0 * (p - 1) * (sup_a[j] ** (p - 1) + sup_c[j] ** (p - 1)))
    ratios = np.asarray(ratios)
    bounds = np.asarray(bounds)
    # vacuously true when the perturbed data coincide with u0 (no usable gap)
    gronwall_ok = ratios.size == 0 or bool(np.all(ratios <= bounds * 1.1 + 1e-12))
    return {
        "fixed_point_gap": gap,
        "gap_tolerance": 10.0 * cfg.tol,
        "fixed_point_unique": gap <= 10.0 * cfg.tol,
        "gronwall_points": int(ratios.size),
        "gronwall_max_ratio": float(ratios.max()) if ratios.size else 0.0,
        "gronwall_min_bound": float(bounds.min()) if bounds.size else 0.0,
        "gronwall_ok": gronwall_ok,
        "iterations": [traj_a.iterations, traj_b.iterations, traj_c.iterations],
    }


def scattering_extract(
    traj: Trajectory,
    u0: SpectralField,
    external_times=(1.0, 5.0, 20.0),
) -> ScatteringPair:
    """Asymptotic profiles of the lens-transported solution.

    L_plus = exp(iTH) v(T) equals the forward Duhamel integral
    int_0^T exp(isH) F(s) ds accumulated by the solver; likewise L_minus at
    -T.  The decay curve reports, at each external time t,

        || u_lens(t) - exp(it del^2) u0 - exp(it del^2) L_plus ||_{H^s},

    evaluated through the conjugation identity: the difference equals
    exp(it del^2) (exp(i s H) v(s) - L_plus) at s = arctan(2t)/2, and the
    free flow preserves the classical Sobolev norm, so the norm is computed
    on the spectral side and stays accurate at large t where a multiplier
    propagator would alias.
    """
    if not traj.converged:
        raise ValueError("scattering extraction requires a converged trajectory")
    basis = traj.basis
    cfg = traj.config
    T = float(traj.times[-1])
    lam2 = basis.lambda2
    lp = SpectralField(basis, np.exp(1j * T * lam2) * traj.v[-1])
    lm = SpectralField(basis, np.exp(-1j * T * lam2) * traj.v[0])
    curve = []
    for t in external_times:
        s_star = lens_time_map(t)
        if s_star > T + 1e-12:
            raise ValueError(f"external time {t} maps beyond the solved window")
        d_coeffs = np.exp(1j * s_star * lam2) * traj.v_at_time(s_star)
        w = SpectralField(basis, d_coeffs - lp.coeffs)
        curve.append((float(t), classical_sobolev_norm(w, cfg.s)))
    return ScatteringPair(L_plus=lp, L_minus=lm, residual_curve=curve)


def global_nls_solution(traj: Trajectory, t: float) -> PhysicalFrame:
    """Lens image at external time t of the solved oscillator-frame trajectory."""
    s_star = lens_time_map(t)
    T = float(traj.times[-1])
    if abs(s_star) > T + 1e-12:
        raise ValueError(
            f"external time {t} maps to internal {s_star:.6f}, outside the solved window +-{T:.6f}"
        )
    u_coeffs = np.exp(-1j * s_star * traj.basis.lambda2) * traj.u0 + traj.v_at_time(s_star)
    return lens_forward(SpectralField(traj.basis, u_coeffs), t)


# ---------------------------------------------------------------------------
# checkpointing


def save_trajectory(traj: Trajectory, path) -> None:
    cfg = dict(traj.config.as_dict())
    np.savez(
        path,
        version=np.array([TRAJECTORY_VERSION]),
        config_json=np.array([json.dumps(cfg, sort_keys=True)]),
        quad_per_axis=np.array([traj.basis.quad_per_axis]),
        times=traj.times,
        v=traj.v,
        u0=traj.u0,
        iterations=np.array([traj.iterations]),
        contraction_history=np.array(traj.contraction_history),
        converged=np.array([traj.converged]),
    )


def load_trajectory(path) -> Trajectory:
    with np.load(path) as data:
        version = int(data["version"][0])
        if version != TRAJECTORY_VERSION:
            raise ValueError(f"trajectory checkpoint version {version} unsupported")
        cfg = SolverConfig(**json.loads(str(data["config_json"][0])))
        basis = cached_basis(cfg.dim, cfg.N, int(data["quad_per_axis"][0]))
        return Trajectory(
            config=cfg,
            basis=basis,
            u0=data["u0"],
            times=data["times"],
            v=data["v"],
            iterations=int(data["iterations"][0]),
            contraction_history=list(data["contraction_history"]),
            converged=bool(data["converged"][0]),
        )

"""Monte Carlo estimators and exact-combinatorial experiments on randomized
fields: tail exponents of the gain families, moment growth of random series,
norm tails, good-data probabilities, second-moment lower bounds, and
eigenfunction L^p decay.

Verdicts with a standard error and a 3 sigma margin: ``odd_moment_witness``,
``paley_zygmund_check`` and the Wilson intervals of ``good_set_probability``.
The others use fixed margins: ``verify_tail`` gamma_hat >= gamma - 0.15,
``khinchin_growth`` slope <= 1/m(gamma) + 0.15, ``chernoff_tail`` growth
<= 1/gamma + 0.1 (and fit R^2 >= 0.9, as in ``norm_tail``); ROADMAP item 4
calibrates them.  ``_fit_tail_exponent`` and ``_lq_growth`` are the one
tail-exponent and the one L^q growth fit.  The per-omega estimators
(``norm_tail``, ``good_set_probability``, ``paley_zygmund_check``) are
kernels on one tile of gain rows, which ``ensembles.map_gains`` draws once per
omega; the others fold the bulk stream with ``ensembles.fold_block``.
All measured norms are degree-1 homogeneous in the base field sample-wise:
scaling the base by a power of two scales each sample exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .ensembles import EnsembleSpec, fold_block, map_gains
from .fields import SpectralField, product_quadrature, trapezoid_weights
from .hermite import audit_axis, hermite_function_values

__all__ = [
    "verify_tail",
    "CutoffSpec",
    "concentration_exponent",
    "khinchin_growth",
    "count_23_cycle_permutations",
    "cycle_23_bound_constant",
    "odd_moment_witness",
    "admits_pair_triple_structure",
    "norm_tail",
    "good_set_probability",
    "paley_zygmund_check",
    "eigenfunction_lp_decay",
    "chernoff_tail",
    "wilson_interval",
]

def concentration_exponent(gamma: float, he1: bool) -> float:
    """Tail exponent m(gamma) for the good-set complement.

    Under the all-odd-moments hypothesis the low-gamma branch improves from
    3 gamma / (2 gamma + 3) to 2 gamma / (2 + gamma); above gamma = 1 only
    the mean-zero branch is available, saturating at 2.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    if gamma >= 2:
        return 2.0
    if gamma > 1:
        return float(gamma)
    return 2.0 * gamma / (2.0 + gamma) if he1 else 3.0 * gamma / (2.0 * gamma + 3.0)


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """3 sigma Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    z = 3.0
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(center - half, 0.0), min(center + half, 1.0))


# ---------------------------------------------------------------------------
# tail exponents of the gain families


def _fit_tail_exponent(rho: np.ndarray, survival: np.ndarray, n_samples: int) -> dict:
    """Weighted fit of log S = log C - k log rho - c rho^gamma over a gamma grid.

    The polynomial prefactor rho^{-k} is part of the model: without it the
    Gaussian-type tails read systematically low on any observable window.
    Points are weighted by the inverse variance of the log survival,
    approximately n S / (1 - S).
    """
    y = np.log(survival)
    w = n_samples * survival / (1.0 - np.clip(survival, 0.0, 1.0 - 1e-12))
    sw = np.sqrt(w)
    best = None
    for gamma in np.arange(0.2, 4.0001, 0.01):
        design = np.vstack([np.ones_like(rho), -np.log(rho), -(rho**gamma)]).T
        coef, *_ = np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)
        resid = (y - design @ coef) * sw
        sse = float(resid @ resid)
        if best is None or sse < best[0]:
            best = (sse, gamma, coef)
    _, gamma_hat, coef = best
    return {
        "gamma_hat": float(gamma_hat),
        "C_hat": float(np.exp(coef[0])),
        "k_hat": float(coef[1]),
        "c_hat": float(coef[2]),
    }


def verify_tail(spec: EnsembleSpec, n_samples: int, rho_grid, workers: int = 1) -> dict:
    """Fit the empirical tail against C rho^{-k} exp(-c rho^gamma), report gamma_hat.

    The verdict is one-sided (gamma_hat >= certified gamma - 0.15): the
    certificate is an upper tail bound, so heavier estimates fail, lighter
    ones do not.  Bounded families whose survival hits zero on the grid pass
    for every exponent.
    """
    rho_grid = np.asarray(rho_grid, dtype=float)
    if n_samples < 10**5:
        raise ValueError(f"verify_tail needs n_samples >= 1e5, got {n_samples}")
    if rho_grid.size < 2 or np.any(np.diff(rho_grid) <= 0):
        raise ValueError("rho_grid must be strictly increasing with >= 2 points")

    # per sample, the count of thresholds at or below |x|, in the narrowest type that holds it:
    # |x| >= rho_grid[k] exactly when that count exceeds k, so the survival counts are the float fold's
    count_type = np.min_scalar_type(rho_grid.size)

    def row_stat(rows):
        return np.searchsorted(rho_grid, np.abs(rows[:, 0]), side="right").astype(count_type)

    def partial(bins):
        return np.array([np.count_nonzero(bins > k) for k in range(rho_grid.size)])

    survival = fold_block([(spec, partial)], n_samples, 1, row_stat, workers)[0] / n_samples

    # keep points with at least 20 hits so the log survival is trustworthy
    usable = (survival >= 20.0 / n_samples) & (survival < 1)
    bounded_support = bool(survival[-1] == 0)
    if np.count_nonzero(usable) >= 4:
        fit = _fit_tail_exponent(rho_grid[usable], survival[usable], n_samples)
    elif bounded_support:
        fit = {"gamma_hat": float("inf")}
    else:
        raise ValueError("tail grid leaves fewer than 4 usable survival points")
    return {
        "family": spec.family,
        "gamma": spec.gamma,
        "bounded_support": bounded_support,
        "verdict": bool(bounded_support or fit["gamma_hat"] >= spec.gamma - 0.15),
        "survival": survival.tolist(),
        "rho_grid": rho_grid.tolist(),
        **fit,
    }


# ---------------------------------------------------------------------------
# moment growth of random series


def _lq_growth(q_grid: np.ndarray, means: np.ndarray) -> tuple[np.ndarray, float]:
    """The L^q norms means^(1/q) over q_grid and the slope of log norm against
    log q; the slope is 0 where the norms are flat or not all positive."""
    norms = means ** (1.0 / q_grid)
    if np.all(norms > 0) and np.ptp(np.log(norms)) > 1e-12:
        slope, _ = np.polyfit(np.log(q_grid), np.log(norms), 1)
    else:
        slope = 0.0
    return norms, float(slope)


def khinchin_growth(
    specs,
    coeffs,
    q_grid=(2, 4, 6, 8, 10, 12),
    n_samples: int = 10**6,
    workers: int = 1,
) -> list:
    """Empirical L^q(Omega) norms of sum_n c_n g_n and their growth exponent,
    one report per spec; the specs share one seed and one draw of the bulk stream.

    Fits log ||S||_q against log q and compares the slope with the upper
    bound 1 / m(gamma) from the concentration table (one-sided: the true
    growth is often slower, so only the upper bound is asserted).
    Fails explicitly when the largest-q moment is too noisy to trust.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if abs(np.linalg.norm(coeffs) - 1.0) > 1e-8:
        raise ValueError("coefficients must be l2-normalized")
    q_grid = np.asarray(sorted(q_grid), dtype=int)
    if q_grid.size == 0 or q_grid[0] < 2 or q_grid[-1] > 24 or np.any(q_grid % 2):
        raise ValueError(f"q_grid must be a non-empty set of even integers inside [2, 24], got {q_grid.tolist()}")

    def partial(s):
        part = np.zeros((q_grid.size, 2))
        for i, q in enumerate(q_grid):
            p = s**q
            part[i] = p.sum(), (p * p).sum()
        return part

    folds = fold_block(
        [(spec, partial) for spec in specs], n_samples, coeffs.size, lambda rows: np.abs(rows @ coeffs), workers
    )
    reports = []
    for spec, fold in zip(specs, folds):
        sums, sums_sq = fold.T
        means = sums / n_samples
        variances = np.maximum(sums_sq / n_samples - means**2, 0.0)
        rel_se = np.sqrt(variances / n_samples) / np.where(means > 0, means, 1.0)
        if rel_se[-1] > 0.10:
            raise ValueError(
                f"moment estimate unstable at q={q_grid[-1]}: relative standard error "
                f"{rel_se[-1]:.3f} > 0.10; widen n_samples or shrink the grid"
            )
        norms, slope = _lq_growth(q_grid, means)
        m_gamma = concentration_exponent(spec.gamma, spec.satisfies_HE1)
        bound = 1.0 / m_gamma + 0.15
        reports.append({
            "family": spec.family,
            "gamma": spec.gamma,
            "hypothesis_branch": "HE1" if spec.satisfies_HE1 else "HE2",
            "m_gamma": m_gamma,
            "q_grid": q_grid.tolist(),
            "lq_norms": norms.tolist(),
            "rel_std_errors": rel_se.tolist(),
            "fitted_exponent": slope,
            "exponent_bound": bound,
            "verdict": bool(slope <= bound),
            "n_samples": n_samples,
        })
    return reports


# ---------------------------------------------------------------------------
# fixed-point-free permutations with 2- and 3-cycles only


def count_23_cycle_permutations(p: int, method: str = "closed_form") -> int:
    """Number of fixed-point-free permutations of 2p symbols whose disjoint
    cycles all have length 2 or 3.

    closed_form sums over cycle types (a 2-cycles, b 3-cycles, 2a + 3b = 2p)
    the count (2p)! / (a! 2^a b! 3^b); brute_force filters the symmetric
    group directly and is limited to 2p <= 10.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    n = 2 * p
    if method == "closed_form":
        if n > 60:
            raise ValueError("closed form supported for 2p <= 60")
        total = 0
        for b in range(n // 3 + 1):
            rem = n - 3 * b
            if rem % 2:
                continue
            a = rem // 2
            total += factorial(n) // (factorial(a) * 2**a * factorial(b) * 3**b)
        return total
    if method == "brute_force":
        if n > 10:
            raise ValueError("brute force supported for 2p <= 10")
        # S_{n-1} by insertion, as int8: the rest of one block, keyed by the image j != 0 of 0
        rest = np.zeros((1, 0), np.int8)
        for k in range(n - 1):
            rest = np.concatenate([np.insert(rest, pos, k, axis=1) for pos in range(k + 1)])
        ident = np.arange(n, dtype=np.int8)
        count = 0
        for j in range(1, n):
            perm = np.concatenate([np.full((len(rest), 1), j, np.int8), np.delete(ident, j)[rest]], axis=1)
            twice = np.take_along_axis(perm, perm, axis=1)
            thrice = np.take_along_axis(perm, twice, axis=1)
            # no fixed point, and every cycle length divides 2 or 3
            count += int(((perm != ident) & ((twice == ident) | (thrice == ident))).all(axis=1).sum())
        return count
    raise ValueError(f"unknown method {method!r}")


def cycle_23_bound_constant(p_max: int = 12) -> dict:
    """Smallest C with count(2p) <= (C p)^{4p/3} over p = 1 .. p_max."""
    rows = []
    c_needed = 0.0
    for p in range(1, p_max + 1):
        card = count_23_cycle_permutations(p)
        c_p = card ** (3.0 / (4.0 * p)) / p
        c_needed = max(c_needed, c_p)
        rows.append({"p": p, "count": card, "c_p": c_p})
    return {"fitted_C": c_needed, "rows": rows}


def admits_pair_triple_structure(indices) -> bool:
    """True when some fixed-point-free 2/3-cycle permutation preserves the
    index labels, i.e. every distinct index occurs with multiplicity >= 2."""
    counts: dict = {}
    for i in indices:
        counts[i] = counts.get(i, 0) + 1
    return all(m >= 2 for m in counts.values())


def odd_moment_witness(spec: EnsembleSpec, indices, n_samples: int = 10**5) -> dict:
    """Estimate E(X_{n_1} ... X_{n_k}) for an index tuple of length 3, 4 or 6.

    For mean-zero families the product moment can only be nonzero when the
    index multiset carries a pair/triple structure; the centered two-point
    family realizes a genuinely nonzero triple (n, n, n), showing the
    3-cycles are needed when only the mean vanishes.
    """
    indices = tuple(int(i) for i in indices)
    if len(indices) not in (3, 4, 6):
        raise ValueError(f"tuple length must be 3, 4 or 6, got {len(indices)}")

    def partial(prod):
        return np.array([prod.sum(), (prod * prod).sum()])

    columns = list(indices)
    total, total_sq = fold_block(
        [(spec, partial)], n_samples, max(indices) + 1, lambda rows: np.prod(rows[:, columns], axis=1)
    )[0]
    mean = total / n_samples
    var = max(total_sq / n_samples - mean**2, 0.0)
    se = float(np.sqrt(var / n_samples))
    admits = admits_pair_triple_structure(indices)
    # one-directional: no structure forces a vanishing moment
    verdict = True if admits else abs(mean) <= 3.0 * se
    return {
        "family": spec.family,
        "indices": list(indices),
        "estimate": float(mean),
        "std_error": se,
        "admits_structure": admits,
        "verdict": bool(verdict),
        "n_samples": n_samples,
    }


# ---------------------------------------------------------------------------
# field-level tail experiments


def _data_norm_weights(base: SpectralField) -> np.ndarray:
    """lambda_n^{(d-1)/2} |c_n| entering the harmonic-Sobolev norm of a draw."""
    d = base.basis.dim
    return base.basis.lambda2 ** ((d - 1) / 4.0) * np.abs(base.coeffs)


def _data_norm_samples(base: SpectralField, gains: np.ndarray) -> np.ndarray:
    """|| sum c_n g_n h_n || in harmonic regularity (d-1)/2, one value per gain row."""
    return np.sqrt(((gains * _data_norm_weights(base)[None, :]) ** 2).sum(axis=1))


def _survival_fit(grid, survival, scale: float, gamma: float, empty_message: str):
    """Least-squares line log S = intercept + slope (grid / scale)^gamma over
    the window where the survival S lies in [1e-3, 0.3], which needs at least
    3 points.  Returns (slope, intercept, R^2, number of window points)."""
    window = (survival >= 1e-3) & (survival <= 0.3)
    if np.count_nonzero(window) < 3:
        raise ValueError(empty_message)
    x = (grid[window] / scale) ** gamma
    y = np.log(survival[window])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, r2, int(np.count_nonzero(window))


def norm_tail(
    base: SpectralField,
    spec: EnsembleSpec,
    t_grid,
    n_samples: int = 10**4,
    workers: int = 1,
) -> dict:
    """Empirical survival of the randomized data norm, fitted against
    exp(-c (t / ||base||)^gamma) on the window where survival is in
    [1e-3, 0.3]."""
    if base.l2_norm == 0:
        raise ValueError("base field must be nonzero")
    if n_samples < 10**4:
        raise ValueError(f"norm_tail needs n_samples >= 1e4, got {n_samples}")
    t_grid = np.asarray(t_grid, dtype=float)
    samples = map_gains(spec, n_samples, base.basis.size, lambda gains: _data_norm_samples(base, gains), workers)
    survival = (samples[None, :] >= t_grid[:, None]).mean(axis=1)

    base_norm = float(np.sqrt(np.sum(_data_norm_weights(base) ** 2)))
    if np.ptp(samples) <= 1e-12 * max(samples.max(), 1.0):
        # deterministic norm (unit-modulus gains): survival is a step
        return {
            "family": spec.family,
            "deterministic": True,
            "step_at": float(samples[0]),
            "t_grid": t_grid.tolist(),
            "survival": survival.tolist(),
            "verdict": True,
            "n_samples": n_samples,
        }
    slope, intercept, r2, fit_points = _survival_fit(
        t_grid, survival, base_norm, spec.gamma, "empty survival fit window [1e-3, 0.3]; adjust t_grid"
    )
    return {
        "family": spec.family,
        "deterministic": False,
        "gamma": spec.gamma,
        "base_norm": base_norm,
        "c_hat": float(-slope),
        "C_hat": float(np.exp(intercept)),
        "fit_r2": float(r2),
        "fit_points": fit_points,
        "t_grid": t_grid.tolist(),
        "survival": survival.tolist(),
        "verdict": bool(r2 >= 0.9 and slope < 0),
        "n_samples": n_samples,
    }


FLOW_TIME_NODES = 33  # trapezoid nodes of a draw's linear flow over [-2 pi, 2 pi]
FLOW_SUP_REGULARITY = 1.0 / 7.0  # s of the H^{s/2} filter under the flow's audit-grid sup


def flow_sup_norm_samples(base: SpectralField, gains: np.ndarray, q_time: float) -> np.ndarray:
    """L^{q_time}-in-time norm over [-2 pi, 2 pi] of the audit-grid sup of the
    H^{s/2}-filtered linear flow of each draw sum_n c_n g_n h_n, one value
    per gain row.

    The sup norm is an audit-grid proxy (its density is part of the config);
    the time integral is a trapezoid over FLOW_TIME_NODES nodes.  The per-sample
    evaluation is factored so that scaling the base by a power of two scales
    every sample exactly.

    The sup is periodic in time with period pi: every eigenvalue lambda^2 =
    2|n| + d has the parity of d, so e^{-i(t + pi)H} = e^{-i pi d} e^{-itH} and
    |u(t + pi, x)| = |u(t, x)|.  A period spans (FLOW_TIME_NODES - 1) // 4 node
    steps (8 steps of pi / 8), so only that many sups are evaluated; every
    other node reuses the sup of the node a whole number of periods before
    it, and the result is still the FLOW_TIME_NODES-node trapezoid.
    """
    basis = base.basis
    filt = basis.lambda2 ** (FLOW_SUP_REGULARITY / 2.0)
    times = np.linspace(-2 * np.pi, 2 * np.pi, FLOW_TIME_NODES)
    tw = trapezoid_weights(FLOW_TIME_NODES, float(times[1] - times[0]))
    period = (FLOW_TIME_NODES - 1) // 4  # nodes per time pi
    phases = np.exp(-1j * np.outer(times[:period], basis.lambda2))

    draws = (gains * base.coeffs[None, :]) * filt[None, :]  # (n, size)
    one = np.empty((period, len(gains)))
    for k in range(period):
        one[k] = basis.audit_sup(draws * phases[k][None, :])
    sups = one[np.arange(FLOW_TIME_NODES) % period]
    vmax = sups.max(axis=0)
    safe = np.where(vmax > 0, vmax, 1.0)
    ratio_int = np.sum(tw[:, None] * (sups / safe[None, :]) ** q_time, axis=0)
    return vmax * ratio_int ** (1.0 / q_time)


def good_set_probability(
    base: SpectralField, spec: EnsembleSpec, thresholds, n_samples: int = 10**4, workers: int = 1
) -> dict:
    """Empirical probability that a randomized draw lies in the good-data set
    (both the data norm and the space-time flow norm below the threshold).
    The flow norm is L^10 in time, L^{2p} for the quintic p = 5.  Both norms
    of an omega come from one draw of its gains.

    Reports the two-term split, Wilson intervals, and the raw per-sample
    norms so homogeneity and monotonicity can be asserted exactly.
    """
    if n_samples < 10**3:
        raise ValueError("tail experiments need n_samples >= 1e3")
    thresholds = np.asarray(thresholds, dtype=float)
    if thresholds.size < 1 or np.any(np.diff(thresholds) <= 0):
        raise ValueError("thresholds must be strictly increasing")

    def kernel(gains):
        return np.stack([_data_norm_samples(base, gains), flow_sup_norm_samples(base, gains, 10.0)])

    a, b = map_gains(spec, n_samples, base.basis.size, kernel, workers)
    rows = []
    for t in thresholds:
        inside = int(np.count_nonzero((a <= t) & (b <= t)))
        lo, hi = wilson_interval(inside, n_samples)
        rows.append(
            {
                "t": float(t),
                "p_hat": inside / n_samples,
                "wilson_lo": lo,
                "wilson_hi": hi,
                "p_data_norm_exceeds": float(np.mean(a > t)),
                "p_flow_norm_exceeds": float(np.mean(b > t)),
            }
        )
    p_hats = [r["p_hat"] for r in rows]
    return {
        "family": spec.family,
        "thresholds": thresholds.tolist(),
        "rows": rows,
        "monotone": bool(np.all(np.diff(p_hats) >= 0)),
        "n_samples": n_samples,
        "data_norm_samples": a,
        "flow_norm_samples": b,
    }


# ---------------------------------------------------------------------------
# spectral cutoff and the second-moment lower bound


def _smoothstep7(y: np.ndarray) -> np.ndarray:
    return 35.0 * y**4 - 84.0 * y**5 + 70.0 * y**6 - 20.0 * y**7


@dataclass(frozen=True)
class CutoffSpec:
    """Smooth even cutoff chi (degree-7 smoothstep realization): chi = 1 on
    [0, 1], 0 beyond 2, monotone in between, together with the dyadic scale
    N and the regularity s of the filtered norm."""

    N: int
    s: float

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("dyadic scale N must be >= 1")
        if self.s < 0:
            raise ValueError("regularity s must be >= 0")

    @staticmethod
    def chi(r) -> np.ndarray:
        r = np.abs(np.asarray(r, dtype=float))
        out = np.ones_like(r)
        mid = (r > 1.0) & (r < 2.0)
        out[mid] = 1.0 - _smoothstep7(r[mid] - 1.0)
        out[r >= 2.0] = 0.0
        return out

    def filter_values(self, basis) -> np.ndarray:
        return self.chi(basis.lambda2 / self.N**2)


def paley_zygmund_check(
    base: SpectralField,
    spec: EnsembleSpec,
    cutoff: CutoffSpec,
    n_samples: int = 10**4,
    workers: int = 1,
) -> dict:
    """Second-moment lower bound for the filtered randomized Sobolev mass.

    With S^2 the squared classical H^s norm of the chi(H/N^2)-filtered draw,
    checks empirically  P(S^2 >= E[S^2]/2) >= E[S^2]^2 / (4 E[S^4]) - 3 sigma.
    Also reports the exact filtered coefficient mass sigma_N^2.
    """
    basis = base.basis
    chi_vals = cutoff.filter_values(basis)
    sigma_sq = float(np.sum(chi_vals**2 * np.abs(base.coeffs) ** 2 * basis.lambda2**cutoff.s))
    if sigma_sq == 0:
        raise ValueError("sigma_N vanishes: cutoff removes the whole base field")

    radius2, weights, table = product_quadrature(basis, 2 * basis.max_degree)
    xi_pow = radius2**cutoff.s
    fourier_phase = (-1j) ** basis.degrees

    def kernel(gains):
        filtered = gains * (chi_vals * base.coeffs)[None, :]
        l2_sq = np.sum(np.abs(filtered) ** 2, axis=1)
        frac_sq = 0.0
        if cutoff.s != 0:
            hat_vals = basis.grid_values(filtered * fourier_phase[None, :], table)
            frac_sq = np.sum(weights[None, :] * xi_pow[None, :] * np.abs(hat_vals) ** 2, axis=1)
        return l2_sq + frac_sq

    s_sq = map_gains(spec, n_samples, basis.size, kernel, workers)

    m2 = float(np.mean(s_sq))
    m4 = float(np.mean(s_sq**2))
    lhs = float(np.mean(s_sq >= 0.5 * m2))
    rhs = m2**2 / (4.0 * m4)
    se_lhs = np.sqrt(lhs * (1 - lhs) / n_samples)
    se_m2 = np.std(s_sq) / np.sqrt(n_samples)
    se_m4 = np.std(s_sq**2) / np.sqrt(n_samples)
    se_rhs = abs(2 * m2 / (4 * m4)) * se_m2 + abs(m2**2 / (4 * m4**2)) * se_m4
    margin = 3.0 * (se_lhs + se_rhs)
    return {
        "family": spec.family,
        "scale_N": cutoff.N,
        "s": cutoff.s,
        "sigma_sq_exact": sigma_sq,
        "mean_S2": m2,
        "mean_S4": m4,
        "lhs_probability": lhs,
        "rhs_bound": rhs,
        "margin_3sigma": float(margin),
        "verdict": bool(lhs >= rhs - margin),
        "n_samples": n_samples,
    }


# ---------------------------------------------------------------------------
# eigenfunction L^p decay


def eigenfunction_lp_decay(p_exps, n_max: int) -> list[dict]:
    """Audit-grid L^p norms of the 1-D eigenfunctions against the expected decay, one report per exponent.

    For each p in ``p_exps`` (in that order) the normalized sequence
    ||h_n||_p lambda_n^{1/6} must stay within twice its value at n = 10 and
    show no increasing trend.  Every exponent is read off one |h_n| table:
    the p = inf max first, then the finite powers, the last of them raised
    in the table itself.
    """
    p_exps = [float(p) for p in p_exps]
    if not p_exps or min(p_exps) < 4:
        raise ValueError(f"p exponents must be >= 4, got {p_exps}")
    if not 11 <= n_max <= 400:  # the window n = 10..n_max needs two points for a rank correlation
        raise ValueError(f"n_max must lie in [11, 400], got {n_max}")
    axis = audit_axis(n_max, 1)
    table = hermite_function_values(n_max, axis)
    cell = float(axis[1] - axis[0])
    np.abs(table, out=table)  # the table is this call's own: |h_n| and its last power overwrite it
    norms = {p: table.max(axis=1) for p in p_exps if np.isinf(p)}
    finite = [p for p in p_exps if not np.isinf(p)]
    for i, p in enumerate(finite):
        power = np.power(table, p, out=table if i == len(finite) - 1 else None)
        norms[p] = (cell * np.sum(power, axis=1)) ** (1.0 / p)
    lam = np.sqrt(2.0 * np.arange(n_max + 1) + 1.0)
    return [_lp_decay_report(p, n_max, norms[p] * lam ** (1.0 / 6.0)) for p in p_exps]


def _lp_decay_report(p_exp: float, n_max: int, ratio: np.ndarray) -> dict:
    lo = 10
    window = ratio[lo : n_max + 1]
    # Spearman's rho: the ranks of n are 0, 1, ...; the window has no ties
    rho = float(np.corrcoef(np.arange(window.size), np.argsort(np.argsort(window)))[0, 1])
    return {
        "dim": 1,
        "p": p_exp,
        "n_max": n_max,
        "ratio_at_10": float(ratio[lo]),
        "ratio_max": float(window.max()),
        "bounded": bool(window.max() <= 2.0 * ratio[lo]),
        "spearman_rho": rho,
        "no_increasing_trend": bool(rho <= 0.0),
        "ratios": ratio.tolist(),
        "verdict": bool(window.max() <= 2.0 * ratio[lo] and rho <= 0.0),
    }


# ---------------------------------------------------------------------------
# sub-gamma Chernoff diagnostics


def chernoff_tail(
    families,
    coeffs,
    n_samples: int = 10**6,
    workers: int = 1,
) -> list:
    """Three-part check for mean-zero families with gamma in (1, 2], one report
    per (spec, rho_grid) pair of ``families``; the specs share one seed and one
    draw of the bulk stream:

    (i) the empirical moment generating function at 21 points of [-1, 1]
    sits under exp(c_hat t^2) with a stable fitted c_hat;
    (ii) the tail of S = sum c_n g_n fits C_hat exp(-c_hat (rho/||c||)^gamma)
    with R^2 >= 0.9 on the survival window [1e-3, 0.3];
    (iii) the L^q growth exponent of S over q = 2, 4, ..., 10 stays below
    1/gamma + 0.1.
    """
    for spec, _ in families:
        if not 1.0 < spec.gamma <= 2.0:
            raise ValueError(f"chernoff_tail needs gamma in (1, 2], got {spec.gamma}")
    families = [(spec, np.asarray(rho_grid, dtype=float)) for spec, rho_grid in families]
    coeffs = np.asarray(coeffs, dtype=float)
    cnorm = float(np.linalg.norm(coeffs))
    t_grid = np.linspace(-1.0, 1.0, 21)
    q_grid = np.array([2, 4, 6, 8, 10])

    def row_stat(rows):
        return np.stack([np.abs(rows @ coeffs), rows[:, 0]])

    def partial_over(rho_grid):
        def partial(stats):
            # one t at a time into one buffer: the rows of exp(outer(t_grid, g0)).sum(axis=1), bit for bit
            s, g0 = stats
            buf = np.empty_like(g0)
            return np.concatenate([
                [np.exp(np.multiply(t, g0, out=buf), out=buf).sum() for t in t_grid],
                [np.count_nonzero(s >= r) for r in rho_grid],
                [(s**q).sum() for q in q_grid],
            ])

        return partial

    folds = fold_block(
        [(spec, partial_over(rho_grid)) for spec, rho_grid in families], n_samples, coeffs.size, row_stat, workers
    )
    reports = []
    for (spec, rho_grid), fold in zip(families, folds):
        sums = fold / n_samples
        mgf, survival, qsums = np.split(sums, [t_grid.size, t_grid.size + rho_grid.size])

        # (i) quadratic MGF envelope
        away = np.abs(t_grid) >= 0.25
        c_hat_mgf = float(np.max(np.log(mgf[away]) / t_grid[away] ** 2))
        mgf_ok = np.all(np.isfinite(mgf)) and c_hat_mgf < 10.0

        # (ii) tail fit in the survival window, plus a free-exponent cross-check
        slope, intercept, r2, _ = _survival_fit(
            rho_grid, survival, cnorm, spec.gamma, "empty tail fit window; adjust rho_grid"
        )
        tail_ok = r2 >= 0.9 and slope < 0
        free_window = survival >= 20.0 / n_samples
        free_fit = _fit_tail_exponent(
            rho_grid[free_window] / cnorm, survival[free_window], n_samples
        )

        # (iii) moment growth
        _, growth = _lq_growth(q_grid, qsums)
        growth_ok = growth <= 1.0 / spec.gamma + 0.1

        reports.append({
            "family": spec.family,
            "gamma": spec.gamma,
            "mgf_c_hat": c_hat_mgf,
            "mgf_ok": bool(mgf_ok),
            "tail_c_hat": float(-slope),
            "tail_C_hat": float(np.exp(intercept)),
            "tail_r2": float(r2),
            "tail_gamma_hat": free_fit["gamma_hat"],
            "tail_ok": bool(tail_ok),
            "growth_exponent": growth,
            "growth_bound": 1.0 / spec.gamma + 0.1,
            "growth_ok": bool(growth_ok),
            "verdict": bool(mgf_ok and tail_ok and growth_ok),
            "n_samples": n_samples,
        })
    return reports

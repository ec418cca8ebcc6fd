"""Monte Carlo and exact-combinatorial experiments on randomized fields:
moment growth of random series, norm tails, good-data probabilities,
second-moment lower bounds, and eigenfunction L^p decay.

Every Monte Carlo verdict carries a standard error and uses a 3 sigma margin.
All measured norms are degree-1 homogeneous in the base field sample-wise:
scaling the base by a power of two scales each sample exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .ensembles import EnsembleSpec, _fit_tail_exponent, sample_block, sample_gain_matrix
from .fields import SpectralField, product_quadrature
from .mc import run_chunked
from .hermite import audit_axis, hermite_function_values

__all__ = [
    "CutoffSpec",
    "TailExperiment",
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


def wilson_interval(successes: int, n: int, z: float = 3.0) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 3 sigma)."""
    if n <= 0:
        raise ValueError("n must be positive")
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(center - half, 0.0), min(center + half, 1.0))


# ---------------------------------------------------------------------------
# moment growth of random series


def khinchin_growth(
    spec: EnsembleSpec,
    coeffs,
    q_grid=(2, 4, 6, 8, 10, 12),
    n_samples: int = 10**6,
) -> dict:
    """Empirical L^q(Omega) norms of sum_n c_n g_n and their growth exponent.

    Fits log ||S||_q against log q and compares the slope with the upper
    bound 1 / m(gamma) from the concentration table (one-sided: the true
    growth is often slower, so only the upper bound is asserted).
    Fails explicitly when the largest-q moment is too noisy to trust.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if abs(np.linalg.norm(coeffs) - 1.0) > 1e-8:
        raise ValueError("coefficients must be l2-normalized")
    q_grid = np.asarray(sorted(q_grid), dtype=int)
    if q_grid[0] < 2 or q_grid[-1] > 24 or np.any(q_grid % 2):
        raise ValueError("q_grid must be even integers inside [2, 24]")

    sums = np.zeros(q_grid.size)
    sums_sq = np.zeros(q_grid.size)
    for chunk in sample_block(spec, n_samples, width=coeffs.size):
        s = np.abs(chunk.reshape(-1, coeffs.size) @ coeffs)
        for i, q in enumerate(q_grid):
            p = s**q
            sums[i] += p.sum()
            sums_sq[i] += (p * p).sum()
    means = sums / n_samples
    variances = np.maximum(sums_sq / n_samples - means**2, 0.0)
    rel_se = np.sqrt(variances / n_samples) / np.where(means > 0, means, 1.0)
    if rel_se[-1] > 0.10:
        raise ValueError(
            f"moment estimate unstable at q={q_grid[-1]}: relative standard error "
            f"{rel_se[-1]:.3f} > 0.10; widen n_samples or shrink the grid"
        )
    norms = means ** (1.0 / q_grid)

    if np.all(norms > 0) and np.ptp(np.log(norms)) > 1e-12:
        slope, _ = np.polyfit(np.log(q_grid), np.log(norms), 1)
    else:
        slope = 0.0
    m_gamma = concentration_exponent(spec.gamma, spec.satisfies_HE1)
    bound = 1.0 / m_gamma + 0.15
    return {
        "family": spec.family,
        "gamma": spec.gamma,
        "hypothesis_branch": "HE1" if spec.satisfies_HE1 else "HE2",
        "m_gamma": m_gamma,
        "q_grid": q_grid.tolist(),
        "lq_norms": norms.tolist(),
        "rel_std_errors": rel_se.tolist(),
        "fitted_exponent": float(slope),
        "exponent_bound": bound,
        "verdict": bool(slope <= bound),
        "n_samples": n_samples,
    }


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
        count = 0
        for perm in itertools.permutations(range(n)):
            if any(perm[i] == i for i in range(n)):
                continue
            seen = [False] * n
            ok = True
            for i in range(n):
                if seen[i]:
                    continue
                length = 0
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    length += 1
                if length not in (2, 3):
                    ok = False
                    break
            count += ok
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
    width = max(indices) + 1
    total = 0.0
    total_sq = 0.0
    for chunk in sample_block(spec, n_samples, width=width):
        prod = np.prod(chunk.reshape(-1, width)[:, list(indices)], axis=1)
        total += prod.sum()
        total_sq += (prod * prod).sum()
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


def _data_norm_samples(
    base: SpectralField, spec: EnsembleSpec, omega_ids, workers: int = 1
) -> np.ndarray:
    """|| sum c_n g_n h_n || in harmonic regularity (d-1)/2, one value per omega."""
    w = _data_norm_weights(base)
    omega_ids = np.asarray(omega_ids)
    out = np.empty(len(omega_ids))

    def kernel(a, b):
        gains = sample_gain_matrix(spec, omega_ids[a:b], base.basis.size)
        out[a:b] = np.sqrt(((gains * w[None, :]) ** 2).sum(axis=1))

    run_chunked(len(omega_ids), kernel, workers=workers)
    return out


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
    samples = _data_norm_samples(base, spec, np.arange(n_samples), workers=workers)
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
    window = (survival >= 1e-3) & (survival <= 0.3)
    if np.count_nonzero(window) < 3:
        raise ValueError("empty survival fit window [1e-3, 0.3]; adjust t_grid")
    x = (t_grid[window] / base_norm) ** spec.gamma
    y = np.log(survival[window])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {
        "family": spec.family,
        "deterministic": False,
        "gamma": spec.gamma,
        "base_norm": base_norm,
        "c_hat": float(-slope),
        "C_hat": float(np.exp(intercept)),
        "fit_r2": float(r2),
        "fit_points": int(np.count_nonzero(window)),
        "t_grid": t_grid.tolist(),
        "survival": survival.tolist(),
        "verdict": bool(r2 >= 0.9 and slope < 0),
        "n_samples": n_samples,
    }


@dataclass(frozen=True)
class TailExperiment:
    """Setup for good-set membership sampling: which base, which ensemble,
    which thresholds, and how finely to resolve the linear flow in time."""

    base: SpectralField
    ensemble: EnsembleSpec
    thresholds: tuple
    n_samples: int = 10**4
    time_nodes: int = 33
    sup_regularity: float = 1.0 / 7.0

    def __post_init__(self):
        if self.n_samples < 10**3:
            raise ValueError("tail experiments need n_samples >= 1e3")
        if self.time_nodes < 16:
            raise ValueError("time_nodes must be >= 16")
        th = np.asarray(self.thresholds, dtype=float)
        if th.size < 1 or np.any(np.diff(th) <= 0):
            raise ValueError("thresholds must be strictly increasing")


def flow_sup_norm_samples(exp: TailExperiment, q_time: float, workers: int = 1) -> np.ndarray:
    """L^{q_time}-in-time norm over [-2 pi, 2 pi] of the audit-grid sup of the
    H^{s/2}-filtered linear flow of each randomized draw.

    The sup norm is an audit-grid proxy (its density is part of the config);
    the time integral is a trapezoid over time_nodes nodes.  The per-sample
    evaluation is factored so that scaling the base by a power of two scales
    every sample exactly.
    """
    base, spec = exp.base, exp.ensemble
    basis = base.basis
    table = basis.audit_table()  # (size, n_audit)
    filt = basis.lambda2 ** (exp.sup_regularity / 2.0)
    times = np.linspace(-2 * np.pi, 2 * np.pi, exp.time_nodes)
    step = float(times[1] - times[0])
    tw = np.full(exp.time_nodes, step)
    tw[0] = tw[-1] = step / 2.0
    phases = np.exp(-1j * np.outer(times, basis.lambda2))

    out = np.empty(exp.n_samples)

    def kernel(a, b):
        gains = sample_gain_matrix(spec, np.arange(a, b), basis.size)
        draws = (gains * base.coeffs[None, :]) * filt[None, :]  # (n, size)
        sups = np.empty((exp.time_nodes, b - a))
        for k in range(exp.time_nodes):
            vals = (draws * phases[k][None, :]) @ table
            sups[k] = np.abs(vals).max(axis=1)
        vmax = sups.max(axis=0)
        safe = np.where(vmax > 0, vmax, 1.0)
        ratio_int = np.sum(tw[:, None] * (sups / safe[None, :]) ** q_time, axis=0)
        out[a:b] = vmax * ratio_int ** (1.0 / q_time)

    run_chunked(exp.n_samples, kernel, workers=workers)
    return out


def good_set_probability(exp: TailExperiment, p_nl: int = 5, workers: int = 1) -> dict:
    """Empirical probability that a randomized draw lies in the good-data set
    (both the data norm and the space-time flow norm below the threshold).

    Reports the two-term split, Wilson intervals, and the raw per-sample
    norms so homogeneity and monotonicity can be asserted exactly.
    """
    if p_nl < 5 or p_nl % 2 == 0:
        raise ValueError("p_nl must be odd >= 5")
    omega_ids = np.arange(exp.n_samples)
    a = _data_norm_samples(exp.base, exp.ensemble, omega_ids, workers=workers)
    b = flow_sup_norm_samples(exp, q_time=2.0 * p_nl, workers=workers)
    thresholds = np.asarray(exp.thresholds, dtype=float)
    rows = []
    for t in thresholds:
        inside = int(np.count_nonzero((a <= t) & (b <= t)))
        lo, hi = wilson_interval(inside, exp.n_samples)
        rows.append(
            {
                "t": float(t),
                "p_hat": inside / exp.n_samples,
                "wilson_lo": lo,
                "wilson_hi": hi,
                "p_data_norm_exceeds": float(np.mean(a > t)),
                "p_flow_norm_exceeds": float(np.mean(b > t)),
            }
        )
    p_hats = [r["p_hat"] for r in rows]
    return {
        "family": exp.ensemble.family,
        "thresholds": thresholds.tolist(),
        "rows": rows,
        "monotone": bool(np.all(np.diff(p_hats) >= 0)),
        "n_samples": exp.n_samples,
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
    if not (spec.satisfies_HE2 and spec.satisfies_H02):
        raise ValueError("needs a mean-zero family with second moment bounded below")
    basis = base.basis
    chi_vals = cutoff.filter_values(basis)
    sigma_sq = float(np.sum(chi_vals**2 * np.abs(base.coeffs) ** 2 * basis.lambda2**cutoff.s))
    if sigma_sq == 0:
        raise ValueError("sigma_N vanishes: cutoff removes the whole base field")

    nodes, weights, table = product_quadrature(basis, 2 * basis.max_degree)
    xi_pow = np.sum(nodes**2, axis=1) ** cutoff.s
    fourier_phase = (-1j) ** basis.degrees

    s_sq = np.empty(n_samples)

    def kernel(a, b):
        gains = sample_gain_matrix(spec, np.arange(a, b), basis.size)
        filtered = gains * (chi_vals * base.coeffs)[None, :]
        l2_sq = np.sum(np.abs(filtered) ** 2, axis=1)
        if cutoff.s == 0:
            frac_sq = 0.0
        else:
            hat_vals = (filtered * fourier_phase[None, :]) @ table
            frac_sq = np.sum(weights[None, :] * xi_pow[None, :] * np.abs(hat_vals) ** 2, axis=1)
        s_sq[a:b] = l2_sq + frac_sq

    run_chunked(n_samples, kernel, workers=workers)

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


def eigenfunction_lp_decay(p_exp: float, n_max: int, dim: int = 1) -> dict:
    """Audit-grid L^p norms of the eigenfunctions against the expected decay.

    For dim 1 the normalized sequence ||h_n||_p lambda_n^{1/6} must stay
    within twice its value at n = 10 and show no increasing trend; for dim 2
    the exponent is 1 - d/2 = 0 and plain boundedness is checked.
    """
    if p_exp < 4:
        raise ValueError(f"p exponent must be >= 4, got {p_exp}")
    if n_max > 400:
        raise ValueError(f"n_max must be <= 400, got {n_max}")
    if dim > 2:
        raise ValueError("computed branches cover dim <= 2")
    axis = audit_axis(n_max, 1)
    table = hermite_function_values(n_max, axis)
    cell = float(axis[1] - axis[0])
    if np.isinf(p_exp):
        norms_1d = np.abs(table).max(axis=1)
    else:
        norms_1d = (cell * np.sum(np.abs(table) ** p_exp, axis=1)) ** (1.0 / p_exp)

    if dim == 1:
        lam = np.sqrt(2.0 * np.arange(n_max + 1) + 1.0)
        ratio = norms_1d * lam ** (1.0 / 6.0)
    else:
        # tensor eigenfunctions h_(n,0); exponent -1 + d/2 vanishes for d = 2
        lam = np.sqrt(2.0 * np.arange(n_max + 1) + 2.0)
        norms_1d = norms_1d * norms_1d[0]
        ratio = norms_1d.copy()

    lo = 10
    window = ratio[lo : n_max + 1]
    # Spearman's rho: the ranks of n are 0, 1, ...; the window has no ties
    rho = float(np.corrcoef(np.arange(window.size), np.argsort(np.argsort(window)))[0, 1])
    return {
        "dim": dim,
        "p": float(p_exp),
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
    spec: EnsembleSpec,
    coeffs,
    rho_grid,
    n_samples: int = 10**6,
    q_grid=(2, 4, 6, 8, 10),
    mgf_points: int = 21,
) -> dict:
    """Three-part check for mean-zero families with gamma in (1, 2]:

    (i) the empirical moment generating function on [-1, 1] sits under
    exp(c_hat t^2) with a stable fitted c_hat;
    (ii) the tail of S = sum c_n g_n fits C_hat exp(-c_hat (rho/||c||)^gamma)
    with R^2 >= 0.9 on the survival window [1e-3, 0.3];
    (iii) the L^q growth exponent of S stays below 1/gamma + 0.1.
    """
    if not 1.0 < spec.gamma <= 2.0:
        raise ValueError(f"chernoff_tail needs gamma in (1, 2], got {spec.gamma}")
    if not spec.satisfies_HE2:
        raise ValueError("chernoff_tail needs a mean-zero family")
    coeffs = np.asarray(coeffs, dtype=float)
    cnorm = float(np.linalg.norm(coeffs))
    t_grid = np.linspace(-1.0, 1.0, mgf_points)
    rho_grid = np.asarray(rho_grid, dtype=float)

    mgf = np.zeros(t_grid.size)
    survival = np.zeros(rho_grid.size)
    q_grid = np.asarray(sorted(q_grid), dtype=int)
    qsums = np.zeros(q_grid.size)
    for chunk in sample_block(spec, n_samples, width=coeffs.size):
        chunk = chunk.reshape(-1, coeffs.size)
        x = chunk[:, 0]
        mgf += np.exp(np.outer(t_grid, x)).sum(axis=1)
        s = np.abs(chunk @ coeffs)
        survival += (s[None, :] >= rho_grid[:, None]).sum(axis=1)
        for i, q in enumerate(q_grid):
            qsums[i] += (s**q).sum()
    mgf /= n_samples
    survival /= n_samples
    lq_norms = (qsums / n_samples) ** (1.0 / q_grid)

    # (i) quadratic MGF envelope
    away = np.abs(t_grid) >= 0.25
    c_hat_mgf = float(np.max(np.log(mgf[away]) / t_grid[away] ** 2))
    mgf_ok = np.all(np.isfinite(mgf)) and c_hat_mgf < 10.0

    # (ii) tail fit in the survival window, plus a free-exponent cross-check
    window = (survival >= 1e-3) & (survival <= 0.3)
    if np.count_nonzero(window) < 3:
        raise ValueError("empty tail fit window; adjust rho_grid")
    x = (rho_grid[window] / cnorm) ** spec.gamma
    y = np.log(survival[window])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    tail_ok = r2 >= 0.9 and slope < 0
    free_window = survival >= 20.0 / n_samples
    free_fit = _fit_tail_exponent(
        rho_grid[free_window] / cnorm, survival[free_window], n_samples
    )

    # (iii) moment growth
    growth, _ = np.polyfit(np.log(q_grid), np.log(lq_norms), 1)
    growth_ok = growth <= 1.0 / spec.gamma + 0.1

    return {
        "family": spec.family,
        "gamma": spec.gamma,
        "mgf_c_hat": c_hat_mgf,
        "mgf_ok": bool(mgf_ok),
        "tail_c_hat": float(-slope),
        "tail_C_hat": float(np.exp(intercept)),
        "tail_r2": float(r2),
        "tail_gamma_hat": free_fit["gamma_hat"],
        "tail_ok": bool(tail_ok),
        "growth_exponent": float(growth),
        "growth_bound": 1.0 / spec.gamma + 0.1,
        "growth_ok": bool(growth_ok),
        "verdict": bool(mgf_ok and tail_ok and growth_ok),
        "n_samples": n_samples,
    }

"""Acceptance suite: the table of exit criteria, each returning a pass/fail
result with its measured quantities.

Criteria that check an experiment of the registry run that experiment and
keep only their extra pass conditions and the projection onto their detail
keys; every size comes from a command's registry preset.  The Monte Carlo
criteria (4, 10, 11, 12, 13) read the preset of the tier they run at, so the
smoke tier shrinks sample counts (for quick plumbing checks) without touching
any tolerance; the others always read the reference preset.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import experiments
from .experiments import DEFAULT_SEED, TIERS, Context, Experiment, Result, _solve_from_params
from .fields import SpectralField, fractional_laplacian_L2_norm, unit_field
from .hermite import build_basis
from .picard import contraction_factor, mass_curve, picard_solve, residual, uniqueness_probe
from .proba import cycle_23_bound_constant, eigenfunction_lp_decay

__all__ = ["CriterionResult", "run_criterion", "run_all", "CRITERIA", "TIERS", "EXPERIMENT"]


# command -> tier -> registry parameters
PRESETS = {e.name: e.params_by_tier for e in experiments.EXPERIMENTS}


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    runtime_s: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.cid:2d} {self.name} ({self.runtime_s:.1f}s)"


def criterion_01_basis_fidelity(tier: str, seed: int) -> dict:
    params = PRESETS["basis-check"]["reference"]
    gram, worst = experiments.basis_fidelity(build_basis(1, params["N"], params["quad"]))
    return {
        "gram_deviation": gram,
        "rayleigh_worst": worst,
        "passed": gram <= 1e-10 and worst <= 1e-6,
    }


def criterion_02_gradient_ratio(tier: str, seed: int) -> dict:
    basis = build_basis(1, 101, 204)
    ratios = {}
    ok = True
    worst_at_1 = 0.0
    for s in (0.5, 1.0, 1.5):
        vals = []
        for n in range(101):
            lam = np.sqrt(2.0 * n + 1.0)
            vals.append(fractional_laplacian_L2_norm(unit_field(basis, n), s) / lam**s)
        vals = np.array(vals)
        ratios[s] = (float(vals.min()), float(vals.max()))
        ok = ok and vals.min() >= 0.5 and vals.max() <= 1.5
        if s == 1.0:
            worst_at_1 = float(np.max(np.abs(vals - 2.0**-0.5)))
    return {
        "ratio_brackets": {str(k): v for k, v in ratios.items()},
        "s1_deviation_from_invsqrt2": worst_at_1,
        "passed": ok and worst_at_1 <= 1e-6,
    }


def criterion_03_eigenfunction_sup(tier: str, seed: int) -> dict:
    rep = eigenfunction_lp_decay(np.inf, PRESETS["eigen-lp"]["reference"]["n_max"])
    return {
        "ratio_max_over_r10": rep["ratio_max"] / rep["ratio_at_10"],
        "spearman_rho": rep["spearman_rho"],
        "passed": rep["verdict"],
    }


def criterion_04_smoothing_stability(tier: str, seed: int) -> dict:
    params = PRESETS["smoothing"][tier]
    res = experiments.smoothing(params, Context(seed))
    coarse, fine = f"N{params['N_coarse']}", f"N{params['N_fine']}"
    sups = {
        k: {coarse: v["coarse"], fine: v["fine"], "rel_change": v["rel_change"]}
        for k, v in res.stats["ratios"].items()
    }
    return {"sups": sups, "worst_rel_change": res.stats["worst_rel_change"], "passed": res.verdict}


def criterion_05_lens_conjugation(tier: str, seed: int) -> dict:
    res = experiments.lens_check(PRESETS["lens-check"]["reference"], Context(seed))
    return {
        "conjugation_worst_l2": res.stats["conjugation_worst_l2"],
        "isometry_worst": res.stats["isometry_worst"],
        "passed": res.verdict,
    }


def criterion_06_picard_solver(tier: str, seed: int) -> dict:
    params = PRESETS["solve-nlsh"]["reference"]
    residuals = {}
    details = {}
    for k in (1, -1):
        u0, cfg = _solve_from_params({**params, "K": k})
        traj = picard_solve(u0, cfg)
        drift = mass_curve(traj)["drift"]
        details[f"K={k}"] = {
            "iterations": traj.iterations,
            "contraction": contraction_factor(traj),
            "final_update": traj.contraction_history[-1],
            "residual": residual(traj),
            "mass_drift": drift,
        }
    # the preset's time grid, refined twice by halving the step
    nodes = [params["time_nodes"], 2 * params["time_nodes"] - 1, 4 * params["time_nodes"] - 3]
    for m in nodes:
        u0, cfg = _solve_from_params({**params, "time_nodes": m})
        residuals[m] = residual(picard_solve(u0, cfg))
    ms = np.log([m - 1.0 for m in nodes])
    rs = np.log([residuals[m] for m in nodes])
    order = float(-np.polyfit(ms, rs, 1)[0])
    passed = (
        all(
            d["iterations"] <= 20
            and d["contraction"] < 0.5
            and d["final_update"] <= 1e-10
            and d["residual"] <= 1e-6
            and d["mass_drift"] <= 1e-8
            for d in details.values()
        )
        and order >= 3.5
    )
    return {"runs": details, "residual_order": order, "passed": passed, "residuals": residuals}


def criterion_07_uniqueness(tier: str, seed: int) -> dict:
    u0, cfg = _solve_from_params(PRESETS["solve-nlsh"]["reference"])
    pert = SpectralField(u0.basis, 0.01 * unit_field(u0.basis, 1).coeffs)
    rep = uniqueness_probe(u0, cfg, pert)
    return {
        "fixed_point_gap": rep["fixed_point_gap"],
        "tolerance": rep["gap_tolerance"],
        "gronwall_ok": rep["gronwall_ok"],
        "passed": rep["fixed_point_unique"] and rep["gronwall_ok"],
    }


def criterion_08_scattering(tier: str, seed: int) -> dict:
    res = experiments.scattering(PRESETS["scattering"]["reference"], Context(seed))
    curve = res.curves["scattering_residual"]["residual"]
    return {
        "residual_curve": res.stats["residual_curve"],
        "final_residual": curve[-1],
        "decreasing": all(curve[i + 1] < curve[i] for i in range(len(curve) - 1)),
        "amplitude_slope": res.stats["amplitude_slope"],
        "passed": res.verdict,
    }


def criterion_09_cycle_combinatorics(tier: str, seed: int) -> dict:
    expected = {1: 1, 2: 3, 3: 55, 4: 1225}
    p = PRESETS["b2p"]["reference"]["p"]
    rows, agree = experiments.cycle_counts(p)
    agree = agree and rows["closed_form"] == list(expected.values())
    bound = cycle_23_bound_constant(max(p, 12))
    return {
        "values": expected,
        "brute_equals_closed": agree,
        "fitted_C": bound["fitted_C"],
        "passed": agree and bound["fitted_C"] < np.inf,
    }


def criterion_10_khinchin(tier: str, seed: int) -> dict:
    runs = experiments.khinchin(PRESETS["khinchin"][tier], Context(seed)).stats["runs"]
    passed = (
        abs(runs["gaussian"]["fitted_exponent"] - 0.5) <= 0.1
        and abs(runs["rademacher_single"]["fitted_exponent"]) <= 0.05
        and runs["weibull_1.0"]["verdict"]
        and runs["weibull_1.5"]["verdict"]
    )
    summary = {
        k: {"fitted_exponent": v["fitted_exponent"], "bound": v["exponent_bound"], "verdict": v["verdict"]}
        for k, v in runs.items()
    }
    return {"runs": summary, "passed": bool(passed)}


def criterion_11_tail_bounds(tier: str, seed: int) -> dict:
    nt = experiments.gaussian_norm_tail(PRESETS["tails"][tier]["n_tail"], Context(seed))
    ch = experiments.chernoff(PRESETS["chernoff"][tier], Context(seed))
    return {
        "norm_tail_r2": nt["fit_r2"],
        "chernoff": {
            gamma: {kk: ch.stats["runs"][run][kk] for kk in ("mgf_c_hat", "tail_r2", "growth_exponent", "verdict")}
            for gamma, run in (("2.0", "gaussian"), ("1.5", "weibull_1.5"))
        },
        "passed": bool(nt["verdict"] and ch.verdict),
    }


def criterion_12_good_set(tier: str, seed: int) -> dict:
    params = PRESETS["omega"][tier]
    res = experiments.omega(params, Context(seed), base_norm=1.0)
    moderate = res.stats["rows"][1]
    # sample-wise degree-1 homogeneity: halving the base halves every norm
    half = experiments.omega(params, Context(seed), base_norm=0.5).stats
    homog = all(np.array_equal(half[k], 0.5 * res.stats[k]) for k in ("data_norm_samples", "flow_norm_samples"))
    return {
        "moderate_threshold": moderate["t"],
        "p_hat": moderate["p_hat"],
        "wilson_lo": moderate["wilson_lo"],
        "monotone": res.stats["monotone"],
        "homogeneity_exact": homog,
        "passed": moderate["wilson_lo"] > 0 and res.stats["monotone"] and homog,
    }


def criterion_13_paley_zygmund(tier: str, seed: int) -> dict:
    res = experiments.paley_zygmund(PRESETS["paley-zygmund"][tier], Context(seed))
    runs = res.stats["runs"]
    sigmas = [runs[f"gaussian_s05_N{scale}"]["sigma_sq_exact"] for scale in (4, 8, 16)]
    increasing = all(sigmas[i] < sigmas[i + 1] for i in range(len(sigmas) - 1))
    summary = {
        k: {kk: v[kk] for kk in ("lhs_probability", "rhs_bound", "sigma_sq_exact", "verdict")}
        for k, v in runs.items()
    }
    return {"runs": summary, "sigma_increasing": increasing, "passed": bool(res.verdict and increasing)}


CRITERIA = [
    (1, "basis fidelity (Gram + Rayleigh)", criterion_01_basis_fidelity),
    (2, "fractional gradient ratio on eigenfunctions", criterion_02_gradient_ratio),
    (3, "eigenfunction sup-norm decay", criterion_03_eigenfunction_sup),
    (4, "smoothing functional refinement stability", criterion_04_smoothing_stability),
    (5, "lens conjugation and isometry", criterion_05_lens_conjugation),
    (6, "Picard solver contraction and residual order", criterion_06_picard_solver),
    (7, "fixed-point uniqueness", criterion_07_uniqueness),
    (8, "scattering profiles", criterion_08_scattering),
    (9, "2/3-cycle permutation counts", criterion_09_cycle_combinatorics),
    (10, "moment growth exponents", criterion_10_khinchin),
    (11, "norm and Chernoff tails", criterion_11_tail_bounds),
    (12, "good-set probability positivity", criterion_12_good_set),
    (13, "second-moment lower bound", criterion_13_paley_zygmund),
]


def run_criterion(cid: int, tier: str = "reference", seed: int = DEFAULT_SEED) -> CriterionResult:
    for c, name, fn in CRITERIA:
        if c == cid:
            start = time.perf_counter()
            details = fn(tier, seed)
            elapsed = time.perf_counter() - start
            passed = bool(details.pop("passed"))
            return CriterionResult(cid=c, name=name, passed=passed, runtime_s=elapsed, details=details)
    raise ValueError(f"no criterion {cid}")


def run_all(tier: str = "reference", seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    if tier not in TIERS:
        raise ValueError(f"tier must be one of {TIERS}")
    return [run_criterion(cid, tier, seed) for cid, _, _ in CRITERIA]


def run_acceptance(params, ctx):
    results = run_all(ctx.tier, seed=ctx.seed)
    # runtimes stay on the console: report bytes must not vary between runs
    stats = {
        f"criterion_{r.cid:02d}": {"name": r.name, "passed": r.passed, **r.details}
        for r in results
    }
    return Result(
        stats, all(r.passed for r in results), [r.line() for r in results], meta={"tier": ctx.tier, "seed": ctx.seed}
    )


EXPERIMENT = Experiment("acceptance", {tier: {} for tier in TIERS}, run_acceptance)

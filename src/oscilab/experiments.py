"""Experiment registry: one definition of each experiment, run by the
command line.

An Experiment pairs its per-tier parameters with a run(params, ctx)
function that returns a Result: report stats and verdict, console lines,
CSV curves and report meta.  Run functions write no report, CSV or plot
script; the command line does.  Tiers scale effort only; every tolerance is
pinned in the run functions, and a verdict holds every pass condition of its
experiment.  The last entry, acceptance, runs every other entry at its own
tier and seed and passes iff all their verdicts pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .ensembles import make_ensemble
from .fields import (
    NormSpec,
    SpectralField,
    analyze,
    evaluate_norm,
    harmonic_sobolev_norm,
    propagate_linear,
    rayleigh_quotient,
    smoothing_constant,
    spacetime_norm,
    synthesize,
    unit_field,
)
from .hermite import BasisError, audit_axis, build_basis, cached_basis, gram_deviation, hermite_function_values
from .lens import frame_l2_norm, free_propagate, lens_forward, lens_time_inverse, lens_time_map
from .picard import (
    SolverConfig,
    contraction_factor,
    geometric_fit_r2,
    global_nls_solution,
    load_trajectory,
    mass_curve,
    picard_solve,
    residual,
    save_trajectory,
    scattering_extract,
)
from .proba import (
    CutoffSpec,
    chernoff_tail,
    count_23_cycle_permutations,
    cycle_23_bound_constant,
    eigenfunction_lp_decay,
    good_set_probability,
    khinchin_growth,
    norm_tail,
    odd_moment_witness,
    paley_zygmund_check,
    verify_tail,
)

__all__ = ["TIERS", "DEFAULT_SEED", "ConfigError", "Context", "Result", "Experiment", "EXPERIMENTS"]

TIERS = ("smoke", "reference")

DEFAULT_SEED = 1


class ConfigError(ValueError):
    """Input that does not fit the command: an unknown field or a stale checkpoint."""


@dataclass(frozen=True)
class Context:
    """How to run an experiment; never part of its parameters."""

    seed: int = DEFAULT_SEED
    workers: int = 1
    tier: str = "reference"
    out_dir: Path | None = None
    resume: bool = False


@dataclass
class Result:
    stats: dict
    verdict: bool
    lines: list
    curves: dict = field(default_factory=dict)  # CSV name -> columns, each with a plot script
    tables: dict = field(default_factory=dict)  # CSV name -> columns, without one
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Experiment:
    name: str
    params_by_tier: dict
    run: Callable[[dict, Context], Result]
    parallel: bool = False  # run reads ctx.workers; other experiments take one worker only


# ---------------------------------------------------------------------------
# spectral experiments


def basis_check(params, ctx):
    _at_least(params, "recurrence_N", 0)
    _at_least(params, "N", 0)
    if params["quad"] < 2 * (params["N"] + 1):
        raise ValueError(f"quad must be at least 2(N + 1) = {2 * (params['N'] + 1)}, got {params['quad']}")
    basis = build_basis(1, params["N"], params["quad"])
    gram = gram_deviation(basis)
    # worst Rayleigh-quotient error over h_0 .. h_min(N, 40)
    worst_rayleigh = max(
        abs(rayleigh_quotient(unit_field(basis, n)) - (2 * n + 1)) for n in range(min(basis.max_degree, 40) + 1)
    )
    rng = np.random.default_rng(ctx.seed)
    c = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    u = SpectralField(basis, c)
    vals = synthesize(u)
    parseval = abs(float(np.sum(basis.weights * np.abs(vals) ** 2)) - u.l2_norm**2)
    roundtrip = float(np.max(np.abs(analyze(vals, basis).coeffs - u.coeffs)))
    table = hermite_function_values(params["recurrence_N"], audit_axis(params["recurrence_N"], 1))
    recurrence_sup = float(np.abs(table).max())
    ok = (
        gram <= 1e-10
        and parseval <= 1e-10 * u.l2_norm**2
        and worst_rayleigh <= 1e-6
        and recurrence_sup <= 0.76
    )
    stats = {
        "gram_deviation": gram,
        "parseval_defect": parseval,
        "analyze_synthesize_roundtrip": roundtrip,
        "rayleigh_worst": worst_rayleigh,
        "recurrence_sup": recurrence_sup,
    }
    return Result(
        stats,
        ok,
        [f"Gram deviation {gram:.3e} (<= 1e-10)", f"Rayleigh worst {worst_rayleigh:.3e}"],
        meta={"N": params["N"], "quad": params["quad"], "seed": ctx.seed},
    )


def _nonempty(params, key: str) -> None:
    """Refuse an empty list ``params[key]``: a verdict over none of its entries would check nothing."""
    if not params[key]:
        raise ValueError(f"{key} must hold at least one entry, got []")


def _at_least(params, key: str, low: int) -> None:
    """Refuse ``params[key]`` below low, naming the field before any work fails on it."""
    if params[key] < low:
        raise ValueError(f"{key} must be >= {low}, got {params[key]}")


def norms(params, ctx):
    _nonempty(params, "modes")
    _at_least(params, "N", 0)
    basis = build_basis(1, params["N"], 2 * (params["N"] + 1))
    rows = {"norm_kind": [], "s": [], "r": [], "q": [], "T": [], "N": [], "value": []}
    specs = [
        NormSpec("harmonic_sobolev", s=1.0),
        NormSpec("classical_sobolev", s=0.5),
        NormSpec("weighted_x", s=1.0),
        NormSpec("fractional_laplacian_L2", s=1.0),
        NormSpec("lebesgue_Lr", r=4.0),
        NormSpec("sup_norm"),
        NormSpec("harmonic_sobolev_sup", s=1.0 / 7.0),
    ]
    nan = float("nan")
    for mode in params["modes"]:
        u = unit_field(basis, mode)
        entries = [(spec.kind, spec.s, spec.r, nan, nan, evaluate_norm(u, spec)) for spec in specs]
        st = spacetime_norm(u, 2.0, NormSpec("harmonic_sobolev", s=0.0), params["T"], params["time_nodes"])
        entries.append(("spacetime_L2_L2", 0.0, 2.0, 2.0, params["T"], st))
        for kind, s, r, q, T, value in entries:
            for key, entry in zip(rows, (kind, s, r, q, T, params["N"], value)):
                rows[key].append(entry)
    return Result(
        {"rows_written": len(rows["value"])},
        True,
        [f"{len(rows['value'])} norm rows written"],
        curves={"norms": rows},
        meta={"seed": ctx.seed},
    )


def smoothing(params, ctx):
    _at_least(params, "N_coarse", 0)
    _at_least(params, "N_fine", 0)
    coarse, fine = (cached_basis(1, params[key], 2 * (params[key] + 1)) for key in ("N_coarse", "N_fine"))
    stats = {}
    for variant in ("sqrtH", "fractional_grad"):
        for eps in (0.05, 0.25, 0.45):
            (sup_c, _), (sup_f, mode) = (smoothing_constant(basis, eps, variant) for basis in (coarse, fine))
            change, degree = abs(sup_f - sup_c) / sup_f, int(fine.degrees[np.argmax(np.abs(mode.coeffs))])
            stats[f"{variant}_eps{eps}"] = {"coarse": sup_c, "fine": sup_f, "rel_change": change, "mode_degree": degree}
    worst = max(entry["rel_change"] for entry in stats.values())
    return Result(
        {"ratios": stats, "worst_rel_change": worst},
        worst < 0.05,
        [f"worst refinement change {worst:.2%} (< 5%)"],
        meta={"weight_note": "<x>^{-(1/2-eps)} on the product quadrature; time integral over [-2 pi, 2 pi] in closed "
              "form; sharp constant from the top eigenvalue of each eigenspace; eps swept over {0.05, 0.25, 0.45}"},
    )


def lens_check(params, ctx):
    _nonempty(params, "times")
    _at_least(params, "N", 0)
    n = params["N"]
    basis = cached_basis(1, n, 2 * (n + 1))
    u0 = SpectralField(basis, 0.1 * unit_field(basis, 0).coeffs)
    worst_conj = 0.0
    for t in params["times"]:
        frame = lens_forward(propagate_linear(u0, lens_time_map(t)), t)
        free = free_propagate(u0, t)
        dx = float(frame.axis[1] - frame.axis[0])
        worst_conj = max(worst_conj, float(np.sqrt(dx * np.sum(np.abs(frame.values - free.values) ** 2))))
    rng = np.random.default_rng(ctx.seed)
    c = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    u = SpectralField(basis, c / np.linalg.norm(c))
    worst_iso = max(
        abs(frame_l2_norm(lens_forward(u, t)) - 1.0) for t in (0.5, 2.0, 10.0)
    )
    tmap_ok = lens_time_map(0.0) == 0.0 and abs(lens_time_inverse(np.pi / 8) - 0.5) < 1e-12
    return Result(
        {"conjugation_worst_l2": worst_conj, "isometry_worst": worst_iso, "time_map_ok": tmap_ok},
        worst_conj <= 1e-6 and worst_iso <= 1e-10 and tmap_ok,
        [f"conjugation worst {worst_conj:.3e} (<= 1e-6)"],
        meta={"N": n, "times": params["times"], "seed": ctx.seed},
    )


# ---------------------------------------------------------------------------
# Picard solves


def _solve_from_params(params):
    """Initial field and solver config of one solve in dimension params["dim"] (default 1).

    The field is the amplitude times the basis function at position "mode"
    of the graded enumeration (at d = 1, h_mode).
    """
    _at_least(params, "N", 0)
    n, dim, mode, p = params["N"], params.get("dim", 1), params.get("mode", 0), params.get("p", 5)
    if p < 5 or p % 2 == 0:
        raise ValueError(f"p must be odd >= 5, got {p}")
    basis = cached_basis(dim, n, 2 * (n + 1))
    if not 0 <= mode < basis.size:
        raise BasisError(f"mode {mode} outside the {basis.size} basis functions of d={dim}, N={n}")
    u0 = SpectralField(basis, params["amplitude"] * unit_field(basis, basis.indices[mode]).coeffs)
    cfg = SolverConfig(
        dim=dim,
        nonlinearity_p=p,
        K=params.get("K", 1),
        N=n,
        time_nodes=params["time_nodes"],
    )
    return u0, cfg


def _trajectory(params, ctx):
    """(u0, cfg, trajectory, resumed): solve and checkpoint, or with ctx.resume
    reload the checkpoint, which must hold this very problem."""
    checkpoint = ctx.out_dir / "trajectory.npz"
    u0, cfg = _solve_from_params(params)
    if ctx.resume and checkpoint.exists():
        try:
            traj = load_trajectory(checkpoint)
        except ValueError as exc:
            raise ConfigError(f"checkpoint {checkpoint} cannot be resumed ({exc}); rerun without --resume") from exc
        if (
            traj.config != cfg
            or traj.basis.quad_per_axis != u0.basis.quad_per_axis
            or not np.array_equal(traj.u0, u0.coeffs)
        ):
            raise ConfigError(
                f"checkpoint {checkpoint} holds another problem (config {traj.config.as_dict()}); "
                "rerun without --resume"
            )
        return u0, cfg, traj, True
    traj = picard_solve(u0, cfg)
    checkpoint.parent.mkdir(parents=True, exist_ok=True)
    save_trajectory(traj, checkpoint)
    return u0, cfg, traj, False


def solve_nlsh(params, ctx):
    _, cfg, traj, resumed = _trajectory(params, ctx)
    mass = mass_curve(traj)
    stats = {
        "iterations": traj.iterations,
        "contraction_factor": contraction_factor(traj),
        "geometric_fit_r2": geometric_fit_r2(traj),
        "final_update": traj.contraction_history[-1],
        "residual": residual(traj),
        "mass_drift": mass["drift"],
        "resumed": resumed,
    }
    return Result(
        stats,
        traj.iterations <= 20
        and stats["contraction_factor"] < 0.5
        and stats["final_update"] <= 1e-10
        and stats["residual"] <= 1e-6
        and stats["mass_drift"] <= 1e-8,
        [
            f"converged in {traj.iterations} iterations, residual {stats['residual']:.3e}, "
            f"mass drift {stats['mass_drift']:.3e}"
        ],
        curves={"mass_curve": {"t": mass["times"], "mass": mass["mass"]}},
        meta={"config": cfg.as_dict(), "seed": ctx.seed},
    )


def solve_nls(params, ctx):
    _nonempty(params, "times")
    u0, cfg, traj, _ = _trajectory(params, ctx)
    masses = []
    frames = {}
    for t in params["times"]:
        frame = global_nls_solution(traj, t)
        frames[f"frame_t{t}"] = {"x": frame.axis, "re_u": frame.values.real, "im_u": frame.values.imag}
        masses.append({"t": t, "mass": frame_l2_norm(frame)})
    drift = max(abs(m["mass"] - u0.l2_norm) for m in masses)
    return Result(
        {"masses": masses, "worst_mass_deviation": drift},
        drift <= 1e-8,
        [f"{len(masses)} frames written, worst mass deviation {drift:.3e}"],
        curves=frames,
        meta={"config": cfg.as_dict(), "seed": ctx.seed},
    )


def scattering(params, ctx):
    amplitudes = params["amplitudes"]
    # the slope is fitted through one point per distinct amplitude
    if min(amplitudes, default=0.0) <= 0.0 or len(set(amplitudes)) < 2:
        raise ValueError(f"amplitudes must hold at least two distinct positive values, got {amplitudes}")
    norms = []
    curve_out = None
    for amp in amplitudes:
        run = dict(params)
        run["amplitude"] = amp
        u0, cfg = _solve_from_params(run)
        traj = picard_solve(u0, cfg)
        pair = scattering_extract(traj, u0)
        norms.append(harmonic_sobolev_norm(pair.L_plus, cfg.s))
        curve_out = pair.residual_curve
    la = np.log(amplitudes)
    slope = float(np.polyfit(la, np.log(norms), 1)[0])
    curve_vals = [r for _, r in curve_out]
    decreasing = all(curve_vals[i + 1] < curve_vals[i] for i in range(len(curve_vals) - 1))
    return Result(
        {"amplitude_slope": slope, "residual_curve": curve_out, "profile_norms": norms},
        decreasing and curve_vals[-1] <= 1e-3 and abs(slope - params.get("p", 5)) <= 0.3,
        [f"profile-amplitude slope {slope:.3f} (target p +- 0.3)"],
        curves={"scattering_residual": {"t": [t for t, _ in curve_out], "residual": curve_vals}},
        meta={"amplitudes": amplitudes, "seed": ctx.seed},
    )


# ---------------------------------------------------------------------------
# probability experiments


def khinchin(params, ctx):
    _at_least(params, "n_modes", 1)
    if not 2 <= params["q_max"] <= 24:  # the even moments q = 2, 4, ..., q_max that khinchin_growth takes
        raise ValueError(f"q_max must lie in [2, 24], got {params['q_max']}")
    seed = ctx.seed
    spread = np.ones(params["n_modes"]) / np.sqrt(params["n_modes"])
    n = params["n_samples"]
    qs = tuple(range(2, params["q_max"] + 1, 2))
    # the three families on the spread coefficients share one draw of the stream
    gaussian, weibull_1, weibull_15 = khinchin_growth(
        [
            make_ensemble("gaussian", seed=seed),
            make_ensemble("symmetric_weibull", seed=seed, gamma=1.0),
            make_ensemble("symmetric_weibull", seed=seed, gamma=1.5),
        ],
        spread, qs, n, ctx.workers,
    )
    (single,) = khinchin_growth(
        [make_ensemble("rademacher", seed=seed)], np.array([1.0]), qs, max(n // 10, 10**4), ctx.workers
    )
    runs = {"gaussian": gaussian, "rademacher_single": single, "weibull_1.0": weibull_1, "weibull_1.5": weibull_15}
    lines = [
        f"{name}: exponent {r['fitted_exponent']:.3f} <= {r['exponent_bound']:.3f} [{r['hypothesis_branch']}]"
        for name, r in runs.items()
    ]
    # a Gaussian sum grows like sqrt(q); a single Rademacher gain does not grow
    exponents_ok = (
        abs(runs["gaussian"]["fitted_exponent"] - 0.5) <= 0.1
        and abs(runs["rademacher_single"]["fitted_exponent"]) <= 0.05
    )
    return Result(
        {"runs": runs},
        exponents_ok and all(r["verdict"] for r in runs.values()),
        lines,
        meta={"seed": seed, "n_samples": n},
    )


def b2p(params, ctx):
    _at_least(params, "p", 1)
    p = params["p"]
    # counts of 2/3-cycle permutations of 2p symbols in closed form and,
    # for 2p <= 10 (else -1), by brute force
    rows = {"two_p": [], "closed_form": [], "brute_force": []}
    agree = True
    for k in range(1, p + 1):
        closed = count_23_cycle_permutations(k, "closed_form")
        brute = count_23_cycle_permutations(k, "brute_force") if 2 * k <= 10 else None
        rows["two_p"].append(2 * k)
        rows["closed_form"].append(closed)
        rows["brute_force"].append(-1 if brute is None else brute)
        if brute is not None:
            agree = agree and brute == closed
    bound = cycle_23_bound_constant(max(p, 12))
    # the probabilistic witness behind the counting: product moments vanish
    # without a pair/triple structure, and the two-point triple is nonzero
    witnesses = {
        "gaussian_distinct": odd_moment_witness(
            make_ensemble("gaussian", seed=ctx.seed), (1, 2, 3), 10**5
        ),
        "rademacher_pairs": odd_moment_witness(
            make_ensemble("rademacher", seed=ctx.seed), (1, 1, 2, 2), 10**4
        ),
        "two_point_triple": odd_moment_witness(
            make_ensemble("centered_two_point", seed=ctx.seed), (1, 1, 1), 10**5
        ),
    }
    witness_ok = all(w["verdict"] for w in witnesses.values())
    agree = agree and witness_ok
    lines = [
        f"count(2p={two_p}) = {closed}" + (" [brute-force agreed]" if brute >= 0 else "")
        for two_p, closed, brute in zip(rows["two_p"], rows["closed_form"], rows["brute_force"])
    ]
    return Result(
        {
            "counts": rows,
            "brute_equals_closed": agree,
            "fitted_C": bound["fitted_C"],
            "moment_witnesses": witnesses,
        },
        agree and bool(np.isfinite(bound["fitted_C"])),
        lines + [f"fitted C = {bound['fitted_C']:.4f}"],
        tables={"b2p_counts": rows},
        meta={"p": p},
    )


def tails(params, ctx):
    _at_least(params, "n_verify", 10**5)  # verify_tail's least sample
    _at_least(params, "n_tail", 10**4)  # norm_tail's least sample
    seed = ctx.seed
    n_weibull = max(params["n_verify"] // 5, 10**5)
    cases = {  # name: (ensemble, samples, thresholds)
        "verify_gaussian": (make_ensemble("gaussian", seed=seed), params["n_verify"], np.linspace(1, 4, 13)),
        "verify_weibull_1.0": (make_ensemble("symmetric_weibull", seed=seed, gamma=1.0), n_weibull, np.linspace(1, 8, 15)),
        "verify_rademacher": (make_ensemble("rademacher", seed=seed), 10**5, np.linspace(0.5, 2.0, 7)),
    }
    reports = {name: verify_tail(ens, m, grid, workers=ctx.workers) for name, (ens, m, grid) in cases.items()}
    # survival of the Gaussian-randomized data norm of the flat 32-mode field
    flat = SpectralField(cached_basis(1, 31, 64), (np.ones(32) / np.sqrt(32.0)).astype(complex))
    nt = norm_tail(
        flat, make_ensemble("gaussian", seed=seed), np.linspace(0.6, 2.4, 25), n_samples=params["n_tail"],
        workers=ctx.workers,
    )
    reports["norm_tail_gaussian"] = {k: v for k, v in nt.items() if k not in ("survival", "t_grid")}
    return Result(
        reports,
        all(r["verdict"] for r in reports.values()),
        [
            f"gaussian gamma_hat {reports['verify_gaussian']['gamma_hat']:.3f}",
            f"norm tail fit R^2 {nt['fit_r2']:.4f} (>= 0.9)",
        ],
        curves={"norm_tail_survival": {"t": nt["t_grid"], "survival": nt["survival"]}},
        meta={"seed": seed},
    )


def omega(params, ctx):
    """Good-set probabilities of the flat base field of L^2 norm 0.5.

    Passes iff the probability is nondecreasing in the threshold and its
    Wilson lower bound is positive at every threshold.  Both norms are
    exactly homogeneous of degree 1 in the base field, so the row at t is
    also the row at 2t for the base of norm 1.0: the t = 0.75 row answers
    for t = 1.5 at norm 1.0 without a second set of draws.
    """
    _at_least(params, "n_modes", 1)
    _nonempty(params, "thresholds")
    n = params["n_modes"]
    basis = cached_basis(1, n - 1, 2 * n + 2)
    base = SpectralField(basis, (np.ones(n) / np.sqrt(n) * 0.5).astype(complex))
    rep = good_set_probability(
        base, make_ensemble("gaussian", seed=ctx.seed), params["thresholds"], params["n_samples"], ctx.workers
    )
    rows = rep["rows"]
    columns = ("t", "p_hat", "wilson_lo", "wilson_hi", "p_data_norm_exceeds", "p_flow_norm_exceeds")
    return Result(
        {"rows": rows, "monotone": rep["monotone"]},
        rep["monotone"] and all(r["wilson_lo"] > 0 for r in rows),
        [
            f"P(good set) at t={rows[-1]['t']}: {rows[-1]['p_hat']:.4f} "
            f"(Wilson lower {rows[-1]['wilson_lo']:.4f})"
        ],
        curves={"good_set_probability": {key: [r[key] for r in rows] for key in columns}},
        meta={"seed": ctx.seed, "n_samples": params["n_samples"], "proxy_note": "sup norms over the audit grid"},
    )


def paley_zygmund(params, ctx):
    n = params["n_samples"]
    basis, big = cached_basis(1, 15, 34), cached_basis(1, 40, 84)
    decay = 1.0 / np.sqrt(big.lambda2)
    decay /= np.linalg.norm(decay)
    # name: (base field, gain family, cutoff N, regularity s, samples)
    cases = {
        "rademacher_single": (unit_field(basis, 2), "rademacher", 8, 0.0, min(n, 2000)),
        "gaussian_flat_s0": (SpectralField(basis, (np.ones(16) / 4.0).astype(complex)), "gaussian", 8, 0.0, n),
        **{f"gaussian_s05_N{scale}": (SpectralField(big, decay.astype(complex)), "gaussian", scale, 0.5, n)
           for scale in (4, 8, 16)},
    }
    runs = {
        name: paley_zygmund_check(
            base, make_ensemble(family, seed=ctx.seed), CutoffSpec(N=scale, s=s), n_samples=m, workers=ctx.workers
        )
        for name, (base, family, scale, s, m) in cases.items()
    }
    # the second moment grows with the cutoff
    sigmas = [runs[f"gaussian_s05_N{scale}"]["sigma_sq_exact"] for scale in (4, 8, 16)]
    return Result(
        {"runs": runs},
        all(r["verdict"] for r in runs.values()) and sigmas[0] < sigmas[1] < sigmas[2],
        [f"{k}: P = {v['lhs_probability']:.4f} >= {v['rhs_bound']:.4f} - 3sigma" for k, v in runs.items()],
        meta={"seed": ctx.seed},
    )


def eigen_lp(params, ctx):
    reports = {}
    curves = {}
    for rep in eigenfunction_lp_decay((4.0, float("inf")), params["n_max"]):
        p = rep["p"]
        key = "inf" if np.isinf(p) else str(p)
        reports[key] = {k: v for k, v in rep.items() if k != "ratios"}
        curves[f"eigen_lp_p{key}"] = {"n": np.arange(params["n_max"] + 1), "normalized_norm": rep["ratios"]}
    return Result(
        reports,
        all(r["verdict"] for r in reports.values()),
        [
            f"p={k}: max ratio / ratio(10) = {v['ratio_max']/v['ratio_at_10']:.4f}, "
            f"spearman {v['spearman_rho']:.3f}" for k, v in reports.items()
        ],
        curves=curves,
        meta={"n_max": params["n_max"]},
    )


def chernoff(params, ctx):
    families = {  # name: (ensemble, thresholds), drawn together from one stream
        "gaussian": (make_ensemble("gaussian", seed=ctx.seed), np.linspace(1.0, 4.5, 15)),
        "weibull_1.5": (make_ensemble("symmetric_weibull", seed=ctx.seed, gamma=1.5), np.linspace(1.0, 6.0, 21)),
    }
    reports = chernoff_tail(list(families.values()), np.ones(16) / 4.0, n_samples=params["n_samples"], workers=ctx.workers)
    runs = dict(zip(families, reports))
    return Result(
        {"runs": runs},
        all(r["verdict"] for r in runs.values()),
        [
            f"{k}: mgf c {v['mgf_c_hat']:.3f}, tail R^2 {v['tail_r2']:.3f}, growth {v['growth_exponent']:.3f}"
            for k, v in runs.items()
        ],
        meta={"seed": ctx.seed},
    )


def acceptance(params, ctx):
    """Every other experiment of the registry at ctx.tier and ctx.seed, each
    with its own checkpoint directory; passes iff every verdict passes."""
    stats, lines = {}, []
    for experiment in EXPERIMENTS:
        if experiment.run is acceptance:
            continue
        out_dir = ctx.out_dir / experiment.name.replace("-", "_")
        start = time.perf_counter()
        result = experiment.run(
            experiment.params_by_tier[ctx.tier],
            Context(seed=ctx.seed, tier=ctx.tier, out_dir=out_dir, resume=ctx.resume),
        )
        stats[experiment.name] = {"verdict": result.verdict, "stats": result.stats}
        # runtimes stay on the console: report bytes must not vary between runs
        status = "PASS" if result.verdict else "FAIL"
        lines.append(f"[{status}] {experiment.name} ({time.perf_counter() - start:.1f}s)")
    return Result(
        stats, all(s["verdict"] for s in stats.values()), lines, meta={"tier": ctx.tier, "seed": ctx.seed}
    )


# ---------------------------------------------------------------------------
# the registry, in command-line order; tolerances live in the run functions


def _tiers(smoke: dict, reference: dict) -> dict:
    return {"smoke": smoke, "reference": reference}


EXPERIMENTS = (
    Experiment("basis-check", _tiers(
        {"N": 32, "quad": 66, "recurrence_N": 100},
        {"N": 64, "quad": 256, "recurrence_N": 200},
    ), basis_check),
    Experiment("norms", _tiers(
        {"N": 32, "modes": [0, 1, 5], "T": 1.0, "time_nodes": 33},
        {"N": 64, "modes": [0, 1, 5, 20], "T": 1.0, "time_nodes": 65},
    ), norms),
    Experiment("smoothing", _tiers(
        {"N_coarse": 32, "N_fine": 64},
        {"N_coarse": 128, "N_fine": 256},
    ), smoothing),
    Experiment("lens-check", _tiers(
        {"N": 32, "times": [0.25, 0.5]},
        {"N": 64, "times": [0.25, 0.5, 1.0]},
    ), lens_check),
    Experiment("solve-nlsh", _tiers(
        {"N": 16, "time_nodes": 33, "amplitude": 0.1, "mode": 0, "p": 5, "K": 1, "dim": 1},
        {"N": 32, "time_nodes": 65, "amplitude": 0.1, "mode": 0, "p": 5, "K": 1, "dim": 1},
    ), solve_nlsh),
    Experiment("solve-nls", _tiers(
        {"N": 16, "time_nodes": 33, "amplitude": 0.1, "times": [0.5, 2.0]},
        {"N": 32, "time_nodes": 65, "amplitude": 0.1, "times": [0.5, 2.0, 10.0]},
    ), solve_nls),
    Experiment("scattering", _tiers(
        {"N": 16, "time_nodes": 33, "amplitudes": [0.05, 0.1]},
        {"N": 32, "time_nodes": 65, "amplitudes": [0.05, 0.1]},
    ), scattering),
    Experiment("khinchin", _tiers(
        {"n_samples": 10**5, "n_modes": 32, "q_max": 8},
        {"n_samples": 10**6, "n_modes": 32, "q_max": 12},
    ), khinchin, parallel=True),
    Experiment("b2p", _tiers({"p": 3}, {"p": 4}), b2p),
    Experiment("tails", _tiers(
        {"n_tail": 10**4, "n_verify": 10**5},
        {"n_tail": 10**5, "n_verify": 10**6},
    ), tails, parallel=True),
    Experiment("omega", _tiers(
        {"n_samples": 10**3, "n_modes": 16, "thresholds": [0.75, 1.0, 1.5, 2.0, 3.0]},
        {"n_samples": 10**4, "n_modes": 16, "thresholds": [0.75, 1.0, 1.5, 2.0, 3.0]},
    ), omega, parallel=True),
    Experiment("paley-zygmund", _tiers({"n_samples": 2 * 10**3}, {"n_samples": 10**4}), paley_zygmund, parallel=True),
    Experiment("eigen-lp", _tiers({"n_max": 100}, {"n_max": 400}), eigen_lp),
    Experiment("chernoff", _tiers({"n_samples": 5 * 10**4}, {"n_samples": 10**6}), chernoff, parallel=True),
    Experiment("acceptance", _tiers({}, {}), acceptance),
)

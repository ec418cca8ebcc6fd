"""Experiment registry: one definition of each experiment, shared by the
command line and the acceptance suite.

An Experiment pairs its per-tier parameters with a run(params, ctx)
function that returns a Result: report stats and verdict, console lines,
CSV curves and report meta.  Run functions write no report, CSV or plot
script; the command line does.  Tiers scale effort only; every tolerance is
pinned in the run functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .ensembles import make_ensemble, sample_gain_matrix, verify_tail
from .fields import (
    NormSpec,
    SpectralField,
    analyze,
    embed_field,
    evaluate_norm,
    harmonic_sobolev_norm,
    rayleigh_quotient,
    smoothing_functional,
    spacetime_norm,
    synthesize,
    unit_field,
)
from .hermite import audit_axis, build_basis, cached_basis, gram_deviation, hermite_function_values, load_basis, save_basis
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
    TailExperiment,
    chernoff_tail,
    count_23_cycle_permutations,
    cycle_23_bound_constant,
    eigenfunction_lp_decay,
    good_set_probability,
    khinchin_growth,
    norm_tail,
    odd_moment_witness,
    paley_zygmund_check,
)

__all__ = ["TIERS", "DEFAULT_SEED", "ConfigError", "Context", "Result", "Experiment", "EXPERIMENTS"]

TIERS = ("smoke", "reference", "extended")

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


# ---------------------------------------------------------------------------
# spectral experiments


def basis_fidelity(basis):
    """(Gram deviation, worst Rayleigh-quotient error over h_0 .. h_min(N, 40))."""
    worst_rayleigh = 0.0
    for n in range(0, min(basis.max_degree, 40) + 1):
        worst_rayleigh = max(
            worst_rayleigh, abs(rayleigh_quotient(unit_field(basis, n)) - (2 * n + 1))
        )
    return gram_deviation(basis), worst_rayleigh


def basis_check(params, ctx):
    basis = build_basis(1, params["N"], params["quad"])
    gram, worst_rayleigh = basis_fidelity(basis)
    rng = np.random.default_rng(ctx.seed)
    c = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    u = SpectralField(basis, c)
    vals = synthesize(u)
    parseval = abs(float(np.sum(basis.weights * np.abs(vals) ** 2)) - u.l2_norm**2)
    roundtrip = float(np.max(np.abs(analyze(vals, basis).coeffs - u.coeffs)))
    table = hermite_function_values(params["recurrence_N"], audit_axis(params["recurrence_N"], 1))
    recurrence_sup = float(np.abs(table).max())
    cache_path = ctx.out_dir / f"basis_d1_N{params['N']}_q{params['quad']}_v1.npz"
    save_basis(basis, cache_path)
    reloaded = load_basis(cache_path)
    cache_identical = bool(
        np.array_equal(reloaded.nodes, basis.nodes)
        and np.array_equal(reloaded.weights, basis.weights)
        and np.array_equal(reloaded.eval_table, basis.eval_table)
    )
    ok = (
        gram <= 1e-10
        and parseval <= 1e-10 * u.l2_norm**2
        and worst_rayleigh <= 1e-6
        and recurrence_sup <= 0.76
        and cache_identical
    )
    stats = {
        "gram_deviation": gram,
        "parseval_defect": parseval,
        "analyze_synthesize_roundtrip": roundtrip,
        "rayleigh_worst": worst_rayleigh,
        "recurrence_sup": recurrence_sup,
        "cache_bit_identical": cache_identical,
    }
    return Result(
        stats,
        ok,
        [f"Gram deviation {gram:.3e} (<= 1e-10)", f"Rayleigh worst {worst_rayleigh:.3e}"],
        meta={"N": params["N"], "quad": params["quad"], "seed": ctx.seed},
    )


def norms(params, ctx):
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
    for mode in params["modes"]:
        u = unit_field(basis, mode)
        for spec in specs:
            rows["norm_kind"].append(spec.kind)
            rows["s"].append(spec.s)
            rows["r"].append(spec.r)
            rows["q"].append(float("nan"))
            rows["T"].append(float("nan"))
            rows["N"].append(params["N"])
            rows["value"].append(evaluate_norm(u, spec))
        st = spacetime_norm(u, 2.0, NormSpec("harmonic_sobolev", s=0.0), params["T"], params["time_nodes"])
        rows["norm_kind"].append("spacetime_L2_L2")
        rows["s"].append(0.0)
        rows["r"].append(2.0)
        rows["q"].append(2.0)
        rows["T"].append(params["T"])
        rows["N"].append(params["N"])
        rows["value"].append(st)
    return Result(
        {"rows_written": len(rows["value"])},
        True,
        [f"{len(rows['value'])} norm rows written"],
        curves={"norms": rows},
        meta={"seed": ctx.seed},
    )


def smoothing(params, ctx):
    coarse = cached_basis(1, params["N_coarse"], 2 * (params["N_coarse"] + 1))
    fine = cached_basis(1, params["N_fine"], 2 * (params["N_fine"] + 1))
    gains = sample_gain_matrix(
        make_ensemble("gaussian", seed=ctx.seed), np.arange(params["draws"]), coarse.size
    )
    stats = {}
    worst = 0.0
    for variant in ("sqrtH", "fractional_grad"):
        for eps in (0.05, 0.25, 0.45):
            sup_c = sup_f = 0.0
            for row in gains:
                u = SpectralField(coarse, (row / np.linalg.norm(row)).astype(complex))
                sup_c = max(sup_c, smoothing_functional(u, eps, variant, params["time_nodes"]))
                sup_f = max(
                    sup_f, smoothing_functional(embed_field(u, fine), eps, variant, params["time_nodes"])
                )
            change = abs(sup_f - sup_c) / sup_f
            worst = max(worst, change)
            stats[f"{variant}_eps{eps}"] = {"coarse": sup_c, "fine": sup_f, "rel_change": change}
    return Result(
        {"ratios": stats, "worst_rel_change": worst},
        worst < 0.05,
        [f"worst refinement change {worst:.2%} (< 5%)"],
        meta={"draws": params["draws"], "seed": ctx.seed, "weight_note": "audit-grid sup proxies; eps swept over {0.05, 0.25, 0.45}"},
    )


def lens_check(params, ctx):
    n = params["N"]
    basis = cached_basis(1, n, 2 * (n + 1))
    u0 = SpectralField(basis, 0.1 * unit_field(basis, 0).coeffs)
    cfg = SolverConfig(dim=1, N=n, time_nodes=65, nonlinear=False)
    traj = picard_solve(u0, cfg)
    worst_conj = 0.0
    for t in params["times"]:
        frame = global_nls_solution(traj, t)
        free = free_propagate(u0, t, points=frame.grid)
        dx = float(frame.grid[1] - frame.grid[0])
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
    """Initial field (amplitude times h_mode) and solver config of one d = 1 solve."""
    n = params["N"]
    basis = cached_basis(1, n, 2 * (n + 1))
    u0 = SpectralField(basis, params["amplitude"] * unit_field(basis, params.get("mode", 0)).coeffs)
    cfg = SolverConfig(
        dim=1,
        nonlinearity_p=params.get("p", 5),
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
        traj = load_trajectory(checkpoint)
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
        stats["residual"] <= 1e-6 and stats["mass_drift"] <= 1e-8,
        [
            f"converged in {traj.iterations} iterations, residual {stats['residual']:.3e}, "
            f"mass drift {stats['mass_drift']:.3e}"
        ],
        curves={"mass_curve": {"t": mass["times"], "mass": mass["mass"]}},
        meta={"config": cfg.as_dict(), "seed": ctx.seed},
    )


def solve_nls(params, ctx):
    u0, cfg, traj, _ = _trajectory(params, ctx)
    masses = []
    frames = {}
    for t in params["times"]:
        frame = global_nls_solution(traj, t)
        frames[f"frame_t{t}"] = {"x": frame.grid, "re_u": frame.values.real, "im_u": frame.values.imag}
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
    norms = []
    curve_out = None
    for amp in params["amplitudes"]:
        run = dict(params)
        run["amplitude"] = amp
        u0, cfg = _solve_from_params(run)
        traj = picard_solve(u0, cfg)
        pair = scattering_extract(traj, u0)
        norms.append(harmonic_sobolev_norm(pair.L_plus, cfg.s))
        curve_out = pair.residual_curve
    la = np.log(params["amplitudes"])
    slope = float(np.polyfit(la, np.log(norms), 1)[0])
    curve_vals = [r for _, r in curve_out]
    decreasing = all(curve_vals[i + 1] < curve_vals[i] for i in range(len(curve_vals) - 1))
    return Result(
        {"amplitude_slope": slope, "residual_curve": curve_out, "profile_norms": norms},
        decreasing and curve_vals[-1] <= 1e-3 and abs(slope - params.get("p", 5)) <= 0.3,
        [f"profile-amplitude slope {slope:.3f} (target p +- 0.3)"],
        curves={"scattering_residual": {"t": [t for t, _ in curve_out], "residual": curve_vals}},
        meta={"amplitudes": params["amplitudes"], "seed": ctx.seed},
    )


# ---------------------------------------------------------------------------
# probability experiments


def khinchin(params, ctx):
    seed = ctx.seed
    spread = np.ones(params["n_modes"]) / np.sqrt(params["n_modes"])
    n = params["n_samples"]
    qs = tuple(range(2, params["q_max"] + 1, 2))
    runs = {
        "gaussian": khinchin_growth(make_ensemble("gaussian", seed=seed), spread, qs, n_samples=n),
        "rademacher_single": khinchin_growth(
            make_ensemble("rademacher", seed=seed), np.array([1.0]), qs, n_samples=max(n // 10, 10**4)
        ),
        "weibull_1.0": khinchin_growth(
            make_ensemble("symmetric_weibull", seed=seed, gamma=1.0), spread, qs, n_samples=n
        ),
        "weibull_1.5": khinchin_growth(
            make_ensemble("symmetric_weibull", seed=seed, gamma=1.5), spread, qs, n_samples=n
        ),
    }
    lines = [
        f"{name}: exponent {r['fitted_exponent']:.3f} <= {r['exponent_bound']:.3f} [{r['hypothesis_branch']}]"
        for name, r in runs.items()
    ]
    return Result(
        {"runs": runs}, all(r["verdict"] for r in runs.values()), lines, meta={"seed": seed, "n_samples": n}
    )


def cycle_counts(p_max):
    """Counts of 2/3-cycle permutations of 2p symbols, p = 1 .. p_max, in closed
    form and (for 2p <= 10, else -1) by brute force, and whether they agree."""
    rows = {"two_p": [], "closed_form": [], "brute_force": []}
    agree = True
    for k in range(1, p_max + 1):
        closed = count_23_cycle_permutations(k, "closed_form")
        brute = count_23_cycle_permutations(k, "brute_force") if 2 * k <= 10 else None
        rows["two_p"].append(2 * k)
        rows["closed_form"].append(closed)
        rows["brute_force"].append(-1 if brute is None else brute)
        if brute is not None:
            agree = agree and brute == closed
    return rows, agree


def b2p(params, ctx):
    p = params["p"]
    rows, agree = cycle_counts(p)
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
        agree,
        lines + [f"fitted C = {bound['fitted_C']:.4f}"],
        tables={"b2p_counts": rows},
        meta={"p": p},
    )


def gaussian_norm_tail(n_samples, ctx):
    """Survival of the Gaussian-randomized data norm of the flat 32-mode field."""
    basis = cached_basis(1, 31, 64)
    base = SpectralField(basis, (np.ones(32) / np.sqrt(32.0)).astype(complex))
    return norm_tail(
        base,
        make_ensemble("gaussian", seed=ctx.seed),
        np.linspace(0.6, 2.4, 25),
        n_samples=n_samples,
        workers=ctx.workers,
    )


def tails(params, ctx):
    seed = ctx.seed
    reports = {}
    reports["verify_gaussian"] = verify_tail(
        make_ensemble("gaussian", seed=seed), params["n_verify"], np.linspace(1, 4, 13)
    )
    reports["verify_weibull_1.0"] = verify_tail(
        make_ensemble("symmetric_weibull", seed=seed, gamma=1.0),
        max(params["n_verify"] // 5, 10**5),
        np.linspace(1, 8, 15),
    )
    reports["verify_rademacher"] = verify_tail(
        make_ensemble("rademacher", seed=seed), 10**5, np.linspace(0.5, 2.0, 7)
    )
    nt = gaussian_norm_tail(params["n_tail"], ctx)
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


def omega(params, ctx, base_norm=0.5):
    """Good-set probabilities of the flat base field of L^2 norm base_norm."""
    n = params["n_modes"]
    basis = cached_basis(1, n - 1, 2 * n + 2)
    base = SpectralField(basis, (np.ones(n) / np.sqrt(n) * base_norm).astype(complex))
    exp = TailExperiment(
        base=base,
        ensemble=make_ensemble("gaussian", seed=ctx.seed),
        thresholds=tuple(params["thresholds"]),
        n_samples=params["n_samples"],
    )
    rep = good_set_probability(exp, workers=ctx.workers)
    rows = rep["rows"]
    columns = ("t", "p_hat", "wilson_lo", "wilson_hi", "p_data_norm_exceeds", "p_flow_norm_exceeds")
    positive = any(r["wilson_lo"] > 0 for r in rows)
    # the per-sample norms are arrays: they stay out of the JSON report
    samples = {key: rep[key] for key in ("data_norm_samples", "flow_norm_samples")}
    return Result(
        {"rows": rows, "monotone": rep["monotone"], **samples},
        positive and rep["monotone"],
        [
            f"P(good set) at t={rows[-1]['t']}: {rows[-1]['p_hat']:.4f} "
            f"(Wilson lower {rows[-1]['wilson_lo']:.4f})"
        ],
        curves={"good_set_probability": {key: [r[key] for r in rows] for key in columns}},
        meta={"seed": ctx.seed, "n_samples": params["n_samples"], "proxy_note": "sup norms over the audit grid"},
    )


def paley_zygmund(params, ctx):
    n = params["n_samples"]
    basis = cached_basis(1, 15, 34)
    runs = {}
    runs["rademacher_single"] = paley_zygmund_check(
        SpectralField(basis, unit_field(basis, 2).coeffs),
        make_ensemble("rademacher", seed=ctx.seed),
        CutoffSpec(N=8, s=0.0),
        n_samples=min(n, 2000),
        workers=ctx.workers,
    )
    runs["gaussian_flat_s0"] = paley_zygmund_check(
        SpectralField(basis, (np.ones(16) / 4.0).astype(complex)),
        make_ensemble("gaussian", seed=ctx.seed),
        CutoffSpec(N=8, s=0.0),
        n_samples=n,
        workers=ctx.workers,
    )
    big = cached_basis(1, 40, 84)
    decay = 1.0 / np.sqrt(big.lambda2)
    decay /= np.linalg.norm(decay)
    for scale in (4, 8, 16):
        runs[f"gaussian_s05_N{scale}"] = paley_zygmund_check(
            SpectralField(big, decay.astype(complex)),
            make_ensemble("gaussian", seed=ctx.seed),
            CutoffSpec(N=scale, s=0.5),
            n_samples=n,
            workers=ctx.workers,
        )
    return Result(
        {"runs": runs},
        all(r["verdict"] for r in runs.values()),
        [f"{k}: P = {v['lhs_probability']:.4f} >= {v['rhs_bound']:.4f} - 3sigma" for k, v in runs.items()],
        meta={"seed": ctx.seed},
    )


def eigen_lp(params, ctx):
    reports = {}
    curves = {}
    for p in (4.0, float("inf")):
        rep = eigenfunction_lp_decay(p, params["n_max"])
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
    c16 = np.ones(16) / 4.0
    runs = {
        "gaussian": chernoff_tail(
            make_ensemble("gaussian", seed=ctx.seed), c16, np.linspace(1.0, 4.5, 15), n_samples=params["n_samples"]
        ),
        "weibull_1.5": chernoff_tail(
            make_ensemble("symmetric_weibull", seed=ctx.seed, gamma=1.5),
            c16,
            np.linspace(1.0, 6.0, 21),
            n_samples=params["n_samples"],
        ),
    }
    return Result(
        {"runs": runs},
        all(r["verdict"] for r in runs.values()),
        [
            f"{k}: mgf c {v['mgf_c_hat']:.3f}, tail R^2 {v['tail_r2']:.3f}, growth {v['growth_exponent']:.3f}"
            for k, v in runs.items()
        ],
        meta={"seed": ctx.seed},
    )


# ---------------------------------------------------------------------------
# the registry, in command-line order; tolerances live in the run functions


def _tiers(smoke: dict, reference: dict, extended: dict) -> dict:
    return {"smoke": smoke, "reference": reference, "extended": extended}


EXPERIMENTS = (
    Experiment("basis-check", _tiers(
        {"N": 32, "quad": 66, "recurrence_N": 100},
        {"N": 64, "quad": 256, "recurrence_N": 200},
        {"N": 128, "quad": 512, "recurrence_N": 200},
    ), basis_check),
    Experiment("norms", _tiers(
        {"N": 32, "modes": [0, 1, 5], "T": 1.0, "time_nodes": 33},
        {"N": 64, "modes": [0, 1, 5, 20], "T": 1.0, "time_nodes": 65},
        {"N": 128, "modes": [0, 1, 5, 20, 50], "T": 1.0, "time_nodes": 129},
    ), norms),
    Experiment("smoothing", _tiers(
        {"N_coarse": 32, "N_fine": 64, "draws": 10, "time_nodes": 65},
        {"N_coarse": 128, "N_fine": 256, "draws": 100, "time_nodes": 129},
        {"N_coarse": 128, "N_fine": 256, "draws": 200, "time_nodes": 257},
    ), smoothing),
    Experiment("lens-check", _tiers(
        {"N": 32, "times": [0.25, 0.5]},
        {"N": 64, "times": [0.25, 0.5, 1.0]},
        {"N": 96, "times": [0.25, 0.5, 1.0, 1.5]},
    ), lens_check),
    Experiment("solve-nlsh", _tiers(
        {"N": 16, "time_nodes": 33, "amplitude": 0.1, "mode": 0, "p": 5, "K": 1},
        {"N": 32, "time_nodes": 65, "amplitude": 0.1, "mode": 0, "p": 5, "K": 1},
        {"N": 48, "time_nodes": 129, "amplitude": 0.1, "mode": 0, "p": 5, "K": 1},
    ), solve_nlsh),
    Experiment("solve-nls", _tiers(
        {"N": 16, "time_nodes": 33, "amplitude": 0.1, "times": [0.5, 2.0]},
        {"N": 32, "time_nodes": 65, "amplitude": 0.1, "times": [0.5, 2.0, 10.0]},
        {"N": 48, "time_nodes": 129, "amplitude": 0.1, "times": [0.5, 2.0, 10.0, 50.0]},
    ), solve_nls),
    Experiment("scattering", _tiers(
        {"N": 16, "time_nodes": 33, "amplitudes": [0.05, 0.1]},
        {"N": 32, "time_nodes": 65, "amplitudes": [0.05, 0.1]},
        {"N": 48, "time_nodes": 129, "amplitudes": [0.02, 0.05, 0.1]},
    ), scattering),
    Experiment("khinchin", _tiers(
        {"n_samples": 10**5, "n_modes": 32, "q_max": 8},
        {"n_samples": 10**6, "n_modes": 32, "q_max": 12},
        {"n_samples": 2 * 10**6, "n_modes": 64, "q_max": 12},
    ), khinchin),
    Experiment("b2p", _tiers({"p": 3}, {"p": 4}, {"p": 5}), b2p),
    Experiment("tails", _tiers(
        {"n_tail": 10**4, "n_verify": 10**5},
        {"n_tail": 10**5, "n_verify": 10**6},
        {"n_tail": 2 * 10**5, "n_verify": 2 * 10**6},
    ), tails),
    Experiment("omega", _tiers(
        {"n_samples": 10**3, "n_modes": 16, "thresholds": [1.0, 1.5, 2.0, 3.0]},
        {"n_samples": 10**4, "n_modes": 16, "thresholds": [1.0, 1.5, 2.0, 3.0]},
        {"n_samples": 10**5, "n_modes": 16, "thresholds": [0.75, 1.0, 1.5, 2.0, 3.0]},
    ), omega),
    Experiment("paley-zygmund", _tiers(
        {"n_samples": 2 * 10**3}, {"n_samples": 10**4}, {"n_samples": 10**5}
    ), paley_zygmund),
    Experiment("eigen-lp", _tiers({"n_max": 100}, {"n_max": 400}, {"n_max": 400}), eigen_lp),
    Experiment("chernoff", _tiers(
        {"n_samples": 5 * 10**4}, {"n_samples": 10**6}, {"n_samples": 2 * 10**6}
    ), chernoff),
)

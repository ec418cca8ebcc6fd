import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscilab import ensembles, proba
from oscilab.ensembles import FAMILIES, make_ensemble, sample_block, sample_gain_matrix
from oscilab.fields import SpectralField, product_quadrature, trapezoid_weights, unit_field
from oscilab.hermite import audit_axis, build_basis, cached_basis
from oscilab.mc import run_chunked
from oscilab.proba import (
    FLOW_SUP_REGULARITY,
    FLOW_TIME_NODES,
    CutoffSpec,
    _data_norm_samples,
    admits_pair_triple_structure,
    chernoff_tail,
    concentration_exponent,
    count_23_cycle_permutations,
    cycle_23_bound_constant,
    eigenfunction_lp_decay,
    flow_sup_norm_samples,
    good_set_probability,
    khinchin_growth,
    norm_tail,
    odd_moment_witness,
    paley_zygmund_check,
    wilson_interval,
)

SEED = 1


# ------------------------------------------------------------ combinatorics


@pytest.mark.parametrize("p,expected", [(1, 1), (2, 3), (3, 55), (4, 1225), (5, 26145)])
def test_cycle_counts_brute_equals_closed(p, expected):
    assert count_23_cycle_permutations(p, "brute_force") == expected
    assert count_23_cycle_permutations(p, "closed_form") == expected


def test_cycle_count_bound():
    rep = cycle_23_bound_constant(12)
    c = rep["fitted_C"]
    assert np.isfinite(c)
    for row in rep["rows"]:
        assert row["count"] <= (c * row["p"]) ** (4 * row["p"] / 3) * (1 + 1e-12)


def test_cycle_count_range_checks():
    with pytest.raises(ValueError):
        count_23_cycle_permutations(6, "brute_force")  # 2p = 12 too large
    with pytest.raises(ValueError):
        count_23_cycle_permutations(31, "closed_form")
    with pytest.raises(ValueError):
        count_23_cycle_permutations(0)


def test_structure_detection():
    assert not admits_pair_triple_structure((1, 2, 3))
    assert admits_pair_triple_structure((1, 1, 2, 2))
    assert admits_pair_triple_structure((1, 1, 1))
    assert not admits_pair_triple_structure((1, 1, 2, 3))


def test_concentration_exponent_table():
    assert concentration_exponent(2.0, he1=False) == 2.0
    assert concentration_exponent(3.0, he1=True) == 2.0
    assert concentration_exponent(1.5, he1=False) == 1.5
    assert abs(concentration_exponent(1.0, he1=True) - 2.0 / 3.0) < 1e-15
    assert abs(concentration_exponent(1.0, he1=False) - 3.0 / 5.0) < 1e-15
    with pytest.raises(ValueError):
        concentration_exponent(0.0, he1=True)


# ------------------------------------------------------------ moment growth


def test_khinchin_gaussian():
    spread = np.ones(32) / np.sqrt(32.0)
    (rep,) = khinchin_growth([make_ensemble("gaussian", seed=SEED)], spread, n_samples=10**6)
    assert abs(rep["fitted_exponent"] - 0.5) <= 0.1
    # exact law is standard normal: || . ||_{L^4} = 3^{1/4}
    idx = rep["q_grid"].index(4)
    assert abs(rep["lq_norms"][idx] - 3.0**0.25) <= 0.01
    assert rep["verdict"]


def test_khinchin_rademacher_single():
    (rep,) = khinchin_growth([make_ensemble("rademacher", seed=SEED)], np.array([1.0]), n_samples=10**5)
    assert abs(rep["fitted_exponent"]) <= 1e-12
    assert all(abs(v - 1.0) < 1e-12 for v in rep["lq_norms"])


def test_khinchin_weibull_branches():
    spread = np.ones(32) / np.sqrt(32.0)
    (rep,) = khinchin_growth([make_ensemble("symmetric_weibull", seed=SEED, gamma=1.0)], spread, n_samples=10**6)
    assert rep["hypothesis_branch"] == "HE1"
    assert rep["exponent_bound"] == pytest.approx(1.5 + 0.15)
    assert rep["verdict"]
    # the weaker mean-zero-branch bound 1/m = 5/3 must hold a fortiori
    assert rep["fitted_exponent"] <= 5.0 / 3.0 + 0.15


def test_khinchin_validation():
    g = make_ensemble("gaussian", seed=SEED)
    with pytest.raises(ValueError):
        khinchin_growth([g], np.ones(4), n_samples=10**4)  # not normalized
    with pytest.raises(ValueError):
        khinchin_growth([g], np.ones(1), q_grid=(3, 5), n_samples=10**4)
    with pytest.raises(ValueError, match="unstable"):
        khinchin_growth(
            [make_ensemble("symmetric_weibull", seed=SEED, gamma=1.0)],
            np.ones(32) / np.sqrt(32.0),
            q_grid=(2, 12, 20),
            n_samples=10**4,
        )


# ------------------------------------------------------------ odd moments


def test_odd_moment_gaussian_distinct():
    rep = odd_moment_witness(make_ensemble("gaussian", seed=SEED), (1, 2, 3), 10**5)
    assert not rep["admits_structure"]
    assert abs(rep["estimate"]) <= 3 * rep["std_error"]
    assert rep["verdict"]


def test_odd_moment_rademacher_pairs():
    rep = odd_moment_witness(make_ensemble("rademacher", seed=SEED), (1, 1, 2, 2), 10**4)
    assert rep["estimate"] == 1.0


def test_odd_moment_two_point_triple():
    rep = odd_moment_witness(make_ensemble("centered_two_point", seed=SEED), (1, 1, 1), 10**5)
    assert abs(rep["estimate"] - 1.5) <= 0.05
    # the triple moment is genuinely nonzero: 3-cycles are needed
    assert abs(rep["estimate"]) > 3 * rep["std_error"]


def test_odd_moment_validation():
    with pytest.raises(ValueError):
        odd_moment_witness(make_ensemble("gaussian", seed=SEED), (1, 2), 10**4)


# ------------------------------------------------------------ norm tails


def test_norm_tail_gaussian_fit(basis32):
    base = SpectralField(basis32, np.zeros(basis32.size, complex))
    base.coeffs[:32] = 1.0 / np.sqrt(32.0)
    rep = norm_tail(base, make_ensemble("gaussian", seed=SEED), np.linspace(0.6, 2.4, 25), 10**5)
    assert rep["fit_r2"] >= 0.9
    assert rep["verdict"]


def test_norm_tail_single_mode_matches_normal_tail(basis32):
    # one-term base: the norm is |g_0|, survival 2 Phi-bar(t), slope ~ 1/2 in t^2
    base = unit_field(basis32, 0)
    rep = norm_tail(base, make_ensemble("gaussian", seed=SEED), np.linspace(0.5, 4.0, 22), 10**5)
    assert rep["verdict"]
    assert abs(rep["c_hat"] - 0.5) <= 0.15


def test_norm_tail_deterministic_step(basis32):
    base = SpectralField(basis32, np.zeros(basis32.size, complex))
    base.coeffs[:16] = 0.25
    rep = norm_tail(base, make_ensemble("rademacher", seed=SEED), np.linspace(0.5, 2.0, 7), 10**4)
    assert rep["deterministic"]
    assert abs(rep["step_at"] - 1.0) < 1e-12


def test_norm_tail_validation(basis32):
    g = make_ensemble("gaussian", seed=SEED)
    with pytest.raises(ValueError):
        norm_tail(SpectralField(basis32, np.zeros(basis32.size, complex)), g, [1.0, 2.0], 10**4)
    base = unit_field(basis32, 0)
    with pytest.raises(ValueError):
        norm_tail(base, g, [1.0, 2.0], 10**3)
    with pytest.raises(ValueError, match="window"):
        norm_tail(base, g, [50.0, 60.0, 70.0], 10**4)


# ------------------------------------------------------------ good set


def _flat_base(n_modes=16):
    basis = cached_basis(1, n_modes - 1, 2 * n_modes + 2)
    return SpectralField(basis, (np.ones(n_modes) / np.sqrt(n_modes) / 2.0).astype(complex))


def test_good_set_positive_and_monotone():
    rep = good_set_probability(_flat_base(), make_ensemble("gaussian", seed=SEED), (0.5, 1.0, 1.5, 2.0, 4.0), 10**4)
    assert rep["monotone"]
    p_hats = [r["p_hat"] for r in rep["rows"]]
    assert p_hats[-1] > 0.999  # both norms are a.s. finite
    moderate = rep["rows"][2]
    assert moderate["wilson_lo"] > 0
    # two-term split upper-bounds the complement
    for r in rep["rows"]:
        assert 1 - r["p_hat"] <= r["p_data_norm_exceeds"] + r["p_flow_norm_exceeds"] + 1e-12


def test_good_set_exact_homogeneity():
    base = _flat_base()
    half = SpectralField(base.basis, 0.5 * base.coeffs)
    ens = make_ensemble("gaussian", seed=SEED)
    rep_full = good_set_probability(base, ens, (1.0, 2.0), 2000)
    rep_half = good_set_probability(half, ens, (0.5, 1.0), 2000)
    assert np.array_equal(rep_half["data_norm_samples"], 0.5 * rep_full["data_norm_samples"])
    assert np.array_equal(rep_half["flow_norm_samples"], 0.5 * rep_full["flow_norm_samples"])
    # halving the base maps P(t) to P(t/2) sample-wise exactly
    assert rep_half["rows"][0]["p_hat"] == rep_full["rows"][0]["p_hat"]
    assert rep_half["rows"][1]["p_hat"] == rep_full["rows"][1]["p_hat"]


def test_good_set_validation():
    base, ens = _flat_base(), make_ensemble("gaussian", seed=SEED)
    with pytest.raises(ValueError, match="1e3"):
        good_set_probability(base, ens, (1.0,), 999)
    for thresholds in ((), (1.0, 1.0), (2.0, 1.0)):
        with pytest.raises(ValueError, match="strictly increasing"):
            good_set_probability(base, ens, thresholds, 1000)


def test_good_set_draws_each_omega_once(monkeypatch):
    drawn = []

    def counting(spec, omega_ids, count):
        drawn.extend(np.asarray(omega_ids).tolist())
        return sample_gain_matrix(spec, omega_ids, count)

    # every oscilab module that holds the sampler by name gets the counting one
    for module in [m for name, m in sys.modules.items() if name.startswith("oscilab.")]:
        if getattr(module, "sample_gain_matrix", None) is sample_gain_matrix:
            monkeypatch.setattr(module, "sample_gain_matrix", counting)
    assert ensembles.sample_gain_matrix is counting
    n = ensembles._GAIN_CHUNK + 904  # two chunks
    good_set_probability(_flat_base(), make_ensemble("gaussian", seed=SEED), (1.0,), n)
    assert sorted(drawn) == list(range(n))


@st.composite
def scaled_experiments(draw):
    """A random base, the same base times 2^k, and one chunk of gain rows."""
    n = draw(st.integers(0, 12))
    basis = cached_basis(1, n, 2 * (n + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    family = draw(st.sampled_from(FAMILIES))
    spec = make_ensemble(family, seed=draw(st.integers(0, 2**32 - 1)), gamma=1.0 if family == "symmetric_weibull" else None)
    k = draw(st.integers(-8, 8))
    gains = sample_gain_matrix(spec, np.arange(1000), basis.size)
    base, scaled = (SpectralField(basis, c) for c in (coeffs, 2.0**k * coeffs))
    return base, scaled, gains, k, draw(st.sampled_from([2.0, 10.0, 14.0]))


@settings(max_examples=10, deadline=None)
@given(scaled_experiments())
def test_sample_norms_power_of_two_scaling_bitwise(case):
    base, scaled, gains, k, q_time = case
    data = _data_norm_samples(base, gains)
    assert np.array_equal(_data_norm_samples(scaled, gains), 2.0**k * data)
    flow = flow_sup_norm_samples(base, gains, q_time)
    assert np.array_equal(flow_sup_norm_samples(scaled, gains, q_time), 2.0**k * flow)


def flow_sup_at_every_node(base, gains, q_time):
    """flow_sup_norm_samples with one audit-grid sup per trapezoid node."""
    basis = base.basis
    filt = basis.lambda2 ** (FLOW_SUP_REGULARITY / 2.0)
    times = np.linspace(-2 * np.pi, 2 * np.pi, FLOW_TIME_NODES)
    tw = trapezoid_weights(FLOW_TIME_NODES, float(times[1] - times[0]))
    draws = gains * base.coeffs * filt
    sups = np.array([basis.audit_sup(draws * np.exp(-1j * t * basis.lambda2)) for t in times])
    vmax = sups.max(axis=0)
    return vmax * np.sum(tw[:, None] * (sups / vmax) ** q_time, axis=0) ** (1.0 / q_time)


@pytest.mark.parametrize("dim,n", [(1, 15), (2, 4)])
@pytest.mark.parametrize("family", ["gaussian", "rademacher"])
def test_flow_sup_over_one_period_matches_every_node(dim, n, family):
    assert (FLOW_TIME_NODES - 1) % 4 == 0  # the period pi spans whole node steps
    basis = cached_basis(dim, n, 2 * (n + 1))
    rng = np.random.default_rng(dim * 100 + n)
    base = SpectralField(basis, rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size))
    gains = sample_gain_matrix(make_ensemble(family, seed=SEED), np.arange(1000), basis.size)
    got, want = flow_sup_norm_samples(base, gains, 10.0), flow_sup_at_every_node(base, gains, 10.0)
    assert np.max(np.abs(got - want) / want) <= 1e-13


# three chunks or more, the last one partial; norm_tail needs 1e4
N_OVER_THREE_CHUNKS = max(2 * ensembles._GAIN_CHUNK, 10**4) + 192


def _as_lists(report: dict) -> dict:
    return {key: value.tolist() if isinstance(value, np.ndarray) else value for key, value in report.items()}


def test_good_set_worker_invariance():
    ens = make_ensemble("gaussian", seed=SEED)
    serial = good_set_probability(_flat_base(), ens, (1.0, 1.5), N_OVER_THREE_CHUNKS, workers=1)
    parallel = good_set_probability(_flat_base(), ens, (1.0, 1.5), N_OVER_THREE_CHUNKS, workers=3)
    assert _as_lists(parallel) == _as_lists(serial)


def test_norm_tail_worker_invariance(basis32):
    base = SpectralField(basis32, np.zeros(basis32.size, complex))
    base.coeffs[:32] = 1.0 / np.sqrt(32.0)
    ens, t_grid = make_ensemble("gaussian", seed=SEED), np.linspace(0.6, 2.4, 25)
    serial = norm_tail(base, ens, t_grid, N_OVER_THREE_CHUNKS, workers=1)
    assert norm_tail(base, ens, t_grid, N_OVER_THREE_CHUNKS, workers=3) == serial


@pytest.mark.parametrize("s", [0.0, 0.5])
def test_paley_zygmund_worker_invariance(s):
    basis = cached_basis(1, 40, 84)
    base = SpectralField(basis, (1.0 / np.sqrt(basis.lambda2)).astype(complex))
    ens, cutoff = make_ensemble("gaussian", seed=SEED), CutoffSpec(N=8, s=s)
    serial = paley_zygmund_check(base, ens, cutoff, N_OVER_THREE_CHUNKS, workers=1)
    assert paley_zygmund_check(base, ens, cutoff, N_OVER_THREE_CHUNKS, workers=3) == serial


def map_gains_values(run, chunk_size, tile, monkeypatch):
    """The per-omega values of every map_gains call that run() makes, with chunks of chunk_size rows
    and kernel tiles of tile rows."""
    values = []

    def chunked(total, kernel, workers, _):
        parts = run_chunked(total, kernel, workers, chunk_size)
        values.append(np.concatenate(parts, axis=-1))
        return parts

    monkeypatch.setattr(ensembles, "run_chunked", chunked)
    monkeypatch.setattr(ensembles, "_GAIN_TILE", tile)
    run()
    return values


def _omega_reference(seed):
    good_set_probability(_flat_base(), make_ensemble("gaussian", seed=seed), (0.75, 1.0, 1.5, 2.0, 3.0), 10**4)


def _paley_zygmund_s05_reference(seed):
    basis = cached_basis(1, 40, 84)
    decay = 1.0 / np.sqrt(basis.lambda2)
    base = SpectralField(basis, (decay / np.linalg.norm(decay)).astype(complex))
    for scale in (4, 8, 16):
        paley_zygmund_check(base, make_ensemble("gaussian", seed=seed), CutoffSpec(N=scale, s=0.5), 10**4)


@pytest.mark.parametrize("seed", [1, 11])
@pytest.mark.parametrize("run", [_omega_reference, _paley_zygmund_s05_reference])
def test_reference_values_do_not_depend_on_the_chunk_size(monkeypatch, run, seed):
    # the per-omega kernels work row by row, except the one zgemm per kernel call behind the d = 1 audit
    # and hat values: its rows must come out the same whether a call holds a whole chunk of 4096 or 1024
    # rows or a tile of 256, 8 or 4 rows of a 1024-row chunk (tiles start at multiples of 4 rows)
    whole = map_gains_values(lambda: run(seed), 1024, 1024, monkeypatch)
    assert len(whole) > 0
    for chunk_size, tile in ((4096, 4096), (1024, 256), (1024, 8), (1024, 4)):
        got = map_gains_values(lambda: run(seed), chunk_size, tile, monkeypatch)
        assert len(got) == len(whole)
        for a, b in zip(got, whole):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (chunk_size, tile)


def test_kernel_tiles_leave_no_lone_row():
    # a 769-row chunk is tiled 256 + 256 + 257 rows: a one-row tile's audit zgemm gives its sups other
    # bits (at seeds 1 and 2 here) than the row gets in a call on the whole chunk
    base = _flat_base()
    size = base.basis.size
    for seed in (1, 2):
        spec = make_ensemble("gaussian", seed=seed)
        got = ensembles.map_gains(spec, 769, size, lambda gains: (flow_sup_norm_samples(base, gains, 10.0), None))
        want = flow_sup_norm_samples(base, sample_gain_matrix(spec, np.arange(769), size), 10.0)
        assert got.tobytes() == want.tobytes()


def one_tile_and_the_chunk(points, size):
    """A map_gains run's tracemalloc bound: two complex (tile rows x points) arrays of one kernel tile,
    and the chunk's Philox draw, which peaks at about five arrays the size of the chunk's gains, with
    two chunks of gains held."""
    return 2 * ensembles._GAIN_TILE * points * 16 + 7 * ensembles._GAIN_CHUNK * size * 8


def test_good_set_memory_is_bounded_by_one_chunk(traced_peak):
    # omega's reference shape: a tile's largest array is its (rows x 308 audit points) complex values,
    # one zgemm's output.  Whole 1024-row chunks took 7.8 MiB, 4096-row chunks 24.7 MiB
    base = _flat_base()
    points = base.basis.audit_table().shape[1]
    rep, peak = traced_peak(good_set_probability, base, make_ensemble("gaussian", seed=SEED), (0.75, 1.0, 1.5, 2.0, 3.0), 10**4)
    assert rep["n_samples"] == 10**4
    assert peak <= one_tile_and_the_chunk(points, base.basis.size)


def test_paley_zygmund_memory_is_bounded_by_one_tile(traced_peak):
    # the s = 0.5 reference case: a tile's largest arrays are its (rows x 84 quadrature points) complex
    # hat values; whole 1024-row chunks took 6.0 MiB
    basis = cached_basis(1, 40, 84)
    points = product_quadrature(basis, 2 * basis.max_degree)[0].size
    _, peak = traced_peak(_paley_zygmund_s05_reference, SEED)
    assert peak <= one_tile_and_the_chunk(points, basis.size)


def test_wilson_interval():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi < 0.1
    lo, hi = wilson_interval(100, 100)
    assert hi >= 1.0 - 1e-12 and lo > 0.9
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


# ------------------------------------------------------------ cutoff / second moment


def test_cutoff_shape():
    chi = CutoffSpec.chi
    assert chi(0.0) == 1.0 and chi(1.0) == 1.0
    assert chi(2.0) == 0.0 and chi(3.0) == 0.0
    mid = chi(np.linspace(1.0, 2.0, 200))
    assert np.all(np.diff(mid) <= 1e-12)          # monotone on [1, 2]
    assert np.all((mid >= 0.0) & (mid <= 1.0))
    assert chi(-0.5) == 1.0                       # even


def test_cutoff_validation():
    with pytest.raises(ValueError):
        CutoffSpec(N=0, s=0.0)
    with pytest.raises(ValueError):
        CutoffSpec(N=4, s=-1.0)


def test_paley_zygmund_chi_square_oracle(basis16):
    # flat 16-mode base, s = 0, chi = 1 on the support: S^2 ~ chi^2_16 / 16
    base = SpectralField(basis16, (np.ones(16) / 4.0).astype(complex))
    rep = paley_zygmund_check(base, make_ensemble("gaussian", seed=SEED), CutoffSpec(N=8, s=0.0), 10**4)
    k = 16
    exact_mean = 1.0
    exact_second = (k * k + 2 * k) / k**2
    assert abs(rep["mean_S2"] - exact_mean) <= 0.02
    assert abs(rep["mean_S4"] - exact_second) <= 0.05
    exact_rhs = exact_mean**2 / (4 * exact_second)
    assert rep["lhs_probability"] >= exact_rhs
    assert rep["verdict"]


def test_paley_zygmund_deterministic_single_mode(basis16):
    base = unit_field(basis16, 2)
    rep = paley_zygmund_check(base, make_ensemble("rademacher", seed=SEED), CutoffSpec(N=8, s=0.0), 2000)
    assert rep["lhs_probability"] == 1.0
    assert rep["verdict"]


def test_paley_zygmund_growing_scales():
    basis = cached_basis(1, 40, 84)
    decay = 1.0 / np.sqrt(basis.lambda2)
    decay /= np.linalg.norm(decay)
    base = SpectralField(basis, decay.astype(complex))
    g = make_ensemble("gaussian", seed=SEED)
    sigmas = []
    for scale in (4, 8, 16):
        rep = paley_zygmund_check(base, g, CutoffSpec(N=scale, s=0.5), 5000)
        sigmas.append(rep["sigma_sq_exact"])
        assert rep["verdict"]
    assert sigmas[0] < sigmas[1] < sigmas[2]


def test_paley_zygmund_validation(basis16):
    base = unit_field(basis16, 15)
    with pytest.raises(ValueError, match="sigma_N"):
        # scale so small the cutoff kills the whole field
        paley_zygmund_check(base, make_ensemble("gaussian", seed=SEED), CutoffSpec(N=1, s=0.0), 1000)


# ------------------------------------------------------------ eigenfunction decay


def test_eigen_sup_decay():
    (rep,) = eigenfunction_lp_decay([np.inf], 400)
    assert rep["ratio_max"] <= 2.0 * rep["ratio_at_10"]
    assert rep["spearman_rho"] <= 0.0
    assert rep["verdict"]


def test_eigen_l4_ground_state_value():
    (rep,) = eigenfunction_lp_decay([4.0], 20)
    # || h_0 ||_{L^4} = (2 pi)^{-1/8}
    assert abs(rep["ratios"][0] - (2 * np.pi) ** -0.125) < 1e-6


def test_eigen_lp_works_in_its_table(traced_peak):
    # |h_n|^p overwrites the table after its max is taken; a fresh |table| and its power took 9.5 MiB at n_max = 400
    table_bytes = 401 * audit_axis(400, 1).size * 8
    reps, peak = traced_peak(eigenfunction_lp_decay, [4.0, np.inf], 400)
    assert [rep["p"] for rep in reps] == [4.0, np.inf] and all(rep["verdict"] for rep in reps)
    assert peak <= table_bytes + 2**20


def test_eigen_lp_validation():
    with pytest.raises(ValueError):
        eigenfunction_lp_decay([2.0], 100)
    with pytest.raises(ValueError):
        eigenfunction_lp_decay([4.0, np.inf, 2.0], 100)
    with pytest.raises(ValueError):
        eigenfunction_lp_decay([4.0], 500)


def test_eigen_lp_reports_each_exponent_as_alone():
    # one table for every exponent: the bits of one call per exponent, in the order given
    together = eigenfunction_lp_decay([6.0, np.inf, 4.0], 100)
    assert together == [eigenfunction_lp_decay([p], 100)[0] for p in (6.0, np.inf, 4.0)]


# ------------------------------------------------------------ chernoff


def test_chernoff_gaussian():
    (rep,) = chernoff_tail([(make_ensemble("gaussian", seed=SEED), np.linspace(1.0, 4.5, 15))], np.ones(16) / 4.0, 10**6)
    assert abs(rep["mgf_c_hat"] - 0.5) <= 0.05   # exact normal MGF exponent
    assert rep["tail_r2"] >= 0.9
    # the sum of gaussians is gaussian: free tail exponent near 2
    assert abs(rep["tail_gamma_hat"] - 2.0) <= 0.15
    assert rep["growth_exponent"] <= 0.5 + 0.1
    assert rep["verdict"]


def test_chernoff_weibull():
    (rep,) = chernoff_tail(
        [(make_ensemble("symmetric_weibull", seed=SEED, gamma=1.5), np.linspace(1.0, 6.0, 21))], np.ones(16) / 4.0, 10**6
    )
    assert rep["verdict"]


def chernoff_partial(monkeypatch, spec, coeffs, rho_grid):
    """The chunk partial of chernoff_tail's fold, as a function of the chunk's rows,
    captured from its fold_block call."""
    captured = []

    def recording(families, n_samples, width, row_stat, workers=1):
        captured.append((families[0][1], row_stat))
        return ensembles.fold_block(families, n_samples, width, row_stat, workers)

    monkeypatch.setattr(proba, "fold_block", recording)
    chernoff_tail([(spec, rho_grid)], coeffs, 10**5)
    partial, row_stat = captured[0]
    return lambda rows: partial(row_stat(rows))


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([make_ensemble("gaussian", seed=SEED), make_ensemble("symmetric_weibull", seed=SEED, gamma=1.5)]),
    st.integers(0, 2**20),
    st.integers(1, 2**16),
)
def test_chernoff_partial_matches_outer_and_bool_matrix_forms(spec, start, count):
    coeffs, rho_grid = np.ones(16) / 4.0, np.linspace(1.0, 6.0, 21)
    with pytest.MonkeyPatch.context() as monkeypatch:
        partial = chernoff_partial(monkeypatch, spec, coeffs, rho_grid)
    rows = sample_block(spec, start, start + count, coeffs.size)
    s = np.abs(rows @ coeffs)
    want = np.concatenate([
        np.exp(np.outer(np.linspace(-1.0, 1.0, 21), rows[:, 0])).sum(axis=1),
        (s[None, :] >= rho_grid[:, None]).sum(axis=1),
        [(s**q).sum() for q in (2, 4, 6, 8, 10)],
    ])
    assert np.array_equal(partial(rows), want)


def test_chernoff_memory_budget(traced_peak):
    # the command's two families over 10^6 rows x 16, 16 chunks of 2^16 rows: two 512 KiB
    # tiles and each family's two row statistics of a chunk (1 MiB), where the chunk of
    # gains alone took 8 MiB, and (21 x rows) MGF temporaries and a second chunk 37 MiB
    families = [
        (make_ensemble("gaussian", seed=SEED), np.linspace(1.0, 4.5, 15)),
        (make_ensemble("symmetric_weibull", seed=SEED, gamma=1.5), np.linspace(1.0, 6.0, 21)),
    ]
    reports, peak = traced_peak(chernoff_tail, families, np.ones(16) / 4.0, 10**6)
    assert [rep["n_samples"] for rep in reports] == [10**6] * 2
    assert peak < 4 * 2**20


def test_chernoff_gamma_range():
    with pytest.raises(ValueError):
        chernoff_tail([(make_ensemble("symmetric_weibull", seed=SEED, gamma=1.0), np.linspace(1, 4, 7))], np.ones(4) / 2.0, 10**4)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from oscilab.ensembles import (
    FAMILIES,
    EnsembleSpec,
    _fit_tail_exponent,
    _from_uniforms,
    empirical_moment,
    make_ensemble,
    randomize,
    sample,
    sample_block_array,
    sample_gain_matrix,
    sample_gains,
    verify_tail,
)
from oscilab.fields import SpectralField, harmonic_sobolev_norm, unit_field

SEED = 1


def test_hypothesis_flags():
    g = make_ensemble("gaussian", seed=SEED)
    assert g.satisfies_HE1 and g.satisfies_HE2 and g.satisfies_H01 and g.satisfies_H02
    r = make_ensemble("rademacher", seed=SEED)
    assert r.satisfies_HE1 and not r.satisfies_H01
    tp = make_ensemble("centered_two_point", seed=SEED)
    assert tp.satisfies_HE2 and not tp.satisfies_HE1


def test_flag_consistency_enforced():
    with pytest.raises(ValueError):
        EnsembleSpec(
            family="gaussian", gamma=2.0, seed=0,
            satisfies_HE1=True, satisfies_HE2=False,
            satisfies_H01=True, satisfies_H02=True,
        )
    with pytest.raises(ValueError):
        make_ensemble("no_such_family", seed=0)
    with pytest.raises(ValueError):
        make_ensemble("symmetric_weibull", seed=0)  # gamma required
    with pytest.raises(ValueError):
        make_ensemble("symmetric_weibull", seed=0, gamma=3.0)


def test_gaussian_marginals():
    g = make_ensemble("gaussian", seed=SEED)
    x = sample_block_array(g, 10**6)
    assert abs(np.mean(x * x) - 1.0) <= 0.01
    assert abs(np.mean(x)) <= 0.005


def test_two_point_values_and_moments():
    tp = make_ensemble("centered_two_point", seed=SEED)
    x = sample_block_array(tp, 10**6)
    assert set(np.unique(x)) == {-0.5, 2.0}
    assert abs(np.mean(x)) <= 0.005
    # (1/5) 8 + (4/5)(-1/8) = 1.5
    assert abs(np.mean(x**3) - 1.5) <= 0.05


def test_rademacher_support():
    r = make_ensemble("rademacher", seed=SEED)
    x = sample_block_array(r, 10**4)
    assert set(np.unique(x)) == {-1.0, 1.0}


def test_uniform_variance():
    u = make_ensemble("uniform_symmetric", seed=SEED)
    x = sample_block_array(u, 10**6)
    assert np.abs(x).max() <= np.sqrt(3) + 1e-12
    assert abs(np.mean(x * x) - 1.0) <= 0.01


def test_weibull_exact_tail_and_moment():
    w = make_ensemble("symmetric_weibull", seed=SEED, gamma=1.0)
    x = sample_block_array(w, 10**6)
    # magnitude is standard exponential: E X^2 = 2
    assert abs(np.mean(x * x) - 2.0) <= 0.03
    emp = np.mean(np.abs(x) >= 2.0)
    assert abs(emp - np.exp(-2.0)) <= 0.002


def test_moment_examples():
    g = make_ensemble("gaussian", seed=SEED)
    m4 = empirical_moment(g, 4, 10**6)
    assert abs(m4["value"] - 3.0) <= 0.05
    m2 = empirical_moment(g, 2, 10**6)
    assert m2["value"] ** 2 <= m4["value"] + 3 * m4["std_error"]
    r = make_ensemble("rademacher", seed=SEED)
    assert empirical_moment(r, 9, 10**4)["value"] == 1.0


def test_stream_determinism():
    g = make_ensemble("gaussian", seed=SEED)
    assert np.array_equal(sample_gains(g, 7, 16), sample_gains(g, 7, 16))
    # position addressing: prefixes agree, single draws match vector entries
    long = sample_gains(g, 7, 16)
    assert np.array_equal(long[:5], sample_gains(g, 7, 5))
    assert sample(g, 7, 3) == long[3]
    # single draws read their own Philox block: k crosses block boundaries,
    # the key runs up to 2^64 - 1
    for omega in (7, 2**63, 2**64 - 1):
        stream = sample_gains(g, omega, 403)
        for k in (0, 1, 3, 4, 5, 17, 400, 402):
            assert sample(g, omega, k) == stream[k]
    # distinct omegas and seeds decorrelate
    assert not np.array_equal(long, sample_gains(g, 8, 16))
    g2 = make_ensemble("gaussian", seed=SEED + 1)
    assert not np.array_equal(long, sample_gains(g2, 7, 16))


def reference_uniforms(seed, omega, count):
    """Uniforms of one omega's stream, drawn by numpy's own Philox generator."""
    return np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(omega)])).random(count)


@st.composite
def gain_matrix_cases(draw):
    family = draw(st.sampled_from(FAMILIES))
    gamma = draw(st.sampled_from([0.5, 1.0, 2.0])) if family == "symmetric_weibull" else None
    spec = make_ensemble(family, seed=draw(st.integers(0, 2**64 - 1)), gamma=gamma)
    omega_ids = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=12))
    count = draw(st.integers(1, 300))
    split = draw(st.integers(0, len(omega_ids)))
    return spec, omega_ids, count, split


@settings(max_examples=80, deadline=None)
@given(gain_matrix_cases())
def test_gain_matrix_is_counter_addressed(case):
    spec, omega_ids, count, split = case
    gains = sample_gain_matrix(spec, omega_ids, count)
    assert gains.shape == (len(omega_ids), count)
    for row, omega in zip(gains, omega_ids):
        assert np.array_equal(row, _from_uniforms(spec, reference_uniforms(spec.seed, omega, count)))
        assert np.array_equal(row, sample_gains(spec, omega, count))
    parts = [sample_gain_matrix(spec, ids, count) for ids in (omega_ids[:split], omega_ids[split:])]
    assert np.array_equal(np.concatenate(parts), gains)


def test_independence_surrogate():
    g = make_ensemble("gaussian", seed=SEED)
    n = 4000
    block = np.stack([sample_gains(g, w, 4) for w in range(n)])
    corr = np.corrcoef(block.T)
    off = corr[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off)) <= 3.0 / np.sqrt(n)


def test_randomize(basis16):
    base = SpectralField(basis16, (np.ones(16) / 4.0).astype(complex))
    r = make_ensemble("rademacher", seed=SEED)
    draw = randomize(base, r, omega_id=0)
    # unit-modulus gains leave every Sobolev norm unchanged
    assert abs(harmonic_sobolev_norm(draw.draw, 0.7) - harmonic_sobolev_norm(base, 0.7)) < 1e-14

    g = make_ensemble("gaussian", seed=SEED)
    ratios = [
        (randomize(base, g, w).draw.l2_norm / base.l2_norm) ** 2 for w in range(10**4)
    ]
    assert abs(np.mean(ratios) - 1.0) <= 0.05

    again = randomize(base, g, omega_id=123)
    first = randomize(base, g, omega_id=123)
    assert np.array_equal(again.draw.coeffs, first.draw.coeffs)

    with pytest.raises(ValueError):
        randomize(SpectralField(basis16, np.zeros(16, complex)), g, 0)


def test_verify_tail_families():
    g = make_ensemble("gaussian", seed=SEED)
    rep = verify_tail(g, 10**6, np.linspace(1, 4, 13))
    assert abs(rep["gamma_hat"] - 2.0) <= 0.15
    assert rep["verdict"]

    w = make_ensemble("symmetric_weibull", seed=SEED, gamma=1.0)
    rep = verify_tail(w, 2 * 10**5, np.linspace(1, 8, 15))
    assert abs(rep["gamma_hat"] - 1.0) <= 0.15

    r = make_ensemble("rademacher", seed=SEED)
    rep = verify_tail(r, 10**5, np.linspace(0.5, 2.0, 7))
    assert rep["bounded_support"] and rep["verdict"]


def test_tail_fit_consistent_on_exact_law():
    # estimator oracle: plugging in the exact normal survival recovers the
    # exponent inside the acceptance window
    rho = np.linspace(1, 4, 13)
    fit = _fit_tail_exponent(rho, 2 * norm.sf(rho), 10**6)
    assert abs(fit["gamma_hat"] - 2.0) <= 0.15
    fit = _fit_tail_exponent(np.linspace(1, 8, 15), np.exp(-np.linspace(1, 8, 15)), 10**6)
    assert abs(fit["gamma_hat"] - 1.0) <= 0.02


def test_verify_tail_validation():
    g = make_ensemble("gaussian", seed=SEED)
    with pytest.raises(ValueError):
        verify_tail(g, 10**4, np.linspace(1, 4, 13))
    with pytest.raises(ValueError):
        verify_tail(g, 10**5, np.array([2.0, 1.0]))

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import norm

from oscilab import ensembles, proba
from oscilab.ensembles import (
    FAMILIES,
    TWO_POINT_HIGH,
    TWO_POINT_LOW,
    TWO_POINT_P_HIGH,
    _from_uniforms,
    fold_block,
    make_ensemble,
    map_gains,
    sample_block,
    sample_gain_matrix,
)
from oscilab.proba import _fit_tail_exponent, chernoff_tail, khinchin_growth, odd_moment_witness, verify_tail
from test_api import run_fresh

SEED = 1


def test_hypothesis_flags():
    g = make_ensemble("gaussian", seed=SEED)
    assert g.satisfies_HE1
    r = make_ensemble("rademacher", seed=SEED)
    assert r.satisfies_HE1
    tp = make_ensemble("centered_two_point", seed=SEED)
    assert not tp.satisfies_HE1


SYMMETRIC_SPECS = [
    make_ensemble("gaussian", seed=SEED),
    make_ensemble("rademacher", seed=SEED),
    make_ensemble("uniform_symmetric", seed=SEED),
    *(make_ensemble("symmetric_weibull", seed=SEED, gamma=gamma) for gamma in (0.5, 1.0, 1.5, 2.0)),
]


@pytest.mark.parametrize("spec", SYMMETRIC_SPECS, ids=lambda s: f"{s.family}-{s.gamma}")
def test_symmetric_families_have_odd_transforms(spec):
    # g(u) = -g(1 - u) makes every odd moment vanish, which is what satisfies_HE1 claims
    assert spec.satisfies_HE1
    u = np.linspace(0.01, 0.49, 25)
    assert np.allclose(_from_uniforms(spec, u.copy()), -_from_uniforms(spec, 1.0 - u), rtol=0, atol=1e-12)


def test_flag_consistency_enforced():
    with pytest.raises(ValueError):
        make_ensemble("no_such_family", seed=0)
    with pytest.raises(ValueError):
        make_ensemble("symmetric_weibull", seed=0)  # gamma required
    with pytest.raises(ValueError):
        make_ensemble("symmetric_weibull", seed=0, gamma=3.0)


def test_two_point_constants_are_centered():
    assert TWO_POINT_P_HIGH * TWO_POINT_HIGH + (1 - TWO_POINT_P_HIGH) * TWO_POINT_LOW == 0


def test_ndtri_loads_without_scipy_special_init():
    # the stand-in package is gone once ensembles is imported, and the full init later binds the same ufunc
    route, listed, bound, same = run_fresh(
        "import sys, oscilab.ensembles as e; print(e.NDTRI_MODULE); print('scipy.special' in sys.modules); "
        "print('special' in vars(sys.modules['scipy'])); import scipy.special; print(e.ndtri is scipy.special.ndtri)"
    )
    assert (route, listed, bound, same) == ("scipy.special._ufuncs", "False", "False", "True")


def test_ndtri_loader_reads_a_loaded_scipy_special():
    # this module imported scipy.special's ndtri
    loaded, route = ensembles._load_ndtri()
    assert loaded is ndtri and route == "scipy.special"


# prints the ndtri route and the bytes of the Gaussian gains of one fold_block and one map_gains draw
GAINS_PROBE = """
from oscilab.ensembles import NDTRI_MODULE, fold_block, make_ensemble, map_gains
g = make_ensemble("gaussian", seed=5)
(folded,) = fold_block([(g, lambda stats: stats)], 1000, 7, lambda rows: rows.T.copy())
mapped = map_gains(g, 600, 7, lambda gains: gains.T.copy())
print(NDTRI_MODULE)
print(folded.tobytes().hex() + mapped.tobytes().hex())
"""

# fails the import of scipy.special._ufuncs under the loader's stand-in package, which has no __file__
REFUSE_PRIVATE_ROUTE = """
import sys
class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special._ufuncs" and not hasattr(sys.modules.get("scipy.special"), "__file__"):
            raise ImportError(name)
sys.meta_path.insert(0, Refuse())
"""


def test_ndtri_fallback_draws_the_same_gains():
    private_route, private_gains = run_fresh(GAINS_PROBE)
    public_route, public_gains = run_fresh(REFUSE_PRIVATE_ROUTE + GAINS_PROBE)
    assert (private_route, public_route) == ("scipy.special._ufuncs", "scipy.special")
    assert private_gains == public_gains


def test_gaussian_marginals():
    g = make_ensemble("gaussian", seed=SEED)
    x = sample_block(g, 0, 10**6, 1)
    assert abs(np.mean(x * x) - 1.0) <= 0.01
    assert abs(np.mean(x)) <= 0.005


def test_two_point_values_and_moments():
    tp = make_ensemble("centered_two_point", seed=SEED)
    x = sample_block(tp, 0, 10**6, 1)
    assert set(np.unique(x)) == {-0.5, 2.0}
    assert abs(np.mean(x)) <= 0.005
    # (1/5) 8 + (4/5)(-1/8) = 1.5
    assert abs(np.mean(x**3) - 1.5) <= 0.05


def test_rademacher_support():
    r = make_ensemble("rademacher", seed=SEED)
    x = sample_block(r, 0, 10**4, 1)
    assert set(np.unique(x)) == {-1.0, 1.0}


def test_uniform_variance():
    u = make_ensemble("uniform_symmetric", seed=SEED)
    x = sample_block(u, 0, 10**6, 1)
    assert np.abs(x).max() <= np.sqrt(3) + 1e-12
    assert abs(np.mean(x * x) - 1.0) <= 0.01


def test_weibull_exact_tail_and_moment():
    w = make_ensemble("symmetric_weibull", seed=SEED, gamma=1.0)
    x = sample_block(w, 0, 10**6, 1)
    # magnitude is standard exponential: E X^2 = 2
    assert abs(np.mean(x * x) - 2.0) <= 0.03
    emp = np.mean(np.abs(x) >= 2.0)
    assert abs(emp - np.exp(-2.0)) <= 0.002


def test_moment_examples():
    g = make_ensemble("gaussian", seed=SEED)
    x = sample_block(g, 0, 10**6, 1)
    m4, se4 = np.mean(x**4), np.std(x**4) / np.sqrt(x.size)
    assert abs(m4 - 3.0) <= 0.05
    assert np.mean(x**2) ** 2 <= m4 + 3 * se4
    r = make_ensemble("rademacher", seed=SEED)
    assert np.mean(np.abs(sample_block(r, 0, 10**4, 1)) ** 9) == 1.0


def reference_uniforms(seed, omega, count):
    """Uniforms of one omega's stream, drawn by numpy's own Philox generator."""
    return np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(omega)])).random(count)


def sample_gains(spec, omega_id, count):
    """Reference: gains 0..count-1 of one omega's stream, drawn by numpy's own Philox generator."""
    return _from_uniforms(spec, reference_uniforms(spec.seed, omega_id, count))


def sample(spec, omega_id, coeff_index):
    """Reference: the one variate (seed, omega_id, coeff_index), read from its own Philox block."""
    gen = np.random.Generator(np.random.Philox(key=[np.uint64(spec.seed), np.uint64(omega_id)]))
    gen.bit_generator.advance(coeff_index // 4)
    gen.random(coeff_index % 4)
    return float(_from_uniforms(spec, gen.random(1))[0])


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
    # the bulk reader advances to a range's first block like a single draw
    for k in (0, 1, 3, 4, 5, 17, 400, 402):
        assert sample_block(g, k, k + 1, 1)[0, 0] == sample(g, 0, k)
    # distinct omegas and seeds decorrelate
    assert not np.array_equal(long, sample_gains(g, 8, 16))
    g2 = make_ensemble("gaussian", seed=SEED + 1)
    assert not np.array_equal(long, sample_gains(g2, 7, 16))


def elementwise_transform(spec, u):
    """Every family's transform as a plain elementwise formula, on fresh arrays."""
    if spec.family == "gaussian":
        return ndtri(np.clip(u, 1e-300, 1.0 - 1e-16))
    if spec.family == "rademacher":
        return np.where(u < 0.5, -1.0, 1.0)
    if spec.family == "uniform_symmetric":
        return np.sqrt(3.0) * (2.0 * u - 1.0)
    if spec.family == "centered_two_point":
        return np.where(u < TWO_POINT_P_HIGH, TWO_POINT_HIGH, TWO_POINT_LOW)
    sign = np.where(u < 0.5, -1.0, 1.0)
    w = np.where(u < 0.5, 2.0 * u, 2.0 * (1.0 - u))
    w = np.clip(w, 2.0**-53, 1.0)
    return sign * (-np.log(w)) ** (1.0 / spec.gamma)


EDGE_UNIFORMS = [0.0, 2.0**-53, 0.25, 0.5 - 2.0**-54, 0.5, 0.5 + 2.0**-53, 0.75, 1.0 - 2.0**-53]

TRANSFORM_CASES = [(family, None) for family in FAMILIES if family != "symmetric_weibull"] + [
    ("symmetric_weibull", gamma) for gamma in (0.5, 1.0, 1.5, 2.0)
]


def check_transform(spec, u):
    # the transform consumes u: its result is written into u
    want = elementwise_transform(spec, u.copy())
    got = _from_uniforms(spec, u)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # -0.0 at u = 1/2 included
    assert got is u


@pytest.mark.parametrize("family,gamma", TRANSFORM_CASES)
def test_in_place_transforms_match_elementwise_formulas_bitwise(family, gamma):
    spec = make_ensemble(family, seed=SEED, gamma=gamma)
    check_transform(spec, np.concatenate([reference_uniforms(SEED, 0, 2**20), EDGE_UNIFORMS]))


def test_weibull_transform_allocates_one_tile(traced_peak):
    # the magnitudes are built one tile at a time; a second chunk-sized array took 8 MiB here
    spec = make_ensemble("symmetric_weibull", seed=SEED, gamma=1.0)
    u = reference_uniforms(SEED, 0, 2**20)
    got, peak = traced_peak(_from_uniforms, spec, u)
    assert got is u
    assert peak <= 2**20


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(TRANSFORM_CASES),
    st.lists(
        st.one_of(st.integers(0, 2**53 - 1).map(lambda k: k * 2.0**-53), st.sampled_from(EDGE_UNIFORMS)),
        min_size=1,
        max_size=64,
    ),
)
def test_transforms_on_the_uniform_grid_match_elementwise_formulas_bitwise(case, uniforms):
    # every value numpy's random() can return is k 2^-53, k < 2^53
    family, gamma = case
    check_transform(make_ensemble(family, seed=SEED, gamma=gamma), np.array(uniforms))


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
        assert np.array_equal(row, sample_gains(spec, omega, count))
    parts = [sample_gain_matrix(spec, ids, count) for ids in (omega_ids[:split], omega_ids[split:])]
    assert np.array_equal(np.concatenate(parts), gains)


@st.composite
def block_cases(draw):
    family = draw(st.sampled_from(FAMILIES))
    gamma = draw(st.sampled_from([0.5, 1.0, 2.0])) if family == "symmetric_weibull" else None
    spec = make_ensemble(family, seed=draw(st.integers(0, 2**64 - 1)), gamma=gamma)
    stop = draw(st.integers(0, 120))
    start = draw(st.integers(0, stop))
    return spec, start, stop, draw(st.integers(1, 40))


@settings(max_examples=120, deadline=None)
@given(block_cases())
def test_block_is_counter_addressed(case):
    spec, start, stop, width = case
    rows = sample_block(spec, start, stop, width)
    assert rows.shape == (stop - start, width)
    assert np.array_equal(rows, sample_block(spec, 0, stop, width)[start:])
    flat = _from_uniforms(spec, reference_uniforms(spec.seed, 0, stop * width))
    assert np.array_equal(rows, flat[start * width :].reshape(-1, width))


def test_block_wider_than_a_chunk():
    # a row longer than the 2^20-variate chunk is read as a chunk of its own
    g = make_ensemble("gaussian", seed=SEED)
    width = 2**20 + 1
    rows = sample_block(g, 0, 2, width)
    assert np.array_equal(rows.ravel(), sample_gains(g, 0, 2 * width))
    assert np.array_equal(sample_block(g, 1, 2, width), rows[1:])
    e0 = np.zeros(width)
    e0[0] = 1.0
    (rep,) = khinchin_growth([make_ensemble("rademacher", seed=SEED)], e0, n_samples=3)
    assert rep["lq_norms"] == [1.0] * 6


def test_fold_block_matches_sequential_reference():
    # the stream drawn in one pass and summed 2^20 variates at a time, in order
    w = make_ensemble("symmetric_weibull", seed=SEED, gamma=1.5)
    n = 2 * 2**20 + 12345
    x = _from_uniforms(w, reference_uniforms(w.seed, 0, n))
    total = total_sq = 0.0
    for lo in range(0, n, 2**20):
        p = np.abs(x[lo : lo + 2**20]) ** 3
        total += p.sum()
        total_sq += (p * p).sum()

    def partial(p):
        return np.array([p.sum(), (p * p).sum()])

    (fold,) = fold_block([(w, partial)], n, 1, lambda rows: np.abs(rows[:, 0]) ** 3)
    assert fold.tolist() == [total, total_sq]


def fresh_fold(families, n, width, row_stat):
    """Reference: per family, partial(row_stat(rows)) over whole chunks of fresh sample_block rows, in order."""
    chunk = max(1, 2**20 // width)
    folds = []
    for spec, partial in families:
        total = 0.0
        for lo in range(0, n, chunk):
            total = total + partial(row_stat(sample_block(spec, lo, min(lo + chunk, n), width)))
        folds.append(total)
    return folds


@pytest.mark.parametrize(
    "spec",
    [make_ensemble("gaussian", seed=SEED), make_ensemble("symmetric_weibull", seed=SEED, gamma=1.5),
     make_ensemble("centered_two_point", seed=SEED)],
    ids=lambda s: s.family,
)
def test_fold_block_matches_a_fold_over_fresh_rows(spec):
    # three chunks of 2^20 // 3 rows, the last one partial, each drawn in 16 tiles
    width = 3
    n = 2 * (2**20 // width) + 12345
    weights = np.array([1.0, -2.0, 0.5])

    def row_stat(rows):
        return np.stack([rows @ weights, np.abs(rows).max(axis=1)])

    def partial(stats):
        s, top = stats
        return np.array([s.sum(), (s * s).sum(), top.max()])

    (want,) = fresh_fold([(spec, partial)], n, width, row_stat)
    for workers in (1, 2, 3):
        assert fold_block([(spec, partial)], n, width, row_stat, workers)[0].tolist() == want.tolist()


class _Captured(Exception):
    pass


def captured_fold(monkeypatch, module, call):
    """The (families, width, row_stat) that call passes to module's fold_block, caught before any draw."""
    got = {}

    def recording(families, n_samples, width, row_stat, workers=1):
        got.update(families=families, width=width, row_stat=row_stat)
        raise _Captured

    monkeypatch.setattr(module, "fold_block", recording)
    with pytest.raises(_Captured):
        call()
    return got["families"], got["width"], got["row_stat"]


def spread(width):
    return np.ones(width) / np.sqrt(width)


# each user of the bulk fold, called with coefficients or indices of the given width;
# the families share one stream, and the last one consumes the uniforms (two-point: into a new array)
u_sym, rad, two = (make_ensemble(f, seed=SEED) for f in ("uniform_symmetric", "rademacher", "centered_two_point"))
w1 = make_ensemble("symmetric_weibull", seed=SEED, gamma=1.0)
BULK_USERS = {
    "chernoff_tail": (
        proba,
        lambda width: chernoff_tail([(u_sym, np.linspace(1, 4, 7)), (rad, np.linspace(0.5, 2, 4))], spread(width), 10),
    ),
    "khinchin_growth": (proba, lambda width: khinchin_growth([rad, two, u_sym], spread(width), (2, 4), 10)),
    "odd_moment_witness": (
        proba,
        lambda width: odd_moment_witness(two, (0, width // 2, width - 1) if width > 1 else (0, 0, 0), 10),
    ),
    "verify_tail": (proba, lambda width: verify_tail(w1, 10**5, np.linspace(1, 8, 15))),
}
# rows of the fold and its workers: below one tile; one tile and a lone row, which
# the last tile takes; smoke size; and 10^6 + 7 rows, 31 chunks at width 32
BULK_SIZES = {
    "tile": (lambda width: 1000, 1),
    "lone": (lambda width: max(4, 2**16 // width // 4 * 4) + 1, 1),
    "smoke": (lambda width: 10**5, 2),
    "large": (lambda width: 10**6 + 7, 3),
}


@pytest.mark.parametrize("size", BULK_SIZES)
@pytest.mark.parametrize(
    "user, width", [(user, width) for user in BULK_USERS for width in (1, 3, 16, 32) if user != "verify_tail" or width == 1]
)
def test_bulk_users_match_a_fold_over_fresh_rows(monkeypatch, user, width, size):
    module, call = BULK_USERS[user]
    families, got_width, row_stat = captured_fold(monkeypatch, module, lambda: call(width))
    assert got_width == width
    monkeypatch.undo()
    rows, workers = BULK_SIZES[size]
    n = rows(width)
    want = fresh_fold(families, n, width, row_stat)
    got = fold_block(families, n, width, row_stat, workers)
    assert [a.tolist() for a in got] == [b.tolist() for b in want]


def test_shared_fold_equals_the_per_family_folds(monkeypatch):
    # chernoff's families: the Gaussian transform runs on a copy of each tile, the Weibull one on the tile
    g, w = make_ensemble("gaussian", seed=SEED), make_ensemble("symmetric_weibull", seed=SEED, gamma=1.5)
    families, width, row_stat = captured_fold(
        monkeypatch, proba,
        lambda: chernoff_tail([(g, np.linspace(1, 4.5, 15)), (w, np.linspace(1, 6, 21))], np.ones(16) / 4.0),
    )
    monkeypatch.undo()
    n = 2 * 2**16 + 5  # two full chunks of 16-wide rows and five rows
    shared = fold_block(families, n, width, row_stat)
    alone = [fold_block([family], n, width, row_stat)[0] for family in families]
    assert [a.tolist() for a in shared] == [b.tolist() for b in alone]


def test_shared_folds_refuse_mixed_seeds():
    c = np.ones(16) / 4.0
    g1, g2 = make_ensemble("gaussian", seed=1), make_ensemble("gaussian", seed=2)
    with pytest.raises(ValueError, match="share its seed"):
        chernoff_tail([(g1, np.linspace(1, 4.5, 15)), (g2, np.linspace(1, 4.5, 15))], c, 10**4)
    with pytest.raises(ValueError, match="share its seed"):
        khinchin_growth([g1, g2], c, n_samples=10**4)


def test_khinchin_matches_sequential_reference():
    # the stream drawn in one pass and summed 2^20 variates (2^15 rows of 32)
    # at a time, in order: the chunked fold must reproduce it bit for bit
    w = make_ensemble("symmetric_weibull", seed=SEED, gamma=1.5)
    coeffs = np.ones(32) / np.sqrt(32)
    q_grid = np.array([2, 4, 6, 8])
    n = 10**5
    x = _from_uniforms(w, reference_uniforms(w.seed, 0, n * 32)).reshape(n, 32)
    sums, sums_sq = np.zeros(q_grid.size), np.zeros(q_grid.size)
    for lo in range(0, n, 2**15):
        s = np.abs(x[lo : lo + 2**15].copy() @ coeffs)
        for i, q in enumerate(q_grid):
            p = s**q
            sums[i] += p.sum()
            sums_sq[i] += (p * p).sum()
    means = sums / n
    (rep,) = khinchin_growth([w], coeffs, tuple(q_grid), n)
    assert rep["lq_norms"] == (means ** (1.0 / q_grid)).tolist()
    rel_se = np.sqrt(np.maximum(sums_sq / n - means**2, 0.0) / n) / means
    assert rep["rel_std_errors"] == rel_se.tolist()


def bulk_estimators(workers):
    """Every bulk-stream estimator, each over several chunks of its stream."""
    g = make_ensemble("gaussian", seed=SEED)
    w = make_ensemble("symmetric_weibull", seed=SEED, gamma=1.5)
    n_long = 2 * 2**20 + 12345  # width 1: two full chunks and a partial one
    return {
        "verify_tail": verify_tail(g, n_long, np.linspace(1, 4, 13), workers),
        "khinchin_growth": khinchin_growth([g, w], np.ones(32) / np.sqrt(32), (2, 4, 6, 8), 10**5, workers),
        "chernoff_tail": chernoff_tail(
            [(g, np.linspace(1.0, 4.5, 15)), (w, np.linspace(1.0, 6.0, 21))], np.ones(16) / 4.0, 2 * 10**5, workers
        ),
    }


def test_bulk_estimators_independent_of_workers():
    serial = bulk_estimators(1)
    for workers in (2, 3):
        assert bulk_estimators(workers) == serial


@pytest.mark.parametrize("workers", [1, 3])
def test_map_gains_concatenates_in_omega_order(workers):
    spec = make_ensemble("symmetric_weibull", seed=SEED, gamma=1.5)
    n, width = 2 * ensembles._GAIN_CHUNK + 7, 5  # two full chunks and a partial one
    gains = sample_gain_matrix(spec, np.arange(n), width)

    def kernel(rows):
        return np.stack([rows.sum(axis=1), rows[:, 0]])

    got = map_gains(spec, n, width, kernel, workers)
    assert np.array_equal(got, np.stack([gains.sum(axis=1), gains[:, 0]]))


def test_map_gains_frees_each_chunk_of_gains_before_the_next_runs():
    # while chunk k's first tile runs, no earlier chunk's gains are referenced
    chunks, alive = [], []

    def kernel(rows):
        if not chunks or chunks[-1]() is not rows.base:
            alive.append([chunk() is not None for chunk in chunks])
            chunks.append(weakref.ref(rows.base))
        return rows.sum(axis=1)

    spec = make_ensemble("gaussian", seed=SEED)
    map_gains(spec, 3 * ensembles._GAIN_CHUNK + 5, 3, kernel, workers=1)
    assert alive == [[], [False], [False, False], [False, False, False]]


def test_independence_surrogate():
    g = make_ensemble("gaussian", seed=SEED)
    n = 4000
    block = np.stack([sample_gains(g, w, 4) for w in range(n)])
    corr = np.corrcoef(block.T)
    off = corr[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off)) <= 3.0 / np.sqrt(n)


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


def test_verify_tail_counts_match_the_bool_matrix_form(monkeypatch):
    captured = []

    def recording(families, n_samples, width, row_stat, workers=1):
        captured.append((families[0][1], row_stat))
        return fold_block(families, n_samples, width, row_stat, workers)

    monkeypatch.setattr(proba, "fold_block", recording)
    w = make_ensemble("symmetric_weibull", seed=SEED, gamma=1.0)
    rho_grid = np.linspace(0.5, 12.0, 24)
    verify_tail(w, 10**5, rho_grid)
    rows = sample_block(w, 0, 2**17, 1)
    want = (np.abs(rows.ravel())[None, :] >= rho_grid[:, None]).sum(axis=1)
    partial, row_stat = captured[0]
    assert np.array_equal(partial(row_stat(rows)), want)


@pytest.mark.parametrize("points, count_type", [(13, np.uint8), (300, np.uint16)])
def test_verify_tail_counts_are_the_float_folds(monkeypatch, points, count_type):
    # per sample, the count of thresholds at or below |x|, in the narrowest type that holds it,
    # folds to the survival counts of the float |x| statistic exactly
    g = make_ensemble("gaussian", seed=SEED)
    rho_grid = np.linspace(0.5, 4.5, points)
    n = 10**5 + 3
    _, _, row_stat = captured_fold(monkeypatch, proba, lambda: verify_tail(g, n, rho_grid))
    monkeypatch.undo()
    assert row_stat(sample_block(g, 0, 8, 1)).dtype == count_type
    (counts,) = fold_block(
        [(g, lambda a: np.array([np.count_nonzero(a >= r) for r in rho_grid]))], n, 1, lambda rows: np.abs(rows[:, 0])
    )
    assert verify_tail(g, n, rho_grid)["survival"] == (counts / n).tolist()


def test_verify_tail_validation():
    g = make_ensemble("gaussian", seed=SEED)
    with pytest.raises(ValueError):
        verify_tail(g, 10**4, np.linspace(1, 4, 13))
    with pytest.raises(ValueError):
        verify_tail(g, 10**5, np.array([2.0, 1.0]))

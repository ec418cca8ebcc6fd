"""Random-variable families for coefficient randomization, with their
certificates (tail exponent and moment symmetry class).  Every family is
mean zero with second moment bounded below, so those two hypotheses carry
no flag.

Sampling is counter-based and fully deterministic: the draw for a given
(seed, omega_id, coeff_index) never depends on evaluation order, chunking,
or worker count.  Each omega gets its own Philox4x64-10 stream keyed by
(seed, omega_id); variate k of that stream is the gain of coefficient k.
One uniform is consumed per variate (inverse-CDF transforms throughout),
which is what makes the position addressing exact.  The transforms consume
their uniforms: every step runs in place on the input array, which then holds
the gains (the Weibull transform also uses one scratch tile of 8192 doubles),
bit-identical to the plain elementwise formulas.

Variate k is word k % 4 of the block at counter (k // 4 + 1, 0, 0, 0) (numpy
increments the counter before its first block), read as the uniform
(word >> 11) * 2**-53.  ``sample_gain_matrix`` wants many short streams:
``_philox_uniforms`` runs the ten Philox rounds in numpy over the whole
(omega x block) grid at once, bit-identical to numpy's ``Philox`` and about
15x faster than one ``Generator`` per omega.  The bulk matrix of the stream
keyed (seed, 0) holds variate (i, k) of its (n, width) rows at position
i * width + k; numpy's ``Generator``, advanced to a range's first block, reads
a range of it (about 10x faster on a long range).  ``sample_block`` is rows
[start, stop) of it in one family's law, the reference the tests fold.

Both streams have one chunking primitive on ``mc.run_chunked``: ``fold_block``
sums a bulk experiment's partials over chunks of the bulk matrix for every
family that shares the stream, drawing each chunk's uniforms once, a tile at a
time, and keeping per family only a per-row statistic of chunk length; and
``map_gains`` draws each chunk's ``sample_gain_matrix`` rows in one call, maps
a per-omega kernel over tiles of 256 of those rows and concatenates its values
in omega order.  In both, tiles start at multiples of 4 rows and leave no lone
row at a chunk's end (``_tile_bounds``), so every row keeps the bits that one
call on the whole chunk gives it.  The estimators on them live in ``proba``.

The Gaussian transform is scipy's ``ndtri`` ufunc.  ``_load_ndtri`` imports
it from the compiled ``scipy.special._ufuncs`` without running
``scipy.special``'s package init, which would load about 250 more modules
(scipy's array-API layer, ``numpy.ma``, ``numpy.testing``, ``numpy.f2py``)
into every process; a later ``import scipy.special`` binds the same ufunc
object.  Where that private module cannot be imported, the loader falls back
to the public ``scipy.special.ndtri``.
"""

from __future__ import annotations

import os
import sys
import types
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy 2 loads it on first attribute access: load it here, not in a command's work

from .mc import run_chunked

__all__ = [
    "EnsembleSpec",
    "make_ensemble",
    "FAMILIES",
    "fold_block",
    "map_gains",
]


def _load_ndtri():
    """scipy's ``ndtri`` ufunc and the module it was read from.

    An already loaded ``scipy.special`` gives it.  Otherwise the compiled
    ``scipy.special._ufuncs`` is imported under a stand-in ``scipy.special``,
    a bare module whose ``__path__`` is scipy's ``special`` directory, held in
    ``sys.modules`` for that import only; the extension modules it loads stay
    there, so a later ``import scipy.special`` reuses them.  If that private
    route fails, the public package gives it.
    """
    loaded = sys.modules.get("scipy.special")
    if loaded is not None:
        return loaded.ndtri, "scipy.special"
    try:
        import scipy

        stand_in = types.ModuleType("scipy.special")
        stand_in.__path__ = [os.path.join(path, "special") for path in scipy.__path__]
        sys.modules["scipy.special"] = stand_in
        try:
            from scipy.special._ufuncs import ndtri
        finally:
            if sys.modules.get("scipy.special") is stand_in:
                del sys.modules["scipy.special"]
        return ndtri, "scipy.special._ufuncs"
    except (ImportError, AttributeError):
        from scipy.special import ndtri

        return ndtri, "scipy.special"


# NDTRI_MODULE is recorded in the run manifest
ndtri, NDTRI_MODULE = _load_ndtri()

FAMILIES = (
    "gaussian",
    "rademacher",
    "uniform_symmetric",
    "symmetric_weibull",
    "centered_two_point",
)

# canonical mean-zero, non-symmetric witness: values {2, -1/2} w.p. {1/5, 4/5}
TWO_POINT_HIGH = 2.0
TWO_POINT_LOW = -0.5
TWO_POINT_P_HIGH = 0.2

_SYMMETRIC = ("gaussian", "rademacher", "uniform_symmetric", "symmetric_weibull")


@dataclass(frozen=True)
class EnsembleSpec:
    """A family of iid coefficient gains together with its odd-moment flag.

    gamma is the certified tail exponent: survival of |g| is bounded by
    C exp(-c rho^gamma).  Bounded families (rademacher, uniform, two-point)
    satisfy that for every exponent; they are certified at gamma = 2, the
    strongest value the concentration table uses.
    """

    family: str
    gamma: float
    seed: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")

    @property
    def satisfies_HE1(self) -> bool:
        """All odd moments vanish: the family's inverse-CDF transform is odd
        about u = 1/2, g(u) = -g(1 - u), which the test suite asserts."""
        return self.family in _SYMMETRIC


def make_ensemble(family: str, seed: int, gamma: float | None = None) -> EnsembleSpec:
    """Build an EnsembleSpec at its certified tail exponent.

    The odd-moment flag is not a parameter: it follows from the family.  The
    two-point family's zero mean follows from the TWO_POINT_* constants alone;
    the test suite asserts it.
    """
    if family == "symmetric_weibull":
        if gamma is None:
            raise ValueError("symmetric_weibull requires an explicit gamma in (0, 2]")
        if not 0 < gamma <= 2:
            raise ValueError(f"symmetric_weibull gamma must lie in (0, 2], got {gamma}")
    else:
        expected = 2.0
        if gamma is not None and gamma != expected:
            raise ValueError(f"{family} is certified at gamma = {expected}, got {gamma}")
        gamma = expected
    return EnsembleSpec(family=family, gamma=float(gamma), seed=int(seed))


# variates per scratch tile of the Weibull transform (64 KiB of doubles)
_WEIBULL_TILE = 8192


def _from_uniforms(spec: EnsembleSpec, u: np.ndarray) -> np.ndarray:
    """Map uniforms on [0, 1) to the family's law, one variate per uniform.

    A contiguous float array ``u`` is consumed: the result is written into it,
    so a caller that reads ``u`` again passes a copy.
    """
    u = np.ascontiguousarray(u, dtype=float)
    if spec.family == "gaussian":
        # fl(1 - 1e-16) is the largest double below 1
        np.clip(u, 1e-300, 1.0 - 1e-16, out=u)
        return ndtri(u, out=u)
    if spec.family == "rademacher":
        # u - 1/2 is negative exactly when u < 1/2, and +0.0 at u = 1/2
        np.subtract(u, 0.5, out=u)
        return np.copysign(1.0, u, out=u)
    if spec.family == "uniform_symmetric":
        # uniform on [-sqrt(3), sqrt(3)]: unit variance
        u *= 2.0
        u -= 1.0
        u *= np.sqrt(3.0)
        return u
    if spec.family == "symmetric_weibull":
        # magnitude has exact survival exp(-x^gamma); sign from the same uniform.
        # 2 min(u, 1 - u) is exactly 2u below 1/2 and 2(1 - u) above, where
        # 1 - u is exact (Sterbenz).  The sign is a factor -1 or 1 applied last,
        # not copied onto the magnitude, so u = 1/2 keeps the -0.0 that -log(1) gives.
        # The magnitude needs a second array; it is built one tile of u at a
        # time in one small scratch array, not in a copy of the whole of u.
        flat = u.reshape(-1)  # a view: u is contiguous
        scratch = np.empty(min(flat.size, _WEIBULL_TILE))
        for lo in range(0, flat.size, _WEIBULL_TILE):
            x = flat[lo : lo + _WEIBULL_TILE]
            w = scratch[: x.size]
            np.subtract(1.0, x, out=w)
            np.minimum(x, w, out=w)
            w *= 2.0
            np.maximum(w, 2.0**-53, out=w)  # 2 min(u, 1 - u) <= 1 already
            np.log(w, out=w)
            np.negative(w, out=w)
            np.power(w, 1.0 / spec.gamma, out=w)
            np.subtract(x, 0.5, out=x)
            np.copysign(1.0, x, out=x)
            x *= w
        return u
    if spec.family == "centered_two_point":
        # 1.0 where u < p, else 0.0, mapped exactly onto HIGH and LOW
        np.less(u, TWO_POINT_P_HIGH, out=u)
        u *= TWO_POINT_HIGH - TWO_POINT_LOW
        u += TWO_POINT_LOW
        return u
    raise ValueError(f"unknown family {spec.family!r}")


# Philox4x64 round multipliers and Weyl key increments (Salmon et al., SC'11)
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_MASK32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhilo(m: np.uint64, x: np.ndarray):
    """High and low words of the 128-bit product m * x, from 32-bit halves."""
    m_lo, m_hi, x_lo, x_hi = m & _MASK32, m >> _SHIFT32, x & _MASK32, x >> _SHIFT32
    lh, hl = x_lo * m_hi, x_hi * m_lo
    mid = ((x_lo * m_lo) >> _SHIFT32) + (lh & _MASK32) + (hl & _MASK32)
    return x_hi * m_hi + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32), x * m


def _philox_uniforms(seed: int, omega_ids, count: int) -> np.ndarray:
    """Row r equals Generator(Philox(key=[seed, omega_ids[r]])).random(count), in one pass."""
    blocks = -(-count // 4)
    zero = np.zeros((1, 1), dtype=np.uint64)  # 2-D arrays wrap silently where scalars warn
    k0 = np.full((1, 1), seed, dtype=np.uint64)
    k1 = np.asarray(omega_ids, dtype=np.uint64).reshape(-1, 1)
    c0, c1, c2, c3 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :], zero, zero, zero
    for r in range(10):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        (hi0, lo0), (hi1, lo1) = _mulhilo(_PHILOX_M[0], c0), _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=-1).reshape(len(k1), 4 * blocks)
    return (words[:, :count] >> np.uint64(11)) * 2.0**-53


def sample_gain_matrix(spec: EnsembleSpec, omega_ids, count: int) -> np.ndarray:
    """Stacked gains for many omegas, shape (len(omega_ids), count); row r is
    variates 0..count-1 of the stream keyed (seed, omega_ids[r])."""
    return _from_uniforms(spec, _philox_uniforms(spec.seed, omega_ids, count))


# variates per chunk of the bulk fold, the unit of its partial sums
_BULK_CHUNK = 2**20
# variates per tile of a chunk's draw (512 KiB of doubles)
_BULK_TILE = 2**16
# gain rows per chunk of map_gains, one Philox draw each (the kernels' arrays are a tile's).
# A draw costs about 0.3 ms a call besides its rows: 256-row chunks made a cold
# paley-zygmund's work about 20 % slower (2-core Xeon VM, one BLAS thread)
_GAIN_CHUNK = 1024
# gain rows per call of a map_gains kernel, a multiple of 4 (see _tile_bounds)
_GAIN_TILE = 256


def _tile_bounds(rows: int, tile: int) -> list:
    """Bounds of the tiles of a chunk of ``rows`` rows: every tile starts at a
    multiple of ``tile`` (itself a multiple of 4), and a lone row left at the
    end joins the tile before it.

    Row-tile rule of the Monte Carlo kernels, whose rows are the rows of a
    (rows x width) product: OpenBLAS takes a row's product through a kernel
    chosen by the row's place in groups of four rows, and a one-row product
    through another one, so a call on each tile gives every row the bits of
    one call on the whole chunk.  ``test_kernel_tiles_leave_no_lone_row``
    pins it.  The Picard pass, whose rows are columns of its contractions,
    keeps a lone last row by the other rule (``BasisGrid.project_pointwise``).
    """
    return [*range(0, max(rows - 1, 1), tile), rows]


def _bulk_stream(seed: int, first: int) -> np.random.Generator:
    """numpy's Generator on the stream keyed (seed, 0), positioned at variate ``first``."""
    gen = np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(0)]))
    gen.bit_generator.advance(first // 4)
    gen.random(first % 4)
    return gen


def sample_block(spec: EnsembleSpec, start: int, stop: int, width: int) -> np.ndarray:
    """Rows [start, stop) of the (n, width) bulk matrix of the stream keyed
    (seed, 0) in spec's law; variate (i, k) sits at position i * width + k."""
    u = _bulk_stream(spec.seed, start * width).random((stop - start) * width)
    return _from_uniforms(spec, u).reshape(stop - start, width)


def fold_block(families, n_samples: int, width: int, row_stat, workers: int = 1) -> list:
    """Per (spec, partial) pair of ``families``, the sum of partial(stats) over
    the chunks of the (n_samples, width) bulk matrix in spec's law.

    The families share the stream keyed (seed, 0), so one seed for all.  A
    chunk holds max(1, 2**20 // width) rows; its uniforms are drawn once, a
    tile of about 2**16 at a time, and every family maps its own copy of the
    tile to its law.  row_stat(rows) gives a statistic per row of the tile
    (its last axis runs over the rows), and stats is that statistic over the
    whole chunk, in the statistic's dtype, so partial sums over the chunk's
    rows keep the bits of a fold over whole chunks of rows.  The partials are added left to right in
    chunk order, so the result is bitwise independent of workers.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    seeds = sorted({spec.seed for spec, _ in families})
    if len(seeds) != 1:
        raise ValueError(f"families folded over one bulk stream must share its seed, got seeds {seeds}")
    chunk = max(1, _BULK_CHUNK // width)
    tile = max(4, _BULK_TILE // width // 4 * 4)

    def chunk_stats(a, b):
        gen = _bulk_stream(seeds[0], a * width)
        bounds = _tile_bounds(b - a, tile)
        u = np.empty(min(tile + 1, b - a) * width)
        copy = np.empty_like(u) if len(families) > 1 else None
        stats = [None] * len(families)
        for lo, hi in zip(bounds, bounds[1:]):
            size = (hi - lo) * width
            gen.random(out=u[:size])
            for f, (spec, _) in enumerate(families):
                x = u[:size]
                if f < len(families) - 1:  # the last family consumes the uniforms
                    x = copy[:size]
                    x[...] = u[:size]
                stat = row_stat(_from_uniforms(spec, x).reshape(hi - lo, width))
                if stats[f] is None:
                    stats[f] = np.empty(stat.shape[:-1] + (b - a,), stat.dtype)
                stats[f][..., lo:hi] = stat
        return stats

    def kernel(a, b):
        # the tiles are freed before the partials run
        return [partial(stats) for (_, partial), stats in zip(families, chunk_stats(a, b))]

    acc = [0.0] * len(families)
    for parts in run_chunked(n_samples, kernel, workers, chunk):
        acc = [total + part for total, part in zip(acc, parts)]
    return acc


def map_gains(spec: EnsembleSpec, n_samples: int, width: int, kernel, workers: int = 1) -> np.ndarray:
    """kernel's per-omega values over omegas 0 .. n_samples - 1, in omega order.

    Each run_chunked chunk [a, b) draws the gain rows
    sample_gain_matrix(spec, arange(a, b), width) in one call, which has a
    fixed cost that a call per tile would pay four times.  kernel(gains) ->
    values then runs on tiles of those rows by ``_tile_bounds``, so its
    temporaries are a tile's, not a chunk's; values have one entry per row
    along their last axis.  The values are concatenated along that axis in
    tile and chunk order, so the result is bitwise independent of workers.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")

    def chunk(a, b):
        gains = sample_gain_matrix(spec, np.arange(a, b), width)
        bounds = _tile_bounds(b - a, _GAIN_TILE)
        return np.concatenate([kernel(gains[lo:hi]) for lo, hi in zip(bounds, bounds[1:])], axis=-1)

    return np.concatenate(run_chunked(n_samples, chunk, workers, _GAIN_CHUNK), axis=-1)

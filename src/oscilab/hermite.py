"""Hermite eigenbasis of the quantum harmonic oscillator -del^2 + |x|^2.

Provides orthonormal Hermite functions on R^d with total-degree truncation,
Gauss-Hermite quadrature adapted to function space (the Gaussian factor is
folded into the weights analytically, so nothing overflows at large node
counts), and analysis/synthesis between coefficient and physical space.  The
nodes come from LAPACK's O(q^2) tridiagonal ``dsterf`` in the OpenBLAS that
numpy already loads, with the bits of scipy's tridiagonal solver and of
numpy's dense ``eigvalsh``, its fallback (see ``gauss_hermite_nodes``), so no
scipy is needed.  A basis builds its quadrature on first read only.

A tensor grid (quadrature nodes, the audit grid, lens grids) is kept as its
1-D axis, its points in C order; its weights and |y|^2 (``grid_radius2``)
are outer products and sums over the axis, so no (points x d) array exists.
Fields are evaluated on it by sum factorization, the same path at every d:
the coefficients fill the (N+1)^d box, zero above total degree N, and the
box is contracted with the 1-D Hermite table one axis at a time, never with
a (modes x grid points) table; quadrature analysis runs it backwards.  L^r
norms are reduced tile by tile along the first axis.  The sup is an exact
branch and bound over the same contractions: a slab of the grid whose bound,
from the largest |h_n| on the audit axis, cannot beat the running max is
never synthesized (``BasisGrid.audit_sup``); at d = 1 the first contraction
is the values.

Every 1-D value comes from one recurrence kernel, ``_recurrence``, which
keeps only the rows its caller reads: ``hermite_function_values`` keeps all
of them, each Newton step of ``gauss_hermite_nodes`` keeps h_{q-1} and h_q,
and its last pass keeps h_{q-1} for the weights together with rows 0..N,
``BasisGrid.eval_table``.  The kernel tests for overflow only every
few steps, at no cost to the bits (see ``_recurrence``).
"""

from __future__ import annotations

import ctypes
import itertools
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .blas import openblas_function

__all__ = [
    "BasisGrid",
    "BasisError",
    "build_basis",
    "cached_basis",
    "enumerate_multi_indices",
    "hermite_function_values",
    "gauss_hermite_nodes",
    "audit_axis",
    "grid_radius2",
]

# hard ceiling on the coefficient enumeration; build_basis refuses beyond it
DEFAULT_COEFF_BUDGET = 200_000

AUDIT_POINTS_PER_UNIT = 16
AUDIT_MARGIN = 4.0

# largest tile of grid values that BasisGrid.audit_tiles holds at once; a batch of
# BasisGrid.audit_sup takes a quarter of it
AUDIT_TILE_BYTES = 8 * 2**20

# largest tile of the grid-sized temporaries that build a value array: the complex phase of
# lens.lens_forward and the grid values of a run of fields._smoothing_blocks
GRID_TILE_BYTES = 2**18

# relative slack of the audit sup's cell bounds over the rounding of the values they bound;
# derived in BasisGrid.audit_sup
_SUP_BOUND_MARGIN = 1e-12

# ceiling on the bytes of a basis's tensor grid (nodes and weights); build_basis refuses beyond it
GRID_BYTES_BUDGET = 2**30


class BasisError(ValueError):
    """Invalid basis construction request or basis/field mismatch."""


def _recurrence(n_max: int, x: np.ndarray, rows) -> np.ndarray:
    """Rows ``rows`` (distinct, each in 0..n_max) of the table h_n(x), shape (len(rows), len(x)).

    The one recurrence kernel.  It runs the normalized three-term recurrence
    ``h_{n+1}(x) = x sqrt(2/(n+1)) h_n(x) - sqrt(n/(n+1)) h_{n-1}(x)``
    from ``h_0(x) = pi^(-1/4) exp(-x^2/2)`` on mantissa/exponent pairs: the
    Gaussian seed underflows past |x| ~ 38.6 although the high-order values
    it feeds are O(1), so each point carries a power-of-two exponent that the
    growth of the recurrence pays back.  When a point's mantissa pair exceeds
    2^300, both are multiplied by 2^-600 and its exponent raised by 600.  The
    test runs only every few steps, as many as a growth bound allows before a
    mantissa could near 2^1024; a power-of-two scaling of a normal pair is
    exact and the recurrence is linear, so when it happens changes no output
    bit.  Rows not in ``rows`` are stepped through three buffers and never
    leave the mantissas.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    slot = {n: i for i, n in enumerate(rows)}
    out = np.empty((len(slot), x.size))
    log_h0 = -0.5 * x * x - 0.25 * np.log(np.pi)
    exponent = np.floor(log_h0 / np.log(2.0)).astype(np.int64)
    prev = np.exp(log_h0 - exponent * np.log(2.0))  # mantissa of h_0, O(1)
    # int32 takes numpy's native ldexp loop; past +-2^30 every finite mantissa gives 0 or inf alike
    exponent = np.clip(exponent, -(2**30), 2**30).astype(np.int32)
    if 0 in slot:
        np.ldexp(prev, exponent, out=out[slot[0]])
    if n_max == 0:
        return out
    cur = np.sqrt(2.0) * x * prev
    if 1 in slot:
        np.ldexp(cur, exponent, out=out[slot[1]])
    k = np.arange(1, n_max)
    step_x = np.sqrt(2.0 / (k + 1))
    step_prev = np.sqrt(k / (k + 1.0))
    nxt = np.empty_like(x)
    big = np.empty(x.shape, dtype=bool)
    # from k = 1 on both coefficients are at most 1, so a step grows max(|h_k|, |h_{k+1}|) by at
    # most 1 + max|x|: a pair at most 2^300 after one test stays at most 2^900 until the next, and
    # its products below 2^1024.  Past |x| ~ 2^100 (or at a non-finite x) the test runs every step.
    growth = float(np.log2(1.0 + np.max(np.abs(x), initial=0.0)))
    every = int(600 // max(growth, 1.0)) if growth < 100 else 1
    for k in range(1, n_max):
        np.multiply(x, step_x[k - 1], out=nxt)
        nxt *= cur
        prev *= step_prev[k - 1]
        nxt -= prev
        if k % every == 0:
            np.greater(np.maximum(np.abs(cur), np.abs(nxt)), 2.0**300, out=big)
            if big.any():
                # shift the scale into the exponent; the pair keeps its ratio
                np.multiply(nxt, 2.0**-600, out=nxt, where=big)
                np.multiply(cur, 2.0**-600, out=cur, where=big)
                np.add(exponent, 600, out=exponent, where=big)
        if k + 1 in slot:
            np.ldexp(nxt, exponent, out=out[slot[k + 1]])
        prev, cur, nxt = cur, nxt, prev
    return out


def hermite_function_values(n_max: int, x: np.ndarray) -> np.ndarray:
    """Values of the orthonormal 1-D Hermite functions 0..n_max at points x.

    Every row of the recurrence kernel ``_recurrence``: an array of shape
    (n_max + 1, len(x)) with row n equal to h_n(x).
    """
    return _recurrence(n_max, x, range(n_max + 1))


@cache
def _dsterf():
    """LAPACK's ILP64 ``dsterf`` from numpy's OpenBLAS, or None where that library has no such symbol."""
    int64_p = ctypes.POINTER(ctypes.c_int64)
    return openblas_function("scipy_dsterf_64_", None, int64_p, ctypes.c_void_p, ctypes.c_void_p, int64_p)


def _jacobi_eigenvalues(q: int) -> np.ndarray:
    """Ascending eigenvalues of the q x q Jacobi matrix of exp(-x^2): diagonal 0, off-diagonal sqrt(k/2).

    ``dsterf`` (implicit QL/QR without vectors) on the two diagonals, in
    O(q^2) time and O(q) memory.  Where numpy's LAPACK has no ``dsterf``
    symbol the dense ``eigvalsh`` of the full matrix gives the same bits:
    its ``dsytrd`` leaves a tridiagonal matrix as it is and passes it to
    that same ``dsterf``.
    """
    off = np.sqrt(np.arange(1, q) / 2.0)
    dsterf = _dsterf()
    if dsterf is None:
        # eigvalsh reads the lower triangle: the sub-diagonal
        return np.linalg.eigvalsh(np.diag(off, -1))
    diag = np.zeros(q)  # overwritten with the eigenvalues; off is destroyed
    info = ctypes.c_int64(0)
    dsterf(ctypes.byref(ctypes.c_int64(q)), diag.ctypes.data, off.ctypes.data, ctypes.byref(info))
    if info.value:
        raise BasisError(f"dsterf failed on the size-{q} Jacobi matrix (info = {info.value})")
    return diag


def gauss_hermite_nodes(q: int, table_degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and function-space weights of size q, with the
    table h_0..h_table_degree on the nodes.

    The nodes are the zeros of the degree-q Hermite polynomial: the
    Golub-Welsch eigenvalues of the Jacobi matrix, polished with two Newton
    steps.  ``_jacobi_eigenvalues`` calls LAPACK's tridiagonal ``dsterf``,
    the routine behind scipy's ``eigh_tridiagonal``, on the matrix's two
    diagonals, so the bits are scipy's without scipy.  Numpy's dense
    ``eigvalsh`` is the fallback where numpy's LAPACK has no ``dsterf``: it
    ends in the same routine, with the same bits, but is O(q^3) and holds
    q x q matrices.  With one BLAS thread on a 2-core Xeon VM this whole
    call (table degree 0) took 10.3 ms at q = 514 (dense: 22.7 ms), 0.11 s
    at q = 2050 (0.91 s) and 0.41 s with +0.8 MB of RSS at q = 4098 (7.5 s
    with +259 MB).  The weights are the classical
    Gauss-Hermite weights with the Gaussian already divided out,
    via the identity ``w_j e^{x_j^2} = 1 / (q h_{q-1}(x_j)^2)``, so that

        sum_j w_j f(x_j) == integral f(x) dx

    exactly for f = (polynomial of degree <= 2q-1) * exp(-x^2).  Computing
    the folded weight directly keeps everything finite; the raw weights
    underflow past ~180 nodes.

    Each Newton step keeps only the rows h_{q-1} and h_q of its recurrence
    pass, and one last pass on the polished nodes keeps h_{q-1} for the
    weights and rows 0..table_degree for the table (``BasisGrid``'s
    ``eval_table``), so no (q+1) x q table is built.
    """
    if q < 1:
        raise BasisError(f"quadrature size must be >= 1, got {q}")
    nodes = _jacobi_eigenvalues(q)
    for _ in range(2):
        h_below, h_q = _recurrence(q, nodes, (q - 1, q))
        # d/dx h_q = sqrt(2q) h_{q-1} - x h_q
        deriv = np.sqrt(2.0 * q) * h_below - nodes * h_q
        nodes = nodes - h_q / deriv
    rows = sorted({*range(table_degree + 1), q - 1})
    table = _recurrence(rows[-1], nodes, rows)
    weights = 1.0 / (q * table[rows.index(q - 1)] ** 2)
    return nodes, weights, table[: table_degree + 1]


def enumerate_multi_indices(dim: int, max_degree: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices n in N^dim with |n| <= max_degree, graded lexicographic.

    Degree by degree, the heads n[:-1] come in lexicographic order and each
    fixes its last entry, so no sort is needed.
    """
    out = []
    for total in range(max_degree + 1):
        for head in itertools.product(range(total + 1), repeat=dim - 1):
            rest = total - sum(head)
            if rest >= 0:
                out.append(head + (rest,))
    return tuple(out)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class BasisGrid:
    """Hermite basis of R^dim truncated at total degree max_degree.

    Frozen, with read-only arrays, so worker threads share it safely; each
    derived table is a cached property, built on first use (threads racing
    on it build equal copies).  The quadrature is one of them: ``axis_nodes``,
    ``axis_weights`` and ``eval_table`` come from one ``gauss_hermite_nodes``
    call on first read, so a basis read only for its enumeration or its
    audit grid builds no nodes.  On the tensor grid y of ``axis_nodes``,
    ``sum_j weights[j] f(y_j)`` approximates the integral of f over R^dim
    for smooth decaying f, and is exact when f is a polynomial of per-axis
    degree <= 2*quad_per_axis - 1 times the squared Gaussian.  ``eval_table``
    and ``audit_table()`` are the per-axis tables h_n(y_j), shape (N+1, P),
    of the nodes and the audit grid.  ``grid_values`` synthesizes coefficient
    rows on such a grid by contracting the coefficient box with the per-axis
    table one axis at a time, at most N+1 multiply-adds per grid value and
    axis instead of one per basis function; ``grid_coeffs`` is the quadrature
    analysis back, ``project_pointwise`` is the analysis of an elementwise
    function of the synthesized values, formed in place in one grid-sized
    array, and ``audit_tiles`` yields |u| tile by tile for L^r norms.
    ``audit_sup`` gives the max over those tiles bit for bit, but contracts
    only the slabs and pencils of the grid whose rigorous bound can beat the
    running max.  Each method has one path for every dim, d = 1 included,
    except ``audit_sup_bound``, which at d = 1 returns ``audit_sup`` itself.
    """

    dim: int
    max_degree: int
    quad_per_axis: int
    indices: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.indices)

    @cached_property
    def _quadrature(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:  # axis nodes, axis weights, eval_table
        return tuple(map(_read_only, gauss_hermite_nodes(self.quad_per_axis, self.max_degree)))

    @cached_property
    def axis_nodes(self) -> np.ndarray:  # (quad_per_axis,)
        return self._quadrature[0]

    @cached_property
    def axis_weights(self) -> np.ndarray:  # (quad_per_axis,)
        return self._quadrature[1]

    @cached_property
    def eval_table(self) -> np.ndarray:  # (max_degree + 1, quad_per_axis)
        return self._quadrature[2]

    @cached_property
    def weights(self) -> np.ndarray:  # (quad_per_axis^dim,), outer products of the axis weights
        weights = self.axis_weights
        for _ in range(1, self.dim):
            weights = np.multiply.outer(weights, self.axis_weights).ravel()
        return _read_only(weights)

    @cached_property
    def degrees(self) -> np.ndarray:  # |n| per enumerated index
        return _read_only(np.array([sum(n) for n in self.indices], dtype=int))

    @cached_property
    def lambda2(self) -> np.ndarray:  # 2|n| + dim per enumerated index
        return _read_only(2.0 * self.degrees + self.dim)

    @cached_property
    def radius2(self) -> np.ndarray:  # |y|^2 at the quadrature nodes
        return _read_only(grid_radius2(self.axis_nodes, self.dim))

    @cached_property
    def _positions(self) -> dict:
        return {n: k for k, n in enumerate(self.indices)}

    @cached_property
    def _index_array(self) -> np.ndarray:
        return _read_only(np.array(self.indices, dtype=np.intp).reshape(self.size, self.dim))

    @cached_property
    def _box_positions(self) -> np.ndarray:  # flat position of each enumerated index in the C-order (N+1)^dim box
        return _read_only(np.ravel_multi_index(tuple(self._index_array.T), (self.max_degree + 1,) * self.dim))

    @cached_property
    def audit_partial_points(self) -> int:  # entries per row of the audit sup's first-axis partial, built from no table
        return audit_axis(self.max_degree, self.dim).size * (self.max_degree + 1) ** (self.dim - 1)

    @cached_property
    def _audit_table(self) -> np.ndarray:
        return _read_only(hermite_function_values(self.max_degree, audit_axis(self.max_degree, self.dim)))

    @cached_property
    def _audit_peak(self) -> np.ndarray:  # max_j |h_n(y_j)| on the audit axis, per degree n
        return _read_only(np.abs(self._audit_table).max(axis=1))

    def index_position(self, index) -> int:
        key = (int(index),) if np.isscalar(index) else tuple(int(i) for i in index)
        try:
            return self._positions[key]
        except KeyError:
            raise BasisError(f"multi-index {key} outside basis (d={self.dim}, N={self.max_degree})")

    def eval_at(self, points: np.ndarray) -> np.ndarray:
        """Evaluate every basis function at arbitrary points, shape (size, n_points).

        Off-node synthesis works directly through the recurrence, so there is
        no interpolation error floor.
        """
        pts = np.asarray(points, dtype=float)
        if self.dim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise BasisError(f"points must have shape (m, {self.dim})")
        idx = self._index_array
        out = hermite_function_values(self.max_degree, pts[:, 0])[idx[:, 0]]
        for a in range(1, self.dim):
            out = out * hermite_function_values(self.max_degree, pts[:, a])[idx[:, a]]
        return out

    def audit_table(self) -> np.ndarray:
        """Per-axis audit table h_n(y_j), shape (N+1, P), on the audit axis y."""
        return self._audit_table

    def audit_cell_volume(self) -> float:
        ax = audit_axis(self.max_degree, self.dim)
        return float((ax[1] - ax[0]) ** self.dim)

    def grid_values(self, coeffs: np.ndarray, table: np.ndarray) -> np.ndarray:
        """Values of coefficient rows on the tensor grid of a per-axis table.

        ``coeffs`` has shape (..., size) and ``table[n, j] = h_n(y_j)`` shape
        (N+1, P); the result has shape (..., P^dim), the points y^dim in C
        order.  The coefficients are scattered into the (N+1)^dim box and
        contracted with the table one axis at a time.
        """
        coeffs = np.asarray(coeffs)
        vals = self._contract(self._box(coeffs.reshape(-1, self.size)), table, range(self.dim))
        return np.moveaxis(vals, -1, 0).reshape(coeffs.shape[:-1] + (-1,))

    def grid_coeffs(self, values: np.ndarray, table: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Quadrature analysis sum_j weights[j] h_n(y_j) values[..., j] on the grid of grid_values.

        The weighted values are contracted with the transposed table one grid
        axis at a time, and the basis positions of the box kept.
        """
        values = np.asarray(values)
        rows = values.reshape(-1, weights.size)
        weighted = np.multiply(rows.T, weights[:, None], order="C")  # (points, m), contiguous for _contract
        return self._analyze(weighted, table).reshape(values.shape[:-1] + (-1,))

    def project_pointwise(self, coeffs: np.ndarray, table: np.ndarray, weights: np.ndarray, pointwise) -> np.ndarray:
        """``grid_coeffs(f(grid_values(coeffs, table)), table, weights)`` bit for bit, for an elementwise f.

        ``coeffs`` has shape (m, size).  The rows are synthesized into the
        contraction's own contiguous (points, m) array, ``pointwise(values)``
        overwrites it with f(values), and it is weighted in place and
        contracted back: no other grid-sized array is made here.

        Row-tile rule of the Picard pass: rows are independent, and a call on
        rows lo:hi gives the bits of the whole call's rows when lo is a
        multiple of 4, and hi may end anywhere, one row past lo included: a
        row is a column of each contraction, whose bits depend on its place in
        OpenBLAS's column blocking, and tiles from other offsets change some.
        ``picard._Workspace`` tiles by this rule.
        ``test_tiles_of_four_rows_keep_the_bits_of_the_whole`` pins it here,
        for ``audit_sup`` too, with one-row last tiles among its widths, and
        ``test_tiled_passes_are_the_whole_passes_bitwise`` through the
        workspace.  The Monte Carlo kernels, whose rows are the rows of a
        product, tile by the other rule, ``ensembles._tile_bounds``.
        """
        coeffs = np.asarray(coeffs)
        values = self._contract(self._box(coeffs), table, range(self.dim)).reshape(-1, coeffs.shape[0])
        pointwise(values)
        values *= weights[:, None]
        return self._analyze(values, table)

    def _analyze(self, weighted: np.ndarray, table: np.ndarray) -> np.ndarray:
        """The (m, size) coefficients of C-contiguous (points, m) grid values already multiplied by the weights."""
        box = self._contract(weighted.reshape((table.shape[1],) * self.dim + (-1,)), table.T, range(self.dim))
        return box.reshape(-1, weighted.shape[1])[self._box_positions].T

    def audit_tiles(self, coeffs: np.ndarray):
        """|u| on the audit grid for each row of ``coeffs`` (shape (m, size)), as (points, m) tiles.

        The grid is cut along its first axis, a tile holding about
        AUDIT_TILE_BYTES of values (at least one point or slice), so the
        (m, P^dim) values never exist at once.  Every tile runs the same
        equal-shape contractions, so no value depends on the tile size.
        """
        coeffs = np.asarray(coeffs)
        table = self.audit_table()
        m = coeffs.shape[0]
        partial = self._contract(self._box(coeffs), table, range(1))
        tile = max(1, AUDIT_TILE_BYTES // (partial.itemsize * m * table.shape[1] ** (self.dim - 1)))
        for lo in range(0, len(partial), tile):
            yield np.abs(self._contract(partial[lo : lo + tile], table, range(1, self.dim))).reshape(-1, m)

    def audit_sup(self, coeffs: np.ndarray) -> np.ndarray:
        """max |u| over the audit grid for each row of ``coeffs`` (shape (m, size)).

        An exact branch and bound that works one grid axis at a time; at d = 1
        the first-axis contraction already gives the values, whose |u| is
        maxed a quarter of AUDIT_TILE_BYTES at a time.

        Bound: with M[n] = max_j |h_n(y_j)| over the audit table and
        ``partial`` the first-axis contraction of ``audit_tiles``, every |u| in
        slab i (the points whose first coordinate is y_i) of row r is at most

            U[i, r] = (1 + _SUP_BOUND_MARGIN) sum_{n_2..n_d} |partial[i, n_2..n_d, r]| prod_k M[n_k].

        Skip rule: the slabs are visited in decreasing order of
        max_r U[i, r] / max_i U[i, r], first one slab, then batches of a quarter
        of AUDIT_TILE_BYTES.  Before each batch, a slab with ``U <= sup`` for
        every row, ``sup`` the running max, is dropped: it cannot raise any
        row's max.  A bound that is not finite is NaN, which fails the test,
        so rows holding NaN or inf are never pruned.  The kept slabs are
        contracted along axis 2; above d = 2 their pencils are bounded and
        pruned in the same way, and only the last axis gives values
        (``_sup_walk``, ``_cell_bounds``).

        Margin: with u = 2^-53, K = N + 1 and gamma_K = K u / (1 - K u), the
        real and imaginary parts of a value are d - 1 nested length-K dot
        products of ``partial`` with |h_n(y_j)| <= M[n], so each is at most
        (1 + gamma_K)^(d-1) times the same nested sums over |Re partial| or
        |Im partial|; hypot (within one ulp) and Minkowski's inequality bound
        the computed |u| by (1 + 2u) (1 + gamma_K)^(d-1) sum |partial| prod M.
        The computed U loses at most 2u on |partial|, (1 - gamma_K)^(d-1) on
        its nested sums of nonnegative terms and u on the margin product, so
        the margin must exceed about 2 (d - 1) gamma_K + 5u: 1e-12 covers
        K <= 4000 at d = 2 and K <= 2000 at d = 3, and DEFAULT_COEFF_BUDGET
        caps K at 631 and 105.  Underflow is outside this count, so a bound
        below 2^-900 of a slab with a nonzero entry is NaN too.

        Bits: the result is the max over ``audit_tiles`` bit for bit.  Every
        kept slab or pencil goes through the same equal-shape matmul as in a
        tile (see ``_contract``), max is exact, and a dropped cell holds no
        value above the running max.
        """
        coeffs = np.asarray(coeffs)
        sup = np.zeros(coeffs.shape[0])
        table = self.audit_table()
        partial = self._contract(self._box(coeffs), table, range(1))
        self._sup_walk(partial, table, self._audit_peak, sup)
        return sup

    def audit_sup_bound(self, coeffs: np.ndarray) -> np.ndarray:
        """An upper bound on ``audit_sup`` for each row of ``coeffs`` (shape (m, size)), from its walk's first level.

        At d >= 2 it is max_i U[i, r] over the slab bounds U of ``audit_sup``
        (``_cell_bounds`` of the same first-axis partial, with the same
        margin), and NaN wherever one slab bound of the row is NaN, that is,
        not rigorous.  Every computed |u| of row r is at most U[i, r] of its
        slab, the fact the walk's skip rule relies on, so the result is at
        least the computed ``audit_sup`` of the row.  At d = 1 the partial is
        the values, and the result is ``audit_sup`` itself.

        So for weights w >= 0, sqrt(sum_r w[r] sup[r]^2) as computed is at
        most sqrt(sum_r w[r] bound[r]^2) as computed: squaring, weighting,
        numpy's fixed-order pairwise sum and sqrt are each monotone in
        floating point.  ``picard._Workspace.surrogate_norm`` decides its max
        on that without walking the grid.

        The d = 1 branch is not needed for the bits: there the slab bound is
        |u| times the margin, and a solve's stopping norms keep their bits
        through it.  It stays for speed: on the d = 1, N = 32 reference solve
        (65 time nodes, 2-core Xeon VM) a stopping-norm evaluation took about
        0.9 ms and 166 minor page faults through the slab bound, and 0.74 ms
        and 117 faults through the walk, which the bound would not spare.
        """
        if self.dim == 1:
            return self.audit_sup(coeffs)
        partial = self._contract(self._box(np.asarray(coeffs)), self.audit_table(), range(1))
        return _cell_bounds(partial, self._audit_peak).max(axis=0)

    def _sup_walk(self, cells: np.ndarray, table: np.ndarray, peak: np.ndarray, sup: np.ndarray) -> None:
        """Raise ``sup`` (shape (m,)) to max |u| over the grid points of ``cells``, by branch and bound.

        ``cells`` has shape (S, N+1, ..., N+1, m): S grid cells with their
        remaining degree axes.  With none left they are grid values, shape
        (points, m), whose |u| is maxed a quarter of AUDIT_TILE_BYTES at a
        time.  Otherwise cells go in decreasing order of their best normalized
        bound; each batch first drops the cells that ``sup`` rules out, then
        contracts the next degree axis of the rest, and the batch's new cells,
        P for each kept one, are walked in turn.  With no rows there is nothing to raise.
        """
        if not sup.size:
            return
        if cells.ndim == 2:
            step = max(1, AUDIT_TILE_BYTES // 4 // max(8 * cells.shape[1], 1))
            for lo in range(0, len(cells), step):
                np.maximum(sup, np.abs(cells[lo : lo + step]).max(axis=0), out=sup)
            return
        bound = _cell_bounds(cells, peak)
        top = np.fmax.reduce(bound, axis=0)  # per row, NaN bounds left out
        ratio = np.divide(bound, top, out=np.zeros_like(bound), where=(top > 0) & (top < np.inf))
        rest = np.argsort(-np.fmax.reduce(ratio, axis=1), kind="stable")
        last = cells.ndim == 3
        # a batch holds its gathered cells, their contraction and, on the last axis, its |values|,
        # in a quarter tile: batches that stay in cache and reuse their buffers ran a quarter faster
        out_bytes = cells[0].nbytes // table.shape[0] * table.shape[1]
        cell_bytes = cells[0].nbytes + out_bytes + (out_bytes // cells.itemsize * 8 if last else 0)
        most = max(1, AUDIT_TILE_BYTES // 4 // max(cell_bytes, 1))
        batch = 1  # the best cell alone first, so that the running max tightens early
        while True:
            rest = rest[~np.all(bound[rest] <= sup, axis=1)]
            if not rest.size:
                return
            take, rest = rest[:batch], rest[batch:]
            batch = most
            vals = self._contract(cells[take], table, range(1, 2))
            self._sup_walk(vals.reshape((-1,) + vals.shape[2:]), table, peak, sup)

    def _box(self, rows: np.ndarray) -> np.ndarray:
        """(m, size) rows scattered into the coefficient box (N+1, ..., N+1, m), zero above degree N."""
        n = self.max_degree + 1
        box = np.zeros((n**self.dim, rows.shape[0]), dtype=np.result_type(rows, float))
        box[self._box_positions] = rows.T
        return box.reshape((n,) * self.dim + (rows.shape[0],))

    @staticmethod
    def _contract(vals: np.ndarray, table: np.ndarray, axes) -> np.ndarray:
        """Contract the degree axes ``axes`` of a box with the per-axis table, in order.

        The axes before each one are grid axes already contracted.  Axis a
        is contracted by a stack of equal-shape real matmuls, one per point
        of the grid axes before it (complex values are viewed as real pairs
        along the trailing batch axis), so a slice of a contracted axis gives
        the same bits as the whole.
        """
        for a in axes:
            vals = np.ascontiguousarray(vals)
            lead = vals.shape[:a]
            stack = vals.view(float).reshape(int(np.prod(lead)), table.shape[0], -1)
            # OpenBLAS can raise the FPU's FE_INVALID flag for a lone inf at some stack widths
            # where no inf * 0 occurs, which numpy reports as "invalid value encountered in
            # matmul"; a real inf * 0 still gives NaN values
            with np.errstate(invalid="ignore"):
                out = table.T @ stack
            vals = out.view(vals.dtype).reshape(lead + (table.shape[1],) + vals.shape[a + 1 :])
        return vals


def _cell_bounds(cells: np.ndarray, peak: np.ndarray) -> np.ndarray:
    """Bounds U on |u| over each cell of ``cells`` (shape (S, N+1, ..., N+1, m)), shape (S, m).

    U = (1 + _SUP_BOUND_MARGIN) sum |cells| prod_k peak[n_k] over the degree
    axes, the sum nested one length-(N+1) axis at a time, over a quarter of
    AUDIT_TILE_BYTES of cells at once.  Entries that are not a rigorous
    bound are NaN: a non-finite sum, and a sum below 2^-900 of a cell with a
    nonzero entry, where underflow could outweigh the margin (see
    ``BasisGrid.audit_sup``).
    """
    degree_axes = tuple(range(1, cells.ndim - 1))
    out = np.empty((cells.shape[0], cells.shape[-1]))
    nonzero = np.empty(out.shape, dtype=bool)
    step = max(1, AUDIT_TILE_BYTES // 4 // max(8 * cells[0].size, 1))
    with np.errstate(over="ignore"):
        for lo in range(0, len(cells), step):
            a = np.abs(cells[lo : lo + step])
            nonzero[lo : lo + step] = a.any(axis=degree_axes)
            for _ in degree_axes:
                a = peak @ a  # sums the last degree axis
            out[lo : lo + step] = a
        out *= 1.0 + _SUP_BOUND_MARGIN
    out[~np.isfinite(out) | ((out < 2.0**-900) & nonzero)] = np.nan
    return out


def grid_radius2(axis: np.ndarray, dim: int, rows: slice = slice(None)) -> np.ndarray:
    """|y|^2 on the C-order dim-fold tensor grid of a 1-D axis, flattened and added first axis
    first; on the whole grid, or on the first-axis slices ``rows`` of it."""
    square = np.asarray(axis, dtype=float) ** 2
    out = square[rows]
    for _ in range(1, dim):
        out = np.add.outer(out, square).ravel()
    return out


def audit_axis(max_degree: int, dim: int) -> np.ndarray:
    """Axis of the uniform audit grid on [-L, L]^dim used for sup and L^r norms.

    L = sqrt(2N + d) + 4 covers the classically allowed region plus a margin;
    the eigenfunctions decay super-exponentially beyond it.  The grid is the
    tensor grid of this axis in C order, the order of grid_values.
    """
    half_width = np.sqrt(2.0 * max_degree + dim) + AUDIT_MARGIN
    n_pts = int(np.ceil(2.0 * half_width * AUDIT_POINTS_PER_UNIT)) + 1
    return np.linspace(-half_width, half_width, n_pts)


def build_basis(dim: int, max_degree: int, quad_per_axis: int) -> BasisGrid:
    """Construct the truncated Hermite basis; its quadrature is built on first read.

    Requires ``quad_per_axis >= 2 (max_degree + 1)`` so that the Gram matrix
    of the enumerated functions is the identity up to rounding, and rejects
    enumerations larger than ``DEFAULT_COEFF_BUDGET`` and tensor grids whose
    nodes and weights need more than ``GRID_BYTES_BUDGET``, here and not
    when the quadrature is first read.
    """
    if dim < 1:
        raise BasisError(f"dim must be >= 1, got {dim}")
    if dim > 3:
        raise BasisError(f"dim must be <= 3, got {dim}")
    if max_degree < 0:
        raise BasisError(f"max_degree must be >= 0, got {max_degree}")
    if quad_per_axis < 2 * (max_degree + 1):
        raise BasisError(
            f"quad_per_axis={quad_per_axis} below exactness threshold "
            f"2*(max_degree+1)={2 * (max_degree + 1)}"
        )
    indices = enumerate_multi_indices(dim, max_degree)
    if len(indices) > DEFAULT_COEFF_BUDGET:
        raise BasisError(
            f"enumeration size {len(indices)} exceeds coefficient budget {DEFAULT_COEFF_BUDGET}"
        )
    # (points x dim) nodes plus weights; above d = 1 this overestimates what is allocated, since the grid is
    # kept as its axis with weights and radius2 as its only point arrays.  The same grids stay refused.
    grid_bytes = quad_per_axis**dim * (dim + 1) * 8
    if grid_bytes > GRID_BYTES_BUDGET:
        raise BasisError(
            f"tensor grid of {quad_per_axis}^{dim} nodes and weights needs "
            f"{grid_bytes} B, over the budget of {GRID_BYTES_BUDGET} B"
        )
    return BasisGrid(dim=dim, max_degree=max_degree, quad_per_axis=quad_per_axis, indices=indices)


_BASIS_CACHE: dict[tuple[int, int, int], BasisGrid] = {}


def cached_basis(dim: int, max_degree: int, quad_per_axis: int) -> BasisGrid:
    """Memoized build_basis; BasisGrid is immutable so sharing is safe."""
    key = (dim, max_degree, quad_per_axis)
    if key not in _BASIS_CACHE:
        _BASIS_CACHE[key] = build_basis(*key)
    return _BASIS_CACHE[key]


def gram_deviation(basis: BasisGrid) -> float:
    """Max |G - I| over the quadrature Gram matrix; orthonormality check.

    G[k, l] = prod_a g[n_a(k), n_a(l)] is built from the per-axis Gram g.
    """
    axis_gram = (basis.eval_table * basis.axis_weights) @ basis.eval_table.T
    idx = basis._index_array
    gram = np.ones((basis.size, basis.size))
    for a in range(basis.dim):
        gram = gram * axis_gram[np.ix_(idx[:, a], idx[:, a])]
    return float(np.max(np.abs(gram - np.eye(basis.size))))

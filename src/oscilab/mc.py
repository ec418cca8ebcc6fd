"""Chunked Monte Carlo driver whose results are independent of worker count.

Work is split into fixed-size chunks keyed by sample index; chunks may be
evaluated by any number of threads, but the reduction always consumes them
in index order, so the output bytes never depend on parallelism.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

__all__ = ["run_chunked", "holding"]

# Rows per chunk of ``ensembles.map_gains``, its one user, and so per Philox
# draw of gains.  The per-omega kernels run on tiles of 256 of those rows, so
# their largest array, (grid x rows) complex values, is a tile's (1.2 MiB on
# omega's 308 audit points, against 4.8 MiB on a whole chunk).  A draw costs
# about 0.3 ms a call besides its rows, so the chunks stay at 1024 rows:
# 256-row chunks made a cold paley-zygmund's work about 20 % slower (2-core
# Xeon VM, one BLAS thread).
DEFAULT_CHUNK = 1024


def run_chunked(total: int, kernel, workers: int = 1, chunk_size: int = DEFAULT_CHUNK):
    """Evaluate kernel(start, stop) over [0, total) in chunks of chunk_size.

    kernel's result must be a pure function of its index range (state it keeps
    may only hold memory, as a ``holding`` kernel does).  Returns the ordered
    list of chunk results; callers reduce them in that order (concatenation,
    or a left fold of partial sums).
    """
    ranges = [(start, min(start + chunk_size, total)) for start in range(0, total, chunk_size)]
    if workers <= 1 or len(ranges) == 1:
        return [kernel(a, b) for a, b in ranges]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(kernel, a, b) for a, b in ranges]
        return [f.result() for f in futures]


def holding(kernel):
    """A run_chunked kernel from kernel(start, stop) -> (result, arrays) that
    returns result and keeps arrays referenced until the next chunk's exist.

    Freeing every large array of a chunk lets malloc trim the heap top, and
    the next chunk page-faults it all back in; holding the previous chunk's
    arrays keeps the top in use.  The held slot is shared by all threads,
    but no result ever reads it.  ``ensembles.map_gains`` is its one user: it
    holds a chunk's gains and its last kernel tile's arrays, which cut a cold
    reference paley-zygmund's work from about 13.8k minor faults to 3.9k and
    0.20 s to 0.17 s on a 2-core Xeon VM, for about 1 MB more peak RSS.
    ``ensembles.fold_block`` holds no chunk of gains, only tiles of them and
    per-row statistics, each a few MiB at most.
    """
    held = [None]

    def run(start, stop):
        result, held[0] = kernel(start, stop)
        return result

    return run

"""Chunked Monte Carlo driver whose results are independent of worker count.

Work is split into fixed-size chunks keyed by sample index; chunks may be
evaluated by any number of threads, but the reduction always consumes them
in index order, so the output bytes never depend on parallelism.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

__all__ = ["run_chunked", "holding"]

# Rows per chunk of ``ensembles.map_gains``, its one user.  A per-omega
# kernel's largest array is (grid x rows) complex values (omega's audit sup
# contracts its 308-point audit axis into 4.8 MiB at 1024 rows, 19.3 MiB at
# 4096), and two chunks of them are live under ``holding``; 1024 rows keep
# that small without making the per-chunk overhead show.
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
    but no result ever reads it.  ``ensembles.map_gains`` is its one user:
    ``ensembles.fold_block`` holds no chunk of gains, only tiles of them and
    per-row statistics, each a few MiB at most.
    """
    held = [None]

    def run(start, stop):
        result, held[0] = kernel(start, stop)
        return result

    return run

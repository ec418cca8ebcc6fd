"""Chunked Monte Carlo driver whose results are independent of worker count.

Work is split into fixed-size chunks keyed by sample index; chunks may be
evaluated by any number of threads, but the reduction always consumes them
in index order, so the output bytes never depend on parallelism.  The
callers, ``ensembles.fold_block`` and ``map_gains``, pick the chunk size.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

__all__ = ["run_chunked"]


def run_chunked(total: int, kernel, workers: int, chunk_size: int):
    """Evaluate kernel(start, stop) over [0, total) in chunks of chunk_size.

    kernel's result must be a pure function of its index range (state it keeps
    may only hold memory, as ``ensembles.map_gains``' chunks do).  Returns the
    ordered list of chunk results; callers reduce them in that order
    (concatenation, or a left fold of partial sums).
    """
    ranges = [(start, min(start + chunk_size, total)) for start in range(0, total, chunk_size)]
    if workers <= 1 or len(ranges) == 1:
        return [kernel(a, b) for a, b in ranges]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(kernel, a, b) for a, b in ranges]
        return [f.result() for f in futures]

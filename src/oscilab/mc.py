"""Chunked Monte Carlo driver whose results are independent of worker count.

Work is split into fixed-size chunks keyed by sample index; chunks may be
evaluated by any number of threads, but the reduction always consumes them
in index order, so the output bytes never depend on parallelism.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

__all__ = ["run_chunked"]

DEFAULT_CHUNK = 4096


def run_chunked(total: int, kernel, workers: int = 1):
    """Evaluate kernel(start, stop) over [0, total) in chunks of DEFAULT_CHUNK.

    kernel must be a pure function of its index range.  Returns the ordered
    list of chunk results; callers reduce with an associative, order-fixed
    combine (concatenate, sum of counts).
    """
    ranges = [(start, min(start + DEFAULT_CHUNK, total)) for start in range(0, total, DEFAULT_CHUNK)]
    if workers <= 1 or len(ranges) == 1:
        return [kernel(a, b) for a, b in ranges]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(kernel, a, b) for a, b in ranges]
        return [f.result() for f in futures]

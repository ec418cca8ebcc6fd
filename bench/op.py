"""Run one benchmark operation in this fresh interpreter and record its costs.

    python3 bench/op.py RESULT.json [--trace] cli COMMAND ARGS...
    python3 bench/op.py RESULT.json [--trace] d2 OUT_DIR
    python3 bench/op.py RESULT.json import

Writes RESULT.json with the import time of ``oscilab.cli`` (setup_s), the
in-process time of the operation (work_s), the process's peak RSS and, with
``--trace``, the recorded spans and the cost of one span.  ``import`` runs no
operation: it gives one more set-up sample.  Exits with the operation's exit code.
"""

import time

_t0 = time.perf_counter()
import oscilab.cli  # noqa: E402  (the import is the measured set-up)

SETUP_S = time.perf_counter() - _t0

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv) -> int:
    result_path, rest = argv[0], argv[1:]
    traced = rest[0] == "--trace"
    if traced:
        rest = rest[1:]
    kind, args = rest[0], rest[1:]
    record = {"setup_s": SETUP_S}
    if kind == "import":
        def run():
            return 0
    elif kind == "d2":
        import solve_d2

        def run():
            return solve_d2.main(args)
    else:
        def run():
            return oscilab.cli.main(args)  # looked up per call, so a tracer wrapper is used

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        record["span_cost_s"] = tracer.span_cost()
        tracer.install()
    start = time.perf_counter()
    code = run()
    record["work_s"] = time.perf_counter() - start
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        record["spans"] = tracer.spans
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

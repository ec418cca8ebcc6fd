"""Cold-process benchmark for oscilab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload is a closed loop with
one client: a fixed list of operations, run one after another, each in its
own fresh interpreter (``bench/op.py``), with ``--workers 1`` and the BLAS
thread count set explicitly.  A pass is one sweep over the list; the run
makes passes until the next one would end after S seconds, and at least two,
so that every operation's report and CSV bytes can be compared across passes.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate, and it holds the
per-layer metrics of the traced passes plus the tracing overhead.  Every
line before it is a human-readable summary and one ``detail`` JSON line with
the machine, environment and per-operation figures.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import signal
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

BENCH_DIR = Path(__file__).resolve().parent

# one BLAS thread (at most nproc): operations run one at a time, and a single
# thread keeps the timings steady when other work shares the machine
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# every run exits within this many seconds of starting its first pass
DEADLINE_S = 165.0

# import-only processes a run times before its first pass; with the import of
# every operation process they give setup_s more samples than a pass has
SETUP_SAMPLES = 6

CLI = ("--tier", "reference", "--workers", "1")

# (label, kind, arguments); "cli" operations get --seed and --out appended
WORKLOADS = {
    # hermite, fields and lens at d = 1 and large N (bases at N = 128/256,
    # product quadrature on 514 nodes); ensembles draw only 100 gain rows.
    # ROADMAP 3b (the smoothing quadratic form) shows here.
    "spectral": (
        ("smoothing", "cli", ("smoothing",)),
        ("basis-check", "cli", ("basis-check",)),
        ("norms", "cli", ("norms",)),
        ("lens-check", "cli", ("lens-check",)),
        ("eigen-lp", "cli", ("eigen-lp",)),
    ),
    # ensembles, proba and mc; hermite and fields do little.  Both random
    # streams side by side: the bulk sample_block (chernoff, the b2p
    # witnesses) and the per-omega sample_gain_matrix (good_set_probability,
    # paley_zygmund_check); a gain on one must not cost the other.
    # khinchin and tails are left out: their verdicts fail under some seeds
    # (khinchin at seed 39, tails at seeds 2 and 103), and a workload must
    # not fail at any seed.
    "montecarlo": (
        ("chernoff", "cli", ("chernoff",)),
        ("omega", "cli", ("omega",)),
        ("paley-zygmund", "cli", ("paley-zygmund",)),
        ("b2p", "cli", ("b2p",)),
    ),
    # picard and the tensor-product hermite tables; the checkpoint write and
    # --resume read exercise reports and I/O.  The d = 2 solve is where
    # ROADMAP item 4 (sum factorization) must move peak_rss_mb and work_s.
    # d = 3 is left out: at N = 1 it peaked at 6.7 GB of RSS on an 8 GB
    # machine, and waits for item 4.
    "picard": (
        ("solve-nlsh", "cli", ("solve-nlsh",)),
        ("solve-nlsh-resume", "cli", ("solve-nlsh", "--resume")),
        ("solve-nls", "cli", ("solve-nls",)),
        ("scattering", "cli", ("scattering",)),
        ("solve-d2", "d2", ()),
    ),
}

PROBE = r"""
import ctypes, glob, json, os, sys
import numpy, scipy, oscilab.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(lib), sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
            break
print(json.dumps({
    "oscilab_file": oscilab.cli.__file__,
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": {"name": blas.get("name"), "version": blas.get("version")},
    "blas_threads_in_force": threads,
}))
"""


@dataclass
class OpResult:
    """One operation process of one pass."""

    label: str
    wall_s: float = 0.0
    record: dict = field(default_factory=dict)
    failure: str | None = None
    digest: str | None = None


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for key in BLAS_ENV:
        env[key] = str(BLAS_THREADS)
    return env


def _artifacts(op_dir: Path) -> list[Path]:
    """Report and CSV files an operation wrote; the manifest holds a timestamp."""
    return sorted(
        p for p in op_dir.iterdir() if p.suffix == ".csv" or (p.suffix == ".json" and p.name != "manifest.json")
    )


def _check_outputs(op_dir: Path) -> tuple[str | None, str | None]:
    """(digest of report and CSV bytes, failure) for one operation's output directory."""
    if not op_dir.is_dir():
        return None, f"no output directory {op_dir.name}"
    digest = hashlib.sha256()
    failure = None
    for path in _artifacts(op_dir):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        if path.suffix == ".json" and json.loads(data).get("verdict") is not True:
            failure = failure or f"verdict false in {path.name}"
    return digest.hexdigest(), failure


def run_op(label, kind, args, out_dir, seed, traced, env, deadline) -> OpResult:
    result = OpResult(label)
    result_path = out_dir / f"{label}.result.json"
    cmd = [sys.executable, str(BENCH_DIR / "op.py"), str(result_path)]
    if traced:
        cmd.append("--trace")
    if kind == "d2":
        cmd += ["d2", str(out_dir)]
        op_dir = out_dir / "solve_d2"
    else:
        cmd += ["cli", *args, *CLI, "--seed", str(seed), "--out", str(out_dir)]
        op_dir = out_dir / args[0].replace("-", "_")
    log_path = out_dir / f"{label}.log"
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        result.wall_s = time.perf_counter() - start
    if code is None:
        result.failure = "timed out"
    elif not result_path.exists():
        result.failure = f"exit code {code} without a result"
    else:
        result.record = json.loads(result_path.read_text())
        if code != 0:
            result.failure = f"exit code {code}"
    if code is not None:
        result.digest, failure = _check_outputs(op_dir)
        result.failure = result.failure or failure
    if result.failure:
        tail = log_path.read_text(errors="replace").splitlines()[-5:]
        print(f"[{label}] failed: {result.failure}", *tail, sep="\n  ", file=sys.stderr)
    return result


def run_pass(ops, pass_dir: Path, seed: int, traced: bool, env, deadline) -> list[OpResult]:
    pass_dir.mkdir(parents=True)
    results = []
    for label, kind, args in ops:
        if time.monotonic() >= deadline:
            break
        results.append(run_op(label, kind, args, pass_dir, seed, traced, env, deadline))
    shutil.rmtree(pass_dir)
    return results


def tail_percentile(values) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, once there are 20."""
    n = len(values)
    if n < 20:
        return None
    pct = int(100 * (1 - 10 / n))
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        return None


def _git_commit(root: Path) -> str | None:
    """The checked-out commit, when the checkout itself is a git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30,
            stdin=subprocess.DEVNULL, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_info(root: Path, probe: dict, args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "memory_bytes": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"),
        **{k: v for k, v in probe.items() if k != "oscilab_file"},
        "blas_threads_set": BLAS_THREADS,
        "git_commit": _git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def probe_environment(root: Path, env) -> dict:
    """Import oscilab once (untimed: fills the bytecode cache) and report versions."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60, stdin=subprocess.DEVNULL
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: cannot import oscilab from {root / 'src'}:\n{proc.stderr}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(probe["oscilab_file"]).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"error: oscilab resolved to {probe['oscilab_file']}, outside {root / 'src'}")
    return probe


def sample_setup(out_dir: Path, env) -> float:
    """setup_s of one import-only operation process."""
    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = out_dir / "import.result.json"
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "op.py"), str(result_path), "import"],
        env=env, check=True, timeout=60, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
    )
    return json.loads(result_path.read_text())["setup_s"]


def end_to_end(passes, setup_samples) -> dict:
    pass_s = [sum(r.wall_s for r in p) for p in passes]
    work_s = [sum(r.record.get("work_s", 0.0) for r in p) for p in passes]
    rss = [max(r.record.get("peak_rss_mb", 0.0) for r in p) for p in passes]
    setup = setup_samples + [r.record["setup_s"] for p in passes for r in p if "setup_s" in r.record]
    return {
        "setup_s": (statistics.median(setup), "s", setup),
        "pass_s": (statistics.median(pass_s), "s", pass_s),
        "work_s": (statistics.median(work_s), "s", work_s),
        "peak_rss_mb": (statistics.median(rss), "MB", rss),
    }


def per_layer(traced_passes, untraced_work: float) -> dict:
    per_pass = [tracer.layer_metrics([r.record.get("spans", []) for r in p]) for p in traced_passes]
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    # the wrappers' own cost: each process's spans times its measured cost of one span
    overhead = statistics.median(
        sum(len(r.record.get("spans", [])) * r.record.get("span_cost_s", 0.0) for r in p) for p in traced_passes
    )
    out["trace.overhead_pct"] = 100.0 * overhead / untraced_work
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its operation process and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "oscilab" / "cli.py").is_file():
        print(f"error: no oscilab sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    env = _child_env(root)
    probe = probe_environment(root, env)
    runs_dir = root / ".bench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    ops = WORKLOADS[args.workload]
    start = time.monotonic()
    deadline = start + DEADLINE_S
    passes: list[list[OpResult]] = []
    traced_flags: list[bool] = []
    try:
        setup_samples = [sample_setup(runs_dir / "import", env) for _ in range(SETUP_SAMPLES)]
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(ops, runs_dir / f"pass{len(passes)}", args.seed, traced, env, deadline))
            traced_flags.append(traced)
            last = sum(r.wall_s for r in passes[-1])
            ends_at = time.monotonic() - start + last
            if len(passes) >= 2 and (ends_at > args.seconds or start + ends_at > deadline):
                break
            if time.monotonic() >= deadline:
                break
    finally:
        shutil.rmtree(runs_dir, ignore_errors=True)
        try:
            runs_dir.parent.rmdir()
        except OSError:
            pass

    # the first pass's bytes are the reference for every later pass, traced or not
    reference = {r.label: r.digest for r in passes[0]}
    for results in passes[1:]:
        for r in results:
            if r.failure is None and r.digest != reference.get(r.label):
                r.failure = "report/CSV bytes differ from the first pass"
                print(f"[{r.label}] failed: {r.failure}", file=sys.stderr)
    attempted = sum(len(p) for p in passes)
    failed = sum(r.failure is not None for p in passes for r in p)
    untraced = [p for p, t in zip(passes, traced_flags) if not t and len(p) == len(ops)]
    traced_passes = [p for p, t in zip(passes, traced_flags) if t and len(p) == len(ops)]
    if not untraced or (args.trace and not traced_passes):
        print("error: no complete pass within the deadline", file=sys.stderr)
        return 1

    e2e = end_to_end(untraced, setup_samples)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)} ({len(traced_passes)} traced)")
    for name, (value, unit, samples) in e2e.items():
        print(f"  {name:<18} {value:12.4f} {unit:<5} median of {len(samples)}")
    print(f"  {'failed_ops_ratio':<18} {failed / attempted:12.4f} ratio {failed} of {attempted} operations")
    detail = {
        "machine": machine_info(root, probe, args),
        "samples": {name: samples for name, (_, _, samples) in e2e.items()},
        "tail": {name: tail_percentile(samples) for name, (_, _, samples) in e2e.items()},
        "failed_ops_ratio": failed / attempted,
    }
    if args.trace:
        metrics = per_layer(traced_passes, e2e["work_s"][0])
        result_metrics = {name: {"value": value, "unit": tracer.layer_unit(name)} for name, value in metrics.items()}
        for name, m in result_metrics.items():
            print(f"  {name:<44} {m['value']:14.6g} {m['unit']}")
    else:
        result_metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in e2e.items()}
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The d = 2 Picard operation of the ``picard`` workload.

The CLI solves only in d = 1 (``_solve_from_params`` fixes ``dim=1``), so this
operation drives the public library functions directly.  It solves the
``solve-nlsh`` preset data (0.1 h_00, p = 5, 65 time nodes) in d = 2 at
N = 12 and N = 16 with K = +1 and K = -1, and holds every solve to the
tolerances the CLI applies to the d = 1 solves.  The data are deterministic;
the residual tolerance is met at 65 time nodes only for h_00 (degree-1 modes
give 1.2e-6, degree-2 modes 9.4e-6), so the data are not randomized.

Run as ``python3 bench/op.py RESULT.json d2 OUT_DIR``.
"""

from __future__ import annotations

import os
from math import comb
from pathlib import Path

from oscilab import fields, hermite, lens, picard, reports

DIM = 2
CASES = ((12, 1), (12, -1), (16, 1), (16, -1))   # (N, K)
AMPLITUDE = 0.1
NONLINEARITY_P = 5
TIME_NODES = 65
FRAME_TIMES = (0.5, 2.0)

# the CLI's tolerances: solve-nlsh (residual, mass drift), solve-nls (frame
# mass) and scattering (decreasing residual curve ending below 1e-3)
RESIDUAL_TOL = 1e-6
MASS_DRIFT_TOL = 1e-8
FRAME_MASS_TOL = 1e-8
SCATTERING_TOL = 1e-3

# peak RSS over dense audit-table bytes: about 5 at d=2, N=16 (606 MB peak
# for a 122 MB table); the guard allows 8 and half the machine's memory
PEAK_PER_TABLE_BYTE = 8


def dense_table_bytes(dim: int, n: int) -> int:
    """Bytes of the dense audit table: modes x audit points x 8 B."""
    points = hermite.audit_axis(n, dim).size ** dim
    return comb(n + dim, dim) * points * 8


def check_memory(dim: int, n: int, machine_bytes: int) -> int:
    """Refuse a solve whose dense tables would not fit; returns the table bytes."""
    table = dense_table_bytes(dim, n)
    if table * PEAK_PER_TABLE_BYTE > machine_bytes // 2:
        raise MemoryError(
            f"d={dim}, N={n}: dense audit table of {table} B needs about "
            f"{table * PEAK_PER_TABLE_BYTE} B, over half of the machine's {machine_bytes} B"
        )
    return table


def machine_memory_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def solve_case(n: int, k: int, out_dir: Path) -> tuple[bool, dict]:
    basis = hermite.cached_basis(DIM, n, 2 * (n + 1))
    u0 = fields.SpectralField(basis, AMPLITUDE * fields.unit_field(basis, (0,) * DIM).coeffs)
    cfg = picard.SolverConfig(dim=DIM, nonlinearity_p=NONLINEARITY_P, K=k, N=n, time_nodes=TIME_NODES)
    traj = picard.picard_solve(u0, cfg)
    res = picard.residual(traj)
    masses = picard.mass_curve(traj)
    curve = [r for _, r in picard.scattering_extract(traj, u0).residual_curve]
    frame_dev = max(
        abs(lens.frame_l2_norm(picard.global_nls_solution(traj, t)) - u0.l2_norm) for t in FRAME_TIMES
    )
    decreasing = all(b < a for a, b in zip(curve, curve[1:]))
    ok = (
        res <= RESIDUAL_TOL
        and masses["drift"] <= MASS_DRIFT_TOL
        and frame_dev <= FRAME_MASS_TOL
        and decreasing
        and curve[-1] <= SCATTERING_TOL
    )
    name = f"mass_curve_N{n}_K{k:+d}"
    reports.write_csv(name, {"t": masses["times"], "mass": masses["mass"]}, out_dir)
    return ok, {
        "iterations": traj.iterations,
        "residual": res,
        "mass_drift": masses["drift"],
        "frame_mass_deviation": frame_dev,
        "scattering_residual_curve": curve,
        "verdict": ok,
    }


def main(argv) -> int:
    out_dir = Path(argv[0]) / "solve_d2"
    machine = machine_memory_bytes()
    stats = {}
    ok = True
    for n, k in CASES:
        table = check_memory(DIM, n, machine)
        case_ok, case = solve_case(n, k, out_dir)
        stats[f"N{n}_K{k:+d}"] = {**case, "dense_table_bytes": table}
        ok = ok and case_ok
    reports.write_report(
        "solve_d2",
        stats,
        out_dir,
        verdict=ok,
        meta={"dim": DIM, "amplitude": AMPLITUDE, "p": NONLINEARITY_P, "time_nodes": TIME_NODES, "mode": [0] * DIM},
    )
    return 0 if ok else 1

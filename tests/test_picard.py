import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscilab.fields import (
    SpectralField,
    harmonic_sobolev_norm,
    product_quadrature,
    propagate_linear,
    trapezoid_weights,
    unit_field,
)
from oscilab.hermite import BasisGrid, audit_axis, cached_basis, gauss_hermite_nodes
from oscilab.picard import (
    TOL,
    DivergenceError,
    SolverConfig,
    Trajectory,
    _apply_duhamel,
    _iterate,
    _median,
    _Workspace,
    contraction_factor,
    geometric_fit_r2,
    global_nls_solution,
    load_trajectory,
    mass_curve,
    picard_solve,
    residual,
    save_trajectory,
    scattering_extract,
)
from oscilab.lens import frame_l2_norm, free_propagate, lens_forward, lens_time_map
from test_hermite import tensor_grid


def reference_data(amplitude=0.1, mode=0, **cfg_kwargs):
    basis = cached_basis(1, 32, 66)
    u0 = SpectralField(basis, amplitude * unit_field(basis, mode).coeffs)
    cfg = SolverConfig(dim=1, N=32, time_nodes=65, **cfg_kwargs)
    return basis, u0, cfg


# ------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError, match="odd >= 5"):
        SolverConfig(nonlinearity_p=4)
    with pytest.raises(ValueError, match="odd >= 5"):
        SolverConfig(nonlinearity_p=3)
    with pytest.raises(ValueError):
        SolverConfig(K=2)
    with pytest.raises(ValueError):
        SolverConfig(time_nodes=40)  # even


def test_cosine_exponent_and_default_s():
    assert SolverConfig(dim=1, nonlinearity_p=5).cos_exponent == 0
    assert SolverConfig(dim=1, nonlinearity_p=7).cos_exponent == 1
    assert SolverConfig(dim=2, nonlinearity_p=5).cos_exponent == 2
    cfg = SolverConfig(dim=1, nonlinearity_p=5)
    assert abs(cfg.s - 0.25) < 1e-14  # midpoint of (0, 1/2)


def test_time_grid_centered():
    cfg = SolverConfig(time_nodes=65)
    t = cfg.times()
    assert t[32] == 0.0
    assert abs(t[-1] - np.pi / 4) < 1e-15
    assert abs(t[0] + np.pi / 4) < 1e-15


# ------------------------------------------------------------- Duhamel map


def test_duhamel_zero_data_is_zero():
    basis, _, cfg = reference_data()
    v = np.zeros((cfg.time_nodes, basis.size), complex)
    out = _apply_duhamel(_Workspace(cfg, basis), np.zeros(basis.size, complex), v)
    assert np.all(out == 0)


def test_duhamel_quintic_homogeneity():
    # first iterate scales like amplitude^p
    basis, _, cfg = reference_data()
    ws = _Workspace(cfg, basis)
    ratios = []
    for eps in (1e-2, 5e-3):
        out = _apply_duhamel(ws, eps * unit_field(basis, 0).coeffs, np.zeros((cfg.time_nodes, basis.size), complex))
        size = np.max(np.linalg.norm(out, axis=1))
        ratios.append(size / eps**5)
    assert abs(ratios[0] - ratios[1]) / ratios[1] < 0.05


# ------------------------------------------------------------- solves


def test_zero_data_converges_immediately():
    basis, _, cfg = reference_data()
    u0 = SpectralField(basis, np.zeros(basis.size, complex))
    traj = picard_solve(u0, cfg)
    assert traj.iterations == 1
    assert np.all(traj.v == 0)


def test_reference_solve_contracts():
    for k in (1, -1):
        _, u0, cfg = reference_data(K=k)
        traj = picard_solve(u0, cfg)
        assert traj.iterations <= 20, k
        assert contraction_factor(traj) < 0.5, k
        assert traj.contraction_history[-1] <= 1e-10, k
        assert geometric_fit_r2(traj) >= 0.95, k


# positive floats from 1e-30 to 1e30: a mantissa in [1, 10) times a power of ten
DECADE_FLOATS = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0, exclude_max=True), st.integers(-30, 30))


@settings(max_examples=400, deadline=None)
@given(st.lists(DECADE_FLOATS, min_size=1, max_size=12))
@example([0.3])
@example([0.1, 0.7])
@example([2.0**-1074, 2.0**-1074, 1e300, 1e300])
def test_median_has_the_bits_of_np_median(xs):
    # contraction_factor's median sorts its list: np.median would import numpy.ma during the solve
    assert _median(xs).hex() == float(np.median(xs)).hex()


def test_reference_residual_and_mass():
    for k in (1, -1):
        _, u0, cfg = reference_data(K=k)
        traj = picard_solve(u0, cfg)
        assert residual(traj) <= 1e-6, k
        assert mass_curve(traj)["drift"] <= 1e-8, k


def test_residual_fourth_order_in_time():
    _, u0, _ = reference_data()
    values = {}
    for m in (65, 129, 257):
        cfg = SolverConfig(dim=1, N=32, time_nodes=m)
        values[m] = residual(picard_solve(u0, cfg))
    assert values[65] / values[129] >= 8.0
    assert values[129] / values[257] >= 8.0
    # the order fitted over the three steps
    order = -np.polyfit(np.log([m - 1.0 for m in values]), np.log(list(values.values())), 1)[0]
    assert order >= 3.5


def test_mass_drift_order():
    # drift at rounding floor for small data; use a larger amplitude
    basis, _, _ = reference_data()
    u0 = SpectralField(basis, 0.5 * unit_field(basis, 0).coeffs)
    drifts = []
    for m in (33, 65):
        cfg = SolverConfig(dim=1, N=32, time_nodes=m)
        drifts.append(mass_curve(picard_solve(u0, cfg))["drift"])
    assert drifts[0] / drifts[1] >= 4.0


def test_focusing_and_defocusing_differ():
    _, u0, _ = reference_data()
    plus = picard_solve(u0, SolverConfig(dim=1, N=32, time_nodes=65, K=1))
    minus = picard_solve(u0, SolverConfig(dim=1, N=32, time_nodes=65, K=-1))
    assert np.max(np.abs(plus.v - minus.v)) > 0
    assert mass_curve(plus)["drift"] <= 1e-8
    assert mass_curve(minus)["drift"] <= 1e-8


def test_divergence_guard_is_loud():
    basis, u0, cfg = reference_data()
    huge = np.tile(10.0 * unit_field(basis, 1).coeffs, (cfg.time_nodes, 1))
    try:
        traj = _iterate(u0, cfg, huge)
    except DivergenceError as err:
        assert err.time_node is not None
        return
    # converging back to the unique fixed point is the other allowed outcome
    ref = picard_solve(u0, cfg)
    assert np.max(np.linalg.norm(traj.v - ref.v, axis=1)) <= 10 * TOL


@pytest.mark.parametrize("dim,n", [(2, 6), (3, 4)])
def test_factored_nonlinearity_matches_dense_reference(dim, n):
    basis = cached_basis(dim, n, 2 * (n + 1))
    cfg = SolverConfig(dim=dim, N=n, time_nodes=33)
    ws = _Workspace(cfg, basis)
    rng = np.random.default_rng(dim)
    u_mat = 0.3 * (rng.normal(size=(33, basis.size)) + 1j * rng.normal(size=(33, basis.size)))
    _, weights, table = product_quadrature(basis, (cfg.nonlinearity_p + 1) * n)
    dense = basis.eval_at(tensor_grid(gauss_hermite_nodes(table.shape[1], 0)[0], dim))  # (modes x nodes)
    vals = u_mat @ dense
    nl = np.abs(vals) ** (cfg.nonlinearity_p - 1) * vals
    want = cfg.K * np.cos(2.0 * ws.times)[:, None] ** cfg.cos_exponent * ((nl * weights) @ dense.T)
    got = ws.nonlinearity(u_mat)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def unfused_nonlinearity(ws, u_mat):
    """``_Workspace.nonlinearity`` as separate array expressions: synthesis, |u|^{p-1} u, then analysis."""
    vals = ws.basis.grid_values(u_mat, ws.table)
    p = ws.cfg.nonlinearity_p
    nl = (np.abs(vals) ** (p - 1)) * vals
    out = ws.basis.grid_coeffs(nl, ws.table, ws.weights)
    return ws.cfg.K * ws.cos_weight[:, None] * out


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("dim,n", [(1, 31), (2, 6), (3, 3)])
def test_nonlinearity_is_one_pointwise_projection_bitwise(monkeypatch, p, dim, n):
    basis = cached_basis(dim, n, 2 * (n + 1))
    cfg = SolverConfig(dim=dim, N=n, nonlinearity_p=p, time_nodes=33)
    ws = _Workspace(cfg, basis)
    rng = np.random.default_rng(p + dim)
    u_mat = 0.7 * (rng.normal(size=(33, basis.size)) + 1j * rng.normal(size=(33, basis.size)))
    want = unfused_nonlinearity(ws, u_mat)
    calls = []
    project = BasisGrid.project_pointwise
    monkeypatch.setattr(BasisGrid, "project_pointwise", lambda self, *a: calls.append(a[0].shape) or project(self, *a))
    got = ws.nonlinearity(u_mat)
    assert calls == [u_mat[lo : lo + ws.tile].shape for lo in range(0, 33, ws.tile)]
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim,n,tile", [(2, 12, 16), (2, 16, 12), (3, 3, 16)])
def test_tiled_passes_are_the_whole_passes_bitwise(dim, n, tile):
    # the Picard pass in tiles of time nodes against one whole-array call of each step
    basis = cached_basis(dim, n, 2 * (n + 1))
    cfg = SolverConfig(dim=dim, N=n, K=-1, time_nodes=65)
    ws = _Workspace(cfg, basis)
    assert ws.tile == tile
    rng = np.random.default_rng(n)
    u_mat = 0.1 * (rng.normal(size=(65, basis.size)) + 1j * rng.normal(size=(65, basis.size))) * 0.5**basis.degrees
    u_mat[:, 0] += 1.0
    assert ws.nonlinearity(u_mat).tobytes() == unfused_nonlinearity(ws, u_mat).tobytes()
    assert ws.surrogate_norm(u_mat) == surrogate_reference(ws, u_mat)


def surrogate_reference(ws, v_mat):
    """max(sup_t H^s, L^2_t of the walked audit sup), the stopping norm with no bound pass before the walk."""
    hs = np.sqrt(np.sum(ws.basis.lambda2[None, :] ** ws.cfg.s * np.abs(v_mat) ** 2, axis=1))
    sups = ws.basis.audit_sup(v_mat * ws.filter_s[None, :])
    l2t = np.sqrt(np.sum(trapezoid_weights(len(v_mat), ws.h) * sups**2))
    return max(float(hs.max()), float(l2t))


def walked_rows(monkeypatch):
    """The list of rows that ``BasisGrid.audit_sup`` walks in each later ``surrogate_norm`` call."""
    per_call = []
    walk, norm = BasisGrid.audit_sup, _Workspace.surrogate_norm

    def counting_walk(self, coeffs):
        per_call[-1] += len(coeffs)
        return walk(self, coeffs)

    def counting_norm(self, v_mat):
        per_call.append(0)
        return norm(self, v_mat)

    monkeypatch.setattr(BasisGrid, "audit_sup", counting_walk)
    monkeypatch.setattr(_Workspace, "surrogate_norm", counting_norm)
    return per_call


def norm_case(dim, n, case):
    """A workspace of 65 time nodes and an update v_mat for it: the first Picard update of the
    0.1 h_0 data (its bound decides the max), or that update with a NaN, or a row in phase at an
    audit point near 0 at every node (its L^2_t part wins), or that row at the middle node alone,
    scaled so that the square of its bound overflows while those of its sup and H^s norm do not."""
    basis = cached_basis(dim, n, 2 * (n + 1))
    ws = _Workspace(SolverConfig(dim=dim, N=n, time_nodes=65), basis)
    if case in ("in phase", "large"):
        at_zero = basis.audit_table()[:, np.argmin(np.abs(audit_axis(n, dim)))]
        row = np.prod([at_zero[basis._index_array[:, a]] for a in range(dim)], axis=0) / ws.filter_s
        if case == "in phase":
            return ws, np.tile(1e-3 * row.astype(complex), (65, 1))
        v_mat = np.zeros((65, basis.size), complex)
        v_mat[32] = 1.5e154 / basis.audit_sup_bound(row[None, :] * ws.filter_s)[0] * row
        return ws, v_mat
    v_mat = _apply_duhamel(ws, 0.1 * unit_field(basis, (0,) * dim).coeffs, np.zeros((65, basis.size), complex))
    if case == "nan":  # an inf would warn already in the H^{s/2} filter, at inf * 0
        v_mat[7, 0] = np.nan
    return ws, v_mat


@pytest.mark.parametrize(
    "dim,n,case,walked",
    [
        (2, 16, "bound", 0), (2, 16, "in phase", 65), (2, 16, "nan", 65), (2, 16, "large", 65),
        (1, 32, "bound", 65), (1, 32, "in phase", 65),
    ],
)
def test_surrogate_norm_is_the_walked_norm_bitwise(monkeypatch, dim, n, case, walked):
    # both branches, and a non-finite update, give the bits of the max over the walked sups; a d = 1
    # bound pass is the walk itself
    ws, v_mat = norm_case(dim, n, case)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = surrogate_reference(ws, v_mat)
        per_call = walked_rows(monkeypatch)
        got = ws.surrogate_norm(v_mat)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert per_call == [walked]
    hs = np.sqrt(np.sum(ws.hs_weight * np.abs(v_mat) ** 2, axis=1)).max()
    assert (got > hs) == (case == "in phase")  # which half is the max


@pytest.mark.parametrize("n", [12, 16])
@pytest.mark.parametrize("K", [1, -1])
def test_d2_preset_solves_walk_no_audit_grid(monkeypatch, n, K):
    # the d = 2 solves of the picard benchmark: 0.1 h_00, p = 5, 65 time nodes
    basis = cached_basis(2, n, 2 * (n + 1))
    u0 = SpectralField(basis, 0.1 * unit_field(basis, (0, 0)).coeffs)
    per_call = walked_rows(monkeypatch)
    traj = picard_solve(u0, SolverConfig(dim=2, N=n, K=K, time_nodes=65))
    assert per_call == [0] * traj.iterations


def test_d3_fallback_walks_once_per_evaluation(monkeypatch):
    # at d = 3, N = 8 the bound of 0.1 h_000's updates exceeds their sup_t part
    basis = cached_basis(3, 8, 18)
    u0 = SpectralField(basis, 0.1 * unit_field(basis, (0, 0, 0)).coeffs)
    per_call = walked_rows(monkeypatch)
    traj = picard_solve(u0, SolverConfig(dim=3, N=8, time_nodes=33))
    assert per_call == [33] * traj.iterations and traj.iterations >= 2


def test_d1_solve_walks_once_per_evaluation(monkeypatch):
    basis, u0, cfg = reference_data()
    per_call = walked_rows(monkeypatch)
    traj = picard_solve(u0, cfg)
    assert per_call == [cfg.time_nodes] * traj.iterations


def test_nonlinearity_holds_one_tile_of_grid_arrays(traced_peak):
    # the whole 65-node pass held 38 MB here: 65 complex and 65 real grid slices of 29^3 points
    basis = cached_basis(3, 8, 18)
    cfg = SolverConfig(dim=3, N=8, time_nodes=65)
    ws = _Workspace(cfg, basis)
    rng = np.random.default_rng(8)
    u_mat = 0.3 * (rng.normal(size=(65, basis.size)) + 1j * rng.normal(size=(65, basis.size)))
    ws.nonlinearity(u_mat)  # the basis's cached index maps are built once, outside the trace
    _, peak = traced_peak(ws.nonlinearity, u_mat)
    tile_bytes = 4 * ws.weights.size * (16 + 8)  # a 4-node tile's complex values and their real modulus
    # numpy's casting buffer for a complex *= real (8192 complex values) is the small rest
    assert peak <= tile_bytes + u_mat.nbytes + 2**18
    assert ws.tile == 4


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 6)])
def test_nonlinearity_holds_one_complex_grid_array(dim, n, traced_peak):
    # unfused_nonlinearity holds about 3.4 complex (time nodes x grid) arrays at once
    basis = cached_basis(dim, n, 2 * (n + 1))
    cfg = SolverConfig(dim=dim, N=n, time_nodes=65)
    ws = _Workspace(cfg, basis)
    rng = np.random.default_rng(dim)
    u_mat = 0.3 * (rng.normal(size=(65, basis.size)) + 1j * rng.normal(size=(65, basis.size)))
    ws.nonlinearity(u_mat)  # the basis's cached index maps are built once, outside the trace
    _, peak = traced_peak(ws.nonlinearity, u_mat)
    grid_bytes = 65 * ws.weights.size * 16
    assert peak <= 1.75 * grid_bytes


# ------------------------------------------------------------- uniqueness


def uniqueness_probe(
    u0: SpectralField,
    cfg: SolverConfig,
    perturbation: SpectralField,
) -> dict:
    """Fixed-point uniqueness and the Gronwall-type differential inequality.

    Part one solves from v = 0 and from v = perturbation (inside the ball)
    and checks both initializations land on the same fixed point within
    10 TOL.  Part two compares the solutions with data u0 and
    u0 + perturbation, whose gap is genuinely nonzero, and verifies
    |d/dt ||u_a - u_b||^2| <= 2 (p-1) (sup|u_a|^{p-1} + sup|u_b|^{p-1}) ||u_a - u_b||^2
    at the interior nodes (identical-data trajectories coincide to solver
    tolerance, which would leave the ratio undefined).
    """
    if (perturbation.basis.dim, perturbation.basis.max_degree) != (u0.basis.dim, u0.basis.max_degree):
        raise ValueError("perturbation must live on the data's basis")
    traj_a = picard_solve(u0, cfg)
    pert_stack = np.tile(perturbation.coeffs, (cfg.time_nodes, 1))
    traj_b = _iterate(u0, cfg, pert_stack)
    gap = float(np.max(np.linalg.norm(traj_a.v - traj_b.v, axis=1)))

    shifted = SpectralField(u0.basis, u0.coeffs + perturbation.coeffs)
    traj_c = picard_solve(shifted, cfg)
    ua = traj_a.u_matrix()
    uc = traj_c.u_matrix()
    diff_sq = np.linalg.norm(ua - uc, axis=1) ** 2
    h = float(traj_a.times[1] - traj_a.times[0])
    sup_a = u0.basis.audit_sup(ua)
    sup_c = u0.basis.audit_sup(uc)
    p = cfg.nonlinearity_p
    ratios, bounds = [], []
    for j in range(1, cfg.time_nodes - 1):
        if diff_sq[j] <= (10 * TOL) ** 2:
            continue
        ratios.append(abs(diff_sq[j + 1] - diff_sq[j - 1]) / (2 * h) / diff_sq[j])
        bounds.append(2.0 * (p - 1) * (sup_a[j] ** (p - 1) + sup_c[j] ** (p - 1)))
    ratios = np.asarray(ratios)
    bounds = np.asarray(bounds)
    # vacuously true when the perturbed data coincide with u0 (no usable gap)
    gronwall_ok = ratios.size == 0 or bool(np.all(ratios <= bounds * 1.1 + 1e-12))
    return {
        "fixed_point_gap": gap,
        "gap_tolerance": 10.0 * TOL,
        "fixed_point_unique": gap <= 10.0 * TOL,
        "gronwall_points": int(ratios.size),
        "gronwall_max_ratio": float(ratios.max()) if ratios.size else 0.0,
        "gronwall_min_bound": float(bounds.min()) if bounds.size else 0.0,
        "gronwall_ok": gronwall_ok,
        "iterations": [traj_a.iterations, traj_b.iterations, traj_c.iterations],
    }


def test_uniqueness_zero_perturbation_bitwise():
    basis, u0, cfg = reference_data()
    zero = SpectralField(basis, np.zeros(basis.size, complex))
    a = picard_solve(u0, cfg)
    b = _iterate(u0, cfg, np.zeros((cfg.time_nodes, basis.size), complex))
    assert np.array_equal(a.v, b.v)
    rep = uniqueness_probe(u0, cfg, zero)
    assert rep["fixed_point_gap"] == 0.0
    assert rep["gronwall_ok"]


def test_uniqueness_probe_refuses_another_basis():
    # d = 1, N = 9 and d = 2, N = 3 both hold 10 functions, but not the same ones
    data_basis, other = cached_basis(1, 9, 20), cached_basis(2, 3, 8)
    u0 = SpectralField(data_basis, 0.1 * unit_field(data_basis, 0).coeffs)
    pert = SpectralField(other, 0.01 * unit_field(other, (1, 0)).coeffs)
    with pytest.raises(ValueError, match="data's basis"):
        uniqueness_probe(u0, SolverConfig(dim=1, N=9, time_nodes=33), pert)


def test_uniqueness_probe_reference():
    basis, u0, cfg = reference_data()
    pert = SpectralField(basis, 0.01 * unit_field(basis, 1).coeffs)
    rep = uniqueness_probe(u0, cfg, pert)
    assert rep["fixed_point_unique"]
    assert rep["fixed_point_gap"] <= 10 * TOL
    assert rep["gronwall_ok"]
    assert rep["gronwall_max_ratio"] <= rep["gronwall_min_bound"]


# ------------------------------------------------------------- scattering


def test_scattering_zero_data():
    basis, _, cfg = reference_data()
    u0 = SpectralField(basis, np.zeros(basis.size, complex))
    pair = scattering_extract(picard_solve(u0, cfg), u0)
    assert pair.L_plus.l2_norm == 0.0
    assert pair.L_minus.l2_norm == 0.0


def test_scattering_residual_curve():
    _, u0, cfg = reference_data()
    pair = scattering_extract(picard_solve(u0, cfg), u0)
    vals = [r for _, r in pair.residual_curve]
    assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))
    assert vals[-1] <= 1e-3


def test_scattering_amplitude_slope():
    basis, _, cfg = reference_data()
    norms = []
    for lam in (0.05, 0.1):
        u0 = SpectralField(basis, lam * unit_field(basis, 0).coeffs)
        pair = scattering_extract(picard_solve(u0, cfg), u0)
        norms.append(harmonic_sobolev_norm(pair.L_plus, cfg.s))
    slope = (np.log(norms[1]) - np.log(norms[0])) / (np.log(0.1) - np.log(0.05))
    assert abs(slope - 5.0) <= 0.3


# ------------------------------------------------------------- lens-route solution


def test_global_solution_at_zero_matches_data():
    basis, u0, cfg = reference_data()
    traj = picard_solve(u0, cfg)
    frame = global_nls_solution(traj, 0.0)
    direct = u0.coeffs @ u0.basis.eval_at(frame.axis)
    assert np.max(np.abs(frame.values - direct)) < 1e-10


def test_global_solution_mass():
    _, u0, cfg = reference_data()
    traj = picard_solve(u0, cfg)
    for t in (0.5, 2.0, 10.0):
        frame = global_nls_solution(traj, t)
        assert abs(frame_l2_norm(frame) - u0.l2_norm) <= 1e-8


def test_global_solution_linear_consistency():
    # with a zero correction the global solution is the lens image of the linear flow, bit for bit
    basis, u0, cfg = reference_data()
    v = np.zeros((cfg.time_nodes, basis.size), complex)
    traj = Trajectory(cfg, basis, u0.coeffs.copy(), v, [0.0])
    for t in (0.25, 0.5, 1.0, 10.0):
        frame = global_nls_solution(traj, t)
        linear = lens_forward(propagate_linear(u0, lens_time_map(t)), t)
        assert np.array_equal(frame.axis, linear.axis)
        assert np.array_equal(frame.values, linear.values)
    # and that is the free flow
    frame = global_nls_solution(traj, 0.5)
    free = free_propagate(u0, 0.5)
    dx = float(frame.axis[1] - frame.axis[0])
    assert np.sqrt(dx * np.sum(np.abs(frame.values - free.values) ** 2)) <= 1e-6


# ------------------------------------------------------------- checkpointing


def test_checkpoint_roundtrip(tmp_path):
    _, u0, cfg = reference_data()
    traj = picard_solve(u0, cfg)
    path = tmp_path / "traj.npz"
    save_trajectory(traj, path)
    back = load_trajectory(path)
    assert np.array_equal(back.v, traj.v)
    assert np.array_equal(back.u0, traj.u0)
    assert np.array_equal(back.times, traj.times)
    assert back.config == traj.config
    assert back.iterations == traj.iterations


def test_d2_solve_and_frames_stay_small(traced_peak):
    # the dense (modes x audit points) table alone was 122 MB here (476 MiB peak), and the frames'
    # whole-grid phase 5.7 MiB
    basis = cached_basis(2, 16, 34)
    u0 = SpectralField(basis, 0.1 * unit_field(basis, (0, 0)).coeffs)
    cfg = SolverConfig(dim=2, N=16, time_nodes=65)

    def solve_and_frames():
        traj = picard_solve(u0, cfg)
        return traj, [global_nls_solution(traj, t) for t in (0.5, 2.0)]

    (_, frames), peak = traced_peak(solve_and_frames)
    assert peak < 4.5 * 2**20
    assert all(abs(frame_l2_norm(f) - u0.l2_norm) <= 1e-8 for f in frames)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from railpower import optimizer
from railpower.metrics import GainTable, active_entries
from railpower.optimizer import (InnerInfo, MultiplierState, Problem, inner_descent,
                                update_state)
from railpower import (AllocationMatrix, InfeasibleDataFloor, SolverOptions, activity_mask,
                       average_alloc, build_gain_table, compute_metrics, data_floor,
                       kkt_residual, reference_config, segment_boundaries, solve,
                       total_energy, validate_alloc)

LN2 = np.log(2.0)


def entry(mask, i, j):
    """Compact index of the 0-based (relay, segment) entry (i, j)."""
    relay, seg = active_entries(mask)
    return int(np.flatnonzero((relay == i) & (seg == j))[0])


@pytest.fixture(scope="module")
def tiny():
    cfg = reference_config(num_relays=2, num_bins=2)
    sched = segment_boundaries(cfg)
    table = build_gain_table(cfg, sched)
    return cfg, sched, table


@pytest.fixture(scope="module")
def ref_solution(ref_cfg, ref_sched, ref_table):
    d_min = data_floor(ref_cfg, ref_sched, ref_table)
    alloc, res = solve(ref_cfg, ref_sched, d_min=d_min, table=ref_table)
    return d_min, alloc, res


# ---------------------------------------------------------------- data floor

def test_data_floor_policy(ref_cfg, ref_sched, ref_table):
    d_avg = ref_table.total_data(average_alloc(ref_cfg, ref_sched).values)
    assert_allclose(data_floor(ref_cfg.with_(rho=1.0), ref_sched, ref_table),
                    d_avg, rtol=1e-12)
    assert_allclose(data_floor(ref_cfg, ref_sched, ref_table), 0.8 * d_avg, rtol=1e-12)
    assert data_floor(ref_cfg.with_(d_min_bits=1e9), ref_sched, ref_table) == 1e9


# ------------------------------------------------------------------ residuals

def test_constraint_residuals(ref_cfg, ref_sched, ref_table):
    d_min = data_floor(ref_cfg, ref_sched, ref_table)
    avg = average_alloc(ref_cfg, ref_sched)
    problem = Problem(ref_cfg, ref_sched, d_min, ref_table)
    h = problem.residuals_scaled(problem.to_scaled(avg))
    assert len(h) == 2 * ref_cfg.num_relays + ref_cfg.num_bins - 1
    assert_allclose(h[1:], 0.0, atol=1e-12)   # the average scheme spends the budget
    assert h[0] > 0                            # and overshoots an 80% floor

    # the zero allocation misses the floor by all of it; its budget rows
    # are clipped at the cap
    h0 = problem.residuals_scaled(np.zeros(ref_table.segment.size))
    assert h0[0] == -1.0
    assert np.all(h0[1:] == 0.0)


def test_converged_run_meets_scaled_tolerance(ref_solution):
    _, _, res = ref_solution
    assert res.converged
    assert res.h_inf <= 1e-4


# ------------------------------------------------------- merit function + grad

def test_augmented_lagrangian_reductions(ref_cfg, ref_sched, ref_table):
    # Problem.phi is the augmented Lagrangian in scaled units
    d_min = data_floor(ref_cfg, ref_sched, ref_table)
    d_avg = ref_table.total_data(average_alloc(ref_cfg, ref_sched).values)
    avg = average_alloc(ref_cfg, ref_sched)
    zeros = np.zeros(ref_cfg.num_segments + 1)
    lam = np.linspace(-2.0, 2.0, len(zeros))
    energy = total_energy(avg, ref_sched) / (ref_sched.total_time * ref_cfg.p_t)
    problem = Problem(ref_cfg, ref_sched, d_min, ref_table)
    x = problem.to_scaled(avg)
    assert_allclose(problem.phi(x, zeros, 0.0), energy, rtol=1e-12)

    # a feasible point keeps phi equal to the energy for any multipliers
    at_avg = Problem(ref_cfg, ref_sched, d_avg, ref_table)
    assert_allclose(at_avg.phi(x, lam, 3.0), energy, rtol=1e-9)

    # growing the penalty at a fixed infeasible point raises phi
    half = 0.5 * x
    assert problem.phi(half, zeros, 2.0) > problem.phi(half, zeros, 1.0)

    # passed-in residuals give the same value, bit for bit
    h = problem.residuals_scaled(half)
    assert problem.phi(half, lam, 3.0, h) == problem.phi(half, lam, 3.0)


def test_grad_augmented_lagrangian_structure(ref_cfg, ref_sched, ref_table):
    d_min = data_floor(ref_cfg, ref_sched, ref_table)
    avg = average_alloc(ref_cfg, ref_sched)
    problem = Problem(ref_cfg, ref_sched, d_min, ref_table)
    g = problem.grad_phi(problem.to_scaled(avg), np.zeros(ref_cfg.num_segments + 1), 0.0)
    # with no multipliers and no penalty only the energy term remains: each
    # entry's segment duration over the traversal time
    assert_allclose(g, problem.t_norm[ref_table.segment], rtol=1e-12)


def test_scaled_problem_gradient_finite_differences(ref_cfg, ref_sched, ref_table, rng):
    # the solver's scaled merit function must match its analytic gradient too
    d_min = data_floor(ref_cfg, ref_sched, ref_table)
    problem = Problem(ref_cfg, ref_sched, d_min, ref_table)
    k_all = activity_mask(ref_cfg).sum()
    step = 1e-6
    for trial in range(20):
        x = rng.uniform(0.02, 0.25, k_all)
        lam = rng.uniform(-1.0, 1.0, ref_cfg.num_segments + 1)
        sigma = 10.0 ** rng.uniform(-1.0, 1.5)
        g = problem.grad_phi(x, lam, sigma)
        idx = trial % k_all
        plus, minus = x.copy(), x.copy()
        plus[idx] += step
        minus[idx] -= step
        fd = (problem.phi(plus, lam, sigma) - problem.phi(minus, lam, sigma)) / (2 * step)
        assert abs(fd - g[idx]) <= 1e-4 * max(abs(fd), 1e-8)


# ---------------------------------------------------------------- inner loop

def test_inner_descent_stationary_start(ref_cfg, ref_sched, ref_table):
    # at lam = 0, sigma = 0 the projected gradient vanishes at the origin
    d_min = data_floor(ref_cfg, ref_sched, ref_table)
    problem = Problem(ref_cfg, ref_sched, d_min, ref_table)
    zero = np.zeros(ref_table.segment.size)
    h = problem.residuals_scaled(zero)
    out, h_out, _, info = inner_descent(problem, zero, h, np.zeros(ref_cfg.num_segments + 1),
                                        0.0, SolverOptions())
    assert info.steps == 0 and info.reason == "gradient"
    assert np.all(out == 0.0) and np.array_equal(h_out, h)


def test_inner_descent_monotone(ref_cfg, ref_sched, ref_table):
    d_min = data_floor(ref_cfg, ref_sched, ref_table)
    problem = Problem(ref_cfg, ref_sched, d_min, ref_table)
    state = MultiplierState.initial(ref_cfg)
    x = problem.to_scaled(average_alloc(ref_cfg, ref_sched))
    out, h, derivs, info = inner_descent(problem, x, problem.residuals_scaled(x), state.lam,
                                         state.sigma, SolverOptions())
    assert info.phi_end <= info.phi_start
    # the returned residuals and derivative pair are those of the returned iterate
    assert np.array_equal(h, problem.residuals_scaled(out))
    for carried, fresh in zip(derivs, problem.table.data_derivatives(out)):
        assert np.array_equal(carried, fresh)
    assert info.phi_end == problem.phi(out, state.lam, state.sigma)


def test_inner_descent_cap_flags_not_raises(monkeypatch, ref_cfg, ref_sched, ref_table):
    monkeypatch.setattr(optimizer, "INNER_CAP", 3)
    d_min = data_floor(ref_cfg, ref_sched, ref_table)
    problem = Problem(ref_cfg, ref_sched, d_min, ref_table)
    state = MultiplierState.initial(ref_cfg)
    x = problem.to_scaled(average_alloc(ref_cfg, ref_sched))
    _, _, derivs, info = inner_descent(problem, x, problem.residuals_scaled(x), state.lam,
                                       state.sigma, SolverOptions())
    assert info.reason == "cap" and info.steps == 3
    assert derivs is None   # the capped iterate's pair was never computed


def grid_min_phi(problem, table, cfg, lam0, sigma, levels=50, bins=8000):
    """Exhaustive 50-level-per-variable grid minimum of the scaled merit
    function on the tiny two-relay instance, with the two-variable columns
    combined through fine data bins (bin width is far below the assertion
    tolerance).  ``table`` is the watts gain table the problem was built
    on, not the problem's own scaled copy."""
    t_norm = problem.t_norm
    grid = np.linspace(0.0, cfg.p_t, levels)

    def entry_data(i, j, powers):
        k = entry(table.mask, i, j)
        g, w = table.gains[k], table.weights[k]
        return table.bandwidth / LN2 * (w * np.log1p(powers[:, None] * g)).sum(axis=1)

    # columns 0 and 3 hold one variable, columns 1 and 2 hold two
    e1 = t_norm[0] * grid / cfg.p_t
    d1 = entry_data(0, 0, grid) / problem.d_min
    e4 = t_norm[3] * grid / cfg.p_t
    d4 = entry_data(1, 3, grid) / problem.d_min

    a, b = np.meshgrid(grid, grid, indexing="ij")
    keep = (a + b) <= cfg.p_t * (1 + 1e-12)
    pa, pb = a[keep], b[keep]

    def column_pairs(j):
        e = t_norm[j] * (pa + pb) / cfg.p_t
        d = (entry_data(0, j, pa) + entry_data(1, j, pb)) / problem.d_min
        return e, d

    e2, d2 = column_pairs(1)
    e3, d3 = column_pairs(2)
    e23 = (e2[:, None] + e3[None, :]).ravel()
    d23 = (d2[:, None] + d3[None, :]).ravel()
    edges = np.linspace(d23.min(), d23.max() + 1e-12, bins + 1)
    which = np.clip(np.digitize(d23, edges) - 1, 0, bins - 1)
    e_best = np.full(bins, np.inf)
    np.minimum.at(e_best, which, e23)
    d_rep = 0.5 * (edges[:-1] + edges[1:])
    ok = np.isfinite(e_best)
    e_best, d_rep = e_best[ok], d_rep[ok]

    best = np.inf
    for ee1, dd1 in zip(e1, d1):
        for ee4, dd4 in zip(e4, d4):
            h0 = dd1 + dd4 + d_rep - 1.0
            phi = ee1 + ee4 + e_best - lam0 * h0 + sigma * h0 ** 2
            best = min(best, float(phi.min()))
    return best


def test_inner_descent_matches_grid_search(tiny):
    cfg, sched, table = tiny
    d_min = data_floor(cfg, sched, table)
    problem = Problem(cfg, sched, d_min, table)
    lam = MultiplierState.initial(cfg).lam
    x = problem.to_scaled(average_alloc(cfg, sched))
    out, _, _, info = inner_descent(problem, x, problem.residuals_scaled(x), lam, 1.0,
                                    SolverOptions())
    phi_inner = problem.phi(out, lam, 1.0)
    phi_grid = grid_min_phi(problem, table, cfg, lam0=0.0, sigma=1.0)
    # two-sided: a mis-modelled oracle that overstates the grid minimum
    # fails the second bound
    assert phi_inner <= phi_grid + 0.02 * abs(phi_grid)
    assert phi_grid <= phi_inner + 0.02 * abs(phi_inner)


# ------------------------------------------------------------- state updates

def _state(**kw):
    base = dict(lam=np.array([1.0, -0.5, 0.25]), sigma=2.0)
    base.update(kw)
    return MultiplierState(**base)


def test_solver_options_validation():
    assert SolverOptions() == SolverOptions(eps=1e-4, n_max=100)
    for bad in ({"eps": 0.0}, {"eps": -1e-4}, {"n_max": -1}):
        with pytest.raises(ValueError):
            SolverOptions(**bad)
    assert MultiplierState.initial(reference_config()).sigma == optimizer.SIGMA0 == 1.0


@pytest.mark.parametrize("rho, m", [(0.8, 4), (0.97, 4), (0.99, 4), (1.0, 2)])
def test_solve_stops_on_the_first_cycle_within_tolerance(monkeypatch, rho, m):
    # the stop test is the loop's: every cycle before the last is outside
    # eps and corrects the state, and the last one, within eps, does not
    calls = []

    def counted(*args):
        calls.append(args)
        return update_state(*args)

    monkeypatch.setattr(optimizer, "update_state", counted)
    _, res = solve(reference_config(num_relays=m, rho=rho))
    eps = SolverOptions().eps
    assert res.converged
    assert all(rec.h_inf > eps for rec in res.history[:-1])
    assert res.history[-1].h_inf <= eps
    assert len(calls) == res.cycles - 1


def test_update_state_case_a_grows_sigma_on_equal_norms():
    st = _state()
    h = np.array([0.5, 0.0, 0.0])
    out = update_state(st, h, 0.5)
    assert out.sigma == st.sigma * optimizer.GROWTH == st.sigma * 4.0
    assert np.array_equal(out.lam, st.lam)
    assert out.sigma_grew


def test_update_state_case_b_on_quarter_drop():
    st = _state()
    h_now = np.array([0.1, 0.0, 0.0])
    out = update_state(st, h_now, 1.0)
    assert out.sigma == st.sigma
    assert_allclose(out.lam, st.lam - 2.0 * st.sigma * h_now, rtol=1e-15)
    assert not out.sigma_grew


def test_update_state_case_b_after_sigma_growth():
    st = _state(sigma_grew=True)
    h_now = np.array([0.5, 0.0, 0.0])   # moderate progress, but sigma grew last cycle
    out = update_state(st, h_now, 1.0)
    assert out.sigma == st.sigma
    assert_allclose(out.lam, st.lam - 2.0 * st.sigma * h_now, rtol=1e-15)


def test_update_state_case_c_grows_sigma_on_slow_progress():
    st = _state()
    out = update_state(st, np.array([0.5, 0.0, 0.0]), 1.0)
    assert out.sigma == st.sigma * optimizer.GROWTH
    assert np.array_equal(out.lam, st.lam)


def test_update_state_first_cycle_corrects_multipliers():
    st = _state()
    h_now = np.array([0.3, 0.1, 0.0])
    out = update_state(st, h_now, math.inf)
    assert out.sigma == st.sigma
    assert_allclose(out.lam, st.lam - 2.0 * st.sigma * h_now, rtol=1e-15)


# -------------------------------------------------------------------- solve

def test_solve_reference_contract(ref_cfg, ref_sched, ref_table, ref_solution):
    d_min, alloc, res = ref_solution
    assert res.converged
    assert abs(res.data_bits - d_min) <= 1e-3 * d_min
    assert np.all(alloc.column_sums() <= ref_cfg.p_t * (1 + 1e-6))
    assert validate_alloc(alloc, ref_cfg, ref_sched, tol=1e-6 * ref_cfg.p_t) == []
    sigmas = [rec.sigma for rec in res.history]
    assert np.all(np.diff(sigmas) >= 0)


def scaled_average_energy(cfg, sched, table, d_min):
    """Feasible-point oracle: bisect a global scale on the average scheme
    until it delivers exactly the data floor, then report its energy."""
    avg = average_alloc(cfg, sched)
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if table.total_data(mid * avg.values) >= d_min:
            hi = mid
        else:
            lo = mid
    scale = hi
    return scale * total_energy(avg, sched)


def test_solve_beats_scaled_average(ref_cfg, ref_sched, ref_table, ref_solution):
    d_min, _, res = ref_solution
    oracle = scaled_average_energy(ref_cfg, ref_sched, ref_table, d_min)
    assert res.energy_j <= oracle * (1 + 1e-3)


def test_solve_mirror_symmetry(ref_cfg, ref_solution):
    _, alloc, _ = ref_solution
    dev = np.max(np.abs(alloc.p - alloc.p[::-1, ::-1]))
    assert dev <= 0.05 * ref_cfg.p_t / ref_cfg.num_relays


def test_solve_accepts_custom_init(ref_cfg, ref_sched, ref_table, ref_solution):
    from railpower import constant_alloc

    d_min, _, res_avg = ref_solution
    _, res = solve(ref_cfg, ref_sched, warm=(constant_alloc(ref_cfg, ref_sched), res_avg),
                   d_min=d_min, table=ref_table)
    assert res.converged
    assert abs(res.energy_j - res_avg.energy_j) <= 0.02 * res_avg.energy_j


def test_solve_warm_started_from_its_own_result(ref_cfg, ref_sched, ref_table, ref_solution):
    # the returned allocation with its lam_hat and sigma is already within
    # eps of the floor, so the first cycle ends the loop
    d_min, alloc, res = ref_solution
    _, warm = solve(ref_cfg, ref_sched, warm=(alloc, res), d_min=d_min, table=ref_table)
    assert warm.cycles == 1
    assert warm.converged and warm.h_inf <= SolverOptions().eps


def test_solve_rejects_a_mismatched_warm_start(ref_cfg, ref_sched, ref_table, ref_solution):
    d_min, alloc, res = ref_solution
    small = ref_cfg.with_(num_relays=2)
    small_alloc, small_res = solve(small, segment_boundaries(small))
    with pytest.raises(ValueError, match="mask"):
        solve(ref_cfg, ref_sched, warm=(small_alloc, res), d_min=d_min, table=ref_table)
    with pytest.raises(ValueError, match="2M\\+N-1"):
        solve(ref_cfg, ref_sched, warm=(alloc, small_res), d_min=d_min, table=ref_table)


def test_solve_rejects_nonpositive_floor(ref_cfg, ref_sched, ref_table):
    # a scenario's floor is always positive; a direct call with none to
    # deliver is an error, as it is for Problem
    for d_min in (0.0, -1.0):
        with pytest.raises(ValueError, match="must be positive"):
            solve(ref_cfg, ref_sched, d_min=d_min, table=ref_table)


def test_solve_rejects_unreachable_floor(ref_cfg, ref_sched, ref_table):
    d_avg = ref_table.total_data(average_alloc(ref_cfg, ref_sched).values)
    with pytest.raises(InfeasibleDataFloor):
        solve(ref_cfg, ref_sched, d_min=2.0 * d_avg, table=ref_table)


def test_solve_tiny_instance_not_worse_than_grid(tiny):
    # exact 50-level grid search over the six active variables; the
    # two-variable columns reduce to (sum, best split) frontiers because
    # the full budget grid is separable per column
    cfg, sched, table = tiny
    d_min = data_floor(cfg, sched, table)
    alloc, res = solve(cfg, sched, d_min=d_min, table=table)
    assert res.converged

    grid = np.linspace(0.0, cfg.p_t, 50)
    t = sched.durations

    def entry_data(i, j, powers):
        k = entry(table.mask, i, j)
        g, w = table.gains[k], table.weights[k]
        return table.bandwidth / LN2 * (w * np.log1p(powers[:, None] * g)).sum(axis=1)

    d1 = entry_data(0, 0, grid)
    d4 = entry_data(1, 3, grid)

    def frontier(j):
        a, b = np.meshgrid(grid, grid, indexing="ij")
        keep = (a + b) <= cfg.p_t * (1 + 1e-12)
        pa, pb = a[keep], b[keep]
        sums = pa + pb
        data = entry_data(0, j, pa) + entry_data(1, j, pb)
        levels = np.round(sums / cfg.p_t * 49).astype(int)
        s_best = np.zeros(50)
        d_best = np.full(50, -np.inf)
        for lv, s, d in zip(levels, sums, data):
            if d > d_best[lv]:
                d_best[lv] = d
                s_best[lv] = s
        return s_best, d_best

    s2, d2 = frontier(1)
    s3, d3 = frontier(2)
    assert np.all(np.diff(d2) > 0) and np.all(np.diff(d3) > 0)

    best = np.inf
    for a1, dd1 in zip(grid, d1):
        for a4, dd4 in zip(grid, d4):
            for a2, dd2 in zip(s2, d2):
                need = d_min - dd1 - dd4 - dd2
                k = int(np.searchsorted(d3, need)) if need > 0 else 0
                if k >= len(d3):
                    continue
                e = t[0] * a1 + t[1] * a2 + t[2] * s3[k] + t[3] * a4
                best = min(best, e)

    # two-sided: a mis-modelled oracle that overstates the grid optimum
    # fails the second bound
    assert res.energy_j <= best * 1.02
    assert best <= res.energy_j * 1.02


def test_scaled_problem_gradient_with_active_caps(ref_cfg, ref_sched, ref_table, rng):
    # stage-two column sums up to 1.8x the budget: the clipped budget
    # rows now contribute, and the analytic gradient must still match
    d_min = data_floor(ref_cfg, ref_sched, ref_table)
    problem = Problem(ref_cfg, ref_sched, d_min, ref_table)
    k_all = activity_mask(ref_cfg).sum()
    for trial in range(20):
        x = rng.uniform(0.2, 0.45, k_all)
        assert np.any(ref_table.column_sums(x) > 1.0)
        lam = rng.uniform(-1.0, 1.0, ref_cfg.num_segments + 1)
        sigma = 10.0 ** rng.uniform(-1.0, 1.0)
        g = problem.grad_phi(x, lam, sigma)
        k = trial % k_all
        h = 1e-6
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        fd = (problem.phi(xp, lam, sigma) - problem.phi(xm, lam, sigma)) / (2 * h)
        assert abs(fd - g[k]) <= 1e-4 * max(abs(fd), 1e-8)


def test_solve_recovers_from_over_budget_init(ref_cfg, ref_sched, ref_table,
                                              ref_solution):
    d_min, _, res_ref = ref_solution
    hot = AllocationMatrix(1.5 * average_alloc(ref_cfg, ref_sched).values,
                           activity_mask(ref_cfg))
    alloc, res = solve(ref_cfg, ref_sched, warm=(hot, res_ref), d_min=d_min, table=ref_table)
    assert res.converged
    assert validate_alloc(alloc, ref_cfg, ref_sched, tol=1e-6 * ref_cfg.p_t) == []
    assert abs(res.energy_j - res_ref.energy_j) <= 0.02 * res_ref.energy_j


def test_solve_contracts_on_random_scenarios():
    # geometry, speed, budget, and floor fraction drawn at random: every
    # instance must converge and satisfy the full solution contract.  The
    # floor fraction reaches 0.99, where the budget caps bind; at exactly
    # rho = 1 the KKT residual is held up by complementary slackness
    # (h0 of about -1e-4 times lam_0 of about 20), which waits for a final
    # projection onto the floor, so rho = 1 is left out here
    rng = np.random.default_rng(8)
    from railpower import ScenarioConfig

    for _ in range(10):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 9))
        d_mr = float(rng.uniform(10, 30))
        d_l = float(rng.uniform((m - 1) * d_mr + 30, 300))
        cfg = ScenarioConfig(num_relays=m, num_bins=n, d_mr=d_mr, d_l=d_l,
                             v=float(rng.uniform(40, 110)),
                             p_t=float(rng.uniform(0.5, 12.0)),
                             rho=float(rng.uniform(0.5, 0.99)))
        sched = segment_boundaries(cfg)
        table = build_gain_table(cfg, sched)
        d_min = data_floor(cfg, sched, table)
        alloc, res = solve(cfg, sched, d_min=d_min, table=table)
        assert res.converged
        assert abs(res.data_bits - d_min) <= 1e-3 * d_min
        assert validate_alloc(alloc, cfg, sched, tol=1e-6 * cfg.p_t) == []
        assert kkt_residual(alloc, res.lam_hat, cfg, sched, d_min, table) <= 1e-3
        rec = compute_metrics(alloc, cfg, sched, table)
        assert (res.energy_j, res.data_bits) == (rec.energy_j, rec.data_bits)


# ---------------------------------------------------------------- kkt residual

def test_kkt_residual_zero_at_constructed_optimum():
    cfg = reference_config(num_relays=1, num_bins=1)
    sched = segment_boundaries(cfg)
    table = build_gain_table(cfg, sched)
    d_min = 0.5 * data_floor(cfg.with_(rho=1.0), sched, table)

    # one active variable: bisect the power that meets the floor exactly,
    # then read the data multiplier off the stationarity condition
    lo, hi = 0.0, cfg.p_t
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if table.total_data(np.array([mid])) >= d_min:
            hi = mid
        else:
            lo = mid
    p_star = AllocationMatrix(np.array([hi]), activity_mask(cfg))
    problem = Problem(cfg, sched, d_min, table)
    dd = table.data_derivatives(p_star.values)[0][0] * cfg.p_t / d_min
    lam = np.array([problem.t_norm[0] / dd, 0.0])
    assert kkt_residual(p_star, lam, cfg, sched, d_min, table) <= 1e-10


def test_kkt_residual_small_at_solution(ref_cfg, ref_sched, ref_table, ref_solution):
    d_min, alloc, res = ref_solution
    kkt = kkt_residual(alloc, res.lam_hat, ref_cfg, ref_sched, d_min, ref_table)
    assert kkt <= 10 * 1e-4


def test_kkt_residual_grows_under_perturbation(ref_cfg, ref_sched, ref_table,
                                               ref_solution, rng):
    d_min, alloc, res = ref_solution
    base = kkt_residual(alloc, res.lam_hat, ref_cfg, ref_sched, d_min, ref_table)
    for _ in range(3):
        noise = rng.uniform(-1.0, 1.0, alloc.values.shape) * 0.01 * ref_cfg.p_t
        probe = AllocationMatrix(np.maximum(alloc.values + noise, 0.0), alloc.mask)
        assert kkt_residual(probe, res.lam_hat, ref_cfg, ref_sched, d_min,
                            ref_table) > base


# ------------------------------------------------- projected-Newton step

def plain_inner_descent(problem, x, h, lam, sigma, options, derivs=None):
    """Tolerance oracle: projected gradient, halving from alpha = 1; it
    ignores a passed-in derivative pair and hands none on."""
    phi = problem.phi(x, lam, sigma, h)
    phi_start, steps, evals = phi, 0, 1
    reason, gnorm = "cap", math.inf
    while steps < optimizer.INNER_CAP:
        d = -problem.grad_phi(x, lam, sigma)
        d[(x <= 0.0) & (d < 0.0)] = 0.0
        gnorm = float(np.linalg.norm(d))
        if gnorm <= options.eps:
            reason = "gradient"
            break
        alpha, phi_new, x_new = 1.0, None, None
        for _ in range(60):
            x_try = np.maximum(x + alpha * d, 0.0)
            h_try = problem.residuals_scaled(x_try)
            phi_try = problem.phi(x_try, lam, sigma, h_try)
            evals += 1
            if phi_try < phi:
                x_new, h_new, phi_new = x_try, h_try, phi_try
                break
            alpha *= 0.5
        if x_new is None:
            reason = "stall"
            break
        x, h, phi = x_new, h_new, phi_new
        steps += 1
    return x, h, None, InnerInfo(
        steps=steps, reason=reason, phi_start=phi_start,
        phi_end=phi, grad_norm=gnorm, merit_evals=evals)


def test_inner_descent_one_data_pass_per_merit_evaluation(monkeypatch):
    # solve computes the start point's residuals, and each inner loop hands
    # its iterate's residuals on to the next cycle, so a solve runs one data
    # pass per merit evaluation after each cycle's first, plus a fixed count:
    # the start point (also the infeasibility test's pass) and the returned
    # allocation's per-entry data (its metrics), and at rho = 0.97 the
    # overspend guard's residual (the best iterate sits a hair over its caps)
    counts = {"data": 0, "phi": 0}
    per_call = []

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    def counted_inner(*args):
        before = dict(counts)
        out = inner_descent(*args)
        per_call.append({**{k: counts[k] - before[k] for k in counts},
                         "steps": out[-1].steps, "merit_evals": out[-1].merit_evals})
        return out

    monkeypatch.setattr(GainTable, "total_data", counted("data", GainTable.total_data))
    monkeypatch.setattr(GainTable, "segment_data_matrix",
                        counted("data", GainTable.segment_data_matrix))
    monkeypatch.setattr(Problem, "phi", counted("phi", Problem.phi))
    monkeypatch.setattr(optimizer, "inner_descent", counted_inner)
    for rho, fixed in ((0.8, 2), (0.97, 3)):
        cfg = reference_config(rho=rho)
        sched = segment_boundaries(cfg)
        table = build_gain_table(cfg, sched)
        d_min = data_floor(cfg, sched, table)
        counts.update(data=0, phi=0)
        per_call.clear()
        _, res = solve(cfg, sched, d_min=d_min, table=table)
        assert len(per_call) > 1
        for c in per_call:
            assert c["data"] == c["phi"] - 1 == c["merit_evals"] - 1 >= c["steps"], c
        assert [c.merit_evals for c in res.history] == [c["merit_evals"] for c in per_call]
        assert counts["data"] == sum(c.merit_evals - 1 for c in res.history) + fixed
        assert counts["phi"] == sum(c.merit_evals for c in res.history)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_newton_solve_matches_gradient_solve(monkeypatch, m):
    cfg = reference_config(num_relays=m, rho=0.8)
    sched = segment_boundaries(cfg)
    _, newton = solve(cfg, sched)
    with monkeypatch.context() as patched:
        patched.setattr(optimizer, "inner_descent", plain_inner_descent)
        _, plain = solve(cfg, sched)
    assert newton.converged and plain.converged
    assert_allclose(newton.energy_j, plain.energy_j, rtol=1e-4)


@pytest.mark.parametrize("rho, m", [(0.97, 4), (0.99, 4), (1.0, 2)])
def test_caps_binding_solve_is_kkt_stationary_in_few_steps(rho, m):
    cfg = reference_config(num_relays=m, rho=rho)
    sched = segment_boundaries(cfg)
    table = build_gain_table(cfg, sched)
    d_min = data_floor(cfg, sched, table)
    alloc, res = solve(cfg, sched, d_min=d_min, table=table)
    assert res.converged
    assert kkt_residual(alloc, res.lam_hat, cfg, sched, d_min, table) <= 1e-3
    # a deterministic count, not a timing: projected gradient took thousands
    assert sum(c.inner_steps for c in res.history) <= 200


@pytest.mark.parametrize("rho, m", [(0.97, 4), (0.99, 4), (1.0, 2), (1.0, 4)])
def test_solve_spends_at_most_the_budget_exactly(rho, m):
    # where the caps bind the best iterate sits a hair over them; the
    # returned column sums in watts may not pass the budget by even an ulp
    cfg = reference_config(num_relays=m, rho=rho)
    sched = segment_boundaries(cfg)
    alloc, res = solve(cfg, sched)
    assert validate_alloc(alloc, cfg, sched, tol=0.0) == []
    assert np.all(alloc.column_sums() <= cfg.p_t)
    assert res.energy_j == total_energy(alloc, sched)


def test_inner_loop_stop_on_cap_is_logged(monkeypatch, caplog):
    cfg = reference_config()
    with caplog.at_level("WARNING", logger="railpower.optimizer"), monkeypatch.context() as m:
        m.setattr(optimizer, "INNER_CAP", 1)
        _, res = solve(cfg)
    assert any(c.inner_reason == "cap" for c in res.history)
    assert [r.name for r in caplog.records] == ["railpower.optimizer"]
    assert "stopped on cap" in caplog.records[0].getMessage()
    caplog.clear()
    with caplog.at_level("WARNING", logger="railpower.optimizer"):
        solve(cfg)
    assert caplog.records == []


NEWTON_CASES = {"M=2, N=2": (2, 2), "M=1, N=1": (1, 1), "M=4, N=6": (4, 6)}


@pytest.fixture(scope="module")
def newton_problems():
    problems = {}
    for name, (m, n) in NEWTON_CASES.items():
        cfg = reference_config(num_relays=m, num_bins=n)
        sched = segment_boundaries(cfg)
        table = build_gain_table(cfg, sched)
        problems[name] = Problem(cfg, sched, data_floor(cfg, sched, table), table)
    return problems


def model_hessian(problem, h, dd, dd2, lam, sigma):
    """The merit Hessian model, assembled: diag(|D''| t / D') plus the data
    row's and the capped columns' rank-one terms, where t is the time weight
    plus a capped column's multiplier term, clamped at zero."""
    cols = problem.segment
    capped = h[1:] > 0.0
    t = problem.t_norm[cols] + np.where(
        capped, np.maximum(2.0 * sigma * h[1:] - lam[1:], 0.0), 0.0)[cols]
    capped = capped[cols]
    return (np.diag(-dd2 * t / dd) + 2.0 * sigma * np.outer(dd, dd)
            + 2.0 * sigma * (capped[:, None] & (cols[:, None] == cols[None, :])))


def epsilon_active(x, g):
    delta = min(1e-3, float(np.linalg.norm(x - np.maximum(x - g, 0.0))))
    return (x <= delta) & (g > 0.0)


def dense_newton_direction(problem, x, g, h, dd, dd2, lam, sigma):
    """The projected-Newton direction from the explicitly assembled model
    Hessian, solved by LU on its free block."""
    hess = model_hessian(problem, h, dd, dd2, lam, sigma)
    active = epsilon_active(x, g)
    d = np.zeros(x.size)
    d[active] = -g[active] / np.diag(hess)[active]
    d[~active] = np.linalg.solve(hess[np.ix_(~active, ~active)], -g[~active])
    return d


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=st.sampled_from(list(NEWTON_CASES)), seed=st.integers(0, 2 ** 32 - 1),
       log_sigma=st.floats(-1.0, 6.0), set_curvature=st.booleans(), log_c=st.floats(-3.0, 2.0))
def test_newton_direction_matches_dense_solve(newton_problems, case, seed, log_sigma,
                                              set_curvature, log_c):
    problem = newton_problems[case]
    rng = np.random.default_rng(seed)
    k_all = problem.segment.size
    # some entries at or within 1e-3 of zero, some columns over the cap
    x = rng.uniform(0.0, 1.2, k_all)
    x *= rng.choice([0.0, 1e-3, 1.0], size=k_all, p=[0.15, 0.15, 0.7])
    h = problem.residuals_scaled(x)
    sigma = 10.0 ** log_sigma
    lam = rng.normal(size=problem.t_norm.size + 1) * 10.0 ** rng.uniform(-2.0, 2.0)
    if set_curvature:
        # a small curvature factor c = lam_0 - 2 sigma h0 leaves zero entries
        # with a positive slope: the epsilon-active set.  These draws keep
        # sigma <= 1e2: at sigma = 1e6 with M = N = 1 and x at zero the data
        # row's rank-one term outweighs the diagonal 1e8-fold, and the
        # Woodbury update's cancellation leaves a relative error of 1.6e-8
        sigma = min(sigma, 1e2)
        lam[0] = 2.0 * sigma * h[0] + 10.0 ** log_c
    dd, dd2 = problem.table.data_derivatives(x)
    g = problem.grad_phi(x, lam, sigma, h, dd)
    d = problem.newton_direction(x, g, h, dd, dd2, lam, sigma)
    projected = np.where((x <= 0.0) & (g > 0.0), 0.0, g)
    if np.any(projected != 0.0):
        assert float(g @ d) < 0.0
    # every draw, c <= 0 and wrong-signed budget multipliers included: the
    # model diagonal stays positive for them
    expected = dense_newton_direction(problem, x, g, h, dd, dd2, lam, sigma)
    assert np.linalg.norm(d - expected) <= 1e-8 * np.linalg.norm(expected)


def test_newton_direction_backward_stable_under_a_dominant_penalty(newton_problems):
    # the regime where the penalty dwarfs the data curvature: sigma 1e5-1e6,
    # c = lam_0 - 2 sigma h0 in 1e-3-1e-2, budget multipliers <= 0.  The
    # step solves H d = -g with H the model Hessian reduced to its diagonal
    # on the epsilon-active rows and columns
    problem = newton_problems["M=2, N=2"]
    rng = np.random.default_rng(0)
    k_all, n_cols = problem.segment.size, problem.t_norm.size
    worst = 0.0
    for _ in range(3000):
        x = rng.uniform(0.0, 1.2, k_all)
        x *= rng.choice([0.0, 1e-3, 1.0], size=k_all, p=[0.15, 0.15, 0.7])
        h = problem.residuals_scaled(x)
        sigma = 10.0 ** rng.uniform(5.0, 6.0)
        lam = np.empty(n_cols + 1)
        lam[1:] = -np.abs(rng.normal(size=n_cols)) * 10.0 ** rng.uniform(-2.0, 2.0)
        lam[0] = 2.0 * sigma * h[0] + 10.0 ** rng.uniform(-3.0, -2.0)
        dd, dd2 = problem.table.data_derivatives(x)
        g = problem.grad_phi(x, lam, sigma, h, dd)
        d = problem.newton_direction(x, g, h, dd, dd2, lam, sigma)
        hess = model_hessian(problem, h, dd, dd2, lam, sigma)
        active = epsilon_active(x, g)
        reduced = np.where(active[:, None] | active[None, :], 0.0, hess)
        reduced[active, active] = np.diag(hess)[active]
        err = np.linalg.norm(reduced @ d + g) / (
            np.linalg.norm(reduced, 2) * np.linalg.norm(d) + np.linalg.norm(g))
        worst = max(worst, err)
    assert worst <= 1e-12


def test_newton_direction_is_exact_for_a_one_node_entry():
    # with one quadrature node 1/D'(x) is linear in x, so one Newton step on
    # 1/D' = c / t lands on the root of c D'(x) = t
    cfg = reference_config(num_relays=1, num_bins=1)
    sched = segment_boundaries(cfg)
    simpson = build_gain_table(cfg, sched)
    table = GainTable(gains=simpson.gains[:, cfg.quad_n // 2:cfg.quad_n // 2 + 1],
                      weights=sched.durations[simpson.segment][:, None],
                      mask=simpson.mask, bandwidth=simpson.bandwidth)
    problem = Problem(cfg, sched, data_floor(cfg, sched, table), table)
    x = np.array([0.02])
    lam, sigma = np.array([3.0, 0.0]), 1e-12
    h = problem.residuals_scaled(x)
    dd, dd2 = problem.table.data_derivatives(x)
    g = problem.grad_phi(x, lam, sigma, h, dd)
    d = problem.newton_direction(x, g, h, dd, dd2, lam, sigma)
    c, t = lam[0] - 2.0 * sigma * h[0], problem.t_norm[0]
    gain, weight = problem.table.gains[0, 0], problem.table.weights[0, 0]
    root = c * problem.table.bandwidth / LN2 * weight / t - 1.0 / gain
    assert root > 0.1
    assert abs(x[0] + d[0] - root) <= 1e-9 * root


def test_caps_binding_solves_within_their_work_budget():
    # deterministic counts over the three cold caps-binding solves: 37
    # cycles, 96 inner steps and 166 merit evaluations as measured; the
    # bounds leave about 15% of headroom
    cycles = steps = evals = 0
    for rho, m in ((0.97, 4), (0.99, 4), (1.0, 2)):
        cfg = reference_config(num_relays=m, rho=rho)
        _, res = solve(cfg, segment_boundaries(cfg))
        assert res.converged
        cycles += res.cycles
        steps += sum(c.inner_steps for c in res.history)
        evals += sum(c.merit_evals for c in res.history)
    assert cycles == 37
    assert steps <= 110
    assert evals <= 190


@pytest.mark.parametrize("rho, m", [(0.8, 4), (0.97, 4), (0.99, 4), (1.0, 2)])
def test_solve_makes_one_derivative_pass_per_inner_step_plus_one(monkeypatch, rho, m):
    # each cycle hands the pair at its final iterate to the next, and every
    # accepted step's SNR product feeds the following pass
    passes = []
    derivatives = GainTable.data_derivatives

    def counted(self, p, snr=None):
        passes.append(snr is not None)
        return derivatives(self, p, snr)

    monkeypatch.setattr(GainTable, "data_derivatives", counted)

    def counted_solve(*args, **kwargs):
        passes.clear()
        alloc, res = solve(*args, **kwargs)
        steps = sum(c.inner_steps for c in res.history)
        assert len(passes) == steps + 1
        assert sum(passes) == steps    # only the first pass forms its own product
        return alloc, res

    cfg = reference_config(num_relays=m, rho=rho)
    sched = segment_boundaries(cfg)
    cold = counted_solve(cfg, sched)
    assert len(cold[1].history) > 1
    counted_solve(cfg.with_(rho=0.99 * rho), sched, warm=cold)

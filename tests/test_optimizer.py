import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from oracles import assert_feasible, merit, merit_gradient
from scipy.linalg import lu_factor, lu_solve

from railpower import optimizer
from railpower.metrics import GainTable
from railpower.optimizer import CycleRecord, Problem, cap_shift, inner_descent, update_state
from railpower import (KMH_TO_MPS, AllocationMatrix, InfeasibleDataFloor, average_alloc,
                       build_gain_table, compute_metrics, data_floor, entry_layout,
                       kkt_residual, reference_config, segment_boundaries, solve,
                       total_energy)

LN2 = np.log(2.0)


def entry(layout, i, j):
    """Compact index of the 0-based (relay, segment) entry (i, j)."""
    return int(np.flatnonzero((layout.relay == i) & (layout.segment == j))[0])


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
    # the floor and a row's data are one reduction, so they agree to the bit
    d_avg = compute_metrics(average_alloc(ref_cfg, ref_sched), ref_cfg, ref_sched,
                            ref_table).data_bits
    assert data_floor(ref_cfg.with_(rho=1.0), ref_sched, ref_table) == d_avg
    assert data_floor(ref_cfg, ref_sched, ref_table) == ref_cfg.rho * d_avg
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
    h0 = problem.residuals_scaled(np.zeros(ref_table.layout.segment.size))
    assert h0[0] == -1.0
    assert np.all(h0[1:] == 0.0)


def test_converged_run_meets_scaled_tolerance(ref_solution):
    _, _, res = ref_solution
    assert res.converged
    assert res.h_inf <= 1e-4


# ------------------------------------------------------- merit function + grad

def test_augmented_lagrangian_reductions(ref_cfg, ref_sched, ref_table):
    # the merit function is the augmented Lagrangian in scaled units
    d_min = data_floor(ref_cfg, ref_sched, ref_table)
    d_avg = ref_table.total_data(average_alloc(ref_cfg, ref_sched).values)
    avg = average_alloc(ref_cfg, ref_sched)
    zeros = np.zeros(ref_cfg.num_segments + 1)
    # a data multiplier of either sign; cap multipliers <= 0, the one-sided
    # form's domain and the only sign the solver produces
    lam = np.linspace(-2.0, 2.0, len(zeros))
    lam[1:] = -np.abs(lam[1:])
    energy = total_energy(avg, ref_sched) / (ref_sched.total_time * ref_cfg.p_t)
    problem = Problem(ref_cfg, ref_sched, d_min, ref_table)
    x = problem.to_scaled(avg)
    # at zero multipliers: the energy plus the penalty on the floor row,
    # h_0 = D_avg / (0.8 D_avg) - 1 = 0.25, the caps spent exactly
    assert_allclose(merit(problem, x, zeros, 2.0), energy + 2.0 * 0.25 ** 2, rtol=1e-12)

    # a feasible point keeps phi equal to the energy for any multipliers
    at_avg = Problem(ref_cfg, ref_sched, d_avg, ref_table)
    assert_allclose(merit(at_avg, x, lam, 3.0), energy, rtol=1e-9)

    # growing the penalty at a fixed infeasible point raises phi
    half = 0.5 * x
    assert merit(problem, half, zeros, 2.0) > merit(problem, half, zeros, 1.0)

    # Problem.phi at the iterate's shifted residuals and column sums gives
    # the same value, bit for bit
    cols = problem.layout.column_sums(half)
    h = problem.residuals_scaled(half, cap_shift(lam, 3.0), cols=cols)
    assert problem.phi(lam, 3.0, h, cols) == merit(problem, half, lam, 3.0)


def test_grad_augmented_lagrangian_structure(ref_cfg, ref_sched, ref_table):
    d_min = data_floor(ref_cfg, ref_sched, ref_table)
    avg = average_alloc(ref_cfg, ref_sched)
    problem = Problem(ref_cfg, ref_sched, d_min, ref_table)
    dd = problem.table.data_derivatives(problem.to_scaled(avg))[0]
    g = problem.grad_phi(np.zeros(ref_cfg.num_segments + 1), dd)
    # with a zero multiplier estimate only the energy term remains: each
    # entry's segment duration over the traversal time
    assert_allclose(g, problem.t_norm[ref_table.layout.segment], rtol=1e-12)


def test_scaled_problem_gradient_finite_differences(ref_cfg, ref_sched, ref_table, rng):
    # the solver's scaled merit function must match its analytic gradient too
    d_min = data_floor(ref_cfg, ref_sched, ref_table)
    problem = Problem(ref_cfg, ref_sched, d_min, ref_table)
    k_all = entry_layout(ref_cfg).segment.size
    step = 1e-6
    for trial in range(20):
        x = rng.uniform(0.02, 0.25, k_all)
        lam = rng.uniform(-1.0, 1.0, ref_cfg.num_segments + 1)
        sigma = 10.0 ** rng.uniform(-1.0, 1.5)
        g = merit_gradient(problem, x, lam, sigma)
        idx = trial % k_all
        plus, minus = x.copy(), x.copy()
        plus[idx] += step
        minus[idx] -= step
        fd = (merit(problem, plus, lam, sigma) - merit(problem, minus, lam, sigma)) / (2 * step)
        assert abs(fd - g[idx]) <= 1e-4 * max(abs(fd), 1e-8)


# ---------------------------------------------------------------- inner loop

def test_inner_descent_stationary_start(ref_cfg, ref_sched, ref_table):
    # at lam = 0 and a penalty whose data pull at the origin, 2 sigma D'_k(0),
    # stays below every entry's energy slope t_k, the projected gradient
    # vanishes at the origin
    d_min = data_floor(ref_cfg, ref_sched, ref_table)
    problem = Problem(ref_cfg, ref_sched, d_min, ref_table)
    zero = np.zeros(ref_table.layout.segment.size)
    sigma = 2.0 ** -20
    assert np.all(2.0 * sigma * problem.table.data_derivatives(zero)[0]
                  < problem.t_norm[problem.segment])
    h = problem.residuals_scaled(zero)
    rec, _ = inner_descent(problem, zero, h, np.zeros(ref_cfg.num_segments + 1), sigma,
                           problem.table.data_derivatives(zero))
    assert rec.inner_steps == 0 and rec.inner_reason == "gradient"
    assert np.all(rec.x == 0.0) and np.array_equal(rec.h, h)


def test_inner_descent_monotone(ref_cfg, ref_sched, ref_table):
    d_min = data_floor(ref_cfg, ref_sched, ref_table)
    problem = Problem(ref_cfg, ref_sched, d_min, ref_table)
    lam, sigma = np.zeros(ref_cfg.num_segments + 1), 1.0
    x = problem.to_scaled(average_alloc(ref_cfg, ref_sched))
    h0 = problem.residuals_scaled(x)
    rec, derivs = inner_descent(problem, x, h0, lam, sigma, problem.table.data_derivatives(x))
    assert rec.phi <= merit(problem, x, lam, sigma)
    # the returned residuals and derivative pair are those of the returned iterate
    assert np.array_equal(rec.h, problem.residuals_scaled(rec.x))
    for carried, fresh in zip(derivs, problem.table.data_derivatives(rec.x)):
        assert np.array_equal(carried, fresh)
    assert rec.phi == merit(problem, rec.x, lam, sigma)


def test_inner_descent_cap_flags_not_raises(monkeypatch, ref_cfg, ref_sched, ref_table):
    monkeypatch.setattr(optimizer, "INNER_CAP", 3)
    d_min = data_floor(ref_cfg, ref_sched, ref_table)
    problem = Problem(ref_cfg, ref_sched, d_min, ref_table)
    x = problem.to_scaled(average_alloc(ref_cfg, ref_sched))
    rec, derivs = inner_descent(problem, x, problem.residuals_scaled(x),
                                np.zeros(ref_cfg.num_segments + 1), 1.0,
                                problem.table.data_derivatives(x))
    assert rec.inner_reason == "cap" and rec.inner_steps == 3
    # the capped iterate's pair is handed on like any other
    for carried, fresh in zip(derivs, problem.table.data_derivatives(rec.x)):
        assert np.array_equal(carried, fresh)


@pytest.mark.parametrize("reason, overrides, inner_cap", [
    ("gradient", {}, None),
    ("stall", {"noise_figure": 200.0}, None),   # its last cycle stalls after 4 steps
    ("cap", {}, 3),
])
def test_inner_descent_hands_on_its_final_iterates_pair(monkeypatch, reason, overrides,
                                                         inner_cap):
    # however the loop stops, the pair it returns is a fresh derivative
    # pass at its final iterate, bit for bit
    if inner_cap is not None:
        monkeypatch.setattr(optimizer, "INNER_CAP", inner_cap)
    returned = []

    def recorded(problem, *args):
        out = inner_descent(problem, *args)
        returned.append((problem, *out))
        return out

    monkeypatch.setattr(optimizer, "inner_descent", recorded)
    solve(reference_config(**overrides))
    stops = [(p, rec, derivs) for p, rec, derivs in returned if rec.inner_reason == reason]
    assert any(rec.inner_steps > 0 for _, rec, _ in stops)
    for problem, rec, derivs in stops:
        for carried, fresh in zip(derivs, problem.table.data_derivatives(rec.x), strict=True):
            assert np.array_equal(carried, fresh)


def grid_min_phi(problem, table, cfg, lam0, sigma, levels=50, bins=8000):
    """Exhaustive 50-level-per-variable grid minimum of the scaled merit
    function on the tiny two-relay instance, with the two-variable columns
    combined through fine data bins (bin width is far below the assertion
    tolerance).  ``table`` is the watts gain table the problem was built
    on, not the problem's own scaled copy."""
    t_norm = problem.t_norm
    grid = np.linspace(0.0, cfg.p_t, levels)

    def entry_data(i, j, powers):
        k = entry(table.layout, i, j)
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
    lam = np.zeros(cfg.num_segments + 1)
    x = problem.to_scaled(average_alloc(cfg, sched))
    rec, _ = inner_descent(problem, x, problem.residuals_scaled(x), lam, 1.0,
                           problem.table.data_derivatives(x))
    phi_inner = merit(problem, rec.x, lam, 1.0)
    phi_grid = grid_min_phi(problem, table, cfg, lam0=0.0, sigma=1.0)
    # two-sided: a mis-modelled oracle that overstates the grid minimum
    # fails the second bound
    assert phi_inner <= phi_grid + 0.02 * abs(phi_grid)
    assert phi_grid <= phi_inner + 0.02 * abs(phi_inner)


# ------------------------------------------------------------- state updates

LAM, SIGMA = np.array([1.0, -0.5, 0.25]), 2.0


def update_from(h_now, sigma_grew, prev_inf):
    """update_state for a cycle that ended at residuals h_now under LAM and
    SIGMA, handed the record's residual norm and multiplier estimate."""
    return update_state(LAM, SIGMA, sigma_grew, float(np.max(np.abs(h_now))),
                        LAM - 2.0 * SIGMA * h_now, prev_inf)


@pytest.mark.parametrize("rho, m", [(0.8, 4), (0.97, 4), (0.99, 4), (1.0, 4)])
def test_solve_stops_on_the_first_cycle_within_tolerance(monkeypatch, rho, m):
    # the stop test is the loop's: at these points every cycle before the
    # last is outside eps and corrects the state, and the last one, within
    # eps and stationary, does not
    calls = []

    def counted(*args):
        calls.append(args)
        return update_state(*args)

    monkeypatch.setattr(optimizer, "update_state", counted)
    _, res = solve(reference_config(num_relays=m, rho=rho))
    eps = optimizer.EPS
    assert res.converged
    assert all(rec.h_inf > eps for rec in res.history[:-1])
    assert res.history[-1].h_inf <= eps
    assert len(calls) == res.cycles - 1


def test_converged_means_feasible_and_stationary(monkeypatch):
    # at rho = 1.0, M = 2 the first cycle within eps of the floor is not yet
    # KKT-stationary: the loop runs one more cycle, and converged holds only
    # for the stationary record, which the solve returns
    cfg = reference_config(num_relays=2, rho=1.0)
    sched = segment_boundaries(cfg)
    table = build_gain_table(cfg, sched)
    d_min = data_floor(cfg, sched, table)
    eps = optimizer.EPS
    alloc, res = solve(cfg, sched, d_min=d_min, table=table)
    assert res.converged
    assert kkt_residual(alloc, res.lam_hat, cfg, sched, d_min, table) <= 10 * eps
    assert res.lam_hat is res.history[-1].lam_hat
    assert sum(c.h_inf <= eps for c in res.history) == 2
    # stopped one cycle early, the solve ends within eps but not stationary
    monkeypatch.setattr(optimizer, "N_MAX", res.cycles - 2)
    _, short = solve(cfg, sched, d_min=d_min, table=table)
    assert short.h_inf <= eps and not short.converged


@pytest.mark.parametrize("rho, m, frac, drops", [
    (0.97, 4, 0.99, True),
    (0.99, 4, 0.99, True), (0.99, 4, 0.999, False),
    (1.0, 4, 0.99, True), (1.0, 4, 0.999, False),
    (1.0, 2, 0.99, False), (1.0, 2, 0.999, False),
])
def test_warm_solve_below_a_caps_binding_floor_drops_slack_multipliers(rho, m, frac, drops):
    # the caps bind at these floors.  Warm-started just below one, the solve
    # ends stationary within a few cycles, since the merit has no kink at a
    # cap for the iterate to stall on; a column that the warm start capped
    # and that is slack now (``drops``) has its multiplier fall to zero
    cfg = reference_config(num_relays=m, rho=rho)
    sched = segment_boundaries(cfg)
    cold = solve(cfg, sched)
    low = cfg.with_(rho=frac * rho)
    table = build_gain_table(low, sched)
    d_min = data_floor(low, sched, table)
    alloc, res = solve(low, sched, warm=cold, d_min=d_min, table=table)
    assert res.converged
    assert res.cycles <= 3
    assert kkt_residual(alloc, res.lam_hat, low, sched, d_min, table) <= 10 * optimizer.EPS
    slack = alloc.column_sums() < low.p_t * (1.0 - 1e-3)
    warm_caps = cold[1].lam_hat[1:]
    assert np.any(warm_caps[slack] < 0.0) == drops
    assert np.all(res.lam_hat[1:][slack] == 0.0)


@pytest.mark.parametrize("rho, m", [(1e-2, 4), (1e-3, 4), (1e-5, 4), (0.03, 6)])
def test_small_floor_solve_converges_in_few_steps(rho, m):
    # at these floors every entry sits far below an absolute 1e-3, and an
    # epsilon-active set with such a threshold holds nearly all of them
    # back: the solve creeps (877 inner steps at rho = 0.03, M = 6, 10,009
    # at rho = 0.01).  The threshold relative to the iterate holds back only
    # its tiny entries
    cfg = reference_config(num_relays=m, rho=rho)
    sched = segment_boundaries(cfg)
    table = build_gain_table(cfg, sched)
    d_min = data_floor(cfg, sched, table)
    alloc, res = solve(cfg, sched, d_min=d_min, table=table)
    assert res.converged
    assert kkt_residual(alloc, res.lam_hat, cfg, sched, d_min, table) <= 10 * optimizer.EPS
    assert sum(c.inner_steps for c in res.history) <= 1000


def start_curvature(problem, x):
    """kappa0, formed here: the data row's sum of D'_k^2 / a_k at x, a_k the
    uncapped Newton diagonal |D''_k| t_k / D'_k."""
    dd, dd2 = problem.table.data_derivatives(x)
    return float(np.sum(dd * dd / (-dd2 * problem.t_norm[problem.segment] / dd)))


def start_penalty(monkeypatch, cfg):
    """A cold solve's first penalty factor at cfg, with kappa0 at the
    average allocation."""
    sched = segment_boundaries(cfg)
    table = build_gain_table(cfg, sched)
    problem = Problem(cfg, sched, data_floor(cfg, sched, table), table)
    kappa0 = start_curvature(problem, problem.to_scaled(average_alloc(cfg, sched)))
    monkeypatch.setattr(optimizer, "N_MAX", 0)
    _, res = solve(cfg, sched, table=table)
    return res.history[0].sigma, kappa0


START_CASES = {
    "0.5-4": {"rho": 0.5, "num_relays": 4}, "0.8-4": {"rho": 0.8, "num_relays": 4},
    "0.97-4": {"rho": 0.97, "num_relays": 4}, "1.0-6": {"rho": 1.0, "num_relays": 6},
    # kappa0 grows as the floor shrinks: these start far below sigma = 1
    "rho-0.01": {"rho": 1e-2}, "rho-1e-05": {"rho": 1e-5},
    "pathloss_exp-8.0": {"pathloss_exp": 8.0}, "d_min_bits-1.0": {"d_min_bits": 1.0},
}


@pytest.mark.parametrize("overrides", START_CASES.values(), ids=START_CASES.keys())
def test_cold_solve_starts_at_the_penalty_its_data_curvature_asks_for(monkeypatch, overrides):
    # sigma0 is the largest power of two with 2 sigma0 kappa0 <= MASS0, at
    # every floor
    sigma0, kappa0 = start_penalty(monkeypatch, reference_config(**overrides))
    assert math.frexp(sigma0)[0] == 0.5
    assert optimizer.MASS0 / 2 < 2.0 * sigma0 * kappa0 <= optimizer.MASS0


def test_every_cycle_penalty_is_a_power_of_two():
    # the start rule and the growth rules keep sigma a power of two, so the
    # cap shift lam / 2 sigma and 2 sigma h stay exact, cold and warm
    for m in (1, 2, 4, 8):
        for n in (1, 4):
            for rho in (0.5, 0.9, 1.0):
                cfg = reference_config(num_relays=m, num_bins=n, rho=rho)
                sched = segment_boundaries(cfg)
                table = build_gain_table(cfg, sched)
                cold = solve(cfg, sched, table=table)
                warm = solve(cfg.with_(rho=0.99 * rho), sched, warm=cold, table=table)
                for res in (cold[1], warm[1]):
                    assert all(math.frexp(rec.sigma)[0] == 0.5 for rec in res.history)


def test_stalled_solve_ends_at_the_penalty_ceiling():
    # at a path-loss exponent of 8 (peak SNR at P_T of about 1e-24) the
    # inner loops make no headway on the floor, so the penalty keeps growing:
    # the loop ends, unconverged, once it passes SIGMA_MAX, with every
    # figure finite (pytest turns an overflow warning into an error).  No
    # record beats the start point, which it returns
    cfg = reference_config(pathloss_exp=8.0)
    sched = segment_boundaries(cfg)
    alloc, res = solve(cfg, sched)
    assert not res.converged and res.cycles < optimizer.N_MAX + 1
    last = res.history[-1].sigma
    assert last <= optimizer.SIGMA_MAX < optimizer.GROWTH * last
    assert_allclose(alloc.values, average_alloc(cfg, sched).values, rtol=1e-15, atol=0.0)
    assert np.all(np.isfinite(res.lam_hat)) and np.isfinite(res.energy_j)


def test_update_state_case_a_grows_sigma_on_equal_norms():
    h = np.array([0.5, 0.0, 0.0])
    lam, sigma, sigma_grew = update_from(h, False, 0.5)
    assert sigma == SIGMA * optimizer.GROWTH == SIGMA * 4.0
    assert np.array_equal(lam, LAM)
    assert sigma_grew


def test_update_state_case_b_on_quarter_drop():
    h_now = np.array([0.1, 0.0, 0.0])
    lam, sigma, sigma_grew = update_from(h_now, False, 1.0)
    assert sigma == SIGMA
    assert_allclose(lam, LAM - 2.0 * SIGMA * h_now, rtol=1e-15)
    assert not sigma_grew


def test_update_state_case_b_after_sigma_growth():
    h_now = np.array([0.5, 0.0, 0.0])   # moderate progress, but sigma grew last cycle
    lam, sigma, _ = update_from(h_now, True, 1.0)
    assert sigma == SIGMA
    assert_allclose(lam, LAM - 2.0 * SIGMA * h_now, rtol=1e-15)


def test_update_state_case_c_grows_sigma_on_slow_progress():
    lam, sigma, _ = update_from(np.array([0.5, 0.0, 0.0]), False, 1.0)
    assert sigma == SIGMA * optimizer.GROWTH
    assert np.array_equal(lam, LAM)


def test_update_state_first_cycle_corrects_multipliers():
    h_now = np.array([0.3, 0.1, 0.0])
    lam, sigma, _ = update_from(h_now, False, math.inf)
    assert sigma == SIGMA
    assert_allclose(lam, LAM - 2.0 * SIGMA * h_now, rtol=1e-15)


# -------------------------------------------------------------------- solve

def test_solve_reference_contract(ref_cfg, ref_sched, ref_table, ref_solution):
    d_min, alloc, res = ref_solution
    assert res.converged
    assert abs(res.data_bits - d_min) <= 1e-3 * d_min
    assert np.all(alloc.column_sums() <= ref_cfg.p_t * (1 + 1e-6))
    assert_feasible(alloc, ref_cfg, tol=1e-6 * ref_cfg.p_t)
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
    assert warm.converged and warm.h_inf <= optimizer.EPS


def test_solve_rejects_a_mismatched_warm_start(ref_cfg, ref_sched, ref_table, ref_solution):
    d_min, alloc, res = ref_solution
    small = ref_cfg.with_(num_relays=2)
    small_alloc, small_res = solve(small, segment_boundaries(small))
    with pytest.raises(ValueError, match="layout"):
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
        k = entry(table.layout, i, j)
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
    k_all = entry_layout(ref_cfg).segment.size
    for trial in range(20):
        x = rng.uniform(0.2, 0.45, k_all)
        assert np.any(ref_table.layout.column_sums(x) > 1.0)
        lam = rng.uniform(-1.0, 1.0, ref_cfg.num_segments + 1)
        sigma = 10.0 ** rng.uniform(-1.0, 1.0)
        g = merit_gradient(problem, x, lam, sigma)
        k = trial % k_all
        h = 1e-6
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        fd = (merit(problem, xp, lam, sigma) - merit(problem, xm, lam, sigma)) / (2 * h)
        assert abs(fd - g[k]) <= 1e-4 * max(abs(fd), 1e-8)


def test_solve_recovers_from_over_budget_init(ref_cfg, ref_sched, ref_table,
                                              ref_solution):
    d_min, _, res_ref = ref_solution
    hot = AllocationMatrix(1.5 * average_alloc(ref_cfg, ref_sched).values,
                           entry_layout(ref_cfg))
    alloc, res = solve(ref_cfg, ref_sched, warm=(hot, res_ref), d_min=d_min, table=ref_table)
    assert res.converged
    assert_feasible(alloc, ref_cfg, tol=1e-6 * ref_cfg.p_t)
    assert abs(res.energy_j - res_ref.energy_j) <= 0.02 * res_ref.energy_j


def test_solve_contracts_on_random_scenarios():
    # geometry, speed, budget, and floor fraction drawn at random: every
    # instance must converge and satisfy the full solution contract.  The
    # floor fraction reaches 0.99, where the budget caps bind; at exactly
    # rho = 1 the KKT residual is held up by complementary slackness
    # (h0 of about -1e-4 times lam_0 of about 20), which waits for a final
    # projection onto the floor, so rho = 1 is left out here.  Twenty more
    # draws from a generator of their own take rho log-uniform on
    # [1e-5, 0.5]: the small floors, where every entry sits far below an
    # absolute 1e-3, are verified down to rho = 1e-5
    rng = np.random.default_rng(8)
    from railpower import ScenarioConfig

    def uniform(rng):
        return float(rng.uniform(0.5, 0.99))

    def log_uniform(rng):
        return float(np.exp(rng.uniform(np.log(1e-5), np.log(0.5))))

    for rng, draw_rho in [(rng, uniform)] * 10 + [(np.random.default_rng(9), log_uniform)] * 20:
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 9))
        d_mr = float(rng.uniform(10, 30))
        d_l = float(rng.uniform((m - 1) * d_mr + 30, 300))
        cfg = ScenarioConfig(num_relays=m, num_bins=n, d_mr=d_mr, d_l=d_l,
                             v=float(rng.uniform(40, 110)),
                             p_t=float(rng.uniform(0.5, 12.0)),
                             rho=draw_rho(rng))
        sched = segment_boundaries(cfg)
        table = build_gain_table(cfg, sched)
        d_min = data_floor(cfg, sched, table)
        alloc, res = solve(cfg, sched, d_min=d_min, table=table)
        assert res.converged
        assert abs(res.data_bits - d_min) <= 1e-3 * d_min
        assert_feasible(alloc, cfg, tol=1e-6 * cfg.p_t)
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
    p_star = AllocationMatrix(np.array([hi]), entry_layout(cfg))
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
        probe = AllocationMatrix(np.maximum(alloc.values + noise, 0.0), alloc.layout)
        assert kkt_residual(probe, res.lam_hat, ref_cfg, ref_sched, d_min,
                            ref_table) > base


# ------------------------------------------------- projected-Newton step

def multiplier_estimate(problem, x, h, lam, sigma):
    """lam_0 - 2 sigma h_0 for the data row; min(lam_j - 2 sigma (s_j - 1), 0)
    for budget column j with sum s_j."""
    caps = np.minimum(lam[1:] - 2.0 * sigma * (problem.layout.column_sums(x) - 1.0), 0.0)
    return np.concatenate(([lam[0] - 2.0 * sigma * h[0]], caps))


def violation(h):
    """max(|h_0|, max_j h_j) of shifted residuals h."""
    return max(abs(float(h[0])), float(h[1:].max()))


def plain_inner_descent(problem, x, h, lam, sigma, derivs):
    """Tolerance oracle: projected gradient, halving from alpha = 1; it
    ignores the passed-in residuals and derivative pair and hands on a
    fresh pair at its final iterate."""
    shift = cap_shift(lam, sigma)
    h = problem.residuals_scaled(x, shift)
    phi = merit(problem, x, lam, sigma)
    steps, evals, reason = 0, 1, "cap"
    while steps < optimizer.INNER_CAP:
        d = -merit_gradient(problem, x, lam, sigma)
        d[(x <= 0.0) & (d < 0.0)] = 0.0
        gnorm = float(np.linalg.norm(d))
        if gnorm <= optimizer.EPS:
            reason = "gradient"
            break
        alpha, phi_new, x_new = 1.0, None, None
        for _ in range(60):
            x_try = np.maximum(x + alpha * d, 0.0)
            h_try = problem.residuals_scaled(x_try, shift)
            phi_try = merit(problem, x_try, lam, sigma)
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
    rec = CycleRecord(h_inf=violation(h), sigma=sigma, phi=phi,
                      energy_j=problem.energy_j(x), inner_steps=steps, inner_reason=reason,
                      merit_evals=evals, x=x, h=h,
                      lam_hat=multiplier_estimate(problem, x, h, lam, sigma))
    return rec, problem.table.data_derivatives(x)


def test_inner_descent_one_data_pass_per_merit_evaluation(monkeypatch):
    # solve computes the start point's residuals, and each inner loop hands
    # its iterate's residuals on to the next cycle, so a solve runs one data
    # pass per merit evaluation after each cycle's first, plus a fixed count:
    # the average allocation (the infeasibility test's pass, and a cold
    # solve's start point) and the returned allocation's data (its
    # metrics); at rho = 0.97 the overspend guard's residual (the best
    # iterate sits a hair over its caps), and in a warm solve the warm
    # start's residuals
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
                         "steps": out[0].inner_steps, "merit_evals": out[0].merit_evals})
        return out

    monkeypatch.setattr(GainTable, "total_data", counted("data", GainTable.total_data))
    monkeypatch.setattr(GainTable, "segment_data_matrix",
                        counted("data", GainTable.segment_data_matrix))
    monkeypatch.setattr(Problem, "phi", counted("phi", Problem.phi))
    monkeypatch.setattr(optimizer, "inner_descent", counted_inner)
    cold = None
    for rho, warm_start, fixed in ((0.8, False, 2), (0.97, False, 3), (0.75, True, 3)):
        cfg = reference_config(rho=rho)
        sched = segment_boundaries(cfg)
        table = build_gain_table(cfg, sched)
        d_min = data_floor(cfg, sched, table)
        counts.update(data=0, phi=0)
        per_call.clear()
        alloc, res = solve(cfg, sched, warm=cold if warm_start else None, d_min=d_min,
                           table=table)
        if cold is None:
            cold = alloc, res
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
    assert_feasible(alloc, cfg, tol=0.0)
    assert np.all(alloc.column_sums() <= cfg.p_t)
    assert res.energy_j == total_energy(alloc, sched)


def test_solve_out_of_cycles_returns_its_lowest_residual_cycle(monkeypatch):
    # one inner step per cycle keeps the loop from converging within its 31
    # cycles, and the residual climbs again after its lowest cycle
    monkeypatch.setattr(optimizer, "INNER_CAP", 1)
    monkeypatch.setattr(optimizer, "N_MAX", 30)
    cfg = reference_config(num_relays=5, rho=0.995)
    alloc, res = solve(cfg)
    assert not res.converged and res.cycles == 31
    lowest = min(c.h_inf for c in res.history)
    best = next(c for c in res.history if c.h_inf == lowest)
    assert best is not res.history[-1]
    assert res.sigma == best.sigma and res.lam_hat is best.lam_hat
    # the allocation is the best cycle's iterate in watts, scaled back only
    # in the columns where that iterate overspends the budget
    watts = best.x * cfg.p_t
    over_cols = alloc.layout.column_sums(watts) > cfg.p_t
    over = over_cols[alloc.layout.segment]
    assert over.any() and not over.all()
    assert np.array_equal(alloc.values[~over], watts[~over])
    assert np.all(alloc.values[over] < watts[over])
    sums = alloc.column_sums()
    assert np.all(sums <= cfg.p_t)
    assert_allclose(sums[over_cols], cfg.p_t, rtol=1e-12)


def assert_records_replay(cfg, warm_rho):
    """Each record of cfg's solve (warm-started from the solve at
    ``warm_rho`` unless that is None) holds its own iterate's residuals,
    norm, energy, merit value and multiplier estimate, bit for bit, under
    the multipliers and penalty its cycle ran with, replayed here from the
    start rule through the update rules; and every field equals the
    reference inner loop's, run from the cycle's start.  Returns the
    solve's result."""
    sched = segment_boundaries(cfg)
    table = build_gain_table(cfg, sched)
    d_min = data_floor(cfg, sched, table)
    problem = Problem(cfg, sched, d_min, table)
    x = problem.to_scaled(average_alloc(cfg, sched))
    # the largest power of two with 2 sigma kappa0 <= MASS0
    target = optimizer.MASS0 / (2.0 * start_curvature(problem, x))
    lam, sigma = np.zeros(cfg.num_segments + 1), 2.0 ** math.floor(math.log2(target))
    warm = None
    if warm_rho is not None:
        warm = solve(cfg.with_(rho=warm_rho), sched, table=table)
        lam, sigma = warm[1].lam_hat, warm[1].sigma
        x = np.maximum(problem.to_scaled(warm[0]), 0.0)
    _, res = solve(cfg, sched, warm=warm, d_min=d_min, table=table)
    h, grew, prev_inf = problem.residuals_scaled(x), False, math.inf
    assert len(res.history) > 1
    for rec in res.history:
        assert np.array_equal(rec.h, problem.residuals_scaled(rec.x, cap_shift(lam, sigma)))
        assert rec.h_inf == violation(rec.h)
        assert rec.energy_j == total_energy(problem.to_physical(rec.x), sched)
        assert rec.sigma == sigma
        assert np.array_equal(rec.lam_hat, multiplier_estimate(problem, rec.x, rec.h, lam, sigma))
        assert rec.phi == merit(problem, rec.x, lam, sigma)
        ref = reference_inner_descent(problem, x, h, lam, sigma)
        for name in ("h_inf", "sigma", "phi", "energy_j", "inner_steps", "inner_reason",
                     "merit_evals"):
            assert getattr(rec, name) == getattr(ref, name), name
        for name in ("x", "h", "lam_hat"):
            assert np.array_equal(getattr(rec, name), getattr(ref, name)), name
        lam, sigma, grew = update_state(lam, sigma, grew, rec.h_inf, rec.lam_hat, prev_inf)
        x, h, prev_inf = rec.x, rec.h, rec.h_inf
    return res


@pytest.mark.parametrize("rho, warm_rho", [(0.8, None), (0.75, 0.8), (0.99, None)])
def test_cycle_records_hold_their_iterates_figures(rho, warm_rho):
    # a cold, a warm and a caps-binding solve
    res = assert_records_replay(reference_config(rho=rho), warm_rho)
    if rho == 0.99:
        assert any(np.any(rec.h[1:] > 0.0) for rec in res.history)   # the caps bind


@pytest.mark.parametrize("rho", [0.8, 1.0])
def test_low_snr_cycle_records_match_the_reference_inner_loop(rho):
    # at a 60 dB noise figure full Newton steps overshoot: some cross caps
    # the iterate leaves slack, but the merit rejects them for more than
    # those caps' penalty, and only a step that they alone reject is retried
    assert_records_replay(reference_config(noise_figure=60.0, rho=rho), None)


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
    plus a capped column's multiplier term, clamped at zero; h are the
    residuals shifted by ``cap_shift(lam, sigma)``."""
    cols = problem.segment
    capped = h[1:] > cap_shift(lam, sigma)
    t = problem.t_norm[cols] + np.where(
        capped, np.maximum(2.0 * sigma * h[1:] - lam[1:], 0.0), 0.0)[cols]
    capped = capped[cols]
    return (np.diag(-dd2 * t / dd) + 2.0 * sigma * np.outer(dd, dd)
            + 2.0 * sigma * (capped[:, None] & (cols[:, None] == cols[None, :])))


def epsilon_active(x, g):
    delta = 1e-3 * min(1.0, float(x.max()))
    return (x <= delta) & (g > 0.0)


def dense_newton_direction(problem, x, g, h, dd, dd2, lam, sigma):
    """The projected-Newton direction from the explicitly assembled model
    Hessian, solved by LU on its free block and refined three times: each
    residual is taken in extended precision and its correction solved with
    the same LU, so an ill-conditioned block keeps its digits."""
    hess = model_hessian(problem, h, dd, dd2, lam, sigma)
    active = epsilon_active(x, g)
    d = np.zeros(x.size)
    d[active] = -g[active] / np.diag(hess)[active]
    free = hess[np.ix_(~active, ~active)]
    lu = lu_factor(free)
    d_free = lu_solve(lu, -g[~active])
    for _ in range(3):
        r = -g[~active].astype(np.longdouble) - free.astype(np.longdouble) @ d_free
        d_free = d_free + lu_solve(lu, r.astype(float))
    d[~active] = d_free
    return d


def reference_newton_direction(problem, x, g, h, dd, dd2, lam, sigma, capped=None):
    """Bit-exact reference: the projected-Newton direction with each
    per-iterate term formed where it is used, the arithmetic
    :meth:`Problem.newton_direction` must reproduce bit for bit; h are the
    residuals shifted by ``cap_shift(lam, sigma)``, and ``capped`` the
    capped-column mask, h_j > lam_j / 2 sigma unless given."""
    layout, seg = problem.layout, problem.segment

    def apply_inverse(r, inv_a, col, rank_one=None):
        b = inv_a * r
        if col is not None:
            b -= inv_a * (layout.column_sums(b) * col)[seg]
        if rank_one is not None:
            dd_, bu_, two_s_, denom = rank_one
            b -= two_s_ * float(dd_ @ b) / denom * bu_
        return b

    delta = 1e-3 * min(1.0, float(x.max()))
    active = (x <= delta) & (g > 0.0)
    two_s = 2.0 * sigma
    if capped is None:
        capped = h[1:] > cap_shift(lam, sigma)
    any_capped = capped.any()
    t = problem._t_entry
    if any_capped:
        t = t + np.where(capped, np.maximum(two_s * h[1:] - lam[1:], 0.0), 0.0)[seg]
    a = -dd2 * t / dd
    inv_a = np.where(active, 0.0, 1.0 / a)
    col = None
    if any_capped:
        col = np.where(capped, two_s / (1.0 + two_s * layout.column_sums(inv_a)), 0.0)
    bu = apply_inverse(dd, inv_a, col)
    data_mass = two_s * float(dd @ bu)
    rank_one = (dd, bu, two_s, 1.0 + data_mass)
    d_free = apply_inverse(g, inv_a, col, rank_one)
    if data_mass > optimizer._REFINE_MASS:
        for _ in range(optimizer._REFINE_STEPS):
            r = (g - a * d_free - two_s * float(dd @ d_free) * dd
                 - two_s * np.where(capped, layout.column_sums(d_free), 0.0)[seg])
            br = apply_inverse(r, inv_a, col, rank_one)
            d_free = d_free + br
            if np.abs(br).max() <= 1e-16 * np.abs(d_free).max():
                break
    if not active.any():
        return -d_free
    diag = a + two_s * (dd * dd + capped[seg])
    return -np.where(active, g / diag, d_free)


def reference_inner_descent(problem, x, h, lam, sigma):
    """Bit-exact reference for :func:`inner_descent`: the same loop with the
    merit gradient, the projected gradient and the direction each forming
    the iterate's masks and multiplier terms itself; the passed-in
    residuals' cap rows are re-formed under this cycle's shift.  A full
    step that is rejected, and that the merit would accept without the
    penalty sigma (h_j - lam_j / 2 sigma)^2 of the columns it caps while
    the iterate leaves them slack, is retried once along the direction with
    those columns capped too, their gradient terms 2 sigma (s_j - 1) - lam_j
    extended past the kink, before the halving goes on from alpha = 1/2."""
    table, seg = problem.table, problem.segment
    shift = cap_shift(lam, sigma)
    h = np.concatenate(([h[0]], np.maximum(problem.layout.column_sums(x) - 1.0, shift)))
    phi = problem.phi(lam, sigma, h, problem.layout.column_sums(x))
    evals, steps, reason = 1, 0, "cap"
    while steps < optimizer.INNER_CAP:
        dd, dd2 = table.data_derivatives(x)
        g = problem._t_entry + (-lam[0] + 2.0 * sigma * h[0]) * dd
        capped = h[1:] > shift
        if capped.any():
            g += np.where(capped, -lam[1:] + 2.0 * sigma * h[1:], 0.0)[seg]
        pg = np.where((x <= 0.0) & (g > 0.0), 0.0, g)
        if math.sqrt(float(pg @ pg)) <= optimizer.EPS:
            reason = "gradient"
            break
        d = reference_newton_direction(problem, x, g, h, dd, dd2, lam, sigma)
        x_new, alpha = None, 1.0
        for _ in range(60):
            x_try = np.maximum(x + alpha * d, 0.0)
            h_try = problem.residuals_scaled(x_try, shift)
            phi_try = problem.phi(lam, sigma, h_try, problem.layout.column_sums(x_try))
            evals += 1
            if phi_try < phi:
                x_new, h_new, phi_new = x_try, h_try, phi_try
                break
            new = (h_try[1:] > shift) & ~capped
            over = np.where(new, h_try[1:] - shift, 0.0)
            if alpha == 1.0 and sigma * float(over @ over) > phi_try - phi:
                s = problem.layout.column_sums(x)
                g_ext = problem._t_entry + (-lam[0] + 2.0 * sigma * h[0]) * dd
                g_ext += np.where(capped, -lam[1:] + 2.0 * sigma * h[1:],
                                  np.where(new, -lam[1:] + 2.0 * sigma * (s - 1.0), 0.0))[seg]
                d_ext = reference_newton_direction(problem, x, g_ext, h, dd, dd2, lam, sigma,
                                                   capped | new)
                x_try = np.maximum(x + d_ext, 0.0)
                h_try = problem.residuals_scaled(x_try, shift)
                phi_try = problem.phi(lam, sigma, h_try, problem.layout.column_sums(x_try))
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
    return CycleRecord(h_inf=violation(h), sigma=sigma, phi=phi,
                       energy_j=problem.energy_j(x), inner_steps=steps, inner_reason=reason,
                       merit_evals=evals, x=x, h=h,
                       lam_hat=multiplier_estimate(problem, x, h, lam, sigma))


def newton_step(problem, x, g, h, dd, dd2, lam, sigma):
    """Problem.newton_direction at x with its per-iterate terms formed here;
    h are the residuals shifted by ``cap_shift(lam, sigma)``."""
    return problem.newton_direction(x, g, g > 0.0, dd, dd2, sigma, lam - 2.0 * sigma * h,
                                    h[1:] > cap_shift(lam, sigma))


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
    sigma = 10.0 ** log_sigma
    lam = rng.normal(size=problem.t_norm.size + 1) * 10.0 ** rng.uniform(-2.0, 2.0)
    h = problem.residuals_scaled(x, cap_shift(lam, sigma))
    if set_curvature:
        # a small curvature factor c = lam_0 - 2 sigma h0 leaves zero entries
        # with a positive slope: the epsilon-active set
        lam[0] = 2.0 * sigma * h[0] + 10.0 ** log_c
    dd, dd2 = problem.table.data_derivatives(x)
    g = problem.grad_phi(lam - 2.0 * sigma * h, dd)
    d = newton_step(problem, x, g, h, dd, dd2, lam, sigma)
    # the same bits as the direction with every term formed where it is used
    assert np.array_equal(d, reference_newton_direction(problem, x, g, h, dd, dd2, lam, sigma))
    projected = np.where((x <= 0.0) & (g > 0.0), 0.0, g)
    if np.any(projected != 0.0):
        assert float(g @ d) < 0.0
    # every draw, c <= 0 and wrong-signed budget multipliers included: the
    # model diagonal stays positive for them
    expected = dense_newton_direction(problem, x, g, h, dd, dd2, lam, sigma)
    assert np.linalg.norm(d - expected) <= 1e-8 * np.linalg.norm(expected)


@pytest.mark.parametrize("log_sigma", [7.0, 8.0, 10.0])
def test_newton_direction_keeps_its_digits_under_a_dominant_rank_one_term(newton_problems,
                                                                           log_sigma):
    # one entry in one column: H = a + 2 sigma (D'^2 + capped) is a scalar,
    # so the dense solve is exact, while the data row's Woodbury update
    # subtracts all but 1/mass of its term; the refined direction keeps
    # full precision
    problem = newton_problems["M=1, N=1"]
    sigma = 10.0 ** log_sigma
    rng = np.random.default_rng(7)
    for x0 in (0.0, 0.4, 1.1):
        x = np.array([x0])
        lam = rng.normal(size=problem.t_norm.size + 1)
        h = problem.residuals_scaled(x, cap_shift(lam, sigma))
        dd, dd2 = problem.table.data_derivatives(x)
        g = problem.grad_phi(lam - 2.0 * sigma * h, dd)
        d = newton_step(problem, x, g, h, dd, dd2, lam, sigma)
        assert np.array_equal(d, reference_newton_direction(problem, x, g, h, dd, dd2, lam,
                                                            sigma))
        expected = dense_newton_direction(problem, x, g, h, dd, dd2, lam, sigma)
        assert_allclose(d, expected, rtol=1e-14)


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
        sigma = 10.0 ** rng.uniform(5.0, 6.0)
        lam = np.empty(n_cols + 1)
        lam[1:] = -np.abs(rng.normal(size=n_cols)) * 10.0 ** rng.uniform(-2.0, 2.0)
        h = problem.residuals_scaled(x, cap_shift(lam, sigma))
        lam[0] = 2.0 * sigma * h[0] + 10.0 ** rng.uniform(-3.0, -2.0)
        dd, dd2 = problem.table.data_derivatives(x)
        g = problem.grad_phi(lam - 2.0 * sigma * h, dd)
        d = newton_step(problem, x, g, h, dd, dd2, lam, sigma)
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
                      weights=sched.durations[simpson.layout.segment][:, None],
                      layout=simpson.layout, bandwidth=simpson.bandwidth)
    problem = Problem(cfg, sched, data_floor(cfg, sched, table), table)
    x = np.array([0.02])
    lam, sigma = np.array([3.0, 0.0]), 1e-12
    h = problem.residuals_scaled(x, cap_shift(lam, sigma))
    dd, dd2 = problem.table.data_derivatives(x)
    g = problem.grad_phi(lam - 2.0 * sigma * h, dd)
    d = newton_step(problem, x, g, h, dd, dd2, lam, sigma)
    c, t = lam[0] - 2.0 * sigma * h[0], problem.t_norm[0]
    gain, weight = problem.table.gains[0, 0], problem.table.weights[0, 0]
    root = c * problem.table.bandwidth / LN2 * weight / t - 1.0 / gain
    assert root > 0.1
    assert abs(x[0] + d[0] - root) <= 1e-9 * root


def caps_binding_work():
    """Cycles, inner steps and merit evaluations over the three cold
    caps-binding solves, each of which converges."""
    cycles = steps = evals = 0
    for rho, m in ((0.97, 4), (0.99, 4), (1.0, 2)):
        cfg = reference_config(num_relays=m, rho=rho)
        _, res = solve(cfg, segment_boundaries(cfg))
        assert res.converged
        cycles += res.cycles
        steps += sum(c.inner_steps for c in res.history)
        evals += sum(c.merit_evals for c in res.history)
    return cycles, steps, evals


def test_caps_binding_solves_within_their_start_rule_work_budget():
    # under the start rule, with a rejected full step that crosses a slack
    # cap retried once: 10 cycles, 26 inner steps and 39 merit evaluations
    # as measured; the bounds leave about 15% of headroom
    cycles, steps, evals = caps_binding_work()
    assert cycles == 10
    assert steps <= 30
    assert evals <= 45


def test_grid_solves_converge_within_their_work_budget():
    # M {1,2,3,4,6,8} x N {1,2,4,8} x rho {0.5,0.8,0.9,0.97,1.0} x
    # v {250,350} km/h: every cold solve converges KKT-stationary, in 632
    # cycles and 3,504 merit evaluations over the 240 as measured; the
    # evaluation bound leaves about 15% of headroom
    cycles = evals = 0
    for m, n, rho, v in itertools.product((1, 2, 3, 4, 6, 8), (1, 2, 4, 8),
                                          (0.5, 0.8, 0.9, 0.97, 1.0), (250.0, 350.0)):
        cfg = reference_config(num_relays=m, num_bins=n, rho=rho, v=v * KMH_TO_MPS)
        sched = segment_boundaries(cfg)
        table = build_gain_table(cfg, sched)
        alloc, res = solve(cfg, sched, table=table)
        assert res.converged, (m, n, rho, v)
        assert kkt_residual(alloc, res.lam_hat, cfg, sched, res.d_min, table) \
            <= 10 * optimizer.EPS, (m, n, rho, v)
        cycles += res.cycles
        evals += sum(c.merit_evals for c in res.history)
    assert cycles <= 632
    assert evals <= 4030


@pytest.mark.parametrize("rho, m", [(0.8, 4), (0.97, 4), (0.99, 4), (1.0, 2), (1.0, 4)])
def test_solve_makes_one_derivative_pass_per_inner_step_plus_one(monkeypatch, rho, m):
    # each cycle hands the pair at its final iterate to the next, and every
    # accepted step forms its pair from its SNR product, as the start
    # point's product feeds the first pass; the stop test reads the pair
    # its cycle handed on.  Each inner step forms one merit gradient and
    # one direction, each cycle one more gradient, at the iterate where it
    # stops, and each stop test one more, its KKT stationarity term.  A
    # retried full step forms one more of each; its direction is the one
    # whose mask caps a column with a zero multiplier estimate, a column
    # slack at x (a capped column's estimate is negative)
    passes, retried, calls = [], [], {"grad_phi": 0, "newton_direction": 0}
    derivatives = GainTable.data_derivatives

    def counted(self, p, snr=None):
        passes.append(snr is not None)
        return derivatives(self, p, snr)

    def counted_method(name):
        method = getattr(Problem, name)

        def wrapper(*args):
            calls[name] += 1
            if name == "newton_direction":
                lam_hat, capped = args[-2:]
                retried.append(bool(np.any(capped & (lam_hat[1:] == 0.0))))
            return method(*args)
        return wrapper

    monkeypatch.setattr(GainTable, "data_derivatives", counted)
    for name in calls:
        monkeypatch.setattr(Problem, name, counted_method(name))

    def counted_solve(*args, **kwargs):
        passes.clear()
        retried.clear()
        calls.update(grad_phi=0, newton_direction=0)
        alloc, res = solve(*args, **kwargs)
        steps = sum(c.inner_steps for c in res.history)
        assert len(passes) == steps + 1
        assert all(passes)    # every pass reads a product a data pass formed
        # no step cap here; a cycle that stalls formed a direction it never took
        reasons = [c.inner_reason for c in res.history]
        stop_tests = sum(c.h_inf <= optimizer.EPS for c in res.history)
        retries = sum(retried)
        assert calls == {"grad_phi": steps + res.cycles + stop_tests + retries,
                         "newton_direction": steps + reasons.count("stall") + retries}
        return (alloc, res), retries

    cfg = reference_config(num_relays=m, rho=rho)
    sched = segment_boundaries(cfg)
    cold, retries = counted_solve(cfg, sched)
    assert len(cold[1].history) > 1
    # the full steps of the solves whose caps bind cross caps left slack
    assert (retries > 0) == (rho >= 0.99)
    counted_solve(cfg.with_(rho=0.99 * rho), sched, warm=cold)


@pytest.mark.parametrize("rho", [0.8, 1.0])
def test_overspend_guard_divides_only_the_columns_over_budget(rho):
    # at a 60 dB noise figure the stationary record sits a hair over some
    # caps while other columns are empty; the guard scales back the former
    # without dividing by the latter's zero sums (pytest turns a
    # divide-by-zero warning into an error)
    cfg = reference_config(noise_figure=60.0, rho=rho)
    alloc, res = solve(cfg)
    assert res.converged
    assert np.any(alloc.layout.column_sums(res.history[-1].x) > 1.0)
    sums = alloc.column_sums()
    assert np.any(sums == 0.0) and np.all(sums <= cfg.p_t)


def test_readme_states_the_solver_constants_the_module_holds():
    # every `NAME = value` that a README paragraph on railpower.optimizer
    # states is a constant of the module with that value
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = "\n".join(p for p in readme.split("\n\n") if "`railpower.optimizer`" in p)
    stated = re.findall(r"\b([A-Z][A-Z0-9_]*) = ([0-9][0-9.e+-]*)\b", text)
    assert {name for name, _ in stated} >= {"EPS", "N_MAX", "MASS0", "GROWTH", "INNER_CAP"}
    for name, value in stated:
        assert getattr(optimizer, name, None) == float(value), name

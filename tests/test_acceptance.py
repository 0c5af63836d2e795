"""End-to-end acceptance suite.

Each test checks one numbered criterion at its stated tolerance and
prints a PASS/FAIL line (run ``pytest tests/test_acceptance.py -v -s`` to
see them).  The heavyweight sweeps are shared through module fixtures so
the whole suite stays well inside its runtime budgets.

Note on criterion 5: the per-segment budget is enforced as a cap, so the
column-sum check asserts that no column exceeds the budget by more than
1e-3 relative.  Forcing column sums to equal the budget would pin the
traversal energy at P_T times the traversal time, which contradicts the
energy-saving and baseline-dominance criteria; the solver documentation
and the decisions log cover this in detail.
"""

import time

import numpy as np
import pytest
from oracles import merit_gradient, rician_parameters
from scipy import stats

from railpower import (build_gain_table, build_table, constant_alloc, data_floor,
                       entry_layout, estimate_doppler, kkt_residual,
                       max_doppler, reference_config, sample_rician_envelope,
                       segment_boundaries, solve, total_energy, true_doppler)
from railpower.configio import SCHEMES, HarnessOptions
from railpower.harness import (SweepSpec, monte_carlo_velocity_error, records_to_csv,
                               run_point, sweep)
from railpower.optimizer import Problem

EPS = 1e-4   # solver tolerance on scaled residuals

DL_GRID = (140.0, 160.0, 180.0, 200.0, 220.0, 240.0)
V_GRID = (250.0, 270.0, 290.0, 310.0, 330.0, 350.0)
M_GRID = (2.0, 3.0, 4.0, 5.0, 6.0)
SIGMA_GRID = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)


def report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def cfg():
    return reference_config()


@pytest.fixture(scope="module")
def options():
    return HarnessOptions()


@pytest.fixture(scope="module")
def sweep_rows(cfg, options):
    start = time.perf_counter()
    rows = {}
    for param, values in (("d_l", DL_GRID), ("v", V_GRID), ("M", M_GRID)):
        rows[param] = sweep(cfg, options, SweepSpec(param=param, values=values))
    return rows, time.perf_counter() - start


@pytest.fixture(scope="module")
def mc_rows(cfg, options):
    start = time.perf_counter()
    rows = monte_carlo_velocity_error(cfg, options, SIGMA_GRID, trials=100)
    return rows, time.perf_counter() - start


def means(rows, scheme, field="energy_j"):
    out = {}
    for r in rows:
        if r.kind == "mean" and r.scheme == scheme:
            out[r.value] = getattr(r, field)
    return [out[v] for v in sorted(out)]


def test_criterion_1_constant_scheme_energy(cfg):
    start = time.perf_counter()
    sched = segment_boundaries(cfg)
    energy = total_energy(constant_alloc(cfg, sched), sched)
    elapsed = time.perf_counter() - start
    ok = abs(energy - 24.0) <= 1e-9 and elapsed < 1.0
    report(1, ok, f"constant-scheme energy {energy:.12f} J (target 24.0 +/- 1e-9), "
                  f"{elapsed:.3f} s")


def test_criterion_2_energy_saving(cfg):
    start = time.perf_counter()
    sched = segment_boundaries(cfg)
    e_const = total_energy(constant_alloc(cfg, sched), sched)
    _, res = solve(cfg, sched)
    saving = 100.0 * (1.0 - res.energy_j / e_const)
    elapsed = time.perf_counter() - start
    ok = res.converged and 60.0 <= saving <= 90.0 and elapsed < 120.0
    report(2, ok, f"optimised scheme saves {saving:.1f}% vs constant "
                  f"(band [60, 90], quoted figure 79.6), {elapsed:.1f} s")


def test_criterion_3_baseline_dominance(sweep_rows):
    rows, elapsed = sweep_rows
    violations = []
    points = 0
    for param, prows in rows.items():
        by_point = {}
        for r in prows:
            if r.kind == "mean":
                by_point.setdefault(r.value, {})[r.scheme] = r
        for value, schemes in by_point.items():
            opt = schemes["optimized"]
            if not opt.converged:
                violations.append((param, value, "solver unconverged"))
                continue
            points += 1
            for name, r in schemes.items():
                if name == "optimized" or not r.meets_floor:
                    continue
                if opt.energy_j > r.energy_j * (1 + 1e-9):
                    violations.append((param, value, name))
    ok = not violations and elapsed < 900.0
    report(3, ok, f"optimised energy lowest at all {points} sweep points "
                  f"({len(violations)} violations), sweeps took {elapsed:.1f} s")


def test_criterion_4_trends(sweep_rows):
    rows, _ = sweep_rows

    e_const = means(rows["d_l"], "constant")
    fit = np.polyfit(sorted(DL_GRID), e_const, 1)
    resid = e_const - np.polyval(fit, sorted(DL_GRID))
    r2 = 1.0 - resid @ resid / np.sum((e_const - np.mean(e_const)) ** 2)

    monotone_v = all(
        all(np.diff(means(rows["v"], s)) <= 1e-9) for s in SCHEMES
    )
    ee_m = means(rows["M"], "optimized", "ee_bits_per_j")
    monotone_m = all(np.diff(ee_m) >= -1e-9)

    ok = r2 >= 0.999 and monotone_v and monotone_m
    report(4, ok, f"constant energy linear in d_l (R^2 = {r2:.6f}), "
                  f"energies non-increasing in v: {monotone_v}, "
                  f"optimised EE non-decreasing in M: {monotone_m}")


def test_criterion_5_solver_correctness(cfg, rng):
    scenarios = [cfg,
                 cfg.with_(d_l=140.0),
                 cfg.with_(d_l=240.0),
                 cfg.with_(num_relays=2),
                 cfg.with_(num_relays=6),
                 cfg.with_(v=350.0 / 3.6)]
    worst_data, worst_over, worst_kkt = 0.0, 0.0, 0.0
    for scen in scenarios:
        sched = segment_boundaries(scen)
        table = build_gain_table(scen, sched)
        d_min = data_floor(scen, sched, table)
        alloc, res = solve(scen, sched, d_min=d_min, table=table)
        assert res.converged, f"solver failed on {scen}"
        worst_data = max(worst_data, abs(res.data_bits - d_min) / d_min)
        over = np.max(np.maximum(alloc.column_sums() - scen.p_t, 0.0)) / scen.p_t
        worst_over = max(worst_over, over)
        worst_kkt = max(worst_kkt, kkt_residual(alloc, res.lam_hat, scen, sched,
                                                d_min, table))

    # analytic gradients of the data integral and the merit function
    # against central finite differences over 20 random states
    sched = segment_boundaries(cfg)
    table = build_gain_table(cfg, sched)
    d_min = data_floor(cfg, sched, table)
    problem = Problem(cfg, sched, d_min, table)
    k_all = entry_layout(cfg).segment.size
    per_relay = cfg.p_t / cfg.num_relays
    worst_grad = 0.0
    for trial in range(20):
        p = rng.uniform(0.1 * per_relay, per_relay, k_all)
        g = table.data_derivatives(p)[0]
        k = trial % k_all
        step = 1e-4 * cfg.p_t
        plus, minus = p.copy(), p.copy()
        plus[k] += step
        minus[k] -= step
        fd = (table.total_data(plus) - table.total_data(minus)) / (2 * step)
        worst_grad = max(worst_grad, abs(fd - g[k]) / abs(fd))

        x = p / cfg.p_t
        lam = rng.uniform(-1.0, 1.0, cfg.num_segments + 1)
        sigma = 10.0 ** rng.uniform(-1.0, 1.0)
        gp = merit_gradient(problem, x, lam, sigma)
        h = 1e-6
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        fd_phi = (problem.phi(xp, lam, sigma) - problem.phi(xm, lam, sigma)) / (2 * h)
        worst_grad = max(worst_grad, abs(fd_phi - gp[k]) / max(abs(fd_phi), 1e-8))

    ok = worst_data <= 1e-3 and worst_over <= 1e-3 and worst_kkt <= 10 * EPS \
        and worst_grad <= 1e-4
    report(5, ok, f"data floor error {worst_data:.2e} (<= 1e-3), "
                  f"budget overspend {worst_over:.2e} (<= 1e-3, cap reading), "
                  f"KKT residual {worst_kkt:.2e} (<= {10 * EPS:.0e}), "
                  f"gradient FD error {worst_grad:.2e} (<= 1e-4)")


def test_criterion_6_brute_force_oracle():
    start = time.perf_counter()
    cfg = reference_config(num_relays=2, num_bins=2)
    sched = segment_boundaries(cfg)
    table = build_gain_table(cfg, sched)
    d_min = data_floor(cfg, sched, table)
    alloc, res = solve(cfg, sched, d_min=d_min, table=table)

    grid = np.linspace(0.0, cfg.p_t, 50)
    t = sched.durations
    ln2 = np.log(2.0)

    relay, seg = table.layout.relay, table.layout.segment

    def entry_data(i, j, powers):
        k = np.flatnonzero((relay == i) & (seg == j))[0]
        g, w = table.gains[k], table.weights[k]
        return table.bandwidth / ln2 * (w * np.log1p(powers[:, None] * g)).sum(axis=1)

    d1 = entry_data(0, 0, grid)
    d4 = entry_data(1, 3, grid)

    def frontier(j):
        a, b = np.meshgrid(grid, grid, indexing="ij")
        keep = (a + b) <= cfg.p_t * (1 + 1e-12)
        pa, pb = a[keep], b[keep]
        level = np.round((pa + pb) / cfg.p_t * 49).astype(int)
        data = entry_data(0, j, pa) + entry_data(1, j, pb)
        s_best, d_best = np.zeros(50), np.full(50, -np.inf)
        for lv, s, d in zip(level, pa + pb, data):
            if d > d_best[lv]:
                d_best[lv], s_best[lv] = d, s
        return s_best, d_best

    s2, d2 = frontier(1)
    s3, d3 = frontier(2)
    best = np.inf
    for a1, dd1 in zip(grid, d1):
        for a4, dd4 in zip(grid, d4):
            for a2, dd2 in zip(s2, d2):
                need = d_min - dd1 - dd4 - dd2
                k = int(np.searchsorted(d3, need)) if need > 0 else 0
                if k >= len(d3):
                    continue
                best = min(best, t[0] * a1 + t[1] * a2 + t[2] * s3[k] + t[3] * a4)
    elapsed = time.perf_counter() - start
    # two-sided, so an oracle that overstates the grid optimum fails too
    ok = (res.converged and res.energy_j <= best * 1.02 and best <= res.energy_j * 1.02
          and elapsed < 60.0)
    report(6, ok, f"solver {res.energy_j:.4f} J vs 50-level grid {best:.4f} J "
                  f"(margin {100 * (res.energy_j / best - 1):+.2f}%, limit +2%; "
                  f"grid over solver {100 * (best / res.energy_j - 1):+.2f}%, limit +2%), "
                  f"{elapsed:.1f} s")


def test_criterion_7_fading_statistics():
    a, sigma = rician_parameters(10.0)
    r = sample_rician_envelope(10.0, np.random.default_rng(2024), size=100_000)
    ks = stats.kstest(r, stats.rice(b=a / sigma, scale=sigma).cdf)
    m2 = float(np.mean(r ** 2))
    target = a ** 2 + 2 * sigma ** 2
    ok = ks.pvalue > 0.01 and abs(m2 - target) <= 0.02 * target
    report(7, ok, f"KS p-value {ks.pvalue:.3f} (> 0.01), second moment {m2:.4f} "
                  f"vs {target:.4f} (within 2%)")


def test_criterion_8_doppler(cfg):
    table = build_table(cfg, x_s=1.0, L=5)
    f_max = max_doppler(cfg)

    # noiseless self-lookup must return each entry's own relative shift
    w = table.windows
    sq = np.sum(w ** 2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2 * (w @ w.T)
    np.fill_diagonal(d2, np.inf)
    self_is_nearest = True
    worst_hz = 0.0
    for k in range(len(table)):
        est = estimate_doppler(table, table.window_at(k), cfg)
        self_is_nearest &= bool(d2[k].min() > 0.0)
        worst_hz = max(worst_hz,
                       abs(est - true_doppler(cfg, float(table.positions[k]))))

    rng = np.random.default_rng(5)
    bounded = True
    for _ in range(300):
        k = int(rng.integers(0, len(table)))
        from railpower import RsrpWindow
        noisy = RsrpWindow(center=float(table.positions[k]),
                           values=table.windows[k] + rng.normal(0, 2.0, 11))
        bounded &= abs(estimate_doppler(table, noisy, cfg)) <= f_max

    ok = self_is_nearest and worst_hz <= 1e-9 and bounded \
        and abs(f_max - 16667.0) <= 1.0
    report(8, ok, f"noiseless table-position error {worst_hz:.2e} Hz, "
                  f"estimates bounded by f_max: {bounded}, "
                  f"f_max {f_max:.1f} Hz (16667 +/- 1)")


def test_criterion_9_velocity_error_study(mc_rows):
    rows, elapsed = mc_rows
    ok = True
    details = []
    for sigma in SIGMA_GRID:
        point = {r.scheme: r for r in rows if r.kind == "mean" and r.value == sigma}
        e_opt = point["optimized"].energy_j
        ee_opt = point["optimized"].ee_bits_per_j
        lowest = all(e_opt <= point[s].energy_j * (1 + 1e-9)
                     for s in SCHEMES if s != "optimized")
        highest = all(ee_opt >= point[s].ee_bits_per_j * (1 - 1e-9)
                      for s in SCHEMES if s != "optimized")
        ok &= lowest and highest
        details.append(f"sigma={sigma:.0f}: E={e_opt:.2f} J best={lowest and highest}")
    ok = ok and elapsed < 1800.0
    report(9, ok, f"optimised lowest energy / highest EE at all sigmas "
                  f"(100 trials each), {elapsed:.0f} s; " + "; ".join(details))


def test_criterion_10_determinism(cfg, options):
    seed_seq = lambda: np.random.SeedSequence((cfg.seed, 0, 0))
    csv_a = records_to_csv(run_point(cfg, options, seed_seq()))
    csv_b = records_to_csv(run_point(cfg, options, seed_seq()))
    spec = SweepSpec(param="d_l", values=(180.0, 200.0), trials=2)
    sweep_a = records_to_csv(sweep(cfg, options, spec))
    sweep_b = records_to_csv(sweep(cfg, options, spec))
    ok = csv_a == csv_b and sweep_a == sweep_b
    report(10, ok, f"repeated runs byte-identical: run CSV {len(csv_a)} bytes, "
                   f"sweep CSV {len(sweep_a)} bytes")

import os
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from railpower import (KMH_TO_MPS, allocators, build_table, harness, metrics, optimizer,
                       reference_config, segment_boundaries, solve)
from railpower.configio import SCHEMES, HarnessOptions
from railpower.harness import (RunRecord, SweepSpec, _mean_records, apply_sweep_value,
                               draw_speed_error, emit_plot_data, monte_carlo_velocity_error,
                               prepare_point, read_csv_rows, records_to_csv, run_point,
                               run_scenario, sweep, write_csv)

REF_CONFIG = """
m = 4
d_l = 200
v_kmh = 300
pt_dbm = 40
seed = 11
"""


@pytest.fixture(scope="module")
def options():
    return HarnessOptions()


@pytest.fixture(scope="module")
def ref_records(ref_cfg, options):
    return run_point(ref_cfg, options, np.random.SeedSequence((ref_cfg.seed, 0, 0)))


def test_run_point_produces_five_records(ref_records):
    assert [r.scheme for r in ref_records] == list(SCHEMES)
    by_scheme = {r.scheme: r for r in ref_records}
    assert abs(by_scheme["constant"].energy_j - 24.0) <= 1e-9
    for r in ref_records:
        assert_allclose(r.ee_bits_per_j, r.data_bits / r.energy_j, rtol=1e-12)
        assert np.isfinite(r.energy_j) and np.isfinite(r.data_bits)
    assert by_scheme["optimized"].converged
    assert by_scheme["optimized"].meets_floor
    assert by_scheme["optimized"].energy_j < by_scheme["constant"].energy_j


def test_run_scenario_from_file(tmp_path):
    path = tmp_path / "ref.cfg"
    path.write_text(REF_CONFIG)
    records = run_scenario(path)
    assert len(records) == 5
    assert {r.kind for r in records} == {"run"}


def test_csv_is_versioned_and_deterministic(tmp_path):
    path = tmp_path / "ref.cfg"
    path.write_text(REF_CONFIG)
    csv1 = records_to_csv(run_scenario(path))
    csv2 = records_to_csv(run_scenario(path))
    assert csv1 == csv2
    assert csv1.splitlines()[0] == "# railpower csv v1"


def test_csv_round_trip_and_ee_consistency(tmp_path, ref_records):
    out = tmp_path / "run.csv"
    write_csv(ref_records, out)
    rows = read_csv_rows(out)
    assert len(rows) == 5
    for row in rows:
        ee = float(row["ee_bits_per_j"])
        ratio = float(row["data_bits"]) / float(row["energy_j"])
        assert abs(ee - ratio) <= 1e-9 * ratio
    # wall time stays out of the serialised schema
    assert "wall_time_s" not in rows[0]


def test_sweep_row_counts(ref_cfg, options):
    spec = SweepSpec(param="d_l", values=(140, 160, 180, 200, 220, 240))
    rows = sweep(ref_cfg, options, spec)
    trials = [r for r in rows if r.kind == "trial"]
    means = [r for r in rows if r.kind == "mean"]
    assert len(trials) == 6 * 5
    assert len(means) == 6 * 5      # five schemes over six aggregate points
    for r in means:
        if not r.error:
            assert_allclose(r.ee_bits_per_j, r.data_bits / r.energy_j, rtol=1e-12)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(param="d_l", values=())
    with pytest.raises(ValueError, match="must not be empty"):
        HarnessOptions(schemes=())      # the scheme list lives on the options
    with pytest.raises(ValueError, match="unknown scheme 'waterfill'"):
        HarnessOptions(schemes=("constant", "waterfill"))
    with pytest.raises(ValueError):
        SweepSpec(param="bogus", values=(1,))
    with pytest.raises(ValueError):
        SweepSpec(param="d_l", values=(200,), trials=0)
    for bad in (2.5, True):
        with pytest.raises(ValueError, match=f"trials must be an integer, got {bad!r}"):
            SweepSpec(param="d_l", values=(200,), trials=bad)
    with pytest.raises(ValueError, match="2.5"):
        SweepSpec(param="M", values=(2.0, 2.5))
    for count in (0, -1):
        with pytest.raises(ValueError, match=">= 1"):
            SweepSpec(param="M", values=(2, count))
    assert SweepSpec(param="M", values=(2.0, 3)).values == (2.0, 3)
    with pytest.raises(ValueError, match="sigma_v values must be >= 0, got -2.0"):
        SweepSpec(param="sigma_v", values=(0.0, -2.0))
    # a dBm value whose conversion to watts overflows is named, not a traceback
    with pytest.raises(ValueError, match="P_T value 4000"):
        SweepSpec(param="P_T", values=(40.0, 4000.0))
    assert SweepSpec(param="P_T", values=(30.0, 45.0)).values == (30.0, 45.0)
    # a repeated value would write its trials twice and pool them in one mean row
    with pytest.raises(ValueError, match="d_l value 200 is listed twice"):
        SweepSpec(param="d_l", values=(200, 200), trials=2)
    with pytest.raises(ValueError, match="M value 4.0 is listed twice"):
        SweepSpec(param="M", values=(4, 4.0))
    with pytest.raises(ValueError, match="scheme 'constant' is listed twice"):
        HarnessOptions(schemes=("constant", "constant"))


def test_sweep_records_failed_points(options):
    cfg = reference_config(d_l=130.0)
    # M = 6 needs 125 m of spacing, so planning succeeds, while M = 7 is
    # geometrically impossible and must surface as error rows
    spec = SweepSpec(param="M", values=(4, 7))
    rows = sweep(cfg, replace(options, schemes=("constant", "optimized")), spec)
    good = [r for r in rows if r.kind == "trial" and r.value == 4]
    bad = [r for r in rows if r.kind == "trial" and r.value == 7]
    assert all(not r.error for r in good)
    assert all(r.error for r in bad)
    assert len(bad) == 2
    assert {r.m for r in bad} == {7}


def test_sweep_raises_a_failure_the_swept_value_did_not_cause(ref_cfg, options, monkeypatch):
    # only a value that apply_sweep_value rejects becomes error rows; a
    # fault of the point's run is not blamed on the value
    def broken(cfg, sched):
        raise ValueError("broken table")

    monkeypatch.setattr(metrics, "build_gain_table", broken)
    with pytest.raises(ValueError, match="broken table"):
        sweep(ref_cfg, options, SweepSpec(param="d_l", values=(200.0,)))


@pytest.mark.parametrize("param, value, column, expected", [
    ("d_l", 10.0, "d_l", 10.0),                 # below (M - 1) * d_mr = 75 m
    ("v", -5.0, "v_mps", -5.0 * KMH_TO_MPS),    # km/h in, m/s out
])
def test_failed_sweep_rows_show_the_swept_value(ref_cfg, options, param, value, column,
                                                expected):
    spec = SweepSpec(param=param, values=(value,))
    rows = sweep(ref_cfg, replace(options, schemes=("constant", "optimized")), spec)
    assert len(rows) == 4 and all(r.error for r in rows)
    assert {r.kind for r in rows} == {"trial", "mean"}
    assert all(getattr(r, column) == expected for r in rows)
    assert all(r.m == ref_cfg.num_relays for r in rows)


def test_gain_table_builds_per_run_point(monkeypatch, ref_cfg, options):
    builds = []
    build = metrics.build_gain_table

    def counted(*args, **kwargs):
        builds.append(args[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(metrics, "build_gain_table", counted)

    def count(fn, *args):
        builds.clear()
        rows = fn(*args)
        return len(builds), rows

    seq = np.random.SeedSequence(5)
    n_plain, plain = count(run_point, ref_cfg, options, seq)
    n_zero, zero = count(partial(run_point, speed_error=0.0), ref_cfg, options, seq)
    n_err, err = count(partial(run_point, speed_error=2.0), ref_cfg, options, seq)
    # one deterministic table serves the floor, the plan and the evaluation,
    # whatever the planner's speed error
    assert (n_plain, n_zero, n_err) == (1, 1, 1)
    # and the floor is the true-speed one at every sigma
    assert len({r.d_min_bits for r in plain + zero + err}) == 1
    # a fading trace scales the deterministic table's factors: still one
    # geometry build per point
    assert count(run_point, ref_cfg.with_(fading=True), options, seq)[0] == 1


def test_meets_floor_uses_the_solver_tolerance(monkeypatch, ref_cfg, ref_table, options):
    # a floor 5e-4 above what the average scheme delivers is missed by more
    # than the solver's tolerance optimizer.EPS (1e-4), so the row must not
    # claim the floor; under a tolerance of 1e-3 the same row meets it
    d_avg = ref_table.total_data(allocators.average_alloc(
        ref_cfg, segment_boundaries(ref_cfg)).values)
    cfg = ref_cfg.with_(d_min_bits=d_avg * (1.0 + 5e-4))
    average = replace(options, schemes=("average",))
    recs = run_point(cfg, average, np.random.SeedSequence(0))
    assert [r.scheme for r in recs] == ["average"]
    assert recs[0].data_bits == d_avg
    assert not recs[0].meets_floor
    monkeypatch.setattr(optimizer, "EPS", 1e-3)
    assert run_point(cfg, average, np.random.SeedSequence(0))[0].meets_floor


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_average_row_meets_a_full_floor_exactly(ref_cfg, options, m):
    # at rho = 1 the floor is the average scheme's own data, from the same
    # reduction as the row's, so the row meets it with no tolerance
    cfg = ref_cfg.with_(num_relays=m, rho=1.0)
    average = replace(options, schemes=("average",))
    (rec,) = run_point(cfg, average, np.random.SeedSequence(0))
    assert rec.data_bits == rec.d_min_bits, (rec.data_bits.hex(), rec.d_min_bits.hex())


@pytest.mark.parametrize("param, values", [
    ("d_l", (140.0, 160.0, 180.0, 200.0, 220.0, 240.0)),
    ("M", (2.0, 3.0, 4.0, 5.0, 6.0)),
    ("v", (250.0, 270.0, 290.0, 310.0, 330.0, 350.0)),
])
def test_optimized_rows_report_the_solve_result(ref_cfg, param, values):
    # a deterministic optimized row writes the solver's own energy and data,
    # bit for bit: both come from compute_metrics on the point's table; the
    # returned cycle's history entry reports that same energy
    spec = SweepSpec(param=param, values=values)
    rows = [r for r in sweep(ref_cfg, HarnessOptions(schemes=("optimized",)), spec)
            if r.kind == "trial"]
    assert len(rows) == len(values)
    for r in rows:
        cfg = apply_sweep_value(ref_cfg, param, r.value)
        sched = segment_boundaries(cfg)
        table = metrics.build_gain_table(cfg, sched)
        _, res = optimizer.solve(cfg, sched, d_min=optimizer.data_floor(cfg, sched, table),
                                 table=table)
        assert (res.energy_j, res.data_bits) == (r.energy_j, r.data_bits), r.value
        # the solver returns the cycle with the lowest residual, energy breaking ties
        returned = min(res.history, key=lambda c: (c.h_inf, c.energy_j))
        assert returned.energy_j == res.energy_j, r.value


def test_run_point_surfaces_infeasible_floor(options):
    # an unreachable absolute floor fails only the solver row; the
    # baselines still run and are flagged as missing the floor
    cfg = reference_config(d_min_bits=1e15)
    recs = run_point(cfg, options, np.random.SeedSequence(0))
    opt = next(r for r in recs if r.scheme == "optimized")
    assert "floor" in opt.error and not opt.converged
    assert not np.isfinite(opt.energy_j)
    const = next(r for r in recs if r.scheme == "constant")
    assert not const.error and not const.meets_floor
    assert np.isfinite(const.energy_j)


def test_sweep_trials_aggregate(ref_cfg, options):
    spec = SweepSpec(param="d_l", values=(200.0,), trials=4)
    rows = sweep(ref_cfg, replace(options, schemes=("random",)), spec)
    trials = [r for r in rows if r.kind == "trial"]
    means = [r for r in rows if r.kind == "mean"]
    assert len(trials) == 4 and len(means) == 1
    assert_allclose(means[0].energy_j,
                    np.mean([r.energy_j for r in trials]), rtol=1e-12)
    # distinct trials draw distinct random splits but identical energy
    assert len({r.data_bits for r in trials}) == 4


def test_sweep_worker_pool_matches_serial(ref_cfg, options):
    spec = SweepSpec(param="v", values=(280.0, 300.0))
    baselines = replace(options, schemes=("constant", "average"))
    serial = records_to_csv(sweep(ref_cfg, baselines, spec, workers=1))
    pooled = records_to_csv(sweep(ref_cfg, baselines, spec, workers=2))
    assert serial == pooled
    # each value's 5 trials form one chained task, run in this process at
    # workers=1 and in a two-process pool at workers=2 and 3
    fading = ref_cfg.with_(fading=True)
    mc = [records_to_csv(monte_carlo_velocity_error(fading, options, sigmas=[0.0, 2.0],
                                                    trials=5, workers=w))
          for w in (1, 2, 3)]
    spec = SweepSpec(param="d_l", values=(180.0, 220.0), trials=5)
    swept = [records_to_csv(sweep(fading, options, spec, workers=w)) for w in (1, 2, 3)]
    assert mc[0] == mc[1] == mc[2]
    assert swept[0] == swept[1] == swept[2]


def test_sweep_pool_no_larger_than_its_tasks(monkeypatch, ref_cfg, options):
    # the fork start method launches every worker at the first submit, so
    # the pool asks for no more workers than there are tasks, and a single
    # task runs in this process without a pool
    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(harness, "_process_pool", SerialPool)
    baselines = replace(options, schemes=("constant", "average"))
    one = SweepSpec(param="d_l", values=(200.0,), trials=3)
    serial = records_to_csv(sweep(ref_cfg, baselines, one, workers=64))
    assert requested == []
    assert serial == records_to_csv(sweep(ref_cfg, baselines, one, workers=1))
    two = SweepSpec(param="d_l", values=(180.0, 200.0), trials=3)
    pooled = records_to_csv(sweep(ref_cfg, baselines, two, workers=64))
    assert requested == [2]
    assert pooled == records_to_csv(sweep(ref_cfg, baselines, two, workers=1))


def test_import_leaves_the_process_pool_unloaded():
    # the pool machinery is imported when a sweep first uses a pool
    src = str(Path(harness.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, railpower; print(sorted(m for m in sys.modules "
            "if m.startswith(('multiprocessing', 'concurrent.futures.process'))))")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_deterministic_optimized_row_reuses_its_solve_figures(monkeypatch, ref_cfg, options):
    # solve returns compute_metrics of its allocation on the point's table,
    # so a deterministic point evaluates the optimized row once, in solve
    calls = []
    compute = metrics.compute_metrics

    def counted(*args, **kwargs):
        calls.append(args[-1] if args else kwargs["table"])
        return compute(*args, **kwargs)

    monkeypatch.setattr(metrics, "compute_metrics", counted)
    monkeypatch.setattr(optimizer, "compute_metrics", counted)
    point = prepare_point(ref_cfg, ())
    rows = run_point(point, options, np.random.SeedSequence((ref_cfg.seed, 0, 0)))
    assert len(calls) == 5 and all(table is point.table for table in calls)
    row = next(r for r in rows if r.scheme == "optimized")
    rec = compute(row.solution[0], ref_cfg, point.sched, point.table)
    assert ((row.energy_j, row.data_bits, row.se_bits_per_s_per_hz)
            == (rec.energy_j, rec.data_bits, rec.se_bits_per_s_per_hz))
    # a fading point still evaluates the optimized row on its faded table
    calls.clear()
    faded = prepare_point(ref_cfg.with_(fading=True), ())
    run_point(faded, options, np.random.SeedSequence((ref_cfg.seed, 0, 0)))
    assert len(calls) == 6
    assert sum(table is faded.table for table in calls) == 1   # the solve's own


def _per_trial_study(cfg, options, sigmas, trials):
    """The velocity-error study as one plain run_point(cfg, ...) per trial,
    chained by hand: in (floor, trial) order, each warm-started from the
    last converged solve at the same sigma."""
    rows, means = [], []
    for idx, sigma in enumerate(sigmas):
        seqs = [np.random.SeedSequence((cfg.seed, idx, trial)) for trial in range(trials)]
        errors = [draw_speed_error(np.random.default_rng(seq.spawn(1)[0]), sigma)
                  if sigma > 0 else 0.0 for seq in seqs]
        sched = segment_boundaries(cfg)
        floor = optimizer.data_floor(cfg, sched, metrics.build_gain_table(cfg, sched))
        order = sorted(range(trials),
                       key=lambda t: (floor * ((cfg.v + errors[t]) / cfg.v), t))
        by_trial, warm = {}, None
        for trial in order:
            by_trial[trial] = run_point(cfg, options, seqs[trial], kind="trial",
                                        param="sigma_v", value=sigma, trial=trial,
                                        speed_error=errors[trial], warm=warm)
            opt = next(r for r in by_trial[trial] if r.scheme == "optimized")
            if opt.converged:
                warm = opt.solution
        trial_rows = [r for trial in range(trials) for r in by_trial[trial]]
        rows += trial_rows
        means += _mean_records(trial_rows, prepare_point(cfg, ()))
    return rows + means


@pytest.mark.parametrize("fading", [False, True])
def test_study_shares_one_point_per_task(monkeypatch, ref_cfg, options, fading):
    cfg, sigmas, trials = ref_cfg.with_(fading=fading), (0.0, 3.0), 4
    expected = records_to_csv(_per_trial_study(cfg, options, sigmas, trials))

    calls = {"build_gain_table": 0, "data_floor": 0, "solve": 0}
    for module, name in ((metrics, "build_gain_table"), (optimizer, "data_floor"),
                         (optimizer, "solve")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    rows = monte_carlo_velocity_error(cfg, options, sigmas, trials=trials)
    assert records_to_csv(rows) == expected
    # sigma_v is no scenario field, so every task (one per sigma) shares one
    # table and floor; one solve per trial
    assert calls == {"build_gain_table": 1, "data_floor": 1, "solve": 2 * trials}


def test_chained_trials_stay_within_the_floor_tolerance_of_cold_solves(ref_cfg, ref_sched,
                                                                         ref_table, options):
    # a chained solve and a cold one at the same floor both end within eps
    # of it, so their energies differ by the floor tolerance: 4.48e-4
    # relative at most on this grid, bounded by 5 eps (5.06e-4 at 100
    # trials, sigma_v 5, trial 98, exceeds that bound)
    rows = monte_carlo_velocity_error(ref_cfg, replace(options, schemes=("optimized",)),
                                      sigmas=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0], trials=25)
    chained = [r for r in rows if r.kind == "trial"]
    assert len(chained) == 150
    for r in chained:
        assert r.converged
        _, warm = r.solution
        _, cold = solve(ref_cfg, ref_sched, d_min=warm.d_min, table=ref_table)
        assert abs(r.energy_j - cold.energy_j) <= 5 * optimizer.EPS * cold.energy_j


def test_chained_trial_below_a_caps_binding_floor_converges(options):
    # at rho = 0.97, M = 4 the caps bind; the sigma_v = 5 chain's trial 4
    # warm-starts below its predecessor's floor with capped columns that go
    # slack, where a merit kink at the cap once stalled every cycle
    cfg = reference_config(num_relays=4, rho=0.97)
    rows = monte_carlo_velocity_error(cfg, replace(options, schemes=("optimized",)),
                                      sigmas=[0.0, 1.0, 3.0, 5.0], trials=30)
    row = next(r for r in rows if r.kind == "trial" and r.value == 5.0 and r.trial == 4)
    assert row.scheme == "optimized" and not row.error
    assert row.converged


def test_fading_run_is_deterministic(options):
    cfg = reference_config(fading=True)
    seq = lambda: np.random.SeedSequence((cfg.seed, 0, 0))
    a = records_to_csv(run_point(cfg, options, seq()))
    b = records_to_csv(run_point(cfg, options, seq()))
    assert a == b
    # sampled fading shifts delivered data away from the deterministic value
    det = run_point(cfg.with_(fading=False), options, seq())
    faded = run_point(cfg, options, seq())
    det_avg = next(r for r in det if r.scheme == "average")
    fad_avg = next(r for r in faded if r.scheme == "average")
    assert det_avg.data_bits != fad_avg.data_bits
    assert det_avg.energy_j == fad_avg.energy_j   # energy ignores the channel


@pytest.mark.parametrize("speed_error", [0.5, 3.0, 8.0])
def test_speed_error_is_a_floor_shift(ref_cfg, ref_sched, ref_table, speed_error):
    # reference: plan on the estimated speed's own schedule and table,
    # chasing the true-speed floor
    d_min = optimizer.data_floor(ref_cfg, ref_sched, ref_table)
    plan_cfg = ref_cfg.with_(v=ref_cfg.v + speed_error)
    plan_sched = segment_boundaries(plan_cfg)
    ref_alloc, ref_diag = optimizer.solve(plan_cfg, plan_sched, d_min=d_min,
                                          table=metrics.build_gain_table(plan_cfg, plan_sched))
    alloc, diag = optimizer.solve(ref_cfg, ref_sched,
                                  d_min=d_min * ((ref_cfg.v + speed_error) / ref_cfg.v),
                                  table=ref_table)
    assert_allclose(alloc.p, ref_alloc.p, rtol=0, atol=1e-12 * ref_cfg.p_t)
    assert diag.cycles == ref_diag.cycles
    assert ([c.inner_steps for c in diag.history]
            == [c.inner_steps for c in ref_diag.history])


def test_unreachable_shifted_floor_fails_only_the_optimized_row(options):
    # rho * (v + e) / v = 0.95 * 1.1 > 1: no allocation within the budget
    # reaches the raised floor, and the baselines do not see the error
    cfg = reference_config(rho=0.95)
    recs = run_point(cfg, options, np.random.SeedSequence(0), speed_error=0.1 * cfg.v)
    by_scheme = {r.scheme: r for r in recs}
    opt = by_scheme.pop("optimized")
    assert "data floor" in opt.error and not opt.converged
    assert not np.isfinite(opt.energy_j)
    assert sorted(by_scheme) == sorted(s for s in SCHEMES if s != "optimized")
    for r in by_scheme.values():
        assert not r.error
        assert np.isfinite(r.energy_j) and np.isfinite(r.data_bits)


def test_speed_error_draws_are_nonnegative():
    rng = np.random.default_rng(3)
    draws = [draw_speed_error(rng, 5.0) for _ in range(1000)]
    assert min(draws) >= 0.0
    assert draw_speed_error(rng, 0.0) == 0.0


def test_mc_velocity_zero_sigma_equals_plain_run(ref_cfg, options, ref_records):
    rows = monte_carlo_velocity_error(ref_cfg, options, sigmas=[0.0], trials=1)
    trials = {r.scheme: r for r in rows if r.kind == "trial"}
    plain = {r.scheme: r for r in ref_records}
    for scheme in SCHEMES:
        assert trials[scheme].energy_j == plain[scheme].energy_j
        assert trials[scheme].data_bits == plain[scheme].data_bits


def test_mc_velocity_plans_conservatively(ref_cfg, options):
    # an overestimated speed raises the planned floor, so the optimised
    # scheme spends at least as much energy as with perfect knowledge
    rows = monte_carlo_velocity_error(ref_cfg, options, sigmas=[0.0, 4.0], trials=3)
    means = {(r.value, r.scheme): r for r in rows if r.kind == "mean"}
    assert means[(4.0, "optimized")].energy_j > means[(0.0, "optimized")].energy_j
    # baselines do not depend on the speed estimate
    assert_allclose(means[(4.0, "average")].energy_j,
                    means[(0.0, "average")].energy_j, rtol=1e-12)


def test_emit_plot_data(tmp_path, ref_cfg, options):
    spec = SweepSpec(param="d_l", values=(180.0, 200.0, 220.0))
    rows = sweep(ref_cfg, options, spec)
    csv_path = tmp_path / "sweep.csv"
    write_csv(rows, csv_path)
    dat, manifest = emit_plot_data(csv_path, "E-vs-dl", tmp_path / "plots")
    lines = [ln for ln in Path(dat).read_text().splitlines() if not ln.startswith("#")]
    assert len(lines) == 3
    assert all(len(ln.split()) == 1 + 5 for ln in lines)
    man = Path(manifest).read_text()
    assert "bits/J" in man and "J" in man and "bits/s/Hz" in man
    with pytest.raises(ValueError):
        emit_plot_data(csv_path, "no-such-figure", tmp_path / "plots")
    with pytest.raises(ValueError):
        emit_plot_data(csv_path, "EE-vs-M", tmp_path / "plots")   # wrong parameter
    # only mean rows are plotted: a CSV holding trial rows alone has none
    trials_only = tmp_path / "trials.csv"
    write_csv([r for r in rows if r.kind == "trial"], trials_only)
    with pytest.raises(ValueError, match="no rows for parameter 'd_l'"):
        emit_plot_data(trials_only, "E-vs-dl", tmp_path / "plots")


def test_run_point_reports_an_overflowing_csi_exponent(options):
    # the csi row carries the allocator's message; the other rows run
    for fading in (False, True):
        recs = run_point(reference_config(csi_alpha=200.0, fading=fading), options,
                         np.random.SeedSequence(0))
        csi = next(r for r in recs if r.scheme == "csi")
        assert "csi_alpha = 200" in csi.error and not np.isfinite(csi.energy_j)
        assert all(not r.error and np.isfinite(r.energy_j) for r in recs if r.scheme != "csi")


def test_rows_with_non_finite_figures_become_error_rows(ref_records):
    point = {c: getattr(ref_records[0], c) for c in harness._POINT_COLUMNS}
    row = harness._record(point, "csi", energy_j=float("nan"), data_bits=1.0, converged=True)
    assert row.error == "non-finite energy_j" and not row.converged
    row = harness._record(point, "csi", energy_j=float("inf"), data_bits=float("nan"))
    assert row.error == "non-finite energy_j and data_bits"
    # a failed row keeps its own message
    assert harness._record(point, "csi", error="boom").error == "boom"


def test_mean_rows_recompute_ratios_from_means(ref_cfg):
    rows = [
        RunRecord(kind="trial", param="d_l", value=200.0, trial=t, scheme="random",
                  scenario="x", m=4, n=6, d_l=200.0, v_mps=83.0, pt_w=10.0,
                  d_min_bits=1.0, energy_j=e, data_bits=d, ee_bits_per_j=d / e,
                  se_bits_per_s_per_hz=d / 7.128e9, meets_floor=True, converged=True,
                  cycles=None, h_inf=None)
        for t, (e, d) in enumerate([(2.0, 10.0), (4.0, 30.0)])
    ]
    mean = _mean_records(rows, prepare_point(ref_cfg, ()))[0]
    assert mean.energy_j == 3.0 and mean.data_bits == 20.0
    assert_allclose(mean.ee_bits_per_j, 20.0 / 3.0, rtol=1e-12)


def test_mean_row_spectral_efficiency_of_zero_data_is_zero(monkeypatch, options):
    # every optimized trial ends with zero data, from a solve that returns
    # the zero allocation; its mean row's SE is that of the mean data on the
    # point, not 0 / 0
    def zero_data_solve(cfg, sched, warm=None, *, d_min, table):
        alloc = metrics.AllocationMatrix(np.zeros(table.layout.segment.size), table.layout)
        figures = metrics.compute_metrics(alloc, cfg, sched, table)
        return alloc, optimizer.SolveResult(
            converged=False, cycles=1, d_min=d_min, energy_j=figures.energy_j,
            data_bits=figures.data_bits, h_inf=1.0,
            lam_hat=np.zeros(2 * cfg.num_relays + cfg.num_bins - 1), sigma=1.0)

    monkeypatch.setattr(optimizer, "solve", zero_data_solve)
    rows = sweep(reference_config(), replace(options, schemes=("average", "optimized")),
                 SweepSpec(param="d_l", values=(200.0,), trials=2))
    opt = [r for r in rows if r.scheme == "optimized"]
    assert [(r.kind, r.data_bits, r.se_bits_per_s_per_hz) for r in opt] == [
        ("trial", 0.0, 0.0), ("trial", 0.0, 0.0), ("mean", 0.0, 0.0)]


def test_array_records_compare_by_identity():
    # records that hold arrays compare by identity: two equal-content
    # builds are different objects, and comparing them answers, not raises
    cfg = reference_config()
    sched = segment_boundaries(cfg)
    builders = {
        "SegmentSchedule": lambda: segment_boundaries(cfg),
        "GainTable": lambda: metrics.build_gain_table(cfg, sched),
        "AllocationMatrix": lambda: allocators.average_alloc(cfg, sched),
        "RsrpWindow": lambda: build_table(cfg, x_s=10.0).window_at(3),
        "DopplerTable": lambda: build_table(cfg, x_s=10.0),
        "PreparedPoint": lambda: prepare_point(cfg, ()),
        "SolveResult": lambda: solve(cfg, sched)[1],
        "CycleRecord": lambda: solve(cfg, sched)[1].history[0],
    }
    for name, build in builders.items():
        a, b = build(), build()
        assert type(a).__name__ == name
        assert (a == b) is False and (a != b) is True, name
        assert a == a, name


def _row_values(rows):
    """Every serialised field of each row, exactly (repr keeps NaN comparable)."""
    return [repr(tuple(getattr(r, c) for c in harness.CSV_COLUMNS)) for r in rows]


@pytest.mark.parametrize("fading", [False, True])
def test_shared_rows_equal_rows_evaluated_in_every_trial(ref_cfg, options, fading):
    cfg, values, trials = ref_cfg.with_(fading=fading), (180.0, 220.0), 3
    shared = prepare_point(cfg, options.schemes).shared
    assert set(shared) == (set() if fading else {"constant", "average", "csi"})
    rows = sweep(cfg, options, SweepSpec(param="d_l", values=values, trials=trials))
    # the same trials from a fresh point per trial that stores no rows, so
    # every scheme is planned and evaluated in the trial, chained by hand
    expected, means = [], []
    for idx, value in enumerate(values):
        point_cfg = apply_sweep_value(cfg, "d_l", value)
        warm, value_rows = None, []
        for trial in range(trials):
            trial_rows = run_point(prepare_point(point_cfg, ()), options,
                                   np.random.SeedSequence((cfg.seed, idx, trial)),
                                   kind="trial", param="d_l", value=value, trial=trial,
                                   warm=warm)
            warm = next(r.solution for r in trial_rows if r.scheme == "optimized")
            value_rows += trial_rows
        expected += value_rows
        means += _mean_records(value_rows, prepare_point(point_cfg, ()))
    assert _row_values(rows) == _row_values(expected + means)


def test_shared_scheme_failure_is_an_error_row_in_every_trial(monkeypatch, ref_cfg, options):
    calls = []

    def failing(cfg, sched):
        calls.append(cfg)
        raise ValueError("constant refused")

    monkeypatch.setattr(allocators, "constant_alloc", failing)
    rows = sweep(ref_cfg, options, SweepSpec(param="d_l", values=(180.0, 220.0), trials=3))
    assert len(calls) == 2   # once per point, not once per trial
    constant = [r for r in rows if r.scheme == "constant"]
    assert len(constant) == 2 * 3 + 2
    assert all(r.error == "constant refused" and np.isnan(r.energy_j) for r in constant)
    assert all(not r.error for r in rows if r.scheme != "constant")


@pytest.mark.parametrize("fading, schemes, generators", [
    (False, ("constant", "average", "csi", "optimized"), 0),
    (False, SCHEMES, 1),    # random draws
    (True, ("constant", "average"), 1),    # the fading trace draws
    (True, SCHEMES, 3),     # and so do random and the CSI weights
])
def test_run_point_builds_a_generator_only_for_a_drawn_stream(monkeypatch, ref_cfg, options,
                                                              fading, schemes, generators):
    point = prepare_point(ref_cfg.with_(fading=fading), schemes)
    built = []
    default_rng = np.random.default_rng

    def counted(seed):
        built.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    seq = np.random.SeedSequence((ref_cfg.seed, 0, 0))
    run_point(point, replace(options, schemes=schemes), seq)
    assert len(built) == generators
    assert seq.n_children_spawned == 3   # the three streams are spawned as before


def test_mc_velocity_csv_same_at_one_and_two_workers(ref_cfg, options):
    # the one prepared point, its shared rows included, travels to each task
    csv = [records_to_csv(monte_carlo_velocity_error(ref_cfg, options, sigmas=[0.0, 2.0, 4.0],
                                                     trials=3, workers=w))
           for w in (1, 2)]
    assert csv[0] == csv[1]

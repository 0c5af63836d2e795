from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import rician_parameters

from railpower import (AllocationMatrix, GainTable, MetricsRecord, average_alloc,
                       build_gain_table, compute_metrics, constant_alloc, csi_alloc,
                       energy_efficiency, entry_layout, mr_rrh_distance, random_alloc,
                       sample_fading_power, sample_fading_trace, snr_linear_per_watt,
                       reference_config, solve, spectral_efficiency, total_energy)
from railpower.scenario import segment_boundaries


def entry(layout, i, j):
    """Compact index of the 0-based (relay, segment) entry (i, j)."""
    return int(np.flatnonzero((layout.relay == i) & (layout.segment == j))[0])


def test_constant_scheme_energy_hand_sum(ref_cfg, ref_sched):
    alloc = constant_alloc(ref_cfg, ref_sched)
    # 2.5 W per covered relay: per-segment energies are
    # 0.75, 1.5, 2.25, then six stage-two segments of 2.5, then mirrored
    hand = 0.75 + 1.5 + 2.25 + 6 * 2.5 + 2.25 + 1.5 + 0.75
    assert_allclose(total_energy(alloc, ref_sched), hand, rtol=1e-12)
    assert abs(total_energy(alloc, ref_sched) - 24.0) <= 1e-9


def test_energy_zero_and_linearity(ref_cfg, ref_sched, rng):
    layout = entry_layout(ref_cfg)
    zero = AllocationMatrix(np.zeros(layout.segment.size), layout)
    assert total_energy(zero, ref_sched) == 0.0
    p = rng.uniform(0.0, 2.0, layout.segment.size)
    alloc = AllocationMatrix(p, layout)
    scaled = AllocationMatrix(3.0 * p, layout)
    assert_allclose(total_energy(scaled, ref_sched),
                    3.0 * total_energy(alloc, ref_sched), rtol=1e-12)


def test_energy_shape_mismatch(ref_cfg, ref_sched):
    small = segment_boundaries(ref_cfg.with_(num_bins=4))
    alloc = constant_alloc(ref_cfg, ref_sched)
    with pytest.raises(ValueError):
        total_energy(alloc, small)


def riemann_segment_data(cfg, sched, i, j, p_ij, n=100_000):
    """Brute-force midpoint Riemann sum of the rate integral of relay i
    (1-based) in segment j (1-based) at constant power p_ij."""
    t0, t1 = sched.boundaries[j - 1], sched.boundaries[j]
    ts = t0 + (np.arange(n) + 0.5) * (t1 - t0) / n
    gain = snr_linear_per_watt(cfg, mr_rrh_distance(cfg, i, ts))
    return cfg.bandwidth * np.mean(np.log2(1.0 + p_ij * gain)) * (t1 - t0)


def test_segment_data_against_riemann_oracle(ref_cfg, ref_sched, ref_table):
    # every entry of the reference table, at 2.5 W
    p = np.full(ref_table.layout.segment.size, 2.5)
    val = ref_table.segment_data_matrix(p)
    relay, seg = ref_table.layout.relay, ref_table.layout.segment
    for k in range(p.size):
        oracle = riemann_segment_data(ref_cfg, ref_sched, relay[k] + 1, seg[k] + 1, 2.5)
        assert abs(val[k] - oracle) <= 1e-6 * oracle, k


def test_segment_data_basics(ref_table):
    k_all = ref_table.layout.segment.size
    assert np.all(ref_table.segment_data_matrix(np.zeros(k_all)) == 0.0)
    d1, d2, d3 = (ref_table.segment_data_matrix(np.full(k_all, p)) for p in (0.5, 1.5, 2.5))
    assert np.all((0 < d1) & (d1 < d2) & (d2 < d3))   # increasing
    assert np.all(d2 - d1 > d3 - d2)                  # concave


def test_total_data_is_sum_of_segments(ref_cfg, ref_sched, ref_table):
    alloc = constant_alloc(ref_cfg, ref_sched)
    total = ref_table.total_data(alloc.values)
    per = ref_table.segment_data_matrix(alloc.values)
    assert_allclose(total, per.sum(), rtol=1e-12)
    assert_allclose(ref_table.layout.column_sums(per).sum(), total, rtol=1e-12)


def test_total_data_trivial_cases(ref_cfg, ref_sched, ref_table):
    zero = np.zeros(ref_table.layout.segment.size)
    assert ref_table.total_data(zero) == 0.0
    single = zero.copy()
    k = entry(ref_table.layout, 0, 3)
    single[k] = 1.25
    per = ref_table.segment_data_matrix(single)
    assert np.flatnonzero(per).tolist() == [k]
    assert_allclose(ref_table.total_data(single), per.sum(), rtol=1e-12)


def test_total_data_mirror_symmetry(ref_cfg, ref_sched, ref_table, rng):
    layout = entry_layout(ref_cfg)
    for _ in range(5):
        p = rng.uniform(0.0, 2.5, layout.segment.size)
        alloc = AllocationMatrix(p, layout)
        # the mask is symmetric under the mirror, which reverses the
        # column-major entry order
        mirrored = AllocationMatrix(p[::-1].copy(), layout)
        assert np.array_equal(mirrored.p, alloc.p[::-1, ::-1])
        d1 = ref_table.total_data(alloc.values)
        d2 = ref_table.total_data(mirrored.values)
        assert abs(d1 - d2) <= 1e-9 * d1


def test_total_data_entrywise_monotone(ref_cfg, ref_sched, ref_table, rng):
    layout = entry_layout(ref_cfg)
    p = rng.uniform(0.1, 2.0, layout.segment.size)
    base = ref_table.total_data(p)
    for i, j in [(0, 0), (1, 4), (3, 11)]:
        bumped = p.copy()
        bumped[entry(layout, i, j)] += 0.3
        assert ref_table.total_data(bumped) > base


def test_evaluation_is_bitwise_repeatable(ref_cfg, ref_sched, rng):
    # fixed quadrature and fixed reduction order: re-evaluation and
    # fresh-table evaluation agree to the last bit
    p = rng.uniform(0.0, 2.5, entry_layout(ref_cfg).segment.size)
    t1 = build_gain_table(ref_cfg, ref_sched)
    t2 = build_gain_table(ref_cfg, ref_sched)
    assert t1.total_data(p) == t1.total_data(p) == t2.total_data(p)
    for a, b in zip(t1.data_derivatives(p), t2.data_derivatives(p)):
        assert np.array_equal(a, b)
    # the table evaluates the link once over every active entry's nodes;
    # each relay's rows equal the link evaluated for that relay alone
    for m, n, quad_n in [(1, 1, 2), (2, 3, 32), (4, 6, 32), (6, 6, 256), (8, 8, 64)]:
        cfg = reference_config(num_relays=m, num_bins=n, quad_n=quad_n, d_l=400.0)
        sched = segment_boundaries(cfg)
        table = build_gain_table(cfg, sched)
        relay, seg = table.layout.relay, table.layout.segment
        frac = np.arange(quad_n + 1) / quad_n
        nodes = sched.boundaries[:-1, None] + frac * sched.durations[:, None]
        for i in range(m):
            rows = relay == i
            gains = snr_linear_per_watt(cfg, mr_rrh_distance(cfg, i + 1, nodes[seg[rows]]))
            assert np.array_equal(table.gains[rows], gains), (m, n, quad_n, i)


def test_quadrature_convergence(ref_cfg, ref_sched):
    p = average_alloc(ref_cfg, ref_sched).values
    d32 = build_gain_table(ref_cfg, ref_sched).total_data(p)
    d64 = build_gain_table(ref_cfg.with_(quad_n=64), ref_sched).total_data(p)
    assert abs(d64 - d32) <= 1e-7 * d32


def test_energy_efficiency():
    assert energy_efficiency(24e9, 24.0) == 1e9
    assert energy_efficiency(48e9, 24.0) == 2 * energy_efficiency(24e9, 24.0)
    assert energy_efficiency(5e9, 5.0) == energy_efficiency(10e9, 10.0)
    # undefined without positive energy: NaN, as on a failed row
    for energy in (0.0, -1.0, float("nan")):
        assert np.isnan(energy_efficiency(1.0, energy))


def test_spectral_efficiency(ref_cfg, ref_sched, ref_table):
    assert spectral_efficiency(0.0, ref_cfg, ref_sched) == 0.0
    bt = ref_cfg.bandwidth * ref_sched.total_time
    assert_allclose(spectral_efficiency(bt, ref_cfg, ref_sched), 1.0, rtol=1e-12)
    alloc = constant_alloc(ref_cfg, ref_sched)
    d = ref_table.total_data(alloc.values)
    assert_allclose(spectral_efficiency(d, ref_cfg, ref_sched),
                    d / (2.16e9 * 3.3), rtol=1e-9)


def test_grad_total_data_finite_differences(ref_cfg, ref_sched, ref_table, rng):
    # powers kept away from zero so the central-difference oracle itself
    # is accurate at the prescribed step
    k_all = entry_layout(ref_cfg).segment.size
    step = 1e-4 * ref_cfg.p_t
    per_relay = ref_cfg.p_t / ref_cfg.num_relays
    for trial in range(20):
        p = rng.uniform(0.1 * per_relay, per_relay, k_all)
        g = ref_table.data_derivatives(p)[0]
        assert g.shape == (k_all,) and np.all(g > 0)
        k = trial % k_all
        plus, minus = p.copy(), p.copy()
        plus[k] += step
        minus[k] -= step
        fd = (ref_table.total_data(plus) - ref_table.total_data(minus)) / (2 * step)
        assert abs(fd - g[k]) <= 1e-4 * abs(fd)


def test_data_curvature_finite_differences(ref_cfg, ref_table, rng):
    # the curvature is the derivative of the gradient, entry by entry, and
    # moving one entry leaves every other entry's gradient unchanged (each
    # D_ij depends on P_ij alone, so the Hessian of the data is diagonal)
    k_all = entry_layout(ref_cfg).segment.size
    step = 1e-4 * ref_cfg.p_t
    per_relay = ref_cfg.p_t / ref_cfg.num_relays
    for trial in range(20):
        p = rng.uniform(0.1 * per_relay, per_relay, k_all)
        dd, dd2 = ref_table.data_derivatives(p)
        assert np.all(dd2 < 0)
        k = trial % k_all
        plus, minus = p.copy(), p.copy()
        plus[k] += step
        minus[k] -= step
        g_plus = ref_table.data_derivatives(plus)[0]
        g_minus = ref_table.data_derivatives(minus)[0]
        fd = (g_plus[k] - g_minus[k]) / (2 * step)
        assert abs(fd - dd2[k]) <= 1e-4 * abs(fd)
        others = np.ones(k_all, dtype=bool)
        others[k] = False
        assert np.array_equal(g_plus[others], dd[others])
        assert np.array_equal(g_minus[others], dd[others])


def test_grad_larger_near_rrh(ref_cfg, ref_sched, ref_table):
    # equal power in the gain-sensitive regime: the abeam segment outpulls
    # the cell-edge segment (at tens of dB of SNR the log saturates and the
    # longer edge segment would win on duration alone)
    layout = ref_table.layout
    g = ref_table.data_derivatives(np.full(layout.segment.size, 0.01))[0]
    abeam, edge = entry(layout, 0, 4), entry(layout, 0, 0)
    # relay 1 passes abeam (x=100 m) during segment 5; its cell-edge segment is 1
    assert g[abeam] > g[edge]
    # per unit time the abeam segment wins at any power level
    per_time = g / ref_sched.durations[layout.segment]
    assert per_time[abeam] > per_time[edge]


def test_fading_trace_changes_data_deterministically(ref_cfg, ref_sched, ref_table):
    p = average_alloc(ref_cfg, ref_sched).values
    trace1 = sample_fading_trace(ref_cfg, np.random.default_rng(3))
    trace2 = sample_fading_trace(ref_cfg, np.random.default_rng(3))
    assert trace1.shape == ref_table.gains.shape
    assert np.array_equal(trace1, trace2)
    table = ref_table.faded(trace1)
    d_fade = table.total_data(p)
    d_det = ref_table.total_data(p)
    assert d_fade != d_det
    assert ref_table.faded(np.ones(ref_table.gains.shape)).total_data(p) == d_det
    for wrong in (trace1[:, :-1], trace1[:-1], trace1.T,
                  np.ones(ref_table.layout.mask.shape + ref_table.gains.shape[1:])):
        with pytest.raises(ValueError, match="K, Q"):
            ref_table.faded(wrong)


def test_faded_table_scales_the_active_node_factors(ref_cfg, ref_table):
    # the faded table is the deterministic one times the (K, Q+1) trace of
    # power factors, entry by entry and node by node
    trace = sample_fading_trace(ref_cfg, np.random.default_rng(4))
    faded = ref_table.faded(trace)
    assert np.array_equal(faded.weights, ref_table.weights)
    assert faded.layout is ref_table.layout
    assert np.array_equal(faded.gains, ref_table.gains * trace)


@pytest.mark.parametrize("seed", range(5))
def test_fading_trace_matches_the_db_route(ref_cfg, seed):
    # the trace is one (K, Q+1) power draw in the compact order, nothing
    # for the pairs outside the cell: bit for bit the factors
    # sample_fading_power draws, and to rounding the dB route over the same
    # draws (two rng.normal calls, gamma = -20 log10(r / r_rms), then
    # 10^(-gamma/10)); it consumes exactly 2 K (Q+1) normals
    a, sigma = rician_parameters(ref_cfg.rician_k)
    size = (entry_layout(ref_cfg).segment.size, ref_cfg.quad_n + 1)
    rng = np.random.default_rng(seed)
    trace = sample_fading_trace(ref_cfg, rng)
    assert trace.shape == size
    drawn = sample_fading_power(ref_cfg.rician_k, np.random.default_rng(seed), size)
    assert np.array_equal(trace, drawn)
    ref = np.random.default_rng(seed)
    r = np.hypot(ref.normal(a, sigma, size=size), ref.normal(0.0, sigma, size=size))
    gamma = -20.0 * np.log10(r / np.sqrt(a ** 2 + 2 * sigma ** 2))
    assert_allclose(trace, 10.0 ** (-gamma / 10.0), rtol=2e-15)
    counted = np.random.default_rng(seed)
    counted.standard_normal(2 * size[0] * size[1])
    assert rng.random() == ref.random() == counted.random()


def test_compute_metrics_consistency(ref_cfg, ref_sched, ref_table):
    # one energy formula and one data reduction for every scheme's
    # allocation; EE and SE are formed on the harness rows
    assert tuple(f.name for f in fields(MetricsRecord)) == ("energy_j", "data_bits")
    allocs = {
        "constant": constant_alloc(ref_cfg, ref_sched),
        "average": average_alloc(ref_cfg, ref_sched),
        "random": random_alloc(ref_cfg, ref_sched, np.random.default_rng(5)),
        "csi": csi_alloc(ref_cfg, ref_sched, ref_table),
        "optimized": solve(ref_cfg, ref_sched, table=ref_table)[0],
    }
    for scheme, alloc in allocs.items():
        rec = compute_metrics(alloc, ref_sched, ref_table)
        assert rec.energy_j == total_energy(alloc, ref_sched), scheme
        assert rec.data_bits == ref_table.total_data(alloc.values), scheme


def test_allocation_matrix_guards(ref_cfg):
    layout = entry_layout(ref_cfg)
    mask = layout.mask
    for bad in (np.zeros(mask.shape), np.zeros(mask.sum() - 1)):
        with pytest.raises(ValueError, match="one power per active entry"):
            AllocationMatrix(bad, layout)
    alloc = AllocationMatrix(np.arange(1.0, mask.sum() + 1.0), layout)
    assert np.all(alloc.p[~mask] == 0.0)
    # the dense view places the entries column by column
    assert np.array_equal(alloc.p.T[mask.T], alloc.values)


def test_allocation_matrix_leaves_caller_arrays_writable(ref_cfg):
    layout = entry_layout(ref_cfg)
    values = np.ones(layout.segment.size)
    alloc = AllocationMatrix(values, layout)
    assert values.flags.writeable
    assert not alloc.values.flags.writeable and not alloc.p.flags.writeable
    values[:] = 2.0
    assert np.all(alloc.values == 1.0) and np.all(alloc.p[layout.mask] == 1.0)
    # arrays that are already read-only are held as they are
    again = AllocationMatrix(alloc.values, layout)
    assert again.values is alloc.values


def test_gain_table_leaves_caller_arrays_writable(ref_cfg, ref_sched, ref_table):
    arrays = {name: getattr(ref_table, name).copy() for name in ("gains", "weights")}
    table = GainTable(**arrays, layout=ref_table.layout, bandwidth=ref_table.bandwidth)
    for name, arr in arrays.items():
        assert arr.flags.writeable, name
        held = getattr(table, name)
        assert not held.flags.writeable and held is not arr, name
    arrays["gains"][:] = 0.0
    assert table.total_data(np.ones(table.layout.segment.size)) > 0.0

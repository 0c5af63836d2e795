"""Property tests over random valid scenarios.

Each draw is a valid ``ScenarioConfig``: 1-8 relays, 1-8 location bins,
an even ``quad_n`` up to 64, a cell wider than the relay string
(d_l > (M-1)*d_mr), and fading on or off.  The compact data passes are
checked against a dense reference that evaluates the link at every
Simpson node of every covered (relay, segment) pair on its own, and every
allocator must be feasible: on the config's layout, nonnegative, and
within the budget in every segment.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from oracles import assert_feasible

from railpower import (AllocationMatrix, ScenarioConfig, average_alloc, build_gain_table,
                       compute_metrics, constant_alloc, csi_alloc, entry_layout,
                       mr_rrh_distance, random_alloc, sample_fading_trace,
                       segment_boundaries, snr_linear_per_watt)

LN2 = np.log(2.0)


@st.composite
def scenarios(draw):
    m = draw(st.integers(1, 8))
    d_mr = draw(st.floats(5.0, 30.0))
    return ScenarioConfig(
        num_relays=m, num_bins=draw(st.integers(1, 8)), d_mr=d_mr,
        d_l=(m - 1) * d_mr + draw(st.floats(10.0, 300.0)),
        v=draw(st.floats(20.0, 120.0)), p_t=draw(st.floats(0.5, 20.0)),
        quad_n=2 * draw(st.integers(1, 32)), fading=draw(st.booleans()),
        seed=draw(st.integers(0, 2 ** 31 - 1)))


def dense_reference(cfg, sched, p, fading):
    """Total data and the (M, S) data derivatives, entry by entry, from the
    link evaluated at each covered pair's Simpson nodes; ``fading`` is a
    compact (K, Q+1) trace of power factors, or None."""
    n = cfg.quad_n
    simpson = np.ones(n + 1)
    simpson[1:-1:2], simpson[2:-1:2] = 4.0, 2.0
    scale = cfg.bandwidth / LN2
    mask = entry_layout(cfg).mask
    # each covered pair's row of factors: the compact order is column-major
    factors = np.ones(mask.shape + (n + 1,))
    if fading is not None:
        factors.swapaxes(0, 1)[mask.T] = fading
    total, dd, dd2 = 0.0, np.zeros(mask.shape), np.zeros(mask.shape)
    for i, j in zip(*np.nonzero(mask)):
        t0, t1 = sched.boundaries[j], sched.boundaries[j + 1]
        nodes = t0 + (t1 - t0) * np.arange(n + 1) / n
        g = snr_linear_per_watt(cfg, mr_rrh_distance(cfg, i + 1, nodes)) * factors[i, j]
        w = simpson * (t1 - t0) / (3.0 * n)
        r = g / (1.0 + p[i, j] * g)
        total += scale * np.sum(w * np.log1p(p[i, j] * g))
        dd[i, j] = scale * np.sum(w * r)
        dd2[i, j] = -scale * np.sum(w * r * r)
    return total, dd, dd2


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cfg=scenarios(), power_seed=st.integers(0, 2 ** 32 - 1))
def test_compact_data_passes_match_dense_reference(cfg, power_seed):
    sched = segment_boundaries(cfg)
    rng = np.random.default_rng(cfg.seed)
    table = build_gain_table(cfg, sched)
    fading = None
    if cfg.fading:
        fading = sample_fading_trace(cfg, rng)
        table = table.faded(fading)
    layout = entry_layout(cfg)
    mask = layout.mask
    prng = np.random.default_rng(power_seed)
    p = np.where(mask, prng.uniform(0.0, cfg.p_t, mask.shape), 0.0)
    p[prng.random(mask.shape) < 0.2] = 0.0
    # the compact order is column-major: transpose before masking
    alloc = AllocationMatrix(p.T[mask.T], layout)
    total, dd, dd2 = dense_reference(cfg, sched, p, fading)

    assert_allclose(table.total_data(alloc.values), total, rtol=1e-12)
    got_dd, got_dd2 = table.data_derivatives(alloc.values)
    assert_allclose(got_dd, dd.T[mask.T], rtol=1e-12)
    assert_allclose(got_dd2, dd2.T[mask.T], rtol=1e-12)
    rec = compute_metrics(alloc, cfg, sched, table)
    assert_allclose(rec.data_bits, total, rtol=1e-12)
    # a row's data is the table's one data reduction, the floor's too; the
    # per-entry figures add up to it to rounding
    assert rec.data_bits == table.total_data(alloc.values)
    assert_allclose(table.segment_data_matrix(alloc.values).sum(), rec.data_bits,
                    rtol=1e-12)
    # the dense view gives back the dense powers, and the compact column
    # sums add each column in relay order as the dense row-by-row sum does
    assert np.array_equal(alloc.p, p)
    assert np.array_equal(alloc.column_sums(), p.sum(axis=0))
    assert rec.energy_j == float((sched.durations * p.sum(axis=0)).sum())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cfg=scenarios())
def test_allocators_are_valid(cfg):
    sched = segment_boundaries(cfg)
    rng = np.random.default_rng(cfg.seed)
    csi = csi_alloc(cfg, sched, build_gain_table(cfg, sched), rng if cfg.fading else None)
    for alloc in (constant_alloc(cfg, sched), average_alloc(cfg, sched),
                  random_alloc(cfg, sched, rng), csi):
        assert alloc.p.shape == (cfg.num_relays, cfg.num_segments)
        assert_feasible(alloc, cfg)

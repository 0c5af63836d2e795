from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import assert_feasible

from railpower import (FadingModel, average_alloc, build_gain_table, constant_alloc,
                       csi_alloc, entry_layout, mr_rrh_distance, mrs_in_cell, path_loss,
                       random_alloc, reference_config, sample_fading_power,
                       segment_boundaries)
from railpower.metrics import AllocationMatrix


def test_constant_alloc(ref_cfg, ref_sched):
    alloc = constant_alloc(ref_cfg, ref_sched)
    assert np.all(alloc.p[alloc.layout.mask] == ref_cfg.p_t / ref_cfg.num_relays)
    assert_allclose(alloc.column_sums()[0], 2.5, rtol=1e-12)   # one relay covered
    assert alloc.column_sums()[0] < ref_cfg.p_t


def test_constant_alloc_single_relay():
    cfg = reference_config(num_relays=1)
    sched = segment_boundaries(cfg)
    alloc = constant_alloc(cfg, sched)
    assert np.all(alloc.p[alloc.layout.mask] == cfg.p_t)


def test_average_alloc(ref_cfg, ref_sched):
    alloc = average_alloc(ref_cfg, ref_sched)
    assert_allclose(alloc.p[0, 0], ref_cfg.p_t, rtol=1e-12)   # lone relay gets it all
    stage2 = slice(ref_cfg.num_relays - 1, ref_cfg.num_relays - 1 + ref_cfg.num_bins)
    assert np.all(alloc.p[:, stage2] == ref_cfg.p_t / ref_cfg.num_relays)
    assert_allclose(alloc.column_sums(), ref_cfg.p_t, rtol=1e-12)
    for j in range(1, ref_cfg.num_segments + 1):
        covered = mrs_in_cell(ref_cfg, j)
        assert_allclose(alloc.p[:, j - 1][alloc.layout.mask[:, j - 1]],
                        ref_cfg.p_t / covered, rtol=1e-12)


def test_random_alloc_columns_sum_to_budget(ref_cfg, ref_sched):
    alloc = random_alloc(ref_cfg, ref_sched, np.random.default_rng(1))
    assert_allclose(alloc.column_sums(), ref_cfg.p_t, rtol=1e-12)
    assert np.all(alloc.p >= 0.0)
    assert_feasible(alloc, ref_cfg)


def test_random_alloc_reproducible(ref_cfg, ref_sched):
    a = random_alloc(ref_cfg, ref_sched, np.random.default_rng(123))
    b = random_alloc(ref_cfg, ref_sched, np.random.default_rng(123))
    assert np.array_equal(a.p, b.p)


def test_random_alloc_uniform_mean(ref_cfg, ref_sched):
    # symmetric split: each stage-two entry averages P_T / M
    rng = np.random.default_rng(7)
    j = ref_cfg.num_relays + 1           # a stage-two column (1-based)
    acc = np.zeros(ref_cfg.num_relays)
    n = 10_000
    for _ in range(n):
        acc += random_alloc(ref_cfg, ref_sched, rng).p[:, j - 1]
    assert_allclose(acc / n, ref_cfg.p_t / ref_cfg.num_relays, rtol=0.02)


def midpoint_factors(table):
    """Each covered entry's gain-table factor at its segment's midpoint node."""
    return table.gains[:, table.gains.shape[1] // 2]


def test_csi_alloc_equal_gains_split_equally(ref_cfg, ref_sched, ref_table):
    table = replace(ref_table, gains=np.full_like(ref_table.gains, 1e-9))
    alloc = csi_alloc(ref_cfg, ref_sched, table)
    mask = table.layout.mask
    for j in range(ref_cfg.num_segments):
        active = mask[:, j]
        assert_allclose(alloc.p[active, j], ref_cfg.p_t / active.sum(), rtol=1e-12)


def test_csi_alloc_inverse_weighting():
    cfg = reference_config(num_relays=2, num_bins=2, csi_alpha=0.5)
    sched = segment_boundaries(cfg)
    table = build_gain_table(cfg, sched)
    relay, seg = table.layout.relay, table.layout.segment
    gains = np.full_like(table.gains, 1.0e-9)
    gains[(relay == 0) & (seg == 1)] = 4.0e-9   # relay 1 four times stronger in column 2
    alloc = csi_alloc(cfg, sched, replace(table, gains=gains))
    # (h^2)^(-0.5) weights: gains 4:1 give powers 1:2
    assert_allclose(alloc.p[1, 1] / alloc.p[0, 1], 2.0, rtol=1e-12)
    assert_allclose(alloc.column_sums(), cfg.p_t, rtol=1e-12)


def test_csi_alloc_matches_average_for_tiny_alpha(ref_cfg, ref_sched, ref_table):
    alloc = csi_alloc(ref_cfg.with_(csi_alpha=1e-6), ref_sched, ref_table)
    avg = average_alloc(ref_cfg, ref_sched)
    assert np.max(np.abs(alloc.p - avg.p)) <= 1e-4 * ref_cfg.p_t


def test_csi_alloc_gives_weak_channels_more_power(ref_cfg, ref_sched, ref_table):
    alloc = csi_alloc(ref_cfg, ref_sched, ref_table)
    j = ref_cfg.num_relays          # first stage-two column, all relays covered
    gains = midpoint_factors(ref_table)[ref_table.layout.segment == j - 1]   # in relay order
    powers = alloc.p[:, j - 1]
    order_g = np.argsort(gains)
    assert np.all(np.diff(powers[order_g]) <= 1e-15)   # weakest gain, largest power


def test_csi_alloc_reads_positive_factors_and_fading(ref_cfg, ref_sched, ref_table):
    assert np.all(midpoint_factors(ref_table) > 0.0)
    det = csi_alloc(ref_cfg, ref_sched, ref_table)
    faded1 = csi_alloc(ref_cfg, ref_sched, ref_table, np.random.default_rng(5))
    faded2 = csi_alloc(ref_cfg, ref_sched, ref_table, np.random.default_rng(5))
    assert np.array_equal(faded1.p, faded2.p)
    assert not np.array_equal(faded1.p, det.p)
    for alloc in (det, faded1):
        assert np.all(alloc.p[alloc.layout.mask] > 0.0)
        assert np.all(alloc.p[~alloc.layout.mask] == 0.0)


def test_all_allocators_validate(ref_cfg, ref_sched, ref_table):
    rng = np.random.default_rng(2)
    for alloc in (constant_alloc(ref_cfg, ref_sched),
                  average_alloc(ref_cfg, ref_sched),
                  random_alloc(ref_cfg, ref_sched, rng),
                  csi_alloc(ref_cfg, ref_sched, ref_table)):
        assert_feasible(alloc, ref_cfg)


def test_budget_equality_by_construction(ref_cfg, ref_sched, ref_table):
    # average, random, and CSI hit the budget exactly in every column;
    # constant only in stage-two columns
    rng = np.random.default_rng(3)
    for alloc in (average_alloc(ref_cfg, ref_sched),
                  random_alloc(ref_cfg, ref_sched, rng),
                  csi_alloc(ref_cfg, ref_sched, ref_table)):
        assert_allclose(alloc.column_sums(), ref_cfg.p_t, rtol=1e-12)
    const = constant_alloc(ref_cfg, ref_sched)
    sums = const.column_sums()
    stage2 = slice(ref_cfg.num_relays - 1, ref_cfg.num_relays - 1 + ref_cfg.num_bins)
    assert_allclose(sums[stage2], ref_cfg.p_t, rtol=1e-12)
    outside = np.ones(ref_cfg.num_segments, dtype=bool)
    outside[stage2] = False
    assert np.all(sums[outside] < ref_cfg.p_t)


def column_loop_random(cfg, rng):
    """Reference: one exponential draw per covered relay, column by column."""
    mask = entry_layout(cfg).mask
    p = np.zeros(mask.shape)
    for j in range(cfg.num_segments):
        idx = np.flatnonzero(mask[:, j])
        w = rng.exponential(1.0, size=idx.size)
        p[idx, j] = cfg.p_t * w / w.sum()
    return p


def column_loop_csi(cfg, h2, fading=None):
    """Reference: inverse-gain weights of a dense (M, S) channel, normalised
    column by column; ``fading`` holds one power factor per active entry in
    the compact order, column by column and down each column's relays."""
    mask = entry_layout(cfg).mask
    p = np.zeros(mask.shape)
    k = 0
    for j in range(cfg.num_segments):
        idx = np.flatnonzero(mask[:, j])
        h = h2[idx, j]
        if fading is not None:
            h = h * fading[k:k + idx.size]
        k += idx.size
        w = h ** (-cfg.csi_alpha)
        p[idx, j] = cfg.p_t * w / w.sum()
    return p


def fading_attenuation(cfg, rng):
    """One Rician power factor per active entry, in the compact order."""
    model = FadingModel.from_k_db(cfg.rician_k)
    return sample_fading_power(model, rng, size=entry_layout(cfg).segment.size)


def midpoint_snapshot(cfg, sched):
    """Reference channel (M, S): path loss and shadowing evaluated at each
    segment's temporal midpoint; zero off the mask."""
    mask = entry_layout(cfg).mask
    mid = 0.5 * (sched.boundaries[:-1] + sched.boundaries[1:])
    h2 = np.zeros(mask.shape)
    for i in range(1, cfg.num_relays + 1):
        h_db = (-path_loss(mr_rrh_distance(cfg, i, mid), cfg.wavelength, cfg.pathloss_exp)
                - cfg.shadowing)
        h2[i - 1] = 10.0 ** (h_db / 10.0)
    return np.where(mask, h2, 0.0)


@pytest.mark.parametrize("m", [1, 2, 4, 7, 8, 11])
def test_vectorised_allocators_match_column_loops(m):
    # the compact split adds each column's weights in relay order; a
    # column's own sum does the same below eight terms and regroups them
    # from eight on, so the two agree bit for bit up to M = 7 and to
    # rounding above
    cfg = reference_config(num_relays=m, num_bins=3, d_mr=10.0)
    sched = segment_boundaries(cfg)
    table = build_gain_table(cfg, sched)
    mid = AllocationMatrix(midpoint_factors(table), table.layout).p
    for seed in range(5):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        pairs = [(random_alloc(cfg, sched, rng_a).p, column_loop_random(cfg, rng_b))]
        # the draws come in the same order and leave the stream in the same place
        assert rng_a.random() == rng_b.random()
        rng_c, rng_d = np.random.default_rng(seed), np.random.default_rng(seed)
        pairs.append((csi_alloc(cfg, sched, table, rng_c).p,
                      column_loop_csi(cfg, mid, fading_attenuation(cfg, rng_d))))
        assert rng_c.random() == rng_d.random()
        for got, expected in pairs:
            if m <= 7:
                assert np.array_equal(got, expected)
            else:
                assert_allclose(got, expected, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("fading", [False, True])
@pytest.mark.parametrize("quad_n", [2, 32, 256])
@pytest.mark.parametrize("m", [1, 2, 4, 7, 8, 11])
def test_csi_alloc_matches_midpoint_snapshot(m, quad_n, fading):
    # node quad_n/2 of the gain table is the segment's midpoint, and the
    # link constant between the table's factor and the bare path loss
    # cancels in the per-segment split; with fading both draw the same
    # (K,) factors from the same stream
    cfg = reference_config(num_relays=m, num_bins=3, d_mr=10.0, quad_n=quad_n)
    sched = segment_boundaries(cfg)
    table = build_gain_table(cfg, sched)
    for seed in range(3):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = csi_alloc(cfg, sched, table, rng_a if fading else None).p
        expected = column_loop_csi(cfg, midpoint_snapshot(cfg, sched),
                                   fading_attenuation(cfg, rng_b) if fading else None)
        assert_allclose(got, expected, rtol=0.0, atol=1e-15 * cfg.p_t)
        assert rng_a.random() == rng_b.random()

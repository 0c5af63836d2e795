import numpy as np
import pytest
from numpy.testing import assert_allclose

from railpower import (ChannelSnapshot, activity_mask, average_alloc, constant_alloc,
                       csi_alloc, mrs_in_cell, random_alloc, reference_config,
                       segment_boundaries, validate_alloc)
from railpower.metrics import AllocationMatrix


def test_constant_alloc(ref_cfg, ref_sched):
    alloc = constant_alloc(ref_cfg, ref_sched)
    assert np.all(alloc.p[alloc.mask] == ref_cfg.p_t / ref_cfg.num_relays)
    assert_allclose(alloc.column_sums()[0], 2.5, rtol=1e-12)   # one relay covered
    assert alloc.column_sums()[0] < ref_cfg.p_t


def test_constant_alloc_single_relay():
    cfg = reference_config(num_relays=1)
    sched = segment_boundaries(cfg)
    alloc = constant_alloc(cfg, sched)
    assert np.all(alloc.p[alloc.mask] == cfg.p_t)


def test_average_alloc(ref_cfg, ref_sched):
    alloc = average_alloc(ref_cfg, ref_sched)
    assert_allclose(alloc.p[0, 0], ref_cfg.p_t, rtol=1e-12)   # lone relay gets it all
    stage2 = slice(ref_cfg.num_relays - 1, ref_cfg.num_relays - 1 + ref_cfg.num_bins)
    assert np.all(alloc.p[:, stage2] == ref_cfg.p_t / ref_cfg.num_relays)
    assert_allclose(alloc.column_sums(), ref_cfg.p_t, rtol=1e-12)
    for j in range(1, ref_cfg.num_segments + 1):
        covered = mrs_in_cell(ref_cfg, j)
        assert_allclose(alloc.p[:, j - 1][alloc.mask[:, j - 1]],
                        ref_cfg.p_t / covered, rtol=1e-12)


def test_random_alloc_columns_sum_to_budget(ref_cfg, ref_sched):
    alloc = random_alloc(ref_cfg, ref_sched, np.random.default_rng(1))
    assert_allclose(alloc.column_sums(), ref_cfg.p_t, rtol=1e-12)
    assert np.all(alloc.p >= 0.0)
    assert not validate_alloc(alloc, ref_cfg, ref_sched)


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


def test_csi_alloc_equal_gains_split_equally(ref_cfg, ref_sched):
    mask = activity_mask(ref_cfg)
    snap = ChannelSnapshot(h2=np.where(mask, 1e-9, 0.0))
    alloc = csi_alloc(ref_cfg, ref_sched, snap)
    for j in range(ref_cfg.num_segments):
        active = mask[:, j]
        assert_allclose(alloc.p[active, j], ref_cfg.p_t / active.sum(), rtol=1e-12)


def test_csi_alloc_inverse_weighting():
    cfg = reference_config(num_relays=2, num_bins=2)
    sched = segment_boundaries(cfg)
    mask = activity_mask(cfg)
    h2 = np.where(mask, 1.0e-9, 0.0)
    h2[0, 1] = 4.0e-9    # relay 1 four times stronger in column 2
    h2[1, 1] = 1.0e-9
    alloc = csi_alloc(cfg, sched, ChannelSnapshot(h2=h2), alpha=0.5)
    # (h^2)^(-0.5) weights: gains 4:1 give powers 1:2
    assert_allclose(alloc.p[1, 1] / alloc.p[0, 1], 2.0, rtol=1e-12)
    assert_allclose(alloc.column_sums(), cfg.p_t, rtol=1e-12)


def test_csi_alloc_matches_average_for_tiny_alpha(ref_cfg, ref_sched):
    snap = ChannelSnapshot.from_scenario(ref_cfg, ref_sched)
    alloc = csi_alloc(ref_cfg, ref_sched, snap, alpha=1e-6)
    avg = average_alloc(ref_cfg, ref_sched)
    assert np.max(np.abs(alloc.p - avg.p)) <= 1e-4 * ref_cfg.p_t


def test_csi_alloc_gives_weak_channels_more_power(ref_cfg, ref_sched):
    snap = ChannelSnapshot.from_scenario(ref_cfg, ref_sched)
    alloc = csi_alloc(ref_cfg, ref_sched, snap)
    j = ref_cfg.num_relays          # first stage-two column, all relays covered
    gains = snap.h2[:, j - 1]
    powers = alloc.p[:, j - 1]
    order_g = np.argsort(gains)
    assert np.all(np.diff(powers[order_g]) <= 1e-15)   # weakest gain, largest power


def test_csi_alloc_rejects_zero_gain(ref_cfg, ref_sched):
    mask = activity_mask(ref_cfg)
    h2 = np.where(mask, 1e-9, 0.0)
    h2[0, 0] = 0.0
    with pytest.raises(ValueError):
        csi_alloc(ref_cfg, ref_sched, ChannelSnapshot(h2=h2))
    with pytest.raises(ValueError):
        csi_alloc(ref_cfg, ref_sched, ChannelSnapshot.from_scenario(ref_cfg, ref_sched),
                  alpha=0.0)


def test_channel_snapshot(ref_cfg, ref_sched):
    mask = activity_mask(ref_cfg)
    snap = ChannelSnapshot.from_scenario(ref_cfg, ref_sched)
    assert np.all(snap.h2[mask] > 0)
    assert np.all(snap.h2[~mask] == 0.0)
    faded1 = ChannelSnapshot.from_scenario(ref_cfg, ref_sched, np.random.default_rng(5))
    faded2 = ChannelSnapshot.from_scenario(ref_cfg, ref_sched, np.random.default_rng(5))
    assert np.array_equal(faded1.h2, faded2.h2)
    assert not np.array_equal(faded1.h2, snap.h2)


def test_all_allocators_validate(ref_cfg, ref_sched):
    rng = np.random.default_rng(2)
    snap = ChannelSnapshot.from_scenario(ref_cfg, ref_sched)
    for alloc in (constant_alloc(ref_cfg, ref_sched),
                  average_alloc(ref_cfg, ref_sched),
                  random_alloc(ref_cfg, ref_sched, rng),
                  csi_alloc(ref_cfg, ref_sched, snap)):
        assert validate_alloc(alloc, ref_cfg, ref_sched, tol=1e-9 * ref_cfg.p_t) == []


def test_budget_equality_by_construction(ref_cfg, ref_sched):
    # average, random, and CSI hit the budget exactly in every column;
    # constant only in stage-two columns
    rng = np.random.default_rng(3)
    snap = ChannelSnapshot.from_scenario(ref_cfg, ref_sched)
    for alloc in (average_alloc(ref_cfg, ref_sched),
                  random_alloc(ref_cfg, ref_sched, rng),
                  csi_alloc(ref_cfg, ref_sched, snap)):
        assert_allclose(alloc.column_sums(), ref_cfg.p_t, rtol=1e-12)
    const = constant_alloc(ref_cfg, ref_sched)
    sums = const.column_sums()
    stage2 = slice(ref_cfg.num_relays - 1, ref_cfg.num_relays - 1 + ref_cfg.num_bins)
    assert_allclose(sums[stage2], ref_cfg.p_t, rtol=1e-12)
    outside = np.ones(ref_cfg.num_segments, dtype=bool)
    outside[stage2] = False
    assert np.all(sums[outside] < ref_cfg.p_t)


def test_validate_alloc_reports_violations(ref_cfg, ref_sched):
    avg = average_alloc(ref_cfg, ref_sched)
    assert validate_alloc(avg, ref_cfg, ref_sched) == []

    over = avg.p.copy()
    over[:, 5] *= 1.1
    report = validate_alloc(AllocationMatrix(p=over, mask=avg.mask),
                            ref_cfg, ref_sched)
    assert len(report) == 1
    assert report[0].kind == "budget" and report[0].j == 6

    off = avg.p.copy()
    off[3, 0] = 1.0       # relay 4 not yet in the cell during segment 1
    report = validate_alloc(AllocationMatrix(p=off, mask=avg.mask),
                            ref_cfg, ref_sched)
    kinds = {v.kind for v in report}
    assert "mask" in kinds
    assert any(v.i == 4 and v.j == 1 for v in report)


def column_loop_random(cfg, rng):
    """Reference: one exponential draw per covered relay, column by column."""
    mask = activity_mask(cfg)
    p = np.zeros(mask.shape)
    for j in range(cfg.num_segments):
        idx = np.flatnonzero(mask[:, j])
        w = rng.exponential(1.0, size=idx.size)
        p[idx, j] = cfg.p_t * w / w.sum()
    return p


def column_loop_csi(cfg, snap):
    """Reference: inverse-gain weights normalised column by column."""
    mask = activity_mask(cfg)
    p = np.zeros(mask.shape)
    for j in range(cfg.num_segments):
        idx = np.flatnonzero(mask[:, j])
        w = snap.h2[idx, j] ** (-cfg.csi_alpha)
        p[idx, j] = cfg.p_t * w / w.sum()
    return p


@pytest.mark.parametrize("m", [1, 2, 4, 7, 8, 11])
def test_vectorised_allocators_match_column_loops(m):
    # the compact split adds each column's weights in relay order; a
    # column's own sum does the same below eight terms and regroups them
    # from eight on, so the two agree bit for bit up to M = 7 and to
    # rounding above
    cfg = reference_config(num_relays=m, num_bins=3, d_mr=10.0)
    sched = segment_boundaries(cfg)
    for seed in range(5):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        pairs = [(random_alloc(cfg, sched, rng_a).p, column_loop_random(cfg, rng_b))]
        # the draws come in the same order and leave the stream in the same place
        assert rng_a.random() == rng_b.random()
        snap = ChannelSnapshot.from_scenario(cfg, sched, np.random.default_rng(seed))
        pairs.append((csi_alloc(cfg, sched, snap).p, column_loop_csi(cfg, snap)))
        for got, expected in pairs:
            if m <= 7:
                assert np.array_equal(got, expected)
            else:
                assert_allclose(got, expected, rtol=1e-15, atol=0.0)

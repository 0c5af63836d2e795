import numpy as np
import pytest
from numpy.testing import assert_allclose

from railpower import (ScenarioConfig, SegmentSchedule, active_segments, activity_mask,
                       average_alloc, build_gain_table, head_position, mr_position,
                       mr_rrh_distance, mrs_in_cell, reference_config, segment_boundaries)


def kinematic_boundaries(cfg):
    """Oracle: walk the head relay at constant speed and record the track
    positions at which each segment ends, then convert to times."""
    m, n = cfg.num_relays, cfg.num_bins
    positions = [0.0]
    positions += [i * cfg.d_mr for i in range(1, m)]
    start = (m - 1) * cfg.d_mr
    bin_len = (cfg.d_l - start) / n
    positions += [start + k * bin_len for k in range(1, n + 1)]
    positions += [cfg.d_l + i * cfg.d_mr for i in range(1, m)]
    return np.array(positions) / cfg.v


def test_reference_boundaries_match_kinematic_walk(ref_cfg):
    sched = segment_boundaries(ref_cfg)
    assert_allclose(sched.boundaries, kinematic_boundaries(ref_cfg), rtol=1e-12)
    expected = [0, 0.3, 0.6, 0.9, 1.15, 1.4, 1.65, 1.9, 2.15, 2.4, 2.7, 3.0, 3.3]
    assert_allclose(sched.boundaries, expected, atol=1e-9)


def test_boundaries_strictly_increasing_from_zero(ref_sched):
    assert ref_sched.boundaries[0] == 0.0
    assert np.all(np.diff(ref_sched.boundaries) > 0)
    assert_allclose(ref_sched.durations, np.diff(ref_sched.boundaries), rtol=0)


def test_duration_structure(ref_cfg, ref_sched):
    m, n = ref_cfg.num_relays, ref_cfg.num_bins
    d = ref_sched.durations
    assert len(d) == 2 * m + n - 2
    assert_allclose(d[: m - 1], ref_cfg.d_mr / ref_cfg.v, rtol=1e-12)
    assert_allclose(d[-(m - 1):], ref_cfg.d_mr / ref_cfg.v, rtol=1e-12)
    assert_allclose(d[m - 1: m - 1 + n], ref_cfg.bin_length / ref_cfg.v, rtol=1e-12)


def test_total_duration_is_span_over_speed(ref_cfg, ref_sched):
    total = (ref_cfg.d_l + (ref_cfg.num_relays - 1) * ref_cfg.d_mr) / ref_cfg.v
    assert abs(ref_sched.durations.sum() - total) <= 1e-9 * total
    assert_allclose(total, 3.3, rtol=1e-12)


def test_single_relay_collapses_entry_and_exit_stages():
    cfg = reference_config(num_relays=1, num_bins=5)
    sched = segment_boundaries(cfg)
    assert len(sched.boundaries) == cfg.num_bins + 1
    expected = np.arange(6) * cfg.d_l / (cfg.v * cfg.num_bins)
    assert_allclose(sched.boundaries, expected, rtol=1e-12)


def test_head_position(ref_cfg):
    assert head_position(ref_cfg, 0.0) == 0.0
    assert_allclose(head_position(ref_cfg, 1.2), 100.0, rtol=1e-12)
    # the head leaves the cell exactly at boundary M+N-1
    sched = segment_boundaries(ref_cfg)
    t_exit = sched.boundaries[ref_cfg.num_relays + ref_cfg.num_bins - 1]
    assert_allclose(head_position(ref_cfg, t_exit), ref_cfg.d_l, rtol=1e-12)


def test_mr_position(ref_cfg):
    ts = np.linspace(0.0, ref_cfg.total_time, 7)
    assert_allclose(mr_position(ref_cfg, 1, ts), head_position(ref_cfg, ts), rtol=0)
    assert_allclose(mr_position(ref_cfg, 4, 0.9), 0.0, atol=1e-12)
    assert_allclose(mr_position(ref_cfg, 2, 0.0), -25.0, rtol=1e-12)
    with pytest.raises(IndexError):
        mr_position(ref_cfg, 5, 0.0)
    # an index array broadcasts against t, relay by relay
    idx = np.arange(1, ref_cfg.num_relays + 1)[:, None]
    assert np.array_equal(mr_position(ref_cfg, idx, ts),
                          [mr_position(ref_cfg, i, ts) for i in range(1, 5)])
    for bad in ([1, 0, 2], [1, ref_cfg.num_relays + 1]):
        with pytest.raises(IndexError):
            mr_position(ref_cfg, np.array(bad), 0.0)
        with pytest.raises(IndexError):
            mr_rrh_distance(ref_cfg, np.array(bad), 0.0)


def test_mr_rrh_distance(ref_cfg):
    t_abeam = (ref_cfg.d_l / 2) / ref_cfg.v
    assert_allclose(mr_rrh_distance(ref_cfg, 1, t_abeam), ref_cfg.d0, rtol=1e-12)
    assert_allclose(mr_rrh_distance(ref_cfg, 1, 0.0),
                    np.sqrt(400.0 + 10000.0), rtol=1e-12)
    # even function of the offset from the cell midpoint
    for off in (13.0, 47.5, 80.0):
        left = mr_rrh_distance(ref_cfg, 1, (ref_cfg.d_l / 2 - off) / ref_cfg.v)
        right = mr_rrh_distance(ref_cfg, 1, (ref_cfg.d_l / 2 + off) / ref_cfg.v)
        assert_allclose(left, right, rtol=1e-12)


def test_distance_floor_is_d0(ref_cfg):
    ts = np.linspace(0.0, ref_cfg.total_time, 500)
    for i in range(1, ref_cfg.num_relays + 1):
        d = mr_rrh_distance(ref_cfg, i, ts)
        assert np.all(d >= ref_cfg.d0 - 1e-12)


def test_mirror_symmetry_of_distances(ref_cfg):
    total = ref_cfg.total_time
    ts = np.linspace(0.0, total, 301)
    m = ref_cfg.num_relays
    for i in range(1, m + 1):
        assert_allclose(mr_rrh_distance(ref_cfg, i, ts),
                        mr_rrh_distance(ref_cfg, m + 1 - i, total - ts), rtol=1e-9)


def test_mrs_in_cell_pattern(ref_cfg):
    assert mrs_in_cell(ref_cfg, 1) == 1
    assert mrs_in_cell(ref_cfg, 5) == 4
    assert mrs_in_cell(ref_cfg, 12) == 1       # 2*4 + 6 - 12 - 1
    pattern = [mrs_in_cell(ref_cfg, j) for j in range(1, ref_cfg.num_segments + 1)]
    assert pattern == [1, 2, 3, 4, 4, 4, 4, 4, 4, 3, 2, 1]
    with pytest.raises(IndexError):
        mrs_in_cell(ref_cfg, 13)


def test_in_cell_count_matches_positions(ref_cfg):
    # at any instant inside segment j, exactly mrs_in_cell(j) relays sit in [0, d_l]
    sched = segment_boundaries(ref_cfg)
    rng = np.random.default_rng(5)
    for j in range(1, ref_cfg.num_segments + 1):
        lo, hi = sched.boundaries[j - 1], sched.boundaries[j]
        for t in rng.uniform(lo + 1e-9, hi - 1e-9, size=20):
            count = sum(
                0.0 <= mr_position(ref_cfg, i, t) <= ref_cfg.d_l
                for i in range(1, ref_cfg.num_relays + 1)
            )
            assert count == mrs_in_cell(ref_cfg, j)


def test_active_segments(ref_cfg):
    assert active_segments(ref_cfg, 1) == (1, 9)
    assert active_segments(ref_cfg, 4) == (4, 12)
    mask = activity_mask(ref_cfg)
    m, n = ref_cfg.num_relays, ref_cfg.num_bins
    assert mask.sum() == m * (m + n - 1) == 36
    # every relay is active in exactly M+N-1 segments
    assert np.all(mask.sum(axis=1) == m + n - 1)


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(d_l=70.0, num_relays=4, d_mr=25.0)   # 75 >= 70
    with pytest.raises(ValueError):
        ScenarioConfig(v=-1.0)
    with pytest.raises(ValueError):
        ScenarioConfig(num_bins=0)
    with pytest.raises(ValueError):
        ScenarioConfig(rho=1.5)
    with pytest.raises(ValueError):
        ScenarioConfig(quad_n=7)
    # an explicit floor must be positive, as rho is: a floor <= 0 asks for nothing
    for bad in (-5.0, 0.0):
        with pytest.raises(ValueError, match="d_min_bits must be positive"):
            ScenarioConfig(d_min_bits=bad)
    assert ScenarioConfig(d_min_bits=1.0).d_min_bits == 1.0
    # the CSI exponent is checked once, here, not per allocator call
    for bad in (-0.2, 0.0):
        with pytest.raises(ValueError, match="csi_alpha must be strictly positive"):
            ScenarioConfig(csi_alpha=bad)
    # the antenna gain formula needs a beamwidth in (0, 180) degrees, and
    # numpy's generators take no negative seed
    for bad in (-30.0, 0.0, 180.0, 200.0):
        with pytest.raises(ValueError, match=r"theta_3db must lie in \(0, 180\)"):
            ScenarioConfig(theta_3db=bad)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        ScenarioConfig(seed=-3)
    assert ScenarioConfig(theta_3db=179.0, seed=0).theta_3db == 179.0


def test_segment_schedule_leaves_caller_arrays_writable(ref_sched):
    arrays = {"boundaries": ref_sched.boundaries.copy(),
              "durations": ref_sched.durations.copy()}
    sched = SegmentSchedule(**arrays)
    for name, arr in arrays.items():
        assert arr.flags.writeable, name
        held = getattr(sched, name)
        assert not held.flags.writeable and held is not arr, name
    arrays["boundaries"][:] = 0.0
    assert sched.total_time == ref_sched.total_time
    # arrays that are already read-only are held as they are
    again = SegmentSchedule(boundaries=sched.boundaries, durations=sched.durations)
    assert again.boundaries is sched.boundaries and again.durations is sched.durations


@pytest.mark.parametrize("field", ["d0", "d_l", "d_mr", "v", "p_t", "bandwidth",
                                   "noise_figure", "pathloss_exp", "wavelength",
                                   "shadowing", "theta_3db", "rician_k", "rho",
                                   "d_min_bits", "csi_alpha"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_floats(field, value):
    # a NaN slips past every ordering check, and an infinite cell or budget
    # would only surface as all-NaN rows after a full solve
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ScenarioConfig(**{field: value})


def test_activity_mask_is_one_read_only_array_per_layout(ref_cfg):
    mask = activity_mask(ref_cfg)
    assert not mask.flags.writeable
    # geometry and speed do not change the layout, only M and N do
    assert activity_mask(ref_cfg.with_(d_l=240.0, v=80.0)) is mask
    assert activity_mask(ref_cfg.with_(num_bins=5)) is not mask
    # allocations and tables keep the shared mask instead of copying it
    sched = segment_boundaries(ref_cfg)
    assert average_alloc(ref_cfg, sched).mask is mask
    assert build_gain_table(ref_cfg, sched).mask is mask

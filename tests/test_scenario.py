import dataclasses
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

from railpower import (ScenarioConfig, SegmentSchedule, average_alloc, build_gain_table,
                       build_table, constant_alloc, csi_alloc, entry_layout, mr_position,
                       mr_rrh_distance, mrs_in_cell, random_alloc, reference_config,
                       sample_fading_trace, segment_boundaries)
from railpower.optimizer import Problem, data_floor, scaled_point


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
    bin_length = (ref_cfg.d_l - (m - 1) * ref_cfg.d_mr) / n
    assert_allclose(d[m - 1: m - 1 + n], bin_length / ref_cfg.v, rtol=1e-12)


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


def test_head_position(ref_cfg, ref_sched):
    # relay 1 is the head relay, at x = v*t
    assert mr_position(ref_cfg, 1, 0.0) == 0.0
    assert_allclose(mr_position(ref_cfg, 1, 1.2), 100.0, rtol=1e-12)
    ts = np.linspace(0.0, ref_sched.total_time, 7)
    assert np.array_equal(mr_position(ref_cfg, 1, ts), ref_cfg.v * ts)
    # the head leaves the cell exactly at boundary M+N-1
    sched = segment_boundaries(ref_cfg)
    t_exit = sched.boundaries[ref_cfg.num_relays + ref_cfg.num_bins - 1]
    assert_allclose(mr_position(ref_cfg, 1, t_exit), ref_cfg.d_l, rtol=1e-12)


def test_mr_position(ref_cfg, ref_sched):
    ts = np.linspace(0.0, ref_sched.total_time, 7)
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


def test_distance_floor_is_d0(ref_cfg, ref_sched):
    ts = np.linspace(0.0, ref_sched.total_time, 500)
    for i in range(1, ref_cfg.num_relays + 1):
        d = mr_rrh_distance(ref_cfg, i, ts)
        assert np.all(d >= ref_cfg.d0 - 1e-12)


def test_mirror_symmetry_of_distances(ref_cfg, ref_sched):
    total = ref_sched.total_time
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
    mask = entry_layout(ref_cfg).mask
    m, n = ref_cfg.num_relays, ref_cfg.num_bins
    assert mask.shape == (m, ref_cfg.num_segments)
    # relay i (1-based) is active in segments i..i+M+N-2 and in no other
    for i in range(1, m + 1):
        assert np.array_equal(np.flatnonzero(mask[i - 1]) + 1, np.arange(i, i + m + n - 1))
    assert mask.sum() == m * (m + n - 1) == 36


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
    # the counts are array shapes and a generator seed: a float or a bool
    # fails here, naming the field, not later inside numpy
    for name, bad in (("num_relays", 2.5), ("num_relays", True), ("num_bins", 3.0),
                      ("quad_n", 32.0), ("seed", 1.5), ("seed", False)):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad!r}"):
            ScenarioConfig(**{name: bad})
    assert ScenarioConfig(num_relays=np.int64(3)).num_segments == 10
    # a K-factor whose linear value overflows would fail only in a fading draw
    for bad in (3083.0, 4000.0):
        with pytest.raises(ValueError, match="rician_k must be a K-factor"):
            ScenarioConfig(rician_k=bad)
    assert ScenarioConfig(rician_k=3082.5).rician_k == 3082.5
    # an integer beyond float range fails naming its field, not with an
    # OverflowError from the finiteness check or from (M-1)*d_mr
    for name in ("num_relays", "num_bins", "quad_n", "seed"):
        with pytest.raises(ValueError, match=f"{name} must lie within float range"):
            ScenarioConfig(**{name: 10 ** 400})
    assert ScenarioConfig(seed=2 ** 1000).seed == 2 ** 1000
    # a count within float range whose mask or gain table has more entries
    # than an array can index fails naming the count, before any array is built
    for fields, name in (({"num_bins": 10 ** 20}, "num_bins"),
                         ({"num_relays": 10 ** 10, "d_mr": 1e-30}, "num_relays"),
                         ({"quad_n": 10 ** 18}, "quad_n")):
        with pytest.raises(ValueError, match=f"{name} = {fields[name]} .*more than an array"):
            ScenarioConfig(**fields)


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


@pytest.fixture(scope="module")
def frozen_records(ref_cfg, ref_sched, ref_table):
    """One built instance of every record that holds arrays, by class name."""
    doppler = build_table(ref_cfg, x_s=1.0, L=5)
    records = (ref_sched, average_alloc(ref_cfg, ref_sched), ref_table,
               doppler.window_at(3), doppler,
               scaled_point(ref_cfg, ref_sched, ref_table))
    return {type(record).__name__: record for record in records}


@pytest.mark.parametrize("record, name", [
    ("SegmentSchedule", "boundaries"), ("SegmentSchedule", "durations"),
    ("AllocationMatrix", "values"), ("GainTable", "gains"), ("GainTable", "weights"),
    ("RsrpWindow", "values"), ("DopplerTable", "positions"),
    ("DopplerTable", "windows"), ("DopplerTable", "f_rel"),
    *(("ScaledPoint", name) for name in ("gains", "t_norm", "t_entry", "x", "snr",
                                         "log_rate", "cols"))])
def test_records_hold_arrays_read_only_and_c_ordered(frozen_records, record, name):
    # every frozen record holds its arrays by one rule: a read-only
    # C-ordered ndarray as given, anything else as a read-only C-ordered
    # copy, so a record's reductions do not depend on the caller's layout
    base = frozen_records[record]
    parts = {f.name: getattr(base, f.name) for f in dataclasses.fields(base) if f.init}
    arr = parts[name]
    assert not arr.flags.writeable and arr.flags.c_contiguous

    def held(given):
        return getattr(type(base)(**{**parts, name: given}), name)

    # a read-only Fortran-ordered (2-D) or strided (1-D) input is copied into C order
    given = np.asfortranarray(arr) if arr.ndim == 2 else np.repeat(arr, 2)[::2]
    given.setflags(write=False)
    assert not given.flags.c_contiguous
    kept = held(given)
    assert not kept.flags.writeable and kept.flags.c_contiguous
    assert kept.tobytes() == arr.tobytes()
    # a writable input is copied, and the caller's array stays writable
    given = arr.copy()
    kept = held(given)
    assert kept is not given and given.flags.writeable and not kept.flags.writeable
    # a read-only C-ordered input is held as it is
    assert held(arr) is arr
    # a list is held as a read-only ndarray
    kept = held(arr.tolist())
    assert isinstance(kept, np.ndarray) and not kept.flags.writeable
    assert kept.flags.c_contiguous and kept.tobytes() == arr.tobytes()


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


def test_entry_layout_is_one_read_only_object_per_layout(ref_cfg):
    layout = entry_layout(ref_cfg)
    # geometry and speed do not change the layout, only M and N do
    assert entry_layout(ref_cfg.with_(d_l=240.0, v=80.0)) is layout
    assert entry_layout(ref_cfg.with_(num_bins=5)) is not layout
    for arr in (layout.mask, layout.relay, layout.segment, layout.dense(layout.segment)):
        assert not arr.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        layout.mask = layout.mask.copy()
    # every allocation, table and solver problem of the config reads it
    sched = segment_boundaries(ref_cfg)
    table = build_gain_table(ref_cfg, sched)
    rng = np.random.default_rng(0)
    allocs = (constant_alloc(ref_cfg, sched), average_alloc(ref_cfg, sched),
              random_alloc(ref_cfg, sched, rng), csi_alloc(ref_cfg, sched, table, rng))
    faded = table.faded(sample_fading_trace(ref_cfg, rng))
    problem = Problem(ref_cfg, sched, data_floor(ref_cfg, sched, table), table)
    holders = allocs + (table, faded, problem.table, problem.to_physical(np.zeros(36)))
    assert all(obj.layout is layout for obj in holders)
    # and an unpickled layout is the process's shared one
    assert pickle.loads(pickle.dumps(layout)) is layout
    assert pickle.loads(pickle.dumps(table)).layout is layout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from railpower import (RsrpWindow, build_table, dbm_to_watts, estimate_doppler,
                       max_doppler, reference_config, rsrp_at, true_doppler)
from railpower.doppler import DopplerTable


@pytest.fixture(scope="module")
def table(ref_cfg):
    return build_table(ref_cfg, x_s=1.0, L=5)


def test_rsrp_reference_value(ref_cfg):
    cfg30 = ref_cfg.with_(p_t=dbm_to_watts(30.0))
    # chained evaluation: 30 + 15.91 + 15.91 - 10 - 94.03
    assert_allclose(rsrp_at(cfg30, cfg30.d_l / 2), -42.21, atol=0.02)


def test_rsrp_symmetry_and_monotonicity(ref_cfg):
    mid = ref_cfg.d_l / 2
    for off in (10.0, 35.0, 90.0):
        assert_allclose(rsrp_at(ref_cfg, mid - off), rsrp_at(ref_cfg, mid + off),
                        rtol=1e-12)
    xs = np.linspace(mid, ref_cfg.d_l, 100)      # receding: distance grows
    vals = rsrp_at(ref_cfg, xs)
    assert np.all(np.diff(vals) < 0)


def test_max_doppler_value(ref_cfg):
    # v / wavelength at 300 km/h and 5 mm
    assert_allclose(max_doppler(ref_cfg), (300.0 / 3.6) / 0.005, rtol=1e-12)
    assert abs(max_doppler(ref_cfg) - 16667.0) <= 1.0


def test_true_doppler_geometry(ref_cfg):
    mid = ref_cfg.d_l / 2
    assert true_doppler(ref_cfg, mid) == 0.0
    assert true_doppler(ref_cfg, mid - 5.0) > 0      # approaching
    assert true_doppler(ref_cfg, mid + 5.0) < 0      # receding
    assert_allclose(true_doppler(ref_cfg, mid - 5.0),
                    -true_doppler(ref_cfg, mid + 5.0), rtol=1e-12)
    xs = np.linspace(0.0, ref_cfg.d_l, 400)
    assert np.all(np.abs(true_doppler(ref_cfg, xs)) <= max_doppler(ref_cfg))


def test_table_construction(ref_cfg, table):
    # counting oracle: centres on the integer grid 0..200 whose 11-sample
    # window stays inside [0, d_l] run from 5 to 195
    assert len(table) == 201 - 2 * 5
    assert table.positions[0] == 5.0 and table.positions[-1] == 195.0
    assert np.all(np.abs(table.f_rel) <= 1.0)
    assert table.windows.shape == (191, 11)


def test_table_rejects_oversized_window():
    cfg = reference_config()
    with pytest.raises(ValueError):
        build_table(cfg, x_s=60.0, L=2)     # 2L*x_s = 240 m > d_l
    with pytest.raises(ValueError):
        build_table(cfg, x_s=0.0)


def test_build_table_validates_its_arguments(ref_cfg):
    # L is a count of samples: a float would widen the window by a
    # fraction, a bool would pass for 1
    for L in (2.5, True, 5.0):
        with pytest.raises(ValueError, match="L must be an integer"):
            build_table(ref_cfg, x_s=1.0, L=L)
    for L in (0, -3):
        with pytest.raises(ValueError, match="L must be at least 1"):
            build_table(ref_cfg, x_s=1.0, L=L)
    # a bool x_s would pass for 1 m and build integer positions
    for x_s in (np.nan, np.inf, -np.inf, 0.0, -1.0, True, np.True_):
        with pytest.raises(ValueError, match="x_s must be finite and positive"):
            build_table(ref_cfg, x_s=x_s, L=5)
    assert len(build_table(ref_cfg, x_s=1.0, L=np.int64(5))) == 191


def test_noiseless_lookup_is_exact(ref_cfg, table):
    f_max = max_doppler(ref_cfg)
    for k in range(0, len(table), 7):
        est = estimate_doppler(table, table.window_at(k), ref_cfg)
        true = table.f_rel[k] * f_max
        assert est == pytest.approx(true, abs=1e-9)
        assert abs(est) <= f_max


def test_windows_are_pairwise_distinct(table):
    # the multi-sample window disambiguates positions, including mirror
    # pairs (their windows are reversed, not equal)
    w = table.windows
    sq = np.sum(w ** 2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2 * (w @ w.T)
    off_diag = d2[~np.eye(len(w), dtype=bool)]
    assert off_diag.min() > 1e-12


def test_estimated_f_rel_antisymmetric(ref_cfg, table):
    f_max = max_doppler(ref_cfg)
    for x in (60.0, 85.0, 95.0):
        left = estimate_doppler(table, _noiseless_window(ref_cfg, x), ref_cfg)
        right = estimate_doppler(table, _noiseless_window(ref_cfg, ref_cfg.d_l - x),
                                 ref_cfg)
        assert_allclose(left, -right, atol=1e-9 * f_max)


def _noiseless_window(cfg, center, x_s=1.0, L=5):
    offsets = np.arange(-L, L + 1) * x_s
    return RsrpWindow(center=center, values=rsrp_at(cfg, center + offsets))


def test_noisy_estimation_error_bound(ref_cfg, table):
    # one-sample position ambiguity bound: f_max * x_s * max |d f_rel / dx|,
    # with the slope maximal abeam where it equals 1/d0
    rng = np.random.default_rng(99)
    f_max = max_doppler(ref_cfg)
    x_s = table.positions[1] - table.positions[0]
    bound = f_max * x_s * (1.0 / ref_cfg.d0)
    errors = []
    for _ in range(1000):
        k = int(rng.integers(0, len(table)))
        noisy = RsrpWindow(center=float(table.positions[k]),
                           values=table.windows[k] + rng.normal(0.0, 1.0, 11))
        est = estimate_doppler(table, noisy, ref_cfg)
        errors.append(abs(est - true_doppler(ref_cfg, float(table.positions[k]))))
    assert np.median(errors) <= bound


def test_estimate_with_external_speed(ref_cfg, table):
    # the relative-shift table serves any speed: the estimate scales with cfg.v
    w = table.window_at(40)
    base = estimate_doppler(table, w, ref_cfg)
    scaled = estimate_doppler(table, w, ref_cfg.with_(v=2.0 * ref_cfg.v))
    assert_allclose(scaled, 2.0 * base, rtol=1e-12)


def test_estimate_rejects_bad_input(ref_cfg, table):
    with pytest.raises(ValueError):
        estimate_doppler(table, RsrpWindow(center=0.0, values=np.zeros(5)), ref_cfg)


def test_doppler_records_reject_malformed_input(table, tmp_path):
    row = table.windows[1].copy()
    for values in (np.where(np.arange(11) == 3, np.nan, row),
                   np.where(np.arange(11) == 3, np.inf, row),
                   row[None, :], np.float64(row[0])):
        with pytest.raises(ValueError, match="window"):
            RsrpWindow(center=1.0, values=np.asarray(values))
    parts = {name: getattr(table, name).copy() for name in ("positions", "windows", "f_rel")}
    nan_windows = parts["windows"].copy()
    nan_windows[4, 2] = np.nan
    for change in ({"windows": nan_windows},
                   {"windows": parts["windows"][0]},
                   {"windows": parts["windows"][:, :10]},
                   {"windows": parts["windows"][:, :1]},
                   {"positions": parts["positions"][:-1]},
                   {"f_rel": parts["f_rel"][:, None]},
                   {name: arr[:0] for name, arr in parts.items()}):
        with pytest.raises(ValueError):
            DopplerTable(**{**parts, **change})
    # a hand-edited table file fails when it is loaded, not when it is used
    path = tmp_path / "edited.txt"
    table.save(path)
    lines = path.read_text().splitlines()
    fields = lines[5].split()
    fields[4] = "nan"
    lines[5] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="finite"):
        DopplerTable.load(path)
    # an empty file, the comment line without rows, rows a value short (an
    # even count) and rows of three values (L = 0) fail naming the file, the
    # 2L+3 values a row holds and what they found
    table.save(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# position_m f_rel rsrp_dbm[2L+1]"
    short = [" ".join(line.split()[:-1]) for line in lines[1:]]
    narrow = [" ".join(line.split()[:3]) for line in lines[1:]]
    for kept, found in (([], "no rows"), (lines[:1], "no rows"),
                        (lines[:1] + short, "12 values"), (lines[:1] + narrow, "3 values")):
        path.write_text("".join(line + "\n" for line in kept))
        with pytest.raises(ValueError, match="2L\\+3 values with L >= 1") as info:
            DopplerTable.load(path)
        assert str(path) in str(info.value) and found in str(info.value)


def _nearest_index(table, values):
    """Brute-force oracle: the first index of least distance over every row."""
    return int(np.argmin(np.linalg.norm(table.windows - values, axis=1)))


def _lookup_matches_oracle(table, values, cfg):
    # the tables built here hold distinct f_rel, so equal estimates mean
    # equal indices
    est = estimate_doppler(table, RsrpWindow(center=0.0, values=values), cfg)
    return est == float(table.f_rel[_nearest_index(table, values)]) * cfg.v / cfg.wavelength


@st.composite
def lookup_cases(draw):
    """A random table (rows sharing a common offset, some duplicated) and
    queries: exact rows, rows plus tiny noise, midpoints of two rows."""
    k = draw(st.integers(1, 500))
    n = 2 * draw(st.integers(1, 8)) + 1
    offset = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.0, 1e6))
    spread = 10.0 ** draw(st.floats(-9.0, 0.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    windows = offset + spread * rng.standard_normal((k, n))
    dup = rng.integers(0, k, size=(draw(st.integers(0, min(k, 20))), 2))
    windows[dup[:, 1]] = windows[dup[:, 0]]
    i, j = rng.integers(0, k, size=(2, 8))
    noise = spread * 10.0 ** rng.uniform(-12.0, -1.0, size=(8, 1)) * rng.standard_normal((8, n))
    queries = np.concatenate([windows[i], windows[i] + noise, 0.5 * (windows[i] + windows[j])])
    table = DopplerTable(positions=np.arange(k, dtype=float), windows=windows,
                         f_rel=np.linspace(-1.0, 1.0, k))
    return table, queries


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=lookup_cases())
def test_lookup_matches_brute_force_index(case):
    table, queries = case
    cfg = reference_config()
    for values in queries:
        assert _lookup_matches_oracle(table, values, cfg)


@pytest.mark.parametrize("offset, spread", [(1e160, 1e150), (-1e155, 1e140),
                                            (1e-160, 1e-163), (1e-162, 1e-163)])
def test_lookup_exact_at_overflow_and_underflow(offset, spread):
    # squares beyond the float range make the screen keep every row; below
    # the normal range the bound's tiny term covers gradual underflow
    rng = np.random.default_rng(17)
    cfg = reference_config()
    windows = offset + spread * rng.standard_normal((40, 11))
    table = DopplerTable(positions=np.arange(40.0), windows=windows,
                         f_rel=np.linspace(-1.0, 1.0, 40))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for k in range(0, 40, 3):
            values = windows[k] + 0.1 * spread * rng.standard_normal(11)
            assert _lookup_matches_oracle(table, values, cfg)


def test_noisy_lookups_match_brute_force_bit_for_bit(ref_cfg):
    # the benchmark's shape: x_s = 0.1 m, 2 dB noise, 2,000 windows
    fine = build_table(ref_cfg, x_s=0.1, L=5)
    rng = np.random.default_rng(1)
    ks = rng.integers(0, len(fine), size=2000)
    noisy = fine.windows[ks] + rng.normal(0.0, 2.0, size=(2000, 11))
    est = np.array([estimate_doppler(fine, RsrpWindow(center=0.0, values=w), ref_cfg)
                    for w in noisy])
    brute = np.array([fine.f_rel[_nearest_index(fine, w)] * ref_cfg.v / ref_cfg.wavelength
                      for w in noisy])
    assert est.tobytes() == brute.tobytes()


def test_doppler_records_leave_caller_arrays_writable(ref_cfg, table):
    values = table.windows[3].copy()
    window = RsrpWindow(center=0.0, values=values)
    assert values.flags.writeable
    assert not window.values.flags.writeable and window.values is not values
    arrays = {name: getattr(table, name).copy() for name in ("positions", "windows", "f_rel")}
    held = DopplerTable(**arrays)
    for name, arr in arrays.items():
        assert arr.flags.writeable, name
        kept = getattr(held, name)
        assert not kept.flags.writeable and kept is not arr, name
    arrays["f_rel"][:] = 0.0
    probe = table.window_at(3)
    assert estimate_doppler(held, probe, ref_cfg) == estimate_doppler(table, probe, ref_cfg) != 0
    # a stored window is a read-only row of the table, held without a copy
    assert np.shares_memory(probe.values, table.windows)


def test_table_save_load_round_trip(ref_cfg, table, tmp_path):
    # the saved file, its rows without the comment line, and the rows under
    # the older two-line header that also gave the spacing and L all load
    # as the table that wrote them
    path = tmp_path / "doppler_table.txt"
    table.save(path)
    saved = path.read_text()
    rows = saved.split("\n", 1)[1]
    rng = np.random.default_rng(8)
    queries = np.concatenate([table.windows, table.windows + rng.normal(0.0, 2.0, table.windows.shape)])
    for text in (saved, rows, "# x_s=1.0 L=5\n# position_m f_rel rsrp_dbm[2L+1]\n" + rows):
        path.write_text(text)
        loaded = DopplerTable.load(path)
        assert_allclose(loaded.positions, table.positions, rtol=0)
        assert_allclose(loaded.f_rel, table.f_rel, rtol=0)
        assert_allclose(loaded.windows, table.windows, rtol=0)
        assert loaded.sq_norms.tobytes() == table.sq_norms.tobytes()
        assert loaded.max_norm == table.max_norm
        for values in queries:
            window = RsrpWindow(center=0.0, values=values)
            assert (estimate_doppler(loaded, window, ref_cfg)
                    == estimate_doppler(table, window, ref_cfg))

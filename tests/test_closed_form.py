"""The gain table's data and derivative passes against the closed form."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import closed_form_data

from railpower import average_alloc, build_gain_table, reference_config, segment_boundaries
from railpower.optimizer import Problem, data_floor

SCENARIOS = {
    "reference": {},
    "M=1, N=1": dict(num_relays=1, num_bins=1),
    "M=2, N=3, d_l=140": dict(num_relays=2, num_bins=3, d_l=140.0),
    "M=6, N=4, d_l=240, 350 km/h": dict(num_relays=6, num_bins=4, d_l=240.0, v=350 / 3.6),
}

# Simpson's error against the exact integrals, for (D, D', D''): the worst
# entry measured over these scenarios and powers is (2.8e-7, 3.3e-5, 3.2e-4)
# at quad_n 32 and (8.7e-12, 1.0e-10, 4.5e-10) at quad_n 256.  The
# derivatives' worst entries are at zero power, where the integrand's peak
# A / (u^2 + d0^2) is sharpest against the node spacing (at quad_n 32 on the
# one 200 m segment of M=1, N=1); at the average power they agree to 1e-13
RTOL = {32: (1e-6, 1e-4, 1e-3), 256: (3e-11, 3e-10, 1.5e-9)}


def powers(cfg, sched, k):
    rng = np.random.default_rng(7)
    return {"average": average_alloc(cfg, sched).values,
            "random": rng.uniform(0.0, cfg.p_t, k),
            "zero": np.zeros(k)}


@pytest.mark.parametrize("quad_n", sorted(RTOL))
@pytest.mark.parametrize("name", SCENARIOS)
def test_table_passes_match_the_closed_form(name, quad_n):
    cfg = reference_config(quad_n=quad_n, **SCENARIOS[name])
    sched = segment_boundaries(cfg)
    table = build_gain_table(cfg, sched)
    rtol_data, rtol_first, rtol_second = RTOL[quad_n]
    for label, p in powers(cfg, sched, table.segment.size).items():
        data, first, second = closed_form_data(cfg, sched, table.mask, p)
        assert_allclose(table.segment_data_matrix(p), data, rtol=rtol_data, err_msg=label)
        assert_allclose(table.total_data(p), data.sum(), rtol=rtol_data, err_msg=label)
        d1, d2 = table.data_derivatives(p)
        assert_allclose(d1, first, rtol=rtol_first, err_msg=label)
        assert_allclose(d2, second, rtol=rtol_second, err_msg=label)


@pytest.mark.parametrize("name", SCENARIOS)
def test_passes_fed_a_line_search_product_match_the_closed_form(name):
    # the solver hands the SNR product of an accepted line-search candidate
    # to the next derivative pass, on its table scaled by P_T and 1/D_min
    cfg = reference_config(**SCENARIOS[name])
    sched = segment_boundaries(cfg)
    table = build_gain_table(cfg, sched)
    d_min = data_floor(cfg, sched, table)
    scaled = Problem(cfg, sched, d_min, table).table
    rtol_data, rtol_first, rtol_second = RTOL[cfg.quad_n]
    for label, p in powers(cfg, sched, table.segment.size).items():
        x = np.maximum(p / cfg.p_t - 0.01, 0.0)      # a clipped candidate
        snr = scaled.snr(x)
        fed = scaled.data_derivatives(x, snr)
        for a, b in zip(fed, scaled.data_derivatives(x)):
            assert np.array_equal(a, b), label
        assert scaled.total_data(x, snr) == scaled.total_data(x), label
        data, first, second = closed_form_data(cfg, sched, table.mask, x * cfg.p_t)
        assert_allclose(scaled.total_data(x, snr), data.sum() / d_min, rtol=rtol_data,
                        err_msg=label)
        assert_allclose(fed[0], first * cfg.p_t / d_min, rtol=rtol_first, err_msg=label)
        assert_allclose(fed[1], second * cfg.p_t ** 2 / d_min, rtol=rtol_second,
                        err_msg=label)


def test_closed_form_needs_free_space_path_loss():
    cfg = reference_config(pathloss_exp=2.5)
    sched = segment_boundaries(cfg)
    table = build_gain_table(cfg, sched)
    with pytest.raises(ValueError, match="pathloss_exp == 2"):
        closed_form_data(cfg, sched, table.mask, np.zeros(table.segment.size))

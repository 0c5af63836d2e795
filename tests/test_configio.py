import re
from pathlib import Path

import pytest
from numpy.testing import assert_allclose

from railpower import ScenarioConfig, SolverOptions
from railpower.configio import (KEYS, SCHEMES, ConfigError, HarnessOptions, load_config,
                                parse_config_text, scenario_hash)

MINIMAL = """
# reference scenario
m = 4
d_l = 200
v_kmh = 300
pt_dbm = 40
"""


def test_parse_minimal_with_defaults():
    cfg, options = parse_config_text(MINIMAL)
    assert cfg.num_relays == 4
    assert cfg.d_l == 200.0
    assert_allclose(cfg.v, 300.0 / 3.6, rtol=1e-12)
    assert_allclose(cfg.p_t, 10.0, rtol=1e-12)
    # defaults: d0 20 m, d_mr 25 m, N 6, B 2.16 GHz, NF 6 dB, n 2,
    # lambda 5 mm, xi 10 dB, theta 30 deg
    assert cfg.d0 == 20.0 and cfg.d_mr == 25.0 and cfg.num_bins == 6
    assert cfg.bandwidth == 2.16e9 and cfg.noise_figure == 6.0
    assert cfg.pathloss_exp == 2.0 and cfg.wavelength == 0.005
    assert cfg.shadowing == 10.0 and cfg.theta_3db == 30.0
    assert options.schemes == ("constant", "random", "average", "csi", "optimized")


def test_speed_given_twice_or_not_at_all():
    # speed and budget have one key each, and both are required
    with pytest.raises(ConfigError, match=r":4: duplicate key 'v_kmh'"):
        parse_config_text("m=4\nd_l=200\nv_kmh=300\nv_kmh=83\npt_dbm=40\n", path="x.cfg")
    with pytest.raises(ConfigError, match="missing required key 'v_kmh'"):
        parse_config_text("m=4\nd_l=200\npt_dbm=40\n")
    with pytest.raises(ConfigError, match="missing required key 'pt_dbm'"):
        parse_config_text("m=4\nd_l=200\nv_kmh=300\n")


def test_missing_required_key_is_named():
    with pytest.raises(ConfigError, match="'m'"):
        parse_config_text("d_l=200\nv_kmh=300\npt_dbm=40\n")
    # an error without a line number separates the path from the message
    with pytest.raises(ConfigError) as err:
        parse_config_text("d_l=200\nv_kmh=300\npt_dbm=40\n", path="nom.cfg")
    assert str(err.value) == "nom.cfg: missing required key 'm'"


def test_unknown_key_reports_line_number():
    # solver_alpha included: the inner loop always backtracks, so a fixed
    # stepsize is not a setting; trials and sigma_v are study settings given
    # on the command line, not scenario keys; the rate integrand always
    # carries the bandwidth, so bandwidth_factor is not a setting either;
    # speed and budget take only km/h and dBm, and the initial penalty, its
    # growth factor and the inner step cap are the method's constants
    for key in ("bogus_key", "solver_alpha", "trials", "sigma_v", "bandwidth_factor",
                "v_mps", "pt_w", "solver_sigma0", "solver_growth", "solver_inner_cap"):
        text = f"m=4\nd_l=200\nv_kmh=300\npt_dbm=40\n{key}=0.05\n"
        with pytest.raises(ConfigError, match=rf":5: unknown key '{key}'"):
            parse_config_text(text, path="scenario.cfg")


def test_bad_value_reports_line_number():
    with pytest.raises(ConfigError, match=r":1: cannot parse"):
        parse_config_text("m = four\nd_l=200\nv_kmh=300\npt_dbm=40\n", path="x.cfg")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("m=4\nm=5\nd_l=200\nv_kmh=300\npt_dbm=40\n")


def test_floor_policy_keys_are_exclusive():
    with pytest.raises(ConfigError, match="mutually exclusive"):
        parse_config_text(MINIMAL + "rho = 0.9\nd_min_bits = 1e9\n")
    cfg, _ = parse_config_text(MINIMAL + "d_min_bits = 2.5e10\n")
    assert cfg.d_min_bits == 2.5e10


def test_scheme_list_validation():
    cfg, options = parse_config_text(MINIMAL + "schemes = constant, optimized\n")
    assert options.schemes == ("constant", "optimized")
    # HarnessOptions rejects the name; the error still points at the line
    with pytest.raises(ConfigError, match=r"x.cfg:7: unknown scheme 'waterfill'"):
        parse_config_text(MINIMAL + "schemes = constant, waterfill\n", path="x.cfg")
    # a repeated scheme would write two identical rows per point
    with pytest.raises(ConfigError, match=r"x.cfg:7: scheme 'constant' is listed twice"):
        parse_config_text(MINIMAL + "schemes = constant, csi, constant\n", path="x.cfg")


def test_invalid_geometry_surfaces_as_config_error():
    with pytest.raises(ConfigError, match="d_l"):
        parse_config_text("m=6\nd_l=100\nv_kmh=300\npt_dbm=40\n")   # 125 > 100


def test_solver_keys():
    _, options = parse_config_text(MINIMAL + "solver_eps = 1e-5\nsolver_n_max = 50\n")
    # every solver_* key lands on its SolverOptions field
    assert options.solver == SolverOptions(eps=1e-5, n_max=50)
    _, options = parse_config_text(MINIMAL + "solver_n_max = 7\n")
    assert options.solver == SolverOptions(n_max=7)   # the other keeps its default
    assert parse_config_text(MINIMAL)[1].solver == SolverOptions()
    # SolverOptions validates, and a bad setting is a config error
    for bad in ("solver_n_max = -1", "solver_eps = 0", "solver_eps = -1e-4", "solver_eps = inf",
                "solver_eps = nan", "solver_eps = 1"):
        with pytest.raises(ConfigError, match="eps > 0, n_max >= 0"):
            parse_config_text(MINIMAL + bad + "\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "ref.cfg"
    path.write_text(MINIMAL)
    cfg, _ = load_config(path)
    assert cfg.d_l == 200.0


def test_scenario_hash_stability():
    cfg1, _ = parse_config_text(MINIMAL)
    cfg2, _ = parse_config_text(MINIMAL)
    assert scenario_hash(cfg1) == scenario_hash(cfg2)
    cfg3, _ = parse_config_text(MINIMAL.replace("200", "220"))
    assert scenario_hash(cfg3) != scenario_hash(cfg1)


def test_benchmark_scenarios_load():
    # the benchmark's scenario files are inputs too: each must load, with the
    # scheme list its workload expects
    scenarios = Path(__file__).resolve().parents[1] / "bench" / "scenarios"
    expected = {
        "reference.cfg": SCHEMES,
        "fading.cfg": ("constant", "random", "average", "csi"),
        "doppler.cfg": SCHEMES,
    }
    assert sorted(p.name for p in scenarios.glob("*.cfg")) == sorted(expected)
    for name, schemes in expected.items():
        assert load_config(scenarios / name)[1].schemes == schemes, name


def test_readme_scenario_block_shows_every_key_at_its_default():
    # the README's scenario block says "defaults shown": parsed, it is the
    # default scenario and harness, and it names every key
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Scenario files", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    cfg, options = parse_config_text(block, path="README.md")
    assert cfg == ScenarioConfig()
    assert options == HarnessOptions()
    missing = [key for key in KEYS if not re.search(rf"\b{key}\b", block)]
    assert missing == []

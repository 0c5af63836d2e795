import hashlib
from pathlib import Path

import numpy as np
import pytest

from railpower import optimizer
from railpower.cli import EXIT_CONFIG, main
from railpower.harness import read_csv_rows

REF_CONFIG = """
m = 4
d_l = 200
v_kmh = 300
pt_dbm = 40
seed = 3
"""


def write_cfg(tmp_path, text=REF_CONFIG, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["--outdir", str(tmp_path), "run", cfg])
    assert code == 0
    out = capsys.readouterr().out.strip()
    rows = read_csv_rows(out)
    assert len(rows) == 5
    const = next(r for r in rows if r["scheme"] == "constant")
    assert abs(float(const["energy_j"]) - 24.0) <= 1e-9


def test_config_error_exit_code(tmp_path, capsys):
    # a missing key, a solver setting (the tolerance and the cycle cap are
    # the method's constants), a NaN cell, a negative or zero data floor, a
    # zero CSI exponent, a beamwidth outside (0, 180) degrees, a negative
    # seed: each fails as the file loads, naming it, so no study runs a
    # point and no CSV is written
    for text, needle in (("m = 4\nv_kmh = 300\npt_dbm = 40\n", "d_l"),
                         (REF_CONFIG + "solver_n_max = 100\n", ":7: unknown key 'solver_n_max'"),
                         (REF_CONFIG + "solver_eps = 1e-4\n", ":7: unknown key 'solver_eps'"),
                         (REF_CONFIG.replace("d_l = 200", "d_l = nan"), "d_l must be finite"),
                         (REF_CONFIG + "d_min_bits = -5\n", "d_min_bits must be positive"),
                         (REF_CONFIG + "d_min_bits = 0\n", "d_min_bits must be positive"),
                         (REF_CONFIG + "csi_alpha = 0\n", "csi_alpha must be strictly positive"),
                         (REF_CONFIG + "theta_3db_deg = 200\n", "theta_3db must lie in (0, 180)"),
                         (REF_CONFIG + "theta_3db_deg = 0\n", "theta_3db must lie in (0, 180)"),
                         (REF_CONFIG.replace("seed = 3", "seed = -3"), "seed must be >= 0")):
        bad = write_cfg(tmp_path, text)
        for argv in (["run", bad],
                     ["sweep", bad, "--param", "d_l", "--values", "180,200"],
                     ["mc-velocity", bad, "--sigmas", "0,1", "--trials", "1"]):
            code = main(["--outdir", str(tmp_path)] + argv)
            assert code == 2, (text, argv)
            err = capsys.readouterr().err
            assert needle in err and bad in err, err
    assert list(tmp_path.glob("*.csv")) == []


def test_rician_k_without_a_finite_linear_value_exits_with_a_config_error(tmp_path, capsys):
    # at the parent a fading run on this file ended in an OverflowError
    # traceback; now the file fails as it loads, naming it, before any CSV
    bad = write_cfg(tmp_path, REF_CONFIG + "fading = true\nrician_k_db = 4000\n")
    for argv in (["run", bad],
                 ["sweep", bad, "--param", "d_l", "--values", "180,200"],
                 ["mc-velocity", bad, "--sigmas", "0,1", "--trials", "1"]):
        assert main(["--outdir", str(tmp_path)] + argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert bad in err and "rician_k must be a K-factor" in err, err
    assert list(tmp_path.glob("*.csv")) == []


def test_missing_file_exit_code(tmp_path, capsys):
    code = main(["--outdir", str(tmp_path), "run", str(tmp_path / "absent.cfg")])
    assert code == 2


def test_unconverged_solver_exit_code(tmp_path, capsys, monkeypatch):
    # a single outer cycle cannot reach the floor tolerance
    monkeypatch.setattr(optimizer, "N_MAX", 0)
    cfg = write_cfg(tmp_path)
    code = main(["--outdir", str(tmp_path), "run", cfg])
    assert code == 3
    assert "converge" in capsys.readouterr().err


def test_overflowing_csi_exponent_exits_with_a_warning(tmp_path, capsys):
    # the csi row becomes an error row, which the exit status counts
    cfg = write_cfg(tmp_path, REF_CONFIG + "csi_alpha = 1000\n")
    code = main(["--outdir", str(tmp_path), "run", cfg])
    assert code == 3
    err = capsys.readouterr().err
    assert "warning: csi at run" in err and "csi_alpha = 1000" in err


def test_sweep_and_plot_data_commands(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path)
    monkeypatch.setenv("RAILPOWER_OUTDIR", str(tmp_path / "results"))
    code = main(["sweep", cfg, "--param", "d_l", "--values", "180,200,220"])
    assert code == 0
    csv_path = capsys.readouterr().out.strip()
    assert csv_path.startswith(str(tmp_path / "results"))

    code = main(["plot-data", csv_path, "--figure", "E-vs-dl"])
    assert code == 0
    dat, manifest = capsys.readouterr().out.strip().splitlines()
    first = np.loadtxt(dat, usecols=0)
    assert list(first) == [180.0, 200.0, 220.0]

    code = main(["plot-data", csv_path, "--figure", "nope"])
    assert code == 2


def test_mc_velocity_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, REF_CONFIG + "schemes = average, optimized\n")
    code = main(["--outdir", str(tmp_path), "mc-velocity", cfg,
                 "--sigmas", "0,2", "--trials", "2"])
    assert code == 0
    rows = read_csv_rows(capsys.readouterr().out.strip())
    kinds = {r["kind"] for r in rows}
    assert kinds == {"trial", "mean"}
    assert len([r for r in rows if r["kind"] == "trial"]) == 2 * 2 * 2


def test_mc_velocity_rejects_negative_sigma(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["--outdir", str(tmp_path), "mc-velocity", cfg,
                 "--sigmas", "0,-2", "--trials", "1"])
    assert code == EXIT_CONFIG
    assert "-2" in capsys.readouterr().err
    assert not (tmp_path / "mc_velocity.csv").exists()


def test_sweep_rejects_fractional_relay_count(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["--outdir", str(tmp_path), "sweep", cfg, "--param", "M", "--values", "2.5"])
    assert code == EXIT_CONFIG
    assert "2.5" in capsys.readouterr().err
    assert not (tmp_path / "sweep_M.csv").exists()


def test_sweep_accepts_integral_relay_grid(tmp_path, capsys):
    cfg = write_cfg(tmp_path, REF_CONFIG + "schemes = constant\n")
    code = main(["--outdir", str(tmp_path), "sweep", cfg, "--param", "M", "--values", "2.0,3.0"])
    assert code == 0
    rows = [r for r in read_csv_rows(capsys.readouterr().out.strip()) if r["kind"] != "mean"]
    assert [float(r["value"]) for r in rows] == [2.0, 3.0]
    # the relay count took effect: a third relay changes the delivered data
    assert float(rows[0]["data_bits"]) != float(rows[1]["data_bits"])


def test_sweep_rejects_relay_counts_below_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["--outdir", str(tmp_path), "sweep", cfg, "--param", "M", "--values", "0,-1"])
    assert code == EXIT_CONFIG
    assert ">= 1" in capsys.readouterr().err
    assert not (tmp_path / "sweep_M.csv").exists()


def test_sweep_rejects_non_finite_values(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["--outdir", str(tmp_path), "sweep", cfg, "--param", "d_l",
                 "--values", "200,nan"])
    assert code == EXIT_CONFIG
    assert "d_l values must be finite, got nan" in capsys.readouterr().err
    assert not (tmp_path / "sweep_d_l.csv").exists()


def test_repeated_inputs_exit_with_config_error(tmp_path, capsys):
    # a repeated scheme, sweep value or speed-error std would write
    # repeated rows and pool them into one mean; each is a usage error
    cfg = write_cfg(tmp_path)
    twice = write_cfg(tmp_path, REF_CONFIG + "schemes = constant, constant\n", "twice.cfg")
    for command, needle in ((["run", twice], "scheme 'constant' is listed twice"),
                            (["sweep", cfg, "--param", "M", "--values", "4,4.0"],
                             "M value 4.0 is listed twice"),
                            (["sweep", cfg, "--param", "d_l", "--values", "200,200",
                              "--trials", "2"], "d_l value 200.0 is listed twice"),
                            (["mc-velocity", cfg, "--sigmas", "0,1,0", "--trials", "1"],
                             "sigma_v value 0.0 is listed twice")):
        code = main(["--outdir", str(tmp_path)] + command)
        assert code == EXIT_CONFIG, command
        assert needle in capsys.readouterr().err, command
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_rejects_worker_counts_below_one(tmp_path, capsys, workers):
    # no silent serial fallback: a worker count below one is a usage error
    cfg = write_cfg(tmp_path)
    for command, out in ((["sweep", cfg, "--param", "d_l", "--values", "200"], "sweep_d_l.csv"),
                         (["mc-velocity", cfg, "--sigmas", "0", "--trials", "1"],
                          "mc_velocity.csv")):
        code = main(["--outdir", str(tmp_path), *command, "--workers", workers])
        assert code == EXIT_CONFIG
        assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert not (tmp_path / out).exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_rejects_overflowing_power(tmp_path, capsys, workers):
    # 4000 dBm is 10**397 W: not a float, so a usage error naming the value
    cfg = write_cfg(tmp_path)
    code = main(["--outdir", str(tmp_path), "sweep", cfg, "--param", "P_T",
                 "--values", "40,4000", "--workers", workers])
    assert code == EXIT_CONFIG
    assert "P_T value 4000" in capsys.readouterr().err
    assert not (tmp_path / "sweep_P_T.csv").exists()


SCENARIOS = Path(__file__).resolve().parents[1] / "bench" / "scenarios"

# criterion 10: the sha256 prefix of each CLI CSV
CSV_PINS = {
    "reference run": (["run", "reference.cfg"], "e61ccd2445b8"),
    "M sweep": (["sweep", "reference.cfg", "--param", "M", "--values", "2,3,4,5,6"],
                "fc8e5f1676c6"),
    "velocity-error study": (["mc-velocity", "reference.cfg", "--sigmas", "0,1,2,3,4,5",
                              "--trials", "100"], "897d2cb89c82"),
    "fading run": (["run", "fading.cfg"], "7559a0d0c54b"),
    "fading d_l sweep": (["sweep", "fading.cfg", "--param", "d_l", "--values",
                          "140,200,240", "--trials", "3"], "eb8ec6ce06b7"),
}


@pytest.mark.parametrize("name", CSV_PINS)
def test_cli_csv_bytes_are_pinned(name, tmp_path, capsys):
    (command, config, *rest), pin = CSV_PINS[name]
    assert main(["--outdir", str(tmp_path), command, str(SCENARIOS / config), *rest]) == 0
    digest = hashlib.sha256(Path(capsys.readouterr().out.strip()).read_bytes()).hexdigest()
    assert digest[:12] == pin, (
        f"{name}: CSV sha256 {digest[:12]}, pinned {pin}. Update a pin only together "
        "with an output change recorded in CHANGES.md, with the digests before and after")

"""Edge scenarios either work or fail loudly.

Each case changes one key of the reference scenario and runs the harness
point on it.  The table runs under pytest's warnings-as-errors, so an
overflow or a division by zero on the way fails its case too.
"""

import numpy as np
import pytest

from railpower import (build_gain_table, kkt_residual, optimizer, reference_config,
                       segment_boundaries, solve)
from railpower.cli import main
from railpower.configio import HarnessOptions
from railpower.harness import run_point

# every baseline row is finite.  converges: ``optimized`` converged and
# KKT-stationary; raises: a ValueError naming the floor, and an error row;
# unconverged: the linear limit (peak SNR at P_T below 1e-15), flagged,
# with data at or above the floor
EDGES = [
    ("rho", 1e-6, "converges"),
    ("rho", 1e-8, "converges"),
    ("rho", 1e-9, "converges"),
    ("d_min_bits", 1.0, "converges"),
    ("rho", 1e-300, "raises"),
    ("d_min_bits", 1e-300, "raises"),
    ("pathloss_exp", 8.0, "unconverged"),
    ("noise_figure", 300.0, "unconverged"),
]


@pytest.mark.parametrize("key, value, expected", EDGES)
def test_edge_scenario(key, value, expected):
    cfg = reference_config(**{key: value})
    records = run_point(cfg, HarnessOptions(), np.random.SeedSequence(cfg.seed))
    opt = next(r for r in records if r.scheme == "optimized")
    assert all(not r.error and np.isfinite(r.energy_j) and np.isfinite(r.data_bits)
               for r in records if r is not opt)
    if expected == "raises":
        with pytest.raises(ValueError, match="data floor .* bits is out of the solver's range"):
            solve(cfg)
        assert "out of the solver's range" in opt.error and not opt.converged
        return
    alloc, res = opt.solution
    assert not opt.error and np.isfinite(opt.energy_j) and np.isfinite(opt.data_bits)
    assert np.any(alloc.values > 0.0)   # never the zero allocation
    if expected == "converges":
        assert opt.converged
        sched = segment_boundaries(cfg)
        table = build_gain_table(cfg, sched)
        assert kkt_residual(alloc, res.lam_hat, cfg, sched, res.d_min, table) \
            <= 10 * optimizer.EPS
    else:
        assert not opt.converged and opt.data_bits >= res.d_min


def test_out_of_range_floor_exits_3_with_its_message(tmp_path, capsys):
    path = tmp_path / "tiny.cfg"
    path.write_text("m = 4\nd_l = 200\nv_kmh = 300\npt_dbm = 40\nd_min_bits = 1e-300\n"
                    "schemes = optimized\n")
    assert main(["--outdir", str(tmp_path), "run", str(path)]) == 3
    assert "data floor 1e-300 bits is out of the solver's range" in capsys.readouterr().err

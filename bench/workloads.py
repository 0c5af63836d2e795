"""The four benchmark workloads, driven through the public railpower API.

Each workload loads its scenario in :meth:`setup`, builds its seeded
inputs in :meth:`prepare`, and runs one identical pass per
:meth:`run_pass` call.  :meth:`evaluate` checks a pass outside the timed
region and returns a :class:`PassOutput` whose digest must not change
from pass to pass.  The per-operation latencies in ``op_s`` feed
``op_ms_p50`` / ``op_ms_tail``; what counts as one operation is stated on
each class.

Library functions are looked up on their modules at call time
(``rp.solve``, ``harness.sweep``) so that a traced run sees every call.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import railpower as rp
from railpower import harness

SCENARIOS = Path(__file__).resolve().parent / "scenarios"

# criterion-3 sweep grids and the criterion-9 speed-error grid
DL_GRID = (140.0, 160.0, 180.0, 200.0, 220.0, 240.0)
V_GRID = (250.0, 270.0, 290.0, 310.0, 330.0, 350.0)
M_GRID = (2.0, 3.0, 4.0, 5.0, 6.0)
SIGMA_GRID = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)

EE_TOL = 1e-9   # relative slack of the criterion-3/9 dominance checks


class OutputMismatch(AssertionError):
    """A workload produced a wrong or unrepeatable output."""


@dataclass
class PassOutput:
    digest: str                      # sha256 of the pass's rendered output
    op_s: list[float]                # latency of every operation in the pass
    attempted: int                   # rows, solves or lookups attempted
    failed: int                      # rows with an error or not converged
    quality: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)   # must repeat exactly


def _sha256(text: str | bytes) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OutputMismatch(message)


def _check_rows(rows) -> None:
    """EE = D / E must hold exactly on every finite row."""
    for r in rows:
        if r.error or not (math.isfinite(r.energy_j) and r.energy_j > 0):
            continue
        _require(r.ee_bits_per_j == r.data_bits / r.energy_j,
                 f"ee_bits_per_j != data_bits / energy_j on {r.kind} row "
                 f"{r.param}={r.value} trial {r.trial} scheme {r.scheme}")


def _row_failures(rows) -> int:
    return sum(1 for r in rows
               if r.error or (r.scheme == "optimized" and not r.converged))


def _no_tick():
    pass


class Workload:
    name = ""
    config = "reference.cfg"

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.quick = quick

    def setup(self):
        """Config and table set-up; everything timed as ``setup_s``."""
        cfg, options = rp.load_config(SCENARIOS / self.config)
        return cfg.with_(seed=self.seed), options

    def prepare(self, state):
        """Generate the seeded inputs, outside every timed region."""
        return state

    def warmup(self, state) -> PassOutput | None:
        """Untimed work before the first timed pass; a checked pass by default."""
        return self.evaluate(state, self.run_pass(state, _no_tick))

    def run_pass(self, state, tick):
        """One timed pass; returns the raw outputs.

        ``tick()`` may be called between operations of a long pass: the
        benchmark then reads its speed probe with the clock stopped.
        """
        raise NotImplementedError

    def evaluate(self, state, raw) -> PassOutput:
        """Check one pass's outputs (untimed); raises OutputMismatch."""
        raise NotImplementedError

    def finish(self, state) -> dict[str, float]:
        """Deterministic quality figures computed after the timed passes."""
        return {}


class ReferenceStudy(Workload):
    """Criterion-3 sweeps then the velocity-error Monte Carlo; op = one optimized row."""

    name = "reference-study"

    def __init__(self, seed, quick):
        super().__init__(seed, quick)
        self.sweeps = ((("d_l", DL_GRID[::5]), ("v", V_GRID[::5]), ("M", M_GRID[::4]))
                       if quick else (("d_l", DL_GRID), ("v", V_GRID), ("M", M_GRID)))
        self.sigmas = SIGMA_GRID[:2] if quick else SIGMA_GRID
        self.trials = 2 if quick else 25

    def run_pass(self, state, tick):
        cfg, options = state
        parts = []
        for param, values in self.sweeps:
            parts.append(harness.sweep(cfg, options,
                                       harness.SweepSpec(param=param, values=values),
                                       workers=1))
            tick()
        parts.append(harness.monte_carlo_velocity_error(cfg, options, self.sigmas,
                                                        trials=self.trials, workers=1))
        return parts, "".join(harness.records_to_csv(rows) for rows in parts)

    def evaluate(self, state, raw):
        parts, csv = raw
        rows = [r for part in parts for r in part]
        trials = [r for r in rows if r.kind == "trial"]
        opt = [r for r in trials if r.scheme == "optimized"]
        _check_rows(rows)
        for part in parts:
            self._check_dominance(part)
        # planning equals evaluation everywhere except at sigma_v > 0
        same = [r for r in opt if not r.error and (r.param != "sigma_v" or r.value == 0.0)]
        return PassOutput(
            digest=_sha256(csv), op_s=[r.wall_time_s for r in opt],
            attempted=len(trials), failed=_row_failures(trials),
            quality={
                "opt_energy_j_mean": float(np.mean([r.energy_j for r in opt])),
                "floor_shortfall_max": max((r.d_min_bits - r.data_bits) / r.d_min_bits
                                           for r in same),
            },
            counts={"rows": len(rows), "harness.csv_bytes": len(csv),
                    "optimizer.cycles": sum(r.cycles or 0 for r in opt)})

    @staticmethod
    def _check_dominance(rows) -> None:
        """Optimized energy lowest and EE highest at every mean point."""
        points: dict[tuple, dict] = {}
        for r in rows:
            if r.kind == "mean":
                points.setdefault((r.param, r.value), {})[r.scheme] = r
        for (param, value), schemes in points.items():
            opt = schemes["optimized"]
            for name, r in schemes.items():
                if name == "optimized" or r.error:
                    continue
                _require(opt.energy_j <= r.energy_j * (1 + EE_TOL)
                         and opt.ee_bits_per_j >= r.ee_bits_per_j * (1 - EE_TOL),
                         f"optimized does not dominate {name} at {param}={value}")


class CapsBinding(Workload):
    """Library solves where the budget caps bind; op = one ``solve`` call.

    Seed-independent: the channel is deterministic and ``solve`` draws
    nothing, so every seed runs the same three solves.
    """

    name = "caps-binding"
    cases = ((0.97, 4), (0.99, 4), (1.0, 2))   # (rho, M)

    def setup(self):
        cfg, _ = super().setup()
        cases = self.cases[:1] if self.quick else self.cases
        scenarios = [cfg.with_(rho=rho, num_relays=m) for rho, m in cases]
        return [(c, rp.segment_boundaries(c)) for c in scenarios]

    def warmup(self, state):
        # one fast reference solve; a full pass would double the run time
        cfg, sched = state[0]
        rp.solve(cfg.with_(rho=0.8), sched)
        return None

    def run_pass(self, state, tick):
        solutions, op_s = [], []
        for n, (cfg, sched) in enumerate(state):
            if n:
                tick()
            start = time.perf_counter()
            solutions.append(rp.solve(cfg, sched))
            op_s.append(time.perf_counter() - start)
        return solutions, op_s

    def evaluate(self, state, raw):
        solutions, op_s = raw
        self.last = list(zip(state, solutions))
        lines = []
        for (cfg, sched), (alloc, res) in self.last:
            baseline = rp.total_energy(rp.average_alloc(cfg, sched), sched)
            _require(res.energy_j <= baseline,
                     f"rho={cfg.rho} M={cfg.num_relays}: optimized energy above average")
            lines.append(f"{cfg.rho!r},{cfg.num_relays},{res.energy_j!r},"
                         f"{res.data_bits!r},{res.converged},{res.cycles},{res.h_inf!r},"
                         f"{_sha256(alloc.p.tobytes())}\n")
        results = [res for _, res in solutions]
        history = [c for res in results for c in res.history]
        stops = [c.inner_reason for c in history]
        return PassOutput(
            digest=_sha256("".join(lines)), op_s=op_s, attempted=len(results),
            failed=sum(not res.converged for res in results),
            quality={
                "opt_energy_j_mean": float(np.mean([res.energy_j for res in results])),
                "floor_shortfall_max": max((res.d_min - res.data_bits) / res.d_min
                                           for res in results),
                "solves": len(results),
                "converged_solves": sum(res.converged for res in results),
            },
            counts={"optimizer.cycles": len(history),
                    "optimizer.inner_steps": sum(c.inner_steps for c in history),
                    **{f"optimizer.inner_stop.{r}": stops.count(r)
                       for r in ("gradient", "stall", "cap")}})

    def finish(self, state):
        return {"kkt_max": max(
            rp.kkt_residual(alloc, res.lam_hat, cfg, sched, res.d_min,
                            rp.build_gain_table(cfg, sched))
            for (cfg, sched), (alloc, res) in self.last)}


class FadingEval(Workload):
    """A fading ``d_l`` sweep without the solver; op = one ``run_point`` call.

    Points are driven as ``harness.sweep`` drives them (one seed sequence
    per value index and trial) so that each call can be timed on its own.
    """

    name = "fading-eval"
    config = "fading.cfg"
    values = (140.0, 200.0, 240.0)

    def __init__(self, seed, quick):
        super().__init__(seed, quick)
        self.trials = 3 if quick else 120

    def run_pass(self, state, tick):
        cfg, options = state
        rows, op_s = [], []
        for idx, value in enumerate(self.values):
            point_cfg = harness.apply_sweep_value(cfg, "d_l", value)
            for trial in range(self.trials):
                seed_seq = np.random.SeedSequence((cfg.seed, idx, trial))
                start = time.perf_counter()
                rows += harness.run_point(point_cfg, options, seed_seq, kind="trial",
                                          param="d_l", value=value, trial=trial)
                op_s.append(time.perf_counter() - start)
        return rows, op_s, harness.records_to_csv(rows)

    def evaluate(self, state, raw):
        rows, op_s, csv = raw
        _check_rows(rows)
        _require(len(rows) == len(op_s) * len(state[1].schemes), "missing rows")
        return PassOutput(digest=_sha256(csv), op_s=op_s, attempted=len(rows),
                          failed=_row_failures(rows),
                          counts={"rows": len(rows), "harness.csv_bytes": len(csv)})


class DopplerLookup(Workload):
    """Nearest-window Doppler lookups on noisy windows; op = one ``estimate_doppler``."""

    name = "doppler-lookup"
    config = "doppler.cfg"
    noise_db = 2.0

    def __init__(self, seed, quick):
        super().__init__(seed, quick)
        self.lookups = 50 if quick else 2500

    def setup(self):
        cfg, _ = super().setup()
        return cfg, rp.build_table(cfg, x_s=0.1, L=5)

    def prepare(self, state):
        """Seeded noisy windows centred on random table positions."""
        cfg, table = state
        rng = np.random.default_rng(self.seed)
        ks = rng.integers(0, len(table), size=self.lookups)
        noise = rng.normal(0.0, self.noise_db, size=(self.lookups, table.windows.shape[1]))
        windows = [rp.RsrpWindow(center=float(table.positions[k]),
                                 values=table.windows[k] + noise[n])
                   for n, k in enumerate(ks)]
        truth = np.array([rp.true_doppler(cfg, w.center) for w in windows])
        return cfg, table, windows, truth

    def run_pass(self, state, tick):
        cfg, table, windows, _ = state
        est, op_s = np.empty(len(windows)), []
        for n, window in enumerate(windows):
            start = time.perf_counter()
            est[n] = rp.estimate_doppler(table, window, cfg)
            op_s.append(time.perf_counter() - start)
        return est, op_s

    def evaluate(self, state, raw):
        cfg, _, _, truth = state
        est, op_s = raw
        _require(bool(np.all(np.abs(est) <= rp.max_doppler(cfg))), "estimate beyond f_max")
        return PassOutput(digest=_sha256(est.tobytes()), op_s=op_s,
                          attempted=len(est), failed=0,
                          quality={"doppler_err_hz_mean": float(np.mean(np.abs(est - truth)))},
                          counts={"lookups": len(est)})


WORKLOADS = {w.name: w for w in (ReferenceStudy, CapsBinding, FadingEval, DopplerLookup)}

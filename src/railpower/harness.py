"""Scenario runs, parameter sweeps, and the velocity-error study.

Every entry point produces a flat list of :class:`RunRecord` rows that
serialise to a fixed, versioned CSV schema.  Runs are deterministic for
a given (config, seed): RNG streams are derived from a seed sequence
keyed by sweep point and trial index, the fading trace (when enabled) is
shared by all schemes at a point, and aggregate rows recompute the
efficiency ratios from mean energy and mean data so that EE = D/E holds
on every emitted row.  Wall time is measured but kept out of the CSV.

The velocity-error study plans under the estimated speed v + e,
e = |N(0, sigma_v^2)|, and evaluates under the true one.  Delivered data
and energy both scale as 1/v and the gain table depends only on
geometry, so planning at v + e is the true-speed problem with the floor
raised by (v + e)/v.  Only the optimised row sees the error: the four
baselines ignore speed.  A trial whose raised floor exceeds the data
the average allocation delivers at the full per-segment budget
(rho*(v + e)/v > 1) is an ``optimized`` error row naming the floor,
while the baselines still run.

Data floor rule: :func:`run_point` takes the floor from the scenario's
deterministic gain table, which also serves planning, and a fading
trace scales that table's factors into the evaluation table without
recomputing the geometry.  What the trials at one scenario share (the
schedule, that table, the floor, the scenario digest and, without
fading, the ``constant``, ``average`` and ``csi`` figures) is a
:class:`PreparedPoint`, built once per sweep task, and a task is one
swept value with all of its trials; a ``sigma_v`` study, whose values
leave the scenario as it is, builds one point for all of its tasks.
Without fading a trial therefore plans and evaluates only ``random`` and
``optimized``; either way it builds a generator only for a stream it
draws from.

Chain rule: a task draws every trial's speed error first, then runs the
trials in ascending (speed error, trial) order, so the planned floor
never falls along the chain.  The first
``optimized`` solve is cold; each later one warm-starts from the last
converged solve of the task (its allocation, ``lam_hat`` and ``sigma``).
Every trial still makes its own solve and draws from its own seed
sequence, and a chain never crosses tasks, so the CSV does not depend on
``workers``.  Trials at an equal floor (every trial at sigma_v = 0, or
the trials of a fading sweep value) are not bit-identical to each other:
each is a converged solve within the solver tolerance of the floor.  A
value with one trial solves cold, as a plain run does.  A row meets the
floor within the solver's own tolerance, :data:`optimizer.EPS`.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import allocators, metrics, optimizer
from .configio import KEYS, SCHEMES, HarnessOptions, load_config, scenario_hash
from .scenario import ScenarioConfig, SegmentSchedule, _require_count, segment_boundaries

CSV_VERSION = "railpower csv v1"
CSV_COLUMNS = (
    "kind", "param", "value", "trial", "scheme", "scenario",
    "m", "n", "d_l", "v_mps", "pt_w", "d_min_bits",
    "energy_j", "data_bits", "ee_bits_per_j", "se_bits_per_s_per_hz",
    "meets_floor", "converged", "cycles", "h_inf", "error",
)

SWEEP_PARAMS = ("M", "d_l", "v", "P_T", "sigma_v")

# swept parameter -> the config key whose parser converts a value from the
# parameter's user-facing unit; sigma_v is handled by the velocity-error pathway
_SWEEP_FIELDS = {"M": "m", "d_l": "d_l", "v": "v_kmh", "P_T": "pt_dbm"}

NAN = float("nan")


@dataclass(frozen=True)
class RunRecord:
    """One scheme's outcome on one scenario point."""

    kind: str               # "run" | "trial" | "mean"
    param: str
    value: float
    trial: int              # -1 on "run"/"mean" rows
    scheme: str
    scenario: str
    m: int
    n: int
    d_l: float
    v_mps: float
    pt_w: float
    d_min_bits: float
    energy_j: float
    data_bits: float
    ee_bits_per_j: float
    se_bits_per_s_per_hz: float
    meets_floor: bool
    converged: bool
    cycles: int | None      # solver rows only
    h_inf: float | None     # solver rows only
    error: str = ""
    wall_time_s: float = 0.0   # measured, intentionally not serialised
    # an ``optimized`` row's (allocation, SolveResult), not serialised
    solution: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SweepSpec:
    """A one-parameter sweep over explicit values."""

    param: str
    values: tuple[float, ...]
    trials: int = 1

    def __post_init__(self):
        if self.param not in SWEEP_PARAMS:
            raise ValueError(f"unknown sweep parameter {self.param!r}; "
                             f"pick from {', '.join(SWEEP_PARAMS)}")
        if not self.values:
            raise ValueError("sweep needs a nonempty value list")
        for i, v in enumerate(self.values):
            if not math.isfinite(v):
                raise ValueError(f"{self.param} values must be finite, got {v!r}")
            if v in self.values[:i]:
                raise ValueError(f"{self.param} value {v!r} is listed twice")
            if self.param == "M" and (not float(v).is_integer() or v < 1):
                raise ValueError(f"M values must be whole relay counts >= 1, got {v!r}")
            if self.param in _SWEEP_FIELDS:
                try:
                    _swept_field(self.param, v)
                except OverflowError:
                    raise ValueError(f"{self.param} value {v!r} is out of range") from None
        if self.param == "sigma_v" and min(self.values) < 0:
            raise ValueError(f"sigma_v values must be >= 0, got {min(self.values)!r}")
        _require_count("trials", self.trials)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


def _swept_field(param: str, value: float) -> dict:
    """``{ScenarioConfig field: value}`` for a swept value in user-facing units."""
    if param not in _SWEEP_FIELDS:
        raise ValueError(f"sweep parameter {param!r} sets no scenario field")
    parse, (_, name) = KEYS[_SWEEP_FIELDS[param]]
    return {name: parse(value)}


def apply_sweep_value(cfg: ScenarioConfig, param: str, value: float) -> ScenarioConfig:
    """Return cfg with the swept parameter replaced (user-facing units)."""
    return cfg.with_(**_swept_field(param, value))


def _scenario_columns(fields: dict) -> dict:
    """The m, n, d_l, v_mps, pt_w columns of a map of ScenarioConfig fields."""
    return dict(m=fields["num_relays"], n=fields["num_bins"], d_l=fields["d_l"],
                v_mps=fields["v"], pt_w=fields["p_t"])


# columns shared by every scheme's row at one point
_POINT_COLUMNS = ("kind", "param", "value", "trial", "scenario",
                  "m", "n", "d_l", "v_mps", "pt_w", "d_min_bits")


def _record(point: dict, scheme: str, energy_j: float = NAN, data_bits: float = NAN,
            se: float = NAN, meets_floor: bool = False, converged: bool = False,
            cycles: int | None = None, h_inf: float | None = None, error: str = "",
            wall_time_s: float = 0.0, solution: tuple | None = None) -> RunRecord:
    """Build one row: ``point`` maps the :data:`_POINT_COLUMNS`, and the
    defaults describe a failed scheme.  EE is :func:`metrics.energy_efficiency`
    of the row's data and energy, so EE = D/E holds on every row.  A row
    without error text whose energy or data is not finite becomes a failed
    row whose error names that figure."""
    if not error:
        bad = [name for name, v in (("energy_j", energy_j), ("data_bits", data_bits))
               if not math.isfinite(v)]
        if bad:
            return _record(point, scheme, error=f"non-finite {' and '.join(bad)}",
                           wall_time_s=wall_time_s)
    return RunRecord(**point, scheme=scheme, energy_j=energy_j, data_bits=data_bits,
                     ee_bits_per_j=metrics.energy_efficiency(data_bits, energy_j),
                     se_bits_per_s_per_hz=se, meets_floor=meets_floor,
                     converged=converged, cycles=cycles, h_inf=h_inf, error=error,
                     wall_time_s=wall_time_s, solution=solution)


# baselines whose allocation and evaluation table are the same in every
# trial of a point when the channel does not fade
_SHARED_SCHEMES = ("constant", "average", "csi")


@dataclass(frozen=True, eq=False)
class PreparedPoint:
    """What every trial at one scenario shares, built once by
    :func:`prepare_point`: the schedule, the deterministic gain table (the
    floor, the plan and the CSI weights read it), the data floor, the
    scenario digest, and ``shared``, the figures of each requested scheme
    that does not depend on the trial (or the message it failed with)."""

    cfg: ScenarioConfig
    sched: SegmentSchedule
    table: metrics.GainTable
    d_min_bits: float
    scenario: str
    shared: dict = field(default_factory=dict)   # scheme -> MetricsRecord | error str


def _baseline_figures(scheme: str, cfg: ScenarioConfig, sched: SegmentSchedule,
                      table: metrics.GainTable, eval_table: metrics.GainTable,
                      rng: np.random.Generator | None) -> metrics.MetricsRecord:
    """One baseline planned on ``table`` and evaluated on ``eval_table``;
    ``rng`` feeds ``random``, and ``csi`` under fading."""
    if scheme == "constant":
        alloc = allocators.constant_alloc(cfg, sched)
    elif scheme == "average":
        alloc = allocators.average_alloc(cfg, sched)
    elif scheme == "random":
        alloc = allocators.random_alloc(cfg, sched, rng)
    else:
        alloc = allocators.csi_alloc(cfg, sched, table, rng)
    return metrics.compute_metrics(alloc, sched, eval_table)


def prepare_point(cfg: ScenarioConfig, schemes) -> PreparedPoint:
    """Build the schedule, deterministic table and data floor of cfg once,
    and the figures of those ``schemes`` that no trial changes: ``constant``,
    ``average`` and ``csi`` when ``cfg.fading`` is off."""
    sched = segment_boundaries(cfg)
    table = metrics.build_gain_table(cfg, sched)
    shared = {}
    for scheme in [] if cfg.fading else [s for s in schemes if s in _SHARED_SCHEMES]:
        try:
            shared[scheme] = _baseline_figures(scheme, cfg, sched, table, table, None)
        except ValueError as exc:
            shared[scheme] = str(exc)
    return PreparedPoint(cfg=cfg, sched=sched, table=table,
                         d_min_bits=optimizer.data_floor(cfg, sched, table),
                         scenario=scenario_hash(cfg), shared=shared)


def run_point(point: ScenarioConfig | PreparedPoint, options: HarnessOptions,
              seed_seq: np.random.SeedSequence,
              kind: str = "run", param: str = "", value: float = NAN,
              trial: int = -1, speed_error: float = 0.0,
              warm: tuple | None = None) -> list[RunRecord]:
    """Run the requested schemes once on a point; every row is evaluated there.

    ``point`` is a :class:`PreparedPoint`, or a config that is prepared on
    entry for ``options.schemes``.  A scheme in ``point.shared`` writes its
    row from the stored figures; every other one is planned and evaluated
    here.  ``speed_error`` [m/s] is the planner's error: the optimised
    scheme plans for the speed ``cfg.v + speed_error`` by chasing the floor
    scaled by that speed over ``cfg.v`` on the true-speed table (see the
    module docstring).  ``warm`` is passed to :func:`optimizer.solve`, and
    the ``optimized`` row carries its solve's (allocation, result) pair as
    ``solution``.  ``seed_seq`` spawns the fading, random and CSI streams;
    a generator is built only for a stream that is drawn from.
    """
    if isinstance(point, ScenarioConfig):
        point = prepare_point(point, options.schemes)
    cfg, sched, det_table = point.cfg, point.sched, point.table
    seq_fading, seq_random, seq_csi = seed_seq.spawn(3)
    # the stream each baseline draws from, if any
    streams = {"random": seq_random, "csi": seq_csi if cfg.fading else None}
    eval_table = det_table
    if cfg.fading:
        eval_table = det_table.faded(metrics.sample_fading_trace(
            cfg, np.random.default_rng(seq_fading)))

    d_min_bits = point.d_min_bits
    columns = dict(kind=kind, param=param, value=value, trial=trial,
                   scenario=point.scenario, d_min_bits=d_min_bits,
                   **_scenario_columns(vars(cfg)))

    records = []
    for scheme in options.schemes:
        start = time.perf_counter()
        cycles, h_inf, converged, solution = None, None, True, None
        try:
            if scheme in point.shared:
                rec = point.shared[scheme]
            elif scheme == "optimized":   # HarnessOptions admits no other name
                solution = alloc, diag = optimizer.solve(
                    cfg, sched, warm, d_min=d_min_bits * ((cfg.v + speed_error) / cfg.v),
                    table=det_table)
                cycles, h_inf, converged = diag.cycles, diag.h_inf, diag.converged
                # a deterministic row's figures are its solve's: compute_metrics
                # of alloc on det_table
                rec = (diag if eval_table is det_table
                       else metrics.compute_metrics(alloc, sched, eval_table))
            else:
                seq = streams.get(scheme)
                rec = _baseline_figures(scheme, cfg, sched, det_table, eval_table,
                                        None if seq is None else np.random.default_rng(seq))
        except ValueError as exc:   # InfeasibleDataFloor included
            rec = str(exc)
        if isinstance(rec, str):    # a failed scheme's row carries only its error
            records.append(_record(columns, scheme, error=rec,
                                   wall_time_s=time.perf_counter() - start))
            continue
        records.append(_record(
            columns, scheme, energy_j=rec.energy_j, data_bits=rec.data_bits,
            se=metrics.spectral_efficiency(rec.data_bits, cfg, sched),
            meets_floor=bool(rec.data_bits >= d_min_bits * (1.0 - optimizer.EPS)),
            converged=converged, cycles=cycles, h_inf=h_inf,
            wall_time_s=time.perf_counter() - start, solution=solution))
    return records


def run_scenario(config_path) -> list[RunRecord]:
    """Run every configured scheme once on the scenario in a config file."""
    cfg, options = load_config(config_path)
    seed_seq = np.random.SeedSequence((cfg.seed, 0, 0))
    return run_point(cfg, options, seed_seq)


def _mean_records(rows: list[RunRecord], point: PreparedPoint | None) -> list[RunRecord]:
    """One mean row per scheme over the trial rows of one swept value, run
    on ``point`` (None when every row failed); ratios from the means."""
    out = []
    for scheme in dict.fromkeys(r.scheme for r in rows):
        scheme_rows = [r for r in rows if r.scheme == scheme]
        ok = [r for r in scheme_rows if not r.error and np.isfinite(r.energy_j)]
        proto = ok[0] if ok else scheme_rows[0]
        mean = {**{c: getattr(proto, c) for c in _POINT_COLUMNS}, "kind": "mean", "trial": -1}
        if not ok:
            # every trial failed, and a failed row carries only its error
            out.append(_record(mean, scheme, error=proto.error))
            continue
        e = float(np.mean([r.energy_j for r in ok]))
        d = float(np.mean([r.data_bits for r in ok]))
        failed = len(scheme_rows) - len(ok)
        out.append(_record(
            mean, scheme, energy_j=e, data_bits=d,
            se=metrics.spectral_efficiency(d, point.cfg, point.sched),
            meets_floor=all(r.meets_floor for r in ok),
            converged=all(r.converged for r in ok),
            error=f"{failed} failed trials" if failed else ""))
    return out


def _sweep_task(args) -> tuple[list[RunRecord], list[RunRecord]]:
    """Trial and mean rows of one swept value, all run on one :class:`PreparedPoint`.

    The point comes with the task when the swept parameter is ``sigma_v``,
    which is not a scenario field, and is prepared here otherwise.  Every
    trial's speed error is drawn first; the trials then run in
    ascending (speed error, trial) order, each ``optimized`` solve
    warm-started from the last converged one, and come back in trial order.
    """
    cfg, options, spec, idx, value, point = args
    if point is None:
        try:
            point_cfg = apply_sweep_value(cfg, spec.param, value)
        except ValueError as exc:
            # the failed point's rows show the swept value it failed on
            columns = dict(kind="trial", param=spec.param, value=float(value),
                           scenario="", d_min_bits=NAN,
                           **_scenario_columns({**vars(cfg),
                                                **_swept_field(spec.param, value)}))
            rows = [_record({**columns, "trial": trial}, s, error=str(exc))
                    for trial in range(spec.trials) for s in options.schemes]
            return rows, _mean_records(rows, None)
        point = prepare_point(point_cfg, options.schemes)
    seed_seqs = [np.random.SeedSequence((cfg.seed, idx, trial))
                 for trial in range(spec.trials)]
    # drawn first; no draw at sigma 0 keeps the streams of a plain run
    errors = [draw_speed_error(np.random.default_rng(seq.spawn(1)[0]), value)
              if spec.param == "sigma_v" and value > 0 else 0.0 for seq in seed_seqs]
    order = sorted(range(spec.trials), key=lambda trial: (errors[trial], trial))
    per_trial, warm = {}, None
    for trial in order:
        rows = per_trial[trial] = run_point(
            point, options, seed_seqs[trial], kind="trial", param=spec.param,
            value=float(value), trial=trial, speed_error=errors[trial], warm=warm)
        warm = next((r.solution for r in rows
                     if r.solution is not None and r.converged), warm)
    rows = [r for trial in range(spec.trials) for r in per_trial[trial]]
    return rows, _mean_records(rows, point)


def _process_pool(workers: int):
    # imported on first use: the pool machinery loads multiprocessing, which
    # a serial run never needs
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def sweep(cfg: ScenarioConfig, options: HarnessOptions, spec: SweepSpec,
          workers: int = 1) -> list[RunRecord]:
    """One-parameter sweep; failing points become error rows, not crashes.

    Each swept value is one task: its trials share one
    :class:`PreparedPoint` (schedule, gain table, floor and the figures
    no trial changes), which a ``sigma_v`` sweep prepares once for all of
    its values.  A task's ``optimized`` solves form one chain in ascending
    planned floor, each warm-started from the last converged solve (see
    :func:`_sweep_task`).
    Tasks run in a process pool of at most ``workers`` processes when
    there is more than one task and ``workers > 1``, else in this process.
    Every trial keeps its own RNG streams and a chain never crosses tasks,
    so the rows, which come back in value-then-trial order, do not depend
    on ``workers``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # sigma_v is the planner's error, not a scenario field: one point serves every value
    point = prepare_point(cfg, options.schemes) if spec.param == "sigma_v" else None
    tasks = [(cfg, options, spec, idx, value, point) for idx, value in enumerate(spec.values)]
    workers = min(workers, len(tasks))
    if workers > 1:
        # the fork start method launches every worker at the first submit
        with _process_pool(workers) as pool:
            per_task = list(pool.map(_sweep_task, tasks))
    else:
        per_task = [_sweep_task(t) for t in tasks]
    return ([r for rows, _ in per_task for r in rows]
            + [r for _, means in per_task for r in means])


def draw_speed_error(rng: np.random.Generator, sigma_v: float) -> float:
    """One nonnegative speed estimation error: |N(0, sigma_v^2)| [m/s]."""
    return abs(rng.normal(0.0, sigma_v))


def monte_carlo_velocity_error(cfg: ScenarioConfig, options: HarnessOptions,
                               sigmas, trials: int, workers: int = 1) -> list[RunRecord]:
    """Velocity-error study: plan for v + |N(0, sigma^2)|, evaluate under v."""
    spec = SweepSpec(param="sigma_v", values=tuple(float(s) for s in sigmas),
                     trials=trials)
    return sweep(cfg, options, spec, workers=workers)


def _format_value(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def records_to_csv(records: list[RunRecord]) -> str:
    buf = io.StringIO()
    buf.write(f"# {CSV_VERSION}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([_format_value(getattr(r, col)) for col in CSV_COLUMNS])
    return buf.getvalue()


def write_csv(records: list[RunRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(records_to_csv(records))


def read_csv_rows(path) -> list[dict]:
    with open(path) as fh:
        first = fh.readline().strip()
        if first != f"# {CSV_VERSION}":
            raise ValueError(f"unrecognised CSV version line {first!r}")
        return list(csv.DictReader(fh))


FIGURES = {
    "E-vs-M": ("M", "energy_j", "relay count", "energy [J]"),
    "EE-vs-M": ("M", "ee_bits_per_j", "relay count", "energy efficiency [bits/J]"),
    "E-vs-dl": ("d_l", "energy_j", "cell width [m]", "energy [J]"),
    "EE-vs-dl": ("d_l", "ee_bits_per_j", "cell width [m]", "energy efficiency [bits/J]"),
    "SE-vs-dl": ("d_l", "se_bits_per_s_per_hz", "cell width [m]",
                 "spectral efficiency [bits/s/Hz]"),
    "E-vs-v": ("v", "energy_j", "train speed [km/h]", "energy [J]"),
    "EE-vs-v": ("v", "ee_bits_per_j", "train speed [km/h]", "energy efficiency [bits/J]"),
    "SE-vs-v": ("v", "se_bits_per_s_per_hz", "train speed [km/h]",
                "spectral efficiency [bits/s/Hz]"),
    "E-vs-sigmav": ("sigma_v", "energy_j", "speed error std [m/s]", "energy [J]"),
    "EE-vs-sigmav": ("sigma_v", "ee_bits_per_j", "speed error std [m/s]",
                     "energy efficiency [bits/J]"),
}


def emit_plot_data(csv_path, figure_id: str, out_dir) -> list[str]:
    """Reshape sweep CSV rows into per-figure series files plus a manifest.

    Reads the ``mean`` rows, which every sweep and Monte Carlo CSV holds
    for each swept value.  The .dat file holds the x grid in the first
    column and one column per scheme; any plotting tool can consume it.
    """
    import os

    if figure_id not in FIGURES:
        raise ValueError(f"unknown figure id {figure_id!r}; "
                         f"known: {', '.join(sorted(FIGURES))}")
    param, metric, x_label, y_label = FIGURES[figure_id]
    rows = read_csv_rows(csv_path)
    use = [r for r in rows if r["param"] == param and r["kind"] == "mean"]
    if not use:
        raise ValueError(f"no rows for parameter {param!r} in {csv_path}")

    schemes = [s for s in SCHEMES if any(r["scheme"] == s for r in use)]
    xs = sorted({float(r["value"]) for r in use})
    series = {s: dict() for s in schemes}
    for r in use:
        if r["scheme"] in series and r[metric]:
            series[r["scheme"]][float(r["value"])] = float(r[metric])

    os.makedirs(out_dir, exist_ok=True)
    dat_path = os.path.join(out_dir, f"{figure_id}.dat")
    man_path = os.path.join(out_dir, f"{figure_id}.manifest")
    with open(dat_path, "w") as fh:
        fh.write("# " + " ".join(["x"] + schemes) + "\n")
        for x in xs:
            cells = [format(x, ".12g")]
            cells += [format(series[s].get(x, float("nan")), ".12g") for s in schemes]
            fh.write(" ".join(cells) + "\n")
    with open(man_path, "w") as fh:
        fh.write(f"figure: {figure_id}\n")
        fh.write(f"x: {x_label}\n")
        fh.write(f"y: {y_label}\n")
        fh.write(f"columns: x {' '.join(schemes)}\n")
        fh.write("units: energy J, data bits, ee bits/J, se bits/s/Hz\n")
    return [dat_path, man_path]

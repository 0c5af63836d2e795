#!/usr/bin/env python3
"""Summarise benchmark result records and compare two sets of runs.

    python3 bench/report.py DIR            # spread of each metric over seeds
    python3 bench/report.py DIR_A DIR_B    # plus median drift A -> B and exact checks

DIR holds the ``<workload>_seed<n>_trace<t>.json`` records that
``run_bench.py --out DIR`` writes.  For every workload and end-to-end
metric the report gives the median over seeds and the quartile spread
``(Q3 - Q1) / median`` (``statistics.quantiles(values, n=4)``) against the
metric's bound in ``BENCHMARK.json``.  With two directories it also gives
the drift of each median, and it requires everything that must repeat to
repeat exactly for every (workload, seed, trace) present in both: the
output digest, the per-pass counts, the deterministic quality figures and,
for traced runs, every call count.  A difference there is nondeterminism,
not noise, and makes the exit status 1.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
EXACT_QUALITY = ("failed_frac", "opt_energy_j_mean", "floor_shortfall_max", "kkt_max",
                 "doppler_err_hz_mean")


def load(directory: Path) -> dict[tuple, dict]:
    out = {}
    for path in sorted(directory.glob("*_seed*_trace*.json")):
        rec = json.loads(path.read_text())
        out[(rec["workload"], rec["seed"], rec["trace"])] = rec
    return out


def e2e_values(records: dict, workload: str, metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for (w, _, t), r in sorted(records.items())
            if w == workload and t == 0 and metric in r["metrics"]]


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def exact_mismatches(a: dict, b: dict) -> list[str]:
    problems = []
    for key in sorted(a.keys() & b.keys()):
        ra, rb = a[key], b[key]
        checks = [("output_sha256", ra["output_sha256"], rb["output_sha256"]),
                  ("pass_counts", ra["pass_counts"], rb["pass_counts"])]
        checks += [(q, ra["quality"].get(q), rb["quality"].get(q)) for q in EXACT_QUALITY]
        if key[2] == 1:
            checks += [("calls", ra["calls"], rb["calls"]),
                       ("counts", ra["counts"], rb["counts"])]
        problems += [f"{key}: {name} {va!r} != {vb!r}"
                     for name, va, vb in checks if va != vb]
    return problems


def main(argv) -> int:
    dirs = [Path(d) for d in argv]
    if not 1 <= len(dirs) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(d) for d in dirs]
    workloads = [w["name"] for w in SPEC["workloads"]]
    header = f"{'workload':16s} {'metric':12s} {'n':>3s} {'median':>12s} {'spread':>8s} {'bound':>6s}"
    print(header + ("  " + f"{'median B':>12s} {'drift':>8s}" if len(sets) == 2 else ""))
    status = 0
    for w in workloads:
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = e2e_values(sets[0], w, name)
            if len(a) < 2:
                continue
            med, sp = spread(a)
            flag = "" if name == "setup_s" or sp < bound / 3 else (
                " WIDE" if sp <= bound else " OVER")
            line = f"{w:16s} {name:12s} {len(a):3d} {med:12.6g} {sp:8.4f} {bound:6.3f}"
            if len(sets) == 2:
                b = e2e_values(sets[1], w, name)
                if len(b) >= 2:
                    med_b, sp_b = spread(b)
                    drift = (med_b - med) / med
                    worse = drift if m["better"] == "lower" else -drift
                    flag += " REGRESSED" if worse > bound else ""
                    flag += "" if name == "setup_s" or sp_b < bound / 3 else " WIDE-B"
                    line += f"  {med_b:12.6g} {drift:+8.4f}"
            print(line + flag)
        probes = [ms for (wl, _, t), r in sorted(sets[0].items())
                  if wl == w and t == 0 for p in r["passes"] for ms in p["probes_ms"]]
        if probes:
            print(f"{w:16s} {'probe_ms':12s} {len(probes):3d} {statistics.median(probes):12.6g}"
                  f" (informational)")
    incorrect = [k for s in sets for k, r in s.items() if not r["correct"]]
    for key in incorrect:
        print(f"incorrect run: {key}")
        status = 1
    if len(sets) == 2:
        problems = exact_mismatches(*sets)
        for p in problems:
            print(f"nondeterminism: {p}")
        status = 1 if problems else status
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Span tracer that wraps the public functions of the railpower modules.

The wrappers are installed from the benchmark's files by rebinding module
and class attributes; nothing under ``src/`` is edited.  Every binding of
an original function is replaced, including the aliases modules import by
name (``optimizer.average_alloc``, ``railpower.solve``), so calls made
inside the package are seen too.

A span is (name, start, end, parent span, request).  Spans live in flat
arrays in memory and are written out once, when the run ends.  The
request of a span is (workload, point, scheme, trial): the benchmark sets
the point itself for calls it makes directly, and the tracer derives it
from ``harness.run_point`` arguments and from which scheme entry point
``run_point`` calls.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

import numpy as np

MODULES = ("scenario", "radio", "metrics", "allocators", "optimizer", "harness",
           "configio", "doppler")

# direct children of run_point that start a scheme's row
SCHEME_ENTRY = {
    "allocators.constant_alloc": "constant",
    "allocators.average_alloc": "average",
    "allocators.random_alloc": "random",
    "allocators.ChannelSnapshot.from_scenario": "csi",
    "optimizer.solve": "optimized",
}


def _public_callables(module):
    """Yield (owner, attribute, qualified name, original) for one module."""
    short = module.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, f"{short}.{name}", obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(member) or isinstance(member, (classmethod,
                                                                     staticmethod)):
                    yield obj, attr, f"{short}.{name}.{attr}", member


class Tracer:
    """Records spans for every wrapped call until :meth:`uninstall`."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.requests: list[tuple] = []
        self._request_ids: dict[tuple, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.request_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self._stack = [-1]
        self._request = self.request_id("setup", "", -1)
        self._saved: list[tuple] = []
        self._outer_requests: list[int] = []
        self.solve_results: list = []   # SolveResult of every solve call
        self.table_keys: list = []      # input key of every gain-table build
        self.csv_bytes = 0
        self._before = {"harness.run_point": self._enter_run_point,
                        "metrics.build_gain_table": self._record_table_key}
        self._after = {"harness.run_point": self._leave_run_point,
                       "optimizer.solve": self._record_solve,
                       "harness.records_to_csv": self._count_csv}

    # -- request context ---------------------------------------------------
    def request_id(self, point: str, scheme: str, trial: int) -> int:
        key = (self.workload, point, scheme, trial)
        rid = self._request_ids.get(key)
        if rid is None:
            rid = self._request_ids[key] = len(self.requests)
            self.requests.append(key)
        return rid

    def set_request(self, point: str, scheme: str = "", trial: int = -1) -> None:
        self._request = self.request_id(point, scheme, trial)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        import railpower

        modules = [sys.modules[f"railpower.{m}"] for m in MODULES]
        aliases = [railpower] + [m for key, m in sys.modules.items()
                                 if key.startswith("railpower.")]
        for module in modules:
            for owner, attr, qualname, original in list(_public_callables(module)):
                if isinstance(original, (classmethod, staticmethod)):
                    wrapped = type(original)(self._wrap(original.__func__, qualname))
                    self._rebind(owner, attr, original, wrapped)
                    continue
                wrapped = self._wrap(original, qualname)
                self._rebind(owner, attr, original, wrapped)
                if owner is module:
                    for other in aliases:
                        for alias, value in list(vars(other).items()):
                            if value is original and not (other is module and alias == attr):
                                self._rebind(other, alias, original, wrapped)

    def _rebind(self, owner, attr, original, wrapped) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, qualname: str):
        nid = self._name_id(qualname)
        stack = self._stack
        name_col, parent_col, request_col = self.name_col, self.parent_col, self.request_col
        start_col, end_col = self.start_col, self.end_col
        clock = time.perf_counter
        before = self._before.get(qualname)
        after = self._after.get(qualname)
        scheme = SCHEME_ENTRY.get(qualname)
        run_point_id = self._name_id("harness.run_point")

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if scheme is not None and parent >= 0 and name_col[parent] == run_point_id:
                point, _, trial = self.requests[self._request][1:]
                self._request = self.request_id(point, scheme, trial)
            if before is not None:
                before(args, kwargs)
            idx = len(start_col)
            name_col.append(nid)
            parent_col.append(parent)
            request_col.append(self._request)
            end_col.append(0.0)
            stack.append(idx)
            start_col.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_col[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- per-function hooks ------------------------------------------------
    def _enter_run_point(self, args, kwargs):
        self._outer_requests.append(self._request)
        param, value = kwargs.get("param", ""), kwargs.get("value", float("nan"))
        self.set_request(f"{param}={value:g}" if param else "run", "",
                         int(kwargs.get("trial", -1)))

    def _leave_run_point(self, args, kwargs, result):
        self._request = self._outer_requests.pop()

    def _record_table_key(self, args, kwargs):
        cfg = args[0]
        quad_n = kwargs.get("quad_n", args[2] if len(args) > 2 else None)
        fading = kwargs.get("fading_db", args[3] if len(args) > 3 else None)
        # a strided sample tells independent fading draws apart cheaply
        trace_key = None if fading is None else (fading.shape,
                                                 fading.ravel()[::61].tobytes())
        self.table_keys.append((cfg, cfg.quad_n if quad_n is None else quad_n, trace_key))

    def _record_solve(self, args, kwargs, result):
        self.solve_results.append(result[1])

    def _count_csv(self, args, kwargs, result):
        self.csv_bytes += len(result)

    # -- analysis ----------------------------------------------------------
    def mark(self) -> tuple[int, int, int, int]:
        """Position of the span, solve, table and CSV logs, to slice a phase."""
        return (len(self.start_col), len(self.solve_results), len(self.table_keys),
                self.csv_bytes)

    def phase(self, begin, end) -> dict:
        """Calls, self time and derived counts for the spans between two marks."""
        s0, s1 = begin[0], end[0]
        names = np.frombuffer(self.name_col, dtype=np.int32)[s0:s1]
        parents = np.frombuffer(self.parent_col, dtype=np.int32)[s0:s1]
        dur = (np.frombuffer(self.end_col)[s0:s1] - np.frombuffer(self.start_col)[s0:s1])
        inside = parents >= s0
        child = np.bincount(parents[inside] - s0, weights=dur[inside],
                            minlength=s1 - s0)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=self_time, minlength=k)
        out = {"calls": {n: int(calls[i]) for i, n in enumerate(self.names) if calls[i]},
               "self_s": {n: float(self_s[i]) for i, n in enumerate(self.names) if calls[i]}}

        results = self.solve_results[begin[1]:end[1]]
        history = [c for r in results for c in r.history]
        stops = {"gradient": 0, "stall": 0, "cap": 0}
        for c in history:
            stops[c.inner_reason] += 1
        keys = self.table_keys[begin[2]:end[2]]
        out["counts"] = {
            "optimizer.cycles": len(history),
            "optimizer.inner_steps": sum(c.inner_steps for c in history),
            **{f"optimizer.inner_stop.{r}": n for r, n in stops.items()},
            "metrics.build_gain_table.distinct": len(set(keys)),
            "harness.csv_bytes": end[3] - begin[3],
        }
        return out

    def write_spans(self, path) -> int:
        """Write every span to an ``.npz`` file; return the span count.

        Columns ``name``, ``start``, ``end``, ``parent`` (row index, -1 at
        the top) and ``request`` (row of ``requests``), plus the ``names``
        and ``requests`` tables they index.
        """
        np.savez_compressed(
            path, name=np.frombuffer(self.name_col, dtype=np.int32),
            start=np.frombuffer(self.start_col), end=np.frombuffer(self.end_col),
            parent=np.frombuffer(self.parent_col, dtype=np.int32),
            request=np.frombuffer(self.request_col, dtype=np.int32),
            names=np.array(self.names), requests=np.array(
                [json.dumps(r) for r in self.requests]))
        return len(self.start_col)

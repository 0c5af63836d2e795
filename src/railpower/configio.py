"""Flat key=value scenario config files.

One `key = value` pair per line, `#` starts a comment, blank lines are
ignored.  Keys mirror the usual symbol names; speed is given in km/h
(v_kmh) and the budget in dBm (pt_dbm), with conversion to SI units
happening here, once: :data:`KEYS` declares every key with the parser
from its unit and the field it sets.  Unknown keys are rejected so typos
fail loudly, and every error names the offending line.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .optimizer import SolverOptions
from .scenario import KMH_TO_MPS, ScenarioConfig, dbm_to_watts

SCHEMES = ("constant", "random", "average", "csi", "optimized")

REQUIRED = ("m", "d_l", "v_kmh", "pt_dbm")

# Where a key's parsed value goes: a ScenarioConfig field, a SolverOptions
# field, or a HarnessOptions field (the scheme list).
SCENARIO, SOLVER, HARNESS = "scenario", "solver", "harness"


def _bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(f"not a boolean: {text!r}")
    return text.lower() == "true"


def _names(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(","))


# config key -> (parser from the key's user-facing unit, (target kind, field name))
KEYS = {
    "m": (int, (SCENARIO, "num_relays")),
    "n": (int, (SCENARIO, "num_bins")),
    "d0": (float, (SCENARIO, "d0")),
    "d_l": (float, (SCENARIO, "d_l")),
    "d_mr": (float, (SCENARIO, "d_mr")),
    "v_kmh": (lambda kmh: float(kmh) * KMH_TO_MPS, (SCENARIO, "v")),
    "pt_dbm": (lambda dbm: dbm_to_watts(float(dbm)), (SCENARIO, "p_t")),
    "bandwidth_hz": (float, (SCENARIO, "bandwidth")),
    "noise_figure_db": (float, (SCENARIO, "noise_figure")),
    "pathloss_exp": (float, (SCENARIO, "pathloss_exp")),
    "wavelength_m": (float, (SCENARIO, "wavelength")),
    "shadowing_db": (float, (SCENARIO, "shadowing")),
    "theta_3db_deg": (float, (SCENARIO, "theta_3db")),
    "rician_k_db": (float, (SCENARIO, "rician_k")),
    "rho": (float, (SCENARIO, "rho")),
    "d_min_bits": (float, (SCENARIO, "d_min_bits")),
    "seed": (int, (SCENARIO, "seed")),
    "quad_n": (int, (SCENARIO, "quad_n")),
    "csi_alpha": (float, (SCENARIO, "csi_alpha")),
    "fading": (_bool, (SCENARIO, "fading")),
    "solver_eps": (float, (SOLVER, "eps")),
    "solver_n_max": (int, (SOLVER, "n_max")),
    "schemes": (_names, (HARNESS, "schemes")),
}


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}: " if line is None else f"{path}:{line}: "
        super().__init__(f"{loc}{message}")


@dataclass(frozen=True)
class HarnessOptions:
    """Harness-level knobs parsed alongside the physical scenario."""

    schemes: tuple[str, ...] = SCHEMES
    solver: SolverOptions = SolverOptions()

    def __post_init__(self):
        if not self.schemes:
            raise ValueError("scheme list must not be empty")
        for i, s in enumerate(self.schemes):
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme {s!r}; pick from {', '.join(SCHEMES)}")
            if s in self.schemes[:i]:
                raise ValueError(f"scheme {s!r} is listed twice")


def parse_config_text(text: str, path: str = "<config>") -> tuple[ScenarioConfig, HarnessOptions]:
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", path, lineno)
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KEYS:
            raise ConfigError(f"unknown key {key!r}", path, lineno)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", path, lineno)
        if not value:
            raise ConfigError(f"empty value for {key!r}", path, lineno)
        raw[key] = value
        lines[key] = lineno

    kwargs: dict[str, dict] = {SCENARIO: {}, SOLVER: {}, HARNESS: {}}
    for key, value in raw.items():
        parse, (kind, name) = KEYS[key]
        try:
            kwargs[kind][name] = parse(value)
        except (ValueError, OverflowError):
            raise ConfigError(f"cannot parse value {value!r} for key {key!r}",
                              path, lines[key]) from None

    for key in REQUIRED:
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}", path)
    if "rho" in raw and "d_min_bits" in raw:
        raise ConfigError("rho and d_min_bits are mutually exclusive", path)

    try:
        cfg = ScenarioConfig(**kwargs[SCENARIO])
        solver = SolverOptions(**kwargs[SOLVER])
    except ValueError as exc:
        raise ConfigError(str(exc), path) from exc
    try:
        options = HarnessOptions(solver=solver, **kwargs[HARNESS])
    except ValueError as exc:
        raise ConfigError(str(exc), path, lines["schemes"]) from exc
    return cfg, options


def load_config(path) -> tuple[ScenarioConfig, HarnessOptions]:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    return parse_config_text(text, path=str(path))


def scenario_hash(cfg: ScenarioConfig) -> str:
    """Short stable digest of the effective scenario parameters."""
    canon = "|".join(f"{k}={v!r}" for k, v in sorted(vars(cfg).items()))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]

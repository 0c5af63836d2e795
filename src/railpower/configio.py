"""Flat key=value scenario config files.

One `key = value` pair per line, `#` starts a comment, blank lines are
ignored.  Keys mirror the usual symbol names; speed is given as exactly
one of v_kmh / v_mps and the budget as exactly one of pt_dbm / pt_w, with
conversion to SI units happening here, once.  Unknown keys are rejected
so typos fail loudly, and every error names the offending line.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .optimizer import SolverOptions
from .scenario import KMH_TO_MPS, ScenarioConfig, dbm_to_watts

SCHEMES = ("constant", "random", "average", "csi", "optimized")

REQUIRED = ("m", "d_l")

_FLOAT_KEYS = {
    "d0", "d_l", "d_mr", "v_kmh", "v_mps", "pt_dbm", "pt_w",
    "bandwidth_hz", "noise_figure_db", "pathloss_exp", "wavelength_m",
    "shadowing_db", "theta_3db_deg", "rician_k_db", "rho", "d_min_bits",
    "csi_alpha", "solver_sigma0", "solver_growth", "solver_eps", "sigma_v",
}
_INT_KEYS = {"m", "n", "seed", "quad_n", "solver_n_max", "solver_inner_cap", "trials"}
_BOOL_KEYS = {"bandwidth_factor", "fading"}
_LIST_KEYS = {"schemes"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _BOOL_KEYS | _LIST_KEYS

# config key -> SolverOptions field
_SOLVER_KEYS = {
    "solver_sigma0": "sigma0", "solver_growth": "growth", "solver_eps": "eps",
    "solver_n_max": "n_max", "solver_inner_cap": "inner_cap",
}


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}:" if line is None else f"{path}:{line}: "
        super().__init__(f"{loc}{message}")


@dataclass(frozen=True)
class HarnessOptions:
    """Harness-level knobs parsed alongside the physical scenario."""

    schemes: tuple[str, ...] = SCHEMES
    solver: SolverOptions = SolverOptions()


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
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key {key!r}", path, lineno)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", path, lineno)
        if not value:
            raise ConfigError(f"empty value for {key!r}", path, lineno)
        raw[key] = value
        lines[key] = lineno

    def fail(key, msg):
        raise ConfigError(msg, path, lines.get(key))

    values: dict[str, object] = {}
    for key, value in raw.items():
        try:
            if key in _INT_KEYS:
                values[key] = int(value)
            elif key in _FLOAT_KEYS:
                values[key] = float(value)
            elif key in _BOOL_KEYS:
                if value.lower() not in ("true", "false"):
                    raise ValueError
                values[key] = value.lower() == "true"
            else:
                values[key] = tuple(s.strip() for s in value.split(","))
        except ValueError:
            fail(key, f"cannot parse value {value!r} for key {key!r}")

    for key in REQUIRED:
        if key not in values:
            raise ConfigError(f"missing required key {key!r}", path)
    if ("v_kmh" in values) == ("v_mps" in values):
        raise ConfigError("give the speed as exactly one of v_kmh or v_mps", path)
    if ("pt_dbm" in values) == ("pt_w" in values):
        raise ConfigError("give the budget as exactly one of pt_dbm or pt_w", path)
    if "rho" in values and "d_min_bits" in values:
        raise ConfigError("rho and d_min_bits are mutually exclusive", path)

    v = values["v_kmh"] * KMH_TO_MPS if "v_kmh" in values else values["v_mps"]
    p_t = dbm_to_watts(values["pt_dbm"]) if "pt_dbm" in values else values["pt_w"]

    cfg_kwargs = dict(v=v, p_t=p_t, num_relays=values["m"], d_l=values["d_l"])
    optional = {
        "d0": "d0", "d_mr": "d_mr", "n": "num_bins",
        "bandwidth_hz": "bandwidth", "noise_figure_db": "noise_figure",
        "pathloss_exp": "pathloss_exp", "wavelength_m": "wavelength",
        "shadowing_db": "shadowing", "theta_3db_deg": "theta_3db",
        "rician_k_db": "rician_k", "rho": "rho", "d_min_bits": "d_min_bits",
        "seed": "seed", "quad_n": "quad_n", "bandwidth_factor": "bandwidth_factor",
        "csi_alpha": "csi_alpha", "fading": "fading",
    }
    for key, field_name in optional.items():
        if key in values:
            cfg_kwargs[field_name] = values[key]
    try:
        cfg = ScenarioConfig(**cfg_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc), path) from exc

    try:
        solver = SolverOptions(**{name: values[key] for key, name in _SOLVER_KEYS.items()
                                  if key in values})
    except ValueError as exc:
        raise ConfigError(str(exc), path) from exc
    opt_kwargs = {"solver": solver}
    if "schemes" in values:
        schemes = values["schemes"]
        if not schemes or schemes == ("",):
            raise ConfigError("scheme list must not be empty", path, lines["schemes"])
        for s in schemes:
            if s not in SCHEMES:
                fail("schemes", f"unknown scheme {s!r}; pick from {', '.join(SCHEMES)}")
        opt_kwargs["schemes"] = schemes
    options = HarnessOptions(**opt_kwargs)
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

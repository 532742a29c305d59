"""Experiment configuration: flat INI files with named data/control presets."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .forward import SmoothControl

__all__ = ["ConfigError", "ExperimentConfig", "DEFAULT_TOLERANCES", "build_initial_data", "build_control"]


class ConfigError(ValueError):
    """Raised on malformed or incomplete configuration files."""


DEFAULT_TOLERANCES = {
    "kernel_oracle": 1e-4,
    "series": 1e-6,
    "two_route": 1e-4,
    "transformation": 5e-4,
    "gradient_scale": 1e-8,
    "perturbation_slack": 1e-12,
    "value_consistency": 1e-9,
    "route_agreement": 1e-9,
    "bellman": 1e-3,
    "closed_loop": 1e-3,
    "feedback_linearity": 1e-10,
    "dissipation_band": 5e-3,
    "dissipation_floor": 1e-8,
    "riccati_relative": 5e-3,
}

# each control preset with the [control] keys build_control reads for it
_CONTROL_KEYS = {
    "zero": (),
    "sine": ("offset0", "offset1", "amp0", "amp1", "freq0", "freq1"),
    "poly": ("c00", "c01", "c02", "c10", "c11", "c12"),
}
_CONTROL_PRESETS = tuple(_CONTROL_KEYS)
_DATA_PRESETS = ("zero", "smooth", "rough_yhat", "modal")


@dataclass
class ExperimentConfig:
    n_modes: int
    t_final: float
    n_steps: int
    data_preset: str = "smooth"
    seed: int = 7
    v_decay: float = 3.0
    y_decay: float = 3.0
    scale: float = 1.0
    v_coeffs: np.ndarray | None = None
    y_coeffs: np.ndarray | None = None
    control_preset: str = "sine"
    control_params: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    out_dir: str = "out"

    def __post_init__(self):
        if self.n_modes < 1:
            raise ConfigError("problem.n_modes must be >= 1")
        if self.t_final <= 0 or not np.isfinite(self.t_final):
            raise ConfigError("problem.t_final must be positive and finite")
        if self.n_steps < 4:
            raise ConfigError("problem.n_steps must be >= 4")
        if self.data_preset not in _DATA_PRESETS:
            raise ConfigError(f"initial_data.preset must be one of {_DATA_PRESETS}")
        if self.control_preset not in _CONTROL_PRESETS:
            raise ConfigError(f"control.preset must be one of {_CONTROL_PRESETS}")
        if self.scale <= 0 or not np.isfinite(self.scale):
            raise ConfigError("initial_data.scale must be positive and finite")
        for name in ("v_decay", "y_decay"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"initial_data.{name} must be finite")
        for key in self.control_params:
            if key not in _CONTROL_KEYS[self.control_preset]:
                raise ConfigError(f"unknown control key '{key}' for preset '{self.control_preset}'")
        for name, value in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance '{name}'")
            if not (np.isfinite(value) and value > 0):
                raise ConfigError(f"tolerance '{name}' must be positive and finite")
        if self.data_preset == "modal":
            if self.v_coeffs is None or self.y_coeffs is None:
                raise ConfigError("modal preset needs initial_data.v_coeffs and y_coeffs")
            if len(self.v_coeffs) != self.n_modes or len(self.y_coeffs) != self.n_modes:
                raise ConfigError("modal coefficient lists must have n_modes entries")

    def scaled_tolerance(self, name: str, tol_scale: float = 1.0) -> float:
        return self.tolerances[name] * tol_scale


def _get_number(parser, section, key, cast, default=None):
    if not parser.has_option(section, key):
        if default is None:
            raise ConfigError(f"missing required field {section}.{key}")
        return default
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"field {section}.{key} = {raw!r} is not a valid {cast.__name__}") from exc


def _parse_coeff_list(raw: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in raw.replace(",", " ").split()])
    except ValueError as exc:
        raise ConfigError(f"bad coefficient list: {raw!r}") from exc


def load_config(path) -> ExperimentConfig:
    """Parse and validate an INI configuration; no partial results on error."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    n_modes = _get_number(parser, "problem", "n_modes", int)
    t_final = _get_number(parser, "problem", "t_final", float)
    n_steps = _get_number(parser, "problem", "n_steps", int)

    kwargs: dict = {}
    if parser.has_section("initial_data"):
        sec = parser["initial_data"]
        kwargs["data_preset"] = sec.get("preset", "smooth")
        kwargs["seed"] = _get_number(parser, "initial_data", "seed", int, 7)
        kwargs["v_decay"] = _get_number(parser, "initial_data", "v_decay", float, 3.0)
        kwargs["y_decay"] = _get_number(parser, "initial_data", "y_decay", float, 3.0)
        kwargs["scale"] = _get_number(parser, "initial_data", "scale", float, 1.0)
        if "v_coeffs" in sec:
            kwargs["v_coeffs"] = _parse_coeff_list(sec["v_coeffs"])
        if "y_coeffs" in sec:
            kwargs["y_coeffs"] = _parse_coeff_list(sec["y_coeffs"])

    if parser.has_section("control"):
        sec = parser["control"]
        kwargs["control_preset"] = sec.get("preset", "sine")
        params = {}
        for key in sec:
            if key == "preset":
                continue
            params[key] = _get_number(parser, "control", key, float)
        kwargs["control_params"] = params

    tolerances = dict(DEFAULT_TOLERANCES)
    if parser.has_section("tolerances"):
        for key in parser["tolerances"]:
            if key not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance '{key}'")
            tolerances[key] = _get_number(parser, "tolerances", key, float)
    kwargs["tolerances"] = tolerances

    if parser.has_section("output"):
        kwargs["out_dir"] = parser["output"].get("dir", "out")

    return ExperimentConfig(n_modes, t_final, n_steps, **kwargs)


def build_initial_data(cfg: ExperimentConfig, seed: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Modal (v0, y_hat) pair for the configured recipe; trace-free data."""
    n = cfg.n_modes
    if cfg.data_preset == "zero":
        return np.zeros(n), np.zeros(n)
    if cfg.data_preset == "modal":
        return cfg.v_coeffs.astype(float).copy(), cfg.y_coeffs.astype(float).copy()
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    idx = np.arange(1, n + 1, dtype=float)
    v = rng.standard_normal(n) / idx**cfg.v_decay
    if cfg.data_preset == "smooth":
        y = rng.standard_normal(n) / idx**cfg.y_decay
    else:  # rough_yhat: seed with no modal decay, living only in the dual
        y = rng.standard_normal(n)
    v_norm = np.linalg.norm(v)
    y_norm = np.linalg.norm(y)
    v = cfg.scale * v / (v_norm if v_norm > 0 else 1.0)
    y = cfg.scale * y / (y_norm if y_norm > 0 else 1.0)
    return v, y


def build_control(cfg: ExperimentConfig) -> SmoothControl:
    """Named smooth control family with analytic derivatives."""
    p = cfg.control_params
    if cfg.control_preset == "zero":
        z = lambda t: np.zeros(2)
        return SmoothControl(z, z, z)
    if cfg.control_preset == "sine":
        off = np.array([p.get("offset0", 0.5), p.get("offset1", -0.5)])
        amp = np.array([p.get("amp0", 0.4), p.get("amp1", 0.3)])
        freq = np.array([p.get("freq0", 2.0), p.get("freq1", 3.0)])
        return SmoothControl(
            u=lambda t: np.array([off[0] + amp[0] * np.sin(freq[0] * t),
                                  off[1] + amp[1] * np.cos(freq[1] * t)]),
            du=lambda t: np.array([amp[0] * freq[0] * np.cos(freq[0] * t),
                                   -amp[1] * freq[1] * np.sin(freq[1] * t)]),
            ddu=lambda t: np.array([-amp[0] * freq[0] ** 2 * np.sin(freq[0] * t),
                                    -amp[1] * freq[1] ** 2 * np.cos(freq[1] * t)]),
        )
    # quadratic polynomial channelwise
    c = np.array([
        [p.get("c00", 0.2), p.get("c01", 0.5), p.get("c02", -0.3)],
        [p.get("c10", -0.4), p.get("c11", 0.2), p.get("c12", 0.1)],
    ])
    return SmoothControl(
        u=lambda t: c[:, 0] + c[:, 1] * t + c[:, 2] * t * t,
        du=lambda t: c[:, 1] + 2.0 * c[:, 2] * t,
        ddu=lambda t: 2.0 * c[:, 2],
    )

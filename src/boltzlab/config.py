"""Experiment configuration: a versioned JSON document with a fixed schema.

Key schema (defaults in DEFAULTS; unknown keys are rejected):

  version        int, must equal CONFIG_VERSION
  seed           int >= 0, master seed recorded for reproducibility
  output_dir     str, run artifacts land here
  domain         dim, radius of the centred ball
  kernel         family (see collision.KERNEL_FAMILIES), params (keys of
                 collision.KERNEL_PARAMS[family]; the default params are the
                 constant family's, so a config that changes the family sets
                 its params too)
  grid           nx, nv, R_v, v_min (null: 0.05 R_v)
  quadrature     sphere_order, radial_order, angular_order
  solver         tol, max_iter, smallness_threshold
  inflow         amplitude, center, width of the velocity bump fed to the
                 forward stage
  linearize      eps1, eps2, levels (halvings), n_samples, sample_seed,
                 center1, center2, width of the two probes
  reconstruct    etas (decreasing), n_probes, probe_seed, nr, na, nw
                 quadrature orders, exponent_mode, fd_crosscheck_probes
  stages         booleans enabling verify_geometry, verify_collision,
                 forward, linearize, reconstruct

Parsing merges defaults, validates, and normalizes, so parse -> serialize
-> parse is idempotent and the sha256 of the canonical serialization is a
stable identity for the run.
"""

import copy
import hashlib
import json
import math
from dataclasses import dataclass

from .collision import KERNEL_FAMILIES, KernelSpec, QuadratureRule, _is_number
from .errors import ConfigurationError, PreconditionError
from .geometry import Domain
from .reconstruct import EXPONENT_MODES
from .solver import PhaseGrid, PicardOptions, Solver, _residual_speed_range

__all__ = ["CONFIG_VERSION", "DEFAULTS", "ExperimentConfig", "load_config",
           "config_from_dict", "save_config"]

CONFIG_VERSION = 1

DEFAULTS = {
    "version": CONFIG_VERSION,
    "seed": 0,
    "output_dir": "run_out",
    "domain": {"dim": 2, "radius": 1.0},
    # amplitude small enough for the contraction admissibility gate
    "kernel": {"family": "constant", "params": {"value": 0.01}},
    "grid": {"nx": 16, "nv": 16, "R_v": 2.0, "v_min": None},
    "quadrature": {"sphere_order": 8, "radial_order": 3, "angular_order": 8},
    "solver": {"tol": 1e-10, "max_iter": 40, "smallness_threshold": 0.03},
    "inflow": {"amplitude": 0.01, "center": [1.0, 0.0], "width": 0.6},
    "linearize": {"eps1": 0.01, "eps2": 0.01, "levels": 3, "n_samples": 6,
                  "sample_seed": 1,
                  "center1": [1.0, 0.0], "center2": [-0.6, 0.8],
                  "width": 0.6},
    "reconstruct": {"etas": [0.4, 0.2, 0.1], "n_probes": 5, "probe_seed": 0,
                    "nr": 10, "na": 20, "nw": 20,
                    "exponent_mode": "theorem_minus2",
                    "fd_crosscheck_probes": 5},
    "stages": {"verify_geometry": True, "verify_collision": True,
               "forward": True, "linearize": True, "reconstruct": True},
}


def _merge(base, override, path=""):
    out = copy.deepcopy(base)
    for key, val in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigurationError(f"unknown config key: {where}")
        if isinstance(base[key], dict) and key != "params":
            if not isinstance(val, dict):
                raise ConfigurationError(f"{where} must be a table")
            out[key] = _merge(base[key], val, where)
        else:
            out[key] = copy.deepcopy(val)
    return out


# the values that must be positive numbers: _normalize makes each a float,
# naming its key when it is not a number, and _validate checks its sign
_POSITIVE = (("domain", "radius"), ("grid", "R_v"), ("solver", "tol"),
             ("solver", "smallness_threshold"), ("inflow", "amplitude"),
             ("inflow", "width"), ("linearize", "eps1"), ("linearize", "eps2"),
             ("linearize", "width"))


def _require(cond, msg):
    if not cond:
        raise ConfigurationError(msg)


def _is_int(val) -> bool:
    """An int that is not a bool (JSON true is a Python int)."""
    return isinstance(val, int) and not isinstance(val, bool)


# a reconstruction probe's pre-collision pair (v0, u0) is drawn at a
# separation d in this range
_PROBE_SEPARATION = (1.3, 1.45)


def _check_probe_scale(eta_max: float):
    """ConfigurationError when the coarsest probe width eta_max is too wide
    for every probe separation: a probe needs 2.2 eta_max <= d / sqrt(2)."""
    _require(2.2 * eta_max <= _PROBE_SEPARATION[1] / math.sqrt(2.0),
             "reconstruct.etas too coarse for the probe scale: need "
             "2.2*eta < d/sqrt(2)")


def _validate(d: dict):
    _require(_is_int(d["version"]) and d["version"] == CONFIG_VERSION,
             f"config version {d['version']!r} unsupported "
             f"(expected {CONFIG_VERSION})")
    _require(_is_int(d["seed"]) and d["seed"] >= 0,
             "seed must be a nonnegative integer")
    _require(isinstance(d["output_dir"], str) and d["output_dir"],
             "output_dir must be a nonempty string")
    for sec, key in _POSITIVE:
        _require(d[sec][key] > 0, f"{sec}.{key} must be positive")

    dom = d["domain"]
    _require(_is_int(dom["dim"]) and dom["dim"] in (2, 3),
             "domain.dim must be 2 or 3")

    k = d["kernel"]
    _require(k["family"] in KERNEL_FAMILIES,
             f"kernel.family must be one of {KERNEL_FAMILIES}")
    _require(isinstance(k["params"], dict), "kernel.params must be a table")
    try:
        KernelSpec(family=k["family"], dim=dom["dim"], params=k["params"])
    except PreconditionError as exc:
        # the spec names the key as params.<key>
        raise ConfigurationError(f"kernel.{exc}") from None

    g = d["grid"]
    for key in ("nx", "nv"):
        _require(_is_int(g[key]) and g[key] >= 4,
                 f"grid.{key} must be an integer >= 4")
    _require(g["v_min"] is None or 0 < g["v_min"] < g["R_v"],
             "grid.v_min must be null or in (0, R_v)")
    try:
        _residual_speed_range(g["R_v"], g["nv"], g["v_min"])
    except PreconditionError as exc:
        raise ConfigurationError(str(exc)) from None

    q = d["quadrature"]
    for key in ("sphere_order", "radial_order", "angular_order"):
        _require(_is_int(q[key]) and q[key] >= 1,
                 f"quadrature.{key} must be a positive integer")

    s = d["solver"]
    _require(_is_int(s["max_iter"]) and s["max_iter"] >= 1,
             "solver.max_iter must be a positive integer")

    inf = d["inflow"]
    _require(len(inf["center"]) == dom["dim"],
             "inflow.center length must match domain.dim")

    lin = d["linearize"]
    _require(_is_int(lin["levels"]) and lin["levels"] >= 1,
             "linearize.levels must be a positive integer")
    _require(_is_int(lin["n_samples"]) and lin["n_samples"] >= 1,
             "linearize.n_samples must be a positive integer")
    _require(_is_int(lin["sample_seed"]) and lin["sample_seed"] >= 0,
             "linearize.sample_seed must be a nonnegative integer")
    for key in ("center1", "center2"):
        _require(len(lin[key]) == dom["dim"],
                 f"linearize.{key} length must match domain.dim")

    # the Solver's smallness check, at load: the forward stage's data have
    # sup amplitude, the first FD pair's combined data sup eps1 + eps2
    small = s["smallness_threshold"]
    _require(inf["amplitude"] <= small,
             f"inflow.amplitude {inf['amplitude']:.3g} exceeds "
             f"solver.smallness_threshold {small:.3g}")
    _require(lin["eps1"] + lin["eps2"] <= small,
             f"linearize.eps1 + linearize.eps2 = "
             f"{lin['eps1'] + lin['eps2']:.3g} exceeds "
             f"solver.smallness_threshold {small:.3g}")

    r = d["reconstruct"]
    etas = r["etas"]
    _require(len(etas) >= 2 and all(e > 0 for e in etas)
             and all(b < a for a, b in zip(etas, etas[1:])),
             "reconstruct.etas must be >= 2 positive, strictly decreasing values")
    _check_probe_scale(etas[0])
    for key in ("n_probes", "nr", "na", "nw"):
        _require(_is_int(r[key]) and r[key] >= 1,
                 f"reconstruct.{key} must be a positive integer")
    _require(_is_int(r["probe_seed"]) and r["probe_seed"] >= 0,
             "reconstruct.probe_seed must be a nonnegative integer")
    _require(r["exponent_mode"] in EXPONENT_MODES,
             f"reconstruct.exponent_mode must be one of {EXPONENT_MODES}")
    _require(_is_int(r["fd_crosscheck_probes"])
             and r["fd_crosscheck_probes"] >= 0,
             "reconstruct.fd_crosscheck_probes must be >= 0")

    for key, val in d["stages"].items():
        _require(isinstance(val, bool), f"stages.{key} must be a boolean")


def _to_float(val, where: str) -> float:
    """A finite number, not a bool or a string, as a float."""
    _require(_is_number(val), f"{where} must be a finite number, not {val!r}")
    return float(val)


def _normalize(d: dict) -> dict:
    """Numbers as floats, through _to_float, so a value that is not a
    number is a ConfigurationError naming its key."""
    d = copy.deepcopy(d)
    for sec, key in (("inflow", "center"), ("linearize", "center1"),
                     ("linearize", "center2"), ("reconstruct", "etas")):
        where = f"{sec}.{key}"
        _require(isinstance(d[sec][key], (list, tuple)),
                 f"{where} must be a list of numbers")
        d[sec][key] = [_to_float(c, where) for c in d[sec][key]]
    for sec, key in _POSITIVE:
        d[sec][key] = _to_float(d[sec][key], f"{sec}.{key}")
    if d["grid"]["v_min"] is not None:
        d["grid"]["v_min"] = _to_float(d["grid"]["v_min"], "grid.v_min")
    return d


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, normalized view over one configuration document."""

    data: dict

    @property
    def seed(self) -> int:
        return self.data["seed"]

    @property
    def output_dir(self) -> str:
        return self.data["output_dir"]

    def section(self, name: str) -> dict:
        return copy.deepcopy(self.data[name])

    def serialize(self) -> str:
        return json.dumps(self.data, indent=2, sort_keys=True) + "\n"

    def hash(self) -> str:
        canon = json.dumps(self.data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    # -- factories for the pipeline objects --------------------------------

    def build_solver(self) -> Solver:
        """The run's Solver: its domain, kernel, phase grid, quadrature rule
        and Picard options, all read from this config."""
        d = self.data
        dom, k, g, q, s = (d["domain"], d["kernel"], d["grid"],
                           d["quadrature"], d["solver"])
        dim = dom["dim"]
        domain = Domain("ball", dim=dim, radius=dom["radius"])
        return Solver(
            KernelSpec(family=k["family"], dim=dim, params=dict(k["params"])),
            PhaseGrid(domain, nx=g["nx"], nv=g["nv"], R_v=g["R_v"],
                      v_min=g["v_min"]),
            QuadratureRule.build(
                dim=dim, sphere_order=q["sphere_order"],
                radial_order=q["radial_order"],
                angular_order=q["angular_order"], R_v=g["R_v"]),
            PicardOptions(tol=s["tol"], max_iter=s["max_iter"],
                          smallness_threshold=s["smallness_threshold"]))


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigurationError("config document must be a JSON object")
    if "version" not in raw:
        raise ConfigurationError("config is missing the version field")
    merged = _normalize(_merge(DEFAULTS, raw))
    _validate(merged)
    return ExperimentConfig(data=merged)


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate a config file; overrides (seed, output_dir) are
    applied before validation."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except (OSError, ValueError, RecursionError) as exc:
        # a directory, non-UTF-8 bytes, bad JSON, or past Python's limits
        raise ConfigurationError(
            f"config file {path} cannot be read as JSON: {exc}") from None
    if isinstance(raw, dict):
        for key, val in (overrides or {}).items():
            if val is not None:
                raw[key] = val
    return config_from_dict(raw)


def save_config(cfg: ExperimentConfig, path: str):
    with open(path, "w") as fh:
        fh.write(cfg.serialize())

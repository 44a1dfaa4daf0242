"""Experiment configuration: a versioned JSON document with a fixed schema.

Key schema (defaults in DEFAULTS; unknown keys are rejected):

  version        int, must equal CONFIG_VERSION
  seed           int >= 0, master seed recorded for reproducibility
  output_dir     str, run artifacts land here
  domain         shape ("ball"|"box"), dim, radius / lo, hi
  kernel         family (see collision.KERNEL_FAMILIES), params
  grid           nx, nv, R_v, v_min (null: 0.05 R_v), extension policy
  quadrature     sphere_order, radial_order, angular_order
  solver         tol, max_iter, smallness_threshold
  inflow         amplitude, center, width of the velocity bump fed to the
                 forward stage
  linearize      eps1, eps2, levels (halvings), n_samples, order,
                 sample_seed, center1, center2, width of the two probes
  reconstruct    source_route ("direct"|"fd"), etas (decreasing), n_probes,
                 probe_seed, nr, na, nw quadrature orders, exponent_mode,
                 fd_crosscheck_probes
  stages         booleans enabling verify_geometry, verify_collision,
                 forward, linearize, reconstruct

Parsing merges defaults, validates, and normalizes, so parse -> serialize
-> parse is idempotent and the sha256 of the canonical serialization is a
stable identity for the run.
"""

import copy
import hashlib
import json
from dataclasses import dataclass

from .collision import KERNEL_FAMILIES, KernelSpec, QuadratureRule
from .errors import ConfigurationError
from .geometry import Domain
from .linearize import LinearizationConfig
from .reconstruct import EXPONENT_MODES
from .solver import PhaseGrid, PicardOptions

__all__ = ["CONFIG_VERSION", "DEFAULTS", "ExperimentConfig", "load_config",
           "config_from_dict", "save_config"]

CONFIG_VERSION = 1

DEFAULTS = {
    "version": CONFIG_VERSION,
    "seed": 0,
    "output_dir": "run_out",
    "domain": {"shape": "ball", "dim": 2, "radius": 1.0},
    # amplitude small enough for the contraction admissibility gate
    "kernel": {"family": "constant", "params": {"value": 0.01}},
    "grid": {"nx": 16, "nv": 16, "R_v": 2.0, "v_min": None,
             "extension": "analytic"},
    "quadrature": {"sphere_order": 8, "radial_order": 3, "angular_order": 8},
    "solver": {"tol": 1e-10, "max_iter": 40, "smallness_threshold": 0.03},
    "inflow": {"amplitude": 0.01, "center": [1.0, 0.0], "width": 0.6},
    "linearize": {"eps1": 0.01, "eps2": 0.01, "levels": 3, "n_samples": 6,
                  "order": 24, "sample_seed": 1,
                  "center1": [1.0, 0.0], "center2": [-0.6, 0.8],
                  "width": 0.6},
    "reconstruct": {"source_route": "direct", "etas": [0.4, 0.2, 0.1],
                    "n_probes": 5, "probe_seed": 0, "nr": 10, "na": 20,
                    "nw": 20, "exponent_mode": "theorem_minus2",
                    "fd_crosscheck_probes": 5},
    "stages": {"verify_geometry": True, "verify_collision": True,
               "forward": True, "linearize": True, "reconstruct": True},
}

_EXTENSIONS = ("analytic", "zero", "clamp")
_ROUTES = ("direct", "fd")


def _merge(base, override, path=""):
    out = copy.deepcopy(base)
    for key, val in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigurationError(f"unknown config key: {where}")
        if isinstance(base[key], dict) and key != "params":
            if not isinstance(val, dict):
                raise ConfigurationError(f"config key {where} must be a table")
            out[key] = _merge(base[key], val, where)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _require(cond, msg):
    if not cond:
        raise ConfigurationError(msg)


def _validate(d: dict):
    _require(d["version"] == CONFIG_VERSION,
             f"config version {d['version']!r} unsupported "
             f"(expected {CONFIG_VERSION})")
    _require(isinstance(d["seed"], int) and d["seed"] >= 0,
             "seed must be a nonnegative integer")
    _require(isinstance(d["output_dir"], str) and d["output_dir"],
             "output_dir must be a nonempty string")

    dom = d["domain"]
    _require(dom["shape"] in ("ball", "box"), "domain.shape must be ball or box")
    _require(dom["dim"] in (2, 3), "domain.dim must be 2 or 3")

    _require(d["kernel"]["family"] in KERNEL_FAMILIES,
             f"kernel.family must be one of {KERNEL_FAMILIES}")

    g = d["grid"]
    for key in ("nx", "nv"):
        _require(isinstance(g[key], int) and g[key] >= 4,
                 f"grid.{key} must be an integer >= 4")
    _require(g["R_v"] > 0, "grid.R_v must be positive")
    _require(g["v_min"] is None or 0 < g["v_min"] < g["R_v"],
             "grid.v_min must be null or in (0, R_v)")
    _require(g["extension"] in _EXTENSIONS,
             f"grid.extension must be one of {_EXTENSIONS}")

    q = d["quadrature"]
    for key in ("sphere_order", "radial_order", "angular_order"):
        _require(isinstance(q[key], int) and q[key] >= 1,
                 f"quadrature.{key} must be a positive integer")

    s = d["solver"]
    _require(s["tol"] > 0, "solver.tol must be positive")
    _require(isinstance(s["max_iter"], int) and s["max_iter"] >= 1,
             "solver.max_iter must be a positive integer")
    _require(s["smallness_threshold"] > 0,
             "solver.smallness_threshold must be positive")

    inf = d["inflow"]
    _require(inf["amplitude"] > 0, "inflow.amplitude must be positive")
    _require(inf["width"] > 0, "inflow.width must be positive")
    _require(len(inf["center"]) == dom["dim"],
             "inflow.center length must match domain.dim")

    lin = d["linearize"]
    _require(lin["eps1"] > 0 and lin["eps2"] > 0,
             "linearize amplitudes must be positive")
    _require(isinstance(lin["levels"], int) and lin["levels"] >= 1,
             "linearize.levels must be a positive integer")
    _require(isinstance(lin["n_samples"], int) and lin["n_samples"] >= 1,
             "linearize.n_samples must be a positive integer")
    _require(lin["width"] > 0, "linearize.width must be positive")
    for key in ("center1", "center2"):
        _require(len(lin[key]) == dom["dim"],
                 f"linearize.{key} length must match domain.dim")

    r = d["reconstruct"]
    _require(r["source_route"] in _ROUTES,
             f"reconstruct.source_route must be one of {_ROUTES}")
    etas = r["etas"]
    _require(len(etas) >= 2 and all(e > 0 for e in etas)
             and all(b < a for a, b in zip(etas, etas[1:])),
             "reconstruct.etas must be >= 2 positive, strictly decreasing values")
    _require(isinstance(r["n_probes"], int) and r["n_probes"] >= 1,
             "reconstruct.n_probes must be a positive integer")
    _require(r["exponent_mode"] in EXPONENT_MODES,
             f"reconstruct.exponent_mode must be one of {EXPONENT_MODES}")
    _require(isinstance(r["fd_crosscheck_probes"], int)
             and r["fd_crosscheck_probes"] >= 0,
             "reconstruct.fd_crosscheck_probes must be >= 0")

    for key, val in d["stages"].items():
        _require(isinstance(val, bool), f"stages.{key} must be a boolean")


def _normalize(d: dict) -> dict:
    d = copy.deepcopy(d)
    for sec, key in (("inflow", "center"), ("linearize", "center1"),
                     ("linearize", "center2")):
        d[sec][key] = [float(c) for c in d[sec][key]]
    d["reconstruct"]["etas"] = [float(e) for e in d["reconstruct"]["etas"]]
    for sec, key in (("grid", "R_v"), ("solver", "tol"),
                     ("solver", "smallness_threshold"),
                     ("inflow", "amplitude"), ("inflow", "width"),
                     ("linearize", "eps1"), ("linearize", "eps2"),
                     ("linearize", "width"), ("domain", "radius")):
        if key in d[sec] and d[sec][key] is not None:
            d[sec][key] = float(d[sec][key])
    if d["grid"]["v_min"] is not None:
        d["grid"]["v_min"] = float(d["grid"]["v_min"])
    return d


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, normalized view over one configuration document."""

    data: dict

    @property
    def version(self) -> int:
        return self.data["version"]

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

    def build_domain(self) -> Domain:
        dom = self.data["domain"]
        if dom["shape"] == "ball":
            return Domain(shape="ball", dim=dom["dim"], radius=dom["radius"])
        return Domain(shape="box", dim=dom["dim"],
                      lo=tuple(dom["lo"]), hi=tuple(dom["hi"]))

    def build_kernel(self) -> KernelSpec:
        k = self.data["kernel"]
        return KernelSpec(family=k["family"], dim=self.data["domain"]["dim"],
                          params=dict(k["params"]))

    def build_grid(self) -> PhaseGrid:
        g = self.data["grid"]
        return PhaseGrid(self.build_domain(), nx=g["nx"], nv=g["nv"],
                         R_v=g["R_v"], v_min=g["v_min"])

    def build_rule(self) -> QuadratureRule:
        q = self.data["quadrature"]
        return QuadratureRule.build(
            dim=self.data["domain"]["dim"], sphere_order=q["sphere_order"],
            radial_order=q["radial_order"], angular_order=q["angular_order"],
            R_v=self.data["grid"]["R_v"])

    def picard_options(self) -> PicardOptions:
        s = self.data["solver"]
        return PicardOptions(tol=s["tol"], max_iter=s["max_iter"],
                             smallness_threshold=s["smallness_threshold"],
                             extension=self.data["grid"]["extension"])

    def linearize_config(self) -> LinearizationConfig:
        lin = self.data["linearize"]
        pairs = tuple((lin["eps1"] * 0.5**k, lin["eps2"] * 0.5**k)
                      for k in range(lin["levels"]))
        return LinearizationConfig(eps1=lin["eps1"], eps2=lin["eps2"],
                                   pairs=pairs)


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigurationError("config document must be a JSON object")
    if "version" not in raw:
        raise ConfigurationError("config is missing the version field")
    if "domain" in raw and raw["domain"].get("shape") == "box":
        # boxes carry corners instead of a radius
        base = copy.deepcopy(DEFAULTS)
        base["domain"] = {"shape": "box", "dim": 2,
                          "lo": [-1.0, -1.0], "hi": [1.0, 1.0]}
        merged = _merge(base, raw)
    else:
        merged = _merge(DEFAULTS, raw)
    merged = _normalize(merged)
    _validate(merged)
    return ExperimentConfig(data=merged)


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate a config file; overrides (seed, output_dir) are
    applied before validation."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}")
    for key, val in (overrides or {}).items():
        if val is not None:
            raw[key] = val
    return config_from_dict(raw)


def save_config(cfg: ExperimentConfig, path: str):
    with open(path, "w") as fh:
        fh.write(cfg.serialize())

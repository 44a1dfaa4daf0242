"""Config-driven experiment runner.

One JSON config describes the whole pipeline; stages execute in a fixed
order (verify-geometry, verify-collision, forward, linearize, reconstruct)
and every artifact is a CSV with headers plus one manifest per run.  A
failing stage halts the run; the manifest still records what completed and
the failure diagnostic.  Identical config and seed reproduce identical CSV
bytes (the manifest carries wall-clock timestamps and is exempt).

Subcommands: run, verify, forward, linearize, reconstruct (each takes a
config path), report (takes a run directory).  Flags --seed and --out
override the corresponding config fields.
"""

import argparse
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone

import numpy as np

from . import reconstruct as rc
from .collision import post_collision
from .config import (_PROBE_SEPARATION, ExperimentConfig, _check_probe_scale,
                     config_from_dict, load_config, save_config)
from .errors import BoltzlabError, ConfigurationError, DependencyError
from .geometry import (OUTGOING, classify_boundaries, exit_times,
                       sample_outgoing)
from .linearize import (convergence_to_csv, mixed_difference,
                        w_finite_difference)
from .solver import (BoundarySource, Solver, boundary_trace, field_to_csv,
                     trace_to_csv)

CHECKS_HEADER = "check,samples,max_residual,tolerance,status"

# rel_delta above which `report` warns that the FD route and the direct
# route disagree on a probe
FD_CROSSCHECK_TOL = 0.1


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_json(path: str, obj):
    """obj as indented JSON; numpy scalars and arrays are written as the
    Python values their tolist() gives."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True,
                  default=lambda o: o.tolist())
        fh.write("\n")


def _write_checks(path: str, rows):
    with open(path, "w", newline="") as fh:
        fh.write(CHECKS_HEADER + "\n")
        for name, n, res, tol, ok in rows:
            fh.write("%s,%d,%.17g,%.17g,%s\n"
                     % (name, n, res, tol, "pass" if ok else "fail"))


def _fail_if_any(rows, stage: str):
    bad = [r[0] for r in rows if not r[4]]
    if bad:
        raise BoltzlabError("%s checks failed: %s" % (stage, ", ".join(bad)))


def _quartic_source(center, width: float, amplitude: float) -> BoundarySource:
    center = np.asarray(center, dtype=float)

    def profile(V):
        r2 = np.sum((V - center) ** 2, axis=-1)
        return amplitude * np.exp(-((r2 / width**2) ** 2))

    return BoundarySource.from_velocity_profile(profile, sup=abs(amplitude))


# ---------------------------------------------------------------------------
# verification stages
# ---------------------------------------------------------------------------


def stage_verify_geometry(cfg: ExperimentConfig, out: str, solver: Solver):
    domain = solver.grid.domain
    rng = np.random.default_rng(cfg.seed)
    n = 4000
    lo, hi = domain.bounding_box()
    X = np.empty((0, domain.dim))
    while X.shape[0] < n:
        cand = rng.uniform(lo, hi, size=(2 * n, domain.dim))
        cand = cand[domain.boundary_distance(cand) > 1e-6]
        X = np.concatenate([X, cand])[:n]
    V = rng.normal(size=(n, domain.dim))
    V *= (rng.uniform(0.3, 2.0, n) / np.linalg.norm(V, axis=1))[:, None]

    tau_m = exit_times(domain, X, V, sign=-1)
    tau_p = exit_times(domain, X, V, sign=1)
    foot_m = X - tau_m[:, None] * V
    foot_p = X + tau_p[:, None] * V
    speed = np.linalg.norm(V, axis=1)

    rows = []
    res = float(np.max(np.abs(domain.boundary_distance(foot_m))))
    rows.append(("backtrace_foot_on_boundary", n, res, 1e-10, res <= 1e-10))
    res = float(np.max(np.abs(tau_p - exit_times(domain, X, -V, sign=-1))))
    rows.append(("exit_time_parity", n, res, 1e-12, res <= 1e-12))
    res = float(np.max(np.abs(np.linalg.norm(foot_p - foot_m, axis=1)
                              - (tau_p + tau_m) * speed)))
    rows.append(("chord_length_additivity", n, res, 1e-10, res <= 1e-10))
    Xb, Vb = sample_outgoing(domain, 500, rng)
    miss = int(np.count_nonzero(classify_boundaries(domain, Xb, Vb)
                                != OUTGOING))
    rows.append(("outgoing_sampler_classification", 500, float(miss), 0.0,
                 miss == 0))

    path = os.path.join(out, "geometry_checks.csv")
    _write_checks(path, rows)
    _fail_if_any(rows, "geometry")
    return ["geometry_checks.csv"], {"checks": len(rows)}


def _thales(rng, count: int, dim: int):
    mid = rng.uniform(-0.25, 0.25, size=(count, dim))
    axis = rng.normal(size=(count, dim))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    r = 0.5 * rng.uniform(1.0, 1.6, size=count)
    v0 = mid - r[:, None] * axis
    u0 = mid + r[:, None] * axis
    d = rng.normal(size=(count, dim))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    for _ in range(100):
        bad = np.abs(np.sum(d * axis, axis=1)) > 0.9
        if not np.any(bad):
            break
        d[bad] = rng.normal(size=(int(bad.sum()), dim))
        d[bad] /= np.linalg.norm(d[bad], axis=1, keepdims=True)
    return mid + r[:, None] * d, v0, u0


def stage_verify_collision(cfg: ExperimentConfig, out: str, solver: Solver):
    dim = solver.grid.dim
    rng = np.random.default_rng(cfg.seed + 1)
    n = 20000
    U = rng.normal(size=(n, dim))
    V = rng.normal(size=(n, dim))
    W = rng.normal(size=(n, dim))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    Up, Vp = post_collision(U, V, W)

    rows = []
    res = float(np.max(np.abs(Up + Vp - U - V)))
    rows.append(("momentum_conservation", n, res, 1e-12, res <= 1e-12))
    res = float(np.max(np.abs(np.sum(Up**2 + Vp**2 - U**2 - V**2, axis=1))))
    rows.append(("energy_conservation", n, res, 1e-12, res <= 1e-12))
    U2, V2 = post_collision(Up, Vp, W)
    res = float(max(np.max(np.abs(U2 - U)), np.max(np.abs(V2 - V))))
    rows.append(("collision_involution", n, res, 1e-12, res <= 1e-12))
    Un, Vn = post_collision(U, V, -W)
    res = float(max(np.max(np.abs(Un - Up)), np.max(np.abs(Vn - Vp))))
    rows.append(("direction_parity", n, res, 1e-12, res <= 1e-12))
    mx = np.exp(-np.sum(U**2, axis=1) - np.sum(V**2, axis=1))
    mxp = np.exp(-np.sum(Up**2, axis=1) - np.sum(Vp**2, axis=1))
    res = float(np.max(np.abs(mxp - mx) / np.maximum(mx, 1e-300)))
    rows.append(("maxwellian_invariance", n, res, 1e-12, res <= 1e-12))

    m = 3000
    trip = rng.normal(size=(m, 3, dim))
    rel = rc.check_relations(trip[:, 0], trip[:, 1], trip[:, 2])
    mismatch = int(np.count_nonzero((rel["rel1"] != rel["rel2"])
                                    | (rel["rel2"] != rel["rel3"])))
    rows.append(("relation_equivalence", m, float(mismatch), 0.0,
                 mismatch == 0))

    v_star, v0, u0 = _thales(rng, m, dim)
    w1, w2 = rc.omega_pair(v_star, v0, u0)
    worst_dot = float(np.max(np.abs(np.sum(w1 * w2, axis=1))))
    partner = u0 + v0 - v_star
    up1, vp1 = post_collision(u0, v0, w1)
    up2, vp2 = post_collision(u0, v0, w2)
    worst_vec = max(float(np.max(np.linalg.norm(d, axis=1)))
                    for d in (vp1 - v_star, up1 - partner,
                              up2 - v_star, vp2 - partner))
    rows.append(("scattering_direction_orthogonality", m, worst_dot, 1e-12,
                 worst_dot <= 1e-12))
    rows.append(("single_scattering_identities", m, worst_vec, 1e-12,
                 worst_vec <= 1e-12))

    path = os.path.join(out, "collision_checks.csv")
    _write_checks(path, rows)
    _fail_if_any(rows, "collision")
    return ["collision_checks.csv"], {"checks": len(rows)}


# ---------------------------------------------------------------------------
# solver stages
# ---------------------------------------------------------------------------


def stage_forward(cfg: ExperimentConfig, out: str, solver: Solver):
    inf = cfg.section("inflow")
    g = _quartic_source(inf["center"], inf["width"], inf["amplitude"])

    field_, report = solver.solve(g)
    files = ["forward_field.csv", "forward_trace.csv"]
    field_to_csv(field_, os.path.join(out, files[0]))

    rng = np.random.default_rng(cfg.seed + 2)
    X, V = sample_outgoing(solver.grid.domain, 64, rng)
    trace = boundary_trace(field_, X, V)
    trace_to_csv(trace, os.path.join(out, files[1]))

    info = {"iterations": report.iterations, "converged": report.converged,
            "ratio": report.ratio, "residual_discrete": solver.defect(field_),
            "residual_pde": report.residual_pde, "sup_F": report.sup_F}
    return files, info


def stage_linearize(cfg: ExperimentConfig, out: str, solver: Solver):
    lin = cfg.section("linearize")
    g1 = _quartic_source(lin["center1"], lin["width"], 1.0)
    g2 = _quartic_source(lin["center2"], lin["width"], 1.0)
    rng = np.random.default_rng(lin["sample_seed"])
    X, V = sample_outgoing(solver.grid.domain, lin["n_samples"], rng)

    pairs = [(lin["eps1"] * 0.5**k, lin["eps2"] * 0.5**k)
             for k in range(lin["levels"])]
    conv = w_finite_difference(solver, g1, g2, pairs, X, V)
    convergence_to_csv(conv, os.path.join(out, "fd_convergence.csv"))
    summary = {"pairs": [list(p) for p in conv.pairs],
               "errors": list(conv.errors),
               "est_trace": conv.est_trace, "est_quad": conv.est_quad,
               "est_rem": conv.est_rem, "est_total": conv.est_total}
    _write_json(os.path.join(out, "linearize_summary.json"), summary)
    info = {"final_error": conv.errors[-1], "est_total": conv.est_total}
    return ["fd_convergence.csv", "linearize_summary.json"], info


# ---------------------------------------------------------------------------
# reconstruction stage
# ---------------------------------------------------------------------------


def _generate_probes(rng, count: int, dim: int, eta_max: float, R_v: float,
                     v_min: float):
    """Random probes on the resonance manifold with separations above
    2.2 eta_max and all speeds inside the resolved velocity annulus."""
    sep = 2.2 * eta_max
    lo_speed = v_min + eta_max + 0.05
    hi_speed = 0.9 * R_v
    # the separation d is drawn from _PROBE_SEPARATION; draws too short for
    # sep are skipped, and when no draw can be long enough the etas are
    # rejected, as the config's validation rejects them
    _check_probe_scale(eta_max)
    probes = []
    for _ in range(500 * count):
        if len(probes) == count:
            break
        mid = rng.uniform(-0.25, 0.25, size=dim)
        axis = rng.normal(size=dim)
        axis /= np.linalg.norm(axis)
        d = rng.uniform(*_PROBE_SEPARATION)
        if sep > d / math.sqrt(2.0):
            continue
        r = 0.5 * d
        v0 = mid - r * axis
        u0 = mid + r * axis
        phi = rng.uniform(2.0 * math.asin(sep / d), 2.0 * math.acos(sep / d))
        perp = rng.normal(size=dim)
        perp -= (perp @ axis) * axis
        perp /= np.linalg.norm(perp)
        if rng.uniform() < 0.5:
            perp = -perp
        v_star = mid + r * (math.cos(phi) * axis + math.sin(phi) * perp)
        speeds = [np.linalg.norm(p) for p in (v_star, v0, u0)]
        if min(speeds) < lo_speed or max(speeds) > hi_speed:
            continue
        probes.append(rc.Probe(v_star, v0, u0, eta=eta_max))
    if len(probes) < count:
        raise ConfigurationError(
            "reconstruct.n_probes out of reach: could not generate %d "
            "admissible probes; loosen grid.R_v, grid.v_min or "
            "reconstruct.etas" % count)
    return probes


def _probe_value_fd(cfg: ExperimentConfig, solver: Solver, probe: rc.Probe):
    """Probe value S_fd through the full solver pipeline: mollified boundary
    data of width probe.eta at (v0, u0), second-order finite difference of
    the boundary map, then the v_star bump integral of S = W / tau_-."""
    dim, eta = probe.dim, probe.eta
    domain = solver.grid.domain
    sup_bump = float(rc.mollifier(np.zeros((1, dim)), eta)[0])
    eps1 = eps2 = 0.45 * solver.opts.smallness_threshold / sup_bump

    def bump_source(center):
        c = np.asarray(center, dtype=float)
        return BoundarySource.from_velocity_profile(
            lambda V: rc.mollifier(V - c, eta), sup=sup_bump)

    rec = cfg.section("reconstruct")
    Vq, weights = rc._shifted_ball(probe.v_star, eta, rec["nr"], rec["na"])
    bump_w = rc.mollifier(Vq - probe.v_star[None, :], eta) * weights
    # outgoing anchor per node: exit point of the ray from the origin
    tau_out = exit_times(domain, np.zeros((Vq.shape[0], dim)), Vq, sign=1)
    Xq = tau_out[:, None] * Vq

    W, _ = mixed_difference(solver, bump_source(probe.v0),
                            bump_source(probe.u0), eps1, eps2, Xq, Vq)
    tau_m = exit_times(domain, Xq, Vq, sign=-1)
    return float(np.sum(bump_w * (W / tau_m)))


def stage_reconstruct(cfg: ExperimentConfig, out: str, solver: Solver):
    spec, grid = solver.spec, solver.grid
    rec = cfg.section("reconstruct")
    etas = tuple(rec["etas"])
    rng = np.random.default_rng(rec["probe_seed"])
    probes = _generate_probes(rng, rec["n_probes"], grid.dim, etas[0],
                              grid.R_v, grid.v_min)
    report = rc.exponent_experiment(probes, spec, etas=etas, nr=rec["nr"],
                                    na=rec["na"], nw=rec["nw"])
    rc.experiment_to_csv(report, os.path.join(out, "probes.csv"))
    files = ["probes.csv"]
    summary = {"etas": list(etas), "n_probes": len(probes),
               "slopes": list(report.slopes)}

    n_cross = min(rec["fd_crosscheck_probes"], len(probes))
    if n_cross > 0:
        rows = []
        for i in range(n_cross):
            S_fd = _probe_value_fd(cfg, solver, probes[i])
            direct = report.S_table[i, 0]
            delta = abs(S_fd - direct) / max(abs(direct), 1e-300)
            rows.append([i, etas[0], direct, S_fd, delta])
        np.savetxt(os.path.join(out, "fd_crosscheck.csv"), rows,
                   fmt="%.17g", delimiter=",",
                   header="probe,eta,S_direct,S_fd,rel_delta", comments="")
        files.append("fd_crosscheck.csv")
        summary["fd_crosscheck_probes"] = n_cross

    if spec.is_omega_independent():
        rows = rc.recover_omega_independent_B(report.extrapolated, probes,
                                              rec["exponent_mode"], spec=spec)
        rc.recovery_to_csv(rows, os.path.join(out, "recovery_table.csv"))
        files.append("recovery_table.csv")

    summary.update({
        "extrapolated": list(report.extrapolated),
        "closed_forms": {m: list(report.closed_forms[m])
                         for m in rc.EXPONENT_MODES},
        "mismatch": {m: list(report.mismatch[m]) for m in rc.EXPONENT_MODES},
        "winner_per_probe": report.winner_per_probe,
        "winner": report.winner,
    })
    _write_json(os.path.join(out, "reconstruct_summary.json"), summary)
    files.append("reconstruct_summary.json")
    info = {"winner": report.winner, "n_probes": len(probes)}
    return files, info


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

STAGE_FUNCS = {
    "verify_geometry": stage_verify_geometry,
    "verify_collision": stage_verify_collision,
    "forward": stage_forward,
    "linearize": stage_linearize,
    "reconstruct": stage_reconstruct,
}
STAGE_ORDER = tuple(STAGE_FUNCS)

# subcommand -> (help text, the stages it runs); None runs the stages the
# config enables
COMMANDS = {
    "run": ("execute all enabled stages", None),
    "verify": ("geometry and collision verification suites",
               ("verify_geometry", "verify_collision")),
    "forward": ("nonlinear forward solve and boundary trace", ("forward",)),
    "linearize": ("finite-difference second-order cross-check",
                  ("linearize",)),
    "reconstruct": ("mollified probe sweep and recovery tables",
                    ("reconstruct",)),
}


@dataclass
class RunManifest:
    config_hash: str
    seed: int
    started: str
    finished: str = ""
    stages: list = field(default_factory=list)
    files: list = field(default_factory=list)

    def write(self, path: str):
        _write_json(path, asdict(self))

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        with open(path) as fh:
            manifest = cls(**json.load(fh))
        for f in fields(cls):
            if not isinstance(getattr(manifest, f.name), f.type):
                raise TypeError(f"{f.name} is not a {f.type.__name__}")
        return manifest


def run_config(cfg: ExperimentConfig) -> RunManifest:
    """Execute the enabled stages in order and write the manifest last.

    The config is turned into one Solver before the first stage, and every
    stage reads its set-up from it and solves on it, so the Picard tables
    are built once per run.  A failure stops the run; the manifest records
    the stages that completed, the failing stage's diagnostic, and the
    files written so far.  The exception is re-raised for the caller.
    """
    out = cfg.output_dir
    try:
        os.makedirs(out, exist_ok=True)
        save_config(cfg, os.path.join(out, "config.json"))
    except OSError as exc:
        raise ConfigurationError(
            f"output_dir {out} cannot be written: {exc}") from None
    manifest = RunManifest(config_hash=cfg.hash(), seed=cfg.seed,
                           started=_utc_now(), files=["config.json"])
    enabled = cfg.section("stages")
    mpath = os.path.join(out, "manifest.json")
    try:
        solver = cfg.build_solver()
        for name in STAGE_ORDER:
            status, runtime, files, info = "skipped", 0.0, [], {}
            diagnostic, failure = "", None
            if enabled[name]:
                t0 = time.perf_counter()
                try:
                    files, info = STAGE_FUNCS[name](cfg, out, solver)
                    status = "ok"
                except Exception as exc:
                    status, failure = "failed", exc
                    diagnostic = "%s: %s" % (type(exc).__name__, exc)
                runtime = time.perf_counter() - t0
            manifest.stages.append({
                "name": name, "status": status, "runtime_s": runtime,
                "files": files, "diagnostic": diagnostic, "info": info})
            if failure is not None:
                raise failure
            manifest.files.extend(files)
    finally:
        manifest.finished = _utc_now()
        manifest.write(mpath)
    return manifest


def _with_stages(cfg: ExperimentConfig, names) -> ExperimentConfig:
    return config_from_dict({**cfg.data, "stages": {
        key: key in names for key in cfg.data["stages"]}})


def _unresolved_fd_etas(run_dir: str, summary: dict):
    """Warning when the FD cross-check ran at an eta (the first one) below
    the velocity spacing h_v of the phase grid of the run's config.json: a
    bump narrower than h_v falls between velocity nodes, and its S_fd can
    read 0."""
    if "fd_crosscheck_probes" not in summary:
        return []
    path = os.path.join(run_dir, "config.json")
    if not os.path.exists(path):
        return []
    h_v = load_config(path).build_solver().grid.h_v
    eta = summary["etas"][0]
    if eta >= h_v:
        return []
    return ["FD probe bump eta %g is below the velocity spacing h_v %.3g; "
            "the FD route does not resolve it" % (eta, h_v)]


@contextmanager
def _run_file(path: str):
    """Turn what reading a run file that is cut, or that parses but has the
    wrong shape (a missing key, a value of the wrong type), raises into one
    DependencyError naming the file; a run killed while writing leaves such
    files.  A package error (a bad config.json, say) names its own cause."""
    try:
        yield
    except BoltzlabError:
        raise
    except (OSError, LookupError, TypeError, ValueError) as exc:
        raise DependencyError("report", "run", f"{path} is not a readable "
                              f"run file: {type(exc).__name__}: {exc}") \
            from None


def build_report(run_dir: str) -> str:
    """Aggregate a run directory into one human-readable summary."""
    mpath = os.path.join(run_dir, "manifest.json")
    if not os.path.exists(mpath):
        raise DependencyError("report", "run",
                              f"no manifest.json under {run_dir}")
    n_fail = 0
    warnings = []
    with _run_file(mpath):
        manifest = RunManifest.load(mpath)
        lines = [f"run {manifest.config_hash[:12]} seed={manifest.seed}",
                 f"started {manifest.started}  finished {manifest.finished}",
                 ""]
        for st in manifest.stages:
            lines.append("stage %-17s %-8s %6.1fs"
                         % (st["name"], st["status"], st["runtime_s"]))
            if st["status"] == "failed":
                n_fail += 1
                lines.append("  diagnostic: " + st["diagnostic"])
    lines.append("")
    for fname in ("geometry_checks.csv", "collision_checks.csv"):
        path = os.path.join(run_dir, fname)
        if not os.path.exists(path):
            continue
        lines.append(fname)
        with _run_file(path), open(path) as fh:
            next(fh)
            for raw in fh:
                name, n, res, tol, status = raw.strip().split(",")
                if status != "pass":
                    n_fail += 1
                lines.append("  %-36s %-4s  max_residual %.3g (tol %.3g)"
                             % (name, status, float(res), float(tol)))
        lines.append("")
    lin = os.path.join(run_dir, "linearize_summary.json")
    if os.path.exists(lin):
        with _run_file(lin), open(lin) as fh:
            sm = json.load(fh)
            lines.append("finite-difference convergence:")
            for pair, err in zip(sm["pairs"], sm["errors"]):
                lines.append("  eps=(%.3g, %.3g)  max_err %.6g"
                             % (pair[0], pair[1], err))
            lines.append("  error estimate %.6g" % sm["est_total"])
        lines.append("")
    recs = os.path.join(run_dir, "reconstruct_summary.json")
    if os.path.exists(recs):
        with _run_file(recs), open(recs) as fh:
            sm = json.load(fh)
            lines.append("reconstruction (%d probes):" % sm["n_probes"])
            lines.append("  exponent winner: %s" % (sm["winner"],))
            if sm["winner"] is None:
                warnings.append("no exponent mode matches the extrapolated "
                                "values (winner None)")
            for mode in rc.EXPONENT_MODES:
                worst = max(sm["mismatch"][mode])
                lines.append("  mode %-20s worst relative mismatch %.3g"
                             % (mode, worst))
            warnings.extend(_unresolved_fd_etas(run_dir, sm))
        lines.append("")
    cross = os.path.join(run_dir, "fd_crosscheck.csv")
    if os.path.exists(cross):
        with _run_file(cross):
            rows = np.loadtxt(cross, delimiter=",", skiprows=1, ndmin=2)
            rel = rows[:, 4]
            lines.append("fd_crosscheck.csv (%d probes): rel_delta %.3g to "
                         "%.3g" % (rows.shape[0], rel.min(), rel.max()))
            bad = rows[rel > FD_CROSSCHECK_TOL, 0].astype(int)
        if bad.size:
            warnings.append("FD and direct routes disagree by more than %g "
                            "(rel_delta) on probe(s) %s" % (
                                FD_CROSSCHECK_TOL,
                                ", ".join(str(i) for i in bad)))
        lines.append("")
    for text in warnings:
        lines.append("warning: " + text)
    if n_fail:
        lines.append("overall: FAIL (%d problem%s)"
                     % (n_fail, "s" if n_fail != 1 else ""))
    else:
        lines.append("overall: all recorded checks pass, %d warning(s)"
                     % len(warnings))
    text = "\n".join(lines) + "\n"
    with open(os.path.join(run_dir, "summary.txt"), "w") as fh:
        fh.write(text)
    if "summary.txt" not in manifest.files:
        manifest.files.append("summary.txt")
        manifest.write(mpath)
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="boltzlab",
        description="config-driven pipeline for the kinetic inverse-problem "
                    "laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, _) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("config", help="path to a JSON config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
    p = sub.add_parser("report", help="summarize a completed run directory")
    p.add_argument("run_dir")
    args = parser.parse_args(argv)

    try:
        if args.command == "report":
            sys.stdout.write(build_report(args.run_dir))
            return 0
        cfg = load_config(args.config,
                          overrides={"seed": args.seed,
                                     "output_dir": args.out})
        stages = COMMANDS[args.command][1]
        if stages is not None:
            cfg = _with_stages(cfg, stages)
        manifest = run_config(cfg)
    except BoltzlabError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    ok = all(st["status"] in ("ok", "skipped") for st in manifest.stages)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

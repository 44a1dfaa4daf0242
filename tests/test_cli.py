"""Config layer and pipeline driver tests.

Everything here runs the real entry points on deliberately tiny grids; the
point is plumbing (validation, manifests, determinism, failure bookkeeping),
not numerical accuracy.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from boltzlab import reconstruct as rc
from boltzlab.cli import (COMMANDS, STAGE_ORDER, _generate_probes,
                          build_report, main, run_config)
from boltzlab.config import (DEFAULTS, config_from_dict, load_config,
                             save_config)
from boltzlab.errors import (BoltzlabError, ConfigurationError,
                             DependencyError)


def tiny(out_dir, stages, **sections):
    """Config dict sized for seconds-scale runs."""
    d = {
        "version": 1,
        "output_dir": str(out_dir),
        "grid": {"nx": 10, "nv": 10},
        "quadrature": {"sphere_order": 4, "radial_order": 2,
                       "angular_order": 4},
        "linearize": {"levels": 2, "n_samples": 3},
        "reconstruct": {"n_probes": 2, "etas": [0.4, 0.2], "nr": 6,
                        "na": 12, "nw": 12, "fd_crosscheck_probes": 0},
        "stages": {name: (name in stages) for name in STAGE_ORDER},
    }
    for key, val in sections.items():
        d.setdefault(key, {}).update(val)
    return d


def write_config(path, d):
    with open(path, "w") as fh:
        json.dump(d, fh)
    return str(path)


# ---------------------------------------------------------------------------
# config document
# ---------------------------------------------------------------------------

def test_defaults_round_trip_identity():
    cfg = config_from_dict({"version": 1})
    again = config_from_dict(json.loads(cfg.serialize()))
    assert again.data == cfg.data
    assert again.hash() == cfg.hash()


def test_hash_ignores_document_key_order():
    a = config_from_dict({"version": 1, "seed": 3, "output_dir": "x"})
    b = config_from_dict({"output_dir": "x", "version": 1, "seed": 3})
    assert a.hash() == b.hash()
    assert a.hash() != config_from_dict({"version": 1, "seed": 4}).hash()


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigurationError, match=r"solver\.tolx"):
        config_from_dict({"version": 1, "solver": {"tolx": 1e-8}})
    with pytest.raises(ConfigurationError, match=r"frobnicate"):
        config_from_dict({"version": 1, "frobnicate": True})
    with pytest.raises(ConfigurationError, match=r"solver\.engine"):
        config_from_dict({"version": 1, "solver": {"engine": "auto"}})
    with pytest.raises(ConfigurationError, match=r"grid\.extension"):
        config_from_dict({"version": 1, "grid": {"extension": "analytic"}})
    with pytest.raises(ConfigurationError, match=r"linearize\.order"):
        config_from_dict({"version": 1, "linearize": {"order": 24}})
    with pytest.raises(ConfigurationError,
                       match=r"unknown config key: reconstruct\.source_route"):
        config_from_dict({"version": 1,
                          "reconstruct": {"source_route": "direct"}})
    with pytest.raises(ConfigurationError,
                       match=r"unknown config key: domain\.lo"):
        config_from_dict({"version": 1, "domain": {"lo": [0.0, 0.0]}})
    with pytest.raises(ConfigurationError,
                       match=r"unknown config key: domain\.shape"):
        config_from_dict({"version": 1, "domain": {"shape": "box"}})


def test_committed_configs_load():
    configs = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    names = sorted(n for n in os.listdir(configs) if n.endswith(".json"))
    assert names
    for name in names:
        load_config(os.path.join(configs, name))


def test_default_config_is_the_defaults():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "default.json")
    assert load_config(path).data == config_from_dict(
        {"version": 1, "output_dir": "runs/default"}).data


def test_version_field_is_mandatory_and_checked():
    with pytest.raises(ConfigurationError, match="version"):
        config_from_dict({"seed": 0})
    with pytest.raises(ConfigurationError, match="unsupported"):
        config_from_dict({"version": 99})


def test_validation_rejects_bad_values():
    cases = [
        ({"grid": {"nx": 2}}, r"grid\.nx"),
        ({"kernel": {"family": "bogus"}}, r"kernel\.family"),
        ({"reconstruct": {"etas": [0.1, 0.4]}}, "decreasing"),
        ({"stages": {"forward": "yes"}}, "boolean"),
        # each of these used to escape as a plain Python error, or pass
        # until its stage ran
        ({"reconstruct": {"probe_seed": -1}}, r"reconstruct\.probe_seed"),
        ({"linearize": {"sample_seed": -3}}, r"linearize\.sample_seed"),
        ({"reconstruct": {"nw": 2.5}}, r"reconstruct\.nw"),
        ({"reconstruct": {"nr": 0}}, r"reconstruct\.nr"),
        ({"reconstruct": {"na": "20"}}, r"reconstruct\.na"),
        ({"inflow": {"center": ["east", 0.0]}}, r"inflow\.center"),
        ({"inflow": {"center": 1.0}}, r"inflow\.center"),
        ({"reconstruct": {"etas": [0.4, "0.2x"]}}, r"reconstruct\.etas"),
        ({"reconstruct": {"etas": [0.5, 0.2]}}, r"^reconstruct\.etas .*coarse"),
        ({"domain": {"radius": "one"}}, r"domain\.radius"),
        ({"domain": {"radius": -1}}, r"domain\.radius"),
        ({"domain": {"radius": 0}}, r"domain\.radius"),
        ({"grid": {"v_min": 1.9}}, r"^grid\.v_min "),
        ({"grid": {"nv": 5}}, r"^grid\.v_min "),
        ({"linearize": {"eps1": -1}}, r"^linearize\.eps1 "),
        ({"linearize": {"eps2": 0}}, r"^linearize\.eps2 "),
        # data the solver's smallness check would refuse mid-run
        ({"inflow": {"amplitude": 0.5}}, r"^inflow\.amplitude "),
        ({"linearize": {"eps1": 0.02, "eps2": 0.02}}, r"^linearize\.eps1 "),
        ({"grid": 3}, r"^grid "),
        ({"domain": {"dim": 2.0}}, r"domain\.dim"),
        ({"solver": {"tol": None}}, r"solver\.tol"),
        # a JSON true is a Python int, and a string or an infinity is not a
        # finite number
        ({"reconstruct": {"nr": True}}, r"reconstruct\.nr"),
        ({"version": True}, "unsupported"),
        ({"solver": {"tol": "inf"}}, r"solver\.tol"),
        ({"solver": {"tol": "1e-8"}}, r"solver\.tol"),
        (json.loads('{"solver": {"tol": Infinity}}'), r"solver\.tol"),
        ({"grid": {"R_v": 10**400}}, r"grid\.R_v"),
        # kernel parameters are checked against their family at parse time
        ({"kernel": {"params": {"value": "x"}}}, r"kernel\.params\.value"),
        ({"kernel": {"params": {"valu": 0.5}}}, r"kernel\.params\.valu"),
        ({"kernel": {"family": "hard_potential_like",
                     "params": {"gama": 0.9}}}, r"kernel\.params\.gama"),
        ({"kernel": {"family": "omega_independent_poly",
                     "params": {"coeffs": [1.0, True]}}},
         r"kernel\.params\.coeffs"),
        ({"kernel": {"params": [0.5]}}, r"kernel\.params"),
        # the default params are the constant family's
        ({"kernel": {"family": "gaussian_compact"}}, r"kernel\.params\.value"),
    ]
    for patch, pattern in cases:
        doc = {"version": 1}
        doc.update(patch)
        with pytest.raises(ConfigurationError, match=pattern):
            config_from_dict(doc)
    # data at the smallness threshold pass, as in the solver
    config_from_dict({"version": 1, "inflow": {"amplitude": 0.03},
                      "linearize": {"eps1": 0.015, "eps2": 0.015}})


def test_v_min_must_leave_residual_sample_speeds(tmp_path, capsys):
    # the residual samples draw speeds from [v_min + 2 h_v, 0.9 R_v]; on
    # the default axis (R_v = 2, 16 nodes, h_v = 4/15) v_min = 1.9 leaves
    # none, and the run stops at parse time, before any stage, naming the
    # key and with no traceback
    from boltzlab import solver

    out = tmp_path / "run"
    path = write_config(tmp_path / "c.json", {
        "version": 1, "output_dir": str(out), "grid": {"v_min": 1.9}})
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid.v_min ") and "Traceback" not in err
    assert not out.exists()
    # up to the bound the config parses, and its solver draws the samples
    grid = config_from_dict({"version": 1, "grid": {"v_min": 1.26}}
                            ).build_solver().grid
    speeds = np.linalg.norm(solver._residual_samples(grid)[1], axis=1)
    assert 1.26 + 2 * grid.h_v <= speeds.min() and speeds.max() <= 1.8
    with pytest.raises(ConfigurationError, match=r"^grid\.v_min "):
        config_from_dict({"version": 1, "grid": {"v_min": 1.27}})


def test_probe_generator_rejects_etas_by_scale_not_by_seed(tmp_path,
                                                          capsys):
    # at eta_max = 0.43 only some separation draws are long enough, and
    # those are kept; at 0.47 no draw in [1.3, 1.45] is.  Each refusal
    # names the config key that would lift it
    for seed in range(8):
        probes = _generate_probes(np.random.default_rng(seed), 5, 2, 0.43,
                                  2.0, 0.1)
        assert len(probes) == 5
        with pytest.raises(ConfigurationError,
                           match=r"^reconstruct\.etas .*coarse"):
            _generate_probes(np.random.default_rng(seed), 5, 2, 0.47, 2.0,
                             0.1)
    # v_min = 1.2 leaves a speed annulus no probe of the default etas fits
    with pytest.raises(ConfigurationError, match=r"^reconstruct\.n_probes "):
        _generate_probes(np.random.default_rng(0), 5, 2, 0.4, 2.0, 1.2)
    # through the CLI: the config is refused at load, before any stage
    # runs or the --out directory is made, with the key on stderr and no
    # traceback
    path = write_config(tmp_path / "c.json", {
        "version": 1, "reconstruct": {"etas": [0.5, 0.2]}})
    out = tmp_path / "run"
    assert main(["run", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: reconstruct.etas ") and "coarse" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_file_round_trip_and_overrides(tmp_path):
    path = write_config(tmp_path / "c.json", {"version": 1, "seed": 5})
    cfg = load_config(path)
    assert cfg.seed == 5

    # None-valued overrides are "not given", not "set to null"
    cfg = load_config(path, overrides={"seed": 9, "output_dir": None})
    assert cfg.seed == 9 and cfg.output_dir == "run_out"

    save_config(cfg, str(tmp_path / "back.json"))
    assert load_config(str(tmp_path / "back.json")).hash() == cfg.hash()


def test_load_config_failure_modes(tmp_path):
    with pytest.raises(ConfigurationError, match="not found"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError, match="JSON"):
        load_config(str(bad))
    # a directory and bytes that are not UTF-8 are named, not raised as
    # IsADirectoryError or UnicodeDecodeError
    raw = tmp_path / "raw.json"
    raw.write_bytes(b'{"version": 1, "output_dir": "\xff\xfe"}')
    for path in (tmp_path, raw):
        with pytest.raises(ConfigurationError,
                           match="^config file %s " % re.escape(str(path))):
            load_config(str(path))
    # a document that is not an object takes no override
    arr = tmp_path / "arr.json"
    for doc in ("[1, 2]", '"x"'):
        arr.write_text(doc)
        for overrides in ({"output_dir": "o"}, {"seed": 3}, None):
            with pytest.raises(ConfigurationError, match="JSON object"):
                load_config(str(arr), overrides=overrides)


# ---------------------------------------------------------------------------
# pipeline driver
# ---------------------------------------------------------------------------

def test_verify_only_run_writes_complete_manifest(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path / "c.json",
                        tiny(out, ("verify_geometry", "verify_collision")))
    assert main(["run", path]) == 0

    with open(out / "manifest.json") as fh:
        man = json.load(fh)
    assert [st["name"] for st in man["stages"]] == list(STAGE_ORDER)
    status = {st["name"]: st["status"] for st in man["stages"]}
    assert status["verify_geometry"] == "ok"
    assert status["verify_collision"] == "ok"
    assert status["forward"] == "skipped"
    # every recorded file exists, and nothing from disabled stages leaked out
    for name in man["files"]:
        assert (out / name).exists(), name
    assert not (out / "forward_field.csv").exists()
    assert man["config_hash"] == load_config(path).hash()


def test_zero_kernel_forward_trace_is_pure_transport(tmp_path):
    # with a vanishing kernel the boundary map is the identity on inflow
    # data, so every outgoing sample must equal the inflow profile at its
    # velocity
    out = tmp_path / "run"
    doc = tiny(out, ("forward",), kernel={"params": {"value": 0.0}},
               inflow={"amplitude": 0.02, "center": [0.9, -0.3],
                       "width": 0.5})
    path = write_config(tmp_path / "c.json", doc)
    assert main(["run", path]) == 0

    rows = np.loadtxt(out / "forward_trace.csv", delimiter=",", skiprows=1)
    V = rows[:, 2:4]
    r2 = np.sum((V - np.array([0.9, -0.3])) ** 2, axis=1)
    expected = 0.02 * np.exp(-((r2 / 0.5**2) ** 2))
    assert rows.shape[0] > 0
    assert np.max(np.abs(rows[:, 4] - expected)) < 1e-12


def test_identical_configs_give_identical_csvs(tmp_path):
    # the FD cross-check's solves are hashed too
    hashes = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        path = write_config(tmp_path / f"{tag}.json", tiny(
            out, ("verify_geometry", "verify_collision", "forward",
                  "linearize", "reconstruct"),
            reconstruct={"fd_crosscheck_probes": 2}))
        assert main(["run", path]) == 0
        digest = {}
        for name in sorted(os.listdir(out)):
            if name.endswith(".csv"):
                with open(out / name, "rb") as fh:
                    digest[name] = hashlib.sha256(fh.read()).hexdigest()
        hashes.append(digest)
    assert "fd_crosscheck.csv" in hashes[0]
    assert hashes[0].keys() == hashes[1].keys()
    assert hashes[0] == hashes[1]


def _tables_built_per_stage(monkeypatch, d):
    """Run the config dict d; per stage name, the number of velocities of
    each velocity table it builds, in order."""
    from boltzlab import cli
    from boltzlab.solver import _PicardTables

    built = []
    init = _PicardTables.__init__

    def counting_init(self, spec, rule, V):
        built.append(V.shape[0])
        init(self, spec, rule, V)

    per_stage = {}
    with monkeypatch.context() as mp:
        mp.setattr(_PicardTables, "__init__", counting_init)
        for name, func in list(cli.STAGE_FUNCS.items()):
            def counted(cfg, out, solver, func=func, name=name):
                before = len(built)
                try:
                    return func(cfg, out, solver)
                finally:
                    per_stage[name] = built[before:]
            mp.setitem(cli.STAGE_FUNCS, name, counted)
        run_config(config_from_dict(d))
    return per_stage


def test_run_builds_its_tables_once(tmp_path, monkeypatch):
    # every stage solves on the run's one Solver: the first stage that
    # solves builds its two velocity tables (the active v-nodes' and the
    # 64 residual samples'), and the later ones reuse them; the linearize
    # stage adds only the second-order source's tables at its 3 samples,
    # under the solver's rule and the refined one
    d = tiny(tmp_path / "run", STAGE_ORDER)
    d["reconstruct"]["fd_crosscheck_probes"] = 2
    n_active = config_from_dict(d).build_solver().grid.v_active_idx.size
    assert _tables_built_per_stage(monkeypatch, d) == {
        "verify_geometry": [], "verify_collision": [],
        "forward": [n_active, 64], "linearize": [3, 3], "reconstruct": []}

    # without a forward stage the linearize stage builds the S tables
    # first, then the Solver's two on its first solve
    d = tiny(tmp_path / "no_forward", ("linearize", "reconstruct"))
    d["reconstruct"]["fd_crosscheck_probes"] = 2
    assert _tables_built_per_stage(monkeypatch, d) == {
        "linearize": [3, 3, n_active, 64], "reconstruct": []}


def test_run_matches_separate_subcommands(tmp_path):
    # a run shares one Solver across its stages, and each subcommand builds
    # its own: the set-up does not depend on the data, so every CSV and
    # summary is the same bytes either way
    doc = tiny(tmp_path / "unused", STAGE_ORDER,
               reconstruct={"fd_crosscheck_probes": 2})
    path = write_config(tmp_path / "c.json", doc)
    whole, parts = tmp_path / "whole", tmp_path / "parts"
    assert main(["run", path, "--out", str(whole)]) == 0
    for sub in ("verify", "forward", "linearize", "reconstruct"):
        assert main([sub, path, "--out", str(parts)]) == 0
    def outputs(run):
        return sorted(n for n in os.listdir(run)
                      if n.endswith((".csv", "_summary.json")))

    names = outputs(whole)
    assert {"fd_crosscheck.csv", "linearize_summary.json",
            "reconstruct_summary.json"} <= set(names)
    assert outputs(parts) == names
    for name in names:
        assert (whole / name).read_bytes() == (parts / name).read_bytes(), \
            name


def test_reconstruct_stage_evaluates_the_probes_it_draws(tmp_path):
    # the default run's probes go into the experiment as drawn, with no
    # round trip through their data points (a, b, theta): each table entry
    # is bitwise mollified_S of the drawn velocities at that eta, the eta
    # the probes carry does not matter, and the FD cross-check's S_direct
    # is the direct value of the very probe the FD route solves on
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "default.json")
    cfg = load_config(path)
    solver = cfg.build_solver()
    rec = cfg.section("reconstruct")
    etas = tuple(rec["etas"])
    probes = _generate_probes(np.random.default_rng(rec["probe_seed"]),
                              rec["n_probes"], solver.grid.dim, etas[0],
                              solver.grid.R_v, solver.grid.v_min)
    assert len(probes) == 5
    orders = {"nr": rec["nr"], "na": rec["na"], "nw": rec["nw"]}
    report = rc.exponent_experiment(probes, solver.spec, etas=etas, **orders)
    for i, p in enumerate(probes):
        for j, eta in enumerate(etas):
            assert report.S_table[i, j] == rc.mollified_S(
                replace(p, eta=eta), solver.spec, **orders).S_eta
    other = rc.exponent_experiment([replace(p, eta=0.05) for p in probes],
                                   solver.spec, etas=etas, **orders)
    for name in ("S_table", "extrapolated", "slopes"):
        assert np.array_equal(getattr(other, name), getattr(report, name))
    for m in rc.EXPONENT_MODES:
        assert np.array_equal(other.closed_forms[m], report.closed_forms[m])
        assert np.array_equal(other.mismatch[m], report.mismatch[m])
    assert other.results == report.results
    assert other.winner_per_probe == report.winner_per_probe
    assert other.winner == report.winner

    out = tmp_path / "run"
    assert main(["reconstruct", path, "--out", str(out)]) == 0
    rows = np.loadtxt(out / "fd_crosscheck.csv", delimiter=",", skiprows=1)
    direct = [rc.mollified_S(p, solver.spec, **orders).S_eta for p in probes]
    assert rows[:, 2].tolist() == direct


def test_stage_failure_halts_and_is_recorded(tmp_path):
    # a unit-amplitude constant kernel violates the well-posedness gate on
    # this velocity box, so the forward stage must refuse to run
    out = tmp_path / "run"
    doc = tiny(out, ("forward", "linearize"),
               kernel={"params": {"value": 1000.0}})
    path = write_config(tmp_path / "c.json", doc)

    with pytest.raises(BoltzlabError):
        run_config(load_config(path))
    with open(out / "manifest.json") as fh:
        man = json.load(fh)
    names = [st["name"] for st in man["stages"]]
    assert names == ["verify_geometry", "verify_collision", "forward"]
    assert man["stages"][-1]["status"] == "failed"
    assert man["stages"][-1]["diagnostic"]
    assert man["finished"]


def test_report_aggregates_a_finished_run(tmp_path, capsys):
    out = tmp_path / "run"
    path = write_config(tmp_path / "c.json",
                        tiny(out, ("verify_geometry", "verify_collision")))
    assert main(["run", path]) == 0
    assert main(["report", str(out)]) == 0

    text = capsys.readouterr().out
    assert "all recorded checks pass" in text
    assert "momentum" in text and "chord" in text
    summary = out / "summary.txt"
    assert summary.exists() and summary.read_text() == text
    with open(out / "manifest.json") as fh:
        assert "summary.txt" in json.load(fh)["files"]


def test_report_warns_on_fd_crosscheck_and_missing_winner(tmp_path):
    # hand-written run directory: one probe beyond the 0.1 rel_delta
    # tolerance and no exponent winner give two warnings, not a failure
    run = tmp_path / "run"
    run.mkdir()
    manifest = {"config_hash": "0" * 64, "seed": 0, "started": "s",
                "finished": "f", "files": [],
                "stages": [{"name": "reconstruct", "status": "ok",
                            "runtime_s": 1.0, "files": [],
                            "diagnostic": "", "info": {}}]}
    (run / "manifest.json").write_text(json.dumps(manifest))
    summary = {"n_probes": 2, "winner": None,
               "mismatch": {"theorem_minus2": [0.5, 0.7],
                            "proposition_minus_n": [0.5, 0.7]}}
    (run / "reconstruct_summary.json").write_text(json.dumps(summary))
    (run / "fd_crosscheck.csv").write_text(
        "probe,eta,S_direct,S_fd,rel_delta\n"
        "0,0.4,1.0,1.05,0.05\n"
        "1,0.4,1.0,1.5,0.5\n")

    text = build_report(str(run))
    lines = text.splitlines()
    assert "fd_crosscheck.csv (2 probes): rel_delta 0.05 to 0.5" in lines
    warnings = [ln for ln in lines if ln.startswith("warning:")]
    assert len(warnings) == 2
    assert any("probe(s) 1" in ln for ln in warnings)
    assert any("winner None" in ln for ln in warnings)
    assert lines[-1] == "overall: all recorded checks pass, 2 warning(s)"

    # within tolerance and with a winner: no warning
    summary["winner"] = "theorem_minus2"
    (run / "reconstruct_summary.json").write_text(json.dumps(summary))
    (run / "fd_crosscheck.csv").write_text(
        "probe,eta,S_direct,S_fd,rel_delta\n0,0.4,1.0,1.05,0.05\n")
    text = build_report(str(run))
    assert "warning:" not in text
    assert text.splitlines()[-1] == \
        "overall: all recorded checks pass, 0 warning(s)"


def _run_dir_with_crosscheck(run, cfg):
    """Hand-written run directory of a run with an FD cross-check at
    etas[0], under the config cfg."""
    run.mkdir()
    manifest = {"config_hash": "0" * 64, "seed": 0, "started": "s",
                "finished": "f", "files": [], "stages": []}
    (run / "manifest.json").write_text(json.dumps(manifest))
    save_config(cfg, str(run / "config.json"))
    etas = cfg.section("reconstruct")["etas"]
    summary = {"n_probes": 1, "etas": etas,
               "winner": "theorem_minus2", "fd_crosscheck_probes": 1,
               "mismatch": {"theorem_minus2": [0.0],
                            "proposition_minus_n": [0.0]}}
    (run / "reconstruct_summary.json").write_text(json.dumps(summary))
    return build_report(str(run))


def test_report_warns_on_unresolved_fd_crosscheck_eta(tmp_path):
    # the cross-check uses etas[0] only: on the 10-node velocity grid
    # (h_v = 0.444) eta 0.4 is unresolved, and etas[1] = 0.2 is not named
    text = _run_dir_with_crosscheck(
        tmp_path / "tiny", config_from_dict(tiny(tmp_path, ())))
    warnings = [ln for ln in text.splitlines() if ln.startswith("warning:")]
    assert warnings == ["warning: FD probe bump eta 0.4 is below the "
                        "velocity spacing h_v 0.444; the FD route does not "
                        "resolve it"]
    # the default grid (h_v = 0.267) resolves the cross-check's eta 0.4
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "default.json")
    text = _run_dir_with_crosscheck(tmp_path / "default", load_config(path))
    assert "warning:" not in text
    # a config.json the check cannot load is named as such, not as the
    # summary that sent the report to it
    (tmp_path / "default" / "config.json").write_text("{")
    with pytest.raises(ConfigurationError, match="^config "):
        build_report(str(tmp_path / "default"))


def test_report_needs_a_manifest(tmp_path):
    with pytest.raises(DependencyError, match="manifest"):
        build_report(str(tmp_path))
    # what a run killed while writing its manifest leaves: the error names
    # the file, with no JSON or TypeError traceback
    mpath = tmp_path / "manifest.json"
    for text in ("{", "[]"):
        mpath.write_text(text)
        with pytest.raises(DependencyError, match=re.escape(str(mpath))):
            build_report(str(tmp_path))
    # files that parse but have the wrong shape: a stage record or a field
    # of the wrong type, and a summary without a key the report reads
    head = {"config_hash": "abc", "seed": 0, "started": ""}
    for doc in ({**head, "stages": [1]}, {**head, "config_hash": 5}):
        mpath.write_text(json.dumps(doc))
        with pytest.raises(DependencyError, match=re.escape(str(mpath))):
            build_report(str(tmp_path))
    mpath.write_text(json.dumps(head))
    lin = tmp_path / "linearize_summary.json"
    lin.write_text(json.dumps({"pairs": [[0.01, 0.01]], "est_total": 0.0}))
    with pytest.raises(DependencyError, match=re.escape(str(lin))):
        build_report(str(tmp_path))


def test_module_entry_point_runs_without_warning():
    # `python -m boltzlab.cli` runs cli as __main__; importing the package
    # must not have imported boltzlab.cli already, which runpy warns about
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                          "-m", "boltzlab.cli", "--help"], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "usage: boltzlab" in out.stdout


def test_cli_error_paths_exit_nonzero(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err

    bad = write_config(tmp_path / "bad.json",
                       {"version": 1, "grid": {"nx": 1}})
    assert main(["run", bad]) == 1
    assert capsys.readouterr().err.startswith("error: grid.nx ")

    # data the solver's smallness check would refuse are refused at load,
    # before any stage runs or the --out directory is made, naming the key
    for patch, key in (({"inflow": {"amplitude": 0.5}}, "inflow.amplitude"),
                       ({"linearize": {"eps1": 0.02, "eps2": 0.02}},
                        "linearize.eps1")):
        bad = write_config(tmp_path / "bad.json", {"version": 1, **patch})
        out = tmp_path / "run"
        assert main(["run", bad, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: %s " % key) and "Traceback" not in err
        assert not out.exists()

    # a file that is not a readable JSON object: one error line, no
    # traceback, and no --out directory, with or without override flags
    raw = tmp_path / "raw.json"
    raw.write_bytes(b"\xff\xfe{}")
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    out = tmp_path / "run"
    for path in (tmp_path, raw, arr):
        for flags in (["--out", str(out)], ["--seed", "5"], []):
            assert main(["run", str(path), *flags]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: config ") and err.count("\n") == 1
            assert "Traceback" not in err
            assert not out.exists()

    # an --out that is a regular file, or lies under one, cannot hold the
    # run: one error line naming output_dir
    afile = tmp_path / "afile"
    afile.write_text("")
    good = write_config(tmp_path / "good.json", tiny(out, ()))
    for target in (afile, afile / "run"):
        assert main(["run", good, "--out", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: output_dir ") and err.count("\n") == 1


def test_stage_lists_agree():
    # config cannot import cli, so the stage names are written in both;
    # each subcommand runs known stages
    assert tuple(DEFAULTS["stages"]) == STAGE_ORDER
    for _, stages in COMMANDS.values():
        assert stages is None or set(stages) <= set(STAGE_ORDER)


def test_subcommands_enable_only_their_stages(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path / "c.json", tiny(out, ()))
    assert main(["verify", path]) == 0
    with open(out / "manifest.json") as fh:
        status = {st["name"]: st["status"]
                  for st in json.load(fh)["stages"]}
    assert status["verify_geometry"] == "ok"
    assert status["verify_collision"] == "ok"
    assert all(status[name] == "skipped"
               for name in ("forward", "linearize", "reconstruct"))


def test_cli_flag_overrides_reach_the_manifest(tmp_path):
    out = tmp_path / "flagged"
    path = write_config(tmp_path / "c.json",
                        tiny(tmp_path / "ignored", ("verify_geometry",)))
    assert main(["run", path, "--seed", "42", "--out", str(out)]) == 0
    with open(out / "manifest.json") as fh:
        man = json.load(fh)
    assert man["seed"] == 42
    assert not (tmp_path / "ignored").exists()

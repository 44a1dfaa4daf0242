"""Config layer and pipeline driver tests.

Everything here runs the real entry points on deliberately tiny grids; the
point is plumbing (validation, manifests, determinism, failure bookkeeping),
not numerical accuracy.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from boltzlab.cli import STAGE_ORDER, build_report, main, run_config
from boltzlab.config import (config_from_dict, load_config, save_config)
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
        "linearize": {"levels": 2, "n_samples": 3, "order": 12},
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


def test_committed_configs_load():
    configs = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    names = sorted(n for n in os.listdir(configs) if n.endswith(".json"))
    assert names
    for name in names:
        load_config(os.path.join(configs, name))


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
        ({"reconstruct": {"source_route": "psychic"}}, "source_route"),
        ({"stages": {"forward": "yes"}}, "boolean"),
    ]
    for patch, pattern in cases:
        doc = {"version": 1}
        doc.update(patch)
        with pytest.raises(ConfigurationError, match=pattern):
            config_from_dict(doc)


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
    hashes = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        path = write_config(tmp_path / f"{tag}.json", tiny(
            out, ("verify_geometry", "verify_collision", "forward",
                  "linearize", "reconstruct")))
        assert main(["run", path]) == 0
        digest = {}
        for name in sorted(os.listdir(out)):
            if name.endswith(".csv"):
                with open(out / name, "rb") as fh:
                    digest[name] = hashlib.sha256(fh.read()).hexdigest()
        hashes.append(digest)
    assert hashes[0].keys() == hashes[1].keys()
    assert hashes[0] == hashes[1]


def test_each_solving_stage_builds_its_tables_once(tmp_path, monkeypatch):
    # the forward, linearize and reconstruct stages each share one set of
    # Picard tables across all their solves
    from boltzlab import cli
    from boltzlab.solver import _PicardTables

    built = []
    init = _PicardTables.__init__

    def counting_init(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_PicardTables, "__init__", counting_init)
    per_stage = {}
    for name, func in list(cli.STAGE_FUNCS.items()):
        def counted(cfg, out, func=func, name=name):
            before = len(built)
            try:
                return func(cfg, out)
            finally:
                per_stage[name] = len(built) - before
        monkeypatch.setitem(cli.STAGE_FUNCS, name, counted)

    d = tiny(tmp_path / "run", STAGE_ORDER)
    d["reconstruct"]["fd_crosscheck_probes"] = 2
    run_config(config_from_dict(d))
    assert per_stage == {"verify_geometry": 0, "verify_collision": 0,
                         "forward": 1, "linearize": 1, "reconstruct": 1}


def test_fd_route_requires_linearize_artifacts(tmp_path):
    out = tmp_path / "run"
    doc = tiny(out, ("reconstruct",),
               reconstruct={"source_route": "fd"})
    path = write_config(tmp_path / "c.json", doc)

    with pytest.raises(DependencyError, match="linearize"):
        run_config(load_config(path))
    # the manifest still lands, with the failure on record
    with open(out / "manifest.json") as fh:
        man = json.load(fh)
    rec = man["stages"][-1]
    assert rec["name"] == "reconstruct" and rec["status"] == "failed"
    assert "linearize" in rec["diagnostic"]

    assert main(["run", path]) == 1


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
    summary = {"route": "direct", "n_probes": 2, "winner": None,
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


def test_report_needs_a_manifest(tmp_path):
    with pytest.raises(DependencyError, match="manifest"):
        build_report(str(tmp_path))


def test_cli_error_paths_exit_nonzero(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err

    bad = write_config(tmp_path / "bad.json",
                       {"version": 1, "grid": {"nx": 1}})
    assert main(["run", bad]) == 1


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

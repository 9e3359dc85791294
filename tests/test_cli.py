import csv
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import clipbias
from clipbias import cli
from clipbias.cli import main
from clipbias.probes import ProjectionProbe, symmetry_score
from clipbias.problems import make_synthetic_mixture


def _run(*argv):
    return main([str(a) for a in argv])


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_no_command_is_config_error(capsys):
    assert _run() == 1
    assert _run("not-a-command") == 1


def test_calibrate_stdout(capsys):
    code = _run(
        "calibrate", "--epsilon", 1.0, "--delta", 0.36787944117144233,
        "--n", 10, "--T", 1, "--m", 10,
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sigma"] == pytest.approx(0.1, abs=1e-12)
    assert payload["epsilon_in_regime"] is True
    assert payload["sigma_squared"] == pytest.approx(0.01, abs=1e-12)


def test_calibrate_missing_required_flag():
    assert _run("calibrate", "--epsilon", 1.0) == 1


def test_examples_run_writes_outputs(tmp_path):
    out = tmp_path / "run"
    code = _run("examples", "--which", 2, "--steps", 300, "--out", out)
    assert code == 0
    summary = _read_json(out / "summary.json")
    assert 0.5 < summary["final_distance"] < 2.5  # random walk around 1.5
    with open(out / "trajectory.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "f", "grad_norm", "clipped_mean_norm", "distance_to_opt"]
    assert len(rows) == 302
    manifest = _read_json(out / "manifest.json")
    assert set(manifest["files"]) >= {"trajectory.csv", "summary.json", "metadata.json"}


def test_examples_unknown_name():
    assert _run("examples", "--which", "9") == 1


_BUDGET = ("--epsilon", 4, "--delta", 1e-5, "--n", 1000, "--T", 100, "--m", 10)


@pytest.mark.parametrize("argv", [
    ("examples", "--which", 2, "--steps", 5, "--samples", 7),
    ("diagnose", "--problem", "example1", "--steps", 4, "--probes", 1, "--samples", 7),
    ("calibrate", *_BUDGET, "--samples", 7),
    ("calibrate", *_BUDGET, "--seed", 7),
    ("wasserstein", "--samples", 7),
    ("wasserstein", "--seed", 7),
])
def test_flags_a_command_does_not_read_are_rejected(tmp_path, argv):
    pair = tmp_path / "pair.json"
    point = {"dim": 1, "atoms": [[2.0]], "weights": [1.0]}
    pair.write_text(json.dumps({"v": [1.0], "clip": 1.0, "p": point}))
    if argv[0] == "wasserstein":
        argv = (*argv, "--input", pair)
    assert _run(*argv, "--out", tmp_path / "run") == 1
    assert not (tmp_path / "run").exists()


def test_manifest_checksums_verify(tmp_path):
    out = tmp_path / "run"
    assert _run("examples", "--which", 2, "--steps", 50, "--out", out) == 0
    manifest = _read_json(out / "manifest.json")
    for name, digest in manifest["files"].items():
        blob = (out / name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 120, "seed": 5}))
    out = tmp_path / "run"
    code = _run("examples", "--which", 2, "--config", cfg, "--steps", 60, "--out", out)
    assert code == 0
    meta = _read_json(out / "metadata.json")
    eff = meta["effective_config"]
    assert eff["steps"] == 60  # flag beats file
    assert eff["seed"] == 5  # file beats default
    assert "timestamp_utc" in meta


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"stepz": 10}))
    assert _run("examples", "--which", 2, "--config", cfg, "--out", tmp_path / "r") == 1


@pytest.mark.parametrize("command,file_cfg,resolved", [
    ("examples", {"which": "2", "steps": 50}, {"alpha": 0.001}),
    # the steps default follows the problem the file names
    ("diagnose", {"problem": "example2", "probes": 1}, {"steps": 10000}),
    ("wasserstein", {"input": "pair.json"}, {}),
])
def test_config_file_may_name_every_option(tmp_path, monkeypatch, command, file_cfg, resolved):
    monkeypatch.chdir(tmp_path)
    point = {"dim": 1, "atoms": [[2.0]], "weights": [1.0]}
    (tmp_path / "pair.json").write_text(json.dumps({"v": [1.0], "clip": 1.0, "p": point}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(file_cfg))
    assert _run(command, "--config", cfg, "--out", tmp_path / "run") == 0
    eff = _read_json(tmp_path / "run" / "metadata.json")["effective_config"]
    assert {key: eff[key] for key in {**file_cfg, **resolved}} == {**file_cfg, **resolved}
    # a value given nowhere is still a configuration error
    cfg.write_text("{}")
    assert _run(command, "--config", cfg, "--out", tmp_path / "missing") == 1
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command,file_cfg", [
    ("table1", {"extended": "false"}),  # a switch takes true, not a string
    ("table2", {"seed": 1.7}),
    ("diagnose", {"problem": "example1", "probes": 1.9}),
    ("diagnose", {"problem": "example1", "wasserstein": "maybe"}),
    ("examples", {"which": "2", "config": "other.json"}),
    ("examples", {"which": "2", "step": 5}),  # a key names a whole flag
    ("examples", {"which": "2", "stepz": None}),
    ("table2", {"help": True}),
    ("diagnose", {"problem": "example1", "bins": 0}),  # no bins would score any cloud 0.0
    ("table1", {"dims": [0]}),
    ("table1", {"dims": [-3]}),
    ("diagnose", {"problem": "example1", "probes": -1}),
    ("table1", {"dims": []}),  # an empty grid would write a table of no rows
    ("table1", {"ks": []}),
    ("table2", {"norms": []}),
    # a count or a seed out of range is refused on its flag, before any run
    ("examples", {"which": "1", "steps": 0}),
    ("examples", {"which": "1", "batch": 0}),
    ("examples", {"which": "1", "seed": -1}),
    ("table1", {"samples": -1}),
    ("table1", {"seed": -1}),
    ("table2", {"samples": -1}),
    ("table2", {"seed": -1}),
    ("diagnose", {"problem": "example1", "steps": 0}),  # was alpha = 1/sqrt(0)
    ("diagnose", {"problem": "example1", "steps": -4}),
    ("diagnose", {"problem": "example1", "batch": 0}),
    ("diagnose", {"problem": "example1", "seed": -1}),
])
def test_ill_typed_config_values_are_rejected(tmp_path, capsys, command, file_cfg):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(file_cfg))
    assert _run(command, "--config", cfg, "--out", tmp_path / "run") == 1
    assert not (tmp_path / "run").exists()
    assert list(file_cfg)[-1] in capsys.readouterr().err  # the message names the bad key


def test_bare_config_flag_is_config_error(tmp_path):
    assert _run("examples", "--which", 2, "--out", tmp_path / "run", "--config") == 1
    assert not (tmp_path / "run").exists()


def test_config_lists_run_as_their_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    runs = [
        ({"which": "1", "steps": 100, "x0": [-1.5], "k": 2}, ("examples",),
         ("examples", "--which", 1, "--steps", 100, "--x0=-1.5", "--k", 2.0)),
        ({"problem": "synthetic-mixture", "steps": 20, "probes": 1,
          "x0": [-1, 0, 0.5, 0, 0, 0, 0, 0, 0, 2], "wasserstein": "off"}, ("diagnose",),
         ("diagnose", "--problem", "synthetic-mixture", "--steps", 20, "--probes", 1,
          "--x0=-1,0,0.5,0,0,0,0,0,0,2", "--wasserstein", "off")),
        ({"dims": [1, 10], "ks": [1, 10], "samples": 2000, "extended": False}, ("table1",),
         ("table1", "--dims", "1,10", "--ks", "1,10", "--samples", 2000)),
        ({"dims": [1], "ks": [1], "samples": 20, "extended": True}, ("table1",),
         ("table1", "--dims", 1, "--ks", 1, "--samples", 20, "--extended")),
    ]
    for idx, (file_cfg, from_file, flags) in enumerate(runs):
        cfg.write_text(json.dumps(file_cfg))
        a, b = tmp_path / f"file{idx}", tmp_path / f"flags{idx}"
        assert _run(*from_file, "--config", cfg, "--out", a) == 0
        assert _run(*flags, "--out", b) == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            if name not in ("metadata.json", "manifest.json"):
                assert (a / name).read_bytes() == (b / name).read_bytes(), name
        eff_a = _read_json(a / "metadata.json")["effective_config"]
        eff_b = _read_json(b / "metadata.json")["effective_config"]
        assert {**eff_a, "out": None} == {**eff_b, "out": None}
    # the switch adds d = 10000 and k = 1000 to the grid
    with open(a / "table1.csv") as fh:
        cells = [(row["d"], row["k"]) for row in csv.DictReader(fh)]
    assert cells == [("1", "1.0"), ("1", "1000.0"), ("10000", "1.0"), ("10000", "1000.0")]


def test_table1_small_grid(tmp_path):
    out = tmp_path / "t1"
    code = _run(
        "table1", "--dims", "1,10", "--ks", "1", "--samples", 20_000, "--out", out
    )
    assert code == 0
    with open(out / "table1.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["d", "k", "estimate", "std_error", "samples"]
    assert len(rows) == 3
    est = float(rows[1][2])
    assert est == pytest.approx(10.0, rel=0.02)


def test_table2_failure_exit_code(tmp_path, monkeypatch):
    import clipbias.cli as cli_mod
    from clipbias.diagnostics import CheckFailure

    def boom(*a, **kw):
        raise CheckFailure("estimate fell below the bound")

    monkeypatch.setattr(cli_mod, "symmetric_lower_bound", boom)
    out = tmp_path / "t2"
    code = _run("table2", "--norms", "1", "--samples", 1000, "--out", out)
    assert code == 2
    with open(out / "table2.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ["1.0", "", "", "", "", "fail"]


def test_diagnose_example2_ledger_is_zero_bias(tmp_path):
    out = tmp_path / "diag"
    code = _run(
        "diagnose", "--problem", "example2", "--steps", 256, "--probes", 2, "--out", out
    )
    assert code == 0
    with open(out / "ledger.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "grad_norm", "lhs", "b_t", "w_bound", "prob_term"]
    bias = {float(r[3]) for r in rows[1:]}
    assert bias == {0.0}
    summary = _read_json(out / "summary.json")
    assert summary["ledger"]["theorem_ok"] and summary["ledger"]["corollary_ok"]
    scatters = sorted(p.name for p in out.glob("scatter_seed*.csv"))
    assert len(scatters) == 2
    for name in ("hist_cosine.csv", "hist_grad_norm.csv", "hist_noise_norm.csv"):
        assert (out / name).exists()


def test_diagnose_problem_from_json_file(tmp_path):
    # n=1 degenerate instance: zero residual noise, ledger still passes
    spec = {"dim": 2, "atoms": [[0.5, -1.0]], "weights": [1.0]}
    src = tmp_path / "problem.json"
    src.write_text(json.dumps(spec))
    out = tmp_path / "diag"
    code = _run("diagnose", "--problem", src, "--steps", 64, "--probes", 1, "--out", out)
    assert code == 0
    summary = _read_json(out / "summary.json")
    assert summary["ledger"]["corollary_ok"]
    assert summary["ledger"]["mean_bias"] == 0.0
    assert summary["probe_symmetry"] == {}  # one sample: nothing to score


def test_diagnose_probes_the_ledgers_residual_cloud(tmp_path, monkeypatch):
    # The residual_origin probes project noise_residuals(), the cloud the
    # ledger audits, and not the final iterate's rows minus their mean,
    # which differ from it in the last bits.
    projected = []
    real = cli.project2d

    def recording(points, probe):
        projected.append(np.asarray(points))
        return real(points, probe)

    monkeypatch.setattr(cli, "project2d", recording)
    out = tmp_path / "diag"
    code = _run("diagnose", "--problem", "synthetic-mixture", "--steps", 20, "--probes", 2,
                "--wasserstein", "off", "--out", out)
    assert code == 0
    atoms = make_synthetic_mixture(seed=0).noise_residuals().atoms
    assert sum(points.tobytes() == atoms.tobytes() for points in projected) == 2
    scores = _read_json(out / "summary.json")["probe_symmetry"]
    assert len(scores) == 2
    for seed, score in scores.items():
        probe = ProjectionProbe.random(10, int(seed))
        assert score["residual_origin"] == symmetry_score(real(atoms, probe), bins=50)


def test_wasserstein_command(tmp_path):
    payload = {
        "v": [1.0],
        "clip": 1.0,
        "p": {"dim": 1, "atoms": [[4.0], [4.0], [-8.0]], "weights": [1 / 3, 1 / 3, 1 / 3]},
    }
    src = tmp_path / "pair.json"
    src.write_text(json.dumps(payload))
    out = tmp_path / "w"
    assert _run("wasserstein", "--input", src, "--out", out) == 0
    report = _read_json(out / "wasserstein.json")
    assert report["wasserstein"] == pytest.approx(1 / 3, abs=1e-12)
    assert report["bias"] == pytest.approx(1 / 3, abs=1e-12)
    assert report["q_is_symmetrized_p"] is True
    assert all(report["checks"].values())


def test_wasserstein_malformed_input(tmp_path):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"v": [1.0]}))
    assert _run("wasserstein", "--input", src, "--out", tmp_path / "w") == 1
    missing = tmp_path / "nope.json"
    assert _run("wasserstein", "--input", missing, "--out", tmp_path / "w2") == 1


def test_wasserstein_dimension_mismatch(tmp_path, capsys):
    payload = {"v": [1.0, 2.0], "clip": 1.0, "p": {"dim": 1, "atoms": [[4.0], [-8.0]],
                                                     "weights": [0.5, 0.5]}}
    src = tmp_path / "pair.json"
    src.write_text(json.dumps(payload))
    assert _run("wasserstein", "--input", src, "--out", tmp_path / "w") == 1
    assert "noise dim 1 does not match gradient dim 2" in capsys.readouterr().err


def test_replay_is_byte_identical(tmp_path):
    for args, skip in [
        (("examples", "--which", "1", "--steps", 200, "--k", "2.0"), ()),
        (("table2", "--norms", "0.1,1", "--samples", 5000), ()),
        (("diagnose", "--problem", "example1", "--steps", 128, "--probes", 2), ()),
    ]:
        out_a = tmp_path / (args[0] + "_a")
        out_b = tmp_path / (args[0] + "_b")
        assert _run(*args, "--out", out_a) == 0
        assert _run(*args, "--out", out_b) == 0
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        assert names_a == names_b
        for name in names_a:
            if name in ("metadata.json", "manifest.json"):
                continue  # carry the timestamp (directly or via checksum)
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def _child_env(**extra):
    # the child runs the package this suite imports, installed or not
    package_root = os.path.dirname(os.path.dirname(clipbias.__file__))
    path = [package_root] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), **extra}


def test_replay_does_not_depend_on_the_blas_thread_count(tmp_path):
    # Exact sums over the 10 000-atom mixture cloud: a threaded BLAS dot or
    # GEMV would round them by how it splits the work.
    problem = make_synthetic_mixture()
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({
        "v": [float(t) for t in problem.full_gradient(np.zeros(problem.dim))],
        "clip": 1.0,
        "p": problem.noise_residuals().to_json_dict(),
    }))
    for args in [
        ("diagnose", "--problem", "synthetic-mixture", "--steps", "150", "--wasserstein", "on"),
        ("wasserstein", "--input", str(pair)),
    ]:
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{args[0]}_{threads}"
            res = subprocess.run(
                [sys.executable, "-m", "clipbias", *args, "--out", str(out)],
                capture_output=True, text=True, env=_child_env(OPENBLAS_NUM_THREADS=threads),
            )
            assert res.returncode == 0, res.stderr
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            if name in ("metadata.json", "manifest.json"):
                continue  # carry the timestamp (directly or via checksum)
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_module_entry_point(tmp_path):
    res = subprocess.run(
        [sys.executable, "-m", "clipbias", "calibrate", "--epsilon", "1", "--delta",
         "0.1", "--n", "100", "--T", "10", "--m", "10"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert res.returncode == 0
    assert "sigma" in res.stdout

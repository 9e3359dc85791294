"""Reproducible experiment runner.

Subcommands: examples, table1, table2, diagnose, calibrate,
wasserstein. Each run reads an optional JSON config file, applies flag
overrides, writes deterministic data files plus a metadata echo of the
effective configuration, and finishes with a manifest listing every
emitted file with a sha256 checksum. Re-running a command with the
same config reproduces every data file byte for byte. Two files differ:
metadata.json holds a timestamp, and manifest.json lists the checksum
of metadata.json.

Exit codes: 0 when all embedded checks pass, 2 when the run completed
but an embedded inequality check failed (the report is still written),
1 on configuration or runtime errors.
"""

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np
import scipy

from . import __version__
from ._files import json_text, write_csv
from .diagnostics import (
    CheckFailure,
    clipping_bias,
    descent_ledger,
    expected_clipped_inner,
    symmetric_lower_bound,
    wasserstein_clip,
)
from .noise import Empirical, IsotropicGaussian, SeededStream, perturb, symmetrize
from .optimizers import OptimizerConfig, clipped_sgd, dp_sgd_perturbed
from .privacy import PrivacyBudget, calibrate_sigma, check_epsilon_regime
from .problems import QuadraticProblem, problem_by_name
from .probes import ProjectionProbe, cosine_histogram, gradient_ensemble_stats, project2d, symmetry_score


class CliError(Exception):
    """Configuration problem: bad flags, malformed config, unknown names."""


# ---------------------------------------------------------------- output


class RunWriter:
    """Collects emitted files and finalizes metadata + manifest."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.names = []

    def path(self, name):
        self.names.append(name)
        return os.path.join(self.out_dir, name)

    def write_json(self, name, payload):
        with open(self.path(name), "w") as fh:
            fh.write(json_text(payload))

    def finalize(self, command, config, argv):
        self.write_json("metadata.json", {
            "command": command,
            "timestamp_utc": datetime.now(timezone.utc).isoformat(),
            "argv": list(argv),
            "effective_config": config,
            "versions": {
                "artifact": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
        })
        checksums = {}
        for name in sorted(self.names):
            with open(os.path.join(self.out_dir, name), "rb") as fh:
                checksums[name] = hashlib.sha256(fh.read()).hexdigest()
        # written last, so it does not list itself
        self.write_json("manifest.json", {"command": command, "files": checksums})


# ---------------------------------------------------------------- config


def _merge_config(args, defaults):
    """defaults <- config file <- explicit flags."""
    cfg = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config file {config_path}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise CliError(f"config file {config_path} must hold a JSON object")
        for key in file_cfg:
            if key not in cfg:
                raise CliError(f"unknown config key {key!r}; known keys: {sorted(cfg)}")
        cfg.update(file_cfg)
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _floats_arg(text):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {text!r}") from exc


def _ints_arg(text):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _load_problem(spec, seed):
    """Named problem or a path to a problem JSON (centers as atoms)."""
    try:
        return problem_by_name(spec, seed=seed)
    except ValueError:
        if os.path.exists(spec):
            with open(spec) as fh:
                return QuadraticProblem.from_json_dict(json.load(fh))
        raise CliError(
            f"unknown problem {spec!r}: not a registered name and not a JSON file"
        ) from None


def _default_x0(problem, name):
    if name == "example1":
        return [1.0]
    if name == "example2":
        return [1.5]
    if name == "synthetic-mixture":
        return [0.0] * problem.dim
    off = 1.0 / np.sqrt(problem.dim)
    return [float(v + off) for v in problem.optimum]


# ---------------------------------------------------------------- commands


_EXAMPLES_KEYS = {
    "1": ("example1", dict(alpha=0.001, steps=20000)),
    "2": ("example2", dict(alpha=0.001, steps=20000)),
    "synthetic": ("synthetic-mixture", dict(alpha=0.015, steps=2000)),
}


def cmd_examples(args, argv):
    defaults = dict(
        which=None, clip=1.0, sigma=1.0, k=0.0, seed=0, batch=None, x0=None,
        out=None, alpha=None, steps=None,
    )
    cfg = _merge_config(args, defaults)
    if cfg["which"] is None:
        raise CliError("examples requires --which (1, 2 or synthetic)")
    if cfg["which"] not in _EXAMPLES_KEYS:
        raise CliError(f"unknown experiment {cfg['which']!r}; choose 1, 2 or synthetic")
    name, specific = _EXAMPLES_KEYS[cfg["which"]]
    for key, value in specific.items():
        if cfg[key] is None:
            cfg[key] = value
    out_dir = _require_out(cfg)
    problem = problem_by_name(name, seed=cfg["seed"])
    if cfg["x0"] is None:
        cfg["x0"] = _default_x0(problem, name)
    opt = OptimizerConfig(
        alpha=cfg["alpha"], clip=cfg["clip"], steps=int(cfg["steps"]), x0=cfg["x0"],
        batch=cfg["batch"], sigma=cfg["sigma"], k=cfg["k"], seed=int(cfg["seed"]),
    )
    traj = dp_sgd_perturbed(problem, opt)
    writer = RunWriter(out_dir)
    traj.to_csv(writer.path("trajectory.csv"))
    writer.write_json("summary.json", {
        "experiment": name,
        "final_point": [float(v) for v in traj.iterates[-1]],
        "final_distance": traj.final_distance(),
        "optimum": [float(v) for v in problem.optimum],
        "sigma": traj.sigma,
        "k": cfg["k"],
    })
    writer.finalize("examples", cfg, argv)
    return []


def cmd_table1(args, argv):
    defaults = dict(
        dims=[1, 10, 100, 1000], ks=[1, 10, 100], samples=100000, seed=0,
        clip=1.0, vnorm=10.0, extended=False, out=None,
    )
    cfg = _merge_config(args, defaults)
    if cfg["extended"]:
        cfg["dims"] = sorted(set(cfg["dims"]) | {10000})
        cfg["ks"] = sorted(set(cfg["ks"]) | {1000})
    out_dir = _require_out(cfg)
    dims = [int(d) for d in cfg["dims"] for _ in cfg["ks"]]
    ks = [float(k) for _ in cfg["dims"] for k in cfg["ks"]]
    cells = np.empty((len(dims), 2))  # estimate, std_error
    for i, (d, k) in enumerate(zip(dims, ks)):
        v = np.zeros(d)
        v[0] = cfg["vnorm"]
        cells[i] = expected_clipped_inner(
            v, perturb(Empirical(np.zeros((1, d))), k), cfg["clip"],
            stream=SeededStream(int(cfg["seed"]), i),
            mc_samples=int(cfg["samples"]),
        )
    writer = RunWriter(out_dir)
    write_csv(
        writer.path("table1.csv"), ["d", "k", "estimate", "std_error", "samples"],
        [dims, ks, cells[:, 0], cells[:, 1], np.full(len(dims), int(cfg["samples"]))],
    )
    writer.finalize("table1", cfg, argv)
    return []


def cmd_table2(args, argv):
    defaults = dict(
        norms=[0.05, 0.1, 1.0, 2.0, 10.0, 100.0], samples=100000, seed=0,
        clip=1.0, out=None,
    )
    cfg = _merge_config(args, defaults)
    out_dir = _require_out(cfg)
    model = IsotropicGaussian(1.0, 1)
    norms = [float(nv) for nv in cfg["norms"]]
    cells = np.full((len(norms), 4), np.nan)  # a failed row stays blank
    checks = []
    failures = []
    for i, nv in enumerate(norms):
        try:
            rep = symmetric_lower_bound(
                [nv], model, cfg["clip"], stream=SeededStream(int(cfg["seed"]), i),
                mc_samples=int(cfg["samples"]),
            )
        except CheckFailure as exc:
            failures.append(str(exc))
            checks.append("fail")
            continue
        cells[i] = rep.estimate, rep.std_error, rep.lower_bound, rep.prob_term
        checks.append("pass")
    writer = RunWriter(out_dir)
    write_csv(
        writer.path("table2.csv"),
        ["grad_norm", "estimate", "std_error", "lower_bound", "prob_term", "check"],
        [norms, *cells.T, checks],
    )
    writer.finalize("table2", cfg, argv)
    return failures


def cmd_diagnose(args, argv):
    defaults = dict(
        problem=None, steps=None, batch=1, clip=1.0,
        seed=0, alpha=None, x0=None, probes=8, bins=50,
        wasserstein="auto", out=None,
    )
    cfg = _merge_config(args, defaults)
    if cfg["problem"] is None:
        raise CliError("diagnose requires --problem (example1, example2, synthetic-mixture, or a JSON file)")
    if cfg["steps"] is None:
        cfg["steps"] = 2000 if cfg["problem"] == "synthetic-mixture" else 10000
    out_dir = _require_out(cfg)
    problem = _load_problem(cfg["problem"], int(cfg["seed"]))
    steps = int(cfg["steps"])
    alpha = cfg["alpha"] if cfg["alpha"] is not None else 1.0 / np.sqrt(steps)
    x0 = cfg["x0"] if cfg["x0"] is not None else _default_x0(problem, cfg["problem"])
    batch = cfg["batch"]
    if batch is not None:
        batch = min(int(batch), problem.n)
    # echo the resolved values so metadata alone can replay the run
    cfg.update(alpha=float(alpha), x0=[float(t) for t in x0], batch=batch)
    opt = OptimizerConfig(
        alpha=float(alpha), clip=cfg["clip"], steps=steps, x0=x0,
        batch=batch, sigma=0.0, k=0.0, seed=int(cfg["seed"]),
    )
    traj = clipped_sgd(problem, opt)
    want_w = {"auto": None, "on": True, "off": False}[str(cfg["wasserstein"])]
    ledger = descent_ledger(traj, wasserstein=want_w)

    writer = RunWriter(out_dir)
    ledger.to_csv(writer.path("ledger.csv"))

    final = traj.iterates[-1]
    rows = problem.batch_gradients(final)
    ref = problem.full_gradient(final)
    residuals = rows - ref[None, :]
    probe_scores = {}
    for i in range(int(cfg["probes"])):
        probe_seed = int(cfg["seed"]) * 1000 + i
        probe = ProjectionProbe.random(problem.dim, probe_seed)
        points = project2d(rows, probe)
        write_csv(writer.path(f"scatter_seed{probe_seed}.csv"), ["x", "y"], points.T)
        if len(points) >= 2:  # a single-sample ensemble has no symmetry to score
            probe_scores[str(probe_seed)] = {
                "residual_origin": symmetry_score(
                    project2d(residuals, probe), bins=int(cfg["bins"])
                ),
                "gradient_mean": symmetry_score(points, bins=int(cfg["bins"]), mode="mean"),
            }
    cos_hist = cosine_histogram(rows, ref, bins=int(cfg["bins"]))
    cos_hist.to_csv(writer.path("hist_cosine.csv"))
    stats = gradient_ensemble_stats(rows, ref, cfg["clip"], bins=int(cfg["bins"]))
    for name, hist in stats.histograms().items():
        hist.to_csv(writer.path(f"hist_{name}.csv"))

    writer.write_json("summary.json", {
        "problem": cfg["problem"],
        "final_distance": traj.final_distance(),
        "ledger": {
            "rhs_bound": ledger.rhs_bound,
            "mean_lhs": ledger.mean_lhs,
            "mean_bias": ledger.mean_bias,
            "std_error": ledger.std_error,
            "prob_term": ledger.prob_term,
            "theorem_ok": ledger.theorem_ok,
            "corollary_ok": ledger.corollary_ok,
            "wasserstein_ok": ledger.wasserstein_ok,
        },
        "probe_symmetry": probe_scores,
        "fraction_noise_below_quarter_clip": stats.fraction_noise_below_quarter_clip,
        "mean_inner": stats.mean_inner,
        "ensemble_size": stats.count,
    })
    writer.finalize("diagnose", cfg, argv)
    if not ledger.passed:
        return [
            f"descent ledger check failed: theorem_ok={ledger.theorem_ok} "
            f"corollary_ok={ledger.corollary_ok} wasserstein_ok={ledger.wasserstein_ok}"
        ]
    return []


def cmd_calibrate(args, argv):
    defaults = dict(
        epsilon=None, delta=None, n=None, T=None, m=None,
        uconst=1.0, vconst=1.0, clip=1.0, out=None,
    )
    cfg = _merge_config(args, defaults)
    for key in ("epsilon", "delta", "n", "T", "m"):
        if cfg[key] is None:
            raise CliError(f"calibrate requires --{key}")
    try:
        budget = PrivacyBudget(
            epsilon=float(cfg["epsilon"]), delta=float(cfg["delta"]),
            n=int(cfg["n"]), T=int(cfg["T"]), m=int(cfg["m"]),
            u=float(cfg["uconst"]), v=float(cfg["vconst"]),
        )
        sigma = calibrate_sigma(budget, float(cfg["clip"]))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    payload = {
        "epsilon": budget.epsilon,
        "delta": budget.delta,
        "n": budget.n,
        "T": budget.T,
        "m": budget.m,
        "u": budget.u,
        "v": budget.v,
        "clip": float(cfg["clip"]),
        "sigma": sigma,
        "sigma_squared": sigma * sigma,
        "epsilon_in_regime": check_epsilon_regime(budget),
    }
    if cfg["out"]:
        writer = RunWriter(cfg["out"])
        writer.write_json("calibration.json", payload)
        writer.finalize("calibrate", cfg, argv)
    else:
        sys.stdout.write(json_text(payload))
    return []


def cmd_wasserstein(args, argv):
    cfg = _merge_config(args, dict(input=None, clip=None, out=None))
    if cfg["input"] is None:
        raise CliError("wasserstein requires --input FILE")
    out_dir = _require_out(cfg)
    try:
        with open(cfg["input"]) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read input {cfg['input']}: {exc}") from exc
    try:
        v = [float(t) for t in payload["v"]]
        p = Empirical.from_json_dict(payload["p"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"malformed input file: {exc}") from exc
    c = cfg["clip"] if cfg["clip"] is not None else payload.get("clip")
    if c is None:
        raise CliError("clip threshold missing: set \"clip\" in the input file or pass --clip")
    c = float(c)
    symmetrized_default = "q" not in payload
    q = symmetrize(p) if symmetrized_default else Empirical.from_json_dict(payload["q"])

    w = wasserstein_clip(v, c, p, q)
    w_qp = wasserstein_clip(v, c, q, p)
    w_self = wasserstein_clip(v, c, p, p)
    bias = clipping_bias(v, p, q, c)
    cap = c * float(np.linalg.norm(v))
    checks = {
        "nonnegative": bool(w >= -1e-12),
        "self_distance_zero": bool(w_self <= 1e-12),
        "symmetric_arguments": bool(abs(w - w_qp) <= 1e-12 * max(1.0, w)),
        "bias_within_distance": bool(abs(bias) <= w + 1e-10),
        "range_cap": bool(w <= 2.0 * cap + 1e-9),
    }
    if symmetrized_default:
        checks["symmetrized_cap"] = bool(w <= cap + 1e-9)
    writer = RunWriter(out_dir)
    writer.write_json("wasserstein.json", {
        "v": v,
        "clip": c,
        "wasserstein": w,
        "bias": bias,
        "q_is_symmetrized_p": symmetrized_default,
        "checks": checks,
    })
    writer.finalize("wasserstein", cfg, argv)
    return [f"check {name} failed" for name, ok in checks.items() if not ok]


def _require_out(cfg):
    if not cfg.get("out"):
        raise CliError("this command writes files; pass --out DIR")
    return cfg["out"]


# ---------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _build_parser():
    parser = _Parser(prog="clipbias", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p):
        p.add_argument("--out")
        p.add_argument("--config")
        p.add_argument("--clip", type=float)

    p = sub.add_parser("examples", help="run the divergence/correction demos")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--which", help="1, 2 or synthetic")
    p.add_argument("--alpha", type=float)
    p.add_argument("--k", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--x0", type=_floats_arg)
    p.set_defaults(handler=cmd_examples)

    p = sub.add_parser("table1", help="perturbed clipped-inner grid")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--dims", type=_ints_arg)
    p.add_argument("--ks", type=_floats_arg)
    p.add_argument("--vnorm", type=float)
    p.add_argument("--extended", action="store_true", default=None)
    p.set_defaults(handler=cmd_table1)

    p = sub.add_parser("table2", help="symmetric lower-bound check table")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--norms", type=_floats_arg)
    p.set_defaults(handler=cmd_table2)

    p = sub.add_parser("diagnose", help="trajectory ledger plus ensemble probes")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--problem")
    p.add_argument("--alpha", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--x0", type=_floats_arg)
    p.add_argument("--probes", type=int)
    p.add_argument("--bins", type=int)
    p.add_argument("--wasserstein", choices=["auto", "on", "off"])
    p.set_defaults(handler=cmd_diagnose)

    p = sub.add_parser("calibrate", help="noise scale for a privacy budget")
    common(p)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--T", type=int, dest="T")
    p.add_argument("--m", type=int)
    p.add_argument("--uconst", type=float)
    p.add_argument("--vconst", type=float)
    p.set_defaults(handler=cmd_calibrate)

    p = sub.add_parser("wasserstein", help="transport distance for a model pair")
    common(p)
    p.add_argument("--input")
    p.set_defaults(handler=cmd_wasserstein)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "handler", None) is None:
            raise CliError("missing command; try --help")
        failures = args.handler(args, argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, KeyError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if failures:
        for line in failures:
            print(f"check failed: {line}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

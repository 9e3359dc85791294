"""Reproducible experiment runner.

Subcommands: examples, table1, table2, diagnose, calibrate,
wasserstein. Each option is declared once, on its flag: its type,
choices, default, and whether it is required. A ``--config`` JSON file
is read as the flags it names (``{"steps": 60}`` is ``--steps=60``), so
its values pass the same checks; explicit flags override it. Each run
writes deterministic data files plus a metadata echo of the effective
configuration, and finishes with a manifest listing every emitted file
with a sha256 checksum. Re-running a command with the same config
reproduces every data file byte for byte. Two files differ:
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
from .vectors import norm


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


def _config_argv(path):
    """The flags a JSON config file names: its keys and one ``--key=value``
    token per flag.

    A list is comma-joined, ``true`` is a bare switch, and ``false`` or
    ``null`` leave the flag at its default. One token per flag keeps a
    value that starts with a minus sign, such as ``[-1, 0]``, from being
    read as a flag of its own.
    """
    try:
        with open(path) as fh:
            file_cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(file_cfg, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    tokens = []
    for key, value in file_cfg.items():
        if "help".startswith(key):  # --help would print and exit 0, not run
            raise CliError(f"unknown config key {key!r}")
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        if value is True:
            tokens.append(f"--{key}")
        elif value is not False and value is not None:
            tokens.append(f"--{key}={value}")
    return list(file_cfg), tokens


def _floats_arg(text):
    try:
        return _nonempty([float(tok) for tok in text.split(",") if tok.strip() != ""], text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {text!r}") from exc


def _nonempty(values, text):
    """The values of a list flag; an empty grid would run as an empty table."""
    if not values:  # argparse names the flag in the message
        raise argparse.ArgumentTypeError(f"expected at least one value, got {text!r}")
    return values


def _count_arg(low):
    """An argparse type: an integer of at least ``low``."""

    def count(text):
        if int(text) < low:  # argparse reports a ValueError as an invalid value
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)

    return count


def _dims_arg(text):
    """Comma-separated dimensions, each an integer >= 1."""
    try:
        return _nonempty([_count_arg(1)(tok) for tok in text.split(",") if tok.strip() != ""], text)
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


_EXAMPLES = {
    "1": ("example1", dict(alpha=0.001, steps=20000)),
    "2": ("example2", dict(alpha=0.001, steps=20000)),
    "synthetic": ("synthetic-mixture", dict(alpha=0.015, steps=2000)),
}
_TRANSPORT = {"auto": None, "on": True, "off": False}


def cmd_examples(cfg, argv):
    name, specific = _EXAMPLES[cfg["which"]]
    for key, value in specific.items():
        if cfg[key] is None:
            cfg[key] = value
    problem = problem_by_name(name, seed=cfg["seed"])
    if cfg["x0"] is None:
        cfg["x0"] = _default_x0(problem, name)
    opt = OptimizerConfig(
        alpha=cfg["alpha"], clip=cfg["clip"], steps=cfg["steps"], x0=cfg["x0"],
        batch=cfg["batch"], sigma=cfg["sigma"], k=cfg["k"], seed=cfg["seed"],
    )
    traj = dp_sgd_perturbed(problem, opt)
    writer = RunWriter(cfg["out"])
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


def cmd_table1(cfg, argv):
    if cfg["extended"]:
        cfg["dims"] = sorted(set(cfg["dims"]) | {10000})
        cfg["ks"] = sorted(set(cfg["ks"]) | {1000})
    dims = [d for d in cfg["dims"] for _ in cfg["ks"]]
    ks = [float(k) for _ in cfg["dims"] for k in cfg["ks"]]
    cells = np.empty((len(dims), 2))  # estimate, std_error
    for i, (d, k) in enumerate(zip(dims, ks)):
        v = np.zeros(d)
        v[0] = cfg["vnorm"]
        cells[i] = expected_clipped_inner(
            v, perturb(Empirical(np.zeros((1, d))), k), cfg["clip"],
            stream=SeededStream(cfg["seed"], i), mc_samples=cfg["samples"],
        )
    writer = RunWriter(cfg["out"])
    write_csv(
        writer.path("table1.csv"), ["d", "k", "estimate", "std_error", "samples"],
        [dims, ks, cells[:, 0], cells[:, 1], np.full(len(dims), cfg["samples"])],
    )
    writer.finalize("table1", cfg, argv)
    return []


def cmd_table2(cfg, argv):
    model = IsotropicGaussian(1.0, 1)
    norms = cfg["norms"]
    cells = np.full((len(norms), 4), np.nan)  # a failed row stays blank
    checks = []
    failures = []
    for i, nv in enumerate(norms):
        try:
            rep = symmetric_lower_bound(
                [nv], model, cfg["clip"], stream=SeededStream(cfg["seed"], i),
                mc_samples=cfg["samples"],
            )
        except CheckFailure as exc:
            failures.append(str(exc))
            checks.append("fail")
            continue
        cells[i] = rep.estimate, rep.std_error, rep.lower_bound, rep.prob_term
        checks.append("pass")
    writer = RunWriter(cfg["out"])
    write_csv(
        writer.path("table2.csv"),
        ["grad_norm", "estimate", "std_error", "lower_bound", "prob_term", "check"],
        [norms, *cells.T, checks],
    )
    writer.finalize("table2", cfg, argv)
    return failures


def cmd_diagnose(cfg, argv):
    if cfg["steps"] is None:
        cfg["steps"] = 2000 if cfg["problem"] == "synthetic-mixture" else 10000
    problem = _load_problem(cfg["problem"], cfg["seed"])
    if cfg["alpha"] is None:
        cfg["alpha"] = float(1.0 / np.sqrt(cfg["steps"]))
    x0 = cfg["x0"] if cfg["x0"] is not None else _default_x0(problem, cfg["problem"])
    # echo the resolved values so metadata alone can replay the run
    cfg.update(x0=[float(t) for t in x0], batch=min(cfg["batch"], problem.n))
    opt = OptimizerConfig(
        alpha=cfg["alpha"], clip=cfg["clip"], steps=cfg["steps"], x0=x0,
        batch=cfg["batch"], sigma=0.0, k=0.0, seed=cfg["seed"],
    )
    traj = clipped_sgd(problem, opt)
    ledger = descent_ledger(traj, wasserstein=_TRANSPORT[cfg["wasserstein"]])

    writer = RunWriter(cfg["out"])
    ledger.to_csv(writer.path("ledger.csv"))

    final = traj.iterates[-1]
    rows = problem.batch_gradients(final)
    ref = problem.full_gradient(final)  # the mean of the rows summarized below
    residuals = problem.noise_residuals().atoms  # the cloud the ledger audits
    probe_scores = {}
    for i in range(cfg["probes"]):
        probe_seed = cfg["seed"] * 1000 + i
        probe = ProjectionProbe.random(problem.dim, probe_seed)
        points = project2d(rows, probe)
        write_csv(writer.path(f"scatter_seed{probe_seed}.csv"), ["x", "y"], points.T)
        if len(points) >= 2:  # a single-sample ensemble has no symmetry to score
            probe_scores[str(probe_seed)] = {
                "residual_origin": symmetry_score(
                    project2d(residuals, probe), bins=cfg["bins"]
                ),
                "gradient_mean": symmetry_score(points, bins=cfg["bins"], mode="mean"),
            }
    cos_hist = cosine_histogram(rows, ref, bins=cfg["bins"])
    cos_hist.to_csv(writer.path("hist_cosine.csv"))
    stats = gradient_ensemble_stats(rows, ref, cfg["clip"], bins=cfg["bins"])
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


def cmd_calibrate(cfg, argv):
    budget = PrivacyBudget(
        epsilon=cfg["epsilon"], delta=cfg["delta"], n=cfg["n"], T=cfg["T"],
        m=cfg["m"], u=cfg["uconst"], v=cfg["vconst"],
    )
    sigma = calibrate_sigma(budget, cfg["clip"])
    payload = {
        "epsilon": budget.epsilon,
        "delta": budget.delta,
        "n": budget.n,
        "T": budget.T,
        "m": budget.m,
        "u": budget.u,
        "v": budget.v,
        "clip": cfg["clip"],
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


def cmd_wasserstein(cfg, argv):
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
    cap = c * norm(v)
    checks = {
        "nonnegative": bool(w >= -1e-12),
        "self_distance_zero": bool(w_self <= 1e-12),
        "symmetric_arguments": bool(abs(w - w_qp) <= 1e-12 * max(1.0, w)),
        "bias_within_distance": bool(abs(bias) <= w + 1e-10),
        "range_cap": bool(w <= 2.0 * cap + 1e-9),
    }
    if symmetrized_default:
        checks["symmetrized_cap"] = bool(w <= cap + 1e-9)
    writer = RunWriter(cfg["out"])
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


# ---------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _build_parser():
    parser = _Parser(prog="clipbias", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def command(name, handler, help, out_required=True, clip=1.0):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", required=out_required, help="output directory")
        p.add_argument("--config", help="JSON file read as the flags it names")
        p.add_argument("--clip", type=float, default=clip)
        p.set_defaults(handler=handler)
        return p

    p = command("examples", cmd_examples, "run the divergence/correction demos")
    p.add_argument("--seed", type=_count_arg(0), default=0)
    p.add_argument("--which", required=True, choices=_EXAMPLES)
    p.add_argument("--alpha", type=float, help="default: set by --which")
    p.add_argument("--k", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--steps", type=_count_arg(1), help="default: set by --which")
    p.add_argument("--batch", type=_count_arg(1), help="default: the full data set")
    p.add_argument("--x0", type=_floats_arg)

    p = command("table1", cmd_table1, "perturbed clipped-inner grid")
    p.add_argument("--seed", type=_count_arg(0), default=0)
    p.add_argument("--samples", type=_count_arg(0), default=100000)
    p.add_argument("--dims", type=_dims_arg, default=[1, 10, 100, 1000])
    p.add_argument("--ks", type=_floats_arg, default=[1, 10, 100])
    p.add_argument("--vnorm", type=float, default=10.0)
    p.add_argument("--extended", action="store_true", help="add d=10000 and k=1000")

    p = command("table2", cmd_table2, "symmetric lower-bound check table")
    p.add_argument("--seed", type=_count_arg(0), default=0)
    p.add_argument("--samples", type=_count_arg(0), default=100000)
    p.add_argument("--norms", type=_floats_arg, default=[0.05, 0.1, 1.0, 2.0, 10.0, 100.0])

    p = command("diagnose", cmd_diagnose, "trajectory ledger plus ensemble probes")
    p.add_argument("--seed", type=_count_arg(0), default=0)
    p.add_argument("--problem", required=True,
                   help="example1, example2, synthetic-mixture, or a problem JSON file")
    p.add_argument("--alpha", type=float, help="default: 1/sqrt(steps)")
    p.add_argument("--steps", type=_count_arg(1),
                   help="default: 2000 on synthetic-mixture, else 10000")
    p.add_argument("--batch", type=_count_arg(1), default=1)
    p.add_argument("--x0", type=_floats_arg)
    p.add_argument("--probes", type=_count_arg(0), default=8)
    p.add_argument("--bins", type=_count_arg(1), default=50)
    p.add_argument("--wasserstein", choices=_TRANSPORT, default="auto")

    p = command("calibrate", cmd_calibrate, "noise scale for a privacy budget",
                out_required=False)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--uconst", type=float, default=1.0)
    p.add_argument("--vconst", type=float, default=1.0)

    p = command("wasserstein", cmd_wasserstein, "transport distance for a model pair",
                clip=None)
    p.add_argument("--input", required=True)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        pre = _Parser(add_help=False)
        pre.add_argument("--config")
        path = pre.parse_known_args(argv)[0].config
        keys, tokens = _config_argv(path) if path else ([], [])
        # the file's flags sit between the command and the explicit flags,
        # so an explicit flag wins
        args = _build_parser().parse_args(argv[:1] + tokens + argv[1:])
        if getattr(args, "handler", None) is None:
            raise CliError("missing command; try --help")
        cfg = {k: v for k, v in vars(args).items() if k not in ("command", "config", "handler")}
        # a key names a whole flag: argparse would take an abbreviation,
        # and a false or null value makes no token it could reject
        unknown = [key for key in keys if key not in cfg]
        if unknown:
            raise CliError(f"unknown config keys {unknown}; known keys: {sorted(cfg)}")
        failures = args.handler(cfg, argv)
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

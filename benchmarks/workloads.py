"""The benchmark's workloads.

Each workload builds its inputs from the seed at construction (this is the
set-up that ``setup_s`` times), runs one fixed unit of work per call to
``run_unit`` (the span ``time_to_result_s`` times), and checks every
operation's output in ``check``, outside the timed region.

Package functions are looked up on their modules at call time, never
imported by name, so that the traced run sees every call.

Why these four: ``audit-1d`` spends its time on per-call overhead (tens of
thousands of one-row clips and 1-D transport solves); ``audit-mixture`` on
the descent ledger's (step, atom) score GEMMs and on CLI output;
``mc-perturbed`` on the sampler and bulk clipping of large blocks, which
also sets its peak memory; ``ensemble-dp`` on the vectorized multi-seed
optimizer, the other engine that shares the update rule with ``audit-1d``.
"""

import csv
import hashlib
import json
import math
import os
import traceback
from dataclasses import dataclass, replace

import numpy as np

from clipbias import cli, diagnostics, optimizers, problems


@dataclass
class Op:
    """One operation of a unit: its output, or why it failed."""

    name: str
    output: object = None
    error: str = None


def attempt(ops, tracer, name, fn):
    """Run ``fn`` as the next op of a unit, recording a raise as a failure."""
    if tracer is not None:
        tracer.op = len(ops)
    try:
        ops.append(Op(name, fn()))
    except Exception:  # an op that raises is a failed op; the run goes on
        ops.append(Op(name, error=traceback.format_exc(limit=3)))


def _fail(op, message):
    if op.error is None:
        op.error = message


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------- CLI ops


def cli_op(ops, tracer, name, argv, out_dir):
    def call():
        code = cli.main([*argv, "--out", out_dir])
        if code != 0:
            raise RuntimeError(f"clipbias {argv[0]} exited {code}")
        return out_dir

    attempt(ops, tracer, name, call)


def _data_files(out_dir):
    return sorted(n for n in os.listdir(out_dir) if n not in ("metadata.json", "manifest.json"))


def bytes_written(units):
    """Bytes on disk of the files the CLI ops of each unit wrote, apart from
    metadata.json, whose timestamp can change its length."""
    sizes = []
    for ops in units:
        total = 0
        for op in ops:
            if op.error is None and isinstance(op.output, str):
                total += sum(os.path.getsize(os.path.join(op.output, n))
                             for n in os.listdir(op.output) if n != "metadata.json")
        sizes.append(total)
    return sizes


def check_cli_ops(units):
    """Manifest checksums match the files, and every repeat of an op wrote
    the same data bytes as its first run (metadata and manifest excepted)."""
    first = {}
    for ops in units:
        for op in ops:
            if op.error is not None:
                continue
            with open(os.path.join(op.output, "manifest.json")) as fh:
                listed = json.load(fh)["files"]
            for fname, digest in listed.items():
                with open(os.path.join(op.output, fname), "rb") as fh:
                    if hashlib.sha256(fh.read()).hexdigest() != digest:
                        _fail(op, f"manifest sha256 of {fname} does not match the file")
            names = _data_files(op.output)
            if sorted(set(listed) - {"metadata.json"}) != names:
                _fail(op, f"manifest lists {sorted(listed)}, directory holds {names}")
            blobs = {}
            for fname in names:
                with open(os.path.join(op.output, fname), "rb") as fh:
                    blobs[fname] = fh.read()
            ref = first.setdefault(op.name, blobs)
            if blobs != ref:
                _fail(op, "data files differ from the first run of this op")


def _read_json(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- workloads


class Audit1D:
    """Clipped SGD, batch 1, T = 10 000, alpha = 1/sqrt(T), c = 1 on the two
    1-D examples, each run audited by the descent ledger with the per-step
    transport column on."""

    steps = 10_000

    def __init__(self, seed, input_dir):
        self.runs = []
        for name, x0 in (("example1", [1.0]), ("example2", [1.5])):
            config = optimizers.OptimizerConfig(
                alpha=1.0 / math.sqrt(self.steps), clip=1.0, steps=self.steps, x0=x0,
                batch=1, seed=seed,
            )
            self.runs.append((name, problems.problem_by_name(name), config))

    def run_unit(self, out_dir, tracer=None):
        ops = []
        for name, problem, config in self.runs:
            def audit(problem=problem, config=config):
                traj = optimizers.clipped_sgd(problem, config)
                return traj, diagnostics.descent_ledger(traj, wasserstein=True)

            attempt(ops, tracer, f"{name}/seed{config.seed}", audit)
        return ops

    def check(self, units):
        first = {}
        for ops in units:
            for op in ops:
                if op.error is not None:
                    continue
                traj, ledger = op.output
                flags = (ledger.theorem_ok, ledger.corollary_ok, ledger.wasserstein_ok)
                if flags != (True, True, True):
                    _fail(op, f"ledger flags theorem/corollary/wasserstein = {flags}")
                digest = _digest([traj.iterates, ledger.lhs, ledger.e_p, ledger.e_p_tilde,
                                  ledger.bias, ledger.w_bound])
                if first.setdefault(op.name, digest) != digest:
                    _fail(op, "trajectory or ledger differs from the first run of this op")


class AuditMixture:
    """CLI ``diagnose`` on the 10-D synthetic mixture (T = 10 000, the
    transport column resolves to off), then CLI ``wasserstein`` on the
    mixture's residual cloud against its symmetrization."""

    steps = 10_000

    def __init__(self, seed, input_dir):
        self.seed = seed
        problem = problems.make_synthetic_mixture(seed=seed)
        payload = {
            "v": [float(t) for t in problem.full_gradient(np.zeros(problem.dim))],
            "clip": 1.0,
            "p": problem.noise_residuals().to_json_dict(),
        }
        os.makedirs(input_dir, exist_ok=True)
        self.pair_path = os.path.join(input_dir, "residual_pair.json")
        with open(self.pair_path, "w") as fh:
            json.dump(payload, fh)

    def run_unit(self, out_dir, tracer=None):
        ops = []
        cli_op(ops, tracer, "diagnose",
               ["diagnose", "--problem", "synthetic-mixture", "--steps", str(self.steps),
                "--seed", str(self.seed)],
               os.path.join(out_dir, "diagnose"))
        cli_op(ops, tracer, "wasserstein", ["wasserstein", "--input", self.pair_path],
               os.path.join(out_dir, "wasserstein"))
        return ops

    def check(self, units):
        check_cli_ops(units)
        for ops in units:
            for op in ops:
                if op.error is not None:
                    continue
                if op.name == "diagnose":
                    ledger = _read_json(op.output, "summary.json")["ledger"]
                    if not (ledger["theorem_ok"] and ledger["corollary_ok"]
                            and ledger["wasserstein_ok"] in (True, None)):
                        _fail(op, f"ledger checks failed: {ledger}")
                else:
                    checks = _read_json(op.output, "wasserstein.json")["checks"]
                    if not all(checks.values()):
                        _fail(op, f"transport checks failed: {checks}")


# Criterion-4 reference values of E<v, clip(v + k*zeta, 1)> with ||v|| = 10.
TABLE1_REFS = {
    (1, 1.0): 10.0, (10, 1.0): 9.572, (100, 1.0): 7.077, (1000, 1.0): 3.015,
    (1, 10.0): 6.788, (10, 10.0): 2.961, (100, 10.0): 0.992, (1000, 10.0): 0.316,
    (1, 100.0): 0.758, (10, 100.0): 0.316, (100, 100.0): 0.098, (1000, 100.0): 0.032,
}


class MCPerturbed:
    """The Monte Carlo route of CLI ``table1``: 100 000 samples per cell on
    a grid that reaches d = 1000 (never ``--extended``, whose d = 10 000
    chunks need about 5 GB)."""

    dims = "10,1000"
    ks = "10"
    samples = 100_000

    def __init__(self, seed, input_dir):
        self.seed = seed

    def run_unit(self, out_dir, tracer=None):
        ops = []
        cli_op(ops, tracer, "table1",
               ["table1", "--dims", self.dims, "--ks", self.ks, "--samples", str(self.samples),
                "--seed", str(self.seed)],
               os.path.join(out_dir, "table1"))
        return ops

    def check(self, units):
        check_cli_ops(units)
        for ops in units:
            for op in ops:
                if op.error is not None:
                    continue
                with open(os.path.join(op.output, "table1.csv"), newline="") as fh:
                    rows = list(csv.DictReader(fh))
                if len(rows) != len(self.dims.split(",")) * len(self.ks.split(",")):
                    _fail(op, f"table1.csv has {len(rows)} cells")
                for row in rows:
                    ref = TABLE1_REFS[(int(row["d"]), float(row["k"]))]
                    est, se = float(row["estimate"]), float(row["std_error"])
                    tol = max(0.05 * abs(ref), 3.0 * se)
                    if not abs(est - ref) <= tol:
                        _fail(op, f"cell d={row['d']} k={row['k']}: {est} vs {ref} (tol {tol:.3g})")


class EnsembleDP:
    """``final_iterates`` over 100 seeds on example1, full batch, sigma = 1,
    k in {0, 10}, T = 20 000, plus a subsampled perturbed ensemble on the
    synthetic mixture."""

    ensemble_size = 100
    mixture_ensemble_size = 50

    def __init__(self, seed, input_dir):
        self.seed = seed
        base = dict(alpha=0.001, clip=1.0, steps=20_000, x0=[1.0], batch=None, sigma=1.0)
        example1 = problems.make_example1()
        mixture = problems.make_synthetic_mixture(seed=seed)
        mixture_config = optimizers.OptimizerConfig(
            alpha=0.015, clip=1.0, steps=2000, x0=[0.0] * mixture.dim, batch=16,
            sigma=0.5, k=1.0,
        )
        first = self.ensemble_size * seed
        self.runs = [
            ("example1/k0", example1, optimizers.OptimizerConfig(k=0.0, **base),
             list(range(first, first + self.ensemble_size))),
            ("example1/k10", example1, optimizers.OptimizerConfig(k=10.0, **base),
             list(range(first, first + self.ensemble_size))),
            ("mixture/subsampled", mixture, mixture_config,
             list(range(first, first + self.mixture_ensemble_size))),
        ]

    def run_unit(self, out_dir, tracer=None):
        ops = []
        for name, problem, config, seeds in self.runs:
            attempt(ops, tracer, name,
                    lambda problem=problem, config=config, seeds=seeds:
                    optimizers.final_iterates(problem, config, seeds))
        return ops

    def check(self, units):
        first = {}
        for ops in units:
            for op in ops:
                if op.error is None and first.setdefault(op.name, op.output.tobytes()) != op.output.tobytes():
                    _fail(op, "final iterates differ from the first run of this op")
        pick = np.random.default_rng(self.seed)
        for op, (name, problem, config, seeds) in zip(units[0], self.runs):
            if op.error is not None:
                continue
            row = int(pick.integers(len(seeds)))
            single = optimizers.dp_sgd_perturbed(problem, replace(config, seed=seeds[row]))
            if single.iterates[-1].tobytes() != op.output[row].tobytes():
                _fail(op, f"row for seed {seeds[row]} differs from its single dp_sgd_perturbed run")
            if name.startswith("example1"):
                dist = float(np.mean(np.abs(op.output[:, 0] - 1.0)))
                ok = dist >= 3.0 if config.k == 0.0 else dist <= 0.5
                if not ok:
                    _fail(op, f"mean |x_T - 1| = {dist:.4f} at k = {config.k}")


WORKLOADS = {
    "audit-1d": Audit1D,
    "audit-mixture": AuditMixture,
    "mc-perturbed": MCPerturbed,
    "ensemble-dp": EnsembleDP,
}

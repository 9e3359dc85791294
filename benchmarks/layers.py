"""Which clipbias functions the traced run wraps, and the per-layer metrics
computed from the spans and counters they record.

Span names are ``<module>.<what>``; ``probes`` and ``cli`` are traced as
whole layers. Every public entry point listed here is wrapped at each
module attribute that binds it, so calls through ``optimizers.clip_batch``,
``diagnostics.clip_batch`` and ``probes.clip_batch`` are all seen.
"""

import numpy as np

import clipbias
from clipbias import cli, diagnostics, noise, optimizers, privacy, probes, problems, vectors

from spans import self_seconds_by_name

MODULES = (clipbias, vectors, noise, problems, privacy, optimizers, diagnostics, probes, cli)

SAMPLER = "noise.sampler"

NOTES = [
    "Uniforms that the optimizers draw with Generator.random inside their own "
    "loops cannot be wrapped, so that time counts as optimizers self time.",
    "noise.sampler.bytes_computed is computed from array shapes as 8 bytes x "
    "(uniforms drawn + values returned), not measured.",
    "cli.bytes_written is measured: the size on disk of the files a CLI op wrote, "
    "metadata.json (timestamped) excepted.",
    "Counts are per unit of work; self times are medians over the traced units.",
]


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_clip(tracer, idx, args, kwargs, result):
    rows = np.asarray(_arg(args, kwargs, 0, "rows"), dtype=np.float64)
    c = float(_arg(args, kwargs, 1, "c"))
    counts = tracer.counts
    counts["vectors.clip_batch.calls"] += 1
    counts["vectors.clip_batch.rows"] += result.shape[0]
    # the clip map's own criterion, on its own canonical norm
    counts["vectors.clip_batch.clipped_rows"] += int(np.count_nonzero(vectors.row_norms(rows) > c))


def _count_sample(tracer, idx, args, kwargs, result):
    if tracer.parent_name(idx) == SAMPLER:
        return
    model = args[0]
    tracer.counts[f"{SAMPLER}.values"] += result.size
    tracer.counts[f"{SAMPLER}.uniforms"] += result.shape[0] * model.rows_per_draw


def _count_normals(tracer, idx, args, kwargs, result):
    if tracer.parent_name(idx) == SAMPLER:
        return
    tracer.counts[f"{SAMPLER}.values"] += result.size
    tracer.counts[f"{SAMPLER}.uniforms"] += np.size(_arg(args, kwargs, 0, "u"))


def _count_symmetrize(tracer, idx, args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    tracer.counts["noise.symmetrize.atoms"] += getattr(model, "atoms", np.empty((0, 0))).shape[0]


def _count_batch_gradients(tracer, idx, args, kwargs, result):
    tracer.counts["problems.batch_gradients.calls"] += 1


def _count_run(tracer, idx, args, kwargs, result):
    tracer.counts["optimizers.run.steps"] += _arg(args, kwargs, 1, "config").steps


def _count_final_iterates(tracer, idx, args, kwargs, result):
    steps = _arg(args, kwargs, 1, "config").steps
    tracer.counts["optimizers.final_iterates.seed_steps"] += result.shape[0] * steps


def _count_ledger(tracer, idx, args, kwargs, result):
    trajectory = _arg(args, kwargs, 0, "trajectory")
    p = args[1] if len(args) > 1 else kwargs.get("noise_model")
    if p is None:
        p = trajectory.problem.noise_residuals()
    # atoms of the symmetrized model, merged exactly as symmetrize merges them
    both = np.concatenate([p.atoms, -p.atoms]) + 0.0
    tilde = np.unique(both, axis=0).shape[0]
    tracer.counts["diagnostics.descent_ledger.score_pairs"] += result.steps.shape[0] * (p.atoms.shape[0] + tilde)


def _count_wasserstein(tracer, idx, args, kwargs, result):
    tracer.counts["diagnostics.wasserstein_clip.calls"] += 1


def install(tracer):
    """Wrap every traced entry point; ``tracer.uninstall()`` undoes it."""
    fn = tracer.patch_function
    fn(MODULES, "vectors.clip_batch", vectors.clip_batch, _count_clip)
    fn(MODULES, SAMPLER, noise.normals_from_uniforms, _count_normals)
    tracer.patch_method(noise._Model, "sample", SAMPLER, _count_sample)
    fn(MODULES, "noise.symmetrize", noise.symmetrize, _count_symmetrize)
    tracer.patch_method(problems.QuadraticProblem, "batch_gradients", "problems.batch_gradients",
                        _count_batch_gradients)
    for run in (optimizers.clipped_sgd, optimizers.dp_sgd, optimizers.dp_sgd_perturbed):
        fn(MODULES, "optimizers.run", run, _count_run)
    fn(MODULES, "optimizers.final_iterates", optimizers.final_iterates, _count_final_iterates)
    fn(MODULES, "diagnostics.descent_ledger", diagnostics.descent_ledger, _count_ledger)
    fn(MODULES, "diagnostics.wasserstein_clip", diagnostics.wasserstein_clip, _count_wasserstein)
    for name in ("expected_clipped_inner", "clip_scores", "clipping_bias"):
        fn(MODULES, f"diagnostics.{name}", getattr(diagnostics, name))
    for probe_fn in (probes.project2d, probes.symmetry_score, probes.cosine_histogram,
                     probes.gradient_ensemble_stats):
        fn(MODULES, "probes", probe_fn)
    tracer.patch_method(probes.ProjectionProbe, "random", "probes")
    tracer.patch_method(probes.Histogram, "from_values", "probes")
    tracer.patch_method(probes.Histogram, "to_csv", "probes")
    fn(MODULES, "cli", cli.main)


def unit_metrics(spans, counts, bytes_written):
    """Per-layer metrics of one traced unit, keyed by metric name."""
    own = self_seconds_by_name(spans)
    m = {name: float(own.get(name, 0.0)) for name in (
        "vectors.clip_batch", SAMPLER, "noise.symmetrize", "problems.batch_gradients",
        "optimizers.run", "optimizers.final_iterates", "diagnostics.descent_ledger",
        "diagnostics.wasserstein_clip", "diagnostics.expected_clipped_inner",
        "diagnostics.clip_scores", "diagnostics.clipping_bias", "probes", "cli",
    )}
    m = {f"{name}.self_s": value for name, value in m.items()}
    for key in ("vectors.clip_batch.calls", "vectors.clip_batch.rows", f"{SAMPLER}.values",
                "noise.symmetrize.atoms", "problems.batch_gradients.calls",
                "optimizers.run.steps", "optimizers.final_iterates.seed_steps",
                "diagnostics.descent_ledger.score_pairs", "diagnostics.wasserstein_clip.calls"):
        m[key] = int(counts.get(key, 0))
    rows = m["vectors.clip_batch.rows"]
    m["vectors.clip_batch.clipped_fraction"] = counts.get("vectors.clip_batch.clipped_rows", 0) / rows if rows else 0.0
    m[f"{SAMPLER}.bytes_computed"] = 8 * (counts.get(f"{SAMPLER}.uniforms", 0) + m[f"{SAMPLER}.values"])
    steps = m["optimizers.run.steps"]
    m["optimizers.run.step_us"] = m["optimizers.run.self_s"] / steps * 1e6 if steps else 0.0
    m["cli.bytes_written"] = int(bytes_written)
    return m

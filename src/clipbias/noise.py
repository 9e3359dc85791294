"""Gradient-noise models: sampling, symmetrization, norm probabilities.

Every model is a :class:`SphericalMixture`, a weighted sum of spherical
normals N(center, scale^2 I): an :class:`Empirical` atom cloud has
scale 0 everywhere, an :class:`IsotropicGaussian` is one component at
the origin, and :func:`perturb` widens every scale. So every model
draws one way, through a counter-based RNG contract. A
:class:`SeededStream` is a ``(master_seed, stream_id)`` pair mapped to
a Philox generator, and each draw consumes one row of uniforms: the
first picks the component by cumulative weight, and when any scale is
positive ``dim`` more become normals through the inverse normal CDF
(one uniform per normal variate). Draw ``i`` of a stream is therefore a
pure function of ``(master_seed, stream_id, i)``: prefixes of a sample
batch match shorter batches bit for bit, so results do not depend on
how work is chunked across workers.

The Monte Carlo routes and the descent ledger
(``diagnostics._reflected_scores``) share their work out through one
scheduler, :func:`_share`, on a process-wide pool of threads, one per
core the process may run on: a route's fill chunks, drawn in stream
order, or the ledger's row slices. Each chunk or slice is computed on
its own, so no bit depends on the number of workers.

Norm probabilities ``P(||xi|| < r)`` are exact for every model (finite
weight sums, chi-square, or noncentral chi-square), with an
optional Monte Carlo route kept for cross-checking.
"""

import os
import threading
from dataclasses import dataclass

import numpy as np

from .vectors import _norms, _row_dots, row_norms

# scipy.special and scipy.stats are imported where they are used: together
# they take about 70 of the 100 MB that importing the package would
# otherwise cost, and a clipped run with no noise and an atom cloud's
# ledger need neither.

__all__ = [
    "SeededStream",
    "Empirical",
    "IsotropicGaussian",
    "SphericalMixture",
    "symmetrize",
    "prob_norm_below",
    "perturb",
]

# Smallest uniform fed to the inverse CDF; gen.random() can return 0.0
# exactly and ndtri(0) is -inf.
_U_FLOOR = 2.0 ** -54

# Doubles (32 MB) in one Monte Carlo block of uniforms plus draws, whose
# sums fix an estimate's bits. Loops whose bits do not depend on their
# block size run on the cache-sized budgets below.
_CHUNK_DOUBLES = 1 << 22

# Doubles (512 KB) in one row slice of a Monte Carlo block or of the
# ledger's (step, atom) pairs: small enough that its elementwise passes run
# in L2 rather than from memory.
_SLICE_DOUBLES = 1 << 16

# Doubles (1 MB) of uniforms in one Monte Carlo fill chunk (whole slices of
# one block, drawn, turned into normals and mapped by one worker), and of
# noise in one block of optimizer steps.
_FILL_DOUBLES = 1 << 17

# Buffer sets, and so workers, in one _share pass at most: a 1 MB fill
# chunk each for a Monte Carlo route, four slice buffers (2 MB) each for
# the ledger. Pool threads beyond the sets stay idle.
_SETS = 8

# Monte Carlo sums are taken scaled by a power of two once a block's largest
# value leaves [2^-500, 2^500), so that the values and their squares stay normal.
_SQUARE_EXP = 500

_POOL = None  # the worker pool, made on first use by _pool()


@dataclass(frozen=True)
class SeededStream:
    """Named substream of a master seed.

    ``generator()`` builds a fresh counter-based generator each call,
    so two streams with the same ``(master_seed, stream_id)`` always
    replay the same uniform sequence.
    """

    master_seed: int
    stream_id: int = 0

    def generator(self):
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(seq))


def normals_from_uniforms(u):
    """Map uniforms in [0, 1) to standard normals via the inverse CDF.

    Works in place: ``u`` (a float64 array) is overwritten by the normals
    and returned, so pass a fresh array of draws, never one still needed.
    """
    _to_normals(u)
    return u


def _to_normals(u):
    """``normals_from_uniforms`` without its return, for the pool (see
    :func:`_pool`)."""
    from scipy import special

    np.maximum(u, _U_FLOOR, out=u)
    special.ndtri(u, out=u)


def _pool():
    """The process-wide pool of worker threads, one per core this process
    may run on; made on first use. :func:`_share` hands it work. Its
    threads run private kernels only, never a public function: the
    benchmark's span tracer keeps one stack for all threads."""
    global _POOL
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor

        _POOL = ThreadPoolExecutor(_workers(), thread_name_prefix="clipbias-pool")
    return _POOL


def _share(take, work, sets):
    """Run ``work`` on every item that ``take`` hands out, one worker per
    buffer set of ``sets``: the one scheduler of the pooled passes.

    Set 0 is worked on the calling thread and every other set on a thread
    of :func:`_pool`, so a single set never reaches the pool. A worker
    calls ``take(*buffers)`` under one lock for its next item (``None``
    when none is left), then ``work(item, *buffers)`` outside it. The
    caller makes every buffer before any worker starts (buffers made on
    the workers would each grow a malloc arena), so the sets, at most
    ``_SETS``, bound the memory at any core count. Once a worker fails no
    more items are handed out, and the first error is raised after every
    worker has returned.
    """
    lock = threading.Lock()
    errors = []

    def run(*buffers):
        try:
            while True:
                with lock:
                    item = None if errors else take(*buffers)
                if item is None:
                    return
                work(item, *buffers)
        except BaseException as exc:  # raised below, once every worker is done
            errors.append(exc)

    futures = [_pool().submit(run, *buffers) for buffers in sets[1:]]
    run(*sets[0])
    for future in futures:
        future.result()
    if errors:
        raise errors[0]


def _workers():
    """The number of cores this process may run on: the pool's size."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forget_pool():
    """A forked child has none of its parent's threads, so it makes its own
    pool; the parent's would take work and never run it."""
    global _POOL
    _POOL = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _resolve_generator(stream):
    if isinstance(stream, SeededStream):
        return stream.generator()
    if isinstance(stream, np.random.Generator):
        return stream
    raise TypeError(f"expected SeededStream or Generator, got {type(stream).__name__}")


class SphericalMixture:
    """Mixture of spherical normals: sum_i w_i * N(center_i, scale_i^2 I).

    Every noise model is one: an atom is a component of scale 0. A draw
    takes one row of ``rows_per_draw`` uniforms: the first picks the
    component by cumulative weight, and when any scale is positive
    ``dim`` more become normals.
    """

    def __init__(self, weights, centers, scales):
        centers = np.ascontiguousarray(centers, dtype=np.float64)
        if centers.ndim == 1:
            centers = centers[:, None]
        if centers.ndim != 2 or min(centers.shape) < 1:
            raise ValueError(f"need a non-empty (n, dim) array of centers, got {centers.shape}")
        weights = np.asarray(weights, dtype=np.float64)
        scales = np.asarray(scales, dtype=np.float64)
        m = centers.shape[0]
        if weights.shape != (m,) or scales.shape != (m,):
            raise ValueError("weights, centers and scales must agree on component count")
        if not np.all(np.isfinite(centers)):
            raise ValueError("centers have non-finite components")
        # NaN fails the sign test and inf the sum test
        if not np.all(weights > 0.0) or abs(float(np.sum(weights)) - 1.0) > 1e-12:
            raise ValueError("component weights must be positive and sum to 1")
        if np.any(~np.isfinite(scales)) or np.any(scales < 0.0):
            raise ValueError("component scales must be >= 0")
        self.weights = weights
        self.centers = centers
        self.scales = scales
        self._cum = np.cumsum(weights)
        self.rows_per_draw = 1 + self.dim if np.any(scales > 0.0) else 1

    @property
    def dim(self):
        return self.centers.shape[1]

    def sample(self, stream, count):
        """Draw ``count`` vectors, shape ``(count, dim)``.

        Passing a :class:`SeededStream` restarts the stream, so draw
        ``i`` depends only on the stream identity and ``i``. Passing a
        ``numpy.random.Generator`` continues it, which chunked loops
        use to split one logical batch across calls.
        """
        count = int(count)
        if count < 0:
            raise ValueError("count must be >= 0")
        gen = _resolve_generator(stream)
        u = gen.random((count, self.rows_per_draw))
        if self.rows_per_draw > 1:
            normals_from_uniforms(u[:, 1:])
        return self._from_rows(u)

    def _from_rows(self, u):
        """Draws from rows of uniforms whose columns after the first hold
        normals (``u`` may be overwritten), as a new C-ordered array, so a
        clip of them makes no copy: each normal times its component's
        scale, plus its center."""
        z = u[:, 1:]
        if self.rows_per_draw > 1 and len(self.weights) == 1:  # nothing to pick
            z *= self.scales[0]
            return np.add(z, self.centers[0], out=np.empty(z.shape))
        idx = np.searchsorted(self._cum, u[:, 0], side="right")
        idx = np.minimum(idx, len(self.weights) - 1)
        if self.rows_per_draw == 1:
            return self.centers[idx]
        z *= self.scales[idx][:, None]
        return np.add(z, self.centers[idx], out=np.empty(z.shape))

    def mean(self):
        return self.weights @ self.centers


# the sampler's name in benchmarks/layers.py, which traces it
_Model = SphericalMixture


class Empirical(SphericalMixture):
    """Finite weighted atom cloud in R^d: a mixture of scale-0 components.

    Args:
      atoms: array-like of shape (n, dim) or (n,) for dim 1.
      weights: optional probabilities, one per atom; uniform when
        omitted. Must be positive and sum to 1 within 1e-12.
    """

    def __init__(self, atoms, weights=None):
        atoms = np.asarray(atoms, dtype=np.float64)
        n = atoms.shape[0] if atoms.ndim else 0
        if weights is None and n:
            weights = np.full(n, 1.0 / n)
        super().__init__(weights, atoms, np.zeros(n))

    @property
    def atoms(self):
        return self.centers

    def to_json_dict(self):
        return {
            "dim": int(self.dim),
            "atoms": [[float(x) for x in row] for row in self.atoms],
            "weights": [float(w) for w in self.weights],
        }

    @classmethod
    def from_json_dict(cls, payload):
        try:
            dim = int(payload["dim"])
            atoms = np.asarray(payload["atoms"], dtype=np.float64)
            weights = np.asarray(payload["weights"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed empirical model payload: {exc}") from exc
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        if atoms.ndim != 2 or atoms.shape[1] != dim:
            raise ValueError(f"atoms shape {atoms.shape} does not match dim {dim}")
        return cls(atoms, weights)


class IsotropicGaussian(SphericalMixture):
    """Mean-zero spherical normal, scale * N(0, I_dim): one component at
    the origin."""

    def __init__(self, scale, dim):
        super().__init__(np.ones(1), np.zeros((1, int(dim))), np.array([float(scale)]))


def perturb(model, k):
    """Convolve ``model`` with k * N(0, I); ``k == 0`` returns ``model``.

    Independent spherical normals add their variances, so each component
    keeps its weight and center and its scale becomes hypot(scale, k).
    """
    k = float(k)
    if k < 0.0 or not np.isfinite(k):
        raise ValueError(f"perturbation scale must be >= 0, got {k}")
    if k == 0.0:
        return model
    return SphericalMixture(model.weights, model.centers, np.hypot(model.scales, k))


def symmetrize(model):
    """Reflect a model through the origin and average: (p + p^-) / 2.

    A reflection negates each center and keeps its scale. Components merge
    exactly: equal ``[center, scale]`` rows share one entry whose weight is
    the sum of halves, in first-encounter order, so applying symmetrize
    twice returns an equal model. When every scale is 0 the result is an
    :class:`Empirical`.
    """
    # each component directly followed by its reflection, each at half weight
    both = np.empty((2 * len(model.weights), model.dim + 1))
    both[0::2, :-1] = model.centers
    np.negative(model.centers, out=both[1::2, :-1])
    both[:, -1] = np.repeat(model.scales, 2)
    rows, weights, _ = _merge_atoms(both, np.repeat(model.weights / 2.0, 2))
    if rows[:, -1].any():
        return SphericalMixture(weights, rows[:, :-1], rows[:, -1])
    return Empirical(rows[:, :-1], weights)


def _merge_atoms(atoms, weights):
    """Merge exactly equal rows of an atom cloud or of ``[center, scale]``.

    Returns ``(merged_atoms, merged_weights, inverse)``: distinct rows in
    first-encounter order, each with the sum of its weights taken in
    input order, and the merged row of every input row. Rows are
    compared after ``+ 0.0``, so -0.0 and 0.0 components are one atom.
    """
    atoms = np.asarray(atoms, dtype=np.float64) + 0.0
    _, first, inverse = np.unique(atoms, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    inverse = rank[inverse.reshape(-1)]
    merged = np.bincount(inverse, weights=weights, minlength=order.shape[0])
    return atoms[first[order]], merged, inverse


def prob_norm_below(model, radius, stream=None, mc_samples=0):
    """Probability that a draw lands strictly inside the ball of ``radius``.

    Returns ``(value, std_error)``. The default route is exact
    (std_error 0.0): weight sums for atom clouds, chi-square for
    Gaussians, noncentral chi-square for shifted spherical components.
    With ``mc_samples > 0`` the value is a Monte Carlo fraction drawn
    from ``stream`` instead, kept as an independent cross-check.
    """
    radius = float(radius)
    if not np.isfinite(radius) or radius < 0.0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if mc_samples:
        p, _ = _mc_moments(model, stream, mc_samples, lambda x: _norms(x)[0] < radius)
        return p, float(np.sqrt(p * (1.0 - p) / int(mc_samples)))
    return _prob_norm_exact(model, radius), 0.0


def _mc_moments(model, stream, mc_samples, row_map, project=None):
    """Monte Carlo mean and standard error of a per-draw statistic.

    ``row_map`` maps draws of ``model``, shape ``(rows, dim)``, to one
    value or one vector per row; with ``project`` the statistic is that
    vector's dot product with ``project``. The result is ``(mean,
    std_error)`` of the statistic's shape.

    Blocks hold at most ``_CHUNK_DOUBLES`` uniforms plus draws, and the
    sums run once per block, so the bits depend on the block size alone.
    Each block is cut into fill chunks of whole row slices (``_chunks``)
    that :func:`_share` hands out, one chunk buffer per worker. Under the
    hand-out lock a worker draws the next chunk from the one generator, so
    the draws keep stream order; then it turns the chunk's normal columns
    into normals in place and, while the chunk is still in its cache, maps
    it in slices of at most ``_SLICE_DOUBLES`` (``_map_rows``) into one
    block buffer of statistics, which this thread sums once the block is
    done. The workers call private kernels only (see :func:`_pool`). The
    projection is a row-local ``einsum`` per slice (``vectors._row_dots``):
    a BLAS matrix-vector product's rows change in the last bit with the
    row count, and its threads spin between calls. Each slice is mapped on
    its own, so the draws equal one serial batch of ``mc_samples``, no bit
    depends on the worker count, and a Generator passed in is continued as
    that batch would continue it.
    """
    if not mc_samples:
        raise ValueError(
            f"{type(model).__name__} has no exact route here; pass mc_samples and a stream"
        )
    if stream is None:
        raise ValueError("Monte Carlo route needs a stream")
    gen = _resolve_generator(stream)
    count = int(mc_samples)
    if count < 0:
        raise ValueError(f"mc_samples must be >= 0, got {count}")
    draw = model.rows_per_draw
    width = draw + model.dim
    block = min(count, max(1, _CHUNK_DOUBLES // width))
    rows = min(block, max(1, _SLICE_DOUBLES // width))
    chunk = min(block, rows * max(1, _FILL_DOUBLES // (rows * draw)))
    plan = _chunks(count, block, chunk)
    end = 0  # the open block's rows once its last chunk is handed out
    mapped = []  # the block buffer, made for the first slice's statistic
    made = threading.Lock()

    def take(u):
        """Draw the open block's next chunk into ``u``."""
        nonlocal end
        if end:
            return None
        lo, n, ends_block = next(plan)
        gen.random(out=u[:n])
        if ends_block:
            end = lo + n
        return lo, u[:n]

    def work(item, u):
        """Turn a chunk's normal columns into normals, then map its slices
        into the block buffer from row ``lo`` on."""
        lo, u = item
        _to_normals(u[:, 1:])
        for at in range(0, u.shape[0], rows):
            part = _map_rows(model, u[at:at + rows], row_map, project)
            with made:
                if not mapped:
                    mapped.append(np.empty((block,) + part.shape[1:]))
            mapped[0][lo + at:lo + at + part.shape[0]] = part

    sets = [(np.empty((chunk, draw)),) for _ in range(min(_SETS, _workers(), -(-block // chunk)))]
    # -0.0 is the exact additive identity, so a single block sums as itself
    total = total_sq = -0.0
    power = 0  # both sums are scaled by 2 ** -power, the squares by its square
    for _ in range(0, count, block):
        _share(take, work, sets)
        values = mapped[0][:end]
        end = 0  # opens the next block
        top = max(values.max(), -values.min())
        grow = int(np.frexp(top)[1]) - power  # scaled, top is below 2^grow
        # powers of two scale exactly, so the running sums keep their bits;
        # sums are scaled up only while empty, lest a square overflow
        if 0.0 < top < np.inf and not -_SQUARE_EXP < grow <= _SQUARE_EXP and (
            grow > 0 or not np.any(total_sq)
        ):
            total = np.ldexp(total, -grow)
            total_sq = np.ldexp(total_sq, -2 * grow)
            power += grow
        # squared in place: a block of clipped vectors is half the budget
        if power:
            np.ldexp(values, -power, out=values)
        total = total + values.sum(axis=0)
        total_sq = total_sq + np.multiply(values, values, out=values).sum(axis=0)
    scaled = total / count
    mean = np.ldexp(scaled, power)
    var = np.maximum(total_sq / count - scaled * scaled, 0.0)
    if count > 1:
        var = var * (count / (count - 1))
    se = np.ldexp(np.sqrt(var / count), power)
    if np.ndim(mean) == 0:
        return float(mean), float(se)
    return mean, se


def _chunks(count, block, chunk):
    """The Monte Carlo fill plan, made lazily so that it takes no memory:
    ``(first row in its block, rows, whether it ends its block)`` of each
    chunk of ``count`` draws cut into blocks of ``block`` draws."""
    for start in range(0, count, block):
        size = min(block, count - start)
        for lo in range(0, size, chunk):
            yield lo, min(chunk, size - lo), lo + chunk >= size


def _map_rows(model, u, row_map, project):
    """The statistic of the draws in one slice of filled rows ``u``."""
    part = row_map(model._from_rows(u))
    if project is not None:
        part = _row_dots(part, project)
    return part


def _prob_norm_exact(model, radius):
    terms = model.weights * _ball_mass(radius, row_norms(model.centers), model.scales, model.dim)
    # Only the nonzero terms are summed: zeros would regroup numpy's
    # pairwise sum and move the last bit of an atom cloud's weight sum.
    return float(np.sum(terms[terms != 0.0]))


def _ball_mass(radius, shifts, scales, dim):
    """P(||center + scale * N(0, I_dim)|| < radius) for every component,
    exact, given the norms ``shifts`` of the centers and the ``scales``.

    An atom (scale 0) counts when its shift is below the radius. Norm
    concentration puts P(||N|| >= sqrt(dim) + 40) below exp(-800), zero in
    doubles, so outside that band around the shift the mass is exactly 0
    or 1; inside it the mass is a noncentral chi-square CDF, or a normal
    CDF where the noncentrality would overflow.
    """
    mass = (shifts < radius).astype(np.float64)
    live = np.flatnonzero(scales > 0.0)
    if not live.size:
        return mass
    shift, scale = shifts[live], scales[live]
    with np.errstate(over="ignore"):  # a huge shift or a tiny scale leaves the band
        spread = scale * (np.sqrt(dim) + 40.0)
        root = shift / scale
    mass[live] = radius >= shift + spread
    band = (radius < shift + spread) & (radius > shift - spread)
    if not band.any():
        return mass
    from scipy import special, stats

    idx, shift, scale, root = live[band], shift[band], scale[band], root[band]
    far = root > 1e150
    mass[idx[far]] = special.ndtr((radius - shift[far]) / scale[far])
    near = ~far
    mass[idx[near]] = stats.ncx2.cdf((radius / scale[near]) ** 2, df=dim, nc=root[near] ** 2)
    return mass

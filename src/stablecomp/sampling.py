"""Exact simulation of symmetric stable variables and vectors.

The one-dimensional generator is the Chambers-Mallows-Stuck transform of a
uniform angle and a unit exponential, specialized to the symmetric case and
normalized so that E exp(itZ) = exp(-|t|^q).  The Gaussian (q = 2) and
Cauchy (q = 1) endpoints take dedicated closed-form paths.

Multivariate draws combine independent one-dimensional draws along the
merged directions of a SpectralRep,

    X = sum_i s_i Z_i u_i,    s_i^q = sum_{j in group i} w_j |a_j|^q,

where the atoms a_j of group i are parallel to the unit vector u_i.  Only the
spectral measure fixes the law, so this reproduces the target
characteristic function exactly; with no parallel atoms it is
X = sum_j w_j^(1/q) Z_j a_j, one draw per atom.

Reproducibility contract: draws are produced in fixed-size chunks whose RNG
streams depend only on (seed, stream_id, chunk index).  Batches are
therefore bit-identical for any worker count and scheduling order.  A
reduction over a stream, such as the Monte Carlo mean, reduces each chunk
where it is drawn and merges the chunk results in chunk order, so its
result is bit-identical too.

Worker pool: the process keeps one pool of worker threads, made on first
use and sized by the resolved worker count.  A call with another count
replaces it, and a forked child drops the parent's (its threads do not
exist there).  ``_map_chunks`` runs its chunks as tasks of that pool, and
``_pool_tasks`` runs other independent work on it, such as the exact rules
of an oracle trial.  At one worker, or when the caller is itself a pool
thread, the work runs on the calling thread instead: a pool task that
waited for tasks queued behind it could wait forever.
"""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .spectral import SpectralRep, check_stable_index, rep_hash

__all__ = [
    "CHUNK",
    "SampleBatch",
    "Seed",
    "default_workers",
    "empirical_char_fn",
    "sample_batch",
    "sample_standard",
]

# Fixed chunk size of the deterministic stream partition.
CHUNK = 1 << 16

_WORKER_ENV = "STABLECOMP_WORKERS"

# Rows formatted at a time by SampleBatch.to_csv, which bounds its memory.
_CSV_ROWS = 4096


@dataclass(frozen=True)
class Seed:
    """Root seed plus a stream id; distinct pairs give independent streams."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if int(self.seed) != self.seed or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if int(self.stream_id) != self.stream_id or self.stream_id < 0:
            raise ValueError(f"stream_id must be a nonnegative integer, got {self.stream_id}")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "stream_id", int(self.stream_id))

    def to_json_dict(self) -> dict:
        return {"seed": self.seed, "stream_id": self.stream_id}


def as_seed(seed) -> Seed:
    if isinstance(seed, Seed):
        return seed
    if isinstance(seed, (tuple, list)):
        return Seed(*seed)
    return Seed(int(seed))


def default_workers() -> int:
    env = os.environ.get(_WORKER_ENV)
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(f"{_WORKER_ENV} must be an integer, got {env!r}") from None
        return _resolve_workers(workers, _WORKER_ENV)
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count() or 1
    return min(4, usable)


def _resolve_workers(workers, name: str = "workers") -> int:
    """``workers``, or default_workers() when it is None; ValueError below 1 naming ``name``."""
    if workers is None:
        return default_workers()
    if workers < 1:
        raise ValueError(f"{name} must be >= 1, got {workers}")
    return workers


def _chunk_rng(seed: Seed, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed.seed,
                                spawn_key=(seed.stream_id, chunk_index))
    return np.random.Generator(np.random.PCG64(ss))


# pi/2 as a float plus its rounding error, so cosines near +-pi/2 keep their digits
_HALF_PI = 0.5 * np.pi
_HALF_PI_LO = 6.123233995736766e-17


def _sin(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """sin x in place for |x| < pi, as 2t / (1 + t^2) with t = tan(x/2).

    numpy's float64 tan is several times cheaper than its sin and cos.
    """
    x *= 0.5
    np.tan(x, out=x)
    np.multiply(x, x, out=tmp)
    tmp += 1.0
    x += x
    x /= tmp
    return x


def _cos(x: np.ndarray, tmp: np.ndarray, out=None) -> np.ndarray:
    """cos x for |x| <= pi/2, as sin(pi/2 - |x|), into ``out`` (default x)."""
    x = np.abs(x, out=x if out is None else out)
    np.subtract(_HALF_PI, x, out=x)
    x += _HALF_PI_LO
    return _sin(x, tmp)


# Values per block of the CMS transform.  A block's slices of u and w and its
# two scratch arrays take 256 KiB each, so its dozen passes stay in a 2 MiB
# L2 cache.  At 2^20 draws on a 2-core Xeon, 2^14 ran as fast and 2^16 and
# 2^17 ran 10-20% slower.
_DRAW_BLOCK = 1 << 15


def _cms_block(q: float, u: np.ndarray, w: np.ndarray, expo: np.ndarray,
               tmp: np.ndarray) -> None:
    """One block of general-q CMS draws, written into ``u``; ``w`` and the
    scratch arrays ``expo`` and ``tmp`` are overwritten."""
    _cos(np.multiply(u, 1.0 - q, out=expo), tmp)  # cos((1-q) u)
    expo /= w
    np.log(expo, out=expo)
    expo *= (1.0 - q) / q
    cu = np.log(_cos(u, tmp, out=w), out=w)  # log cos(u)
    cu /= q
    expo -= cu
    np.exp(expo, out=expo)
    u *= q
    _sin(u, tmp)
    u *= expo


def _draw_standard(rng: np.random.Generator, q: float, size):
    """CMS draws with characteristic function exp(-|t|^q).

    For general q this is sin(q u) cos(u)^(-1/q) (cos((1-q) u) / w)^((1-q)/q),
    with both powers folded into one exp of two logs.

    All of ``u`` and then all of ``w`` are drawn first, so the stream is
    consumed as by one whole-array transform.  The transform then runs over
    contiguous blocks of _DRAW_BLOCK values with block-sized scratch arrays.
    It is elementwise, and each value meets the same rounded operations in
    the same order whatever block it falls in, so the draws have the bytes
    of the whole-array transform for any size.
    """
    u = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, size)
    if q == 1.0:
        # standard Cauchy
        return np.tan(u, out=u)
    w = rng.standard_exponential(size)
    flat_u, flat_w = u.reshape(-1), w.reshape(-1)
    expo, tmp = np.empty((2, min(_DRAW_BLOCK, flat_u.size)))
    for lo in range(0, flat_u.size, _DRAW_BLOCK):
        ub, wb = flat_u[lo:lo + _DRAW_BLOCK], flat_w[lo:lo + _DRAW_BLOCK]
        if q == 2.0:
            # centered Gaussian with variance 2
            np.sqrt(wb, out=wb)
            wb *= 2.0
            wb *= _sin(ub, tmp[:ub.size])
        else:
            _cms_block(q, ub, wb, expo[:ub.size], tmp[:ub.size])
    return w if q == 2.0 else u


def sample_standard(q, seed, size=None):
    """Draw from the standard symmetric q-stable law, cf exp(-|t|^q).

    Returns a scalar when ``size`` is None, else an ndarray.  For q = 2 this
    is a centered Gaussian with variance 2; for q = 1 a standard Cauchy.
    """
    q = check_stable_index(q)
    rng = _chunk_rng(as_seed(seed), 0)
    if size is None:
        return float(_draw_standard(rng, q, 1)[0])
    return _draw_standard(rng, q, size)


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """I.i.d. draws from a SpectralRep law, with provenance."""

    points: np.ndarray
    rep_hash: str
    seed: Seed

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]

    def to_csv(self, path) -> None:
        """An ``x1,...,xn`` header, then one row per point with each value
        as ``%.17g``: the bytes of ``np.savetxt(fmt="%.17g")``, which applies
        that ``%`` to each value.  Here a block of rows is formatted at once
        by ``_text.g17_slots``, which gives exactly those bytes for a whole
        column and leaves only non-finite and subnormal values to ``%``."""
        from ._text import chunks, g17_slots  # only the text writers import it

        seps = [b","] * (self.n - 1) + [b"\n"]
        with open(path, "w") as fh:
            fh.write(",".join(f"x{i + 1}" for i in range(self.n)) + "\n")
            for lo in range(0, len(self), _CSV_ROWS):
                block = self.points[lo:lo + _CSV_ROWS]
                r = len(block)
                slots = g17_slots(block.T)  # coordinate j is columns j r to (j + 1) r
                fh.writelines(chunks([piece for j, sep in enumerate(seps)
                                      for piece in (slots[:, j * r:(j + 1) * r], sep)]))

    def to_binary(self, path) -> None:
        """Row-major little-endian float64 dump at ``path`` plus a JSON
        sidecar header, keys sorted, at ``path`` + ".json"."""
        path = Path(path)
        self.points.astype("<f8", copy=False).tofile(path)
        header = {"dtype": "<f8", "order": "C", "shape": list(self.points.shape),
                  "rep_hash": self.rep_hash, "seed": self.seed.to_json_dict()}
        with open(path.with_suffix(path.suffix + ".json"), "w") as fh:
            json.dump(header, fh, sort_keys=True)

    @classmethod
    def from_binary(cls, path) -> "SampleBatch":
        path = Path(path)
        with open(path.with_suffix(path.suffix + ".json")) as fh:
            header = json.load(fh)
        pts = np.fromfile(path, dtype="<f8").reshape(header["shape"])
        return cls(points=pts, rep_hash=header["rep_hash"],
                   seed=Seed(**header["seed"]))


# Unit directions whose components agree to this many ulps of 1 are merged.
_MERGE_ULPS = 8


def _mix(rep: SpectralRep) -> np.ndarray:
    """Mixing rows: X = Z @ _mix(rep) for i.i.d. standard q-stable Z.

    Atoms parallel up to sign (max-abs-normalised directions within
    _MERGE_ULPS ulps) are one atom in law,
    w_1 |<a, xi>|^q + w_2 |<c a, xi>|^q = (w_1 + w_2 |c|^q) |<a, xi>|^q,
    so each group becomes one row: its first atom times
    (sum_j w_j (|a_j| / |a_first|)^q)^(1/q), in order of first appearance.
    Zero atoms are dropped.  With no parallel atoms the rows are exactly
    w_j^(1/q) a_j.
    """
    norms = np.abs(rep.atoms).max(axis=1)
    keep = norms > 0
    atoms, weights, norms = rep.atoms[keep], rep.weights[keep], norms[keep]
    unit = atoms / norms[:, None]
    gap = np.minimum(np.abs(unit[:, None] - unit[None]).max(axis=2),
                     np.abs(unit[:, None] + unit[None]).max(axis=2))
    parallel = gap <= _MERGE_ULPS * np.finfo(float).eps
    free = np.ones(len(atoms), dtype=bool)
    first, scales = [], []
    for i in range(len(atoms)):
        if free[i]:
            group = free & parallel[i]
            free &= ~group
            first.append(i)
            scales.append(weights[group] @ (norms[group] / norms[i]) ** rep.q)
    return (np.array(scales) ** (1.0 / rep.q))[:, None] * atoms[first]


# Most multiply-adds in one BLAS call of the mixing product.  OpenBLAS runs a
# dgemm of at most 4 * 65536 of them on the calling thread (the single-thread
# cut in its interface/gemm.c); a larger one starts its own threads, which
# oversubscribe the cores that the chunk workers already use.
_MIX_BLOCK = 4 * 65536


def _chunk_points(q: float, mix: np.ndarray, seed: Seed,
                  chunk_index: int, count: int) -> np.ndarray:
    """The chunk's draws times ``mix``, one BLAS call per block of rows.

    The blocks are near-equal, of at most _MIX_BLOCK // mix.size rows, so
    no block is a single row (a gemv, rounded differently) unless the chunk
    is.  With numpy's bundled OpenBLAS (0.3.31, x86-64) and a mix of at most
    15 rows, the result has the bytes of one ``z @ mix`` call; from 16 rows
    that call takes another kernel, which can round the last bit otherwise.
    The blocks depend only on (count, mix), so either way the draws are the
    same for any worker count.
    """
    rng = _chunk_rng(seed, chunk_index)
    z = _draw_standard(rng, q, (count, mix.shape[0]))
    out = np.empty((count, mix.shape[1]))
    blocks = -(-count // max(1, _MIX_BLOCK // mix.size))
    for b in range(blocks):
        lo, hi = b * count // blocks, (b + 1) * count // blocks
        np.matmul(z[lo:hi], mix, out=out[lo:hi])
    return out


# The process's worker pool as (worker count, executor), made on first use.
# _pool_lock guards both replacing it and submitting to it, so no task goes
# to a pool that another thread has just shut down.
_pool = None
_pool_lock = threading.Lock()
_thread = threading.local()  # in_pool is set on the pool's own threads


def _mark_pool_thread() -> None:
    _thread.in_pool = True


def _drop_pool() -> None:
    """Forget the pool in a forked child, where its threads do not run."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_drop_pool)


def _inline(workers: int) -> bool:
    """Whether work at ``workers`` runs on the calling thread: at one worker,
    and on a pool thread, which could wait forever for tasks queued behind it."""
    return workers == 1 or getattr(_thread, "in_pool", False)


def _pool_tasks(workers: int, calls) -> list:
    """Futures of the zero-argument ``calls``: tasks of the process's pool of
    ``workers`` threads, or run here and now when ``_inline(workers)``.

    Every task must keep to its thread, as ``_map_chunks`` says of ``fn``.
    """
    global _pool
    if _inline(workers):
        futures = []
        for call in calls:
            futures.append(Future())
            try:
                futures[-1].set_result(call())
            except Exception as exc:
                futures[-1].set_exception(exc)
        return futures
    with _pool_lock:
        if _pool is None or _pool[0] != workers:
            if _pool is not None:
                _pool[1].shutdown(wait=False)  # the tasks already queued still run
            _pool = (workers, ThreadPoolExecutor(workers, initializer=_mark_pool_thread))
        return [_pool[1].submit(call) for call in calls]


def _results(futures) -> list:
    """The results of ``futures`` once all are done; the first exception among
    them, in order, is raised."""
    wait(futures)
    return [fut.result() for fut in futures]


def _side_by_side(workers: int, calls) -> list:
    """The results of the zero-argument ``calls``, made at the same time unless
    ``_inline(workers)``: the first on this thread, each other on a short-lived
    thread of its own.  The chunks that they map then share the pool's queue,
    so no call's last chunk leaves a worker idle.  Every call is done before
    this returns or raises; the first exception in order is raised."""
    if _inline(workers):
        return [call() for call in calls]
    futures = [Future() for _ in calls[1:]]

    def run(call, fut):
        try:
            fut.set_result(call())
        except BaseException as exc:  # the future must be set, or result() waits forever
            fut.set_exception(exc)

    threads = [threading.Thread(target=run, args=pair) for pair in zip(calls[1:], futures)]
    for th in threads:
        th.start()
    try:
        first = calls[0]()
    finally:
        for th in threads:
            th.join()
    return [first, *(fut.result() for fut in futures)]


def _map_chunks(N: int, workers: int, fn) -> list:
    """The results of fn(ci, lo, hi) over the CHUNK-sized chunks [lo, hi) of
    range(N), as a list in chunk order.  The chunks run as tasks of the
    process's worker pool when workers > 1 (``_pool_tasks``).

    ``fn`` must draw only from chunk ci's stream, and write, if it writes,
    only rows [lo, hi) of a shared output.  Its result and its writes are
    then the same for any worker count, and a caller that merges the
    results in the list's order gets the same bytes for any worker count.
    ``fn`` must also keep to its calling thread: no BLAS call large enough
    for OpenBLAS to spread it over threads of its own (see _MIX_BLOCK).
    Every worker would start those threads on every call, so the workers
    would oversubscribe the cores and run no faster than one.  The same rule
    holds for every other pool task, such as the exact rules of an oracle
    trial.
    """
    def run(ci):
        lo = ci * CHUNK
        return fn(ci, lo, min(N, lo + CHUNK))

    n_chunks = -(-N // CHUNK)
    if n_chunks > 1 and not _inline(workers):
        return _results(_pool_tasks(workers, [partial(run, ci) for ci in range(n_chunks)]))
    return [run(ci) for ci in range(n_chunks)]


def sample_batch(rep: SpectralRep, N: int, seed, workers=None) -> SampleBatch:
    """N i.i.d. draws with characteristic function char_fn(rep, .).

    Output is bit-identical for fixed (rep, N, seed) regardless of the
    worker count.
    """
    if int(N) != N or N < 1:
        raise ValueError(f"sample count must be a positive integer, got {N}")
    N = int(N)
    seed = as_seed(seed)
    workers = _resolve_workers(workers)
    nbytes = N * rep.n * 8
    if nbytes > 8 << 30:
        raise ValueError(f"requested batch needs {nbytes / 2**30:.1f} GiB; "
                         "split into streams instead")
    mix = _mix(rep)
    try:
        out = np.empty((N, rep.n), dtype=float)
    except MemoryError as exc:
        raise RuntimeError(f"cannot allocate sample batch of shape ({N}, {rep.n})") from exc

    def fill(ci, lo, hi):
        out[lo:hi] = _chunk_points(rep.q, mix, seed, ci, hi - lo)

    _map_chunks(N, workers, fill)
    return SampleBatch(points=out, rep_hash=rep_hash(rep), seed=seed)


def empirical_char_fn(points: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """Empirical characteristic function mean cos(<xi, X_i>) at each row of xis.

    The imaginary part vanishes in expectation for symmetric laws, so the
    cosine mean is the natural estimator of the (real) target.
    """
    points = np.atleast_2d(points)
    xis = np.atleast_2d(xis)
    return np.cos(points @ xis.T).mean(axis=0)

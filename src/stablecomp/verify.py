"""Inequality checkers, randomized experiments, and machine-readable reports.

Margins are oriented so that nonnegative means "inequality holds":

* elementary L_q margins (exp / power / parallelogram forms) for row pairs
  of vectors in a discrete L_q space;
* exact finite-sum comparison of E||X||^p against the block-decoupled
  companion (and its sign-reflected average form) for norms given by a
  spherical measure;
* Monte Carlo comparison E f(X) - E f(Y) for homogeneous descriptors,
  and its cross-check by the exact two-dimensional rules.

A Monte Carlo trial only counts as a failure when its margin drops below
minus three combined standard errors; the exact finite-sum checks use a
relative floating point allowance instead.

``run_experiment`` runs every mode but lemma1 through one loop over the
``_TRIALS`` table: ``trial(config, t, rng)`` draws trial ``t``'s setup from
its own generator ``_trial_rng(seed, t)`` and returns its TrialRecord.  The
oracle-crosscheck trial evaluates both laws by ``oracle2d._exact_expectation``
and runs a thm1 comparison through ``verify_thm1``; it keeps the
deterministic oracle margin as the verdict and checks that the Monte Carlo
estimates agree with the oracle values.

Worker threads.  Above one worker, the pieces of a trial that do not depend
on each other run at the same time on the process's worker pool (see
``sampling``): ``verify_thm1`` estimates X and Y side by side, so that the
chunks of both share the pool's queue, and the oracle-crosscheck trial runs
its two exact rules as pool tasks while the Monte Carlo runs, and waits for
both before it returns or raises.  Each chunk draws from its own stream and
writes only its own rows, and every reduction runs after its chunks are
done, so each record has the same bytes at any worker count.

Lemma-1 runs produce tens of thousands of records, so they keep each batch
of trials as numpy columns and build a TrialRecord only when one is read.
Their JSONL is written a batch at a time from a template that
``json.dumps`` itself makes from one record holding sentinel values, so key
order, separators and escaping are json's.  The template is cut at the
sentinels into constant byte segments, and each slot between them is filled
for the whole batch at once: the index and passed slots from the integer and
boolean columns, every float slot by ``_text.repr_slots``, which gives
exactly the bytes of ``float.__repr__``, what json writes for a finite
float.  A row holding NaN or an infinity goes through ``json.dumps``
instead.  The bytes therefore equal ``json.dumps`` of every record.  The
lemma1 CSV is made the same way, and equals the ``%r`` rows of ``_csv_line``.
"""

from __future__ import annotations

import json
import operator
import time
from bisect import bisect_right
from collections.abc import Sequence
from concurrent.futures import wait
from dataclasses import dataclass, field, fields, asdict
from functools import partial

import numpy as np

from .homogeneous import (HomogeneousFn, LevyMeasure, LrMatrixBase, _lr_exponent,
                          check_block_symmetry, check_homogeneity,
                          euclidean_power, lp_norm_power, max_abs_power)
from .fourier_pd import _check_pd_dimension
from .moments import (_check_cor3_window, _check_prop1_window, _check_sample_size,
                      _check_thm1_window, _cor3_window, _thm1_window, levy_expectation,
                      mc_expectation)
from .oracle2d import _check_two_dimensional
from .sampling import (Seed, as_seed, _chunk_rng, _pool_tasks, _resolve_workers,
                       _results, _side_by_side)
from .spectral import (BlockSplit, SpectralRep, check_stable_index, decouple, reflect,
                       rep_hash, scale_q)

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "VerificationReport",
    "pd_certificate",
    "random_block_symmetric_measure",
    "random_rep",
    "run_experiment",
    "verify_cor3",
    "verify_prop1",
    "verify_thm1",
]

# random_rep draws 1..8 atoms (n..8 at full rank); the trial generators and
# the benchmark's seed screens replay these draws, so the bound is fixed
_MAX_ATOMS = 8

GENERATOR_NOTE = ("atom counts 1-8, heavy-tailed symmetric (Cauchy) entries, "
                  "exponential weights, k uniform in 1..n-1")


# ---------------------------------------------------------------------------
# vectorized sweeps (used by the acceptance suite and run_experiment)


def lemma1_margin_batch(X: np.ndarray, Y: np.ndarray, q: float, p_list,
                        reversed_p_list=()):
    """Margins of the exp, power, and parallelogram forms for row pairs.

    Each row of X and Y is a vector of L_q over an atomic measure with unit
    weights, 0 < q <= 2.  The power form takes 0 < p <= q; the reversed
    form takes q = 2 and p > 2.  Returns a dict with arrays of margins and
    of the scales used by the relative tolerances.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or X.shape != Y.shape:
        raise ValueError(f"X and Y must be 2-D of one shape; got {X.shape} and {Y.shape}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        raise ValueError("entries must be finite")
    check_stable_index(q)
    for p in p_list:
        if not (0.0 < p <= q):
            raise ValueError(f"power form needs 0 < p <= q; got p={p}, q={q}")
    for p in reversed_p_list:
        if not (q == 2.0 and p > 2.0):
            raise ValueError(f"reversed form needs q = 2 and p > 2; got p={p}, q={q}")
    aX = np.abs(X) ** q
    aY = np.abs(Y) ** q
    sx = aX.sum(axis=1)
    sy = aY.sum(axis=1)
    sp = (np.abs(X + Y) ** q).sum(axis=1)
    sm = (np.abs(X - Y) ** q).sum(axis=1)
    out = {
        "exp": np.exp(-sp) + np.exp(-sm) - 2.0 * np.exp(-sx - sy),
        "parallelogram": 2.0 * (sx + sy) - sp - sm,
        "parallelogram_scale": 2.0 * (sx + sy) + sp + sm,
        "power": {},
        "power_scale": {},
        "reversed": {},
        "reversed_scale": {},
    }
    for p in p_list:
        if p == q:  # e = 1: the power form is the parallelogram form, bit for bit
            out["power"][p] = out["parallelogram"]
            out["power_scale"][p] = out["parallelogram_scale"]
            continue
        e = p / q
        out["power"][p] = 2.0 * (sx + sy) ** e - sp**e - sm**e
        out["power_scale"][p] = 2.0 * (sx + sy) ** e + sp**e + sm**e
    for p in reversed_p_list:
        e = p / 2.0
        out["reversed"][p] = sp**e + sm**e - 2.0 * (sx + sy) ** e
        out["reversed_scale"][p] = sp**e + sm**e + 2.0 * (sx + sy) ** e
    return out


# ---------------------------------------------------------------------------
# randomized configuration generators


def random_rep(rng: np.random.Generator, n: int, q: float,
               full_rank: bool = False, max_condition: float | None = None) -> SpectralRep:
    """Random atomic representation with heavy-tailed geometry and at most
    _MAX_ATOMS atoms.

    ``full_rank`` forces an absolutely continuous law; ``max_condition``
    bounds (max scale / min scale)^2 over the sphere so that densities and
    negative moments stay resolvable.
    """
    for _ in range(256):
        lo = n if full_rank else 1
        m = int(rng.integers(lo, _MAX_ATOMS + 1))
        atoms = np.clip(rng.standard_cauchy((m, n)), -1e3, 1e3)
        weights = rng.exponential(1.0, m) + 0.05
        if not np.any(np.abs(atoms).sum(axis=1) > 0):
            continue
        if full_rank and np.linalg.matrix_rank(atoms) < n:
            continue
        rep = SpectralRep(n=n, q=q, weights=weights, atoms=atoms)
        if max_condition is not None:
            dirs = rng.standard_normal((512, n))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            dirs = np.vstack([dirs, np.eye(n)])
            s = scale_q(rep, dirs)
            if s.min() <= 0 or (s.max() / s.min()) ** 2 > max_condition:
                continue
        return rep
    raise RuntimeError("could not generate a representation within the constraints")


def random_block_symmetric_measure(rng: np.random.Generator, n: int, k: int,
                                   p: float) -> LevyMeasure:
    """Spherical measure closed under negation of the trailing block.

    Three random entries with their mirrored pairs guarantee the represented
    norm satisfies N(u, v) = N(u, -v); axis entries keep the span full.
    """
    xis = [np.eye(n)[i] for i in range(n)]
    weights = list(rng.exponential(1.0, n) + 0.1)
    for _ in range(3):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        w = float(rng.exponential(1.0) + 0.1)
        mirrored = v.copy()
        mirrored[k:] *= -1.0
        xis.append(v)
        weights.append(w)
        if np.max(np.abs(mirrored - v)) > 0:
            xis.append(mirrored)
            weights.append(w)
    return LevyMeasure(p=p, weights=np.array(weights), xis=np.vstack(xis))


_PAIR_BLOCK = 1 << 20  # values per (rows x entries x n) block of the witness search


def block_symmetry_witness(gamma: LevyMeasure, k: int):
    """Index of an entry with no mirrored partner, or None if closed under the flip.

    Entries act through |<x, xi>|, so xi and -xi are interchangeable; the
    partner may match the flipped entry up to an overall sign.  Entries and
    weights match within 1e-12 (relative for weights above 1).  The pairs
    are compared by broadcasting, a block of rows at a time, so that no
    temporary holds more than _PAIR_BLOCK values.
    """
    xis, w = gamma.xis, gamma.weights
    flipped = xis.copy()
    flipped[:, k:] *= -1.0
    rows = max(1, _PAIR_BLOCK // xis.size)
    for lo in range(0, gamma.m, rows):
        fl = flipped[lo:lo + rows, None, :]
        d_xi = np.minimum(np.max(np.abs(xis - fl), axis=2), np.max(np.abs(xis + fl), axis=2))
        wi = w[lo:lo + rows, None]
        d_w = np.abs(w - wi)
        matched = np.any((d_xi <= 1e-12) & (d_w <= 1e-12 * np.maximum(1.0, wi)), axis=1)
        if not matched.all():
            return lo + int(np.argmin(matched))
    return None


def pd_certificate(f: HomogeneousFn) -> str | None:
    """Reason the descriptor is known positive definite, if any.

    "prop3-window": any even continuous positive homogeneous f qualifies
    for p in (-n, -n+1).  "subspace-Lr": norms of subspaces of L_r with
    r <= 2 qualify for every p in (-n, 0).  None means a numerical
    pd_check would be needed.
    """
    if _cor3_window(f.p, f.n):
        return "prop3-window"
    r = _lr_exponent(f.base)
    return "subspace-Lr" if _thm1_window(f.p, f.n) and r is not None and r <= 2.0 else None


# ---------------------------------------------------------------------------
# trial records


@dataclass
class TrialRecord:
    index: int
    mode: str
    config: dict
    lhs: float
    rhs: float
    margin: float
    tolerance: float
    passed: bool
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "mode": self.mode,
            "config": self.config,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "extra": self.extra,
        }


def _json_line(rec: TrialRecord) -> str:
    return json.dumps(rec.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"


_CSV_ROW = "%d,%s,%r,%r,%d\n"  # index, mode, margin, tolerance, passed


def _csv_line(rec: TrialRecord) -> str:
    return _CSV_ROW % (rec.index, rec.mode, rec.margin, rec.tolerance, rec.passed)


_LEMMA1_TOL = 1e-12  # absolute allowance of the exp-form margin
# the passed slot of a lemma1 JSONL line, NUL-padded to one width
_TRUE, _FALSE = (np.frombuffer(b.ljust(5, b"\0"), np.uint8)[:, None]
                 for b in (b"true", b"false"))


@dataclass(frozen=True, eq=False)
class _Lemma1Batch:
    """One batch of lemma1 trials as columns, one entry per trial.

    ``power`` and ``reversed`` map ``str(p)`` to that exponent's margins.
    """

    start: int
    q: float
    dim: int
    margin: np.ndarray
    passed: np.ndarray
    parallelogram: np.ndarray
    power: dict
    reversed: dict

    def __len__(self) -> int:
        return len(self.margin)

    def _values(self) -> list:
        return [self.margin, self.parallelogram, *self.power.values(),
                *self.reversed.values()]

    def _record(self, index, passed, values) -> TrialRecord:
        margin, parallelogram, *rest = values
        k = len(self.power)
        return TrialRecord(
            index=index, mode="lemma1",
            config={"q": self.q, "dim": self.dim, "generator": GENERATOR_NOTE},
            lhs=0.0, rhs=0.0, margin=margin, tolerance=_LEMMA1_TOL, passed=passed,
            extra={"parallelogram": parallelogram,
                   "power": dict(zip(self.power, rest[:k])),
                   "reversed": dict(zip(self.reversed, rest[k:]))})

    def record(self, j: int) -> TrialRecord:
        return self._record(self.start + j, bool(self.passed[j]),
                            [float(col[j]) for col in self._values()])

    def _template(self) -> tuple:
        """The JSONL line of a record cut at its slots: the constant byte
        segments around them, and for each slot in turn the column that
        fills it (0 index, 1 passed, then ``_values``)."""
        marks = [f"@{i}@" for i in range(2 + len(self._values()))]
        line = _json_line(self._record(marks[0], marks[1], marks[2:]))
        slots = [json.dumps(m) for m in marks]
        order = sorted(range(len(slots)), key=lambda i: line.index(slots[i]))
        segments = []
        for i in order:
            assert line.count(slots[i]) == 1
            head, _, line = line.partition(slots[i])
            segments.append(head.encode())
        return segments + [line.encode()], order

    def jsonl(self) -> str:
        from ._text import chunks, int_slots, repr_slots  # only the text writers import it

        segments, order = self._template()
        columns = self._values()
        # a column stored twice (power at p = q is the parallelogram) is formatted once
        slots = {}
        for col in columns:
            if id(col) not in slots:
                slots[id(col)] = repr_slots(col)
        fills = [int_slots(np.arange(self.start, self.start + len(self))),
                 np.where(self.passed, _TRUE, _FALSE),
                 *(slots[id(col)] for col in columns)]
        pieces = [segments[0]]
        for i, segment in zip(order, segments[1:]):
            pieces += [fills[i], segment]
        finite = np.logical_and.reduce([np.isfinite(col) for col in columns])
        out, lo = [], 0
        for j in np.flatnonzero(~finite).tolist():  # json writes NaN and Infinity
            out += [*chunks(pieces, lo, j), _json_line(self.record(j))]
            lo = j + 1
        return "".join([*out, *chunks(pieces, lo)])

    def csv(self) -> str:
        from ._text import chunks, int_slots, repr_slots

        return "".join(chunks([int_slots(np.arange(self.start, self.start + len(self))),
                               b",lemma1,", repr_slots(self.margin), b",",
                               repr_slots([_LEMMA1_TOL]), b",",
                               (self.passed + np.uint8(ord("0")))[None], b"\n"]))


class _Lemma1Records(Sequence):
    """The TrialRecords of a lemma1 run, each built from its batch's columns
    when it is read."""

    def __init__(self, batches: list):
        self.batches = batches
        self._starts = [b.start for b in batches]
        self._len = sum(len(b) for b in batches)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._len))]
        i = operator.index(i)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("record index out of range")
        b = self.batches[bisect_right(self._starts, i) - 1]
        return b.record(i - b.start)

    def __iter__(self):
        for b in self.batches:
            for j in range(len(b)):
                yield b.record(j)


def verify_prop1(rep: SpectralRep, split: BlockSplit, gamma: LevyMeasure,
                 p: float, index: int = 0) -> TrialRecord:
    """Exact finite-sum comparison of E||X||^p with the decoupled companion.

    Checks both the headline comparison and the sign-reflected average form
    (E||X||^p + E||X_-||^p vs 2 E||Y||^p); for q = 2 with p > 2 both run in
    the reversed direction.  Margins are deterministic; the tolerance is a
    pure floating point allowance.
    """
    split.validate(rep.n)
    witness = block_symmetry_witness(gamma, split.k)
    if witness is not None:
        raise ValueError(
            f"measure is not closed under the trailing-block sign flip; "
            f"offending entry {witness}: {gamma.xis[witness].tolist()}")
    q = rep.q
    reversed_regime = q == 2.0 and p > 2.0
    e_x = levy_expectation(rep, gamma, p)  # checks the window of Prop 1
    e_y = levy_expectation(decouple(rep, split), gamma, p)
    e_xm = levy_expectation(reflect(rep, split), gamma, p)
    if reversed_regime:
        margin = e_x - e_y
        margin_pair = e_x + e_xm - 2.0 * e_y
    else:
        margin = e_y - e_x
        margin_pair = 2.0 * e_y - e_x - e_xm
    scale = abs(e_x) + abs(e_y) + abs(e_xm)
    tol = 1e-10 * scale
    passed = margin >= -tol and margin_pair >= -tol
    return TrialRecord(
        index=index, mode="prop1",
        config={"n": rep.n, "q": q, "k": split.k, "p": p,
                "rep_hash": rep_hash(rep), "reversed": reversed_regime},
        lhs=e_x, rhs=e_y, margin=margin, tolerance=tol, passed=passed,
        extra={"e_x_reflected": e_xm, "margin_pair": margin_pair})


def verify_thm1(rep: SpectralRep, split: BlockSplit, f: HomogeneousFn,
                N: int, seed, index: int = 0, mode: str = "thm1",
                workers=None) -> TrialRecord:
    """Monte Carlo comparison E f(X) >= E f(Y) for a certified descriptor.

    X and Y are estimated from independent streams, side by side above one
    worker; the margin tolerance is three combined standard errors (or
    median-of-means deviation bounds in the infinite-variance regime).
    Descriptors without a positive definiteness certificate are flagged, not
    rejected.
    """
    split.validate(rep.n)
    if f.n != rep.n:
        raise ValueError("descriptor and representation dimensions differ")
    _check_thm1_window(f.p, rep.n)
    hom = check_homogeneity(f, trials=64, seed=Seed(17))
    if not hom.passed:
        raise ValueError(f"descriptor failed the homogeneity check "
                         f"(measured {hom.measured_exponent})")
    sym = check_block_symmetry(f, split.k, trials=128, seed=Seed(23))
    if not sym.passed:
        raise ValueError(f"f(u, v) != f(u, -v) at witness {sym.witness}")
    seed = as_seed(seed)
    workers = _resolve_workers(workers)
    cert = pd_certificate(f)
    flags = [] if cert else ["uncertified"]
    rep_y = decouple(rep, split)
    # both sides at once, so that their chunks share the worker pool's queue
    est_x, est_y = _side_by_side(workers, [
        partial(mc_expectation, f, rep, N, Seed(seed.seed, 2 * seed.stream_id),
                workers=workers),
        partial(mc_expectation, f, rep_y, N, Seed(seed.seed, 2 * seed.stream_id + 1),
                workers=workers)])
    margin = est_x.value - est_y.value
    combined = float(np.hypot(est_x.uncertainty, est_y.uncertainty))
    tol = 3.0 * combined
    extra = {
        "stderr_x": est_x.uncertainty,
        "stderr_y": est_y.uncertainty,
        "estimator": est_x.estimator,
        "certificate": cert,
        "flags": flags,
    }
    passed = margin >= -tol
    return TrialRecord(
        index=index, mode=mode,
        config={"n": rep.n, "q": rep.q, "k": split.k, "p": f.p,
                "family": f.base.to_json_dict()["kind"], "N": N,
                "rep_hash": rep_hash(rep), "seed": seed.to_json_dict()},
        lhs=est_x.value, rhs=est_y.value, margin=margin, tolerance=tol,
        passed=passed, extra=extra)


def verify_cor3(rep: SpectralRep, split: BlockSplit, p: float, N: int, seed,
                index: int = 0, workers=None) -> TrialRecord:
    """Max-coordinate special case; p must lie in the open window (-n, -n+1),
    where no positive definiteness certificate is required."""
    _check_cor3_window(p, rep.n)
    f = max_abs_power(rep.n, p)
    return verify_thm1(rep, split, f, N, seed, index=index, mode="cor3",
                       workers=workers)


# ---------------------------------------------------------------------------
# experiment configuration and execution


def _config_type_ok(key: str, val) -> bool:
    """Whether ``val`` has a JSON type the configuration key ``key`` takes."""
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if val is None:
        return key in ("p_value", "out_jsonl", "out_csv", "workers")
    if key in ("n_values", "q_values"):
        return isinstance(val, (list, tuple)) and all(map(number, val))
    if key in ("mode", "out_jsonl", "out_csv"):
        return isinstance(val, str)
    # N, seed and workers take integral floats such as 1e5; trials counts a range
    return number(val) and (key != "trials" or isinstance(val, int))


# Keys that a JSON configuration may spell as a float such as 1e5.
_INTEGRAL_KEYS = ("N", "seed", "workers")


@dataclass
class ExperimentConfig:
    mode: str
    trials: int = 100
    N: int = 100_000
    seed: int = 0
    n_values: tuple = (2, 3)
    q_values: tuple = (0.7, 1.0, 1.5, 2.0)
    p_value: float | None = None
    out_jsonl: str | None = None
    out_csv: str | None = None
    workers: int | None = None

    def validate(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}; choose from {_MODES}")
        for key in _INTEGRAL_KEYS:
            val = getattr(self, key)
            if isinstance(val, float) and not val.is_integer():
                raise ValueError(f"experiment configuration key {key!r} must be an "
                                 f"integer, got {val!r}")
        for key in ("n_values", "q_values"):
            if not getattr(self, key):
                raise ValueError(f"experiment configuration key {key!r} must not be empty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.mode in _SAMPLING_MODES:
            _check_sample_size(self.N)
        if self.workers is not None:
            _resolve_workers(self.workers)
        for q in self.q_values:
            check_stable_index(q)
        if not all(int(n) == n and n >= 2 for n in self.n_values):
            raise ValueError("dimensions must be integers >= 2")
        for n in self.n_values:
            if self.mode == "oracle-crosscheck":
                _check_two_dimensional(n)
            if self.mode == "pd":
                _check_pd_dimension(n)
        p = self.p_value
        if p is None:
            return
        if self.mode in ("lemma1", "oracle-crosscheck"):
            raise ValueError(f"{self.mode} draws its own exponents; p_value must be unset")
        if self.mode == "prop1":
            for q in self.q_values:
                _check_prop1_window(p, q)
        for n in self.n_values:
            if self.mode == "cor3":
                _check_cor3_window(p, n)
            if self.mode in ("thm1", "pd"):
                _check_thm1_window(p, n)

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["n_values"] = list(self.n_values)
        d["q_values"] = list(self.q_values)
        return d

    @classmethod
    def from_json_dict(cls, d: dict, **overrides) -> "ExperimentConfig":
        """Config from a JSON object; ``overrides`` replace its entries."""
        if not isinstance(d, dict):
            raise ValueError(f"an experiment configuration is a JSON object, "
                             f"not {type(d).__name__}")
        d = {**d, **overrides}
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown experiment configuration keys {unknown}")
        for key, val in d.items():
            if not _config_type_ok(key, val):
                raise ValueError(f"experiment configuration key {key!r} has the wrong "
                                 f"type: {val!r}")
        for key in _INTEGRAL_KEYS:
            if isinstance(d.get(key), float) and d[key].is_integer():
                d[key] = int(d[key])
        if "n_values" in d:
            d["n_values"] = tuple(d["n_values"])
        if "q_values" in d:
            d["q_values"] = tuple(d["q_values"])
        return cls(**d)


@dataclass
class VerificationReport:
    config: ExperimentConfig
    records: Sequence
    min_margin: float
    failures: int
    runtime_s: float

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def _texts(self, batch_text, record_text):
        if isinstance(self.records, _Lemma1Records):
            return map(batch_text, self.records.batches)
        return map(record_text, self.records)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            fh.writelines(self._texts(_Lemma1Batch.jsonl, _json_line))

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,mode,margin,tolerance,passed\n")
            fh.writelines(self._texts(_Lemma1Batch.csv, _csv_line))


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return _chunk_rng(Seed(seed, stream_id=trial), 2**31)


def _random_thm1_fn(rng: np.random.Generator, n: int, k: int) -> HomogeneousFn:
    family = ("max_abs", "l1", "euclidean", "lr_subspace")[int(rng.integers(0, 4))]
    if family == "max_abs":
        p = float(rng.uniform(-n + 0.08, -n + 0.92))
        return max_abs_power(n, p)
    p = float(rng.uniform(-n + 0.08, -0.08))
    if family == "l1":
        return lp_norm_power(n, 1.0, p)
    if family == "euclidean":
        w = np.exp(rng.uniform(-1.0, 1.0, n))
        return euclidean_power(n, p, weights=w)
    return HomogeneousFn(base=_random_lr_subspace(rng, n, k), p=p)


def _random_lr_subspace(rng: np.random.Generator, n: int, k: int) -> LrMatrixBase:
    """Block-symmetric subspace-of-L_r norm: the axes plus random rows and
    their mirrors under the trailing-block sign flip."""
    r = float(rng.uniform(0.5, 2.0))
    rows = [np.eye(n)[i] for i in range(n)]
    for _ in range(int(rng.integers(1, 4))):
        v = rng.standard_normal(n)
        m = v.copy()
        m[k:] *= -1.0
        rows += [v, m]
    return LrMatrixBase(matrix=np.vstack(rows), r=r)


def _run_lemma1(config: ExperimentConfig) -> _Lemma1Records:
    batches = []
    idx = 0
    batch = 4096
    for qi, q in enumerate(config.q_values):
        p_list = (q / 4.0, q / 2.0, q)
        rev_list = (2.5, 3.0, 4.0) if q == 2.0 else ()
        remaining = config.trials
        bi = 0
        while remaining > 0:
            count = min(batch, remaining)
            rng = _trial_rng(config.seed, (qi + 1) * 100_000 + bi)
            dim = int(rng.integers(2, 17))
            X = rng.standard_cauchy((count, dim)) * rng.uniform(0.2, 2.0)
            Y = rng.standard_cauchy((count, dim)) * rng.uniform(0.2, 2.0)
            out = lemma1_margin_batch(X, Y, q, p_list, rev_list)
            ok = out["exp"] >= -_LEMMA1_TOL
            ok &= out["parallelogram"] >= -1e-10 * out["parallelogram_scale"]
            for p in p_list:
                ok &= out["power"][p] >= -1e-10 * out["power_scale"][p]
            for p in rev_list:
                ok &= out["reversed"][p] >= -1e-10 * out["reversed_scale"][p]
            batches.append(_Lemma1Batch(
                start=idx, q=q, dim=dim, margin=out["exp"], passed=ok,
                parallelogram=out["parallelogram"],
                power={str(p): out["power"][p] for p in p_list},
                reversed={str(p): out["reversed"][p] for p in rev_list}))
            idx += count
            remaining -= count
            bi += 1
    return _Lemma1Records(batches)


def _pick(rng: np.random.Generator, values):
    return values[int(rng.integers(0, len(values)))]


def _draw_nqk(config: ExperimentConfig, rng: np.random.Generator) -> tuple:
    n = int(_pick(rng, config.n_values))
    q = float(_pick(rng, config.q_values))
    return n, q, int(rng.integers(1, n))


def _prop1_trial(config: ExperimentConfig, t: int, rng: np.random.Generator) -> TrialRecord:
    n, q, k = _draw_nqk(config, rng)
    p = config.p_value if config.p_value is not None else float(rng.uniform(0.15, 1.0) * q)
    rep = random_rep(rng, n, q)
    gamma = random_block_symmetric_measure(rng, n, k, p)
    return verify_prop1(rep, BlockSplit(k), gamma, p, index=t)


def _mc_rep(config: ExperimentConfig, rng: np.random.Generator) -> tuple:
    n, q, k = _draw_nqk(config, rng)
    return n, k, random_rep(rng, n, q, full_rank=True, max_condition=1e4)


def _thm1_trial(config: ExperimentConfig, t: int, rng: np.random.Generator) -> TrialRecord:
    n, k, rep = _mc_rep(config, rng)
    f = _random_thm1_fn(rng, n, k)
    if config.p_value is not None:
        f = HomogeneousFn(base=f.base, p=config.p_value)
    return verify_thm1(rep, BlockSplit(k), f, config.N, Seed(config.seed, t), index=t,
                       workers=config.workers)


def _cor3_trial(config: ExperimentConfig, t: int, rng: np.random.Generator) -> TrialRecord:
    n, k, rep = _mc_rep(config, rng)
    p = config.p_value if config.p_value is not None \
        else float(rng.uniform(-n + 0.08, -n + 0.92))
    return verify_cor3(rep, BlockSplit(k), p, config.N, Seed(config.seed, t), index=t,
                       workers=config.workers)


def _pd_trial(config: ExperimentConfig, t: int, rng: np.random.Generator) -> TrialRecord:
    from .fourier_pd import pd_check

    n = int(_pick(rng, config.n_values))
    f = _random_thm1_fn(rng, n, n - 1)
    p = config.p_value if config.p_value is not None \
        else float(rng.uniform(-n + 0.08, -n + 0.92))
    f = HomogeneousFn(base=f.base, p=p)
    report = pd_check(f)
    return TrialRecord(
        index=t, mode="pd",
        config={"n": n, "p": p, "family": f.base.to_json_dict()["kind"],
                "generator": GENERATOR_NOTE},
        lhs=report.min_action, rhs=0.0, margin=report.min_action,
        tolerance=report.quadrature_error_bound, passed=report.verdict != "violation",
        extra={"verdict": report.verdict, "witness": report.witness.to_json_dict(),
               "family_size": report.family_size})


def _oracle_trial(config: ExperimentConfig, t: int, rng: np.random.Generator) -> TrialRecord:
    from .oracle2d import _exact_expectation

    q = float(_pick(rng, config.q_values))
    rep = random_rep(rng, 2, q, full_rank=True, max_condition=1e4)
    family = ("max_abs", "l1", "euclidean")[int(rng.integers(0, 3))]
    if family == "max_abs":
        p = float(rng.uniform(-1.9, -1.1))
        f = max_abs_power(2, p)
    else:
        # plain-variance regime (2p > -n) so the unbiased mean is comparable
        # to the oracle value directly
        p = float(rng.uniform(-0.95, -0.15))
        f = lp_norm_power(2, 1.0, p) if family == "l1" else euclidean_power(2, p)
    split = BlockSplit(1)
    workers = _resolve_workers(config.workers)
    # the exact rules run on the worker pool while the Monte Carlo runs
    exact = _pool_tasks(workers, [partial(_exact_expectation, f, r)
                                  for r in (rep, decouple(rep, split))])
    try:
        mc = verify_thm1(rep, split, f, config.N, Seed(config.seed, t), workers=workers)
    finally:
        wait(exact)
    ox, oy = _results(exact)
    x = mc.extra
    margin = ox.value - oy.value
    bound = ox.error_bound + oy.error_bound
    if x["estimator"] == "plain":
        # the oracle's own reported error participates in the allowance
        sides = ((ox, mc.lhs, x["stderr_x"]), (oy, mc.rhs, x["stderr_y"]))
        agree = all(abs(o.value - v) <= max(3.0 * se, 1e-2 * abs(o.value)) + o.error_bound
                    for o, v, se in sides)
    else:
        # median-of-means is median-biased for heavy-tailed integrands
        # (several percent of the value, largely shared by both sides),
        # so only a coarse margin-level consistency check is sound here
        agree = abs(margin - mc.margin) <= max(mc.tolerance, 0.35 * abs(margin))
    return TrialRecord(
        index=t, mode="oracle-crosscheck",
        config={"n": 2, "q": q, "k": 1, "p": p, "family": family, "N": config.N,
                "rep_hash": mc.config["rep_hash"], "generator": GENERATOR_NOTE},
        lhs=ox.value, rhs=oy.value, margin=margin, tolerance=bound,
        passed=bool(margin >= -bound and agree),
        extra={"mc_margin": mc.margin, "mc_tolerance": mc.tolerance, "mc_x": mc.lhs,
               "mc_y": mc.rhs, "estimator": x["estimator"]})


# mode -> trial(config, t, rng) making the TrialRecord of trial t from its rng
_TRIALS = {"prop1": _prop1_trial, "thm1": _thm1_trial, "cor3": _cor3_trial,
           "pd": _pd_trial, "oracle-crosscheck": _oracle_trial}
_MODES = ("lemma1", *_TRIALS)
# the modes whose trials draw N samples; the others never read N
_SAMPLING_MODES = ("thm1", "cor3", "oracle-crosscheck")


def run_experiment(config: ExperimentConfig) -> VerificationReport:
    """Execute the configured trials, optionally writing JSONL/CSV outputs.

    Re-running with the same configuration and seed produces byte-identical
    JSONL (runtime lives only in the in-memory aggregate).
    """
    config.validate()
    t0 = time.perf_counter()
    if config.mode == "lemma1":
        records = _run_lemma1(config)
    else:
        trial = _TRIALS[config.mode]
        records = [trial(config, t, _trial_rng(config.seed, t)) for t in range(config.trials)]
    runtime = time.perf_counter() - t0
    if isinstance(records, _Lemma1Records):
        min_margin = min((b.margin.min() for b in records.batches), default=float("nan"))
        failures = sum(int(np.count_nonzero(~b.passed)) for b in records.batches)
    else:
        min_margin = min((r.margin for r in records), default=float("nan"))
        failures = sum(0 if r.passed else 1 for r in records)
    report = VerificationReport(config=config, records=records,
                                min_margin=float(min_margin),
                                failures=failures, runtime_s=runtime)
    if config.out_jsonl:
        report.write_jsonl(config.out_jsonl)
    if config.out_csv:
        report.write_csv(config.out_csv)
    return report

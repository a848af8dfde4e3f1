"""Descriptors of even, positive, homogeneous functions f(x) = N(x)^p.

Functions are structured (norm base + exponent) rather than opaque
callables so the Fourier and oracle machinery can exploit their form.
Every base is continuous, strictly positive away from the origin, even,
and exactly 1-homogeneous; the descriptor exponent p may be any nonzero
real, so f(tx) = |t|^p f(x).

Available bases:

* ``MaxAbsBase``          max_i |x_i|
* ``LrMatrixBase``        (sum_i |(Bx)_i|^r)^(1/r) for an injective B, r > 0
* ``DiagEuclideanBase``   sqrt(sum_i d_i x_i^2), d_i > 0

A norm given by a finite spherical measure (``LevyMeasure``, Levy's
representation ||x||^p = sum_m c_m |<x, xi_m>|^p) is the discrete L_p norm
of the rows c_m^(1/p) xi_m: ``LevyBase(measure)`` returns that
``LrMatrixBase``, and the JSON kind "levy" loads through it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .sampling import Seed, as_seed, _chunk_rng
from .spectral import BlockSplit

__all__ = [
    "DiagEuclideanBase",
    "HomogeneousFn",
    "LevyBase",
    "LevyMeasure",
    "LrMatrixBase",
    "MaxAbsBase",
    "check_block_symmetry",
    "check_homogeneity",
    "euclidean_power",
    "evaluate_many",
    "fn_from_json",
    "fn_to_json",
    "lp_norm_power",
    "max_abs_power",
]


@dataclass(frozen=True)
class MaxAbsBase:
    n: int

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    def values(self, x: np.ndarray) -> np.ndarray:
        # a column at a time: np.max over the short last axis of row-major
        # points costs ~10x more; the same values, bit for bit
        x = np.asarray(x)
        out = np.abs(x[..., :1])[..., 0]  # an array, so out= works for one point too
        for j in range(1, x.shape[-1]):
            np.maximum(out, np.abs(x[..., j]), out=out)
        return out[()]

    def to_json_dict(self) -> dict:
        return {"kind": "max_abs", "n": self.n}


@dataclass(frozen=True, eq=False)
class LrMatrixBase:
    """Discrete L_r norm x -> (sum_i |(Bx)_i|^r)^(1/r); B must be injective."""

    matrix: np.ndarray
    r: float

    def __post_init__(self):
        mat = np.atleast_2d(np.asarray(self.matrix, dtype=float)).copy()
        r = float(self.r)
        if not (r > 0) or not np.isfinite(r):
            raise ValueError(f"exponent r must be positive, got {r}")
        if not np.all(np.isfinite(mat)) or mat.size == 0:
            raise ValueError("matrix must be a finite nonempty 2-D array")
        if np.linalg.matrix_rank(mat) < mat.shape[1]:
            raise ValueError("matrix rows do not span R^n (B is not injective); "
                             "the norm would vanish off the origin")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "r", r)

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    def values(self, x: np.ndarray) -> np.ndarray:
        # one row of B at a time from the point columns, as in MaxAbsBase:
        # no BLAS call (see sampling._map_chunks) and no (K, rows) temporary
        x = np.asarray(x)
        acc = np.zeros(x.shape[:-1])
        row, tmp = np.empty_like(acc), np.empty_like(acc)
        for b in self.matrix:
            cols = np.flatnonzero(b)
            if cols.size == 0:
                continue
            np.multiply(x[..., cols[0]], b[cols[0]], out=row)
            for j in cols[1:]:
                row += np.multiply(x[..., j], b[j], out=tmp)
            np.abs(row, out=row)
            row **= self.r
            acc += row
        acc **= 1.0 / self.r
        return acc[()]

    def to_json_dict(self) -> dict:
        return {"kind": "lr_matrix", "r": self.r,
                "matrix": [[float(v) for v in row] for row in self.matrix]}


@dataclass(frozen=True, eq=False)
class DiagEuclideanBase:
    weights: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float)).copy()
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("diagonal weights must be finite and positive")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.size

    def values(self, x: np.ndarray) -> np.ndarray:
        # a column at a time, with no BLAS call (see LrMatrixBase.values)
        x = np.asarray(x)
        acc = np.multiply(x[..., 0], x[..., 0], out=np.empty(x.shape[:-1]))
        acc *= self.weights[0]
        tmp = np.empty_like(acc)
        for j in range(1, self.n):
            np.multiply(x[..., j], x[..., j], out=tmp)
            tmp *= self.weights[j]
            acc += tmp
        return np.sqrt(acc, out=acc)[()]

    def to_json_dict(self) -> dict:
        return {"kind": "diag_euclidean", "weights": [float(v) for v in self.weights]}


@dataclass(frozen=True, eq=False)
class LevyMeasure:
    """Finite nonnegative measure on the unit sphere representing a norm.

    N(x) = (sum_m c_m |<x, xi_m>|^p)^(1/p) with homogeneity exponent p > 0.
    Entries need not span R^n; spanning is required only where the
    represented norm must be positive definite (see ``LevyBase``).
    """

    p: float
    weights: np.ndarray
    xis: np.ndarray

    def __post_init__(self):
        p = float(self.p)
        if not (p > 0) or not np.isfinite(p):
            raise ValueError(f"homogeneity exponent must be positive, got {p}")
        w = np.atleast_1d(np.asarray(self.weights, dtype=float)).copy()
        x = np.atleast_2d(np.asarray(self.xis, dtype=float)).copy()
        if w.size == 0:
            raise ValueError("at least one entry is required")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("entry weights must be finite and positive")
        if x.shape[0] != w.size or not np.all(np.isfinite(x)):
            raise ValueError("xis must be a finite (m, n) array matching the weights")
        norms = np.linalg.norm(x, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("entries must be unit vectors (|xi| = 1 within 1e-12)")
        w.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "xis", x)

    @property
    def n(self) -> int:
        return self.xis.shape[1]

    @property
    def m(self) -> int:
        return self.weights.size

    def to_json_dict(self) -> dict:
        return {"p": self.p,
                "entries": [{"c": float(c), "xi": [float(v) for v in xi]}
                            for c, xi in zip(self.weights, self.xis)]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, d: dict) -> "LevyMeasure":
        entries = d["entries"]
        return cls(p=float(d["p"]),
                   weights=np.array([e["c"] for e in entries], dtype=float),
                   xis=np.array([e["xi"] for e in entries], dtype=float).reshape(len(entries), -1))

    @classmethod
    def from_json(cls, s: str) -> "LevyMeasure":
        return cls.from_json_dict(json.loads(s))


def LevyBase(measure: LevyMeasure) -> LrMatrixBase:
    """The norm a spanning measure represents, as the discrete L_p norm of
    the rows c_m^(1/p) xi_m; raises ValueError when the entries do not span."""
    rows = measure.weights[:, None] ** (1.0 / measure.p) * measure.xis
    return LrMatrixBase(matrix=rows, r=measure.p)


def _lr_exponent(base) -> float | None:
    """r for which base is the norm of a subspace of L_r, if one is known."""
    if isinstance(base, LrMatrixBase):
        return base.r
    if isinstance(base, DiagEuclideanBase):
        return 2.0
    return None


_BASE_KINDS = {
    "max_abs": lambda d: MaxAbsBase(n=int(d["n"])),
    "lr_matrix": lambda d: LrMatrixBase(matrix=np.array(d["matrix"], dtype=float),
                                        r=float(d["r"])),
    "diag_euclidean": lambda d: DiagEuclideanBase(
        weights=np.array(d["weights"], dtype=float)),
    "levy": lambda d: LevyBase(measure=LevyMeasure.from_json_dict(d["measure"])),
}


@dataclass(frozen=True)
class HomogeneousFn:
    """f(x) = base(x)^p; ``check_block_symmetry`` tests f against a split."""

    base: object
    p: float

    def __post_init__(self):
        p = float(self.p)
        if p == 0.0 or not np.isfinite(p):
            raise ValueError("exponent p must be a nonzero finite real")
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.base.n

    def __call__(self, x) -> float:
        """f(x) at a single point; the origin is singular when p < 0."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.n},)")
        return float(evaluate_many(self, x)[0])

    def to_json_dict(self) -> dict:
        d = self.base.to_json_dict()
        d["p"] = self.p
        return d


def evaluate_many(f: HomogeneousFn, x: np.ndarray) -> np.ndarray:
    """Vectorized evaluation on rows of x, shape (K, n)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != f.n:
        raise ValueError(f"points have dimension {x.shape[1]}, expected {f.n}")
    base = f.base.values(x)
    if f.p < 0 and np.any(base == 0.0):
        raise ValueError("f is singular at the origin for negative exponents")
    return base**f.p


def max_abs_power(n: int, p: float) -> HomogeneousFn:
    return HomogeneousFn(base=MaxAbsBase(n=n), p=p)


def lp_norm_power(n: int, r: float, p: float) -> HomogeneousFn:
    """The coordinate l_r (quasi)norm raised to the power p."""
    return HomogeneousFn(base=LrMatrixBase(matrix=np.eye(n), r=r), p=p)


def euclidean_power(n: int, p: float, weights=None) -> HomogeneousFn:
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    return HomogeneousFn(base=DiagEuclideanBase(weights=w), p=p)


def fn_to_json(f: HomogeneousFn) -> str:
    return json.dumps(f.to_json_dict(), sort_keys=True)


def fn_from_json(s) -> HomogeneousFn:
    """The descriptor ``fn_to_json`` wrote; an older file's "block_split" key is ignored."""
    d = json.loads(s) if isinstance(s, str) else dict(s)
    kind = d.get("kind")
    if kind not in _BASE_KINDS:
        raise ValueError(f"unknown descriptor kind {kind!r}")
    return HomogeneousFn(base=_BASE_KINDS[kind](d), p=float(d["p"]))


def _sphere_points(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    g = rng.standard_normal((count, n))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


@dataclass(frozen=True)
class BlockSymmetryResult:
    passed: bool
    max_rel_dev: float
    witness: np.ndarray | None = None

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class HomogeneityResult:
    passed: bool
    measured_exponent: float

    def __bool__(self) -> bool:
        return self.passed


def check_block_symmetry(f: HomogeneousFn, k: int, trials: int = 256,
                         seed=Seed(0)) -> BlockSymmetryResult:
    """Sampled check of f(u, v) = f(u, -v) on the unit sphere.

    Fails with the witness point of the largest relative deviation when that
    exceeds 1e-10.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    BlockSplit(k).validate(f.n)
    rng = _chunk_rng(as_seed(seed), 0)
    pts = _sphere_points(rng, trials, f.n)
    flipped = pts.copy()
    flipped[:, k:] *= -1.0
    va = evaluate_many(f, pts)
    vb = evaluate_many(f, flipped)
    rel = np.abs(va - vb) / np.maximum(np.abs(va), np.abs(vb))
    worst = int(np.argmax(rel))
    if rel[worst] > 1e-10:
        return BlockSymmetryResult(passed=False, max_rel_dev=float(rel[worst]),
                                   witness=pts[worst])
    return BlockSymmetryResult(passed=True, max_rel_dev=float(rel[worst]))


def check_homogeneity(f: HomogeneousFn, trials: int = 256, seed=Seed(0)) -> HomogeneityResult:
    """Regress log f(tx) - log f(x) on log|t|; passes when the slope is
    within 1e-9 of the descriptor exponent p."""
    if trials < 1:
        raise ValueError("at least one trial is required")
    rng = _chunk_rng(as_seed(seed), 1)
    pts = _sphere_points(rng, trials, f.n)
    t = np.exp(rng.uniform(-np.log(10.0), np.log(10.0), trials))
    dlog = np.log(evaluate_many(f, pts * t[:, None])) - np.log(evaluate_many(f, pts))
    logt = np.log(t)
    slope = float(dlog @ logt / (logt @ logt))
    return HomogeneityResult(passed=abs(slope - f.p) <= 1e-9,
                             measured_exponent=slope)

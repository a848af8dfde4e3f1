"""Finite spectral representations of symmetric q-stable vectors.

A law is described by a finite family of weighted directions (w_j, a_j),
0 < q <= 2.  The characteristic function is

    phi(xi) = exp(- sum_j w_j |<a_j, xi>|^q),

so every block operation below (decoupling into independent halves,
sign reflection of the trailing block, marginal restriction) acts on the
atoms directly and changes the law exactly.  Downstream expectation
identities therefore evaluate as finite sums with no discretization error.

No normalization of atoms is imposed: the law is insensitive to the
rescaling (w, a) -> (w * c**q, a / c), so weights need not sum to one and
directions need not be unit vectors.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BlockSplit",
    "SpectralRep",
    "char_fn",
    "decouple",
    "marginal_block",
    "reflect",
    "rep_hash",
    "scale_q",
]


def _readonly(arr, dtype=float):
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


def check_stable_index(q) -> float:
    """Validate the stability exponent 0 < q <= 2 and return it as a float."""
    q = float(q)
    if not (0.0 < q <= 2.0) or not np.isfinite(q):
        raise ValueError(f"stability exponent must satisfy 0 < q <= 2, got {q}")
    return q


@dataclass(frozen=True)
class BlockSplit:
    """Coordinate split (1..k | k+1..n), stored as the size k of the head block."""

    k: int

    def __post_init__(self):
        if int(self.k) != self.k or self.k < 1:
            raise ValueError(f"block split must be a positive integer, got {self.k}")
        object.__setattr__(self, "k", int(self.k))

    def validate(self, n: int) -> None:
        if not 1 <= self.k < n:
            raise ValueError(f"split k={self.k} requires 1 <= k < n, got n={n}")


@dataclass(frozen=True, eq=False)
class SpectralRep:
    """Atomic spectral representation of a symmetric q-stable vector in R^n.

    Attributes
    ----------
    n : dimension (marginal restrictions may produce n = 1; joint models
        start at n >= 2)
    q : stability exponent in (0, 2]
    weights : (m,) positive atom weights
    atoms : (m, n) atom direction vectors, one row per atom
    """

    n: int
    q: float
    weights: np.ndarray
    atoms: np.ndarray

    def __post_init__(self):
        q = check_stable_index(self.q)
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.n}")
        n = int(self.n)
        w = _readonly(np.atleast_1d(self.weights))
        a = _readonly(np.atleast_2d(self.atoms))
        if w.ndim != 1 or w.size == 0:
            raise ValueError("at least one atom is required")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("atom weights must be finite and positive")
        if a.shape != (w.size, n) or not np.all(np.isfinite(a)):
            raise ValueError(f"atoms must be a finite ({w.size}, {n}) array, got {a.shape}")
        if not np.any(np.abs(a).sum(axis=1) > 0):
            raise ValueError("spectral map is identically zero (all atoms vanish)")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "atoms", a)

    @classmethod
    def from_atoms(cls, q, atom_pairs) -> "SpectralRep":
        """Build from an iterable of (weight, vector) pairs; n is the length
        of the first vector."""
        pairs = list(atom_pairs)
        if not pairs:
            raise ValueError("at least one atom is required")
        weights = [w for w, _ in pairs]
        atoms = [np.atleast_1d(np.asarray(a, dtype=float)) for _, a in pairs]
        return cls(n=atoms[0].size, q=q, weights=np.asarray(weights, dtype=float),
                   atoms=np.vstack([a.reshape(1, -1) for a in atoms]))

    @property
    def m(self) -> int:
        return self.weights.size

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "atoms": [{"w": float(w), "a": [float(v) for v in a]}
                      for w, a in zip(self.weights, self.atoms)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, d: dict) -> "SpectralRep":
        atoms = d["atoms"]
        return cls(n=d["n"], q=float(d["q"]),
                   weights=np.array([e["w"] for e in atoms], dtype=float),
                   atoms=np.array([e["a"] for e in atoms], dtype=float).reshape(len(atoms), -1))

    @classmethod
    def from_json(cls, s: str) -> "SpectralRep":
        return cls.from_json_dict(json.loads(s))


def rep_hash(rep: SpectralRep) -> str:
    """Stable 16-hex-digit identifier of the representation content."""
    return hashlib.sha256(rep.to_json().encode()).hexdigest()[:16]


def _qsum(rep: SpectralRep, xi):
    """sum_j w_j |<a_j, xi>|^q for xi of shape (n,) or (K, n)."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != rep.n:
        raise ValueError(f"xi has dimension {xi.shape[-1]}, rep has n={rep.n}")
    proj = np.abs(xi @ rep.atoms.T)  # (..., m)
    return proj**rep.q @ rep.weights


def scale_q(rep: SpectralRep, xi):
    """The scale ||sum_i xi_i s_i||_q = (sum_j w_j |<a_j, xi>|^q)^(1/q).

    Nonnegative and 1-homogeneous in xi; zero exactly when xi annihilates
    every atom.
    """
    return _qsum(rep, xi) ** (1.0 / rep.q)


def char_fn(rep: SpectralRep, xi):
    """Characteristic function exp(-scale_q(rep, xi)^q); 1 at xi = 0, even in xi."""
    return np.exp(-_qsum(rep, xi))


def decouple(rep: SpectralRep, split: BlockSplit) -> SpectralRep:
    """Representation of the block-decoupled companion.

    Each atom (w, a) is replaced by its head half (w, (a_1..a_k, 0..0)) and
    tail half (w, (0..0, a_{k+1}..a_n)); halves with an all-zero block are
    dropped since they contribute nothing to the characteristic function.
    The result has the same block marginals but independent blocks:
    char_fn factorizes across the split.
    """
    split.validate(rep.n)
    k = split.k
    head = np.zeros_like(rep.atoms)
    head[:, :k] = rep.atoms[:, :k]
    tail = np.zeros_like(rep.atoms)
    tail[:, k:] = rep.atoms[:, k:]
    keep_head = np.abs(head).sum(axis=1) > 0
    keep_tail = np.abs(tail).sum(axis=1) > 0
    atoms = np.vstack([head[keep_head], tail[keep_tail]])
    weights = np.concatenate([rep.weights[keep_head], rep.weights[keep_tail]])
    return SpectralRep(n=rep.n, q=rep.q, weights=weights, atoms=atoms)


def reflect(rep: SpectralRep, split: BlockSplit) -> SpectralRep:
    """Negate the trailing block of every atom: the law of (X_1..X_k, -X_{k+1}..-X_n).

    Involutive; char_fn(reflect(rep, k), (u, v)) = char_fn(rep, (u, -v)).
    """
    split.validate(rep.n)
    atoms = rep.atoms.copy()
    atoms[:, split.k:] *= -1.0
    return SpectralRep(n=rep.n, q=rep.q, weights=rep.weights, atoms=atoms)


def marginal_block(rep: SpectralRep, start: int, stop: int) -> SpectralRep:
    """Restriction of the atoms to the contiguous coordinate range [start, stop).

    char_fn of the result equals char_fn of rep on vectors supported in the
    range.  Atoms that vanish on the range are dropped; if all of them do,
    the marginal is almost surely zero and has no valid representation.
    """
    if not (0 <= start < stop <= rep.n):
        raise ValueError(f"invalid coordinate range [{start}, {stop}) for n={rep.n}")
    atoms = rep.atoms[:, start:stop]
    keep = np.abs(atoms).sum(axis=1) > 0
    if not np.any(keep):
        raise ValueError("marginal block is almost surely zero; no representation exists")
    return SpectralRep(n=stop - start, q=rep.q,
                       weights=rep.weights[keep], atoms=atoms[keep])

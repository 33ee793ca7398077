"""Finite words over a k-letter alphabet and Bernoulli cylinder measures.

Level-m words are the addressing scheme for everything downstream: cells of a
self-similar partition, piecewise-constant coefficients, and kernel matrix
rows/columns all use the same lexicographic order.  A word of length m is
equivalently a base-k integer (first symbol most significant), so child/parent
navigation is plain integer arithmetic: child j of index i is ``i*k + (j-1)``.

Symbols are 1-based in the public interface; the integer encoding is 0-based.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError

# Cap on k**m for any full-level enumeration, to prevent memory exhaustion.
DEFAULT_ENUMERATION_CAP = 1 << 24
# Budget on pointwise function evaluations (env override for large runs).
DEFAULT_EVAL_BUDGET = 1 << 27
EVAL_BUDGET_ENV = "FRACTALIPS_MAX_EVALS"


def check_level_size(k: int, m: int) -> int:
    """Return k**m after checking it against the enumeration cap."""
    n = k**m
    if n > DEFAULT_ENUMERATION_CAP:
        raise BudgetExceededError(
            f"level size k^m = {k}^{m} = {n} exceeds the cap {DEFAULT_ENUMERATION_CAP}"
        )
    return n


def eval_budget() -> int:
    raw = os.environ.get(EVAL_BUDGET_ENV)
    if raw is None:
        return DEFAULT_EVAL_BUDGET
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{EVAL_BUDGET_ENV}={raw!r} is not an integer") from exc


def check_eval_budget(n: int) -> None:
    budget = eval_budget()
    if n > budget:
        raise BudgetExceededError(
            f"{n} function evaluations exceed the budget {budget} "
            f"(override with {EVAL_BUDGET_ENV})"
        )


@dataclass(frozen=True)
class Word:
    """A finite word over the alphabet {1, ..., k}.

    The empty word addresses the root cell (the whole attractor).
    """

    k: int
    symbols: tuple[int, ...] = ()

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"alphabet size must be >= 2, got {self.k}")
        syms = tuple(int(s) for s in self.symbols)
        object.__setattr__(self, "symbols", syms)
        for s in syms:
            if not 1 <= s <= self.k:
                raise ValueError(f"symbol {s} outside alphabet [1, {self.k}]")

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def index(self) -> int:
        """Base-k integer encoding; integer order equals lexicographic order."""
        idx = 0
        for s in self.symbols:
            idx = idx * self.k + (s - 1)
        return idx

    @classmethod
    def from_index(cls, k: int, level: int, index: int) -> "Word":
        if not 0 <= index < k**level:
            raise ValueError(f"index {index} out of range for level {level}")
        digits = []
        for _ in range(level):
            index, r = divmod(index, k)
            digits.append(r + 1)
        return cls(k, tuple(reversed(digits)))


def enumerate_level(k: int, m: int) -> list[Word]:
    """All words of length m in lexicographic order (exactly k**m of them).

    This ordering is the canonical index map shared by every coefficient
    array in the package.
    """
    if k < 2:
        raise ValueError(f"alphabet size must be >= 2, got {k}")
    if m < 0:
        raise ValueError(f"level must be >= 0, got {m}")
    n = check_level_size(k, m)
    return [Word.from_index(k, m, i) for i in range(n)]


@dataclass(frozen=True)
class ProbabilityVector:
    """Strictly positive weights summing to one.

    Weights may be exact :class:`fractions.Fraction` values, in which case all
    cylinder measures derived from them are exact rationals.
    """

    weights: tuple = field(default=())

    def __post_init__(self):
        ws = tuple(self.weights)
        object.__setattr__(self, "weights", ws)
        if len(ws) < 2:
            raise ValueError("need at least two weights")
        for w in ws:
            if not w > 0:
                raise ValueError(f"weights must be positive, got {w}")
        total = sum(ws)
        if abs(float(total) - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {float(total)}, not 1")

    @property
    def k(self) -> int:
        return len(self.weights)

    @classmethod
    def uniform(cls, k: int, exact: bool = False) -> "ProbabilityVector":
        if exact:
            return cls(tuple(Fraction(1, k) for _ in range(k)))
        return cls(tuple(1.0 / k for _ in range(k)))

    @property
    def is_uniform(self) -> bool:
        return all(abs(float(w) - 1.0 / self.k) <= 1e-15 for w in self.weights)

    def as_array(self) -> np.ndarray:
        return np.array([float(w) for w in self.weights], dtype=np.float64)


def _weight_seq(p) -> Sequence:
    if isinstance(p, ProbabilityVector):
        return p.weights
    return tuple(p)


def cylinder_measure(p, w: Word):
    """Bernoulli measure of the cylinder [w]: the product of the symbol weights.

    Exact when the weights are rationals; the empty word has measure 1.
    """
    ws = _weight_seq(p)
    if len(w) and max(w.symbols) > len(ws):
        raise ValueError("word symbols exceed the probability vector length")
    out = 1
    for s in w.symbols:
        out = out * ws[s - 1]
    return out


def level_weights(p, m: int) -> np.ndarray:
    """All k**m cylinder measures at level m, in lexicographic order.

    Built as an m-fold Kronecker power, so the first symbol is the most
    significant index digit, matching :func:`enumerate_level`.
    """
    if isinstance(p, ProbabilityVector):
        arr = p.as_array()
    else:
        arr = np.asarray([float(x) for x in p], dtype=np.float64)
    check_level_size(len(arr), m)
    out = np.ones(1, dtype=np.float64)
    for _ in range(m):
        out = np.kron(out, arr)
    return out

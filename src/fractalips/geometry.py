"""Affine contracting iterated function systems on R^d.

Map composition along words, the natural projection onto the attractor,
sibling translation vectors, and attractor point clouds.  All geometry is
plain double precision; truncation errors are reported through rigorous
cell-diameter bounds rather than interval arithmetic.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .symbolic import Word, check_eval_budget, check_level_size


@dataclass(frozen=True)
class Similitude:
    """An affine map x -> A x + t with A = ratio * O, O orthogonal.

    The stored ratio must match the operator norm of A to 1e-10.
    """

    ratio: float
    matrix: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.matrix, dtype=np.float64))
        t = np.atleast_1d(np.asarray(self.translation, dtype=np.float64))
        if A.shape[0] != A.shape[1]:
            raise ValueError("linear part must be square")
        if A.shape[0] != t.shape[0]:
            raise ValueError("linear part and translation dimensions differ")
        if not (np.isfinite(A).all() and np.isfinite(t).all()):
            raise ValueError("linear part and translation must be finite")
        r = float(self.ratio)
        if not 0.0 < r < 1.0:
            raise ValueError(f"contraction ratio must lie in (0, 1), got {r}")
        # similitude condition: A^T A = ratio^2 I
        gram = A.T @ A
        if not np.allclose(gram, r * r * np.eye(A.shape[0]), rtol=0, atol=1e-10):
            raise ValueError("linear part is not ratio * orthogonal within 1e-10")
        A.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "ratio", r)
        object.__setattr__(self, "matrix", A)
        object.__setattr__(self, "translation", t)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def homothety(cls, ratio: float, translation) -> "Similitude":
        t = np.atleast_1d(np.asarray(translation, dtype=np.float64))
        return cls(ratio, ratio * np.eye(t.shape[0]), t)

    @classmethod
    def rotation_2d(cls, ratio: float, angle: float, translation) -> "Similitude":
        c, s = math.cos(angle), math.sin(angle)
        return cls(ratio, ratio * np.array([[c, -s], [s, c]]), translation)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return x @ self.matrix.T + self.translation


@dataclass(frozen=True)
class AffineMap:
    """A general affine map x -> A x + t (compositions of similitudes)."""

    matrix: np.ndarray
    translation: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return x @ self.matrix.T + self.translation

    def after(self, other: "AffineMap") -> "AffineMap":
        """self o other."""
        return AffineMap(
            self.matrix @ other.matrix,
            self.matrix @ other.translation + self.translation,
        )

    @classmethod
    def identity(cls, d: int) -> "AffineMap":
        return cls(np.eye(d), np.zeros(d))


@dataclass(frozen=True)
class IFS:
    """A finite family of contracting similitudes on R^d."""

    maps: tuple[Similitude, ...]

    def __post_init__(self):
        maps = tuple(self.maps)
        object.__setattr__(self, "maps", maps)
        if len(maps) < 2:
            raise ValueError("an IFS needs at least two maps")
        d = maps[0].dimension
        if any(m.dimension != d for m in maps):
            raise ValueError("all maps must share the same dimension")
        fps = np.array([fixed_point(m) for m in maps])
        spread = np.max(np.linalg.norm(fps - fps[0], axis=1))
        if spread <= 1e-14:
            raise ValueError("the fixed points of the maps are all identical")

    @property
    def k(self) -> int:
        return len(self.maps)

    @property
    def dimension(self) -> int:
        return self.maps[0].dimension

    @property
    def ratios(self) -> tuple[float, ...]:
        return tuple(m.ratio for m in self.maps)

    @functools.cached_property
    def diameter_bound(self) -> float:
        """A rigorous upper bound for diam(K) via an invariant ball.

        With c the centroid of the fixed points and
        R = max_i |f_i(c) - c| / (1 - r_i), every f_i maps B(c, R) into
        itself, so the attractor lies in B(c, R) and diam(K) <= 2R.  Upper
        bound only; computed once per system.
        """
        c = fixed_point_centroid(self)
        R = max(
            float(np.linalg.norm(m(c) - c)) / (1.0 - m.ratio) for m in self.maps
        )
        return 2.0 * R


def fixed_point(s: Similitude) -> np.ndarray:
    """The unique x with s(x) = x, from (I - A) x = t."""
    d = s.dimension
    return np.linalg.solve(np.eye(d) - s.matrix, s.translation)


def compose(ifs: IFS, w: Word) -> AffineMap:
    """The composition f_w = f_{w_1} o ... o f_{w_n}; empty word -> identity."""
    if w.k != ifs.k:
        raise ValueError("word alphabet does not match the IFS")
    out = AffineMap.identity(ifs.dimension)
    for s in w.symbols:
        f = ifs.maps[s - 1]
        out = out.after(AffineMap(f.matrix, f.translation))
    return out


def fixed_point_centroid(ifs: IFS) -> np.ndarray:
    fps = np.array([fixed_point(m) for m in ifs.maps])
    return fps.mean(axis=0)


def cylinder_diameter_bound(ifs: IFS, w: Word) -> float:
    """prod(r_{w_j}) * diam-bound(K): an upper bound for diam(K_w)."""
    scale = 1.0
    for s in w.symbols:
        scale *= ifs.maps[s - 1].ratio
    return scale * ifs.diameter_bound


def default_anchor(ifs: IFS) -> np.ndarray:
    """Fixed point of the first map; anchor choice only moves the result
    within the exponentially small cylinder."""
    return fixed_point(ifs.maps[0])


class ProjectedPoint(NamedTuple):
    point: np.ndarray
    error_bound: float


def natural_projection(ifs: IFS, w: Word, anchor=None) -> ProjectedPoint:
    """f_w(anchor) with a rigorous truncation bound diam(K_{w}).

    As len(w) grows the result converges to the projection of any infinite
    extension of w, independently of the anchor.
    """
    if len(w) == 0:
        raise ValueError("natural_projection needs a nonempty word")
    if anchor is None:
        anchor = default_anchor(ifs)
    # f_{w_1}(f_{w_2}(... f_{w_n}(anchor))): no composed map is built
    pt = np.asarray(anchor, dtype=np.float64)
    for s in reversed(w.symbols):
        pt = ifs.maps[s - 1](pt)
    return ProjectedPoint(pt, cylinder_diameter_bound(ifs, w))


def canonical_interval_ifs(k: int) -> IFS:
    """g_i(x) = x/k + (i-1)/k on R; the attractor is [0, 1].

    The interval system isomorphic (as a probabilistic IFS) to any k-map IFS
    satisfying the small-overlap assumption.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    return IFS(
        tuple(
            Similitude.homothety(1.0 / k, np.array([(i - 1) / k]))
            for i in range(1, k + 1)
        )
    )


def has_common_linear_part(ifs: IFS) -> bool:
    A0 = ifs.maps[0].matrix
    return all(np.allclose(m.matrix, A0, rtol=0, atol=1e-12) for m in ifs.maps[1:])


def common_contraction_ratio(ifs: IFS) -> float:
    """The shared ratio of an equal-ratio IFS (errors otherwise)."""
    rs = ifs.ratios
    if max(rs) - min(rs) > 1e-12:
        raise ValueError("IFS maps do not share a common contraction ratio")
    return rs[0]


def translation_vector(ifs: IFS, i: int, j: int) -> np.ndarray:
    """The vector tau_ij with f_j(K) = f_i(K) + tau_ij.

    Requires all maps to share the same linear part (equal ratio and equal
    orthogonal factor); otherwise the sibling cells are not translates of
    each other and the vector does not exist.
    """
    if i == j:
        raise ValueError("need i != j")
    if not (1 <= i <= ifs.k and 1 <= j <= ifs.k):
        raise ValueError("symbols out of range")
    if not has_common_linear_part(ifs):
        raise ValueError(
            "translation vectors require a common linear part across all maps"
        )
    return ifs.maps[j - 1].translation - ifs.maps[i - 1].translation


def attractor_points(ifs: IFS, m: int, anchor=None) -> np.ndarray:
    """(k**m, d) array of x_w = f_w(anchor), w in lexicographic order.

    Level m+1 points are the level-m points pushed through each map, stacked
    in symbol order, which reproduces the lexicographic (first-symbol-major)
    ordering.  The k**m nodes are checked against the enumeration cap and
    charged to the evaluation budget before any is made, so callers that
    evaluate a function on them need no charge of their own.
    """
    check_eval_budget(check_level_size(ifs.k, m))
    if anchor is None:
        anchor = default_anchor(ifs)
    pts = np.asarray(anchor, dtype=np.float64).reshape(1, ifs.dimension)
    for _ in range(m):
        # block i holds f_i applied to every level-(l) point, i.e. all words
        # starting with i; stacking blocks in symbol order is lex order
        pts = np.vstack([f(pts) for f in ifs.maps])
    return pts


_SG_V = (
    np.array([0.0, 0.0]),
    np.array([0.5, math.sqrt(3.0) / 2.0]),
    np.array([1.0, 0.0]),
)


def _sg() -> IFS:
    # f_i(x) = (x + v_i) / 2 on the unit triangle
    return IFS(
        tuple(Similitude.homothety(0.5, v / 2.0) for v in _SG_V)
    )


def _cantor() -> IFS:
    return IFS(
        (
            Similitude.homothety(1.0 / 3.0, np.array([0.0])),
            Similitude.homothety(1.0 / 3.0, np.array([2.0 / 3.0])),
        )
    )


def _sg3() -> IFS:
    # level-3 gasket: the six upward side-1/3 triangles of the unit triangle
    s3 = math.sqrt(3.0)
    anchors = [
        (0.0, 0.0),
        (1.0 / 3.0, 0.0),
        (2.0 / 3.0, 0.0),
        (1.0 / 6.0, s3 / 6.0),
        (0.5, s3 / 6.0),
        (1.0 / 3.0, s3 / 3.0),
    ]
    return IFS(
        tuple(Similitude.homothety(1.0 / 3.0, np.array(a)) for a in anchors)
    )


def _pentagasket() -> IFS:
    # five maps with ratio (3 - sqrt 5)/2 fixed at the vertices of a regular
    # pentagon (circumradius 1, one vertex pointing up)
    r = (3.0 - math.sqrt(5.0)) / 2.0
    maps = []
    for j in range(5):
        ang = math.pi / 2.0 + 2.0 * math.pi * j / 5.0
        v = np.array([math.cos(ang), math.sin(ang)])
        maps.append(Similitude.homothety(r, (1.0 - r) * v))
    return IFS(tuple(maps))


_PRESETS = {
    "sg": _sg,
    "cantor": _cantor,
    "sg3": _sg3,
    "pentagasket": _pentagasket,
}


def preset(name: str) -> IFS:
    """Named IFS presets: sg, cantor, sg3, pentagasket, interval-<k>."""
    name = name.strip().lower()
    mm = re.fullmatch(r"interval-(\d+)", name)
    if mm:
        return canonical_interval_ifs(int(mm.group(1)))
    if name in _PRESETS:
        return _PRESETS[name]()
    raise ValueError(
        f"unknown IFS preset {name!r}; known: "
        + ", ".join(sorted(_PRESETS) + ["interval-<k>"])
    )


def similarity_dimension(ifs: IFS) -> float:
    """The s with sum r_i**s = 1, by bisection to adjacent floats: the sum
    is > 1 at ``lo`` and <= 1 at the returned ``hi``.  It falls strictly
    from k at s = 0, so doubling ``hi`` from 1 brackets s."""
    r = np.array(ifs.ratios)
    lo, hi = 0.0, 1.0
    while np.sum(r**hi) > 1.0:
        lo, hi = hi, 2.0 * hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if np.sum(r**mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def natural_probability_weights(ifs: IFS) -> np.ndarray:
    """p_i = r_i**s with s the similarity dimension.

    Equal ratios give exactly 1/k, the same floats as the uniform vector.
    """
    if len(set(ifs.ratios)) == 1:
        return np.full(ifs.k, 1.0 / ifs.k)
    s = similarity_dimension(ifs)
    p = np.array([r**s for r in ifs.ratios])
    return p / p.sum()

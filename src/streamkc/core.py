"""Points, windows, distances and shared stream parameters.

Everything here is a plain value type or a pure function; instances can be
shared freely between threads.  A metric is a scalar call ``metric(p, q)``
plus a block form ``metric.pairwise(xs, ys)``, the len(xs) x len(ys) matrix
between the rows of two coordinate arrays.  The library reads only the block
form, center scoring (``radius_excluding``) included; the call is left to
the exhaustive oracle (``solver.brute_force_optimum``).  ``dist``'s block form
``cdist`` squares coordinate differences: an oblivious ladder's domain is
``coreset.MAX_DISTANCE`` (2^500) from its first point, about coordinates
below 1e150; distinct points closer than about 1.6e-162 read as duplicates,
and distances below about 1e-154 lose precision.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

import numpy as np
from scipy.spatial.distance import cdist

Metric = Callable[["Point", "Point"], float]  # plus a .pairwise block form

# rows per distance block: bounds a block to _BLOCK x n floats
_BLOCK = 256
# sets up to this size read one whole distance matrix: at most 8 MiB
_MATRIX_POINTS = 1024
# a reader's index for every row or column
_ALL = slice(None)


class InvariantError(AssertionError):
    """A structure's invariant does not hold.  The checks raise it
    explicitly, so they still verify under ``python -O``; as an
    AssertionError it is caught wherever a failed assert would be."""


# rows or columns of a distance reader: indices, or a slice of them
Index = Union[np.ndarray, Sequence[int], slice]
Distances = Callable[[Index, Index], np.ndarray]


@dataclass(frozen=True, slots=True)
class Point:
    """A stream element: a coordinate tuple stamped with its 1-based arrival index."""

    arrival: int
    coords: tuple[float, ...]

    def __post_init__(self):
        if self.arrival < 1:
            raise ValueError(f"arrival must be >= 1, got {self.arrival}")
        for c in self.coords:
            if not math.isfinite(c):
                raise ValueError(f"non-finite coordinate {c!r} at arrival {self.arrival}")

    @property
    def dim(self) -> int:
        return len(self.coords)


def dist(p: Point, q: Point) -> float:
    """Euclidean distance. The default (and only acceptance-tested) metric.

    Any other metric must be symmetric, non-negative, zero only on equal
    coordinates, satisfy the triangle inequality, and carry a ``pairwise``
    block form for the engine.
    """
    return math.dist(p.coords, q.coords)


# an attribute keeps dist a plain (fast) function; functools.wraps copies it
dist.pairwise = cdist


def _block_distances(points: Sequence[Point], metric: Metric) -> Distances:
    """Block distance reader: d(rows, cols) is the len(rows) x len(cols)
    matrix of metric(points[i], points[j]), rows and cols each an index
    array or a slice, computed by the metric's block form on each call.
    For callers that read each row once."""
    coords = np.array([p.coords for p in points], dtype=float)
    pairwise = metric.pairwise
    return lambda rows, cols: pairwise(coords[rows], coords[cols])


def _distances(points: Sequence[Point], metric: Metric) -> Distances:
    """Distance reader for callers that read rows again, the radius scans:
    a set of 1 to ``_MATRIX_POINTS`` points is read once, as the block form
    of the whole set, and d(rows, cols) reads that read-only matrix (slices
    give views; a slice of columns gathers none).  A larger set gets the
    ``_block_distances`` reader.  Either way an entry is the block form's
    value for its one pair, the same bits."""
    if not 0 < len(points) <= _MATRIX_POINTS:
        return _block_distances(points, metric)
    coords = np.array([p.coords for p in points], dtype=float)
    matrix = metric.pairwise(coords, coords)
    matrix.flags.writeable = False
    return lambda rows, cols: matrix[rows][:, cols]


def _extremes(d: Distances, n: int) -> tuple[float, float]:
    """(smallest positive, largest) distance between two distinct points,
    read one row block at a time; 0.0 stands in for a missing value."""
    lo, hi = math.inf, 0.0
    for r0 in range(0, n - 1, _BLOCK):
        r1 = min(r0 + _BLOCK, n - 1)
        block = d(slice(r0, r1), slice(r0, n))
        pair = ~np.eye(r1 - r0, n - r0, dtype=bool)  # a point and itself form no pair
        hi = max(hi, float(block.max(initial=0.0, where=pair)))
        lo = min(lo, float(block.min(initial=math.inf, where=pair & (block > 0))))
    return (lo if lo < math.inf else 0.0), hi


def _require_count(name: str, value) -> None:
    """ValueError unless value is an integer: a Python or numpy int, not a
    bool, a float or a string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True, slots=True)
class StreamParams:
    """Knobs shared by the streaming structures.

    window_len: number of most recent points forming the active window.
    k: number of centers.
    z: number of outliers to discard.
    lam: accuracy of the window-count estimates; stored weights are within a
        factor (1 + lam) of the true counts.  lam == 0 keeps exact counts
        (useful for testing, memory grows linearly with the window).
    beta: granularity of the geometric grid of radius guesses (ratio 1 + beta).
    """

    window_len: int
    k: int
    z: int = 0
    lam: float = 0.5
    beta: float = 0.5

    def __post_init__(self):
        for name in ("window_len", "k", "z"):
            _require_count(name, getattr(self, name))
        if self.window_len < 1:
            raise ValueError("window_len must be positive")
        if not 1 <= self.k < self.window_len:
            raise ValueError("k must satisfy 1 <= k < window_len")
        if not 0 <= self.z < self.window_len:
            raise ValueError("z must satisfy 0 <= z < window_len")
        if self.k + self.z + 1 > self.window_len:
            raise ValueError("window_len must be at least k + z + 1")
        if not 0 <= self.lam < math.inf:
            raise ValueError("lam must be finite and >= 0")
        if not 0 < self.beta <= 1 or 1.0 + self.beta == 1.0:
            raise ValueError("beta must be in (0, 1], with 1 + beta above 1")


@dataclass(frozen=True, slots=True)
class WindowView:
    """The active points at time t (arrivals in (t - N, t])."""

    points: tuple[Point, ...]
    t: int

    @classmethod
    def from_coords(cls, coords: Iterable[Sequence[float]]) -> "WindowView":
        """Build a window from raw coordinate rows, arrivals 1..n (test helper)."""
        pts = tuple(
            Point(i + 1, tuple(float(c) for c in row)) for i, row in enumerate(coords)
        )
        return cls(points=pts, t=len(pts))

    def __len__(self) -> int:
        return len(self.points)


def radius_excluding(
    centers: Sequence[Point],
    window: WindowView,
    z: int,
    metric: Metric = dist,
) -> float:
    """Max distance from the window to its nearest center, after dropping the
    z largest such distances.  With z == 0 this is the plain clustering radius.
    The distances are read in the metric's block form, ``_BLOCK`` window
    points at a time.
    """
    if not centers:
        raise ValueError("centers must be non-empty")
    if z < 0:
        raise ValueError("z must be >= 0")
    if len(window.points) <= z:
        raise ValueError("window must contain more than z points")
    xs = np.array([p.coords for p in window.points], dtype=float)
    cs = np.array([c.coords for c in centers], dtype=float)
    near = np.empty(len(xs))
    for r0 in range(0, len(xs), _BLOCK):
        near[r0 : r0 + _BLOCK] = metric.pairwise(xs[r0 : r0 + _BLOCK], cs).min(axis=1)
    keep = len(near) - 1 - z
    return float(np.partition(near, keep)[keep])

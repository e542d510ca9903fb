"""Stream elements and submodular value oracles.

The oracles here are the utility functions the streaming optimizers
maximize: set coverage, weighted graph cut, log-determinant of a DPP
kernel, the segment-conditional DPP used for sequential data, and a
sampled approximation for additively decomposable objectives.
"""

from __future__ import annotations

import math
import random
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import AbstractSet, Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DomainError, ParseError, PreconditionError

# Marginal gains inside this band are treated as zero by selection rules.
GAIN_TOL = 1e-12

# Pivots below this floor are clamped so near-singular kernels yield a
# large negative log-det instead of -inf (streaming runs stay alive).
DET_FLOOR = 1e-300

_SYMMETRY_TOL = 1e-9
_PSD_EIG_TOL = -1e-8


@dataclass(frozen=True)
class Element:
    """One stream item.

    Identity is the integer ``id`` alone; ids must be unique within a
    stream. ``costs`` holds one entry per configured knapsack, already
    normalized to capacity 1.
    """

    id: int
    features: tuple[float, ...] | None = None
    costs: tuple[float, ...] = ()
    groups: frozenset[str] = frozenset()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.id == other.id

    def __hash__(self) -> int:
        return hash(self.id)


def ids_of(elements: Iterable[Element]) -> frozenset[int]:
    return frozenset(e.id for e in elements)


class ValueOracle(ABC):
    """A non-negative submodular set function f over stream elements."""

    # Sticky: True once a value came from a clamped log-det pivot, where
    # f may fail to be submodular. The threshold grid's density screen,
    # which relies on f({e}) - f(empty) bounding every gain of e, is off
    # from then on.
    clamped = False

    @abstractmethod
    def value(self, elements: Iterable[Element]) -> float:
        """Return f(S). Must be deterministic for a fixed oracle."""


class ModularOracle(ValueOracle):
    """Additive weights; the equality case of diminishing returns."""

    def __init__(self, weights: Mapping[int, float]):
        self._weights = dict(weights)

    def value(self, elements: Iterable[Element]) -> float:
        total = 0.0
        for e in elements:
            if e.id not in self._weights:
                raise DomainError(f"element {e.id} has no weight")
            total += self._weights[e.id]
        return total


class CoverageOracle(ValueOracle):
    """Set coverage: f(S) = number of items covered by S."""

    def __init__(self, covers: Mapping[int, Iterable[Hashable]]):
        self._covers = {eid: frozenset(items) for eid, items in covers.items()}

    def value(self, elements: Iterable[Element]) -> float:
        covered: set[Hashable] = set()
        for e in elements:
            if e.id not in self._covers:
                raise DomainError(f"element {e.id} not in coverage universe")
            covered |= self._covers[e.id]
        return float(len(covered))


class CutOracle(ValueOracle):
    """Weighted undirected cut: f(S) = weight of edges leaving S.

    Symmetric and non-monotone; f(empty) = f(all nodes) = 0. Weights
    must be finite and non-negative: a negative weight breaks
    submodularity. Their sum, taken in edge order as ``value`` takes it,
    must be finite too, so that every cut value is.
    """

    def __init__(
        self,
        edges: Iterable[tuple[int, int, float]],
        nodes: Iterable[int] | None = None,
    ):
        self._edges = [(int(u), int(v), float(w)) for u, v, w in edges]
        known = set() if nodes is None else set(nodes)
        total = 0.0
        for u, v, w in self._edges:
            if not 0.0 <= w < math.inf:
                raise ConfigError(
                    f"edge ({u}, {v}) weight {w} is negative or not finite"
                )
            total += w
            known.add(u)
            known.add(v)
        if total == math.inf:
            raise ConfigError("the edge weights sum past the float range")
        self._nodes = frozenset(known)

    def value(self, elements: Iterable[Element]) -> float:
        inside = ids_of(elements)
        unknown = inside - self._nodes
        if unknown:
            raise DomainError(f"elements {sorted(unknown)} are not graph nodes")
        total = 0.0
        for u, v, w in self._edges:
            if (u in inside) != (v in inside):
                total += w
        return total


class WeightedSumOracle(ValueOracle):
    """Non-negative combination of oracles (submodularity is preserved)."""

    def __init__(self, terms: Sequence[tuple[float, ValueOracle]]):
        for coeff, _ in terms:
            if coeff < 0:
                raise ConfigError("mixture coefficients must be non-negative")
        self._terms = list(terms)

    def value(self, elements: Iterable[Element]) -> float:
        s = set(elements)
        return sum(coeff * oracle.value(s) for coeff, oracle in self._terms)

    @property
    def clamped(self) -> bool:
        return any(oracle.clamped for _, oracle in self._terms)


# ---------------------------------------------------------------------------
# DPP kernels and log-det objectives
# ---------------------------------------------------------------------------


class DppKernel:
    """A positive semidefinite similarity kernel indexed by element id.

    ``offset`` is added to every log-det value so the objective can be
    kept non-negative on its intended domain. Entries and the offset
    must be finite, and the offset non-negative.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        offset: float = 0.0,
        ids: Sequence[int] | None = None,
    ):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError("kernel matrix must be square")
        if not np.isfinite(m).all():
            raise ConfigError("kernel matrix has a non-finite entry")
        if not np.allclose(m, m.T, atol=_SYMMETRY_TOL, rtol=0.0):
            raise ConfigError("kernel matrix is not symmetric")
        if m.shape[0] > 0 and float(np.linalg.eigvalsh(m).min()) < _PSD_EIG_TOL:
            raise ConfigError("kernel matrix is not positive semidefinite")
        self.set_offset(offset)
        self.matrix = m
        self.ids = tuple(range(m.shape[0])) if ids is None else tuple(ids)
        if len(self.ids) != m.shape[0]:
            raise ConfigError("id list length must match the kernel size")
        self._index = {eid: i for i, eid in enumerate(self.ids)}
        if len(self._index) != len(self.ids):
            raise ConfigError("kernel ids must be distinct")

    def set_offset(self, offset: float) -> None:
        """Replace the offset; the matrix stays as it was checked."""
        if not 0.0 <= offset < math.inf:
            raise ConfigError(f"offset must be finite and non-negative, got {offset}")
        self.offset = float(offset)

    def indices(self, elements: Iterable[Element]) -> list[int]:
        out = []
        for e in elements:
            if e.id not in self._index:
                raise DomainError(f"element {e.id} is not indexed by the kernel")
            out.append(self._index[e.id])
        return out

    def submatrix(self, elements: Iterable[Element]) -> np.ndarray:
        return _principal(self.matrix, self.indices(elements))


def _principal(matrix: np.ndarray, idx: Sequence[int]) -> np.ndarray:
    """Rows and columns ``idx`` of ``matrix``, in that order, C-contiguous.

    The entries and their order are those of ``matrix[np.ix_(idx, idx)]``,
    so every log-det taken from it keeps its last bit; two ``take`` calls
    cost less than the broadcast fancy index.
    """
    return matrix.take(idx, 0).take(idx, 1)


def load_kernel(path: str) -> DppKernel:
    """Read a dense kernel: first line n, then n rows of n reals."""
    with open(path, encoding="utf-8") as fh:
        try:
            tokens = fh.read().split()
        except UnicodeDecodeError as exc:
            raise ParseError.not_utf8(path, exc) from None
    if not tokens:
        raise ConfigError(f"{path}: empty kernel file")
    try:
        n = int(tokens[0])
        values = [float(t) for t in tokens[1:]]
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if n < 0:
        raise ConfigError(f"{path}: kernel size must be non-negative, got {n}")
    if len(values) != n * n:
        raise ConfigError(f"{path}: expected {n * n} entries, found {len(values)}")
    return DppKernel(np.array(values).reshape(n, n))


def _logdet_floored(matrix: np.ndarray) -> tuple[float, bool]:
    """log det of a PSD matrix via pivoted elimination with a pivot floor.

    Returns (value, clamped). A fast Cholesky path covers the common
    well-conditioned case; the elimination fallback clamps tiny pivots
    to ``DET_FLOOR`` instead of failing.
    """
    n = matrix.shape[0]
    if n == 0:
        return 0.0, False  # det of the empty matrix is 1
    try:
        # The same ufunc reductions as np.diag/np.all/np.sum, called as
        # methods: equal bits, fewer dispatch layers.
        diag = np.linalg.cholesky(matrix).diagonal()
        if (diag * diag >= DET_FLOOR).all():
            return float(2.0 * np.log(diag).sum()), False
    except np.linalg.LinAlgError:
        pass
    m = np.array(matrix, dtype=float, copy=True)
    total = 0.0
    clamped = False
    for j in range(n):
        pivot = m[j, j]
        # A nan pivot (inf - inf past a floored one) is clamped as well.
        if not pivot >= DET_FLOOR:
            pivot = DET_FLOOR
            clamped = True
        total += math.log(pivot)
        if j + 1 < n:
            m[j + 1 :, j + 1 :] -= np.outer(m[j + 1 :, j], m[j, j + 1 :]) / pivot
    return total, clamped


def _logdet_warned(matrix: np.ndarray) -> tuple[float, bool]:
    """``_logdet_floored``, with a RuntimeWarning when a pivot was clamped.

    Called from an oracle's ``value()``; the warning names that call's caller.
    """
    value, clamped = _logdet_floored(matrix)
    if clamped:
        warnings.warn(
            "log-det pivot clamped at floor; kernel submatrix is near singular",
            RuntimeWarning,
            stacklevel=3,
        )
    return value, clamped


class LogDetOracle(ValueOracle):
    """f(S) = log det(L_S) + offset; non-monotone submodular."""

    def __init__(self, kernel: DppKernel):
        self.kernel = kernel

    def value(self, elements: Iterable[Element]) -> float:
        value, clamped = _logdet_warned(self.kernel.submatrix(elements))
        if clamped:
            self.clamped = True
        return value + self.kernel.offset


def suggest_logdet_offset(matrix: np.ndarray) -> float:
    """Heuristic non-negativity offset: singleton and pair log-dets only.

    Global minimization over all subsets is intractable, so the offset
    is max(0, -min sampled log-det) + 1, with min taken over
    ``_logdet_floored`` of each singleton, then each pair (i, j > i).

    One vectorized pass first certifies entries whose exact value is
    provably >= 0: those cannot lower the running min below its start
    of 0.0, so only the rest run exactly, in loop order, and the result
    is bit-identical to calling every entry. Singleton {i} is certified
    when a = m[i, i] >= 1: Cholesky returns 2 log(sqrt(a)) >= 0. Pair
    {i, j} is certified when a = m[i, i] > 0, c = m[j, j] > 0 and, in
    floating point, ac - b^2 - 32 eps (ac + b^2) >= 1 + 2^-20, with
    b = max(|m[i, j]|, |m[j, i]|). This test's own rounding costs under
    2 eps (ac + b^2). Cholesky's backward error (Higham, Thm 10.3,
    gamma_3 for n = 2, widened for a reciprocal scaling) costs under
    5 eps, so a successful factor has det >= 1 + 2^-21 and its log sum
    stays positive past a few ulps of log error. The elimination
    fallback's pivot a * second pivot costs under 2 eps, and its clamp
    only raises a pivot. Any overflow or nan fails the test.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError("kernel matrix must be square")
    if not np.isfinite(m).all():
        raise ConfigError("kernel matrix has a non-finite entry")
    d = m.diagonal()
    b = np.maximum(np.abs(m), np.abs(m.T))
    with np.errstate(all="ignore"):
        ac, bb = np.multiply.outer(d, d), b * b
        slack = ac - bb - 32 * np.finfo(float).eps * (ac + bb)
    exact = ~((slack >= 1.0 + 2.0**-20) & (d > 0) & (d > 0)[:, None])
    np.fill_diagonal(exact, ~(d >= 1.0))
    worst = 0.0
    for i, j in zip(*np.nonzero(np.triu(exact))):
        worst = min(worst, _logdet_floored(_principal(m, [i] if i == j else [i, j]))[0])
    return max(0.0, -worst) + 1.0


def seqdpp_conditional_value(
    kernel: DppKernel,
    s_t: AbstractSet[Element],
    s_prev: AbstractSet[Element],
    segment: AbstractSet[Element],
) -> float:
    """Conditional log-probability of picking ``s_t`` from a segment.

    Computes log det(L_{s_t + s_prev}) - log det(I_t + L_{s_prev + segment})
    where I_t is diagonal with zeros on the s_prev positions and ones on
    the segment positions.
    """
    if s_prev & segment:
        raise PreconditionError("previous selection overlaps the segment")
    if not s_t <= segment:
        raise PreconditionError("selection must lie inside the segment")
    numerator, _ = _logdet_floored(kernel.submatrix(set(s_t) | set(s_prev)))

    ordered = sorted(set(s_prev) | set(segment), key=lambda e: e.id)
    prev_ids = ids_of(s_prev)
    diag = np.array([0.0 if e.id in prev_ids else 1.0 for e in ordered])
    normalizer, _ = _logdet_floored(kernel.submatrix(ordered) + np.diag(diag))
    return numerator - normalizer


class SequentialDppOracle(ValueOracle):
    """Within-segment objective conditioned on the previous selection.

    f(S) = log det(L_{S + prev}) - log det(L_prev) + offset, which has
    the same marginal gains as the full conditional (the normalizer is
    constant per segment) and satisfies f(empty) = offset >= 0.
    """

    def __init__(self, kernel: DppKernel, prev: AbstractSet[Element] = frozenset()):
        self.kernel = kernel
        self.prev = frozenset(prev)
        self._base, _ = _logdet_floored(kernel.submatrix(self.prev))

    def value(self, elements: Iterable[Element]) -> float:
        chosen = set(elements)
        overlap = chosen & self.prev
        if overlap:
            raise DomainError(
                f"elements {sorted(e.id for e in overlap)} are already conditioned on"
            )
        raw, clamped = _logdet_warned(self.kernel.submatrix(chosen | self.prev))
        if clamped:
            self.clamped = True
        return raw - self._base + self.kernel.offset


# ---------------------------------------------------------------------------
# Decomposable objectives and their sampled estimates
# ---------------------------------------------------------------------------

ComponentFn = Callable[[frozenset[Element]], float]


def coverage_component(
    items: AbstractSet[Hashable],
    items_of: Callable[[Element], AbstractSet[Hashable]],
) -> ComponentFn:
    """The share of ``items`` that a set covers, where each element x
    covers ``items_of(x)``; 0 when ``items`` is empty."""

    def component(s: frozenset[Element]) -> float:
        if not items:
            return 0.0
        covered = set().union(*map(items_of, s))
        return len(items & covered) / len(items)

    return component


class DecomposableOracle(ValueOracle):
    """Mean-of-components objective estimated on a uniform sample W.

    The exact objective is the mean of per-element components over the
    whole ground set; the oracle evaluates the mean over W instead.
    Components are rescaled once at construction so sampled magnitudes
    stay within 1. An empty ground set (an empty stream) needs no sample,
    and every set is then worth 0.
    """

    def __init__(
        self,
        components: Mapping[int, ComponentFn],
        ground: Sequence[Element],
        sample: Sequence[Element],
    ):
        if ground and not sample:
            raise ConfigError("sample W must be non-empty")
        self._components = dict(components)
        self._ground = list(ground)
        for e in self._ground:
            if e.id not in self._components:
                raise DomainError(f"ground element {e.id} has no component")
        for e in sample:
            if e.id not in self._components:
                raise DomainError(f"sampled element {e.id} has no component")
        self._sample = list(sample)
        self._scale = self._probe_scale()
        if self._scale <= 0:
            self._scale = 1.0

    def _probe_scale(self) -> float:
        rng = random.Random(0)
        probes: list[frozenset[Element]] = [frozenset(), frozenset(self._ground)]
        for _ in range(16):
            probes.append(frozenset(e for e in self._ground if rng.random() < 0.5))
        worst = 0.0
        for fn in self._components.values():
            for s in probes:
                worst = max(worst, abs(fn(s)))
        return worst

    def component_value(self, eid: int, elements: AbstractSet[Element]) -> float:
        if eid not in self._components:
            raise DomainError(f"element {eid} has no component")
        return self._components[eid](frozenset(elements)) / self._scale

    def value(self, elements: Iterable[Element]) -> float:
        return self._mean(self._sample, frozenset(elements))

    def exact_value(self, elements: Iterable[Element]) -> float:
        """Mean over every ground component; the quantity ``value`` estimates."""
        return self._mean(self._ground, frozenset(elements))

    def _mean(self, over: list[Element], s: frozenset[Element]) -> float:
        if not over:
            return 0.0
        return sum(self.component_value(e.id, s) for e in over) / len(over)


def reservoir_sample(
    position: int,
    sample: list[Element],
    capacity: int,
    e: Element,
    rng: random.Random,
) -> list[Element]:
    """Single-pass uniform reservoir update for the element at ``position``.

    ``position`` is 1-based. While the reservoir is short of capacity the
    element is appended; afterwards it replaces a uniform slot with
    probability capacity / position.
    """
    if capacity < 1:
        raise ConfigError("reservoir capacity must be at least 1")
    if position < 1:
        raise PreconditionError("stream position is 1-based")
    if len(sample) < capacity:
        sample.append(e)
        return sample
    slot = rng.randrange(position)
    if slot < capacity:
        sample[slot] = e
    return sample


def sample_size_bound(k: int, eps: float, delta: float, ground_size: float) -> int:
    """Sample size sufficient for eps-accurate decomposable estimates.

    ceil((2 k^2 ln(2/delta) + 2 k^3 ln(ground_size)) / eps^2).
    """
    if k < 1:
        raise ConfigError("k must be at least 1")
    if not 0.0 < eps <= 1.0 or not 0.0 < delta < 1.0:
        raise ConfigError("eps must lie in (0, 1] and delta in (0, 1)")
    if ground_size < 2:
        raise ConfigError("ground size must be at least 2")
    raw = (2.0 * k * k * math.log(2.0 / delta) + 2.0 * k**3 * math.log(ground_size))
    return math.ceil(raw / (eps * eps))

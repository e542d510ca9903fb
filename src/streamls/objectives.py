"""Stream elements and submodular value oracles.

The oracles here are the utility functions the streaming optimizers
maximize: set coverage, weighted graph cut, log-determinant of a DPP
kernel, the segment-conditional DPP used for sequential data, and a
sampled approximation for additively decomposable objectives.
"""

from __future__ import annotations

import math
import random
import sys
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Callable,
    Collection,
    Hashable,
    Iterable,
    Mapping,
    Sequence,
)

import numpy as np

from .errors import ConfigError, DomainError, ParseError, PreconditionError

# Marginal gains inside this band are treated as zero by selection rules.
GAIN_TOL = 1e-12

# Pivots below this floor are clamped so near-singular kernels yield a
# large negative log-det instead of -inf (streaming runs stay alive).
DET_FLOOR = 1e-300

_SYMMETRY_TOL = 1e-9
_PSD_EIG_TOL = -1e-8

# Unit roundoff of a double.
_U = 2.0**-53

# LogDetOracle.gain_bound certifies a kernel only when its eigenvalue
# bounds lie in this band: no pivot then comes near DET_FLOOR, and no
# product in its proof overflows or loses more than it can afford to
# underflow.
_CERT_LOW, _CERT_HIGH = 1e-150, 1e150


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

    # Opt-in to the threshold grid's per-step memo. True promises that
    # ``value(S)`` reads S only by iterating it once, so f(S) follows from
    # S's elements in iteration order, and that one call costs more than
    # building and hashing that order as a key.
    memoized = False

    @abstractmethod
    def value(self, elements: Iterable[Element]) -> float:
        """Return f(S). Must be deterministic for a fixed oracle."""

    def values(self, sets: Sequence[Collection[Element]]) -> list[float]:
        """f of each set, in order: the bits ``value`` returns on each.

        An oracle may answer several sets in one computation; each set is
        still read in its own iteration order.
        """
        # map, not a comprehension: no frame between value and values, so
        # a clamp warning still names the caller (see _asker_stacklevel).
        return list(map(self.value, sets))

    def gain_bound(self, s: AbstractSet[Element], e: Element) -> float | None:
        """An upper bound on the gain of ``e``, not in ``s``, over ``s``, or None.

        A number promises that ``value(s | {e}) - f(s)``, with f(s) as an
        instance tracks it (one value call on s, or the last gain added to
        the value before it), is at most it in floats, and that the value
        call would leave ``clamped`` as it is. ``IndStreamInstance`` then
        tests its gates on the bound first and skips the value call when
        one rejects. None, the default, makes no promise.
        """
        return None


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
        asymmetry = float(np.abs(m - m.T).max()) if m.size else 0.0
        if asymmetry > _SYMMETRY_TOL:
            raise ConfigError("kernel matrix is not symmetric")
        # True when every principal submatrix, in any order, is a permuted
        # copy of one and the same symmetric matrix.
        self.exactly_symmetric = asymmetry == 0.0
        # (smallest, largest) eigenvalue as eigvalsh computed them, or None
        # for the empty kernel; LogDetOracle.gain_bound reads them.
        self.eigen_range: tuple[float, float] | None = None
        if m.shape[0] > 0:
            eigenvalues = np.linalg.eigvalsh(m)
            self.eigen_range = (float(eigenvalues.min()), float(eigenvalues.max()))
            if self.eigen_range[0] < _PSD_EIG_TOL:
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
        index = self._index
        try:
            return [index[e.id] for e in elements]
        except KeyError as exc:
            raise _not_indexed(exc.args[0]) from None

    def index(self, e: Element) -> int:
        try:
            return self._index[e.id]
        except KeyError:
            raise _not_indexed(e.id) from None

    def submatrix(self, elements: Iterable[Element]) -> np.ndarray:
        return _principal(self.matrix, self.indices(elements))


def _not_indexed(eid: int) -> DomainError:
    return DomainError(f"element {eid} is not indexed by the kernel")


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

    Called from an oracle's ``value()``; the warning names the code that
    asked for the value: an instance step, double greedy or an engine,
    past every oracle ``value`` or ``values`` that passed the call through
    (a mixture, a grid's step memo, a subclass calling ``super().value``).
    """
    value, clamped = _logdet_floored(matrix)
    if clamped:
        warnings.warn(
            "log-det pivot clamped at floor; kernel submatrix is near singular",
            RuntimeWarning,
            stacklevel=_asker_stacklevel(),
        )
    return value, clamped


def _asker_stacklevel() -> int:
    """``_logdet_warned``'s stacklevel for the first frame, above the
    oracle ``value`` that called it, that is not an oracle's ``value`` or
    ``values``."""
    # Frames: 0 this function, 1 _logdet_warned, 2 the value at level 2.
    frame, level = sys._getframe(2), 2
    while frame.f_code.co_name in ("value", "values") and isinstance(
        frame.f_locals.get("self"), ValueOracle
    ):
        frame, level = frame.f_back, level + 1
    return level


class LogDetOracle(ValueOracle):
    """f(S) = log det(L_S) + offset; non-monotone submodular."""

    memoized = True

    def __init__(self, kernel: DppKernel):
        self.kernel = kernel
        # gain_bound's slack, less its offset term, for each |S| whose
        # k = |S| + 1 the certificate covers; empty when it covers none.
        self._slacks: list[float] = []
        n = kernel.matrix.shape[0]
        if kernel.eigen_range is None or not kernel.exactly_symmetric:
            return
        lo, hi = kernel.eigen_range
        reach = 4.0 * n * n * _U * max(abs(lo), abs(hi))
        lam, big = lo - reach, hi + reach
        if not (_CERT_LOW <= lam and big <= _CERT_HIGH):
            return
        kappa = big / lam
        ell = max(-math.log(lam / 2.0), math.log(2.0 * big))
        for k in range(1, n + 1):
            eta = 4.0 * (k + 1) ** 2 * _U * kappa
            if eta > 0.25:
                break
            self._slacks.append(
                4.0 * k * eta + 2.0 * (k + 8) ** 2 * _U * ell + 8.0 * _U * kappa
            )
        self._diag = kernel.matrix.diagonal().tolist()

    def value(self, elements: Iterable[Element]) -> float:
        value, clamped = _logdet_warned(self.kernel.submatrix(elements))
        if clamped:
            self.clamped = True
        return value + self.kernel.offset

    def values(self, sets: Sequence[Collection[Element]]) -> list[float]:
        """``value`` of each set, with each group of two or more sets of one
        size factored in one stacked Cholesky call.

        numpy's stacked ``cholesky`` runs LAPACK's factorization on each
        member as a single call does, and the log sum reduces each row as
        ``_logdet_floored`` reduces its diagonal, so every value keeps its
        last bit. The empty set, a lone set of its size, a group that
        raises and a member with a pivot under ``DET_FLOOR`` go through
        ``value``, which clamps and warns as ever. So does every set when
        ``value`` is not this class's own: an override sees each set.
        """
        if type(self).value is not _logdet_value:
            return super().values(sets)
        kernel = self.kernel
        indices = list(map(kernel.indices, sets))
        by_size: dict[int, list[int]] = {}
        for i, idx in enumerate(indices):
            by_size.setdefault(len(idx), []).append(i)
        found: list[float | None] = [None] * len(indices)
        for size, members in by_size.items():
            if size == 0 or len(members) < 2:
                continue
            stack = np.array([indices[i] for i in members], dtype=np.intp)
            try:
                factors = np.linalg.cholesky(
                    kernel.matrix[stack[:, :, None], stack[:, None, :]]
                )
            except np.linalg.LinAlgError:
                continue
            diag = factors.diagonal(axis1=1, axis2=2)
            fits = (diag * diag >= DET_FLOOR).all(axis=1).tolist()
            logdets = (2.0 * np.log(diag).sum(axis=1)).tolist()
            for i, fit, logdet in zip(members, fits, logdets):
                if fit:
                    found[i] = logdet + kernel.offset
        for i, value in enumerate(found):
            if value is None:
                found[i] = self.value(sets[i])
        return found

    def gain_bound(self, s: AbstractSet[Element], e: Element) -> float | None:
        """min over x in S of log(L_ee - L_xe^2 / L_xx), log L_ee for an
        empty S, plus a slack; None unless the certificate below holds.

        The gain log det L_{S+e} - log det L_S is the log of e's Schur
        complement on S, and conditioning on more elements only lowers it
        (submodularity), so it is at most e's complement on any single x.

        Certificate, with u = 2^-53, n the kernel's order and k = |S| + 1.
        The kernel is exactly symmetric, so every submatrix ``value`` is
        handed is a permuted principal submatrix M of it. eigvalsh is
        backward stable: its eigenvalues are those of L + E with ||E||_2
        <= p(n) u ||L||_2 for a modest p(n). Taking p(n) = 4 n^2, the
        order of the worst-case bound for a Householder reduction and far
        above the O(n) growth seen in practice, lam = lo - 4 n^2 u
        max(|lo|, |hi|) and Lam = hi + the same amount bound every
        eigenvalue of L, hence (interlacing) of M and of every Schur
        complement in M. The certificate asks 1e-150 <= lam, Lam <= 1e150
        and eta = 4 (k + 1)^2 u Lam / lam <= 1/4.
        - Cholesky of M, when it completes, gives R^T R = M + dM with
          |dM| <= gamma_{k+1} |R^T| |R| (Higham, Thm 10.3), so ||dM||_2 <=
          gamma_{k+1} tr(M) / (1 - gamma_{k+1}) < (k + 1)^2 u Lam; the
          factor 4 in delta = eta lam covers blocked factorizations and
          products that underflow, which cost under 2^-1074 each against
          a lam of at least 1e-150. It completes (Demmel; Higham, Thm 10.7)
          since lam / Lam >= 16 (k + 1)^2 u exceeds k gamma_{k+1} /
          (1 - k gamma_{k+1}). Each pivot r_jj^2 is a Schur complement of
          M + dM, so it is at least lam - delta >= 3 lam / 4, far above
          DET_FLOOR: the Cholesky path returns and nothing clamps.
        - Then 2 sum log r_jj = log det(M + dM), within k eta / (1 - eta)
          <= 2 k eta of log det M. Each |log r_jj^2| <= ell = max(|log
          (lam / 2)|, |log(2 Lam)|); np.log and the sum add under (k + 6)
          k u ell, and adding the offset u |f|. f(S) as the instance holds
          it is one such value on k - 1 elements, or the last gain added
          to one, which adds under 3 u (|offset| + k ell).
        - The bound's own terms: L_ee - L_xe^2 / L_xx loses under 6 u Lam
          against an exact value of at least lam, so its log under 7 u
          Lam / lam, and math.log and the final sums add a few u ell.
        The slack 4 k eta + 2 (k + 8)^2 u ell + 8 u (|offset| + Lam / lam)
        covers all of it, so the float gain ``IndStreamInstance`` takes
        is at most the returned number.
        """
        if len(s) >= len(self._slacks):
            return None
        kernel = self.kernel
        pulled = self._pulled(s)
        j = kernel.index(e)
        slack = self._slacks[len(s)] + 8.0 * _U * abs(kernel.offset)
        return math.log(self._diag[j] - pulled.item(j)) + slack

    def _pulled(self, s: AbstractSet[Element]) -> np.ndarray:
        """v_S: entry i is the max over x in S of L_xi * L_xi / L_xx, 0.0 for
        an empty S, so ``gain_bound`` reads e's largest pairwise pull as
        v_S[e]. The kernel is exactly symmetric and max is exact, so each
        entry has the bits of a loop over S.

        A ``Solution`` keeps v_S as (self, v_S) till its next commit, and
        one ``grown`` from a solution holding it grows it by the added
        element's row; any other set gets it afresh from S's rows.
        """
        kernel = self.kernel
        kept = getattr(s, "bound", None)
        if kept is not None and kept[0] is self:
            if len(kept) == 2:
                return kept[1]
            x = kernel.index(kept[2])
            pulled = kernel.matrix[x] * kernel.matrix[x]
            pulled /= self._diag[x]
            np.maximum(kept[1], pulled, out=pulled)
        else:
            idx = kernel.indices(s)
            if not idx:
                pulled = np.zeros(len(self._diag))
            else:
                rows = kernel.matrix.take(idx, 0)
                rows *= rows
                rows /= kernel.matrix.diagonal().take(idx)[:, None]
                pulled = rows.max(axis=0)
        try:
            s.bound = (self, pulled)
        except AttributeError:  # not a Solution: nothing is kept
            pass
        return pulled


# What LogDetOracle.values compares a class's value against.
_logdet_value = LogDetOracle.value


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


def _as_frozenset(elements: Iterable[Element]) -> frozenset[Element]:
    """A frozenset as it is: a copy of a held ``Solution`` may reorder it."""
    return elements if isinstance(elements, frozenset) else frozenset(elements)


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
        return self._components[eid](_as_frozenset(elements)) / self._scale

    def value(self, elements: Iterable[Element]) -> float:
        return self._mean(self._sample, _as_frozenset(elements))

    def exact_value(self, elements: Iterable[Element]) -> float:
        """Mean over every ground component; the quantity ``value`` estimates."""
        return self._mean(self._ground, _as_frozenset(elements))

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

"""Output checks computed apart from the program under test.

Nothing here imports streamls: feasibility, values, the offline greedy
baseline and the approximation factor are all recomputed from the
benchmark's own copy of the inputs. Every check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

KNAPSACK_SLACK = 1e-12
VALUE_RTOL = 1e-9


def guarantee_factor(alpha: float, beta: float, d: int, eps: float) -> float:
    """(1-eps) / ((1/sqrt(a) + 1/sqrt(2b)) (1/sqrt(a) + 2d sqrt(a) + 1/sqrt(2b)))."""
    head = 1.0 / math.sqrt(alpha) + 1.0 / math.sqrt(2.0 * beta)
    tail = head + 2.0 * d * math.sqrt(alpha)
    return (1.0 - eps) / (head * tail)


def check_feasible(
    ids: Sequence[int],
    stream_ids: Iterable[int],
    labels: Mapping[int, str] | None = None,
    caps: Mapping[str, int] | None = None,
    costs: Mapping[int, Sequence[float]] | None = None,
) -> list[str]:
    """Unique ids from the stream, label caps, and unit knapsack budgets.

    ``costs`` are already divided by their capacities.
    """
    problems: list[str] = []
    if len(set(ids)) != len(ids):
        problems.append(f"selection repeats ids: {sorted(ids)}")
    unknown = set(ids) - set(stream_ids)
    if unknown:
        problems.append(f"selection has ids outside the stream: {sorted(unknown)}")
        return problems
    if caps is not None and labels is not None:
        counts: dict[str, int] = {}
        for i in ids:
            counts[labels[i]] = counts.get(labels[i], 0) + 1
        for label, count in sorted(counts.items()):
            if label in caps and count > caps[label]:
                problems.append(f"label {label} holds {count} > cap {caps[label]}")
    if costs is not None and ids:
        d = len(costs[ids[0]])
        for j in range(d):
            total = sum(costs[i][j] for i in ids)
            if total > 1.0 + KNAPSACK_SLACK:
                problems.append(f"knapsack {j + 1} load {total!r} exceeds 1")
    return problems


def check_value(reported: float, expected: float, what: str) -> list[str]:
    if abs(reported - expected) <= VALUE_RTOL * abs(expected):
        return []
    return [f"{what}: program value {reported!r} != recomputed {expected!r}"]


def check_guarantee(value: float, baseline: float, factor: float) -> list[str]:
    """The paper's bound against a feasible (hence at most OPT) baseline."""
    if value >= factor * baseline:
        return []
    return [f"value {value!r} < factor {factor:.6f} x greedy baseline {baseline!r}"]


def check_conservation(
    chains: Sequence[tuple[int, int, Sequence[Iterable[int]]]],
) -> list[str]:
    """Per chain: instance solutions are disjoint and processed = |union| + dropped.

    Each entry is (processed, dropped, [ids held by each instance]).
    """
    problems: list[str] = []
    for n, (processed, dropped, solutions) in enumerate(chains):
        union: set[int] = set()
        total = 0
        for sol in solutions:
            sol = set(sol)
            total += len(sol)
            union |= sol
        if total != len(union):
            problems.append(f"chain {n}: instance solutions overlap")
        if processed != len(union) + dropped:
            problems.append(
                f"chain {n}: processed {processed} != held {len(union)} + dropped {dropped}"
            )
    return problems


# ---------------------------------------------------------------------------
# Objectives, recomputed
# ---------------------------------------------------------------------------


def coverage_value(ids: Iterable[int], covers: Mapping[int, Iterable[int]]) -> float:
    covered: set[int] = set()
    for i in ids:
        covered.update(covers[i])
    return float(len(covered))


def logdet_value(kernel: np.ndarray, ids: Sequence[int], offset: float) -> float:
    idx = sorted(ids)
    if not idx:
        return offset
    sign, logdet = np.linalg.slogdet(kernel[np.ix_(idx, idx)])
    if sign <= 0:
        return -math.inf
    return float(logdet) + offset


def logdet_offset(kernel: np.ndarray) -> float:
    """Closed-form singleton and pair log-det minimum, as an offset.

    max(0, -min(log L_ii, log(L_ii L_jj - L_ij^2))) + 1.
    """
    diag = np.diag(kernel)
    worst = min(0.0, float(np.min(np.log(diag))))
    if kernel.shape[0] > 1:
        dets = diag[:, None] * diag[None, :] - kernel * kernel
        upper = dets[np.triu_indices(kernel.shape[0], k=1)]
        worst = min(worst, float(np.min(np.log(upper))))
    return max(0.0, -worst) + 1.0


# ---------------------------------------------------------------------------
# Offline greedy baselines (feasible, so their value is at most OPT)
# ---------------------------------------------------------------------------


def _fits(
    i: int,
    chosen_labels: dict[str, int],
    loads: list[float],
    labels: Mapping[int, str] | None,
    caps: Mapping[str, int] | None,
    costs: Mapping[int, Sequence[float]] | None,
) -> bool:
    if caps is not None and labels is not None:
        label = labels[i]
        if label in caps and chosen_labels.get(label, 0) + 1 > caps[label]:
            return False
    if costs is not None:
        for j, c in enumerate(costs[i]):
            if loads[j] + c > 1.0:
                return False
    return True


def _take(i, chosen, chosen_labels, loads, labels, costs) -> None:
    chosen.append(i)
    if labels is not None:
        chosen_labels[labels[i]] = chosen_labels.get(labels[i], 0) + 1
    if costs is not None:
        for j, c in enumerate(costs[i]):
            loads[j] += c


def greedy_coverage(
    covers: Mapping[int, Sequence[int]],
    labels: Mapping[int, str],
    caps: Mapping[str, int],
    costs: Mapping[int, Sequence[float]],
) -> tuple[list[int], float]:
    """Best of gain-greedy and density-greedy under labels and knapsacks."""
    best: tuple[list[int], float] = ([], 0.0)
    d = len(next(iter(costs.values())))
    for by_density in (False, True):
        chosen: list[int] = []
        chosen_labels: dict[str, int] = {}
        loads = [0.0] * d
        covered: set[int] = set()
        while True:
            pick, pick_score = None, 0.0
            for i, items in covers.items():
                if i in chosen or not _fits(i, chosen_labels, loads, labels, caps, costs):
                    continue
                gain = len(set(items) - covered)
                score = gain / sum(costs[i]) if by_density else gain
                if gain > 0 and score > pick_score:
                    pick, pick_score = i, score
            if pick is None:
                break
            _take(pick, chosen, chosen_labels, loads, labels, costs)
            covered.update(covers[pick])
        value = coverage_value(chosen, covers)
        if value > best[1]:
            best = (chosen, value)
    return best


def greedy_logdet(
    kernel: np.ndarray,
    offset: float,
    labels: Mapping[int, str] | None = None,
    caps: Mapping[str, int] | None = None,
    costs: Mapping[int, Sequence[float]] | None = None,
) -> tuple[list[int], float]:
    """Best of gain- and density-greedy on log det; gains are Schur log-residuals."""
    n = kernel.shape[0]
    diag = np.diag(kernel).copy()
    modes = (False, True) if costs is not None else (False,)
    best: tuple[list[int], float] = ([], offset)
    for by_density in modes:
        chosen: list[int] = []
        chosen_labels: dict[str, int] = {}
        loads = [0.0] * (len(costs[0]) if costs is not None else 0)
        basis = np.zeros((0, n))  # rows: orthogonalized kernel columns of chosen
        while True:
            residual = diag - np.sum(basis * basis, axis=0)
            with np.errstate(divide="ignore", invalid="ignore"):
                gains = np.log(np.maximum(residual, 1e-300))
            order = np.argsort(-gains) if not by_density else np.argsort(
                -gains / np.array([sum(costs[i]) for i in range(n)])
            )
            pick = None
            for i in order:
                i = int(i)
                if gains[i] <= 0.0:
                    break
                if i in chosen or not _fits(i, chosen_labels, loads, labels, caps, costs):
                    continue
                pick = i
                break
            if pick is None:
                break
            row = (kernel[pick] - basis[:, pick] @ basis) / math.sqrt(residual[pick])
            basis = np.vstack([basis, row])
            _take(pick, chosen, chosen_labels, loads, labels, costs)
        value = logdet_value(kernel, chosen, offset)
        if value > best[1]:
            best = (chosen, value)
    return best

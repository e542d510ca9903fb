"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of its seed and stream number: the
same pair yields byte-identical inputs. A run streams several inputs of
one kind (a few "videos"), so that its quality and memory figures are
means over inputs rather than the luck of one. The program under test
only ever sees what these functions produce.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

import numpy as np

# grid-coverage: a coverage instance under a partition matroid and two
# knapsacks, streamed through the threshold grid.
GRID_STREAMS = 32
GRID_ELEMENTS = 1500
GRID_ITEMS = 600
GRID_LABELS = 5
GRID_CAP = 2
GRID_EPS = 0.2
GRID_SNAPSHOT_EVERY = 250

# chain-logdet: a video-like frame stream scored by a log-det DPP over a
# feature kernel, under a tight partition matroid over topic labels.
CHAIN_STREAMS = 3
CHAIN_FRAMES = 1500
CHAIN_FEATURES = 6
CHAIN_TOPICS = 8
CHAIN_CAP = 2
CHAIN_SCALE = 4.0
CHAIN_RIDGE = 0.25
CHAIN_SCENE_FRAMES = (20, 60)
CHAIN_SNAPSHOT_EVERY = 100

# run-budget: the same kind of frame stream as a CSV plus kernel file,
# summarized under a total-duration budget by `streamls run`.
RUN_STREAMS = 6
RUN_FRAMES = 150
RUN_FEATURES = 6
RUN_SCALE = 4.0
RUN_RIDGE = 0.25
RUN_SCENE_FRAMES = (4, 12)
RUN_BUDGET_SECONDS = 45.0
RUN_EPS = 0.2


@dataclass(frozen=True)
class CoverageInstance:
    covers: dict[int, tuple[int, ...]]
    labels: dict[int, str]
    costs: dict[int, tuple[float, float]]
    caps: dict[str, int]
    eps: float
    snapshot_every: int

    @property
    def ids(self) -> list[int]:
        return list(self.covers)


@dataclass(frozen=True)
class FrameInstance:
    features: np.ndarray  # (n, D)
    labels: list[str]  # topic label per frame
    durations: list[float]  # seconds per frame
    kernel: np.ndarray  # (n, n) RBF similarity plus ridge

    @property
    def n(self) -> int:
        return len(self.labels)


def coverage_instance(seed: int, stream: int, n: int = GRID_ELEMENTS) -> CoverageInstance:
    rng = random.Random(f"grid-coverage:{seed}:{stream}")
    covers: dict[int, tuple[int, ...]] = {}
    labels: dict[int, str] = {}
    costs: dict[int, tuple[float, float]] = {}
    for i in range(n):
        covers[i] = tuple(rng.sample(range(GRID_ITEMS), rng.randint(1, 6)))
        labels[i] = f"g{rng.randrange(GRID_LABELS)}"
        costs[i] = (rng.uniform(0.02, 0.25), rng.uniform(0.02, 0.25))
    caps = {f"g{j}": GRID_CAP for j in range(GRID_LABELS)}
    return CoverageInstance(covers, labels, costs, caps, GRID_EPS, GRID_SNAPSHOT_EVERY)


def _scene_frames(rng: np.random.Generator, n: int, dim: int, topics: int, scenes: tuple[int, int]):
    """Features that drift scene by scene.

    Scenes take the topics in turn, so every topic recurs about equally
    often and a stream's work does not hinge on which topics it lacks.
    """
    features = np.empty((n, dim))
    labels: list[str] = []
    center = rng.normal(0.0, 1.0, dim)
    i = scene = 0
    while i < n:
        length = int(rng.integers(scenes[0], scenes[1] + 1))
        step = rng.normal(0.0, 1.0, dim)
        center = center + step * (math.sqrt(dim) / np.linalg.norm(step))
        topic = f"t{scene % topics}"
        scene += 1
        stop = min(n, i + length)
        features[i:stop] = center + rng.normal(0.0, 0.35, (stop - i, dim))
        labels.extend([topic] * (stop - i))
        i = stop
    return features, labels


def rbf_kernel(features: np.ndarray, scale: float, ridge: float) -> np.ndarray:
    """scale * exp(-|x - y|^2 / 2D) + ridge * I: every eigenvalue is >= ridge.

    Diagonal entries above 1 let diverse frames add value, and
    near-duplicates within a scene lose it, so the log-det is
    non-monotone.
    """
    sq = np.sum(features * features, axis=1)
    dist = np.maximum(sq[:, None] + sq[None, :] - 2.0 * features @ features.T, 0.0)
    kernel = scale * np.exp(-dist / (2.0 * features.shape[1]))
    kernel = 0.5 * (kernel + kernel.T)
    kernel[np.diag_indices_from(kernel)] = scale + ridge
    return kernel


def frame_instance(
    name: str,
    seed: int,
    stream: int,
    n: int,
    dim: int,
    scale: float,
    ridge: float,
    topics: int,
    scenes: tuple[int, int],
) -> FrameInstance:
    rng = np.random.default_rng([seed, stream, sum(map(ord, name))])
    features, labels = _scene_frames(rng, n, dim, topics, scenes)
    durations = [float(d) for d in rng.uniform(1.0, 4.0, n)]
    return FrameInstance(features, labels, durations, rbf_kernel(features, scale, ridge))


def chain_instance(seed: int, stream: int, n: int = CHAIN_FRAMES) -> FrameInstance:
    return frame_instance(
        "chain-logdet",
        seed,
        stream,
        n,
        CHAIN_FEATURES,
        CHAIN_SCALE,
        CHAIN_RIDGE,
        CHAIN_TOPICS,
        CHAIN_SCENE_FRAMES,
    )


def chain_offset(rank: int, ridge: float = CHAIN_RIDGE) -> float:
    """Fixed offset keeping log det(L_S) + offset >= 0 for |S| <= rank + 1.

    Every eigenvalue of the kernel is at least ``ridge``, so
    log det(L_S) >= |S| log(ridge).
    """
    return (rank + 1) * max(0.0, -math.log(ridge)) + 1.0


def run_instance(seed: int, stream: int, n: int = RUN_FRAMES) -> FrameInstance:
    return frame_instance(
        "run-budget", seed, stream, n, RUN_FEATURES, RUN_SCALE, RUN_RIDGE, 1, RUN_SCENE_FRAMES
    )


def write_run_inputs(inst: FrameInstance, workdir: str) -> str:
    """Write the CSV stream, kernel file and run config; return the config path."""
    os.makedirs(workdir, exist_ok=True)
    stream = os.path.join(workdir, "frames.csv")
    kernel = os.path.join(workdir, "kernel.txt")
    config = os.path.join(workdir, "run.cfg")
    report = os.path.join(workdir, "report.txt")
    dim = inst.features.shape[1]
    with open(stream, "w") as fh:
        fh.write(",".join(["id", "cost_1"] + [f"f{j}" for j in range(dim)]) + "\n")
        for i in range(inst.n):
            row = [str(i), repr(inst.durations[i])]
            row += [repr(float(x)) for x in inst.features[i]]
            fh.write(",".join(row) + "\n")
    with open(kernel, "w") as fh:
        fh.write(f"{inst.n}\n")
        for row in inst.kernel:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")
    with open(config, "w") as fh:
        fh.write(
            f"stream = {stream}\n"
            "format = csv\n"
            "objective = logdet\n"
            f"kernel = {kernel}\n"
            "offset = auto\n"
            "constraint = none\n"
            "knapsacks = 1\n"
            f"capacities = {RUN_BUDGET_SECONDS!r}\n"
            "k = auto\n"
            f"eps = {RUN_EPS!r}\n"
            "mode = deterministic\n"
            f"report = {report}\n"
        )
    return config

"""Unconstrained non-monotone maximization by double greedy.

One forward pass keeps or drops each element by comparing the gain of
adding it to the kept set against the gain of removing it from the
remaining set. The deterministic rule guarantees a third of the
unconstrained optimum; the randomized rule gives half in expectation.
Passes over several grounds run in lockstep, so that an oracle can
answer the sets of one step together.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generator, Iterable, Sequence

from .errors import ConfigError
from .objectives import Element, ValueOracle

DETERMINISTIC = "deterministic"
RANDOMIZED = "randomized"

# One double-greedy pass: yields the two sets it needs, is sent their
# values, and returns its kept set.
_Pass = Generator[
    tuple[set[Element], set[Element]], Sequence[float], frozenset[Element]
]


@dataclass(frozen=True)
class DoubleGreedyConfig:
    mode: str = DETERMINISTIC
    # The randomized rule reseeds from it on every call, so repeated
    # snapshots of an unchanged stream prune alike.
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (DETERMINISTIC, RANDOMIZED):
            raise ConfigError(f"unknown double-greedy mode {self.mode!r}")

    @property
    def beta(self) -> float:
        """Declared approximation factor of the configured rule."""
        return 1.0 / 3.0 if self.mode == DETERMINISTIC else 0.5


def unconstrained_max(
    oracle: ValueOracle,
    ground: Iterable[Element],
    cfg: DoubleGreedyConfig = DoubleGreedyConfig(),
) -> frozenset[Element]:
    """Double greedy over ``ground``: ``unconstrained_max_many`` on it alone."""
    return unconstrained_max_many(oracle, [ground], cfg)[0]


def unconstrained_max_many(
    oracle: ValueOracle,
    grounds: Iterable[Iterable[Element]],
    cfg: DoubleGreedyConfig = DoubleGreedyConfig(),
) -> list[frozenset[Element]]:
    """Double greedy over each ground, all passes in lockstep.

    At each step every pass still running asks for its next two sets, and
    all of them go to the oracle in one ``values`` call, which an oracle
    may answer in batches. A pass builds and reads its sets as it would
    alone, so each result is the one a pass of its own returns.
    """
    passes = [_double_greedy(ground, cfg) for ground in grounds]
    cuts: list[frozenset[Element]] = [frozenset()] * len(passes)
    running = list(range(len(passes)))
    sets = [s for p in passes for s in next(p)]
    while running:
        found = oracle.values(sets)
        sets, still = [], []
        for k, i in enumerate(running):
            try:
                # The k-th pass still running asked for sets 2k and 2k + 1.
                sets += passes[i].send(found[2 * k : 2 * k + 2])
            except StopIteration as done:
                cuts[i] = done.value
            else:
                still.append(i)
        running = still
    return cuts


def _double_greedy(ground: Iterable[Element], cfg: DoubleGreedyConfig) -> _Pass:
    """One double-greedy pass over ``ground`` in ascending-id order.

    It needs f of both frontier sets at setup, then f(kept + e) and
    f(remaining - e) for each element e; their running values are cached,
    so it needs twice as many sets as elements, plus two. It yields each
    pair of sets and is sent their values.
    """
    order = sorted(set(ground), key=lambda e: e.id)
    rng = random.Random(cfg.seed) if cfg.mode == RANDOMIZED else None

    kept: set[Element] = set()
    remaining: set[Element] = set(order)
    value_kept, value_remaining = yield kept, remaining
    for e in order:
        value_add, value_drop = yield kept | {e}, remaining - {e}
        add_gain = value_add - value_kept
        drop_gain = value_drop - value_remaining
        if rng is None:
            keep = add_gain >= drop_gain
        else:
            a = max(add_gain, 0.0)
            b = max(drop_gain, 0.0)
            if a + b <= 0.0:
                keep = add_gain >= drop_gain
            else:
                keep = rng.random() < a / (a + b)
        if keep:
            kept.add(e)
            value_kept += add_gain
        else:
            remaining.discard(e)
            value_remaining += drop_gain
    return frozenset(kept)

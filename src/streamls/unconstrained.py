"""Unconstrained non-monotone maximization by double greedy.

One forward pass keeps or drops each element by comparing the gain of
adding it to the kept set against the gain of removing it from the
remaining set. The deterministic rule guarantees a third of the
unconstrained optimum; the randomized rule gives half in expectation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from .errors import ConfigError
from .objectives import Element, ValueOracle

DETERMINISTIC = "deterministic"
RANDOMIZED = "randomized"


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
    """Double greedy over elements in ascending-id order.

    Running values of both frontier sets are cached, so the oracle is
    evaluated twice per element plus twice at setup.
    """
    order = sorted(set(ground), key=lambda e: e.id)
    rng = random.Random(cfg.seed) if cfg.mode == RANDOMIZED else None

    kept: set[Element] = set()
    remaining: set[Element] = set(order)
    value_kept = oracle.value(kept)
    value_remaining = oracle.value(remaining)
    for e in order:
        add_gain = oracle.value(kept | {e}) - value_kept
        drop_gain = oracle.value(remaining - {e}) - value_remaining
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

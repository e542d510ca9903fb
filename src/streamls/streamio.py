"""Stream ingestion, run configuration, metrics and report files."""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import AbstractSet, Iterator, Sequence

from .constraints import (
    IndependenceOracle,
    Matchoid,
    PartitionMatroid,
    UniformMatroid,
    cost_problem,
)
from .errors import ConfigError, ParseError
from .objectives import (
    CoverageOracle,
    CutOracle,
    DecomposableOracle,
    DppKernel,  # unused here, but perfbench patches this name
    Element,
    LogDetOracle,
    SequentialDppOracle,
    ValueOracle,
    coverage_component,
    load_kernel,
    reservoir_sample,
    sample_size_bound,
    suggest_logdet_offset,
)

_RESERVED_COLUMNS = {"id", "groups"}


def _parse_groups(cell: str) -> frozenset[str]:
    return frozenset(g for g in cell.split(";") if g)


def load_stream(
    path: str,
    fmt: str = "csv",
    d: int = 0,
    capacities: Sequence[float] | None = None,
) -> Iterator[Element]:
    """Yield elements in file order.

    CSV needs a header; ``id`` is required, ``cost_1..cost_d`` and
    ``groups`` (semicolon-separated labels) are recognized, any other
    column is a numeric feature. JSONL rows are objects with the same
    keys: ``id`` a JSON integer, ``features``, ``costs`` and ``groups``
    JSON lists. Costs are divided by ``capacities`` when given, which
    must be positive and finite. Costs must be finite and non-negative,
    before and after that division, and features finite.
    """
    if fmt not in ("csv", "jsonl"):
        raise ConfigError(f"unknown stream format {fmt!r}")
    caps = [float(c) for c in capacities] if capacities is not None else None
    if caps is not None:
        if not all(0.0 < c < math.inf for c in caps):
            raise ConfigError("capacities must be positive and finite")
        if d and len(caps) != d:
            raise ConfigError("capacities length must equal the knapsack count")
        d = len(caps)
    seen: set[int] = set()

    def finish(eid: int, features, costs, groups, line: int) -> Element:
        if eid in seen:
            raise ParseError(f"duplicate element id {eid}", line)
        seen.add(eid)
        if len(costs) != d:
            raise ParseError(f"element {eid} has {len(costs)} costs, expected {d}", line)
        problem = cost_problem(eid, costs)
        if problem:
            raise ParseError(problem, line)
        if not all(math.isfinite(x) for x in features):
            raise ParseError(f"element {eid} has a non-finite feature", line)
        if caps is not None:
            scaled = [c / cap for c, cap in zip(costs, caps)]
            if math.inf in scaled:
                i = scaled.index(math.inf)
                raise ParseError(
                    f"element {eid}: cost {costs[i]} over capacity {caps[i]}"
                    " overflows the float range",
                    line,
                )
            costs = scaled
        return Element(
            id=eid,
            features=tuple(features) if features else None,
            costs=tuple(costs),
            groups=groups,
        )

    if fmt == "csv":
        yield from _load_csv(path, d, finish)
    else:
        yield from _load_jsonl(path, d, finish)


def _text_lines(path: str, newline: str | None = None) -> Iterator[str]:
    """The lines of a UTF-8 text file; other bytes raise ``ParseError``."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise ParseError.not_utf8(path, exc) from None


def _csv_rows(path: str) -> Iterator[list[str]]:
    """The rows of a CSV file; a row the reader refuses raises ``ParseError``."""
    reader = csv.reader(_text_lines(path, newline=""))
    try:
        yield from reader
    except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
        raise ParseError(f"bad csv: {exc}", reader.line_num) from None


def _load_csv(path: str, d: int, finish) -> Iterator[Element]:
    reader = _csv_rows(path)
    header = next(reader, None)
    if header is None:
        return
    header = [h.strip() for h in header]
    if "id" not in header:
        raise ParseError("missing required column 'id'", 1)
    cost_cols = [f"cost_{j}" for j in range(1, d + 1)]
    for col in cost_cols:
        if col not in header:
            raise ParseError(f"missing required column {col!r}", 1)
    feature_cols = [
        h for h in header if h not in _RESERVED_COLUMNS and h not in cost_cols
    ]
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, found {len(row)}", lineno
            )
        record = dict(zip(header, (cell.strip() for cell in row)))
        try:
            eid = int(record["id"])
        except ValueError:
            raise ParseError(f"malformed id {record['id']!r}", lineno) from None
        try:
            costs = [float(record[c]) if record[c] else 0.0 for c in cost_cols]
            features = [
                float(record[c]) for c in feature_cols if record.get(c, "") != ""
            ]
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        groups = _parse_groups(record.get("groups", ""))
        yield finish(eid, features, costs, groups, lineno)


def _load_jsonl(path: str, d: int, finish) -> Iterator[Element]:
    for lineno, line in enumerate(_text_lines(path), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad json: {exc.msg}", lineno) from None
        except (ValueError, RecursionError) as exc:
            # An integer literal past Python's digit limit, or nesting
            # deeper than the decoder can recurse.
            raise ParseError(f"bad json: {exc}", lineno) from None
        if not isinstance(obj, dict):
            raise ParseError("expected a json object", lineno)
        if "id" not in obj:
            raise ParseError("missing required field 'id'", lineno)
        eid = obj["id"]
        if type(eid) is not int:  # also refuses bool, a subclass of int
            raise ParseError(
                f"id must be a json integer, got {json.dumps(eid)}", lineno
            )
        try:
            features = [float(x) for x in _json_list(obj, "features")]
            costs = [float(x) for x in _json_list(obj, "costs")]
            groups = frozenset(str(g) for g in _json_list(obj, "groups"))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(str(exc), lineno) from None
        yield finish(eid, features, costs, groups, lineno)


def _json_list(obj: dict, key: str) -> list:
    """A JSONL list field; absent or null reads as empty.

    A string is refused rather than split into characters.
    """
    value = obj.get(key)
    if value is None:
        return []
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be a json list, got {json.dumps(value)}")
    return value


# ---------------------------------------------------------------------------
# Summary metrics
# ---------------------------------------------------------------------------


def summary_metrics(
    selected: AbstractSet[int],
    references: Sequence[AbstractSet[int]],
) -> tuple[float, float, float]:
    """Mean precision, recall and F-score against reference summaries.

    Matching is by element id. An empty selection scores precision 1
    against an empty reference and 0 otherwise; F is 0 when P + R = 0.
    """
    if not references:
        raise ConfigError("at least one reference summary is required")
    p_total = r_total = f_total = 0.0
    for ref in references:
        hits = len(selected & ref)
        if selected:
            precision = hits / len(selected)
        else:
            precision = 1.0 if not ref else 0.0
        recall = hits / len(ref) if ref else 1.0
        f_score = (
            2.0 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
        p_total += precision
        r_total += recall
        f_total += f_score
    n = len(references)
    return p_total / n, r_total / n, f_total / n


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


def _kv_lines(path: str) -> Iterator[tuple[int, str, str]]:
    """(line number, key, value) for each ``key = value`` line."""
    for lineno, raw in enumerate(_text_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', found {line!r}", lineno)
        key, value = line.split("=", 1)
        yield lineno, key.strip(), value.strip()


def _auto(convert):
    """``convert``, except that ``auto`` reads as None."""
    return lambda text: None if text == "auto" else convert(text)


def _floats(text: str) -> tuple[float, ...] | None:
    return tuple(float(x) for x in text.split(",") if x) or None


def _id_sets(text: str) -> list[frozenset[int]]:
    if not text:
        return []
    return [frozenset(int(x) for x in part.split(",") if x) for part in text.split("|")]


# How each non-text key's value is read; every other key keeps its text.
_CONVERTERS = {
    "offset": _auto(float),
    "segment": int,
    "knapsacks": int,
    "capacities": _floats,
    "eps": float,
    "k": _auto(int),
    "seed": int,
    "dec_eps": float,
    "dec_delta": float,
    "dec_k": int,
    "references": _id_sets,
}


@dataclass
class RunConfig:
    """A parsed ``run.cfg``: ``auto`` reads as None, an empty list as none given."""

    stream: str = ""
    format: str = "csv"
    objective: str = "coverage"
    kernel: str | None = None
    offset: float | None = None
    edges: str | None = None
    segment: int = 0
    constraint: str = "none"
    knapsacks: int = 0
    capacities: tuple[float, ...] | None = None
    mode: str = "deterministic"
    eps: float = 0.2
    k: int | None = None
    seed: int = 0
    dec_eps: float = 0.5
    dec_delta: float = 0.1
    dec_k: int = 3
    report: str | None = None
    references: list[frozenset[int]] = field(default_factory=list)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        cfg = cls()
        keys = {f.name for f in dataclass_fields(cls)}
        for lineno, key, value in _kv_lines(path):
            if key not in keys:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                setattr(cfg, key, _CONVERTERS.get(key, str)(value))
            except ValueError:
                raise ParseError(f"malformed {key} {value!r}", lineno) from None
        if cfg.knapsacks < 0:
            raise ConfigError(
                f"knapsack count must be non-negative: knapsacks = {cfg.knapsacks}"
            )
        if cfg.capacities is not None and len(cfg.capacities) != cfg.knapsacks:
            raise ConfigError(
                f"{len(cfg.capacities)} capacities given for {cfg.knapsacks} knapsacks"
            )
        return cfg


def build_constraint(spec: str) -> IndependenceOracle:
    """Constraint DSL: none | uniform:N | partition:a=1,b=2 | matchoid:a=1;b=2[;p=2]."""
    spec = spec.strip()
    if spec in ("", "none"):
        return UniformMatroid(1 << 30)
    try:
        return _parse_constraint(spec)
    except ValueError:
        raise ConfigError(f"malformed constraint spec {spec!r}") from None


def _parse_constraint(spec: str) -> IndependenceOracle:
    kind, _, body = spec.partition(":")
    if kind == "uniform":
        return UniformMatroid(int(body))
    if kind == "partition":
        limits = {}
        for chunk in body.split(","):
            label, _, limit = chunk.partition("=")
            if not label or not limit:
                raise ConfigError(f"bad partition block {chunk!r}")
            label = label.strip()
            if label in limits:
                raise ConfigError(f"partition block {label!r} is given twice")
            limits[label] = int(limit)
        return PartitionMatroid(limits)
    if kind == "matchoid":
        parts: list[tuple[IndependenceOracle, frozenset[int] | str]] = []
        p: int | None = None
        for chunk in body.split(";"):
            label, _, limit = chunk.partition("=")
            if not label or not limit:
                raise ConfigError(f"bad matchoid part {chunk!r}")
            if label.strip() == "p":
                if p is not None:
                    raise ConfigError("matchoid p is given twice")
                p = int(limit)
                continue
            parts.append((UniformMatroid(int(limit)), label.strip()))
        return Matchoid(parts, p=p)
    raise ConfigError(f"unknown constraint spec {spec!r}")


def build_objective(cfg: RunConfig, elements: Sequence[Element]) -> ValueOracle:
    """Instantiate the configured oracle over the loaded stream."""
    if cfg.objective == "coverage":
        return CoverageOracle({e.id: e.groups for e in elements})
    if cfg.objective == "cut":
        if not cfg.edges:
            raise ConfigError("cut objective needs an 'edges' file")
        edge_list = []
        for lineno, line in enumerate(_text_lines(cfg.edges), start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) not in (2, 3):
                raise ParseError("expected 'u v [weight]'", lineno)
            try:
                w = float(fields[2]) if len(fields) == 3 else 1.0
                edge_list.append((int(fields[0]), int(fields[1]), w))
            except ValueError:
                raise ParseError(
                    f"malformed edge {line.strip()!r}", lineno
                ) from None
        return CutOracle(edge_list, nodes=[e.id for e in elements])
    if cfg.objective in ("logdet", "seqdpp"):
        if not cfg.kernel:
            raise ConfigError(f"{cfg.objective} objective needs a 'kernel' file")
        kernel = load_kernel(cfg.kernel)
        offset = cfg.offset
        if offset is None:
            offset = suggest_logdet_offset(kernel.matrix)
        kernel.set_offset(offset)
        if cfg.objective == "logdet":
            return LogDetOracle(kernel)
        return SequentialDppOracle(kernel)
    if cfg.objective == "decomposable":
        components = {
            e.id: coverage_component(e.groups, lambda x: x.groups) for e in elements
        }
        bound = sample_size_bound(
            cfg.dec_k, cfg.dec_eps, cfg.dec_delta, max(2, len(elements))
        )
        capacity = min(bound, len(elements))
        rng = random.Random(cfg.seed)
        sample: list[Element] = []
        for position, e in enumerate(elements, start=1):
            reservoir_sample(position, sample, capacity, e, rng)
        return DecomposableOracle(components, elements, sample)
    raise ConfigError(f"unknown objective {cfg.objective!r}")


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------


def format_value(value) -> str:
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(str(int(v)) for v in value) + "]"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_value(text: str):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return ()
        return tuple(int(x) for x in inner.split(","))
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def write_report(path: str, fields: dict[str, object]) -> None:
    """Line-delimited ``key = value`` report."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in fields.items():
            fh.write(f"{key} = {format_value(value)}\n")


def parse_report(path: str) -> dict[str, object]:
    return {key: parse_value(value) for _, key, value in _kv_lines(path)}

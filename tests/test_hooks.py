"""The names perfbench's tracer patches, checked without importing it.

``perfbench/tracing.py`` wraps a method by reading
``owner.__dict__[name]`` and swaps a module's name with ``setattr``. A
renamed method or a dropped import then fails only the traced
benchmark runs; these tests fail first.
"""

import pytest

import streamls
from streamls import cli, constraints, indstream, localsearch, objectives, streamio
from streamls.cli import main
from streamls.unconstrained import unconstrained_max

# Methods wrapped through the class's own ``__dict__``.
METHODS = [
    (indstream.IndStreamInstance, "process"),
    (indstream.IndStreamInstance, "process_with_threshold"),
    (localsearch.ChainState, "process"),
    (localsearch.ChainState, "finalize"),
    (localsearch.GridState, "process"),
    (localsearch.GridState, "finalize"),
    (localsearch.StreamingSession, "push"),
    (localsearch.StreamingSession, "snapshot"),
    (localsearch.StreamingSession, "close"),
]

# Module names replaced with ``setattr``, and what each must be bound to.
MODULE_NAMES = [
    (indstream, "exchange_candidates", constraints.exchange_candidates),
    (localsearch, "unconstrained_max", unconstrained_max),
    (streamio, "load_kernel", objectives.load_kernel),
    (streamio, "suggest_logdet_offset", objectives.suggest_logdet_offset),
    (streamio, "LogDetOracle", objectives.LogDetOracle),
    (streamio, "UniformMatroid", constraints.UniformMatroid),
    (streamio, "PartitionMatroid", constraints.PartitionMatroid),
    (streamio, "DppKernel", objectives.DppKernel),
    (objectives, "DppKernel", objectives.DppKernel),
    (cli, "KnapsackSpec", constraints.KnapsackSpec),
    (cli, "load_stream", streamio.load_stream),
    (cli, "build_objective", streamio.build_objective),
    (cli, "write_report", streamio.write_report),
]

# Classes the tracer subclasses, read from the package root.
TRACED_CLASSES = [
    "CoverageOracle",
    "LogDetOracle",
    "PartitionMatroid",
    "UniformMatroid",
    "KnapsackSpec",
    "DppKernel",
]


@pytest.mark.parametrize(
    "owner, name", METHODS, ids=[f"{o.__name__}.{n}" for o, n in METHODS]
)
def test_wrapped_method_is_the_class_own(owner, name):
    assert callable(owner.__dict__[name])


@pytest.mark.parametrize(
    "module, name, target",
    MODULE_NAMES,
    ids=[f"{m.__name__.split('.')[-1]}.{n}" for m, n, _ in MODULE_NAMES],
)
def test_patched_module_name_is_bound(module, name, target):
    assert getattr(module, name) is target


@pytest.mark.parametrize("name", TRACED_CLASSES)
def test_traced_class_is_exported(name):
    assert isinstance(getattr(streamls, name), type)


class Spy:
    """Counts the calls to a wrapped callable."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def test_the_run_path_resolves_each_name_through_its_module(tmp_path, monkeypatch):
    kernel = tmp_path / "kernel.txt"
    kernel.write_text("2\n1.5 0.2\n0.2 0.9\n")
    stream = tmp_path / "stream.csv"
    stream.write_text("id,cost_1,groups\n0,0.2,a\n1,0.3,b\n")
    config = tmp_path / "run.cfg"
    config.write_text(
        f"stream = {stream}\nobjective = logdet\nkernel = {kernel}\n"
        "constraint = partition:a=1,b=1\nknapsacks = 1\n"
        f"report = {tmp_path / 'out.txt'}\n"
    )
    spies = {}
    for module, name in [
        (streamio, "load_kernel"),
        (streamio, "suggest_logdet_offset"),
        (streamio, "LogDetOracle"),
        (streamio, "PartitionMatroid"),
        (cli, "KnapsackSpec"),
        (cli, "load_stream"),
        (cli, "build_objective"),
        (cli, "write_report"),
    ]:
        spies[name] = Spy(getattr(module, name))
        monkeypatch.setattr(module, name, spies[name])
    assert main(["run", "--config", str(config)]) == 0
    assert {name: spy.calls for name, spy in spies.items()} == dict.fromkeys(spies, 1)

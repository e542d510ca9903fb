"""The names perfbench patches and reads, checked without importing it.

``perfbench/tracing.py`` wraps a method by reading
``owner.__dict__[name]`` and swaps a module's name with ``setattr``.
``perfbench/workloads.py`` and the tracer also read engine state and
``stats()`` keys to check conservation and count held elements. A
renamed method, attribute or key, or a dropped import, then fails only
the benchmark runs; these tests fail first.
"""

import pytest

import streamls
from streamls import cli, constraints, indstream, localsearch, objectives, streamio
from streamls import Element, KnapsackSpec, ModularOracle, StreamingSession, UniformMatroid
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


def test_the_memo_opt_in_lives_on_the_log_det_class():
    # The tracer's LogDetOracle subclasses this class and inherits the
    # flag, so a traced run memoizes as an untraced one does.
    assert objectives.LogDetOracle.__dict__["memoized"] is True


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


def test_the_state_perfbench_reads_is_there():
    weights = ModularOracle({i: 1.0 for i in range(7)})
    # Two elements of cost 0.6 overflow the one budget, so instances freeze.
    elements = [Element(id=i, costs=(0.6,)) for i in range(6)]
    grid = StreamingSession(weights, UniformMatroid(3), KnapsackSpec(1), k=3)
    chain = StreamingSession(weights, UniformMatroid(3))
    for e in elements:
        grid.push(e)
        chain.push(e)
    assert isinstance(grid.engine, localsearch.GridState)
    assert isinstance(chain.engine, localsearch.ChainState)
    assert isinstance(grid.engine.runs, dict) and grid.engine.runs
    records = []
    for c in [*grid.engine.runs.values(), chain.engine]:
        assert (type(c.processed), type(c.dropped)) == (int, int)
        for inst in c.instances:
            assert isinstance(inst, indstream.IndStreamInstance)
            assert all(type(e) is Element for e in inst.current_solution())
            records.append(inst.overflow_record())
    assert any(r is not None for r in records)
    assert all(r is None or type(r) is Element for r in records)

    outcome = chain.engine.instances[0].process(Element(id=6))
    assert type(outcome.accepted) is bool and isinstance(outcome.discarded, frozenset)

    stats = grid.engine.stats()
    assert all(type(stats[key]) is int for key in ("active_runs", "retired_runs", "high_water"))
    assert type(chain.close().stats["high_water"]) is int


def test_close_brings_every_run_counter_up_to_the_stream():
    # A grid counts the elements it routes past a run uncalled into that
    # run when its counters are read, as close() does; perfbench's
    # conservation check reads them after close().
    weights = {i: 1.0 + (i % 5) for i in range(40)}
    weights.update({i: 0.01 for i in range(3, 40, 4)})
    elements = [Element(id=i, costs=(0.05 + 0.1 * (i % 4),)) for i in range(40)]
    elements[17] = Element(id=17, costs=(1.5,))  # above the unit capacity
    session = StreamingSession(ModularOracle(weights), UniformMatroid(4), KnapsackSpec(1), k=4)
    grid = session.engine
    opened = {}
    lagged = False
    for n, e in enumerate(elements):
        session.push(e)
        for j in grid.runs:
            opened.setdefault(j, n)
        lagged = lagged or any(
            c.processed < n + 1 - opened[j] for j, c in grid.runs.items()
        )
    assert lagged
    session.close()
    assert grid.runs
    for j, chain in grid.runs.items():
        assert chain.processed == len(elements) - opened[j]
        solutions = [inst.current_solution() for inst in chain.instances]
        union = frozenset().union(*solutions)
        assert len(union) == sum(len(s) for s in solutions)
        assert chain.processed == len(union) + chain.dropped
        for inst, solution in zip(chain.instances, solutions):
            assert inst.processed == len(solution) + inst.discarded_total

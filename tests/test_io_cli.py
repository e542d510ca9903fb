"""Stream parsing, metrics, report round-trips and the CLI commands."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from streamls import ConfigError, Element, IndependenceOracle, ParseError
from streamls.cli import main
from streamls.streamio import (
    RunConfig,
    build_constraint,
    load_stream,
    parse_report,
    summary_metrics,
    write_report,
)


class TestLoadStream:
    def test_csv_field_mapping(self, tmp_path):
        path = tmp_path / "stream.csv"
        path.write_text("id,feat,cost_1,groups\n7,,0.3,g1;g2\n")
        (element,) = list(load_stream(str(path), "csv", d=1))
        assert element == Element(id=7)
        assert element.costs == (0.3,)
        assert element.groups == frozenset({"g1", "g2"})
        assert element.features is None

    def test_csv_features_parsed(self, tmp_path):
        path = tmp_path / "stream.csv"
        path.write_text("id,f0,f1\n1,0.5,1.5\n")
        (element,) = list(load_stream(str(path)))
        assert element.features == (0.5, 1.5)

    def test_empty_file_yields_nothing(self, tmp_path):
        path = tmp_path / "stream.csv"
        path.write_text("")
        assert list(load_stream(str(path))) == []

    def test_duplicate_id_rejected_with_line(self, tmp_path):
        path = tmp_path / "stream.csv"
        path.write_text("id\n1\n1\n")
        with pytest.raises(ParseError) as err:
            list(load_stream(str(path)))
        assert err.value.line == 3

    def test_malformed_id_rejected(self, tmp_path):
        path = tmp_path / "stream.csv"
        path.write_text("id\nseven\n")
        with pytest.raises(ParseError):
            list(load_stream(str(path)))

    def test_missing_cost_column_rejected(self, tmp_path):
        path = tmp_path / "stream.csv"
        path.write_text("id\n1\n")
        with pytest.raises(ParseError):
            list(load_stream(str(path), d=1))

    def test_capacity_normalization(self, tmp_path):
        path = tmp_path / "stream.csv"
        path.write_text("id,cost_1\n1,5.0\n")
        (element,) = list(load_stream(str(path), d=1, capacities=[10.0]))
        assert element.costs == (0.5,)
        for bad in (0.0, math.inf):
            with pytest.raises(ConfigError, match="positive and finite"):
                list(load_stream(str(path), d=1, capacities=[bad]))

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        rows = [
            {"id": 3, "features": [1.0], "costs": [0.25], "groups": ["a"]},
            {"id": 4, "costs": [0.5]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = list(load_stream(str(path), "jsonl", d=1))
        assert [e.id for e in out] == [3, 4]
        assert out[0].groups == frozenset({"a"})
        assert out[1].costs == (0.5,)

    def test_bad_costs_rejected_with_line(self, tmp_path):
        # Negative, nan and inf costs, then an inf feature.
        for row in ("-0.5,1.0", "nan,1.0", "inf,1.0", "0.1,inf"):
            path = tmp_path / "stream.csv"
            path.write_text(f"id,cost_1,f0\n0,0.2,1.0\n1,{row}\n")
            with pytest.raises(ParseError) as err:
                list(load_stream(str(path), d=1))
            assert err.value.line == 3

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            list(load_stream(str(tmp_path / "x"), "parquet"))


class TestSummaryMetrics:
    def test_perfect_match(self):
        assert summary_metrics({1, 2}, [{1, 2}]) == (1.0, 1.0, 1.0)

    def test_disjoint(self):
        assert summary_metrics({1}, [{2}]) == (0.0, 0.0, 0.0)

    def test_partial_overlap(self):
        p, r, f = summary_metrics({1, 2}, [{2, 3, 4}])
        assert p == pytest.approx(0.5)
        assert r == pytest.approx(1.0 / 3.0)
        assert f == pytest.approx(0.4)

    def test_mean_over_references(self):
        p, r, f = summary_metrics({1, 2}, [{1, 2}, {3}])
        assert p == pytest.approx(0.5)
        assert r == pytest.approx(0.5)
        assert f == pytest.approx(0.5)

    def test_empty_selection_edge_cases(self):
        assert summary_metrics(set(), [set()])[0] == 1.0
        assert summary_metrics(set(), [{1}])[0] == 0.0

    def test_reference_list_required(self):
        with pytest.raises(ConfigError):
            summary_metrics({1}, [])

    @settings(max_examples=200, deadline=None)
    @given(
        st.frozensets(st.integers(0, 30), max_size=12),
        st.lists(st.frozensets(st.integers(0, 30), max_size=12), min_size=1, max_size=4),
    )
    def test_metrics_bounded_and_f_consistent(self, selected, references):
        p, r, f = summary_metrics(selected, references)
        for value in (p, r, f):
            assert 0.0 <= value <= 1.0
        # F never exceeds either component mean.
        assert f <= max(p, r) + 1e-12


class TestReports:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "report.txt"
        fields = {
            "objective": "coverage",
            "selected": (1, 4, 9),
            "value": 3.25,
            "pushed": 12,
            "empty": (),
        }
        write_report(str(path), fields)
        assert parse_report(str(path)) == fields

    def test_float_precision_survives(self, tmp_path):
        path = tmp_path / "report.txt"
        value = math.pi / 7
        write_report(str(path), {"value": value})
        assert parse_report(str(path))["value"] == value

    # The value kinds ``run`` writes: counts, floats (nan and inf included),
    # id tuples (the empty selection included) and objective names.
    REPORT_VALUES = st.one_of(
        st.integers(),
        st.floats(),
        st.tuples() | st.lists(st.integers(), max_size=6).map(tuple),
        st.sampled_from(("coverage", "cut", "logdet", "seqdpp", "decomposable")),
    )

    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.dictionaries(st.from_regex(r"[a-z_]{1,16}", fullmatch=True), REPORT_VALUES))
    def test_round_trip_fuzz(self, tmp_path, fields):
        path = tmp_path / "report.txt"
        write_report(str(path), fields)
        # repr tells nan from nan-free values and -0.0 from 0.0.
        assert repr(parse_report(str(path))) == repr(fields)

    def test_malformed_report_names_the_line(self, tmp_path):
        path = tmp_path / "report.txt"
        path.write_bytes(b"value = 1.5\npushed 3\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_report(str(path))
        path.write_bytes(b"objective = caf\xe9\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            parse_report(str(path))


class TestConfig:
    def test_kv_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\nobjective = cut  # trailing\n\nknapsacks = 2\neps = 0.5\n"
        )
        cfg = RunConfig.from_file(str(path))
        assert (cfg.objective, cfg.knapsacks, cfg.eps) == ("cut", 2, 0.5)

    def test_run_config_types(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "stream = s.csv\nobjective = logdet\nknapsacks = 2\n"
            "capacities = 2.0,4.0\nk = 5\nseed = 3\nreferences = 1,2|3\n"
        )
        cfg = RunConfig.from_file(str(path))
        assert cfg.knapsacks == 2
        assert cfg.capacities == (2.0, 4.0)
        assert cfg.k == 5
        assert cfg.seed == 3
        assert cfg.references == [frozenset({1, 2}), frozenset({3})]
        # auto and absent values read as None; an empty reference list is none.
        path.write_text("offset = auto\nk = auto\nreferences =\n")
        cfg = RunConfig.from_file(str(path))
        assert [cfg.offset, cfg.k, cfg.capacities] == [None] * 3
        assert cfg.references == []
        path.write_text("offset = 2.5\n")
        cfg = RunConfig.from_file(str(path))
        assert cfg.offset == 2.5

    def test_readme_run_cfg_parses(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        after = readme.split("`run.cfg` is flat `key = value` text", 1)[1]
        block = after.split("```")[1]
        path = tmp_path / "run.cfg"
        path.write_text(block)
        RunConfig.from_file(str(path))
        # Every key is documented, and the block sets nothing else.
        lines = [line.split("#")[0] for line in block.splitlines()]
        documented = {line.split("=")[0].strip() for line in lines if "=" in line}
        assert documented == {f.name for f in dataclasses.fields(RunConfig)}

    def test_negative_knapsack_count_names_the_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("knapsacks = -1\n")
        with pytest.raises(ConfigError, match="non-negative: knapsacks = -1"):
            RunConfig.from_file(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nonsense = 4\n")
        with pytest.raises(ConfigError):
            RunConfig.from_file(str(path))

    def test_constraint_dsl(self):
        assert build_constraint("uniform:4").rank_hint == 4
        partition = build_constraint("partition:a=1,b=2")
        assert partition.rank_hint == 3
        matchoid = build_constraint("matchoid:a=1;b=2;p=2")
        assert matchoid.p == 2
        with pytest.raises(ConfigError):
            build_constraint("lattice:3")


# Integers stay small (|n| <= 1000) so that no example allocates much;
# free text is at most three characters, so it spells no larger number.
_SMALL_INT = st.integers(-1000, 1000).map(str)
_FREE_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=3)
_NUMBER = st.one_of(
    _SMALL_INT,
    st.floats().map(repr),
    st.sampled_from(["auto", "nan", "inf", "-inf", "-0.0", "1e-300", ""]),
)
_LIST = st.lists(st.one_of(_NUMBER, _FREE_TEXT), max_size=4)
_CONFIG_VALUE = st.one_of(
    _NUMBER,
    _FREE_TEXT,
    _LIST.map(",".join),
    st.lists(_LIST.map(",".join), max_size=3).map("|".join),
)
_CONFIG_KEYS = [f.name for f in dataclasses.fields(RunConfig)] + ["nonsense"]

_SPEC_BODY = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(["a", "b", "p", ""]), _FREE_TEXT),
        st.sampled_from(["=", ""]),
        st.one_of(_SMALL_INT, _FREE_TEXT),
    ).map("".join),
    max_size=4,
)
_SPEC = st.tuples(
    st.one_of(
        st.sampled_from(["none", "uniform", "partition", "matchoid", ""]), _FREE_TEXT
    ),
    st.sampled_from([":", ""]),
    _SPEC_BODY,
    st.sampled_from([",", ";"]),
).map(lambda t: t[0] + t[1] + t[3].join(t[2]))


class TestConfigFuzz:
    """Any config text parses to a value or fails with a config/parse error."""

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.lists(st.tuples(st.sampled_from(_CONFIG_KEYS), _CONFIG_VALUE), max_size=8)
    )
    def test_run_config_parses_or_refuses(self, tmp_path, lines):
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in lines))
        try:
            cfg = RunConfig.from_file(str(path))
        except (ConfigError, ParseError):
            return
        assert isinstance(cfg, RunConfig)

    @settings(max_examples=300, deadline=None)
    @given(_SPEC)
    def test_constraint_spec_builds_or_refuses(self, spec):
        try:
            constraint = build_constraint(spec)
        except ConfigError:
            return
        assert isinstance(constraint, IndependenceOracle)


# Stream rows are either well shaped, with a field of the expected kind
# at each place, or arbitrary: CSV cells that mix numbers, free text and
# the characters the csv dialect treats specially, and JSON values that
# nest lists and objects a few levels deep.
_CELL = st.one_of(
    _NUMBER, _FREE_TEXT, st.sampled_from(['"', '""', ",", "\n", "\r", "\x00", "a;b"])
)


def _csv_rows(d):
    shaped = st.tuples(
        st.one_of(_SMALL_INT, _CELL),
        st.lists(_NUMBER, min_size=d, max_size=d),
        _FREE_TEXT,
        _NUMBER,
    ).map(lambda t: ",".join([t[0], *t[1], t[2], t[3]]))
    arbitrary = st.lists(_CELL, max_size=5).map(",".join)
    return st.lists(st.one_of(shaped, arbitrary), max_size=6)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _FREE_TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_FREE_TEXT, inner, max_size=3),
    max_leaves=8,
)
_FLOATS = st.lists(st.floats(), max_size=3)
_JSON_ROW = st.fixed_dictionaries(
    {},
    optional={
        "id": st.integers() | _JSON,
        "features": _FLOATS | _JSON,
        "costs": _FLOATS | _JSON,
        "groups": st.lists(_FREE_TEXT, max_size=3) | _JSON,
    },
)
_JSONL_LINE = st.one_of(_JSON_ROW.map(json.dumps), _JSON.map(json.dumps), _FREE_TEXT)


class TestIngestFuzz:
    """Any stream file yields elements or fails with a parse/config error."""

    @staticmethod
    def _load(path, fmt, d):
        try:
            elements = list(load_stream(str(path), fmt, d=d))
        except (ConfigError, ParseError):
            return
        assert all(isinstance(e, Element) and len(e.costs) == d for e in elements)

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.integers(0, 2).flatmap(lambda d: st.tuples(st.just(d), _csv_rows(d))))
    def test_csv_rows_load_or_refuse(self, tmp_path, d_rows):
        d, rows = d_rows
        header = ",".join(["id", *(f"cost_{j}" for j in range(1, d + 1)), "groups", "f0"])
        path = tmp_path / "stream.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        self._load(path, "csv", d)

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.integers(0, 2), st.lists(_JSONL_LINE, max_size=6))
    def test_jsonl_lines_load_or_refuse(self, tmp_path, d, lines):
        path = tmp_path / "stream.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        self._load(path, "jsonl", d)


def _write_stream(tmp_path, rows, header="id,cost_1,groups"):
    path = tmp_path / "stream.csv"
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


def _write_bytes(path, text):
    """Write ``text`` as UTF-8, except that a surrogate escape (U+DCE9
    for 0xe9) becomes the raw byte it stands for, which is not UTF-8."""
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return path


def _write_config(tmp_path, text):
    return _write_bytes(tmp_path / "run.cfg", text)


class TestCli:
    def test_run_coverage_with_metrics(self, tmp_path, capsys):
        stream = _write_stream(
            tmp_path,
            ["0,0.2,u;v", "1,0.3,v;w", "2,0.4,x", "3,0.9,u"],
        )
        report = tmp_path / "out.txt"
        config = _write_config(
            tmp_path,
            f"stream = {stream}\nobjective = coverage\nconstraint = uniform:2\n"
            f"knapsacks = 1\nk = 2\nreport = {report}\nreferences = 0,2|1\n",
        )
        assert main(["run", "--config", str(config)]) == 0
        fields = parse_report(str(report))
        assert fields["pushed"] == 4
        assert 0.0 < fields["seconds_total"] <= fields["seconds_wall"]
        assert 0.0 <= fields["f_score"] <= 1.0
        assert fields["value"] >= 0.0
        captured = capsys.readouterr()
        assert "selected" in captured.out

    @pytest.mark.parametrize(
        "rows", [["0,0.2,u;v", "1,0.3,v;w", "2,0.4,x"], []], ids=["selected", "empty"]
    )
    def test_run_prints_the_report(self, tmp_path, capsys, rows):
        stream = _write_stream(tmp_path, rows)
        report = tmp_path / "out.txt"
        config = _write_config(
            tmp_path,
            f"stream = {stream}\nobjective = coverage\nconstraint = uniform:2\n"
            f"knapsacks = 1\nk = 2\nreport = {report}\n",
        )
        assert main(["run", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        # The report format, which parse_report reads back.
        assert out == report.read_text()
        assert ("selected = []\n" in out) == (not rows)

    def test_run_empty_stream(self, tmp_path):
        stream = _write_stream(tmp_path, [], header="id")
        report = tmp_path / "out.txt"
        for objective in ("coverage", "decomposable"):
            config = _write_config(
                tmp_path,
                f"stream = {stream}\nobjective = {objective}\nconstraint = uniform:2\n"
                f"report = {report}\n",
            )
            assert main(["run", "--config", str(config)]) == 0
            fields = parse_report(str(report))
            assert fields["selected"] == ()
            assert fields["pushed"] == 0
            assert fields["value"] == 0.0

    def test_run_seqdpp_segments(self, tmp_path):
        kernel = tmp_path / "kernel.txt"
        kernel.write_text(
            "4\n"
            "2.0 0.2 0.0 0.0\n"
            "0.2 2.0 0.0 0.0\n"
            "0.0 0.0 2.0 0.3\n"
            "0.0 0.0 0.3 2.0\n"
        )
        stream = _write_stream(tmp_path, ["0", "1", "2", "3"], header="id")
        report = tmp_path / "out.txt"
        config = _write_config(
            tmp_path,
            f"stream = {stream}\nobjective = seqdpp\nkernel = {kernel}\n"
            f"segment = 2\nconstraint = uniform:1\nreport = {report}\n",
        )
        assert main(["run", "--config", str(config)]) == 0
        fields = parse_report(str(report))
        assert fields["segments"] == 2
        assert fields["high_water"] >= 1
        assert 0.0 < fields["seconds_total"] <= fields["seconds_wall"]
        assert set(fields["selected"]) <= {0, 1, 2, 3}

    def test_run_logdet_with_auto_offset(self, tmp_path):
        kernel = tmp_path / "kernel.txt"
        kernel.write_text("3\n1.5 0.2 0.1\n0.2 0.9 0.0\n0.1 0.0 0.4\n")
        stream = _write_stream(tmp_path, ["0,0.2,", "1,0.4,", "2,0.5,"])
        report = tmp_path / "out.txt"
        config = _write_config(
            tmp_path,
            f"stream = {stream}\nobjective = logdet\nkernel = {kernel}\n"
            f"constraint = uniform:2\nknapsacks = 1\nk = 2\nreport = {report}\n",
        )
        assert main(["run", "--config", str(config)]) == 0
        fields = parse_report(str(report))
        assert fields["value"] >= 0.0

    def test_run_checks_the_kernel_once(self, tmp_path, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m)
        )
        kernel = tmp_path / "kernel.txt"
        kernel.write_text("3\n1.5 0.2 0.1\n0.2 0.9 0.0\n0.1 0.0 0.4\n")
        stream = _write_stream(tmp_path, ["0,0.2,", "1,0.4,", "2,0.5,"])
        for offset in ("auto", "2.0"):
            calls.clear()
            config = _write_config(
                tmp_path,
                f"stream = {stream}\nobjective = logdet\nkernel = {kernel}\n"
                f"offset = {offset}\nconstraint = uniform:2\nknapsacks = 1\nk = 2\n",
            )
            assert main(["run", "--config", str(config)]) == 0
            assert calls == [(3, 3)]

    def test_run_cut_objective(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1 2.0\n1 2 1.0\n")
        stream = _write_stream(tmp_path, ["0", "1", "2"], header="id")
        config = _write_config(
            tmp_path,
            f"stream = {stream}\nobjective = cut\nedges = {edges}\n"
            "constraint = uniform:2\n",
        )
        assert main(["run", "--config", str(config)]) == 0

    def test_run_cut_with_denormal_weight(self, tmp_path, capsys):
        # gamma = 2m * bound underflows to 0 for m = 5e-324; its log must not.
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1 5e-324\n")
        stream = _write_stream(tmp_path, ["0,0.5,a", "1,0.5,b"])
        config = _write_config(
            tmp_path,
            f"stream = {stream}\nobjective = cut\nedges = {edges}\nknapsacks = 1\n",
        )
        assert main(["run", "--config", str(config)]) == 0
        assert "value = 5e-324" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "edges, setting, needle",
        [
            # One edge: f({0}) = 1e308, and gamma * k with k = 2^30 is past
            # the float range, so the window's top threshold overflows.
            ("0 1 1e308\n", "knapsacks = 1\nconstraint = none\n", "overflows"),
            # Two edges: f({1}) = 2e308 is infinite, with or without a grid.
            ("0 1 1e308\n1 2 1e308\n", "knapsacks = 1\n", "float range"),
            ("0 1 1e308\n1 2 1e308\n", "constraint = uniform:2\n", "float range"),
        ],
        ids=["threshold", "sum-grid", "sum-chain"],
    )
    def test_run_cut_past_the_float_range_exits_two(
        self, tmp_path, capsys, edges, setting, needle
    ):
        (tmp_path / "edges.txt").write_text(edges)
        stream = _write_stream(tmp_path, ["0,0.5,a", "1,0.5,b", "2,0.5,c"])
        config = _write_config(
            tmp_path,
            f"stream = {stream}\nobjective = cut\nedges = {tmp_path / 'edges.txt'}\n"
            + setting,
        )
        assert main(["run", "--config", str(config)]) == 2
        assert needle in capsys.readouterr().err

    def test_run_cut_near_the_float_limit_with_small_k(self, tmp_path, capsys):
        # With k = 2 every threshold of the window stays finite.
        (tmp_path / "edges.txt").write_text("0 1 1e308\n")
        stream = _write_stream(tmp_path, ["0,0.5,a", "1,0.5,b", "2,0.5,c"])
        config = _write_config(
            tmp_path,
            f"stream = {stream}\nobjective = cut\nedges = {tmp_path / 'edges.txt'}\n"
            "knapsacks = 1\nconstraint = none\nk = 2\n",
        )
        assert main(["run", "--config", str(config)]) == 0
        assert "value = 1e+308" in capsys.readouterr().out

    @pytest.mark.parametrize("k", ["auto", "107"])
    def test_run_auto_k_needs_every_element_in_a_part(self, tmp_path, capsys, k):
        # partition:a=1 has rank hint 1, yet 100 cheap elements in no
        # block form a feasible set of value 100.
        rows = ["1000,0.5,a"] + [f"{i},0.5,g{i}" for i in range(6)]
        rows += [f"{i},0.01,g{i}" for i in range(100, 200)]
        stream = _write_stream(tmp_path, rows)
        config = _write_config(
            tmp_path,
            f"stream = {stream}\nobjective = coverage\nconstraint = partition:a=1\n"
            f"knapsacks = 1\nk = {k}\n",
        )
        code = main(["run", "--config", str(config)])
        captured = capsys.readouterr()
        if k == "auto":
            assert code == 2
            assert "element 0 is not bounded by the constraint's rank hint" in captured.err
            assert "set k explicitly" in captured.err
        else:
            assert code == 0
            assert "value = 100.0" in captured.out

    def test_run_decomposable_objective(self, tmp_path):
        rows = [f"{i},0.1,g{i % 3}" for i in range(9)]
        stream = _write_stream(tmp_path, rows)
        config = _write_config(
            tmp_path,
            f"stream = {stream}\nobjective = decomposable\nconstraint = uniform:3\n"
            "knapsacks = 1\nk = 3\n",
        )
        assert main(["run", "--config", str(config)]) == 0

    def test_verify_exits_zero(self, capsys):
        assert main(["verify", "--trials", "5", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_verify_trials_reach_every_check(self, capsys):
        assert main(["verify", "--trials", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 11 and all(line.startswith("PASS") for line in lines)
        # Every check but the closed-form one runs the requested count.
        assert sum(": 5 trials," in line for line in lines) == 10

    def test_verify_exits_one_on_violation(self, capsys, monkeypatch):
        from streamls import cli
        from streamls.verify import CheckResult

        monkeypatch.setattr(
            cli.verify_mod,
            "check_alg1_bound",
            lambda **kwargs: CheckResult("alg1-end-to-end-bound", 5, 2, -0.1),
        )
        assert main(["verify", "--trials", "2"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_usage_error_exit_code(self):
        assert main(["run"]) == 2
        assert main(["frobnicate"]) == 2
        assert main(["bench"]) == 2
        assert main(["verify", "--trials", "-3"]) == 2

    def test_config_error_exit_code(self, tmp_path):
        config = _write_config(tmp_path, "objective = warp\nstream = missing.csv\n")
        assert main(["run", "--config", str(config)]) == 2

    def test_non_finite_cost_row_exits_two(self, tmp_path, capsys):
        stream = _write_stream(tmp_path, ["0,0.2,a", "1,inf,c", "2,0.3,b"])
        config = _write_config(
            tmp_path,
            f"stream = {stream}\nobjective = coverage\nconstraint = uniform:3\n"
            "knapsacks = 1\nk = 3\n",
        )
        assert main(["run", "--config", str(config)]) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting, rows, fmt, needle",
        [
            ("k = abc", None, "csv", "line 4"),
            ("alpha = 0.25", None, "csv", "unknown config key 'alpha'"),
            ("eps = x", None, "csv", "line 4"),
            ("segment = x", None, "csv", "line 4"),
            ("constraint = uniform:x", None, "csv", "uniform:x"),
            ("constraint = partition:a=x", None, "csv", "partition:a=x"),
            ("", ['{"id": "x"}'], "jsonl", "line 1"),
            ("knapsacks = 1", ['{"id": 0, "costs": ["a"]}'], "jsonl", "line 1"),
            ("knapsacks = 1", ['{"id": 1.7, "costs": [0.1]}'], "jsonl", "line 1"),
            ("knapsacks = 1", ['{"id": true, "costs": [0.1]}'], "jsonl", "line 1"),
            ("", ['{"id": 0, "groups": "ab"}'], "jsonl", "line 1"),
            ("", ['{"id": 0, "features": "12"}'], "jsonl", "line 1"),
            ("knapsacks = 1", ['{"id": 0, "costs": "0"}'], "jsonl", "line 1"),
            ("knapsacks = 1\neps = nan", None, "csv", "eps"),
            ("knapsacks = 1\neps = inf", None, "csv", "eps must be positive and finite"),
            ("eps = -5\nk = -3", None, "csv", "eps must be positive and finite"),
            ("k = -3", None, "csv", "k must be at least 1, got -3"),
            (
                "knapsacks = -1", None, "csv",
                "knapsack count must be non-negative: knapsacks = -1",
            ),
            ("knapsacks = 1\neps = 1e-12", None, "csv", "eps = 1e-12 with k = 1073741824"),
            ("knapsacks = 1\neps = 5e-324", None, "csv", "eps = 5e-324 with k = 1073741824"),
            ("knapsacks = 1\ncapacities = nan", None, "csv", "capacities"),
            (
                "knapsacks = 1\ncapacities = inf", None, "csv",
                "capacities must be positive and finite",
            ),
            ("# caf\udce9", None, "csv", "run.cfg: byte 0xe9 is not UTF-8 text"),
            (
                "", ["id,cost_1,groups", "0,0.2,caf\udce9"], "csv",
                "stream.csv: byte 0xe9 is not UTF-8 text",
            ),
            (
                "", ['{"id": 0, "groups": ["caf\udce9"]}'], "jsonl",
                "stream.jsonl: byte 0xe9 is not UTF-8 text",
            ),
            ("swap_margin = 1.0", None, "csv", "unknown config key 'swap_margin'"),
            (
                "capacities = 5.0\nconstraint = uniform:3",
                ["id,cost_1,groups", "0,4.0,a", "1,4.0,b", "2,4.0,c"],
                "csv",
                "1 capacities given for 0 knapsacks",
            ),
            (
                "constraint = matchoid:a=1;b=1;p=1",
                ["id,groups", "0,a", "1,a;b"],
                "csv",
                "element 1 lies in 2 parts but p is 1",
            ),
            ("constraint = partition:a=1,a=2", None, "csv", "block 'a' is given twice"),
            ("constraint = matchoid:a=1;p=2;p=1", None, "csv", "p is given twice"),
            (
                "",
                ["id,cost_1,groups", "0,0.2,a", "1,0.1," + "x" * 140_000],
                "csv",
                "line 3: bad csv: field larger than field limit",
            ),
            (
                "",
                ['{"id": 0}', '{"id": 1, "groups": ' + "[" * 100_000 + "]" * 100_000 + "}"],
                "jsonl",
                "line 2: bad json: maximum recursion depth",
            ),
            (
                "", ['{"id": 0}', '{"id": ' + "9" * 5000 + "}"], "jsonl",
                "line 2: bad json: Exceeds the limit",
            ),
            (
                "", ['{"id": 0, "features": [1' + "0" * 400 + "]}"], "jsonl",
                "line 1: int too large to convert to float",
            ),
        ],
        ids=[
            "k", "alpha", "eps", "segment", "uniform", "partition", "jsonl-id",
            "jsonl-cost", "jsonl-id-float", "jsonl-id-bool", "jsonl-groups-string",
            "jsonl-features-string", "jsonl-costs-string", "eps-nan", "eps-inf",
            "eps-negative-no-knapsack", "k-negative-no-knapsack",
            "knapsacks-negative", "eps-tiny",
            "eps-denormal", "capacity-nan",
            "capacity-inf", "config-not-utf8", "csv-not-utf8", "jsonl-not-utf8",
            "margin-nan", "capacities-no-knapsacks", "matchoid-p", "partition-label-twice",
            "matchoid-p-twice", "csv-field-too-long",
            "jsonl-too-deep", "jsonl-int-too-long", "jsonl-feature-overflow",
        ],
    )
    def test_malformed_values_exit_two(self, tmp_path, capsys, setting, rows, fmt, needle):
        stream = _write_bytes(
            tmp_path / f"stream.{fmt}",
            "\n".join(rows or ["id,cost_1,groups", "0,0.2,a"]) + "\n",
        )
        config = _write_config(
            tmp_path,
            f"stream = {stream}\nformat = {fmt}\nobjective = coverage\n{setting}\n",
        )
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and needle in err

    @pytest.mark.parametrize(
        "setting, key, text, needle",
        [
            ("objective = cut", "edges", "0 x", "line 1: malformed edge '0 x'"),
            ("objective = cut", "edges", "0 1 nan", "weight nan"),
            ("objective = cut", "edges", "0 1 -2", "weight -2.0"),
            (
                "objective = logdet", "kernel", "2\n1 0 0 y",
                "data.txt: could not convert string to float: 'y'",
            ),
            (
                "objective = logdet", "kernel", "x",
                "data.txt: invalid literal for int() with base 10: 'x'",
            ),
            ("objective = seqdpp\nsegment = 0", "kernel", "1\n1.0", "segment"),
            ("objective = logdet", "kernel", "2\ninf 0 0 1", "non-finite entry"),
            ("objective = logdet", "kernel", "2\n1 inf inf 1", "non-finite entry"),
            ("objective = logdet", "kernel", "2\nnan 0 0 1", "non-finite entry"),
            (
                "objective = logdet\noffset = nan", "kernel", "1\n1.0",
                "offset must be finite and non-negative, got nan",
            ),
            (
                "objective = logdet\noffset = inf", "kernel", "1\n1.0",
                "offset must be finite and non-negative, got inf",
            ),
            (
                "objective = cut", "edges", "0 1 \udce9",
                "data.txt: byte 0xe9 is not UTF-8 text",
            ),
            (
                "objective = logdet", "kernel", "1\n1.0 \udce9",
                "data.txt: byte 0xe9 is not UTF-8 text",
            ),
            (
                "objective = logdet", "kernel", "-1\n1.0",
                "data.txt: kernel size must be non-negative, got -1",
            ),
        ],
        ids=[
            "edges-int", "edges-nan", "edges-negative", "kernel-entry",
            "kernel-size", "segment-zero", "kernel-inf", "kernel-inf-offdiagonal",
            "kernel-nan", "offset-nan", "offset-inf", "edges-not-utf8",
            "kernel-not-utf8", "kernel-size-negative",
        ],
    )
    def test_malformed_files_exit_two(self, tmp_path, capsys, setting, key, text, needle):
        data = _write_bytes(tmp_path / "data.txt", text + "\n")
        stream = _write_stream(tmp_path, ["0,0.2,a"])
        config = _write_config(
            tmp_path, f"stream = {stream}\n{setting}\n{key} = {data}\n"
        )
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and needle in err

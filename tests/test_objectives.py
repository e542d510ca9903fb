"""Value-oracle semantics: coverage, cut, log-det, sequential DPP,
decomposable estimates, reservoir sampling, the bit-identity of the
log-det path and a submodularity spot check."""

import math
import random
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamls import (
    ConfigError,
    CoverageOracle,
    CutOracle,
    DecomposableOracle,
    DomainError,
    DppKernel,
    Element,
    IndStreamInstance,
    LogDetOracle,
    ModularOracle,
    PreconditionError,
    SequentialDppOracle,
    UniformMatroid,
    WeightedSumOracle,
    load_kernel,
    reservoir_sample,
    sample_size_bound,
    seqdpp_conditional_value,
    suggest_logdet_offset,
)
from streamls import objectives
from streamls.constraints import Solution
from streamls.objectives import DET_FLOOR, ValueOracle, _logdet_floored, _principal
from streamls.verify import UnscreenedLogDet, _near_singular_kernel


def elems(*ids):
    return frozenset(Element(id=i) for i in ids)


class TestCoverageAndCut:
    def test_full_coverage(self):
        oracle = CoverageOracle({0: {1, 2}, 1: {2, 3}})
        assert oracle.value(elems(0, 1)) == 3.0

    def test_empty_set(self):
        oracle = CoverageOracle({0: {1, 2}, 1: {2, 3}})
        assert oracle.value(frozenset()) == 0.0

    def test_first_pick_gain_is_cover_size(self):
        oracle = CoverageOracle({0: {1, 2}, 1: {2, 3}})
        assert oracle.value(elems(0)) - oracle.value(frozenset()) == 2.0

    def test_unknown_element_rejected(self):
        oracle = CoverageOracle({0: {1}})
        with pytest.raises(DomainError):
            oracle.value(elems(5))

    def test_cut_symmetry_on_single_edge(self):
        oracle = CutOracle([(0, 1, 1.0)])
        assert oracle.value(elems(0)) == 1.0
        assert oracle.value(elems(0, 1)) == 0.0

    def test_closing_the_cut_has_negative_gain(self):
        oracle = CutOracle([(0, 1, 1.0)])
        assert oracle.value(elems(0, 1)) - oracle.value(elems(0)) == -1.0

    @pytest.mark.parametrize("weight", [-1.0, math.nan, math.inf])
    def test_cut_rejects_negative_and_non_finite_weights(self, weight):
        with pytest.raises(ConfigError):
            CutOracle([(0, 1, 1.0), (1, 2, weight)])


    def test_cut_rejects_weights_summing_past_the_float_range(self):
        CutOracle([(0, 1, 1e308)])
        with pytest.raises(ConfigError, match="float range"):
            CutOracle([(0, 1, 1e308), (1, 2, 1e308)])


def _reference_logdet_floored(matrix: np.ndarray) -> tuple[float, bool]:
    """The log-det path as it read before ``_principal`` and the lean fast path.

    Kept verbatim: ``test_principal_and_logdet_are_bit_identical`` holds
    the current path to its last bit.
    """
    n = matrix.shape[0]
    if n == 0:
        return 0.0, False  # det of the empty matrix is 1
    try:
        chol = np.linalg.cholesky(matrix)
        diag = np.diag(chol)
        if np.all(diag * diag >= DET_FLOOR):
            return float(2.0 * np.sum(np.log(diag))), False
    except np.linalg.LinAlgError:
        pass
    m = np.array(matrix, dtype=float, copy=True)
    total = 0.0
    clamped = False
    for j in range(n):
        pivot = m[j, j]
        if pivot < DET_FLOOR:
            pivot = DET_FLOOR
            clamped = True
        total += math.log(pivot)
        if j + 1 < n:
            m[j + 1 :, j + 1 :] -= np.outer(m[j + 1 :, j], m[j, j + 1 :]) / pivot
    return total, clamped


@st.composite
def psd_cases(draw):
    """A PSD matrix (full rank, rank deficient or with duplicated rows) and
    an index list in any order, possibly empty or repeating."""
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("full", "deficient", "integer", "duplicated")))
    if kind == "full":
        factors = rng.normal(size=(n, n))
        matrix = factors @ factors.T + draw(st.sampled_from((1e-6, 0.1, 2.0))) * np.eye(n)
    elif kind == "deficient":
        factors = rng.normal(size=(n, draw(st.integers(1, n))))
        matrix = factors @ factors.T
    elif kind == "integer":
        # Exact zero pivots: the elimination fallback clamps them.
        factors = rng.integers(-2, 3, size=(n, draw(st.integers(0, n)))).astype(float)
        matrix = factors @ factors.T
    else:
        base = rng.normal(size=(n, n))
        rows = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        matrix = (base @ base.T + 0.5 * np.eye(n))[np.ix_(rows, rows)]
    idx = draw(st.lists(st.integers(0, n - 1), max_size=n + 2))
    return matrix, idx


class TestLogDetBitIdentity:
    def test_principal_and_logdet_are_bit_identical(self):
        branches = set()

        @settings(max_examples=400, deadline=None)
        @given(psd_cases())
        def check(case):
            matrix, idx = case
            want = matrix[np.ix_(idx, idx)]
            got = _principal(matrix, idx)
            assert got.flags.c_contiguous
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes()
            with np.errstate(over="ignore", invalid="ignore"):
                expected = _reference_logdet_floored(want)
                result = _logdet_floored(got)
            if math.isnan(expected[0]):
                # The old fallback let a nan pivot (inf - inf past a floored
                # one) through; the current one clamps it.
                assert math.isfinite(result[0]) and result[1]
            else:
                assert repr(result) == repr(expected)
                assert result == expected
                bits = np.float64(result[0]).tobytes()
                assert bits == np.float64(expected[0]).tobytes()
            branches.add("clamped" if expected[1] else _fast_path_taken(want))

        check()
        assert {"cholesky", "clamped"} <= branches


@st.composite
def stacked_cases(draw):
    """A PSD kernel (full rank, rank deficient, integer or with duplicated
    rows) and sets over it as element tuples, many of one size, some
    repeating an element, so that stacks hold singular members."""
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("full", "deficient", "integer", "duplicated")))
    if kind == "full":
        factors = rng.normal(size=(n, n))
        matrix = factors @ factors.T + draw(st.sampled_from((1e-6, 0.1, 2.0))) * np.eye(n)
    elif kind == "deficient":
        factors = rng.normal(size=(n, draw(st.integers(1, n))))
        matrix = factors @ factors.T
    elif kind == "integer":
        factors = rng.integers(-2, 3, size=(n, draw(st.integers(0, n)))).astype(float)
        matrix = factors @ factors.T
    else:
        base = rng.normal(size=(n, n))
        rows = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        matrix = (base @ base.T + 0.5 * np.eye(n))[np.ix_(rows, rows)]
    sizes = draw(st.lists(st.integers(0, n + 1), min_size=1, max_size=3))
    index_lists = draw(
        st.lists(
            st.sampled_from(sizes).flatmap(
                lambda k: st.lists(st.integers(0, n - 1), min_size=k, max_size=k)
            ),
            max_size=12,
        )
    )
    sets = [tuple(Element(id=i) for i in idx) for idx in index_lists]
    return 0.5 * (matrix + matrix.T), draw(st.sampled_from((0.0, 3.5))), sets


def _evaluated(oracle, evaluate):
    """What ``evaluate`` returns as a repr, the clamp flag it leaves, and
    how many clamp warnings it raised."""
    with np.errstate(all="ignore"), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = repr(evaluate(oracle))
    return result, oracle.clamped, sum(w.category is RuntimeWarning for w in caught)


class TestStackedLogDet:
    """``LogDetOracle.values`` factors equal-size sets in one stacked
    Cholesky call; every value must keep the bits ``value`` gives it."""

    @pytest.mark.parametrize("kind", ["rbf", "spread"])
    def test_stacked_factor_is_bit_equal_to_the_single_call(self, kind):
        rng = np.random.default_rng(21)
        n = 64
        if kind == "rbf":
            x = rng.normal(size=(n, 5))
            matrix = 4.0 * np.exp(-((x[:, None] - x[None]) ** 2).sum(-1) / 10.0)
            matrix += 0.05 * np.eye(n)
        else:
            matrix = _spectrum_kernel(21, n, 1e-6, 50.0)
        for order in range(1, 41):
            idx = np.array([rng.permutation(n)[:order] for _ in range(7)])
            stack = matrix[idx[:, :, None], idx[:, None, :]]
            factors = np.linalg.cholesky(stack)
            diag = factors.diagonal(axis1=1, axis2=2)
            sums = (2.0 * np.log(diag).sum(axis=1)).tolist()
            for row, factor, logdet in zip(idx, factors, sums):
                # The submatrix exactly as ``value`` takes it.
                member = _principal(matrix, row.tolist())
                single = np.linalg.cholesky(member)
                assert factor.tobytes() == single.tobytes(), order
                assert repr((logdet, False)) == repr(_logdet_floored(member)), order

    @settings(max_examples=300, deadline=None)
    @given(stacked_cases())
    def test_values_match_value_per_set(self, case):
        matrix, offset, sets = case
        kernel = DppKernel(matrix, offset=offset)
        want = _evaluated(LogDetOracle(kernel), lambda o: [o.value(s) for s in sets])
        assert _evaluated(LogDetOracle(kernel), lambda o: o.values(sets)) == want

    def test_a_failed_stack_and_a_floored_member_go_through_value(self, monkeypatch):
        # 0 and 1 are twins, so {0, 1} is singular and does not factor;
        # L_22 = 1e-302 factors, but its square root squared is under
        # DET_FLOOR, so {2} and {2, 3, 4} leave their stacks.
        matrix = np.diag([1.0, 1.0, 1e-302, 2.0, 3.0, 4.0])
        matrix[0, 1] = matrix[1, 0] = 1.0
        matrix[3, 4] = matrix[4, 3] = 0.5
        kernel = DppKernel(matrix, offset=1.0)
        sets = [
            (),
            tuple(elems(5)),
            tuple(elems(0, 1)),
            tuple(elems(3, 4)),
            tuple(elems(4, 5)),
            tuple(elems(2)),
            tuple(elems(3)),
            tuple(elems(4)),
            tuple(elems(2, 3, 4)),
            tuple(elems(3, 4, 5)),
            tuple(elems(1, 3, 4, 5)),
        ]
        want = _evaluated(LogDetOracle(kernel), lambda o: [o.value(s) for s in sets])
        singles = []
        floored = objectives._logdet_floored
        monkeypatch.setattr(
            objectives, "_logdet_floored", lambda m: singles.append(len(m)) or floored(m)
        )
        got = _evaluated(LogDetOracle(kernel), lambda o: o.values(sets))
        assert got == want
        assert got[1:] == (True, 3)
        # The empty set and {1, 3, 4, 5}, alone of their sizes, the member
        # {0, 1} that does not factor and the two floored members; {5},
        # {3}, {4}, {3, 4}, {4, 5} and {3, 4, 5} stacked.
        assert sorted(singles) == [0, 1, 2, 3, 4]

    def test_an_override_of_value_sees_every_set(self):
        class Counting(LogDetOracle):
            def value(self, elements):
                seen.append(tuple(e.id for e in elements))
                return super().value(elements)

        seen = []
        kernel = DppKernel(_spectrum_kernel(4, 12, 0.1, 10.0))
        sets = [tuple(elems(*ids)) for ids in ((0, 1), (2, 3), (4, 5, 6), (7, 8, 9), ())]
        got = Counting(kernel).values(sets)
        assert seen == [tuple(e.id for e in s) for s in sets]
        assert repr(got) == repr(LogDetOracle(kernel).values(sets))
        assert repr(got) == repr([LogDetOracle(kernel).value(s) for s in sets])


@st.composite
def unguarded_cases(draw):
    """A symmetric kernel, full rank, rank deficient, slightly indefinite
    (inside DppKernel's tolerance) or with duplicated rows, and index
    lists over it, all of one size, so that ``values`` stacks them."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("full", "deficient", "indefinite", "duplicated")))
    if kind == "full":
        factors = rng.normal(size=(n, n))
        matrix = factors @ factors.T + draw(st.sampled_from((1e-6, 0.1, 2.0))) * np.eye(n)
    elif kind == "duplicated":
        base = rng.normal(size=(n, n))
        rows = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        matrix = (base @ base.T + 0.5 * np.eye(n))[np.ix_(rows, rows)]
    else:
        factors = rng.normal(size=(n, draw(st.integers(1, n))))
        matrix = factors @ factors.T
        if kind == "indefinite":
            matrix -= 1e-10 * np.eye(n)
    size = draw(st.integers(1, n))
    index_lists = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=size, max_size=size),
            min_size=1,
            max_size=6,
        )
    )
    return 0.5 * (matrix + matrix.T), index_lists


CLAMP_MESSAGE = "log-det pivot clamped at floor; kernel submatrix is near singular"


class TestDirectCholesky:
    """The log-det path factors through numpy's Cholesky gufunc under its
    own errstate. With no errstate around the caller, a matrix that does
    not factor raises no numpy warning, and every value keeps the bits of
    the path through ``np.linalg.cholesky``."""

    def test_values_keep_their_bits_with_no_errstate_around(self):
        factored = set()

        @settings(max_examples=300, deadline=None)
        @given(unguarded_cases())
        def check(case):
            matrix, index_lists = case
            kernel = DppKernel(matrix, offset=1.5)
            subs = [_principal(kernel.matrix, idx) for idx in index_lists]
            sets = [tuple(Element(id=i) for i in idx) for idx in index_lists]
            want = []
            for sub in subs:
                with np.errstate(over="ignore", invalid="ignore"):
                    want.append(_reference_logdet_floored(sub))
                try:
                    np.linalg.cholesky(sub)
                    factored.add(True)
                except np.linalg.LinAlgError:
                    factored.add(False)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                floored = [_logdet_floored(sub) for sub in subs]
                single = [LogDetOracle(kernel).value(s) for s in sets]
                stacked = LogDetOracle(kernel).values(sets)
            for (value, clamped), expected, one, many in zip(floored, want, single, stacked):
                if math.isnan(expected[0]):
                    # The old fallback let a nan pivot through; this one clamps it.
                    assert math.isfinite(value) and clamped
                else:
                    assert repr((value, clamped)) == repr(expected)
                assert repr(one) == repr(value + 1.5)
                assert repr(many) == repr(one)
            assert all(
                w.category is RuntimeWarning and str(w.message) == CLAMP_MESSAGE
                for w in caught
            ), [str(w.message) for w in caught]
            assert bool(caught) == any(clamped for _, clamped in floored)

        check()
        # Both a factor and a matrix that np.linalg.cholesky refuses.
        assert factored == {True, False}


class TestLogDetNanPivot:
    # Rows and columns 2, 1, 0, 0, 0, 2 of a PSD 4x4 kernel: its smallest
    # eigenvalue, -9.0e-9, lies inside DppKernel's tolerance. Past the
    # floored pivots, elimination meets inf - inf, a nan pivot.
    BASE = np.array(
        [
            [0.01580809, -0.01660957, 0.08052048, 0.01318911],
            [-0.01660957, 0.01745169, -0.08460295, -0.01385782],
            [0.08052048, -0.08460295, 0.41014117, 0.06718041],
            [0.01318911, -0.01385782, 0.06718041, 0.01100403],
        ]
    )
    MATRIX = BASE[np.ix_([2, 1, 0, 0, 0, 2], [2, 1, 0, 0, 0, 2])]

    def test_nan_pivot_is_clamped(self):
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(_reference_logdet_floored(self.MATRIX)[0])
            value, clamped = _logdet_floored(self.MATRIX)
        assert clamped
        assert value == pytest.approx(-3454.7688933525424, rel=1e-9)

    def test_oracle_value_is_finite(self):
        oracle = LogDetOracle(DppKernel(self.MATRIX))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.warns(RuntimeWarning):
                value = oracle.value(elems(*range(6)))
        assert math.isfinite(value)
        assert oracle.clamped


def _fast_path_taken(matrix: np.ndarray) -> str:
    if matrix.shape[0] == 0:
        return "empty"
    try:
        diag = np.diag(np.linalg.cholesky(matrix))
    except np.linalg.LinAlgError:
        return "elimination"
    return "cholesky" if np.all(diag * diag >= DET_FLOOR) else "elimination"


class TestLogDet:
    def test_identity_kernel_is_zero(self):
        kernel = DppKernel(np.eye(2))
        assert LogDetOracle(kernel).value(elems(0, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_kernel_value(self):
        kernel = DppKernel(np.diag([2.0, 3.0]))
        assert LogDetOracle(kernel).value(elems(0, 1)) == pytest.approx(math.log(6.0))

    def test_empty_set_returns_offset(self):
        kernel = DppKernel(np.diag([2.0, 3.0]), offset=5.0)
        assert LogDetOracle(kernel).value(frozenset()) == 5.0

    def test_marginal_gain_is_log_ratio(self):
        oracle = LogDetOracle(DppKernel(np.diag([2.0, 3.0])))
        gain = oracle.value(elems(0, 1)) - oracle.value(elems(0))
        assert gain == pytest.approx(math.log(3.0))

    def test_diagonal_closed_form(self):
        rng = np.random.default_rng(42)
        diag = rng.uniform(0.2, 4.0, size=6)
        oracle = LogDetOracle(DppKernel(np.diag(diag), offset=2.5))
        for mask in range(1 << 6):
            idx = [i for i in range(6) if mask >> i & 1]
            expected = sum(math.log(diag[i]) for i in idx) + 2.5
            assert oracle.value(elems(*idx)) == pytest.approx(expected, abs=1e-9)

    def test_singular_submatrix_clamps_with_warning(self):
        kernel = DppKernel(np.ones((2, 2)))
        with pytest.warns(RuntimeWarning):
            value = LogDetOracle(kernel).value(elems(0, 1))
        assert value <= math.log(1e-300) + math.log(1.0) + 1e-6

    def test_clamp_warning_names_the_caller_of_value(self):
        kernel = DppKernel(np.ones((2, 2)))
        for oracle in (LogDetOracle(kernel), SequentialDppOracle(kernel)):
            with pytest.warns(RuntimeWarning) as caught:
                oracle.value(elems(0, 1))
            assert [w.filename for w in caught] == [__file__]

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ConfigError):
            DppKernel(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(ConfigError):
            DppKernel(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_kernel_file_round_trip(self, tmp_path):
        path = tmp_path / "kernel.txt"
        path.write_text("2\n2.0 0.0\n0.0 3.0\n")
        kernel = load_kernel(str(path))
        assert LogDetOracle(kernel).value(elems(0, 1)) == pytest.approx(math.log(6.0))

    def test_kernel_file_with_wrong_count_rejected(self, tmp_path):
        path = tmp_path / "kernel.txt"
        path.write_text("2\n1.0 0.0 0.0\n")
        with pytest.raises(ConfigError):
            load_kernel(str(path))

    def test_suggested_offset_covers_singletons_and_pairs(self):
        rng = np.random.default_rng(3)
        factors = rng.normal(size=(5, 3))
        matrix = factors @ factors.T + 0.05 * np.eye(5)
        offset = suggest_logdet_offset(matrix)
        oracle = LogDetOracle(DppKernel(matrix, offset=offset))
        for i in range(5):
            assert oracle.value(elems(i)) >= 0.0
            for j in range(i + 1, 5):
                assert oracle.value(elems(i, j)) >= 0.0


def _memo_kernel() -> DppKernel:
    rng = np.random.default_rng(18)
    factors = rng.normal(size=(60, 30))
    return DppKernel(factors @ factors.T + 0.1 * np.eye(60))


# How to build each oracle class that opts in to the grid's step memo.
MEMOIZED = {LogDetOracle: lambda: LogDetOracle(_memo_kernel())}


class TestMemoOptIn:
    def test_the_opted_in_classes_are_known(self):
        classes = {
            cls
            for cls in vars(objectives).values()
            if isinstance(cls, type) and issubclass(cls, ValueOracle) and cls.memoized
        }
        assert classes == set(MEMOIZED)
        # Each rebuilds its argument as a set before reading it: Sequential-
        # DPP and the weighted sum with set(), the decomposable oracle with
        # frozenset() for its components. A rebuilt set's order depends on
        # the argument's table size as well as its iteration order, so a
        # key made from that order would match a log-det's bits only by luck.
        for cls in (SequentialDppOracle, WeightedSumOracle, DecomposableOracle):
            assert cls.memoized is False

    @pytest.mark.parametrize("cls", list(MEMOIZED), ids=lambda cls: cls.__name__)
    def test_equal_iteration_order_gives_equal_bits(self, cls):
        oracle = MEMOIZED[cls]()
        rng = random.Random(18)
        equal_orders = unequal_tables = 0
        for _ in range(2000):
            elements = [Element(id=i) for i in rng.sample(range(60), rng.randint(1, 30))]
            by_keys = frozenset(dict.fromkeys(elements).keys())
            by_union = frozenset(elements[:-1]) | {elements[-1]}
            want = repr(oracle.value(by_keys))
            # The memo hands the wrapped oracle a tuple in the same order.
            assert repr(oracle.value(tuple(by_keys))) == want
            if list(by_keys) == list(by_union):
                equal_orders += 1
                unequal_tables += sys.getsizeof(by_keys) != sys.getsizeof(by_union)
                assert repr(oracle.value(by_union)) == want
        assert equal_orders > 100 and unequal_tables > 0


def _reference_offset(matrix: np.ndarray) -> float:
    """``suggest_logdet_offset`` as it read before the vectorized screen.

    Kept verbatim: every singleton, then every pair (i, j > i), exactly.
    """
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    worst = 0.0
    for i in range(n):
        worst = min(worst, _logdet_floored(_principal(m, [i]))[0])
        for j in range(i + 1, n):
            worst = min(worst, _logdet_floored(_principal(m, [i, j]))[0])
    return max(0.0, -worst) + 1.0


def _near_one_pairs(rng: np.random.Generator, n: int) -> np.ndarray:
    """Equal diagonals a in [1e2, 1e8] and each pair's a^2 - b^2 within a
    few ulps of 1, 1 + 2^-20 or 2: where a^2 - b^2 loses its digits to
    cancellation, so only the error term keeps the screen sound."""
    a = 10.0 ** rng.uniform(2, 8)
    m = np.zeros((n, n))
    np.fill_diagonal(m, a)
    for i in range(n):
        for j in range(i + 1, n):
            target = rng.choice([1.0, 1.0 + 2.0**-20, 2.0])
            target *= 1.0 + int(rng.integers(-4, 5)) * 2.0**-52
            m[i, j] = m[j, i] = math.sqrt(max(a * a - target, 0.0))
    return m


@st.composite
def offset_matrices(draw):
    """Square finite matrices, PSD or not, at scales from 1e-300 to 1e300."""
    n = draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(
        st.sampled_from(("full", "deficient", "twin", "raw", "near-one", "scaled"))
    )
    factors = rng.normal(size=(n, n))
    if kind == "full":
        return factors @ factors.T + draw(st.sampled_from((1e-6, 0.1, 2.0))) * np.eye(n)
    if kind == "deficient":
        factors = rng.normal(size=(n, draw(st.integers(0, n))))
        return factors @ factors.T
    if kind == "twin":
        rows = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n))
        return (factors @ factors.T + 0.5 * np.eye(n))[np.ix_(rows, rows)]
    if kind == "raw":
        return factors * draw(st.sampled_from((1.0, 3.0)))
    if kind == "near-one":
        return _near_one_pairs(rng, n)
    exponent = draw(st.sampled_from((-300, -150, -20, 20, 150, 300)))
    return (factors @ factors.T + np.eye(n)) * 10.0**exponent


class TestOffsetSearch:
    @settings(max_examples=400, deadline=None)
    @given(offset_matrices())
    @example(np.zeros((0, 0)))
    @example(np.array([[1.0]]))
    @example(np.array([[0.5]]))
    @example(np.array([[1e6, 999999.9999995], [999999.9999995, 1e6]]))
    def test_screen_matches_the_full_loop_by_repr(self, matrix):
        with np.errstate(all="ignore"):
            expected = _reference_offset(matrix)
        assert repr(suggest_logdet_offset(matrix)) == repr(expected)

    def test_near_one_pairs_by_repr(self):
        # 2000 pairs of the family that needs the error term; a screen
        # without it certifies 52 of them whose log-det is negative.
        rng = np.random.default_rng(16)
        for _ in range(2000):
            matrix = _near_one_pairs(rng, 2)
            assert repr(suggest_logdet_offset(matrix)) == repr(_reference_offset(matrix))

    @staticmethod
    def _spy(monkeypatch, matrix):
        """Run the search; return the (i, j) of each exact call, in order."""
        where = {value: i for i, value in enumerate(matrix.diagonal())}
        assert len(where) == matrix.shape[0]
        calls = []

        def spy(sub):
            calls.append(tuple(where[v] for v in sub.diagonal()))
            return _logdet_floored(sub)

        monkeypatch.setattr(objectives, "_logdet_floored", spy)
        offset = suggest_logdet_offset(matrix)
        monkeypatch.undo()
        assert repr(offset) == repr(_reference_offset(matrix))
        return offset, calls

    @staticmethod
    def _kernel(n):
        # An RBF kernel as perfbench builds one: diagonal 4.25 + i/100,
        # every off-diagonal at most 4, so each pair determinant is >= 2.
        x = np.random.default_rng(5).normal(size=(n, 6))
        dist = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
        matrix = 4.0 * np.exp(-dist / 12.0)
        np.fill_diagonal(matrix, 4.25 + np.arange(n) / 100.0)
        return matrix

    def test_certified_kernel_makes_no_exact_call(self, monkeypatch):
        offset, calls = self._spy(monkeypatch, self._kernel(40))
        assert offset == 1.0
        assert calls == []

    def test_exact_calls_are_the_uncertified_entries_in_loop_order(self, monkeypatch):
        matrix = self._kernel(6)
        d = matrix.diagonal().copy()
        # Pair (1, 3) has determinant 0.5, a negative log-det; pair (0, 4)
        # has determinant 1 within rounding; singleton 2 is 0.5.
        matrix[1, 3] = matrix[3, 1] = math.sqrt(d[1] * d[3] - 0.5)
        matrix[0, 4] = matrix[4, 0] = math.sqrt(d[0] * d[4] - 1.0)
        matrix[2, 2] = 0.5
        for j in range(6):
            if j != 2:
                matrix[2, j] = matrix[j, 2] = 0.1
        offset, calls = self._spy(monkeypatch, matrix)
        assert calls == [(0, 4), (1, 3), (2,)]
        assert offset == pytest.approx(1.0 - math.log(0.5), rel=1e-6)

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.ones(3), "must be square"),
            (np.ones((3, 2)), "must be square"),
            (np.array(1.0), "must be square"),
            (np.ones((2, 3)), "must be square"),
            (np.array([[1.0, math.nan], [math.nan, 1.0]]), "non-finite"),
            (np.array([[math.inf, 0.0], [0.0, 1.0]]), "non-finite"),
        ],
        ids=["1-d", "3x2", "0-d", "2x3-ones", "nan", "inf"],
    )
    def test_malformed_input_is_a_config_error(self, matrix, message):
        with pytest.raises(ConfigError, match=message):
            suggest_logdet_offset(matrix)


class TestSequentialDpp:
    def test_singleton_segment_against_hand_determinants(self):
        kernel = DppKernel(np.array([[1.0]]))
        segment = elems(0)
        value = seqdpp_conditional_value(kernel, elems(0), frozenset(), segment)
        assert value == pytest.approx(0.0 - math.log(2.0))

    def test_empty_selection_convention(self):
        kernel = DppKernel(np.array([[1.0]]))
        value = seqdpp_conditional_value(kernel, frozenset(), frozenset(), elems(0))
        assert value == pytest.approx(-math.log(2.0))

    def test_two_element_segment(self):
        kernel = DppKernel(np.diag([1.0, 1.0]))
        value = seqdpp_conditional_value(kernel, elems(0), frozenset(), elems(0, 1))
        assert value == pytest.approx(math.log(1.0) - math.log(4.0))

    def test_conditioning_zeroes_previous_diagonal(self):
        # With s_prev = {0}: normalizer det over {0,1} adds I only at index 1.
        kernel = DppKernel(np.diag([2.0, 3.0]))
        value = seqdpp_conditional_value(kernel, elems(1), elems(0), elems(1))
        expected = math.log(6.0) - math.log(2.0 * 4.0)
        assert value == pytest.approx(expected)

    def test_overlap_precondition(self):
        kernel = DppKernel(np.eye(2))
        with pytest.raises(PreconditionError):
            seqdpp_conditional_value(kernel, frozenset(), elems(0), elems(0, 1))

    def test_selection_outside_segment_rejected(self):
        kernel = DppKernel(np.eye(2))
        with pytest.raises(PreconditionError):
            seqdpp_conditional_value(kernel, elems(1), frozenset(), elems(0))

    def test_streaming_oracle_matches_conditional_up_to_constant(self):
        rng = np.random.default_rng(11)
        factors = rng.normal(size=(4, 4))
        matrix = factors @ factors.T + 0.5 * np.eye(4)
        kernel = DppKernel(matrix, offset=4.0)
        prev = elems(0)
        oracle = SequentialDppOracle(kernel, prev=prev)
        segment = elems(1, 2, 3)
        picks = [frozenset(), elems(1), elems(1, 3), elems(2)]
        shift = None
        for s in picks:
            conditional = seqdpp_conditional_value(kernel, s, prev, segment)
            delta = oracle.value(s) - conditional
            if shift is None:
                shift = delta
            assert delta == pytest.approx(shift, abs=1e-9)


class TestDecomposable:
    def test_constant_components_are_exact(self):
        ground = [Element(id=i) for i in range(4)]
        g = lambda s: 0.25 * len(s)
        oracle = DecomposableOracle({i: g for i in range(4)}, ground, ground[:2])
        subset = frozenset(ground[:3])
        assert oracle.value(subset) == pytest.approx(g(subset))

    def test_full_sample_equals_exact_value(self):
        rng = random.Random(5)
        ground = [Element(id=i) for i in range(6)]
        tables = {i: {j: rng.uniform(0, 1) for j in range(6)} for i in range(6)}

        def make(i):
            return lambda s: max((tables[i][e.id] for e in s), default=0.0)

        oracle = DecomposableOracle({i: make(i) for i in range(6)}, ground, ground)
        for _ in range(20):
            subset = frozenset(e for e in ground if rng.random() < 0.5)
            assert abs(oracle.value(subset) - oracle.exact_value(subset)) <= 1e-12

    def test_partial_sample_is_plain_mean(self):
        ground = [Element(id=i) for i in range(3)]
        components = {
            0: lambda s: 0.2 if s else 0.0,
            1: lambda s: 0.6 if s else 0.0,
            2: lambda s: 1.0 if s else 0.0,
        }
        oracle = DecomposableOracle(components, ground, [ground[0], ground[2]])
        assert oracle.value(frozenset(ground)) == pytest.approx((0.2 + 1.0) / 2)

    def test_empty_sample_rejected(self):
        ground = [Element(id=0)]
        with pytest.raises(ConfigError):
            DecomposableOracle({0: lambda s: 0.0}, ground, [])

    def test_empty_ground_values_zero(self):
        oracle = DecomposableOracle({}, [], [])
        assert oracle.value(frozenset()) == 0.0
        assert oracle.exact_value(frozenset()) == 0.0

    def test_scaling_bounds_components(self):
        ground = [Element(id=i) for i in range(4)]
        components = {i: (lambda s: 5.0 * len(s)) for i in range(4)}
        oracle = DecomposableOracle(components, ground, ground)
        assert oracle.component_value(0, frozenset(ground)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("size", [5, 6, 7, 16, 17])
    def test_a_held_solution_is_read_as_it_iterates(self, size):
        # A frozenset() copy of a Solution this size may iterate in another
        # order; a float sum over the set follows the order it is read in.
        rng = random.Random(size)
        ground = [Element(id=i) for i in rng.sample(range(10**6), size)]
        weights = {e.id: rng.uniform(0.5, 1.5) * 10.0 ** rng.randint(-16, 0) for e in ground}
        seen = []

        def component(s):
            seen.append([e.id for e in s])
            return sum(weights[e.id] for e in s)

        oracle = DecomposableOracle({e.id: component for e in ground}, ground, ground)
        keys = dict.fromkeys(ground).keys()
        solution, plain = Solution(keys), frozenset(keys)
        seen.clear()
        assert repr(oracle.value(solution)) == repr(oracle.value(plain))
        assert repr(oracle.exact_value(solution)) == repr(oracle.exact_value(plain))
        assert all(ids == [e.id for e in solution] for ids in seen)


class TestReservoirSampling:
    def test_fill_phase_appends(self):
        rng = random.Random(0)
        sample = reservoir_sample(1, [], 3, Element(id=9), rng)
        assert [e.id for e in sample] == [9]

    def test_positions_up_to_capacity_always_kept(self):
        rng = random.Random(0)
        sample = []
        for pos in range(1, 6):
            reservoir_sample(pos, sample, 5, Element(id=pos), rng)
        assert sorted(e.id for e in sample) == [1, 2, 3, 4, 5]

    def test_inclusion_probability_at_position_ten(self):
        rng = random.Random(1234)
        hits = 0
        trials = 10_000
        for _ in range(trials):
            sample = []
            for pos in range(1, 11):
                reservoir_sample(pos, sample, 5, Element(id=pos), rng)
            if any(e.id == 10 for e in sample):
                hits += 1
        assert abs(hits / trials - 0.5) <= 0.02

    def test_uniformity_across_positions(self):
        # capacity/n per position, within 3 standard errors.
        rng = random.Random(99)
        n, capacity, trials = 8, 3, 20_000
        counts = {i: 0 for i in range(1, n + 1)}
        for _ in range(trials):
            sample = []
            for pos in range(1, n + 1):
                reservoir_sample(pos, sample, capacity, Element(id=pos), rng)
            for e in sample:
                counts[e.id] += 1
        p = capacity / n
        stderr = math.sqrt(p * (1 - p) / trials)
        for pos in range(1, n + 1):
            assert abs(counts[pos] / trials - p) <= 3 * stderr

    def test_capacity_validation(self):
        with pytest.raises(ConfigError):
            reservoir_sample(1, [], 0, Element(id=0), random.Random(0))


class TestSampleSizeBound:
    def test_unit_plug_in(self):
        assert sample_size_bound(1, 1.0, 2.0 / math.e, math.e) == 4

    def test_k_two(self):
        assert sample_size_bound(2, 1.0, 2.0 / math.e, math.e) == 24

    def test_halving_eps_quadruples(self):
        assert sample_size_bound(2, 0.5, 2.0 / math.e, math.e) == 96

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            sample_size_bound(0, 0.5, 0.1, 10)
        with pytest.raises(ConfigError):
            sample_size_bound(2, 1.5, 0.1, 10)
        with pytest.raises(ConfigError):
            sample_size_bound(2, 0.5, 0.1, 1)


def check_submodularity(
    oracle: ValueOracle,
    ground,
    trials: int = 1000,
    rng: random.Random | None = None,
    tol: float = 1e-9,
):
    """Spot-check diminishing returns on random triples S <= T, e not in T.

    Returns (True, None) if no violation exceeds ``tol``; otherwise
    (False, (S, T, e)) with the first witnessing triple.
    """
    pool = sorted(set(ground), key=lambda e: e.id)
    if not pool:
        raise PreconditionError("ground set must be non-empty")
    rng = rng or random.Random(0)
    for _ in range(trials):
        t = {e for e in pool if rng.random() < 0.5}
        outside = [e for e in pool if e not in t]
        if not outside:
            continue
        e = rng.choice(outside)
        s = {x for x in t if rng.random() < 0.5}
        gain_small = oracle.value(s | {e}) - oracle.value(s)
        gain_large = oracle.value(t | {e}) - oracle.value(t)
        if gain_small < gain_large - tol:
            return False, (frozenset(s), frozenset(t), e)
    return True, None


class _Supermodular(ValueOracle):
    def value(self, elements):
        return float(len(set(elements)) ** 2)


class TestSubmodularityChecker:
    def test_coverage_passes(self):
        rng = random.Random(0)
        oracle = CoverageOracle({i: rng.sample(range(8), 2) for i in range(6)})
        ok, witness = check_submodularity(
            oracle, [Element(id=i) for i in range(6)], trials=500, rng=random.Random(1)
        )
        assert ok and witness is None

    def test_supermodular_fails_with_witness(self):
        ok, witness = check_submodularity(
            _Supermodular(),
            [Element(id=i) for i in range(3)],
            trials=1000,
            rng=random.Random(2),
        )
        assert not ok
        s, t, e = witness
        assert s <= t and e not in t

    def test_modular_boundary_passes(self):
        oracle = ModularOracle({i: float(i) for i in range(5)})
        ok, _ = check_submodularity(
            oracle, [Element(id=i) for i in range(5)], trials=500, rng=random.Random(3)
        )
        assert ok

    def test_every_shipped_oracle_is_submodular(self):
        rng = random.Random(17)
        ground = [Element(id=i) for i in range(8)]
        nprng = np.random.default_rng(17)
        factors = nprng.normal(size=(8, 4))
        kernel = DppKernel(factors @ factors.T + 0.2 * np.eye(8), offset=9.0)
        coverage = CoverageOracle({i: rng.sample(range(10), 3) for i in range(8)})
        cut = CutOracle(
            [(a, b, rng.uniform(0.5, 1.5)) for a in range(8) for b in range(a + 1, 8)
             if rng.random() < 0.5],
            nodes=range(8),
        )
        oracles = [
            coverage,
            cut,
            ModularOracle({i: rng.uniform(0, 2) for i in range(8)}),
            WeightedSumOracle([(0.7, coverage), (1.3, cut)]),
            LogDetOracle(kernel),
            SequentialDppOracle(kernel, prev=frozenset()),
        ]
        for oracle in oracles:
            ok, witness = check_submodularity(
                oracle, ground, trials=1000, rng=random.Random(5)
            )
            assert ok, f"{type(oracle).__name__} violated diminishing returns: {witness}"


def _spectrum_kernel(seed, n, low, high):
    """An exactly symmetric kernel with eigenvalues spread geometrically
    over [low, high] (to rounding)."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    matrix = (q * np.geomspace(low, high, n)) @ q.T
    return 0.5 * (matrix + matrix.T)


def _bound_cases(seed, n, draws):
    """Random (S, e) pairs over ids 0..n-1 with e outside S, |S| up to 8."""
    rng = random.Random(seed)
    for _ in range(draws):
        ids = rng.sample(range(n), rng.randint(1, min(n, 9)))
        yield elems(*ids[1:]), Element(id=ids[0])


# (lowest eigenvalue, highest, offset) of the kernels the bound is tested on.
SPECTRA = [
    (0.1, 10.0, 0.0),
    (0.25, 800.0, 20.0),
    (1e-3, 1e3, 1e6),
    (0.1, 10.0, 1e15),
    (1e-13, 1.0, 0.0),  # the certificate's edge in |S|
    (1e-12, 5.0, 1e9),
    (3e-150, 1e-147, 0.0),  # near the certified range's floor
    (1e147, 1e149, 0.0),  # near its ceiling
]


class TestGainBound:
    @pytest.mark.parametrize("low, high, offset", SPECTRA)
    def test_bound_is_at_least_the_gain(self, low, high, offset):
        n = 12
        oracle = LogDetOracle(DppKernel(_spectrum_kernel(7, n, low, high), offset))
        bounded = 0
        for s, e in _bound_cases(f"{low}:{high}", n, 300):
            bound = oracle.gain_bound(s, e)
            if bound is None:
                continue
            bounded += 1
            assert bound >= oracle.value(s | {e}) - oracle.value(s), (s, e)
        assert bounded > 0
        assert not oracle.clamped

    def test_edge_kernel_is_certified_for_small_sets_only(self):
        oracle = LogDetOracle(DppKernel(_spectrum_kernel(7, 12, 1e-13, 1.0)))
        sizes = {True: set(), False: set()}
        for s, e in _bound_cases("edge", 12, 300):
            sizes[oracle.gain_bound(s, e) is not None].add(len(s))
        assert sizes[True] and sizes[False]
        assert max(sizes[True]) < min(sizes[False])

    def test_bound_is_the_tightest_pairwise_complement(self):
        matrix = _spectrum_kernel(3, 8, 0.5, 4.0)
        oracle = LogDetOracle(DppKernel(matrix, offset=3.0))
        e = Element(id=0)
        assert oracle.gain_bound(frozenset(), e) == pytest.approx(
            math.log(matrix[0, 0]), abs=1e-9
        )
        s = elems(1, 2, 3)
        want = min(
            math.log(matrix[0, 0] - matrix[x, 0] ** 2 / matrix[x, x]) for x in (1, 2, 3)
        )
        assert oracle.gain_bound(s, e) == pytest.approx(want, abs=1e-9)
        # A one-element S makes the bound exact, up to its slack.
        gain = oracle.value(elems(0, 1)) - oracle.value(elems(1))
        assert oracle.gain_bound(elems(1), e) == pytest.approx(gain, abs=1e-9)

    @pytest.mark.parametrize(
        "matrix",
        [
            _spectrum_kernel(5, 10, 1.0, 2.0) * 0.0,
            np.ones((6, 6)),
            (lambda f: f @ f.T)(np.random.default_rng(2).normal(size=(10, 4))),
            _spectrum_kernel(5, 10, 1e-15, 2.0),
            _spectrum_kernel(5, 10, 1e-14, 10.0) + 1e-14 * np.eye(10),
            _spectrum_kernel(5, 10, 1e-160, 1e-152),
            np.zeros((0, 0)),
        ],
        ids=["zero", "ones", "rank4", "kappa1e15", "ridge1e-14", "tiny", "empty"],
    )
    def test_no_bound_on_singular_or_near_singular_kernels(self, matrix):
        oracle = LogDetOracle(DppKernel(matrix))
        n = matrix.shape[0]
        for s, e in _bound_cases("singular", max(n, 1), 100):
            assert oracle.gain_bound(s, e) is None

    def test_no_bound_without_exact_symmetry(self):
        matrix = _spectrum_kernel(5, 6, 1.0, 2.0)
        matrix[0, 1] += 1e-12
        oracle = LogDetOracle(DppKernel(matrix))
        assert oracle.gain_bound(elems(1), Element(id=0)) is None

    def test_no_bound_from_other_oracles(self):
        kernel = DppKernel(_spectrum_kernel(5, 6, 1.0, 2.0))
        covers = {i: {i, i + 1} for i in range(6)}
        oracles = [
            ModularOracle({i: 1.0 for i in range(6)}),
            CoverageOracle(covers),
            CutOracle([(0, 1, 1.0), (2, 3, 2.0)], nodes=range(6)),
            WeightedSumOracle([(1.0, LogDetOracle(kernel)), (0.5, CoverageOracle(covers))]),
            SequentialDppOracle(kernel),
            DecomposableOracle(
                {i: lambda s: float(len(s)) for i in range(6)},
                [Element(id=i) for i in range(6)],
                [Element(id=0)],
            ),
            UnscreenedLogDet(kernel),
        ]
        for oracle in oracles:
            assert oracle.gain_bound(elems(1, 2), Element(id=0)) is None
            assert oracle.subset_bound(elems(1, 2)) is None

    def test_element_outside_the_kernel_raises_as_value_does(self):
        oracle = LogDetOracle(DppKernel(_spectrum_kernel(5, 6, 1.0, 2.0)))
        outsider, held = Element(id=17), Element(id=23)
        cases = [
            (frozenset(), outsider),
            (elems(1, 2), outsider),
            (elems(1, 2) | {held}, Element(id=0)),
            (Solution([Element(id=1), held]), Element(id=0)),
        ]
        # An outsider added to a solution whose vector is kept.
        grown_from = Solution([Element(id=1)])
        oracle.gain_bound(grown_from, Element(id=0))
        cases.append((grown_from.grown([Element(id=1), held], held), Element(id=0)))
        for s, e in cases:
            with pytest.raises(DomainError) as by_value:
                oracle.value(s | {e})
            with pytest.raises(DomainError) as by_bound:
                oracle.gain_bound(s, e)
            assert str(by_bound.value) == str(by_value.value)
        # With outsiders in S and as e, the one in S is named, as a map of
        # (*S, e) to kernel indices names it.
        for s in (elems(1) | {held}, Solution([Element(id=1), held])):
            with pytest.raises(DomainError, match="element 23 "):
                oracle.gain_bound(s, outsider)

    def test_kernel_keeps_one_eigenvalue_range(self, monkeypatch):
        checks, eig_calls = [], []
        bound_spectrum, eigvalsh = DppKernel._bound_spectrum, np.linalg.eigvalsh
        monkeypatch.setattr(
            DppKernel,
            "_bound_spectrum",
            lambda self: checks.append(1) or bound_spectrum(self),
        )
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda m: eig_calls.append(1) or eigvalsh(m)
        )
        # Well conditioned: the certificate answers, and eigvalsh is not run.
        kernel = DppKernel(_spectrum_kernel(5, 6, 1.0, 2.0))
        LogDetOracle(kernel).gain_bound(elems(1), Element(id=0))
        assert len(checks) == 1 and not eig_calls
        lo, hi = kernel.eigen_range
        assert 0.85 <= lo <= 1.0 - 1e-12 and 2.0 + 1e-12 <= hi <= 2.0 * math.sqrt(6)
        # Near singular: eigvalsh decides, and the range is its extremes
        # widened by its error bound, exactly.
        matrix = _spectrum_kernel(5, 10, 1e-15, 2.0)
        kernel = DppKernel(matrix)
        LogDetOracle(kernel).gain_bound(elems(1), Element(id=0))
        assert len(checks) == 2 and len(eig_calls) == 1
        eigenvalues = eigvalsh(matrix)
        low, high = float(eigenvalues.min()), float(eigenvalues.max())
        reach = 4.0 * 10 * 10 * objectives._U * max(abs(low), abs(high))
        assert kernel.eigen_range == (low - reach, high + reach)


@st.composite
def _subset_bound_cases(draw):
    """A kernel the gain bound's certificate covers, some of them only for
    small sets, an offset and a seed for the orders sets are read in."""
    n = draw(st.integers(1, 8))
    low, high = draw(
        st.sampled_from(
            [(0.1, 10.0), (0.5, 4.0), (1e-3, 1e3), (1e-8, 2.0), (1e-13, 1.0),
             (3e-150, 1e-147), (1e147, 1e149), (1.5, 1.5)]
        )
    )
    offset = draw(st.sampled_from([0.0, 3.0, 1e6, 1e15]))
    seed = draw(st.integers(0, 2**30))
    return _spectrum_kernel(seed, n, low, high), offset, seed


class TestSubsetBound:
    @settings(max_examples=150, deadline=None)
    @given(_subset_bound_cases())
    @example((np.diag([4.0, 0.5, 2.0, 1.0, 3.0]), 0.0, 0))
    def test_bound_is_at_least_every_subsets_value(self, case):
        matrix, offset, seed = case
        oracle = LogDetOracle(DppKernel(matrix, offset))
        rng = random.Random(seed)
        n = matrix.shape[0]
        bounded = 0
        for mask in range(1 << n):
            s = [Element(id=i) for i in range(n) if mask >> i & 1]
            rng.shuffle(s)
            bound = oracle.subset_bound(s)
            assert (bound is None) == (len(s) >= len(oracle._slacks))
            if bound is None:
                continue
            bounded += 1
            for sub in range(1 << len(s)):
                t = [x for i, x in enumerate(s) if sub >> i & 1]
                rng.shuffle(t)
                assert oracle.value(t) <= bound, (s, t)
        assert not oracle.clamped
        assert bounded > 0 or not oracle._slacks

    def test_bound_on_a_diagonal_kernel_is_the_best_subsets_value(self):
        # The best subset keeps each diagonal entry above 1.
        oracle = LogDetOracle(DppKernel(np.diag([4.0, 0.5, 2.0, 1.0, 3.0, 0.25]), 7.0))
        best = math.log(4.0) + math.log(2.0) + math.log(3.0) + 7.0
        bound = oracle.subset_bound(elems(0, 1, 2, 3, 4))
        assert best <= bound <= best + 1e-9
        assert oracle.subset_bound(frozenset()) == pytest.approx(7.0, abs=1e-12)

    def test_no_bound_on_an_uncertified_kernel(self):
        # A ridge of 1e-12 leaves some of these kernels certified for small
        # sets; the rest give no bound on any set, the empty one included.
        rng = random.Random(11)
        uncertified = 0
        for _ in range(20):
            n = rng.randint(2, 8)
            with np.errstate(all="ignore"):
                oracle = LogDetOracle(DppKernel(_near_singular_kernel(rng, n)))
            if oracle.gain_bound(frozenset(), Element(id=0)) is None:
                uncertified += 1
                for size in range(n + 1):
                    assert oracle.subset_bound(elems(*range(size))) is None
        assert uncertified >= 10

    def test_no_bound_once_the_oracle_clamped(self):
        oracle = LogDetOracle(DppKernel(_spectrum_kernel(5, 6, 1.0, 2.0)))
        assert oracle.subset_bound(elems(1, 2)) is not None
        oracle.clamped = True
        assert oracle.subset_bound(elems(1, 2)) is None

    def test_no_bound_past_the_sizes_the_certificate_covers(self):
        oracle = LogDetOracle(DppKernel(_spectrum_kernel(7, 12, 1e-13, 1.0)))
        covered = len(oracle._slacks)
        assert 0 < covered < 12
        assert oracle.subset_bound(elems(*range(covered - 1))) is not None
        assert oracle.subset_bound(elems(*range(covered))) is None
        assert oracle.subset_bound(elems(*range(12))) is None

    def test_no_bound_once_the_kernel_is_replaced(self):
        oracle = LogDetOracle(DppKernel(_spectrum_kernel(5, 6, 1.0, 2.0)))
        oracle.kernel = DppKernel(_spectrum_kernel(6, 6, 1.0, 2.0))
        assert oracle.subset_bound(elems(1, 2)) is None


def _reference_gain_bound(oracle, s, e):
    """``LogDetOracle.gain_bound`` as a loop over S, kept verbatim from
    before the bound read a vector kept on the solution."""
    if len(s) >= len(oracle._slacks):
        return None
    kernel = oracle.kernel
    idx = kernel.indices((*s, e))
    j = idx.pop()
    row, diag = kernel.matrix[j], oracle._diag
    pulled = 0.0
    for i in idx:
        r = row.item(i)
        t = r * r / diag[i]
        if t > pulled:
            pulled = t
    slack = oracle._slacks[len(s)] + 8.0 * objectives._U * abs(kernel.offset)
    return math.log(diag[j] - pulled) + slack


def _rbf_kernel(seed, n):
    """exp(-|x - y|^2 / 6) over 3-d Gaussian points, plus a 0.05 ridge:
    exactly symmetric, as a kernel built entry by entry from distances is."""
    points = np.random.default_rng(seed).normal(size=(n, 3))
    dist = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-dist / 6.0) + 0.05 * np.eye(n)


def _frame_kernel(seed, n):
    """4 exp(-|x - y|^2 / 12) over 6-d points in scenes, plus a 0.25
    ridge, as a video's frame kernel is; built one coordinate at a time,
    so it is exactly symmetric and small to build at n = 1500."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(size=(n // 40 + 1, 6))
    points = centres.repeat(40, axis=0)[:n] + 0.3 * rng.normal(size=(n, 6))
    dist = np.zeros((n, n))
    for column in points.T:
        dist += (column[:, None] - column[None, :]) ** 2
    return 4.0 * np.exp(-dist / 12.0) + 0.25 * np.eye(n)


@st.composite
def _checked_kernels(draw):
    """Full-rank, rank-deficient, duplicated-row and slightly indefinite
    kernels of order 1-40, at unit scale or scaled by 1e-150 or 1e150."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["full", "deficient", "duplicated", "indefinite"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "full":
        factors = rng.normal(size=(n, n))
        ridge = draw(st.sampled_from([1e-6, 1e-3, 0.1, 1.0]))
        matrix = factors @ factors.T / n + ridge * np.eye(n)
    elif kind == "deficient":
        factors = rng.normal(size=(n, draw(st.integers(0, n - 1)) if n > 1 else 0))
        matrix = factors @ factors.T
    elif kind == "duplicated":
        factors = rng.normal(size=(n, n))
        base = factors @ factors.T / n + 0.5 * np.eye(n)
        rows = rng.integers(0, max(1, n // 2), size=n)
        matrix = base[np.ix_(rows, rows)]
    else:
        # The smallest eigenvalue, around the refusal threshold -1e-8.
        smallest = draw(
            st.sampled_from([-2e-8, -1.1e-8, -9e-9, -1e-9, 1e-9, 1e-8, 2e-8])
        )
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        spectrum = np.concatenate([[smallest], rng.uniform(0.1, 2.0, n - 1)])
        matrix = (q * spectrum) @ q.T
    matrix = 0.5 * (matrix + matrix.T)
    return matrix * draw(st.sampled_from([1.0, 1e-150, 1e150]))


class TestSpectrumBounds:
    """The kernel check: Lanczos and one shifted Cholesky factorization,
    with eigvalsh as the fallback when that certificate is not decisive."""

    @settings(max_examples=300, deadline=None)
    @given(_checked_kernels())
    def test_certificate_is_rigorous_and_decides_as_eigvalsh(self, matrix):
        n = matrix.shape[0]
        eigenvalues = np.linalg.eigvalsh(matrix)
        low, high = float(eigenvalues.min()), float(eigenvalues.max())
        # eigvalsh's error bound: the true extremes lie within it.
        err = 4.0 * n * n * objectives._U * max(abs(low), abs(high))
        refused = low < objectives._PSD_EIG_TOL
        bounds = objectives._certified_bounds(matrix)
        if bounds is not None:
            lo, hi = bounds
            assert 0.0 < lo <= low + err and hi >= high - err
            # Outside the band where eigvalsh breaks its error bound, a
            # kernel the certificate accepts is one eigvalsh accepts.
            assert not refused
        try:
            kernel = DppKernel(matrix)
        except ConfigError:
            assert bounds is None and refused
        else:
            assert not refused
            if bounds is not None:
                assert kernel.eigen_range == bounds
            else:
                assert kernel.eigen_range == (low - err, high + err)

    def test_large_kernel_is_certified_without_eigvalsh(self, monkeypatch):
        matrix = _frame_kernel(1, 1500)
        eigenvalues = np.linalg.eigvalsh(matrix)
        eig_calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: eig_calls.append(1))
        kernel = DppKernel(matrix)
        assert not eig_calls
        lo, hi = kernel.eigen_range
        assert 0.2 <= lo <= eigenvalues.min() - 1e-9
        assert eigenvalues.max() + 1e-9 <= hi <= 3.0 * eigenvalues.max()
        # One fixed start vector: the same range on every build.
        assert repr(DppKernel(matrix.copy()).eigen_range) == repr(kernel.eigen_range)
        assert LogDetOracle(kernel)._slacks

    def test_failed_factorization_falls_back_to_eigvalsh(self, monkeypatch):
        matrix = _spectrum_kernel(5, 8, 0.5, 4.0)
        eigenvalues = np.linalg.eigvalsh(matrix)
        # A shift past the smallest eigenvalue: the factorization fails.
        monkeypatch.setattr(objectives, "_SHIFT_SHARE", 1.5)
        assert objectives._certified_bounds(matrix) is None
        low, high = float(eigenvalues.min()), float(eigenvalues.max())
        reach = 4.0 * 8 * 8 * objectives._U * high
        assert DppKernel(matrix).eigen_range == (low - reach, high + reach)

    def test_check_reads_the_lower_triangle(self):
        matrix = _spectrum_kernel(5, 8, 0.5, 4.0)
        skewed = matrix.copy()
        skewed[np.triu_indices(8, 1)] += 1e-10
        kernel = DppKernel(skewed)
        assert not kernel.exactly_symmetric
        assert kernel.eigen_range == DppKernel(matrix).eigen_range

    @pytest.mark.parametrize(
        "ids, message",
        [(range(1499), "id list length"), ([0] * 1500, "distinct")],
    )
    def test_ids_are_checked_before_the_spectrum(self, monkeypatch, ids, message):
        checks = []
        monkeypatch.setattr(DppKernel, "_bound_spectrum", lambda self: checks.append(1))
        with pytest.raises(ConfigError, match=message):
            DppKernel(_frame_kernel(2, 1500), ids=list(ids))
        with pytest.raises(ConfigError, match="offset"):
            DppKernel(_frame_kernel(2, 40), offset=-1.0)
        assert checks == []


IDENTITY_KERNELS = [
    pytest.param(_spectrum_kernel(7, 12, low, high), offset, id=f"spectrum-{low:g}-{high:g}")
    for low, high, offset in SPECTRA
] + [pytest.param(_rbf_kernel(4, 40), 2.0, id="rbf")]


def _path(oracle, s):
    """Which way ``gain_bound`` answers ``s`` from: its state before the call."""
    if type(s) is not Solution:
        return "plain"
    if s.bound is None:
        return "rebuilt" if s else "fresh"
    if s.bound[0] is not oracle:
        return "other oracle"
    return "kept" if len(s.bound) == 2 else "grown"


class _CheckedBound(LogDetOracle):
    """A log-det oracle whose every bound is checked, by ``repr``, against
    the verbatim loop, and counted by the path it took when certified."""

    def __init__(self, kernel):
        super().__init__(kernel)
        self.paths = {}

    def gain_bound(self, s, e):
        want = _reference_gain_bound(self, s, e)
        path = _path(self, s)
        got = super().gain_bound(s, e)
        assert repr(got) == repr(want), (path, s, e)
        if got is not None:
            self.paths[path] = self.paths.get(path, 0) + 1
        return got


class TestGainBoundBitIdentity:
    """The bound read from a vector kept on the solution has the bits of
    the loop over S it replaced, on every path to that vector."""

    @pytest.mark.parametrize("matrix, offset", IDENTITY_KERNELS)
    def test_instance_steps_match_the_loop(self, matrix, offset):
        oracle = _CheckedBound(DppKernel(matrix, offset))
        n = matrix.shape[0]
        rng = random.Random(n)
        for limit in (2, 3, 5):
            for _ in range(6):
                order = rng.sample(range(n), n)
                inst = IndStreamInstance(oracle, UniformMatroid(limit))
                for i in order:
                    e = Element(id=i)
                    oracle.gain_bound(frozenset(inst.current_solution()), e)
                    inst.process(e)
        assert not oracle.clamped
        # Near the certified range's floor and at its edge in |S| no gain
        # clears GAIN_TOL, so those instances hold nothing but the empty set.
        assert {"fresh", "kept", "plain"} <= set(oracle.paths)

    @pytest.mark.parametrize("matrix, offset", IDENTITY_KERNELS)
    def test_every_path_matches_the_loop(self, matrix, offset):
        oracle = _CheckedBound(DppKernel(matrix, offset))
        n = matrix.shape[0]
        rng = random.Random(n)
        for _ in range(20):
            order = [Element(id=i) for i in rng.sample(range(n), n)]
            held, s = [], Solution()
            for added in order[: min(len(oracle._slacks), 12)]:
                for e in order:
                    if e not in s:
                        oracle.gain_bound(s, e)
                        oracle.gain_bound(frozenset(s), e)
                if held and rng.random() < 0.3:
                    held.remove(rng.choice(held))
                    held.append(added)
                    s = Solution(held)
                else:
                    held.append(added)
                    s = s.grown(held, added)
        assert set(oracle.paths) == {"fresh", "grown", "kept", "rebuilt", "plain"}

    @pytest.mark.parametrize("matrix, offset", IDENTITY_KERNELS)
    def test_one_solution_read_by_two_oracles(self, matrix, offset):
        n = matrix.shape[0]
        # The second kernel is the first with its rows and columns
        # permuted, so an id names another row in each.
        perm = np.random.default_rng(n).permutation(n)
        first = _CheckedBound(DppKernel(matrix, offset))
        second = _CheckedBound(DppKernel(matrix[np.ix_(perm, perm)], offset))
        ids = random.Random(3).sample(range(n), 5)
        s = Solution([Element(id=i) for i in ids[:2]])
        for oracle in (first, second, first, first, second):
            for i in range(n):
                if i not in ids[:2]:
                    oracle.gain_bound(s, Element(id=i))
        # A solution grown from one oracle's vector, read by the other
        # first, is rebuilt for each, never grown from the other's.
        grown = s.grown([*s, Element(id=ids[2])], Element(id=ids[2]))
        assert grown.bound[0] is second
        for oracle in (first, second, first):
            oracle.gain_bound(grown, Element(id=ids[3]))
        assert second.paths.get("other oracle") and first.paths.get("other oracle")

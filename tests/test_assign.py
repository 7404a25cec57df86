"""Allocator tests: the one exact solver, `feasible_optimum` (also
bound as `hungarian`), is verified against the exhaustive oracle across
random, degenerate and infeasible instances, and the in-house LSAP
solver against scipy's, column for column."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from magnnet import assign
from magnnet.assign import (_BIG, Assignment, CostMatrix, _lsap, brute_force,
                            feasible_optimum, greedy, hungarian,
                            random_assign, total_cost)
from magnnet.bench import ScenarioSpec
from magnnet.errors import InvalidAssignmentError
from magnnet.world import Episode


class TestCostMatrix:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CostMatrix(np.array([[1.0, -0.1]]))

    def test_rejects_negative_infinity(self):
        with pytest.raises(ValueError):
            CostMatrix(np.array([[-np.inf, 1.0], [2.0, 3.0]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            CostMatrix(np.array([[np.nan]]))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            CostMatrix(np.arange(3.0))

    def test_allows_inf(self):
        cm = CostMatrix(np.array([[np.inf, 1.0]]))
        assert cm.entries.shape[0] == 1 and cm.n_tasks == 2


class TestAssignment:
    def test_sorted_and_deduplicated(self):
        a = Assignment([(2, 0), (0, 1)])
        assert a.pairs == ((0, 1), (2, 0))

    def test_duplicate_agent_rejected(self):
        with pytest.raises(InvalidAssignmentError):
            Assignment([(0, 0), (0, 1)])

    def test_duplicate_task_rejected(self):
        with pytest.raises(InvalidAssignmentError):
            Assignment([(0, 0), (1, 0)])

    def test_total_cost_infinite_pair_rejected(self):
        cm = CostMatrix(np.array([[np.inf]]))
        with pytest.raises(InvalidAssignmentError):
            total_cost(cm, Assignment([(0, 0)]))


class TestHungarianAgainstOracle:
    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 4), (3, 5), (5, 3),
                                       (1, 4), (4, 1), (6, 6)])
    def test_random_instances(self, shape):
        rng = np.random.default_rng(hash(shape) & 0xFFFF)
        for _ in range(40):
            cm = CostMatrix(rng.uniform(0, 100, size=shape))
            assert hungarian(cm).pairs == brute_force(cm).pairs

    def test_integer_ties(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            cm = CostMatrix(rng.integers(0, 4, size=(4, 4)).astype(float))
            h, b = hungarian(cm), brute_force(cm)
            assert np.isclose(total_cost(cm, h), total_cost(cm, b))
            assert len(h.pairs) == 4

    def test_all_equal_matrix_is_identity(self):
        cm = CostMatrix(np.ones((3, 3)))
        assert hungarian(cm).pairs == ((0, 0), (1, 1), (2, 2))

    def test_sparse_infeasible_entries(self):
        rng = np.random.default_rng(11)
        partial = 0
        for _ in range(80):
            arr = rng.uniform(0, 10, size=(4, 4))
            arr[rng.random((4, 4)) < 0.4] = np.inf
            cm = CostMatrix(arr)
            h, b = hungarian(cm), brute_force(cm)
            assert len(h.pairs) == len(b.pairs)
            assert np.isclose(total_cost(cm, h), total_cost(cm, b))
            partial += len(b.pairs) < 4
        assert partial > 5  # the sweep left rows unmatched

    def test_row_shift_invariance(self):
        # adding a constant to a full row preserves the optimal matching
        rng = np.random.default_rng(5)
        arr = rng.uniform(0, 50, size=(4, 4))
        base = hungarian(CostMatrix(arr)).pairs
        arr2 = arr.copy()
        arr2[2] += 17.5
        assert hungarian(CostMatrix(arr2)).pairs == base

    def test_empty_matrix(self):
        for shape in [(0, 3), (3, 0), (0, 0)]:
            cm = CostMatrix(np.zeros(shape))
            for solve in (hungarian, greedy, lambda c: random_assign(c, 0)):
                assert solve(cm).pairs == (), (shape, solve)


class TestFeasibleOptimum:
    def test_skips_dead_row(self):
        arr = np.array([[1.0, 2.0], [np.inf, np.inf]])
        a = feasible_optimum(CostMatrix(arr))
        assert a.pairs == ((0, 0),)

    def test_one_solver_under_both_names(self):
        assert assign.hungarian is assign.feasible_optimum

    def test_maximum_cardinality_preferred(self):
        # matching both pairs costs more than the single cheapest pair,
        # but cardinality wins
        arr = np.array([[1.0, np.inf], [0.1, 200.0]])
        a = feasible_optimum(CostMatrix(arr))
        assert a.pairs == ((0, 0), (1, 1))


class TestGreedy:
    def test_classic_counterexample(self):
        cm = CostMatrix(np.array([[1.0, 1.1], [1.05, 10.0]]))
        g = greedy(cm)
        h = hungarian(cm)
        assert np.isclose(total_cost(cm, g), 11.0)
        assert np.isclose(total_cost(cm, h), 2.15)

    def test_never_beats_hungarian(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            cm = CostMatrix(rng.uniform(0, 100, size=(5, 5)))
            assert total_cost(cm, greedy(cm)) >= \
                total_cost(cm, hungarian(cm)) - 1e-9

    def test_handles_all_infinite(self):
        assert greedy(CostMatrix(np.full((2, 2), np.inf))).pairs == ()


class TestRandomAssign:
    def test_deterministic_per_seed(self):
        cm = CostMatrix(np.random.default_rng(0).uniform(0, 9, (5, 5)))
        assert random_assign(cm, 42).pairs == random_assign(cm, 42).pairs
        variants = {random_assign(cm, s).pairs for s in range(20)}
        assert len(variants) > 1

    def test_valid_full_matching_when_feasible(self):
        cm = CostMatrix(np.ones((4, 4)))
        for s in range(10):
            assert len(random_assign(cm, s).pairs) == 4

    def test_skips_infeasible_pairs(self):
        arr = np.array([[np.inf, 1.0], [np.inf, np.inf]])
        for s in range(10):
            a = random_assign(CostMatrix(arr), s)
            assert a.pairs in (((0, 1),), ())


SOLVERS = {"feasible_optimum": feasible_optimum, "greedy": greedy,
           "random_assign": lambda c: random_assign(c, 5),
           "brute_force": brute_force}


class TestSolversLeaveEntriesAlone:
    """Each solver reads `CostMatrix.entries` in place and pairs only
    finite entries; none may write to the matrix it was handed, which
    the baselines of one instance share."""

    @pytest.mark.parametrize("solver", list(SOLVERS))
    def test_entries_unchanged(self, solver):
        arr = np.random.default_rng(4).uniform(0, 9, (4, 5))
        arr[1, :] = np.inf
        arr[2, 3] = np.inf
        cm = CostMatrix(arr.copy())
        a = SOLVERS[solver](cm)
        assert np.array_equal(cm.entries, arr)
        assert len(a.pairs) == 3 and 1 not in [i for i, _ in a.pairs]
        assert np.isfinite(total_cost(cm, a))


class TestBruteForce:
    def test_refuses_large_instances(self):
        with pytest.raises(ValueError):
            brute_force(CostMatrix(np.ones((9, 9))))

    def test_rectangular_both_orientations(self):
        rng = np.random.default_rng(3)
        wide = CostMatrix(rng.uniform(0, 9, (2, 5)))
        tall = CostMatrix(rng.uniform(0, 9, (5, 2)))
        assert len(brute_force(wide).pairs) == 2
        assert len(brute_force(tall).pairs) == 2

    def test_partial_matching_without_a_full_one(self):
        # the dead row stays unmatched, and cardinality beats cost: row
        # 2 can only take task 1, so row 0 takes the dearer task 0
        arr = np.array([[1.0, 0.5], [np.inf, np.inf], [np.inf, 3.0]])
        assert brute_force(CostMatrix(arr)).pairs == ((0, 0), (2, 1))
        assert brute_force(CostMatrix(arr[1:2])).pairs == ()


def lsap_family(family, n, rng):
    """An n x n matrix of the kind `feasible_optimum` hands to `_lsap`."""
    if family == "uniform":
        return rng.uniform(0, 100, (n, n))
    if family == "travel_times":    # whole cells over 3 or 5 m/s per agent
        return rng.integers(0, 60, (n, n)) / rng.choice([3.0, 5.0], (n, 1))
    ties = rng.integers(0, 4, (n, n)).astype(float)
    if family == "ties":
        return ties
    if family == "big_entries":
        arr = rng.uniform(0, 100, (n, n))
        arr[rng.random((n, n)) < 0.2] = _BIG
        return arr
    k = int(rng.integers(0, n + 1))
    if family == "big_columns":     # a tall matrix padded to square
        ties[:, k:] = _BIG
    else:                           # a wide one
        ties[k:, :] = _BIG
    return ties


def scipy_feasible_optimum(arr):
    """`feasible_optimum` on scipy's solver: the reference."""
    n, m = arr.shape
    size = max(n, m)
    padded = np.full((size, size), _BIG)
    padded[:n, :m] = np.where(np.isfinite(arr), arr, _BIG)
    rows, cols = linear_sum_assignment(padded)
    return Assignment([(i, j) for i, j in zip(rows, cols)
                       if i < n and j < m and np.isfinite(arr[i, j])])


class TestLsapAgainstScipy:
    """`_lsap` follows scipy's `rectangular_lsap` step for step, so it must
    pick the same column for every row, ties included; travel times with
    inexact thirds and fifths also catch a float expression evaluated in
    another order."""

    @settings(max_examples=600, derandomize=True, deadline=None)
    @given(n=st.integers(1, 20),
           family=st.sampled_from(["uniform", "travel_times", "ties",
                                   "big_entries", "big_columns",
                                   "big_rows"]),
           seed=st.integers(0, 2**32 - 1))
    def test_same_columns_as_scipy(self, n, family, seed):
        arr = lsap_family(family, n, np.random.default_rng(seed))
        assert _lsap(arr.tolist()) == linear_sum_assignment(arr)[1].tolist()

    def test_constant_matrix_is_identity(self):
        assert _lsap([[2.0] * 5 for _ in range(5)]) == [0, 1, 2, 3, 4]


@pytest.fixture(scope="module")
def bench_static_matrices():
    """Initial cost matrices of seeded `bench_static`-style instances
    (50 x 50 x 30 grid), two per N of the paper's grid."""
    spec = ScenarioSpec(mode="static", n_agents=(4, 8, 12, 20),
                        methods=("hungarian",), seed_base=3)
    out = []
    for n in spec.n_agents:
        for e in range(2):
            seed = spec.seed_base * 1_000_000 + n * 10_000 + e
            ep = Episode(spec.world_config(n), seed)
            out.append(ep.initial_cost_matrix().entries)
    return out


class TestSolversAgainstScipyReference:
    def shapes(self, matrices):
        # the square matrix and a tall and a wide slice, padded differently
        for arr in matrices:
            yield arr
            yield arr[:, :-1]
            yield arr[:-1, :]

    def test_feasible_optimum(self, bench_static_matrices):
        for arr in self.shapes(bench_static_matrices):
            assert feasible_optimum(CostMatrix(arr)).pairs == \
                scipy_feasible_optimum(arr).pairs

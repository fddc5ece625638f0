"""Gram solves, dictionary initialization, and the sparse coding loop."""

import math
import re
import threading
import time
import warnings

import numpy as np
import pytest
import scipy.linalg

from deepdict import kernels
from deepdict.baseline import TrainConfig, train_ddl
from deepdict.data import make_synthetic_clusters
from deepdict.harness import ExperimentConfig
from deepdict.intraclass import DdlicConfig, train_ddlic
from deepdict.kernels import (
    DEFAULT_RIDGE,
    IstaConfig,
    RidgePolicy,
    gram_solver,
    gram_spectral_norm,
    initial_dictionary,
    ista_sparse_code,
    qr_orthonormal_init,
    random_dictionary_init,
    ridge_code,
    solve_least_squares_dictionary,
    sparse_objective,
)

RNG = np.random.default_rng

pytestmark = pytest.mark.usefixtures("no_thread_outlives_the_test")


def oracle_ista(dictionary, inputs, l1_weight, cfg, warm_start=None):
    """Plain ISTA with the same step and stopping rule: (codes, iterations, rule met)."""
    gram = dictionary.T @ dictionary
    corr = dictionary.T @ inputs
    step = 1.0 / gram_spectral_norm(gram) if cfg.step is None else cfg.step
    if warm_start is None:
        codes = np.zeros((dictionary.shape[1], inputs.shape[1]))
    else:
        codes = np.array(warm_start, dtype=float)
    threshold = 0.5 * step * l1_weight
    for it in range(1, cfg.max_iters + 1):
        shifted = codes - step * (gram @ codes - corr)
        new_codes = np.sign(shifted) * np.maximum(np.abs(shifted) - threshold, 0.0)
        delta = float(np.linalg.norm(new_codes - codes))
        reference = float(np.linalg.norm(codes))
        codes = new_codes
        if delta <= cfg.rel_tol * reference:
            return codes, it, True
    return codes, cfg.max_iters, False


def kkt_within_stop_rule(dictionary, inputs, codes, l1_weight, cfg):
    """The lasso optimality conditions hold to the bound ISTA's stopping rule
    implies: a step moving the codes by ``delta`` leaves a violation of at
    most ``(1/t + L) * delta`` (the benchmark's ``check_lasso_kkt``)."""
    gram = dictionary.T @ dictionary
    lipschitz = float(np.linalg.eigvalsh(gram)[-1])
    inv_step = lipschitz if cfg.step is None else 1.0 / cfg.step
    delta = cfg.rel_tol * np.linalg.norm(codes) / (1.0 - cfg.rel_tol)
    rounding = 1e-12 * (np.linalg.norm(gram) * np.linalg.norm(codes)
                        + np.linalg.norm(dictionary.T @ inputs))
    grad = dictionary.T @ (dictionary @ codes - inputs)
    half = 0.5 * l1_weight
    viol = np.where(codes != 0, np.abs(grad + half * np.sign(codes)),
                    np.maximum(np.abs(grad) - half, 0.0))
    return np.linalg.norm(viol) <= (inv_step + lipschitz) * delta * (1.0 + 1e-6) + rounding


def lasso_case(seed, shape, warm):
    """A random lasso problem: dictionary, inputs, L1 weight, warm start or None."""
    rng = RNG(seed)
    rows, atoms = shape
    dictionary = rng.normal(size=(rows, atoms))
    inputs = rng.normal(size=(rows, 15))
    l1_weight = float(rng.uniform(0.05, 2.0))
    start = rng.normal(size=(atoms, 15)) * rng.random((atoms, 15)) if warm else None
    return dictionary, inputs, l1_weight, start


class TestGramSolver:
    def test_well_conditioned_solve_matches_numpy(self):
        rng = RNG(0)
        a = rng.normal(size=(8, 40))
        gram = a @ a.T
        rhs = rng.normal(size=(8, 3))
        got = gram_solver(gram)(rhs)
        want = np.linalg.solve(gram, rhs)
        assert np.allclose(got, want, atol=1e-8)

    def test_rank_deficient_gram_matches_pseudoinverse(self):
        rng = RNG(1)
        codes = rng.normal(size=(6, 30))
        codes[2] = 0.0  # dead atom: Gram gets a zero row and column
        gram = codes @ codes.T
        rhs = rng.normal(size=(6, 4))
        rhs[2] = 0.0
        got = gram_solver(gram)(rhs)
        want = np.linalg.pinv(gram) @ rhs
        assert np.max(np.abs(got - want)) < 1e-6

    def test_dictionary_solve_with_dead_atom_matches_pseudoinverse(self):
        rng = RNG(15)
        codes = rng.normal(size=(5, 40))
        codes[3] = 0.0
        inputs = rng.normal(size=(7, 40))
        got = solve_least_squares_dictionary(inputs, codes)
        want = inputs @ codes.T @ np.linalg.pinv(codes @ codes.T)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_solver_is_reusable(self):
        rng = RNG(2)
        a = rng.normal(size=(5, 20))
        solve = gram_solver(a @ a.T)
        r1, r2 = rng.normal(size=(5, 2)), rng.normal(size=(5,))
        assert solve(r1).shape == (5, 2)
        assert solve(r2).shape == (5,)

    def test_custom_ridge_scale(self):
        gram = np.eye(3)
        solve = gram_solver(gram, RidgePolicy(epsilon_scale=0.5))
        got = solve(np.ones(3))
        assert np.allclose(got, np.ones(3) / 1.5)

    @staticmethod
    def _ridged(gram):
        k = gram.shape[0]
        return gram + DEFAULT_RIDGE.epsilon_scale * (float(np.trace(gram)) / k) * np.eye(k)

    def test_well_conditioned_gram_applies_its_explicit_inverse(self):
        rng = RNG(17)
        for k in (1, 5, 12):
            a = rng.normal(size=(k, 3 * k))
            gram = a @ a.T
            ridged = self._ridged(gram)
            upper, info = scipy.linalg.lapack.dpotrf(ridged)
            assert info == 0
            inverse, info = scipy.linalg.lapack.dpotri(upper)
            assert info == 0
            # LAPACK fills the upper triangle; the product takes its Fortran order
            inverse = np.asfortranarray(np.triu(inverse) + np.triu(inverse, 1).T)
            factor = scipy.linalg.cho_factor(ridged)
            solve = gram_solver(gram)
            for rhs in (rng.normal(size=k), rng.normal(size=(k, 4))):
                got = solve(rhs)
                assert np.array_equal(got, inverse @ rhs)
                want = scipy.linalg.cho_solve(factor, rhs)
                assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_ill_conditioned_gram_solves_with_its_factor(self):
        rng = RNG(19)
        for k in (2, 5, 12):
            a = rng.normal(size=(k, 3 * k))
            a[0] *= 1e-4  # an eigenvalue about 1e-8 of the others: 1/cond below 1e-6
            gram = a @ a.T
            factor, inverse = kernels._ridged_factor(gram, DEFAULT_RIDGE)
            assert factor is not None and inverse is None
            want = scipy.linalg.cho_factor(self._ridged(gram))
            solve = gram_solver(gram)
            for rhs in (rng.normal(size=k), rng.normal(size=(k, 4))):
                assert np.array_equal(solve(rhs), scipy.linalg.cho_solve(want, rhs))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gram_rejected(self, bad):
        gram = np.eye(4)
        gram[1, 2] = gram[2, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            gram_solver(gram)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_right_hand_side_rejected(self, bad):
        solve = gram_solver(np.eye(4))
        for rhs in (np.ones(4), np.ones((4, 3))):
            rhs[-1] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                solve(rhs)

    def test_unfactorable_gram_falls_back_to_pseudoinverse(self):
        rng = RNG(18)
        codes = rng.normal(size=(5, 20))
        codes[1] = 0.0
        gram = codes @ codes.T
        # without a ridge the zero pivot makes the Cholesky factorization fail
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.cho_factor(gram)
        rhs = rng.normal(size=(5, 3))
        solve = gram_solver(gram, RidgePolicy(epsilon_scale=0.0))
        assert np.array_equal(solve(rhs), np.linalg.pinv(gram) @ rhs)
        rhs[0, 0] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve(rhs)
        assert np.array_equal(gram_solver(np.zeros((3, 3)))(np.ones(3)), np.zeros(3))


def _gram_case(seed, k, columns):
    """The Gram matrix of a k x 3k Gaussian matrix and an F-contiguous k x columns right-hand side."""
    rng = RNG(seed)
    a = rng.normal(size=(k, 3 * k))
    return a @ a.T, np.asfortranarray(rng.normal(size=(k, columns)))


class TestExplicitInverse:
    """``_spd_inverse`` and the ridged systems that apply its inverse as one product."""

    @pytest.mark.parametrize(
        "k, columns",
        [(400, 784), (400, 500), (400, 10), (100, 200), (48, 1200),
         (400, 7), (100, 201), (48, 1199), (7, 13), (5, 2)],
    )
    def test_product_is_within_1e_10_of_a_factored_solve(self, k, columns):
        gram, rhs = _gram_case(k + columns, k, columns)
        factor, inverse = kernels._ridged_factor(gram, DEFAULT_RIDGE)
        assert factor is None and inverse.shape == (k, k)
        kept = rhs.copy(order="F")
        got = kernels._solve_factored(factor, inverse, rhs)
        assert np.array_equal(rhs, kept)  # the product leaves its right-hand side as it was
        want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(TestGramSolver._ridged(gram)), kept)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_inverse_is_exactly_symmetric(self):
        for k in (1, 6, 40):
            gram, _ = _gram_case(k, k, 1)
            factor, inverse = kernels._spd_inverse(gram, kernels._RIDGED_RCOND)
            assert factor is None
            assert np.array_equal(inverse, inverse.T)
            assert np.abs(inverse @ gram - np.eye(k)).max() <= 1e-10

    def test_the_floor_is_inclusive(self):
        gram, _ = _gram_case(3, 12, 1)
        upper, info = scipy.linalg.lapack.dpotrf(gram)
        assert info == 0
        rcond, info = scipy.linalg.lapack.dpocon(upper, np.abs(gram).sum(axis=0).max())
        assert info == 0
        assert kernels._spd_inverse(gram, rcond)[1] is not None
        factor, inverse = kernels._spd_inverse(gram, np.nextafter(rcond, 1.0))
        assert inverse is None
        assert np.array_equal(np.triu(factor), upper)  # the lower triangle is left unclean

    def test_each_floor_is_its_callers_own(self):
        # 1/cond = 1e-7: over the active set's floor, under the ridged systems'
        matrix = np.diag([1.0, 1e-7])
        assert kernels._spd_inverse(matrix, kernels._ACTIVE_SET_RCOND)[1] is not None
        factor, inverse = kernels._spd_inverse(matrix, kernels._RIDGED_RCOND)
        assert factor is not None and inverse is None

    def test_a_matrix_that_does_not_factor_gives_neither(self):
        for matrix in (np.diag([1.0, -1.0, 2.0]), np.zeros((3, 3))):
            assert kernels._spd_inverse(matrix, 0.0) == (None, None)

    def test_the_matrix_is_kept_unless_overwrite_is_asked(self):
        gram, _ = _gram_case(4, 9, 1)
        matrix = np.asfortranarray(gram)
        _, want = kernels._spd_inverse(matrix, kernels._RIDGED_RCOND)
        assert np.array_equal(matrix, gram)
        _, got = kernels._spd_inverse(matrix, kernels._RIDGED_RCOND, overwrite=True)
        assert not np.array_equal(matrix, gram)  # the factorization took it over
        assert np.array_equal(got, want)

    def test_the_shift_is_added_before_the_ridge(self):
        gram, _ = _gram_case(5, 8, 1)
        shift, policy = 0.7, RidgePolicy(epsilon_scale=1e-3)  # a ridge large enough to tell
        shifted = gram + shift * np.eye(8)
        factor, inverse = kernels._ridged_factor(gram, policy, shift)
        assert factor is None
        # the ridge scales with the shifted diagonal's mean
        ridged = shifted + 1e-3 * (np.trace(shifted) / 8) * np.eye(8)
        assert np.abs(inverse @ ridged - np.eye(8)).max() <= 1e-12
        _, unshifted = kernels._ridged_factor(shifted, policy)
        assert np.abs(inverse - unshifted).max() <= 1e-12 * np.abs(unshifted).max()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_diagonal_raises(self, bad):
        gram = np.eye(3)
        gram[1, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            kernels._ridged_factor(gram, DEFAULT_RIDGE)
        with pytest.raises(ValueError, match="infs or NaNs"):
            kernels._ridged_factor(np.eye(3), DEFAULT_RIDGE, bad)


# The benchmark's three workloads: classes, training columns per class, input
# dimension, class separation and layer sizes.
BENCHMARK_SHAPES = {
    "paper-scale": (10, 50, 784, 10.0, (400, 200, 100)),
    "many-class": (40, 30, 64, 6.0, (48, 32, 24)),
    "grid-parallel": (10, 30, 200, 6.0, (128, 96, 64)),
}


@pytest.mark.parametrize("workload", BENCHMARK_SHAPES)
def test_benchmark_shapes_apply_explicit_inverses(monkeypatch, workload):
    """Every Gram system both stacks solve at a benchmark shape, at the
    serial workloads' weight 1e-4, is well conditioned enough for its
    explicit inverse: no triangular solve runs. (The grid's larger weights
    do reach systems below the floor, which keep their factored solve.)"""
    classes, per_class, dim, separation, sizes = BENCHMARK_SHAPES[workload]
    train = make_synthetic_clusters(classes, per_class, dim, separation, seed=1)
    solves, potrs = [], kernels._POTRS
    monkeypatch.setattr(kernels, "_POTRS", lambda *args, **kwargs: (
        solves.append(args[0].shape) or potrs(*args, **kwargs)))
    train_ddlic(train, DdlicConfig(layer_sizes=sizes, alphas=(1e-4,) * 3, iters_per_layer=2))
    train_ddl(train.features, TrainConfig(layer_sizes=sizes, iters_per_layer=2))
    assert solves == []
    kernels._solve_factored(*kernels._ridged_factor(np.diag([1.0, 1e-9]), DEFAULT_RIDGE),
                            np.ones((2, 1), order="F"))
    assert solves == [(2, 2)]  # the recorder sees a factored solve


class FirstFailed(Exception):
    pass


class SecondFailed(Exception):
    pass


def _blocked(helper, release):
    """Occupy ``helper``'s one thread until ``release`` is set. The returned
    future raises ``TimeoutError`` if that takes more than 10 s, so a test
    that checks it fails instead of passing late."""
    started = threading.Event()

    def hold():
        started.set()
        if not release.wait(10):
            raise TimeoutError("the helper was never released")

    held = helper.submit(hold)
    assert started.wait(10)
    return held


# Far above the gate: a pair given this work hands ``first`` to a published helper.
LARGE = 1 << 40


def _pair_in_a_block(first, second, work=LARGE):
    """``kernels._paired(first, second, work)`` inside a ``_helper_thread()`` block."""
    with kernels._helper_thread():
        return kernels._paired(first, second, work)


class TestPairs:
    """Two independent calls overlap on the helper a ``_helper_thread()`` block publishes."""

    def _threads(self, wait=False):
        """Two calls that record the thread each runs on and return their names;
        with ``wait``, the second waits until the first has started."""
        seen, started = {}, threading.Event()

        def first():
            seen["first"] = threading.get_ident()
            started.set()
            return "first"

        def second():
            assert not wait or started.wait(60)
            seen["second"] = threading.get_ident()
            return "second"

        return seen, first, second

    def test_the_first_call_runs_on_the_helper(self):
        seen, first, second = self._threads(wait=True)
        assert _pair_in_a_block(first, second) == ("first", "second")
        assert seen["second"] == threading.get_ident() != seen["first"]

    def test_the_gate_is_inclusive(self):
        me, gate = threading.get_ident(), kernels._HELPER_MIN_WORK
        with kernels._helper_thread():
            at = kernels._paired(threading.get_ident, threading.get_ident, gate)
            below = kernels._paired(threading.get_ident, threading.get_ident, gate - 1)
        assert at[1] == me != at[0]
        assert below == (me, me)

    def test_nothing_is_handed_over_outside_a_block(self):
        me = threading.get_ident()
        seen, first, second = self._threads()
        assert kernels._SOLVE_HELPER.get() is None
        assert kernels._paired(first, second, LARGE) == ("first", "second")
        assert seen == {"first": me, "second": me}

    def test_a_block_below_the_gate_starts_no_thread(self):
        before = threading.active_count()
        with kernels._helper_thread():
            counts = [kernels._paired(threading.active_count, threading.active_count,
                                      kernels._HELPER_MIN_WORK - 1) for _ in range(3)]
            after = threading.active_count()
        assert counts == [(before, before)] * 3 and after == before

    def test_the_helper_is_withdrawn_when_the_block_raises(self):
        before = threading.active_count()
        with pytest.raises(FirstFailed):
            with kernels._helper_thread():
                kernels._paired(lambda: None, lambda: None, LARGE)  # starts the thread
                assert threading.active_count() == before + 1
                raise FirstFailed("in the block")
        assert kernels._SOLVE_HELPER.get() is None
        assert threading.active_count() == before

    def test_the_helpers_call_sees_no_helper(self):
        me = threading.get_ident()
        with kernels._helper_thread():
            helper = kernels._SOLVE_HELPER.get()
            on_helper = kernels._paired(kernels._SOLVE_HELPER.get, kernels._SOLVE_HELPER.get, LARGE)
            inline = kernels._paired(kernels._SOLVE_HELPER.get, kernels._SOLVE_HELPER.get, 0)
            # work on the helper must not wait on itself
            nested, _ = kernels._paired(
                lambda: kernels._paired(threading.get_ident, threading.get_ident, LARGE),
                lambda: None, LARGE,
            )
        assert helper is not None and on_helper == inline == (None, helper)
        assert nested[0] == nested[1] != me

    def test_a_busy_helper_is_waited_for(self):
        seen, first, second = self._threads()
        release = threading.Event()
        with kernels._helper_thread():
            held = _blocked(kernels._SOLVE_HELPER.get(), release)
            timer = threading.Timer(0.1, release.set)
            timer.start()
            try:
                got = kernels._paired(first, second, LARGE)
            finally:
                timer.join(timeout=10)
            held.result(timeout=30)
        assert got == ("first", "second")
        assert seen["second"] == threading.get_ident() != seen["first"]

    def test_pairs_leave_the_solvers_bit_identical(self, monkeypatch):
        monkeypatch.setattr(kernels, "_HELPER_MIN_WORK", 0)
        rng = RNG(26)
        dictionary, inputs, codes = (rng.normal(size=s) for s in ((30, 12), (30, 50), (12, 50)))
        want = (ridge_code(dictionary, inputs), solve_least_squares_dictionary(inputs, codes))
        factored, factor = [], kernels._ridged_factor
        monkeypatch.setattr(kernels, "_ridged_factor", lambda *args: (
            factored.append(threading.get_ident()) or factor(*args)))
        with kernels._helper_thread():
            got = (ridge_code(dictionary, inputs), solve_least_squares_dictionary(inputs, codes))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        # ridge_code's factor runs on the helper, the refresh's on this thread
        assert len(factored) == 2 and factored[0] != factored[1] == threading.get_ident()

    def test_errors_are_those_of_the_calls_in_sequence(self):
        first_error, second_error = FirstFailed("first"), SecondFailed("second")

        def fail(error):
            def run():
                raise error
            return run

        with pytest.raises(FirstFailed) as caught:
            _pair_in_a_block(fail(first_error), fail(second_error))
        assert caught.value is first_error
        with pytest.raises(FirstFailed) as caught:
            _pair_in_a_block(fail(first_error), lambda: 1)
        assert caught.value is first_error
        with pytest.raises(SecondFailed) as caught:
            _pair_in_a_block(lambda: 1, fail(second_error))
        assert caught.value is second_error

    def test_the_helper_finishes_its_call_before_the_pair_raises(self):
        finished = []

        def slow_first():
            time.sleep(0.2)
            finished.append(True)

        def failing_second():
            raise SecondFailed("second")

        with kernels._helper_thread():
            with pytest.raises(SecondFailed):
                kernels._paired(slow_first, failing_second, LARGE)
            assert finished == [True]

    def test_the_helper_sees_the_callers_errstate(self):
        seen, first, second = self._threads(wait=True)
        with np.errstate(over="raise"):
            errstate = _pair_in_a_block(lambda: first() and np.geterr()["over"], second)[0]
        assert seen["first"] != threading.get_ident() and errstate == "raise"


class TestClosedFormSolvers:
    def test_dictionary_solve_reaches_least_squares_optimum(self):
        rng = RNG(3)
        codes = rng.normal(size=(6, 50))
        inputs = rng.normal(size=(9, 50))
        dictionary = solve_least_squares_dictionary(inputs, codes)
        # at the optimum the residual is orthogonal to the code rows
        resid = inputs - dictionary @ codes
        assert np.max(np.abs(resid @ codes.T)) < 1e-7

    def test_code_solve_reaches_least_squares_optimum(self):
        rng = RNG(4)
        dictionary = rng.normal(size=(12, 5))
        inputs = rng.normal(size=(12, 30))
        codes = ridge_code(dictionary, inputs)
        resid = inputs - dictionary @ codes
        assert np.max(np.abs(dictionary.T @ resid)) < 1e-7

    def test_identity_codes_return_the_inputs(self):
        rng = RNG(16)
        inputs = rng.normal(size=(4, 3))
        got = solve_least_squares_dictionary(inputs, np.eye(3))
        assert np.max(np.abs(got - inputs)) < 1e-9

    def test_exact_factorization_recovered(self):
        d_true = np.array([[2.0, 0.0], [1.0, 3.0]])
        codes = np.array([[1.0, 1.0], [0.0, 1.0]])
        got = solve_least_squares_dictionary(d_true @ codes, codes)
        # recovery is exact up to the stabilizing ridge (~1e-10 of the Gram)
        assert np.max(np.abs(got - d_true)) < 2e-9

    def test_column_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="column counts differ"):
            solve_least_squares_dictionary(np.zeros((3, 4)), np.zeros((2, 5)))

    @pytest.mark.parametrize("policy", [DEFAULT_RIDGE, RidgePolicy(epsilon_scale=0.0)])
    @pytest.mark.parametrize("dead_atom", [False, True])
    def test_dictionary_solve_is_bit_identical_to_gram_solver(self, policy, dead_atom):
        rng = RNG(19)
        for atoms, dim, n in ((5, 8, 12), (48, 64, 1200), (128, 200, 300)):
            codes = rng.normal(size=(atoms, n))
            if dead_atom:
                codes[1] = 0.0  # without a ridge the solve takes the pseudo-inverse
            inputs = rng.normal(size=(dim, n))
            got = solve_least_squares_dictionary(inputs, codes, policy)
            want = gram_solver(codes @ codes.T, policy)((inputs @ codes.T).T).T
            assert np.array_equal(got, want)
            assert got.flags.c_contiguous == want.flags.c_contiguous

    @pytest.mark.parametrize("where", ["inputs", "codes"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_dictionary_solve_rejects_non_finite_matrix(self, where, bad):
        args = {"inputs": np.ones((3, 4)), "codes": np.eye(2, 4)}
        args[where][1, 1] = bad
        with pytest.raises(ValueError, match=f"{where} must not contain infs or NaNs"):
            solve_least_squares_dictionary(args["inputs"], args["codes"])

    def test_dictionary_solve_rejects_finite_inputs_that_overflow(self):
        rng = RNG(20)
        codes, inputs = rng.normal(size=(3, 10)), rng.normal(size=(4, 10))
        with np.errstate(over="ignore", invalid="ignore"):
            # the products inputs @ codes.T overflow; the code Gram matrix does not
            with pytest.raises(ValueError, match="infs or NaNs"):
                solve_least_squares_dictionary(np.sign(inputs) * 1e308, codes)
            # the code Gram matrix overflows
            with pytest.raises(ValueError, match="infs or NaNs"):
                solve_least_squares_dictionary(inputs, codes * 1e160)


class TestInitialization:
    def test_qr_init_is_orthonormal_and_spans_data(self):
        rng = RNG(5)
        data = rng.normal(size=(10, 40))
        basis = qr_orthonormal_init(data, 6, seed=0)
        assert np.allclose(basis.T @ basis, np.eye(6), atol=1e-10)
        # columns live in the column space of the data
        u, s, _ = np.linalg.svd(data, full_matrices=False)
        proj = u @ (u.T @ basis)
        assert np.allclose(proj, basis, atol=1e-8)

    def test_qr_init_pads_rank_deficient_data(self):
        rng = RNG(6)
        thin = rng.normal(size=(8, 2))
        data = thin @ rng.normal(size=(2, 20))  # rank 2
        basis = qr_orthonormal_init(data, 5, seed=1)
        assert np.allclose(basis.T @ basis, np.eye(5), atol=1e-10)

    @pytest.mark.parametrize("dtype", [float, np.float32, int])
    @pytest.mark.parametrize("k0,n_atoms", [(1, 1), (6, 1), (6, 4), (6, 6)])
    def test_qr_init_of_zero_columns_is_the_seeded_random_basis(self, k0, n_atoms, dtype):
        basis = qr_orthonormal_init(np.empty((k0, 0), dtype=dtype), n_atoms, seed=3)
        want, _ = np.linalg.qr(RNG(3).standard_normal((k0, n_atoms)))
        assert basis.dtype == np.float64
        assert np.array_equal(basis, want)
        assert np.allclose(basis.T @ basis, np.eye(n_atoms), atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_qr_init_rank_from_r_matches_the_rank_from_the_data(self, seed):
        # reference: the rank read from the data's own singular values
        def rank(matrix, shape):
            svals = np.linalg.svd(matrix, compute_uv=False)
            tol = max(shape) * np.finfo(float).eps * (float(svals[0]) if svals.size else 0.0)
            return int(np.count_nonzero(svals > tol))

        rng = RNG(40 + seed)
        for k0, n in ((30, 12), (12, 30), (20, 20), (784, 40)):
            for true_rank in (0, 1, min(k0, n) // 2, min(k0, n) - 1):
                data = rng.normal(size=(k0, true_rank)) @ rng.normal(size=(true_rank, n))
                data *= 10.0 ** rng.integers(-3, 4)
                data[:, rng.choice(n, size=n // 3, replace=False)] = 0.0  # zero columns
                want = rank(data, data.shape)
                assert rank(np.linalg.qr(data)[1], data.shape) == want <= true_rank
                n_atoms = min(k0, want + 2)
                basis = qr_orthonormal_init(data, n_atoms, seed=seed)
                assert np.allclose(basis.T @ basis, np.eye(n_atoms), atol=1e-10)
                # the data's rank many columns come from the data, the rest are seeded padding
                q = np.linalg.qr(data)[0][:, :want]
                pad = RNG(seed).standard_normal((k0, n_atoms - want))
                expect = np.linalg.qr(np.concatenate([q, pad], axis=1))[0]
                assert np.array_equal(basis, expect)

    def test_qr_init_rejects_impossible_width(self):
        with pytest.raises(ValueError, match="orthonormal"):
            qr_orthonormal_init(np.zeros((3, 10)), 4)

    def test_random_init_has_unit_columns(self):
        d = random_dictionary_init(7, 4, seed=2)
        assert np.allclose(np.linalg.norm(d, axis=0), 1.0)
        assert np.array_equal(d, random_dictionary_init(7, 4, seed=2))

    def test_initial_dictionary_dispatch(self):
        rng = RNG(7)
        data = rng.normal(size=(9, 30))
        first = initial_dictionary(data, 5, layer=1, mode="qr", seed=3)
        assert np.allclose(first.T @ first, np.eye(5), atol=1e-10)
        deeper = initial_dictionary(data, 5, layer=2, mode="qr", seed=3)
        assert np.array_equal(deeper, random_dictionary_init(9, 5, seed=5))
        rand_first = initial_dictionary(data, 5, layer=1, mode="random", seed=3)
        assert np.array_equal(rand_first, random_dictionary_init(9, 5, seed=4))


class TestSpectralNorm:
    def test_matches_dense_eigensolver(self):
        rng = RNG(8)
        for _ in range(5):
            a = rng.normal(size=(6, 25))
            gram = a @ a.T
            want = float(np.linalg.eigvalsh(gram)[-1])
            got = gram_spectral_norm(gram)
            assert abs(got - want) / want < 1e-6

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_zero_gram_has_zero_norm(self, k):
        # the power iteration stops at its first zero product; for k = 0 that is empty
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gram_spectral_norm(np.zeros((k, k))) == 0.0


class TestSparseCoding:
    def test_identity_dictionary_soft_threshold_exact(self):
        rng = RNG(9)
        x = rng.normal(size=(6, 10))
        lam = 0.7
        codes = ista_sparse_code(np.eye(6), x, lam)
        want = np.sign(x) * np.maximum(np.abs(x) - lam / 2.0, 0.0)
        assert np.max(np.abs(codes - want)) < 1e-10

    def test_zero_weight_matches_least_squares(self):
        rng = RNG(10)
        dictionary = rng.normal(size=(12, 5))
        x = rng.normal(size=(12, 8))
        cfg = IstaConfig(max_iters=5000, rel_tol=1e-12)
        codes = ista_sparse_code(dictionary, x, 0.0, cfg)
        want, *_ = np.linalg.lstsq(dictionary, x, rcond=None)
        assert np.max(np.abs(codes - want)) < 1e-5

    def test_objective_never_increases(self):
        rng = RNG(11)
        for trial in range(20):
            d = rng.normal(size=(8, 12))  # overcomplete
            x = rng.normal(size=(8, 6))
            lam = float(rng.uniform(0.05, 0.5))
            _, trace = ista_sparse_code(
                d, x, lam, IstaConfig(max_iters=200), return_trace=True
            )
            diffs = np.diff(np.asarray(trace))
            assert (diffs <= 1e-12).all(), f"trial {trial} increased"

    def test_warm_start_converges_to_same_point(self):
        rng = RNG(12)
        d = rng.normal(size=(10, 6))
        x = rng.normal(size=(10, 4))
        cfg = IstaConfig(max_iters=4000, rel_tol=1e-13)
        cold = ista_sparse_code(d, x, 0.2, cfg)
        warm = ista_sparse_code(d, x, 0.2, cfg, warm_start=cold + 0.01)
        assert np.max(np.abs(cold - warm)) < 1e-6

    def test_explicit_step_override(self):
        rng = RNG(13)
        d = rng.normal(size=(6, 4))
        x = rng.normal(size=(6, 3))
        lam = 0.1
        auto = ista_sparse_code(d, x, lam, IstaConfig(max_iters=3000, rel_tol=1e-13))
        slow = ista_sparse_code(
            d, x, lam, IstaConfig(max_iters=9000, rel_tol=1e-13, step=0.01)
        )
        assert np.max(np.abs(auto - slow)) < 1e-4

    def test_stopping_at_max_iters_warns(self):
        rng = RNG(15)
        d = rng.normal(size=(8, 12))
        x = rng.normal(size=(8, 6))
        with pytest.warns(RuntimeWarning, match="max_iters"):
            ista_sparse_code(d, x, 0.1, IstaConfig(max_iters=3, rel_tol=1e-12))

    def test_convergence_before_max_iters_is_silent(self):
        rng = RNG(15)
        d = rng.normal(size=(8, 12))
        x = rng.normal(size=(8, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, trace = ista_sparse_code(
                d, x, 0.1, IstaConfig(max_iters=5000, rel_tol=1e-4), return_trace=True
            )
        assert len(trace) - 1 < 5000

    @pytest.mark.parametrize("variant", ["drawn", "zero-weight", "zero-optimum", "dead-atom"])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("shape", [(10, 25), (20, 8)], ids=["overcomplete", "undercomplete"])
    def test_matches_or_beats_plain_ista(self, shape, warm, variant):
        for seed in range(6):
            d, x, lam, start = lasso_case(seed, shape, warm)
            if variant == "zero-weight":
                if shape[1] > shape[0]:
                    pytest.skip("an overcomplete dictionary fits the inputs exactly at zero "
                                "weight, so the bounds relative to a zero optimum compare rounding")
                lam = 0.0
            elif variant == "zero-optimum":  # above |2 D^T x|_inf every code is zero
                lam = 1.5 * float(np.abs(2.0 * d.T @ x).max())
            elif variant == "dead-atom":
                d[:, seed % shape[1]] = 0.0
            for cfg in (IstaConfig(), IstaConfig(max_iters=4000, rel_tol=1e-9),
                        IstaConfig(max_iters=6), IstaConfig(max_iters=1),
                        IstaConfig(max_iters=2), IstaConfig(max_iters=3)):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    codes, trace = ista_sparse_code(d, x, lam, cfg, start, return_trace=True)
                warned = any(issubclass(w.category, RuntimeWarning) for w in caught)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    assert np.array_equal(codes, ista_sparse_code(d, x, lam, cfg, start))
                    if warm:  # ridge_code's codes, a usual warm start, are in Fortran order
                        fortran = np.asfortranarray(start)
                        assert np.array_equal(codes, ista_sparse_code(d, x, lam, cfg, fortran))
                    want, _, _ = oracle_ista(d, x, lam, cfg, start)
                iters = len(trace) - 1
                assert 1 <= iters <= cfg.max_iters
                assert (np.diff(trace) <= 1e-12 * np.abs(trace[:-1])).all()
                got = sparse_objective(d, x, codes, lam)
                assert abs(trace[-1] - got) <= 1e-10 * got
                zero = np.zeros_like(codes) if start is None else start
                assert got <= sparse_objective(d, x, zero, lam) * (1 + 1e-12)
                assert got <= sparse_objective(d, x, want, lam) * (1 + 1e-10)
                if warned:
                    assert iters == cfg.max_iters
                else:
                    assert kkt_within_stop_rule(d, x, codes, lam, cfg)
                if cfg.max_iters == 4000:
                    assert not warned

    def test_ill_conditioned_problem_needs_a_third_of_the_iterations(self):
        rng = RNG(23)
        left, _ = np.linalg.qr(rng.normal(size=(30, 20)))
        right, _ = np.linalg.qr(rng.normal(size=(20, 20)))
        d = left @ np.diag(np.geomspace(1.0, 1e-2, 20)) @ right.T
        x = d @ rng.normal(size=(20, 10)) + 0.01 * rng.normal(size=(30, 10))
        cfg = IstaConfig(max_iters=100_000, rel_tol=1e-7)
        want, oracle_iters, met = oracle_ista(d, x, 1e-3, cfg)
        codes, trace = ista_sparse_code(d, x, 1e-3, cfg, return_trace=True)
        assert met
        assert len(trace) - 1 <= oracle_iters / 3
        assert sparse_objective(d, x, codes, 1e-3) <= sparse_objective(d, x, want, 1e-3) * (1 + 1e-10)
        assert kkt_within_stop_rule(d, x, codes, 1e-3, cfg)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_well_conditioned_dense_problem_takes_a_handful_of_iterations(self, warm):
        """The active-set rounds reach this optimum exactly, where FISTA alone
        runs dozens of iterations."""
        rng = RNG(31)
        d = rng.normal(size=(40, 12))
        truth = rng.normal(size=(12, 30))
        x = d @ truth + 0.1 * rng.normal(size=(40, 30))
        start = truth + 0.3 * rng.normal(size=truth.shape) if warm else None
        cfg = IstaConfig(max_iters=5000, rel_tol=1e-9)
        want, oracle_iters, met = oracle_ista(d, x, 0.5, cfg, start)
        codes, trace = ista_sparse_code(d, x, 0.5, cfg, start, return_trace=True)
        assert met and oracle_iters > 30
        assert np.count_nonzero(codes) > 0.9 * codes.size
        assert len(trace) - 1 <= 6
        assert sparse_objective(d, x, codes, 0.5) <= sparse_objective(d, x, want, 0.5) * (1 + 1e-12)
        assert kkt_within_stop_rule(d, x, codes, 0.5, cfg)

    def test_a_column_that_reaches_its_solution_is_not_solved_again(self, monkeypatch):
        """Column 0 is sign-consistent: the first ISTA step has the support and
        signs of its optimum, so the segment to its restricted solution is
        lowest at the end. The line search lands a rounding error short of
        it, and the column still leaves the rounds that the other columns go
        on with."""
        rng = RNG(1)
        d = rng.normal(size=(20, 8))
        x = rng.normal(size=(20, 6))
        truth = rng.choice([-1, 1], size=8) * rng.uniform(1, 2, size=8)
        x[:, 0] = d @ truth
        solved, steps = [], []
        columns, segment_minimum = kernels._Lasso.columns, kernels._segment_minimum

        def recording_columns(self, cols, *buffers):
            solved.append(cols.copy())
            return columns(self, cols, *buffers)

        def recording_segment_minimum(*args):
            steps.append(segment_minimum(*args))
            return steps[-1].copy()

        monkeypatch.setattr(kernels._Lasso, "columns", recording_columns)
        monkeypatch.setattr(kernels, "_segment_minimum", recording_segment_minimum)
        codes = ista_sparse_code(d, x, 0.5)
        assert (np.sign(codes[:, 0]) == np.sign(truth)).all()
        assert list(solved[0]) == list(range(6))
        assert 1.0 - 1e-12 <= steps[0][0] < 1.0
        assert len(solved) > 1
        assert not any(0 in cols for cols in solved[1:])

    @pytest.mark.parametrize("where", ["dictionary", "inputs", "warm_start"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, where, bad):
        args = {"dictionary": np.eye(3), "inputs": np.ones((3, 2)), "warm_start": np.zeros((3, 2))}
        args[where][1, 1] = bad
        with pytest.raises(ValueError, match=f"{where} must not contain infs or NaNs"):
            ista_sparse_code(args["dictionary"], args["inputs"], 0.1,
                             warm_start=args["warm_start"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
    def test_bad_l1_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="l1_weight must be finite and >= 0"):
            ista_sparse_code(np.eye(3), np.ones((3, 2)), bad)

    def test_zero_dictionary_rejected(self):
        with pytest.raises(ValueError, match="spectral norm"):
            ista_sparse_code(np.zeros((4, 3)), np.ones((4, 2)), 0.1)

    def test_empty_input_gives_empty_codes(self):
        codes = ista_sparse_code(np.eye(3), np.zeros((3, 0)), 0.1)
        assert codes.shape == (3, 0)

    def test_objective_formula(self):
        rng = RNG(14)
        d = rng.normal(size=(5, 4))
        x = rng.normal(size=(5, 3))
        z = rng.normal(size=(4, 3))
        got = sparse_objective(d, x, z, 0.3)
        want = float(np.sum((x - d @ z) ** 2) + 0.3 * np.sum(np.abs(z)))
        assert abs(got - want) < 1e-12

    def test_default_policy_epsilon_scale(self):
        assert DEFAULT_RIDGE.epsilon_scale == 1e-10


class TestSettingsRejectNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_ista_config(self, bad):
        with pytest.raises(ValueError, match="rel_tol must be finite"):
            IstaConfig(rel_tol=bad)
        with pytest.raises(ValueError, match="step must be finite"):
            IstaConfig(step=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_ridge_policy(self, bad):
        with pytest.raises(ValueError, match="epsilon_scale must be finite"):
            RidgePolicy(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_trainer_configs(self, bad):
        with pytest.raises(ValueError, match="l1_weight must be finite"):
            TrainConfig(depth=1, layer_sizes=(4,), l1_weight=bad)
        with pytest.raises(ValueError, match="alphas must be finite"):
            DdlicConfig(depth=2, layer_sizes=(4, 2), alphas=(0.1, bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_experiment_config(self, bad):
        with pytest.raises(ValueError, match="alphas must be finite"):
            ExperimentConfig(layer_sizes=(4,), alphas=(bad,))
        with pytest.raises(ValueError, match="l1_weight must be finite"):
            ExperimentConfig(layer_sizes=(4,), alphas=(0.1,), l1_weight=bad)
        with pytest.raises(ValueError, match="alpha_grid must be non-empty with finite"):
            ExperimentConfig(layer_sizes=(4,), alphas=(0.1,), alpha_grid=(0.0, bad))


# Each call breaks one input check; the match is that check's own message.
SHAPE_CHECKS = {
    "gram_solver_non_square": (
        lambda: gram_solver(np.eye(3)[:, :2]), "gram must be square"),
    "dictionary_solve_vector_inputs": (
        lambda: solve_least_squares_dictionary(np.ones(4), np.ones((2, 4))),
        "inputs and codes must be 2-D matrices"),
    "dictionary_solve_no_code_rows": (
        lambda: solve_least_squares_dictionary(np.ones((3, 4)), np.ones((0, 4))),
        "codes must have at least one row"),
    "ridge_code_vector_inputs": (
        lambda: ridge_code(np.eye(3), np.ones(3)), "dictionary and inputs must be 2-D matrices"),
    "ridge_code_row_mismatch": (
        lambda: ridge_code(np.eye(3), np.ones((4, 2))),
        "row counts differ: dictionary has 3, inputs has 4"),
    "qr_init_vector_data": (
        lambda: qr_orthonormal_init(np.ones(5), 1), "data must be a 2-D matrix"),
    "qr_init_no_atoms": (
        lambda: qr_orthonormal_init(np.ones((3, 5)), 0), "n_atoms must be >= 1"),
    "random_init_no_rows": (
        lambda: random_dictionary_init(0, 3), "rows and cols must be >= 1"),
    "random_init_no_cols": (
        lambda: random_dictionary_init(3, 0), "rows and cols must be >= 1"),
    "initial_dictionary_unknown_mode": (
        lambda: initial_dictionary(np.ones((3, 5)), 2, 1, "svd", 0), "unknown init mode: 'svd'"),
    "initial_dictionary_layer_zero": (
        lambda: initial_dictionary(np.ones((3, 5)), 2, 0, "random", 0),
        "layer numbering starts at 1"),
    "ista_config_no_iterations": (
        lambda: IstaConfig(max_iters=0), "max_iters must be >= 1"),
    "ista_vector_inputs": (
        lambda: ista_sparse_code(np.eye(3), np.ones(3), 0.1),
        "dictionary and inputs must be 2-D matrices"),
    "ista_row_mismatch": (
        lambda: ista_sparse_code(np.eye(3), np.ones((4, 2)), 0.1),
        "row counts differ: dictionary has 3, inputs has 4"),
    "ista_warm_start_shape": (
        lambda: ista_sparse_code(np.eye(3), np.ones((3, 2)), 0.1, warm_start=np.zeros((2, 3))),
        "warm_start has the wrong shape"),
}


@pytest.mark.parametrize("call, message", SHAPE_CHECKS.values(), ids=SHAPE_CHECKS.keys())
def test_input_checks_reject_bad_shapes(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()

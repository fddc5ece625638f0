"""Gram solves, dictionary initialization, and the sparse coding loop."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from deepdict.baseline import TrainConfig
from deepdict.harness import ExperimentConfig
from deepdict.intraclass import DdlicConfig
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

    def test_bit_identical_to_scipy_cholesky(self):
        rng = RNG(17)
        for k in (1, 5, 12):
            a = rng.normal(size=(k, 3 * k))
            gram = a @ a.T
            eps = DEFAULT_RIDGE.epsilon_scale * float(np.trace(gram)) / k
            factor = scipy.linalg.cho_factor(gram + eps * np.eye(k))
            solve = gram_solver(gram)
            for rhs in (rng.normal(size=k), rng.normal(size=(k, 4))):
                assert np.array_equal(solve(rhs), scipy.linalg.cho_solve(factor, rhs))

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

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("shape", [(10, 25), (20, 8)], ids=["overcomplete", "undercomplete"])
    def test_matches_or_beats_plain_ista(self, shape, warm):
        for seed in range(6):
            d, x, lam, start = lasso_case(seed, shape, warm)
            for cfg in (IstaConfig(), IstaConfig(max_iters=4000, rel_tol=1e-9),
                        IstaConfig(max_iters=6)):
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

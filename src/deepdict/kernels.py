"""Dense linear-algebra kernels shared by the layer-wise trainers.

Everything here is a function of its inputs plus an explicit seed where
randomness is involved, so kernels can run concurrently on shared
read-only matrices. Samples are columns throughout. The one other input is
the context variable ``_SOLVE_HELPER``: while ``baseline.alternate_layer``
sets it to its helper thread's executor, a pair of large independent
products hands one of them to that helper through ``_paired``, with
bit-identical results. Every product runs whole on one thread.
"""

from __future__ import annotations

import contextvars
import copy
import ctypes
import functools
import glob
import importlib.machinery
import importlib.util
import math
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy

__all__ = [
    "RidgePolicy",
    "DEFAULT_RIDGE",
    "IstaConfig",
    "gram_solver",
    "solve_least_squares_dictionary",
    "ridge_code",
    "qr_orthonormal_init",
    "random_dictionary_init",
    "initial_dictionary",
    "gram_spectral_norm",
    "ista_sparse_code",
    "sparse_objective",
]


@dataclass(frozen=True)
class RidgePolicy:
    """Stabilization for Gram-matrix solves.

    Before factorization, ``epsilon_scale * mean(diag(G))`` is added to the
    diagonal of a Gram matrix ``G``. The default keeps the perturbation ten
    orders of magnitude below the data scale: well-posed solves are
    unaffected while rank-deficient ones degrade gracefully toward the
    pseudo-inverse solution.
    """

    epsilon_scale: float = 1e-10

    def __post_init__(self) -> None:
        if not 0 <= self.epsilon_scale < math.inf:
            raise ValueError("epsilon_scale must be finite and >= 0")


DEFAULT_RIDGE = RidgePolicy()


def _lapack_cholesky():
    """LAPACK's ``dpotrf``, ``dpotrs``, ``dpocon`` and ``dpotri`` from SciPy's
    compiled wrapper module alone.

    Importing ``scipy.linalg`` also imports ``scipy.sparse`` and most of SciPy
    (about 24 MB and 0.2 s per process with SciPy 1.17), for four routines. The
    module is registered under its own name, so a later ``import scipy.linalg``
    reuses it and ``get_lapack_funcs`` returns these same wrapper objects.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(os.path.dirname(scipy.__file__), "linalg")]
        )
        if spec is None:
            raise ImportError(f"cannot find SciPy's LAPACK wrapper module {name}", name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module.dpotrf, module.dpotrs, module.dpocon, module.dpotri


# Called directly: the scipy.linalg.cho_factor/cho_solve wrappers cost about
# ten times the LAPACK work on the small systems the trainers solve per column.
_POTRF, _POTRS, _POCON, _POTRI = _lapack_cholesky()


def _openblas_libraries(package) -> list[ctypes.CDLL]:
    """The OpenBLAS copies that ``package``'s wheel bundles in ``<package>.libs``.

    NumPy's and SciPy's wheels each ship their own ``libscipy_openblas*.so``;
    SciPy's is the one its LAPACK wrapper module links. Another install may
    ship none, and then the list is empty.
    """
    libs = os.path.join(os.path.dirname(package.__path__[0]), f"{package.__name__}.libs")
    return [ctypes.CDLL(path) for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so"))]


# While ``baseline.alternate_layer`` runs with a helper thread: that helper's
# executor. ``_paired`` runs the helper's call with this unset, so work on the
# helper never hands work to itself.
_SOLVE_HELPER: contextvars.ContextVar = contextvars.ContextVar("_SOLVE_HELPER", default=None)

# Below this many multiply-adds in the helper's call, a pair of independent
# products runs in sequence (``_pair_helper``). On a 2-core x86-64 VM with one
# BLAS thread, pairing the 2.0 M products of the `paper-scale` layer-3 sweep
# gained nothing (within 1-7 % either way, interleaved medians of 30-80 layers).
_PAIR_MIN_WORK = 1 << 22


def _pair_helper(work: int):
    """The helper for a pair whose helper call costs ``work`` multiply-adds, or None."""
    return _SOLVE_HELPER.get() if work >= _PAIR_MIN_WORK else None


def _paired(first: Callable, second: Callable, helper) -> tuple:
    """``(first(), second())`` for two independent calls.

    With a ``helper`` executor, the helper runs ``first`` in a copy of this
    thread's ``contextvars`` context (``np.errstate`` included) with
    ``_SOLVE_HELPER`` unset, while this thread runs ``second``. ``first`` is
    joined before this returns or raises, and its error wins, as in
    sequence. With ``helper=None`` the two calls run in sequence here. Each
    call runs whole and once, so the results are those of calls in sequence.
    """
    if helper is None:
        return first(), second()
    context = contextvars.copy_context()
    context.run(_SOLVE_HELPER.set, None)
    future = helper.submit(context.run, first)
    try:
        result = second()
    finally:
        head = future.result()
    return head, result


def _require_finite(array: np.ndarray, name: str) -> None:
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must not contain infs or NaNs")


@functools.lru_cache(maxsize=16)
def _strict_lower(k: int) -> np.ndarray:
    """The read-only mask of a ``k x k`` matrix's entries below the diagonal."""
    mask = np.tri(k, k, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _spd_inverse(matrix: np.ndarray, rcond_floor: float, overwrite: bool = False):
    """Cholesky-factor the symmetric ``matrix`` and invert it when that is accurate.

    Returns ``(None, inverse)``, the symmetrized ``dpotri`` inverse, when
    LAPACK's ``dpocon`` estimates the reciprocal condition number at
    ``rcond_floor`` or above; ``(factor, None)``, the upper Cholesky
    factor, when the matrix factors below that floor; and ``(None, None)``
    when it does not factor. ``overwrite`` lets the factorization take
    over an F-contiguous float ``matrix``.
    """
    norm = float(np.abs(matrix).sum(axis=0).max())  # the 1-norm, before potrf overwrites it
    factor, info = _POTRF(matrix, lower=0, clean=0, overwrite_a=overwrite)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of potrf")
    if info > 0:
        return None, None
    rcond, info = _POCON(factor, norm)
    if info != 0 or not rcond >= rcond_floor:
        return factor, None
    inverse, _ = _POTRI(factor, lower=0, overwrite_c=1)  # fills the upper triangle
    np.copyto(inverse, inverse.T, where=_strict_lower(inverse.shape[0]))
    return None, inverse


# At or above this estimate of 1/cond, a ridged Gram system is applied as one
# product with its explicit inverse, accurate to about cond * machine epsilon
# (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 14).
# On a 2-core x86-64 VM with one BLAS thread, that product took 0.2-0.4 times
# as long as the triangular solves (``dpotrs``) at 24 to 400 atoms, though
# forming the inverse costs about four times the factorization alone.
_RIDGED_RCOND = 1e-6


def _ridged_factor(gram: np.ndarray, policy: RidgePolicy, shift: float = 0.0):
    """``gram_solver``'s factorization of ``gram + shift * I``, in one private copy.

    Returns ``(None, inverse)`` of ``gram + (shift + eps) * I``, with
    ``eps`` the policy's ridge on that matrix's mean diagonal, when
    ``_spd_inverse`` finds it well conditioned (``_RIDGED_RCOND``); else
    ``(factor, None)``, its upper Cholesky factor; or
    ``(None, pinv(gram + shift * I))`` when that factorization fails. A
    non-finite diagonal raises ``ValueError``; in a Gram matrix no entry is
    larger than the largest diagonal entry, so a caller that forms one from
    checked inputs needs no full check.
    """
    k = gram.shape[0]
    ridged = np.array(gram, dtype=float, order="F")
    diagonal = ridged.ravel(order="F")[:: k + 1]  # a view: the diagonal is shifted in place
    diagonal += shift
    trace = float(diagonal.sum())
    if not math.isfinite(trace):
        raise ValueError("gram must not contain infs or NaNs")
    diagonal += policy.epsilon_scale * (trace / k if k else 0.0)
    factor, inverse = _spd_inverse(ridged, _RIDGED_RCOND, overwrite=True)
    if factor is not None or inverse is not None:
        return factor, inverse
    try:
        return None, np.linalg.pinv(gram + shift * np.eye(k) if shift else gram)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "Gram matrix factorization failed even after ridge stabilization"
        ) from exc


def _solve_factored(factor, inverse, rhs: np.ndarray) -> np.ndarray:
    """Solve with a ``_ridged_factor`` result, unchecked.

    With an inverse (well conditioned, or the pseudo-inverse) the solution
    is the new array ``inverse @ rhs``. A factored solve overwrites an
    F-contiguous float ``rhs`` and returns it.
    """
    if factor is None:
        return inverse @ rhs
    solution, status = _POTRS(factor, rhs, lower=0, overwrite_b=1)
    if status != 0:
        raise ValueError(f"illegal value in argument {-status} of potrs")
    return solution


def gram_solver(gram: np.ndarray, policy: RidgePolicy = DEFAULT_RIDGE) -> Callable[[np.ndarray], np.ndarray]:
    """Return a solver for ``(gram + eps*I) x = rhs``.

    Symmetric positive-definite (Cholesky) factorization of the ridged Gram
    matrix is the primary path. When LAPACK's ``dpocon`` estimates its
    reciprocal condition number at ``1e-6`` or above, the solver applies
    the explicit inverse from that factor as one product; below, it solves
    with the factor (``dpotrs``). On factorization failure the solver falls
    back to the pseudo-inverse of the raw Gram matrix. The returned callable
    accepts a vector or a matrix right-hand side and can be reused across
    many solves against the same Gram matrix. Non-finite entries in the Gram
    matrix or in a right-hand side raise ``ValueError``.
    """
    k = gram.shape[0]
    if gram.shape != (k, k):
        raise ValueError("gram must be square")
    _require_finite(gram, "gram")
    factor, inverse = _ridged_factor(gram, policy)

    def solve(rhs: np.ndarray) -> np.ndarray:
        _require_finite(rhs, "right-hand side")
        if factor is not None:
            rhs = np.array(rhs, dtype=float, order="F")  # solved in place, so a private copy
        return _solve_factored(factor, inverse, rhs)

    return solve


def solve_least_squares_dictionary(
    inputs: np.ndarray,
    codes: np.ndarray,
    policy: RidgePolicy = DEFAULT_RIDGE,
) -> np.ndarray:
    """Best reconstruction dictionary for ``inputs ~ dictionary @ codes``.

    Minimizes the squared Frobenius reconstruction error over the dictionary
    with the codes held fixed, via the normal equations on the code Gram
    matrix, solved as ``gram_solver`` solves them. Non-finite inputs or
    codes, or a dictionary that overflows, raise ``ValueError``. The
    products, the factor and the solve all run on this thread.
    """
    if inputs.ndim != 2 or codes.ndim != 2:
        raise ValueError("inputs and codes must be 2-D matrices")
    if inputs.shape[1] != codes.shape[1]:
        raise ValueError(
            f"column counts differ: inputs has {inputs.shape[1]}, codes has {codes.shape[1]}"
        )
    if codes.shape[0] < 1:
        raise ValueError("codes must have at least one row")
    _require_finite(inputs, "inputs")
    _require_finite(codes, "codes")
    factor, inverse = _ridged_factor(codes @ codes.T, policy)
    dictionary = _solve_factored(factor, inverse, (inputs @ codes.T).T).T
    _require_finite(dictionary, "dictionary")
    return dictionary


def ridge_code(
    dictionary: np.ndarray,
    inputs: np.ndarray,
    policy: RidgePolicy = DEFAULT_RIDGE,
) -> np.ndarray:
    """Dense least-squares codes for ``inputs ~ dictionary @ codes``.

    Inside ``baseline.alternate_layer``, when ``dictionary.T @ dictionary``
    costs at least ``_PAIR_MIN_WORK`` multiply-adds, the helper forms and
    factors it while this thread forms ``dictionary.T @ inputs``
    (``_paired``); the result is bit-identical.
    """
    if dictionary.ndim != 2 or inputs.ndim != 2:
        raise ValueError("dictionary and inputs must be 2-D matrices")
    if dictionary.shape[0] != inputs.shape[0]:
        raise ValueError(
            f"row counts differ: dictionary has {dictionary.shape[0]}, inputs has {inputs.shape[0]}"
        )
    solve, corr = _paired(
        lambda: gram_solver(dictionary.T @ dictionary, policy),
        lambda: dictionary.T @ inputs,
        _pair_helper(dictionary.shape[1] ** 2 * dictionary.shape[0]),
    )
    return solve(corr)


def qr_orthonormal_init(data: np.ndarray, n_atoms: int, seed: int = 0) -> np.ndarray:
    """Orthonormal starting dictionary from a QR factorization of the data.

    Returns the first ``n_atoms`` columns of an orthonormal basis whose
    leading columns come from the data itself. If the numerical rank of the
    data is below ``n_atoms``, the basis is padded with seeded random
    directions and re-orthonormalized, so the result always has exactly
    orthonormal columns.
    """
    if data.ndim != 2:
        raise ValueError("data must be a 2-D matrix")
    k0, n = data.shape
    if n_atoms < 1:
        raise ValueError("n_atoms must be >= 1")
    if n_atoms > k0:
        raise ValueError(
            f"cannot build {n_atoms} orthonormal columns in {k0}-dimensional space"
        )
    basis, _ = np.linalg.qr(data)
    svals = np.linalg.svd(data, compute_uv=False)
    tol = max(k0, n) * np.finfo(float).eps * (float(svals[0]) if svals.size else 0.0)
    rank = int(np.count_nonzero(svals > tol))
    if rank >= n_atoms:
        return basis[:, :n_atoms].copy()
    rng = np.random.default_rng(seed)
    pad = rng.standard_normal((k0, n_atoms - rank))
    padded, _ = np.linalg.qr(np.concatenate([basis[:, :rank], pad], axis=1))
    return padded[:, :n_atoms]


def random_dictionary_init(rows: int, cols: int, seed: int = 0) -> np.ndarray:
    """Seeded Gaussian dictionary with unit-norm columns."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    atoms = np.random.default_rng(seed).standard_normal((rows, cols))
    norms = np.linalg.norm(atoms, axis=0)
    norms[norms == 0] = 1.0
    return atoms / norms


def initial_dictionary(
    inputs: np.ndarray,
    n_atoms: int,
    layer: int,
    mode: str,
    seed: int,
) -> np.ndarray:
    """Starting dictionary for one layer of a greedy stack.

    ``mode="qr"`` uses an orthonormal basis of the layer input for the first
    layer and seeded random unit-norm atoms for deeper layers;
    ``mode="random"`` uses random atoms everywhere. Deterministic in
    (inputs, layer, seed), and shared by both trainers so that runs with the
    same seed start identically.
    """
    if mode not in ("qr", "random"):
        raise ValueError(f"unknown init mode: {mode!r}")
    if layer < 1:
        raise ValueError("layer numbering starts at 1")
    if mode == "qr" and layer == 1:
        return qr_orthonormal_init(inputs, n_atoms, seed + layer)
    return random_dictionary_init(inputs.shape[0], n_atoms, seed + layer)


def _check_stack_settings(cfg) -> None:
    """Reject stack settings that neither trainer can run.

    ``cfg`` is either trainer's config; both call this, so they validate the
    depth, layer sizes, iterations, init mode and seed they share alike.
    """
    if cfg.depth < 1:
        raise ValueError("depth must be >= 1")
    if len(cfg.layer_sizes) != cfg.depth:
        raise ValueError("layer_sizes length must equal depth")
    if any(k < 1 for k in cfg.layer_sizes):
        raise ValueError("layer sizes must be >= 1")
    if cfg.iters_per_layer < 1:
        raise ValueError("iters_per_layer must be >= 1")
    if cfg.init not in ("qr", "random"):
        raise ValueError(f"unknown init mode: {cfg.init!r}")
    if cfg.seed < 0:
        raise ValueError("seed must be non-negative")


def _check_trained_stack(cfg, dictionaries, codes, traces, labels) -> None:
    """Reject a trained stack whose parts do not fit its settings or each other.

    ``codes`` holds each layer's training codes, ``None`` for a layer whose
    codes the model does not keep. ``labels`` (optional) holds one entry per
    training column. Both models call this, so a model directory with missing,
    extra or non-finite parts fails at load time, not in a later evaluation.
    """
    sizes = cfg.layer_sizes
    if not len(dictionaries) == len(codes) == len(traces) == len(sizes):
        raise ValueError(
            f"expected one dictionary, code matrix and trace per layer ({len(sizes)}), got "
            f"{len(dictionaries)}, {len(codes)} and {len(traces)}"
        )
    n_train = [z for z in codes if z is not None][-1].shape[1]
    for layer, (d, z, k) in enumerate(zip(dictionaries, codes, sizes), start=1):
        if d.shape[1] != k or (z is not None and z.shape[0] != k):
            raise ValueError(f"layer {layer} shapes do not match its size {k}")
        if layer > 1 and d.shape[0] != sizes[layer - 2]:
            raise ValueError(f"layer {layer} dictionary rows do not chain")
        if z is not None and z.shape[1] != n_train:
            raise ValueError(f"layer {layer} codes have {z.shape[1]} columns, expected {n_train}")
    if labels is not None and np.shape(labels) != (n_train,):
        raise ValueError(f"{np.size(labels)} training labels for {n_train} training columns")
    if not all(np.isfinite(m).all() for m in [*dictionaries, *codes] if m is not None):
        raise ValueError("dictionaries and training codes must be finite")


@dataclass(frozen=True)
class IstaConfig:
    """Sparse coding settings.

    ``step=None`` derives the step size from the dictionary's spectral norm
    by power iteration; a fixed positive step can be supplied instead.
    Coding stops once a plain soft-thresholding (ISTA) step moves the codes
    by at most ``rel_tol`` times their norm. ``max_iters`` bounds all
    iterations of a call.
    """

    max_iters: int = 500
    rel_tol: float = 1e-6
    step: float | None = None

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0 < self.rel_tol < math.inf:
            raise ValueError("rel_tol must be finite and > 0")
        if self.step is not None and not 0 < self.step < math.inf:
            raise ValueError("step must be finite and > 0 when given")


def gram_spectral_norm(gram: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric PSD matrix: at most 50 power iterations, to 1e-8."""
    k = gram.shape[0]
    v = np.random.default_rng(0).standard_normal(k)
    v /= np.linalg.norm(v)
    estimate = 0.0
    for _ in range(50):
        w = gram @ v
        new_estimate = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
        if abs(new_estimate - estimate) <= 1e-8 * abs(new_estimate):
            return max(new_estimate, 0.0)
        estimate = new_estimate
    return max(estimate, 0.0)


def sparse_objective(
    dictionary: np.ndarray,
    inputs: np.ndarray,
    codes: np.ndarray,
    l1_weight: float,
    out: np.ndarray | None = None,
) -> float:
    """Squared reconstruction error plus the weighted L1 norm of the codes.

    ``out``, a C-contiguous float array of ``inputs``' shape, takes the
    residual instead of a new array.
    """
    resid = np.matmul(dictionary, codes, out=out)
    np.subtract(inputs, resid, out=resid)
    np.multiply(resid, resid, out=resid)
    return float(resid.sum() + l1_weight * np.abs(codes).sum())


class _Lasso:
    """Soft-thresholding steps and per-column objectives of one lasso problem.

    The caller supplies each Gram product ``gram @ codes``, so a solver pays
    for one per iteration, and owns the output buffers. ``scratch`` is free
    again when a method returns.
    """

    def __init__(self, gram, corr, inputs, l1_weight: float, step: float) -> None:
        self.gram, self.corr = gram, corr
        self.l1_weight, self.step = l1_weight, step
        self.threshold = 0.5 * step * l1_weight
        self.sq_inputs = np.einsum("ij,ij->j", inputs, inputs)
        self.scratch = np.empty(corr.shape)

    def columns(self, cols: np.ndarray, corr: np.ndarray, scratch: np.ndarray) -> _Lasso:
        """The same problem on the columns ``cols`` alone, in the given buffers."""
        part = copy.copy(self)
        part.corr = np.take(self.corr, cols, axis=1, out=corr)
        part.sq_inputs, part.scratch = self.sq_inputs[cols], scratch
        return part

    def step_into(self, out: np.ndarray, codes: np.ndarray, gram_codes: np.ndarray) -> None:
        """One ISTA step from ``codes``: soft-threshold ``codes - step * gradient``."""
        shifted = self.scratch
        np.subtract(gram_codes, self.corr, out=shifted)
        np.multiply(shifted, -self.step, out=shifted)
        shifted += codes
        # v - clip(v, -t, t) equals sign(v) * max(|v| - t, 0) bit for bit
        np.clip(shifted, -self.threshold, self.threshold, out=out)
        np.subtract(shifted, out, out=out)

    def objective(self, codes: np.ndarray, gram_codes: np.ndarray) -> np.ndarray:
        """Each column's squared reconstruction error plus weighted L1 norm."""
        value = np.einsum("ij,ij->j", codes, gram_codes)
        value -= 2.0 * np.einsum("ij,ij->j", codes, self.corr)
        value += self.sq_inputs
        np.abs(codes, out=self.scratch)
        value += self.l1_weight * self.scratch.sum(axis=0)
        return value


def _accelerate(lasso: _Lasso, codes, gram_codes, budget: int, rel_tol: float, trace):
    """FISTA from ``codes`` with per-column adaptive restart.

    Takes over ``codes`` and ``gram_codes`` (``gram @ codes``) as buffers.
    Runs at most ``budget`` iterations, and stops early once the step from
    the extrapolated point ``y`` moves by at most ``rel_tol * |y|``. A
    column's momentum restarts when its step opposes it. Returns each
    column's best codes so far by that column's objective, so never worse
    than ``codes``, and the iterations run. ``trace``, if a list, gets the
    kept codes' objective after every iteration.
    """
    prev, gram_prev = codes, gram_codes
    y, gram_y = codes.copy(), gram_codes.copy()
    z, gram_z = np.empty_like(codes), np.empty_like(codes)
    kept = np.empty_like(codes)  # the best codes of columns whose best is not in ``prev``
    best = lasso.objective(prev, gram_prev)
    best_in_prev = np.ones(best.shape, dtype=bool)
    theta = np.ones(best.shape)
    iters = 0
    while iters < budget:
        iters += 1
        lasso.step_into(z, y, gram_y)
        np.matmul(lasso.gram, z, out=gram_z)
        objective = lasso.objective(z, gram_z)
        improved = objective < best
        leaving = best_in_prev & ~improved  # best in ``prev``, which is reused below
        if leaving.any():
            kept[:, leaving] = prev[:, leaving]
        best_in_prev = improved
        np.copyto(best, objective, where=improved)
        if trace is not None:
            trace.append(float(best.sum()))
        moved = np.subtract(z, y, out=lasso.scratch)
        prev, z = z, prev
        gram_prev, gram_z = gram_z, gram_prev
        if np.linalg.norm(moved) <= rel_tol * np.linalg.norm(y):
            break
        # y turns into the momentum prev - z (new minus old), then the next point
        momentum = np.subtract(prev, z, out=y)
        restart = np.einsum("ij,ij->j", moved, momentum) < 0  # <y - z, z - x> > 0
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
        beta = (theta - 1.0) / theta_next
        theta_next[restart] = 1.0
        beta[restart] = 0.0
        theta = theta_next
        momentum *= beta
        y += prev
        # gram @ y from the products in hand
        np.subtract(gram_prev, gram_z, out=gram_y)
        gram_y *= beta
        gram_y += gram_prev
    kept[:, best_in_prev] = prev[:, best_in_prev]
    return kept, iters


_ACTIVE_SET_ROUNDS = 8  # at most this many active-set rounds per call
_ACTIVE_SET_RCOND = 1e-8  # below this estimate of 1/cond(gram) the rounds are skipped
_SEGMENT_END = 1e-12  # a segment minimum this close to its end is rounding short of it


def _restricted_solve(lasso: _Lasso, inverse, signs, out, multipliers) -> None:
    """Each column's lasso optimum for a fixed support and signs, into ``out``.

    Column ``j`` solves ``gram[A, A] z_A = corr[A, j] - l1_weight/2 * signs[A, j]``
    on its support ``A`` (the nonzero ``signs``), with zeros elsewhere. All
    columns take one product with ``inverse``. A column's ``m`` excluded atoms
    then get Lagrange multipliers from an ``m × m`` solve on ``inverse``'s
    Schur complement, into ``multipliers`` (same shape as ``out``), which a
    second product with ``inverse`` applies. Columns are grouped by ``m``
    and batched at most about ``out.size`` matrix entries at a time.
    """
    rhs = lasso.scratch
    np.multiply(signs, -0.5 * lasso.l1_weight, out=rhs)
    rhs += lasso.corr
    np.matmul(inverse, rhs, out=out)
    excluded = signs == 0
    counts = np.count_nonzero(excluded, axis=0)
    multipliers.fill(0.0)
    k = out.shape[0]
    # a column with no support (m = k) is zeroed below whatever its multipliers
    for m in np.flatnonzero(np.bincount(counts, minlength=k)[1:k]) + 1:
        columns = np.flatnonzero(counts == m)
        step = max(1, out.size // (m * m))
        for start in range(0, columns.size, step):
            cols = columns[start:start + step]
            atoms = np.nonzero(excluded[:, cols].T)[1].reshape(cols.size, m)
            block = inverse[atoms[:, :, None], atoms[:, None, :]]
            multipliers[atoms, cols[:, None]] = np.linalg.solve(
                block, out[atoms, cols[:, None]][..., None])[..., 0]
    out -= np.matmul(inverse, multipliers, out=rhs)  # the right-hand sides are spent
    out[excluded] = 0.0


def _segment_minimum(lasso: _Lasso, codes, gram_codes, delta, gram_delta) -> np.ndarray:
    """Per column, the ``t`` in [0, 1] that minimizes the objective at ``codes + t * delta``.

    Along the segment the objective's slope is ``a t + b`` plus a step that
    rises by ``2 * l1_weight * |delta_i|`` where entry ``i`` crosses zero. The
    minimum lies where that slope changes sign: in the first piece for most
    columns, otherwise found by walking the sorted crossings.
    """
    curvature = 2.0 * np.einsum("ij,ij->j", delta, gram_delta)
    slope = 2.0 * np.einsum("ij,ij->j", delta, gram_codes)
    slope -= 2.0 * np.einsum("ij,ij->j", delta, lasso.corr)
    signs = np.sign(codes, out=lasso.scratch)  # a zero entry moves the way of ``delta``
    zero = codes == 0
    signs[zero] = np.sign(delta[zero])
    slope += lasso.l1_weight * np.einsum("ij,ij->j", signs, delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        crossing = np.divide(codes, delta)
        np.negative(crossing, out=crossing)
        crossing[~((crossing > 0) & (crossing < 1))] = np.inf
        t = np.clip(np.nan_to_num(-slope / curvature, nan=0.0), 0.0, 1.0)
        walk = np.flatnonzero(t > crossing.min(axis=0))
        chunk = max(1, t.size // 4)  # bounds the sort's buffers to about a quarter of ``codes``
        for start in range(0, walk.size, chunk):
            cols = walk[start:start + chunk]
            ends = crossing[:, cols].T  # one row per column, contiguous for the sort
            order = np.argsort(ends, axis=1)
            ends = np.take_along_axis(ends, order, axis=1)
            offsets = np.take_along_axis(np.abs(delta[:, cols].T), order, axis=1)
            del order
            offsets[np.isinf(ends)] = 0.0
            np.cumsum(offsets, axis=1, out=offsets)
            offsets *= 2.0 * lasso.l1_weight
            offsets += slope[cols, None]
            # the slope just before crossing j is negative for each crossing passed
            passed = np.count_nonzero(
                curvature[cols, None] * ends[:, 1:] + offsets[:, :-1] < 0, axis=1
            ) + 1
            rows = np.arange(cols.size)
            last = ends.shape[1] - 1
            upper = np.where(passed <= last, ends[rows, np.minimum(passed, last)], 1.0)
            t[cols] = np.clip(-offsets[rows, passed - 1] / curvature[cols],
                              ends[rows, passed - 1], np.minimum(upper, 1.0))
    return t


def _active_set(lasso: _Lasso, codes, gram_codes, budget: int, trace) -> int:
    """Primal-dual active-set rounds (Hintermüller, Ito & Kunisch 2003) from ``codes``.

    Each round takes an ISTA step from the codes and reads every column's
    support and signs off it. A column is solved on them exactly
    (``_restricted_solve``) in the first round, when they differ from those
    it was last solved for, or when the last round moved it only part of the
    way. It moves from the ISTA step to the lowest point on the segment to
    that solution (``_segment_minimum``), a minimum within ``1e-12`` of the
    segment's end counting as the end, so that rounding does not solve a
    column again on the same support. It keeps the result when its
    objective is lower, in ``codes`` and ``gram_codes`` in place. Stops
    once no column's support or signs differ, or after ``budget`` rounds.
    Returns the rounds that solved (a last round that finds no change is
    not one), none when ``_spd_inverse`` finds the Gram matrix unfit.
    ``trace``, if a list, gets the kept codes' objective after every round.
    """
    inverse = _spd_inverse(lasso.gram, _ACTIVE_SET_RCOND)[1] if budget > 0 else None
    if inverse is None:
        return 0
    inverse = inverse.T  # the same symmetric matrix in C order, which sets the products' rounding
    best = lasso.objective(codes, gram_codes)
    stepped = np.empty_like(codes)
    pending = np.ones(codes.shape[1], dtype=bool)
    k, n = codes.shape
    signs, solved = np.empty((2, k, n), dtype=np.int8)
    # A round's arrays are views into these, whatever its width, so that
    # rounds reuse one block of memory instead of fragmenting the heap.
    rows = np.empty((6, k * n))
    for rounds in range(budget):
        lasso.step_into(stepped, codes, gram_codes)
        np.sign(stepped, out=signs, casting="unsafe")
        if rounds > 0:
            changed = (signs != solved).any(axis=0)
            if not changed.any():
                return rounds
            pending |= changed
        signs, solved = solved, signs
        cols = np.flatnonzero(pending)
        start, gram_start, delta, gram_delta, corr, scratch = (
            row[: k * cols.size].reshape(k, cols.size) for row in rows
        )
        np.take(stepped, cols, axis=1, out=start)
        part = lasso.columns(cols, corr, scratch)
        np.matmul(lasso.gram, start, out=gram_start)
        _restricted_solve(part, inverse, solved[:, cols], delta, gram_delta)
        np.matmul(lasso.gram, delta, out=gram_delta)
        delta -= start
        gram_delta -= gram_start
        t = _segment_minimum(part, start, gram_start, delta, gram_delta)
        t[t >= 1.0 - _SEGMENT_END] = 1.0
        delta *= t
        start += delta
        gram_delta *= t
        gram_start += gram_delta
        objective = part.objective(start, gram_start)
        better = objective < best[cols]
        kept = cols[better]
        pending[:] = False
        pending[kept] = t[better] < 1.0  # moved, but not all the way to its solution
        codes[:, kept] = start[:, better]
        gram_codes[:, kept] = gram_start[:, better]
        best[kept] = objective[better]
        if trace is not None:
            trace.append(float(best.sum()))
    return budget


def ista_sparse_code(
    dictionary: np.ndarray,
    inputs: np.ndarray,
    l1_weight: float,
    cfg: IstaConfig = IstaConfig(),
    warm_start: np.ndarray | None = None,
    return_trace: bool = False,
):
    """Sparse codes minimizing reconstruction error plus an L1 penalty.

    Solves ``min_Z ||inputs - dictionary @ Z||_F^2 + l1_weight * ||Z||_1``
    in three phases. Primal-dual active-set rounds (Hintermüller, Ito &
    Kunisch 2003) run first, from the warm start or from zero codes. Each
    reads every column's support and signs off an ISTA step, solves the
    lasso on them exactly through the Gram matrix's inverse, moves the
    column from the ISTA step to the lowest point on the segment to that
    solution, and keeps the column's better codes. The rounds stop once no
    support or sign changes, or after a few rounds. They are skipped when
    ``dictionary.T @ dictionary`` does not factor or LAPACK's ``dpocon``
    estimates its reciprocal condition number below ``1e-8`` (overcomplete
    or dead-atom dictionaries). FISTA (Beck & Teboulle 2009) with
    per-column adaptive restart (O'Donoghue & Candes 2015) then runs from
    the kept codes and keeps each column's best codes. Last, plain
    soft-thresholding (ISTA) steps run from those until one moves them by
    at most ``cfg.rel_tol`` times their norm. That last step's result is
    returned, so the codes are certified by ISTA's stopping rule.
    ``cfg.max_iters`` bounds the iterations of all three phases together. A
    round counts as one, though it costs several FISTA steps, and a last
    round that finds no support or sign changed is not counted, so counts
    with and without the rounds compare different units. Stopping at
    ``cfg.max_iters`` before the rule holds issues a
    ``RuntimeWarning`` (one fixed message, so Python's default filter shows
    it once per calling line). With the auto-derived step the objective of
    the kept and returned codes is non-increasing. When ``return_trace`` is
    true, also returns that objective at the start and after every
    iteration, so ``len(trace) - 1`` iterations ran; the
    codes are the same either way. Non-finite inputs raise ``ValueError``.
    """
    if dictionary.ndim != 2 or inputs.ndim != 2:
        raise ValueError("dictionary and inputs must be 2-D matrices")
    if dictionary.shape[0] != inputs.shape[0]:
        raise ValueError(
            f"row counts differ: dictionary has {dictionary.shape[0]}, inputs has {inputs.shape[0]}"
        )
    if not 0 <= l1_weight < math.inf:
        raise ValueError("l1_weight must be finite and >= 0")
    _require_finite(dictionary, "dictionary")
    _require_finite(inputs, "inputs")
    n_atoms = dictionary.shape[1]
    n_samples = inputs.shape[1]
    if warm_start is not None:
        if warm_start.shape != (n_atoms, n_samples):
            raise ValueError("warm_start has the wrong shape")
        _require_finite(warm_start, "warm_start")
    if n_samples == 0:
        empty = np.zeros((n_atoms, 0))
        return (empty, np.zeros(0)) if return_trace else empty

    gram = dictionary.T @ dictionary
    corr = dictionary.T @ inputs
    if cfg.step is None:
        spectral = gram_spectral_norm(gram)
        if spectral <= 0:
            raise ValueError("dictionary has zero spectral norm; cannot derive a step size")
        step = 1.0 / spectral
    else:
        step = cfg.step
    lasso = _Lasso(gram, corr, inputs, l1_weight, step)

    if warm_start is None:
        codes, gram_codes = np.zeros((n_atoms, n_samples)), np.zeros((n_atoms, n_samples))
    else:
        # C order like every buffer below; ridge_code returns Fortran order
        codes = np.array(warm_start, dtype=float, order="C")
        gram_codes = gram @ codes
    trace = [float(lasso.objective(codes, gram_codes).sum())] if return_trace else None
    # Leave the last iteration to ISTA, so the returned codes come from its step.
    budget = cfg.max_iters - 1
    rounds = _active_set(lasso, codes, gram_codes, min(_ACTIVE_SET_ROUNDS, budget), trace)
    codes, iters = _accelerate(lasso, codes, gram_codes, budget - rounds, cfg.rel_tol, trace)
    iters += rounds
    gram_codes = gram @ codes
    new, gram_new = np.empty_like(codes), np.empty_like(codes)
    for _ in range(iters, cfg.max_iters):
        lasso.step_into(new, codes, gram_codes)
        np.matmul(gram, new, out=gram_new)
        delta = float(np.linalg.norm(np.subtract(new, codes, out=lasso.scratch)))
        reference = float(np.linalg.norm(codes))
        codes, new = new, codes
        gram_codes, gram_new = gram_new, gram_codes
        if return_trace:
            trace.append(float(lasso.objective(codes, gram_codes).sum()))
        if delta <= cfg.rel_tol * reference:
            break
    else:
        warnings.warn(
            "ISTA stopped at max_iters before meeting rel_tol", RuntimeWarning, stacklevel=2
        )
    if return_trace:
        return codes, np.asarray(trace)
    return codes

"""Output checks, each against a computation made apart from the program or a
property the method must have. None compares with a stored copy of an
earlier output. Each check raises ``CheckFailed`` with the reason.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- nearest neighbours --------------------------------------------------

def _distances(train: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """(n_train, n_queries) Euclidean distances from explicit differences."""
    out = np.empty((train.shape[1], queries.shape[1]))
    for j in range(queries.shape[1]):
        diff = train - queries[:, j:j + 1]
        out[:, j] = np.sqrt(np.einsum("ij,ij->j", diff, diff))
    return out


def _votes_by_k(dist_col: np.ndarray, labels: np.ndarray, k_max: int) -> list[int]:
    """Winning label for k = 1..k_max under the documented tie rule.

    Neighbours in order of distance, equal distances by training index; the
    winner has the most votes, then the smaller summed neighbour distance,
    then the smaller label.
    """
    order = np.argsort(dist_col, kind="stable")[:k_max]
    count: dict[int, int] = {}
    total: dict[int, float] = {}
    winners = []
    for i in order:
        label = int(labels[i])
        count[label] = count.get(label, 0) + 1
        total[label] = total.get(label, 0.0) + float(dist_col[i])
        winners.append(min(count, key=lambda c: (-count[c], total[c], c)))
    return winners


def knn_curve(train_codes, train_labels, test_codes, test_labels, ks) -> list[float]:
    """Test accuracy at each k in ``ks`` by brute force."""
    dist = _distances(train_codes, test_codes)
    k_max = max(ks)
    correct = np.zeros(k_max, dtype=np.int64)
    for j in range(test_codes.shape[1]):
        winners = _votes_by_k(dist[:, j], train_labels, k_max)
        correct += np.array(winners) == int(test_labels[j])
    return [int(correct[k - 1]) / test_codes.shape[1] for k in ks]


def loo_choice(train_codes, train_labels, ks) -> int:
    """Neighbour count with the best leave-one-out accuracy; smallest wins."""
    n = train_codes.shape[1]
    valid = [k for k in ks if k <= n - 1]
    if not valid:
        return ks[0]
    dist = _distances(train_codes, train_codes)
    np.fill_diagonal(dist, np.inf)
    k_max = max(valid)
    correct = np.zeros(k_max, dtype=np.int64)
    for j in range(n):
        winners = _votes_by_k(dist[:, j], train_labels, k_max)
        correct += np.array(winners) == int(train_labels[j])
    return max(valid, key=lambda k: (correct[k - 1], -k))


def check_knn(accuracy, k, train_codes, train_labels, test_codes, test_labels, knn) -> None:
    """The reported accuracy and k are what brute-force KNN selects."""
    ks = [kk for kk in range(knn.k_min, knn.k_max + 1) if kk <= train_codes.shape[1]]
    curve = knn_curve(train_codes, train_labels, test_codes, test_labels, ks)
    if knn.selection == "cv":
        chosen = loo_choice(train_codes, train_labels, ks)
    else:
        chosen = ks[int(np.argmax(curve))]
    expected = curve[ks.index(chosen)]
    require(k == chosen, f"KNN: reported k={k}, brute force selects k={chosen}")
    require(accuracy == expected,
            f"KNN: reported accuracy {accuracy!r}, brute force gives {expected!r} at k={chosen}")


# --- training and coding -------------------------------------------------

def check_traces(traces, what: str) -> None:
    """Every layer's objective trace is non-increasing (rounding allowed)."""
    for layer, trace in enumerate(traces, start=1):
        trace = np.asarray(trace, dtype=float)
        require(trace.size > 0 and np.isfinite(trace).all(), f"{what} layer {layer}: bad trace")
        rises = np.diff(trace) - 1e-10 * np.maximum(1.0, np.abs(trace[:-1]))
        require(not (rises > 0).any(),
                f"{what} layer {layer}: objective rose at iteration {int(np.argmax(rises)) + 2}")


def check_normal_equations(dictionaries, test_features, layer_codes, ridge) -> None:
    """Each layer's test codes solve ``(D^T D + eps I) Z_l = D^T Z_{l-1}``.

    ``eps`` is the ridge the program documents (``epsilon_scale`` times the
    mean diagonal of ``D^T D``). The tolerance covers a backward-stable
    solve in double precision.
    """
    previous = test_features
    for layer, (d, z) in enumerate(zip(dictionaries, layer_codes), start=1):
        gram = d.T @ d
        eps = ridge.epsilon_scale * float(np.trace(gram)) / gram.shape[0]
        rhs = d.T @ previous
        resid = np.linalg.norm(gram @ z + eps * z - rhs)
        scale = np.linalg.norm(gram) * np.linalg.norm(z) + np.linalg.norm(rhs)
        require(resid <= 1e-9 * scale,
                f"ddlic test codes, layer {layer}: normal-equation residual {resid:.3e}"
                f" exceeds {1e-9 * scale:.3e}")
        previous = z


def lasso_kkt_violation(dictionary, inputs, codes, l1_weight) -> float:
    """Frobenius norm of the distance from 0 to the subdifferential of
    ``0.5 ||X - D Z||^2 + 0.5 l1_weight ||Z||_1`` at ``Z`` (the program's
    ISTA minimises this, the documented objective over 2)."""
    grad = dictionary.T @ (dictionary @ codes - inputs)
    half = 0.5 * l1_weight
    viol = np.where(codes != 0, np.abs(grad + half * np.sign(codes)),
                    np.maximum(np.abs(grad) - half, 0.0))
    return float(np.linalg.norm(viol))


def check_lasso_kkt(dictionary, inputs, codes, l1_weight, ista_cfg) -> None:
    """ISTA codes meet the lasso optimality conditions to its stopping rule.

    ISTA stops when a step moves the codes by ``delta <= rel_tol * |Z_prev|``.
    For a proximal-gradient step from ``Z_prev`` to ``Z`` with step ``t``,
    ``(Z_prev - Z)/t + grad(Z) - grad(Z_prev)`` lies in the subdifferential
    at ``Z``, so the violation is at most ``(1/t + L) * delta``, with ``L``
    the largest eigenvalue of ``D^T D``. The program's ``1/t`` is a power-
    iteration estimate of ``L``, at most ``L`` itself.
    """
    gram = dictionary.T @ dictionary
    lipschitz = float(np.linalg.eigvalsh(gram)[-1])
    inv_step = lipschitz if ista_cfg.step is None else 1.0 / ista_cfg.step
    tol = ista_cfg.rel_tol
    delta = tol * np.linalg.norm(codes) / (1.0 - tol)
    rounding = 1e-12 * (np.linalg.norm(gram) * np.linalg.norm(codes)
                        + np.linalg.norm(dictionary.T @ inputs))
    bound = (inv_step + lipschitz) * delta * (1.0 + 1e-6) + rounding
    violation = lasso_kkt_violation(dictionary, inputs, codes, l1_weight)
    require(violation <= bound,
            f"ddl test codes: KKT violation {violation:.3e} exceeds the stopping-rule"
            f" bound {bound:.3e}")


# --- persistence and orchestration ----------------------------------------

def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and bool(np.array_equal(a, b))


def check_roundtrip(model, loaded) -> None:
    """``load_model(save_model(m))`` returns ``m`` bit for bit."""
    require(type(loaded) is type(model), "round trip: model type changed")
    require(loaded.config == model.config, "round trip: config changed")
    pairs = [("dictionary", model.dictionaries, loaded.dictionaries),
             ("trace", model.traces, loaded.traces)]
    if hasattr(model, "layer_reprs"):
        pairs.append(("layer codes", model.layer_reprs, loaded.layer_reprs))
    else:
        pairs.append(("codes", [model.train_repr], [loaded.train_repr]))
    for what, ours, theirs in pairs:
        require(len(ours) == len(theirs), f"round trip: {what} count changed")
        for layer, (a, b) in enumerate(zip(ours, theirs), start=1):
            require(_same(a, b), f"round trip: {what} {layer} differs")
    require(_same(model.labels, loaded.labels), "round trip: labels differ")


def check_same_classification(codes, loaded_codes, report, loaded_report) -> None:
    require(_same(codes, loaded_codes), "round trip: test codes differ after reload")
    require(_same(report.accuracies, loaded_report.accuracies)
            and report.selected_k == loaded_report.selected_k,
            "round trip: test classification differs after reload")


def check_same_replicates(parallel, serial, what: str) -> None:
    """Per-replicate outcomes of a parallel run equal a serial re-run."""
    a = [(r.index, r.seed, r.failed, r.accuracy, r.best_k) for r in parallel.replicates]
    b = [(r.index, r.seed, r.failed, r.accuracy, r.best_k) for r in serial.replicates]
    require(a == b, f"{what}: parallel replicates {a} differ from the serial re-run {b}")


def check_first_max(rows, best) -> None:
    """The reported best cell is the first row with the highest mean accuracy.

    ``rows`` is a list of ``(alphas, mean_accuracy)``; NaN means never win.
    """
    scores = [-math.inf if math.isnan(acc) else acc for _, acc in rows]
    expected = rows[scores.index(max(scores))][0]
    require(tuple(best) == tuple(expected),
            f"grid: best cell {best} is not the first maximum {expected}")

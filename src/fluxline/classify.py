"""Gaussian-mixture modeling and state assignment of single-shot IQ data.

Each transmon level produces an approximately Gaussian cluster in the
in-phase / quadrature plane; a mixture model fit to labeled calibration
shots provides maximum-likelihood state assignment for unlabeled data.
Cluster separation is quantified by the symmetric Mahalanobis distance

    delta_ij^2 = (mu_i - mu_j)^T ((Sigma_i + Sigma_j) / 2)^-1 (mu_i - mu_j)

whose Bayes-optimal pairwise misclassification for equal priors and equal
covariance is Phi(-delta/2).  A separation of 6 keeps that error near
1e-3, small against the shot noise of typical window sizes.

The levels g, e, f, h are the first four rows of a canonical model.
Levels above h are aggregated in an overflow component labeled ``k+``;
``level_populations`` counts only the four levels, so it drops the
overflow before temperature fitting.

Labels are integer codes here: a prep label indexes a table of distinct
labels, as ``io.read_shots_csv`` returns it, and an assigned state indexes
``model.labels``, the component labels in canonical g, e, f, h, k+ order,
which also index the rows of the model's stacked arrays; only ``io`` sees
a model per label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllOverflow, EmptyRow, NotConverged, SingularComponent, SingularCovariance

LABEL_ORDER = ("g", "e", "f", "h", "k+")
LEVELS = LABEL_ORDER[:4]

_MIN_WEIGHT = 1e-6
# EM stops at this relative log-likelihood change, and gives up after this many sweeps.
_EM_TOL = 1e-9
_EM_MAX_ITER = 500
_REG_SCALE = 1e-6
_LOG_2PI = math.log(2.0 * math.pi)


def _label_sort_key(label: str):
    return (LABEL_ORDER.index(label), "") if label in LABEL_ORDER else (len(LABEL_ORDER), label)


@dataclass(frozen=True)
class GmmModel:
    """Labeled 2-D Gaussian mixture: row j of ``means`` (k, 2), ``covs`` (k, 2, 2)
    and ``weights`` (k,) is component ``labels[j]``, rows in canonical label order."""

    labels: tuple[str, ...]
    means: np.ndarray
    covs: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        order = sorted(range(len(self.labels)), key=lambda j: _label_sort_key(self.labels[j]))
        labels, k = tuple(self.labels[j] for j in order), len(order)
        for a, b in zip(labels, labels[1:]):
            if a == b:
                raise ValueError(f"duplicate component label {a!r}")
        means, covs, weights = (np.asarray(v, dtype=float)
                                for v in (self.means, self.covs, self.weights))
        if means.shape != (k, 2) or covs.shape != (k, 2, 2) or weights.shape != (k,):
            raise ValueError(f"{k} labels need ({k}, 2) means, ({k}, 2, 2) covs, ({k},) weights")
        means, covs, weights = means[order], covs[order], weights[order]
        bad = (~np.isclose(covs, covs.transpose(0, 2, 1)).all(axis=(1, 2))
               | (np.linalg.eigvalsh(covs)[:, 0] <= 0))
        if bad.any():
            raise ValueError(f"component {labels[int(np.argmax(bad))]!r}:"
                             " covariance must be symmetric positive definite")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights must be >= 0 and sum to 1, got {weights.tolist()!r}")
        for name, value in zip(("labels", "means", "covs", "weights"),
                               (labels, means, covs, weights)):
            object.__setattr__(self, name, value)


def _mahalanobis_sq(x: np.ndarray, y: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Squared Mahalanobis distance of each offset (x, y), by the 2x2 closed form, and det(cov)."""
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    return (cov[1, 1] * x * x - (cov[0, 1] + cov[1, 0]) * x * y + cov[0, 0] * y * y) / det, det


def _log_density(mean, cov, weight: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Log of weight * normal density of one component at each shot (x, y)."""
    maha, det = _mahalanobis_sq(x - mean[0], y - mean[1], cov)
    log_w = math.log(weight) if weight > 0 else -math.inf
    return log_w - 0.5 * (maha + math.log(det)) - _LOG_2PI


def _columns(xy) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous copies of the i and q columns of (n, 2) shots."""
    xy = np.asarray(xy, dtype=float)
    return xy[:, 0].copy(), xy[:, 1].copy()


def _log_density_matrix(x: np.ndarray, y: np.ndarray, means, covs, weights) -> np.ndarray:
    """(k, n) ``_log_density`` of each component (rows) at the shots (x, y)."""
    out = np.empty((len(means), x.size))
    for j, (mean, cov, weight) in enumerate(zip(means, covs, weights)):
        out[j] = _log_density(mean, cov, weight, x, y)
    return out


def _log_sum_exp(log_dens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n,) log-likelihoods and (k, n) posteriors of shots from (k, n) log densities,
    each shot's shifted by its maximum so that exp cannot overflow."""
    shift = log_dens.max(axis=0)
    w = np.exp(log_dens - shift)
    total = w.sum(axis=0)
    return shift + np.log(total), w / total


def fit_gmm(xy: np.ndarray, labels, codes) -> GmmModel:
    """Fit a labeled Gaussian mixture to IQ shots by EM (Dempster, Laird and Rubin 1977).

    ``labels`` is a table of distinct labels, one component each, that
    ``codes`` index per shot.  Each component is seeded from its prep's
    sample moments, so it keeps its prep's label.  EM stops when the
    relative log-likelihood change drops to 1e-9 (NotConverged after 500
    sweeps without), and adds 1e-6 * mean variance to each covariance's
    diagonal.  A sweep is one log-sum-exp of the log densities and one
    product of the posteriors with [1, x, y, x^2, xy, y^2] of the centred
    shots: every weight and moment.
    """
    xy = np.asarray(xy, dtype=float)
    names = sorted(labels, key=_label_sort_key)
    k, n = len(names), xy.shape[0]
    if n < 10 * k:
        raise ValueError(f"need >= 10 shots per component, got {n} for {k}")
    reg = _REG_SCALE * float(np.var(xy, axis=0).mean()) * np.eye(2)
    groups = [xy[np.asarray(codes) == labels.index(lab)] for lab in names]
    for lab, group in zip(names, groups):
        if len(group) < 10:
            raise ValueError(f"need >= 10 shots for component {lab!r}")
    means = np.array([group.mean(axis=0) for group in groups])
    covs = np.array([np.cov(group.T) for group in groups]) + reg
    weights = np.array([len(group) for group in groups]) / n

    x, y = _columns(xy)
    centre = xy.mean(axis=0)
    xc, yc = (xy - centre).T
    design = np.column_stack([np.ones(n), xc, yc, xc * xc, xc * yc, yc * yc])
    ll_prev = None
    for _ in range(_EM_MAX_ITER):
        lse, resp = _log_sum_exp(_log_density_matrix(x, y, means, covs, weights))
        ll = float(lse.sum())
        # Row j: n_j, the sum of component j's posteriors, then n_j times its centred moments.
        moments = resp @ design
        nk = moments[:, 0]
        if np.any(nk / n < _MIN_WEIGHT):
            dead = names[int(np.argmin(nk))]
            raise SingularComponent(f"component {dead!r} collapsed (weight < 1e-6)")
        means, second = moments[:, 1:3] / nk[:, None], moments[:, [3, 4, 4, 5]] / nk[:, None]
        covs = (second - means[:, [0, 0, 1, 1]] * means[:, [0, 1, 0, 1]]).reshape(k, 2, 2) + reg
        means, weights = means + centre, nk / n
        if ll_prev is not None and abs(ll - ll_prev) <= _EM_TOL * abs(ll):
            return GmmModel(tuple(names), means, covs, weights)
        ll_prev = ll
    raise NotConverged(
        f"EM did not meet tol={_EM_TOL} in {_EM_MAX_ITER} iterations", log_likelihood=ll_prev
    )


def assign_indices(model: GmmModel, xy: np.ndarray) -> np.ndarray:
    """Maximum-likelihood component of each shot as an index into ``model.labels``.

    The indices are the smallest unsigned integers that hold them.  Ties go
    to the earlier label in canonical order, and a shot with a NaN density
    (far enough out to overflow) goes to its first NaN component, as with
    ``np.argmax`` over the log densities.  A running maximum over the
    components replaces that (n, k) matrix; no posteriors are computed.
    """
    x, y = _columns(xy)
    means, covs, weights = model.means, model.covs, model.weights
    index = np.zeros(x.size, dtype=np.min_scalar_type(len(means) - 1))
    best = _log_density(means[0], covs[0], weights[0], x, y)
    for j in range(1, len(means)):
        dens = _log_density(means[j], covs[j], weights[j], x, y)
        np.copyto(index, j, where=dens > best)
        # NaN propagates, so ``best`` is NaN wherever any density was.
        np.maximum(best, dens, out=best)
    nan = np.flatnonzero(np.isnan(best))
    if nan.size:
        index[nan] = np.argmax(_log_density_matrix(x[nan], y[nan], means, covs, weights), axis=0)
    return index


def pairwise_separation(model: GmmModel, label_i: str, label_j: str) -> float:
    """Symmetric Mahalanobis separation between two components."""
    i, j = model.labels.index(label_i), model.labels.index(label_j)
    diff = model.means[i] - model.means[j]
    pooled = 0.5 * (model.covs[i] + model.covs[j])
    # A singular pooled covariance divides by a zero determinant.
    with np.errstate(divide="ignore", invalid="ignore"):
        d2 = float(_mahalanobis_sq(diff[0], diff[1], pooled)[0])
    if not math.isfinite(d2) or d2 < 0:
        raise SingularCovariance(f"invalid separation for ({label_i}, {label_j})")
    return math.sqrt(d2)


def min_pairwise_separation(model: GmmModel) -> float:
    labels = model.labels
    return min(pairwise_separation(model, a, b)
               for i, a in enumerate(labels) for b in labels[i + 1:])


def bayes_error(delta: float) -> float:
    """Bayes-optimal misclassification Phi(-delta/2) of two equal Gaussians."""
    if not delta >= 0:
        raise ValueError("delta must be >= 0")
    return 0.5 * math.erfc(delta / (2.0 * math.sqrt(2.0)))


@dataclass(frozen=True)
class AssignmentMatrix:
    """Row-stochastic prepared-vs-assigned state probabilities."""

    row_labels: list[str]
    col_labels: list[str]
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (len(self.row_labels), len(self.col_labels)):
            raise ValueError("matrix shape does not match labels")
        if np.any(np.abs(m.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("rows must sum to 1 within 1e-9")
        object.__setattr__(self, "matrix", m)

    def entry(self, prep: str, assigned: str) -> float:
        return float(self.matrix[self.row_labels.index(prep),
                                 self.col_labels.index(assigned)])


def assignment_matrix(model: GmmModel, xy: np.ndarray, codes, labels) -> AssignmentMatrix:
    """Fraction of each prep's shots assigned to each model component.

    ``codes`` index the label table ``labels``, whose labels are the rows in
    canonical order; a label with no shots raises ``EmptyRow``."""
    rows = sorted(range(len(labels)), key=lambda j: _label_sort_key(labels[j]))
    k = len(model.labels)
    assigned = assign_indices(model, xy)
    counts = np.bincount(np.asarray(codes, dtype=np.intp) * k + assigned,
                         minlength=len(labels) * k).reshape(-1, k)[rows]
    totals = counts.sum(axis=1)
    if not totals.all():
        raise EmptyRow(f"no shots prepared as {labels[rows[int(np.argmin(totals))]]!r}")
    return AssignmentMatrix([labels[j] for j in rows], list(model.labels),
                            counts / totals[:, None])


def sample_from_model(model: GmmModel, n_per_state: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw n shots from every component; returns (xy, codes into ``model.labels``)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return (np.vstack([mean + rng.standard_normal((n_per_state, 2)) @ chol.T
                       for mean, chol in zip(model.means, np.linalg.cholesky(model.covs))]),
            np.repeat(np.arange(len(model.labels)), n_per_state))


def synthetic_confusion(model: GmmModel, n_per_state: int, seed: int) -> AssignmentMatrix:
    """Confusion matrix from reclassifying model-generated synthetic shots."""
    if n_per_state < 100:
        raise ValueError("n_per_state must be >= 100")
    return assignment_matrix(model, *sample_from_model(model, n_per_state, seed), model.labels)


def level_populations(indices: np.ndarray, labels, window: int) -> np.ndarray:
    """(W, 4) g, e, f, h populations of consecutive windows of shot indices.

    ``indices`` index ``labels``, the canonical labels of a model, whose
    first four are the levels.  W = len(indices) // window; trailing shots
    that fill no window are ignored.  Shots of any other component (the
    ``k+`` overflow cluster) are dropped and each window is renormalized
    over the four levels.
    """
    if tuple(labels[:4]) != LEVELS:
        raise ValueError(f"model labels {list(labels)} must begin with g, e, f, h")
    n_win = indices.shape[0] // window
    windows = indices[:n_win * window].reshape(n_win, window)
    four = np.stack([np.count_nonzero(windows == j, axis=1) for j in range(4)], axis=1)
    total = four.sum(axis=1, keepdims=True)
    if not total.all():
        raise AllOverflow(f"all shots of window {np.argmin(total)} fell in the overflow cluster")
    return four / total

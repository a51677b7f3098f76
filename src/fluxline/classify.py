"""Gaussian-mixture modeling and state assignment of single-shot IQ data.

Each transmon level produces an approximately Gaussian cluster in the
in-phase / quadrature plane; a mixture model fit to labeled calibration
shots provides maximum-likelihood state assignment for unlabeled data.
Cluster separation is quantified by the symmetric Mahalanobis distance

    delta_ij^2 = (mu_i - mu_j)^T ((Sigma_i + Sigma_j) / 2)^-1 (mu_i - mu_j)

whose Bayes-optimal pairwise misclassification for equal priors and equal
covariance is Phi(-delta/2).  A separation of 6 keeps that error near
1e-3, small against the shot noise of typical window sizes.

Levels above h are aggregated in an overflow component labeled ``k+``;
``exclude_overflow_and_renormalize`` drops it before temperature fitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import LEVELS, PopulationVector
from .errors import (
    AllOverflow,
    EmptyRow,
    NotConverged,
    OutOfRange,
    SingularComponent,
    SingularCovariance,
)

LABEL_ORDER = ("g", "e", "f", "h", "k+")

_MIN_WEIGHT = 1e-6
_REG_SCALE = 1e-6
_LOG_2PI = math.log(2.0 * math.pi)


def _label_sort_key(label: str):
    return (LABEL_ORDER.index(label), "") if label in LABEL_ORDER else (len(LABEL_ORDER), label)


@dataclass(frozen=True)
class GmmComponent:
    mean: np.ndarray
    cov: np.ndarray
    weight: float

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.shape != (2,) or cov.shape != (2, 2):
            raise ValueError("mean must be 2-vector, cov 2x2")
        if not np.allclose(cov, cov.T):
            raise ValueError("covariance must be symmetric")
        if np.linalg.eigvalsh(cov).min() <= 0:
            raise ValueError("covariance must be positive definite")
        if self.weight < 0:
            raise ValueError("weight must be >= 0")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True)
class GmmModel:
    """Labeled 2-D Gaussian mixture; weights sum to one."""

    components: dict[str, GmmComponent]

    def __post_init__(self):
        if not self.components:
            raise ValueError("model needs at least one component")
        total = sum(c.weight for c in self.components.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {total!r}")

    @property
    def labels(self) -> list[str]:
        """Component labels in canonical (g, e, f, h, k+) order."""
        return sorted(self.components, key=_label_sort_key)


def _mahalanobis_sq(x: np.ndarray, y: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Squared Mahalanobis distance of each offset (x, y), by the 2x2 closed form, and det(cov)."""
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    return (cov[1, 1] * x * x - (cov[0, 1] + cov[1, 0]) * x * y + cov[0, 0] * y * y) / det, det


def _log_density(comp: GmmComponent, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Log of weight * normal density of one component at each shot (x, y)."""
    maha, det = _mahalanobis_sq(x - comp.mean[0], y - comp.mean[1], comp.cov)
    log_w = math.log(comp.weight) if comp.weight > 0 else -math.inf
    return log_w - 0.5 * (maha + math.log(det)) - _LOG_2PI


def _columns(xy) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous copies of the i and q columns of (n, 2) shots."""
    xy = np.asarray(xy, dtype=float)
    return xy[:, 0].copy(), xy[:, 1].copy()


def _log_densities(model: GmmModel, xy: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Log of weight * normal density for every (shot, component)."""
    labels = model.labels
    x, y = _columns(xy)
    out = np.empty((x.size, len(labels)))
    for j, lab in enumerate(labels):
        out[:, j] = _log_density(model.components[lab], x, y)
    return labels, out


def _posteriors(log_dens: np.ndarray) -> np.ndarray:
    shifted = log_dens - log_dens.max(axis=1, keepdims=True)
    w = np.exp(shifted)
    return w / w.sum(axis=1, keepdims=True)


def fit_gmm(
    xy: np.ndarray,
    labels,
    init: str = "supervised",
    prep_labels=None,
    seed: int = 0,
    max_iter: int = 500,
    tol: float = 1e-9,
) -> GmmModel:
    """Fit a labeled Gaussian mixture to IQ shots by EM.

    ``init='supervised'`` seeds each component from the per-preparation
    sample moments (requires ``prep_labels``); ``init='random'`` uses a
    seeded k-means++-style draw of centers.  EM runs until the relative
    log-likelihood change drops below ``tol`` or ``max_iter`` sweeps, is
    deterministic given (data order, seed), and regularizes every
    covariance update with 1e-6 * mean-variance * identity.
    """
    xy = np.asarray(xy, dtype=float)
    labels = sorted(set(labels), key=_label_sort_key)
    k = len(labels)
    n = xy.shape[0]
    if n < 10 * k:
        raise ValueError(f"need >= 10 shots per component, got {n} for {k}")
    mean_var = float(np.var(xy, axis=0).mean())
    reg = _REG_SCALE * mean_var * np.eye(2)

    if init == "supervised":
        if prep_labels is None:
            raise ValueError("supervised init requires prep_labels")
        prep_labels = np.asarray(prep_labels)
        means, covs, weights = [], [], []
        for lab in labels:
            sel = xy[prep_labels == lab]
            if sel.shape[0] < 10:
                raise ValueError(f"need >= 10 shots for component {lab!r}")
            means.append(sel.mean(axis=0))
            covs.append(np.cov(sel.T) + reg)
            weights.append(sel.shape[0] / n)
    elif init == "random":
        rng = np.random.default_rng(seed)
        centers = [xy[rng.integers(n)]]
        for _ in range(k - 1):
            d2 = np.min([((xy - c) ** 2).sum(axis=1) for c in centers], axis=0)
            centers.append(xy[rng.choice(n, p=d2 / d2.sum())])
        means = centers
        covs = [np.cov(xy.T) + reg for _ in range(k)]
        weights = [1.0 / k] * k
    else:
        raise ValueError(f"init must be 'supervised' or 'random', got {init!r}")

    model = GmmModel({lab: GmmComponent(m, c, w)
                      for lab, m, c, w in zip(labels, means, covs, weights)})

    ll_prev = None
    for _ in range(max_iter):
        _, log_dens = _log_densities(model, xy)
        shift = log_dens.max(axis=1, keepdims=True)
        ll = float((shift[:, 0] + np.log(np.exp(log_dens - shift).sum(axis=1))).sum())
        resp = _posteriors(log_dens)

        nk = resp.sum(axis=0)
        if np.any(nk / n < _MIN_WEIGHT):
            dead = labels[int(np.argmin(nk))]
            raise SingularComponent(f"component {dead!r} collapsed (weight < 1e-6)")
        new = {}
        for j, lab in enumerate(labels):
            mu = resp[:, j] @ xy / nk[j]
            diff = xy - mu
            cov = (resp[:, j, None] * diff).T @ diff / nk[j] + reg
            new[lab] = GmmComponent(mu, cov, nk[j] / n)
        model = GmmModel(new)

        if ll_prev is not None and abs(ll - ll_prev) <= tol * abs(ll):
            return model
        ll_prev = ll
    raise NotConverged(
        f"EM did not meet tol={tol} in {max_iter} iterations", log_likelihood=ll_prev
    )


def log_likelihood(model: GmmModel, xy: np.ndarray) -> float:
    """Total mixture log-likelihood of the shots under the model."""
    _, log_dens = _log_densities(model, np.asarray(xy, dtype=float))
    shift = log_dens.max(axis=1, keepdims=True)
    return float((shift[:, 0] + np.log(np.exp(log_dens - shift).sum(axis=1))).sum())


def assign_indices(model: GmmModel, xy: np.ndarray) -> np.ndarray:
    """Maximum-likelihood component of each shot as an index into ``model.labels``.

    The indices are the smallest unsigned integers that hold them.  Ties go
    to the earlier label in canonical order, and a shot with a NaN density
    (far enough out to overflow) goes to its first NaN component, as with
    ``np.argmax`` over the log densities.  A running maximum over the
    components replaces that (n, k) matrix; no posteriors are computed.
    """
    x, y = _columns(xy)
    components = [model.components[lab] for lab in model.labels]
    index = np.zeros(x.size, dtype=np.min_scalar_type(len(components) - 1))
    best = _log_density(components[0], x, y)
    for j, comp in enumerate(components[1:], start=1):
        dens = _log_density(comp, x, y)
        np.copyto(index, j, where=dens > best)
        # NaN propagates, so ``best`` is NaN wherever any density was.
        np.maximum(best, dens, out=best)
    nan = np.flatnonzero(np.isnan(best))
    if nan.size:
        index[nan] = np.argmax(_log_densities(model, np.asarray(xy, dtype=float)[nan])[1], axis=1)
    return index


def window_counts(indices: np.ndarray, n_labels: int, window: int) -> np.ndarray:
    """(W, n_labels) counts of each label index in consecutive windows.

    W = len(indices) // window; trailing shots that fill no window are
    ignored.
    """
    n_win = indices.shape[0] // window
    windows = indices[:n_win * window].reshape(n_win, window)
    return np.stack([np.count_nonzero(windows == j, axis=1) for j in range(n_labels)], axis=1)


def classify_shot(model: GmmModel, shot) -> tuple[str, dict[str, float]]:
    """Label (``assign_indices``) and posterior map for one (i, q) shot."""
    xy = np.asarray(shot, dtype=float).reshape(1, 2)
    post = _posteriors(_log_densities(model, xy)[1])[0]
    return model.labels[int(assign_indices(model, xy)[0])], dict(zip(model.labels, post))


def pairwise_separation(model: GmmModel, label_i: str, label_j: str) -> float:
    """Symmetric Mahalanobis separation between two components."""
    ci = model.components[label_i]
    cj = model.components[label_j]
    pooled = 0.5 * (ci.cov + cj.cov)
    diff = ci.mean - cj.mean
    try:
        sol = np.linalg.solve(pooled, diff)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(f"pooled covariance of ({label_i}, {label_j}) singular") from exc
    d2 = float(diff @ sol)
    if not math.isfinite(d2) or d2 < 0:
        raise SingularCovariance(f"invalid separation for ({label_i}, {label_j})")
    return math.sqrt(d2)


def min_pairwise_separation(model: GmmModel) -> float:
    labels = model.labels
    return min(pairwise_separation(model, a, b)
               for i, a in enumerate(labels) for b in labels[i + 1:])


def bayes_error(delta: float) -> float:
    """Bayes-optimal misclassification Phi(-delta/2) of two equal Gaussians."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    return 0.5 * math.erfc(delta / (2.0 * math.sqrt(2.0)))


def effective_binary_separation(epsilon: float) -> float:
    """Equivalent two-Gaussian separation for a misclassification probability.

    Inverse of ``bayes_error``: delta = -2 Phi^-1(epsilon).
    """
    # Imported here: statistics loads fractions and decimal, a few ms that
    # no command needs.
    from statistics import NormalDist

    if not 0.0 < epsilon <= 0.5:
        raise OutOfRange(f"epsilon must lie in (0, 0.5], got {epsilon}")
    return -2.0 * NormalDist().inv_cdf(epsilon)


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


def assignment_matrix(model: GmmModel, xy: np.ndarray, prep_labels,
                      row_labels=None) -> AssignmentMatrix:
    """Fraction of prep-r shots assigned to each model component."""
    xy = np.asarray(xy, dtype=float)
    prep_labels = np.asarray(prep_labels)
    rows = (sorted(set(prep_labels.tolist()), key=_label_sort_key)
            if row_labels is None else list(row_labels))
    cols = model.labels
    assigned = assign_indices(model, xy)
    matrix = np.zeros((len(rows), len(cols)))
    for r, prep in enumerate(rows):
        sel = assigned[prep_labels == prep]
        if sel.size == 0:
            raise EmptyRow(f"no shots prepared as {prep!r}")
        matrix[r] = np.bincount(sel, minlength=len(cols)) / sel.size
    return AssignmentMatrix(rows, cols, matrix)


def sample_from_model(model: GmmModel, n_per_state: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw n shots from every component; returns (xy, true labels)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    xs, labs = [], []
    for lab in model.labels:
        comp = model.components[lab]
        chol = np.linalg.cholesky(comp.cov)
        z = rng.standard_normal((n_per_state, 2))
        xs.append(comp.mean + z @ chol.T)
        labs.extend([lab] * n_per_state)
    return np.vstack(xs), np.array(labs, dtype=object)


def synthetic_confusion(model: GmmModel, n_per_state: int, seed: int) -> AssignmentMatrix:
    """Confusion matrix from reclassifying model-generated synthetic shots."""
    if n_per_state < 100:
        raise ValueError("n_per_state must be >= 100")
    xy, labs = sample_from_model(model, n_per_state, seed)
    return assignment_matrix(model, xy, labs, row_labels=model.labels)


def herald_filter(xy: np.ndarray, pre_readout_posteriors, threshold: float = 0.995
                  ) -> tuple[np.ndarray, float]:
    """Retain shots whose pre-readout ground posterior strictly exceeds threshold."""
    xy = np.asarray(xy)
    post = np.asarray(pre_readout_posteriors, dtype=float)
    if post.shape[0] != xy.shape[0]:
        raise ValueError("posteriors must align with shots")
    mask = post > threshold
    return xy[mask], float(mask.mean()) if xy.shape[0] else 0.0


def truncate_to_sigma(model: GmmModel, xy: np.ndarray, n_sigma: float = 3.0) -> np.ndarray:
    """Mask of shots within n_sigma Mahalanobis radius of their component.

    Optional pre-filter before refitting, mirroring the truncation used to
    separate readout SNR limits from relaxation effects.
    """
    xy = np.asarray(xy, dtype=float)
    assigned = assign_indices(model, xy)
    mask = np.zeros(xy.shape[0], dtype=bool)
    for j, lab in enumerate(model.labels):
        sel = assigned == j
        comp = model.components[lab]
        dx, dy = (xy[sel] - comp.mean).T
        mask[sel] = _mahalanobis_sq(dx, dy, comp.cov)[0] <= n_sigma**2
    return mask


def level_populations(counts: np.ndarray, labels) -> np.ndarray:
    """(W, 4) g, e, f, h populations from (W, k) counts, overflow dropped.

    Columns of ``counts`` follow ``labels``; labels other than the four
    levels (the ``k+`` overflow cluster) are excluded and each row is
    renormalized over the rest.
    """
    labels = list(labels)
    missing = [lab for lab in LEVELS if lab not in labels]
    if missing:
        raise ValueError(f"counts missing labels {missing}")
    four = np.asarray(counts, dtype=float)[:, [labels.index(lab) for lab in LEVELS]]
    if np.any(four < 0):
        raise ValueError("counts must be >= 0")
    total = four.sum(axis=1, keepdims=True)
    if np.any(total == 0):
        window = int(np.flatnonzero(total[:, 0] == 0)[0])
        raise AllOverflow(f"all shots of window {window} fell in the overflow cluster")
    return four / total


def exclude_overflow_and_renormalize(counts: dict[str, float]) -> PopulationVector:
    """Drop the overflow cluster and renormalize the four-level counts."""
    row = level_populations(np.array([list(counts.values())], dtype=float), counts)
    return PopulationVector.from_array(row[0])


def apply_confusion_correction(counts: dict[str, float],
                               matrix: AssignmentMatrix) -> dict[str, float]:
    """Invert an assignment matrix to correct observed counts.

    Linear inversion observed = A^T true; only advisable when the matrix is
    well conditioned (separations not far below 6).  Negative corrected
    counts are clipped to zero before renormalization, which biases the
    result when the correction is large; treat the output as a diagnostic.
    """
    labels = matrix.row_labels
    if matrix.col_labels[:len(labels)] != labels:
        raise ValueError("matrix rows and columns must cover the same labels")
    observed = np.array([counts[lab] for lab in labels], dtype=float)
    square = matrix.matrix[:, :len(labels)]
    corrected = np.linalg.solve(square.T, observed)
    corrected = np.clip(corrected, 0.0, None)
    total = corrected.sum()
    if total == 0:
        raise AllOverflow("confusion correction annihilated all counts")
    corrected *= observed.sum() / total
    return dict(zip(labels, corrected))

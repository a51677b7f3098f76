"""Tests of mixture fitting, state assignment and separation analysis."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxline import classify as cl
from fluxline.errors import AllOverflow, EmptyRow, NotConverged, SingularComponent

from conftest import make_ring_model


class TestGmmModel:
    @given(order=st.permutations(range(7)))
    @settings(max_examples=30, deadline=None)
    def test_rows_in_canonical_order_from_any_order(self, order):
        # The levels, the overflow cluster and two other labels, alphabetical last.
        labels = ("g", "e", "f", "h", "k+", "a", "b")
        ring = make_ring_model(labels, weights=[0.3, 0.2, 0.15, 0.1, 0.1, 0.1, 0.05])
        rows = [ring.labels.index(labels[j]) for j in order]
        model = cl.GmmModel(tuple(ring.labels[r] for r in rows), ring.means[rows],
                            ring.covs[rows], ring.weights[rows])
        assert model.labels == ring.labels == labels
        for name in ("means", "covs", "weights"):
            assert getattr(model, name).tobytes() == getattr(ring, name).tobytes()

    @pytest.mark.parametrize("labels, means, cov_1, message", [
        (("g", "e", "g"), [[0.0, 0.0]] * 3, np.eye(2), "duplicate component label 'g'"),
        (("g", "e", "f"), [[0.0, 0.0]] * 2, np.eye(2), r"\(3, 2\) means"),
        # Row 1, "g", is row 0 in canonical order; the error names its label.
        (("f", "g", "e"), [[0.0, 0.0]] * 3, [[1.0, 2.0], [2.0, 1.0]],
         "component 'g': covariance must be symmetric positive definite"),
    ])
    def test_bad_rows_rejected(self, labels, means, cov_1, message):
        covs = [np.eye(2), cov_1, np.eye(2)]
        with pytest.raises(ValueError, match=message):
            cl.GmmModel(labels, means, covs, [0.5, 0.25, 0.25])


class TestFitGmm:
    def test_supervised_recovery(self, ring_model):
        xy, codes = cl.sample_from_model(ring_model, 3000, seed=42)
        fit = cl.fit_gmm(xy, ring_model.labels, codes)
        sigma_mean = 1.0 / math.sqrt(3000)
        assert fit.labels == ring_model.labels
        assert np.linalg.norm(fit.means - ring_model.means, axis=1).max() < 4 * sigma_mean

    def test_determinism(self, ring_model):
        xy, codes = cl.sample_from_model(ring_model, 500, seed=3)
        a = cl.fit_gmm(xy, ring_model.labels, codes)
        b = cl.fit_gmm(xy, ring_model.labels, codes)
        assert a.labels == b.labels
        for name in ("means", "covs", "weights"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_em_monotone_log_likelihood(self, monkeypatch, ring_model):
        # run EM with an unreachable tolerance and increasing iteration
        # caps; the final likelihood carried by NotConverged must be
        # non-decreasing in the cap
        xy, codes = cl.sample_from_model(ring_model, 400, seed=5)
        lls = []
        for n_iter in range(2, 10):
            with monkeypatch.context() as patch, pytest.raises(NotConverged) as err:
                patch.setattr(cl, "_EM_MAX_ITER", n_iter)
                patch.setattr(cl, "_EM_TOL", 1e-300)
                cl.fit_gmm(xy, ring_model.labels, codes)
            lls.append(err.value.log_likelihood)
        assert all(v is not None for v in lls)
        assert all(b >= a - 1e-12 * abs(a) for a, b in zip(lls, lls[1:]))

    def test_degenerate_single_cluster(self):
        # Four preps of one cluster: EM creeps along a flat likelihood and
        # runs out of sweeps, here as in the reference EM.
        rng = np.random.default_rng(0)
        xy = rng.normal(0, 0.5, size=(400, 2))
        labels = ["g", "e", "f", "h"]
        codes = np.repeat(np.arange(4), 100)
        with pytest.raises(NotConverged):
            cl.fit_gmm(xy, labels, codes)
        assert reference_fit_gmm(xy, labels, np.array(labels)[codes]) == (NotConverged, 500)

    def test_needs_enough_shots(self, ring_model):
        with pytest.raises(ValueError):
            cl.fit_gmm(np.zeros((5, 2)), ["g", "e"], np.zeros(5, dtype=int))


def posteriors(model, xy):
    """(k, n) posteriors of the model's components, in label order, at the shots xy."""
    x, y = np.asarray(xy, dtype=float).reshape(-1, 2).T
    return cl._log_sum_exp(cl._log_density_matrix(x, y, model.means, model.covs,
                                                  model.weights))[1]


class TestClassifyShot:
    def test_component_mean_high_posterior(self, ring_model):
        assert cl.assign_indices(ring_model, ring_model.means).tolist() == list(range(5))
        assert np.diag(posteriors(ring_model, ring_model.means)).min() > 0.99

    def test_tie_breaks_to_lower_canonical_order(self):
        two = cl.GmmModel(("e", "g"), [[2.0, 0.0], [0.0, 0.0]], [np.eye(2)] * 2, [0.5, 0.5])
        assert cl.assign_indices(two, [[1.0, 0.0]])[0] == two.labels.index("g")
        assert posteriors(two, (1.0, 0.0))[:, 0].tolist() == pytest.approx([0.5, 0.5])

    def test_bulk_confusion_matches_bayes(self):
        delta = 4.0
        two = cl.GmmModel(("g", "e"), [[0.0, 0.0], [delta, 0.0]], [np.eye(2)] * 2, [0.5, 0.5])
        n = 200000
        conf = cl.synthetic_confusion(two, n, seed=13)
        eps = cl.bayes_error(delta)
        tol = 3 * math.sqrt(eps * (1 - eps) / n)
        assert abs(conf.entry("g", "e") - eps) < tol
        assert abs(conf.entry("e", "g") - eps) < tol


class TestIndexPath:
    def test_tie_breaks_to_lower_canonical_order(self):
        two = cl.GmmModel(("e", "g"), [[2.0, 0.0], [0.0, 0.0]], [np.eye(2)] * 2, [0.5, 0.5])
        assert cl.assign_indices(two, np.array([[1.0, 0.0]]))[0] == two.labels.index("g")

    @pytest.mark.parametrize("n_shots, window", [(6000, 1000), (6999, 1000), (17, 1)])
    def test_window_counts_match_label_comparison(self, n_shots, window):
        labels = ["g", "e", "f", "h", "k+"]
        idx = np.random.default_rng(n_shots).integers(0, len(labels), n_shots)
        idx[::window] %= 4  # every window holds a level shot
        named = np.array(labels, dtype=object)[idx]
        pops = cl.level_populations(idx, labels, window)
        assert pops.shape == (n_shots // window, 4)
        for w in range(pops.shape[0]):
            sel = named[w * window:(w + 1) * window]
            four = np.array([np.count_nonzero(sel == lab) for lab in labels[:4]], dtype=float)
            assert pops[w].tolist() == (four / four.sum()).tolist()

    def test_level_populations_renormalize_each_row(self):
        rng = np.random.default_rng(3)
        four = rng.integers(0, 15, (20, 4))
        counts = np.column_stack([four, 60 - four.sum(axis=1)])  # the rest is k+
        idx = np.concatenate([rng.permutation(np.repeat(np.arange(5), row)) for row in counts])
        pops = cl.level_populations(idx, cl.LABEL_ORDER, 60)
        for w, row in enumerate(four):
            assert np.array_equal(pops[w], row / row.sum())

    def test_level_populations_need_no_overflow_column(self):
        pops = cl.level_populations(np.array([0, 0, 1, 0]), ["g", "e", "f", "h"], 4)
        assert pops.tolist() == [[0.75, 0.25, 0.0, 0.0]]

    @pytest.mark.parametrize("labels", [["g", "e", "f"], ["g", "e", "h", "k+"]])
    def test_level_populations_need_the_four_levels(self, labels):
        with pytest.raises(ValueError, match="must begin with g, e, f, h"):
            cl.level_populations(np.zeros(4, dtype=np.uint8), labels, 2)

    def test_level_populations_names_all_overflow_window(self):
        idx = np.array([0, 0, 1, 0, 0, 0] + [4] * 6)
        with pytest.raises(AllOverflow, match="window 1"):
            cl.level_populations(idx, ["g", "e", "f", "h", "k+"], 6)


class TestSeparation:
    def test_identical_means_zero(self):
        m = cl.GmmModel(("g", "e"), [[1.0, 1.0], [1.0, 1.0]], [np.eye(2), 2 * np.eye(2)],
                        [0.5, 0.5])
        assert cl.pairwise_separation(m, "g", "e") == 0.0

    def test_unit_covariance_axis_separation(self):
        m = cl.GmmModel(("g", "e"), [[0.0, 0.0], [6.0, 0.0]], [np.eye(2)] * 2, [0.5, 0.5])
        assert cl.pairwise_separation(m, "g", "e") == pytest.approx(6.0, rel=1e-12)

    def test_design_gate_maps_to_error_rate(self, ring_model):
        assert cl.min_pairwise_separation(ring_model) >= 6.0 - 1e-9
        assert cl.bayes_error(6.0) == pytest.approx(1.35e-3, abs=2e-5)

    @given(seed=st.integers(0, 10000))
    @settings(max_examples=50, deadline=None)
    def test_affine_invariance(self, seed):
        rng = np.random.default_rng(seed)
        model = make_ring_model(("g", "e"), separation=rng.uniform(1, 8))
        a = rng.normal(size=(2, 2))
        a += np.sign(np.linalg.det(a) or 1.0) * 2.0 * np.eye(2)
        b = rng.normal(size=2)
        transformed = cl.GmmModel(model.labels, model.means @ a.T + b, a @ model.covs @ a.T,
                                  model.weights)
        d0 = cl.pairwise_separation(model, "g", "e")
        d1 = cl.pairwise_separation(transformed, "g", "e")
        assert d1 == pytest.approx(d0, rel=1e-9, abs=1e-9)


class TestBayesError:
    def test_reference_values(self):
        assert cl.bayes_error(0.0) == 0.5
        assert cl.bayes_error(6.0) == pytest.approx(1.3498980316301e-3, rel=1e-10)
        assert cl.bayes_error(4.0) == pytest.approx(2.275013194817922e-2, rel=1e-10)

    @given(d=st.floats(0, 20))
    @settings(max_examples=50)
    def test_decreasing(self, d):
        assert cl.bayes_error(d + 0.1) < cl.bayes_error(d)

    def test_domain(self):
        with pytest.raises(ValueError, match="delta must be >= 0"):
            cl.bayes_error(-1e-12)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="delta must be >= 0"):
            cl.bayes_error(math.nan)


class TestAssignmentMatrix:
    def test_perfect_classification_identity(self, ring_model):
        matrix = cl.assignment_matrix(ring_model, ring_model.means, np.arange(5),
                                      ring_model.labels)
        assert np.allclose(matrix.matrix, np.eye(5))

    def test_rows_in_canonical_order_from_any_table(self, ring_model):
        # A first-appearance table, as the shot CSV reader returns it.
        table = ["k+", "f", "g", "h", "e"]
        xy, codes = cl.sample_from_model(ring_model, 300, seed=8)
        remap = np.array([table.index(lab) for lab in ring_model.labels])
        a = cl.assignment_matrix(ring_model, xy, remap[codes], table)
        b = cl.assignment_matrix(ring_model, xy, codes, ring_model.labels)
        assert a.row_labels == b.row_labels == list(ring_model.labels)
        assert a.matrix.tobytes() == b.matrix.tobytes()
        named = np.array(ring_model.labels)[codes]
        for r, prep in enumerate(a.row_labels):
            assigned = cl.assign_indices(ring_model, xy[named == prep])
            assert a.matrix[r].tolist() == (np.bincount(assigned, minlength=5)
                                            / assigned.size).tolist()

    def test_row_stochastic_and_diag_dominant(self, ring_model):
        xy, codes = cl.sample_from_model(ring_model, 20000, seed=21)
        matrix = cl.assignment_matrix(ring_model, xy, codes, ring_model.labels)
        assert np.allclose(matrix.matrix.sum(axis=1), 1.0, atol=1e-9)
        labels = matrix.row_labels
        for i, prep in enumerate(labels):
            bound = 1.0
            for j, other in enumerate(labels):
                if i == j:
                    continue
                eps = cl.bayes_error(cl.pairwise_separation(ring_model, prep, other))
                bound -= eps + 3 * math.sqrt(eps * (1 - eps) / 20000)
            assert matrix.matrix[i, i] >= bound

    def test_empty_row_raises(self, ring_model):
        # A table entry that no code names is a row with no shots.
        xy, codes = cl.sample_from_model(ring_model, 200, seed=2)
        with pytest.raises(EmptyRow, match="'missing'"):
            cl.assignment_matrix(ring_model, xy, codes, [*ring_model.labels, "missing"])


class TestSyntheticConfusion:
    def test_well_separated_diagonal(self, ring_model):
        conf = cl.synthetic_confusion(ring_model, 100000, seed=3)
        assert np.min(np.diag(conf.matrix)) >= 0.995

    def test_deterministic(self, ring_model):
        a = cl.synthetic_confusion(ring_model, 500, seed=17)
        b = cl.synthetic_confusion(ring_model, 500, seed=17)
        assert np.array_equal(a.matrix, b.matrix)

    def test_identical_components_tie_break(self):
        # two bit-identical components produce exact posterior ties, which
        # the deterministic contract sends to the lower canonical label
        dup = cl.GmmModel(("g", "e"), [[0.0, 0.0], [0.0, 0.0]], [np.eye(2)] * 2, [0.5, 0.5])
        conf = cl.synthetic_confusion(dup, 1000, seed=1)
        assert np.allclose(conf.matrix[:, 0], 1.0)
        assert posteriors(dup, (0.3, -0.2))[0, 0] == pytest.approx(0.5)

    def test_minimum_samples(self, ring_model):
        with pytest.raises(ValueError):
            cl.synthetic_confusion(ring_model, 50, seed=0)


# --- the running argmax against the (n, k) matrix it replaced -------------------

def reference_log_densities(model, xy):
    """Log of weight * normal density for every (shot, component), as a matrix."""
    labels = model.labels
    out = np.empty((xy.shape[0], len(labels)))
    for j, (mean, cov, weight) in enumerate(zip(model.means, model.covs, model.weights)):
        diff = xy - mean
        x, y = diff[:, 0], diff[:, 1]
        det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
        maha = (cov[1, 1] * x * x - (cov[0, 1] + cov[1, 0]) * x * y + cov[0, 0] * y * y) / det
        log_w = math.log(weight) if weight > 0 else -math.inf
        out[:, j] = log_w - 0.5 * (maha + math.log(det)) - cl._LOG_2PI
    return labels, out


def reference_indices(model, xy):
    with np.errstate(all="ignore"):
        return np.argmax(reference_log_densities(model, np.asarray(xy, dtype=float))[1], axis=1)


def check_against_reference(model, xy):
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    with np.errstate(all="ignore"):
        idx = cl.assign_indices(model, xy)
        dens = cl._log_density_matrix(*xy.T, model.means, model.covs, model.weights)
        ref = reference_log_densities(model, xy)[1]
    assert idx.dtype == np.uint8 and idx.shape == (len(xy),)
    assert idx.tolist() == reference_indices(model, xy).tolist()
    assert dens.tobytes() == ref.T.tobytes()
    return idx


# A diagonal, a correlated and an anti-correlated component.
MIXED = cl.GmmModel(
    ("g", "e", "f", "h"), [[0.0, 0.0], [3.0, 1.0], [-2.0, 4.0], [1.0, -3.0]],
    [np.eye(2), [[2.0, 0.5], [0.5, 1.0]], [[1.0, -0.9], [-0.9, 1.5]], [[0.5, 0.2], [0.2, 0.3]]],
    [0.4, 0.3, 0.3, 0.0])


class TestRunningArgmax:
    def test_shot_exactly_between_two_equal_components(self):
        two = cl.GmmModel(("e", "g"), [[1.0, 0.0], [-1.0, 0.0]], [np.eye(2)] * 2, [0.5, 0.5])
        idx = check_against_reference(two, [[0.0, y] for y in (-3.0, 0.0, 0.5, 7.0)])
        assert idx.tolist() == [two.labels.index("g")] * 4

    def test_zero_weight_component_never_wins(self, ring_model):
        weights = ring_model.weights.copy()
        g, h = ring_model.labels.index("g"), ring_model.labels.index("h")
        weights[g], weights[h] = weights[g] + weights[h], 0.0
        model = cl.GmmModel(ring_model.labels, ring_model.means, ring_model.covs, weights)
        xy, _ = cl.sample_from_model(ring_model, 300, seed=6)
        idx = check_against_reference(model, xy)
        assert model.labels.index("h") not in idx.tolist()

    @pytest.mark.parametrize("big", [1e200, -1e200, 1e308])
    def test_shots_far_out_give_inf_and_nan_densities(self, big):
        # The diagonal component's density is -inf there; the correlated
        # ones overflow to inf - inf = NaN at some of the corners, where
        # the first NaN wins, as with np.argmax.
        xy = [[big, big], [big, -big], [-big, big], [big, 0.0], [0.0, -big],
              [0.0, 0.0], [3.0, 1.0]]
        check_against_reference(MIXED, xy)
        with np.errstate(all="ignore"):
            dens = reference_log_densities(MIXED, np.array(xy))[1]
        assert np.isnan(dens).any() and np.isneginf(dens).any()

    def test_empty_input(self, ring_model):
        assert check_against_reference(ring_model, np.empty((0, 2))).size == 0

    @given(shots=st.lists(st.tuples(*[st.one_of(
               st.floats(-20, 20), st.sampled_from([1e200, -1e200, 0.0, -0.0]))] * 2),
               max_size=40),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_any_shots_and_model_match_the_reference(self, shots, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 7))
        weights = rng.dirichlet(np.ones(k)) * (rng.random(k) > 0.2)
        weights = weights / weights.sum() if weights.sum() > 0 else np.full(k, 1.0 / k)
        means, covs = [], []
        for j in range(k):
            a = rng.normal(size=(2, 2))
            # Ties between identical components show when k repeats a mean.
            means.append(rng.integers(-3, 4, 2).astype(float))
            covs.append(a @ a.T + 0.1 * np.eye(2))
        labels = [cl.LABEL_ORDER[j] if j < 5 else f"x{j}" for j in range(k)]
        model = cl.GmmModel(tuple(labels), means, covs, weights)
        check_against_reference(model, np.array(shots, dtype=float).reshape(-1, 2))

    def test_no_n_by_k_matrix_is_allocated(self):
        import tracemalloc
        # Each of the running arrays holds n values; the matrix held n * k.
        k, n = 32, 50_000
        model = cl.GmmModel(tuple(f"c{j}" for j in range(k)),
                            [[float(j), 0.0] for j in range(k)], [np.eye(2)] * k,
                            [1.0 / k] * k)
        xy = np.random.default_rng(1).normal(size=(n, 2)) * 4
        tracemalloc.start()
        try:
            idx = cl.assign_indices(model, xy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert idx.tolist() == reference_indices(model, xy).tolist()
        assert peak < n * k * 8 / 2

    def test_em_iterations_and_model_unchanged(self, ring_model, monkeypatch):
        xy, codes = cl.sample_from_model(ring_model, 400, seed=11)
        outcome = em_outcome(monkeypatch, xy, ring_model.labels, codes)
        ref = reference_outcome(xy, ring_model.labels, codes)
        assert outcome[1] == ref[1] > 2
        check_same_fit(outcome[0], ref[0])


# --- array EM against the per-component EM it replaced ----------------------------

def reference_fit_gmm(xy, labels, prep_labels, max_iter=500):
    """The per-component EM: a model per sweep and a Python M-step over k.

    ``labels`` name the components and ``prep_labels`` holds each shot's
    label.  Returns (model, sweeps), or (NotConverged or SingularComponent,
    sweeps) where the EM raises it.
    """
    xy = np.asarray(xy, dtype=float)
    labels = sorted(set(labels), key=cl._label_sort_key)
    k = len(labels)
    n = xy.shape[0]
    if n < 10 * k:
        raise ValueError(f"need >= 10 shots per component, got {n} for {k}")
    reg = cl._REG_SCALE * float(np.var(xy, axis=0).mean()) * np.eye(2)
    prep_labels = np.asarray(prep_labels)
    means, covs, weights = [], [], []
    for lab in labels:
        sel = xy[prep_labels == lab]
        if sel.shape[0] < 10:
            raise ValueError(f"need >= 10 shots for component {lab!r}")
        means.append(sel.mean(axis=0))
        covs.append(np.cov(sel.T) + reg)
        weights.append(sel.shape[0] / n)
    model = cl.GmmModel(tuple(labels), means, covs, weights)
    ll_prev = None
    for sweep in range(1, max_iter + 1):
        log_dens = reference_log_densities(model, xy)[1]
        shift = log_dens.max(axis=1, keepdims=True)
        ll = float((shift[:, 0] + np.log(np.exp(log_dens - shift).sum(axis=1))).sum())
        w = np.exp(log_dens - shift)
        resp = w / w.sum(axis=1, keepdims=True)
        nk = resp.sum(axis=0)
        if np.any(nk / n < cl._MIN_WEIGHT):
            return SingularComponent, sweep
        means, covs = [], []
        for j in range(k):
            mu = resp[:, j] @ xy / nk[j]
            diff = xy - mu
            means.append(mu)
            covs.append((resp[:, j, None] * diff).T @ diff / nk[j] + reg)
        model = cl.GmmModel(tuple(labels), means, covs, nk / n)
        if ll_prev is not None and abs(ll - ll_prev) <= cl._EM_TOL * abs(ll):
            return model, sweep
        ll_prev = ll
    return NotConverged, max_iter


def em_outcome(monkeypatch, xy, labels, codes, max_iter=500):
    """(model or exception type, sweeps) of ``fit_gmm``, counting its log-sum-exps."""
    sweeps = []

    def counted(log_dens, log_sum_exp=cl._log_sum_exp):
        sweeps.append(None)
        return log_sum_exp(log_dens)

    monkeypatch.setattr(cl, "_log_sum_exp", counted)
    monkeypatch.setattr(cl, "_EM_MAX_ITER", max_iter)
    try:
        return cl.fit_gmm(xy, labels, codes), len(sweeps)
    except (NotConverged, SingularComponent) as exc:
        return type(exc), len(sweeps)
    finally:
        monkeypatch.undo()


def reference_outcome(xy, labels, codes, max_iter=500):
    """``reference_fit_gmm`` on the same shots, with labels for codes."""
    return reference_fit_gmm(xy, labels, np.array(labels)[codes], max_iter)


def check_same_fit(new, ref):
    """Means and covariances within 1e-10, weights within 1e-12, same labels in order."""
    if isinstance(ref, type):
        assert new is ref
        return
    assert new.labels == ref.labels
    assert np.max(np.abs(new.means - ref.means)) <= 1e-10
    assert np.max(np.abs(new.covs - ref.covs)) <= 1e-10
    assert np.max(np.abs(new.weights - ref.weights)) <= 1e-12


RING = make_ring_model()
SHIFTED_RING = cl.GmmModel(RING.labels, RING.means + [1e3, -1e3], RING.covs, RING.weights)
SKEWED = cl.GmmModel(
    ("g", "e", "f"), [[0.0, 0.0], [2.5, 1.0], [0.5, 3.0]],
    [[[1.0, 0.3], [0.3, 0.5]], [[0.6, -0.2], [-0.2, 1.4]], [[2.0, 0.0], [0.0, 0.2]]],
    [0.55, 0.3, 0.15])


class TestArrayEmMatchesReference:
    """Equal sweeps and outcomes; means and covariances within 1e-10, weights 1e-12."""

    @pytest.mark.parametrize("name", ["ring", "shifted ring", "skewed"])
    def test_seeded_sweep(self, monkeypatch, name):
        # The ring shifted by (1e3, -1e3) exercises the centring of the moments.
        model = {"ring": make_ring_model(), "shifted ring": SHIFTED_RING, "skewed": SKEWED}[name]
        for seed in range(6):
            xy, codes = cl.sample_from_model(model, 150 + 50 * seed, seed=seed)
            new = em_outcome(monkeypatch, xy, model.labels, codes)
            ref = reference_outcome(xy, model.labels, codes)
            assert new[1] == ref[1]
            check_same_fit(new[0], ref[0])

    def test_collapse_on_lattice_shots(self, monkeypatch):
        # Shots on a 3 x 3 lattice with shuffled preps: a component collapses.
        rng = np.random.default_rng(151)
        k = int(rng.integers(2, 6))
        n = int(rng.integers(10 * k, 30 * k))
        xy = rng.integers(0, 3, size=(n, 2)).astype(float)
        codes = np.repeat(np.arange(k), n // k + 1)[:n]
        rng.shuffle(codes)
        labels = list(cl.LABEL_ORDER[:k])
        ref = reference_outcome(xy, labels, codes)
        assert ref[0] is SingularComponent
        assert em_outcome(monkeypatch, xy, labels, codes) == ref

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_sweep_cap_gives_not_converged_in_both(self, monkeypatch, max_iter):
        model = make_ring_model()
        xy, codes = cl.sample_from_model(model, 200, seed=4)
        new = em_outcome(monkeypatch, xy, model.labels, codes, max_iter)
        assert new == (NotConverged, max_iter)
        assert reference_outcome(xy, model.labels, codes, max_iter) == (NotConverged, max_iter)

    def test_first_appearance_table_fits_the_same_model(self):
        model = make_ring_model()
        xy, codes = cl.sample_from_model(model, 200, seed=5)
        table = ["h", "g", "k+", "e", "f"]
        remap = np.array([table.index(lab) for lab in model.labels])
        a = cl.fit_gmm(xy, table, remap[codes])
        b = cl.fit_gmm(xy, model.labels, codes)
        assert a.labels == b.labels == model.labels
        for name in ("means", "covs", "weights"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

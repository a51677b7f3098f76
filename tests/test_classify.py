"""Tests of mixture fitting, state assignment and separation analysis."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxline import classify as cl
from fluxline.errors import (
    AllOverflow,
    EmptyRow,
    NotConverged,
    OutOfRange,
    SingularComponent,
)

from conftest import make_ring_model


class TestFitGmm:
    def test_supervised_recovery(self, ring_model):
        xy, labs = cl.sample_from_model(ring_model, 3000, seed=42)
        fit = cl.fit_gmm(xy, labels=ring_model.labels, init="supervised",
                         prep_labels=labs)
        sigma_mean = 1.0 / math.sqrt(3000)
        for lab in ring_model.labels:
            err = np.linalg.norm(fit.components[lab].mean
                                 - ring_model.components[lab].mean)
            assert err < 4 * sigma_mean

    def test_random_init_recovers_means(self, ring_model):
        # random init cannot know which label is which (and, like any EM,
        # can stall in a poor local optimum for unlucky seeds); with a
        # well-behaved seed the set of means matches the truth
        xy, _ = cl.sample_from_model(ring_model, 2000, seed=9)
        fit = cl.fit_gmm(xy, labels=ring_model.labels, init="random", seed=2)
        truth = np.array([ring_model.components[l].mean for l in ring_model.labels])
        got = np.array([fit.components[l].mean for l in fit.labels])
        for mean in truth:
            assert np.min(np.linalg.norm(got - mean, axis=1)) < 0.2

    def test_determinism(self, ring_model):
        xy, labs = cl.sample_from_model(ring_model, 500, seed=3)
        a = cl.fit_gmm(xy, labels=ring_model.labels, prep_labels=labs)
        b = cl.fit_gmm(xy, labels=ring_model.labels, prep_labels=labs)
        for lab in a.labels:
            assert np.array_equal(a.components[lab].mean, b.components[lab].mean)
            assert np.array_equal(a.components[lab].cov, b.components[lab].cov)
            assert a.components[lab].weight == b.components[lab].weight

    def test_em_monotone_log_likelihood(self, ring_model):
        # run EM with an unreachable tolerance and increasing iteration
        # caps; the final likelihood carried by NotConverged must be
        # non-decreasing in the cap
        xy, labs = cl.sample_from_model(ring_model, 400, seed=5)
        lls = []
        for n_iter in range(2, 10):
            with pytest.raises(NotConverged) as err:
                cl.fit_gmm(xy, labels=ring_model.labels, prep_labels=labs,
                           max_iter=n_iter, tol=1e-300)
            lls.append(err.value.log_likelihood)
        assert all(v is not None for v in lls)
        assert all(b >= a - 1e-12 * abs(a) for a, b in zip(lls, lls[1:]))

    def test_degenerate_single_cluster(self):
        rng = np.random.default_rng(0)
        xy = rng.normal(0, 0.5, size=(400, 2))
        prep = np.array((["g"] * 100 + ["e"] * 100 + ["f"] * 100 + ["h"] * 100))
        with pytest.raises((SingularComponent, Exception)):
            cl.fit_gmm(xy, labels=("g", "e", "f", "h"), prep_labels=prep)

    def test_needs_enough_shots(self, ring_model):
        with pytest.raises(ValueError):
            cl.fit_gmm(np.zeros((5, 2)), labels=("g", "e"), prep_labels=["g"] * 5)


class TestClassifyShot:
    def test_component_mean_high_posterior(self, ring_model):
        for lab in ring_model.labels:
            got, post = cl.classify_shot(ring_model, ring_model.components[lab].mean)
            assert got == lab
            assert post[lab] > 0.99

    def test_tie_breaks_to_lower_canonical_order(self):
        two = cl.GmmModel({
            "e": cl.GmmComponent([2.0, 0.0], np.eye(2), 0.5),
            "g": cl.GmmComponent([0.0, 0.0], np.eye(2), 0.5),
        })
        lab, post = cl.classify_shot(two, (1.0, 0.0))
        assert lab == "g"
        assert post["g"] == pytest.approx(0.5)

    def test_bulk_confusion_matches_bayes(self):
        delta = 4.0
        two = cl.GmmModel({
            "g": cl.GmmComponent([0.0, 0.0], np.eye(2), 0.5),
            "e": cl.GmmComponent([delta, 0.0], np.eye(2), 0.5),
        })
        n = 200000
        conf = cl.synthetic_confusion(two, n, seed=13)
        eps = cl.bayes_error(delta)
        tol = 3 * math.sqrt(eps * (1 - eps) / n)
        assert abs(conf.entry("g", "e") - eps) < tol
        assert abs(conf.entry("e", "g") - eps) < tol


class TestIndexPath:
    def test_indices_match_classify_shot(self, ring_model):
        xy, _ = cl.sample_from_model(ring_model, 500, seed=4)
        idx = cl.assign_indices(ring_model, xy)
        assert [ring_model.labels[i] for i in idx] == [
            cl.classify_shot(ring_model, row)[0] for row in xy]

    def test_tie_breaks_to_lower_canonical_order(self):
        two = cl.GmmModel({
            "e": cl.GmmComponent([2.0, 0.0], np.eye(2), 0.5),
            "g": cl.GmmComponent([0.0, 0.0], np.eye(2), 0.5),
        })
        assert cl.assign_indices(two, np.array([[1.0, 0.0]]))[0] == two.labels.index("g")

    @pytest.mark.parametrize("n_shots, window", [(6000, 1000), (6999, 1000), (17, 1)])
    def test_window_counts_match_label_comparison(self, n_shots, window):
        labels = ["g", "e", "f", "h", "k+"]
        idx = np.random.default_rng(n_shots).integers(0, len(labels), n_shots)
        named = np.array(labels, dtype=object)[idx]
        counts = cl.window_counts(idx, len(labels), window)
        assert counts.shape == (n_shots // window, len(labels))
        for w in range(counts.shape[0]):
            sel = named[w * window:(w + 1) * window]
            assert counts[w].tolist() == [int(np.count_nonzero(sel == lab))
                                          for lab in labels]

    def test_level_populations_renormalize_each_row(self):
        labels = ["k+", "h", "g", "f", "e"]
        counts = np.random.default_rng(3).integers(0, 50, (20, len(labels)))
        pops = cl.level_populations(counts, labels)
        for w, row in enumerate(counts):
            four = np.array([row[2], row[4], row[3], row[1]], dtype=float)
            assert np.array_equal(pops[w], four / four.sum())

    def test_level_populations_names_all_overflow_window(self):
        counts = np.array([[5, 1, 0, 0, 0], [0, 0, 0, 0, 7]])
        with pytest.raises(AllOverflow, match="window 1"):
            cl.level_populations(counts, ["g", "e", "f", "h", "k+"])


class TestSeparation:
    def test_identical_means_zero(self):
        m = cl.GmmModel({
            "g": cl.GmmComponent([1.0, 1.0], np.eye(2), 0.5),
            "e": cl.GmmComponent([1.0, 1.0], 2 * np.eye(2), 0.5),
        })
        assert cl.pairwise_separation(m, "g", "e") == 0.0

    def test_unit_covariance_axis_separation(self):
        m = cl.GmmModel({
            "g": cl.GmmComponent([0.0, 0.0], np.eye(2), 0.5),
            "e": cl.GmmComponent([6.0, 0.0], np.eye(2), 0.5),
        })
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
        transformed = cl.GmmModel({
            lab: cl.GmmComponent(a @ c.mean + b, a @ c.cov @ a.T, c.weight)
            for lab, c in model.components.items()})
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

    @given(eps=st.floats(1e-12, 0.5))
    @settings(max_examples=100)
    def test_inverse_round_trip(self, eps):
        delta = cl.effective_binary_separation(eps)
        assert cl.bayes_error(delta) == pytest.approx(eps, rel=1e-9, abs=1e-10)

    def test_inverse_reference_values(self):
        assert cl.effective_binary_separation(0.5) == pytest.approx(0.0, abs=1e-12)
        assert cl.effective_binary_separation(1.3498980316301e-3) == pytest.approx(
            6.0, abs=1e-6)
        assert cl.effective_binary_separation(2.275013194817922e-2) == pytest.approx(
            4.0, abs=1e-6)

    def test_domain(self):
        with pytest.raises(OutOfRange):
            cl.effective_binary_separation(0.0)
        with pytest.raises(OutOfRange):
            cl.effective_binary_separation(0.6)


class TestAssignmentMatrix:
    def test_perfect_classification_identity(self, ring_model):
        means = np.array([ring_model.components[l].mean for l in ring_model.labels])
        labels = np.array(ring_model.labels, dtype=object)
        matrix = cl.assignment_matrix(ring_model, means, labels)
        assert np.allclose(matrix.matrix, np.eye(5))

    def test_row_stochastic_and_diag_dominant(self, ring_model):
        xy, labs = cl.sample_from_model(ring_model, 20000, seed=21)
        matrix = cl.assignment_matrix(ring_model, xy, labs)
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
        xy, labs = cl.sample_from_model(ring_model, 200, seed=2)
        with pytest.raises(EmptyRow):
            cl.assignment_matrix(ring_model, xy, labs,
                                 row_labels=["g", "missing"])


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
        dup = cl.GmmModel({
            "g": cl.GmmComponent([0.0, 0.0], np.eye(2), 0.5),
            "e": cl.GmmComponent([0.0, 0.0], np.eye(2), 0.5),
        })
        conf = cl.synthetic_confusion(dup, 1000, seed=1)
        assert np.allclose(conf.matrix[:, 0], 1.0)
        _, post = cl.classify_shot(dup, (0.3, -0.2))
        assert post["g"] == pytest.approx(0.5)

    def test_minimum_samples(self, ring_model):
        with pytest.raises(ValueError):
            cl.synthetic_confusion(ring_model, 50, seed=0)


class TestHeraldAndOverflow:
    def test_all_retained(self):
        xy = np.zeros((5, 2))
        kept, frac = cl.herald_filter(xy, np.ones(5))
        assert kept.shape[0] == 5 and frac == 1.0

    def test_strict_threshold(self):
        xy = np.array([[0.0, 0.0], [1.0, 1.0]])
        kept, frac = cl.herald_filter(xy, np.array([0.996, 0.99]), threshold=0.995)
        assert kept.shape[0] == 1
        assert np.array_equal(kept[0], xy[0])
        assert frac == 0.5

    def test_threshold_boundary_excluded(self):
        xy = np.zeros((1, 2))
        kept, _ = cl.herald_filter(xy, np.array([0.995]), threshold=0.995)
        assert kept.shape[0] == 0

    def test_renormalization_values(self):
        pv = cl.exclude_overflow_and_renormalize(
            {"g": 70, "e": 20, "f": 7, "h": 2, "k+": 1})
        assert pv.as_array() == pytest.approx(
            np.array([70, 20, 7, 2]) / 99.0, rel=1e-12)

    def test_no_overflow_counts_plain_normalization(self):
        pv = cl.exclude_overflow_and_renormalize({"g": 3, "e": 1, "f": 0, "h": 0})
        assert pv.p_g == pytest.approx(0.75)

    def test_all_overflow_raises(self):
        with pytest.raises(AllOverflow):
            cl.exclude_overflow_and_renormalize(
                {"g": 0, "e": 0, "f": 0, "h": 0, "k+": 9})


class TestTruncationAndCorrection:
    def test_three_sigma_truncation_keeps_most(self, ring_model):
        xy, _ = cl.sample_from_model(ring_model, 5000, seed=6)
        mask = cl.truncate_to_sigma(ring_model, xy, 3.0)
        # 2-D Gaussian within 3 sigma: 1 - exp(-9/2) = 0.9889
        assert abs(mask.mean() - 0.9889) < 0.01

    def test_confusion_correction_recovers_truth(self):
        matrix = cl.AssignmentMatrix(
            ["g", "e"], ["g", "e"],
            np.array([[0.98, 0.02], [0.05, 0.95]]))
        true = np.array([700.0, 300.0])
        observed = true @ matrix.matrix
        counts = {"g": observed[0], "e": observed[1]}
        corrected = cl.apply_confusion_correction(counts, matrix)
        assert corrected["g"] == pytest.approx(700.0, rel=1e-9)
        assert corrected["e"] == pytest.approx(300.0, rel=1e-9)

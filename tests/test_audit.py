import math
import tracemalloc

import numpy as np
import pytest

from blockwise_unlearn import audit
from blockwise_unlearn import datasets as ds
from blockwise_unlearn import engine as eng
from blockwise_unlearn import model as mdl
from blockwise_unlearn.errors import DomainError, NumericalError


BLOBS = ds.generate_blobs(1200, classes=4, dim=8, separation=6.0, seed=17)
ARCH = mdl.MlpSpec((8, 16, 4))
SPLIT = ds.make_split(BLOBS, ds.RandomFraction(0.1), seed=3, test_fraction=0.2)


def split_pairs():
    retain = BLOBS.subset(SPLIT.retain_idx).pair()
    forget = BLOBS.subset(SPLIT.forget_idx).pair()
    test = BLOBS.subset(SPLIT.test_idx).pair()
    return retain, forget, test


def trained_params():
    cfg = eng.TrainConfig(steps=400, lr=0.05)
    retain, _, _ = split_pairs()
    return eng.train(ARCH, retain, eng.Seeds(1, 2, 3), cfg)


class TestComputeMetrics:
    def test_all_wrong_forget_set_gives_ua_100(self):
        retain, forget, test = split_pairs()
        params = trained_params()
        wrong_labels = (forget[1] + 1) % 4
        report = audit.compute_metrics(params, retain, (forget[0], wrong_labels), test)
        acc = mdl.accuracy(params, forget[0], wrong_labels)
        assert report.ua == pytest.approx(100.0 * (1 - acc))
        # a forget set the model always misses scores exactly 100
        hopeless = (forget[0], np.full(len(forget[1]), 3, dtype=np.int64))
        if mdl.accuracy(params, *hopeless) == 0.0:
            assert audit.compute_metrics(params, retain, hopeless, test).ua == 100.0

    def test_self_comparison_zero_deltas(self):
        retain, forget, test = split_pairs()
        params = trained_params()
        report = audit.compute_metrics(
            params, retain, forget, test, retrain_params=params
        )
        assert report.ua_delta == 0.0
        assert report.ra_delta == 0.0
        assert report.ta_delta == 0.0

    def test_deltas_are_differences_to_the_baseline_report(self):
        retain, forget, test = split_pairs()
        params = trained_params()
        retrained = mdl.init_params(ARCH, seed=5)
        report = audit.compute_metrics(params, retain, forget, test, mia_seed=2)
        base = audit.compute_metrics(retrained, retain, forget, test, mia_seed=2)
        derived = audit.against_baseline(report, base)
        assert derived == audit.compute_metrics(
            params, retain, forget, test, retrain_params=retrained, mia_seed=2
        )
        assert derived.ua_delta == report.ua - base.ua
        assert derived.ra_delta == report.ra - base.ra
        assert derived.ta_delta == report.ta - base.ta
        assert (derived.ua, derived.mia_efficacy) == (report.ua, report.mia_efficacy)

    def test_ua_complement_identity(self):
        retain, forget, test = split_pairs()
        params = trained_params()
        report = audit.compute_metrics(params, retain, forget, test)
        acc = mdl.accuracy(params, forget[0], forget[1])
        assert report.ua + 100.0 * acc == pytest.approx(100.0, abs=1e-12)

    def test_empty_forget_set_absent_markers(self):
        retain, _, test = split_pairs()
        params = trained_params()
        empty = (np.empty((0, 8)), np.empty(0, dtype=np.int64))
        report = audit.compute_metrics(params, retain, empty, test)
        assert report.ua is None and report.mia_efficacy is None
        assert 0.0 <= report.ra <= 100.0 and 0.0 <= report.ta <= 100.0

    def test_percentages_in_range(self):
        retain, forget, test = split_pairs()
        report = audit.compute_metrics(trained_params(), retain, forget, test)
        for v in (report.ua, report.ra, report.ta, report.mia_efficacy):
            assert 0.0 <= v <= 100.0


class TestMiaEfficacy:
    def test_label_shuffle_invariance(self):
        retain, forget, test = split_pairs()
        params = trained_params()
        base = audit.mia_efficacy(params, retain, forget, test, seed=5)
        order = np.random.default_rng(0).permutation(len(forget[1]))
        shuffled = (forget[0][order], forget[1][order])
        assert audit.mia_efficacy(params, retain, shuffled, test, seed=5) == base

    def test_overfit_model_scores_below_retrained(self):
        # the model trained on the forget rows leaks membership; the coupled
        # retrain that never saw them does not
        cfg = eng.TrainConfig(steps=600, lr=0.08, weight_decay=0.0)
        retain, forget, test = split_pairs()
        worse = 0
        for s in range(5):
            seeds = eng.Seeds(s, 50 + s, 90 + s)
            original = eng.train(ARCH, BLOBS.subset(
                np.concatenate([SPLIT.retain_idx, SPLIT.forget_idx])).pair(),
                seeds, cfg)
            retrained = eng.coupled_retrain(ARCH, retain, seeds, cfg)
            e_orig = audit.mia_efficacy(original, retain, forget, test, seed=s)
            e_retr = audit.mia_efficacy(retrained, retain, forget, test, seed=s)
            if e_orig <= e_retr:
                worse += 1
        assert worse >= 4

    def test_empty_forget_absent(self):
        retain, _, test = split_pairs()
        empty = (np.empty((0, 8)), np.empty(0, dtype=np.int64))
        assert audit.mia_efficacy(trained_params(), retain, empty, test) is None

    def test_retrained_model_near_perfect_on_classwise(self):
        # a model that never saw the deleted class treats its rows as clear
        # non-members
        data = ds.generate_blobs(2000, classes=4, dim=8, separation=3.0, seed=31)
        split = ds.make_split(data, ds.ClassWise(1), seed=0, test_fraction=0.2)
        retain = data.subset(split.retain_idx).pair()
        forget = data.subset(split.forget_idx).pair()
        test = data.subset(split.test_idx).pair()
        retr = eng.coupled_retrain(
            mdl.MlpSpec((8, 16, 4)), retain, eng.Seeds(0, 1, 2),
            eng.TrainConfig(steps=400, lr=0.05),
        )
        assert audit.mia_efficacy(retr, retain, forget, test, seed=0) >= 95.0

    def test_deterministic(self):
        retain, forget, test = split_pairs()
        params = trained_params()
        a = audit.mia_efficacy(params, retain, forget, test, seed=11)
        b = audit.mia_efficacy(params, retain, forget, test, seed=11)
        assert a == b


def reference_audit(params, retain, forget, test, seed):
    """((RA, TA, UA, MIA efficacy), features) the way the audit used to score
    a model: one accuracy pass per set, then row-major attacker features from
    `forward` over the sampled members, the sampled non-members and the
    forget rows.  `features` holds, for those three sets in order, the
    (rows, classes) logits, the labels and the (rows, 2) features; None for
    an empty forget set."""

    def features(x, y):
        logits, _ = mdl.forward(params, mdl.Batch(x, y))
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return logits, y, np.column_stack([np.exp(log_probs.max(axis=1)),
                                           -log_probs[np.arange(len(y)), y]])

    ra = 100.0 * mdl.accuracy(params, *retain)
    ta = 100.0 * mdl.accuracy(params, *test)
    if len(forget[1]) == 0:
        return (ra, ta, None, None), None
    ua = 100.0 * (1.0 - mdl.accuracy(params, *forget))
    rng = np.random.default_rng(seed)
    n = min(len(retain[1]), len(test[1]))
    members = rng.permutation(len(retain[1]))[:n]
    non_members = rng.permutation(len(test[1]))[:n]
    sets = (features(retain[0][members], retain[1][members]),
            features(test[0][non_members], test[1][non_members]),
            features(*forget))
    x = np.vstack([sets[0][2], sets[1][2]])
    mean, std, w = audit._fit_logistic(x, np.concatenate([np.ones(n), np.zeros(n)]))
    called_member = audit._predict_member(mean, std, w, sets[2][2])
    return (ra, ta, ua, 100.0 * int(np.sum(~called_member)) / len(forget[1])), sets


def assert_same_features(sets):
    """`audit._attack_features` of each reference set's logits, in the
    audit's (classes, rows) layout, equals the row-major features bit for
    bit.  The attacker's threshold can hide a last-bit move in them, and the
    scorer's logits may differ from `forward`'s in their last bits, so the
    features are compared over the reference's own logits."""
    assert len(sets) == 3
    for logits, labels, expected in sets:
        got = audit._attack_features(np.ascontiguousarray(logits.T), labels)
        assert got.tobytes() == expected.tobytes()


def classwise_pairs():
    data = ds.generate_blobs(900, classes=4, dim=8, separation=3.0, seed=31)
    split = ds.make_split(data, ds.ClassWise(2), seed=0, test_fraction=0.2)
    return tuple(data.subset(i).pair()
                 for i in (split.retain_idx, split.forget_idx, split.test_idx))


class TestFusedAudit:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    @pytest.mark.parametrize("scenario", ["random", "classwise"])
    def test_equals_per_set_scoring(self, seed, scenario):
        retain, forget, test = split_pairs() if scenario == "random" else classwise_pairs()
        models = [trained_params(), mdl.init_params(ARCH, seed=seed)]
        for params in models:
            expected, features = reference_audit(params, retain, forget, test, seed)
            report = audit.compute_metrics(params, retain, forget, test, mia_seed=seed)
            assert (report.ra, report.ta, report.ua, report.mia_efficacy) == expected
            assert_same_features(features)
            assert audit.mia_efficacy(params, retain, forget, test, seed=seed) == expected[3]

    def test_wider_model_equals_per_set_scoring(self):
        # two hidden layers and more test than retain rows
        rng = np.random.default_rng(5)
        spec = mdl.MlpSpec((20, 24, 12, 5))
        params = mdl.ParamVector(0.3 * rng.standard_normal(mdl.init_params(spec, seed=0).d),
                                 mdl.layer_map(spec))
        retain, forget, test = (
            (rng.standard_normal((n, 20)), rng.integers(0, 5, size=n)) for n in (90, 13, 140)
        )
        expected, features = reference_audit(params, retain, forget, test, 3)
        report = audit.compute_metrics(params, retain, forget, test, mia_seed=3)
        assert (report.ra, report.ta, report.ua, report.mia_efficacy) == expected
        assert_same_features(features)

    @pytest.mark.parametrize("classes", [4, 5, 10, 150])
    def test_more_classes_equal_per_set_scoring(self, classes):
        # 8 classes and more take the blocked class sum, more than 128 its
        # split into halves
        rng = np.random.default_rng(classes)
        spec = mdl.MlpSpec((8, 16, classes))
        params = mdl.ParamVector(rng.standard_normal(mdl.init_params(spec, seed=0).d),
                                 mdl.layer_map(spec))
        retain, forget, test = (
            (rng.standard_normal((n, 8)), rng.integers(0, classes, size=n))
            for n in (120, 30, 90)
        )
        expected, features = reference_audit(params, retain, forget, test, 1)
        report = audit.compute_metrics(params, retain, forget, test, mia_seed=1)
        assert (report.ra, report.ta, report.ua, report.mia_efficacy) == expected
        assert_same_features(features)

    @pytest.mark.parametrize("classes", [4, 10, 150])
    def test_gathered_columns_give_the_features_of_a_contiguous_copy(self, classes):
        rng = np.random.default_rng(classes)
        logits = 4.0 * rng.standard_normal((classes, 60))
        rows = rng.permutation(60)[:25]
        labels = rng.integers(0, classes, size=25)
        gathered = logits.take(rows, axis=1)
        assert gathered.flags.c_contiguous
        expected = audit._attack_features(np.ascontiguousarray(logits[:, rows]), labels)
        assert np.array_equal(audit._attack_features(gathered, labels), expected)
        assert np.array_equal(audit._attack_features(logits[:, rows], labels), expected)

    def test_empty_forget_set_equals_per_set_scoring(self):
        retain, _, test = split_pairs()
        params = trained_params()
        empty = (np.empty((0, 8)), np.empty(0, dtype=np.int64))
        report = audit.compute_metrics(params, retain, empty, test)
        expected, features = reference_audit(params, retain, empty, test, 0)
        assert (report.ra, report.ta, report.ua, report.mia_efficacy) == expected
        assert features is None
        assert report.ua is None and report.mia_efficacy is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_raise(self, bad):
        retain, forget, test = split_pairs()
        params = trained_params()
        params.values[5] = bad
        with pytest.raises(NumericalError):
            audit.compute_metrics(params, retain, forget, test)
        with pytest.raises(NumericalError):
            audit.mia_efficacy(params, retain, forget, test)

    @pytest.mark.parametrize("label", [-1, 4])
    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_label_out_of_range_raises(self, label, which):
        # in the retain set, a row the attacker does not sample, so the check
        # must cover every scored row, not only the attacker's
        sets = list(split_pairs())
        x, y = sets[which]
        row = -1
        if which == 0:
            n_attack = min(len(y), len(sets[2][1]))
            sampled = np.random.default_rng(0).permutation(len(y))[:n_attack]
            row = int(np.setdiff1d(np.arange(len(y)), sampled)[0])
        y = y.copy()
        y[row] = label
        sets[which] = (x, y)
        params = trained_params()
        with pytest.raises(DomainError):
            audit.compute_metrics(params, *sets)
        with pytest.raises(DomainError):
            audit.mia_efficacy(params, *sets)

    def test_sets_are_scored_without_stacking_the_inputs(self):
        # the three inputs take 3 MB; a stacked copy of them would too
        spec = mdl.MlpSpec((64, 8, 3))
        params = mdl.init_params(spec, seed=0)
        rng = np.random.default_rng(0)
        retain, forget, test = (
            (rng.standard_normal((2000, 64)), rng.integers(0, 3, size=2000)) for _ in range(3)
        )
        audit.compute_metrics(params, retain, forget, test)
        tracemalloc.start()
        try:
            audit.compute_metrics(params, retain, forget, test)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # gathering the attacker's sampled input rows alone would take 1 MB
        assert peak < 1_000_000


class TestEstimateDelta:
    CFG = eng.TrainConfig(steps=120, lr=0.05, batch_size=64)
    SMALL = ds.generate_blobs(400, classes=3, dim=6, separation=5.0, seed=2)
    SMALL_ARCH = mdl.MlpSpec((6, 10, 3))

    def test_zero_perturbation_zero_delta(self):
        est = audit.estimate_delta(
            self.SMALL_ARCH, self.SMALL, 0.0, n_runs=3, rho=0.5,
            seeds=eng.Seeds(0, 1, 2), train_config=self.CFG,
        )
        assert est.delta_rho == 0.0
        assert all(s == 0.0 for s in est.samples)

    def test_rho_one_gives_minimum(self):
        est = audit.estimate_delta(
            self.SMALL_ARCH, self.SMALL, 0.1, n_runs=4, rho=1.0,
            seeds=eng.Seeds(0, 1, 2), train_config=self.CFG,
        )
        assert est.delta_rho == min(est.samples)

    def test_vacuous_quantile_warns(self):
        with pytest.warns(UserWarning):
            audit.estimate_delta(
                self.SMALL_ARCH, self.SMALL, 0.1, n_runs=3, rho=0.1,
                seeds=eng.Seeds(0, 1, 2), train_config=self.CFG,
            )

    def test_order_statistic_and_monotonicity_in_rho(self):
        est_small_rho = audit.estimate_delta(
            self.SMALL_ARCH, self.SMALL, 0.1, n_runs=6, rho=0.2,
            seeds=eng.Seeds(0, 1, 2), train_config=self.CFG,
        )
        est_large_rho = audit.estimate_delta(
            self.SMALL_ARCH, self.SMALL, 0.1, n_runs=6, rho=0.8,
            seeds=eng.Seeds(0, 1, 2), train_config=self.CFG,
        )
        s = sorted(est_small_rho.samples)
        assert est_small_rho.delta_rho == s[math.ceil(0.8 * 6) - 1]
        assert est_large_rho.delta_rho <= est_small_rho.delta_rho

    def test_positive_and_growing_with_perturbation(self):
        small = audit.estimate_delta(
            self.SMALL_ARCH, self.SMALL, 0.05, n_runs=5, rho=0.4,
            seeds=eng.Seeds(3, 4, 5), train_config=self.CFG,
        )
        large = audit.estimate_delta(
            self.SMALL_ARCH, self.SMALL, 0.4, n_runs=5, rho=0.4,
            seeds=eng.Seeds(3, 4, 5), train_config=self.CFG,
        )
        assert small.delta_rho > 0
        assert np.mean(large.samples) > np.mean(small.samples)

    def test_samples_equal_training_each_perturbed_copy(self):
        # the lockstep runs read row maps into the data; each must train as
        # the perturbed copy of the data does alone
        seeds, arch, cfg = eng.Seeds(3, 4, 5), self.SMALL_ARCH, self.CFG
        est = audit.estimate_delta(arch, self.SMALL, 0.2, n_runs=4, rho=0.5,
                                   seeds=seeds, train_config=cfg)
        x, y = self.SMALL.pair()
        n = len(y)
        base = eng.train(arch, (x, y), seeds, cfg)
        samples = []
        for j in range(4):
            rng = np.random.default_rng((seeds.noise, j))
            target = rng.permutation(n)[: n // 5]
            keep = np.setdiff1d(np.arange(n), target)
            source = keep[rng.integers(0, len(keep), size=len(target))]
            xs, ys = x.copy(), y.copy()
            xs[target], ys[target] = x[source], y[source]
            perturbed = eng.train(arch, (xs, ys), seeds, cfg)
            samples.append(mdl.vector_norm(base.values - perturbed.values))
        assert est.samples == tuple(sorted(samples))

    def test_too_few_runs(self):
        with pytest.raises(DomainError):
            audit.estimate_delta(
                self.SMALL_ARCH, self.SMALL, 0.1, n_runs=1, rho=0.5,
                seeds=eng.Seeds(0, 1, 2), train_config=self.CFG,
            )


def simulate_recursion(alpha, gamma_sc, lipschitz, differing_steps, total_steps):
    """Direct recursion oracle; differing indices count backward from the end."""
    differ_at = {total_steps - 1 - k for k in differing_steps}
    delta = 0.0
    trace = []
    for t in range(total_steps):
        delta = (1.0 - alpha * gamma_sc) * delta
        if t in differ_at:
            delta += 2.0 * alpha * lipschitz
        trace.append(delta)
    return trace


class TestStabilityBound:
    def test_empty_set_zero(self):
        assert audit.stability_bound(0.1, 1.0, 3.0, [], 10) == 0.0

    def test_single_last_step(self):
        for total in (1, 5, 50):
            assert audit.stability_bound(0.1, 1.0, 3.0, [0], total) == pytest.approx(
                2 * 0.1 * 3.0
            )

    def test_full_set_geometric_closed_form(self):
        alpha, gamma_sc, lip, t = 0.05, 2.0, 1.5, 30
        bound = audit.stability_bound(alpha, gamma_sc, lip, range(t), t)
        closed = 2 * alpha * lip * (1 - (1 - alpha * gamma_sc) ** t) / (alpha * gamma_sc)
        assert bound == pytest.approx(closed, rel=1e-12)
        term_sum = sum(2 * alpha * lip * (1 - alpha * gamma_sc) ** k for k in range(t))
        assert bound == pytest.approx(term_sum, rel=1e-12)

    def test_recursion_never_exceeds_bound(self):
        # final deviation is bounded by the matching index set; intermediate
        # deviations by the placement-independent set {0..n-1} (a run part way
        # through has its differences at smaller backward distances)
        rng = np.random.default_rng(29)
        for _ in range(100):
            alpha = rng.uniform(0.01, 0.5)
            gamma_sc = rng.uniform(0.05, 0.95) / alpha
            lip = rng.uniform(0.1, 5.0)
            total = int(rng.integers(1, 40))
            n_diff = int(rng.integers(0, total + 1))
            b = rng.permutation(total)[:n_diff]
            bound = audit.stability_bound(alpha, gamma_sc, lip, b, total)
            worst = audit.stability_bound(alpha, gamma_sc, lip, range(n_diff), total)
            trace = simulate_recursion(alpha, gamma_sc, lip, b, total)
            assert trace[-1] <= bound * (1 + 1e-12) + 1e-300
            assert all(d <= worst * (1 + 1e-12) + 1e-300 for d in trace)

    def test_contraction_violation_rejected(self):
        with pytest.raises(DomainError):
            audit.stability_bound(1.0, 1.0, 1.0, [0], 5)
        with pytest.raises(DomainError):
            audit.stability_bound(0.1, 1.0, 1.0, [7], 5)

from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ideation_stream.classifiers import (LabeledDataset, ModelKind,
                                         predict, predict_batch, train_dt,
                                         train_linear_svc, train_lr,
                                         train_mlp, train_nb, train_rf)
from ideation_stream.classifiers.linear import (LinearParams, _minimize, _sigmoid,
                                                logistic_loss_grad,
                                                squared_hinge_loss_grad)
from ideation_stream.classifiers.mlp import MLPParams, init_params, loss_and_grads
from ideation_stream.classifiers import tree
from ideation_stream.classifiers.tree import score_batch as tree_score_batch
from ideation_stream.errors import (DegenerateLabels, DimensionMismatch,
                                    InvalidHyperparameter, NegativeFeature)
from ideation_stream.features import FeatureCombo, SparseBatch, fit_pipeline

from conftest import (correlated_sparse_dataset, densify_first_layer, make_data, make_vec,
                      random_sparse_dataset, rows_of, stack)
from oracles import (_sigmoid_reference, build_tree_reference, lazy_adam_mlp_reference,
                     mlp_first_layer_grad_reference, mlp_loss_reference, mlp_scores_per_row)


class TestNaiveBayes:
    def test_hand_computed_posterior(self, nb_toy, vec):
        # alpha=1: priors 1/2 each.
        # class 1 counts: die 3, sad 2, happy 0, total 5 -> P(t|1)=(c+1)/8
        # class 0 counts: die 0, sad 1, happy 3, total 4 -> P(t|0)=(c+1)/7
        # doc [die, sad]: joint1 = 1/2 * 4/8 * 3/8 = 3/32
        #                 joint0 = 1/2 * 1/7 * 2/7 = 1/49
        # posterior = (3/32) / (3/32 + 1/49) = 147/179
        model = train_nb(nb_toy, alpha=1.0)
        pred = predict(model, vec(3, [(0, 1), (1, 1)]))
        assert pred.score == pytest.approx(147 / 179, abs=1e-12)
        assert pred.label == 1

    def test_posteriors_sum_to_one(self, nb_toy, vec):
        model = train_nb(nb_toy, alpha=1.0)
        rng = np.random.default_rng(3)
        for _ in range(25):
            nnz = rng.integers(0, 4)
            idx = np.sort(rng.choice(3, size=nnz, replace=False))
            v = SparseBatch(3, [0, nnz], idx, rng.uniform(0.5, 3, nnz))
            p1 = predict(model, v).score
            # scoring the complement class by symmetry of the softmax
            joint = model.params.log_prior + (model.params.log_lik[:, v.indices] @ v.values
                                              if nnz else 0.0)
            expd = np.exp(joint - joint.max())
            assert p1 + float(expd[0] / expd.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_single_class_rejected(self, vec):
        data = make_data([vec(2, [(0, 1)]), vec(2, [(1, 1)])], [1, 1])
        with pytest.raises(DegenerateLabels):
            train_nb(data)

    def test_negative_features_rejected(self, vec):
        data = make_data([vec(2, [(0, -1)]), vec(2, [(1, 1)])], [0, 1])
        with pytest.raises(NegativeFeature):
            train_nb(data)

    def test_mirrored_corpus_mirrors_posterior(self, vec):
        data = make_data([vec(2, [(0, 2)]), vec(2, [(1, 2)])], [1, 0])
        model = train_nb(data, alpha=1.0)
        p_pos = predict(model, vec(2, [(0, 1)])).score
        p_neg = predict(model, vec(2, [(1, 1)])).score
        assert p_pos == pytest.approx(1.0 - p_neg, abs=1e-12)


class TestLogisticRegression:
    def test_separable_within_200_iters(self, separable_toy):
        model = train_lr(separable_toy, l2=0.0, max_iter=200)
        labels, _ = predict_batch(model, separable_toy.batch)
        assert labels.tolist() == separable_toy.labels.tolist()

    def test_all_zero_features(self, vec):
        data = make_data([vec(2, []) for _ in range(4)], [1, 1, 1, 0])
        model = train_lr(data, l2=0.0, max_iter=100)
        assert np.all(model.params.weights == 0.0)
        assert predict(model, vec(2, [])).label == 1  # prior class

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for trial in range(8):
            data = random_sparse_dataset(rng, n=12, dim=6)
            l2 = float(rng.uniform(0, 0.5))
            wb = rng.normal(size=7)
            _, grad = logistic_loss_grad(wb, data, l2)
            eps = 1e-6
            for j in range(7):
                probe = wb.copy()
                probe[j] += eps
                up, _ = logistic_loss_grad(probe, data, l2)
                probe[j] -= 2 * eps
                down, _ = logistic_loss_grad(probe, data, l2)
                numeric = (up - down) / (2 * eps)
                denom = max(abs(numeric), abs(grad[j]), 1e-8)
                assert abs(numeric - grad[j]) / denom < 1e-6

    def test_zero_weights_score_is_half(self, vec):
        from ideation_stream.classifiers.base import ModelArtifact
        model = ModelArtifact(kind=ModelKind.LR, dim=2,
                              params=LinearParams(np.zeros(2), 0.0))
        assert predict(model, vec(2, [(0, 5)])).score == 0.5

    def test_sigmoid_bitwise_equals_reference(self):
        rng = np.random.default_rng(0)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 709.0, -709.0, 710.0,
                            -710.0, 745.2, -745.2, 800.0, -800.0, 1e308, -1e308, 5e-324, -5e-324])
        for z in [special, rng.normal(0.0, 30.0, (32, 64)), rng.uniform(-800.0, 800.0, 1000),
                  np.zeros((0, 3))]:
            got, want = _sigmoid(z), _sigmoid_reference(z)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()  # NaN's sign and payload too

    def test_feature_scaling_preserves_label_ordering(self, separable_toy):
        b = separable_toy.batch
        scaled = LabeledDataset(SparseBatch(2, b.indptr, b.indices, b.values * 3.0),
                                separable_toy.labels)
        base = train_lr(separable_toy, l2=0.0, max_iter=300)
        other = train_lr(scaled, l2=0.0, max_iter=300)
        labels_a = [predict(base, v).label for v in rows_of(separable_toy.batch)]
        labels_b = [predict(other, v).label for v in rows_of(scaled.batch)]
        scores_a = [predict(base, v).score for v in rows_of(separable_toy.batch)]
        scores_b = [predict(other, v).score for v in rows_of(scaled.batch)]
        assert labels_a == labels_b
        assert scores_a != scores_b  # scores move, labels do not


class TestLinearSvc:
    def test_separable_zero_hinge(self, separable_toy):
        model = train_linear_svc(separable_toy, c=10.0, max_iter=2000)
        y_pm = separable_toy.labels.astype(np.float64) * 2 - 1
        margins = y_pm * (separable_toy.batch.matvec(model.params.weights) + model.params.bias)
        assert float(np.maximum(0, 1 - margins).mean()) == 0.0
        assert predict_batch(model, separable_toy.batch)[0].tolist() == [1, 1, 0, 0]

    def test_label_flip_negates_margin_signs(self, separable_toy):
        model = train_linear_svc(separable_toy, c=10.0, max_iter=1000, seed=5)
        flipped = LabeledDataset(separable_toy.batch, 1 - separable_toy.labels)
        mirror = train_linear_svc(flipped, c=10.0, max_iter=1000, seed=5)
        for v in rows_of(separable_toy.batch):
            a, b = predict(model, v).score, predict(mirror, v).score
            assert np.sign(a) == -np.sign(b)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for trial in range(8):
            data = random_sparse_dataset(rng, n=12, dim=6)
            lam = float(rng.uniform(0, 0.5))
            wb = rng.normal(size=7)
            _, grad = squared_hinge_loss_grad(wb, data, lam)
            eps = 1e-6
            for j in range(7):
                probe = wb.copy()
                probe[j] += eps
                up, _ = squared_hinge_loss_grad(probe, data, lam)
                probe[j] -= 2 * eps
                down, _ = squared_hinge_loss_grad(probe, data, lam)
                numeric = (up - down) / (2 * eps)
                denom = max(abs(numeric), abs(grad[j]), 1e-8)
                assert abs(numeric - grad[j]) / denom < 1e-6

    def test_scaling_preserves_label_ordering(self, separable_toy):
        b = separable_toy.batch
        scaled = LabeledDataset(SparseBatch(2, b.indptr, b.indices, b.values * 4.0),
                                separable_toy.labels)
        base = train_linear_svc(separable_toy, c=10.0, max_iter=2000)
        other = train_linear_svc(scaled, c=10.0, max_iter=2000)
        labels_a = [predict(base, v).label for v in rows_of(separable_toy.batch)]
        labels_b = [predict(other, v).label for v in rows_of(scaled.batch)]
        assert labels_a == labels_b


class TestLinearMinimizer:
    @pytest.mark.parametrize("loss_grad", [partial(logistic_loss_grad, l2=0.01),
                                           partial(squared_hinge_loss_grad, lam=0.01)],
                             ids=["logistic", "squared-hinge"])
    def test_every_step_lowers_the_loss(self, fixture_dataset, loss_grad):
        # the minimizer is deterministic, so max_iter=k ends on its k-th step
        x0 = np.zeros(fixture_dataset.dim + 1)
        losses = [loss_grad(x0, fixture_dataset)[0]]
        for k in range(1, 100):
            _, loss, _, iterations, _ = _minimize(partial(loss_grad, data=fixture_dataset),
                                                  x0, k, 0.0)
            if iterations < k:
                break
            losses.append(loss)
        assert len(losses) > 10
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_untouched_columns_keep_zero_weight(self):
        rng = np.random.default_rng(6)
        docs = [[f"w{int(rng.integers(0, 200))}" for _ in range(6)] for _ in range(60)]
        _, batch = fit_pipeline(docs, FeatureCombo.UNI_TFIDF, min_tf=0)
        data = LabeledDataset(batch, [int("w0" in d or "w1" in d) for d in docs]).subset(
            np.arange(30))
        untouched = np.setdiff1d(np.arange(data.dim), data.batch.indices)
        assert np.setdiff1d(batch.indices, data.batch.indices).size  # held-out-only columns
        for model in (train_lr(data), train_linear_svc(data)):
            assert model.params.weights[untouched].tolist() == [0.0] * untouched.size
            assert np.count_nonzero(model.params.weights) == np.unique(data.batch.indices).size


class TestDecisionTree:
    def test_single_perfect_feature_depth_one(self, vec):
        data = make_data([vec(3, [(1, 5)]), vec(3, [(1, 6)]),
                          vec(3, [(1, -5)]), vec(3, [(1, -6)])], [1, 1, 0, 0])
        model = train_dt(data, max_depth=4)
        assert model.params.n_nodes == 3  # root + 2 leaves
        assert predict_batch(model, data.batch)[0].tolist() == [1, 1, 0, 0]

    def test_pure_labels_single_leaf(self, vec):
        data = make_data([vec(2, [(0, 1)]), vec(2, [(1, 1)])], [1, 1])
        model = train_dt(data, max_depth=4)
        assert model.params.n_nodes == 1

    def test_xor_needs_two_levels(self, xor_toy):
        # by hand: every single split of XOR has zero Gini gain, so the
        # tie rules pick feature 0 at threshold 0.5, and each child then
        # splits feature 1 perfectly
        shallow = train_dt(xor_toy, max_depth=1)
        deep = train_dt(xor_toy, max_depth=2)
        acc = lambda m: float(np.mean(predict_batch(m, xor_toy.batch)[0] == xor_toy.labels))
        assert acc(shallow) < 1.0
        assert acc(deep) == 1.0
        assert int(deep.params.feature[0]) == 0 and deep.params.threshold[0] == 0.5

    def test_max_depth_validation(self, xor_toy):
        with pytest.raises(ValueError):
            train_dt(xor_toy, max_depth=0)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 70), dim=st.integers(1, 6),
           density=st.sampled_from([0.05, 0.3, 0.7]), repeated=st.booleans(),
           wide=st.booleans(), weighting=st.sampled_from(["ones", "bootstrap", "sparse"]),
           max_depth=st.integers(1, 6), min_leaf=st.integers(1, 5), sampled=st.booleans())
    def test_builder_equals_reference(self, seed, n, dim, density, repeated, wide,
                                      weighting, max_depth, min_leaf, sampled):
        rng = np.random.default_rng(seed)
        x = np.zeros((n, dim + 1))  # the last column stays all zero
        if repeated:
            picks = rng.choice([-1.5, -0.5, 0.5, 1.0, 2.0], size=(n, dim))
        else:
            picks = np.round(rng.normal(0.0, 2.0, size=(n, dim)), 3)
        x[:, :dim] = np.where(rng.random((n, dim)) < density, picks, 0.0)
        if wide:  # distinct values in ~90% of column 0: past 33 of them for n near 40 and up
            x[:, 0] = np.where(rng.random(n) < 0.9, rng.permutation(n) + 1.0, 0.0)
        x[rng.random(n) < 0.15] = 0.0  # empty rows
        rows = [make_vec(dim + 1, [(j, x[i, j]) for j in np.flatnonzero(x[i])]) for i in range(n)]
        data = make_data(rows, rng.integers(0, 2, size=n))
        weights = {"ones": np.ones(n, dtype=np.int64),
                   "bootstrap": np.bincount(rng.integers(0, n, size=n), minlength=n),
                   "sparse": rng.integers(0, 3, size=n)}[weighting].astype(np.int64)
        m = int(rng.integers(1, dim + 2))
        sampler = (lambda r: np.sort(r.choice(dim + 1, size=m, replace=False))) if sampled else None

        got = tree._build_tree(tree._entries(data), data.labels, max_depth, min_leaf, weights,
                               feature_sampler=sampler, rng=np.random.default_rng(seed))
        want = build_tree_reference(data.batch.indptr, data.batch.indices, data.batch.values,
                                    data.labels, max_depth, min_leaf, weights,
                                    feature_sampler=sampler, rng=np.random.default_rng(seed))
        for name, array in want.items():
            assert getattr(got, name).dtype == array.dtype
            assert getattr(got, name).tobytes() == array.tobytes(), name

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(40, 200), dim=st.integers(8, 40),
           weighting=st.sampled_from(["ones", "bootstrap", "sparse"]),
           max_depth=st.integers(1, 6), min_leaf=st.integers(1, 8), sampled=st.booleans())
    def test_builder_equals_reference_wide(self, seed, n, dim, weighting, max_depth,
                                           min_leaf, sampled):
        rng = np.random.default_rng(seed)
        signed = lambda k: (rng.permutation(k) - k // 2 + 0.25) * rng.choice([0.5, 1.0, 3.0])
        x = np.where(rng.random((n, dim)) < rng.choice([0.1, 0.4, 0.8]),
                     rng.choice(signed(7), size=(n, dim)), 0.0)
        cols = rng.permutation(dim)
        # columns 0-3 of the shuffle hold exactly 33 or 34 (column, value)
        # groups at the root, counting the implicit zero and not; 4-5 hold
        # distinct values in most rows, well past 33 of them
        for j, (groups, zeros) in zip(cols, [(33, False), (33, True), (34, False), (34, True)]):
            k = groups - zeros
            held = rng.permutation(n)[:n - int(rng.integers(1, n - k + 1))] if zeros else np.arange(n)
            x[:, j] = 0.0
            x[held, j] = signed(k)[np.arange(held.size) % k]  # each of the k values at least once
        for j in cols[4:6]:
            x[:, j] = np.where(rng.random(n) < 0.9, signed(n), 0.0)
        # the label follows a column past 33 groups; copies of columns tie across columns
        driver = x[:, rng.choice(cols[2:6])]
        labels = ((driver > np.median(driver)) ^ (rng.random(n) < 0.1)).astype(np.int64)
        for _ in range(int(rng.integers(1, 4))):
            x[:, rng.choice(cols[6:])] = x[:, rng.choice(dim)]
        rows, columns = np.nonzero(x)
        batch = SparseBatch(dim, np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n)))),
                            columns.astype(np.int64), x[rows, columns])
        data = LabeledDataset(batch, labels)
        weights = {"ones": np.ones(n, dtype=np.int64),
                   "bootstrap": np.bincount(rng.integers(0, n, size=n), minlength=n),
                   "sparse": rng.integers(0, 3, size=n)}[weighting].astype(np.int64)
        m = int(rng.integers(1, dim + 1))
        sampler = (lambda r: np.sort(r.choice(dim, size=m, replace=False))) if sampled else None

        got = tree._build_tree(tree._entries(data), data.labels, max_depth, min_leaf, weights,
                               feature_sampler=sampler, rng=np.random.default_rng(seed))
        want = build_tree_reference(batch.indptr, batch.indices, batch.values, data.labels,
                                    max_depth, min_leaf, weights, feature_sampler=sampler,
                                    rng=np.random.default_rng(seed))
        for name, array in want.items():
            assert getattr(got, name).dtype == array.dtype
            assert getattr(got, name).tobytes() == array.tobytes(), name


class TestRandomForest:
    def test_degenerate_forest_equals_tree(self, fixture_dataset):
        dt = train_dt(fixture_dataset, max_depth=4)
        rf = train_rf(fixture_dataset, num_trees=1, feature_fraction=1.0,
                      bootstrap=False, max_depth=4)
        tree = rf.params.trees[0]
        for f in ("feature", "threshold", "left", "right", "count_neg", "count_pos"):
            assert np.array_equal(getattr(dt.params, f), getattr(tree, f))
        for v in rows_of(fixture_dataset.batch)[:10]:
            assert predict(dt, v).score == predict(rf, v).score

    def test_wide_sparse_forest_equals_tree(self, vec):
        # 2^18 columns, 8 entries per row: only the node's own columns are
        # searched, so this is fast and builds the same tree as DT
        rng = np.random.default_rng(3)
        dim = 1 << 18
        pool = rng.choice(dim, size=64, replace=False)
        rows = [vec(dim, [(int(c), float(rng.uniform(0.1, 3.0)))
                          for c in rng.choice(pool, size=8, replace=False)])
                for _ in range(40)]
        data = make_data(rows, [i % 2 for i in range(40)])
        dt = train_dt(data, max_depth=3)
        rf = train_rf(data, num_trees=1, feature_fraction=1.0, bootstrap=False, max_depth=3)
        tree = rf.params.trees[0]
        assert tree.n_nodes > 1
        for f in ("feature", "threshold", "left", "right", "count_neg", "count_pos"):
            assert np.array_equal(getattr(dt.params, f), getattr(tree, f))

    def test_seed_determinism(self, fixture_dataset):
        a = train_rf(fixture_dataset, num_trees=3, seed=5, max_depth=3)
        b = train_rf(fixture_dataset, num_trees=3, seed=5, max_depth=3)
        c = train_rf(fixture_dataset, num_trees=3, seed=6, max_depth=3)
        same = lambda x, y: all(np.array_equal(tx.feature, ty.feature)
                                and np.array_equal(tx.threshold, ty.threshold)
                                for tx, ty in zip(x.params.trees, y.params.trees))
        assert same(a, b)
        assert not same(a, c)

    def test_score_is_mean_of_tree_scores(self, fixture_dataset, vec):
        model = train_rf(fixture_dataset, num_trees=7, seed=1, max_depth=3)
        for v in rows_of(fixture_dataset.batch)[:8]:
            per_tree = [float(tree_score_batch(t, v)[0]) for t in model.params.trees]
            mean = float(np.mean(per_tree))
            got = predict(model, v).score
            assert 0.0 <= got <= 1.0
            assert got == pytest.approx(mean, abs=1e-12)

    def test_forest_at_least_as_good_as_tree_on_noisy_data(self):
        rng = np.random.default_rng(9)
        rows, labels = [], []
        for i in range(60):
            label = i % 2
            signal = 2.0 if label else -2.0
            vals = np.array([signal + rng.normal(0, 2.0), rng.normal(0, 1.0)])
            keep = vals != 0
            idx = np.flatnonzero(keep).astype(np.int64)
            rows.append(SparseBatch(2, [0, idx.size], idx, vals[keep]))
            labels.append(label)
        data = make_data(rows, labels)
        acc = lambda m: float(np.mean(predict_batch(m, data.batch)[0] == data.labels))
        tree = train_dt(data, max_depth=2, min_leaf=2)
        forest = train_rf(data, num_trees=25, feature_fraction=1.0, seed=2,
                          max_depth=2, min_leaf=2)
        assert acc(forest) >= acc(tree) - 0.05


class TestMlp:
    def test_zero_hidden_layers_rejected(self, xor_toy):
        with pytest.raises(ValueError):
            train_mlp(xor_toy, hidden_layers=[])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            data = random_sparse_dataset(rng, n=6, dim=5)
            params = init_params(5, [3], seed=trial)
            y = data.labels.astype(np.int64)
            loss, grads_w, grads_b = loss_and_grads(params, data.batch, y)
            # the first layer's gradient holds the touched input rows only
            grads_w[0] = densify_first_layer(grads_w[0], data.batch, params.weights[0])
            eps = 1e-6
            for layer in range(len(params.weights)):
                w = params.weights[layer]
                for probe in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
                    w[probe] += eps
                    up, _, _ = loss_and_grads(params, data.batch, y)
                    w[probe] -= 2 * eps
                    down, _, _ = loss_and_grads(params, data.batch, y)
                    w[probe] += eps
                    numeric = (up - down) / (2 * eps)
                    analytic = grads_w[layer][probe]
                    denom = max(abs(numeric), abs(analytic), 1e-8)
                    assert abs(numeric - analytic) / denom < 1e-4

    @pytest.mark.parametrize("hyper", [
        {"learning_rate": -0.01}, {"learning_rate": 0.0}, {"learning_rate": float("inf")},
        {"learning_rate": float("nan")}, {"epochs": 0}, {"epochs": -3},
    ], ids=str)
    def test_out_of_range_hyperparameters_rejected(self, xor_toy, hyper):
        with pytest.raises(InvalidHyperparameter):
            train_mlp(xor_toy, hidden_layers=[4], **hyper)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), dim=st.integers(1, 600), density=st.floats(0.0, 0.3),
           hidden=st.sampled_from([[3], [64], [16, 8], [300]]), empty_first=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(n=1, dim=7, density=0.5, hidden=[64], empty_first=False, seed=0)
    @example(n=5, dim=7, density=0.5, hidden=[64], empty_first=True, seed=0)
    # 32 rows of a 64-wide layer: 128 columns a product; this batch touches 477
    @example(n=32, dim=600, density=0.05, hidden=[64], empty_first=False, seed=0)
    def test_first_layer_gradient_matches_per_row_reference(self, n, dim, density, hidden,
                                                            empty_first, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((n, dim)) < density
        mask[0] &= not empty_first
        x = np.where(mask, rng.uniform(-3.0, 3.0, (n, dim)), 0.0)
        r, c = np.nonzero(x)
        batch = SparseBatch(dim, np.concatenate(([0], np.cumsum(mask.sum(axis=1)))), c, x[r, c])
        params = init_params(dim, hidden, seed=seed)
        for b in params.biases:
            b += rng.normal(0.0, 1.0, b.shape)
        y = rng.integers(0, 2, n)
        got = loss_and_grads(params, batch, y)[1][0]
        want = mlp_first_layer_grad_reference(params.weights, params.biases, batch.indptr,
                                              batch.indices, batch.values, y)
        assert got.shape == want.shape == (np.unique(c).size, hidden[0])
        # the sums run in another order: a few ulps of the largest entry
        tol = 16 * np.finfo(np.float64).eps * np.abs(want).max(initial=0.0)
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)

    @pytest.mark.parametrize("hidden", [[64], [64, 8]], ids=str)
    def test_block_step_over_several_products_matches_per_row_loss_and_gradient(self, hidden):
        # 32 rows of a 64-wide layer: 128 columns a product; the batch touches ~700,
        # so the forward pass and the gradient each run in 6 products
        rng = np.random.default_rng(21)
        n, dim = 32, 3000
        mask = rng.random((n, dim)) < 0.008
        x = np.where(mask, rng.uniform(0.0, 0.2, (n, dim)), 0.0)
        r, c = np.nonzero(x)
        batch = SparseBatch(dim, np.concatenate(([0], np.cumsum(mask.sum(axis=1)))), c, x[r, c])
        params = init_params(dim, hidden, seed=3)
        for b in params.biases:
            b += rng.normal(0.0, 1.0, b.shape)
        y = rng.integers(0, 2, n)
        assert np.unique(c).size > 5 * 128
        loss, grads_w, _ = loss_and_grads(params, batch, y)
        args = (params.weights, params.biases, batch.indptr, batch.indices, batch.values, y)
        eps = np.finfo(np.float64).eps
        want_loss = mlp_loss_reference(*args)
        assert abs(loss - want_loss) <= 8 * eps * want_loss
        want = mlp_first_layer_grad_reference(*args)
        tol = 16 * eps * np.abs(want).max()
        np.testing.assert_allclose(grads_w[0], want, rtol=0, atol=tol)

    def test_xor_with_four_hidden_units(self, xor_toy):
        model = train_mlp(xor_toy, hidden_layers=[4], learning_rate=0.5,
                          epochs=5000, batch_size=4, seed=0)
        assert predict_batch(model, xor_toy.batch)[0].tolist() == [0, 1, 1, 0]

    def test_softmax_sums_to_one(self, fixture_dataset):
        from ideation_stream.classifiers.mlp import forward
        model = train_mlp(fixture_dataset, hidden_layers=[4], epochs=2, seed=3)
        probs = forward(model.params, fixture_dataset.batch.take(range(20)))[-1]
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("hidden", [[5], [64], [32, 16]], ids=str)
    def test_batch_scores_equal_per_row_oracle_bitwise(self, vec, hidden):
        from ideation_stream.classifiers.mlp import score_batch
        data = random_sparse_dataset(np.random.default_rng(7), 200, 300, density=0.05)
        model = train_mlp(data, hidden_layers=hidden, epochs=2, seed=4)
        batch = stack([data.batch, vec(300, []), data.batch.take([3])])
        p = model.params
        expected = mlp_scores_per_row(p.weights, p.biases, batch.indptr, batch.indices,
                                      batch.values)
        got = score_batch(p, batch)
        assert got.dtype == np.float64 and got.tolist() == expected.tolist()
        empty = score_batch(p, batch.take([]))
        assert empty.dtype == np.float64 and empty.shape == (0,)

    def test_adam_matches_lazy_reference(self):
        # columns 12-19 are in no training row: their first-layer rows stay as initialized
        small = random_sparse_dataset(np.random.default_rng(11), n=30, dim=12, density=0.3)
        b = small.batch
        data = LabeledDataset(SparseBatch(20, b.indptr, b.indices, b.values), small.labels)
        y = data.labels.astype(np.int64)
        model = train_mlp(data, hidden_layers=[6, 3], learning_rate=0.05, epochs=4,
                          batch_size=8, seed=5)
        start = init_params(20, [6, 3], seed=5)

        def grads(weights, biases, rows):
            batch = data.batch.take(rows)
            _, grads_w, grads_b = loss_and_grads(MLPParams(weights, biases), batch, y[rows])
            grads_w[0] = densify_first_layer(grads_w[0], batch, weights[0])
            return grads_w, grads_b

        weights, biases = lazy_adam_mlp_reference(start.weights, start.biases, b.indptr,
                                                  b.indices, grads, 0.05, 4, 8, 5)
        for got, want in zip(model.params.weights + model.params.biases, weights + biases):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert not np.array_equal(model.params.weights[0][:12], start.weights[0][:12])
        assert np.array_equal(model.params.weights[0][12:], start.weights[0][12:])

    def test_learns_as_well_as_lr(self):
        # values near 1/40, the scale of term frequencies, give tiny first-layer gradients
        data = correlated_sparse_dataset(np.random.default_rng(0), 400, 1000)
        train = LabeledDataset(data.batch.take(range(320)), data.labels[:320])
        test = LabeledDataset(data.batch.take(range(320, 400)), data.labels[320:])

        def accuracy(model):
            return np.mean(predict_batch(model, test.batch)[0] == test.labels)
        assert accuracy(train_mlp(train, seed=0)) >= accuracy(train_lr(train)) - 0.05

    def test_full_batch_loss_non_increasing_at_small_lr(self, xor_toy):
        model = train_mlp(xor_toy, hidden_layers=[4], learning_rate=0.01,
                          epochs=10, batch_size=4, seed=0)
        trace = model.training_meta["loss_trace"]
        assert len(trace) == 10
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


class TestPredict:
    def test_batch_equals_elementwise(self, fixture_dataset, vec):
        # for every kind, row i of a batch scores bit for bit as the one-row
        # batch of row i, whatever rows come with it; one row is empty
        trainers = [
            lambda d: train_nb(d),
            lambda d: train_lr(d, l2=0.01, max_iter=30),
            lambda d: train_linear_svc(d, c=1.0, max_iter=100),
            lambda d: train_dt(d, max_depth=4),
            lambda d: train_rf(d, num_trees=12, max_depth=3, seed=1),  # 8+ terms: a pairwise sum
            lambda d: train_mlp(d, hidden_layers=[5], epochs=2, seed=1),
        ]
        batch = stack([fixture_dataset.batch, vec(12, [])])
        for trainer in trainers:
            model = trainer(fixture_dataset)
            labels, scores = predict_batch(model, batch)
            assert labels.dtype == np.int64 and scores.dtype == np.float64
            assert labels.shape == scores.shape == (batch.n_rows,)
            for i, (label, score) in enumerate(zip(labels.tolist(), scores.tolist())):
                single = predict(model, batch.take([i]))
                assert single.label == label and single.score == score
                assert type(single.label) is int and type(single.score) is float

    def test_batch_preserves_order(self, separable_toy):
        model = train_lr(separable_toy, max_iter=50)
        labels, scores = predict_batch(model, separable_toy.batch)
        assert len(labels) == len(scores) == 4
        assert labels.tolist() == [1, 1, 0, 0]

    def test_dimension_mismatch(self, nb_toy, vec):
        model = train_nb(nb_toy)
        with pytest.raises(DimensionMismatch):
            predict(model, vec(5, [(0, 1)]))

    def test_every_trainer_is_deterministic(self, fixture_dataset):
        trainers = [
            lambda d, s: train_nb(d, alpha=0.5, seed=s),
            lambda d, s: train_lr(d, l2=0.01, max_iter=30, seed=s),
            lambda d, s: train_linear_svc(d, c=1.0, max_iter=100, seed=s),
            lambda d, s: train_dt(d, max_depth=3, seed=s),
            lambda d, s: train_rf(d, num_trees=2, max_depth=3, seed=s),
            lambda d, s: train_mlp(d, hidden_layers=[3], epochs=2, seed=s),
        ]
        probe = rows_of(fixture_dataset.batch)[:5]
        for trainer in trainers:
            a = trainer(fixture_dataset, 7)
            b = trainer(fixture_dataset, 7)
            for v in probe:
                assert predict(a, v).score == predict(b, v).score

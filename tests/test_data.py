"""Synthetic dataset: geometry of the class means, splits, label shuffling."""

import numpy as np
import pytest

from collapse_lab.errors import ConfigError
from collapse_lab.net.data import class_means, make_synthetic_dataset, shuffle_labels


class TestClassMeans:
    def test_radius(self):
        means = class_means(5, 12)
        assert np.allclose(np.linalg.norm(means, axis=1), 3.0, rtol=0, atol=1e-12)

    def test_equidistant_pairs(self):
        """Simplex frame: every pair of class means is the same distance apart."""
        means = class_means(6, 10)
        dists = [
            np.linalg.norm(means[i] - means[j])
            for i in range(6)
            for j in range(i + 1, 6)
        ]
        assert max(dists) - min(dists) < 1e-12

    def test_centered(self):
        means = class_means(4, 7)
        assert np.abs(means.sum(axis=0)).max() < 1e-12

    def test_validation(self):
        with pytest.raises(ConfigError):
            class_means(1, 10)
        with pytest.raises(ConfigError):
            class_means(10, 9)


class TestMakeDataset:
    def test_split_sizes_and_class_balance(self):
        ds = make_synthetic_dataset(classes=10, dim=32, n_per_class=500, seed=0)
        assert ds.x_train.shape == (4000, 32)
        assert ds.x_val.shape == (1000, 32)
        assert np.array_equal(np.bincount(ds.y_train), np.full(10, 400))
        assert np.array_equal(np.bincount(ds.y_val), np.full(10, 100))

    def test_deterministic(self):
        a = make_synthetic_dataset(4, 8, 50, seed=9)
        b = make_synthetic_dataset(4, 8, 50, seed=9)
        assert np.array_equal(a.x_train, b.x_train)
        assert np.array_equal(a.y_train, b.y_train)
        assert np.array_equal(a.x_val, b.x_val)
        assert np.array_equal(a.y_val, b.y_val)
        c = make_synthetic_dataset(4, 8, 50, seed=10)
        assert not np.array_equal(a.x_train, c.x_train)

    def test_nearest_mean_rule_is_strong(self):
        """Scale-3 clusters in 2 classes: nearest class mean should get > 95%."""
        ds = make_synthetic_dataset(classes=2, dim=6, n_per_class=500, seed=3)
        means = class_means(2, 6)
        d = np.linalg.norm(ds.x_val[:, None, :] - means[None, :, :], axis=2)
        pred = np.argmin(d, axis=1)
        assert np.mean(pred == ds.y_val) > 0.95

    def test_train_rows_shuffled_across_classes(self):
        ds = make_synthetic_dataset(classes=3, dim=5, n_per_class=100, seed=1)
        # a class-sorted layout would make the first 80 labels identical
        assert len(set(ds.y_train[:80].tolist())) > 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            make_synthetic_dataset(2, 6, 4, seed=0)
        with pytest.raises(ConfigError):
            make_synthetic_dataset(5, 3, 100, seed=0)


class TestShuffleLabels:
    def test_multiset_preserved(self):
        ds = make_synthetic_dataset(5, 8, 100, seed=2)
        shuffled = shuffle_labels(ds, seed=7)
        assert np.array_equal(np.bincount(shuffled.y_train), np.bincount(ds.y_train))
        # a constant predictor scores exactly the class fraction either way
        assert np.mean(shuffled.y_train == 0) == np.mean(ds.y_train == 0) == 0.2

    def test_actually_permutes(self):
        ds = make_synthetic_dataset(5, 8, 100, seed=2)
        shuffled = shuffle_labels(ds, seed=7)
        assert not np.array_equal(shuffled.y_train, ds.y_train)

    def test_validation_untouched(self):
        ds = make_synthetic_dataset(5, 8, 100, seed=2)
        shuffled = shuffle_labels(ds, seed=7)
        assert shuffled.y_val is ds.y_val
        assert shuffled.x_val is ds.x_val
        assert shuffled.x_train is ds.x_train

    def test_deterministic(self):
        ds = make_synthetic_dataset(5, 8, 100, seed=2)
        a = shuffle_labels(ds, seed=7)
        b = shuffle_labels(ds, seed=7)
        assert np.array_equal(a.y_train, b.y_train)

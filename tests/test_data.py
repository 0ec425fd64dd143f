"""Tests for dataset generation, splitting, and CSV round-trips."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from pnet.data import (
    FITS,
    Dataset,
    gen_fit,
    gen_abs,
    gen_activity_standin,
    gen_sign,
    gen_square,
    load_csv,
    save_csv,
    split_train_test,
)

N_CASES = 200


class TestDataset:
    def test_basic_fields(self):
        d = Dataset(np.zeros((3, 2)), np.ones((3, 1)), "regression")
        assert d.n == 3 and d.feature_dim == 2 and d.target_dim == 1

    def test_immutable_arrays(self):
        d = Dataset(np.zeros((3, 2)), np.ones((3, 1)), "regression")
        with pytest.raises(ValueError):
            d.inputs[0, 0] = 1.0
        with pytest.raises(ValueError):
            d.targets[0, 0] = 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.ones((4, 1)), "regression")
        with pytest.raises(ValueError):
            Dataset(np.zeros(3), np.ones(3), "regression")
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 2)), np.ones((0, 1)), "regression")
        with pytest.raises(ValueError):
            Dataset(np.full((2, 1), np.nan), np.ones((2, 1)), "regression")
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), np.ones((2, 1)), "ranking")

    def test_one_hot_enforced(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), np.array([[0.5, 0.5], [1.0, 0.0]]), "classification")
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), np.array([[1.0, 1.0], [1.0, 0.0]]), "classification")
        d = Dataset(np.zeros((2, 1)), np.array([[0.0, 1.0], [1.0, 0.0]]), "classification")
        assert_array_equal(d.labels, np.array([1, 0]))

    def test_labels_regression_rejected(self):
        d = Dataset(np.zeros((2, 1)), np.ones((2, 1)), "regression")
        with pytest.raises(ValueError):
            d.labels


class TestGenerators:
    def test_sign_targets_and_range(self):
        d = gen_sign(200, seed=1)
        assert d.inputs.shape == (200, 1) and d.task == "regression"
        assert np.all((d.inputs >= -5.0) & (d.inputs <= 5.0))
        assert_array_equal(d.targets, np.sign(d.inputs))

    def test_square_targets_and_range(self):
        d = gen_square(150, seed=2)
        assert np.all((d.inputs >= -1.0) & (d.inputs <= 1.0))
        assert_array_equal(d.targets, d.inputs**2)

    def test_abs_targets(self):
        d = gen_abs(150, seed=3)
        assert_array_equal(d.targets, np.abs(d.inputs))

    def test_custom_range(self):
        d = gen_sign(50, lo=-2.0, hi=2.0, seed=4)
        assert np.all((d.inputs >= -2.0) & (d.inputs <= 2.0))

    def test_wrappers_are_gen_fit(self):
        # The named generators are gen_fit at their default ranges, and the
        # parabola's np.square targets equal the old x * x bit for bit.
        for seed in range(N_CASES):
            assert_array_equal(gen_sign(7, seed=seed).inputs, gen_fit("sign", 7, -5.0, 5.0, seed).inputs)
            for kind, gen in (("square", gen_square), ("abs", gen_abs)):
                d = gen(7, seed=seed)
                assert_array_equal(d.inputs, gen_fit(kind, 7, -1.0, 1.0, seed).inputs)
                assert_array_equal(d.targets, FITS[kind](d.inputs))
            x = gen_square(7, seed=seed).inputs
            assert_array_equal(gen_square(7, seed=seed).targets, x * x)

    def test_seeded_determinism(self):
        for seed in range(N_CASES):
            a = gen_square(5, seed=seed)
            b = gen_square(5, seed=seed)
            assert_array_equal(a.inputs, b.inputs)
        assert not np.array_equal(gen_square(5, seed=0).inputs, gen_square(5, seed=1).inputs)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_sign(0)
        with pytest.raises(ValueError):
            gen_sign(5, lo=1.0, hi=-1.0)
        with pytest.raises(ValueError):
            gen_square(0)
        with pytest.raises(ValueError):
            gen_fit("abs", 5, 1.0, 1.0)
        with pytest.raises(ValueError, match="fit kind"):
            gen_fit("cube", 5, -1.0, 1.0)


class TestActivityStandin:
    def test_shape_and_balance(self):
        d = gen_activity_standin(per_class=50, seed=977)
        assert d.inputs.shape == (250, 60)
        assert d.targets.shape == (250, 5)
        counts = np.bincount(d.labels, minlength=5)
        assert_array_equal(counts, np.full(5, 50))

    def test_class_major_blocks(self):
        d = gen_activity_standin(per_class=10, seed=977)
        assert_array_equal(d.labels, np.repeat(np.arange(5), 10))

    def test_deterministic(self):
        a = gen_activity_standin(per_class=20, seed=977)
        b = gen_activity_standin(per_class=20, seed=977)
        assert_array_equal(a.inputs, b.inputs)

    def test_classes_overlap_but_separate(self):
        # Cluster means sit on a radius-3 sphere with unit noise: nearest
        # class means must be far closer than 2x the noise scale would mix.
        d = gen_activity_standin(per_class=100, seed=977)
        means = np.array([d.inputs[d.labels == c].mean(axis=0) for c in range(5)])
        for c in range(5):
            others = np.linalg.norm(means - means[c], axis=1)
            others[c] = np.inf
            assert others.min() > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_activity_standin(per_class=0)
        with pytest.raises(ValueError):
            gen_activity_standin(per_class=5, n_classes=1)


class TestSplitTrainTest:
    def test_sizes_and_balance(self):
        d = gen_activity_standin(per_class=100, seed=977)
        train, test = split_train_test(d, train_per_class=60, test_total=100, seed=1)
        assert train.n == 300 and test.n == 100
        assert_array_equal(np.bincount(train.labels, minlength=5), np.full(5, 60))

    def test_disjoint(self):
        d = gen_activity_standin(per_class=30, seed=977)
        train, test = split_train_test(d, train_per_class=20, test_total=40, seed=2)
        train_rows = {tuple(r) for r in np.asarray(train.inputs)}
        test_rows = {tuple(r) for r in np.asarray(test.inputs)}
        assert not train_rows & test_rows

    def test_deterministic(self):
        d = gen_activity_standin(per_class=30, seed=977)
        a_train, a_test = split_train_test(d, 20, 40, seed=3)
        b_train, b_test = split_train_test(d, 20, 40, seed=3)
        assert_array_equal(a_train.inputs, b_train.inputs)
        assert_array_equal(a_test.inputs, b_test.inputs)

    def test_validation(self):
        d = gen_activity_standin(per_class=10, seed=977)
        with pytest.raises(ValueError):
            split_train_test(d, train_per_class=11, test_total=5, seed=0)
        with pytest.raises(ValueError):
            split_train_test(d, train_per_class=10, test_total=1, seed=0)
        with pytest.raises(ValueError):
            split_train_test(gen_square(10), 5, 2, seed=0)

    @pytest.mark.parametrize("count", [0, -4])
    @pytest.mark.parametrize("name", ["train_per_class", "test_total"])
    def test_counts_below_one_rejected(self, name, count):
        # A negative count once sliced "all but N" rows and trained on them.
        d = gen_activity_standin(per_class=10, seed=977)
        counts = {"train_per_class": 5, "test_total": 5, name: count}
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got {count}"):
            split_train_test(d, **counts, seed=0)


class TestCsvRoundTrip:
    def test_regression_exact(self, tmp_path):
        d = gen_square(40, seed=5)
        path = str(tmp_path / "data.csv")
        save_csv(d, path)
        back = load_csv(path)
        assert back.task == "regression"
        assert_array_equal(back.inputs, d.inputs)
        assert_array_equal(back.targets, d.targets)

    def test_classification_exact(self, tmp_path):
        d = gen_activity_standin(per_class=5, seed=977)
        path = str(tmp_path / "data.csv")
        save_csv(d, path)
        back = load_csv(path)
        assert back.task == "classification"
        assert_array_equal(back.inputs, d.inputs)
        assert_array_equal(back.targets, d.targets)

    def test_header_structure(self, tmp_path):
        d = Dataset(np.zeros((1, 2)), np.ones((1, 1)), "regression")
        path = tmp_path / "data.csv"
        save_csv(d, str(path))
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "x1,x2,y1,task"

    def test_malformed_inputs_rejected(self, tmp_path):
        cases = {
            "empty.csv": "",
            "badheader.csv": "a,b,task\n1,2,regression\n",
            "badnumber.csv": "x1,y1,task\noops,2,regression\n",
            "badcount.csv": "x1,y1,task\n1,2,3,regression\n",
            "mixedtask.csv": "x1,y1,task\n1,2,regression\n3,4,classification\n",
            "norows.csv": "x1,y1,task\n",
        }
        for name, content in cases.items():
            path = tmp_path / name
            path.write_text(content, encoding="utf-8")
            with pytest.raises(ValueError):
                load_csv(str(path))

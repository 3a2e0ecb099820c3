"""Label combinatorics, batch invariants, the synthetic generator, and the
dataset text format."""

import itertools

import numpy as np
import pytest

from mlclab.datamodel import (
    ContrastiveBatch,
    DataConfig,
    MultiLabelDataset,
    generate_longtail,
    read_dataset,
    write_dataset,
)
from mlclab.errors import ConfigError, DomainError, ParseError
from mlclab.verification import overlap_ratio, positive_sets


def _same_data(a, b):
    return all(np.array_equal(getattr(a, k), getattr(b, k))
               for k in ("features", "labels", "split"))


def _vec(labels, size=4):
    v = np.zeros(size, dtype=np.int8)
    v[list(labels)] = 1
    return v


class TestOverlapRatio:
    def test_alpha_zero_is_one_exhaustive(self):
        subsets = list(itertools.product([0, 1], repeat=4))
        for a in subsets:
            for b in subsets:
                if sum(b) == 0:
                    continue
                assert overlap_ratio(np.array(a), np.array(b), 0.0) == 1.0

    def test_subset_gives_one(self):
        for alpha in (0.5, 1.0, 3.0):
            assert overlap_ratio(_vec({0, 1, 2}), _vec({1, 2}), alpha) == 1.0

    def test_half_squared(self):
        assert overlap_ratio(_vec({1}), _vec({1, 2}), 2.0) == pytest.approx(0.25)

    def test_monotone_in_alpha(self):
        y_i, y_j = _vec({0}), _vec({0, 1, 2})
        vals = [overlap_ratio(y_i, y_j, a) for a in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(x >= y for x, y in zip(vals, vals[1:]))

    def test_empty_second_set(self):
        with pytest.raises(DomainError):
            overlap_ratio(_vec({1}), _vec(set()), 1.0)

    def test_negative_alpha(self):
        with pytest.raises(ConfigError):
            overlap_ratio(_vec({1}), _vec({1}), -1.0)


class TestPositiveSets:
    def test_identity_labels_all_empty(self):
        sets = positive_sets(np.eye(3, dtype=np.int8))
        for ap in sets:
            for members in ap.per_label.values():
                assert members.size == 0

    def test_two_identical_instances(self):
        y = np.array([[0, 1, 1], [0, 1, 1]], dtype=np.int8)
        sets = positive_sets(y)
        assert list(sets[0].labels) == [1, 2]
        np.testing.assert_array_equal(sets[0].per_label[1], [1])
        np.testing.assert_array_equal(sets[0].per_label[2], [1])

    def test_enumerated_example(self):
        # rows with label sets {0}, {0}, {0,1}
        y = np.array([[1, 0], [1, 0], [1, 1]], dtype=np.int8)
        sets = positive_sets(y)
        np.testing.assert_array_equal(sets[2].per_label[0], [0, 1])
        # anchor 0 does not carry label 1, so no positive set is stored for it
        assert 1 not in sets[0].per_label

    def test_no_self_membership(self):
        rng = np.random.default_rng(0)
        y = (rng.random((6, 4)) < 0.5).astype(np.int8)
        for i, ap in enumerate(positive_sets(y)):
            for members in ap.per_label.values():
                assert i not in members

    def test_symmetry_exhaustive_small(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n, big_l = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            y = (rng.random((n, big_l)) < 0.5).astype(np.int8)
            sets = positive_sets(y)
            for i in range(n):
                for j, members in sets[i].per_label.items():
                    for k in members:
                        assert j in sets[k].per_label or y[k, j] == 0
                        if j in sets[k].per_label:
                            assert i in sets[k].per_label[j]


class TestContrastiveBatch:
    def test_zero_label_row_rejected(self):
        with pytest.raises(DomainError, match="zero labels"):
            ContrastiveBatch(z=np.ones((2, 3)), y=np.array([[1, 0], [0, 0]]))

    def test_zero_norm_embedding_rejected(self):
        with pytest.raises(DomainError, match="zero-norm"):
            ContrastiveBatch(z=np.array([[1.0, 0.0], [0.0, 0.0]]),
                             y=np.ones((2, 2), dtype=np.int8))

    @pytest.mark.parametrize("block", ["embeddings", "prototypes"])
    @pytest.mark.parametrize("row,kind", [([1e200, 0.0], "overflowed"),
                                          ([1e-200, 0.0], "underflowed")])
    def test_unscalable_row_rejected_by_name(self, block, row, kind):
        # nonzero rows whose squared norm leaves the float64 normal range
        z, protos = np.ones((2, 2)), np.ones((2, 2))
        (z if block == "embeddings" else protos)[1] = row
        with pytest.raises(DomainError, match=f"^{block} row 1: squared norm {kind}"):
            ContrastiveBatch(z=z, y=np.ones((2, 2), dtype=np.int8), prototypes=protos)

    def test_prototype_shape_enforced(self):
        with pytest.raises(DomainError):
            ContrastiveBatch(z=np.ones((2, 3)), y=np.ones((2, 2), dtype=np.int8),
                             prototypes=np.ones((3, 3)))

    def test_row_count_mismatch(self):
        with pytest.raises(DomainError):
            ContrastiveBatch(z=np.ones((3, 2)), y=np.ones((2, 2), dtype=np.int8))


class TestGenerateLongtail:
    def test_determinism(self, tmp_path):
        a = generate_longtail(DataConfig(n=200, labels=6, features=5, seed=11))
        b = generate_longtail(DataConfig(n=200, labels=6, features=5, seed=11))
        assert _same_data(a, b)
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        write_dataset(a, pa)
        write_dataset(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seeds_differ(self):
        a = generate_longtail(DataConfig(n=200, labels=6, features=5, seed=11))
        b = generate_longtail(DataConfig(n=200, labels=6, features=5, seed=12))
        assert not _same_data(a, b)

    def test_every_instance_labeled(self):
        ds = generate_longtail(DataConfig(n=500, labels=10, features=4, seed=3,
                                           tail_exponent=2.5))
        assert np.all(ds.labels.sum(axis=1) >= 1)

    def test_head_dominates_tail(self):
        # rank-1 vs rank-2 marginal frequency follows the power law; boost
        # disabled so the pure marginal law is visible
        exponent = 2.0
        ds = generate_longtail(DataConfig(n=10000, labels=8, features=3, seed=5,
                                          tail_exponent=exponent, avg_labels=1.2,
                                          cooccur_boost=0.0))
        freq = ds.labels.mean(axis=0)
        assert freq[0] / freq[1] >= 2 ** exponent * 0.9
        assert np.all(freq[:1] >= freq[2:])
        # with the default boost the trend still holds, just diluted
        ds2 = generate_longtail(DataConfig(n=10000, labels=8, features=3, seed=5,
                                           tail_exponent=exponent, avg_labels=1.2))
        freq2 = ds2.labels.mean(axis=0)
        assert freq2[0] / freq2[1] >= 2 ** exponent * 0.75

    def test_degenerate_floor(self):
        ds = generate_longtail(DataConfig(n=1, labels=1, features=1, seed=0, avg_labels=1.0))
        assert ds.labels.shape == (1, 1)
        assert ds.labels[0, 0] == 1

    def test_infeasible_avg_labels(self):
        with pytest.raises(ConfigError):
            generate_longtail(DataConfig(n=10, labels=3, features=2, seed=0, avg_labels=5.0))

    def test_split_counts(self):
        ds = generate_longtail(DataConfig(n=100, labels=4, features=3, seed=0,
                                           split=(0.8, 0.1, 0.1)))
        assert int((ds.split == "train").sum()) == 80
        assert int((ds.split == "val").sum()) == 10
        assert int((ds.split == "test").sum()) == 10


class TestDatasetIO:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = generate_longtail(DataConfig(n=60, labels=5, features=4, seed=9))
        p1 = tmp_path / "d.txt"
        write_dataset(ds, p1)
        back = read_dataset(p1)
        assert _same_data(ds, back)
        p2 = tmp_path / "d2.txt"
        write_dataset(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_label_index_out_of_range(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 5 2\n7\t0.0 1.0\n")
        with pytest.raises(ParseError, match="label index 7 out of range"):
            read_dataset(p)

    def test_duplicate_label_index(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2 5 2\n0\t0.0 1.0\n1,3,1\t0.0 1.0\n")
        with pytest.raises(ParseError, match="^line 3, label field 3: duplicate label index 1$"):
            read_dataset(p)

    @pytest.mark.parametrize("token, shown", [("nan", "nan"), ("1e999", "inf"), ("-inf", "-inf")])
    def test_non_finite_feature(self, tmp_path, token, shown):
        p = tmp_path / "bad.txt"
        p.write_text(f"# meta: {{}}\n2 5 2\n0\t0.0 1.0\n1\t0.5 {token}\n")
        with pytest.raises(ParseError, match=f"^line 4, feature field 2: not finite: {shown}$"):
            read_dataset(p)

    def test_empty_label_field(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 5 2\n\t0.0 1.0\n")
        with pytest.raises(ParseError, match="zero labels rejected"):
            read_dataset(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 5\n0\t0.0\n")
        with pytest.raises(ParseError, match="header"):
            read_dataset(p)

    def test_feature_count_mismatch(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 2 3\n0\t0.0 1.0\n")
        with pytest.raises(ParseError, match="expected 3 features"):
            read_dataset(p)

    def test_instance_count_mismatch(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2 2 1\n0\t0.0\n")
        with pytest.raises(ParseError, match="declares 2 instances"):
            read_dataset(p)

    # every ParseError text of the reader, pinned before it was rewritten to stream
    @pytest.mark.parametrize("text, message", [
        pytest.param("2 5 2\n0\t0.0 1.0\n1,x\t0.0 1.0\n",
                     "line 3, label field 2: not an integer: 'x'", id="label-not-integer"),
        pytest.param("1 5 2\n1.0\t0.0 1.0\n",
                     "line 2, label field 1: not an integer: '1.0'", id="label-float"),
        pytest.param("2 5 2\n0\t0.0 1.0\n1\t0.5 abc\n",
                     "line 3, feature field 2: not a number: 'abc'", id="feature-not-number"),
        pytest.param("1 5 2\n0 0.0 1.0\n",
                     "line 2: expected '<labels>\\t<features>'", id="no-tab"),
        pytest.param("# meta: {bad\n1 5 2\n0\t0.0 1.0\n",
                     "line 1: bad meta JSON (Expecting property name enclosed in double "
                     "quotes: line 1 column 3 (char 2))", id="bad-meta-json"),
        pytest.param("1 5 x\n0\t0.0 1.0\n",
                     "line 1: header fields must be integers", id="header-not-integer"),
        pytest.param("1 0 2\n0\t0.0 1.0\n",
                     "line 1: header counts must be >= 1", id="header-below-one"),
        pytest.param("1 5\n0\t0.0\n",
                     "line 1: header must be 'n L p', got '1 5'", id="header-two-fields"),
        pytest.param("# meta: {}\n# a comment\n",
                     "line 1: missing header 'n L p'", id="no-header"),
        pytest.param("", "line 1: missing header 'n L p'", id="empty-file"),
        pytest.param("1 5 2\n0\t0.0 1.0\n1\t0.0 1.0\n",
                     "line 1: header declares 1 instances, file has 2", id="more-rows"),
        pytest.param("2 5 2\n0\tx 1.0\n1\t0.0 1.0\n1\t0.0 1.0\n",
                     "line 1: header declares 2 instances, file has 3",
                     id="count-before-row-error"),
        pytest.param("100000000000 5 2\n0\t0.0 1.0\n",
                     "line 1: header declares 100000000000 instances, file has 1",
                     id="count-of-a-huge-header"),
        pytest.param('# meta: {"split_counts": {"train": 1, "val": 1, "test": 1}}\n2 5 2\n'
                     "0\t0.0 1.0\n1\t0.0 1.0\n",
                     "meta split_counts sum to 3, header declares 2", id="split-sum"),
        pytest.param("1 5 2\n7\t0.0 1.0\n",
                     "line 2, label field 1: label index 7 out of range for L=5",
                     id="label-out-of-range"),
        pytest.param("1 5 2\n0,9,x\t0.0 1.0\n",
                     "line 2, label field 2: label index 9 out of range for L=5",
                     id="range-before-bad-integer"),
        pytest.param("1 5 2\n1,1,9\t0.0 1.0\n",
                     "line 2, label field 2: duplicate label index 1",
                     id="duplicate-before-range"),
        pytest.param("1 5 2\n\t0.0 1.0\n",
                     "line 2, column 1: empty label field; instances with zero labels "
                     "rejected", id="empty-label-field"),
        pytest.param("1 2 3\n0\t0.0 1.0\n",
                     "line 2: expected 3 features, got 2", id="feature-count"),
        pytest.param("2 5 2\n0\tnan 1.0\n1\t0.0 y\n",
                     "line 3, feature field 2: not a number: 'y'",
                     id="row-error-before-non-finite"),
        pytest.param("2 5 2\n\n0\t0.0 1.0\n# c\n  \n1\t0.0 inf\n",
                     "line 6, feature field 2: not finite: inf",
                     id="non-finite-after-blank-and-comment"),
    ])
    def test_parse_error_text(self, tmp_path, text, message):
        p = tmp_path / "bad.txt"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            read_dataset(p)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("text, message", [
        pytest.param("1 12 2\n0,1_0\t0.0 1.0\n",
                     "line 2, label field 2: not an integer: '1_0'", id="label"),
        pytest.param("1 5 2\n0\t1.5 3_5\n",
                     "line 2, feature field 2: not a number: '3_5'", id="feature"),
    ])
    def test_underscore_in_a_number_rejected(self, tmp_path, text, message):
        # int() and float() read "1_0" as 10 and "3_5" as 35.0; the writer never writes "_"
        p = tmp_path / "bad.txt"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            read_dataset(p)
        assert str(excinfo.value) == message

    def test_lines_split_as_str_splitlines_does(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("2 5 2\r\n0\t0.0 1.0\x0c1,2\t0.5 -1.0\n", encoding="utf-8")
        ds = read_dataset(p)
        np.testing.assert_array_equal(ds.labels, [[1, 0, 0, 0, 0], [0, 1, 1, 0, 0]])
        np.testing.assert_array_equal(ds.features, [[0.0, 1.0], [0.5, -1.0]])

    @pytest.mark.parametrize("counts, name, shown", [
        ('{"train": 3, "val": -1, "test": 2}', "val", "-1"),
        ('{"train": 3.7, "val": 0, "test": 2.2}', "train", "3.7"),
    ])
    def test_bad_split_count_rejected(self, tmp_path, counts, name, shown):
        p = tmp_path / "bad.txt"
        rows = "".join(f"0\t{i}.0\n" for i in range(5))
        p.write_text(f'# meta: {{"split_counts": {counts}}}\n5 2 1\n{rows}')
        with pytest.raises(ParseError, match=rf"split_counts\['{name}'\] .* got {shown}$"):
            read_dataset(p)

    @pytest.mark.parametrize("meta", ["3", '{"split_counts": [1]}'])
    def test_meta_that_is_not_an_object_rejected(self, tmp_path, meta):
        p = tmp_path / "bad.txt"
        p.write_text(f"# meta: {meta}\n1 2 1\n0\t0.5\n")
        with pytest.raises(ParseError, match="line 1: meta and its split_counts must be"):
            read_dataset(p)

    def test_meta_preserves_splits(self, tmp_path):
        ds = generate_longtail(DataConfig(n=50, labels=3, features=2, seed=2,
                                           split=(0.5, 0.3, 0.2)))
        p = tmp_path / "d.txt"
        write_dataset(ds, p)
        back = read_dataset(p)
        np.testing.assert_array_equal(ds.split, back.split)

    @pytest.mark.parametrize("split,row", [
        (["test", "train", "val", "train"], 1),
        (["train", "val", "train", "test"], 2),
        (["train", "test", "test", "val"], 3),
    ])
    def test_splits_out_of_block_order_rejected(self, tmp_path, split, row):
        # the file keeps only split counts, so these would read back reordered
        ds = MultiLabelDataset(features=np.ones((4, 2)), labels=np.ones((4, 2), dtype=np.int8),
                               split=np.array(split, dtype=object))
        p = tmp_path / "d.txt"
        with pytest.raises(DomainError, match=f"row {row} is tagged"):
            write_dataset(ds, p)
        assert not p.exists()

    def test_dataset_without_meta_defaults_to_train(self, tmp_path):
        p = tmp_path / "plain.txt"
        p.write_text("2 2 1\n0\t0.5\n1\t-1.5\n")
        ds = read_dataset(p)
        assert np.all(ds.split == "train")
        assert ds.features[1, 0] == -1.5


def test_multilabel_dataset_rejects_zero_label_rows():
    with pytest.raises(DomainError):
        MultiLabelDataset(
            features=np.ones((2, 2)),
            labels=np.array([[1, 0], [0, 0]]),
            split=np.array(["train", "train"], dtype=object),
        )

"""Dataset container, file formats, splits, and synthetic generation."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deepdict.data as dd
from deepdict.data import (
    LabeledMatrix,
    SplitSpec,
    load_labeled_matrix,
    make_synthetic_clusters,
    save_labeled_matrix,
    split_indices,
    split_per_class,
    take_columns,
)


def _toy(labels=(5, 5, 9, 9, 9, 2)):
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(4, len(labels)))
    return LabeledMatrix(feats, np.array(labels))


class TestLabeledMatrix:
    def test_labels_remapped_to_contiguous_ids(self):
        data = _toy()
        assert data.num_classes == 3
        assert sorted(set(data.labels.tolist())) == [0, 1, 2]
        # remap follows sorted original values: 2 -> 0, 5 -> 1, 9 -> 2
        assert data.labels.tolist() == [1, 1, 2, 2, 2, 0]
        assert data.original_labels.tolist() == [5, 5, 9, 9, 9, 2]

    def test_class_index_partitions_columns(self):
        data = _toy()
        seen = np.concatenate([idx for idx in data.class_index])
        assert sorted(seen.tolist()) == list(range(data.num_samples))
        for c, idx in enumerate(data.class_index):
            assert (data.labels[idx] == c).all()

    def test_arrays_are_read_only(self):
        data = _toy()
        with pytest.raises(ValueError):
            data.features[0, 0] = 1.0
        with pytest.raises(ValueError):
            data.labels[0] = 1

    def test_rejects_float_labels(self):
        with pytest.raises(ValueError, match="integers"):
            LabeledMatrix(np.zeros((2, 3)), np.array([0.0, 1.0, 2.0]))

    def test_rejects_non_finite_features(self):
        feats = np.zeros((2, 3))
        feats[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            LabeledMatrix(feats, np.array([0, 1, 2]))

    @pytest.mark.parametrize(
        "features, labels, message",
        [
            (np.zeros(3), [0, 1, 2], "features must be a 2-D matrix"),
            (np.zeros((0, 3)), [0, 1, 2], "feature matrix must be non-empty"),
            (np.zeros((2, 0)), np.zeros(0, np.int64), "feature matrix must be non-empty"),
        ],
        ids=["vector", "no-rows", "no-columns"],
    )
    def test_rejects_features_that_are_not_a_non_empty_matrix(self, features, labels, message):
        with pytest.raises(ValueError, match=message):
            LabeledMatrix(features, np.asarray(labels))

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValueError):
            LabeledMatrix(np.zeros((2, 3)), np.array([0, 1]))

    def test_class_counts(self):
        data = _toy()
        assert tuple(ix.size for ix in data.class_index) == (1, 2, 3)

    def test_derived_fields_are_not_constructor_arguments(self):
        with pytest.raises(TypeError):
            LabeledMatrix(np.zeros((2, 2)), np.array([0, 1]), labels=np.array([0, 1]))

    def test_original_labels_are_stored_int64_and_read_only(self):
        labels = np.array([7, 3, 7], dtype=np.int32)
        data = LabeledMatrix(np.zeros((2, 3)), labels)
        assert data.original_labels.dtype == np.int64
        assert data.label_values.tolist() == [3, 7]
        with pytest.raises(ValueError):
            data.original_labels[0] = 1
        labels[0] = 3  # the caller's array stays its own
        assert data.original_labels.tolist() == [7, 3, 7]
        assert all(not ix.flags.writeable for ix in data.class_index)

    def test_accepts_a_row_of_labels(self):
        data = LabeledMatrix(np.zeros((2, 3)), np.array([[4, 1, 4]]))
        assert data.original_labels.tolist() == [4, 1, 4]
        assert data.labels.tolist() == [1, 0, 1]

    def test_checks_labels_before_features(self):
        with pytest.raises(ValueError, match="integers"):
            LabeledMatrix(np.full((2, 2), np.nan), np.array([0.5, 1.0]))


class TestSplits:
    def test_split_sizes_and_disjointness(self):
        data = make_synthetic_clusters(3, 10, 5, 4.0, seed=1)
        spec = SplitSpec(per_class_train_count=6, seed=3, replicate_index=2)
        train_idx, test_idx = split_indices(data, spec)
        assert train_idx.size == 18 and test_idx.size == 12
        assert np.intersect1d(train_idx, test_idx).size == 0
        union = np.union1d(train_idx, test_idx)
        assert union.tolist() == list(range(30))

    def test_partition_holds_across_many_seeds(self):
        data = make_synthetic_clusters(4, 7, 3, 3.0, seed=0)
        spec0 = SplitSpec(3)
        for seed in range(100):
            spec = SplitSpec(3, seed=seed, replicate_index=seed % 5)
            train_idx, test_idx = split_indices(data, spec)
            union = np.union1d(train_idx, test_idx)
            assert union.size == 28 and union[0] == 0 and union[-1] == 27
        del spec0

    def test_split_is_deterministic_and_replicate_sensitive(self):
        data = make_synthetic_clusters(3, 8, 4, 3.0, seed=2)
        a1, _ = split_indices(data, SplitSpec(4, seed=9, replicate_index=1))
        a2, _ = split_indices(data, SplitSpec(4, seed=9, replicate_index=1))
        b, _ = split_indices(data, SplitSpec(4, seed=9, replicate_index=2))
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_train_preserves_per_class_count_and_class_blocks(self):
        data = make_synthetic_clusters(3, 10, 5, 4.0, seed=5)
        train, test = split_per_class(data, SplitSpec(7, seed=1, replicate_index=1))
        assert tuple(ix.size for ix in train.class_index) == (7, 7, 7)
        assert tuple(ix.size for ix in test.class_index) == (3, 3, 3)
        # class blocks stay contiguous after the split
        assert np.array_equal(train.labels, np.sort(train.labels))

    def test_split_requires_a_test_remainder(self):
        data = make_synthetic_clusters(2, 5, 3, 3.0, seed=0)
        with pytest.raises(ValueError, match="cannot reserve"):
            split_indices(data, SplitSpec(5))

    def test_matches_the_boolean_mask_split(self):
        def mask_split(data, spec):
            # the boolean-mask selection split_indices used before np.delete
            h = spec.per_class_train_count
            rng = np.random.default_rng(np.random.SeedSequence((spec.seed, spec.replicate_index)))
            train_parts, test_parts = [], []
            for idx in data.class_index:
                chosen = rng.choice(idx.size, size=h, replace=False)
                mask = np.zeros(idx.size, dtype=bool)
                mask[chosen] = True
                train_parts.append(idx[mask])
                test_parts.append(idx[~mask])
            return np.concatenate(train_parts), np.concatenate(test_parts)

        rng = np.random.default_rng(17)
        for trial in range(60):
            sizes = rng.integers(2, 40, size=rng.integers(1, 6))
            labels = rng.permutation(np.repeat(np.arange(sizes.size), sizes))
            data = LabeledMatrix(np.ones((2, labels.size)), labels)
            h = int(rng.integers(1, sizes.min()))
            spec = SplitSpec(h, seed=trial, replicate_index=trial % 3)
            got, want = split_indices(data, spec), mask_split(data, spec)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)

    def test_take_columns_keeps_features_and_labels_aligned(self):
        data = _toy()
        sub = take_columns(data, np.array([2, 3, 5]))
        assert sub.original_labels.tolist() == [9, 9, 2]
        assert np.allclose(sub.features, data.features[:, [2, 3, 5]])

    def test_invalid_spec_values_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec(0)
        with pytest.raises(ValueError):
            SplitSpec(3, seed=-1)


class TestSyntheticClusters:
    def test_shapes_and_contiguous_labels(self):
        data = make_synthetic_clusters(4, 6, 9, 5.0, seed=3)
        assert data.features.shape == (9, 24)
        assert data.labels.tolist() == sum([[c] * 6 for c in range(4)], [])

    def test_minimum_center_distance_matches_request(self):
        data = make_synthetic_clusters(5, 50, 8, 7.5, seed=4)
        centers = np.stack(
            [data.features[:, idx].mean(axis=1) for idx in data.class_index]
        )
        dists = [
            np.linalg.norm(centers[i] - centers[j])
            for i in range(5)
            for j in range(i + 1, 5)
        ]
        # sample means sit near the true centers, whose min distance is 7.5
        assert abs(min(dists) - 7.5) < 1.0

    def test_zero_separation_allowed(self):
        data = make_synthetic_clusters(3, 4, 5, 0.0, seed=0)
        assert data.num_samples == 12

    def test_single_class(self):
        data = make_synthetic_clusters(1, 5, 3, 2.0, seed=0)
        assert data.num_classes == 1

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 5, 3, 1.0), "n_classes, n_per_class and dim must be >= 1"),
            ((2, 0, 3, 1.0), "n_classes, n_per_class and dim must be >= 1"),
            ((2, 5, 0, 1.0), "n_classes, n_per_class and dim must be >= 1"),
            ((2, 5, 3, -1.0), "separation must be finite and >= 0"),
            ((2, 5, 3, np.inf), "separation must be finite and >= 0"),
            ((2, 5, 3, np.nan), "separation must be finite and >= 0"),
        ],
        ids=["no-classes", "no-samples", "no-dims", "negative", "inf", "nan"],
    )
    def test_bad_arguments_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            make_synthetic_clusters(*args)

    def test_deterministic_per_seed(self):
        a = make_synthetic_clusters(2, 5, 4, 3.0, seed=11)
        b = make_synthetic_clusters(2, 5, 4, 3.0, seed=11)
        c = make_synthetic_clusters(2, 5, 4, 3.0, seed=12)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)


class TestFileFormats:
    def test_dense_round_trip_is_bit_exact(self, tmp_path):
        data = make_synthetic_clusters(3, 4, 5, 3.0, seed=7)
        path = tmp_path / "d.csv"
        save_labeled_matrix(data, str(path))
        back = load_labeled_matrix(str(path))
        assert np.array_equal(back.features, data.features)
        assert back.original_labels.tolist() == data.original_labels.tolist()

    def test_pair_round_trip_is_bit_exact(self, tmp_path):
        data = _toy()
        mat, lab = tmp_path / "x.txt", tmp_path / "y.txt"
        save_labeled_matrix(data, str(mat), format="pair", labels_path=str(lab))
        back = load_labeled_matrix(str(mat), format="pair", labels_path=str(lab))
        assert np.array_equal(back.features, data.features)
        assert back.original_labels.tolist() == data.original_labels.tolist()

    def test_normalize_gives_unit_columns(self, tmp_path):
        data = _toy()
        path = tmp_path / "d.csv"
        save_labeled_matrix(data, str(path))
        back = load_labeled_matrix(str(path), normalize=True)
        norms = np.linalg.norm(back.features, axis=0)
        assert np.allclose(norms, 1.0)

    def test_zero_column_cannot_be_normalized(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.0,0.0,1\n1.0,2.0,2\n")
        with pytest.raises(ValueError, match="zero"):
            load_labeled_matrix(str(path), normalize=True)

    def test_bad_number_reports_position(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,oops,1\n")
        with pytest.raises(ValueError, match="not a number"):
            load_labeled_matrix(str(path))

    def test_non_integer_label_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,1.5\n")
        with pytest.raises(ValueError, match="not an integer"):
            load_labeled_matrix(str(path))

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,1\n1.0,2\n")
        with pytest.raises(ValueError, match="expected"):
            load_labeled_matrix(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("\n")
        with pytest.raises(ValueError, match="no samples"):
            load_labeled_matrix(str(path))

    def test_pair_label_count_mismatch(self, tmp_path):
        mat, lab = tmp_path / "x.txt", tmp_path / "y.txt"
        mat.write_text("1.0 2.0 3.0\n4.0 5.0 6.0\n")
        lab.write_text("0\n1\n")
        with pytest.raises(ValueError, match="labels for"):
            load_labeled_matrix(str(mat), format="pair", labels_path=str(lab))

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,1\n")
        with pytest.raises(ValueError, match="unknown format"):
            load_labeled_matrix(str(path), format="fancy")


    def test_pair_format_needs_a_labels_path(self, tmp_path):
        path = str(tmp_path / "x.txt")
        with pytest.raises(ValueError, match="pair format requires labels_path"):
            save_labeled_matrix(_toy(), path, format="pair")
        with pytest.raises(ValueError, match="pair format requires labels_path"):
            load_labeled_matrix(path, format="pair")

    def test_save_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format: 'fancy'"):
            save_labeled_matrix(_toy(), str(tmp_path / "d.csv"), format="fancy")


class TestParseErrors:
    """Every parse error names the file, the line and, for a field, its column."""

    @pytest.mark.parametrize("text, message", [
        ("1.0,2.0,1\n\n1.0,oops,1\n", "3: field 2 is not a number: 'oops'"),
        ("1.0,2.0,1\n1.0,2.0,1.5\n", "2: label '1.5' is not an integer"),
        ("1.0,2.0,1\n1.0,2\n", "2: expected 3 fields, got 2"),
        ("\n7\n", "2: expected at least one feature plus a label"),
        ("1.0,nan,1\n", "1: field 2 is not finite: 'nan'"),
        ("1.0,2.0,1\n-inf,2.0,1\n", "2: field 1 is not finite: '-inf'"),
        ("1.0,2.0,1\n1.0,2.0,99999999999999999999\n",
         "2: label '99999999999999999999' is out of range"),
        ("1.0,2.0,-9223372036854775809\n", "1: label '-9223372036854775809' is out of range"),
    ])
    def test_dense_error_position(self, tmp_path, text, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_labeled_matrix(str(path))
        assert str(err.value) == f"{path}:{message}"

    def test_no_samples_names_the_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("\n  \n")
        with pytest.raises(ValueError) as err:
            load_labeled_matrix(str(path))
        assert str(err.value) == f"{path}: no samples"

    @pytest.mark.parametrize("matrix, labels, where, message", [
        ("1.0 2.0\n3.0 x\n", "0\n1\n", "x", "2: field 2 is not a number: 'x'"),
        ("1.0 2.0\n3.0\n", "0\n1\n", "x", "2: expected 2 fields, got 1"),
        ("1.0 inf\n", "0\n1\n", "x", "1: field 2 is not finite: 'inf'"),
        ("1.0 2.0\n", "0\n\n99999999999999999999\n", "y",
         "3: label '99999999999999999999' is out of range"),
        ("1.0 2.0\n", "0\n1,2\n", "y", "2: label '1,2' is not an integer"),
        ("1.0 2.0 3.0\n4.0 5.0 6.0\n", "0\n1\n", "y", " 2 labels for 3 samples"),
        ("\n", "0\n", "x", " empty matrix"),
        ("1.0\n", " \n", "y", " no labels"),
    ])
    def test_pair_error_position(self, tmp_path, matrix, labels, where, message):
        mat, lab = tmp_path / "x.txt", tmp_path / "y.txt"
        mat.write_text(matrix)
        lab.write_text(labels)
        with pytest.raises(ValueError) as err:
            load_labeled_matrix(str(mat), format="pair", labels_path=str(lab))
        named = mat if where == "x" else lab
        assert str(err.value) == f"{named}:{message}"


def _same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and g.strides == w.strides
        assert g.tobytes() == w.tobytes()


def _same_matrix(got: LabeledMatrix, want: LabeledMatrix):
    _same_arrays((got.features, got.labels, got.label_values),
                 (want.features, want.labels, want.label_values))
    _same_arrays(got.class_index, want.class_index)


def _agree(fast, oracle, same, path):
    """``fast(path)`` gives what ``oracle(path)`` gives, as ``same``
    compares it, or raises the oracle's error with the oracle's message."""
    try:
        want = oracle(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            fast(path)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
    else:
        same(fast(path), want)


# The line parser, the oracle; bound here so that the spy below never
# counts the oracle's own calls.
_DENSE_LINES = dd._read_dense_lines


def _check_dense(path):
    """The one-conversion parse against the line parser: equal arrays, or
    the same error, and no warning."""
    path = str(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _agree(dd._read_dense, _DENSE_LINES, _same_arrays, path)
        _agree(load_labeled_matrix, lambda p: LabeledMatrix(*_DENSE_LINES(p)),
               _same_matrix, path)
    assert caught == []


# Numbers as writers print them: shortest repr, 25 significant digits, and
# subnormals; labels anywhere in int64.
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_NUMBER = st.one_of(
    _FLOATS.map(repr),
    _FLOATS.map(lambda v: "%.25g" % v),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308).map(repr),
)
_LABEL = st.integers(-(2**63), 2**63 - 1).map(str)
# One field turned into something the fast path must leave to the line parser.
_BAD_FIELD = st.sampled_from(
    ["nan", "inf", "-Infinity", "#x", "", "3.0", "1_0", "\u0661", "99999999999999999999",
     "1e999", "3\x1c", "3\U0009c6ca", "2\xa0"]
)
_PAD = st.sampled_from(["", " ", "\t", "  "])


def _mutate(draw, rows):
    """At most one field of ``rows`` made bad, or a trailing comma added."""
    kind = draw(st.sampled_from(["none", "none", "field", "comma"]))
    if kind != "none":
        i = draw(st.integers(0, len(rows) - 1))
        if kind == "field":
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(_BAD_FIELD)
        else:
            rows[i][-1] += ","
    return rows


def _render(draw, rows, sep):
    """``rows`` as file text: padded fields, blank and whitespace-only
    lines, LF, CRLF or bare CR endings, and an optional last line ending."""
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = []
    for row in rows:
        lines += draw(st.lists(st.sampled_from(["", " ", "\t "]), max_size=2))
        lines.append(sep.join(draw(_PAD) + f + draw(_PAD) for f in row))
    text = eol.join(lines)
    return (text + eol if draw(st.booleans()) else text).encode()


@st.composite
def _dense_file(draw):
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    rows = [[draw(_NUMBER) for _ in range(d)] + [draw(_LABEL)] for _ in range(n)]
    return _render(draw, _mutate(draw, rows), ",")


@settings(max_examples=300, deadline=None)
@given(text=_dense_file())
def test_dense_parse_matches_line_parser(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("dense") / "d.csv"
    path.write_bytes(text)
    _check_dense(path)


@pytest.fixture
def line_parser_calls(monkeypatch):
    """Count the calls that reach the dense line parser."""
    calls = []

    def spy(path):
        calls.append("_read_dense_lines")
        return _DENSE_LINES(path)

    monkeypatch.setattr(dd, "_read_dense_lines", spy)
    return calls


class TestFastParse:
    def test_written_files_need_no_line_parser(self, tmp_path, line_parser_calls):
        data = make_synthetic_clusters(3, 4, 5, 3.0, seed=7)
        path = tmp_path / "d.csv"
        save_labeled_matrix(data, str(path))
        back = load_labeled_matrix(str(path))
        assert back.features.tobytes() == data.features.tobytes()
        assert np.array_equal(back.original_labels, data.original_labels)
        assert line_parser_calls == []

    def test_dense_features_keep_the_transposed_layout(self, tmp_path, line_parser_calls):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,3.0,1\n4.0,5.0,6.0,2\n")
        feats, labels = dd._read_dense(str(path))
        assert line_parser_calls == []
        assert feats.flags.f_contiguous and feats.strides == (8, 24)
        assert feats.tolist() == [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]
        assert labels.tolist() == [1, 2] and labels.dtype == np.int64

    def test_bare_carriage_returns_end_lines(self, tmp_path, line_parser_calls):
        path = tmp_path / "d.csv"
        path.write_bytes(b"1.0,2.0,1\r3.0,4.0,2\r\r5.0,6.0,1\n7.0,8.0,3\r")
        _check_dense(path)
        assert line_parser_calls == []
        assert dd._read_dense(str(path))[0].shape == (2, 4)

    @pytest.mark.parametrize("text", [
        "1_0,2.0,1\n",                               # float() reads 10.0
        "1.0,2.0,\u0661\n",                          # int() reads Arabic-Indic 1
        "1.0,2.0,1\n \n3.0,4.0,2\n",                  # whitespace-only line
        "1.0,2.0,9223372036854775808\n",              # beyond int64
        "1.0,nan,1\n",
        "inf,2.0,1\n",
        "1e999,2.0,1\n",                              # overflows to inf
        "",
        "\n",
        "5\n3\n",                                     # label-only rows
        "1.0,2.0,3.0\n",                              # float label
        "1.0,2.0,1\n1.0,2.0,1e3\n",                   # older NumPy reads it as 1000
        "1.0,3\x1c\n",                                # NumPy skips \x1c, int() does not
        "1.0,3\U0009c6ca\n",                          # NumPy reads it as digits
        "\n1.0,2.0,1\n",                              # the first line is blank
    ])
    def test_inputs_the_line_parser_decides(self, tmp_path, line_parser_calls, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        _check_dense(path)
        assert line_parser_calls == ["_read_dense_lines"] * 2

    @pytest.mark.parametrize("label", ["3.0", "1e3", "2E0"])
    def test_float_labels_never_reach_numpy(self, tmp_path, monkeypatch, label):
        # older NumPy reads such a label as an integer, with only a warning
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: pytest.fail("loadtxt called"))
        path = tmp_path / "d.csv"
        path.write_text(f"1.0,2.0,1\n1.0,2.0,{label}\n")
        with pytest.raises(ValueError, match=f"2: label '{label}' is not an integer"):
            load_labeled_matrix(str(path))


def _peak_bytes(call):
    """The most memory ``call()`` held at once beyond what was held before it."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestDenseFileMemory:
    """Dense files are read and written in pieces: neither the file's text
    nor the matrix as Python floats is ever held whole."""

    @pytest.fixture
    def written(self, tmp_path):
        rng = np.random.default_rng(0)
        data = LabeledMatrix(rng.standard_normal((200, 600)), rng.integers(0, 10, 600))
        path = tmp_path / "d.csv"
        save_labeled_matrix(data, str(path))
        return data, str(path)

    def test_load_peaks_below_three_matrices(self, written):
        data, path = written
        assert _peak_bytes(lambda: load_labeled_matrix(path)) <= 3 * data.features.nbytes

    def test_save_peaks_below_half_a_matrix(self, written):
        data, path = written
        assert _peak_bytes(lambda: save_labeled_matrix(data, path)) <= data.features.nbytes / 2


def test_save_writes_shortest_reprs(tmp_path):
    feats = np.array([[0.1, -0.0, 5e-324], [1e16, 2.5, -1.0]])
    data = LabeledMatrix(feats, np.array([-3, 7, 2**62]))
    dense, mat, lab = tmp_path / "d.csv", tmp_path / "x.txt", tmp_path / "y.txt"
    save_labeled_matrix(data, str(dense))
    save_labeled_matrix(data, str(mat), format="pair", labels_path=str(lab))
    assert dense.read_text() == (
        "0.1,1e+16,-3\n-0.0,2.5,7\n5e-324,-1.0,4611686018427387904\n"
    )
    assert mat.read_text() == "0.1 -0.0 5e-324\n1e+16 2.5 -1.0\n"
    assert lab.read_text() == "-3\n7\n4611686018427387904\n"

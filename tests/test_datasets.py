import struct

import numpy as np
import pytest

from mclkit import tensor
from mclkit.datasets import (
    DatasetBundle,
    _low_rank_template,
    load_dataset,
    nearest_template_accuracy,
    read_split,
    save_dataset,
    split_semisup,
    synth_dataset,
    write_split,
)
from mclkit.errors import (
    ConfigError,
    DatasetFormatError,
    DatasetLabelError,
    DatasetTruncatedError,
    MclError,
)


class TestSplitFiles:
    def test_write_read_roundtrip_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.random(size=(7, 4, 3, 2)).astype(np.float32)
        y = rng.integers(0, 5, size=7)
        path = tmp_path / "s.mcld"
        write_split(path, x, y)
        rx, ry, n_classes = read_split(path)
        assert np.array_equal(rx, x)
        assert np.array_equal(ry, y)
        # second write is byte-identical
        path2 = tmp_path / "s2.mcld"
        write_split(path2, rx, ry)
        assert path.read_bytes() == path2.read_bytes()

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "bad.mcld"
        x = np.zeros((2, 2, 2, 1), dtype=np.float32)
        write_split(path, x, np.array([0, 1]))
        raw = bytearray(path.read_bytes())
        raw[-4:] = (12).to_bytes(4, "little")  # label 12 in a 2-class file
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetLabelError, match="label 12"):
            read_split(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mcld"
        path.write_bytes(b"WHAT" + b"\x00" * 32)
        with pytest.raises(DatasetFormatError, match="magic"):
            read_split(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.mcld"
        write_split(path, np.zeros((3, 2, 2, 1), dtype=np.float32), np.zeros(3, dtype=int))
        path.write_bytes(path.read_bytes()[:-6])
        with pytest.raises(DatasetTruncatedError):
            read_split(path)

    def test_cifar_sized_header(self, tmp_path):
        path = tmp_path / "c.mcld"
        x = np.zeros((2, 32, 32, 3), dtype=np.float32)
        write_split(path, x, np.array([0, 9]))
        rx, ry, n_classes = read_split(path)
        assert rx.shape[1:] == (32, 32, 3)
        assert n_classes == 10

    def test_unlabeled_sentinel(self, tmp_path):
        path = tmp_path / "u.mcld"
        x = np.zeros((3, 2, 2, 1), dtype=np.float32)
        write_split(path, x, np.array([0, -1, 1]))
        _, ry, _ = read_split(path)
        assert list(ry) == [0, -1, 1]

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "t.mcld"
        write_split(path, np.zeros((3, 2, 2, 1), dtype=np.float32), np.zeros(3, dtype=int))
        path.write_bytes(path.read_bytes() + b"\x00" * 3)
        with pytest.raises(DatasetFormatError, match="3 trailing bytes"):
            read_split(path)

    def test_label_error_names_first_bad_sample(self, tmp_path):
        path = tmp_path / "bad.mcld"
        write_split(path, np.zeros((4, 2, 1, 1), dtype=np.float32), np.array([0, 1, 0, 1]))
        raw = bytearray(path.read_bytes())
        for sample, label in ((1, 7), (3, 9)):
            end = 32 + 12 * (sample + 1)  # 32-byte header, 8-byte payload + label
            raw[end - 4 : end] = label.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetLabelError, match="sample 1 has label 7"):
            read_split(path)

    @pytest.mark.parametrize("header", [
        struct.pack("<IIIIIII", 1, 0xFFFFFFFF, 3, 32, 32, 3, 10),
        struct.pack("<IIIIIII", 1, 0xFFFFFFFF, 3, 65535, 65535, 65535, 10),
        struct.pack("<IIII", 1, 2, 3, 32) + b"\x20\x00",  # cut inside dims
    ], ids=["count-32x32x3", "count-65535^3", "cut-in-dims"])
    def test_corrupt_header_is_truncation(self, tmp_path, header):
        # Checked against the file length before anything is allocated.
        path = tmp_path / "c.mcld"
        path.write_bytes(b"MCLD" + header)
        with pytest.raises(DatasetTruncatedError):
            read_split(path)

    def test_empty_split_of_oversized_samples(self, tmp_path):
        path = tmp_path / "c.mcld"
        path.write_bytes(b"MCLD" + struct.pack("<IIIIIII", 1, 0, 3, 65535, 65535, 65535, 10))
        with pytest.raises(DatasetFormatError, match="too large"):
            read_split(path)


def test_mutated_splits_raise_only_typed_errors(tmp_path, monkeypatch):
    # Seeded mutations of a split read in blocks of five records, through
    # read_split and load_dataset: each targeted mutation raises its typed
    # error, and random byte edits raise nothing but MclError subclasses.
    monkeypatch.setattr(tensor, "_CACHE_BYTES", 5 * 28)  # 3x2x1 float32 + a label
    rng = np.random.default_rng(2604)
    x = rng.random((23, 3, 2, 1)).astype(np.float32)
    y = rng.integers(0, 3, size=23)
    y[::5] = -1
    write_split(tmp_path / "test.mcld", x[:4], np.arange(4) % 3)
    path = tmp_path / "train.mcld"
    write_split(path, x, y)
    good = path.read_bytes()
    record = 32 + 28 * np.arange(23)  # 32-byte header; payload, then label
    for case in range(400):
        raw = bytearray(good)
        kind = case % 6
        if kind == 0:  # more records than the file holds
            raw[8:12] = struct.pack("<I", int(rng.integers(24, 2**32)))
        elif kind == 1:  # a larger sample shape than the file holds
            at = 16 + 4 * int(rng.integers(3))
            dim = struct.unpack_from("<I", raw, at)[0]
            raw[at : at + 4] = struct.pack("<I", int(rng.integers(dim + 1, 2**32)))
        elif kind == 2:
            raw[12:16] = struct.pack("<I", int(rng.integers(9, 2**32)))
        elif kind == 3:  # a label at or past the class count, not the sentinel
            at = int(record[rng.integers(23)]) + 24
            raw[at : at + 4] = struct.pack("<I", int(rng.integers(3, 2**32 - 1)))
        elif kind == 4:  # NaN or infinity in the last block
            at = int(record[rng.integers(20, 23)]) + 4 * int(rng.integers(6))
            raw[at : at + 4] = struct.pack("<f", rng.choice([np.nan, np.inf, -np.inf]))
        else:
            for _ in range(rng.integers(1, 4)):
                raw[int(rng.integers(len(raw)))] = int(rng.integers(256))
            raw = raw[: int(rng.integers(len(raw) - 8, len(raw) + 8))] + bytes(8)
        path.write_bytes(bytes(raw))
        expected = (DatasetTruncatedError, DatasetTruncatedError, DatasetFormatError,
                    DatasetLabelError, DatasetFormatError, MclError)[kind]
        for read in (read_split, lambda p: load_dataset(p.parent)):
            try:  # any other error fails the test, under python -O too
                read(path)
            except expected:
                continue
            if kind != 5:
                pytest.fail(f"mutation {case} of kind {kind} raised nothing")


def _per_sample_write(path, x, y, n_classes):
    """The per-sample ``.mcld`` writer that the record codec replaced."""
    x = np.ascontiguousarray(np.asarray(x), dtype="<f4")
    labels = np.where(np.asarray(y) < 0, 0xFFFFFFFF, y).astype(np.uint64)
    dims = x.shape[1:]
    with open(path, "wb") as fh:
        fh.write(b"MCLD")
        fh.write(struct.pack("<III", 1, len(x), len(dims)))
        fh.write(struct.pack(f"<{len(dims)}I", *dims))
        fh.write(struct.pack("<I", n_classes))
        for sample, label in zip(x, labels):
            fh.write(sample.tobytes())
            fh.write(struct.pack("<I", int(label)))


def _per_sample_write_split(path, x, y=None):
    if y is None:
        y = np.full(len(x), -1)
    real = np.asarray(y)[np.asarray(y) >= 0]
    _per_sample_write(path, x, y, int(real.max()) + 1 if real.size else 0)


def _format_cases():
    rng = np.random.default_rng(30)
    x = rng.random((6, 3, 4, 2)).astype(np.float32)
    return {
        "labeled": (x, rng.integers(0, 4, size=6)),
        "all-unlabeled": (x, None),
        "mixed": (x, np.array([2, -1, 0, -1, 3, 1])),
        "zero-sample": (x[:0], np.zeros(0, dtype=np.int64)),
        "float64": (rng.random((5, 3, 4, 2)), np.array([0, 1, -1, 1, 0])),
        "rank-1": (rng.random((4, 7)).astype(np.float32), np.array([1, 0, -1, 2])),
        "rank-4": (rng.random((3, 2, 3, 2, 2)).astype(np.float32), np.array([0, -1, 1])),
    }


class TestFormatPinned:
    @pytest.mark.parametrize("case", list(_format_cases()))
    def test_write_split_bytes(self, tmp_path, case):
        x, y = _format_cases()[case]
        write_split(tmp_path / "new.mcld", x, y)
        _per_sample_write_split(tmp_path / "old.mcld", x, y)
        assert (tmp_path / "new.mcld").read_bytes() == (tmp_path / "old.mcld").read_bytes()

    @pytest.mark.parametrize("case", list(_format_cases()))
    def test_save_dataset_bytes(self, tmp_path, case):
        x, y = _format_cases()[case]
        y = np.full(len(x), -1) if y is None else y
        labeled = y >= 0
        eval_y = np.arange(len(x)) % 4
        bundle = DatasetBundle(x[labeled], y[labeled], x, eval_y, x, eval_y,
                               n_classes=5, unlabeled_x=x[~labeled])
        save_dataset(bundle, tmp_path / "new")
        old = tmp_path / "old"
        old.mkdir()
        _per_sample_write(old / "train.mcld",
                          np.concatenate([x[labeled], x[~labeled]]),
                          np.concatenate([y[labeled], y[~labeled]]), 5)
        _per_sample_write_split(old / "val.mcld", x, eval_y)
        _per_sample_write_split(old / "test.mcld", x, eval_y)
        for name in ("train.mcld", "val.mcld", "test.mcld"):
            assert (tmp_path / "new" / name).read_bytes() == (old / name).read_bytes()

    @pytest.mark.parametrize("case", list(_format_cases()))
    def test_read_back(self, tmp_path, case):
        x, y = _format_cases()[case]
        write_split(tmp_path / "s.mcld", x, y)
        rx, ry, _ = read_split(tmp_path / "s.mcld")
        assert rx.dtype == np.float32 and ry.dtype == np.int64
        assert np.array_equal(rx, np.asarray(x, dtype=np.float32))
        assert np.array_equal(ry, np.full(len(x), -1) if y is None else y)


class TestBundleIO:
    def test_directory_roundtrip_with_pool(self, tmp_path):
        bundle = synth_dataset(0, (8, 8, 1), 3, n_per_class=10, noise=0.02)
        bundle = split_semisup(bundle, 0.5, seed=1)
        save_dataset(bundle, tmp_path / "d")
        loaded = load_dataset(tmp_path / "d")
        assert np.array_equal(loaded.train_x, bundle.train_x)
        assert np.array_equal(loaded.train_y, bundle.train_y)
        assert np.array_equal(loaded.unlabeled_x, bundle.unlabeled_x)
        assert np.array_equal(loaded.test_y, bundle.test_y)
        assert loaded.n_classes == 3

    def test_missing_val_is_carved(self, tmp_path):
        bundle = synth_dataset(1, (8, 8, 1), 3, n_per_class=20, noise=0.02)
        d = tmp_path / "d"
        save_dataset(bundle, d)
        (d / "val.mcld").unlink()
        loaded = load_dataset(d)
        assert len(loaded.val_x) >= 3
        assert len(loaded.val_x) + len(loaded.train_x) == len(bundle.train_x)

    def test_split_rows_and_order_are_pinned(self, tmp_path):
        # 21 rows of class 0, 5 of class 1 and 4 unlabeled, interleaved; row i holds i.
        y = np.zeros(30, dtype=np.int64)
        y[[4, 5, 13, 14, 22]] = 1
        y[[3, 8, 25, 28]] = -1
        x = np.arange(30, dtype=np.float32)[:, None, None, None] * np.ones((2, 2, 1), np.float32)
        write_split(tmp_path / "train.mcld", x, y)
        write_split(tmp_path / "test.mcld", x[:2], y[:2])

        def rows(a):
            return a[:, 0, 0, 0].astype(int).tolist()

        # Carved: the last max(1, n_c // 10) labeled rows of each class, in file order.
        carved = load_dataset(tmp_path)
        assert rows(carved.val_x) == [22, 27, 29] and carved.val_y.tolist() == [1, 0, 0]
        train_rows = [0, 1, 2, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                      20, 21, 23, 24, 26]
        assert rows(carved.train_x) == train_rows
        assert carved.train_y.tolist() == y[train_rows].tolist()
        assert rows(carved.unlabeled_x) == [3, 8, 25, 28]
        assert carved.n_classes == 2

        # With val.mcld, every labeled row trains, in file order.
        write_split(tmp_path / "val.mcld", x[:3], y[:3])
        given = load_dataset(tmp_path)
        labeled = [i for i in range(30) if y[i] >= 0]
        assert rows(given.train_x) == labeled and given.train_y.tolist() == y[labeled].tolist()
        assert rows(given.unlabeled_x) == [3, 8, 25, 28]
        assert rows(given.val_x) == [0, 1, 2]

    def test_class_count_beyond_the_labeled_rows_rejected(self, tmp_path):
        bundle = synth_dataset(1, (8, 8, 1), 3, n_per_class=10, noise=0.02)
        save_dataset(bundle, tmp_path)
        labeled = len(bundle.train_x) + len(bundle.val_x) + len(bundle.test_x)
        for name, classes in (("test.mcld", labeled), ("test.mcld", 2**31),
                              ("val.mcld", labeled + 1), ("train.mcld", labeled + 1)):
            raw = bytearray((tmp_path / name).read_bytes())
            struct.pack_into("<I", raw, 28, classes)  # after magic, 3 counts, 3 dims
            (tmp_path / name).write_bytes(bytes(raw))
            if classes == labeled:
                assert load_dataset(tmp_path).n_classes == labeled
                continue
            with pytest.raises(DatasetFormatError,
                               match=f"{name}: declares {classes} classes, more than the "
                                     f"{labeled} labeled rows"):
                load_dataset(tmp_path)
            save_dataset(bundle, tmp_path)

    def test_missing_files(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("split,name", [("val", "validation"), ("test", "test")])
    def test_empty_split_rejected(self, tmp_path, split, name):
        bundle = synth_dataset(1, (8, 8, 1), 3, n_per_class=10, noise=0.02)
        save_dataset(bundle, tmp_path)
        write_split(tmp_path / f"{split}.mcld", bundle.test_x[:0], bundle.test_y[:0])
        with pytest.raises(DatasetFormatError, match=f"the {name} split is empty"):
            load_dataset(tmp_path)


def test_no_pool_is_an_empty_array(tmp_path):
    bundle = synth_dataset(0, (6, 6, 1), 3, n_per_class=10, noise=0.02)
    save_dataset(bundle, tmp_path / "d")
    direct = DatasetBundle(bundle.train_x, bundle.train_y, bundle.val_x, bundle.val_y,
                           bundle.test_x, bundle.test_y, bundle.n_classes)
    for source in (bundle, load_dataset(tmp_path / "d"), split_semisup(bundle, 1.0, 0),
                   direct):
        assert source.unlabeled_x.shape == (0,) + source.signal_shape
        assert source.unlabeled_x.dtype == source.train_x.dtype
        assert source.n_unlabeled == 0


class TestSplitSemisup:
    def _bundle(self, n_per_class=30, classes=4):
        return synth_dataset(2, (6, 6, 1), classes, n_per_class=n_per_class, noise=0.02)

    def test_fraction_one_keeps_everything(self):
        b = self._bundle()
        out = split_semisup(b, 1.0, seed=0)
        assert out.n_unlabeled == 0
        assert len(out.train_x) == len(b.train_x)

    def test_stratified_counts(self):
        b = self._bundle(n_per_class=90, classes=10)
        out = split_semisup(b, 0.2, seed=0)
        assert len(out.train_x) == round(0.2 * 900)
        for c in range(10):
            assert np.sum(out.train_y == c) == 18

    def test_stratification_arithmetic_at_9000(self):
        # balanced 10-class set of 9000 at a 20% labeled share: 180 per class
        x = np.zeros((9000, 2, 2, 1), dtype=np.float32)
        y = np.repeat(np.arange(10), 900)
        b = DatasetBundle(x, y, x[:10], y[:10], x[:10], y[:10], n_classes=10)
        out = split_semisup(b, 0.2, seed=0)
        assert len(out.train_x) == 1800
        for c in range(10):
            assert np.sum(out.train_y == c) == 180

    def test_same_seed_same_split(self):
        b = self._bundle()
        a = split_semisup(b, 0.3, seed=5)
        c = split_semisup(b, 0.3, seed=5)
        assert np.array_equal(a.train_x, c.train_x)
        assert np.array_equal(a.unlabeled_x, c.unlabeled_x)

    def test_conservation_and_disjointness(self):
        b = self._bundle()
        out = split_semisup(b, 0.4, seed=3)
        assert len(out.train_x) + out.n_unlabeled == len(b.train_x)
        # proportions within one sample per class
        for c in range(4):
            share = np.sum(out.train_y == c)
            assert abs(share - 0.4 * 30) <= 1

    def test_existing_pool_rows_are_kept(self):
        first = split_semisup(self._bundle(), 0.5, seed=0)
        second = split_semisup(first, 0.5, seed=1)
        assert np.array_equal(second.unlabeled_x[:first.n_unlabeled], first.unlabeled_x)
        assert len(second.train_x) + second.n_unlabeled == len(first.train_x) + first.n_unlabeled

    def test_empty_class_rejected(self):
        b = self._bundle(n_per_class=3)
        with pytest.raises(ConfigError):
            split_semisup(b, 0.05, seed=0)

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            split_semisup(self._bundle(), 0.0, seed=0)


class TestSynthDataset:
    def test_deterministic_per_seed(self):
        a = synth_dataset(7, (8, 8, 1), 3, n_per_class=12, noise=0.05)
        b = synth_dataset(7, (8, 8, 1), 3, n_per_class=12, noise=0.05)
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.train_y, b.train_y)
        c = synth_dataset(8, (8, 8, 1), 3, n_per_class=12, noise=0.05)
        assert not np.array_equal(a.train_x, c.train_x)

    def test_zero_noise_nearest_template_perfect(self):
        b = synth_dataset(3, (8, 8, 1), 4, n_per_class=10, noise=0.0)
        acc = nearest_template_accuracy(b.train_x, b.train_y, b.templates)
        assert acc == 1.0

    def test_reference_scale_separability(self):
        b = synth_dataset(4, (16, 16, 1), 4, n_per_class=200, noise=0.05)
        x = np.concatenate([b.train_x, b.val_x, b.test_x])
        y = np.concatenate([b.train_y, b.val_y, b.test_y])
        assert nearest_template_accuracy(x, y, b.templates) >= 0.99

    def test_shuffled_labels_fall_to_chance(self):
        b = synth_dataset(5, (8, 8, 1), 4, n_per_class=50, noise=0.05)
        rng = np.random.default_rng(0)
        shuffled = b.train_y[rng.permutation(len(b.train_y))]
        acc = nearest_template_accuracy(b.train_x, shuffled, b.templates)
        assert abs(acc - 0.25) < 0.1

    def test_template_oracle_block_budget_does_not_change_result(self, monkeypatch):
        b = synth_dataset(5, (8, 8, 1), 4, n_per_class=50, noise=0.3)
        flat = b.train_x.reshape(len(b.train_x), -1).astype(np.float64)
        t = b.templates.reshape(4, -1).astype(np.float64)
        whole = ((flat[:, None, :] - t[None, :, :]) ** 2).sum(axis=2)
        expected = float(np.mean(whole.argmin(axis=1) == b.train_y))
        assert nearest_template_accuracy(b.train_x, b.train_y, b.templates) == expected
        monkeypatch.setattr(tensor, "_CACHE_BYTES", 1)
        assert nearest_template_accuracy(b.train_x, b.train_y, b.templates) == expected

    def test_values_in_unit_range(self):
        b = synth_dataset(6, (8, 8, 1), 3, n_per_class=10, noise=0.3)
        for x in (b.train_x, b.val_x, b.test_x):
            assert x.min() >= 0.0 and x.max() <= 1.0

    def test_split_layout_is_pinned(self):
        # Each class draws its training, then validation, then test rows in
        # one normal draw after all templates; the training rows of every
        # class are then permuted by the same generator.
        shape, classes, n, n_eval = (8, 8, 1), 3, 6, 2
        rng = np.random.default_rng(0)
        templates = np.stack([_low_rank_template(rng, shape) for _ in range(classes)])
        draws = [np.clip(t + 0.05 * rng.normal(size=(n + 2 * n_eval,) + shape), 0.0, 1.0)
                 .astype(np.float32) for t in templates]
        order = rng.permutation(classes * n)
        expected = (
            np.concatenate([d[:n] for d in draws])[order],
            np.repeat(np.arange(classes), n)[order],
            np.concatenate([d[n : n + n_eval] for d in draws]),
            np.repeat(np.arange(classes), n_eval),
            np.concatenate([d[n + n_eval :] for d in draws]),
            np.repeat(np.arange(classes), n_eval),
        )
        b = synth_dataset(0, shape, classes, n_per_class=n, noise=0.05)
        got = (b.train_x, b.train_y, b.val_x, b.val_y, b.test_x, b.test_y)
        for name, g, e in zip(("train_x", "train_y", "val_x", "val_y", "test_x", "test_y"),
                              got, expected):
            assert g.dtype == e.dtype and g.shape == e.shape, name
            assert g.tobytes() == e.tobytes(), name
        assert np.array_equal(b.templates, templates)

    def test_degenerate_args_rejected(self):
        with pytest.raises(ConfigError):
            synth_dataset(0, (8, 8, 1), 1, n_per_class=5)
        with pytest.raises(ConfigError):
            synth_dataset(0, (0, 8, 1), 3, n_per_class=5)


def test_bundle_validation_catches_bad_labels():
    x = np.zeros((4, 2, 2, 1), dtype=np.float32)
    with pytest.raises(DatasetLabelError):
        DatasetBundle(x, np.array([0, 1, 2, 9]), x, np.zeros(4, dtype=int),
                      x, np.zeros(4, dtype=int), n_classes=3)

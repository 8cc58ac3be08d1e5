"""Ingestion, k-core filtering, temporal splits, instance generation, and
the checkpoint and integer-table text formats."""

import contextlib
import hashlib
import logging
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dppseq import data
from dppseq.data import (
    SplitResult,
    default_lengths,
    k_core_filter,
    load_interactions,
    make_instances,
    parse_int_rows,
    read_checkpoint,
    temporal_split,
    user_histories,
    write_checkpoint,
    write_interactions,
    write_split_manifest,
)
from tests.conftest import log_from_rows


def write_csv(path, rows):
    lines = ["user_id,item_id,timestamp,categories"]
    lines.extend(",".join(str(c) for c in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def synthetic_log(n_users=4, n_items=8, per_user=6):
    rows = []
    t = 0
    for u in range(n_users):
        for j in range(per_user):
            item = (u + j) % n_items
            rows.append((f"u{u}", f"i{item}", t, [f"c{item % 3}"]))
            t += 1
    return log_from_rows(rows)


class TestLoadInteractions:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(
            path,
            [("u1", "i1", 10, "c1"), ("u1", "i2", 11, "c1;c2"), ("u2", "i1", 12, "c2")],
        )
        log = load_interactions(path)
        assert log.users.tolist() == [0, 0, 1]
        assert log.items.tolist() == [0, 1, 0]
        assert log.timestamps.tolist() == [10, 11, 12]
        assert log.categories.tolist() == ["c1", "c1;c2", "c2"]
        assert log.n_users == 2
        assert log.n_items == 2
        assert log.n_categories == 2
        assert log.item_categories.tolist() == [[True, True], [True, True]]

    def test_empty_category_rejected_strict(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, [("u1", "i1", 10, "c1"), ("u1", "i2", 11, "")])
        with pytest.raises(ValueError, match="3"):
            load_interactions(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("u1,i1,10,c1\n")
        with pytest.raises(ValueError, match="header"):
            load_interactions(path)

    def test_round_trip(self, tmp_path):
        log = synthetic_log()
        path = tmp_path / "out.csv"
        write_interactions(path, log)
        loaded = load_interactions(path)
        for column in ("users", "items", "timestamps", "categories"):
            assert np.array_equal(getattr(loaded, column), getattr(log, column))
        assert loaded.user_ids == log.user_ids
        assert loaded.item_ids == log.item_ids


class TestKCoreFilter:
    def test_identity_when_satisfied(self):
        log = synthetic_log(n_users=4, n_items=4, per_user=4)
        filtered = k_core_filter(log, k=2)
        assert len(filtered.users) == len(log.users)

    def test_k1_is_identity(self):
        log = synthetic_log()
        assert len(k_core_filter(log, k=1).users) == len(log.users)

    def test_cascading_removal(self):
        # users u0-u2 share items i0-i2 heavily; u3 only touches i3 and i0.
        # with k=2, i3 (degree 1) goes first, dropping u3 below k, whose
        # removal then leaves i0's count reduced but still >= 2.
        rows = []
        t = 0
        for u in range(3):
            for i in range(3):
                rows.append((f"u{u}", f"i{i}", t, ["c0"]))
                t += 1
        rows.append(("u3", "i3", t, ["c0"]))
        rows.append(("u3", "i0", t + 1, ["c0"]))
        log = log_from_rows(rows)
        filtered = k_core_filter(log, k=2)
        assert set(filtered.user_ids) == {"u0", "u1", "u2"}
        assert set(filtered.item_ids) == {"i0", "i1", "i2"}
        # degree bound holds for every survivor
        assert np.bincount(filtered.users).min() >= 2
        assert np.bincount(filtered.items).min() >= 2

    def test_empty_result_rejected(self):
        log = synthetic_log(n_users=2, n_items=8, per_user=3)
        with pytest.raises(ValueError):
            k_core_filter(log, k=50)


class TestTemporalSplit:
    def test_twelve_actions_t1(self):
        rows = [("u0", f"i{j}", j, ["c0"]) for j in range(12)]
        log = log_from_rows(rows)
        split = temporal_split(log, T=1)
        assert len(split.train[0]) == 9  # floor(0.9 * 11)
        assert len(split.valid[0]) == 2
        assert len(split.test[0]) == 1

    def test_too_short_user_dropped(self):
        rows = [("u0", f"i{j}", j, ["c0"]) for j in range(3)]
        log = log_from_rows(rows)
        split = temporal_split(log, T=2)
        assert split.dropped_users == [0]
        assert split.train[0] == []

    def test_partition_no_overlap(self):
        log = synthetic_log(n_users=3, n_items=20, per_user=15)
        split = temporal_split(log, T=3)
        for u in range(3):
            rebuilt = split.train[u] + split.valid[u] + split.test[u]
            assert rebuilt == log.items[log.users == u].tolist()

    def test_timestamp_ties_keep_input_order(self):
        rows = [("u0", f"i{j}", 5 - (j == 2), ["c0"]) for j in range(6)]
        split = temporal_split(log_from_rows(rows), T=1)
        assert split.train[0] + split.valid[0] + split.test[0] == [2, 0, 1, 3, 4, 5]


class TestMakeInstances:
    def test_exact_window_single_instance(self):
        split = SplitResult(train=[list(range(8))], valid=[[8]], test=[[9]], dropped_users=[])
        instances = make_instances(split, 30, L=5, T=3, Z=3, seed=0)
        assert len(instances) == 1
        assert instances.items.shape == (1, 11)
        assert instances.items[0, :8].tolist() == [0, 1, 2, 3, 4, 5, 6, 7]
        assert instances.users.tolist() == [0]
        assert instances.time_steps.tolist() == [5]

    def test_stride_one_count(self):
        split = SplitResult(train=[list(range(10))], valid=[[10]], test=[[11]], dropped_users=[])
        instances = make_instances(split, 40, L=5, T=3, Z=3, seed=0)
        assert len(instances) == 3

    def test_negatives_disjoint_from_history(self):
        split = SplitResult(
            train=[list(range(12))], valid=[[12]], test=[[13]], dropped_users=[]
        )
        history = user_histories(split)[0]
        for seed in range(100):
            for negatives in make_instances(split, 50, L=5, T=3, Z=3, seed=seed).items[:, 8:]:
                assert not set(negatives.tolist()) & history
                assert len(set(negatives.tolist())) == 3

    def test_deterministic(self):
        split = SplitResult(train=[list(range(15))], valid=[[15]], test=[[16]], dropped_users=[])
        a = make_instances(split, 60, L=5, T=2, Z=2, seed=9)
        b = make_instances(split, 60, L=5, T=2, Z=2, seed=9)
        for column in ("users", "items", "time_steps"):
            assert np.array_equal(getattr(a, column), getattr(b, column))

    def test_negatives_equal_the_catalog_scan(self):
        """The unseen pool from a history mask is the array that a scan over
        the catalog built, so `rng.choice` draws the same negatives."""
        def scan_negatives(split, n_items, L, T, Z, seed):
            histories = user_histories(split)
            out = []
            for u, seq in enumerate(split.train):
                if len(seq) < L + T:
                    continue
                rng = np.random.default_rng(np.random.SeedSequence([seed, u]))
                pool = np.asarray([i for i in range(n_items) if i not in histories[u]], dtype=int)
                if pool.size < Z:
                    continue
                for start in range(len(seq) - L - T + 1):
                    window = seq[start : start + L + T]
                    if len(set(window)) == len(window):
                        out.append(tuple(int(x) for x in rng.choice(pool, size=Z, replace=False)))
            return out

        setup = np.random.default_rng(4)
        drawn = 0
        for case in range(20):
            n_items = int(setup.integers(12, 60))
            parts = [
                [[int(i) for i in setup.integers(n_items, size=setup.integers(k))] for _ in range(6)]
                for k in (25, 4, 4)
            ]
            split = SplitResult(*parts, dropped_users=[])
            instances = make_instances(split, n_items, 4, 2, 3, seed=case)
            got = [tuple(n) for n in instances.items[:, 6:].tolist()]
            assert got == scan_negatives(split, n_items, 4, 2, 3, seed=case), case
            drawn += len(got)
        assert drawn > 100

    def test_short_user_contributes_nothing(self):
        split = SplitResult(train=[[0, 1, 2]], valid=[[3]], test=[[4]], dropped_users=[])
        instances = make_instances(split, 30, L=5, T=3, Z=3, seed=0)
        assert len(instances) == 0
        assert instances.items.shape == (0, 11)


class TestDefaults:
    def test_t1(self):
        assert default_lengths(1) == (5, 2)

    def test_t3(self):
        assert default_lengths(3) == (6, 3)

    def test_t5(self):
        assert default_lengths(5) == (6, 5)


def test_split_manifest(tmp_path):
    log = synthetic_log(n_users=3, n_items=20, per_user=10)
    split = temporal_split(log, T=2)
    path = tmp_path / "manifest.tsv"
    write_split_manifest(path, split)
    lines = path.read_text().splitlines()
    assert lines[0] == "user\tn_train\tn_valid\tn_test"
    assert len(lines) == 4


@pytest.mark.parametrize("top", [9, 10**6])
def test_rows_written_from_either_table_of_strings(tmp_path, monkeypatch, top):
    # 120 values up to 9 take the strings of 0..9; up to 10**6, those of
    # their distinct values, as user ids of a sets file may.  Either way,
    # across blocks, the text is what the `%d` template writes
    monkeypatch.setattr(data, "WRITE_BLOCK_ROWS", 4)
    unique, distinct_calls = np.unique, []
    monkeypatch.setattr(np, "unique", lambda a: distinct_calls.append(a.size) or unique(a))
    rng = np.random.default_rng(top)
    columns = [rng.integers(0, top + 1, 30), rng.integers(0, top + 1, (30, 3))]
    columns[1][-1, -1] = top
    line = "%d\t+\t%d,%d\n%d"
    path = tmp_path / "rows.tsv"
    with open(path, "w") as fh:
        data.write_rows(fh, line, columns)
    table = np.column_stack(columns).tolist()
    assert path.read_text() == "".join(line % tuple(r) + "\n" for r in table)
    assert distinct_calls == ([] if top == 9 else [120])


class TestParseIntRows:
    def test_tabs_and_commas(self):
        rows = parse_int_rows(["0\t1,2\t3", "4\t5,6\t-7"], 4, "f")
        assert rows.dtype == np.intp
        assert rows.tolist() == [[0, 1, 2, 3], [4, 5, 6, -7]]

    def test_no_lines(self):
        assert parse_int_rows([], 3, "f").shape == (0, 3)

    @pytest.mark.parametrize(
        "lines",
        [
            ["1,2,3", "4"],  # the right field count in total, not per line
            ["1,2", "3,4,5"],
            ["1,2", "3"],
            ["1,2", ""],
            ["1,", "2"],
        ],
    )
    def test_other_widths_rejected(self, lines):
        with pytest.raises(ValueError, match="^f: a line does not hold 2 fields"):
            parse_int_rows(lines, 2, "f")

    @pytest.mark.parametrize("field", ["x", "2.5", "", "9" * 20])
    def test_other_fields_rejected(self, field):
        with pytest.raises(ValueError, match="^f: "):
            parse_int_rows(["0,1", f"1,{field}"], 2, "f")

    @pytest.mark.parametrize("field", ["2.5", "4.0", "1e3", "9" * 20])
    def test_integer_read_through_a_float_rejected(self, monkeypatch, field):
        """Older numpy's `loadtxt` read such fields as integers through a
        float, with only a DeprecationWarning; they still raise."""
        loadtxt = np.loadtxt

        def lenient(lines, dtype, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            return loadtxt(lines, dtype=float, **kwargs).astype(dtype)

        monkeypatch.setattr(np, "loadtxt", lenient)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # as outside a test run
            with pytest.raises(ValueError, match="^f: "):
                parse_int_rows(["0,1", f"1,{field}"], 2, "f")
            assert parse_int_rows(["0,1", "1,-2"], 2, "f").tolist() == [[0, 1], [1, -2]]

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 8, 17])
    def test_widths_and_negative_ids(self, width):
        rng = np.random.default_rng(width)
        want = rng.integers(-(2**63), 2**63 - 1, size=(40, width), endpoint=True)
        want[0, :] = [-(2**63), 2**63 - 1, -1, 0][:width] + [7] * (width - 4)
        seps = rng.choice(["\t", ","], size=(40, width))
        lines = ["".join(map("{}{}".format, r, s))[:-1] for r, s in zip(want.tolist(), seps)]
        rows = parse_int_rows(lines, width, "f")
        assert rows.dtype == np.intp
        assert rows.tolist() == want.tolist()

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["1\t2", "3\t4\t5"], "a line does not hold 2 fields"),
            (["1\t2", "3"], "a line does not hold 2 fields"),
            (["1\t", "3\t4"], "invalid literal"),
            (["1\t2", "\t4"], "invalid literal"),
            (["1\t2", "3\tx"], "invalid literal"),
            (["1\t2", "3\t4.0"], "invalid literal"),
            (["1\t2", "3\t" + "9" * 20], "too large"),
        ],
    )
    def test_errors_name_their_source(self, lines, message):
        with pytest.raises(ValueError, match=f"^instances.tsv: .*{message}"):
            parse_int_rows(lines, 2, "instances.tsv")

    def test_matches_the_int_parse_it_replaced(self):
        """Random lines, some of them not integer rows: the rows, or the
        error, of a split into fields and `np.array(fields, dtype=np.intp)`,
        the parse that numpy's C reader replaced."""

        def reference(lines, width, source):
            fields = "\t\n\t".join([*lines, ""]).replace(",", "\t").split("\t")
            bad = set(fields[width :: width + 1]) - {"\n"}
            if len(fields) != len(lines) * (width + 1) + 1 or bad:
                raise ValueError(f"{source}: a line does not hold {width} fields")
            del fields[width :: width + 1], fields[-1]
            try:
                return np.array(fields, dtype=np.intp).reshape(len(lines), width)
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{source}: {exc}") from None

        odd = [" 12", "+3", "-0", "1_000", "\u0661\u0662", "\xa05"]  # read as `int` reads them
        odd += ["", "x", "2.5", "1e3", "9" * 20]
        rng = np.random.default_rng(19)

        def token():
            if rng.random() < 0.05:
                return odd[rng.integers(len(odd))]
            return f"{rng.integers(-50, 50)}"

        outcomes = {"rows": 0, "error": 0, "odd_rows": 0}
        for case in range(400):
            width = int(rng.integers(1, 5))
            lines = []
            for _ in range(int(rng.integers(0, 6))):
                n = width + int(rng.choice([0, 0, 0, 0, -1, 1]))
                values = [token() for _ in range(max(n, 0))]
                seps = rng.choice(["\t", ","], size=len(values))
                lines.append("".join(v + c for v, c in zip(values, seps))[:-1])
            try:
                want = reference(lines, width, "f")
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    parse_int_rows(lines, width, "f")
                assert str(got.value) == str(exc), (case, lines)
                outcomes["error"] += 1
                continue
            got = parse_int_rows(lines, width, "f")
            assert got.dtype == want.dtype and got.tolist() == want.tolist(), (case, lines)
            outcomes["rows"] += 1
            outcomes["odd_rows"] += any(v in line for line in lines for v in odd[:6])
        assert min(outcomes.values()) > 0, outcomes


def kernel_shapes(header):
    return [(header[0], header[1])]


class TestCheckpoint:
    VALUES = [
        1e-4,
        9.999999999999999e-05,
        1e15,
        1e16,
        1e22,
        5e-324,
        2.2250738585072014e-308,
        -0.0,
        0.0,
        1 / 3,
    ]

    def test_writes_repr_and_reads_back_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64, endpoint=False)
        random = bits.view(np.float64)
        random = random[np.isfinite(random)][:99_000].reshape(990, 100)
        fixed = np.array(self.VALUES)
        path = tmp_path / "c.txt"
        write_checkpoint(path, [990, 100, len(fixed)], [random, fixed])
        want = ["990", "100", str(len(fixed))]
        want += [" ".join(repr(float(v)) for v in row) for row in random]
        want += [" ".join(repr(float(v)) for v in fixed)]
        assert path.read_text() == "\n".join(want) + "\n"
        values = random.tobytes() + fixed.tobytes()
        digest = hashlib.sha256(path.read_bytes() + values).digest()
        assert path.with_suffix(".bin").read_bytes() == digest + values
        header, (table, line) = read_checkpoint(path, 3, lambda h: [(h[0], h[1]), (h[2],)])
        assert header == [990, 100, len(fixed)]
        assert table.view(np.uint64).tolist() == random.view(np.uint64).tolist()
        assert line.view(np.uint64).tolist() == fixed.view(np.uint64).tolist()

    def test_trailing_blank_lines_read(self, tmp_path):
        path = tmp_path / "c.txt"
        write_checkpoint(path, [2, 3], [np.arange(6.0).reshape(2, 3)])
        path.write_text(path.read_text() + "\n \n")
        _, (table,) = read_checkpoint(path, 2, kernel_shapes)
        assert table.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("2\n3\n0.0 1.0 2.0\n\n3.0 4.0 5.0\n", id="blank_line"),
            pytest.param("2\n3\n0.0 1.0 2.0\n3.0 4.0\n", id="short_row"),
            pytest.param("2\n3\n0.0 1.0 2.0\n3.0 4.0 5.0 6.0\n", id="extra_token"),
            pytest.param("2\n3\n0.0 1.0 2.0\n3.0 4.0 #5.0\n", id="hash"),
            pytest.param("2\n3\n0.0 1.0 2.0\n3.0 4.0 5.0 # note\n", id="hash_comment"),
            pytest.param("2\n3\n0.0 nan 2.0\n3.0 4.0 5.0\n", id="nan"),
            pytest.param("2\n3\n0.0 1.0 2.0\n3.0 -inf 5.0\n", id="inf"),
            pytest.param("3\n3\n0.0 1.0 2.0\n3.0 4.0 5.0\n", id="more_rows_claimed"),
            pytest.param("0\n3\n", id="zero_rows"),
            pytest.param("0\n3\n\n", id="zero_rows_blank"),
            pytest.param("2\n3\n0.0 1.0 2.0\n3.0 4.0 5.0\n6.0 7.0 8.0\n", id="line_past_end"),
            pytest.param("2\n3\n0.0 1.0 2.0\n3.0 4.0 5.0\n\nx\n", id="text_past_end"),
            pytest.param("x\n3\n0.0 1.0 2.0\n3.0 4.0 5.0\n", id="header_not_int"),
            pytest.param("", id="empty_file"),
        ],
    )
    def test_rejected(self, tmp_path, text):
        path = tmp_path / "c.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
                read_checkpoint(path, 2, kernel_shapes)

    def test_bytes_past_the_header_block_not_utf8(self, tmp_path):
        path = tmp_path / "c.txt"
        write_checkpoint(path, [400, 10], [np.ones((400, 10)) / 3])
        path.write_bytes(path.read_bytes() + b"\xff\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: 'utf-8' codec"):
            read_checkpoint(path, 2, kernel_shapes)

    @pytest.mark.parametrize(
        "stale",
        [
            "text_value_edited",
            "twin_byte_flipped",
            "twin_truncated",
            "twin_lengthened",
            "twin_missing",
        ],
    )
    def test_stale_twin_falls_back_to_the_text(self, tmp_path, caplog, stale):
        path, twin = tmp_path / "c.txt", tmp_path / "c.bin"
        table = np.arange(6.0).reshape(2, 3) / 7
        write_checkpoint(path, [2, 3], [table])
        want = table.copy()
        if stale == "text_value_edited":
            want[1, 2] = 2.5
            path.write_text(path.read_text().replace(repr(float(table[1, 2])), "2.5"))
        elif stale == "twin_byte_flipped":
            blob = bytearray(twin.read_bytes())
            blob[-3] ^= 0x10
            twin.write_bytes(blob)
        elif stale == "twin_truncated":
            twin.write_bytes(twin.read_bytes()[:-8])
        elif stale == "twin_lengthened":
            twin.write_bytes(twin.read_bytes() + bytes(8))
        else:
            twin.unlink()
        with caplog.at_level(logging.INFO, logger="dppseq.data"):
            _, (got,) = read_checkpoint(path, 2, kernel_shapes)
        assert got.tobytes() == want.tobytes()
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}: its binary twin is missing, stale or refused; reading the text"
        ]


SPECIAL_VALUES = [-0.0, 5e-324, -2.2250738585072014e-308 / 3, np.nan, np.inf, -np.inf]
SHAPES = st.tuples(st.integers(0, 3), st.integers(0, 4)) | st.tuples(st.integers(0, 4))


@st.composite
def checkpoint_cases(draw):
    """One to three arrays of 0 to 3 rows or of one dimension, of any finite
    float64 bit pattern with -0.0, subnormals, nan and inf among them, and
    the shapes their header gives: theirs, transposed, or any others."""
    shapes = draw(st.lists(SHAPES, min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arrays = []
    for shape in shapes:
        array = rng.integers(0, 2**64, shape, dtype=np.uint64).view(np.float64)
        array[~np.isfinite(array)] = 1.0
        for value in draw(st.lists(st.sampled_from(SPECIAL_VALUES), max_size=2)):
            if array.size:
                array.flat[rng.integers(array.size)] = value
        arrays.append(array)
    other = st.tuples(st.integers(-1, 4), st.integers(-1, 4)) | st.tuples(st.integers(-1, 4))
    claimed = draw(
        st.just(shapes)
        | st.sampled_from([[s[::-1] for s in shapes], shapes[::-1]])
        | st.lists(other, min_size=1, max_size=3)
    )
    return arrays, claimed


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("checkpoints")


def read_outcome(path, claimed):
    """What `read_checkpoint` gives for arrays of the ranks in `claimed`:
    the header and each array's shape and bytes, or the error message."""

    def shapes(header):
        dims = iter(header)
        return [tuple(next(dims) for _ in shape) for shape in claimed]

    try:
        header, arrays = read_checkpoint(path, sum(map(len, claimed)), shapes)
    except ValueError as exc:
        return str(exc)
    return header, [(a.shape, a.dtype, a.tobytes()) for a in arrays]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=checkpoint_cases())
@example(case=([np.arange(6.0).reshape(2, 3)], [(3, 2)]))
# as many lines and values as the arrays written, in other widths
@example(case=([np.arange(4.0).reshape(2, 2), np.arange(4.0)], [(2, 3), (2,)]))
def test_twin_reads_as_the_text(checkpoint_dir, case):
    """The twin gives what the text gives, bit for bit, or the same error;
    and it is read without the text's parse whenever the header gives the
    arrays' own shapes, none of them empty, and every value is finite."""
    arrays, claimed = case
    path = checkpoint_dir / "c.txt"
    write_checkpoint(path, [d for shape in claimed for d in shape], arrays)
    clean = [a.shape for a in arrays] == [tuple(s) for s in claimed] and all(
        a.size and np.all(np.isfinite(a)) for a in arrays
    )
    refuse = mock.patch.object(np, "loadtxt", side_effect=AssertionError("parsed the text"))
    with refuse if clean else contextlib.nullcontext():
        with_twin = read_outcome(path, claimed)
    path.with_suffix(".bin").unlink()
    assert with_twin == read_outcome(path, claimed)

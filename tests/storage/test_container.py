"""The segmented v2 container: writer/reader round-trips and corruption.

The adversarial half of this file is the storage layer's safety
contract: a truncated or bit-flipped container must either load with
fully consistent data or raise :class:`DataFormatError` — never a bare
``struct.error`` / ``IndexError`` crash, and never a silent partial
load.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from repro.common.errors import (
    CodecError,
    DataFormatError,
    UnknownRuleError,
    UnknownWindowError,
    ValidationError,
)
from repro.common.varint import encode_svarint, encode_uvarint
from repro.core.storage import (
    MAGIC,
    ShardedSeriesSource,
    decode_series,
    encode_series,
    write_container,
)
from repro.core.storage.format import WINDOW_DIR_ENTRY
from repro.core.storage.writer import encode_window_block


def write_sample(path, series_by_rule, window_entries, shard_size=2):
    """Write a container from ``{rule_id: [entry, ...]}`` decoded series."""
    return write_container(
        path,
        meta={"counts": {"rules": len(series_by_rule)}},
        window_entries=window_entries,
        series=[
            (rule_id, encode_series(entries))
            for rule_id, entries in series_by_rule.items()
        ],
        shard_size=shard_size,
    )


SAMPLE_SERIES = {
    0: [(0, 3, 5, 4), (2, 1, 1, 1)],
    3: [(1, 2, 2, 9)],
    7: [(0, 1, 6, 1), (1, 4, 4, 5), (2, 2, 3, 2)],
    8: [],
    100: [(2, 7, 9, 8)],
}

SAMPLE_WINDOWS = [
    [(0, 3, 5, 4), (7, 1, 6, 1)],
    [(3, 2, 2, 9), (7, 4, 4, 5)],
    [(0, 1, 1, 1), (7, 2, 3, 2), (100, 7, 9, 8)],
]


@pytest.fixture
def sample_path(tmp_path):
    path = tmp_path / "kb.tara2"
    write_sample(path, SAMPLE_SERIES, SAMPLE_WINDOWS)
    return path


class TestRoundTrip:
    def test_series_decode_matches_input(self, sample_path):
        with ShardedSeriesSource(sample_path) as source:
            for rule_id, entries in SAMPLE_SERIES.items():
                assert source.series_entries(rule_id) == entries

    def test_encoded_bytes_identical(self, sample_path):
        with ShardedSeriesSource(sample_path) as source:
            for rule_id, entries in SAMPLE_SERIES.items():
                assert source.encoded_series(rule_id) == encode_series(entries)

    def test_window_blocks_roundtrip(self, sample_path):
        with ShardedSeriesSource(sample_path) as source:
            assert source.window_count == len(SAMPLE_WINDOWS)
            for window, expected in enumerate(SAMPLE_WINDOWS):
                assert source.window_entries(window) == expected

    def test_membership_and_iteration(self, sample_path):
        with ShardedSeriesSource(sample_path) as source:
            assert len(source) == len(SAMPLE_SERIES)
            assert list(source.rule_ids()) == sorted(SAMPLE_SERIES)
            assert 7 in source
            assert 1 not in source
            assert -3 not in source
            assert "7" not in source

    def test_unknown_rule_and_window_raise(self, sample_path):
        with ShardedSeriesSource(sample_path) as source:
            with pytest.raises(UnknownRuleError):
                source.encoded_series(4)
            with pytest.raises(UnknownRuleError):
                source.series_entries(4)
            with pytest.raises(UnknownWindowError):
                source.window_entries(3)
            with pytest.raises(UnknownWindowError):
                source.window_entries(-1)

    def test_single_rule_shards(self, tmp_path):
        path = tmp_path / "kb.tara2"
        summary = write_sample(
            path, SAMPLE_SERIES, SAMPLE_WINDOWS, shard_size=1
        )
        assert summary["shard_count"] == len(SAMPLE_SERIES)
        with ShardedSeriesSource(path) as source:
            for rule_id, entries in SAMPLE_SERIES.items():
                assert source.series_entries(rule_id) == entries

    def test_empty_container(self, tmp_path):
        path = tmp_path / "kb.tara2"
        write_sample(path, {}, [])
        with ShardedSeriesSource(path) as source:
            assert len(source) == 0
            assert list(source.rule_ids()) == []
            assert source.window_count == 0

    def test_shards_decode_lazily(self, sample_path):
        with ShardedSeriesSource(sample_path) as source:
            assert source.counters()["shards_decoded"] == 0
            source.series_entries(0)
            assert source.counters()["shards_decoded"] == 1

    def test_budget_bounds_decoded_cache(self, sample_path):
        # A budget big enough for roughly one decoded series forces
        # eviction traffic while every answer stays correct.
        with ShardedSeriesSource(sample_path, memory_budget=400) as source:
            for _ in range(3):
                for rule_id, entries in SAMPLE_SERIES.items():
                    assert source.series_entries(rule_id) == entries
            counters = source.counters()
            assert counters["cache_evictions"] > 0
            assert counters["cache_current_bytes"] <= 400

    def test_close_is_idempotent(self, sample_path):
        source = ShardedSeriesSource(sample_path)
        source.series_entries(0)
        source.close()
        source.close()

    def test_deterministic_writes(self, tmp_path):
        first = tmp_path / "a.tara2"
        second = tmp_path / "b.tara2"
        write_sample(first, SAMPLE_SERIES, SAMPLE_WINDOWS)
        write_sample(second, SAMPLE_SERIES, SAMPLE_WINDOWS)
        assert first.read_bytes() == second.read_bytes()


class TestWriterValidation:
    def test_rejects_nonpositive_shard_size(self, tmp_path):
        with pytest.raises(ValidationError):
            write_sample(tmp_path / "x", SAMPLE_SERIES, [], shard_size=0)

    def test_rejects_duplicate_rule_ids(self, tmp_path):
        with pytest.raises(ValidationError):
            write_container(
                tmp_path / "x",
                meta={},
                window_entries=[],
                series=[(1, b""), (1, b"")],
            )

    def test_rejects_negative_rule_ids(self, tmp_path):
        with pytest.raises(ValidationError):
            write_container(
                tmp_path / "x", meta={}, window_entries=[], series=[(-1, b"")]
            )

    def test_rejects_unsorted_window_entries(self, tmp_path):
        with pytest.raises(ValidationError):
            write_container(
                tmp_path / "x",
                meta={},
                window_entries=[[(5, 1, 1, 1), (2, 1, 1, 1)]],
                series=[],
            )

    def test_rejects_margins_below_rule_count(self, tmp_path):
        with pytest.raises(ValidationError):
            write_container(
                tmp_path / "x",
                meta={},
                window_entries=[[(0, 5, 3, 5)]],
                series=[],
            )


class TestCorruption:
    def test_not_a_container(self, tmp_path):
        path = tmp_path / "garbage"
        path.write_bytes(b"this is not a container at all")
        with pytest.raises(DataFormatError):
            ShardedSeriesSource(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        with pytest.raises(DataFormatError):
            ShardedSeriesSource(path)

    def test_magic_alone(self, tmp_path):
        path = tmp_path / "stub"
        path.write_bytes(MAGIC)
        with pytest.raises(DataFormatError):
            ShardedSeriesSource(path)

    def test_every_truncation_raises_data_format_error(self, sample_path):
        # Directory spans are validated eagerly against the file size,
        # so *every* proper prefix must be rejected at open — no
        # truncation may survive into a partially loaded container.
        payload = sample_path.read_bytes()
        truncated_path = sample_path.parent / "truncated"
        for length in range(len(payload)):
            truncated_path.write_bytes(payload[:length])
            with pytest.raises(DataFormatError):
                ShardedSeriesSource(truncated_path)

    def test_every_byte_flip_fails_loudly_or_stays_consistent(
        self, sample_path
    ):
        # Bit flips anywhere — header, meta JSON, directories, blocks —
        # must either surface as DataFormatError or leave a container
        # that reads back fully (a flip inside a count payload can be
        # indistinguishable from valid data; crashing with IndexError /
        # struct.error / KeyError is the bug this guards against).
        payload = bytearray(sample_path.read_bytes())
        flipped_path = sample_path.parent / "flipped"
        for position in range(len(payload)):
            corrupted = bytearray(payload)
            corrupted[position] ^= 0xFF
            flipped_path.write_bytes(bytes(corrupted))
            try:
                with ShardedSeriesSource(flipped_path) as source:
                    for rule_id in list(source.rule_ids()):
                        source.series_entries(rule_id)
                    for window in range(source.window_count):
                        source.window_entries(window)
            except DataFormatError:
                continue

    def test_corrupt_cause_is_chained(self, sample_path):
        # Flip a byte inside a series blob so the varint decoder chokes:
        # the reader must wrap the CodecError, preserving it as __cause__
        # for post-mortems (rule R003).
        payload = bytearray(sample_path.read_bytes())
        with ShardedSeriesSource(sample_path) as source:
            blob = source.encoded_series(7)
        position = payload.rindex(blob)
        # A lone continuation byte at the end of the blob truncates the
        # final varint.
        payload[position + len(blob) - 1] |= 0x80
        corrupt_path = sample_path.parent / "chained"
        corrupt_path.write_bytes(bytes(payload))
        with ShardedSeriesSource(corrupt_path) as source:
            with pytest.raises(DataFormatError) as excinfo:
                source.series_entries(7)
        assert isinstance(excinfo.value.__cause__, CodecError)


# ----------------------------------------------------------------------
# property-based round-trips over adversarial series shapes
# ----------------------------------------------------------------------
def _series_strategy():
    """Decoded series with window gaps and arbitrary valid counts."""

    def to_entries(raw):
        entries = []
        window = -1
        for gap, rule_count, extra in raw:
            window += 1 + gap  # arbitrary gaps, strictly increasing
            entries.append(
                (window, rule_count, rule_count + extra, rule_count + gap)
            )
        return entries

    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=300),
            st.integers(min_value=0, max_value=300),
        ),
        max_size=8,
    ).map(to_entries)


container_strategy = st.dictionaries(
    st.integers(min_value=0, max_value=10_000),
    _series_strategy(),
    max_size=12,
)


class TestContainerProperties:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(series_by_rule=container_strategy, shard_size=st.integers(1, 7))
    def test_roundtrip_is_exact(self, tmp_path, series_by_rule, shard_size):
        path = tmp_path / "prop.tara2"
        write_sample(path, series_by_rule, [], shard_size=shard_size)
        with ShardedSeriesSource(path) as source:
            assert list(source.rule_ids()) == sorted(series_by_rule)
            for rule_id, entries in series_by_rule.items():
                assert source.series_entries(rule_id) == entries
                assert source.encoded_series(rule_id) == encode_series(entries)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(series_by_rule=container_strategy)
    def test_writes_are_canonical(self, tmp_path, series_by_rule):
        # Same logical content in any iteration order -> identical bytes.
        first = tmp_path / "a.tara2"
        second = tmp_path / "b.tara2"
        write_sample(first, series_by_rule, [])
        write_sample(
            second,
            dict(sorted(series_by_rule.items(), reverse=True)),
            [],
        )
        assert first.read_bytes() == second.read_bytes()


# ----------------------------------------------------------------------
# the codecs' one-byte fast path at the varint length boundaries
# ----------------------------------------------------------------------
#: Unsigned values on both sides of the one- and two-byte boundaries.
BOUNDARY_VALUES = (0, 1, 127, 128, 16383, 16384)
#: Signed deltas on both sides of the one-byte zigzag boundary.
BOUNDARY_DELTAS = (-65, -64, -1, 0, 1, 63, 64, 8191, -8193)


def reference_series_bytes(series):
    """The series encoding written with the varint module alone."""
    out = bytearray()
    previous = (-1, 0, 0, 0)
    for window, rule_count, antecedent_count, consequent_count in series:
        current = (
            window,
            rule_count,
            antecedent_count - rule_count,
            consequent_count - rule_count,
        )
        encode_uvarint(current[0] - previous[0], out)
        for value, before in zip(current[1:], previous[1:]):
            encode_svarint(value - before, out)
        previous = current
    return bytes(out)


def reference_block_bytes(rows):
    """The window-block encoding written with the varint module alone."""
    out = bytearray()
    encode_uvarint(len(rows), out)
    previous_rule_id = -1
    for rule_id, rule_count, antecedent_count, consequent_count in rows:
        for value in (
            rule_id - previous_rule_id,
            rule_count,
            antecedent_count - rule_count,
            consequent_count - rule_count,
        ):
            encode_uvarint(value, out)
        previous_rule_id = rule_id
    return bytes(out)


def boundary_series():
    """A series whose window gaps and count deltas hit every boundary."""
    series = []
    window = -1
    rule_count = margin = consequent_margin = 20_000
    for step, gap in enumerate(BOUNDARY_VALUES[1:]):
        window += gap
        delta = BOUNDARY_DELTAS[step % len(BOUNDARY_DELTAS)]
        rule_count += delta
        margin -= delta
        consequent_margin += BOUNDARY_DELTAS[-1 - step % len(BOUNDARY_DELTAS)]
        series.append(
            (window, rule_count, rule_count + margin, rule_count + consequent_margin)
        )
    # Each signed delta once more, in every field, after a one-window gap.
    for delta in BOUNDARY_DELTAS:
        window += 1
        rule_count += delta
        margin += delta
        consequent_margin -= delta
        series.append(
            (window, rule_count, rule_count + margin, rule_count + consequent_margin)
        )
    return series


def boundary_rows():
    """Window-block rows whose gaps, counts and margins hit every boundary."""
    rows = []
    rule_id = -1
    for index, value in enumerate(BOUNDARY_VALUES):
        rule_id += max(value, 1)
        other = BOUNDARY_VALUES[-1 - index]
        rows.append((rule_id, value, value + other, value + BOUNDARY_VALUES[index - 2]))
    return rows


class TestOneByteBoundaries:
    def test_series_bytes_equal_the_varint_module(self):
        series = boundary_series()
        blob = encode_series(series)
        assert blob == reference_series_bytes(series)
        assert decode_series(blob) == series

    @pytest.mark.parametrize("delta", BOUNDARY_DELTAS)
    @pytest.mark.parametrize("gap", BOUNDARY_VALUES[1:])
    def test_single_step_round_trips(self, gap, delta):
        def entry(window, rule_count, margin, consequent_margin):
            return (
                window,
                rule_count,
                rule_count + margin,
                rule_count + consequent_margin,
            )

        base = 70_000
        series = [
            entry(gap - 1, base, base, base),
            entry(2 * gap - 1, base + delta, base + delta, base - delta),
        ]
        blob = encode_series(series)
        assert blob == reference_series_bytes(series)
        assert decode_series(blob) == series

    def test_block_bytes_equal_the_varint_module(self, tmp_path):
        rows = boundary_rows()
        assert encode_window_block(rows) == reference_block_bytes(rows)
        path = tmp_path / "boundary.tara2"
        write_container(path, meta={}, window_entries=[rows], series=[])
        with ShardedSeriesSource(path) as source:
            assert source.window_entries(0) == rows

    def test_every_series_prefix_decodes_or_raises_codec_error(self):
        blob = encode_series(boundary_series())
        for length in range(len(blob)):
            try:
                decoded = decode_series(blob[:length])
            except CodecError:
                continue
            assert decoded == decode_series(blob)[: len(decoded)]

    def test_every_block_truncation_raises_data_format_error(self, tmp_path):
        rows = boundary_rows()
        path = tmp_path / "boundary.tara2"
        write_container(path, meta={}, window_entries=[rows], series=[])
        payload = path.read_bytes()
        block = encode_window_block(rows)
        start = payload.index(block)
        with ShardedSeriesSource(path) as source:
            offset, length = source._window_dir[0]
        assert (offset, length) == (start, len(block))
        # Shorten the block in the window directory: the reader must
        # reject every cut, inside a varint or between entries.  (An
        # empty block is a valid block of no entries.)
        truncated_path = tmp_path / "cut.tara2"
        directory_entry = WINDOW_DIR_ENTRY.pack(offset, length)
        for cut in range(1, length):
            truncated_path.write_bytes(
                payload.replace(directory_entry, WINDOW_DIR_ENTRY.pack(offset, cut), 1)
            )
            with ShardedSeriesSource(truncated_path) as source:
                with pytest.raises(DataFormatError):
                    source.window_entries(0)

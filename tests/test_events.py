from dataclasses import replace

import numpy as np
import pytest

from sparsnn.bench import ARCH_PRESETS, network_spec_for
from sparsnn.errors import ConfigError, DataFormatError
from sparsnn.events import (
    MAX_CHANNELS,
    EventStream,
    SpikeDataset,
    bin_events,
    load_dataset,
    load_events,
    sparse_hidden_size,
    synth_pattern_dataset,
    write_dataset,
    write_events,
)


def stream(times, chans, n=8, label=1):
    return EventStream(
        times_us=np.array(times, dtype=np.uint32),
        channels=np.array(chans, dtype=np.uint32),
        num_channels=n,
        label=label,
    )


class TestEsfFormat:
    def test_round_trip_identity(self, tmp_path):
        s = stream([5, 1, 1999, 42], [3, 0, 7, 3])
        path = tmp_path / "a.esf"
        write_events(s, path)
        back = load_events(path)
        assert np.array_equal(back.times_us, sorted([5, 1, 1999, 42]))
        assert back.num_channels == 8
        assert back.label == 1
        # bytes are stable: writing the loaded stream reproduces the file
        path2 = tmp_path / "b.esf"
        write_events(back, path2)
        assert path2.read_bytes() == path.read_bytes()

    def test_empty_stream_valid(self, tmp_path):
        s = stream([], [])
        path = tmp_path / "empty.esf"
        write_events(s, path)
        back = load_events(path)
        assert back.num_events == 0
        assert not bin_events(back, 4, 1000).any()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.esf"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 12)
        with pytest.raises(DataFormatError):
            load_events(path)

    def test_truncated(self, tmp_path):
        s = stream([1, 2], [0, 1])
        path = tmp_path / "trunc.esf"
        write_events(s, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(DataFormatError):
            load_events(path)

    def test_channel_overflow(self, tmp_path):
        path = tmp_path / "ch.esf"
        import struct

        payload = b"ESFv0001" + struct.pack("<III", 4, 1, 0)
        payload += struct.pack("<II", 10, 9)  # channel 9 >= 4
        path.write_bytes(payload)
        with pytest.raises(DataFormatError):
            load_events(path)

    def test_channel_count_is_bounded(self, tmp_path):
        assert stream([], [], n=MAX_CHANNELS).num_channels == MAX_CHANNELS
        assert MAX_CHANNELS >= max(p.layer_sizes[0] for p in ARCH_PRESETS.values())
        with pytest.raises(DataFormatError, match="channels exceed"):
            EventStream([], [], num_channels=2**31, label=0)
        path = tmp_path / "a.esf"
        write_events(stream([5, 1], [3, 0]), path)
        raw = bytearray(path.read_bytes())
        raw[11] ^= 0x80  # bit 31 of the little-endian num_channels at bytes 8..11
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="2147483656 channels exceed"):
            load_events(path)


# Byte range of each part of a three-event ESF file, and what load_events
# may make of a file with one bit of that part flipped.
ESF_PARTS = {
    "magic": (0, 8, {"error"}),
    "num_channels": (8, 12, {"error", "clean"}),  # fewer channels than used
    "num_events": (12, 16, {"error"}),
    "label": (16, 20, {"clean"}),
    "records": (20, 44, {"error", "clean"}),  # a channel out of range
}


def load_outcome(path):
    """"error" for a DataFormatError, "clean" for a stream that keeps the
    EventStream invariants; anything else propagates."""
    try:
        s = load_events(path)
    except DataFormatError:
        return "error"
    assert s.times_us.size == s.channels.size == s.num_events
    assert np.all(np.diff(s.times_us.astype(np.int64)) >= 0)
    assert np.all(s.channels < s.num_channels)
    return "clean"


class TestEsfCorruption:
    """Truncated, extended and bit-flipped files. Only load_events runs: a
    flipped channel count can name 2**31 channels, which binning would
    allocate for every timestep."""

    @pytest.fixture
    def esf(self, tmp_path):
        path = tmp_path / "s.esf"
        write_events(stream([5, 1, 1999], [3, 0, 7]), path)
        return path, path.read_bytes()

    def test_every_truncation_and_extension_is_a_format_error(self, esf):
        path, raw = esf
        assert len(raw) == 44
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            assert load_outcome(path) == "error", cut
        for extra in (b"\0", b"\0" * 4, raw[20:28], raw[20:28] + b"\0"):
            path.write_bytes(raw + extra)
            assert load_outcome(path) == "error", extra

    @pytest.mark.parametrize("part", list(ESF_PARTS))
    def test_every_bit_flip_is_a_format_error_or_a_clean_load(self, esf, part):
        path, raw = esf
        lo, hi, allowed = ESF_PARTS[part]
        outcomes = set()
        for bit in range(8 * lo, 8 * hi):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(flipped))
            outcomes.add(load_outcome(path))
        assert outcomes == allowed


class TestBinning:
    def test_single_event(self):
        frames = bin_events(stream([0], [2]), 4, 1000)
        assert frames.dtype == bool
        assert frames[0, 2] == 1.0
        assert frames.sum() == 1.0

    def test_same_bin_stays_binary(self):
        frames = bin_events(stream([10, 20], [2, 2]), 4, 1000)
        assert frames[0, 2] == 1.0
        assert frames.sum() == 1.0

    def test_boundary_event_dropped(self):
        frames = bin_events(stream([4000], [1]), 4, 1000)
        assert not frames.any()

    def test_monotone_adding_events(self):
        a = bin_events(stream([100, 2100], [0, 1]), 4, 1000)
        b = bin_events(stream([100, 2100, 3100], [0, 1, 5]), 4, 1000)
        assert np.all(b >= a)

    def test_dataset_frames_are_one_byte_per_bin_and_channel(self):
        streams = synth_pattern_dataset(3, 8, 2, 5, 0.1, seed=4)
        ds = SpikeDataset.from_streams(streams, num_timesteps=5)
        assert ds.frames.dtype == bool
        assert ds.frames.nbytes == len(streams) * 5 * 8


class TestSparseHiddenSize:
    def test_published_values(self):
        assert sparse_hidden_size(0.05, 974) == 48
        assert sparse_hidden_size(1.0, 10) == 10
        assert sparse_hidden_size(0.001, 100) == 2

    def test_always_even_and_at_least_two(self):
        rng = np.random.default_rng(0)
        for _ in range(10000):
            a = float(rng.uniform(1e-4, 1.0))
            n = int(rng.integers(2, 5000))
            out = sparse_hidden_size(a, n)
            assert out % 2 == 0
            assert 2 <= out <= max(2, n)

    def test_dataset_presets_match_published_table(self):
        shd = ARCH_PRESETS["shd-2944"]
        assert (shd.layer_sizes[0], shd.input_capacity, shd.layer_sizes[-1]) == (700, 48, 20)

    @pytest.mark.parametrize("capacity", [0, 3, 702])
    def test_dataset_input_capacity_follows_the_capacity_rule(self, capacity):
        # Even, >= 2 and at most the input width, as every capacity.
        arch = replace(ARCH_PRESETS["shd-2944"], input_capacity=capacity)
        with pytest.raises(ConfigError):
            network_spec_for(arch, 0.05, 48, 10)


class TestSynthDataset:
    def test_zero_noise_samples_identical_within_class(self):
        streams = synth_pattern_dataset(3, 16, 4, 5, noise_rate=0.0, seed=1)
        by_class = {}
        for s in streams:
            by_class.setdefault(s.label, []).append(s)
        for group in by_class.values():
            first = group[0]
            for other in group[1:]:
                assert np.array_equal(first.times_us, other.times_us)
                assert np.array_equal(first.channels, other.channels)

    def test_different_seeds_different_templates(self):
        a = synth_pattern_dataset(2, 16, 1, 5, 0.0, seed=1)
        b = synth_pattern_dataset(2, 16, 1, 5, 0.0, seed=2)
        assert not (
            np.array_equal(a[0].times_us, b[0].times_us)
            and np.array_equal(a[0].channels, b[0].channels)
        )

    def test_nearest_template_classifier_perfect_at_zero_noise(self):
        T, n = 6, 24
        streams = synth_pattern_dataset(4, n, 3, T, 0.0, seed=3)
        templates = {}
        for s in streams:
            if s.label not in templates:
                templates[s.label] = bin_events(s, T, 1000)
        correct = 0
        for s in streams:
            frame = bin_events(s, T, 1000)
            dists = {
                c: np.count_nonzero(frame != tpl) for c, tpl in templates.items()
            }
            correct += min(dists, key=dists.get) == s.label
        assert correct == len(streams)

    def test_deterministic_per_seed(self):
        a = synth_pattern_dataset(2, 16, 2, 5, 0.3, seed=9)
        b = synth_pattern_dataset(2, 16, 2, 5, 0.3, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x.times_us, y.times_us)
            assert np.array_equal(x.channels, y.channels)


class TestDatasetIo:
    def test_write_load_round_trip(self, tmp_path):
        streams = synth_pattern_dataset(2, 8, 2, 4, 0.1, seed=5)
        manifest = write_dataset(streams, tmp_path / "ds")
        back = load_dataset(manifest)
        assert len(back) == len(streams)
        for a, b in zip(streams, back):
            assert a.label == b.label
            assert np.array_equal(a.times_us, b.times_us)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_dataset(tmp_path / "nope.csv")

    def test_spike_dataset_batches(self):
        streams = synth_pattern_dataset(2, 8, 4, 4, 0.0, seed=6)
        ds = SpikeDataset.from_streams(streams, num_timesteps=4)
        batches = list(ds.minibatches(3, None))
        assert len(batches) == len(streams) // 3
        frames, labels = batches[0]
        assert frames.shape == (3, 4, 8)

    def test_split_deterministic(self):
        streams = synth_pattern_dataset(2, 8, 10, 4, 0.0, seed=7)
        ds = SpikeDataset.from_streams(streams, num_timesteps=4)
        a1, b1 = ds.split(0.8, seed=1)
        a2, b2 = ds.split(0.8, seed=1)
        assert np.array_equal(a1.labels, a2.labels)
        assert len(a1) == 16 and len(b1) == 4

"""Event streams: binary file format, binning, synthetic generators.

The on-disk format (ESF) is deliberately tiny and bit-exact:

    8 bytes   magic "ESFv0001"
    4 bytes   uint32 LE  num_channels, at most MAX_CHANNELS (1 << 16)
    4 bytes   uint32 LE  num_events
    4 bytes   uint32 LE  label
    then num_events records of (uint32 LE timestamp_us, uint32 LE channel)

The channel bound keeps a corrupt count from sizing the (T, num_channels)
frames that binning allocates; the widest preset, shd-2944, has 700
channels. MAX_TIMESTEPS bounds T the same way for the command line: SHD's
~1 s samples are ~1000 bins at the default 1 ms width, and 4096 bins
leave four times that.

Generated datasets are one ESF file per sample plus a manifest CSV with
columns (path, label). Binned frames are bool, one byte per (bin,
channel): a spike is a float only inside an operation.
"""

from __future__ import annotations

import csv
import io
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError

ESF_MAGIC = b"ESFv0001"
MAX_CHANNELS = 1 << 16
MAX_TIMESTEPS = 1 << 12
BIN_WIDTH_US = 1000  # default bin width; synthetic events sit mid-bin


@dataclass
class EventStream:
    """Timestamped (time_us, channel) events for one sample."""

    times_us: np.ndarray
    channels: np.ndarray
    num_channels: int
    label: int

    def __post_init__(self):
        self.times_us = np.asarray(self.times_us, dtype=np.uint32)
        self.channels = np.asarray(self.channels, dtype=np.uint32)
        if self.times_us.shape != self.channels.shape:
            raise DataFormatError("times and channels lengths differ")
        if self.num_channels > MAX_CHANNELS:
            raise DataFormatError(
                f"{self.num_channels} channels exceed the format's {MAX_CHANNELS}"
            )
        if self.times_us.size and np.any(self.channels >= self.num_channels):
            raise DataFormatError("channel index out of range")
        if self.times_us.size:
            order = np.argsort(self.times_us, kind="stable")
            self.times_us = self.times_us[order]
            self.channels = self.channels[order]

    @property
    def num_events(self) -> int:
        return int(self.times_us.size)


def sparse_hidden_size(max_activity: float, dense_size: int) -> int:
    """Even spike-tensor capacity for a layer of `dense_size` neurons at
    the given maximal activity; never below 2."""
    if dense_size < 2:
        raise ConfigError(f"dense size must be >= 2, got {dense_size}")
    if not 0.0 < max_activity <= 1.0:
        raise ConfigError(f"max activity must be in (0, 1], got {max_activity}")
    return max(2, int(max_activity * dense_size // 2) * 2)


def write_events(stream: EventStream, path) -> None:
    with open(path, "wb") as f:
        f.write(ESF_MAGIC)
        f.write(
            struct.pack(
                "<III", stream.num_channels, stream.num_events, stream.label
            )
        )
        if stream.num_events:
            rec = np.empty((stream.num_events, 2), dtype="<u4")
            rec[:, 0] = stream.times_us
            rec[:, 1] = stream.channels
            f.write(rec.tobytes())


def load_events(path) -> EventStream:
    """Parse an ESF file; malformed input raises DataFormatError."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:8] != ESF_MAGIC:
        raise DataFormatError(f"{path}: bad magic {raw[:8]!r}")
    if len(raw) < 20:
        raise DataFormatError(f"{path}: truncated header")
    num_channels, num_events, label = struct.unpack("<III", raw[8:20])
    expect = 20 + 8 * num_events
    if len(raw) != expect:
        raise DataFormatError(f"{path}: expected {expect} bytes, found {len(raw)}")
    rec = np.frombuffer(raw[20:], dtype="<u4").reshape(num_events, 2)
    return EventStream(
        times_us=rec[:, 0].astype(np.uint32),
        channels=rec[:, 1].astype(np.uint32),
        num_channels=num_channels,
        label=label,
    )


def bin_events(
    stream: EventStream, num_timesteps: int, bin_width_us: int
) -> np.ndarray:
    """Bool (T, num_channels) frames: bin t is True at channel c iff some
    event fell in [t*width, (t+1)*width). Events at or past T*width drop."""
    if bin_width_us <= 0:
        raise ConfigError("bin width must be positive")
    if num_timesteps < 1:
        raise ConfigError(f"need at least one timestep, got {num_timesteps}")
    frames = np.zeros((num_timesteps, stream.num_channels), dtype=bool)
    if stream.num_events:
        idx = stream.times_us // np.uint32(bin_width_us)
        keep = idx < num_timesteps
        frames[idx[keep].astype(np.int64), stream.channels[keep].astype(np.int64)] = True
    return frames


def synth_pattern_dataset(
    num_classes: int,
    input_size: int,
    samples_per_class: int,
    num_timesteps: int,
    noise_rate: float,
    seed: int,
    template_density: float = 0.05,
) -> list:
    """Class-templated event streams with Poisson noise.

    Each class gets a fixed random spatio-temporal template of roughly
    `template_density * input_size` events per timestep (placed mid-bin);
    a sample is the template plus Poisson(noise_rate * input_size * T)
    extra events at uniform positions. Everything derives from `seed`.
    Both rates are at most 1 event per channel and bin, all a frame holds.
    """
    if min(num_classes, input_size, samples_per_class, num_timesteps) < 1:
        raise ConfigError("dataset parameters must be positive")
    for name, value in (("noise rate", noise_rate), ("template density", template_density)):
        if not (np.isfinite(value) and value >= 0):
            raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if value > 1:
            raise ConfigError(f"{name} must be <= 1 event per channel and bin, got {value}")
    rng = np.random.default_rng(seed)
    n_template = max(1, int(round(template_density * input_size * num_timesteps)))
    templates = []
    for _ in range(num_classes):
        steps = rng.integers(0, num_timesteps, size=n_template)
        chans = rng.integers(0, input_size, size=n_template)
        templates.append((steps, chans))
    streams = []
    for label in range(num_classes):
        t_steps, t_chans = templates[label]
        for _ in range(samples_per_class):
            n_noise = int(rng.poisson(noise_rate * input_size * num_timesteps))
            steps = np.concatenate(
                [t_steps, rng.integers(0, num_timesteps, size=n_noise)]
            )
            chans = np.concatenate(
                [t_chans, rng.integers(0, input_size, size=n_noise)]
            )
            streams.append(
                EventStream(
                    times_us=(steps * BIN_WIDTH_US + BIN_WIDTH_US // 2).astype(np.uint32),
                    channels=chans.astype(np.uint32),
                    num_channels=input_size,
                    label=label,
                )
            )
    return streams


def write_dataset(streams: list, out_dir) -> Path:
    """One ESF file per sample plus manifest.csv; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "manifest.csv"
    with open(manifest, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["path", "label"])
        for k, stream in enumerate(streams):
            name = f"sample_{k:05d}.esf"
            write_events(stream, out_dir / name)
            writer.writerow([name, stream.label])
    return manifest


def load_dataset(manifest_path) -> list:
    """Read every ESF file named by a manifest CSV. A manifest that is not
    UTF-8 or lists no sample, and a row that names no readable file, whose
    label is not an integer or not the file's, or whose file's channel
    count differs from the first file's, raise DataFormatError naming the
    manifest (and the row's line)."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise DataFormatError(f"manifest not found: {manifest_path}")
    try:
        text = manifest_path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{manifest_path}: not UTF-8 text: {exc.reason}") from None
    streams = []
    reader = csv.DictReader(io.StringIO(text, newline=""))
    if reader.fieldnames != ["path", "label"]:
        raise DataFormatError(f"{manifest_path}: expected columns path,label")
    for rec in reader:
        where = f"{manifest_path} line {reader.line_num}"
        try:
            label = int(rec["label"])
        except (TypeError, ValueError):
            raise DataFormatError(
                f"{where}: label {rec['label']!r} is not an integer"
            ) from None
        try:
            stream = load_events(manifest_path.parent / (rec["path"] or ""))
        except OSError as exc:
            raise DataFormatError(
                f"{where}: cannot read ESF file {rec['path']!r}: {exc.strerror}"
            ) from None
        if stream.label != label:
            raise DataFormatError(f"{where}: {rec['path']}: label mismatch vs manifest")
        if streams and stream.num_channels != streams[0].num_channels:
            raise DataFormatError(
                f"{where}: {rec['path']} has {stream.num_channels} channels, "
                f"the first file {streams[0].num_channels}"
            )
        streams.append(stream)
    if not streams:
        raise DataFormatError(f"{manifest_path}: lists no samples")
    return streams


@dataclass
class SpikeDataset:
    """Pre-binned samples ready for the training engine."""

    frames: np.ndarray  # (N, T, input_size) bool
    labels: np.ndarray  # (N,) int64

    @classmethod
    def from_streams(
        cls, streams: list, num_timesteps: int, bin_width_us: int = BIN_WIDTH_US
    ) -> "SpikeDataset":
        frames = np.stack(
            [bin_events(s, num_timesteps, bin_width_us) for s in streams]
        )
        labels = np.array([s.label for s in streams], dtype=np.int64)
        return cls(frames=frames, labels=labels)

    def __len__(self) -> int:
        return len(self.labels)

    def minibatches(self, batch_size: int, order_rng=None):
        """Yield (frames, labels) batches; a trailing partial batch is
        dropped so every batch matches the configured size."""
        order = np.arange(len(self.labels))
        if order_rng is not None:
            order_rng.shuffle(order)
        for start in range(0, len(order) - batch_size + 1, batch_size):
            sel = order[start : start + batch_size]
            yield self.frames[sel], self.labels[sel]

    def split(self, train_fraction: float, seed: int):
        """Deterministic stratified-ish split into (train, test)."""
        rng = np.random.default_rng((seed, 0x5B17))
        order = np.arange(len(self.labels))
        rng.shuffle(order)
        cut = int(round(train_fraction * len(order)))
        a, b = order[:cut], order[cut:]
        return (
            SpikeDataset(self.frames[a], self.labels[a]),
            SpikeDataset(self.frames[b], self.labels[b]),
        )

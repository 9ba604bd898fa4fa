"""Benchmark protocol: fixed/natural activity runs, sparsity sweeps,
single-chip scale-up and weak scaling, CSV emission.

Two activity regimes bracket the throughput of the sparse path:

  fixed_activity    every hidden neuron is forced above threshold, so
                    every spike tensor saturates at its capacity; the
                    throughput lower bound for a given max_activity.
  natural_activity  the dynamics run free on the dataset; realized
                    activity is usually far below capacity, so this
                    approximates the upper bound.

Wall-clock numbers time this package's own dense path against its sparse
path on the local host (forward + backward + update per batch, first
repetition discarded); modeled numbers come from the tile-machine cost
ledger. The two are reported side by side and never mixed.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .engine import DENSE, SPARSE, forward_pass, train_step
from .errors import ConfigError, OutOfTileMemory
from .events import (
    DATASET_PRESETS,
    DatasetSpec,
    SpikeDataset,
    sparse_hidden_size,
    synth_pattern_dataset,
)
from .lif import NetworkSpec
from .machine import (
    MachineSpec,
    acceleration_model,
    map_neurons,
    saturated_activity,
    simulate_batch,
    weak_scale_run,
)
from .model import init_network
from .optim import make_optimizer
from .rng import DropRng

FIXED = "fixed_activity"
NATURAL = "natural_activity"
WARMUP_DISCARD = 1
OPTIMIZER, LR = "sgd", 1e-3
# Poisson noise events per input channel and timestep of the bench data.
NOISE_RATE = 0.01


@dataclass(frozen=True)
class ArchPreset:
    dataset: DatasetSpec
    layer_sizes: tuple


ARCH_PRESETS = {
    # 2 neurons/tile network used throughout the sparsity experiments.
    "shd-2944": ArchPreset(DATASET_PRESETS["shd"], (700, 974, 974, 974, 20)),
    # desk-scale preset for smoke tests and examples
    "tiny": ArchPreset(DatasetSpec(32, 8, 4), (32, 64, 64, 4)),
}

# Single-chip scale-up table: neurons per tile -> layer sizes.
SCALEUP_SHD = {
    2: (700, 974, 974, 974, 20),
    4: (700,) + (980,) * 2 + (976,) * 4 + (20,),
    8: (700,) + (984,) * 4 + (976,) * 8 + (20,),
    16: (700,) + (992,) * 5 + (976,) * 19 + (20,),
}


@dataclass
class BenchConfig:
    mode: str = FIXED
    max_activity: float = 0.05
    preset: str = "shd-2944"
    batch_size: int = 48
    num_timesteps: int = 10
    repetitions: int = 2
    seed: int = 42
    neurons_per_tile: int = 2
    machine: MachineSpec = field(default_factory=MachineSpec)

    def __post_init__(self):
        if self.mode not in (FIXED, NATURAL):
            raise ConfigError(f"unknown bench mode {self.mode!r}")
        if not 0.0 < self.max_activity <= 1.0:
            raise ConfigError("max_activity must be in (0, 1]")
        if self.repetitions <= WARMUP_DISCARD:
            raise ConfigError("need at least one repetition after warmup")
        if self.preset not in ARCH_PRESETS:
            raise ConfigError(
                f"unknown preset {self.preset!r}; have {sorted(ARCH_PRESETS)}"
            )


@dataclass
class BenchResult:
    """One configuration's timings and model.

    hidden_spikes: mean spikes per batch row and timestep of each hidden
        layer, in the probe forward pass that feeds the ledger.
    """

    config: BenchConfig
    measured_accel: float
    modeled_accel: float
    frames_per_sec: float
    hidden_spikes: tuple

    @property
    def valid(self) -> bool:
        """False when a hidden layer stayed silent: the run then prices a
        network that moves no spikes, not the configured activity."""
        return all(s > 0 for s in self.hidden_spikes)


def network_spec_for(config: BenchConfig, arch: ArchPreset | None = None) -> NetworkSpec:
    """The network of `arch` (default: the configured preset) with its
    dataset's input capacity and every hidden capacity at
    `config.max_activity`."""
    arch = arch or ARCH_PRESETS[config.preset]
    layers = arch.layer_sizes
    sparse = [arch.dataset.sparse_input_size] + [
        sparse_hidden_size(config.max_activity, n) for n in layers[1:-1]
    ]
    return NetworkSpec(
        layer_sizes=layers,
        sparse_sizes=sparse,
        batch_size=config.batch_size,
        num_timesteps=config.num_timesteps,
    )


def bench_dataset(config: BenchConfig) -> SpikeDataset:
    preset = ARCH_PRESETS[config.preset]
    per_class = -(-config.batch_size // preset.dataset.num_classes)
    streams = synth_pattern_dataset(
        preset.dataset.num_classes,
        preset.dataset.input_size,
        per_class,
        config.num_timesteps,
        noise_rate=NOISE_RATE,
        seed=config.seed + 1,
    )
    ds = SpikeDataset.from_streams(streams, config.num_timesteps)
    return SpikeDataset(
        frames=ds.frames[: config.batch_size], labels=ds.labels[: config.batch_size]
    )


def collect_activity(spec: NetworkSpec, trace) -> tuple:
    """(spike counts, retained-entry counts) per (t, layer) averaged over
    the batch, from a sparse-mode trace. Column 0 is the input layer."""
    shape = (spec.num_timesteps, len(spec.layer_sizes))
    act, grad = np.zeros(shape), np.zeros(shape)
    for k, payloads in enumerate(trace.sent):
        act[:, k] = [b.num_spikes.mean() for b in payloads]
        grad[:, k] = [b.num_grads.mean() for b in payloads]
    return act, grad


def _timed_steps(net, frames, labels, opt, mode, config, force) -> list:
    times = []
    stride = net.spec.num_timesteps * net.spec.num_weight_layers
    for rep in range(config.repetitions):
        rng = DropRng(config.seed, (2 + rep) * (1 << 21) * stride)
        start = time.perf_counter()
        train_step(
            net,
            frames,
            labels,
            opt,
            mode,
            rng if mode == SPARSE else None,
            force_spikes=force,
        )
        times.append(time.perf_counter() - start)
    return times[WARMUP_DISCARD:]


def run_benchmark(config: BenchConfig) -> BenchResult:
    """Time and model one configuration; see the module docstring."""
    spec = network_spec_for(config)
    dataset = bench_dataset(config)
    frames, labels = next(dataset.minibatches(config.batch_size, None))
    force = config.mode == FIXED

    dense_net = init_network(spec, seed=config.seed)
    sparse_net = init_network(spec, seed=config.seed)
    opt_d = make_optimizer(OPTIMIZER, LR)
    opt_s = make_optimizer(OPTIMIZER, LR)

    dense_times = _timed_steps(dense_net, frames, labels, opt_d, DENSE, config, force)
    sparse_times = _timed_steps(
        sparse_net, frames, labels, opt_s, SPARSE, config, force
    )

    probe_net = init_network(spec, seed=config.seed)
    trace, _ = forward_pass(
        probe_net,
        frames,
        mode=SPARSE,
        rng=DropRng(config.seed, 0),
        force_spikes=force,
    )
    act, grad = collect_activity(spec, trace)

    mapping = map_neurons(spec, config.machine, config.neurons_per_tile)
    sparse_ledger = simulate_batch(
        spec, mapping, config.machine, act, mode="sparse", grad_activity=grad
    )
    dense_ledger = simulate_batch(spec, mapping, config.machine, None, mode="dense")
    modeled = acceleration_model(dense_ledger, sparse_ledger)

    dense_mean = float(np.mean(dense_times))
    sparse_mean = float(np.mean(sparse_times))
    return BenchResult(
        config=config,
        measured_accel=dense_mean / sparse_mean,
        modeled_accel=modeled,
        frames_per_sec=config.batch_size * config.num_timesteps / sparse_mean,
        hidden_spikes=tuple(act[:, 1 : spec.num_weight_layers].mean(axis=0).tolist()),
    )


SPARSITY_COLUMNS = (
    "mode",
    "max_activity",
    "communication_sparsity",
    "measured_accel",
    "modeled_accel",
    "frames_per_sec",
    "valid",
)


def sparsity_sweep(config: BenchConfig, activity_grid) -> list:
    """One row per (mode, max_activity); communication sparsity is
    1 - max_activity by definition. A row whose hidden layers include a
    silent one has `valid` False and measures no sparse speedup."""
    rows = []
    for mode in (FIXED, NATURAL):
        for a in activity_grid:
            if not 0.0 < a <= 1.0:
                raise ConfigError(f"activity {a} outside (0, 1]")
            result = run_benchmark(replace(config, mode=mode, max_activity=float(a)))
            rows.append(
                {
                    "mode": mode,
                    "max_activity": a,
                    "communication_sparsity": 1.0 - a,
                    "measured_accel": result.measured_accel,
                    "modeled_accel": result.modeled_accel,
                    "frames_per_sec": result.frames_per_sec,
                    "valid": result.valid,
                }
            )
    return rows


def scaleup_sweep(config: BenchConfig, per_tile_grid) -> list:
    """Modeled acceleration for the published per-tile scale-up
    architectures; memory failures become recorded cells, not crashes."""
    rows = []
    for npt in per_tile_grid:
        if npt not in SCALEUP_SHD:
            raise ConfigError(f"no scale-up architecture for {npt} neurons/tile")
        layers = SCALEUP_SHD[npt]
        spec = network_spec_for(config, ArchPreset(DATASET_PRESETS["shd"], layers))
        row = {
            "neurons_per_tile": npt,
            "status": "ok",
            "modeled_accel": "",
            "total_neurons": sum(layers[1:]),
        }
        try:
            mapping = map_neurons(spec, config.machine, npt)
        except OutOfTileMemory as err:
            row["status"] = f"out-of-tile-memory:{err.needed}"
            rows.append(row)
            continue
        act = saturated_activity(spec)
        sparse_ledger = simulate_batch(spec, mapping, config.machine, act)
        dense_ledger = simulate_batch(spec, mapping, config.machine, None, mode="dense")
        row["modeled_accel"] = acceleration_model(dense_ledger, sparse_ledger)
        rows.append(row)
    return rows


def weak_scaling_sweep(
    config: BenchConfig, chip_grid, batch_grid, per_tile_grid
) -> list:
    """Modeled slowdown for every (chips, batch, neurons/tile) point; the
    per-chip network is the configured preset."""
    rows = []
    for k in chip_grid:
        machine = replace(config.machine, num_chips=int(k))
        for batch in batch_grid:
            spec = network_spec_for(replace(config, batch_size=batch))
            for npt in per_tile_grid:
                slowdown = weak_scale_run(spec, machine, neurons_per_tile=npt)
                rows.append(
                    {
                        "chips": int(k),
                        "batch_size": batch,
                        "neurons_per_tile": npt,
                        "slowdown": slowdown,
                    }
                )
    return rows


def write_rows_csv(rows: list, path, columns=None) -> None:
    """One CSV line per row dict, floats as repr. With explicit `columns`
    an empty `rows` writes the header alone."""
    if columns is None:
        if not rows:
            raise ConfigError("no rows to write")
        columns = rows[0].keys()
    columns = list(columns)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row[k]) for k in columns})


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return value

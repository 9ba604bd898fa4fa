"""Benchmark protocol: fixed/natural activity runs, sparsity sweeps,
single-chip scale-up and weak scaling, CSV emission.

Two activity regimes set the activity the cost ledger prices:

  fixed_activity    every hidden neuron is forced above threshold, so
                    every spike tensor saturates at its capacity; the
                    most work a given max_activity allows.
  natural_activity  the dynamics run free on the dataset; realized
                    activity is usually far below capacity.

Every figure here is modeled by the tile-machine cost ledger; wall-clock
time is measured by perfbench, not here."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .engine import SPARSE, forward_pass
from .errors import ConfigError, OutOfTileMemory
from .events import SpikeDataset, sparse_hidden_size, synth_pattern_dataset
from .lif import NetworkSpec
from .machine import (
    MachineSpec,
    acceleration_model,
    chained_spec,
    map_neurons,
    saturated_activity,
    simulate_batch,
    weak_scale_run,
)
from .model import init_network
from .rng import DropRng

FIXED = "fixed_activity"
NATURAL = "natural_activity"
# Poisson noise events per input channel and timestep of the bench data.
NOISE_RATE = 0.01


@dataclass(frozen=True)
class ArchPreset:
    """A network and its input's spike capacity.

    layer_sizes: neuron counts, input width first, class count last.
    input_capacity: the spike ids a batch row of the input boundary keeps;
        `NetworkSpec` checks it as every capacity.
    """

    layer_sizes: tuple
    input_capacity: int


ARCH_PRESETS = {
    # 2 neurons/tile network used throughout the sparsity experiments.
    "shd-2944": ArchPreset((700, 974, 974, 974, 20), 48),
    # desk-scale preset for smoke tests and examples
    "tiny": ArchPreset((32, 64, 64, 4), 8),
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
    seed: int = 42
    neurons_per_tile: int = 2
    machine: MachineSpec = field(default_factory=MachineSpec)

    def __post_init__(self):
        if self.mode not in (FIXED, NATURAL):
            raise ConfigError(f"unknown bench mode {self.mode!r}")
        if self.preset not in ARCH_PRESETS:
            raise ConfigError(
                f"unknown preset {self.preset!r}; have {sorted(ARCH_PRESETS)}"
            )

    @property
    def spec(self) -> NetworkSpec:
        """The network of the configured preset (`network_spec_for`)."""
        arch = ARCH_PRESETS[self.preset]
        return network_spec_for(arch, self.max_activity, self.batch_size, self.num_timesteps)


def network_spec_for(
    arch: ArchPreset, max_activity: float, batch_size: int, num_timesteps: int
) -> NetworkSpec:
    """The network of `arch`, the one home of every command's spike
    capacities: the input boundary keeps `arch.input_capacity` ids a
    row, and each hidden boundary `sparse_hidden_size(max_activity, n)`
    of its n neurons."""
    hidden = [sparse_hidden_size(max_activity, n) for n in arch.layer_sizes[1:-1]]
    sparse = [arch.input_capacity] + hidden
    return NetworkSpec(arch.layer_sizes, sparse, batch_size, num_timesteps)


def bench_dataset(config: BenchConfig) -> np.ndarray:
    """The frames of the one batch of the configured preset: its input
    width is `layer_sizes[0]`, its class count `layer_sizes[-1]`."""
    layers = ARCH_PRESETS[config.preset].layer_sizes
    streams = synth_pattern_dataset(
        layers[-1],
        layers[0],
        -(-config.batch_size // layers[-1]),
        config.num_timesteps,
        noise_rate=NOISE_RATE,
        seed=config.seed + 1,
    )
    return SpikeDataset.from_streams(streams, config.num_timesteps).frames[: config.batch_size]


def collect_activity(spec: NetworkSpec, trace) -> tuple:
    """(spike counts, retained-entry counts) per (t, layer) averaged over
    the batch, from a sparse-mode trace. Column 0 is the input layer.
    Column k reads weight layer k's payloads of steps 0..live(k)-1 only,
    the network's own activity (window rule: `engine` docstring)."""
    shape = (spec.num_timesteps, len(spec.layer_sizes))
    act, grad = np.zeros(shape), np.zeros(shape)
    for k, payloads in enumerate(trace.sent):
        live = spec.live_steps(k)
        act[:live, k] = [b.num_spikes.mean() for b in payloads[:live]]
        grad[:live, k] = [b.num_grads.mean() for b in payloads[:live]]
    return act, grad


def run_benchmark(config: BenchConfig) -> dict:
    """Model one configuration (see the module docstring): its row of
    the sparsity sweep, keyed by `SPARSITY_COLUMNS`. The ledger prices
    the activity of one probe, a forward pass on the initial weights.
    `valid` is False when a hidden layer stayed silent in that probe:
    the row then prices a network that moves no spikes, not the
    configured activity. Communication sparsity is 1 - max_activity by
    definition; T and how many input frames reach the loss are stated."""
    spec = config.spec
    net = init_network(spec, seed=config.seed)
    trace, _ = forward_pass(
        net, bench_dataset(config), SPARSE, DropRng(config.seed, 0),
        force_spikes=config.mode == FIXED,
    )
    act, grad = collect_activity(spec, trace)

    mapping = map_neurons(spec, config.machine, config.neurons_per_tile)
    sparse_ledger = simulate_batch(
        spec, mapping, config.machine, act, mode="sparse", grad_activity=grad
    )
    dense_ledger = simulate_batch(spec, mapping, config.machine, None, mode="dense")
    return {
        "mode": config.mode,
        "max_activity": config.max_activity,
        "communication_sparsity": 1.0 - config.max_activity,
        "modeled_accel": acceleration_model(dense_ledger, sparse_ledger),
        "valid": bool(act[:, 1 : spec.num_weight_layers].sum(axis=0).all()),
        "timesteps": spec.num_timesteps,
        "receptive_frames": spec.receptive_frames,
    }


SPARSITY_COLUMNS = (
    "mode",
    "max_activity",
    "communication_sparsity",
    "modeled_accel",
    "valid",
    "timesteps",
    "receptive_frames",
)


def sparsity_sweep(config: BenchConfig, activity_grid) -> list:
    """The `run_benchmark` row of each (mode, max_activity)."""
    return [
        run_benchmark(replace(config, mode=mode, max_activity=float(a)))
        for mode in (FIXED, NATURAL)
        for a in activity_grid
    ]


def scaleup_sweep(config: BenchConfig, per_tile_grid) -> list:
    """Modeled acceleration for the published per-tile scale-up
    architectures, each priced at T = max(`num_timesteps`, 2L), the least
    T at which its input reaches the loss (`NetworkSpec.made_receptive`);
    memory failures become recorded cells, not crashes. Each row states
    that T and how many input frames reach the loss. The table is
    shd-2944's, so no other preset has one."""
    if config.preset != "shd-2944":
        raise ConfigError(f"preset {config.preset!r} has no scale-up table; shd-2944 has")
    capacity = ARCH_PRESETS[config.preset].input_capacity
    rows = []
    for npt in per_tile_grid:
        if npt not in SCALEUP_SHD:
            raise ConfigError(f"no scale-up architecture for {npt} neurons/tile")
        arch = ArchPreset(SCALEUP_SHD[npt], capacity)
        spec = network_spec_for(
            arch, config.max_activity, config.batch_size, config.num_timesteps
        ).made_receptive()
        row = {
            "neurons_per_tile": npt,
            "status": "ok",
            "modeled_accel": "",
            "total_neurons": sum(arch.layer_sizes[1:]),
            "timesteps": spec.num_timesteps,
            "receptive_frames": spec.receptive_frames,
        }
        try:
            mapping = map_neurons(spec, config.machine, npt)
        except OutOfTileMemory as err:
            row["status"] = f"out-of-tile-memory:{err.needed}"
            rows.append(row)
            continue
        sparse_ledger = simulate_batch(spec, mapping, config.machine, saturated_activity(spec))
        dense_ledger = simulate_batch(spec, mapping, config.machine, None, mode="dense")
        row["modeled_accel"] = acceleration_model(dense_ledger, sparse_ledger)
        rows.append(row)
    return rows


def weak_scaling_sweep(
    config: BenchConfig, chip_grid, batch_grid, per_tile_grid
) -> list:
    """Modeled slowdown for every (chips, batch, neurons/tile) point; the
    per-chip network is the configured preset. A k-chip point prices the
    chained net (`chained_spec`) and its 1-chip baseline at T =
    max(`num_timesteps`, 2L) of the chained net (`weak_scale_run`); its
    row states that T and that net's receptive frames. Memory failures
    become recorded cells, as in `scaleup_sweep`."""
    arch = ARCH_PRESETS[config.preset]
    rows = []
    for k in chip_grid:
        machine = replace(config.machine, num_chips=int(k))
        for batch in batch_grid:
            spec = network_spec_for(
                arch, config.max_activity, batch, config.num_timesteps
            )
            chained = chained_spec(spec, int(k))[0].made_receptive()
            for npt in per_tile_grid:
                row = {
                    "chips": int(k),
                    "batch_size": batch,
                    "neurons_per_tile": npt,
                    "status": "ok",
                    "slowdown": "",
                    "timesteps": chained.num_timesteps,
                    "receptive_frames": chained.receptive_frames,
                }
                try:
                    row["slowdown"] = weak_scale_run(spec, machine, neurons_per_tile=npt)
                except OutOfTileMemory as err:
                    row["status"] = f"out-of-tile-memory:{err.needed}"
                rows.append(row)
    return rows


def write_rows_csv(rows: list, path, columns=None) -> None:
    """One CSV line per row dict; csv writes a float as str, its shortest
    round-trip form. `rows` may be empty only with explicit `columns`, and
    then the header is written alone."""
    columns = list(rows[0] if columns is None else columns)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)

"""Bulk-synchronous tile-machine simulator.

Models a manycore chip as `tiles_per_chip` tiles, each owning a fixed SRAM
budget, executing supersteps of local compute, data exchange and barrier
sync. Neurons live on tiles for the whole run; weights, weight gradients,
optimizer moments and state live with their post-synaptic neuron; spike
tensors are the only data crossing tile boundaries.

Cost accounting per algorithmic timestep and direction:

  compute(tile)   = sum over its neurons of B*(incoming_count*cycles_per_mac
                    + cycles_per_state_update)
  exchange bytes  = 4 bytes per spike id plus an 8-byte per-row count
                    header. Backward moves gradient values instead of ids,
                    same sizes. Dense mode is the same model with every
                    count at its layer size and no header: a dense tensor
                    is 4 bytes per neuron per row.
  superstep time  = max over tiles of (compute + local exchange share)
                    + sync_cycles_per_superstep        (BSP: max, not sum)

Traffic between chips is modeled as a separate exchange superstep with its
own sync, at `inter_chip_cycles_per_8_bytes` (doubled beyond a chip pair);
traffic within a chip rides the compute superstep at the intra rate.

`simulate_batch` prices each direction for all T steps at once
(`_phase_cycles`), reading only the mapping's `tile_of_neuron`: compute
counts each layer's neurons per tile, and each spike tensor's bytes are
spread evenly over the consuming layer's tiles on each chip.

The one schedule is the engine's `net.windows([0] * L)`, the windows of
a net whose every layer fires from step 0 (the rule: `engine` docstring):
the ledger prices a layer's work only inside them, and so ignores the
head that depends on the data. Every state update and every superstep's
sync is still charged, as the engine's LIF loops run every step.

Per-tile memory estimate for a neuron with fan-in F, batch B, T timesteps:
16*F (weights, weight grads, two optimizer moments at 4 bytes) plus
4*B*(4 + T) (four state arrays and a per-timestep membrane trace).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields, replace
from typing import get_type_hints

import numpy as np

from .config import coerce, load_flat_config
from .errors import ConfigError, ContractViolation, OutOfTileMemory
from .lif import NetworkSpec

WEAK_SCALE_CHIPS = (1, 2, 4, 8, 16)
_BEYOND_PAIR_FACTOR = 2.0


@dataclass
class CostParams:
    cycles_per_mac: float = 1.0
    cycles_per_state_update: float = 2.0
    intra_chip_cycles_per_8_bytes: float = 1.0
    inter_chip_cycles_per_8_bytes: float = 8.0
    sync_cycles_per_superstep: float = 100.0

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if not self.intra_chip_cycles_per_8_bytes > 0:
            raise ConfigError("intra-chip byte cost must be > 0")
        if self.inter_chip_cycles_per_8_bytes < self.intra_chip_cycles_per_8_bytes:
            raise ConfigError("inter-chip byte cost must be >= intra-chip")


@dataclass
class MachineSpec:
    tiles_per_chip: int = 1472
    sram_per_tile: int = 624 * 1024
    num_chips: int = 1
    cost: CostParams = field(default_factory=CostParams)

    def __post_init__(self):
        if min(self.tiles_per_chip, self.sram_per_tile, self.num_chips) < 1:
            raise ConfigError("machine dimensions must be positive")

    @property
    def num_tiles(self) -> int:
        return self.tiles_per_chip * self.num_chips


def load_machine_config(path) -> MachineSpec:
    """Machine/cost description as a flat key=value file: one key per
    field of MachineSpec but `cost`, and of CostParams."""
    schema = {}
    for cls in (MachineSpec, CostParams):
        hints = get_type_hints(cls)
        schema[cls] = {f.name: hints[f.name] for f in fields(cls) if f.name != "cost"}
    raw = load_flat_config(path, allowed_keys=schema[MachineSpec].keys() | schema[CostParams])

    def values(cls):
        return {k: coerce(v, schema[cls][k]) for k, v in raw.items() if k in schema[cls]}

    return MachineSpec(cost=CostParams(**values(CostParams)), **values(MachineSpec))


def neuron_bytes(fan_in: int, batch_size: int, num_timesteps: int) -> int:
    """SRAM bytes one neuron pins on its tile (see module docstring)."""
    return 16 * fan_in + 4 * batch_size * (4 + num_timesteps)


@dataclass
class TileMapping:
    """Neuron-to-tile assignment for the non-input layers of a network,
    packed for chips of `tiles_per_chip` tiles."""

    tile_of_neuron: list  # per weight layer: global tile id per neuron
    tiles_per_chip: int


def map_neurons(
    net: NetworkSpec,
    machine: MachineSpec,
    neurons_per_tile: int,
    layer_chips: list | None = None,
) -> TileMapping:
    """Contiguous block assignment: layers in order, `neurons_per_tile`
    neurons on every occupied tile (the last may be partial).

    A layer is placed on a region of tiles, and packing continues where
    the region's previous layer ended. Without `layer_chips` every layer's
    region is the whole machine, and a chip left with no neuron raises
    ConfigError; with it, each weight layer is pinned to the given chip
    (used for weak scaling). Raises ConfigError when a region runs out of
    tiles and OutOfTileMemory when any tile's byte estimate exceeds its
    SRAM.
    """
    if neurons_per_tile < 1:
        raise ConfigError("neurons_per_tile must be >= 1")
    sizes = net.layer_sizes[1:]
    if layer_chips is None:
        regions = [None] * len(sizes)  # None: the whole machine
    elif len(layer_chips) != len(sizes):
        raise ContractViolation("layer_chips must name one chip per weight layer")
    else:
        regions = layer_chips
    tile_of_neuron = []
    next_slot = {}
    for n, chip in zip(sizes, regions):
        if chip is None:
            first, room = 0, machine.num_tiles
            full = (
                f"{sum(sizes)} neurons at {neurons_per_tile}/tile exceed "
                f"{machine.num_tiles} tiles"
            )
        elif 0 <= chip < machine.num_chips:
            first, room = chip * machine.tiles_per_chip, machine.tiles_per_chip
            full = f"chip {chip} out of tiles"
        else:
            raise ConfigError(f"chip {chip} out of range")
        start = next_slot.get(chip, 0)
        slots = np.arange(start, start + n)
        if slots[-1] // neurons_per_tile >= room:
            raise ConfigError(full)
        tile_of_neuron.append((first + slots // neurons_per_tile).astype(np.int64))
        next_slot[chip] = start + n
    if layer_chips is None:
        filled = int(tile_of_neuron[-1][-1]) // machine.tiles_per_chip + 1
        if filled < machine.num_chips:
            raise ConfigError(
                f"{sum(sizes)} neurons at {neurons_per_tile}/tile fill {filled} of "
                f"{machine.num_chips} chips; packing leaves the rest empty"
            )

    per_tile = np.zeros(machine.num_tiles, dtype=np.int64)
    for k, ids in enumerate(tile_of_neuron):
        fan_in = net.layer_sizes[k]
        per_tile += np.bincount(
            ids, minlength=machine.num_tiles
        ) * neuron_bytes(fan_in, net.batch_size, net.num_timesteps)
    over = np.nonzero(per_tile > machine.sram_per_tile)[0]
    if over.size:
        tile = int(over[0])
        raise OutOfTileMemory(tile, int(per_tile[tile]), machine.sram_per_tile)
    return TileMapping(tile_of_neuron, machine.tiles_per_chip)


@dataclass
class SuperstepCost:
    index: int
    timestep: int
    phase: str
    time_cycles: float
    chip_cycles: np.ndarray  # per chip: max over its tiles
    chip_intra_bytes: np.ndarray
    chip_inter_bytes: np.ndarray

    @property
    def intra_bytes(self) -> float:
        return float(self.chip_intra_bytes.sum())

    @property
    def inter_bytes(self) -> float:
        return float(self.chip_inter_bytes.sum())


@dataclass
class CostLedger:
    supersteps: list
    num_chips: int

    @property
    def total_time_cycles(self) -> float:
        return float(sum(s.time_cycles for s in self.supersteps))

    @property
    def total_intra_bytes(self) -> float:
        return float(sum(s.intra_bytes for s in self.supersteps))

    @property
    def total_inter_bytes(self) -> float:
        return float(sum(s.inter_bytes for s in self.supersteps))

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(
                ["superstep", "phase", "chip", "cycles", "intra_bytes", "inter_bytes"]
            )
            for s in self.supersteps:
                for chip in range(self.num_chips):
                    writer.writerow(
                        [
                            s.index,
                            s.phase,
                            chip,
                            repr(float(s.chip_cycles[chip])),
                            repr(float(s.chip_intra_bytes[chip])),
                            repr(float(s.chip_inter_bytes[chip])),
                        ]
                    )


def _phase_cycles(
    tile_of_neuron: list, machine: MachineSpec, batch: int, header_bytes: float,
    in_counts: np.ndarray, edges: list,
) -> tuple:
    """Price one direction for all T steps at once.

    in_counts[t, l]: incoming activations per sample for weight layer l at
    step t. edges: (producer_layer, consumer_layer, counts, sent) spike
    tensors, `counts` a (T,) vector and `sent` a (T,) mask of the steps
    that move it; producer -1 is the network input, which is loaded
    host-side onto the consuming chips (always local).

    Returns (T, chips) arrays: the per-chip cycles and intra-chip bytes of
    the compute superstep, then the per-chip cycles and inter-chip bytes
    of the exchange superstep. Compute sums layer by layer and each
    exchange tier edge by edge in its own array; the compute superstep
    adds its intra-chip exchange last.
    """
    cost = machine.cost
    T, tiles, per_chip = in_counts.shape[0], machine.num_tiles, machine.tiles_per_chip
    compute = np.zeros((T, tiles))
    for l, ids in enumerate(tile_of_neuron):
        per_neuron = batch * (
            in_counts[:, l] * cost.cycles_per_mac + cost.cycles_per_state_update
        )
        used = np.unique(ids)  # other tiles' compute gains exactly 0
        compute[:, used] += np.bincount(ids, minlength=tiles)[used] * per_neuron[:, None]
    intra_tile, inter_tile = np.zeros((T, tiles)), np.zeros((T, tiles))
    intra_chip = np.zeros((T, machine.num_chips))
    inter_chip = np.zeros((T, machine.num_chips))
    for producer, consumer, counts, sent in edges:
        bytes_total = np.where(sent, 4.0 * counts * batch + header_bytes * batch, 0.0)
        src = tile_of_neuron[producer if producer >= 0 else consumer]
        src_chips = np.unique(src // per_chip)
        dst_tiles = np.unique(tile_of_neuron[consumer])
        dst_chips = dst_tiles // per_chip
        for chip in np.unique(dst_chips):
            on_chip = dst_tiles[dst_chips == chip]
            if chip in src_chips:
                rate = cost.intra_chip_cycles_per_8_bytes
                tile_acc, chip_acc = intra_tile, intra_chip
            else:
                rate = cost.inter_chip_cycles_per_8_bytes
                if not np.any(src_chips // 2 == chip // 2):
                    rate = _BEYOND_PAIR_FACTOR * rate
                tile_acc, chip_acc = inter_tile, inter_chip
            tile_acc[:, on_chip] += (bytes_total / 8.0 * rate / on_chip.size)[:, None]
            chip_acc[:, chip] += bytes_total

    def chip_max(tile_cycles):
        return tile_cycles.reshape(T, machine.num_chips, per_chip).max(axis=2)

    return chip_max(compute + intra_tile), intra_chip, chip_max(inter_tile), inter_chip


def simulate_batch(
    net: NetworkSpec,
    mapping: TileMapping,
    machine: MachineSpec,
    activity: np.ndarray | None,
    mode: str = "sparse",
    grad_activity: np.ndarray | None = None,
) -> CostLedger:
    """Model one training batch, forward and backward, on the engine's
    static windows (module docstring).

    `activity[t, k]` is the per-sample spike count of layer k (column 0 is
    the input layer) at step t; `grad_activity` the retained-entry count
    (defaults to `activity`). Counts outside the windows are not read.
    Dense mode ignores both: every count is the layer size and rows carry
    no count header. The ledger is a pure function of the arguments. A
    mapping packed for another network or another chip size raises
    ContractViolation.
    """
    if mode not in ("sparse", "dense"):
        raise ConfigError(f"unknown simulate mode {mode!r}")
    tile_of_neuron = mapping.tile_of_neuron
    if [ids.size for ids in tile_of_neuron] != list(net.layer_sizes[1:]):
        raise ContractViolation("mapping was built for a different network")
    if mapping.tiles_per_chip != machine.tiles_per_chip:
        raise ContractViolation(
            f"mapping was packed for {mapping.tiles_per_chip} tiles per chip, "
            f"the machine has {machine.tiles_per_chip}"
        )
    L = net.num_weight_layers
    T = net.num_timesteps
    sizes = np.asarray(net.layer_sizes, dtype=float)
    if mode == "dense":
        activity = grad = np.broadcast_to(sizes, (T, sizes.size))
        header_bytes = 0.0
    else:
        activity = np.asarray(activity, dtype=float)
        if activity.shape != (T, sizes.size):
            raise ContractViolation(
                f"activity shape {activity.shape} != ({T}, {sizes.size})"
            )
        if np.any(activity < 0) or np.any(activity > sizes[None, :]):
            raise ContractViolation("activity counts must lie in [0, layer size]")
        grad = activity if grad_activity is None else np.asarray(grad_activity, dtype=float)
        if grad.shape != activity.shape:
            raise ContractViolation("grad_activity shape mismatch")
        header_bytes = 8.0

    # reach[t, l]: weight layer l works on its payload of step t;
    # back[t, l]: and returns dL/dS for it.
    steps = np.arange(T)[:, None]
    first, _, need, live = zip(*net.windows([0] * L))
    reach = (steps >= first) & (steps < live)
    back = (steps >= need) & (steps < live)
    spikes_in = np.where(reach, activity[:, :L], 0.0)

    def price(in_counts, edges):
        return _phase_cycles(
            tile_of_neuron, machine, net.batch_size, header_bytes, in_counts, edges
        )

    phases = (
        # Forward: layer l consumes layer l-1's spikes of the same step.
        ("forward", range(T), price(
            spikes_in, [(l - 1, l, activity[:, l], reach[:, l]) for l in range(L)]
        )),
        # Backward: weight grads read input spikes, input grads write
        # gradient entries back to the producing layer's tiles.
        ("backward", range(T - 1, -1, -1), price(
            spikes_in + np.where(back, grad[:, :L], 0.0),
            [(l, l - 1, grad[:, l], back[:, l]) for l in range(1, L)],
        )),
    )
    records = []

    def emit(t, phase, chip_cycles, intra_bytes, inter_bytes):
        records.append(SuperstepCost(
            index=len(records),
            timestep=t,
            phase=phase,
            time_cycles=float(chip_cycles.max()) + machine.cost.sync_cycles_per_superstep,
            chip_cycles=chip_cycles,
            chip_intra_bytes=intra_bytes,
            chip_inter_bytes=inter_bytes,
        ))

    for phase, steps, (cycles, intra, exchange, inter) in phases:
        for t in steps:
            emit(t, phase, cycles[t], intra[t], np.zeros(machine.num_chips))
            if inter[t].any():
                # Cross-chip traffic pays for its own superstep (and sync).
                emit(t, phase + "-exchange", exchange[t], np.zeros(machine.num_chips), inter[t])
    return CostLedger(supersteps=records, num_chips=machine.num_chips)


def acceleration_model(dense_ledger: CostLedger, sparse_ledger: CostLedger) -> float:
    """Modeled dense batch time over modeled sparse batch time."""
    sparse_time = sparse_ledger.total_time_cycles
    if sparse_time <= 0:
        raise ContractViolation("sparse ledger has no time (missing sync floor?)")
    return dense_ledger.total_time_cycles / sparse_time


def chained_spec(net_per_chip: NetworkSpec, k: int) -> tuple:
    """Replicate the hidden stack of `net_per_chip` k times, chaining the
    stacks; returns (spec, layer_chips) with stack i pinned to chip i."""
    hidden = list(net_per_chip.layer_sizes[1:-1])
    if not hidden:
        raise ConfigError("weak scaling needs at least one hidden layer")
    hidden_sparse = list(net_per_chip.sparse_sizes[1:])
    layers = [net_per_chip.layer_sizes[0]] + hidden * k + [net_per_chip.layer_sizes[-1]]
    sparse = [net_per_chip.sparse_sizes[0]] + hidden_sparse * k
    spec = replace(net_per_chip, layer_sizes=layers, sparse_sizes=sparse)
    chips = []
    for stack in range(k):
        chips.extend([stack] * len(hidden))
    chips.append(k - 1)  # readout rides the last chip
    return spec, chips


def saturated_activity(spec: NetworkSpec) -> np.ndarray:
    """Activity matrix with every spike tensor at capacity: the input and
    each hidden layer at its sparse size, the readout silent."""
    act = np.zeros((spec.num_timesteps, len(spec.layer_sizes)))
    act[:, : len(spec.sparse_sizes)] = spec.sparse_sizes
    return act


def weak_scale_run(
    net_per_chip: NetworkSpec,
    machine: MachineSpec,
    neurons_per_tile: int = 2,
) -> float:
    """Modeled slowdown of running k chained replicas on k chips versus
    one replica on one chip; 1.0 for k = 1 by construction. Both are
    priced at the T = max(T, 2L) of the k-chip chained net."""
    k = machine.num_chips
    if k not in WEAK_SCALE_CHIPS:
        raise ConfigError(f"unsupported chip count {k}; pick from {WEAK_SCALE_CHIPS}")
    T = chained_spec(net_per_chip, k)[0].made_receptive().num_timesteps
    net_per_chip = replace(net_per_chip, num_timesteps=T)

    def total(num_chips: int) -> float:
        spec, chips = chained_spec(net_per_chip, num_chips)
        mach = replace(machine, num_chips=num_chips)
        mapping = map_neurons(spec, mach, neurons_per_tile, layer_chips=chips)
        ledger = simulate_batch(spec, mapping, mach, saturated_activity(spec))
        return ledger.total_time_cycles

    return total(k) / total(1)

"""Step-at-a-time reference for the tile-machine ledger.

This is the simulator that `machine.simulate_batch` replaced: a stateful
object that prices one superstep at a time, precomputes per-layer views
of the mapping (tile histogram, chips, tiles grouped by chip) and appends
records as it goes. On the engine's windows it leaves a layer's work and
tensors out of each step they do not reach, one (step, layer) at a time.
`simulate_batch` prices each direction for all steps at once; it must
give every superstep the same index, timestep, phase, time and per-chip
arrays, byte for byte.
"""

from dataclasses import replace

import numpy as np

from sparsnn.errors import ConfigError, ContractViolation
from sparsnn.machine import (
    _BEYOND_PAIR_FACTOR,
    WEAK_SCALE_CHIPS,
    CostLedger,
    SuperstepCost,
    chained_spec,
    map_neurons,
    saturated_activity,
)


class _Simulator:
    def __init__(self, net, mapping, machine, header_bytes):
        self.net = net
        self.machine = machine
        self.header_bytes = header_bytes
        self.cost = machine.cost
        self.num_tiles = machine.num_tiles
        self.num_chips = machine.num_chips
        self.records = []
        self.index = 0
        self.layer_hist = [
            np.bincount(t, minlength=machine.num_tiles) for t in mapping.tile_of_neuron
        ]
        self.layer_chips = [
            np.unique(t // machine.tiles_per_chip) for t in mapping.tile_of_neuron
        ]
        self.layer_tiles_by_chip = []
        for t in mapping.tile_of_neuron:
            tiles = np.unique(t)
            chips = tiles // machine.tiles_per_chip
            self.layer_tiles_by_chip.append(
                {int(c): tiles[chips == c] for c in np.unique(chips)}
            )

    def _tile_tier(self, src_chips, dst_chip):
        """(rate per 8 bytes, is_inter) for traffic reaching `dst_chip`."""
        if dst_chip in src_chips:
            return self.cost.intra_chip_cycles_per_8_bytes, False
        if any(int(c) // 2 == dst_chip // 2 for c in src_chips):
            return self.cost.inter_chip_cycles_per_8_bytes, True
        return _BEYOND_PAIR_FACTOR * self.cost.inter_chip_cycles_per_8_bytes, True

    def _edge_exchange(self, producer_layer, consumer_layer, bytes_total,
                       intra_tile, inter_tile, intra_chip, inter_chip):
        """Spread one spike tensor over the consuming layer's tiles;
        producer -1 is the network input, always local."""
        if producer_layer < 0:
            src_chips = self.layer_chips[consumer_layer]
        else:
            src_chips = self.layer_chips[producer_layer]
        for chip, tiles in self.layer_tiles_by_chip[consumer_layer].items():
            rate, is_inter = self._tile_tier(src_chips, chip)
            cycles = bytes_total / 8.0 * rate / len(tiles)
            if is_inter:
                inter_tile[tiles] += cycles
                inter_chip[chip] += bytes_total
            else:
                intra_tile[tiles] += cycles
                intra_chip[chip] += bytes_total

    def _emit(self, t, phase, tile_cycles, intra_chip, inter_chip):
        chip_view = tile_cycles.reshape(self.num_chips, self.machine.tiles_per_chip)
        compute_max = float(tile_cycles.max()) if tile_cycles.size else 0.0
        self.records.append(
            SuperstepCost(
                index=self.index,
                timestep=t,
                phase=phase,
                time_cycles=compute_max + self.cost.sync_cycles_per_superstep,
                chip_cycles=chip_view.max(axis=1),
                chip_intra_bytes=intra_chip,
                chip_inter_bytes=inter_chip,
            )
        )
        self.index += 1

    def step(self, t, phase, in_counts, edges):
        """One compute+intra superstep plus an inter-chip exchange
        superstep when any edge crosses chips."""
        batch, cost = self.net.batch_size, self.cost
        compute = np.zeros(self.num_tiles)
        for l, hist in enumerate(self.layer_hist):
            per_neuron = batch * (
                in_counts[l] * cost.cycles_per_mac + cost.cycles_per_state_update
            )
            compute += hist * per_neuron
        intra_tile = np.zeros(self.num_tiles)
        inter_tile = np.zeros(self.num_tiles)
        intra_chip = np.zeros(self.num_chips)
        inter_chip = np.zeros(self.num_chips)
        for producer, consumer, count in edges:
            bytes_total = 4.0 * count * batch + self.header_bytes * batch
            self._edge_exchange(
                producer, consumer, bytes_total,
                intra_tile, inter_tile, intra_chip, inter_chip,
            )
        self._emit(t, phase, compute + intra_tile, intra_chip, np.zeros(self.num_chips))
        if inter_chip.any():
            self._emit(
                t, phase + "-exchange", inter_tile, np.zeros(self.num_chips), inter_chip
            )


def simulate_batch(net, mapping, machine, activity, mode="sparse", grad_activity=None):
    if mode not in ("sparse", "dense"):
        raise ConfigError(f"unknown simulate mode {mode!r}")
    L = net.num_weight_layers
    T = net.num_timesteps
    sizes = np.asarray(net.layer_sizes, dtype=float)
    if mode == "dense":
        activity = grad = np.broadcast_to(sizes, (T, sizes.size))
        header_bytes = 0.0
    else:
        activity = np.asarray(activity, dtype=float)
        if activity.shape != (T, sizes.size):
            raise ContractViolation("activity shape mismatch")
        if np.any(activity < 0) or np.any(activity > sizes[None, :]):
            raise ContractViolation("activity counts must lie in [0, layer size]")
        grad = activity if grad_activity is None else np.asarray(grad_activity, dtype=float)
        if grad.shape != activity.shape:
            raise ContractViolation("grad_activity shape mismatch")
        header_bytes = 8.0

    def works(t, l):
        """Weight layer l multiplies its payload of step t."""
        return t < net.live_steps(l)

    def returns(t, l):
        """Weight layer l returns dL/dS for its payload of step t."""
        return 1 <= l and 2 <= t < net.live_steps(l)

    sim = _Simulator(net, mapping, machine, header_bytes)
    for t in range(T):
        edges = [(l - 1, l, activity[t, l]) for l in range(L) if works(t, l)]
        counts = [activity[t, l] if works(t, l) else 0.0 for l in range(L)]
        sim.step(t, "forward", counts, edges)
    for t in range(T - 1, -1, -1):
        edges = [(l, l - 1, grad[t, l]) for l in range(1, L) if returns(t, l)]
        counts = [
            (activity[t, l] if works(t, l) else 0.0) + (grad[t, l] if returns(t, l) else 0.0)
            for l in range(L)
        ]
        sim.step(t, "backward", counts, edges)
    return CostLedger(supersteps=sim.records, num_chips=machine.num_chips)


def weak_scale_run(net_per_chip, machine, neurons_per_tile=2):
    k = machine.num_chips
    if k not in WEAK_SCALE_CHIPS:
        raise ConfigError(f"unsupported chip count {k}; pick from {WEAK_SCALE_CHIPS}")
    # Both nets at the least T at which the k-chip chain's input reaches
    # the loss: two steps per weight layer.
    layers = chained_spec(net_per_chip, k)[0].num_weight_layers
    net_per_chip = replace(
        net_per_chip, num_timesteps=max(net_per_chip.num_timesteps, 2 * layers)
    )

    def total(num_chips):
        spec, chips = chained_spec(net_per_chip, num_chips)
        mach = replace(machine, num_chips=num_chips)
        mapping = map_neurons(spec, mach, neurons_per_tile, layer_chips=chips)
        ledger = simulate_batch(spec, mapping, mach, saturated_activity(spec))
        return ledger.total_time_cycles

    return total(k) / total(1)

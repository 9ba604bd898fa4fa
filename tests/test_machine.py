from dataclasses import asdict, fields

import numpy as np
import pytest

from sparsnn.bench import ARCH_PRESETS, network_spec_for
from sparsnn.errors import ConfigError, ContractViolation, OutOfTileMemory
from sparsnn.lif import NetworkSpec
from sparsnn.machine import (
    CostLedger,
    CostParams,
    MachineSpec,
    acceleration_model,
    chained_spec,
    load_machine_config,
    map_neurons,
    neuron_bytes,
    saturated_activity,
    simulate_batch,
    weak_scale_run,
)

SRAM = 624 * 1024


def spec(layers, sparse, batch=2, T=1, **kw):
    return NetworkSpec(layers, sparse, batch_size=batch, num_timesteps=T, **kw)


def small_machine(tiles=16, chips=1, **cost):
    return MachineSpec(
        tiles_per_chip=tiles, sram_per_tile=SRAM, num_chips=chips,
        cost=CostParams(**cost),
    )


class TestMapping:
    def test_full_chip_two_per_tile(self):
        # 2944 non-input neurons at 2 per tile fill exactly 1472 tiles.
        net = spec([16, 1472, 1462, 10], [16, 48, 48], batch=1, T=1)
        machine = MachineSpec()
        mapping = map_neurons(net, machine, 2)
        assert np.unique(np.concatenate(mapping.tile_of_neuron)).size == 1472

    @pytest.mark.parametrize("layers, tiles", [
        ((16, 7, 2), 5),  # tile 3 holds the last of 7 and the first of 2
        ((700, 975, 973, 20), 984),
    ])
    def test_tiles_used_counts_a_shared_tile_once(self, layers, tiles):
        # Packing continues where the previous layer ended, so one tile
        # may hold neurons of two layers.
        net = spec(list(layers), [2] * (len(layers) - 1))
        mapping = map_neurons(net, MachineSpec(), 2)
        assert np.unique(np.concatenate(mapping.tile_of_neuron)).size == tiles

    def test_single_neuron_tile_zero(self):
        net = spec([4, 1], [2])
        mapping = map_neurons(net, small_machine(), 4)
        assert mapping.tile_of_neuron[0].tolist() == [0]

    def test_layers_pack_contiguously_in_order(self):
        net = spec([4, 6, 2], [4, 4])
        mapping = map_neurons(net, small_machine(), 4)
        assert mapping.tile_of_neuron[0].tolist() == [0, 0, 0, 0, 1, 1]
        assert mapping.tile_of_neuron[1].tolist() == [1, 1]

    def test_memory_boundary_exact(self):
        # One output neuron with fan-in F: bytes = 16*F + 4*B*(4+T).
        # B=4, T=4 gives a 128-byte state share; F=39928 lands exactly on
        # the 624 kB budget, one more weight tips it over.
        assert neuron_bytes(39928, 4, 4) == SRAM
        ok = spec([39928, 1], [2], batch=4, T=4)
        map_neurons(ok, small_machine(), 1)  # accepted at == budget
        over = spec([39929, 1], [2], batch=4, T=4)
        with pytest.raises(OutOfTileMemory) as err:
            map_neurons(over, small_machine(), 1)
        assert err.value.needed == SRAM + 16
        assert err.value.budget == SRAM

    def test_not_enough_tiles(self):
        net = spec([4, 200], [4])
        with pytest.raises(ConfigError):
            map_neurons(net, small_machine(tiles=4), 1)

    def test_layer_chips_pinning(self):
        net = spec([4, 6, 6, 2], [4, 4, 4])
        machine = small_machine(tiles=8, chips=2)
        mapping = map_neurons(net, machine, 2, layer_chips=[0, 1, 1])
        assert np.all(mapping.tile_of_neuron[0] < 8)
        assert np.all(mapping.tile_of_neuron[1] >= 8)


def hand_net():
    """Two weight layers on two tiles with a deliberate imbalance. At T=4
    (live 1 and 3) weight layer 0 works on step 0, layer 1 on steps 0..2,
    and layer 1 returns dL/dS on step 2 (`NetworkSpec.windows`)."""
    return spec([4, 8, 2], [4, 4], batch=2, T=4)


# Per step: 3 input spikes, 4 hidden spikes, a silent readout.
HAND_ACT = np.array([[3.0, 4.0, 0.0]] * 4)


def hand_machine():
    return small_machine(
        tiles=4, cycles_per_mac=1.0, cycles_per_state_update=2.0,
        intra_chip_cycles_per_8_bytes=1.0, inter_chip_cycles_per_8_bytes=8.0,
        sync_cycles_per_superstep=10.0,
    )


class TestSimulate:
    # The hand-computed cases price nets at a T at which every weight
    # layer works on some step; the ledger prices only the engine's
    # windows (`machine` module docstring).

    def test_bsp_max_not_sum_hand_computed(self):
        # tile0 holds the 8 hidden neurons, tile1 the 2 readouts. Every
        # step updates state: 8*2*2 = 32 cycles on tile0, 2*2*2 = 8 on tile1.
        # Forward t=0: compute(tile0) = 8*2*(3*1+2) = 80, tile1 = 2*2*(4+2)
        #   = 24; exchange to tile0 (4*3*2+16)/8 = 5, to tile1 (4*4*2+16)/8
        #   = 6: superstep = max(85, 30) + 10 = 95    (sum would give 125)
        # Forward t=1, 2: max(32, 24 + 6) + 10 = 42; t=3: max(32, 8) + 10 = 42
        # Backward t=3: 42; t=2: tile1 = 2*2*(4+4+2) = 40, gradient bytes
        #   to tile0 6 cycles: max(32 + 6, 40) + 10 = 50   (sum would give 88)
        # Backward t=1: max(32, 24) + 10 = 42; t=0: max(80, 24) + 10 = 90
        net = hand_net()
        mapping = map_neurons(net, hand_machine(), 8)
        ledger = simulate_batch(net, mapping, hand_machine(), HAND_ACT)
        assert [s.time_cycles for s in ledger.supersteps] == [
            95.0, 42.0, 42.0, 42.0, 42.0, 50.0, 42.0, 90.0,
        ]
        assert ledger.total_time_cycles == 445.0

    def test_zero_activity_header_floor(self):
        net = hand_net()
        mapping = map_neurons(net, hand_machine(), 8)
        ledger = simulate_batch(net, mapping, hand_machine(), np.zeros((4, 3)))
        # ids contribute nothing; only the per-row count headers move.
        fwd = ledger.supersteps[0]
        assert fwd.intra_bytes == 2 * 8 * 2  # two edges, 8 bytes/row, B=2
        # the slowest tile holds the 8 hidden neurons: their state-update
        # floor, the 16 header bytes of the input edge, then the sync
        assert fwd.time_cycles == 8 * 2 * 2.0 + 16 / 8 + 10.0
        # on step 1 only weight layer 1 works: one edge's headers
        assert ledger.supersteps[1].intra_bytes == 8 * 2

    def test_exchange_bytes_exactly_linear_in_counts(self):
        net = spec([8, 8, 2], [8, 8], batch=3, T=4)
        mapping = map_neurons(net, hand_machine(), 8)
        xs = np.array([1.0, 2.0, 3.0, 4.0])
        ys = []
        for k in xs:
            act = np.array([[k, k, 0.0]] * 4)
            led = simulate_batch(net, mapping, hand_machine(), act)
            ys.append(led.total_intra_bytes)
        ys = np.array(ys)
        slopes = np.diff(ys) / np.diff(xs)
        assert np.all(slopes == slopes[0])  # exact linearity: R^2 = 1
        # doubling counts doubles the id bytes (above the header floor)
        header = ys[0] - slopes[0] * xs[0]
        assert ys[1] - header == pytest.approx(2 * (ys[0] - header))

    def test_saturation_maximizes_ledger(self):
        net = spec([8, 8, 2], [8, 8], batch=2, T=4)
        mapping = map_neurons(net, hand_machine(), 8)
        sat = saturated_activity(net)
        t_sat = simulate_batch(net, mapping, hand_machine(), sat).total_time_cycles
        rng = np.random.default_rng(0)
        for _ in range(20):
            act = sat * rng.random(sat.shape)
            t = simulate_batch(net, mapping, hand_machine(), act).total_time_cycles
            assert t <= t_sat

    def test_pure_function_of_inputs(self):
        net = hand_net()
        mapping = map_neurons(net, hand_machine(), 8)
        a = simulate_batch(net, mapping, hand_machine(), HAND_ACT)
        b = simulate_batch(net, mapping, hand_machine(), HAND_ACT)
        assert [s.time_cycles for s in a.supersteps] == [
            s.time_cycles for s in b.supersteps
        ]

    def test_totals_equal_sum_of_supersteps(self):
        net = spec([8, 8, 2], [8, 8], batch=2, T=3)
        mapping = map_neurons(net, hand_machine(), 4)
        led = simulate_batch(net, mapping, hand_machine(), saturated_activity(net))
        assert led.total_time_cycles == sum(s.time_cycles for s in led.supersteps)
        assert len(led.supersteps) == 6  # fwd+bwd per step

    def test_dense_backward_moves_full_gradient_tensors(self):
        # Backward, weight layer l sends dL/dS of its input layer (size
        # layer_sizes[l]) to layer l-1: 4 bytes per neuron per row, no
        # count header. At T=6 (windows below) layer 2 returns its 6 on
        # steps 2..4 and layer 1 its 8 on step 2.
        net = spec([4, 8, 6, 2], [4, 8, 6], batch=3, T=6)
        machine = small_machine(tiles=8)
        mapping = map_neurons(net, machine, 4)
        ledger = simulate_batch(net, mapping, machine, None, mode="dense")
        backward = [s.intra_bytes for s in ledger.supersteps if s.phase == "backward"]
        assert backward == [4 * 3 * n for n in (0, 6, 6, 8 + 6, 0, 0)]  # steps 5..0

    def test_dense_is_sparse_at_full_counts_without_headers(self):
        # On two chips, weight layer 0 on chip 0 and layers 1 and 2 on
        # chip 1: layer 0's spikes (forward steps 0..2) and layer 1's
        # gradients (backward step 2) cross chips in their own exchange
        # supersteps, the other tensors stay on a chip. Each sparse tensor
        # carries an 8-byte count header per row on either tier.
        net = spec([4, 8, 6, 2], [4, 8, 6], batch=3, T=6)
        machine = small_machine(tiles=8, chips=2)
        mapping = map_neurons(net, machine, 4, layer_chips=[0, 1, 1])
        full = np.broadcast_to(np.asarray(net.layer_sizes, float), (6, 4))
        dense = simulate_batch(net, mapping, machine, None, mode="dense")
        sparse = simulate_batch(net, mapping, machine, full)
        phases = ["forward", "forward-exchange"] * 3 + ["forward"] * 3 + (
            ["backward"] * 4 + ["backward-exchange"] + ["backward"] * 2
        )
        intra = [2, 0, 1, 0, 1, 0, 1, 1, 0] + [0, 1, 1, 1, 0, 0, 0]
        inter = [0, 1, 0, 1, 0, 1, 0, 0, 0] + [0, 0, 0, 0, 1, 0, 0]
        assert [s.phase for s in sparse.supersteps] == phases
        assert [s.phase for s in dense.supersteps] == phases
        assert [(s.intra_bytes, s.inter_bytes) for s in dense.supersteps] == [
            (s.intra_bytes - 8 * 3 * a, s.inter_bytes - 8 * 3 * b)
            for s, a, b in zip(sparse.supersteps, intra, inter)
        ]

    # A [4, 8, 6, 2] net at T=6 has live = 1, 3, 5: weight layer l works
    # on payload steps t < live(l) and returns dL/dS on steps 2..live(l)-1
    # for l >= 1, so the forward steps 0..5 move 3, 2, 2, 1, 1 and 0
    # tensors and the backward steps 5..0 move 0, 1, 1, 2, 0 and 0.
    WINDOW_FORWARD_TENSORS = [3, 2, 2, 1, 1, 0]
    WINDOW_BACKWARD_TENSORS = [0, 1, 1, 2, 0, 0]

    def test_windows_skip_the_same_work_dense_and_sparse(self):
        net = spec([4, 8, 6, 2], [4, 8, 6], batch=3, T=6)
        machine = small_machine(tiles=8)
        mapping = map_neurons(net, machine, 4)
        full = np.broadcast_to(np.asarray(net.layer_sizes, float), (6, 4))
        dense = simulate_batch(net, mapping, machine, None, mode="dense")
        sparse = simulate_batch(net, mapping, machine, full)
        sent = self.WINDOW_FORWARD_TENSORS + self.WINDOW_BACKWARD_TENSORS
        assert [s.intra_bytes for s in dense.supersteps] == [
            s.intra_bytes - 8 * 3 * n for s, n in zip(sparse.supersteps, sent)
        ]

    def test_windows_read_no_count_outside_them(self):
        net = spec([4, 8, 6, 2], [4, 8, 6], batch=3, T=6)
        machine = small_machine(tiles=8)
        mapping = map_neurons(net, machine, 4)
        sizes = np.asarray(net.layer_sizes, float)
        gen = np.random.default_rng(0)
        act, grad = sizes * gen.random((6, 4)), sizes * gen.random((6, 4))
        t = np.arange(6)[:, None]
        live = np.array([1, 3, 5, 0])  # the readout column is never read
        col = np.arange(4)
        read_act = t < live
        read_grad = (t < live) & (t >= 2) & (col >= 1)
        want = simulate_batch(net, mapping, machine, act, grad_activity=grad)
        act2 = np.where(read_act, act, sizes * gen.random((6, 4)))
        grad2 = np.where(read_grad, grad, sizes * gen.random((6, 4)))
        got = simulate_batch(net, mapping, machine, act2, grad_activity=grad2)
        assert [(s.phase, s.time_cycles, s.chip_intra_bytes.tobytes()) for s in got.supersteps] == [
            (s.phase, s.time_cycles, s.chip_intra_bytes.tobytes()) for s in want.supersteps
        ]
        # and it does read the counts inside them
        act2[0, 0] = act[0, 0] + 1
        moved = simulate_batch(net, mapping, machine, act2, grad_activity=grad2)
        assert moved.total_time_cycles > want.total_time_cycles

    def test_activity_bounds_checked(self):
        net = hand_net()
        mapping = map_neurons(net, hand_machine(), 8)
        with pytest.raises(ContractViolation, match=r"\[0, layer size\]"):
            simulate_batch(net, mapping, hand_machine(), np.array([[99.0, 0, 0]] * 4))

    def test_csv_export(self, tmp_path):
        net = hand_net()
        mapping = map_neurons(net, hand_machine(), 8)
        led = simulate_batch(net, mapping, hand_machine(), HAND_ACT)
        path = tmp_path / "ledger.csv"
        led.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "superstep,phase,chip,cycles,intra_bytes,inter_bytes"
        assert len(lines) == 1 + len(led.supersteps) * 1


class TestAcceleration:
    def _ledgers(self, fraction):
        net = spec([64, 64, 8], [64, 64], batch=4, T=4)
        machine = small_machine(tiles=40)
        mapping = map_neurons(net, machine, 2)
        act = saturated_activity(net) * fraction
        sparse = simulate_batch(net, mapping, machine, act)
        dense = simulate_batch(net, mapping, machine, None, mode="dense")
        return dense, sparse

    def test_equal_ledgers_give_one(self):
        dense, sparse = self._ledgers(1.0)
        assert acceleration_model(dense, dense) == 1.0
        assert acceleration_model(sparse, sparse) == 1.0

    def test_ratio_value(self):
        dense, sparse = self._ledgers(0.5)
        got = acceleration_model(dense, sparse)
        assert got == pytest.approx(
            dense.total_time_cycles / sparse.total_time_cycles
        )

    def test_monotone_in_activity(self):
        accels = []
        for frac in (1.0, 0.5, 0.25, 0.1, 0.05):
            dense, sparse = self._ledgers(frac)
            accels.append(acceleration_model(dense, sparse))
        assert all(b >= a for a, b in zip(accels, accels[1:]))


class TestWeakScaling:
    def _per_chip(self, batch=8, T=3):
        return spec([48, 32, 32, 4], [16, 8, 8], batch=batch, T=T)

    def test_single_chip_exactly_one(self):
        machine = small_machine(tiles=64, chips=1)
        assert weak_scale_run(self._per_chip(), machine, 2) == 1.0

    def test_multi_chip_slowdown_above_one(self):
        machine = small_machine(tiles=64, chips=4)
        assert weak_scale_run(self._per_chip(), machine, 2) > 1.0

    def test_slowdown_nonincreasing_in_batch(self):
        machine = small_machine(tiles=64, chips=4)
        slow = [
            weak_scale_run(self._per_chip(batch=b), machine, 2)
            for b in (8, 16, 32)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(slow, slow[1:]))

    def test_slowdown_nonincreasing_in_neurons_per_tile(self):
        machine = small_machine(tiles=96, chips=4)
        slow = [
            weak_scale_run(self._per_chip(), machine, npt) for npt in (1, 2, 4)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(slow, slow[1:]))

    def test_unsupported_chip_count(self):
        machine = small_machine(tiles=64, chips=3)
        with pytest.raises(ConfigError):
            weak_scale_run(self._per_chip(), machine, 2)

    def test_chained_spec_structure(self):
        base = self._per_chip()
        chained, chips = chained_spec(base, 3)
        assert chained.layer_sizes == (48, 32, 32, 32, 32, 32, 32, 4)
        assert chips == [0, 0, 1, 1, 2, 2, 2]


class TestFrozenShd2944:
    """Modeled figures of the shd-2944 benchmark network (B=48, T=10,
    capacities at max_activity 0.05) on the default machine at 2 neurons
    per tile, every tensor saturated, on the engine's windows. Any change
    to the sparse cost model moves them."""

    def test_sparse_ledger_totals(self):
        net = network_spec_for(ARCH_PRESETS["shd-2944"], 0.05, 48, 10)
        machine = MachineSpec()
        mapping = map_neurons(net, machine, 2)
        ledger = simulate_batch(net, mapping, machine, saturated_activity(net))
        assert ledger.total_time_cycles == 122132.32032854212
        assert ledger.total_intra_bytes == 374400.0
        assert ledger.total_inter_bytes == 0.0

    def test_windowed_ledger_totals(self):
        # Weight layers 0..3 (live 3, 5, 7, 9) receive 3 + 5 + 7 + 9 = 24
        # forward tensors and return 3 + 5 + 7 = 15 gradient tensors, each
        # (4 * 48 + 8) * 48 = 9600 bytes on the one chip; the dense ledger
        # skips the same work.
        net = network_spec_for(ARCH_PRESETS["shd-2944"], 0.05, 48, 10)
        machine = MachineSpec()
        mapping = map_neurons(net, machine, 2)
        sparse = simulate_batch(net, mapping, machine, saturated_activity(net))
        dense = simulate_batch(net, mapping, machine, None, mode="dense")
        assert sparse.total_intra_bytes == (24 + 15) * 9600
        assert sparse.total_time_cycles == 122132.32032854212
        assert dense.total_time_cycles == 2364718.4

    def test_two_chip_mapping_prices_only_on_its_geometry(self):
        # Packed on 2 x 736 tiles, weight layer 1 (tiles 487..973) spans
        # both chips: the input spikes of its 5 forward steps cross to its
        # chip-1 part, and weight layer 2's gradients of its 5 backward
        # steps to its chip-0 part, 10 * 9600 bytes. Priced on 1 x 1472
        # the same tile ids would all sit on one chip and give the
        # one-chip totals above.
        net = network_spec_for(ARCH_PRESETS["shd-2944"], 0.05, 48, 10)
        two = MachineSpec(tiles_per_chip=736, num_chips=2)
        mapping = map_neurons(net, two, 2)
        ledger = simulate_batch(net, mapping, two, saturated_activity(net))
        assert ledger.total_time_cycles == 123534.50593844328
        assert ledger.total_inter_bytes == 10 * 9600 == 96000.0
        with pytest.raises(ContractViolation, match="736 tiles per chip"):
            simulate_batch(net, mapping, MachineSpec(), saturated_activity(net))

    @pytest.mark.parametrize("chips, slowdown", [
        # priced at T = 14 and 26, the least T at which the 7- and
        # 13-layer chained nets see their input
        (2, 1.0079695812611589),
        (4, 1.0134869859965576),
    ])
    def test_weak_scaling_slowdown(self, chips, slowdown):
        net = network_spec_for(ARCH_PRESETS["shd-2944"], 0.05, 48, 10)
        assert weak_scale_run(net, MachineSpec(num_chips=chips), 2) == slowdown


class TestMachineConfig:
    def test_load(self, tmp_path):
        path = tmp_path / "machine.cfg"
        path.write_text(
            "tiles_per_chip = 64\n"
            "num_chips = 2\n"
            "# a comment\n"
            "inter_chip_cycles_per_8_bytes = 16\n"
        )
        machine = load_machine_config(path)
        assert machine.tiles_per_chip == 64
        assert machine.num_chips == 2
        assert machine.cost.inter_chip_cycles_per_8_bytes == 16.0
        assert machine.sram_per_tile == SRAM  # default preserved

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("tiles_per_chip = 64\nwarp_drive = on\n")
        with pytest.raises(ConfigError):
            load_machine_config(path)

    def test_every_field_round_trips(self, tmp_path):
        def flat(machine):
            values = asdict(machine)
            values.update(values.pop("cost"))
            return values

        want = MachineSpec(
            tiles_per_chip=64, sram_per_tile=12345, num_chips=3,
            cost=CostParams(
                cycles_per_mac=1.5, cycles_per_state_update=3.25,
                intra_chip_cycles_per_8_bytes=2.0, inter_chip_cycles_per_8_bytes=16.5,
                sync_cycles_per_superstep=7.0,
            ),
        )
        values, default = flat(want), flat(MachineSpec())
        assert len(values) == len(fields(MachineSpec)) - 1 + len(fields(CostParams))
        assert all(values[k] != default[k] for k in values)
        path = tmp_path / "machine.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        got = load_machine_config(path)
        assert got == want
        assert all(type(v) is type(values[k]) for k, v in flat(got).items())

    @pytest.mark.parametrize("line", ["tiles_per_chp = 64", "cycles_per_macs = 2", "cost = 1"])
    def test_misspelled_key_names_itself(self, tmp_path, line):
        path = tmp_path / "machine.cfg"
        path.write_text(f"num_chips = 2\n{line}\n")
        key = line.split(" ")[0]
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            load_machine_config(path)

    def test_zero_costs_are_valid(self):
        # A free sync or a free MAC prices a limit case, not an error.
        CostParams(cycles_per_mac=0.0, cycles_per_state_update=0.0,
                   sync_cycles_per_superstep=0.0)

    def test_cost_invariant(self):
        with pytest.raises(ConfigError):
            CostParams(
                intra_chip_cycles_per_8_bytes=4.0,
                inter_chip_cycles_per_8_bytes=2.0,
            )

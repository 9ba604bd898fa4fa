"""The all-steps-at-once ledger against its step-at-a-time reference
(`ledger_oracle`), on the engine's windows: the same supersteps, field for
field and byte for byte, or the same error."""

import itertools

import numpy as np
import pytest

import ledger_oracle as oracle
from sparsnn import machine
from sparsnn.bench import ARCH_PRESETS, network_spec_for
from sparsnn.errors import ConfigError, OutOfTileMemory
from sparsnn.machine import CostParams, MachineSpec, map_neurons, saturated_activity

# (chips, tiles per chip, SRAM per tile): the default chip, machines that
# fit shd-2944 only across chips or not at all, small ones that fit only
# `tiny`, and one whose SRAM is too small for shd-2944's fan-in.
MACHINES = [(1, 1472, 624 * 1024), (2, 1000, 624 * 1024), (4, 600, 624 * 1024),
            (1, 40, 624 * 1024), (2, 40, 624 * 1024), (4, 8, 624 * 1024),
            (1, 1472, 32 * 1024)]
COST = CostParams(sync_cycles_per_superstep=50.0, inter_chip_cycles_per_8_bytes=6.0)


def outcome(fn):
    """The fields of every superstep of the ledger `fn` returns, or the
    type and message of the error it raises."""
    try:
        ledger = fn()
    except (ConfigError, OutOfTileMemory) as err:
        return type(err), str(err)
    return [
        (s.index, s.timestep, s.phase, s.time_cycles, s.chip_cycles.tobytes(),
         s.chip_intra_bytes.tobytes(), s.chip_inter_bytes.tobytes())
        for s in ledger.supersteps
    ]


def layouts(weight_layers, chips):
    """Unpinned, then the distinct ones of three pinned chip-per-layer
    layouts."""
    pinned = {
        tuple(l % chips for l in range(weight_layers)),
        tuple((chips - 1 - l) % chips for l in range(weight_layers)),
        (0,) * (weight_layers - 1) + (chips - 1,),
    }
    return [None] + [list(p) for p in sorted(pinned)]


def activities(spec, gen):
    """(mode, activity, grad_activity): saturated, random fractional with
    its own gradient counts, and dense."""
    sat = saturated_activity(spec)
    yield "sparse", sat, None
    yield "sparse", sat * gen.random(sat.shape), sat * gen.random(sat.shape)
    yield "dense", None, None


@pytest.mark.parametrize("preset", ["tiny", "shd-2944"])
def test_ledger_equals_step_at_a_time_reference(preset):
    gen = np.random.default_rng(0)
    spec = network_spec_for(ARCH_PRESETS[preset], 0.2, 4, 10)
    kinds = set()
    for (chips, tiles, sram), npt in itertools.product(MACHINES, (1, 2, 4)):
        mach = MachineSpec(tiles_per_chip=tiles, sram_per_tile=sram, num_chips=chips,
                           cost=COST)
        for layer_chips, (mode, act, grad) in itertools.product(
            layouts(spec.num_weight_layers, chips), activities(spec, gen)
        ):
            def run(simulate):
                mapping = map_neurons(spec, mach, npt, layer_chips=layer_chips)
                return simulate(spec, mapping, mach, act, mode, grad)

            want = outcome(lambda: run(oracle.simulate_batch))
            assert outcome(lambda: run(machine.simulate_batch)) == want, (
                chips, tiles, sram, npt, layer_chips, mode,
            )
            kinds.add(want[0] if isinstance(want, tuple) else
                      any(s[2].endswith("-exchange") for s in want))
    # The grid prices ledgers with and without inter-chip supersteps, and
    # meets both errors.
    assert {True, False, ConfigError} <= kinds
    assert preset == "tiny" or OutOfTileMemory in kinds


@pytest.mark.parametrize("chips", [2, 4, 8])
def test_weak_scaling_equals_reference(chips):
    net = network_spec_for(ARCH_PRESETS["tiny"], 0.05, 48, 10)
    mach = MachineSpec(num_chips=chips, cost=COST)
    assert machine.weak_scale_run(net, mach, 2) == oracle.weak_scale_run(net, mach, 2)

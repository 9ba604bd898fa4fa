"""Command line interface: train / bench / simulate / gradcheck / gen-data.

Options resolve in three layers: built-in defaults, then a flat key=value
--config file (keys are the long option names with underscores), then
explicit command-line flags. Unknown config keys are rejected.

Exit codes: 0 success, 1 failed check, diverged training (a non-finite
loss or gradient) or unexpected error, 2 configuration error, 3 data
error, 4 out of tile memory.
"""

from __future__ import annotations

import os

# Pin BLAS pools to one thread before numpy loads: a threaded BLAS may split
# its sums differently on machines with other core counts, and reproducible
# dense results beat a faster dense baseline.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bench import (
    ARCH_PRESETS,
    BenchConfig,
    SPARSITY_COLUMNS,
    network_spec_for,
    scaleup_sweep,
    sparsity_sweep,
    weak_scaling_sweep,
    write_rows_csv,
)
from .config import coerce, load_flat_config
from .engine import train_epoch
from .errors import ConfigError, DataFormatError, NonFiniteStep, OutOfTileMemory
from .events import (
    SpikeDataset,
    load_dataset,
    sparse_hidden_size,
    synth_pattern_dataset,
    write_dataset,
)
from .lif import NetworkSpec
from .machine import (
    MachineSpec,
    load_machine_config,
    map_neurons,
    saturated_activity,
    simulate_batch,
    acceleration_model,
)
from .model import init_network, save_checkpoint
from .optim import make_optimizer
from .validate import run_gradcheck_suite

_COMMON = {
    "config": (str, None, "flat key=value config file"),
    "seed": (int, 42, "random seed"),
    "out_dir": (str, None, "output directory (default runs/<timestamp>)"),
}

_OPTIONS = {
    "train": {
        **_COMMON,
        "data": (str, None, "dataset manifest.csv (or its directory)"),
        "layers": (str, None, "comma-separated layer sizes, input first"),
        "preset": (str, None, f"architecture preset {sorted(ARCH_PRESETS)}"),
        "mode": (str, "dense", "execution path", ("dense", "sparse")),
        "max_activity": (float, 0.1, "spike-tensor capacity fraction"),
        "epochs": (int, 1, "training epochs"),
        "batch_size": (int, 48, "samples per batch"),
        "timesteps": (int, 50, "simulation steps per sequence"),
        "bin_width": (int, 1000, "event bin width in microseconds"),
        "optimizer": (str, "adam", "weight update rule", ("sgd", "adam")),
        "lr": (float, 1e-3, "learning rate"),
        "alpha": (float, 0.9, "membrane decay"),
        "threshold": (float, 1.0, "firing threshold"),
        "grad_threshold": (float, 0.75, "secondary (gradient) threshold"),
        "beta": (float, 10.0, "surrogate steepness"),
        "weight_gain": (float, 3.0, "init scale: gain/sqrt(fan_in)"),
        "reset_grad": (bool, True, "gradients flow through the reset"),
        "simulate_tiles": (bool, False, "validate the tile memory budget"),
        "neurons_per_tile": (int, 2, "tile mapping density"),
        "chips": (int, 1, "number of chips"),
        "machine_config": (str, None, "machine/cost key=value file"),
    },
    "bench": {
        **_COMMON,
        "sweep": (str, "sparsity", "which sweep", ("sparsity", "scaleup", "weak")),
        "preset": (str, "shd-2944", "architecture preset"),
        "max_activity": (float, 0.05, "capacity fraction for scaleup/weak"),
        "activity_grid": (str, "1.0,0.5,0.2,0.1,0.05,0.02", "sparsity grid"),
        "per_tile_grid": (str, "2,4,8,16", "neurons-per-tile grid"),
        "chip_grid": (str, "1,2,4,8,16", "weak-scaling chip counts"),
        "batch_grid": (str, "48,96,192", "weak-scaling batch sizes"),
        "batch_size": (int, 48, "samples per batch"),
        "timesteps": (int, 10, "steps per sequence"),
        "repetitions": (int, 2, "timing repetitions (first discarded)"),
        "neurons_per_tile": (int, 2, "tile mapping density"),
        "chips": (int, 1, "number of chips"),
        "machine_config": (str, None, "machine/cost key=value file"),
    },
    "simulate": {
        **_COMMON,
        "preset": (str, "shd-2944", "architecture preset"),
        "max_activity": (float, 0.05, "capacity fraction"),
        "activity": (str, "fixed", "modeled activity", ("zero", "fixed")),
        "batch_size": (int, 48, "samples per batch"),
        "timesteps": (int, 10, "steps per sequence"),
        "neurons_per_tile": (int, 2, "tile mapping density"),
        "chips": (int, 1, "number of chips"),
        "machine_config": (str, None, "machine/cost key=value file"),
    },
    "gradcheck": {
        **_COMMON,
        "nets": (int, 20, "number of random tiny networks"),
        "eps": (float, 1e-3, "finite-difference step"),
        "tolerance": (float, 1e-3, "pass threshold on relative error"),
    },
    "gen-data": {
        **_COMMON,
        "classes": (int, 10, "number of classes"),
        "input_size": (int, 128, "input channels"),
        "samples_per_class": (int, 20, "samples per class"),
        "timesteps": (int, 50, "template length in bins"),
        "noise": (float, 0.01, "noise event rate"),
        "template_density": (float, 0.05, "template events per channel-step"),
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsnn",
        description="sparse spiking network training and tile-machine modeling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in _OPTIONS.items():
        p = sub.add_parser(command)
        for name, spec in options.items():
            kind, default, help_text = spec[0], spec[1], spec[2]
            choices = spec[3] if len(spec) > 3 else None
            flag = "--" + name.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, type=str, choices=("on", "off"),
                               default=None, help=help_text)
            else:
                p.add_argument(flag, type=str, choices=choices, default=None,
                               help=help_text)
    return parser


def _resolve(command: str, args: argparse.Namespace) -> dict:
    """Defaults < config file < explicit flags, with type coercion."""
    options = _OPTIONS[command]
    from_file = {}
    if args.config is not None:
        from_file = load_flat_config(args.config, allowed_keys=set(options))
    resolved = {}
    for name, spec in options.items():
        kind, default = spec[0], spec[1]
        cli_value = getattr(args, name)
        if cli_value is not None:
            resolved[name] = coerce(cli_value, kind)
        elif name in from_file:
            resolved[name] = coerce(from_file[name], kind)
            # argparse checks the choices of flags only
            if len(spec) > 3 and resolved[name] not in spec[3]:
                raise ConfigError(f"{name}={resolved[name]!r} not one of {spec[3]}")
        else:
            resolved[name] = default
    return resolved


def _out_dir(opts: dict) -> Path:
    path = opts["out_dir"]
    if path is None:
        path = Path("runs") / time.strftime("%Y%m%d-%H%M%S")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _echo_config(opts: dict, out: Path) -> None:
    lines = [f"{key}={opts[key]}" for key in sorted(opts)]
    (out / "config.txt").write_text("\n".join(lines) + "\n")


def _machine_from(opts: dict) -> MachineSpec:
    """The --machine-config machine (default: MachineSpec()); a --chips
    other than its default 1 overrides the chip count."""
    machine = (
        load_machine_config(opts["machine_config"])
        if opts["machine_config"]
        else MachineSpec()
    )
    if opts["chips"] != 1:
        machine = replace(machine, num_chips=opts["chips"])
    return machine


def _layer_sizes(opts: dict) -> tuple:
    if opts.get("layers"):
        try:
            return tuple(int(x) for x in opts["layers"].split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --layers value {opts['layers']!r}") from exc
    if opts.get("preset"):
        preset = opts["preset"]
        if preset not in ARCH_PRESETS:
            raise ConfigError(f"unknown preset {preset!r}")
        return tuple(ARCH_PRESETS[preset].layer_sizes)
    raise ConfigError("need --layers or --preset")


def cmd_train(opts: dict) -> int:
    if not opts["data"]:
        raise ConfigError("train needs --data pointing at a dataset manifest")
    manifest = Path(opts["data"])
    if manifest.is_dir():
        manifest = manifest / "manifest.csv"
    streams = load_dataset(manifest)
    layers = _layer_sizes(opts)
    if streams[0].num_channels != layers[0]:
        raise DataFormatError(
            f"dataset has {streams[0].num_channels} channels but the input "
            f"layer expects {layers[0]}"
        )
    T = opts["timesteps"]
    dataset = SpikeDataset.from_streams(streams, T, opts["bin_width"])
    sparse_sizes = [sparse_hidden_size(opts["max_activity"], n) for n in layers[:-1]]
    spec = NetworkSpec(
        layer_sizes=layers,
        sparse_sizes=sparse_sizes,
        batch_size=opts["batch_size"],
        num_timesteps=T,
    )
    net = init_network(
        spec,
        seed=opts["seed"],
        alpha=opts["alpha"],
        threshold=opts["threshold"],
        grad_threshold=opts["grad_threshold"],
        beta=opts["beta"],
        weight_gain=opts["weight_gain"],
    )
    if opts["simulate_tiles"]:
        machine = _machine_from(opts)
        mapping = map_neurons(spec, machine, opts["neurons_per_tile"])
        print(
            f"tile mapping ok: {mapping.tiles_used} tiles, "
            f"max {int(mapping.per_tile_bytes.max())} bytes/tile"
        )
    out = _out_dir(opts)
    _echo_config(opts, out)
    opt_state = make_optimizer(opts["optimizer"], opts["lr"])
    rows = []
    for epoch in range(opts["epochs"]):
        metrics = train_epoch(
            net,
            dataset,
            opt_state,
            mode=opts["mode"],
            drop_seed=opts["seed"],
            epoch_index=epoch,
            reset_grad=opts["reset_grad"],
        )
        rows.append(
            {"epoch": epoch, "loss": metrics.mean_loss, "accuracy": metrics.accuracy}
        )
        print(
            f"epoch {epoch}: loss={metrics.mean_loss:.6f} "
            f"accuracy={metrics.accuracy:.4f}"
        )
    write_rows_csv(rows, out / "metrics.csv", ("epoch", "loss", "accuracy"))
    save_checkpoint(out / "checkpoint.bin", net, opt_state, seed=opts["seed"])
    print(f"wrote {out / 'metrics.csv'} and {out / 'checkpoint.bin'}")
    return 0


def _grid(text: str, kind) -> list:
    try:
        return [kind(x) for x in str(text).split(",") if x != ""]
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}") from exc


def cmd_bench(opts: dict) -> int:
    out = _out_dir(opts)
    _echo_config(opts, out)
    config = BenchConfig(
        max_activity=opts["max_activity"],
        preset=opts["preset"],
        batch_size=opts["batch_size"],
        num_timesteps=opts["timesteps"],
        repetitions=opts["repetitions"],
        seed=opts["seed"],
        neurons_per_tile=opts["neurons_per_tile"],
        machine=_machine_from(opts),
    )
    if opts["sweep"] == "sparsity":
        rows = sparsity_sweep(config, _grid(opts["activity_grid"], float))
        path = out / "sparsity.csv"
        write_rows_csv(rows, path, SPARSITY_COLUMNS)
    elif opts["sweep"] == "scaleup":
        rows = scaleup_sweep(config, _grid(opts["per_tile_grid"], int))
        path = out / "scaleup.csv"
        write_rows_csv(rows, path)
    else:
        rows = weak_scaling_sweep(
            config,
            _grid(opts["chip_grid"], int),
            _grid(opts["batch_grid"], int),
            _grid(opts["per_tile_grid"], int),
        )
        path = out / "weak_scaling.csv"
        write_rows_csv(rows, path)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_simulate(opts: dict) -> int:
    out = _out_dir(opts)
    _echo_config(opts, out)
    machine = _machine_from(opts)
    spec = network_spec_for(
        BenchConfig(
            preset=opts["preset"],
            max_activity=opts["max_activity"],
            batch_size=opts["batch_size"],
            num_timesteps=opts["timesteps"],
        )
    )
    mapping = map_neurons(spec, machine, opts["neurons_per_tile"])
    activity = (
        np.zeros((spec.num_timesteps, len(spec.layer_sizes)))
        if opts["activity"] == "zero"
        else saturated_activity(spec)
    )
    sparse_ledger = simulate_batch(spec, mapping, machine, activity)
    dense_ledger = simulate_batch(spec, mapping, machine, None, mode="dense")
    sparse_ledger.write_csv(out / "ledger.csv")
    print(
        f"modeled sparse time: {sparse_ledger.total_time_cycles:.0f} cycles, "
        f"dense: {dense_ledger.total_time_cycles:.0f}, "
        f"acceleration: {acceleration_model(dense_ledger, sparse_ledger):.3f}"
    )
    print(f"wrote {out / 'ledger.csv'}")
    return 0


def cmd_gradcheck(opts: dict) -> int:
    worst, errors = run_gradcheck_suite(
        num_nets=opts["nets"], eps=opts["eps"], seed=opts["seed"]
    )
    for k, err in enumerate(errors):
        print(f"net {k}: max_rel_err={err:.3e}")
    tol = opts["tolerance"]
    if worst < tol:
        print(f"PASS max_rel_err={worst:.3e} < {tol:g}")
        return 0
    print(f"FAIL max_rel_err={worst:.3e} >= {tol:g}")
    return 1


def cmd_gen_data(opts: dict) -> int:
    out = _out_dir(opts)
    streams = synth_pattern_dataset(
        opts["classes"],
        opts["input_size"],
        opts["samples_per_class"],
        opts["timesteps"],
        noise_rate=opts["noise"],
        seed=opts["seed"],
        template_density=opts["template_density"],
    )
    manifest = write_dataset(streams, out)
    _echo_config(opts, out)
    print(f"wrote {len(streams)} samples, manifest {manifest}")
    return 0


_HANDLERS = {
    "train": cmd_train,
    "bench": cmd_bench,
    "simulate": cmd_simulate,
    "gradcheck": cmd_gradcheck,
    "gen-data": cmd_gen_data,
}


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
    except BrokenPipeError:
        # As the Python `signal` docs advise: point stdout at devnull, so
        # that the flush at interpreter exit has somewhere to write.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before all output was written", file=sys.stderr)
        return 1
    return code


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        opts = _resolve(args.command, args)
        return _HANDLERS[args.command](opts)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OutOfTileMemory as exc:
        print(f"out of tile memory: {exc}", file=sys.stderr)
        return 4
    except NonFiniteStep as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command line interface: train / bench / simulate / gradcheck / gen-data.

Options resolve in three layers: built-in defaults, then a flat key=value
--config file (keys are the long option names with underscores), then
explicit command-line flags. Unknown config keys are rejected. A value
given either way is typed and checked against its choices in one place,
`_resolve`, and a command makes its output directory only once every
value it checks has passed (`_out_dir`).

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
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

from .bench import (
    ARCH_PRESETS,
    ArchPreset,
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
    BIN_WIDTH_US,
    MAX_CHANNELS,
    MAX_TIMESTEPS,
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

# Each option is (type, default, help) or (type, default, help, choices).
_CONFIG = {"config": (str, None, "flat key=value config file")}
_SEED = {"seed": (int, 42, "random seed")}
_OUT_DIR = {"out_dir": (str, None, "output directory (default runs/<timestamp>)")}
_PRESETS = tuple(sorted(ARCH_PRESETS))
_FLOAT32_MAX = 3.4028234663852886e38  # the largest float32, bound of every float option

_OPTIONS = {
    "train": {
        **_CONFIG, **_SEED, **_OUT_DIR,
        "data": (str, None, "dataset manifest.csv (or its directory)"),
        "layers": (str, None, "comma-separated layer sizes, input first"),
        "preset": (str, None, "architecture preset", _PRESETS),
        "mode": (str, "dense", "execution path", ("dense", "sparse")),
        "max_activity": (float, 0.1, "spike capacity fraction of the hidden "
                         "layers, and of a --layers net's input"),
        "epochs": (int, 1, "training epochs"),
        "batch_size": (int, 48, "samples per batch"),
        "timesteps": (int, 50, "simulation steps per sequence"),
        "bin_width": (int, BIN_WIDTH_US, "event bin width in microseconds"),
        "optimizer": (str, "adam", "weight update rule", ("sgd", "adam")),
        "lr": (float, 1e-3, "learning rate"),
        "alpha": (float, 0.9, "membrane decay"),
        "threshold": (float, 1.0, "firing threshold"),
        "grad_threshold": (float, 0.75, "secondary (gradient) threshold"),
        "beta": (float, 10.0, "surrogate steepness"),
        "weight_gain": (float, 3.0, "init scale: gain/sqrt(fan_in)"),
        "reset_grad": (bool, True, "gradients flow through the reset (on or off)"),
    },
    "bench": {
        **_CONFIG, **_OUT_DIR,
        "seed": (int, 42, "seed of the sparsity probe's weights, data and drops"),
        "sweep": (str, "sparsity", "which sweep", ("sparsity", "scaleup", "weak")),
        "preset": (str, "shd-2944", "architecture preset for sparsity/weak; "
                   "scaleup takes shd-2944 only", _PRESETS),
        "max_activity": (float, 0.05, "capacity fraction for scaleup/weak"),
        "activity_grid": (str, "1.0,0.5,0.2,0.1,0.05,0.02", "sparsity grid"),
        "per_tile_grid": (str, "2,4,8,16", "neurons-per-tile grid for scaleup/weak"),
        "chip_grid": (str, "1,2,4,8,16", "weak-scaling chip counts"),
        "batch_grid": (str, "48,96,192", "weak-scaling batch sizes"),
        "batch_size": (int, 48, "samples per batch for sparsity/scaleup"),
        "timesteps": (int, 10, "steps per sequence (scaleup/weak: at least 2L)"),
        "neurons_per_tile": (int, 2, "tile mapping density for sparsity"),
        "chips": (int, None, "number of chips (default: the machine's)"),
        "machine_config": (str, None, "machine/cost key=value file"),
    },
    "simulate": {
        **_CONFIG, **_OUT_DIR,
        "preset": (str, "shd-2944", "architecture preset", _PRESETS),
        "max_activity": (float, 0.05, "capacity fraction"),
        "batch_size": (int, 48, "samples per batch"),
        "timesteps": (int, 10, "steps per sequence"),
        "neurons_per_tile": (int, 2, "tile mapping density"),
        "chips": (int, None, "number of chips (default: the machine's)"),
        "machine_config": (str, None, "machine/cost key=value file"),
    },
    "gradcheck": {
        **_CONFIG, **_SEED,
        "nets": (int, 20, "number of random tiny networks"),
        "eps": (float, 1e-3, "finite-difference step"),
        "tolerance": (float, 1e-3, "pass threshold on relative error"),
    },
    "gen-data": {
        **_CONFIG, **_SEED, **_OUT_DIR,
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
        for name, (_, _, help_text, *choices) in options.items():
            if choices:
                help_text += f" (one of: {', '.join(choices[0])})"
            p.add_argument("--" + name.replace("_", "-"), help=help_text)
    return parser


def _resolve(command: str, args: argparse.Namespace) -> dict:
    """Defaults < config file < explicit flags. Every value given, as a
    flag or a config key, gets its type and is checked against its choices
    here, as are the bounds of seed, epochs and tolerance, which no later
    code checks, and the upper bounds of timesteps, input size and the
    magnitude of a finite float, which must hold before a command draws,
    casts or allocates; argparse hands over strings only."""
    options = _OPTIONS[command]
    from_file = {}
    if args.config is not None:
        from_file = load_flat_config(args.config, allowed_keys=set(options))
    resolved = {}
    for name, (kind, default, _, *choices) in options.items():
        text = getattr(args, name)
        if text is None:
            text = from_file.get(name)
        if text is None:
            resolved[name] = default
            continue
        value = resolved[name] = coerce(text, kind)
        if choices and value not in choices[0]:
            raise ConfigError(f"{name}={value!r} not one of {choices[0]}")
        if kind is float and _FLOAT32_MAX < abs(value) < math.inf:
            raise ConfigError(f"{name}={value!r} does not fit float32")
    for name in ("seed", "epochs"):
        if resolved.get(name, 0) < 0:
            raise ConfigError(f"{name} must be >= 0, got {resolved[name]}")
    for name, bound in (("timesteps", MAX_TIMESTEPS), ("input_size", MAX_CHANNELS)):
        if resolved.get(name, 0) > bound:
            raise ConfigError(f"{name} must be <= {bound}, got {resolved[name]}")
    if not 0 < resolved.get("tolerance", 1) < math.inf:
        raise ConfigError(f"tolerance must be finite and > 0, got {resolved['tolerance']}")
    return resolved


def _out_dir(opts: dict) -> Path:
    """Make the output directory and record the resolved options in its
    config.txt; called once per command, after every check."""
    path = opts["out_dir"]
    if path is None:
        path = Path("runs") / time.strftime("%Y%m%d-%H%M%S")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    lines = [f"{key}={opts[key]}" for key in sorted(opts)]
    (path / "config.txt").write_text("\n".join(lines) + "\n")
    return path


def _machine_from(opts: dict) -> MachineSpec:
    """The --machine-config machine (default: MachineSpec()), with the
    chip count of --chips when it is given."""
    machine = (
        load_machine_config(opts["machine_config"])
        if opts["machine_config"]
        else MachineSpec()
    )
    if opts["chips"] is not None:
        machine = replace(machine, num_chips=opts["chips"])
    return machine


def _arch(opts: dict) -> ArchPreset:
    """The --layers net (input capacity as a hidden layer's), else --preset's."""
    if opts["layers"]:
        try:
            layers = tuple(int(x) for x in opts["layers"].split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --layers value {opts['layers']!r}") from exc
        return ArchPreset(layers, sparse_hidden_size(opts["max_activity"], layers[0]))
    if opts["preset"]:
        return ARCH_PRESETS[opts["preset"]]
    raise ConfigError("need --layers or --preset")


def _receptive_frames(spec: NetworkSpec) -> str:
    """The report line of the input frames that reach the loss. A net that
    none reaches can neither learn nor be priced, and is rejected."""
    frames, T = spec.receptive_frames, spec.num_timesteps
    if frames == 0:
        raise ConfigError(
            f"no input frame reaches the loss in {T} timesteps through "
            f"{spec.num_weight_layers} weight layers (two steps of delay per hidden layer)"
        )
    return f"receptive frames: {frames} of {T} input frames reach the loss"


def cmd_train(opts: dict) -> int:
    if not opts["data"]:
        raise ConfigError("train needs --data pointing at a dataset manifest")
    manifest = Path(opts["data"])
    if manifest.is_dir():
        manifest = manifest / "manifest.csv"
    streams = load_dataset(manifest)
    arch = _arch(opts)
    layers = arch.layer_sizes
    if streams[0].num_channels != layers[0]:
        raise DataFormatError(
            f"dataset has {streams[0].num_channels} channels but the input "
            f"layer expects {layers[0]}"
        )
    T = opts["timesteps"]
    dataset = SpikeDataset.from_streams(streams, T, opts["bin_width"])
    label, samples = dataset.labels.max(), len(dataset.labels)
    if label >= layers[-1]:
        raise DataFormatError(f"label {label} needs more than {layers[-1]} outputs")
    spec = network_spec_for(arch, opts["max_activity"], opts["batch_size"], T)
    if spec.batch_size > samples:
        raise ConfigError(f"batch size {spec.batch_size} exceeds the {samples} samples")
    receptive = _receptive_frames(spec)
    net = init_network(
        spec,
        seed=opts["seed"],
        alpha=opts["alpha"],
        threshold=opts["threshold"],
        grad_threshold=opts["grad_threshold"],
        beta=opts["beta"],
        weight_gain=opts["weight_gain"],
    )
    opt_state = make_optimizer(opts["optimizer"], opts["lr"])
    out = _out_dir(opts)
    print(receptive)
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
    config = BenchConfig(
        max_activity=opts["max_activity"],
        preset=opts["preset"],
        batch_size=opts["batch_size"],
        num_timesteps=opts["timesteps"],
        seed=opts["seed"],
        neurons_per_tile=opts["neurons_per_tile"],
        machine=_machine_from(opts),
    )
    columns = None
    if opts["sweep"] == "sparsity":
        _receptive_frames(config.spec)
        rows = sparsity_sweep(config, _grid(opts["activity_grid"], float))
        name, columns = "sparsity.csv", SPARSITY_COLUMNS
    elif opts["sweep"] == "scaleup":
        rows = scaleup_sweep(config, _grid(opts["per_tile_grid"], int))
        name = "scaleup.csv"
    else:
        rows = weak_scaling_sweep(
            config,
            _grid(opts["chip_grid"], int),
            _grid(opts["batch_grid"], int),
            _grid(opts["per_tile_grid"], int),
        )
        name = "weak_scaling.csv"
    if not rows and columns is None:
        raise ConfigError(f"the {opts['sweep']} sweep has an empty grid")
    path = _out_dir(opts) / name
    write_rows_csv(rows, path, columns)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_simulate(opts: dict) -> int:
    machine = _machine_from(opts)
    arch = ARCH_PRESETS[opts["preset"]]
    spec = network_spec_for(
        arch, opts["max_activity"], opts["batch_size"], opts["timesteps"]
    )
    receptive = _receptive_frames(spec)
    mapping = map_neurons(spec, machine, opts["neurons_per_tile"])
    sparse_ledger = simulate_batch(spec, mapping, machine, saturated_activity(spec))
    dense_ledger = simulate_batch(spec, mapping, machine, None, mode="dense")
    out = _out_dir(opts)
    sparse_ledger.write_csv(out / "ledger.csv")
    print(receptive)
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
    streams = synth_pattern_dataset(
        opts["classes"],
        opts["input_size"],
        opts["samples_per_class"],
        opts["timesteps"],
        noise_rate=opts["noise"],
        seed=opts["seed"],
        template_density=opts["template_density"],
    )
    manifest = write_dataset(streams, _out_dir(opts))
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

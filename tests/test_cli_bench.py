"""Smoke tests of the benchmark protocol and the command line."""

import csv
import io
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import encode_oracle as oracle
from sparsnn import cli
from sparsnn.bench import (
    ARCH_PRESETS,
    FIXED,
    NATURAL,
    SPARSITY_COLUMNS,
    BenchConfig,
    bench_dataset,
    collect_activity,
    network_spec_for,
    run_benchmark,
    scaleup_sweep,
    weak_scaling_sweep,
)
from sparsnn.engine import SPARSE, forward_pass
from sparsnn.errors import DataFormatError
from sparsnn.events import MAX_CHANNELS, MAX_TIMESTEPS, EventStream, load_dataset, write_events
from sparsnn.machine import MachineSpec, map_neurons, simulate_batch
from sparsnn.model import init_network, load_checkpoint
from sparsnn.rng import DropRng


@pytest.mark.parametrize("mode", [FIXED, NATURAL])
def test_run_benchmark_tiny(mode):
    config = BenchConfig(mode=mode, preset="tiny", max_activity=0.25)
    row = run_benchmark(config)
    # A row has the sweep's columns, in order, so it and the header that an
    # empty grid writes cannot drift apart.
    assert tuple(row) == SPARSITY_COLUMNS
    # A finite modeled_accel means the sparse ledger's time is > 0.
    assert math.isfinite(row["modeled_accel"]) and row["modeled_accel"] > 0
    # The probe that feeds the ledger: forced spikes fill every hidden
    # capacity over the live steps; free dynamics stay at or below it, and
    # on this preset leave every hidden layer silent.
    spec = config.spec
    frames = bench_dataset(config)
    net = init_network(spec, seed=config.seed)
    trace, _ = forward_pass(net, frames, SPARSE, DropRng(config.seed, 0), force_spikes=mode == FIXED)
    act, _ = collect_activity(spec, trace)
    hidden = tuple(float(act[:, k].sum() / spec.live_steps(k)) for k in (1, 2))
    capacities = network_spec_for(ARCH_PRESETS["tiny"], 0.25, 48, 10).sparse_sizes[1:]
    assert all(0.0 <= s <= c for s, c in zip(hidden, capacities))
    if mode == FIXED:
        assert hidden == capacities
        assert row["valid"] is True
    else:
        assert hidden == (0.0, 0.0)
        assert row["valid"] is False


def test_ledger_prices_the_networks_own_activity():
    # The engine stops weight layer l's current after step live(l), so the
    # spikes its trace records later are not those of a full forward pass.
    # `collect_activity` reads only the earlier steps, so it and the ledger
    # it feeds equal the full pass's, byte for byte.
    spec = network_spec_for(ARCH_PRESETS["tiny"], 0.25, 48, 10)
    net = init_network(spec, seed=3, weight_gain=20.0)
    inputs = (np.random.default_rng(3).random((spec.batch_size, 10, 32)) < 0.3).astype(np.float32)
    got, _ = forward_pass(net, inputs, mode=SPARSE, rng=DropRng(3))
    want, _ = oracle.forward_pass(net, inputs, SPARSE, rng=DropRng(3))
    recorded = [[b.num_spikes.tobytes() for b in sent] for sent in (got.sent[2], want.sent[2])]
    assert recorded[0] != recorded[1]
    machine = MachineSpec()
    mapping = map_neurons(spec, machine, 2)
    ledgers = []
    for trace in (got, want):
        act, grad = collect_activity(spec, trace)
        assert np.all(act[:, 1:3].sum(axis=0) > 0)  # both hidden layers fire
        ledger = simulate_batch(spec, mapping, machine, act, grad_activity=grad)
        ledgers.append((act.tobytes(), grad.tobytes(), ledger.total_time_cycles))
    assert ledgers[0] == ledgers[1]


def test_sparsity_sweep_marks_silent_rows_invalid(tmp_path):
    assert cli.main([
        "bench", "--preset", "tiny", "--sweep", "sparsity", "--activity-grid", "0.25,0.5",
        "--batch-size", "8", "--out-dir", str(tmp_path),
    ]) == 0
    with open(tmp_path / "sparsity.csv", newline="") as f:
        rows = [(row["mode"], row["valid"]) for row in csv.DictReader(f)]
    assert rows == [(FIXED, "True")] * 2 + [(NATURAL, "False")] * 2
    # Every column is modeled, so the file is a pure function of the flags.
    assert (tmp_path / "sparsity.csv").read_bytes() == b"".join(line + b"\r\n" for line in [
        b"mode,max_activity,communication_sparsity,modeled_accel,valid,timesteps,receptive_frames",
        b"fixed_activity,0.25,0.75,3.139329617876857,True,10,5",
        b"fixed_activity,0.5,0.5,1.8311169178604203,True,10,5",
        b"natural_activity,0.25,0.75,9.889006137159477,False,10,5",
        b"natural_activity,0.5,0.5,9.889006137159477,False,10,5",
    ])


def test_sparsity_rows_state_timesteps_and_receptive_frames(tmp_path):
    assert cli.main([
        "bench", "--preset", "tiny", "--sweep", "sparsity", "--activity-grid", "0.5",
        "--batch-size", "8", "--timesteps", "8", "--out-dir", str(tmp_path),
    ]) == 0
    with open(tmp_path / "sparsity.csv", newline="") as f:
        rows = [(row["timesteps"], row["receptive_frames"]) for row in csv.DictReader(f)]
    # Three weight layers at 8 steps: frames 0..2 reach the loss.
    assert rows == [("8", "3")] * 2


def test_gen_data_then_sparse_train(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli.main([
        "gen-data", "--out-dir", str(data), "--classes", "2", "--input-size", "16",
        "--samples-per-class", "4", "--timesteps", "10", "--template-density", "0.2",
    ]) == 0
    assert (data / "manifest.csv").is_file()

    run = tmp_path / "run"
    capsys.readouterr()
    assert cli.main([
        "train", "--data", str(data), "--layers", "16,8,2", "--mode", "sparse",
        "--max-activity", "0.5", "--batch-size", "4", "--timesteps", "10",
        "--epochs", "2", "--out-dir", str(run),
    ]) == 0
    # Two weight layers at 10 steps: frames 0..6 reach the loss.
    assert "receptive frames: 7 of 10 input frames reach the loss\n" in capsys.readouterr().out
    for name in ("config.txt", "metrics.csv", "checkpoint.bin"):
        assert (run / name).is_file()
    rows = (run / "metrics.csv").read_text().splitlines()
    assert rows[0] == "epoch,loss,accuracy" and len(rows) == 3
    assert all(np.isfinite(float(r.split(",")[1])) for r in rows[1:])


@pytest.mark.parametrize("preset, classes, sizes", [
    ("tiny", 4, (8, 6, 6)),
    ("shd-2944", 20, (48, 96, 96, 96)),
])
def test_train_preset_has_benchs_capacities(tmp_path, preset, classes, sizes):
    # One capacity rule for every command: a preset's input boundary keeps
    # its dataset's capacity, and only the hidden ones follow the default
    # --max-activity 0.1, as in `bench` and `simulate`.
    arch = ARCH_PRESETS[preset]
    data, run = tmp_path / "data", tmp_path / "run"
    assert cli.main([
        "gen-data", "--out-dir", str(data), "--classes", str(classes), "--input-size",
        str(arch.layer_sizes[0]), "--samples-per-class", "1", "--timesteps", "10",
    ]) == 0
    assert cli.main([
        "train", "--data", str(data), "--preset", preset, "--mode", "sparse",
        "--batch-size", "2", "--timesteps", "10", "--out-dir", str(run),
    ]) == 0
    net, _, _ = load_checkpoint(run / "checkpoint.bin")
    assert net.spec.sparse_sizes == sizes
    assert network_spec_for(arch, 0.1, 2, 10).sparse_sizes == sizes


def test_empty_sparsity_grid_writes_the_header(tmp_path):
    argv = ["bench", "--sweep", "sparsity", "--activity-grid", ",", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    assert (tmp_path / "sparsity.csv").read_text().splitlines() == [",".join(SPARSITY_COLUMNS)]


def _gen_data(path):
    assert cli.main([
        "gen-data", "--out-dir", str(path), "--classes", "2", "--input-size", "16",
        "--samples-per-class", "2", "--timesteps", "10",
    ]) == 0
    return path


@pytest.mark.parametrize("column, value, message", [
    pytest.param("path", "missing.esf", "cannot read ESF file 'missing.esf'", id="missing_file"),
    pytest.param("label", "one", "label 'one' is not an integer", id="label_not_int"),
])
def test_bad_manifest_row_exits_3(tmp_path, column, value, message):
    data = _gen_data(tmp_path / "data")
    manifest = data / "manifest.csv"
    with open(manifest, newline="") as f:
        rows = list(csv.DictReader(f))
    rows[2][column] = value
    with open(manifest, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=["path", "label"])
        writer.writeheader()
        writer.writerows(rows)

    with pytest.raises(DataFormatError, match=re.escape(f"{manifest} line 4: {message}")):
        load_dataset(manifest)
    assert cli.main([
        "train", "--data", str(data), "--layers", "16,8,2", "--batch-size", "2",
        "--timesteps", "10", "--epochs", "1", "--out-dir", str(tmp_path / "run"),
    ]) == 3


def test_threads_option_is_gone(tmp_path):
    assert cli.main(["gen-data", "--threads", "2", "--out-dir", str(tmp_path)]) == 2
    config = tmp_path / "run.cfg"
    config.write_text("threads=1\n")
    assert cli.main(["gen-data", "--config", str(config), "--out-dir", str(tmp_path)]) == 2


def test_bench_mode_option_is_gone(tmp_path):
    # The sparsity sweep runs both activity regimes itself; no other sweep
    # reads one.
    assert cli.main(["bench", "--mode", "fixed_activity", "--out-dir", str(tmp_path)]) == 2
    config = tmp_path / "run.cfg"
    config.write_text("mode=fixed_activity\n")
    assert cli.main(["bench", "--config", str(config), "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("command, key, value", [
    # train's tile check repeated simulate's; simulate priced no activity
    # but "fixed", and is deterministic; gradcheck writes nothing.
    ("train", "simulate_tiles", "on"),
    ("train", "chips", "2"),
    ("simulate", "activity", "zero"),
    ("simulate", "seed", "1"),
    ("gradcheck", "out_dir", "run"),
    # The sparsity sweep is modeled only; perfbench times training.
    ("bench", "repetitions", "2"),
])
def test_deleted_options_exit_2(tmp_path, capsys, command, key, value):
    out = [] if command == "gradcheck" else ["--out-dir", str(tmp_path / "run")]
    assert cli.main([command, "--" + key.replace("_", "-"), value, *out]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err
    config = tmp_path / "run.cfg"
    config.write_text(f"{key}={value}\n")
    assert cli.main([command, "--config", str(config), *out]) == 2
    err = capsys.readouterr().err
    assert f"unknown key '{key}'" in err and "Traceback" not in err


def _resolved(argv):
    args = cli._build_parser().parse_args(argv)
    return cli._resolve(args.command, args)


@pytest.mark.parametrize("text, value", [("true", True), ("on", True), ("no", False)])
def test_boolean_spellings_are_one_rule(tmp_path, capsys, text, value):
    # A flag and a config key take the same spellings.
    config = tmp_path / "run.cfg"
    config.write_text(f"reset_grad = {text}\n")
    assert _resolved(["train", "--reset-grad", text])["reset_grad"] is value
    assert _resolved(["train", "--config", str(config)])["reset_grad"] is value
    assert cli.main(["train", "--reset-grad", "maybe"]) == 2
    err = capsys.readouterr().err
    assert err == "config error: expected a boolean, got 'maybe'\n"


def test_flag_not_a_choice_exits_2(tmp_path, capsys):
    assert cli.main(["train", "--mode", "bogus", "--out-dir", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err == "config error: mode='bogus' not one of ('dense', 'sparse')\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", sorted(cli._OPTIONS))
def test_help_names_every_choice(monkeypatch, capsys, command):
    # argparse checks no choice, so the help text is where they show.
    monkeypatch.setenv("COLUMNS", "400")  # no wrap inside a hyphenated name
    assert cli.main([command, "--help"]) == 0
    out = capsys.readouterr().out
    for name, (_, _, _, *choices) in cli._OPTIONS[command].items():
        assert "--" + name.replace("_", "-") in out
        for choice in choices[0] if choices else ():
            assert choice in out


def _header_only_manifest(data):
    (data / "manifest.csv").write_text("path,label\n")


def _second_file_wider(data):
    write_events(EventStream([0], [16], num_channels=17, label=0), data / "sample_00001.esf")


def _first_file_channels_bit31(data):
    path = data / "sample_00000.esf"
    raw = bytearray(path.read_bytes())
    raw[11] ^= 0x80  # bit 31 of the little-endian num_channels at bytes 8..11
    path.write_bytes(bytes(raw))


def _manifest_not_utf8(data):
    (data / "manifest.csv").write_bytes(b"path,label\nsample_\xff.esf,0\n")


def _config_choice(data):
    (data / "run.cfg").write_text("sweep=everything\n")


def _config_negative_seed(data):
    (data / "run.cfg").write_text("seed = -1\n")


def _machine_cfg(line):
    def write(data):
        (data / "machine.cfg").write_text(line + "\n")
    return write


TRAIN = ["train", "--data", "{data}", "--layers", "16,8,2", "--batch-size", "2",
         "--timesteps", "10"]
SIMULATE_MACHINE = ["simulate", "--machine-config", "{data}/machine.cfg"]


@pytest.mark.parametrize("corrupt, argv, code, message", [
    pytest.param(_header_only_manifest, TRAIN, 3, "lists no samples", id="header_only_manifest"),
    pytest.param(_second_file_wider, TRAIN, 3, "has 17 channels, the first file 16",
                 id="channel_count_differs"),
    pytest.param(_first_file_channels_bit31, TRAIN, 3, "2147483664 channels exceed",
                 id="channel_count_bit31"),
    pytest.param(_manifest_not_utf8, TRAIN, 3, "not UTF-8", id="manifest_not_utf8"),
    pytest.param(None, TRAIN + ["--timesteps", "-1"], 2, "at least one timestep",
                 id="negative_timesteps"),
    pytest.param(None, TRAIN + ["--optimizer", "adam", "--lr", "-1"], 2,
                 "learning rate must be > 0", id="adam_negative_lr"),
    pytest.param(None, TRAIN + ["--layers", "16,8,1"], 3, "label 1 needs more than 1 outputs",
                 id="label_exceeds_outputs"),
    pytest.param(None, TRAIN + ["--batch-size", "5"], 2, "batch size 5 exceeds the 4 samples",
                 id="batch_above_samples"),
    pytest.param(None, ["bench", "--sweep", "scaleup", "--per-tile-grid", ","], 2,
                 "the scaleup sweep has an empty grid", id="scaleup_empty_grid"),
    pytest.param(None, ["bench", "--sweep", "weak", "--chip-grid", ","], 2,
                 "the weak sweep has an empty grid", id="weak_empty_grid"),
    pytest.param(None, TRAIN + ["--layers", "16,8,8,8,8,8,2"], 2,
                 "no input frame reaches the loss in 10 timesteps through 6 weight layers",
                 id="no_receptive_frame"),
    pytest.param(None, ["simulate", "--timesteps", "6"], 2,
                 "no input frame reaches the loss in 6 timesteps through 4 weight layers",
                 id="simulate_no_receptive_frame"),
    pytest.param(None, ["bench", "--activity-grid", "0.05", "--timesteps", "6"], 2,
                 "no input frame reaches the loss in 6 timesteps through 4 weight layers",
                 id="bench_sparsity_no_receptive_frame"),
    pytest.param(None, ["gradcheck", "--nets", "0"], 2, "at least one network",
                 id="gradcheck_no_nets"),
    pytest.param(None, ["gradcheck", "--nets", "1", "--eps", "1e-12"], 2,
                 "does not move the float32 weight", id="gradcheck_eps_below_float32"),
    pytest.param(_config_choice, ["bench", "--config", "{data}/run.cfg"], 2,
                 "sweep='everything' not one of", id="config_value_not_a_choice"),
    pytest.param(_config_negative_seed, TRAIN + ["--config", "{data}/run.cfg"], 2,
                 "seed must be >= 0, got -1", id="config_negative_seed"),
    pytest.param(None, ["bench", "--sweep", "scaleup", "--preset", "tiny"], 2,
                 "preset 'tiny' has no scale-up table", id="scaleup_preset_tiny"),
    pytest.param(None, ["simulate", "--chips", "2"], 2, "fill 1 of 2 chips",
                 id="simulate_chips_left_empty"),
    pytest.param(_machine_cfg("sync_cycles_per_superstep = -1000000"), SIMULATE_MACHINE, 2,
                 "sync_cycles_per_superstep must be finite and >= 0",
                 id="machine_negative_sync"),
    pytest.param(_machine_cfg("cycles_per_mac = -5"), SIMULATE_MACHINE, 2,
                 "cycles_per_mac must be finite and >= 0", id="machine_negative_mac"),
    pytest.param(_machine_cfg("cycles_per_state_update = nan"), SIMULATE_MACHINE, 2,
                 "cycles_per_state_update must be finite and >= 0, got nan",
                 id="machine_nan_cost"),
    pytest.param(_machine_cfg("inter_chip_cycles_per_8_bytes = inf"), SIMULATE_MACHINE, 2,
                 "inter_chip_cycles_per_8_bytes must be finite and >= 0, got inf",
                 id="machine_inf_cost"),
] + [
    pytest.param(None, argv + ["--seed", "-1"], 2, "seed must be >= 0, got -1",
                 id=f"{argv[0]}_seed_-1")
    for argv in (TRAIN, ["bench"], ["gradcheck"], ["gen-data"])
] + [
    # Checked before any draw or allocation: the value would size the frames.
    pytest.param(None, argv + ["--timesteps", str(MAX_TIMESTEPS + 1)], 2,
                 f"timesteps must be <= {MAX_TIMESTEPS}, got {MAX_TIMESTEPS + 1}",
                 id=f"{argv[0]}_timesteps_above_bound")
    for argv in (TRAIN, ["bench", "--preset", "tiny", "--activity-grid", "0.5"],
                 ["simulate"], ["gen-data"])
] + [
    pytest.param(None, ["gen-data", "--input-size", "70000"], 2,
                 f"input_size must be <= {MAX_CHANNELS}, got 70000",
                 id="gen-data_input_size_above_bound"),
] + [
    pytest.param(None, argv, 2, message, id=f"{argv[-2][2:]}_{argv[-1]}")
    for argv, message in [
        (["gen-data", "--noise", "-1"], "noise rate must be finite and >= 0"),
        (["gen-data", "--noise", "nan"], "noise rate must be finite and >= 0"),
        (["gen-data", "--noise", "inf"], "noise rate must be finite and >= 0"),
        (["gen-data", "--template-density", "nan"], "template density must be finite and >= 0"),
        (["gen-data", "--template-density", "inf"], "template density must be finite and >= 0"),
        (["gen-data", "--noise", "2"], "noise rate must be <= 1 event per channel and bin"),
        (["gen-data", "--template-density", "2"],
         "template density must be <= 1 event per channel and bin"),
        (TRAIN + ["--weight-gain", "-1"], "weight gain must be finite and >= 0"),
        (TRAIN + ["--weight-gain", "nan"], "weight gain must be finite and >= 0"),
        (TRAIN + ["--threshold", "nan"], "threshold and grad_threshold must be finite"),
        (TRAIN + ["--grad-threshold", "nan"], "threshold and grad_threshold must be finite"),
        (TRAIN + ["--lr", "inf"], "learning rate must be > 0 and finite"),
        (TRAIN + ["--beta", "inf"], "beta must be finite and > 0"),
        (["gradcheck", "--nets", "1", "--eps", "inf"], "eps must be finite and > 0"),
        (["gradcheck", "--nets", "1", "--eps", "nan"], "eps must be finite and > 0"),
        (TRAIN + ["--epochs", "-1"], "epochs must be >= 0, got -1"),
    ] + [
        (["gradcheck", "--tolerance", value], f"tolerance must be finite and > 0, got {value}")
        for value in ("nan", "0.0", "-1.0", "inf")
    ]
])
def test_bad_input_exits_with_code(tmp_path, capsys, corrupt, argv, code, message):
    data = _gen_data(tmp_path / "data")
    if corrupt is not None:
        corrupt(data)
    argv = [arg.format(data=data) for arg in argv]
    if argv[0] != "gradcheck":
        argv += ["--out-dir", str(tmp_path / "run")]
    capsys.readouterr()
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(("config error:", "data error:")) and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    # Every value is checked before a command makes its output directory.
    assert not (tmp_path / "run").exists()


def test_failed_gradcheck_exits_1(capsys):
    # No backward pass matches finite differences to 1e-300.
    assert cli.main(["gradcheck", "--nets", "1", "--tolerance", "1e-300"]) == 1
    captured = capsys.readouterr()
    assert "FAIL max_rel_err=" in captured.out
    assert "Traceback" not in captured.out + captured.err


GEN_DATA = ["gen-data", "--classes", "2", "--input-size", "8", "--samples-per-class", "2"]

# Tiny runs of every command, for the float-option guard below.
GUARD_ARGV = {
    "train": TRAIN,
    "bench": ["bench", "--sweep", "scaleup", "--per-tile-grid", "2"],
    "simulate": ["simulate"],
    "gradcheck": ["gradcheck", "--nets", "1"],
    "gen-data": GEN_DATA + ["--timesteps", "10"],
}


@pytest.fixture(scope="module")
def guard_data(tmp_path_factory):
    return _gen_data(tmp_path_factory.mktemp("guard") / "data")


@pytest.mark.parametrize("command, name, value", [
    pytest.param(command, name, value, id=f"{command}-{name}-{value}")
    for command, options in cli._OPTIONS.items()
    for name, (kind, *_) in options.items()
    if kind is float
    for value in ("1e300", "-1e300", "1e39", "nan", "inf", "-inf", "0", "-1", "1e-320")
])
def test_float_option_exits_with_a_documented_code(
    tmp_path, capsys, guard_data, command, name, value
):
    # In process and under the suite's error::RuntimeWarning filter, so an
    # overflow warning fails as a traceback would. A finite value beyond
    # float32's range is rejected before any draw, cast or directory.
    out = tmp_path / "run"
    argv = [arg.format(data=guard_data) for arg in GUARD_ARGV[command]]
    argv.append(f"--{name.replace('_', '-')}={value}")
    if command != "gradcheck":
        argv += ["--out-dir", str(out)]
    capsys.readouterr()
    code = cli.main(argv)
    assert code in range(5)
    if math.isfinite(float(value)) and abs(float(value)) > float(np.finfo(np.float32).max):
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert err.startswith(f"config error: {name}=") and "does not fit float32" in err
        assert not out.exists()


@pytest.mark.parametrize("flag", ["--beta", "--threshold"])
def test_steep_or_high_threshold_trains_without_overflow(tmp_path, guard_data, flag):
    # In process, under the suite's error::RuntimeWarning filter: a surrogate
    # whose denominator overflows float32 is its +0.0 limit, not a warning.
    argv = [arg.format(data=guard_data) for arg in TRAIN]
    assert cli.main(argv + [f"{flag}=1e30", "--out-dir", str(tmp_path / "run")]) == 0


@pytest.mark.parametrize("flag", ["--lr", "--weight-gain"])
def test_divergence_exits_1_without_a_warning(tmp_path, capsys, flag):
    # In process, under the suite's error::RuntimeWarning filter: a step that
    # overflows is reported once, by the finite check, which names the layer.
    data = tmp_path / "data"
    assert cli.main([
        "gen-data", "--out-dir", str(data), "--classes", "3", "--input-size", "16",
        "--samples-per-class", "2", "--timesteps", "10",
    ]) == 0
    argv = ["train", "--data", str(data), "--layers", "16,8,3", "--batch-size", "2",
            "--timesteps", "10", f"{flag}=1e30", "--out-dir", str(tmp_path / "run")]
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("training diverged:") and "in weight layer " in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_closed_stdout_exits_1(tmp_path, monkeypatch, capsys):
    # A reader that went away, as in `sparsnn gen-data ... | head -0`.
    read_fd, write_fd = os.pipe()

    class ClosedPipe(io.TextIOBase):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return write_fd

    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert cli.main([*GEN_DATA, "--out-dir", str(tmp_path)]) == 1
        # stdout now points at devnull, so the flush at exit cannot fail.
        assert os.path.samestat(os.fstat(write_fd), os.stat(os.devnull))
    finally:
        os.close(read_fd)
        os.close(write_fd)
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "stdout was closed" in err


def test_closed_stdout_exits_1_at_interpreter_exit(tmp_path):
    # Buffered output too short to fill the buffer fails only when flushed,
    # which without a flush in `cli.main` is at interpreter exit.
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "sparsnn.cli", *GEN_DATA, "--out-dir", str(tmp_path)],
            stdout=write_fd, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_fd)
    err = done.stderr.decode()
    assert done.returncode == 1
    assert err.count("\n") == 1 and "Traceback" not in err and "Exception" not in err


def test_simulate_reports_receptive_frames(tmp_path, capsys):
    assert cli.main(["simulate", "--out-dir", str(tmp_path / "run")]) == 0
    assert "receptive frames: 3 of 10 input frames reach the loss\n" in capsys.readouterr().out
    # T = 8 = 2L is the least T at which shd-2944's input reaches the loss.
    argv = ["simulate", "--timesteps", "8", "--out-dir", str(tmp_path / "run8")]
    assert cli.main(argv) == 0
    assert "receptive frames: 1 of 8 input frames reach the loss\n" in capsys.readouterr().out


def test_scaleup_rows_state_their_receptive_frames():
    # The 2, 4, 8 and 16 per-tile nets have 4, 7, 13 and 25 weight layers;
    # each is priced at T = max(10, 2L), where its input reaches the loss.
    rows = scaleup_sweep(BenchConfig(), [2, 4, 8, 16])
    assert [r["timesteps"] for r in rows] == [10, 14, 26, 50]
    assert [r["receptive_frames"] for r in rows] == [3, 1, 1, 1]
    assert [r["modeled_accel"] for r in rows] == [
        19.361937885391743, 19.61085929352448, 19.739578319890867, 19.80416044223744,
    ]


def test_weak_scaling_rows_state_their_receptive_frames():
    # k chained shd-2944 stacks have 3k + 1 weight layers, priced at
    # T = max(10, 6k + 2).
    rows = weak_scaling_sweep(BenchConfig(), [1, 2, 4], [48], [2])
    assert [(r["chips"], r["timesteps"]) for r in rows] == [(1, 10), (2, 14), (4, 26)]
    assert [(r["chips"], r["receptive_frames"]) for r in rows] == [(1, 3), (2, 1), (4, 1)]


def test_default_weak_sweep_records_memory_cells(tmp_path, capsys):
    # 5 chip counts x 3 batches x 4 densities. At T = 6k + 2 the state of
    # the densest, largest-batch points outgrows a tile: those cells say
    # so and the sweep goes on.
    assert cli.main(["bench", "--sweep", "weak", "--out-dir", str(tmp_path)]) == 0
    assert "(60 rows)" in capsys.readouterr().out
    with open(tmp_path / "weak_scaling.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 60
    timesteps = {"1": "10", "2": "14", "4": "26", "8": "50", "16": "98"}
    for r in rows:
        assert r["timesteps"] == timesteps[r["chips"]]
        assert r["receptive_frames"] == ("3" if r["chips"] == "1" else "1")
    full = [(r["chips"], r["batch_size"], r["neurons_per_tile"]) for r in rows
            if r["status"] != "ok"]
    assert full == [("8", "192", "16"), ("16", "96", "16"), ("16", "192", "8"),
                    ("16", "192", "16")]
    assert all(r["status"].startswith("out-of-tile-memory:") and r["slowdown"] == ""
               for r in rows if r["status"] != "ok")
    assert all(float(r["slowdown"]) >= 1.0 for r in rows if r["status"] == "ok")


def test_simulate_chips_overrides_machine_config(tmp_path):
    # --chips 1 is an override like any other chip count.
    config = tmp_path / "machine.cfg"
    config.write_text("num_chips = 2\n")
    argv = ["simulate", "--machine-config", str(config), "--chips", "1"]
    assert cli.main([*argv, "--out-dir", str(tmp_path / "one")]) == 0
    assert cli.main(["simulate", "--out-dir", str(tmp_path / "plain")]) == 0
    ledger = (tmp_path / "one" / "ledger.csv").read_bytes()
    assert ledger == (tmp_path / "plain" / "ledger.csv").read_bytes()


def test_simulate_out_of_tile_memory_exits_4(tmp_path, capsys):
    # One neuron of the first hidden layer needs far more than 64 bytes.
    config = tmp_path / "machine.cfg"
    config.write_text("sram_per_tile = 64\n")
    capsys.readouterr()
    argv = ["simulate", "--machine-config", str(config), "--out-dir", str(tmp_path / "run")]
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("out of tile memory: tile 0 needs ") and "only 64 are available" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_nan_weight_mid_run_exits_1(tmp_path, monkeypatch, capsys):
    data = _gen_data(tmp_path / "data")
    train_epoch = cli.train_epoch

    def poisoned(net, *args, epoch_index, **kwargs):
        if epoch_index == 1:
            net.weights[0].w[0, 0] = np.nan
        return train_epoch(net, *args, epoch_index=epoch_index, **kwargs)

    monkeypatch.setattr(cli, "train_epoch", poisoned)
    argv = [arg.format(data=data) for arg in TRAIN]
    capsys.readouterr()
    assert cli.main([*argv, "--epochs", "2", "--out-dir", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err == "training diverged: epoch 1, batch 0: non-finite gradient in weight layer 0\n"


def test_zero_epochs_write_header_only_metrics(tmp_path):
    data = _gen_data(tmp_path / "data")
    argv = [arg.format(data=data) for arg in TRAIN]
    assert cli.main(argv + ["--epochs", "0", "--out-dir", str(tmp_path / "run")]) == 0
    assert (tmp_path / "run" / "metrics.csv").read_bytes() == b"epoch,loss,accuracy\r\n"

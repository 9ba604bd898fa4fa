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

from sparsnn import cli
from sparsnn.bench import FIXED, NATURAL, BenchConfig, network_spec_for, run_benchmark
from sparsnn.errors import DataFormatError
from sparsnn.events import EventStream, load_dataset, write_events


@pytest.mark.parametrize("mode", [FIXED, NATURAL])
def test_run_benchmark_tiny(mode):
    config = BenchConfig(mode=mode, preset="tiny", max_activity=0.25, repetitions=2)
    result = run_benchmark(config)
    # Both mean step times are finite and > 0 exactly when these two are;
    # a finite modeled_accel means the sparse ledger's time is > 0.
    for value in (result.measured_accel, result.frames_per_sec, result.modeled_accel):
        assert math.isfinite(value) and value > 0
    # Forced spikes fill every hidden capacity; free dynamics stay at or
    # below it, and on this preset leave every hidden layer silent.
    capacities = tuple(network_spec_for(config).sparse_sizes[1:])
    assert all(0.0 <= s <= c for s, c in zip(result.hidden_spikes, capacities))
    if mode == FIXED:
        assert result.hidden_spikes == capacities
        assert result.valid
    else:
        assert result.hidden_spikes == (0.0, 0.0)
        assert not result.valid


def test_sparsity_sweep_marks_silent_rows_invalid(tmp_path):
    assert cli.main([
        "bench", "--preset", "tiny", "--sweep", "sparsity", "--activity-grid", "0.25,0.5",
        "--batch-size", "8", "--out-dir", str(tmp_path),
    ]) == 0
    with open(tmp_path / "sparsity.csv", newline="") as f:
        rows = [(row["mode"], row["valid"]) for row in csv.DictReader(f)]
    assert rows == [(FIXED, "True")] * 2 + [(NATURAL, "False")] * 2


def test_gen_data_then_sparse_train(tmp_path):
    data = tmp_path / "data"
    assert cli.main([
        "gen-data", "--out-dir", str(data), "--classes", "2", "--input-size", "16",
        "--samples-per-class", "4", "--timesteps", "10", "--template-density", "0.2",
    ]) == 0
    assert (data / "manifest.csv").is_file()

    run = tmp_path / "run"
    assert cli.main([
        "train", "--data", str(data), "--layers", "16,8,2", "--mode", "sparse",
        "--max-activity", "0.5", "--batch-size", "4", "--timesteps", "10",
        "--epochs", "2", "--out-dir", str(run),
    ]) == 0
    for name in ("config.txt", "metrics.csv", "checkpoint.bin"):
        assert (run / name).is_file()
    rows = (run / "metrics.csv").read_text().splitlines()
    assert rows[0] == "epoch,loss,accuracy" and len(rows) == 3
    assert all(np.isfinite(float(r.split(",")[1])) for r in rows[1:])


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
    pytest.param(None, ["gradcheck", "--nets", "0"], 2, "at least one network",
                 id="gradcheck_no_nets"),
    pytest.param(_config_choice, ["bench", "--config", "{data}/run.cfg"], 2,
                 "sweep='everything' not one of", id="config_value_not_a_choice"),
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
])
def test_bad_input_exits_with_code(tmp_path, capsys, corrupt, argv, code, message):
    data = _gen_data(tmp_path / "data")
    if corrupt is not None:
        corrupt(data)
    argv = [arg.format(data=data) for arg in argv]
    capsys.readouterr()
    assert cli.main(argv + ["--out-dir", str(tmp_path / "run")]) == code
    err = capsys.readouterr().err
    assert err.startswith(("config error:", "data error:")) and message in err
    assert "Traceback" not in err


def test_failed_gradcheck_exits_1(capsys):
    # No backward pass matches finite differences to 1e-300.
    assert cli.main(["gradcheck", "--nets", "1", "--tolerance", "1e-300"]) == 1
    captured = capsys.readouterr()
    assert "FAIL max_rel_err=" in captured.out
    assert "Traceback" not in captured.out + captured.err


GEN_DATA = ["gen-data", "--classes", "2", "--input-size", "8", "--samples-per-class", "2"]


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

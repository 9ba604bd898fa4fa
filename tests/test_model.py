import copy
import hashlib
import json

import numpy as np
import pytest

from sparsnn.engine import DENSE, SPARSE, forward_pass, train_step
from sparsnn.errors import DataFormatError
from sparsnn.lif import NetworkSpec
from sparsnn.model import init_network, load_checkpoint, save_checkpoint
from sparsnn.optim import AdamState, adam_step
from sparsnn.rng import DropRng


def small_net(seed=0):
    spec = NetworkSpec((6, 8, 3), (6, 8), batch_size=2, num_timesteps=4)
    return init_network(spec, seed=seed)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = small_net()
        opt = AdamState(lr=2e-3)
        adam_step(net.weight_arrays(), [0.1 * w.w for w in net.weights], opt)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, net, opt, seed=77)
        net2, opt2, seed = load_checkpoint(path)
        assert seed == 77
        for a, b in zip(net.weights, net2.weights):
            assert np.array_equal(a.w, b.w)
        for a, b in zip(net.params, net2.params):
            assert np.array_equal(a.threshold, b.threshold)
            assert a.alpha == b.alpha
        assert opt2.step == opt.step
        for a, b in zip(opt.m, opt2.m):
            assert np.array_equal(a, b)

    def test_same_bytes_written_twice(self, tmp_path):
        net = small_net()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(p1, net, None, seed=1)
        save_checkpoint(p2, net, None, seed=1)
        assert p1.read_bytes() == p2.read_bytes()

    def test_reloaded_net_runs_identically(self, tmp_path):
        net = small_net(3)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, net, None, seed=0)
        net2, _, _ = load_checkpoint(path)
        rng = np.random.default_rng(0)
        x = (rng.random((2, 4, 6)) < 0.5).astype(np.float32)
        _, s1 = forward_pass(net, x)
        _, s2 = forward_pass(net2, x)
        assert np.array_equal(s1, s2)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(DataFormatError):
            load_checkpoint(path)


# sha256 of the checkpoint `trained_net` writes. A change to either value
# means that the same training no longer writes the same file: the weights,
# the Adam moments or the byte format moved.
PINNED_CHECKPOINTS = {
    DENSE: "064927ed7dd0148ea557f2fbba1aeb4d423f489bcd8faedcc2db44109635c315",
    SPARSE: "e8441d10278c537cd3288e13d88facec898b3305b4966be2b17e88b8c47b1132",
}


def trained_net(mode, steps=2):
    """A fixed-seed 12-16-16-4 net after `steps` Adam steps, with the
    generator that made its batches."""
    spec = NetworkSpec((12, 16, 16, 4), (8, 8, 8), batch_size=4, num_timesteps=10)
    net = init_network(spec, seed=21, weight_gain=20.0)
    gen = np.random.default_rng(21)
    opt = AdamState(lr=1e-2)
    for step in range(steps):
        _train_once(net, opt, gen, mode, step)
    return net, opt, gen


def _train_once(net, opt, gen, mode, step):
    frames = (gen.random((4, 10, 12)) < 0.5).astype(np.float32)
    labels = gen.integers(0, 4, size=4)
    rng = DropRng(21, step * 10 * 3) if mode == SPARSE else None
    train_step(net, frames, labels, opt, mode, rng)


@pytest.mark.parametrize("mode", [DENSE, SPARSE])
def test_checkpoint_bytes_pinned(tmp_path, mode):
    net, opt, _ = trained_net(mode)
    fresh = init_network(net.spec, seed=21, weight_gain=20.0)
    for a, b in zip(fresh.weights, net.weights):
        assert not np.array_equal(a.w, b.w)  # every layer learned
    path = tmp_path / "ck.bin"
    save_checkpoint(path, net, opt, seed=21)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CHECKPOINTS[mode]


@pytest.mark.parametrize("mode", [DENSE, SPARSE])
def test_resumed_step_equals_uninterrupted_step(tmp_path, mode):
    net, opt, gen = trained_net(mode, steps=1)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, net, opt, seed=21)
    resumed, resumed_opt, _ = load_checkpoint(path)
    resumed_gen = copy.deepcopy(gen)
    _train_once(net, opt, gen, mode, 1)
    _train_once(resumed, resumed_opt, resumed_gen, mode, 1)
    for a, b in zip(net.weight_arrays(), resumed.weight_arrays()):
        assert a.tobytes() == b.tobytes()
    for a, b, p in zip(opt.m + opt.v, resumed_opt.m + resumed_opt.v, 2 * resumed.weight_arrays()):
        assert a.tobytes() == b.tobytes()
        # Moments in their parameter's layout: the blocked Adam update.
        assert b.strides == p.strides


def _checkpoint_bytes(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, small_net(), AdamState(lr=1e-3), seed=5)
    return path.read_bytes()


def _hlen(raw):
    return int.from_bytes(raw[8:12], "little")


def _with_header(raw, header: bytes):
    """`raw` with its header replaced and the length field set to match."""
    return raw[:8] + len(header).to_bytes(4, "little") + header + raw[12 + _hlen(raw):]


def _drop_meta_key(raw, key):
    meta = json.loads(raw[12:12 + _hlen(raw)])
    del meta[key]
    return _with_header(raw, json.dumps(meta, sort_keys=True).encode())


def _with_spec_key(raw, key, value):
    meta = json.loads(raw[12:12 + _hlen(raw)])
    meta["spec"][key] = value
    return _with_header(raw, json.dumps(meta, sort_keys=True).encode())


def _first_array_bytes(raw):
    meta = json.loads(raw[12:12 + _hlen(raw)])
    first = meta["arrays"][0]
    return int(np.prod(first["shape"])) * np.dtype(first["dtype"]).itemsize


def _nan_thresholds(raw):
    """`raw` with the second array, layer 0's float32 thresholds, all NaN."""
    meta = json.loads(raw[12:12 + _hlen(raw)])
    assert meta["arrays"][1]["name"] == "thr0"
    start = 12 + _hlen(raw) + _first_array_bytes(raw)
    end = start + 4 * int(np.prod(meta["arrays"][1]["shape"]))
    return raw[:start] + np.full((end - start) // 4, np.nan, "<f4").tobytes() + raw[end:]


# Each case turns a valid checkpoint's bytes into corrupt ones: cut at each
# region boundary (magic, length field, header, first array, last array),
# one byte added, the header length off by one either way or far too
# large, headers that are not UTF-8, not JSON or lack a key, a spec
# that still names the deleted readout option, and NaN thresholds.
CORRUPTIONS = {
    "empty": lambda raw: b"",
    "half_magic": lambda raw: raw[:4],
    "magic_only": lambda raw: raw[:8],
    "half_length": lambda raw: raw[:10],
    "length_only": lambda raw: raw[:12],
    "half_header": lambda raw: raw[:12 + _hlen(raw) // 2],
    "header_only": lambda raw: raw[:12 + _hlen(raw)],
    "half_first_array": lambda raw: raw[:12 + _hlen(raw) + _first_array_bytes(raw) // 2],
    "one_byte_short": lambda raw: raw[:-1],
    "one_byte_extra": lambda raw: raw + b"\x00",
    "length_plus_one": lambda raw: raw[:8] + (_hlen(raw) + 1).to_bytes(4, "little") + raw[12:],
    "length_minus_one": lambda raw: raw[:8] + (_hlen(raw) - 1).to_bytes(4, "little") + raw[12:],
    "length_flipped": lambda raw: raw[:8] + bytes(b ^ 0xFF for b in raw[8:12]) + raw[12:],
    "header_not_utf8": lambda raw: _with_header(raw, b"\xff\xfe" + raw[14:12 + _hlen(raw)]),
    "header_not_json": lambda raw: _with_header(raw, b"{not json"),
    "header_not_object": lambda raw: _with_header(raw, b"[]"),
    "no_spec": lambda raw: _drop_meta_key(raw, "spec"),
    "no_layers": lambda raw: _drop_meta_key(raw, "layers"),
    "no_arrays": lambda raw: _drop_meta_key(raw, "arrays"),
    "no_optimizer": lambda raw: _drop_meta_key(raw, "optimizer"),
    "no_seed": lambda raw: _drop_meta_key(raw, "seed"),
    "spec_output_mode": lambda raw: _with_spec_key(raw, "output_mode", "membrane-sum-readout"),
    "threshold_nan": _nan_thresholds,
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupt_checkpoint_raises_data_format_error(tmp_path, case):
    raw = _checkpoint_bytes(tmp_path)
    load_checkpoint(tmp_path / "ck.bin")  # the uncorrupted file loads
    path = tmp_path / "bad.bin"
    path.write_bytes(CORRUPTIONS[case](raw))
    with pytest.raises(DataFormatError):
        load_checkpoint(path)

"""SGD and Adam on lists of float32 parameter arrays."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


def _check_lr(lr: float) -> None:
    if not (np.isfinite(lr) and lr > 0):
        raise ConfigError(f"learning rate must be > 0 and finite, got {lr}")


@dataclass
class SgdState:
    lr: float = 1e-3

    def __post_init__(self):
        _check_lr(self.lr)


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list = field(default_factory=list)  # first moments, shaped like params
    v: list = field(default_factory=list)  # second moments

    def __post_init__(self):
        _check_lr(self.lr)

    def ensure_moments(self, params: list) -> None:
        """Zero moments at first, each in its parameter's memory order for
        `_blocks`: a restored state's moments come back C-ordered."""
        if not self.m:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        for moments in (self.m, self.v):
            for k, (p, a) in enumerate(zip(params, moments)):
                if a.flags.f_contiguous != p.flags.f_contiguous:
                    moments[k] = np.asarray(a, order="F" if p.flags.f_contiguous else "C")


def sgd_step(params: list, grads: list, lr: float) -> None:
    """In-place w <- w - lr * g."""
    _check_lr(lr)
    for p, g in zip(params, grads):
        p -= np.float32(lr) * g


# Elements per Adam block: the block's temporaries stay in cache.
ADAM_BLOCK = 1 << 15


def _blocks(p, g, m, v):
    """(p, g, m, v) slices of ADAM_BLOCK elements consecutive in the memory
    order all four share, C or Fortran. Arrays that share neither, whose
    flattening would copy, form one block."""
    order = "C" if p.flags.c_contiguous else "F"
    if not all(a.flags[order + "_CONTIGUOUS"] for a in (p, g, m, v)):
        yield p, g, m, v
        return
    flat = [a.reshape(-1, order=order) for a in (p, g, m, v)]
    for lo in range(0, p.size, ADAM_BLOCK):
        yield [a[lo : lo + ADAM_BLOCK] for a in flat]


def adam_step(params: list, grads: list, state: AdamState) -> AdamState:
    """In-place Adam update with bias correction; returns the state.

    Every expression is elementwise, so it runs block by block over each
    flattened parameter (see `ADAM_BLOCK`): the same float32 operations on
    every element as over the whole array, with cache-sized temporaries.
    """
    state.ensure_moments(params)
    state.step += 1
    b1, b2 = np.float32(state.beta1), np.float32(state.beta2)
    c1 = 1.0 - state.beta1 ** state.step
    c2 = 1.0 - state.beta2 ** state.step
    for arrays in zip(params, grads, state.m, state.v):
        for p, g, m, v in _blocks(*arrays):
            m *= b1
            m += (np.float32(1) - b1) * g
            v *= b2
            v += (np.float32(1) - b2) * g * g
            m_hat = m / np.float32(c1)
            v_hat = v / np.float32(c2)
            p -= np.float32(state.lr) * m_hat / (np.sqrt(v_hat) + np.float32(state.eps))
    return state


def optimizer_step(params: list, grads: list, state) -> None:
    """Dispatch on the optimizer state type."""
    if isinstance(state, SgdState):
        sgd_step(params, grads, state.lr)
    elif isinstance(state, AdamState):
        adam_step(params, grads, state)
    else:
        raise ConfigError(f"unknown optimizer state {type(state).__name__}")


def make_optimizer(name: str, lr: float):
    if name == "sgd":
        return SgdState(lr=lr)
    if name == "adam":
        return AdamState(lr=lr)
    raise ConfigError(f"unknown optimizer {name!r}")


def optimizer_state_to_dict(state):
    """(meta, named arrays) for checkpointing."""
    if isinstance(state, SgdState):
        return {"kind": "sgd", "lr": state.lr}, []
    if isinstance(state, AdamState):
        arrays = []
        for k, (m, v) in enumerate(zip(state.m, state.v)):
            arrays.append((f"adam_m{k}", m))
            arrays.append((f"adam_v{k}", v))
        meta = {
            "kind": "adam",
            "lr": state.lr,
            "beta1": state.beta1,
            "beta2": state.beta2,
            "eps": state.eps,
            "step": state.step,
            "num_moments": len(state.m),
        }
        return meta, arrays
    raise ConfigError(f"unknown optimizer state {type(state).__name__}")


def optimizer_state_from_dict(meta: dict, data: dict):
    if meta["kind"] == "sgd":
        return SgdState(lr=meta["lr"])
    if meta["kind"] == "adam":
        n = meta["num_moments"]
        return AdamState(
            lr=meta["lr"],
            beta1=meta["beta1"],
            beta2=meta["beta2"],
            eps=meta["eps"],
            step=meta["step"],
            m=[data[f"adam_m{k}"] for k in range(n)],
            v=[data[f"adam_v{k}"] for k in range(n)],
        )
    raise ConfigError(f"unknown optimizer kind {meta['kind']!r}")

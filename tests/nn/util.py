"""Shared gradient-checking helpers for the nn test suite."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.nn import Tensor, no_grad


def numeric_grad(fn: Callable[..., float], arrays: Sequence[np.ndarray],
                 index: int, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of ``fn`` w.r.t. ``arrays[index]``.

    ``fn`` receives raw numpy arrays and must return a float.
    """
    base = [a.copy() for a in arrays]
    target = base[index]
    grad = np.zeros_like(target)
    flat = target.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn(*base)
        flat[i] = orig - eps
        down = fn(*base)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * eps)
    return grad


def check_gradients(op: Callable[..., "Tensor"], arrays: Sequence[np.ndarray],
                    atol: float = 1e-6, rtol: float = 1e-5,
                    weight: np.ndarray = None) -> None:
    """Assert autodiff grads of ``sum(weight * op(*xs))`` match numerics.

    A random ``weight`` avoids the degenerate case where a uniform
    output gradient hides transposition/permutation bugs.
    """
    rng = np.random.default_rng(1234)
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*tensors)
    w = weight if weight is not None else rng.normal(size=out.shape)

    loss = (out * Tensor(w)).sum()
    loss.backward()

    def scalar_fn(*raw):
        ts = [Tensor(r) for r in raw]
        val = op(*ts)
        return float((val.data * w).sum())

    for i, t in enumerate(tensors):
        expected = numeric_grad(scalar_fn, arrays, i)
        assert t.grad is not None, f"missing grad for arg {i} of {op}"
        np.testing.assert_allclose(
            t.grad, expected, atol=atol, rtol=rtol,
            err_msg=f"gradient mismatch for arg {i} of {op}")


def check_module_gradients(forward: Callable[..., "Tensor"], module,
                           arrays: Sequence[np.ndarray], atol: float = 1e-6,
                           rtol: float = 1e-5) -> None:
    """:func:`check_gradients` over the inputs of ``forward`` and every
    parameter of ``module``."""
    rng = np.random.default_rng(1234)
    names, params = zip(*module.named_parameters())
    module.zero_grad()
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = forward(*tensors)
    w = rng.normal(size=out.shape)
    (out * Tensor(w)).sum().backward()
    got = [t.grad for t in tensors] + [p.grad for p in params]
    saved = [p.data for p in params]
    n = len(arrays)

    def scalar_fn(*raw):
        for p, r in zip(params, raw[n:]):
            p.data = r
        with no_grad():
            val = forward(*[Tensor(r) for r in raw[:n]])
        return float((val.data * w).sum())

    labels = [f"input{i}" for i in range(n)] + list(names)
    try:
        for i, label in enumerate(labels):
            expected = numeric_grad(scalar_fn, list(arrays) + saved, i)
            assert got[i] is not None, f"missing grad for {label}"
            np.testing.assert_allclose(
                got[i], expected, atol=atol, rtol=rtol,
                err_msg=f"gradient mismatch for {label}")
    finally:
        for p, data in zip(params, saved):
            p.data = data

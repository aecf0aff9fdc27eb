"""Generalized divisive normalization (GDN / IGDN).

The canonical nonlinearity of learned image compression (Ballé et al.):

    GDN:   y_i = x_i / sqrt(beta_i + sum_j gamma_ij x_j^2)
    IGDN:  y_i = x_i * sqrt(beta_i + sum_j gamma_ij x_j^2)

GDN gaussianizes channel statistics — exactly the property transform
coding wants before uniform quantization — and the VAE of every
hyperprior codec since [4] uses it in the encoder with its inverse in
the decoder.  Our VAE defaults to plain activations (matching the
paper's silence on the matter); ``VAEConfig(activation="gdn")`` swaps
these layers in, and ``bench_ablations`` measures what the choice is
worth at equal rate.

Positivity of ``beta`` and ``gamma`` is maintained the same way the
reference implementation does: parameters are stored through a
square-root reparameterization with a small pedestal and passed
through :func:`repro.nn.ops.lower_bound` (straight-through gradient at
the boundary), so training can push a pinned parameter back into the
interior.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .modules import Module, Parameter
from .tensor import Tensor, as_tensor

__all__ = ["GDN"]

_PEDESTAL = 1e-6  # reparameterization offset, as in the reference code


def _gdn_forward(x: np.ndarray, beta_p: np.ndarray, gamma_p: np.ndarray,
                 beta_bound: float, gamma_bound: float, inverse: bool
                 ) -> Tuple[np.ndarray, tuple]:
    """Fused norm-pool forward; returns the output and the backward state.

    One expression chain replaces the former per-op Tensor graph
    (lower_bound → square → matmul → add → sqrt → div/mul); the numpy
    calls and their order are identical, so outputs match the old
    chained formulation bitwise.
    """
    B, C, H, W = x.shape
    beta_r = np.maximum(beta_p, beta_bound)
    gamma_r = np.maximum(gamma_p, gamma_bound)
    beta = beta_r * beta_r - _PEDESTAL
    gamma = gamma_r * gamma_r - _PEDESTAL
    x2 = x * x
    flat = x2.reshape(B, C, H * W)
    norm3 = np.sqrt(gamma @ flat + beta.reshape(1, C, 1))
    norm = norm3.reshape(B, C, H, W)
    out = x * norm if inverse else x / norm
    state = (beta_r, gamma_r, gamma, flat, norm3, norm)
    return out, state


def _gdn_apply(x: Tensor, beta_p: Parameter, gamma_p: Parameter,
               beta_bound: float, gamma_bound: float,
               inverse: bool) -> Tensor:
    """Autodiff wrapper around :func:`_gdn_forward` (analytic backward)."""
    out, state = _gdn_forward(x.data, beta_p.data, gamma_p.data,
                              beta_bound, gamma_bound, inverse)
    beta_r, gamma_r, gamma, flat, norm3, norm = state
    xd = x.data
    B, C = xd.shape[0], xd.shape[1]
    above_b = beta_p.data >= beta_bound
    above_g = gamma_p.data >= gamma_bound

    def backward(g: np.ndarray, gm: Dict[int, np.ndarray]) -> None:
        if inverse:
            gnorm = g * xd
        else:
            gnorm = -g * xd / (norm * norm)
        # chain through sqrt back to the pooled response (B, C, HW)
        gnorm2 = gnorm.reshape(norm3.shape) * 0.5 / norm3
        if x.requires_grad:
            gx = g * norm if inverse else g / norm
            gx2 = (np.swapaxes(gamma, -1, -2) @ gnorm2).reshape(xd.shape)
            x._receive(gm, gx + 2.0 * xd * gx2)
        if beta_p.requires_grad:
            gbeta_r = 2.0 * gnorm2.sum(axis=(0, 2)) * beta_r
            # straight-through lower_bound: pass grads above the bound
            # or pointing back into the feasible region
            beta_p._receive(gm, gbeta_r * (above_b | (gbeta_r < 0)))
        if gamma_p.requires_grad:
            ggamma = np.einsum("bik,bjk->ij", gnorm2, flat)
            ggamma_r = 2.0 * ggamma * gamma_r
            gamma_p._receive(gm, ggamma_r * (above_g | (ggamma_r < 0)))

    return Tensor._from_op(out, (x, beta_p, gamma_p), backward, "gdn")


class GDN(Module):
    """GDN layer over ``(B, C, H, W)`` feature maps.

    Parameters
    ----------
    channels:
        Number of feature channels ``C``.
    inverse:
        ``False`` -> divisive (encoder), ``True`` -> multiplicative
        (decoder, "IGDN").
    beta_min:
        Lower bound for the stabilizing ``beta`` vector.
    gamma_init:
        Initial diagonal of the channel-coupling matrix ``gamma``.
    """

    def __init__(self, channels: int, inverse: bool = False,
                 beta_min: float = 1e-6, gamma_init: float = 0.1):
        super().__init__()
        if channels < 1:
            raise ValueError("channels must be >= 1")
        if beta_min <= 0:
            raise ValueError("beta_min must be positive")
        self.channels = channels
        self.inverse = inverse
        self.beta_min = beta_min
        # stored as sqrt(value + pedestal): squaring in forward keeps the
        # effective parameters nonnegative for free, and lower_bound
        # keeps the *stored* value from wandering below the pedestal
        self.beta = Parameter(np.sqrt(np.ones(channels) + _PEDESTAL))
        gamma = gamma_init * np.eye(channels)
        self.gamma = Parameter(np.sqrt(gamma + _PEDESTAL))

    # ------------------------------------------------------------------
    def _bounds(self) -> Tuple[float, float]:
        return (float(np.sqrt(self.beta_min + _PEDESTAL)),
                float(np.sqrt(_PEDESTAL)))

    def forward(self, x) -> Tensor:
        x = as_tensor(x)
        if len(x.shape) != 4 or x.shape[1] != self.channels:
            raise ValueError(
                f"expected (B, {self.channels}, H, W), got {x.shape}")
        beta_bound, gamma_bound = self._bounds()
        return _gdn_apply(x, self.beta, self.gamma, beta_bound, gamma_bound,
                          self.inverse)

    def extra_repr(self) -> str:  # pragma: no cover - cosmetic
        return (f"channels={self.channels}, "
                f"inverse={self.inverse}")

"""Frame VAE with scale hyperprior (Sec. 3.1).

``Encoder`` maps a frame to a ``latent_channels``-deep feature map
downsampled by ``2**num_down``; ``Decoder`` inverts it.  The combined
:class:`VAEHyperprior` module runs the full transform-coding forward
pass of Eq. 8: analysis transform, (relaxed) quantization, hyperprior
rate estimation and synthesis transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..config import VAEConfig
from ..entropy import FactorizedDensity, GaussianConditional
from ..nn import (GDN, Conv2d, ConvTranspose2d, Module, Sequential, SiLU,
                  Tensor, no_grad)
from ..nn import functional as F
from .hyperprior import HyperDecoder, HyperEncoder
from .quantization import quantize_noise, quantize_round

__all__ = ["Encoder", "Decoder", "VAEHyperprior", "VAEOutput"]


def _activation(cfg: VAEConfig, channels: int, inverse: bool) -> Module:
    """Per-stage nonlinearity: SiLU (default) or (I)GDN (Ballé)."""
    if cfg.activation == "gdn":
        return GDN(channels, inverse=inverse)
    return SiLU()


class Encoder(Module):
    """Analysis transform ``E_x``: frames -> latents."""

    def __init__(self, cfg: VAEConfig,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        k, p = cfg.kernel_size, cfg.kernel_size // 2
        chans = [cfg.in_channels] + [
            cfg.base_filters * 2 ** i for i in range(cfg.num_down)]
        layers = []
        for cin, cout in zip(chans[:-1], chans[1:]):
            layers += [Conv2d(cin, cout, k, stride=2, padding=p, rng=rng),
                       _activation(cfg, cout, inverse=False)]
        layers.append(Conv2d(chans[-1], cfg.latent_channels, 3, stride=1,
                             padding=1, rng=rng))
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)


class Decoder(Module):
    """Synthesis transform ``D_x``: latents -> frames."""

    def __init__(self, cfg: VAEConfig,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        k, p = cfg.kernel_size, cfg.kernel_size // 2
        chans = [cfg.base_filters * 2 ** i for i in range(cfg.num_down)]
        chans = chans[::-1]
        layers = [Conv2d(cfg.latent_channels, chans[0], 3, stride=1,
                         padding=1, rng=rng),
                  _activation(cfg, chans[0], inverse=True)]
        for cin, cout in zip(chans, chans[1:] + [chans[-1]]):
            layers += [ConvTranspose2d(cin, cout, k, stride=2, padding=p,
                                       output_padding=1, rng=rng),
                       _activation(cfg, cout, inverse=True)]
        layers.append(Conv2d(chans[-1], cfg.in_channels, 3, stride=1,
                             padding=1, rng=rng))
        self.net = Sequential(*layers)

    def forward(self, y: Tensor) -> Tensor:
        return self.net(y)


@dataclass
class VAEOutput:
    """Forward-pass bundle used by the RD loss and by the trainer."""

    x_hat: Tensor          # reconstruction
    y: Tensor              # continuous latent
    y_tilde: Tensor        # quantized/noisy latent fed to the decoder
    z_tilde: Tensor        # quantized/noisy hyper-latent
    mu: Tensor             # Gaussian means from the hyper-decoder
    sigma: Tensor          # Gaussian scales from the hyper-decoder
    bits_y: Tensor         # estimated bits for y (scalar tensor)
    bits_z: Tensor         # estimated bits for z (scalar tensor)

    @property
    def total_bits(self) -> Tensor:
        return self.bits_y + self.bits_z


class VAEHyperprior(Module):
    """Complete stage-1 model: ``E_x``, ``D_x``, ``E_h``, ``D_h``, priors."""

    def __init__(self, cfg: VAEConfig,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.cfg = cfg
        self.encoder = Encoder(cfg, rng=rng)
        self.decoder = Decoder(cfg, rng=rng)
        self.hyper_encoder = HyperEncoder(cfg, rng=rng)
        self.hyper_decoder = HyperDecoder(cfg, rng=rng)
        self.z_prior = FactorizedDensity(cfg.hyper_filters, rng=rng)
        self.y_conditional = GaussianConditional()

    # ------------------------------------------------------------------
    def forward(self, x: Tensor, rng: Optional[np.random.Generator] = None
                ) -> VAEOutput:
        """Full training-time pass with noise-relaxed quantization.

        With ``self.training`` false (or ``rng`` omitted), hard rounding
        is used instead, which is the inference behaviour.
        """
        y = self.encoder(x)
        z = self.hyper_encoder(y)
        if self.training and rng is not None:
            y_tilde = quantize_noise(y, rng)
            z_tilde = quantize_noise(z, rng)
        else:
            y_tilde = quantize_round(y)
            z_tilde = quantize_round(z)
        mu, sigma = self.hyper_decoder(z_tilde)
        bits_y = self.y_conditional.bits(y_tilde, mu, sigma)
        bits_z = self.z_prior.bits(z_tilde)
        x_hat = self.decoder(y_tilde)
        return VAEOutput(x_hat=x_hat, y=y, y_tilde=y_tilde, z_tilde=z_tilde,
                         mu=mu, sigma=sigma, bits_y=bits_y, bits_z=bits_z)

    # ------------------------------------------------------------------
    # Inference codec path
    # ------------------------------------------------------------------
    def encode_latents(self, x: np.ndarray) -> np.ndarray:
        """Rounded latents ``Round(E_x(x))`` for frames ``(B,C,H,W)``."""
        x = np.asarray(x, dtype=np.float64)
        with no_grad():
            y = self.encoder(Tensor(x))
        return np.rint(y.numpy())

    def decode_latents(self, y_int: np.ndarray) -> np.ndarray:
        """Frame reconstructions from (integer) latents."""
        y_int = np.asarray(y_int, dtype=np.float64)
        with no_grad():
            x_hat = self.decoder(Tensor(y_int))
        return x_hat.numpy()

    def compress(self, x: np.ndarray,
                 entropy_backend=None) -> Tuple[Dict, np.ndarray]:
        """Entropy-code frames to byte streams.

        Returns ``(streams, y_int)``: the dict of byte payloads and
        headers needed by :meth:`decompress`, plus the rounded latents
        (so callers — the keyframe pipeline — can reuse them as
        conditioning without a decode pass).  ``entropy_backend``
        selects the symbol coder for both streams (``None`` uses the
        calling thread's default); the choice rides in the stream headers so
        :meth:`decompress` self-selects.
        """
        from ..entropy.backend import get_backend
        x = np.asarray(x, dtype=np.float64)
        with no_grad():
            y = self.encoder(Tensor(x)).numpy()
            z = self.hyper_encoder(Tensor(y)).numpy()
            z_int = np.rint(z)
            mu, sigma = self.hyper_decoder(Tensor(z_int))
            mu, sigma = mu.numpy(), sigma.numpy()
        y_int = np.rint(y)
        coder = get_backend(entropy_backend)
        z_stream, z_header = self.z_prior.compress(z_int, backend=coder)
        y_stream, y_header = self.y_conditional.compress(y_int, mu, sigma,
                                                         backend=coder)
        streams = {
            "y_stream": y_stream, "y_header": y_header,
            "z_stream": z_stream, "z_header": z_header,
            "y_shape": tuple(y.shape), "z_shape": tuple(z.shape),
            "entropy_backend": coder.name,
        }
        return streams, y_int

    def decompress_latents(self, streams: Dict) -> np.ndarray:
        """Recover rounded latents from byte streams (no frame decode)."""
        z_int = self.z_prior.decompress(
            streams["z_stream"], streams["z_shape"], streams["z_header"])
        with no_grad():
            mu, sigma = self.hyper_decoder(Tensor(z_int))
        y_int = self.y_conditional.decompress(
            streams["y_stream"], mu.numpy(), sigma.numpy(),
            streams["y_header"])
        return y_int.reshape(streams["y_shape"])

    def decompress(self, streams: Dict) -> np.ndarray:
        """Full decode: byte streams -> frame reconstructions."""
        return self.decode_latents(self.decompress_latents(streams))

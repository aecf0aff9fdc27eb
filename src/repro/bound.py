"""First-class error-bound value type.

Every compressor family in this repo guarantees its error in a
different metric — the rule-based coders bound the **pointwise** max
abs error, TTHRESH bounds the **RMSE**, the diffusion pipelines bound
the absolute **L2** norm (the paper's ``tau``) — and callers usually
think in a fourth, the relative **NRMSE** of Eq. 12.  :class:`Bound`
states any of them as one value object::

    Bound.nrmse(1e-3)        # relative: NRMSE <= 1e-3
    Bound.pointwise(0.5)     # max |x - x_hat| <= 0.5
    Bound.rmse(0.1)          # RMSE <= 0.1
    Bound.l2(25.0)           # ||x - x_hat||_2 <= 25 (the paper's tau)

A bound converts between metrics given the data it applies to
(``R`` the data range, ``n`` the element count).  Conversions among
``rmse`` / ``l2`` / ``nrmse`` are exact linear bijections via the RMSE
as canonical intermediate (``L2 = rmse * sqrt(n)``, ``nrmse = rmse /
R``).  Conversions involving ``pointwise`` are **conservative** — the
converted target, when enforced, always implies the original one, in
both directions:

* *to* ``pointwise`` (from any metric): enforce ``max|err| <= rmse
  target`` — holds because ``rmse <= max|err|``;
* *from* ``pointwise`` (to any metric): route through the L2 norm —
  ``max|err| <= ||err||_2``, so enforcing ``l2 <= v`` (equivalently
  ``rmse <= v / sqrt(n)``) guarantees ``max|err| <= v``.

Because conservative maps contract, a round-trip through
``pointwise`` returns a *tighter* bound, never a looser one; the
``rmse``/``l2``/``nrmse`` subgroup round-trips exactly.

This module is dependency-free (NumPy only) so every layer — codecs,
the execution engine, the :mod:`repro.api` facade — can share the one
conversion table without import cycles.  :meth:`Bound.to` is the only
code that converts a bound; a codec reaches it through
:meth:`~repro.codecs.base.Codec.native_bound`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["Bound", "BOUND_KINDS"]

#: Metrics a bound can be expressed in.  The first three are the
#: native guarantee kinds a codec may declare
#: (:class:`repro.codecs.base.CodecCapabilities`); ``nrmse`` is the
#: relative caller-side vocabulary of Eq. 12.
BOUND_KINDS = ("pointwise", "rmse", "l2", "nrmse")


def _data_stats(frames, n: Optional[int],
                data_range: Optional[float]) -> Tuple[Optional[int],
                                                      Optional[float]]:
    """Resolve ``(n, range)`` from explicit values and/or ``frames``."""
    if frames is not None:
        frames = np.asarray(frames)
        if n is None:
            n = int(frames.size)
        if data_range is None:
            data_range = float(frames.max() - frames.min())
    return n, data_range


@dataclass(frozen=True)
class Bound:
    """One error-bound target: a metric ``kind`` and a ``value``.

    Frozen, hashable and picklable — a ``Bound`` travels unchanged
    through shard plans and process-pool work items, and each worker
    converts it against its *own* stack's statistics (exactly the
    per-window normalization the serial pipeline applies).
    """

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in BOUND_KINDS:
            raise ValueError(f"bound kind must be one of {BOUND_KINDS}, "
                             f"got {self.kind!r}")
        value = float(self.value)
        if not np.isfinite(value) or value <= 0:
            raise ValueError(f"bound value must be finite and positive, "
                             f"got {self.value!r}")
        object.__setattr__(self, "value", value)

    # -- constructors -----------------------------------------------------
    @classmethod
    def pointwise(cls, value: float) -> "Bound":
        """Max absolute per-element error bound."""
        return cls("pointwise", value)

    @classmethod
    def rmse(cls, value: float) -> "Bound":
        """Root-mean-square error bound."""
        return cls("rmse", value)

    @classmethod
    def l2(cls, value: float) -> "Bound":
        """Absolute L2-norm bound (the paper's ``tau``)."""
        return cls("l2", value)

    @classmethod
    def nrmse(cls, value: float) -> "Bound":
        """Relative bound: NRMSE (RMSE over the data range, Eq. 12)."""
        return cls("nrmse", value)

    @classmethod
    def parse(cls, text: str) -> "Bound":
        """Parse ``"kind:value"`` (e.g. ``"nrmse:1e-3"``, ``"l2:25"``).

        A bare number parses as an NRMSE target, the most common
        caller-side vocabulary.
        """
        text = str(text).strip()
        if ":" in text:
            kind, _, value = text.partition(":")
            return cls(kind.strip().lower(), float(value))
        return cls("nrmse", float(text))

    # -- conversions --------------------------------------------------
    def to(self, kind: str, *, frames=None, n: Optional[int] = None,
           data_range: Optional[float] = None) -> "Bound":
        """This bound re-expressed in another metric.

        Conversions needing the element count (``l2``) take ``n`` or
        ``frames``; conversions needing the data range (``nrmse``)
        take ``data_range`` or ``frames``.  Same-kind conversion
        returns ``self`` unchanged (no float drift).
        """
        if kind not in BOUND_KINDS:
            raise ValueError(f"bound kind must be one of {BOUND_KINDS}, "
                             f"got {kind!r}")
        if kind == self.kind:
            return self
        n, data_range = _data_stats(frames, n, data_range)

        if self.kind == "pointwise":
            # conservative: max|err| <= ||err||_2, so enforcing the
            # same value as an L2 target guarantees the pointwise one
            if kind == "l2":
                return Bound(kind, self.value)
            rmse = self.value / np.sqrt(self._need_n(n))
        elif self.kind == "l2":
            rmse = self.value / np.sqrt(self._need_n(n))
        elif self.kind == "nrmse":
            rmse = self.value * self._need_range(data_range)
        else:
            rmse = self.value
        # from the canonical intermediate (RMSE) to the target metric
        if kind in ("pointwise", "rmse"):
            value = rmse
        elif kind == "l2":
            value = rmse * np.sqrt(self._need_n(n))
        else:  # nrmse
            value = rmse / self._need_range(data_range)
        return Bound(kind, float(value))

    def native_for(self, codec, frames) -> float:
        """Value in ``codec``'s native guarantee metric for ``frames``."""
        return self.to(codec.capabilities.bound_kind, frames=frames).value

    def _need_n(self, n: Optional[int]) -> int:
        if n is None:
            raise ValueError(
                f"converting a {self.kind!r} bound to/from 'l2' needs "
                f"the element count; pass n=... or frames=...")
        return n

    def _need_range(self, data_range: Optional[float]) -> float:
        if data_range is None:
            raise ValueError(
                f"converting a {self.kind!r} bound to/from 'nrmse' "
                f"needs the data range; pass data_range=... or "
                f"frames=...")
        return data_range

    def __str__(self) -> str:
        return f"{self.kind}:{self.value:g}"

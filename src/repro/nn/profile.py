"""Lightweight op-level profiler for the nn stack — ``repro.nn.profile``.

Answers "where does inference time go?" without external tooling: a
:class:`profile` context manager patches the graph-construction
chokepoint (:meth:`Tensor._from_op`) plus every raw conv / GDN /
linear / norm / attention kernel, recording per-op call counts,
cumulative seconds and peak result bytes.  The benches consume :func:`top` to
embed hot-op tables in their JSON records::

    from repro.nn import profile
    with profile.profile() as prof:
        codec.decompress(blob)
    print(prof.table())          # or profile.report() afterwards

Semantics worth knowing:

* Timings are *cumulative*: a ``conv2d.forward`` call records its full
  duration **and** the nested ``conv2d.forward.im2col`` kernel records
  its share, so parent and child rows overlap.  The table is a ranking
  of hot paths, not a partition of wall time.  The stride-1
  ``conv2d.grad_input.flipped_corr`` runs the conv2d forward kernel,
  so in a backward pass the ``conv2d.forward`` rows also count those
  calls, nested under it.
* ``Tensor._from_op`` rows (plain op names such as ``silu`` or
  ``conv2d``) time only graph bookkeeping — the numpy compute happens
  before ``_from_op`` runs.  Kernel rows (``conv2d.*``,
  ``conv_transpose2d.*``, ``gdn.*``, ``linear.*``, ``norm.*`` for group
  and layer norm, ``sdpa.*``) carry real compute time.
* Profilers nest: every active profiler on the stack receives every
  event, so an outer profiler sees the totals of inner sections.

Patching is process-global and restored when the outermost ``profile``
exits; the hooks add one function call per op, which is well under 1%
of a learned-codec decode.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from . import attention as _attention
from . import conv as _conv
from . import gdn as _gdn
from . import modules as _modules
from .tensor import Tensor

__all__ = ["OpStat", "OpProfiler", "profile", "report", "top"]


class OpStat:
    """Running tally for one op label."""

    __slots__ = ("calls", "seconds", "peak_bytes")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.peak_bytes = 0

    def add(self, seconds: float, nbytes: int) -> None:
        self.calls += 1
        self.seconds += seconds
        if nbytes > self.peak_bytes:
            self.peak_bytes = nbytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"OpStat(calls={self.calls}, seconds={self.seconds:.6f}, "
                f"peak_bytes={self.peak_bytes})")


class OpProfiler:
    """Per-op stats collected over one :class:`profile` section."""

    def __init__(self) -> None:
        self.stats: Dict[str, OpStat] = {}

    def record(self, name: str, seconds: float, nbytes: int) -> None:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = OpStat()
        stat.add(seconds, nbytes)

    def sorted_items(self) -> List[tuple]:
        """(name, stat) pairs, hottest (most cumulative seconds) first."""
        return sorted(self.stats.items(),
                      key=lambda kv: (-kv[1].seconds, -kv[1].calls, kv[0]))

    def top(self, n: int = 5) -> List[dict]:
        """The ``n`` hottest ops as JSON-ready dicts."""
        return [{"op": name, "calls": s.calls,
                 "seconds": round(s.seconds, 6), "peak_bytes": s.peak_bytes}
                for name, s in self.sorted_items()[:n]]

    def table(self, limit: Optional[int] = None) -> str:
        """Human-readable table, hottest ops first."""
        rows = self.sorted_items()
        if limit is not None:
            rows = rows[:limit]
        lines = [f"{'op':<28} {'calls':>8} {'seconds':>10} {'peak MiB':>9}"]
        lines.append("-" * len(lines[0]))
        for name, s in rows:
            lines.append(f"{name:<28} {s.calls:>8d} {s.seconds:>10.4f} "
                         f"{s.peak_bytes / (1 << 20):>9.2f}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Hook plumbing
# ----------------------------------------------------------------------
_STACK: List[OpProfiler] = []       # active profilers (nesting allowed)
_LAST: Optional[OpProfiler] = None  # most recently exited, for report()
_PATCHED: List[tuple] = []          # (owner, attr, original) for restore

#: raw kernels of the fused nodes (shared by grad and no-grad modes)
_KERNELS = (
    (_conv, "_conv2d_forward", "conv2d.forward"),
    (_conv, "_conv2d_forward_taps", "conv2d.forward.taps"),
    (_conv, "_conv2d_forward_im2col", "conv2d.forward.im2col"),
    (_conv, "_conv2d_grad_input", "conv2d.grad_input"),
    (_conv, "_conv2d_grad_input_flipped", "conv2d.grad_input.flipped_corr"),
    (_conv, "_conv2d_grad_input_col2im", "conv2d.grad_input.col2im"),
    (_conv, "_conv2d_grad_weight", "conv2d.grad_weight"),
    (_conv, "_conv_transpose2d_taps", "conv_transpose2d.taps"),
    (_gdn, "_gdn_forward", "gdn.forward"),
    (_modules, "_linear_forward", "linear.forward"),
    (_modules, "_norm_forward", "norm.forward"),
    (_attention, "_sdpa_forward", "sdpa.forward"),
)


def _nbytes(out) -> int:
    """Byte size of a kernel result (arrays inside tuples included)."""
    if isinstance(out, np.ndarray):
        return out.nbytes
    if isinstance(out, (tuple, list)):
        return sum(o.nbytes for o in out if isinstance(o, np.ndarray))
    data = getattr(out, "data", None)
    if isinstance(data, np.ndarray):
        return data.nbytes
    return 0


def _record(name: str, seconds: float, nbytes: int) -> None:
    for prof in _STACK:
        prof.record(name, seconds, nbytes)


def _patch(owner, attr: str, label: str) -> None:
    orig = getattr(owner, attr)

    def wrapped(*args, **kwargs):
        t0 = time.perf_counter()
        out = orig(*args, **kwargs)
        _record(label, time.perf_counter() - t0, _nbytes(out))
        return out

    wrapped.__wrapped__ = orig  # type: ignore[attr-defined]
    setattr(owner, attr, wrapped)
    _PATCHED.append((owner, attr, orig))


def _install() -> None:
    """Patch the op census + raw kernels (idempotent per profile stack)."""
    # graph-construction census: one row per autodiff op name
    orig_from_op = Tensor.__dict__["_from_op"].__func__

    def from_op(data, parents, backward, op):
        t0 = time.perf_counter()
        out = orig_from_op(data, parents, backward, op)
        nbytes = data.nbytes if isinstance(data, np.ndarray) else 0
        _record(op, time.perf_counter() - t0, nbytes)
        return out

    Tensor._from_op = staticmethod(from_op)  # type: ignore[assignment]
    _PATCHED.append((Tensor, "_from_op", staticmethod(orig_from_op)))

    for owner, attr, label in _KERNELS:
        _patch(owner, attr, label)


def _uninstall() -> None:
    while _PATCHED:
        owner, attr, orig = _PATCHED.pop()
        setattr(owner, attr, orig)


class profile:
    """Context manager collecting op stats into an :class:`OpProfiler`.

    ``with profile() as prof: ...`` — afterwards query ``prof.table()``
    / ``prof.top(n)``, or the module-level :func:`report` / :func:`top`
    which read the innermost active (or most recently exited) profiler.
    """

    def __init__(self) -> None:
        self.profiler = OpProfiler()

    def __enter__(self) -> OpProfiler:
        if not _STACK:
            _install()
        _STACK.append(self.profiler)
        return self.profiler

    def __exit__(self, *exc) -> None:
        global _LAST
        _STACK.remove(self.profiler)
        _LAST = self.profiler
        if not _STACK:
            _uninstall()


def _current() -> OpProfiler:
    if _STACK:
        return _STACK[-1]
    if _LAST is None:
        raise RuntimeError("no profile() section has run yet")
    return _LAST


def report(limit: Optional[int] = None) -> str:
    """Sorted table for the innermost active (or last) profiler."""
    return _current().table(limit)


def top(n: int = 5) -> List[dict]:
    """Hottest ``n`` ops of the innermost active (or last) profiler."""
    return _current().top(n)

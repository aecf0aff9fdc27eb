"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the foundation of the :mod:`repro.nn` substrate that
replaces PyTorch for this reproduction.  A :class:`Tensor` wraps a
``numpy.ndarray`` and records, for every differentiable operation, a
closure that propagates the output gradient to the operation's inputs.
Calling :meth:`Tensor.backward` runs a topological sort over the
recorded graph and accumulates gradients into ``Tensor.grad``.

Design notes
------------
* Gradients are plain ``numpy.ndarray`` objects (no higher-order
  differentiation is needed anywhere in the paper's pipeline).
* Broadcasting follows NumPy semantics; :func:`unbroadcast` folds a
  broadcast gradient back onto the original operand shape.
* ``float64`` is the default dtype.  The models trained here are small,
  and double precision makes central-difference gradient checking tight
  (every op in this package is verified that way in the test suite).
* The op library lives in :mod:`repro.nn.ops` / :mod:`repro.nn.conv` /
  :mod:`repro.nn.attention`; those modules attach operator dunders to
  :class:`Tensor` at import time.  Importing :mod:`repro.nn` wires
  everything together.
"""

from __future__ import annotations

from contextvars import ContextVar, Token
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "unbroadcast", "as_tensor", "no_grad", "is_grad_enabled"]

ArrayLike = Union[np.ndarray, float, int, Sequence]

#: Whether operations record the autodiff graph.  Context-local, so
#: inference in one thread never switches off training in another.
_grad_enabled: ContextVar[bool] = ContextVar("grad_enabled", default=True)

# A backward closure receives the output gradient plus the shared
# "pending gradients" map of the ongoing backward pass and is expected
# to call ``parent._receive(grads_map, grad_wrt_parent)`` for each
# differentiable parent it captured.
BackwardFn = Callable[[np.ndarray, Dict[int, np.ndarray]], None]


class no_grad:
    """Context manager disabling graph recording (mirrors ``torch.no_grad``).

    Inside the context every operation produces constant tensors, which
    keeps inference (entropy coding, diffusion sampling, benchmarking)
    free of graph bookkeeping overhead.  The flag is per thread, as in
    ``torch.no_grad``: a thread starts with recording on, and entering
    the context in one thread leaves every other thread recording.
    An instance may be re-entered; each exit restores the flag its
    matching entry saw.
    """

    def __init__(self) -> None:
        self._tokens: List[Token] = []

    def __enter__(self) -> "no_grad":
        self._tokens.append(_grad_enabled.set(False))
        return self

    def __exit__(self, *exc) -> None:
        _grad_enabled.reset(self._tokens.pop())


def is_grad_enabled() -> bool:
    """Return ``True`` when operations should record the autodiff graph."""
    return _grad_enabled.get()


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``.

    NumPy broadcasting may (a) prepend dimensions and (b) stretch
    size-1 dimensions.  The adjoint of broadcasting is summation over
    exactly those axes.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed array node in a dynamically built autodiff graph.

    Parameters
    ----------
    data:
        Array (or scalar / nested sequence) holding the tensor value.
    requires_grad:
        Whether gradients should be accumulated into this tensor during
        :meth:`backward`.  Leaf tensors used as model parameters set
        this to ``True``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "op")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, op: str = "leaf"):
        if isinstance(data, Tensor):  # defensive: unwrap
            data = data.data
        arr = np.asarray(data, dtype=np.float64)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self._backward: Optional[BackwardFn] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.op: str = op

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _from_op(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: BackwardFn,
        op: str,
    ) -> "Tensor":
        """Create a non-leaf tensor recording ``backward`` if tracing."""
        needs = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=needs, op=op)
        if needs:
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad`` (allocating on first use)."""
        g = unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        # Never alias the incoming gradient in-place: backward closures
        # may hand the same array to several parents.
        self.grad = g if self.grad is None else self.grad + g

    def _receive(self, grads_map: Dict[int, np.ndarray], g: np.ndarray) -> None:
        """Route an incoming gradient during a backward pass.

        Leaf tensors accumulate into ``.grad``; interior nodes stage the
        gradient in ``grads_map`` until the topological sweep reaches
        them.
        """
        if type(g) is not np.ndarray or g.dtype != np.float64:
            g = np.asarray(g, dtype=np.float64)
        g = unbroadcast(g, self.data.shape)
        if self._backward is None:
            self._accumulate(g)
            return
        key = id(self)
        if key in grads_map:
            grads_map[key] = grads_map[key] + g
        else:
            grads_map[key] = g

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of some scalar objective w.r.t. this tensor.  May
            be omitted only for scalar tensors (defaults to ``1.0``).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar "
                    f"tensor, got shape {self.data.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).copy()

        if self._backward is None:
            self._accumulate(grad)
            return

        # Iterative post-order DFS: diffusion sampling chains build deep
        # graphs that would overflow Python's recursion limit.
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, int]] = [(self, 0)]
        visited.add(id(self))
        while stack:
            node, idx = stack.pop()
            if idx < len(node._parents):
                stack.append((node, idx + 1))
                child = node._parents[idx]
                if id(child) not in visited:
                    visited.add(id(child))
                    if child._backward is not None:
                        stack.append((child, 0))
                    # Leaves need no ordering; they only accumulate.
            else:
                topo.append(node)

        grads_map: Dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            g = grads_map.pop(id(node), None)
            if g is None:
                continue  # dead branch (e.g. unused output of split)
            assert node._backward is not None
            node._backward(g, grads_map)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new constant tensor sharing this tensor's data."""
        out = Tensor(0.0)
        out.data = self.data  # share storage
        return out

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tensor(shape={self.data.shape}, op={self.op!r}, "
            f"requires_grad={self.requires_grad})"
        )

    def __hash__(self) -> int:
        return id(self)


def as_tensor(x: Union[Tensor, ArrayLike]) -> Tensor:
    """Coerce ``x`` to a (constant) :class:`Tensor` if it is not one."""
    return x if isinstance(x, Tensor) else Tensor(x)

"""Basic trainable layers with manual gradients."""

from __future__ import annotations

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, as a float64 array.

    ``e = exp(min(x, -x)) = exp(-|x|)`` never overflows, and the two
    stable branches, ``1 / (1 + e)`` for ``x >= 0`` and ``e / (1 + e)``
    below, share one division: bit for bit the two masked passes, in
    one.  ``np.minimum`` rather than ``-abs`` keeps a NaN's sign bit.
    """
    e = np.exp(np.minimum(x, -x))
    out = np.where(x >= 0, 1.0, e)
    out /= 1.0 + e
    return out.astype(np.float64, copy=False)


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Gradient of ReLU given its input and the upstream gradient."""
    return grad * (x > 0)


class Dense:
    """A fully connected layer ``y = x @ W + b``.

    Parameters live in ``params`` / gradients in ``grads``, keyed so an
    optimizer can treat the whole network as one flat dict.
    """

    def __init__(self, in_dim: int, out_dim: int, name: str,
                 rng: np.random.Generator):
        if in_dim < 1 or out_dim < 1:
            raise ValueError("layer dims must be >= 1")
        scale = np.sqrt(2.0 / (in_dim + out_dim))
        self.name = name
        self.weight = (rng.standard_normal((in_dim, out_dim))
                       * scale).astype(np.float64)
        self.bias = np.zeros(out_dim, dtype=np.float64)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Affine transform; caches the input for backward."""
        self._input = x
        return x @ self.weight + self.bias

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Accumulate parameter grads; return gradient w.r.t. input."""
        if self._input is None:
            raise RuntimeError("backward called before forward")
        self.grad_weight += self._input.T @ grad
        self.grad_bias += grad.sum(axis=0)
        return grad @ self.weight.T

    def parameters(self) -> dict:
        """Mapping of parameter name -> (value, gradient) arrays."""
        return {
            f"{self.name}.weight": (self.weight, self.grad_weight),
            f"{self.name}.bias": (self.bias, self.grad_bias),
        }

    def zero_grad(self) -> None:
        """Reset accumulated gradients."""
        self.grad_weight[:] = 0.0
        self.grad_bias[:] = 0.0


class DenseEmbedding:
    """A vectorized embedding matrix with sparse gradient updates.

    IDs are folded into ``vocab_rows`` via modulo (the standard hash
    trick) so laptop-scale training can consume the full-scale ID
    streams.  Gradients accumulate into a sparse (ids, deltas) list the
    optimizer scatters with
    :func:`~repro.embedding.table.scatter_add_rows`, a flat 1-D
    ``np.add.at`` at ``row * dim + j``.  Each element folds its
    updates left to right in index order (duplicate rows included),
    so the sums equal the 2-D ``np.add.at`` bit for bit.
    """

    def __init__(self, vocab_rows: int, dim: int, name: str,
                 rng: np.random.Generator, scale: float = 0.05):
        if vocab_rows < 1 or dim < 1:
            raise ValueError("vocab_rows and dim must be >= 1")
        self.name = name
        self.vocab_rows = vocab_rows
        self.dim = dim
        self.table = (rng.standard_normal((vocab_rows, dim))
                      * scale).astype(np.float64)
        self._sparse_grads: list = []
        self._last_rows: np.ndarray | None = None

    def fold(self, ids: np.ndarray) -> np.ndarray:
        """Map raw categorical IDs into table rows."""
        return np.asarray(ids, dtype=np.int64) % self.vocab_rows

    def forward(self, ids: np.ndarray) -> np.ndarray:
        """Lookup rows; shape ``(len(ids), dim)``."""
        rows = self.fold(ids)
        self._last_rows = rows
        return self.table[rows]

    def backward(self, grad: np.ndarray) -> None:
        """Record sparse gradients for the most recent forward."""
        if self._last_rows is None:
            raise RuntimeError("backward called before forward")
        self._sparse_grads.append((self._last_rows, grad))

    def sparse_grads(self) -> list:
        """Pending (rows, grads) pairs since the last ``zero_grad``."""
        return self._sparse_grads

    def zero_grad(self) -> None:
        """Drop pending sparse gradients."""
        self._sparse_grads = []

    def memory_bytes(self) -> int:
        """Bytes held by the table."""
        return self.table.nbytes

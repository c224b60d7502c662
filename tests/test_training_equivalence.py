"""Bitwise equivalence of the numpy training hot path vs its references.

The flat-index sparse scatter (:func:`scatter_add_rows`), the one-pass
:func:`sigmoid` and the ReLU backward gated by stored activations are
only allowed to make training *faster* than the plain forms kept below
as oracles: the 2-D ``np.add.at`` Adagrad
(:func:`reference_sparse_update`), the masked two-branch sigmoid
(:func:`reference_sigmoid`) and the backward that recomputes every
hidden layer's pre-activation (:func:`reference_backward`).  Every test
compares with ``==`` on the raw bytes (no tolerances): loss
trajectories, dense parameters, embedding tables and optimizer slots.
Any float that drifts by one ulp fails.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.nn.interactions
import repro.nn.loss
from repro.data.labeled import LabeledBatchIterator
from repro.data.spec import DatasetSpec, FieldSpec
from repro.embedding.table import scatter_add_rows
from repro.nn.interactions import dot_interaction_grad, fm_interaction_grad
from repro.nn.layers import DenseEmbedding, relu_grad, sigmoid
from repro.nn.network import WdlNetwork
from repro.nn.optim import SGD, Adagrad, Adam, Lamb, Optimizer

VARIANTS = ("wdl", "dlrm", "deepfm", "din", "dien")
OPTIMIZERS = {
    "sgd-momentum": lambda: SGD(lr=0.05, momentum=0.9, sparse_lr=0.05),
    "adagrad": lambda: Adagrad(lr=0.05),
    "adam": lambda: Adam(lr=0.01, sparse_lr=0.05),
    "lamb": lambda: Lamb(lr=0.01, sparse_lr=0.05),
}


# ---------------------------------------------------------------------------
# Oracles: the plain forms the hot path replaced
# ---------------------------------------------------------------------------

def reference_sigmoid(x):
    """The masked two-branch logistic function."""
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def reference_sparse_update(self, table):
    """Sparse Adagrad with 2-D ``np.add.at`` and an eager zero slot."""
    state = self._sparse_state.setdefault(
        table.name, np.zeros(table.table.shape, dtype=np.float64))
    for rows, grads in table.sparse_grads():
        np.add.at(state, rows, grads ** 2)
        denom = np.sqrt(state[rows]) + 1e-8
        np.add.at(table.table, rows, -self.sparse_lr * grads / denom)


def reference_backward(self, grad_logits):
    """:meth:`WdlNetwork.backward`, recomputing each ReLU's input."""
    batch, stack, pool_caches, activations = self._cache
    grad = grad_logits.reshape(-1, 1)
    grad = self.mlp[-1].backward(grad)
    for index in range(len(self.mlp) - 2, -1, -1):
        layer = self.mlp[index]
        pre = activations[index] @ layer.weight + layer.bias
        grad = relu_grad(pre, grad)
        grad = layer.backward(grad)

    fields_dim = stack.shape[1] * stack.shape[2]
    grad_stack = grad[:, :fields_dim].reshape(stack.shape)
    cursor = fields_dim
    if self.variant == "dlrm":
        width = stack.shape[1] * (stack.shape[1] - 1) // 2
        grad_stack += dot_interaction_grad(
            stack, grad[:, cursor:cursor + width])
    elif self.variant == "deepfm":
        grad_stack += fm_interaction_grad(
            stack, grad[:, cursor:cursor + 1].ravel())

    for index, spec in enumerate(self.dataset.fields):
        grad_field = grad_stack[:, index, :]
        table = self.embeddings[spec.name]
        kind, shape = pool_caches[spec.name]
        if kind == "scalar":
            table.backward(grad_field)
        elif kind == "mean":
            steps = shape[1]
            grad_seq = np.repeat(grad_field[:, None, :] / steps,
                                 steps, axis=1)
            table.backward(grad_seq.reshape(-1, self.embedding_dim))
        else:
            grad_seq = self.poolers[spec.name].backward(grad_field)
            table.backward(grad_seq.reshape(-1, self.embedding_dim))
    self._cache = None


@pytest.fixture
def reference_path(monkeypatch):
    """``(install, restore)``: swap every oracle in, and back out."""
    patches = [
        (repro.nn.interactions, "sigmoid", reference_sigmoid),
        (repro.nn.loss, "sigmoid", reference_sigmoid),
        (Optimizer, "_sparse_update", reference_sparse_update),
        (WdlNetwork, "backward", reference_backward),
    ]

    def install():
        for owner, name, value in patches:
            monkeypatch.setattr(owner, name, value)

    return install, monkeypatch.undo


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _dataset():
    """Two scalar fields and one sequence field over small vocabularies,
    so rows repeat heavily within and across steps."""
    return DatasetSpec(name="eq", num_numeric=2, fields=(
        FieldSpec(name="a", vocab_size=40, embedding_dim=8),
        FieldSpec(name="b", vocab_size=400, embedding_dim=8),
        FieldSpec(name="s", vocab_size=60, embedding_dim=8, seq_length=5),
    ))


def _batches(dataset, count, size=48, seed=3):
    iterator = LabeledBatchIterator(dataset, size, noise_scale=0.5,
                                    seed=seed)
    return [iterator.next_batch() for _ in range(count)]


def _network(dataset, variant):
    return WdlNetwork(dataset, variant=variant, embedding_dim=8,
                      vocab_rows=50, mlp_layers=(32, 16), seed=7)


def _bits(array):
    return np.ascontiguousarray(array).tobytes()


def _assert_same_state(network, reference, optimizer, reference_opt):
    for name, (value, _grad) in network.parameters().items():
        expected = reference.parameters()[name][0]
        assert _bits(value) == _bits(expected), name
    for name, table in network.embeddings.items():
        assert _bits(table.table) == _bits(
            reference.embeddings[name].table), name
    slots = optimizer.state_arrays()
    expected_slots = reference_opt.state_arrays()
    assert sorted(slots) == sorted(expected_slots)
    for key, value in slots.items():
        assert _bits(value) == _bits(expected_slots[key]), key


def _train(network, optimizer, batches):
    return [network.train_step(batch, optimizer) for batch in batches]


# ---------------------------------------------------------------------------
# Whole training runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("opt_name", sorted(OPTIMIZERS))
@pytest.mark.parametrize("variant", VARIANTS)
def test_training_trajectory_bitwise(variant, opt_name, reference_path):
    install, restore = reference_path
    dataset = _dataset()
    batches = _batches(dataset, 4)

    network, optimizer = _network(dataset, variant), OPTIMIZERS[opt_name]()
    losses = _train(network, optimizer, batches)

    install()
    reference = _network(dataset, variant)
    reference_opt = OPTIMIZERS[opt_name]()
    expected = _train(reference, reference_opt, batches)
    restore()

    assert losses == expected
    _assert_same_state(network, reference, optimizer, reference_opt)


# ---------------------------------------------------------------------------
# Sparse Adagrad update
# ---------------------------------------------------------------------------

def _sparse_step(pairs, update, rows=30, dim=4):
    table = DenseEmbedding(rows, dim, name="emb.t",
                           rng=np.random.default_rng(0))
    optimizer = Adagrad(lr=0.1)
    for _ in range(2):
        table._sparse_grads = list(pairs)
        update(optimizer, table)
    return table.table, optimizer._sparse_state[table.name]


def _assert_sparse_equal(pairs, rows=30, dim=4):
    got = _sparse_step(pairs, Optimizer._sparse_update, rows, dim)
    expected = _sparse_step(pairs, reference_sparse_update, rows, dim)
    for array, reference in zip(got, expected):
        assert _bits(array) == _bits(reference)


def test_sparse_update_several_overlapping_pairs():
    rng = np.random.default_rng(1)
    pairs = [(rng.integers(0, 12, size=size), rng.standard_normal((size, 4)))
             for size in (20, 7, 33, 1)]
    _assert_sparse_equal(pairs)


def test_sparse_update_empty_rows():
    empty = (np.array([], dtype=np.int64), np.empty((0, 4)))
    _assert_sparse_equal([empty])
    rng = np.random.default_rng(2)
    _assert_sparse_equal([empty, (rng.integers(0, 5, size=9),
                                  rng.standard_normal((9, 4))), empty])


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.lists(st.integers(0, 3), min_size=0, max_size=40).flatmap(
        lambda rows: st.tuples(
            st.just(rows),
            st.lists(st.floats(-1e3, 1e3, allow_nan=False, width=64),
                     min_size=3 * len(rows), max_size=3 * len(rows)))),
    min_size=1, max_size=4))


def test_sparse_update_duplicated_rows_property(raw_pairs):
    pairs = [(np.array(rows, dtype=np.int64),
              np.array(grads, dtype=np.float64).reshape(len(rows), 3))
             for rows, grads in raw_pairs]
    _assert_sparse_equal(pairs, rows=4, dim=3)


def test_sparse_state_allocated_once():
    """A step after the first allocates nothing table-sized (the eager
    ``setdefault`` built a 12.8 MB zero array here on every step)."""
    table = DenseEmbedding(100_000, 16, name="emb.t",
                           rng=np.random.default_rng(0))
    optimizer = Adagrad(lr=0.1)
    table._sparse_grads = [(np.array([1, 1, 3]), np.ones((3, 16)))]
    optimizer._sparse_update(table)
    state = optimizer._sparse_state["emb.t"]
    tracemalloc.start()
    try:
        optimizer._sparse_update(table)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < table.table.nbytes // 10
    assert optimizer._sparse_state["emb.t"] is state
    assert state.dtype == np.float64 and state.flags.c_contiguous


# ---------------------------------------------------------------------------
# scatter_add_rows vs 2-D np.add.at
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_scatter_add_rows_matches_add_at(dtype):
    rng = np.random.default_rng(4)
    base = rng.standard_normal((25, 6)).astype(dtype)
    rows = rng.integers(0, 5, size=200)
    values = (rng.standard_normal((200, 6)) * 1e3).astype(dtype)
    expected = base.copy()
    np.add.at(expected, rows, values)
    got = base.copy()
    scatter_add_rows(got, rows, values)
    assert got.dtype == dtype
    assert _bits(got) == _bits(expected)


def test_scatter_add_rows_rejects_non_contiguous_target():
    base = np.arange(40.0).reshape(5, 8)
    with pytest.raises(ValueError, match="C-contiguous"):
        scatter_add_rows(base[:, ::2], np.array([0, 2]), np.ones((2, 4)))
    assert _bits(base) == _bits(np.arange(40.0).reshape(5, 8))


# ---------------------------------------------------------------------------
# sigmoid
# ---------------------------------------------------------------------------

def test_sigmoid_special_values_bitwise():
    x = np.array([1000.0, -1000.0, 0.0, -0.0, np.nan, -np.nan,
                  np.inf, -np.inf, 710.0, -745.2, 36.7, -36.7])
    got, expected = sigmoid(x), reference_sigmoid(x)
    assert got.dtype == np.float64
    assert _bits(got) == _bits(expected)
    assert got[0] == 1.0 and got[1] == 0.0 and got[2] == got[3] == 0.5
    assert np.isnan(got[4]) and np.isnan(got[5])


@pytest.mark.parametrize("value", (-3.5, -0.0, 0.0, 2.25, np.nan))
def test_sigmoid_zero_d(value):
    x = np.array(value)
    got, expected = sigmoid(x), reference_sigmoid(x)
    assert isinstance(got, np.ndarray) and got.shape == ()
    assert _bits(got) == _bits(expected)


def test_sigmoid_float32_returns_float64_bitwise():
    x = (np.random.default_rng(5).standard_normal((64, 7)) * 30).astype(
        np.float32)
    got = sigmoid(x)
    assert got.dtype == np.float64
    assert _bits(got) == _bits(reference_sigmoid(x))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64),
                min_size=1, max_size=50))


def test_sigmoid_property_bitwise(values):
    x = np.array(values)
    assert _bits(sigmoid(x)) == _bits(reference_sigmoid(x))


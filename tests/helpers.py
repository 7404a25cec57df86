"""Helpers that several test modules share and the package does not need:
an obstacle-free grid, a field store row decoded to floats, perfbench's
tracer, and the composed tensor ops that the fused layers are checked
against bit for bit."""

import importlib.util
import os

import numpy as np

from magnnet.errors import ShapeError
from magnnet.pathplan import Grid
from magnnet.tensor import _make, as_tensor

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def empty_grid(dims) -> Grid:
    return Grid(tuple(dims), np.zeros(tuple(dims), dtype=bool))


def decoded(store, key) -> np.ndarray:
    """The store row of `key`, a (task id, motion model) it holds,
    decoded into a float32 array of the grid's (x, y, z) shape: inf
    where the row has not reached a cell, and off the plane for
    GROUND4."""
    task_id, model = key
    out = np.empty(store.grid.dims, dtype=np.float32)
    store._rings[model].decode(store._held[model].index(task_id), out)
    return out


def load_tracer():
    """perfbench/tracer.py, imported by path as perfbench's checks use it."""
    spec = importlib.util.spec_from_file_location(
        "tracer", os.path.join(REPO, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# composed ops: `tensor.linear` and `tensor.gcn_layer` run these chains'
# numpy calls in their order, so values and gradients must match exactly

def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul: {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def bwd(g):
        # a constant operand (an adjacency, input features) gets no gradient
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return _make(out_data, (a, b), bwd)


def relu(x):
    x = as_tensor(x)
    keep = x.data > 0.0
    return _make(x.data * keep, (x,), lambda g: (g * keep,))


def tsum(x):
    x = as_tensor(x)
    return _make(x.data.sum(), (x,),
                 lambda g: (np.full_like(x.data, float(g)),))

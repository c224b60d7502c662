"""A from-scratch numpy neural-network engine for WDL models.

This is the *accuracy* half of the reproduction: Tab. III trains
DLRM/DeepFM on Criteo-like data and DIN/DIEN on Alibaba-like data and
reports AUC parity between PICASSO's synchronous hybrid strategy and
the baselines, with asynchronous TF-PS slightly behind.  Everything
here is real training with manual backpropagation — embeddings, MLPs,
attention, GRUs, optimizers, losses, and the AUC metric.
"""

from repro.nn.layers import Dense, DenseEmbedding, relu, relu_grad, sigmoid
from repro.nn.interactions import (
    AttentionPooling,
    GruPooling,
    dot_interaction,
    dot_interaction_grad,
    fm_interaction,
    fm_interaction_grad,
)
from repro.nn.optim import SGD, Adagrad, Adam, Lamb, Optimizer
from repro.nn.loss import bce_loss, bce_loss_grad
from repro.nn.metrics import auc_score, log_loss
from repro.nn.network import WdlNetwork

__all__ = [
    "Dense",
    "DenseEmbedding",
    "relu",
    "relu_grad",
    "sigmoid",
    "AttentionPooling",
    "GruPooling",
    "dot_interaction",
    "dot_interaction_grad",
    "fm_interaction",
    "fm_interaction_grad",
    "SGD",
    "Adagrad",
    "Adam",
    "Lamb",
    "Optimizer",
    "bce_loss",
    "bce_loss_grad",
    "auc_score",
    "log_loss",
    "WdlNetwork",
]

"""Affine layers."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.autograd import functional as F
from repro.autograd import init
from repro.autograd.tensor import Tensor
from repro.nn.module import Module, Parameter


class Linear(Module):
    """``y = x @ W^T + b`` over the last axis of ``x``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x.matmul(self.weight.transpose())
        if self.bias is not None:
            out = out + self.bias
        return out


class MLP(Module):
    """Multi-layer perceptron with a configurable activation.

    Used for the REKS state featurizer ``s_t = MLP(Se ⊕ Sp)`` (Eq. 3)
    and as the transformer feed-forward block.
    """

    def __init__(self, sizes: Sequence[int],
                 activation: Callable[[Tensor], Tensor] = F.relu,
                 final_activation: bool = False,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("MLP needs at least an input and an output size")
        rng = rng or np.random.default_rng()
        self.activation = activation
        self.final_activation = final_activation
        self._layer_names = []
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            name = f"fc{i}"
            setattr(self, name, Linear(fan_in, fan_out, rng=rng))
            self._layer_names.append(name)

    def forward(self, x: Tensor) -> Tensor:
        last = len(self._layer_names) - 1
        for i, name in enumerate(self._layer_names):
            x = getattr(self, name)(x)
            if i < last or self.final_activation:
                x = self.activation(x)
        return x

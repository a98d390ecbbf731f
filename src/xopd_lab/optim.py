"""Adam with standard bias correction; parameters update in sorted-name order."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


class Adam:
    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        if lr < 0:
            raise ValueError(f"learning rate must be >= 0, got {lr}")
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v.data) for k, v in self.params.items()}
        self.v = {k: np.zeros_like(v.data) for k, v in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        for name in sorted(self.params):
            p = self.params[name]
            if p.grad is None:
                continue
            g, m, v = p.grad, self.m[name], self.v[name]
            # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and the update
            # lr * mhat / (sqrt(vhat) + EPS), in place with two temporaries:
            # the same operations in the same order, so the same bits.
            step = (1 - b1) * g
            m *= b1
            m += step
            np.multiply(1 - b2, g, out=step)
            step *= g
            v *= b2
            v += step
            np.divide(m, 1 - b1**self.t, out=step)
            step *= self.lr
            denom = v / (1 - b2**self.t)
            np.sqrt(denom, out=denom)
            denom += self.EPS
            step /= denom
            p.data -= step

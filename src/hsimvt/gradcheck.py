"""Gradient verification against central finite differences."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import GradGraph


@dataclass
class GradCheckReport:
    """Per-parameter max relative error between backward and central differences."""

    per_param: dict = field(default_factory=dict)
    tolerance: float = 1e-4

    @property
    def failures(self) -> list:
        """Names of the parameters whose error reaches the tolerance."""
        return [name for name, err in self.per_param.items() if err >= self.tolerance]

    @property
    def max_rel_err(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [f"gradient check (tolerance {self.tolerance:g}):"]
        for name, err in self.per_param.items():
            mark = "FAIL" if name in self.failures else "ok"
            lines.append(f"  {name}: max rel err {err:.3e} [{mark}]")
        return "\n".join(lines)


def check_gradients(model_fn, params, tolerance: float = 1e-4,
                    epsilon: float = 1e-4) -> GradCheckReport:
    """Compare reverse-mode gradients of ``model_fn()`` with central differences.

    ``model_fn`` must be deterministic, take no arguments, read the current
    values of ``params`` (a mapping name -> Tensor) and return a scalar
    loss Tensor. Use float64 parameters; the relative error of a float32
    forward pass swamps the check.
    """
    items = list(params.items())

    # Zeroed in place, not dropped: a ModelParams tensor's grad is a view
    # of its flat gradient vector, and backward would add to what is there.
    for _, p in items:
        if p.grad is not None:
            p.grad.fill(0)
    with GradGraph() as graph:
        loss = model_fn()
    graph.backward(loss)
    analytic = {}
    for name, p in items:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
        analytic[name] = p.grad.copy()

    report = GradCheckReport(tolerance=tolerance)
    for name, p in items:
        # Both walk the entries in C order; ``flat`` writes through to any
        # layout of the parameter, where ``reshape(-1)`` could copy it.
        flat = p.data.flat
        fd = np.empty(p.data.shape, dtype=p.data.dtype)
        fd_flat = fd.reshape(-1)
        for i in range(fd.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            f_plus = float(model_fn().data)
            flat[i] = orig - epsilon
            f_minus = float(model_fn().data)
            flat[i] = orig
            fd_flat[i] = (f_plus - f_minus) / (2.0 * epsilon)
        a = analytic[name]
        # where both gradients are below 1e-6 the error is absolute, not relative to ~0
        denom = np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-6)
        rel = float((np.abs(a - fd) / denom).max()) if a.size else 0.0
        report.per_param[name] = rel
    return report


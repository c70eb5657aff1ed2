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
    failures: list = field(default_factory=list)

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
                    epsilon: float = 1e-4, denom_floor: float = 1e-6) -> GradCheckReport:
    """Compare reverse-mode gradients of ``model_fn()`` with central differences.

    ``model_fn`` must be deterministic, take no arguments, read the current
    values of ``params`` (a mapping name -> Tensor, or a sequence of
    Tensors) and return a scalar loss Tensor. Use float64 parameters; the
    relative error of a float32 forward pass swamps the check.
    """
    if isinstance(params, dict):
        items = list(params.items())
    else:
        items = [(f"param{i}", p) for i, p in enumerate(params)]

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
        fd = np.empty_like(p.data)
        flat = p.data.reshape(-1)
        fd_flat = fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            f_plus = float(model_fn().data)
            flat[i] = orig - epsilon
            f_minus = float(model_fn().data)
            flat[i] = orig
            fd_flat[i] = (f_plus - f_minus) / (2.0 * epsilon)
        a = analytic[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(fd)), denom_floor)
        rel = float((np.abs(a - fd) / denom).max()) if a.size else 0.0
        report.per_param[name] = rel
        if rel >= tolerance:
            report.failures.append(name)
    return report


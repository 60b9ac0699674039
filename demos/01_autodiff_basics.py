"""Walkthrough of the autodiff core: tapes, backward, the gradient checker,
and the four optimizers racing down the same quadratic bowl."""

import numpy as np

from fusionscreen.autodiff import ValueGraph, gradient_check
from fusionscreen.optim import Optimizer, OptimizerConfig

print("== building a small tape ==")
g = ValueGraph()
x = g.input(np.array([[1.0, 2.0], [3.0, 4.0]]))
w = g.parameter(np.array([[0.5], [-0.25]]))
b = g.parameter(np.array([0.1]))
pred = g.apply("dense", [x, w, b])
y = g.input(np.array([[0.0], [1.0]]))
loss = g.apply("mse-loss", [pred, y])
print(f"forward loss = {g.value(loss):.6f}")

grads = g.backward(loss)
print(f"dL/dw = {grads[w].ravel()}")
print(f"dL/db = {grads[b].ravel()}")

err = gradient_check(g, loss, 1e-5)
print(f"central-difference check: max rel error {err:.2e}")

print("\n== optimizer race on f(w) = sum(w^2) ==")
for kind in ("adam", "adamw", "rmsprop", "adadelta"):
    opt = Optimizer(OptimizerConfig(kind, learning_rate=0.1))
    params = {"w": np.array([3.0, -2.0])}
    for _ in range(200):
        params = opt.step(params, {"w": 2.0 * params["w"]})
    print(f"  {kind:<9} |w| after 200 steps = "
          f"{float(np.linalg.norm(params['w'])):.4f}")

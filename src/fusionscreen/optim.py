"""First-order optimizers with persistent per-parameter state.

Supported kinds: adam, adamw, rmsprop, adadelta.  State is a plain dict of
arrays so it serializes with checkpoints and clones bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["OptimizerConfig", "Optimizer"]

_KINDS = ("adam", "adamw", "rmsprop", "adadelta")

_DEFAULTS = {
    "adam": {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8},
    "adamw": {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "weight_decay": 0.01},
    "rmsprop": {"rho": 0.9, "eps": 1e-8},
    "adadelta": {"rho": 0.95, "eps": 1e-6},
}


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "adam"
    learning_rate: float = 1e-3
    coefficients: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}; expected one of {_KINDS}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")

    def coeff(self, name: str) -> float:
        return float(self.coefficients.get(name, _DEFAULTS[self.kind][name]))


class Optimizer:
    """Stateful update rule over a named parameter dict."""

    def __init__(self, cfg: OptimizerConfig):
        self.cfg = cfg
        self.step_count = 0
        self.state: dict[str, dict[str, np.ndarray]] = {}

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        missing = [k for k in params if k not in grads]
        if missing:
            raise ValueError(f"missing gradients for parameters: {sorted(missing)}")
        self.step_count += 1
        out = {}
        for name, w in params.items():
            out[name] = self._update(name, w, np.asarray(grads[name], dtype=np.float64))
        return out

    def _update(self, name, w, g):
        cfg = self.cfg
        lr = cfg.learning_rate
        st = self.state.setdefault(name, {})
        if cfg.kind in ("adam", "adamw"):
            b1, b2, eps = cfg.coeff("beta1"), cfg.coeff("beta2"), cfg.coeff("eps")
            m = st.setdefault("m", np.zeros_like(w))
            v = st.setdefault("v", np.zeros_like(w))
            m[...] = b1 * m + (1 - b1) * g
            v[...] = b2 * v + (1 - b2) * g * g
            t = self.step_count
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            new = w - lr * mhat / (np.sqrt(vhat) + eps)
            if cfg.kind == "adamw":
                new = new - lr * cfg.coeff("weight_decay") * w
            return new
        if cfg.kind == "rmsprop":
            rho, eps = cfg.coeff("rho"), cfg.coeff("eps")
            v = st.setdefault("v", np.zeros_like(w))
            v[...] = rho * v + (1 - rho) * g * g
            return w - lr * g / (np.sqrt(v) + eps)
        # adadelta
        rho, eps = cfg.coeff("rho"), cfg.coeff("eps")
        eg = st.setdefault("eg", np.zeros_like(w))
        ed = st.setdefault("ed", np.zeros_like(w))
        eg[...] = rho * eg + (1 - rho) * g * g
        delta = np.sqrt(ed + eps) / np.sqrt(eg + eps) * g
        ed[...] = rho * ed + (1 - rho) * delta * delta
        return w - lr * delta

    # -- checkpoint plumbing --------------------------------------------
    def state_arrays(self) -> dict[str, np.ndarray]:
        flat = {}
        for pname, st in self.state.items():
            for key, arr in st.items():
                flat[f"{pname}::{key}"] = arr
        return flat

    def load_state_arrays(self, flat: dict[str, np.ndarray], step_count: int) -> None:
        self.step_count = int(step_count)
        self.state = {}
        for full, arr in flat.items():
            pname, key = full.rsplit("::", 1)
            self.state.setdefault(pname, {})[key] = np.array(arr, dtype=np.float64)

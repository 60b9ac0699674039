"""Self-describing checkpoint container (npz) with bit-exact round-trip.

Layout: a JSON metadata entry plus one float64 array per parameter and per
optimizer-state slot.  Versioned so future formats can refuse politely.
Saving is atomic: a failed save leaves the previous file at the path intact.
"""

from __future__ import annotations

import json
import os
import secrets
from pathlib import Path

import numpy as np

from .optim import Optimizer, OptimizerConfig

FORMAT_VERSION = 1

__all__ = ["save_checkpoint", "load_checkpoint", "FORMAT_VERSION"]


def save_checkpoint(path, params: dict[str, np.ndarray],
                    optimizer: Optimizer | None = None,
                    meta: dict | None = None) -> None:
    payload = {}
    for name, arr in params.items():
        payload[f"param/{name}"] = np.asarray(arr, dtype=np.float64)
    header = {
        "format_version": FORMAT_VERSION,
        "param_names": sorted(params),
        "meta": meta or {},
    }
    if optimizer is not None:
        header["optimizer"] = {
            "kind": optimizer.cfg.kind,
            "learning_rate": optimizer.cfg.learning_rate,
            "coefficients": optimizer.cfg.coefficients,
            "step_count": optimizer.step_count,
        }
        for name, arr in optimizer.state_arrays().items():
            payload[f"opt/{name}"] = arr
    payload["__header__"] = np.frombuffer(
        json.dumps(header, sort_keys=True).encode(), dtype=np.uint8
    )
    # Written beside the target, then renamed over it, so a writer that
    # fails partway leaves the previous checkpoint in place.
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as f:
            np.savez(f, **payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], Optimizer | None, dict]:
    with np.load(Path(path)) as z:
        header = json.loads(bytes(z["__header__"]).decode())
        if header["format_version"] != FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint format {header['format_version']}"
            )
        params = {
            name: np.array(z[f"param/{name}"]) for name in header["param_names"]
        }
        optimizer = None
        if "optimizer" in header:
            o = header["optimizer"]
            optimizer = Optimizer(
                OptimizerConfig(o["kind"], o["learning_rate"],
                                dict(o["coefficients"]))
            )
            flat = {
                k[len("opt/"):]: np.array(z[k])
                for k in z.files
                if k.startswith("opt/")
            }
            optimizer.load_state_arrays(flat, o["step_count"])
    return params, optimizer, header["meta"]

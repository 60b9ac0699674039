import json

import numpy as np
import pytest

from fusionscreen.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from fusionscreen.optim import Optimizer, OptimizerConfig


def test_params_roundtrip_bitwise(tmp_path, rng):
    params = {"layer1/w": rng.normal(size=(4, 3)),
              "layer1/b": rng.normal(size=3),
              "out/w": np.array([1e-300, 1e300, -0.0])}
    path = tmp_path / "m.npz"
    save_checkpoint(path, params)
    loaded, opt, meta = load_checkpoint(path)
    assert opt is None
    assert meta == {}
    assert sorted(loaded) == sorted(params)
    for k in params:
        assert np.array_equal(loaded[k], params[k])
        assert loaded[k].dtype == np.float64


def test_optimizer_state_roundtrip(tmp_path, rng):
    opt = Optimizer(OptimizerConfig("adam", 0.01, {"beta1": 0.85}))
    w = {"w": rng.normal(size=5)}
    for _ in range(3):
        w = opt.step(w, {"w": rng.normal(size=5)})
    path = tmp_path / "m.npz"
    save_checkpoint(path, w, opt, {"note": "test"})
    loaded_w, loaded_opt, meta = load_checkpoint(path)
    assert meta == {"note": "test"}
    assert loaded_opt.cfg == opt.cfg
    assert loaded_opt.step_count == 3
    for name, st in opt.state.items():
        for key, arr in st.items():
            assert np.array_equal(loaded_opt.state[name][key], arr)
    # continued training is bit-identical
    g = rng.normal(size=5)
    assert np.array_equal(opt.step(dict(w), {"w": g})["w"],
                          loaded_opt.step(dict(loaded_w), {"w": g})["w"])


def test_future_format_rejected(tmp_path):
    path = tmp_path / "m.npz"
    save_checkpoint(path, {"w": np.zeros(2)})
    with np.load(path) as z:
        header = json.loads(bytes(z["__header__"]).decode())
        arrays = {k: z[k] for k in z.files}
    header["format_version"] = FORMAT_VERSION + 1
    arrays["__header__"] = np.frombuffer(json.dumps(header).encode(),
                                         dtype=np.uint8)
    with open(path, "wb") as f:
        np.savez(f, **arrays)
    with pytest.raises(ValueError, match="unsupported checkpoint format"):
        load_checkpoint(path)


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "m.npz"
    save_checkpoint(path, {"w": np.arange(3.0)})

    def savez_then_fail(f, **arrays):
        f.write(b"PK\x03\x04 partial archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", savez_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, {"w": np.ones(3)})
    monkeypatch.undo()
    params, _, _ = load_checkpoint(path)
    assert np.array_equal(params["w"], np.arange(3.0))
    assert [p.name for p in tmp_path.iterdir()] == ["m.npz"]

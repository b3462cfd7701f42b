"""Binary checkpoint container format."""

import numpy as np
import pytest

from clustersum.checkpoint import load_checkpoint, save_checkpoint
from clustersum.decoder import DecoderModel
from clustersum.encoder import EncoderModel, ModelConfig


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "b.weight": rng.normal(size=(4, 6)).astype(np.float32),
        "a.bias": rng.normal(size=3).astype(np.float32),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, component="encoder", config={"hidden_size": 6},
                    tensors=tensors, extra={"num_labels": 2})
    ckpt = load_checkpoint(path)
    assert ckpt.component == "encoder"
    assert ckpt.config == {"hidden_size": 6}
    assert ckpt.extra == {"num_labels": 2}
    assert set(ckpt.tensors) == set(tensors)
    for name, arr in tensors.items():
        np.testing.assert_array_equal(ckpt.tensors[name], arr)


def test_byte_stable_for_identical_models(tmp_path):
    tensors = {"w": np.arange(12, dtype=np.float32).reshape(3, 4)}
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, component="decoder", config={}, tensors=tensors)
    save_checkpoint(b, component="decoder", config={}, tensors=tensors)
    assert a.read_bytes() == b.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint\n{}\n")
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, component="encoder", config={},
                    tensors={"w": np.ones((8, 8), dtype=np.float32)})
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize("model_type,num_labels", [
    (EncoderModel, None), (EncoderModel, 3), (DecoderModel, None),
])
def test_model_save_load_save_is_byte_identical(tmp_path, model_type, num_labels):
    config = ModelConfig.desk_scale(vocab_size=20, max_len=8)
    model = model_type(config, np.random.default_rng(0))
    if num_labels is not None:
        model.add_classifier(num_labels, np.random.default_rng(1))
    first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
    model.save(first)
    loaded = model_type.load(first)
    loaded.save(second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded.parameter_hash() == model.parameter_hash()

"""Binary checkpoint container format."""

from dataclasses import asdict

import numpy as np
import pytest

import clustersum.encoder
import clustersum.layers
from clustersum.checkpoint import load_checkpoint, save_checkpoint
from clustersum.decoder import DecoderModel, init_from_encoder
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


def test_zero_dim_and_empty_tensors_round_trip(tmp_path):
    tensors = {
        "scalar": np.array(1.5, dtype=np.float32),
        "empty": np.zeros(0, dtype=np.float32),
        "empty_rows": np.zeros((0, 3), dtype=np.float32),
        "after": np.arange(4, dtype=np.float32),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, component="encoder", config={}, tensors=tensors)
    ckpt = load_checkpoint(path)
    for name, arr in tensors.items():
        assert ckpt.tensors[name].shape == arr.shape
        np.testing.assert_array_equal(ckpt.tensors[name], arr)


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


def _desk_model(model_type=EncoderModel, num_labels=None):
    model = model_type(ModelConfig.desk_scale(vocab_size=20, max_len=8), np.random.default_rng(0))
    if num_labels is not None:
        model.add_classifier(num_labels, np.random.default_rng(1))
    return model


def _drop_ffn_bias(tensors):
    del tensors["block1.ffn.lin2.bias"]


def _add_stray(tensors):
    tensors["stray.weight"] = np.ones((2, 2), dtype=np.float32)


def _narrow_query(tensors):
    tensors["block0.attn.wq.weight"] = np.ones((64, 32), dtype=np.float32)


def _old_cross_layout(tensors):
    """Cross-attention once held query and key projections, which could not
    change its output; a checkpoint written then still holds them."""
    for i in range(2):
        for proj in ("wq", "wk"):
            tensors[f"block{i}.cross_attn.{proj}.weight"] = np.ones((64, 64), dtype=np.float32)
            tensors[f"block{i}.cross_attn.{proj}.bias"] = np.zeros(64, dtype=np.float32)


@pytest.mark.parametrize("model_type,edit,match", [
    pytest.param(EncoderModel, _drop_ffn_bias, "block1.ffn.lin2.bias",
                 id="_drop_ffn_bias-block1.ffn.lin2.bias"),
    pytest.param(EncoderModel, _add_stray, "stray.weight", id="_add_stray-stray.weight"),
    pytest.param(EncoderModel, _narrow_query, "shape mismatch for block0.attn.wq.weight",
                 id="_narrow_query-shape mismatch for block0.attn.wq.weight"),
    pytest.param(DecoderModel, _old_cross_layout, "block0.cross_attn.wq.weight",
                 id="DecoderModel-_old_cross_layout"),
])
def test_load_rejects_mismatched_tensors(tmp_path, model_type, edit, match):
    """``Model.load`` builds zero shells; its name and shape checks are what
    guarantee every shell is replaced by a checkpoint tensor."""
    model = _desk_model(model_type)
    tensors = {n: p.data for n, p in model.named_parameters().items()}
    edit(tensors)
    save_checkpoint(tmp_path / "m.ckpt", component=model.component,
                    config=asdict(model.config), tensors=tensors)
    with pytest.raises(ValueError, match=match):
        model_type.load(tmp_path / "m.ckpt")


@pytest.fixture
def init_normal_generators(monkeypatch):
    """The ``rng`` argument of every ``init_normal`` call the layers and
    models make while the fixture is active."""
    seen = []
    real = clustersum.layers.init_normal

    def spy(rng, *args, **kwargs):
        seen.append(rng)
        return real(rng, *args, **kwargs)

    monkeypatch.setattr(clustersum.layers, "init_normal", spy)
    monkeypatch.setattr(clustersum.encoder, "init_normal", spy)
    return seen


@pytest.mark.parametrize("model_type,num_labels", [
    (EncoderModel, None), (EncoderModel, 3), (DecoderModel, None),
])
def test_load_draws_nothing(tmp_path, init_normal_generators, model_type, num_labels):
    model = _desk_model(model_type, num_labels)
    model.save(tmp_path / "m.ckpt")
    init_normal_generators.clear()
    model_type.load(tmp_path / "m.ckpt")
    assert init_normal_generators and all(rng is None for rng in init_normal_generators)


def test_init_from_encoder_draws_nothing(init_normal_generators):
    encoder = _desk_model()
    init_normal_generators.clear()
    init_from_encoder(encoder)
    assert init_normal_generators and all(rng is None for rng in init_normal_generators)


def test_float64_model_save_refused(tmp_path):
    model = EncoderModel(ModelConfig.desk_scale(vocab_size=20, max_len=8),
                         np.random.default_rng(0), dtype=np.float64)
    with pytest.raises(ValueError, match="float64"):
        model.save(tmp_path / "m.ckpt")
    assert list(tmp_path.iterdir()) == []

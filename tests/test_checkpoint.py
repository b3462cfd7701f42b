"""Binary checkpoint container format."""

import json
import re
from dataclasses import asdict

import numpy as np
import pytest

import clustersum.layers
from clustersum.checkpoint import ALIGN, load_checkpoint, save_checkpoint
from clustersum.decoder import DecoderModel, init_from_encoder
from clustersum.encoder import EncoderModel, ModelConfig

from oracles import parameter_hash, rewrite_checkpoint_header


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "b.weight": rng.normal(size=(4, 6)).astype(np.float32),
        "a.bias": rng.normal(size=3).astype(np.float32),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, component="encoder", config={"hidden_size": 6}, tensors=tensors)
    ckpt = load_checkpoint(path)
    assert ckpt.component == "encoder"
    assert ckpt.config == {"hidden_size": 6}
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


def test_header_of_another_format_version_refused(tmp_path):
    """A version-3 header (its attention key projections had a bias) and a
    version-2 one (its payloads were not aligned) are refused."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, component="encoder", config={}, tensors={"w": np.zeros(2, np.float32)})
    magic, header, payload = path.read_bytes().split(b"\n", 2)
    assert json.loads(header)["version"] == 4
    for old in (b"3", b"2"):
        path.write_bytes(magic + b"\n" + header.replace(b'"version": 4', b'"version": ' + old)
                         + b"\n" + payload)
        with pytest.raises(ValueError, match=f"unsupported checkpoint version {old.decode()}"):
            load_checkpoint(path)


def _payload_offsets(path):
    """Where each tensor's payload starts in the file, by name, read from the
    header's shapes and the ``ALIGN`` padding rule."""
    data = path.read_bytes()
    magic, header, _ = data.split(b"\n", 2)
    offset, offsets = len(magic) + len(header) + 2, {}
    for entry in json.loads(header)["tensors"]:
        offset += -offset % ALIGN
        offsets[entry["name"]] = offset
        offset += 4 * int(np.prod(entry["shape"]))
    assert offset == len(data)
    return offsets


def test_every_payload_starts_at_a_multiple_of_align(tmp_path):
    rng = np.random.default_rng(3)
    tensors = {f"t{i}": rng.normal(size=shape).astype(np.float32)
               for i, shape in enumerate([(3,), (5, 7), (), (0,), (11,), (2, 64)])}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, component="encoder", config={"odd": "x" * 13}, tensors=tensors)
    offsets = _payload_offsets(path)
    assert sorted(offsets) == sorted(tensors)
    assert all(offset % ALIGN == 0 for offset in offsets.values())
    data = path.read_bytes()
    for name, arr in tensors.items():
        assert data[offsets[name]:offsets[name] + arr.nbytes] == arr.astype("<f4").tobytes()


def test_loaded_tensors_are_read_only_aligned_views(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, component="encoder", config={},
                    tensors={"a": np.ones(3, np.float32), "b": np.ones((4, 4), np.float32)})
    ckpt = load_checkpoint(path)
    for arr in ckpt.tensors.values():
        assert not arr.flags.writeable and arr.flags.aligned and arr.flags.c_contiguous
        assert arr.ctypes.data % ALIGN == 0
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 2.0
    np.testing.assert_array_equal(ckpt.tensors["b"], 1.0)


def test_a_model_loaded_before_its_file_is_replaced_keeps_its_values(tmp_path):
    """Fine-tuning loads the encoder, trains all but its MLM head, and saves
    over the same file; the head it never trained still reads the mapping,
    which must keep the old file's values."""
    path = tmp_path / "m.ckpt"
    _desk_model().save(path)
    loaded = EncoderModel.load(path)
    before = parameter_hash(loaded)
    EncoderModel(loaded.config, np.random.default_rng(9)).save(path)
    assert parameter_hash(loaded) == before
    assert parameter_hash(EncoderModel.load(path)) != before


def _set(key, value):
    return lambda h: {**h, key: value}


def _set_entry(**fields):
    return lambda h: {**h, "tensors": [{**h["tensors"][0], **fields}] + h["tensors"][1:]}


@pytest.mark.parametrize("edit, match", [
    pytest.param(lambda h: [h], "a checkpoint header must be a JSON object", id="not-an-object"),
    pytest.param(_set("component", 3), "needs 'component' as a string", id="component"),
    pytest.param(_set("config", [1]), "needs 'config' as an object", id="config"),
    pytest.param(_set("tensors", None), "needs 'tensors' as a list", id="tensors"),
    pytest.param(_set_entry(name=None), "tensor entry 0 needs 'name' as a string", id="name"),
    pytest.param(_set_entry(shape=[-2]), "tensor entry 0 needs", id="negative"),
    pytest.param(_set_entry(shape=[True]), "tensor entry 0 needs", id="bool"),
    pytest.param(_set_entry(shape=2), "tensor entry 0 needs", id="not-a-list"),
    pytest.param(_set_entry(name="b"), "names a tensor twice", id="duplicate"),
])
def test_malformed_header_refused(tmp_path, edit, match):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, component="encoder", config={},
                    tensors={"a": np.ones(2, np.float32), "b": np.ones(2, np.float32)})
    rewrite_checkpoint_header(path, lambda h: h)
    assert load_checkpoint(path).tensors.keys() == {"a", "b"}
    rewrite_checkpoint_header(path, edit)
    with pytest.raises(ValueError, match=match):
        load_checkpoint(path)


def test_header_that_is_not_json_names_the_file(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, component="encoder", config={}, tensors={"a": np.ones(2, np.float32)})
    magic, header, payload = path.read_bytes().split(b"\n", 2)
    path.write_bytes(magic + b"\n" + header[:-1] + b"\n" + payload)
    with pytest.raises(ValueError, match=re.escape(f"{path}: not JSON (")):
        load_checkpoint(path)


def test_zero_dim_and_empty_tensors_round_trip(tmp_path):
    tensors = {
        "scalar": np.array(1.5, dtype=np.float32),
        "empty": np.zeros(0, dtype=np.float32),
        "empty_rows": np.zeros((0, 3), dtype=np.float32),
        "after": np.arange(4, dtype=np.float32),
        # sorts last, so the file ends with its padding and no payload
        "zz_empty": np.zeros((2, 0), dtype=np.float32),
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


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, component="encoder", config={},
                    tensors={"w": np.ones((8, 8), dtype=np.float32)})
    path.write_bytes(path.read_bytes() + bytes(12))
    with pytest.raises(ValueError, match="12 bytes after the last payload"):
        load_checkpoint(path)


@pytest.mark.parametrize("model_type,num_labels", [
    (EncoderModel, None), (EncoderModel, 3), (DecoderModel, None),
])
def test_model_save_load_save_is_byte_identical(tmp_path, model_type, num_labels):
    config = ModelConfig.desk_scale(vocab_size=20, max_len=8, dropout=0.1)
    model = model_type(config, np.random.default_rng(0))
    if num_labels is not None:
        model.add_classifier(num_labels, np.random.default_rng(1))
    first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
    model.save(first)
    loaded = model_type.load(first)
    loaded.save(second)
    assert first.read_bytes() == second.read_bytes()
    assert parameter_hash(loaded) == parameter_hash(model)


def _desk_model(model_type=EncoderModel, num_labels=None):
    model = model_type(ModelConfig.desk_scale(vocab_size=20, max_len=8, dropout=0.1), np.random.default_rng(0))
    if num_labels is not None:
        model.add_classifier(num_labels, np.random.default_rng(1))
    return model


def _drop_ffn_bias(tensors):
    del tensors["block1.ffn.lin2.bias"]


def _add_stray(tensors):
    tensors["stray.weight"] = np.ones((2, 2), dtype=np.float32)


def _narrow_query(tensors):
    tensors["block0.attn.wq.weight"] = np.ones((64, 32), dtype=np.float32)


def _add_classifier(tensors):
    tensors["classifier.weight"] = np.ones((64, 3), dtype=np.float32)


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
    pytest.param(DecoderModel, _add_classifier, "classifier.weight",
                 id="DecoderModel-_add_classifier"),
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
def draws(monkeypatch):
    """The generator of every ``draw_normal`` call the layers and models
    make while the fixture is active."""
    seen = []
    real = clustersum.layers.draw_normal

    def spy(rng, tensors):
        seen.append(rng)
        real(rng, tensors)

    monkeypatch.setattr(clustersum.layers, "draw_normal", spy)
    return seen


@pytest.mark.parametrize("model_type,num_labels", [
    (EncoderModel, None), (EncoderModel, 3), (DecoderModel, None),
])
def test_load_draws_nothing(tmp_path, draws, model_type, num_labels):
    model = _desk_model(model_type, num_labels)
    model.save(tmp_path / "m.ckpt")
    assert draws, "building the model drew nothing the spy saw"
    draws.clear()
    model_type.load(tmp_path / "m.ckpt")
    assert draws == []


def test_init_from_encoder_draws_nothing(draws):
    encoder = _desk_model()
    assert draws, "building the encoder drew nothing the spy saw"
    draws.clear()
    init_from_encoder(encoder)
    assert draws == []


@pytest.mark.parametrize("model_type,num_labels", [
    (EncoderModel, None), (EncoderModel, 3), (DecoderModel, None),
])
def test_astype_round_trip_keeps_every_byte(draws, model_type, num_labels):
    """float32 -> float64 -> float32 gives the model back byte for byte,
    classifier head included; the casts are copies built without drawing,
    and the source model is left as it was."""
    model = _desk_model(model_type, num_labels)
    before = parameter_hash(model)
    assert draws, "building the model drew nothing the spy saw"
    draws.clear()
    wide = model.astype(np.float64)
    assert draws == []
    assert type(wide) is model_type and wide.dtype == np.float64
    assert {p.dtype for p in wide.parameters()} == {np.dtype(np.float64)}
    assert wide.named_parameters().keys() == model.named_parameters().keys()
    if num_labels is not None:
        assert wide.classifier.weight.shape[1] == num_labels
    narrow = wide.astype(np.float32)
    assert narrow.dtype == np.float32 and parameter_hash(narrow) == before
    wide.word_embedding.data += 1.0
    narrow.word_embedding.data += 1.0
    assert parameter_hash(model) == before


def test_float64_model_save_refused(tmp_path):
    model = EncoderModel(ModelConfig.desk_scale(vocab_size=20, max_len=8, dropout=0.1),
                         np.random.default_rng(0)).astype(np.float64)
    with pytest.raises(ValueError, match="float64"):
        model.save(tmp_path / "m.ckpt")
    assert list(tmp_path.iterdir()) == []

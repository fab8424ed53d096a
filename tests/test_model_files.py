"""Model-file tests for the agent checkpoint (QNET) and the forecaster
file (QLSTM): the pinned byte layout, and the reader's rejection of
truncated or corrupt files."""

import hashlib
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantrl.a3c import ActorCriticNet, load_checkpoint, save_checkpoint
from quantrl.cli import main
from quantrl.diffnet import pack_arrays, unpack_arrays
from quantrl.errors import ModelFileError
from quantrl.forecaster import ForecastModel, load_forecaster, save_forecaster


def small_net():
    net = ActorCriticNet(obs_dim=5, head_kind="quantum", latent_dim=3,
                         vqc_depth=1, seed=9)
    net.set_flat(np.linspace(-1.0, 1.0, net.get_flat().size))
    return net


def small_forecaster():
    model = ForecastModel(n_features=6, hidden=4, lookback=3, seed=2)
    model.store.set(np.linspace(-1.0, 1.0, model.store.values.size))
    return model


def same_parameters(a, b) -> bool:
    return all(np.array_equal(p.value, q.value)
               for p, q in zip(a.parameters(), b.parameters(), strict=True))


# magic, model factory, writer, reader, SHA-256 of the file the writer made
# for the factory's model before the writers shared one container
FORMATS = {
    "qnet": (b"QNET", small_net, save_checkpoint, load_checkpoint,
             "4df5060a262759882384382a71ac5160389d8e209235783328cbdd9a498c8a66"),
    "qlstm": (b"QLSTM", small_forecaster, save_forecaster, load_forecaster,
              "170ba277d70995cf437561c5e2d28615718f2b7c37cdb8cc0b10261eb0f73e65"),
}


def written_bytes(fmt):
    _, make, save, _, _ = FORMATS[fmt]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model"
        save(make(), path)
        return path.read_bytes()


def assemble(magic, header: bytes, blob: bytes) -> bytes:
    return magic + struct.pack("<I", len(header)) + header + blob


def header_and_blob(magic, raw: bytes):
    (meta_len,) = struct.unpack_from("<I", raw, len(magic))
    start = len(magic) + 4
    return json.loads(raw[start:start + meta_len]), raw[start + meta_len:]


def with_header(fmt, **changes) -> bytes:
    """The writer's file for the format with some header values replaced."""
    magic = FORMATS[fmt][0]
    header, blob = header_and_blob(magic, written_bytes(fmt))
    header.update(changes)
    return assemble(magic, json.dumps(header, sort_keys=True).encode(), blob)


@pytest.mark.parametrize("fmt", FORMATS)
def test_layout_pinned_and_roundtrips(tmp_path, fmt):
    _, make, _, load, digest = FORMATS[fmt]
    raw = written_bytes(fmt)
    assert hashlib.sha256(raw).hexdigest() == digest
    path = tmp_path / "model"
    path.write_bytes(raw)
    back = load(path)
    assert same_parameters(back, make())


def test_loaded_forecaster_store_holds_the_file_arrays(tmp_path):
    raw = written_bytes("qlstm")
    path = tmp_path / "model.qlstm"
    path.write_bytes(raw)
    _, blob = header_and_blob(b"QLSTM", raw)
    arrays = unpack_arrays(blob)
    assert np.array_equal(load_forecaster(path).store.values,
                          np.concatenate([a.ravel() for a in arrays]))


@st.composite
def corrupt_files(draw, fmt):
    """(kind, bytes) of a file that no reader may accept."""
    magic, make, _, _, _ = FORMATS[fmt]
    raw = written_bytes(fmt)
    header, _ = header_and_blob(magic, raw)
    arrays = [p.value.copy() for p in make().parameters()]
    kind = draw(st.sampled_from([
        "truncated", "trailing", "non-finite", "count", "shape",
        "header-bytes", "header-missing-key", "header-value",
    ]))
    if kind == "truncated":
        return kind, raw[:draw(st.integers(0, len(raw) - 1))]
    if kind == "trailing":
        return kind, raw + draw(st.binary(min_size=1, max_size=16))
    i = draw(st.integers(0, len(arrays) - 1))
    if kind == "non-finite":
        j = draw(st.integers(0, arrays[i].size - 1))
        arrays[i].flat[j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    elif kind == "count":
        extra = [] if draw(st.booleans()) else [arrays[i], arrays[i]]
        arrays = arrays[:i] + extra + arrays[i + 1:]
    elif kind == "shape":
        new_shape = draw(st.sampled_from([(1,), (arrays[i].size + 1,), (2, 1, 1)])
                         .filter(lambda shape: shape != arrays[i].shape))
        arrays[i] = np.zeros(new_shape)
    elif kind == "header-bytes":
        text = draw(st.binary(max_size=40) | st.just(json.dumps(list(header)).encode()))
        return kind, assemble(magic, text, pack_arrays(arrays))
    else:
        key = draw(st.sampled_from(sorted(header)))
        if kind == "header-missing-key":
            del header[key]
        else:
            header[key] = draw(st.one_of(
                st.none(), st.booleans(), st.floats(), st.text(max_size=4),
                st.integers(-3, 0), st.lists(st.integers(0, 3), max_size=2),
            ).filter(lambda v: v != header[key] or type(v) is not type(header[key])))
    blob = pack_arrays(arrays)
    return kind, assemble(magic, json.dumps(header, sort_keys=True).encode(), blob)


@pytest.mark.parametrize("fmt", FORMATS)
@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupt_files_raise_value_error_naming_the_file(fmt, data):
    _, _, _, load, _ = FORMATS[fmt]
    kind, raw = data.draw(corrupt_files(fmt), label="corruption")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"corrupt.{fmt}"
        path.write_bytes(raw)
        with pytest.raises(ValueError) as info:
            load(path)
    assert str(path) in str(info.value), kind


@pytest.mark.parametrize("fmt", FORMATS)
def test_missing_file_raises_value_error(tmp_path, fmt):
    _, _, _, load, _ = FORMATS[fmt]
    path = tmp_path / "missing"
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(path) in str(info.value)


# a size this large would need hundreds of TiB if the model were built first
@pytest.mark.parametrize("fmt,key", [
    ("qnet", "obs_dim"), ("qlstm", "hidden"), ("qlstm", "n_features"),
])
def test_oversized_header_rejected_before_building(tmp_path, fmt, key):
    _, _, _, load, _ = FORMATS[fmt]
    path = tmp_path / "huge"
    path.write_bytes(with_header(fmt, **{key: 10**13}))
    with pytest.raises(ModelFileError) as info:
        load(path)
    assert str(path) in str(info.value)


def test_forecaster_lookback_sets_no_shape(tmp_path):
    path = tmp_path / "long.qlstm"
    path.write_bytes(with_header("qlstm", lookback=10**13))
    model = load_forecaster(path)
    assert model.lookback == 10**13
    assert same_parameters(model, small_forecaster())


def test_cli_evaluate_oversized_checkpoint_exit_code(tmp_path, capsys):
    data = tmp_path / "m.csv"
    main(["generate", "--kind", "sawtooth", "--length", "16", "--out", str(data)])
    checkpoint = tmp_path / "huge.qnet"
    checkpoint.write_bytes(with_header("qnet", obs_dim=10**13))
    capsys.readouterr()
    assert main(["evaluate", "--checkpoint", str(checkpoint), "--data", str(data),
                 "--out", str(tmp_path / "ev")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(checkpoint) in err[0]

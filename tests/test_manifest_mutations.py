"""Every one-field mutation of a saved manifest fails to load with a
ModelFormatError that names the layer or tensor it touched.

Two saved models, a ds_convnet and a residual_net with calibrated
activation points, are mutated one field at a time, in a fixed order with
no randomness: each key of every record is dropped, given a value of
another JSON type and, where the format bounds it, a value outside its
range; each list is extended by a copy of its last entry and, where its
order matters, reversed; each number in a list is given another type and
an out-of-range value. The out-of-range values include a tensor past the
end of the blob, a tensor checksum that does not match, a listed tensor
that is missing, a graph with no layers, a 2-entry input_shape and an
unknown layer kind. A load that succeeds, or that raises anything but
ModelFormatError, fails the test.
"""

import copy
import json

import numpy as np
import pytest

from pfqkit.engine import forward_graph
from pfqkit.graph import ModelFormatError, load_model, save_model
from pfqkit.models import build_ds_convnet, build_residual_net
from pfqkit.quantization import insert_quant_points


def _calibrated_residual_net():
    g = insert_quant_points(build_residual_net(seed=3), 4, 4)
    x = np.random.default_rng(0).uniform(0, 1, (4,) + g.input_shape).astype(np.float32)
    forward_graph(g, x, training=True, update_ranges=True)
    return g


MODELS = {"ds_convnet": lambda: build_ds_convnet(seed=1),
          "residual_net": _calibrated_residual_net}

# Lists whose order the format leaves free: tensors are looked up by id, and
# a junction adds its two inputs, which commutes bit for bit.
ORDER_FREE = ("tensors", "inputs")

# Per key, a value outside the range the format allows, from the record and
# the manifest (None where every value of the key's type is in range).
OUT_OF_RANGE = {
    "format": lambda v, rec, doc: "pfqkit-other",
    "version": lambda v, rec, doc: v + 1,
    "input_shape": lambda v, rec, doc: v[:2],
    "layers": lambda v, rec, doc: [],
    "tensors": lambda v, rec, doc: v[1:],  # a listed tensor is missing
    "file": lambda v, rec, doc: "missing.bin",
    "byte_length": lambda v, rec, doc: v + 4,
    "crc32": lambda v, rec, doc: (v + 1) % 2 ** 32,
    "offset": lambda v, rec, doc: doc["blob"]["byte_length"],  # past the end of the blob
    "shape": lambda v, rec, doc: [v[0] + 1] + v[1:],
    "id": lambda v, rec, doc: "missing.weights",
    "name": lambda v, rec, doc: next(l["name"] for l in doc["layers"] if l["name"] != v),
    "kind": lambda v, rec, doc: "bogus",
    "epsilon": lambda v, rec, doc: 0.0,
    "rho": lambda v, rec, doc: 1.5,
    "inputs": lambda v, rec, doc: [v[0], "nowhere"],
    "target": lambda v, rec, doc: "bogus",
    "range_policy": lambda v, rec, doc: "bogus",
    "bits": lambda v, rec, doc: 0,
    # An uninitialized range is never read, so only an initialized one is bounded.
    "m": lambda v, rec, doc: rec["M_up"] + 1.0 if rec["initialized"] else None,
    "M_up": lambda v, rec, doc: float("inf") if rec["initialized"] else None,
    "ema_momentum": lambda v, rec, doc: 1.5,
}
# Per list key, an out-of-range entry.
OUT_OF_RANGE_ENTRY = {"input_shape": 0, "shape": 0, "stride": 0, "padding": -1}


def _other_type(value):
    """A JSON value of another type than value."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, str):
        return 7
    if isinstance(value, list):
        return {"0": value[0]} if value else {}
    if isinstance(value, dict):
        return []
    return "null"


def _records(doc):
    """(path of each JSON object in doc, the names an error about it may
    give: one of them must be in the message)."""
    yield (), ("",)
    yield ("blob",), ("blob",)
    for i, layer in enumerate(doc["layers"]):
        names = (f"'{layer['name']}'", f"'{layer['name']}.", f"layer {i} ", f"layer {i}:")
        yield ("layers", i), names
        for key in ("weight_quant", "quant"):
            if isinstance(layer.get(key), dict):
                yield ("layers", i, key), names
    for j, tensor in enumerate(doc["tensors"]):
        layer = tensor["id"].split(".")[0]
        yield ("tensors", j), (f"'{tensor['id']}'", f"tensor {j} ", f"'{layer}'")


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutations(doc):
    """(label, mutated manifest, names) for every one-field mutation."""
    for path, names in _records(doc):
        for key, value in _at(doc, path).items():
            edits = [("dropped", None), ("type", _other_type(value))]
            bad = OUT_OF_RANGE.get(key, lambda v, rec, doc: None)(value, _at(doc, path), doc)
            if bad is not None:
                edits.append(("range", bad))
            if isinstance(value, list) and value:
                edits.append(("extended", value + [copy.deepcopy(value[-1])]))
                if key not in ORDER_FREE and value[::-1] != value:
                    edits.append(("reversed", value[::-1]))
                for k, entry in enumerate(value):
                    if isinstance(entry, (int, str)):
                        edits.append((f"[{k}] type",
                                      value[:k] + [_other_type(entry)] + value[k + 1:]))
                    if key in OUT_OF_RANGE_ENTRY:
                        edits.append((f"[{k}] range",
                                      value[:k] + [OUT_OF_RANGE_ENTRY[key]] + value[k + 1:]))
            for how, new in edits:
                mutated = copy.deepcopy(doc)
                record = _at(mutated, path)
                if how == "dropped":
                    del record[key]
                else:
                    record[key] = new
                also = ()
                if key == "name" and isinstance(new, str):
                    also = (f"'{new}'", f"'{new}.")  # the layer under its new name
                elif key == "shape" and how == "reversed":
                    # The reversed shape fills the same bytes, so the graph
                    # fails where that shape stops chaining: this layer or a
                    # later one.
                    layers = [layer["name"] for layer in doc["layers"]]
                    start = layers.index(_at(doc, path)["id"].split(".")[0])
                    also = tuple(f"'{name}'" for name in layers[start:])
                yield "/".join(map(str, path + (key,))) + f" {how}", mutated, names + also


@pytest.fixture(scope="module", params=sorted(MODELS))
def saved(request, tmp_path_factory):
    path = tmp_path_factory.mktemp(request.param) / "model.json"
    save_model(MODELS[request.param](), path)
    return path, json.loads(path.read_text())


# Messages of load_model and ModelGraph.validate branches the mutations reach.
BRANCHES = ("extends past end of blob", "checksum mismatch", "lists no tensor",
            "graph has no layers", "input_shape must be", "unknown layer kind",
            "is listed twice", "blob file 'missing.bin' cannot be read")


def test_every_one_field_mutation_is_a_named_model_format_error(saved):
    path, doc = saved
    assert load_model(path)  # the unmutated manifest loads
    failures, messages = [], []
    for label, mutated, names in _mutations(doc):
        path.write_text(json.dumps(mutated))
        try:
            load_model(path)
        except ModelFormatError as e:
            messages.append(str(e))
            if not any(name in f"{e} " for name in names):
                failures.append(f"{label}: names none of {names}: {e}")
        except Exception as e:  # noqa: BLE001 - any other exception is the defect under test
            failures.append(f"{label}: {type(e).__name__}: {e}")
        else:
            failures.append(f"{label}: loaded")
    path.write_text(json.dumps(doc))
    assert not failures, "\n".join(failures)
    assert len(messages) > 400
    assert all(any(branch in m for m in messages) for branch in BRANCHES)

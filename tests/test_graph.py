"""Graph validation, shape inference, MAC counting, folding, serialization."""

import json
import re

import numpy as np
import pytest

from pfqkit.batchnorm import init_bn
from pfqkit.graph import (
    GraphError,
    LayerSpec,
    ModelFormatError,
    ModelGraph,
    WeightParams,
    count_macs,
    dynamic_range_report,
    fold_bn_graph,
    infer_shapes,
    load_model,
    param_count,
    range_report_to_csv,
    save_model,
    write_csv,
)
from pfqkit.engine import run_inference
from pfqkit.models import build, build_residual_net, build_small_convnet
from pfqkit.quantization import insert_quant_points

from oracles import max_rel_err


def _conv_layer(name, o, c, k, stride=(1, 1), padding=(0, 0), rng=None, bias=True):
    rng = rng or np.random.default_rng(0)
    return LayerSpec(
        name=name, kind="conv",
        params=WeightParams(
            weights=rng.standard_normal((o, c, k, k)).astype(np.float32),
            bias=rng.standard_normal(o).astype(np.float32) if bias else None,
        ),
        stride=stride, padding=padding,
    )


def _tiny_graph():
    rng = np.random.default_rng(1)
    conv = _conv_layer("c1", 2, 1, 3, rng=rng, bias=False)
    bn = LayerSpec(name="b1", kind="bn", params=init_bn(2))
    act = LayerSpec(name="a1", kind="relu")
    pool = LayerSpec(name="p1", kind="global_avg_pool")
    fc = LayerSpec(name="fc", kind="affine", params=WeightParams(
        weights=rng.standard_normal((2, 3)).astype(np.float32),
        bias=np.zeros(3, dtype=np.float32)))
    return ModelGraph(layers=[conv, bn, act, pool, fc], input_shape=(1, 6, 6))


class TestValidation:
    def test_valid_graph_builds(self):
        g = _tiny_graph()
        assert [l.name for l in g.layers] == ["c1", "b1", "a1", "p1", "fc"]

    def test_duplicate_names_rejected(self):
        g = _tiny_graph()
        layers = [l for l in g.layers]
        layers[1] = LayerSpec(name="c1", kind="bn", params=init_bn(2))
        with pytest.raises(GraphError):
            ModelGraph(layers=layers, input_shape=(1, 6, 6))

    @pytest.mark.parametrize("name", [{"a": 1}, 7, None])
    def test_name_that_is_not_a_string_rejected(self, name):
        layers = list(_tiny_graph().layers)
        layers[2] = LayerSpec(name=name, kind="relu")
        with pytest.raises(GraphError, match="^layer 2: name must be a str, got "):
            ModelGraph(layers=layers, input_shape=(1, 6, 6))

    def test_bn_must_follow_conv_like(self):
        layers = [
            _conv_layer("c1", 2, 1, 3),
            LayerSpec(name="a1", kind="relu"),
            LayerSpec(name="b1", kind="bn", params=init_bn(2)),
        ]
        with pytest.raises(GraphError):
            ModelGraph(layers=layers, input_shape=(1, 6, 6))

    def test_channel_mismatch_rejected(self):
        layers = [
            _conv_layer("c1", 2, 1, 3),
            _conv_layer("c2", 4, 3, 1),  # expects 3 channels, gets 2
        ]
        with pytest.raises(GraphError):
            ModelGraph(layers=layers, input_shape=(1, 6, 6))

    def test_junction_must_reference_earlier_layers(self):
        layers = [
            _conv_layer("c1", 2, 1, 3),
            LayerSpec(name="j", kind="add_junction", params=("c1", "nope")),
        ]
        with pytest.raises(GraphError):
            ModelGraph(layers=layers, input_shape=(1, 6, 6))

    def test_shape_underflow_rejected(self):
        with pytest.raises(GraphError):
            ModelGraph(layers=[_conv_layer("c1", 2, 1, 5)], input_shape=(1, 3, 3))


def _stem_and(kind, stride=(1, 1), padding=(1, 1)):
    """A 3x3 stem conv, then a conv or depthwise layer 'k2' of two channels."""
    rng = np.random.default_rng(3)
    if kind == "conv":
        k2 = _conv_layer("k2", 2, 2, 3, stride=stride, padding=padding, rng=rng)
    else:
        k2 = LayerSpec(name="k2", kind="depthwise_conv", stride=stride, padding=padding,
                       params=WeightParams(
                           weights=rng.standard_normal((2, 1, 3, 3)).astype(np.float32)))
    return [_conv_layer("c1", 2, 1, 3, padding=(1, 1), rng=rng), k2]


BAD_GEOMETRY = [("stride", [0, 1], "stride 0 < 1"), ("stride", [1, -1], "stride -1 < 1"),
                ("padding", [-1, 1], "padding -1 < 0"), ("padding", [0, -2], "padding -2 < 0")]


@pytest.mark.parametrize("kind", ["conv", "depthwise_conv"])
@pytest.mark.parametrize("field, value, message", BAD_GEOMETRY)
class TestBadStrideOrPadding:
    """A stride below 1 or a negative padding fails at construction with an
    error naming the layer and the value, whether the graph is built in
    Python or loaded from a manifest."""

    def test_built_in_python(self, kind, field, value, message):
        layers = _stem_and(kind, **{field: tuple(value)})
        with pytest.raises(GraphError, match=f"layer 'k2': convolution {message}"):
            ModelGraph(layers=layers, input_shape=(1, 6, 6))

    def test_loaded_from_a_manifest(self, kind, field, value, message, tmp_path):
        path = tmp_path / "model.json"
        save_model(ModelGraph(layers=_stem_and(kind), input_shape=(1, 6, 6)), path)
        doc = json.loads(path.read_text())
        doc["layers"][1][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=f"layer 'k2': convolution {message}"):
            load_model(path)


class TestShapesAndCounts:
    def test_infer_shapes_small_net(self):
        g = _tiny_graph()
        shapes = infer_shapes(g)
        assert shapes["c1"] == (2, 4, 4)
        assert shapes["p1"] == (2,)
        assert shapes["fc"] == (3,)

    def test_mac_hand_values(self):
        # conv: 1 out ch, 1 in ch, 3x3 kernel, 4x4 output -> 144 MACs
        g = ModelGraph(layers=[_conv_layer("c1", 1, 1, 3)], input_shape=(1, 6, 6))
        assert count_macs(g) == {"c1": 144}
        # 8 out, 2 in, 3x3, stride 2 pad 1 on 16x16 input -> 8x8 output
        g2 = ModelGraph(
            layers=[_conv_layer("c1", 8, 2, 3, stride=(2, 2), padding=(1, 1))],
            input_shape=(2, 16, 16))
        assert count_macs(g2) == {"c1": 8 * 2 * 9 * 64}

    def test_depthwise_macs(self):
        rng = np.random.default_rng(3)
        dw = LayerSpec(name="d1", kind="depthwise_conv",
                       params=WeightParams(
                           weights=rng.standard_normal((4, 1, 3, 3)).astype(np.float32),
                           bias=None))
        g = ModelGraph(layers=[dw], input_shape=(4, 6, 6))
        assert count_macs(g) == {"d1": 4 * 9 * 16}

    def test_param_count_excludes_running_stats(self):
        g = _tiny_graph()
        # c1: 2*1*3*3 = 18, b1: gamma+beta = 4, fc: 2*3 + 3 = 9
        assert param_count(g) == 18 + 4 + 9


class TestFoldGraph:
    def test_fold_matches_inference(self):
        rng = np.random.default_rng(9)
        g = build_small_convnet(input_shape=(3, 8, 8), class_count=4, width=6, seed=4)
        # give the BN layers non-trivial statistics
        for layer in g.layers:
            if layer.kind == "bn":
                c = layer.params.gamma.shape[0]
                layer.params.gamma = rng.uniform(0.5, 1.5, c).astype(np.float32)
                layer.params.beta = rng.standard_normal(c).astype(np.float32)
                layer.params.running_mean = rng.standard_normal(c).astype(np.float32)
                layer.params.running_var = rng.uniform(0.2, 2.0, c).astype(np.float32)
        folded = fold_bn_graph(g)
        assert all(l.kind != "bn" for l in folded.layers)
        x = rng.uniform(0, 1, (5, 3, 8, 8)).astype(np.float32)
        assert max_rel_err(run_inference(folded, x), run_inference(g, x)) < 1e-5

    def test_fold_rewrites_junction_refs(self):
        g = build_residual_net(seed=1)
        folded = fold_bn_graph(g)
        junction = next(l for l in folded.layers if l.kind == "add_junction")
        names = {l.name for l in folded.layers}
        assert set(junction.params) <= names

    def test_affine_bn_rejected(self):
        rng = np.random.default_rng(2)
        layers = [
            _conv_layer("c1", 3, 1, 3, rng=rng),
            LayerSpec(name="p", kind="global_avg_pool"),
            LayerSpec(name="fc", kind="affine", params=WeightParams(
                weights=rng.standard_normal((3, 2)).astype(np.float32), bias=None)),
            LayerSpec(name="b", kind="bn", params=init_bn(2)),
        ]
        # the graph itself is legal, folding it is not
        g = ModelGraph(layers=layers, input_shape=(1, 6, 6))
        with pytest.raises(GraphError):
            fold_bn_graph(g)


class TestRangeReport:
    def test_rows_and_csv(self, tmp_path):
        g = _tiny_graph()
        rows = dynamic_range_report(g)
        assert [r.layer for r in rows] == ["c1", "fc"]
        for r in rows:
            w = g.layer(r.layer).params.weights
            assert r.min == float(w.min())
            assert r.max == float(w.max())
            assert r.range == r.max - r.min
        out = tmp_path / "range.csv"
        range_report_to_csv(rows, out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "layer,min,max,range"
        assert len(lines) == 3


def test_csv_quotes_a_name_that_holds_a_separator(tmp_path):
    """Every table goes through write_csv: a cell holding a comma, a quote
    or a newline is quoted, floats are their repr and None is empty."""
    out = tmp_path / "t.csv"
    write_csv([("layer", "value"), ("a,b", 0.1), ('say "hi"', None), ("two\nlines", 2)], out)
    assert out.read_text() == 'layer,value\n"a,b",0.1\n"say ""hi""",\n"two\nlines",2\n'


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        g = build_small_convnet(seed=7)
        path = tmp_path / "model.json"
        save_model(g, path)
        g2 = load_model(path)
        assert g2.input_shape == g.input_shape
        assert [l.name for l in g2.layers] == [l.name for l in g.layers]
        for a, b in zip(g.layers, g2.layers):
            if a.kind in ("conv", "depthwise_conv", "affine"):
                assert np.array_equal(a.params.weights, b.params.weights)
            if a.kind == "bn":
                assert np.array_equal(a.params.running_var, b.params.running_var)
                assert a.params.epsilon == b.params.epsilon
                assert a.params.rho == b.params.rho
        x = np.random.default_rng(0).uniform(0, 1, (3, 3, 8, 8)).astype(np.float32)
        assert np.array_equal(run_inference(g, x), run_inference(g2, x))

    def test_round_trip_preserves_quant_points(self, tmp_path):
        g = insert_quant_points(build_small_convnet(seed=7), 4, 8)
        path = tmp_path / "model.json"
        save_model(g, path)
        g2 = load_model(path)
        points = [l for l in g2.layers if l.kind == "quant_point"]
        assert points
        for p in points:
            orig = g.layer(p.name).params
            assert p.params.cfg.bits == orig.cfg.bits
            assert p.params.enabled == orig.enabled
        convs = [l for l in g2.layers if l.kind == "conv"]
        assert all(l.weight_quant is not None for l in convs)
        assert convs[0].weight_quant.cfg.bits == 8

    def test_save_twice_identical_bytes(self, tmp_path):
        g = build_small_convnet(seed=3)
        p1 = tmp_path / "a" / "model.json"
        p2 = tmp_path / "b" / "model.json"
        save_model(g, p1)
        save_model(g, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.with_suffix(".bin").read_bytes() == p2.with_suffix(".bin").read_bytes()

    def test_corrupted_blob_detected(self, tmp_path):
        g = build_small_convnet(seed=5)
        path = tmp_path / "model.json"
        save_model(g, path)
        blob_path = path.with_suffix(".bin")
        data = bytearray(blob_path.read_bytes())
        data[10] ^= 0xFF
        blob_path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_truncated_blob_detected(self, tmp_path):
        g = build_small_convnet(seed=5)
        path = tmp_path / "model.json"
        save_model(g, path)
        blob_path = path.with_suffix(".bin")
        blob_path.write_bytes(blob_path.read_bytes()[:-8])
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_wrong_version_rejected(self, tmp_path):
        g = build_small_convnet(seed=5)
        path = tmp_path / "model.json"
        save_model(g, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_wrong_format_name_rejected(self, tmp_path):
        g = build_small_convnet(seed=5)
        path = tmp_path / "model.json"
        save_model(g, path)
        doc = json.loads(path.read_text())
        doc["format"] = "something-else"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_missing_key_rejected(self, tmp_path):
        g = build_small_convnet(seed=5)
        path = tmp_path / "model.json"
        save_model(g, path)
        doc = json.loads(path.read_text())
        del doc["tensors"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_model(path)


def _saved_manifest(tmp_path):
    """A saved small_convnet manifest (conv1 is its first layer and tensor)."""
    path = tmp_path / "model.json"
    save_model(build_small_convnet(seed=5), path)
    return path, json.loads(path.read_text())


def _load_edited(path, doc):
    path.write_text(json.dumps(doc))
    return load_model(path)


class TestMalformedManifestFields:
    """Every field load_model reads fails, when missing or of the wrong
    kind, with a ModelFormatError that names the layer or tensor and the
    key, not with a bare KeyError, TypeError or reshape ValueError."""

    @pytest.mark.parametrize("key", ["kind", "stride", "padding", "has_bias"])
    def test_missing_layer_field(self, key, tmp_path):
        path, doc = _saved_manifest(tmp_path)
        del doc["layers"][0][key]
        with pytest.raises(ModelFormatError, match=f"^layer 'conv1' has no field '{key}'$"):
            _load_edited(path, doc)

    def test_missing_layer_name(self, tmp_path):
        path, doc = _saved_manifest(tmp_path)
        del doc["layers"][1]["name"]
        with pytest.raises(ModelFormatError, match="^layer 1 has no field 'name'$"):
            _load_edited(path, doc)

    @pytest.mark.parametrize("name", [{"a": 1}, 7])
    def test_layer_name_that_is_not_a_string(self, name, tmp_path):
        path, doc = _saved_manifest(tmp_path)
        doc["layers"][1]["name"] = name
        with pytest.raises(ModelFormatError, match="^layer 1 field 'name' is not a str: "):
            _load_edited(path, doc)

    @pytest.mark.parametrize("key", ["offset", "byte_length", "shape", "crc32"])
    def test_missing_tensor_field(self, key, tmp_path):
        path, doc = _saved_manifest(tmp_path)
        del doc["tensors"][0][key]
        with pytest.raises(ModelFormatError,
                           match=f"^tensor 'conv1.weights' has no field '{key}'$"):
            _load_edited(path, doc)

    def test_missing_tensor_id(self, tmp_path):
        path, doc = _saved_manifest(tmp_path)
        del doc["tensors"][2]["id"]
        with pytest.raises(ModelFormatError, match="^tensor 2 has no field 'id'$"):
            _load_edited(path, doc)

    @pytest.mark.parametrize("key", ["layers", "tensors"])
    @pytest.mark.parametrize("value", [{"conv1": {}}, 3, "conv1"])
    def test_non_list_layers_or_tensors(self, key, value, tmp_path):
        path, doc = _saved_manifest(tmp_path)
        doc[key] = value
        with pytest.raises(ModelFormatError, match=f"^manifest field '{key}' is not a list"):
            _load_edited(path, doc)

    @pytest.mark.parametrize("key", ["layers", "tensors"])
    def test_a_record_that_is_not_an_object(self, key, tmp_path):
        path, doc = _saved_manifest(tmp_path)
        doc[key][0] = ["conv1"]
        with pytest.raises(ModelFormatError, match=f"^{key[:-1]} 0 is not a JSON object$"):
            _load_edited(path, doc)

    @pytest.mark.parametrize("shape", [[8, 3, 3], [8, 3, 3, 3, 2], [2, "x"]])
    def test_tensor_bytes_that_do_not_fill_its_shape(self, shape, tmp_path):
        path, doc = _saved_manifest(tmp_path)
        assert doc["tensors"][0]["shape"] == [8, 3, 3, 3]
        doc["tensors"][0]["shape"] = shape
        with pytest.raises(ModelFormatError,
                           match=r"^tensor 'conv1.weights' holds 864 bytes, which do not fill"):
            _load_edited(path, doc)

    def test_missing_quantizer_field(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(_initialized_point_graph(), path)
        doc = json.loads(path.read_text())
        del next(d for d in doc["layers"] if d["name"] == "relu1_q")["quant"]["M_up"]
        with pytest.raises(ModelFormatError,
                           match="^layer 'relu1_q' quantizer has no field 'M_up'$"):
            _load_edited(path, doc)


class TestBuilders:
    def test_build_by_name(self):
        g = build({"name": "small_convnet", "seed": 1, "width": 4})
        assert g.input_shape == (3, 8, 8)
        with pytest.raises(ValueError):
            build({"name": "unknown_arch"})

    def test_ds_convnet_structure(self):
        g = build({"name": "ds_convnet", "seed": 0, "blocks": 4, "width": 8})
        kinds = [l.kind for l in g.layers]
        assert kinds.count("depthwise_conv") == 4
        # every conv-like layer is immediately followed by bn
        for i, l in enumerate(g.layers[:-1]):
            if l.kind in ("conv", "depthwise_conv"):
                assert g.layers[i + 1].kind == "bn"

    def test_dead_stem_filters_are_zero(self):
        g = build_small_convnet(seed=0, dead_stem_filters=2)
        stem = g.layers[0]
        assert np.all(stem.params.weights[:2] == 0.0)
        assert np.any(stem.params.weights[2:] != 0.0)


BAD_QUANT = [("bits", 0, "quantizer bits must be >= 1, got 0"),
             ("bits", 1100, r"quantizer bits must be <= 1023, where 2\*\*bits is a finite "
                            "float, got 1100"),
             ("bits", True, "quantizer bits must be an integer, got True"),
             ("bits", 2.5, "quantizer bits must be an integer, got 2.5"),
             ("m", float("nan"), r"quantizer range \[nan, 1.0\] must be finite"),
             ("M_up", float("inf"), r"quantizer range \[0.0, inf\] must be finite"),
             ("m", 2.0, r"quantizer range \[2.0, 1.0\] must be finite with m <= M_up")]


def _initialized_point_graph():
    g = insert_quant_points(build_small_convnet(seed=2), 4, 4)
    for layer in g.layers:
        if layer.kind == "quant_point":
            layer.params.cfg.m, layer.params.cfg.M_up, layer.params.cfg.initialized = 0.0, 1.0, True
    return g


@pytest.mark.parametrize("field, value, message", BAD_QUANT)
class TestMalformedQuantizer:
    """A quantizer with bits that are not an integer from 1 to 1023, or an
    initialized range that is not finite or has m > M_up, fails when the
    graph is built or loaded, with the layer named: an activation point with
    m = NaN would otherwise pass its input through without a word, bits = 0
    would fail only at inference, and bits = 1100 with a bare OverflowError
    there."""

    def test_loaded_from_a_manifest(self, field, value, message, tmp_path):
        path = tmp_path / "model.json"
        save_model(_initialized_point_graph(), path)
        doc = json.loads(path.read_text())
        relu1_q = next(d for d in doc["layers"] if d["name"] == "relu1_q")
        relu1_q["quant"][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=f"layer 'relu1_q': {message}"):
            load_model(path)

    def test_built_in_python(self, field, value, message):
        g = _initialized_point_graph()
        setattr(g.layer("relu1_q").params.cfg, field, value)
        with pytest.raises(GraphError, match=f"layer 'relu1_q': {message}"):
            g.validate()


def test_weight_point_bits_checked_at_load(tmp_path):
    path = tmp_path / "model.json"
    save_model(_initialized_point_graph(), path)
    doc = json.loads(path.read_text())
    doc["layers"][0]["weight_quant"]["bits"] = 0
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="layer 'conv1': quantizer bits must be >= 1"):
        load_model(path)


class TestQuantizerRoleFromSlot:
    """A quantizer's role is read from the slot it sits in. A saved manifest
    still spells it out as the record's target and range_policy, and the
    loader rejects, naming the layer, a record whose role is not its
    slot's."""

    def test_every_saved_quantizer_names_its_role(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(_initialized_point_graph(), path)
        layers = json.loads(path.read_text())["layers"]
        weights = [d["weight_quant"] for d in layers if d["kind"] in ("conv", "affine")]
        acts = [d["quant"] for d in layers if d["kind"] == "quant_point"]
        assert len(weights) == len(acts) == 3
        assert {(q["target"], q["range_policy"]) for q in weights} == {
            ("weights", "weight_minmax_per_tensor")}
        assert {(q["target"], q["range_policy"]) for q in acts} == {
            ("activations", "activation_ema_minmax")}

    @pytest.mark.parametrize("slot, field, value, what", [
        ("weight_quant", "target", "activations", "layer 'conv1' weight quantizer"),
        ("weight_quant", "range_policy", "activation_ema_minmax", "layer 'conv1' weight quantizer"),
        ("quant", "target", "weights", "layer 'relu1_q' quantizer"),
        ("quant", "range_policy", "weight_minmax_per_tensor", "layer 'relu1_q' quantizer"),
    ])
    def test_a_role_that_is_not_the_slots_is_named(self, slot, field, value, what, tmp_path):
        path = tmp_path / "model.json"
        save_model(_initialized_point_graph(), path)
        doc = json.loads(path.read_text())
        next(d for d in doc["layers"] if d.get(slot))[slot][field] = value
        with pytest.raises(ModelFormatError, match=f"^{what} has target '.*'; its slot needs "):
            _load_edited(path, doc)


class TestFieldsTheKindDoesNotCarry:
    """A weight point off a conv, depthwise conv or affine, and a stride or
    padding other than (1, 1) and (0, 0) off a conv or depthwise conv, fail
    validation with the layer named. save_model writes neither field for
    such a layer, so a save and load would drop it, and pruning reads the
    padding of every layer a constant passes."""

    def test_weight_point_on_an_activation(self):
        g = insert_quant_points(build_small_convnet(seed=0), 4, 4)
        g.layer("relu1").weight_quant = g.layer("conv1").weight_quant
        with pytest.raises(GraphError,
                           match="^layer 'relu1': a relu layer has no weights to quantize$"):
            g.validate()

    @pytest.mark.parametrize("field, value", [("stride", (2, 2)), ("padding", (1, 1)),
                                              ("padding", 0)])
    def test_stride_or_padding_on_an_activation(self, field, value):
        g = build_small_convnet(seed=0)
        setattr(g.layer("relu1"), field, value)
        with pytest.raises(GraphError,
                           match=rf"^layer 'relu1': a relu layer takes no {field}, got "):
            g.validate()

    def test_a_graph_that_validates_keeps_every_field_through_a_save(self, tmp_path):
        g = insert_quant_points(build_residual_net(seed=0), 4, 8, weight_enabled=True)
        path = tmp_path / "model.json"
        save_model(g, path)

        def fields(layer):
            return (layer.name, layer.kind, tuple(layer.stride), tuple(layer.padding),
                    layer.weight_quant)

        assert list(map(fields, load_model(path).layers)) == list(map(fields, g.layers))


def test_collapsed_and_uninitialized_ranges_still_load(tmp_path):
    g = _initialized_point_graph()
    g.layer("relu1_q").params.cfg.M_up = 0.0  # collapsed: the documented pass-through
    g.layer("relu2_q").params.cfg.m = float("nan")
    g.layer("relu2_q").params.cfg.initialized = False  # never read until initialized
    path = tmp_path / "model.json"
    save_model(g, path)
    loaded = load_model(path)
    x = np.random.default_rng(0).uniform(-1, 1, (2, 3, 8, 8)).astype(np.float32)
    assert run_inference(loaded, x).tobytes() == run_inference(g, x).tobytes()


BAD_BN = [("epsilon", -2.0, "bn epsilon must be finite and > 0, got -2.0"),
          ("epsilon", 0.0, "bn epsilon must be finite and > 0, got 0.0"),
          ("epsilon", float("nan"), "bn epsilon must be finite and > 0, got nan"),
          ("epsilon", float("inf"), "bn epsilon must be finite and > 0, got inf"),
          ("epsilon", "1e-5", "bn epsilon must be finite and > 0, got '1e-5'"),
          ("running_var", -3.0, "bn running_var must be finite and >= 0, got min -3.0"),
          ("running_var", float("nan"), "bn running_var must be finite and >= 0"),
          ("running_var", float("inf"), "bn running_var must be finite and >= 0")]


def _set_bn_field(params, field, value):
    if field == "epsilon":
        params.epsilon = value
    else:
        params.running_var[0] = value


@pytest.mark.parametrize("field, value, message", BAD_BN)
class TestMalformedBN:
    """A BN epsilon that is not finite and > 0, or a running variance that is
    negative or not finite, fails when the graph is validated or loaded, with
    the layer named: either one otherwise passes save and load and fails at
    inference as a non-finite input two layers later."""

    def test_built_in_python(self, field, value, message):
        g = _tiny_graph()
        _set_bn_field(g.layer("b1").params, field, value)
        with pytest.raises(GraphError, match=f"layer 'b1': {message}"):
            g.validate()

    def test_loaded_from_a_manifest(self, field, value, message, tmp_path):
        g = _tiny_graph()
        if field == "running_var":  # a blob tensor: saved as set, unchecked
            _set_bn_field(g.layer("b1").params, field, value)
        path = tmp_path / "model.json"
        save_model(g, path)
        if field == "epsilon":
            doc = json.loads(path.read_text())
            doc["layers"][1]["epsilon"] = value
            path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=f"layer 'b1': {message}"):
            load_model(path)


def test_zero_running_var_still_loads(tmp_path):
    g = _tiny_graph()
    g.layer("b1").params.running_var[0] = 0.0  # a channel BN saw as constant
    path = tmp_path / "model.json"
    save_model(g, path)
    x = np.random.default_rng(0).uniform(-1, 1, (2, 1, 6, 6)).astype(np.float32)
    assert run_inference(load_model(path), x).tobytes() == run_inference(g, x).tobytes()


def _vector_graph():
    """conv, depthwise conv and affine with biases, and a BN: one of every
    parameter vector, 3 channels wide (2 for the affine)."""
    rng = np.random.default_rng(2)

    def f32(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    return ModelGraph(layers=[
        LayerSpec("c1", "conv", WeightParams(f32(3, 1, 3, 3), f32(3))),
        LayerSpec("d1", "depthwise_conv", WeightParams(f32(3, 1, 3, 3), f32(3)),
                  padding=(1, 1)),
        LayerSpec("b1", "bn", init_bn(3)),
        LayerSpec("a1", "relu"),
        LayerSpec("p1", "global_avg_pool"),
        LayerSpec("fc", "affine", WeightParams(f32(3, 2), f32(2))),
    ], input_shape=(1, 6, 6))


def _shape_error_layers(case):
    """Layers whose shapes do not chain on a (1, 6, 6) input, per case."""
    rng = np.random.default_rng(4)

    def f32(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    conv = LayerSpec("c1", "conv", WeightParams(f32(3, 1, 3, 3)))
    pool = LayerSpec("p1", "global_avg_pool")
    return {
        "conv on a flat input": [pool, conv],
        "affine on an image": [LayerSpec("fc", "affine", WeightParams(f32(3, 2)))],
        "affine dimension": [conv, pool, LayerSpec("fc", "affine", WeightParams(f32(4, 2)))],
        "pool on a flat input": [pool, LayerSpec("p2", "global_avg_pool")],
        "junction of unequal shapes": [conv, LayerSpec("c2", "conv", WeightParams(f32(3, 3, 3, 3))),
                                       LayerSpec("j", "add_junction", ("c1", "c2"))],
    }[case]


@pytest.mark.parametrize("case, message", [
    ("conv on a flat input", "conv 'c1' needs a (C, H, W) input, got (1,)"),
    ("affine on an image", "affine 'fc' needs a flat input, got (1, 6, 6)"),
    ("affine dimension", "affine 'fc' expects 4 inputs, gets 3"),
    ("pool on a flat input", "global_avg_pool 'p2' needs a (C, H, W) input"),
    ("junction of unequal shapes", "add_junction 'j' joins unequal shapes (3, 4, 4) and (3, 2, 2)"),
])
def test_shapes_that_do_not_chain_are_named(case, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        ModelGraph(layers=_shape_error_layers(case), input_shape=(1, 6, 6))


f32 = np.float32
BAD_VECTORS = [("c1", "bias", np.zeros(2, f32), "(2,)", "(3,)"),
               ("d1", "bias", np.zeros(4, f32), "(4,)", "(3,)"),
               ("fc", "bias", np.zeros(3, f32), "(3,)", "(2,)"),
               ("b1", "gamma", np.ones((3, 1), f32), "(3, 1)", "(3,)"),
               ("b1", "beta", np.zeros(2, f32), "(2,)", "(3,)"),
               ("b1", "running_mean", np.zeros(4, f32), "(4,)", "(3,)"),
               ("b1", "running_var", np.ones(1, f32), "(1,)", "(3,)")]


@pytest.mark.parametrize("layer, field, value, got, want", BAD_VECTORS,
                         ids=[f"{layer}-{field}" for layer, field, *_ in BAD_VECTORS])
class TestParameterVectorLength:
    """A parameter vector must be 1-d with one entry per output channel;
    otherwise it fails at validation or load with the layer and field named,
    not at run time with an unnamed broadcast or reshape error."""

    def test_built_in_python(self, layer, field, value, got, want):
        g = _vector_graph()
        setattr(g.layer(layer).params, field, value)
        with pytest.raises(GraphError, match=rf"^layer '{layer}': {field} has shape "
                                             rf"{re.escape(got)}, expected {re.escape(want)}$"):
            g.validate()

    def test_loaded_from_a_manifest(self, layer, field, value, got, want, tmp_path):
        g = _vector_graph()
        setattr(g.layer(layer).params, field, value)  # save_model writes it as it is
        path = tmp_path / "model.json"
        save_model(g, path)
        with pytest.raises(ModelFormatError,
                           match=rf"layer '{layer}': {field} has shape {re.escape(got)}"):
            load_model(path)


BAD_DTYPES = [("c1", "weights", lambda a: a.astype(np.int64), "int64"),
              ("d1", "weights", lambda a: a.astype(np.int32), "int32"),
              ("fc", "weights", lambda a: a > 0, "bool"),
              ("c1", "bias", lambda a: a.astype(np.int64), "int64"),
              ("b1", "gamma", lambda a: a.astype(np.complex64), "complex64"),
              ("b1", "running_mean", lambda a: a.tolist(), "list")]


@pytest.mark.parametrize("layer, field, cast, got", BAD_DTYPES,
                         ids=[f"{layer}-{field}-{got}" for layer, field, _, got in BAD_DTYPES])
def test_parameters_must_be_floating_arrays(layer, field, cast, got):
    g = _vector_graph()
    params = g.layer(layer).params
    setattr(params, field, cast(getattr(params, field)))
    with pytest.raises(GraphError, match=f"^layer '{layer}': {field} must be a floating-point "
                                         f"array, got {got}$"):
        g.validate()


BAD_RANKS = [("c1", "weights", lambda a: a[0], "weights must be 4-d, got shape (1, 3, 3)"),
             ("d1", "weights", lambda a: a[:, 0], "weights must be 4-d, got shape (3, 3, 3)"),
             ("fc", "weights", lambda a: a[None], "weights must be 2-d, got shape (1, 3, 2)"),
             ("b1", "gamma", lambda a: a[:1].reshape(()), "gamma has shape (), expected (3,)")]


@pytest.mark.parametrize("layer, field, cut, message", BAD_RANKS,
                         ids=[f"{layer}-{field}" for layer, field, *_ in BAD_RANKS])
def test_parameters_of_the_wrong_rank_are_named(layer, field, cut, message, tmp_path):
    g = _vector_graph()
    params = g.layer(layer).params
    setattr(params, field, cut(getattr(params, field)))
    with pytest.raises(GraphError, match=f"^layer '{layer}': {re.escape(message)}$"):
        g.validate()
    path = tmp_path / "model.json"
    save_model(g, path)
    with pytest.raises(ModelFormatError, match=f"layer '{layer}': {re.escape(message)}$"):
        load_model(path)


def test_float16_and_float64_parameters_are_accepted():
    g = _vector_graph()
    g.layer("c1").params.weights = g.layer("c1").params.weights.astype(np.float16)
    g.layer("b1").params.gamma = g.layer("b1").params.gamma.astype(np.float64)
    g.validate()


BAD_PAIRS = [[], [1], [1, 1, 1], [1.5, 1], [True, 1], ["1", 1]]


@pytest.mark.parametrize("kind", ["conv", "depthwise_conv"])
@pytest.mark.parametrize("field", ["stride", "padding"])
@pytest.mark.parametrize("value", BAD_PAIRS, ids=[repr(v) for v in BAD_PAIRS])
class TestStrideOrPaddingNotAPair:
    """A stride or padding that is not a pair of integers fails at
    validation or load with the layer and field named: an empty or 1-entry
    list used to raise a bare IndexError in load_model, and a 3-entry or
    fractional one loaded and failed only at inference."""

    def test_built_in_python(self, kind, field, value):
        layers = _stem_and(kind, **{field: tuple(value)})
        with pytest.raises(GraphError, match=f"^layer 'k2': {field} must be a pair of integers"):
            ModelGraph(layers=layers, input_shape=(1, 6, 6))

    def test_loaded_from_a_manifest(self, kind, field, value, tmp_path):
        path = tmp_path / "model.json"
        save_model(ModelGraph(layers=_stem_and(kind), input_shape=(1, 6, 6)), path)
        doc = json.loads(path.read_text())
        doc["layers"][1][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=f"layer 'k2': {field} must be a pair of integers"):
            load_model(path)


BAD_JUNCTIONS = [[], ["stem_act"], ["stem_act", "bn_b", "stem_act"], ["stem_act", {"a": 1}]]


@pytest.mark.parametrize("inputs", BAD_JUNCTIONS, ids=[repr(v) for v in BAD_JUNCTIONS])
class TestJunctionNotTwoNames:
    """An add_junction must name exactly two layers; otherwise it fails at
    validation or load with the layer named, not with a bare unpacking
    ValueError."""

    def test_built_in_python(self, inputs):
        g = build_residual_net(seed=1)
        g.layer("join").params = tuple(inputs)
        with pytest.raises(GraphError, match="^add_junction 'join' must name exactly two layers"):
            g.validate()

    def test_loaded_from_a_manifest(self, inputs, tmp_path):
        path = tmp_path / "model.json"
        save_model(build_residual_net(seed=1), path)
        doc = json.loads(path.read_text())
        next(d for d in doc["layers"] if d["name"] == "join")["inputs"] = inputs
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="add_junction 'join' must name exactly two"):
            load_model(path)


@pytest.mark.parametrize("value", [0, 1, None, "yes", []])
def test_has_bias_must_be_a_json_boolean(value, tmp_path):
    path, doc = _saved_manifest(tmp_path)
    doc["layers"][0]["has_bias"] = value
    with pytest.raises(ModelFormatError,
                       match=rf"^layer 'conv1' field 'has_bias' is not a bool: {re.escape(repr(value))}$"):
        _load_edited(path, doc)


def test_a_listed_tensor_that_no_layer_reads_is_named(tmp_path):
    path, doc = _saved_manifest(tmp_path)
    layer = next(d for d in doc["layers"] if d.get("has_bias"))
    bias = next(t for t in doc["tensors"] if t["id"] == f"{layer['name']}.bias")
    layer["has_bias"] = False  # drops a bias that is still listed
    with pytest.raises(ModelFormatError,
                       match=f"^manifest lists tensors that no layer reads: '{bias['id']}'$"):
        _load_edited(path, doc)
    layer["has_bias"] = True
    doc["tensors"].append({**bias, "id": "ghost.bias"})
    with pytest.raises(ModelFormatError,
                       match="^manifest lists tensors that no layer reads: 'ghost.bias'$"):
        _load_edited(path, doc)


BAD_RHO = ["x", -1, -0.5, 2.0, float("nan"), float("inf"), True, None]


@pytest.mark.parametrize("rho", BAD_RHO, ids=[repr(v) for v in BAD_RHO])
class TestMalformedBNRho:
    """BN rho, the share of the old running value an update keeps, must be
    a real number in [0, 1]: a string used to load and fail at the first
    training step, and rho = -1 trained to a negative running variance."""

    def test_built_in_python(self, rho):
        g = _tiny_graph()
        g.layer("b1").params.rho = rho
        with pytest.raises(GraphError, match=rf"^layer 'b1': bn rho must be a real number in "
                                             rf"\[0, 1\], got {re.escape(repr(rho))}$"):
            g.validate()

    def test_loaded_from_a_manifest(self, rho, tmp_path):
        path = tmp_path / "model.json"
        save_model(_tiny_graph(), path)
        doc = json.loads(path.read_text())
        doc["layers"][1]["rho"] = rho
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="layer 'b1': bn rho must be a real number"):
            load_model(path)


@pytest.mark.parametrize("rho", [0, 0.0, 0.5, 1, 1.0, np.float32(0.9)])
def test_bn_rho_in_the_unit_interval_is_accepted(rho):
    g = _tiny_graph()
    g.layer("b1").params.rho = rho
    g.validate()

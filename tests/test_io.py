import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenclass import Tensor, canonical_dumps, parse_tensor, tensor_digest, tensor_to_json
from tenclass.tensor_io import TensorFormatError, load_tensor, save_tensor


def test_parse_coo_roundtrip(almost_c_tensor):
    doc = tensor_to_json(almost_c_tensor)
    assert doc["format"] == "coo"
    assert parse_tensor(doc) == almost_c_tensor


def test_parse_dense():
    doc = {"order": 2, "dim": 2, "format": "dense", "entries": [[1.0, 0.5], [0.0, -2.0]]}
    A = parse_tensor(doc)
    assert np.array_equal(A.data, [[1.0, 0.5], [0.0, -2.0]])


def test_parse_rejects_duplicates():
    doc = {"order": 3, "dim": 2, "format": "coo",
           "entries": [[[0, 0, 0], 1.0], [[0, 0, 0], 2.0]]}
    with pytest.raises(TensorFormatError, match="duplicate"):
        parse_tensor(doc)


def test_parse_rejects_nan_with_index():
    doc = {"order": 3, "dim": 2, "format": "coo",
           "entries": [[[0, 1, 0], float("nan")]]}
    with pytest.raises(TensorFormatError, match=r"\(0, 1, 0\)"):
        parse_tensor(doc)


def test_parse_rejects_wrong_dense_shape():
    doc = {"order": 2, "dim": 2, "format": "dense", "entries": [[1.0, 0.5]]}
    with pytest.raises(TensorFormatError, match="shape"):
        parse_tensor(doc)


@pytest.mark.parametrize("entries", [[[1, 2], [3]], [[1, "a"], [3, 4]],
                                     [[1, 0], [float("nan"), 1]]],
                         ids=["ragged", "non-numeric", "non-finite"])
def test_parse_rejects_malformed_dense(entries):
    with pytest.raises(TensorFormatError, match="dense entries"):
        parse_tensor({"order": 2, "dim": 2, "format": "dense", "entries": entries})


HUGE_INT = 10 ** 400  # a JSON integer past the float range


@pytest.mark.parametrize("fmt,entries", [
    ("coo", [[[0, 0, 0], "1.5"]]),
    ("coo", [[[0, 0, 0], True]]),
    ("coo", [[[0, 0, 0], None]]),
    ("coo", [[[0, 0, 0], HUGE_INT]]),
    ("dense", [[["1", "2"], ["3", "4"]]] * 2),
    ("dense", [[[True, False], [False, True]]] * 2),
    ("dense", [[[1.5, True], [0.0, 1.0]]] * 2),
    ("dense", [[[1.5, "2"], [0.0, 1.0]]] * 2),
    ("dense", [[[HUGE_INT, 0], [0, 1]]] * 2),
], ids=["coo-string", "coo-bool", "coo-null", "coo-huge-int", "dense-strings",
        "dense-bools", "dense-mixed-bool", "dense-mixed-string", "dense-huge-int"])
def test_parse_rejects_entry_values_that_are_not_numbers(fmt, entries):
    # numpy would read "1.5" and True as floats, and overflow on the integer
    with pytest.raises(TensorFormatError, match=f"{fmt} entries: .*entry value"):
        parse_tensor({"order": 3, "dim": 2, "format": fmt, "entries": entries})


def test_parse_rejects_unknown_format():
    with pytest.raises(TensorFormatError, match="unknown format"):
        parse_tensor({"order": 2, "dim": 2, "format": "csr", "entries": []})


def test_parse_rejects_order_1():
    with pytest.raises(TensorFormatError, match="'order' must be at least 2"):
        parse_tensor({"order": 1, "dim": 2, "format": "coo",
                      "entries": [[[0], 1.0], [[1], -2.0]]})


def test_parse_rejects_missing_header():
    with pytest.raises(TensorFormatError):
        parse_tensor({"dim": 2})


@pytest.mark.parametrize("doc,key", [
    ({"order": 3, "dim": 2, "entires": [[[0, 0, 0], -1.0]]}, "entires"),
    ({"order": 3, "dim": 2, "format": "coo", "entries": [], "scale": 2.0}, "scale"),
], ids=["misspelt-entries", "extra-key"])
def test_parse_rejects_unknown_keys(doc, key):
    # read past, a misspelt "entries" would give the zero tensor
    with pytest.raises(TensorFormatError, match=f"unknown key '{key}'"):
        parse_tensor(doc)


def test_entries_key_is_optional():
    assert parse_tensor({"order": 3, "dim": 2}) == Tensor.zeros(3, 2)


@pytest.mark.parametrize("header,index", [
    ({"order": 2.7, "dim": 2}, [0, 1]),
    ({"order": 3, "dim": 2.0}, [0, 1, 0]),
    ({"order": "3", "dim": 2}, [0, 1, 0]),
    ({"order": 3, "dim": True}, [0, 0, 0]),
    ({"order": 3, "dim": 2}, [0, 1.5, 0]),
    ({"order": 3, "dim": 2}, [0, "1", 0]),
    ({"order": 3, "dim": 2}, [0, True, 0]),
], ids=["float-order", "float-dim", "string-order", "bool-dim",
        "float-index", "string-index", "bool-index"])
def test_parse_rejects_non_integer_fields(header, index):
    # int() would truncate each of these into a different tensor
    with pytest.raises(TensorFormatError):
        parse_tensor({**header, "format": "coo", "entries": [[index, 1.0]]})


def test_save_load_roundtrip(tmp_path, dim3_tensor):
    path = tmp_path / "t.json"
    save_tensor(dim3_tensor, path)
    assert load_tensor(path) == dim3_tensor


def test_canonical_dumps_is_valid_json_and_stable():
    doc = {"b": [1.0 / 3.0, 1, None, True], "a": {"x": -0.0}}
    text = canonical_dumps(doc)
    assert json.loads(text)["b"][0] == pytest.approx(1.0 / 3.0, abs=0)
    assert text == canonical_dumps(doc)
    assert "0.33333333333333331" in text


def test_canonical_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_dumps({"x": float("inf")})


def test_digest_distinguishes_tensors(almost_c_tensor, almost_e_tensor):
    assert tensor_digest(almost_c_tensor) != tensor_digest(almost_e_tensor)
    assert tensor_digest(almost_c_tensor) == tensor_digest(almost_c_tensor)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False, allow_infinity=False,
                          width=64), min_size=8, max_size=8))
def test_float_serialization_lossless(vals):
    A = Tensor(np.asarray(vals).reshape((2, 2, 2)))
    doc_text = canonical_dumps(tensor_to_json(A))
    assert parse_tensor(json.loads(doc_text)) == A

"""Serialization: canonical form, roundtrips, hash guards, atomicity."""

import json
import os

import numpy as np
import pytest

from crsphere import io
from crsphere.flow import DeformationTensor
from crsphere.normal_form import random_deformation, solve


def test_canonical_dumps_sorts_keys():
    text = io.canonical_dumps({"b": 1, "a": [1.5, 2.25]})
    assert text.index('"a"') < text.index('"b"')
    assert io.canonical_dumps({"a": 1, "b": 2}) == io.canonical_dumps({"b": 2, "a": 1})


def test_canonical_dumps_rejects_nan():
    with pytest.raises(ValueError):
        io.canonical_dumps({"x": float("nan")})


def test_scalar_roundtrip(basis6):
    rng = np.random.default_rng(100)
    f = basis6.random_scalar(rng)
    obj = io.scalar_to_json(f)
    back = io.scalar_from_json(basis6, obj)
    assert np.max(np.abs(back.coeffs - f.coeffs)) == 0.0


def test_scalar_mismatch_raises(basis6, basis8):
    rng = np.random.default_rng(101)
    f = basis6.random_scalar(rng)
    with pytest.raises(io.BasisMismatchError):
        io.scalar_from_json(basis8, io.scalar_to_json(f))


def test_scalar_json_is_float_pairs(basis6):
    rng = np.random.default_rng(102)
    obj = io.scalar_to_json(basis6.random_scalar(rng))
    assert obj["degree"] == 6
    assert len(obj["coeffs"]) == basis6.size
    assert all(len(pair) == 2 for pair in obj["coeffs"])
    json.dumps(obj)  # everything plain


def test_deformation_roundtrip(tmp_path, basis6):
    rng = np.random.default_rng(103)
    phi = random_deformation(basis6, rng, 1e-3)
    path = tmp_path / "phi.json"
    io.write_json(path, io.deformation_to_json(phi, config={"seed": 0}))
    back = io.deformation_from_json(basis6, io.read_json(path))
    assert (back.coefficient - phi.coefficient).l2_norm() == 0.0


def test_deformation_rejects_wrong_type(basis6):
    with pytest.raises(io.InputError, match="not a deformation tensor file"):
        io.deformation_from_json(basis6, {"type": "junk"})


def test_contact_field_rejects_wrong_kind(suite6):
    with pytest.raises(io.InputError, match="not a contact field file"):
        io.contact_field_from_json(suite6, {"kind": "junk"})


def test_read_json_rejects_malformed_as_input_error(tmp_path):
    # not a ValueError: the CLI maps ValueError to "outside the neighbourhood"
    assert not issubclass(io.InputError, ValueError)
    path = tmp_path / "bad.json"
    path.write_text("[1, 2")
    with pytest.raises(io.InputError, match="not valid JSON"):
        io.read_json(path)
    path.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(io.InputError):
        io.read_json(path)


def test_loaders_reject_missing_keys_and_non_finite_as_input_error(suite6):
    from crsphere.fields import contact_from_generating
    basis = suite6.basis
    good = io.scalar_to_json(basis.random_scalar(np.random.default_rng(106)))
    with pytest.raises(io.InputError, match="'coefficient'"):
        io.deformation_from_json(basis, {"type": "deformation_tensor"})
    with pytest.raises(io.InputError, match="'basis_id'"):
        io.scalar_from_json(basis, {"degree": 6, "coeffs": good["coeffs"]})
    with pytest.raises(io.InputError):
        io.scalar_from_json(basis, [good])
    field = io.contact_field_to_json(contact_from_generating(suite6, basis.zero()))
    del field["g"]
    with pytest.raises(io.InputError, match="'g'"):
        io.contact_field_from_json(suite6, field)
    for bad in (float("nan"), float("inf"), -float("inf")):
        pairs = [list(pair) for pair in good["coeffs"]]
        pairs[3][1] = bad
        with pytest.raises(io.InputError, match="NaN or infinite"):
            io.scalar_from_json(basis, dict(good, coeffs=pairs))
    with pytest.raises(io.InputError, match=r"\[\[re, im\], \.\.\.\]"):
        io.scalar_from_json(basis, dict(good, coeffs=[[1.0, 2.0, 3.0]]))


def test_contact_field_roundtrip(suite6):
    from crsphere.fields import contact_from_generating
    rng = np.random.default_rng(104)
    g = suite6.basis.random_scalar(rng).real_part()
    X = contact_from_generating(suite6, g)
    back = io.contact_field_from_json(suite6, io.contact_field_to_json(X))
    assert (back.generating - X.generating).l2_norm() < 1e-15


def test_result_serialization_is_json_clean(suite6):
    rng = np.random.default_rng(105)
    phi = random_deformation(suite6.basis, rng, 1e-3)
    result = solve(suite6, phi, steps=8)
    obj = io.result_to_json(result, config={"seed": 1}, input_sha256="ab" * 32)
    text = io.canonical_dumps(obj)
    parsed = json.loads(text)
    assert parsed["converged"] is True
    assert parsed["residuals"]["defining"] < 1e-10
    assert len(parsed["history"]) == parsed["iterations"]


def test_atomic_write_leaves_no_temp(tmp_path):
    target = tmp_path / "out.json"
    io.atomic_write_text(target, "hello\n")
    assert target.read_text() == "hello\n"
    leftovers = [p for p in os.listdir(tmp_path) if p != "out.json"]
    assert leftovers == []


def test_atomic_write_replaces(tmp_path):
    target = tmp_path / "out.json"
    io.atomic_write_text(target, "one\n")
    io.atomic_write_text(target, "two\n")
    assert target.read_text() == "two\n"


def test_csv_roundtrip_with_preamble(tmp_path):
    path = tmp_path / "t.csv"
    rows = [{"iter": 0, "chi_norm": 0.5, "xi_norm": 0.0, "trunc_mass": 1e-16},
            {"iter": 1, "chi_norm": 1e-12, "xi_norm": 2e-18, "trunc_mass": 0.0}]
    io.write_csv(path, io.HISTORY_HEADER, rows, preamble=["config={}"])
    text = path.read_text()
    assert text.startswith("# config={}\n")
    back = io.read_csv(path)
    assert len(back) == 2
    assert float(back[0]["chi_norm"]) == 0.5
    assert float(back[1]["xi_norm"]) == 2e-18


def test_file_sha256_matches_content(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("abc")
    assert io.file_sha256(path) == io.sha256_hex("abc")

"""Serialization: canonical form, roundtrips, hash guards, atomicity."""

import json
import os

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import cached_basis, cached_suite
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
    # not a ValueError, which marks a bad library argument and has no exit code
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
    assert parsed["flow_rhs_evals"] == result.flow_rhs_evals > 0
    assert parsed["max_flow_error_estimate"] == result.max_flow_error_estimate
    assert parsed["max_contact_ratio"] == result.max_contact_ratio() > 0.0


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
    flow_cols = {"flow_rhs_evals": 0, "flow_error_estimate": 0.0, "contact_ratio": 0.0,
                 "kernel_fallbacks": 0, "max_node_displacement": 0.0}
    rows = [{"iter": 0, "chi_norm": 0.5, "xi_norm": 0.0, "trunc_mass": 1e-16, **flow_cols},
            {"iter": 1, "chi_norm": 1e-12, "xi_norm": 2e-18, "trunc_mass": 0.0, **flow_cols}]
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


# -- properties: exact round trips, non-finite input rejected where it enters

PROPERTY_DEGREE = 4  # 55 basis functions
# no shrink phase: shrinking 110 unbounded floats can run for minutes, and an
# unshrunk counterexample still names the failing list
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                             phases=[Phase.explicit, Phase.generate])


def _pair_lists(bound=None):
    size = cached_basis(PROPERTY_DEGREE).size
    if bound is None:
        part = st.floats(allow_nan=False, allow_infinity=False)
    else:
        part = st.floats(min_value=-bound, max_value=bound)
    return st.lists(st.tuples(part, part), min_size=size, max_size=size)


def _through_text(obj):
    return json.loads(io.canonical_dumps(obj))


def _bits(coeffs):
    return np.asarray(coeffs, dtype=complex).view(np.uint64)


@PROPERTY_SETTINGS
@given(_pair_lists())
def test_scalar_roundtrip_is_exact(pairs):
    basis = cached_basis(PROPERTY_DEGREE)
    f = basis.scalar([complex(re, im) for re, im in pairs])
    back = io.scalar_from_json(basis, _through_text(io.scalar_to_json(f)))
    assert np.array_equal(_bits(back.coeffs), _bits(f.coeffs))


@PROPERTY_SETTINGS
@given(_pair_lists(bound=1e-3))
def test_deformation_roundtrip_is_exact(pairs):
    # |c_j| <= sqrt(2) 1e-3 and sum_j sup|beta_j| < 80 at N = 4, so sup |phi| < 1
    basis = cached_basis(PROPERTY_DEGREE)
    phi = DeformationTensor(basis.scalar([complex(re, im) for re, im in pairs]))
    back = io.deformation_from_json(basis, _through_text(io.deformation_to_json(phi)))
    assert np.array_equal(_bits(back.coefficient.coeffs), _bits(phi.coefficient.coeffs))


@PROPERTY_SETTINGS
@given(_pair_lists(bound=1e100))
def test_contact_field_roundtrip_is_exact(pairs):
    from crsphere.fields import contact_from_generating
    suite = cached_suite(PROPERTY_DEGREE)
    g = suite.basis.scalar([complex(re, im) for re, im in pairs]).real_part()
    X = contact_from_generating(suite, g)
    back = io.contact_field_from_json(suite, _through_text(io.contact_field_to_json(X)))
    assert np.array_equal(_bits(back.generating.coeffs), _bits(X.generating.coeffs))
    assert np.array_equal(_bits(back.horizontal.coeffs), _bits(X.horizontal.coeffs))


@PROPERTY_SETTINGS
@given(_pair_lists(bound=1e-3), st.data(),
       st.sampled_from([float("nan"), float("inf"), -float("inf")]))
def test_non_finite_coefficient_is_input_error(pairs, data, bad):
    from crsphere.fields import contact_from_generating
    suite = cached_suite(PROPERTY_DEGREE)
    basis = suite.basis
    pairs = [list(pair) for pair in pairs]
    index = data.draw(st.integers(0, len(pairs) - 1))
    pairs[index][data.draw(st.integers(0, 1))] = bad
    scalar = dict(io.scalar_to_json(basis.zero()), coeffs=pairs)
    with pytest.raises(io.InputError, match="NaN or infinite"):
        io.scalar_from_json(basis, scalar)
    with pytest.raises(io.InputError, match="NaN or infinite"):
        io.deformation_from_json(basis, {"type": "deformation_tensor", "coefficient": scalar})
    field = dict(io.contact_field_to_json(contact_from_generating(suite, basis.zero())), g=pairs)
    with pytest.raises(io.InputError, match="NaN or infinite"):
        io.contact_field_from_json(suite, field)


def test_coefficient_beyond_float_range_is_input_error(basis6):
    # json.loads keeps a long integer literal as an int, which no float holds
    good = io.scalar_to_json(basis6.zero())
    pairs = [list(pair) for pair in good["coeffs"]]
    pairs[2][0] = json.loads("1" + "0" * 400)
    with pytest.raises(io.InputError, match="beyond the float range"):
        io.scalar_from_json(basis6, dict(good, coeffs=pairs))

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
from crsphere.normal_form import (prefab_normal_form, pullback_of_zero, random_deformation,
                                  solve)


def test_canonical_dumps_sorts_keys():
    text = io.canonical_dumps({"b": 1, "a": [1.5, 2.25]})
    assert text.index('"a"') < text.index('"b"')
    assert io.canonical_dumps({"a": 1, "b": 2}) == io.canonical_dumps({"b": 2, "a": 1})


def _json_oracle(obj):
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def test_canonical_dumps_rejects_nan():
    for bad in (float("nan"), float("inf"), -float("inf")):
        for obj in ({"x": bad}, [0.5, bad], [[0.5, 1.5], [bad, 0.0]], [[0.5, bad]],
                    {"coeffs": [[0.5, 1.5]] * 3 + [[1.0, bad]]}):
            with pytest.raises(ValueError):
                io.canonical_dumps(obj)
            with pytest.raises(ValueError):
                _json_oracle(obj)


@pytest.mark.parametrize("bad", [np.int64(3), 1j, {1, 2}, {1: 2.0}, {"a": 1, 2: 3},
                                 [[np.int64(1), 2.0]], [[1.0, 2.0], [1j, 0.0]]])
def test_canonical_dumps_rejects_unsupported_types_and_keys(bad):
    # json.dumps writes the int key of {1: 2.0} as "1"; no output has one
    with pytest.raises(TypeError):
        io.canonical_dumps({"x": bad})


_ORACLE_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
                  | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e22, 1e308, -1e308,
                                     0.1, 1 / 3]))
_ORACLE_LEAVES = (st.none() | st.booleans() | _ORACLE_FLOATS | st.integers()
                  | st.integers(2**63, 2**200) | st.integers(-(2**200), -(2**63))
                  | st.text() | st.sampled_from(["", "\x00\x1f\x7f", "é ∂̄ 𝔖", '"\\/']))
# [[re, im], ...] coefficient vectors, lists of float lists of other lengths,
# and pair lists that hold ints or bools, such as [1, 2.0] and [True, 0.0]
_ORACLE_PAIRS = (st.lists(st.lists(_ORACLE_FLOATS, min_size=2, max_size=2), max_size=12)
                 | st.lists(st.lists(_ORACLE_FLOATS, min_size=1, max_size=3), max_size=4)
                 | st.lists(st.lists(_ORACLE_FLOATS | st.integers() | st.booleans(),
                                     min_size=2, max_size=2), max_size=4))
_ORACLE_TREES = st.recursive(
    _ORACLE_LEAVES | _ORACLE_PAIRS,
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(children, max_size=5).map(tuple)
                      | st.dictionaries(st.text(max_size=6), children, max_size=5)),
    max_leaves=30)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ORACLE_TREES)
def test_canonical_dumps_is_json_dumps(obj):
    assert io.canonical_dumps(obj) == _json_oracle(obj)


def _oracle_examples(suite):
    rng = np.random.default_rng(107)
    instances = {
        "random": (random_deformation(suite.basis, rng, 1e-3), {}),
        "pullback-of-zero": (pullback_of_zero(suite, rng, target=1e-3).phi, {}),
    }
    prefab = prefab_normal_form(suite, rng, target=1e-3)
    instances["prefab-normal-form"] = (prefab.phi, {"y0": io.scalar_to_json(prefab.y0),
                                                    "psi0": io.scalar_to_json(prefab.psi0)})
    for kind, (phi, provenance) in instances.items():
        yield io.deformation_to_json(phi, config={"seed": 7, "eps": 0.01},
                                     provenance={"kind": kind, **provenance})
        yield io.result_to_json(solve(suite, phi, steps=8), config={"seed": 7},
                                input_sha256="cd" * 32)


def test_canonical_dumps_matches_json_on_real_objects(suite6):
    examples = list(_oracle_examples(suite6))
    assert len(examples) == 6
    history = [{"chi_norm": np.float64(0.25), "xi_norm": np.float64(-0.0), "iter": 1,
                "pair": [np.float64(1e-300), 2.5]}]
    for obj in examples + [{"history": history}]:
        assert io.canonical_dumps(obj) == _json_oracle(obj)


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
    # the worst guard margins of the run, from its history rows
    history = result.history
    assert parsed["max_field_norm"] == max(row["field_norm"] for row in history) > 0.0
    assert parsed["min_abs_a"] == min(row["min_abs_a"] for row in history) < 1.0
    assert parsed["max_sup_phi"] == max(row["sup_phi"] for row in history) > 0.0


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
    flow_cols = {"contraction": 0.0, "flow_steps": 0,
                 "flow_rhs_evals": 0, "flow_error_estimate": 0.0, "contact_ratio": 0.0,
                 "kernel_fallbacks": 0, "max_node_displacement": 0.0,
                 "field_norm": 0.0, "min_abs_a": 1.0, "sup_phi": 0.5}
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

"""Canonical JSON/CSV serialization with atomic writes.

All structured objects go to JSON with sorted keys and default float repr
(shortest round-trip), so identical inputs produce bitwise-identical files.
``canonical_dumps`` writes the text of ``json.dumps(obj, sort_keys=True, indent=2,
allow_nan=False)``, the tests' oracle; a list of [float, float] fills one template.
Complex coefficient vectors serialize as [[re, im], ...] pairs tagged with
the basis content hash; loading against a different build of the basis
fails loudly rather than reinterpreting coefficients.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import tempfile
from json.encoder import encode_basestring_ascii

import numpy as np

from .basis import Basis, SpectralScalar


class BasisMismatchError(RuntimeError):
    """Serialized coefficients belong to a different basis build."""


class InputError(Exception):
    """An input file cannot be decoded, has the wrong ``type`` or ``kind``,
    lacks a required key or holds a non-finite coefficient: exit 6 in
    ``cli.EXIT_CODES``. Not a ``ValueError``, which marks a bad argument to
    the library and has no exit code."""


def canonical_dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)`` for
    str-keyed dicts, lists, tuples, str, int, float, bool and None. A NaN or
    infinity raises ``ValueError``; another type, or key, ``TypeError``."""
    return _encode(obj, "\n")


def _encode(obj, newline):
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return {None: "null", True: "true", False: "false"}[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):  # numpy float64 included, as in json
        if math.isfinite(obj):
            return float.__repr__(obj)
        raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        pairs = set(map(type, obj)) == {list} and set(map(len, obj)) == {2}
        flat = [part for pair in obj for part in pair] if pairs else []
        if set(map(type, flat)) == {float} and all(map(math.isfinite, flat)):
            item = f"{inner}[{inner}  %s,{inner}  %s{inner}]"  # one [re, im] pair
            text = ",".join([item] * len(obj)) % tuple(map(float.__repr__, flat))
            return "[" + text + newline + "]"
        items = [inner + _encode(value, inner) for value in obj]
        return "[" + ",".join(items) + newline + "]" if items else "[]"
    if isinstance(obj, dict):
        items = [f"{inner}{encode_basestring_ascii(key)}: {_encode(obj[key], inner)}"
                 for key in sorted(obj)]
        return "{" + ",".join(items) + newline + "}" if items else "{}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def compact_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def sha256_hex(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return sha256_hex(fh.read())


def atomic_write_text(path, text):
    """Write ``text`` to a synced temporary file beside ``path``, then rename
    it onto ``path``. An ``OSError`` names ``path``, not the temporary file."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


def write_json(path, obj):
    atomic_write_text(path, canonical_dumps(obj) + "\n")


def read_json_hashed(path):
    """Parsed JSON and the sha256 of the bytes parsed, from one read; ``OSError``
    if the file cannot be read, ``InputError`` if it is not UTF-8 JSON."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return json.loads(data.decode("utf-8")), sha256_hex(data)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise InputError(f"{path}: not valid JSON ({exc})") from None


def read_json(path):
    return read_json_hashed(path)[0]


def write_csv(path, header, rows, preamble=None):
    """Rows are dicts keyed by header entries; preamble lines go in front
    as '# ...' comments (config echo / input hashes)."""
    buf = io.StringIO()
    if preamble:
        for line in preamble:
            buf.write(f"# {line}\n")
    writer = csv.DictWriter(buf, fieldnames=list(header), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({key: _csv_cell(row[key]) for key in header})
    atomic_write_text(path, buf.getvalue())


def _csv_cell(value):
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def read_csv(path):
    with open(path, "r") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


# ---------------------------------------------------------------------------
# coefficient vectors


def _pairs(coeffs):
    return np.ascontiguousarray(coeffs, dtype=complex).view(float).reshape(-1, 2).tolist()


def _unpairs(pairs):
    try:
        arr = np.asarray(pairs, dtype=float)
    except OverflowError:  # an integer literal beyond the float range
        raise InputError("coefficient list holds a value beyond the float range") from None
    except (TypeError, ValueError):  # ragged or non-numeric entries
        arr = np.empty(0)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InputError("coefficient list must be [[re, im], ...]")
    if not np.isfinite(arr).all():
        raise InputError("coefficient list holds a NaN or infinite value")
    return arr.view(complex)[:, 0]  # bit for bit, signed zeros included


def _require(obj, *keys):
    """The values of ``keys`` in a decoded JSON object, or InputError naming
    the first key that is missing."""
    if not isinstance(obj, dict):
        raise InputError(f"expected a JSON object with keys {', '.join(keys)}")
    for key in keys:
        if key not in obj:
            raise InputError(f"missing key {key!r}")
    return [obj[key] for key in keys]


def scalar_to_json(f: SpectralScalar):
    return {
        "degree": f.basis.degree,
        "basis_id": f.basis.basis_id,
        "coeffs": _pairs(f.coeffs),
    }


def scalar_from_json(basis: Basis, obj) -> SpectralScalar:
    basis_id, degree, pairs = _require(obj, "basis_id", "degree", "coeffs")
    if basis_id != basis.basis_id:
        raise BasisMismatchError(
            f"file basis {basis_id} (N={degree}) does not match "
            f"built basis {basis.basis_id} (N={basis.degree})")
    coeffs = _unpairs(pairs)
    if coeffs.shape[0] != basis.size:
        raise BasisMismatchError("coefficient count does not match basis size")
    return basis.scalar(coeffs)


def deformation_to_json(phi, config=None, provenance=None):
    out = {
        "type": "deformation_tensor",
        "coefficient": scalar_to_json(phi.coefficient),
    }
    if config is not None:
        out["config"] = config
    if provenance is not None:
        out["provenance"] = provenance
    return out


def deformation_from_json(basis: Basis, obj):
    from .flow import DeformationTensor
    if _require(obj, "type")[0] != "deformation_tensor":
        raise InputError("not a deformation tensor file")
    return DeformationTensor(scalar_from_json(basis, _require(obj, "coefficient")[0]))


def contact_field_to_json(X):
    return {
        "kind": "contact",
        "basis_id": X.basis.basis_id,
        "degree": X.basis.degree,
        "g": _pairs(X.generating.coeffs),
    }


def contact_field_from_json(suite, obj):
    from .fields import contact_from_generating
    if _require(obj, "kind")[0] != "contact":
        raise InputError("not a contact field file")
    basis_id, degree, pairs = _require(obj, "basis_id", "degree", "g")
    g = scalar_from_json(suite.basis, {"basis_id": basis_id, "degree": degree,
                                       "coeffs": pairs})
    return contact_from_generating(suite, g.real_part())


def result_to_json(result, config=None, input_sha256=None):
    out = {
        "type": "normal_form_result",
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "flow_steps": int(result.flow_steps),
        "flow_rhs_evals": int(result.flow_rhs_evals),
        "max_flow_error_estimate": float(result.max_flow_error_estimate),
        "x_generating": scalar_to_json(result.x.generating),
        "y_parameter": scalar_to_json(result.y.parameter),
        "y_certificate": float(result.y.certificate),
        "psi": scalar_to_json(result.psi.coefficient),
        "residuals": {
            "defining": float(result.defining_residual()),
            "gauge": float(result.gauge_residual()),
            "harmonicity": float(result.harmonicity()),
        },
        "norm_report": result.norm_report(),
        "max_truncation_mass": float(result.max_truncation_mass()),
        "max_contact_ratio": float(result.max_contact_ratio()),
        "max_kernel_fallbacks": int(result.max_kernel_fallbacks()),
        "max_node_displacement": float(result.max_node_displacement()),
        "max_field_norm": max(row["field_norm"] for row in result.history),
        "min_abs_a": min(row["min_abs_a"] for row in result.history),
        "max_sup_phi": max(row["sup_phi"] for row in result.history),
        "history": result.history,
    }
    if config is not None:
        out["config"] = config
    if input_sha256 is not None:
        out["input_sha256"] = input_sha256
    return out


HISTORY_HEADER = ["iter", "chi_norm", "xi_norm", "trunc_mass",
                  "flow_rhs_evals", "flow_error_estimate", "contact_ratio",
                  "kernel_fallbacks", "max_node_displacement",
                  "field_norm", "min_abs_a", "sup_phi"]

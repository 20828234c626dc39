"""CLI subcommands end to end: outputs, exit codes, determinism.

Everything but the console entry point runs ``main()`` in-process.
"""

import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from conftest import cached_basis
from crsphere import cli, io
from crsphere.cli import EXIT_CODES, main
from crsphere.flow import MAX_FLOW_STEPS


def run_cli(*args):
    return main([str(a) for a in args])


def assert_fails(capsys, args, code, *messages):
    """``main(args)`` returns ``code`` (a failure does not escape as an
    exception) and writes exactly one stderr line, an ``error:`` line that
    holds every message; returns that line."""
    capsys.readouterr()  # drop the output of any set-up run
    assert run_cli(*args) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    for message in messages:
        assert message in lines[0]
    return lines[0]


def assert_bad_flag(capsys, args, message):
    """argparse rejects ``args`` with exit 2 and the one error line ``message``."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli(*args)
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == [message]


def gen_random(path, seed, *flags):
    assert run_cli("gen", "--kind", "random", "--degree", "4", "--seed", seed,
                   *flags, "--out", path) == 0


def test_gen_writes_config_and_provenance(tmp_path):
    out = tmp_path / "phi.json"
    code = run_cli("gen", "--kind", "random", "--degree", "4", "--seed", "11",
                   "--out", out)
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["type"] == "deformation_tensor"
    assert obj["config"]["degree"] == 4
    assert obj["config"]["seed"] == 11
    assert obj["provenance"]["kind"] == "random"


def test_gen_prefab_records_construction(tmp_path):
    out = tmp_path / "phi.json"
    assert run_cli("gen", "--kind", "prefab-normal-form", "--degree", "4",
                   "--seed", "2", "--out", out) == 0
    obj = json.loads(out.read_text())
    assert "y0" in obj["provenance"] and "psi0" in obj["provenance"]


def test_normal_form_end_to_end(tmp_path):
    phi = tmp_path / "phi.json"
    res = tmp_path / "res.json"
    run_cli("gen", "--kind", "prefab-normal-form", "--degree", "4", "--seed", "3",
            "--out", phi)
    code = run_cli("normal-form", "--degree", "4", "--in", phi, "--out", res)
    assert code == 0
    obj = json.loads(res.read_text())
    assert obj["converged"] is True
    assert obj["residuals"]["defining"] < 1e-10
    assert obj["input_sha256"] == io.file_sha256(phi)
    history = io.read_csv(tmp_path / "res.history.csv")
    assert len(history) == obj["iterations"]


def test_rerun_is_bitwise_identical(tmp_path):
    phi_a, phi_b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (phi_a, phi_b):
        run_cli("gen", "--kind", "pullback-of-zero", "--degree", "4", "--seed", "7",
                "--out", target)
    assert phi_a.read_bytes() == phi_b.read_bytes()
    res_a, res_b = tmp_path / "ra.json", tmp_path / "rb.json"
    for src, dst in ((phi_a, res_a), (phi_b, res_b)):
        assert run_cli("normal-form", "--degree", "4", "--in", src, "--out", dst) == 0
    assert res_a.read_bytes() == res_b.read_bytes()
    assert (tmp_path / "ra.history.csv").read_bytes() == (tmp_path / "rb.history.csv").read_bytes()


# ---------------------------------------------------------------------------
# failures: one exit code and one error line each


def test_exit_code_basis_mismatch(tmp_path, capsys):
    phi = tmp_path / "phi.json"
    gen_random(phi, 0)
    assert_fails(capsys, ["normal-form", "--degree", "6", "--in", phi,
                          "--out", tmp_path / "r.json"], 4, "does not match built basis")
    assert not (tmp_path / "r.json").exists()


def test_exit_code_non_convergence(tmp_path, capsys):
    phi = tmp_path / "phi.json"
    gen_random(phi, 1)
    assert_fails(capsys, ["normal-form", "--degree", "4", "--max-iter", "1", "--tol", "1e-15",
                          "--in", phi, "--out", tmp_path / "r.json"], 7, "residual")
    obj = json.loads((tmp_path / "r.json").read_text())
    assert obj["type"] == "normal_form_failure"
    assert len(obj["history"]) == 2
    assert len(io.read_csv(tmp_path / "r.history.csv")) == 2
    assert_fails(capsys, ["slice", "--degree", "4", "--max-iter", "1", "--tol", "1e-15",
                          "--in", phi, "--generator", "auto"], 7, "residual")


def test_exit_code_oversized_input(tmp_path, capsys):
    phi = tmp_path / "phi.json"
    # eps controls the gen target size; a huge eps produces a tensor the
    # solver then rejects at its own default neighbourhood
    gen_random(phi, 1, "--eps", "0.4")
    assert_fails(capsys, ["normal-form", "--degree", "4", "--in", phi,
                          "--out", tmp_path / "r.json"], 3, "exceeds the solver neighbourhood")


def test_exit_code_sup_phi_at_load(tmp_path, capsys):
    # a stored tensor with sup |phi| >= 1 is outside the neighbourhood, not
    # a malformed file
    phi = tmp_path / "phi.json"
    gen_random(phi, 1)
    obj = json.loads(phi.read_text())
    obj["coefficient"]["coeffs"] = [[1e4 * re, 1e4 * im] for re, im in obj["coefficient"]["coeffs"]]
    phi.write_text(json.dumps(obj))
    assert_fails(capsys, ["normal-form", "--degree", "4", "--in", phi,
                          "--out", tmp_path / "r.json"], 3, "sup |phi|")


@pytest.mark.parametrize("command", [
    ["normal-form"],
    ["slice", "--generator", "auto"],
], ids=["normal-form", "slice"])
def test_exit_code_outside_neighbourhood_at_load(tmp_path, capsys, command):
    # the constant 5 has sup |phi| = 5; both commands refuse it before solving
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"type": "deformation_tensor",
                               "coefficient": io.scalar_to_json(cached_basis(4).constant(5.0))}))
    assert_fails(capsys, [*command, "--degree", "4", "--in", phi, "--out", tmp_path / "r.out"],
                 3, "sup |phi| = 5.000")
    assert not (tmp_path / "r.out").exists()


def test_exit_code_slice_basis_mismatch(tmp_path, capsys):
    phi = tmp_path / "phi.json"
    gen_random(phi, 0)
    assert_fails(capsys, ["slice", "--degree", "6", "--in", phi, "--generator", "auto",
                          "--out", tmp_path / "s.csv"], 4, "does not match built basis")
    assert not (tmp_path / "s.csv").exists()


def test_exit_code_flow_failure(tmp_path, capsys):
    # a generator far above the flow norm cap fails in flow()
    phi = tmp_path / "phi.json"
    run_cli("gen", "--kind", "prefab-normal-form", "--degree", "4", "--seed", "6",
            "--out", phi)
    assert_fails(capsys, ["slice", "--degree", "4", "--in", phi, "--generator", "auto:50"],
                 5, "too large to flow")


def test_exit_code_flow_failure_overflowing_generator(tmp_path, capsys):
    # squaring the coefficients of a generator of size 1e308 overflows; the
    # size check measures it scaled by its largest coefficient, so no numpy
    # warning joins the one error line
    phi = tmp_path / "phi.json"
    run_cli("gen", "--kind", "random", "--degree", "6", "--seed", "1", "--out", phi)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert_fails(capsys, ["slice", "--degree", "6", "--in", phi, "--generator", "auto:1e308"],
                     5, "too large to flow")
    assert caught == []


@pytest.mark.parametrize("command", [
    ["normal-form"],
    ["slice", "--generator", "auto"],
], ids=["normal-form", "slice"])
def test_exit_code_missing_input(tmp_path, capsys, command):
    missing = tmp_path / "absent.json"
    assert_fails(capsys, [*command, "--degree", "4", "--in", missing,
                          "--out", tmp_path / "r.json"], 6, str(missing))


def test_exit_code_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "deformation_tensor", ')
    assert_fails(capsys, ["normal-form", "--degree", "4", "--in", bad,
                          "--out", tmp_path / "r.json"], 6, "not valid JSON")
    assert not (tmp_path / "r.json").exists()


def test_exit_code_wrong_file_type(tmp_path, capsys):
    junk = tmp_path / "junk.json"
    junk.write_text('{"type": "junk"}')
    assert_fails(capsys, ["normal-form", "--degree", "4", "--in", junk,
                          "--out", tmp_path / "r.json"], 6, "not a deformation tensor file")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command, flag", [
    (["gen", "--kind", "random", "--eps", "inf"], "--eps"),
    (["normal-form", "--in", "absent.json", "--tol", "nan"], "--tol"),
], ids=["gen-eps-inf", "normal-form-tol-nan"])
def test_config_validation_rejects_non_finite(tmp_path, capsys, command, flag):
    assert_bad_flag(capsys, [*command, "--degree", "4", "--out", tmp_path / "r.json"],
                    f"crsphere: error: {flag} must be positive and finite")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("size", ["x", "nan", "-1", "inf", "0"])
def test_slice_auto_size_rejected_by_argparse(tmp_path, capsys, size):
    # checked while parsing, before any file is read or basis is built
    assert_bad_flag(capsys, ["slice", "--degree", "4", "--in", tmp_path / "absent.json",
                             "--generator", f"auto:{size}"],
                    "crsphere slice: error: argument --generator: auto size must be "
                    f"positive and finite, got {size!r}")


@pytest.mark.parametrize("kind", ["random", "prefab-normal-form"])
def test_exit_code_gen_too_large_for_neighbourhood(tmp_path, capsys, kind):
    # a huge --eps is a valid config; the drawn tensor then has sup |phi| >= 1
    assert_fails(capsys, ["gen", "--kind", kind, "--degree", "6", "--eps", "1000",
                          "--out", tmp_path / "phi.json"], 3, "sup |phi|")
    assert not (tmp_path / "phi.json").exists()


def _drop_coefficient(obj):
    del obj["coefficient"]


def _drop_degree(obj):
    del obj["coefficient"]["degree"]


def _nan_coefficient(obj):
    obj["coefficient"]["coeffs"][0][0] = float("nan")


@pytest.mark.parametrize("edit, message", [
    (_drop_coefficient, "missing key 'coefficient'"),
    (_drop_degree, "missing key 'degree'"),
    (_nan_coefficient, "NaN or infinite"),
], ids=["missing-coefficient", "missing-degree", "nan-coefficient"])
def test_exit_code_bad_deformation_file(tmp_path, capsys, edit, message):
    phi = tmp_path / "phi.json"
    gen_random(phi, 0)
    obj = json.loads(phi.read_text())
    edit(obj)
    phi.write_text(json.dumps(obj))  # json.dumps writes a NaN as the bare token NaN
    assert_fails(capsys, ["normal-form", "--degree", "4", "--in", phi,
                          "--out", tmp_path / "r.json"], 6, message)
    assert not (tmp_path / "r.json").exists()


def test_exit_code_unwritable_out(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "phi.json"
    line = assert_fails(capsys, ["gen", "--kind", "random", "--degree", "4", "--out", out],
                        6, str(out))
    assert ".tmp-" not in line
    assert not out.parent.exists()


def _listed_codes(text):
    """The codes that open the lines of the list after ``Exit codes:``."""
    block = text.split("Exit codes:\n", 1)[1].split("\n\n", 1)[0]
    return sorted(int(code) for code in re.findall(r"^(?:- )?(\d+) ", block, re.M))


def test_exit_code_table_is_documented():
    classes = list(EXIT_CODES)
    assert not [(a, b) for a in classes for b in classes if a is not b and issubclass(a, b)]
    codes = sorted({0, 1, 2, *EXIT_CODES.values()})
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert _listed_codes(readme) == codes
    assert _listed_codes(cli.__doc__) == codes


@pytest.mark.parametrize("steps", [0, MAX_FLOW_STEPS + 1])
def test_config_validation_rejects_steps_out_of_range(steps, capsys):
    assert_bad_flag(capsys, ["verify", "--degree", "4", "--steps", steps],
                    f"crsphere: error: --steps must be between 1 and {MAX_FLOW_STEPS}")


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "--seed must be non-negative"),
    (["--s", "0"], "--s must be between 1 and 64"),
    (["--s", "65"], "--s must be between 1 and 64"),
])
def test_config_validation_rejects_seed_and_s_out_of_range(flags, message, tmp_path, capsys):
    for command in ("gen", "verify"):
        argv = [command, "--degree", "4", *flags]
        if command == "gen":
            argv += ["--kind", "random", "--out", str(tmp_path / "phi.json")]
        assert_bad_flag(capsys, argv, f"crsphere: error: {message}")


def test_verify_passes_and_writes_csv(tmp_path):
    out = tmp_path / "verify.csv"
    assert run_cli("verify", "--degree", "4", "--seed", "5", "--out", out) == 0
    rows = io.read_csv(out)
    assert all(row["status"] == "pass" for row in rows)
    assert len(rows) == 17 and rows[-1]["check"] == "near_node_taylor"


def test_slice_auto_generator(tmp_path):
    phi = tmp_path / "phi.json"
    out = tmp_path / "slice.csv"
    run_cli("gen", "--kind", "prefab-normal-form", "--degree", "6", "--eps", "2e-3",
            "--seed", "6", "--out", phi)
    code = run_cli("slice", "--degree", "6", "--in", phi,
                   "--generator", "auto:2e-4", "--steps", "16", "--out", out)
    assert code == 0
    rows = io.read_csv(out)
    assert [row["quantity"] for row in rows] == ["y", "psi"]
    assert all(float(row["rel_diff"]) < 1e-6 for row in rows)


def test_scan_writes_documented_columns(tmp_path):
    out = tmp_path / "scan.csv"
    assert run_cli("scan", "--degree", "4", "--seed", "0", "--steps", "8",
                   "--out", out) == 0
    rows = io.read_csv(out)
    assert list(rows[0].keys()) == ["seed", "N", "s", "ratio_X", "ratio_Y", "ratio_psi"]
    assert len(rows) == 30  # 10 seeds x 3 orders


def test_config_validation_rejects_bad_degree(capsys):
    assert_bad_flag(capsys, ["verify", "--degree", "3"],
                    "crsphere: error: --degree must be at least 4")


def test_console_entry_point_runs():
    out = subprocess.run([sys.executable, "-m", "crsphere.cli", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    for name in ("gen", "normal-form", "verify", "scan", "slice"):
        assert name in out.stdout

"""CLI subcommands end to end: outputs, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from crsphere import io
from crsphere.cli import EXIT_FLOW, EXIT_INPUT, main
from crsphere.flow import MAX_FLOW_STEPS


def run_cli(*args):
    return main([str(a) for a in args])


def run_cli_subprocess(*args):
    return subprocess.run([sys.executable, "-m", "crsphere.cli", *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def assert_one_line_error(out, code):
    assert out.returncode == code
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in out.stderr


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


def test_exit_code_basis_mismatch(tmp_path):
    phi = tmp_path / "phi.json"
    run_cli("gen", "--kind", "random", "--degree", "4", "--seed", "0", "--out", phi)
    assert run_cli("normal-form", "--degree", "6", "--in", phi,
                   "--out", tmp_path / "r.json") == 4


def test_exit_code_non_convergence(tmp_path):
    phi = tmp_path / "phi.json"
    run_cli("gen", "--kind", "random", "--degree", "4", "--seed", "1", "--out", phi)
    code = run_cli("normal-form", "--degree", "4", "--max-iter", "1",
                   "--tol", "1e-15", "--in", phi, "--out", tmp_path / "r.json")
    assert code == 2
    obj = json.loads((tmp_path / "r.json").read_text())
    assert obj["type"] == "normal_form_failure"
    assert len(obj["history"]) == 2


def test_exit_code_oversized_input(tmp_path):
    phi = tmp_path / "phi.json"
    # eps controls the gen target size; a huge eps produces a tensor the
    # solver then rejects at its own default neighbourhood
    run_cli("gen", "--kind", "random", "--degree", "4", "--eps", "0.4",
            "--seed", "1", "--out", phi)
    assert run_cli("normal-form", "--degree", "4", "--in", phi,
                   "--out", tmp_path / "r.json") == 3


def test_exit_code_sup_phi_at_load(tmp_path):
    # a stored tensor with sup |phi| >= 1 is outside the neighbourhood, not
    # a malformed file
    phi = tmp_path / "phi.json"
    run_cli("gen", "--kind", "random", "--degree", "4", "--seed", "1", "--out", phi)
    obj = json.loads(phi.read_text())
    obj["coefficient"]["coeffs"] = [[1e4 * re, 1e4 * im] for re, im in obj["coefficient"]["coeffs"]]
    phi.write_text(json.dumps(obj))
    out = run_cli_subprocess("normal-form", "--degree", "4", "--in", phi,
                             "--out", tmp_path / "r.json")
    assert_one_line_error(out, 3)
    assert "sup |phi|" in out.stderr


def test_exit_code_flow_failure(tmp_path):
    # a generator far above the flow norm cap fails in flow(); the CLI maps
    # FlowError to its own code with a one-line message
    phi = tmp_path / "phi.json"
    run_cli("gen", "--kind", "prefab-normal-form", "--degree", "4", "--seed", "6",
            "--out", phi)
    out = run_cli_subprocess("slice", "--degree", "4", "--in", phi, "--generator", "auto:50")
    assert_one_line_error(out, EXIT_FLOW)


@pytest.mark.parametrize("command", [
    ["normal-form"],
    ["slice", "--generator", "auto"],
], ids=["normal-form", "slice"])
def test_exit_code_missing_input(tmp_path, command):
    missing = tmp_path / "absent.json"
    out = run_cli_subprocess(*command, "--degree", "4", "--in", missing,
                             "--out", tmp_path / "r.json")
    assert_one_line_error(out, EXIT_INPUT)
    assert str(missing) in out.stderr


def test_exit_code_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "deformation_tensor", ')
    out = run_cli_subprocess("normal-form", "--degree", "4", "--in", bad,
                             "--out", tmp_path / "r.json")
    assert_one_line_error(out, EXIT_INPUT)
    assert "not valid JSON" in out.stderr
    assert not (tmp_path / "r.json").exists()


def test_exit_code_wrong_file_type(tmp_path):
    junk = tmp_path / "junk.json"
    junk.write_text('{"type": "junk"}')
    out = run_cli_subprocess("normal-form", "--degree", "4", "--in", junk,
                             "--out", tmp_path / "r.json")
    assert_one_line_error(out, EXIT_INPUT)
    assert "not a deformation tensor file" in out.stderr
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command, flag", [
    (["gen", "--kind", "random", "--eps", "inf"], "--eps"),
    (["normal-form", "--in", "absent.json", "--tol", "nan"], "--tol"),
], ids=["gen-eps-inf", "normal-form-tol-nan"])
def test_config_validation_rejects_non_finite(tmp_path, command, flag):
    out = run_cli_subprocess(*command, "--degree", "4", "--out", tmp_path / "r.json")
    assert out.returncode == 2
    errors = [line for line in out.stderr.splitlines() if "error:" in line]
    assert errors == [f"crsphere: error: {flag} must be positive and finite"]
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("size", ["x", "nan", "-1", "inf", "0"])
def test_slice_auto_size_rejected_by_argparse(tmp_path, size):
    # checked while parsing, before any file is read or basis is built
    out = run_cli_subprocess("slice", "--degree", "4", "--in", tmp_path / "absent.json",
                             "--generator", f"auto:{size}")
    assert out.returncode == 2
    errors = [line for line in out.stderr.splitlines() if "error:" in line]
    assert errors == ["crsphere slice: error: argument --generator: auto size must be "
                      f"positive and finite, got {size!r}"]
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("kind", ["random", "prefab-normal-form"])
def test_exit_code_gen_too_large_for_neighbourhood(tmp_path, kind):
    # a huge --eps is a valid config; the drawn tensor then has sup |phi| >= 1
    out = run_cli_subprocess("gen", "--kind", kind, "--degree", "6", "--eps", "1000",
                             "--out", tmp_path / "phi.json")
    assert_one_line_error(out, 3)
    assert "sup |phi|" in out.stderr
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
def test_exit_code_bad_deformation_file(tmp_path, edit, message):
    phi = tmp_path / "phi.json"
    run_cli("gen", "--kind", "random", "--degree", "4", "--seed", "0", "--out", phi)
    obj = json.loads(phi.read_text())
    edit(obj)
    phi.write_text(json.dumps(obj))  # json.dumps writes a NaN as the bare token NaN
    out = run_cli_subprocess("normal-form", "--degree", "4", "--in", phi,
                             "--out", tmp_path / "r.json")
    assert_one_line_error(out, EXIT_INPUT)
    assert message in out.stderr
    assert not (tmp_path / "r.json").exists()


def test_exit_code_unwritable_out(tmp_path):
    out = run_cli_subprocess("gen", "--kind", "random", "--degree", "4",
                             "--out", tmp_path / "no-such-dir" / "phi.json")
    assert_one_line_error(out, EXIT_INPUT)


@pytest.mark.parametrize("steps", [1, MAX_FLOW_STEPS + 1])
def test_config_validation_rejects_steps_out_of_range(steps, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--degree", "4", "--steps", str(steps)])
    assert exc.value.code == 2
    assert "--steps must be between 2 and" in capsys.readouterr().err


def test_verify_passes_and_writes_csv(tmp_path):
    out = tmp_path / "verify.csv"
    assert run_cli("verify", "--degree", "4", "--seed", "5", "--out", out) == 0
    rows = io.read_csv(out)
    assert all(row["status"] == "pass" for row in rows)
    assert len(rows) >= 12


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


def test_config_validation_rejects_bad_degree():
    with pytest.raises(SystemExit):
        main(["verify", "--degree", "3"])


def test_console_entry_point_runs():
    out = subprocess.run([sys.executable, "-m", "crsphere.cli", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    for name in ("gen", "normal-form", "verify", "scan", "slice"):
        assert name in out.stdout

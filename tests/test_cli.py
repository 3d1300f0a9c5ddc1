"""CLI contract: JSON on stdout, diagnostics on stderr, nonzero exit on error."""

import json
import subprocess
import sys

import numpy as np
import pytest

from aspec.cli import main
from aspec.linalg import write_matrix

from conftest import cdiag, cmat


@pytest.fixture
def files(tmp_path):
    def write(name, matrix):
        path = tmp_path / f"{name}.json"
        path.write_text(write_matrix(matrix))
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seminorm_member(files, capsys):
    a = files("a", cdiag(1, 0))
    x = files("x", cdiag(2, 3))
    code, out, _ = run_cli(capsys, "seminorm", "--a", a, "--x", x)
    assert code == 0
    doc = json.loads(out)
    assert doc["member"] is True
    assert doc["value"] == pytest.approx(2.0)


def test_seminorm_non_member(files, capsys):
    a = files("a", cdiag(1, 0))
    x = files("x", cmat([[0, 1], [0, 0]]))
    code, out, _ = run_cli(capsys, "seminorm", "--a", a, "--x", x)
    assert code == 0
    assert json.loads(out) == {"member": False, "value": None}


def test_adjoint(files, capsys):
    a = files("a", cdiag(1, 0))
    x = files("x", cmat([[2, 0], [5, 3]]))
    code, out, _ = run_cli(capsys, "adjoint", "--a", a, "--x", x)
    assert code == 0
    doc = json.loads(out)
    assert doc["adjoint"]["data"][0][0] == [2.0, 0.0]
    assert doc["adjoint"]["data"][1][1] == [0.0, 0.0]


def test_adjoint_non_member_fails(files, capsys):
    a = files("a", cdiag(1, 0))
    x = files("x", cmat([[0, 1], [0, 0]]))
    code, out, err = run_cli(capsys, "adjoint", "--a", a, "--x", x)
    assert code != 0
    assert out == ""
    assert "member" in err


def test_invert(files, capsys):
    a = files("a", cdiag(1, 0))
    x = files("x", cdiag(2, 0))
    code, out, _ = run_cli(capsys, "invert", "--a", a, "--x", x)
    doc = json.loads(out)
    assert code == 0 and doc["invertible"] is True
    assert doc["inverse"]["data"][0][0] == pytest.approx([0.5, 0.0])
    assert doc["inverse"]["data"][1][1] == pytest.approx([0.0, 0.0])
    code, out, _ = run_cli(capsys, "invert", "--a", a, "--x", x, "--invertible-form")
    assert json.loads(out)["inverse"]["data"][1][1] == pytest.approx([1.0, 0.0])


def test_invert_reports_failure_as_data(files, capsys):
    a = files("a", cdiag(1, 1, 0))
    x = files("x", cmat([[0, 1, 0], [0, 0, 0], [0, 0, 5]]))
    code, out, _ = run_cli(capsys, "invert", "--a", a, "--x", x)
    assert code == 0
    assert json.loads(out) == {"invertible": False, "inverse": None}


def test_spectrum(files, capsys):
    a = files("a", cdiag(1, 1, 0))
    x = files("x", cmat([[0, 1, 0], [0, 0, 0], [0, 0, 5]]))
    code, out, _ = run_cli(capsys, "spectrum", "--a", a, "--x", x)
    doc = json.loads(out)
    assert code == 0
    assert doc["points"] == [[0.0, 0.0]]
    assert doc["radius"] == 0.0
    assert doc["contains_zero"] is True


def test_radius_with_gelfand(files, capsys):
    a = files("a", cdiag(1, 0))
    x = files("x", cdiag(2, 3))
    code, out, _ = run_cli(capsys, "radius", "--a", a, "--x", x, "--gelfand", "4")
    doc = json.loads(out)
    assert code == 0
    assert doc["radius"] == pytest.approx(2.0)
    assert doc["gelfand"] == pytest.approx([2.0] * 4)


def test_numrange(files, capsys):
    a = files("a", np.eye(2, dtype=complex))
    x = files("x", cdiag(0, 1))
    code, out, _ = run_cli(capsys, "numrange", "--a", a, "--x", x, "--directions", "90")
    doc = json.loads(out)
    assert code == 0
    vertices = sorted(tuple(v) for v in doc["vertices"])
    assert len(vertices) == 2
    assert vertices[0] == pytest.approx([0.0, 0.0], abs=1e-9)
    assert vertices[1] == pytest.approx([1.0, 0.0], abs=1e-9)


def test_omega_classify(capsys):
    code, out, _ = run_cli(capsys, "omega", "classify", "--a", "odd=1;even=1", "--x", "odd=2;even=2")
    doc = json.loads(out)
    assert code == 0
    assert doc["verdict"] == "ContinuousInverse"
    assert doc["witness"] == {"odd": "1/2", "even": "1/2", "value_at_zero": "1/2"}


def test_omega_classify_bad_literal(capsys):
    code, out, err = run_cli(capsys, "omega", "classify", "--a", "odd=1", "--x", "odd=1;even=1")
    assert code != 0 and out == "" and err


def test_omega_demo(capsys):
    code, out, _ = run_cli(capsys, "omega", "demo-e009")
    doc = json.loads(out)
    assert code == 0
    assert doc["verdict"] == "Unbounded"
    assert doc["obstruction"] == "2*n"
    assert doc["obstruction_branch"] == "even"
    assert doc["a_well_supported"] is False


def test_proptest_smoke(capsys):
    code, out, _ = run_cli(capsys, "proptest", "--trials", "1", "--dims", "2", "--seed", "7")
    doc = json.loads(out)
    assert code == 0
    assert doc["passed"] is True
    assert len(doc["reports"]) >= 12
    assert {r["suite"] for r in doc["reports"]} >= {"seminorm_oracle_agreement", "spectrum_compression"}


@pytest.mark.parametrize("argv", [["--dims", "0..2"], ["--dims", "3..2"], ["--seed", "-1"]])
def test_proptest_rejects_bad_dims_and_seed(capsys, argv):
    code, out, err = run_cli(capsys, "proptest", "--trials", "1", *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: " + argv[0][2:] + " must")


def test_weight_eigenvalue_past_float_max_is_an_error(files, capsys):
    a = files("a", cmat(1e308 * np.ones((2, 2))))
    x = files("x", cdiag(1, 1))
    code, out, err = run_cli(capsys, "seminorm", "--a", a, "--x", x)
    assert code == 1 and out == ""
    assert "eigenvalue overflow" in err


def test_tol_override_changes_policy(files, capsys):
    # a weight that is PSD only up to 1e-6 noise: rejected at defaults,
    # accepted when --tol loosens the whole policy
    noisy = cmat([[1, 0], [0, -1e-6]])
    a = files("a", noisy)
    x = files("x", cdiag(1, 1))
    code, _, err = run_cli(capsys, "seminorm", "--a", a, "--x", x)
    assert code != 0 and "eigenvalue" in err
    code, out, _ = run_cli(capsys, "seminorm", "--a", a, "--x", x, "--tol", "1e-5")
    assert code == 0
    assert json.loads(out)["member"] is True


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_tol_is_an_error(files, capsys, value):
    # a non-member pair: an infinite tolerance would otherwise call it a member with seminorm 0
    a = files("a", cdiag(1, 0))
    x = files("x", cmat([[0, 1], [0, 0]]))
    code, out, err = run_cli(capsys, "seminorm", "--a", a, "--x", x, "--tol", value)
    assert code == 1 and out == ""
    assert "must be finite and nonnegative" in err


def test_missing_file_is_an_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "seminorm", "--a", str(tmp_path / "nope.json"), "--x", str(tmp_path / "nope.json"))
    assert code != 0 and out == "" and err


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "aspec.cli", "omega", "demo-e009"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "Unbounded"


def _loaded_after(code: str, modules) -> list[str]:
    """Which of ``modules`` a fresh interpreter holds after running ``code``."""
    probe = f"import json, sys\n{code}\nprint(json.dumps([m for m in {tuple(modules)!r} if m in sys.modules]))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])  # the last line: what main printed comes first


def test_cli_import_loads_neither_scipy_nor_the_property_suite(tmp_path):
    unused = ("numpy", "scipy", "aspec.omega", "aspec.spectrum", "aspec.invert", "aspec.douglas", "aspec.harness")
    assert _loaded_after("import aspec.cli", unused) == []
    # the exact sequence-space algebra runs without numpy
    assert _loaded_after("from aspec.cli import main; assert main(['omega', 'demo-e009']) == 0", ["numpy"]) == []
    classify = "from aspec.cli import main; assert main(['omega', 'classify', '--a', 'odd=1/n;even=1', '--x', 'odd=n;even=2']) == 0"
    assert _loaded_after(classify, ["numpy"]) == []
    # a matrix subcommand loads linalg, psd and seminorm, and nothing it does not call
    pair = json.dumps({"rows": 2, "cols": 2, "data": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]})
    (tmp_path / "m.json").write_text(pair)
    path = str(tmp_path / "m.json")
    seminorm = f"from aspec.cli import main; assert main(['seminorm', '--a', {path!r}, '--x', {path!r}]) == 0"
    assert _loaded_after(seminorm, ("aspec.seminorm", "aspec.spectrum", "aspec.invert", "aspec.omega", "aspec.douglas")) == [
        "aspec.seminorm"
    ]

"""Command-line surface: frozen text output, JSON payloads, exit codes."""

import json
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import whideal
from whideal import cli
from whideal.cli import main

WORKED = "x^2 + y^2 + z^2 + u^2*w^2 + u^4 + w^5"


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- analyze -------------------------------------------------------------------


def test_analyze_text_report_frozen(capsys):
    code, out, _ = run_main(capsys, ["analyze", WORKED, "--witness", "w^5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[:13] == [
        "singularity report",
        "  variables: x, y, z, u, w",
        "  minimal exponent: 2",
        "  p level: 1",
        "  minimizing facets r: 2",
        "  diagonal face dim s: 3",
        "  simplicial: yes",
        "  weight nilpotency bound: 3",
        "  hodge ideal trivial: p=0:yes p=1:yes p=2:no p=3:no",
        "  w1 ideal trivial: p=0:yes p=1:no p=2:no p=3:no",
        "  type range: (1,1), (1,2)",
        "  exact type: undetermined",
        "  compact facets:",
    ]
    assert lines[13] == (
        "    B = (1/2, 1/2, 1/2, 1/4, 1/4)  incident: "
        "(0,0,0,2,2) (0,0,0,4,0) (0,0,2,0,0) (0,2,0,0,0) (2,0,0,0,0)"
    )
    assert lines[14] == (
        "    B = (1/2, 1/2, 1/2, 3/10, 1/5)  incident: "
        "(0,0,0,0,5) (0,0,0,2,2) (0,0,2,0,0) (0,2,0,0,0) (2,0,0,0,0)"
    )
    assert lines[15] == "  notes:"
    assert lines[-2] == (
        "    - I_1^(W_1) equals the maximal ideal of the singular point "
        "(minimal exponent 2)"
    )
    assert lines[-1] == (
        "    - witness w^5 outside J(f): (t*dt)^2 dt^1 delta outside V^(>1) "
        "pattern, so the graded weight degree is >= 3; supports type (1,1)"
    )


def test_analyze_json_matches_text_values(capsys):
    code, out, _ = run_main(capsys, ["analyze", WORKED, "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "whideal-report/1"
    assert data["minimal_exponent"] == "2/1"
    assert data["p_level"] == 1
    assert data["r"] == 2 and data["s"] == 3
    assert data["simplicial"] is True
    assert data["nilpotency_upper"] == 3
    assert data["type_range"] == [[1, 1], [1, 2]]
    assert data["exact_type"] is None
    assert data["hodge_triviality"] == [[0, True], [1, True], [2, False], [3, False]]
    covs = [facet["covector"] for facet in data["facets"]]
    assert covs[0] == ["1/2", "1/2", "1/2", "1/4", "1/4"]
    assert covs[1] == ["1/2", "1/2", "1/2", "3/10", "1/5"]


def test_analyze_witness_without_integer_level_uses_p_zero(capsys):
    code, out, _ = run_main(capsys, ["analyze", "x^2 + y^3", "--witness", "y"])
    assert code == 0
    assert "witness y outside J(f): (t*dt)^1 dt^0 delta" in out
    assert "supports type" not in out


def test_analyze_witness_must_be_monic_monomial(capsys):
    code, _, err = run_main(capsys, ["analyze", WORKED, "--witness", "x + y"])
    assert code == 2 and "monic monomial" in err
    code, _, err = run_main(capsys, ["analyze", WORKED, "--witness", "2*x"])
    assert code == 2 and "monic monomial" in err


def test_analyze_vars_and_file(capsys, tmp_path):
    source = tmp_path / "poly.txt"
    source.write_text("y^2 + x^3\n", encoding="utf-8")
    code, out, _ = run_main(capsys, ["analyze", "--file", str(source), "--vars", "x,y"])
    assert code == 0
    assert "  variables: x, y" in out.splitlines()
    assert "  minimal exponent: 5/6" in out.splitlines()


def test_analyze_unreadable_file(capsys, tmp_path):
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes(b"x^2 + y^3 \xff\n")
    for path in (tmp_path / "absent.txt", tmp_path, not_utf8):
        code, out, err = run_main(capsys, ["analyze", "--file", str(path)])
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read polynomial file {str(path)!r}: ")
        assert err.count("\n") == 1


def test_analyze_missing_input(capsys):
    for argv in (["analyze"], ["analyze", "--json", "--vars", "x,y"]):
        assert run_main(capsys, argv) == (2, "", "error: provide polynomial text or --file\n")


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integer literals of any length",
)
def test_analyze_overlong_literal_is_a_parse_error(capsys):
    code, out, err = run_main(capsys, ["analyze", "x^" + "9" * 5000 + " + y^2"])
    assert (code, out) == (1, "")
    assert err == "parse error: integer literal of 5000 digits is too long (at position 2)\n"


def test_analyze_parse_error_exit(capsys):
    code, _, err = run_main(capsys, ["analyze", "x^-1"])
    assert code == 1
    assert "parse error" in err and "position" in err


def test_analyze_unexpected_character_exit(capsys):
    code, out, err = run_main(capsys, ["analyze", "x $ y"])
    assert (code, out) == (1, "")
    assert err == "parse error: unexpected character '$' (at position 2)\n"


def test_analyze_validation_exit(capsys):
    code, _, err = run_main(capsys, ["analyze", "x*y"])
    assert code == 2
    assert "not convenient" in err


def test_analyze_nonconvenient_flag_proceeds(capsys):
    code, out, _ = run_main(capsys, ["analyze", "x^2*y + y^2", "--allow-nonconvenient"])
    assert code == 0
    assert "  minimal exponent: 3/4" in out.splitlines()
    assert "not convenient" in out


def test_analyze_size_guard_exit_and_lift(capsys):
    f = " + ".join(f"x{i}^2" for i in range(1, 10))
    code, _, err = run_main(capsys, ["analyze", f, "--witness", "x1"])
    assert code == 3
    assert "size guard" in err
    code, out, _ = run_main(
        capsys, ["analyze", f, "--witness", "x1", "--groebner-limit", "9"]
    )
    assert code == 0
    assert "witness x1 lies in J(f): no obstruction" in out


def test_groebner_limit_never_lowers_the_guard(capsys):
    # 8 generator terms: within the default term limit, above N = 5
    f = "x^4 + y^4 + z^4 + u^4 + x*y*z*u"
    code, out, _ = run_main(capsys, ["analyze", f, "--witness", "x*y"])
    assert code == 0
    lifted = run_main(capsys, ["analyze", f, "--witness", "x*y", "--groebner-limit", "5"])
    assert lifted == (0, out, "")


def test_unknown_subcommand_exits_two(capsys):
    assert run_main(capsys, ["nope"])[0] == 2


# -- snc -----------------------------------------------------------------------


def test_snc_text_outputs(capsys):
    assert run_main(capsys, ["snc", "--n", "2", "--r", "2", "--p", "1"])[1] == "(x1, x2)\n"
    code, out, _ = run_main(capsys, ["snc", "--n", "2", "--r", "2", "--p", "1", "--l", "1"])
    assert code == 0 and out == "(x1^2, x2^2)\n"
    out = run_main(capsys, ["snc", "--n", "3", "--r", "3", "--p", "1"])[1]
    assert out == "(x1x2, x1x3, x2x3)\n"


def test_snc_verify_lines(capsys):
    code, out, _ = run_main(
        capsys, ["snc", "--n", "3", "--r", "2", "--p", "2", "--verify"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "all checks passed"
    assert any(line.startswith("PASS chain") for line in lines)
    assert any(line.startswith("PASS w0-principal") for line in lines)


def test_snc_json_payload(capsys):
    code, out, _ = run_main(
        capsys, ["snc", "--n", "2", "--r", "2", "--p", "1", "--l", "1", "--json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "whideal-snc/1"
    assert data["n"] == 2 and data["r"] == 2 and data["p"] == 1 and data["l"] == 1
    assert data["generators"] == [[2, 0], [0, 2]]
    assert data["rendered"] == "(x1^2, x2^2)"


def test_snc_verify_json_payload(capsys):
    code, out, _ = run_main(capsys, ["snc", "--n", "3", "--r", "2", "--p", "2", "--verify", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["generators"] == [[2, 0, 0], [1, 1, 0], [0, 2, 0]]
    expected = whideal.verify_snc_theorems(whideal.SncModel(3, 2), 2).to_json_dict()
    assert payload["verification"] == expected


def test_snc_validation_exit(capsys):
    code, _, err = run_main(capsys, ["snc", "--n", "2", "--r", "3", "--p", "0"])
    assert code == 2 and "error:" in err


# -- bounds ----------------------------------------------------------------------


def test_bounds_text(capsys):
    code, out, _ = run_main(capsys, ["bounds", "--n", "2", "--d", "3", "--p", "0"])
    assert code == 0
    assert out.splitlines() == [
        "points with nontrivial W_2 piece <= 1",
        "singular points <= 3",
    ]
    out = run_main(capsys, ["bounds", "--n", "2", "--d", "3", "--p", "0", "--l", "2"])[1]
    assert out.splitlines()[-1] == "surjectivity threshold (l=2): k >= 0"


def test_bounds_json(capsys):
    code, out, _ = run_main(
        capsys, ["bounds", "--n", "3", "--d", "4", "--p", "1", "--l", "1", "--json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data == {
        "schema": "whideal-bounds/1",
        "n": 3,
        "d": 4,
        "p": 1,
        "bound_w2_points": 35,
        "bound_singular_points": 56,
        "l": 1,
        "surjectivity_threshold": 5,
    }


# -- dims ------------------------------------------------------------------------


def write_table(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(
        json.dumps({"n": 5, "middle": [[1, 1, 1], [0, 2, 2]], "top": []}),
        encoding="utf-8",
    )
    return str(path)


def test_dims_text(capsys, tmp_path):
    path = write_table(tmp_path)
    code, out, _ = run_main(
        capsys, ["dims", "--table", path, "--l", "3", "--p", "1", "--pushforward", "5", "1"]
    )
    assert code == 0
    assert out.splitlines() == [
        "dim Gr_F^(n-p) at l=3, p=1: 1",
        "dim F_p pushforward (n=5, p=1): 13",
    ]


def test_dims_json(capsys, tmp_path):
    path = write_table(tmp_path)
    code, out, _ = run_main(
        capsys,
        ["dims", "--table", path, "--l", "3", "--p", "1", "--pushforward", "5", "1", "--json"],
    )
    assert code == 0
    assert json.loads(out) == {
        "schema": "whideal-dims/1",
        "n": 5,
        "l": 3,
        "p": 1,
        "graded_piece_dim": 1,
        "pushforward_dim": 13,
    }


def test_dims_unreadable_table(capsys, tmp_path):
    missing = str(tmp_path / "absent.json")
    code, _, err = run_main(capsys, ["dims", "--table", missing, "--l", "3", "--p", "1"])
    assert code == 2 and "cannot read table" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, _ = run_main(capsys, ["dims", "--table", str(bad), "--l", "3", "--p", "1"])
    assert code == 2
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"n": 2, "name": "\xff"}')
    code, out, err = run_main(capsys, ["dims", "--table", str(not_utf8), "--l", "3", "--p", "1"])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read table {str(not_utf8)!r}: ")
    assert err.count("\n") == 1


def test_dims_pushforward_range_names_pushforward(capsys, tmp_path):
    # the n = 5 table has pieces for p <= 3; --p 1 is valid, P is not
    path = write_table(tmp_path)
    for pair, message in [
        (("3", "4"), "need --pushforward P <= n-2, got P=4, n=5"),
        (("3", "-1"), "need --pushforward P >= 0, got -1"),
        (("0", "1"), "need --pushforward N >= 1, got 0"),
    ]:
        for extra in ([], ["--json"]):
            code, out, err = run_main(
                capsys, ["dims", "--table", path, "--l", "3", "--p", "1", "--pushforward", *pair, *extra]
            )
            assert (code, out, err) == (2, "", f"error: {message}\n")
    code, out, _ = run_main(
        capsys, ["dims", "--table", path, "--l", "3", "--p", "1", "--pushforward", "3", "3"]
    )
    assert code == 0 and out.splitlines()[1] == "dim F_p pushforward (n=3, p=3): 50"


def test_dims_malformed_row_key_exits_two(capsys, tmp_path):
    # the key [1] is a list: checked as a key type, never hashed
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"n": 4, "middle": [[[1], 0, 1]]}), encoding="utf-8")
    code, out, err = run_main(capsys, ["dims", "--table", str(path), "--l", "3", "--p", "1"])
    assert (code, out) == (2, "")
    assert err == "error: middle entry key ([1], 0) must be a pair of ints\n"


# -- verify ------------------------------------------------------------------------


def test_verify_sweep(capsys):
    code, out, _ = run_main(capsys, ["verify", "--n", "3", "--p-max", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "all checks passed"
    assert any("n=3 r=1" in line for line in lines)
    assert any("n=3 r=3" in line for line in lines)


def test_verify_needs_a_model(capsys):
    for argv in (["--n", "0"], ["--n", "-2", "--json"], ["--n", "0", "--p-max", "-1"]):
        code, out, err = run_main(capsys, ["verify", *argv])
        assert code == 2 and out == ""
        assert err == f"error: need n >= 1, got {argv[1]}\n"


def test_verify_json_single_r(capsys):
    code, out, _ = run_main(capsys, ["verify", "--n", "4", "--r", "2", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "whideal-verify/1"
    assert data["all_passed"] is True
    assert len(data["runs"]) == 1
    assert data["runs"][0]["r"] == 2


# -- styling ------------------------------------------------------------------------


def test_color_gating(monkeypatch):
    class FakeTty:
        def isatty(self):
            return True

    monkeypatch.setattr(cli.sys, "stdout", FakeTty())
    monkeypatch.delenv("WHIDEAL_NO_COLOR", raising=False)
    assert cli._style("ok", "32") == "\x1b[32mok\x1b[0m"
    monkeypatch.setenv("WHIDEAL_NO_COLOR", "1")
    assert cli._style("ok", "32") == "ok"


def test_piped_output_is_plain(capsys):
    out = run_main(capsys, ["snc", "--n", "2", "--r", "1", "--p", "0", "--verify"])[1]
    assert "\x1b[" not in out


# -- process-level checks -------------------------------------------------------------


def child_env():
    """The environment with PYTHONPATH at the whideal these tests imported."""
    return dict(os.environ, PYTHONPATH=str(Path(whideal.__file__).resolve().parent.parent))


def run_process(argv):
    return subprocess.run(
        [sys.executable, "-m", "whideal", *argv],
        capture_output=True,
        timeout=60,
        env=child_env(),
    )


def test_cli_imports_no_dataclasses():
    # -S keeps site-packages .pth files, which may import anything, out of it
    probe = "import whideal.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, timeout=60, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "[]"


def test_module_entry_point_deterministic():
    first = run_process(["analyze", WORKED, "--witness", "w^5", "--json"])
    second = run_process(["analyze", WORKED, "--witness", "w^5", "--json"])
    assert first.returncode == 0
    assert first.stdout == second.stdout
    data = json.loads(first.stdout)
    assert data["minimal_exponent"] == "2/1"


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def write_console_script(directory, spec):
    """Write the launcher an installer generates for the entry point `spec`."""
    module, _, func = spec.partition(":")
    script = directory / "whideal"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({func}())\n"
    )
    script.chmod(0o755)
    return script


def test_console_script_installed(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"]["whideal"]
    script = write_console_script(tmp_path, spec)

    def run_script(argv):
        return subprocess.run(
            [str(script), *argv], capture_output=True, timeout=60, cwd=tmp_path, env=child_env()
        )

    proc = run_script(["bounds", "--n", "2", "--d", "3", "--p", "0"])
    assert proc.returncode == 0
    assert proc.stdout.decode().splitlines()[0] == "points with nontrivial W_2 piece <= 1"
    assert run_script(["analyze", "x^-1"]).returncode == 1
    assert run_script(["analyze", "x*y"]).returncode == 2


SCRIPTS_WHIDEAL = Path(sysconfig.get_path("scripts")) / "whideal"
INSTALLED_WHIDEAL = SCRIPTS_WHIDEAL if SCRIPTS_WHIDEAL.exists() else shutil.which("whideal")


@pytest.mark.skipif(
    INSTALLED_WHIDEAL is None,
    reason=f"no installed whideal script: {SCRIPTS_WHIDEAL} does not exist and PATH has none",
)
def test_installed_console_script_runs():
    proc = subprocess.run(
        [str(INSTALLED_WHIDEAL), "bounds", "--n", "2", "--d", "3", "--p", "0"],
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.decode().splitlines()[0] == "points with nontrivial W_2 piece <= 1"


def test_process_exit_codes():
    assert run_process(["analyze", "x^-1"]).returncode == 1
    assert run_process(["analyze", "x*y"]).returncode == 2
    nine = " + ".join(f"x{i}^2" for i in range(1, 10))
    assert run_process(["analyze", nine, "--witness", "x1"]).returncode == 3

"""Byte-identity gate for the command line: one digest per `main()` call.

`golden_cli.json` holds, for each argv of `cases()`, the sha256 of
`json.dumps([argv, exit code, stdout, stderr])` from an in-process
`whideal.cli.main(argv)`, run in a directory that holds the files of
`FILES`.  The calls cover every subcommand and every exit code: `snc` for
n <= 6, r <= n, p <= 3 with no `--l` and every `--l` in 0..n+2 (and
`--json` with no `--l` and `--l 1`); `verify` for n <= 6 and `--p-max`
0..3; grids of `bounds` and `dims`, valid and not; and `analyze` on the
worked example, A3, a non-convenient input, the size guard and one input
per parse error message.  A change that keeps
every output must keep every digest.  Regenerate only for a change that
means to alter output, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from whideal.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

WORKED = "x^2 + y^2 + z^2 + u^2*w^2 + u^4 + w^5"
A3 = "x^2 + 2*x*y + y^2 + x^3 + y^3"
GUARDED = " + ".join(f"x{i}^2" for i in range(1, 10))

# One input per ParseError message, at a token and at the end of input.
PARSE_ERRORS = [
    "x $ y", "x^2 + é", "", "   ", "x + *y", "x +", "-", "x 2", "x/2", "x^1/2",
    "2*3", "x*", "1/x", "1/", "x^-1", "x^", "1/0*x", "3/00 y",
]

FILES = {
    "worked.txt": WORKED + "\n",
    "cusp.txt": "y^2 + x^3\n",
    "bad.txt": "x^2 + + y\n",
    "latin1.txt": b"x^2 + y^3 \xff\n",
    "t5.json": {"n": 5, "middle": [[1, 1, 1], [0, 2, 2]], "top": []},
    "t4.json": {"n": 4, "middle": [[0, 2, 1], [1, 1, 3], [2, 0, 1], [0, 1, 2], [1, 0, 2]], "top": [[2, 2, 1]]},
    "t4_negative.json": {"n": 4, "middle": [[1, 1, 1]], "top": [[2, 2, 2]]},
    "t2.json": {"n": 2, "middle": [[0, 0, 1]], "top": [[0, 0, 1]]},
    "list.json": [1, 2],
    "no_n.json": {"middle": []},
    "n_str.json": {"n": "4"},
    "n_bool.json": {"n": True},
    "n_small.json": {"n": 1},
    "rows_dict.json": {"n": 4, "middle": {}},
    "row_short.json": {"n": 4, "middle": [[1, 1]]},
    "row_key.json": {"n": 4, "middle": [[[1], 0, 1]]},
    "row_dup.json": {"n": 4, "top": [[1, 1, 1], [1, 1, 2]]},
    "row_neg.json": {"n": 4, "middle": [[1, 1, -1]]},
    "row_range.json": {"n": 4, "middle": [[3, 0, 1]]},
    "not_json.json": "{not json",
    "latin1.json": b'{"n": 2, "name": "\xff"}',
}
TABLES = ("t5.json", "t4.json", "t4_negative.json", "t2.json")
BAD_TABLES = [name for name in FILES if name.endswith(".json") and name not in TABLES]


def cases():
    """Every argv of the gate, in a fixed order."""
    out = []
    for n in range(1, 7):
        for r in range(1, n + 1):
            for p in range(4):
                argv = ["snc", "--n", str(n), "--r", str(r), "--p", str(p)]
                out += [argv, *(argv + ["--l", str(l)] for l in range(n + 3))]
                out += [argv + ["--json"], argv + ["--l", "1", "--json"]]
    for n in range(1, 5):
        for p in range(4):
            out.append(["snc", "--n", str(n), "--r", str(n), "--p", str(p), "--verify"])
        out.append(["snc", "--n", str(n), "--r", "1", "--p", "2", "--l", "1", "--verify", "--json"])
    for bad in (("0", "1", "0"), ("2", "0", "0"), ("2", "3", "0"), ("2", "2", "-1")):
        out.append(["snc", "--n", bad[0], "--r", bad[1], "--p", bad[2]])
    out.append(["snc", "--n", "2", "--r", "2", "--p", "1", "--l", "-1", "--json"])
    for n in range(-1, 7):
        for p_max in range(-1, 4):
            out.append(["verify", "--n", str(n), "--p-max", str(p_max)])
        if n >= 1:
            out += [["verify", "--n", str(n), "--r", str(r), "--json"] for r in range(n + 2)]
    for n in range(0, 5):
        for d in range(0, 5):
            for p in range(-1, 4):
                out.append(["bounds", "--n", str(n), "--d", str(d), "--p", str(p)])
            for l in range(-1, 4):
                out.append(["bounds", "--n", str(n), "--d", str(d), "--p", "1", "--l", str(l), "--json"])
    for table in TABLES:
        for l in range(1, 5):
            out += [["dims", "--table", table, "--l", str(l), "--p", str(p)] for p in range(-1, 4)]
            out.append(["dims", "--table", table, "--l", str(l), "--p", "0", "--json"])
    for table in [*BAD_TABLES, "absent.json"]:
        out.append(["dims", "--table", table, "--l", "3", "--p", "1"])
    for table in ("t5.json", "t4.json"):
        for push in (("5", "1"), ("3", "3"), ("3", "4"), ("3", "-1"), ("0", "1"), ("2", "0")):
            out.append(["dims", "--table", table, "--l", "3", "--p", "1", "--pushforward", *push, "--json"])
    for extra in ([], ["--json"]):
        out += [
            ["analyze", WORKED, *extra],
            ["analyze", WORKED, "--witness", "w^5", *extra],
            ["analyze", WORKED, "--witness", "x*y", *extra],
            ["analyze", A3, *extra],
            ["analyze", "x^2 + y^3", "--witness", "y", *extra],
            ["analyze", "x^2*y + y^2", *extra],
            ["analyze", "x^2*y + y^2", "--allow-nonconvenient", *extra],
            ["analyze", "--file", "cusp.txt", "--vars", "x,y", *extra],
            ["analyze", "x^4 + y^4 + z^4 + u^4 + x*y*z*u", "--witness", "x*y", *extra],
        ]
    out += [
        ["analyze"],
        ["analyze", "--json"],
        ["analyze", "x*y"],
        ["analyze", "x", "--vars", "x,x"],
        ["analyze", "y^2 + x^3", "--vars", "x,y,z"],
        ["analyze", "x + t", "--vars", "x,y"],
        ["analyze", WORKED, "--witness", "x + y"],
        ["analyze", WORKED, "--witness", "2*x"],
        ["analyze", WORKED, "--witness", "t"],
        ["analyze", WORKED, "--witness", "x^"],
        ["analyze", "--file", "worked.txt", "--witness", "u*w", "--json"],
        ["analyze", "--file", "bad.txt"],
        ["analyze", "--file", "latin1.txt"],
        ["analyze", "--file", "absent.txt"],
        ["analyze", GUARDED, "--witness", "x1"],
        ["analyze", GUARDED, "--witness", "x1", "--groebner-limit", "-3"],
        ["analyze", GUARDED, "--witness", "x1", "--groebner-limit", "9"],
    ]
    out += [["analyze", text] for text in PARSE_ERRORS]
    return out


def write_files(directory) -> None:
    for name, content in FILES.items():
        path = Path(directory, name)
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif isinstance(content, str):
            path.write_text(content, encoding="utf-8")
        else:
            path.write_text(json.dumps(content), encoding="utf-8")


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    record = json.dumps([argv, code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


def test_cli_output_matches_the_golden_digests(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]
    assert [argv for argv, _ in golden] == cases()
    write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    changed = [argv for argv, expected in golden if digest(argv) != expected]
    assert not changed, f"{len(changed)} calls changed output, first: {changed[:5]}"


def generate() -> None:
    with tempfile.TemporaryDirectory() as directory:
        write_files(directory)
        here = os.getcwd()
        os.chdir(directory)
        try:
            rows = [[argv, digest(argv)] for argv in cases()]
        finally:
            os.chdir(here)
    text = ",\n".join(json.dumps(row, ensure_ascii=False) for row in rows)
    GOLDEN.write_text('{"cases": [\n' + text + "\n]}\n", encoding="utf-8")
    print(f"wrote {len(rows)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    generate()

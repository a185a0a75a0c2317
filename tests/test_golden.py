"""Golden CSV bytes of every deterministic command at small sizes.

Each case runs one CLI call and compares the output with the file under
``tests/golden/`` byte for byte, so a refactor that moves any digit of a
deterministic CSV fails here.  The goldens were written by the same calls;
after an intended change of output, rewrite them with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md which values moved and why.  Dense factorizations and
libm calls can round differently on another numpy/BLAS build, so a mismatch
reports the largest relative change of a numeric cell to tell last-digit
rounding apart from a real change.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from estlab.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "table1": ["table1", "--a", "1.3", "--c", "0.07", "--n", "300", "--gamma", "0.02"],
    "fig2": ["figure", "fig2", "--x-points", "7", "--r-points", "9"],
    "fig345": ["figure", "fig345", "--alpha-points", "21"],
    "fig6": ["figure", "fig6", "--n", "40", "--c-over-a", "0.3", "--phi-points", "12"],
    "fig7": ["figure", "fig7", "--scheme", "periodic", "--n", "300", "--gamma", "0.05",
             "--eta-points", "6"],
    "delta-i": ["delta-i", "--a", "1", "--c", "0.05", "--n", "1000"],
    "fisher-solvable": ["fisher", "--model", "solvable", "--a", "0.8", "--c", "0.05",
                        "--n", "50"],
    "fisher-white": ["fisher", "--model", "white", "--a", "1.5", "--c", "0.25", "--n", "40"],
    "fisher-exponential": ["fisher", "--model", "exponential", "--a", "1", "--c", "0.05",
                           "--n", "60", "--eta", "3.7"],
}


def _run(argv, path: Path) -> bytes:
    with contextlib.redirect_stderr(io.StringIO()):
        assert main([*argv, "-o", str(path)]) == 0
    return path.read_bytes()


def _largest_relative_change(got: bytes, want: bytes) -> float:
    worst = 0.0
    for a, b in zip(got.decode().split("\n"), want.decode().split("\n")):
        for x, y in zip(a.split(","), b.split(",")):
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                continue
            if fx != fy:
                worst = max(worst, abs(fx - fy) / max(abs(fx), abs(fy)))
    return worst


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes_match_golden(name, tmp_path):
    got = _run(CASES[name], tmp_path / f"{name}.csv")
    want = (GOLDEN / f"{name}.csv").read_bytes()
    assert got == want, (
        f"{name}: CSV bytes differ from tests/golden/{name}.csv; largest relative "
        f"change of a numeric cell {_largest_relative_change(got, want):.3g}"
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_config_file_gives_the_golden_bytes(name, tmp_path):
    # Every flag from a key=value file, required ones included, spliced in
    # after the positionals ("figure fig7" as well as "table1").
    argv = CASES[name]
    head = next(i for i, token in enumerate(argv) if token.startswith("--"))
    flags = argv[head:]
    pairs = zip(flags[::2], flags[1::2])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key.removeprefix('--')}={value}\n" for key, value in pairs))
    got = _run([*argv[:head], "--config", str(cfg)], tmp_path / f"{name}.csv")
    assert got == (GOLDEN / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        _run(argv, GOLDEN / f"{name}.csv")
        print(f"wrote {GOLDEN / name}.csv", file=sys.stderr)

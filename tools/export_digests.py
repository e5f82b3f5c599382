"""Print the sha256 of every preset export, then the calculus reference outputs.

First prints one ``#`` line naming the ``np.longdouble`` format, which the
linear propagator keeps its powers in.  Then writes all 15 presets (csv,
json and svg) and fig2-fig5 at stride 1 with 51 alpha levels (10001 rows x
105 columns each) into a temporary directory, and prints one ``sha256
filename`` line per file, sorted by name, as
``sha256sum`` does.  Then it runs the fixed ``CALCULUS`` list of ``rfa
eval``/``derive``/``integrate`` commands in process and prints each
command with its exit code, stdout and stderr, and last the ``float.hex``
parts of one ``solve_linear_mapping_ode`` result.  Every CSV is read back
with ``read_csv`` and must give the rows it was written from bit for bit,
or the script exits with code 1.  ``rfa`` is imported from
``ROOT/src``, by default the checkout this script sits in, so one command
compares the bytes and digits of two checkouts:

    diff <(python3 tools/export_digests.py /path/to/other/checkout) \\
         <(python3 tools/export_digests.py)

``tests/golden/export_digests.txt`` holds this output, and
``tests/test_golden.py`` checks it in process.  A change that moves an
output on purpose rewrites the file with

    python3 tools/export_digests.py > tests/golden/export_digests.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

FULL_FIGS = ("fig2", "fig3", "fig4", "fig5")
FULL_ALPHAS = [i / 50 for i in range(51)]

BASIS = ["--basis", "tri(-0.5;0.25;1.1)"]
POLY = ["--bind", "c0=1 - 1*A", "--bind", "c1=0.5 + 2*A", "--bind", "c2=-1 + 0.25*A"]
# every function, operator and scheme, multi-vertex and closed paths, and
# commands that fail with exit 3
CALCULUS = [
    ["eval", "(1+2*A) * (2+3*A)"],
    ["eval", "psi_mul(1+2*A, 2+3*A)"],
    ["eval", "psi_mul(1+2*A, 2+3*A)", *BASIS],
    # a + 1.0*(b - a) misses b here, so the 1-level must be the stored one
    ["eval", "psi_mul(1+2*A, 2+3*A)", "--basis", "tri(-0.4;1.175;1.33)"],
    ["eval", "psi_mul(1+2*A, 2+3*A)", "--basis", "trap(-0.4;1.175;1.175;1.33)"],
    ["eval", "(3 - 4*A) / (1 + 2*A)"],
    ["eval", "exp(1 + 2*A)"],
    ["eval", "log(3 - 4*A)"],
    ["eval", "sqrt(-4)"],
    ["eval", "conj(2 + 5*A) * (2 + 5*A)"],
    ["eval", "norm(3 + 4*A)"],
    ["eval", "polar(-1 - A)"],
    ["eval", "(1 + A)^7 - (1 + A)^-2"],
    ["eval", "z^3 / w", "--bind", "z=0.5 - 0.25*A", "--bind", "w=2 + 1*A"],
    ["eval", "1/0"],
    ["derive", "exp(z^2 + z)", "--at", "0.5 + 0.25*A"],
    ["derive", "log(z) * sqrt(z)", "--at", "2 - 1*A"],
    ["derive", "psi_mul(z, z)", "--at", "1 + 1*A", *BASIS],
    ["derive", "c2*z^2 + c1*z + c0", "--at", "-0.3 + 0.8*A", "--step", "1e-4", *POLY],
    ["integrate", "z^2", "--path", "0, 1+1*A", "--samples", "10000"],
    ["integrate", "z^2", "--path", "0, 1+1*A", "--samples", "10000", "--scheme", "simpson"],
    ["integrate", "exp(z)", "--path", "0, 1, 1+1*A"],
    ["integrate", "exp(z)", "--path", "0, 0+1*A, 1+1*A", "--samples", "3001", "--scheme", "simpson"],
    ["integrate", "1/z", "--path", "1, 0+1*A, -1, 0-1*A, 1", "--samples", "8001"],
    ["integrate", "1/z", "--path", "1, 0+1*A, -1, 0-1*A, 1", "--samples", "8001", "--scheme", "simpson"],
    ["integrate", "k*exp(c*z)", "--path", "-1+0.5*A, 0.7-0.2*A, 1.2+1*A",
     "--bind", "k=1.2 - 0.4*A", "--bind", "c=0.8 + 0.3*A"],
    ["integrate", "c2*z^2 + c1*z + c0", "--path", "-1.5, 0.4+1*A, 1-0.6*A, 1.5+0.9*A",
     "--scheme", "simpson", *POLY],
    ["integrate", "log(z)", "--path", "1, 2+1*A", "--samples", "101"],
    ["integrate", "sqrt(z) * conj(z)", "--path", "1+1*A, -1+1*A, -1-1*A", "--samples", "2"],
    ["integrate", "norm(z)", "--path", "0, 3+4*A", "--samples", "17", "--scheme", "simpson"],
    ["integrate", "polar(z)", "--path", "1, 0+1*A", "--samples", "33"],
    ["integrate", "psi_mul(z, z)", "--path", "0, 1+1*A, 2", "--samples", "1001", "--scheme", "simpson", *BASIS],
    ["integrate", "z / (z - (0.5 + 0.5*A))", "--path", "0, 1, 1+1*A, 0+1*A, 0", "--samples", "4001"],
    ["integrate", "1", "--path", "1e308, -7e307, 1e308", "--samples", "101"],
    ["integrate", "1/z", "--path=-1, 1", "--samples", "3"],
    ["integrate", "z^2", "--path", "1e200, 1e200+1e200*A", "--samples", "11"],
    ["integrate", "z*z", "--path", "1e200, 1e200+1e200*A", "--samples", "11", "--scheme", "simpson"],
    # nodes and branches of the array evaluation no line above reaches
    ["integrate", "z^-3", "--path", "1, 0+1*A, -1, 0-1*A, 1", "--samples", "4001"],
    ["integrate", "z^0.5", "--path", "1, 2+1*A", "--samples", "1001"],
    ["integrate", "z^2.5", "--path", "-1+1*A, 2-1*A", "--samples", "1001", "--scheme", "simpson"],
    ["integrate", "log(z, 1)", "--path", "1, 0+1*A, -1+0.5*A", "--samples", "2001"],
    ["integrate", "--path", "0, 2+1*A, -1", "--samples", "2001", "--", "-z*exp(-z)"],
    # starts on -1 - 0*A, where atan2 gives -pi, and meets -1 + 0*A mid-edge
    ["integrate", "sqrt(z)", "--path", "-1-0*A, -1+1*A, -1-1*A", "--samples", "301"],
    ["integrate", "exp(z)", "--path", "0, 800+0*A", "--samples", "101"],
    ["integrate", "q*z", "--path", "0, 1"],
    ["integrate", "z^(1+z)", "--path", "1, 1+1*A", "--samples", "11"],
    ["integrate", "z^norm(z)", "--path", "1, 2+1*A", "--samples", "101"],
    # stencil points a few ulps apart, 2*h away only in exact arithmetic
    ["derive", "z", "--at", "1e11"],
    ["derive", "z*A", "--at", "0+1e11*A"],
]


def platform_line() -> str:
    """The long double format, which the propagator's powers are taken in."""
    info = np.finfo(np.longdouble)
    return f"# np.finfo(np.longdouble): dtype={info.dtype} nmant={info.nmant} nexp={info.nexp}"


def export_lines(out: Path) -> list[str]:
    """Write every preset export into ``out``; one ``sha256  filename`` per file.

    Every CSV is read back with ``read_csv``, and a table that does not come
    back bit for bit ends the run with exit code 1.
    """
    from rfa.cli.exports import read_csv
    from rfa.cli.presets import PRESETS, preset_config, run_scenario

    runs = [(preset_config(fig), ("csv", "json", "svg")) for fig in PRESETS] + [
        (preset_config(fig, alphas=FULL_ALPHAS, stride=1, formats=["csv"], name=f"{fig}-full"), None)
        for fig in FULL_FIGS
    ]
    for config, formats in runs:
        table, written = run_scenario(config, out_dir=out, formats=formats)
        for path in written:
            if path.suffix == ".csv":
                back = read_csv(path)
                if back.columns != table.columns or not np.array_equal(
                    back.rows.view(np.uint64), np.ascontiguousarray(table.rows).view(np.uint64)
                ):
                    sys.exit(f"{path.name} does not read back as the table it was written from")
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}" for path in sorted(out.iterdir())]


def calculus_lines() -> list[str]:
    from rfa import LcNumber, solve_linear_mapping_ode
    from rfa.cli.main import main

    lines = []
    for argv in CALCULUS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        lines.append(f"{code} {out.getvalue()!r} {err.getvalue()!r}  rfa {shlex.join(argv)}")
    w = solve_linear_mapping_ode(
        LcNumber(0.6, -0.2), lambda zeta: zeta * zeta, LcNumber(0.1, 0.3), LcNumber(1.0, -0.5), LcNumber(1.2, 0.1)
    )
    lines.append(f"{w.re.hex()} {w.fu.hex()}  solve_linear_mapping_ode")
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ provides rfa (default: this one)")
    root = parser.parse_args(argv).root
    sys.path.insert(0, str(root.resolve() / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        lines = [platform_line(), *export_lines(Path(tmp)), *calculus_lines()]
    print("\n".join(lines))


if __name__ == "__main__":
    main()

"""Print the sha256 of every preset export and of four full-resolution CSVs.

Writes all 15 presets (csv, json and svg) and fig2-fig5 at stride 1 with 51
alpha levels (10001 rows x 105 columns each) into a temporary directory,
then prints one ``sha256  filename`` line per file, sorted by name, as
``sha256sum`` does.  ``rfa`` is imported from ``ROOT/src``, by default the
checkout this script sits in, so one command compares two checkouts:

    diff <(python3 tools/export_digests.py /path/to/other/checkout) \\
         <(python3 tools/export_digests.py)
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

FULL_FIGS = ("fig2", "fig3", "fig4", "fig5")
FULL_ALPHAS = [i / 50 for i in range(51)]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ provides rfa (default: this one)")
    root = parser.parse_args(argv).root
    sys.path.insert(0, str(root.resolve() / "src"))
    from rfa.cli.presets import PRESETS, preset_config, run_scenario

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for fig in PRESETS:
            run_scenario(preset_config(fig), out_dir=out, formats=("csv", "json", "svg"))
        for fig in FULL_FIGS:
            full = preset_config(fig, alphas=FULL_ALPHAS, stride=1, formats=["csv"], name=f"{fig}-full")
            run_scenario(full, out_dir=out)
        for path in sorted(out.iterdir()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")


if __name__ == "__main__":
    main()

"""The Tukey kernel's panel table, `src/semdrift/chebyshev_panels.txt`, as
`stats._build_panel` makes it. From the repository root, rewrite the table with

    PYTHONPATH=src python tests/panel_table.py
"""

import math

from semdrift import stats

REWRITE = "PYTHONPATH=src python tests/panel_table.py"
HEADER = ("# Row panels of the studentized-range kernel: k offset coefficients (highest degree\n"
          "# first), one line per panel in panel order. Values are float.hex of\n"
          f"# semdrift.stats._build_panel; rewrite with `{REWRITE}`.\n")


def panel_lines(k: int) -> list[str]:
    """One table line per panel of k, from the builder."""
    cutoff, top, _ = stats._row_interpolant(k)
    lines = []
    for i in range(math.ceil(cutoff / stats._PANEL_WIDTH)):
        offset, coefficients = stats._build_panel(k, i, top)
        lines.append(" ".join([str(k), offset.hex(), *(c.hex() for c in coefficients)]))
    return lines


def render() -> str:
    """The whole table, one line per panel of each k that it covers."""
    return HEADER + "".join(line + "\n" for k in stats._TABLED_K for line in panel_lines(k))


if __name__ == "__main__":
    stats._PANEL_TABLE.write_text(render(), encoding="ascii")

"""Pinned `--json` reports.

Every byte must match the files under tests/data: the value sets and, for
runs with `--dump-system`, the dumped generators, their provenance tags
and c0.  Regenerate a file only for a change that is meant to alter the
report.
"""

from pathlib import Path

import pytest

from critvals import cli

DATA = Path(__file__).parent / "data"

GOLDEN = [
    ("broughton_all_2_1.json", ["x + x^2*y", "--set", "all", "--bounds", "2,1", "--dump-system"]),
    (
        "quintic_kinf_1_0.json",
        ["x*(x^2+1)^2", "--vars", "x,y", "--set", "kinf", "--bounds", "1,0", "--dump-system"],
    ),
    ("blowup_sf_2_1.json", ["x; x*y", "--set", "sf", "--bounds", "2,1", "--dump-system"]),
    # f uses y, so the image variable of K0 takes a fresh name internally
    ("folium_k0.json", ["x^3 - 3*x*y + y^3", "--set", "k0", "--dump-system"]),
    # the default arc shape (3, 7): K_inf and K are presolved into branches
    ("broughton_all_default.json", ["x + x^2*y", "--set", "all"]),
    # large eliminants: degree 16 (dense5) and 282-bit coefficients (dense4)
    (
        "dense5_k0.json",
        [
            "-x^5 + x^4*y + x^3*y^2 + x^2*y^3 + x*y^4 - y^5 - x^4 + x^3*y + x^2*y^2 - x*y^3 + y^4"
            " + x^3 - x^2*y - x*y^2 + y^3 - x^2 - x*y - y^2 - x + y - 1",
            "--set",
            "k0",
        ],
    ),
    (
        "dense4_k0.json",
        [
            "145*x^4 + 691*x^3*y - 523*x^2*y^2 - 918*x*y^3 - 920*y^4 + 578*x^3 - 176*x^2*y"
            " - 309*x*y^2 + 227*y^3 - 577*x^2 - 405*x*y - 593*y^2 - 311*x - 285*y - 102",
            "--set",
            "k0",
        ],
    ),
]


@pytest.mark.parametrize("name, argv", GOLDEN, ids=[name for name, _ in GOLDEN])
def test_report_bytes_match_golden(capsys, name, argv):
    code = cli.main([*argv, "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (DATA / name).read_text()

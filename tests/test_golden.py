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
]


@pytest.mark.parametrize("name, argv", GOLDEN, ids=[name for name, _ in GOLDEN])
def test_report_bytes_match_golden(capsys, name, argv):
    code = cli.main([*argv, "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (DATA / name).read_text()

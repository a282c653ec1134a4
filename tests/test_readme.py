"""README's examples run as written, so drift in the API or the CLI they show fails here."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from critvals import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert "CertifiedReal" in out.getvalue()


def test_cli_examples_run(capsys):
    (block,) = re.findall(r"Examples:\n\n```sh\n(.*?)```", README.read_text(), re.S)
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("critvals ")]
    outputs = {}
    for argv in commands:
        assert cli.main(argv) == 0, argv
        outputs[" ".join(argv)] = capsys.readouterr().out
    assert "eliminant: y^2 - 4" in outputs["x^3 - 3*x --set k0"]

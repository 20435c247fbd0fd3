"""The README's library and CLI examples run as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from ctrlscore import cli
from ctrlscore.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue().count("\n") == 3


def test_readme_cli_example_prints_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    text = README.read_text()
    name, model = re.search(r"^Example \(`(\S+)`\):\n\n```\n(.*?)^```", text,
                            re.M | re.S).groups()
    command, shown = re.search(r"^```\n\$ (ctrlscore .*?)\n(.*?)^```", text,
                               re.M | re.S).groups()
    argv = shlex.split(command)
    assert argv[:3] == ["ctrlscore", "score", name]
    (tmp_path / name).write_text(model)
    monkeypatch.chdir(tmp_path)
    assert main(argv[1:]) == 0
    assert capsys.readouterr() == (shown, "")


def test_readme_exit_codes_are_the_cli_exit_codes():
    paragraph = re.search(r"^Exit codes:(.*?)\n\n", README.read_text(),
                          re.M | re.S).group(1)
    shown = {int(span) for span in re.findall(r"`([^`]*)`", paragraph) if span.isdigit()}
    assert shown == {value for name, value in vars(cli).items() if name.startswith("EXIT_")}

"""The README's examples run as written on a fresh checkout."""

import re
import shlex
from pathlib import Path

import pytest

from duality_lab.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(section, language):
    """The first fenced `language` block under the `## section` heading."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


CLI_LINES = [line for line in _block("CLI", "sh").splitlines() if line.startswith("duality-lab ")]


def test_readme_has_cli_examples():
    assert len(CLI_LINES) >= 4


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_example_exits_zero(line, tmp_path, monkeypatch, capsys):
    argv = shlex.split(line)[1:]
    if "--trials" in argv:  # kept small so that tier-1 stays fast
        argv[argv.index("--trials") + 1] = "50"
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0, capsys.readouterr().err


def test_readme_library_example_runs(capsys):
    exec(compile(_block("Library", "python"), "README.md", "exec"), {})
    assert '"passed": true' in capsys.readouterr().out

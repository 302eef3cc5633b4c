"""The README's examples run as written: its Python block and its CLI walkthroughs."""

import itertools
import re
import shlex
from pathlib import Path

import pytest

from invlowrank import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), flags=re.S)


def test_python_example_runs():
    (block,) = _blocks("python")
    exec(compile(block, str(README), "exec"), {})


def _run_shell_block(block: str) -> None:
    """Write each heredoc to its file and run each invlowrank line in process."""
    lines = iter(block.splitlines())
    for line in lines:
        heredoc = re.fullmatch(r"cat > (\S+) <<'EOF'", line)
        if heredoc:
            body = itertools.takewhile(lambda text: text != "EOF", lines)
            Path(heredoc[1]).write_text("".join(text + "\n" for text in body))
        elif line.startswith("invlowrank "):
            with pytest.raises(SystemExit) as excinfo:
                cli.entry(shlex.split(line, comments=True)[1:])
            assert excinfo.value.code == 0, line
        else:
            assert not line.strip(), f"README line the test cannot run: {line!r}"


def test_cli_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    blocks = [block for block in _blocks("sh") if "\ninvlowrank " in block]
    assert len(blocks) == 2  # the walkthrough and the ntk-check example
    for block in blocks:
        _run_shell_block(block)

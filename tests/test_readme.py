"""The README's Python examples and its command-line block run as written."""

import re
import shlex
from pathlib import Path

import pytest

import hgsparse as hg
from hgsparse.cli import app, run

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
CLI_BLOCK = re.search(r"^## Command line\n+```sh\n(.*?)^```", TEXT, re.M | re.S).group(1)
COMMANDS = [argv for line in CLI_BLOCK.replace("\\\n", " ").splitlines()
            if (argv := shlex.split(line, comments=True))]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # whatever a block writes stays out of the checkout
    exec(compile(block, str(README), "exec"), {"__name__": "__readme__"})


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    # the commands run in order on a typed graph written where they read it
    monkeypatch.chdir(tmp_path)
    g = hg.generate(hg.GenSpec((60, 40), ((0, 1, 400, 1.0), (1, 0, 300, 0.5),
                                          (0, 0, 200, 0.0)), seed=3))
    hg.write_link_file(g, "link.dat")
    hg.write_node_file("node.dat", g.node_ids, g.node_types)
    assert COMMANDS and {argv[0] for argv in COMMANDS} == {"hgsparse"}
    for argv in COMMANDS:
        assert run(argv[1:]) == 0, (argv, capsys.readouterr().err)


def test_readme_names_only_real_flags():
    # every --flag in inline code and in the command-line block is an
    # option of some hgsparse command
    options = {opt for command in app.commands.values() for param in command.params
               for opt in param.opts + param.secondary_opts}
    inline = {flag for span in re.findall(r"`([^`\n]+)`", TEXT)
              for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", span)}
    block = {arg.split("=")[0] for argv in COMMANDS for arg in argv if arg.startswith("--")}
    assert inline and block
    assert inline | block <= options, sorted((inline | block) - options)

"""The public API is no wider than what README.md documents, and its command-line examples
print what the program prints."""

import pathlib
import re
import shlex

import pytest

import platevac
from platevac.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_is_named_in_readme():
    text = README.read_text(encoding="utf-8")

    def documented(name):
        # named in inline code, e.g. `name` or `name(x, t)`
        return re.search(rf"`[^`\n]*\b{re.escape(name)}\b[^`\n]*`", text) is not None

    missing = [name for name in platevac.__all__ if not documented(name)]
    assert not missing, f"exported but not named in README.md: {missing}"


def _cli_examples():
    """(argv, shown lines) of each `$ platevac ...` command in README's sh blocks, its
    backslash-continued lines joined; the shown lines run to the next command or the block's end."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S):
        lines = block.splitlines()
        while lines:
            line = lines.pop(0)
            if not line.startswith("$ platevac "):
                continue
            while line.endswith("\\"):
                line = line[:-1] + lines.pop(0)
            shown = []
            while lines and not lines[0].startswith("$ "):
                shown.append(lines.pop(0))
            examples.append((shlex.split(line[len("$ platevac "):]), shown))
    return examples


_EXAMPLES = _cli_examples()


def test_readme_shows_cli_examples():
    assert [argv[0] for argv, _ in _EXAMPLES] == ["eval", "sweep", "compare", "physics"]


@pytest.mark.parametrize("argv, shown", _EXAMPLES, ids=[argv[0] for argv, _ in _EXAMPLES])
def test_the_readme_cli_examples_print_what_they_show(capsys, monkeypatch, tmp_path, argv, shown):
    # Each shown line is the output's line in full, or up to a trailing "...", which also
    # stands for any lines after it.
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    open_end = shown[-1].endswith("...")
    assert len(printed) >= len(shown) if open_end else len(printed) == len(shown), printed
    for want, got in zip(shown, printed):
        if want.endswith("..."):
            assert got.startswith(want[:-3]), (want, got)
        else:
            assert got == want

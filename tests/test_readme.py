"""The public API is no wider than what README.md documents."""

import pathlib
import re

import platevac

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_is_named_in_readme():
    text = README.read_text(encoding="utf-8")

    def documented(name):
        # named in inline code, e.g. `name` or `name(x, t)`
        return re.search(rf"`[^`\n]*\b{re.escape(name)}\b[^`\n]*`", text) is not None

    missing = [name for name in platevac.__all__ if not documented(name)]
    assert not missing, f"exported but not named in README.md: {missing}"

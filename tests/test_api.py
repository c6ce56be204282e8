import importlib
import inspect
import re
from pathlib import Path

import pluckerlab

README = Path(__file__).resolve().parents[1] / "README.md"


def documented_exports():
    """(module, name) for each name of the README's Library table."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(pluckerlab\.\w+)` \| (.+) \|$", section, re.MULTILINE)
    return [(module, name) for module, names in rows for name in re.findall(r"`(\w+)`", names)]


def test_public_names_are_exactly_the_documented_library():
    # An export added or removed without its line in the README fails here.
    documented = documented_exports()
    names = [name for _, name in documented]
    assert len(names) == len(set(names)) == 51
    public = {
        name
        for name, value in vars(pluckerlab).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(names)
    for module, name in documented:
        assert getattr(importlib.import_module(module), name) is getattr(pluckerlab, name)

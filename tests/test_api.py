"""The package root exports the README's Python API and nothing else."""

import re
import types
from pathlib import Path

import prenet

README = Path(__file__).resolve().parents[1] / "README.md"
BEGIN, END = "<!-- begin prenet.__all__ -->", "<!-- end prenet.__all__ -->"


def readme_api_names():
    """The backquoted names that the README lists between the two markers;
    the parenthesized module name that heads each group is not one."""
    text = README.read_text()
    block = text[text.index(BEGIN) + len(BEGIN) : text.index(END)]
    return re.findall(r"`([A-Za-z_]\w*)`", re.sub(r"\([^)]*\)", "", block))


def test_all_is_the_readme_api_list():
    names = readme_api_names()
    assert len(prenet.__all__) == len(set(prenet.__all__))
    assert len(names) == len(set(names))
    assert set(prenet.__all__) == set(names)


def test_every_exported_name_resolves():
    for name in prenet.__all__:
        assert getattr(prenet, name) is not None, name


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from prenet import *", namespace)
    bound = {k: v for k, v in namespace.items() if k != "__builtins__"}
    assert set(bound) == set(prenet.__all__)
    assert not [k for k, v in bound.items() if isinstance(v, types.ModuleType)]

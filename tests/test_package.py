"""The package's public names: each module's ``__all__`` is the one list,
and the package re-exports all of them. Also the CI workflow's shell, whose
every check must be able to fail its step."""

import pathlib

import eigenshape
from eigenshape import diagnostics, domain, objective, optimizer, spectral

_MODULES = (diagnostics, domain, objective, optimizer, spectral)


def test_package_all_is_the_modules_all():
    names = eigenshape.__all__
    assert names == ["__version__", *(name for m in _MODULES for name in m.__all__)]
    assert len(set(names)) == len(names)
    for m in _MODULES:
        for name in m.__all__:
            assert getattr(eigenshape, name) is getattr(m, name)
    star: dict = {}
    exec("from eigenshape import *", star)
    assert set(star) - {"__builtins__"} == set(names)


def test_workflow_chains_no_commands():
    # GitHub runs a step under bash -e, which ignores a failure of any command
    # of an `a && b` list but the last: each check is a command of its own
    workflow = pathlib.Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
    lines = workflow.read_text().splitlines()
    assert [n for n, line in enumerate(lines, start=1) if "&&" in line] == []

"""The package's public names: each module's ``__all__`` is the one list,
and the package re-exports all of them."""

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

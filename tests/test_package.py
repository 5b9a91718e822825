"""The package's public names: each module's ``__all__`` is the one list,
and the package re-exports all of them; its BLAS thread pin. Also the CI
workflow's shell, whose every check must be able to fail its step."""

import os
import pathlib
import subprocess
import sys

import pytest

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


_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("given", [{}, {"OPENBLAS_NUM_THREADS": "2"}], ids=["unset", "set"])
def test_import_pins_blas_threads_the_environment_leaves_unset(given):
    # a fresh interpreter that imports eigenshape before numpy, as the script does
    env = {k: v for k, v in os.environ.items() if k not in _PINS}
    env.update(given, PYTHONPATH=str(pathlib.Path(eigenshape.__file__).parents[1]))
    code = f"import eigenshape, os; print(*(os.environ[n] for n in {_PINS}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == [given.get(name, "1") for name in _PINS]


_WORKFLOW = pathlib.Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_workflow_chains_no_commands():
    # GitHub runs a step under bash -e, which ignores a failure of any command
    # of an `a && b` list but the last: each check is a command of its own
    lines = _WORKFLOW.read_text().splitlines()
    assert [n for n, line in enumerate(lines, start=1) if "&&" in line] == []


def test_workflow_job_runs_every_step_with_pipefail():
    # with the job's shell set to bash, GitHub runs each step as bash
    # --noprofile --norc -eo pipefail, so `perfbench/run.py ... | tee` fails
    # its step when run.py fails; the default bash -e checks only tee
    jobs = _WORKFLOW.read_text().split("\njobs:\n")[1]
    assert jobs.startswith("  tests:\n")
    assert "\n    defaults:\n      run:\n        shell: bash\n" in jobs

"""The package namespace: every public name is exported once and resolves."""

import os
import subprocess
import sys
import types

import pytest

import fibrec


def test_all_is_unique_and_resolves():
    assert len(set(fibrec.__all__)) == len(fibrec.__all__)
    for name in fibrec.__all__:
        assert hasattr(fibrec, name), name


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from fibrec import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(fibrec.__all__)


def test_no_public_name_is_left_out_of_all():
    # an import kept in __init__.py after its name left __all__ would show here
    public = {
        name
        for name, value in vars(fibrec).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(fibrec.__all__)


@pytest.mark.parametrize("module", ["fibrec", "fibrec.cli"])
def test_import_loads_no_dataclasses_inspect_or_json(module):
    # the value classes are not dataclasses, and json is imported only where a
    # document is read or written: by search_remote and by main for --json
    code = (
        "import importlib, sys; before = set(sys.modules); "
        f"importlib.import_module({module!r}); print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert module in loaded
    assert loaded & {"dataclasses", "inspect", "json"} == set()


@pytest.mark.parametrize("module", ["fibrec", "fibrec.cli"])
def test_import_loads_no_typing(module):
    # -S skips site, which may load typing itself and would hide it here;
    # the annotations' names come from collections.abc instead
    src = os.path.dirname(os.path.dirname(fibrec.__file__))
    code = (
        "import importlib, sys; before = set(sys.modules); "
        f"importlib.import_module({module!r}); print(*sorted(set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True, env=env
    )
    loaded = set(proc.stdout.split())
    assert module in loaded
    assert "typing" not in loaded

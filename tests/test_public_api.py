import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import splitmw


def public_callables():
    """(name, callable) for each public function and class that splitmw
    exports, and each public method of those classes."""
    for name in dir(splitmw):
        obj = getattr(splitmw, name)
        if name.startswith("_") or not callable(obj):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr in vars(obj):
                member = getattr(obj, attr)
                if not attr.startswith("_") and callable(member):
                    yield f"{name}.{attr}", member


def parameters(fn) -> list[str]:
    try:
        return list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):     # builtins without a signature
        return []


def test_no_public_callable_takes_a_size_limit():
    # size limits live in one table, errors.SIZE_LIMITS, and nowhere else
    assert [name for name, fn in public_callables()
            if "limit" in parameters(fn)] == []


def test_walk_reaches_the_engines_and_methods():
    names = {name for name, _ in public_callables()}
    assert {"tutte_dc", "is_split", "graphic", "Matroid.independent_sets",
            "Multigraph.max_spanning_forests"} <= names


def test_every_export_is_its_modules_object():
    for name in splitmw.__all__:
        module = importlib.import_module(f"splitmw.{splitmw._MODULE_OF[name]}")
        assert getattr(splitmw, name) is getattr(module, name), name
    assert len(set(splitmw.__all__)) == len(splitmw.__all__)


def test_import_binds_every_name_on_first_use():
    # a fresh interpreter: `import splitmw` loads no submodule, each public
    # name, however it is reached, is its own module's object, and a
    # submodule is an attribute once imported but not a public name
    src = str(Path(splitmw.__file__).resolve().parent.parent)
    check = ("import sys, splitmw\n"
             "assert not [m for m in sys.modules if m.startswith('splitmw.')]\n"
             "from splitmw import errors, matroid\n"
             "assert splitmw.Matroid is matroid.Matroid\n"
             "assert splitmw.InputError is errors.InputError\n"
             "assert 'splitmw.flats' not in sys.modules\n"
             "assert splitmw.cyclic_flats is sys.modules['splitmw.flats'].cyclic_flats\n"
             "namespace = {}\n"
             "exec('from splitmw import *', namespace)\n"
             "for name, module in splitmw._MODULE_OF.items():\n"
             "    own = getattr(sys.modules['splitmw.' + module], name)\n"
             "    assert namespace[name] is own, name\n"
             "assert splitmw.flats is sys.modules['splitmw.flats']")
    proc = subprocess.run([sys.executable, "-c", check], check=False,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "flats" not in splitmw.__all__


def test_benchmark_tracer_rows_resolve():
    # perfbench/tracing.py wraps these names by lookup in each owner's
    # __dict__; a rename or deletion that breaks `run.py --trace 1` is
    # named here, row by row
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [row for row in tracing.FUNCTIONS
               if row[1] not in vars(importlib.import_module(row[0]))]
    missing += [row for row in tracing.METHODS
                if row[2] not in vars(getattr(importlib.import_module(row[0]),
                                              row[1]))]
    assert missing == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from splitmw import *", namespace)
    assert set(splitmw.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(splitmw, name)
               for name in splitmw.__all__)
    assert set(splitmw.__all__) <= set(dir(splitmw))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        splitmw.no_such_name
    assert not hasattr(splitmw, "corpus_of_nothing")

import inspect

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

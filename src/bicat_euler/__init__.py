"""Exact Euler characteristics of finite categories, cat-graphs and bicategories."""

import sys

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a submodule on first attribute access (PEP 562), so `import bicat_euler` loads none."""
    if name in ("bicat", "bifib", "catdsl", "cli", "exactq", "fib1", "fincat", "fixtures", "generators"):
        # `__import__`, not `importlib.import_module`: only the former's imports appear in `-X importtime`.
        __import__(f"{__name__}.{name}")
        return sys.modules[f"{__name__}.{name}"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

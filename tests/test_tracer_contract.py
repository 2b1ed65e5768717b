"""The benchmark's tracer (`mrbench/tracing.py`) wraps mrpower functions and
constructors that it looks up by module and name; a name that no longer
resolves breaks `mrbench/run.py --trace`. The tracer looks each module up
in sys.modules once the worker has imported mrpower and mrpower.cli, and so
does this test."""

import importlib.util
import sys
from pathlib import Path

import mrpower.cli  # noqa: F401  (the benchmark worker imports it before tracing)

TRACING = Path(__file__).resolve().parents[1] / "mrbench" / "tracing.py"


def load_tracing():
    """The tracer module, loaded from its file so that `mrbench/` never
    joins sys.path."""
    spec = importlib.util.spec_from_file_location("mrbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    targets = [target for group in tracing.SPANS.values() for target in group]
    targets += tracing.CONSTRUCTORS.values()
    missing = [
        f"{module}.{attr}"
        for module, attr in targets
        if not callable(getattr(sys.modules.get(module), attr, None))
    ]
    assert targets and not missing

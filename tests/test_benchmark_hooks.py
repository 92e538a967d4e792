"""The benchmark's tracer (perfbench/tracer.py) wraps program functions it
looks up by module and attribute path; every one of them must exist, or
``--trace 1`` fails with a KeyError."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves_in_the_package():
    # loading the module defines its tables; nothing is wrapped until a
    # Tracer is installed
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, path, _ in tracer.TIMED:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        # the tracer reads the attribute from the owner's own namespace
        if owner is None or attr not in vars(owner):
            missing.append(f"{module}.{path}")
    assert not missing, f"traced names missing from the package: {missing}"

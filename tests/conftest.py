"""Suite-wide pytest hooks."""

from __future__ import annotations

from repro.engine.backend import native_module


def pytest_report_header() -> str:
    """Say up front whether this run exercises the C core at all: without
    the compiled module the differential oracle omits its native variants,
    and a green suite says nothing about the C code."""
    module = native_module()
    if module is not None:
        return f"native core: built ({module.__file__})"
    return (
        "native core: NOT BUILT — C core untested, native oracle variants "
        "omitted; run python -m repro.engine.backend --build"
    )

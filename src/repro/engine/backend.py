"""Engine backend selection: pure-python reference vs compiled core.

``ClusterConfig.backend`` picks between two implementations of the engine
hot core (:class:`~repro.engine.events.Event` /
:class:`~repro.engine.events.EventQueue` and the fused window drain):

* ``"python"`` — the pure-python reference implementation, always
  available.  This is the specification; the compiled backend is held to
  bit-identity against it.
* ``"native"`` — ``repro.engine._native``, a C extension compiled from
  ``_native_src/enginecore.c``.  Selecting it when the module cannot be
  imported is an error.
* ``"auto"`` (the default) — native when importable, silently degrading
  to python otherwise.  The degradation *reason* is recorded on the
  resolution (and surfaced as ``ExperimentRunner.last_backend_fallback_reason``)
  so "quietly slow" is still diagnosable, mirroring
  ``last_shard_fallback_reason``.

This module owns the whole import dance — call sites never touch
``repro.engine._native`` directly — plus the build machinery
(``python -m repro.engine.backend --build``) which invokes the toolchain
recorded in ``sysconfig`` without requiring pip or a packaging frontend.

Environment knobs (test/CI surface, never part of cache keys):

* ``REPRO_BACKEND=python|native`` — overrides ``backend="auto"`` only;
  explicit config values win over the environment.
* ``REPRO_NO_NATIVE=1`` — treat the compiled module as unavailable even
  if present (exercises the degraded path deterministically).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shlex
import subprocess
import sys
import sysconfig
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Optional

VALID_BACKENDS = ("auto", "python", "native")

#: Source ABI this tree expects; checked against the compiled module so a
#: stale .so from an older checkout is rejected instead of half-working.
EXPECTED_ABI_VERSION = 1

_ENGINE_DIR = Path(__file__).resolve().parent
_NATIVE_SOURCE = _ENGINE_DIR / "_native_src" / "enginecore.c"

# Import probe result, populated once per process.  REPRO_NO_NATIVE is
# deliberately *not* cached so tests can flip it via monkeypatch.
_probed = False
_native_module: Optional[ModuleType] = None
_native_error: Optional[str] = None


def _probe() -> None:
    global _probed, _native_module, _native_error
    if _probed:
        return
    _probed = True
    try:
        module = importlib.import_module("repro.engine._native")
    except ImportError as exc:
        _native_error = f"compiled engine core not importable ({exc})"
        return
    except Exception as exc:  # pragma: no cover - defensive
        _native_error = f"compiled engine core failed to load ({exc!r})"
        return
    abi = getattr(module, "ABI_VERSION", None)
    if abi != EXPECTED_ABI_VERSION:
        _native_error = (
            f"compiled engine core has ABI {abi!r}, this tree expects "
            f"{EXPECTED_ABI_VERSION} (rebuild with "
            f"'python -m repro.engine.backend --build --force')"
        )
        return
    _native_module = module


def native_module() -> Optional[ModuleType]:
    """The compiled module, or ``None`` with the reason in
    :func:`native_unavailable_reason`."""
    if os.environ.get("REPRO_NO_NATIVE"):
        return None
    _probe()
    return _native_module


def native_available() -> bool:
    return native_module() is not None


def native_unavailable_reason() -> Optional[str]:
    """Why the native backend cannot be used right now (``None`` if it can)."""
    if os.environ.get("REPRO_NO_NATIVE"):
        return "disabled by REPRO_NO_NATIVE=1"
    _probe()
    return _native_error


@dataclass(frozen=True)
class ResolvedBackend:
    """Outcome of backend selection for one run.

    ``name`` is always concrete (``"python"`` or ``"native"``);
    ``fallback_reason`` is set only when ``"auto"`` wanted native and
    degraded.  Deliberately excluded from cache keys: both backends
    produce bit-identical results, so runs share cache entries.
    """

    requested: str
    name: str
    fallback_reason: Optional[str] = None


def resolve_backend(requested: str = "auto") -> ResolvedBackend:
    """Resolve a ``ClusterConfig.backend`` value to a concrete backend.

    Raises:
        ValueError: for an unknown *requested* value (or an unknown
            ``REPRO_BACKEND`` override).
        RuntimeError: when ``"native"`` is explicitly requested but the
            compiled module is unavailable — an explicit request must
            never silently run 5x slower.
    """
    if requested not in VALID_BACKENDS:
        raise ValueError(
            f"backend must be one of {VALID_BACKENDS}, got {requested!r}"
        )
    effective = requested
    if requested == "auto":
        env = os.environ.get("REPRO_BACKEND", "").strip()
        if env:
            if env not in VALID_BACKENDS:
                raise ValueError(
                    f"REPRO_BACKEND must be one of {VALID_BACKENDS}, got {env!r}"
                )
            effective = env
    if effective == "python":
        return ResolvedBackend(requested=requested, name="python")
    module = native_module()
    if module is not None:
        return ResolvedBackend(requested=requested, name="native")
    reason = native_unavailable_reason() or "compiled engine core unavailable"
    if effective == "native":
        raise RuntimeError(
            f"backend='native' requested but {reason}; build it with "
            f"'python -m repro.engine.backend --build'"
        )
    return ResolvedBackend(requested=requested, name="python", fallback_reason=reason)


def queue_class(backend: str) -> type:
    """The EventQueue implementation for a *concrete* backend name."""
    if backend == "python":
        from repro.engine.events import EventQueue

        return EventQueue
    if backend == "native":
        module = native_module()
        if module is None:
            raise RuntimeError(
                f"native backend unavailable: {native_unavailable_reason()}"
            )
        return module.EventQueue  # type: ignore[no-any-return]
    raise ValueError(f"not a concrete backend: {backend!r}")


def native_target_path() -> Path:
    """Where the compiled module lives (next to the engine package)."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return _ENGINE_DIR / f"_native{suffix}"


def capabilities() -> dict[str, object]:
    """Machine-readable capability report (CLI ``--info``, CI logs)."""
    module = native_module()
    return {
        "python": True,
        "native": module is not None,
        "native_reason": native_unavailable_reason(),
        "native_path": str(native_target_path()),
        "native_abi": getattr(module, "ABI_VERSION", None),
        "expected_abi": EXPECTED_ABI_VERSION,
        "source": str(_NATIVE_SOURCE),
    }


def build_native(force: bool = False, verbose: bool = False) -> Path:
    """Compile ``enginecore.c`` into ``repro/engine/_native<EXT_SUFFIX>``.

    Uses the link driver recorded by the interpreter's own build
    (``sysconfig``'s ``LDSHARED``, falling back to ``CC -shared``) so no
    packaging frontend is needed.  Up-to-date targets are left alone
    unless *force* is set.

    Raises:
        FileNotFoundError: when the C source is missing (broken checkout).
        RuntimeError: when no C toolchain is available or it fails; the
            compiler output rides in the message.
    """
    if not _NATIVE_SOURCE.exists():
        raise FileNotFoundError(f"native source missing: {_NATIVE_SOURCE}")
    target = native_target_path()
    if (
        target.exists()
        and not force
        and target.stat().st_mtime >= _NATIVE_SOURCE.stat().st_mtime
    ):
        return target
    ldshared = sysconfig.get_config_var("LDSHARED")
    if ldshared:
        driver = shlex.split(ldshared)
    else:
        cc = sysconfig.get_config_var("CC") or "cc"
        driver = [*shlex.split(cc), "-shared"]
    include = sysconfig.get_path("include")
    command = [
        *driver,
        "-O2",
        "-fPIC",
        f"-I{include}",
        str(_NATIVE_SOURCE),
        "-o",
        str(target),
    ]
    if verbose:
        print("+", " ".join(command), file=sys.stderr)
    try:
        result = subprocess.run(command, capture_output=True, text=True)
    except OSError as exc:
        raise RuntimeError(f"no usable C toolchain ({command[0]}: {exc})") from exc
    if result.returncode != 0:
        raise RuntimeError(
            f"native build failed (exit {result.returncode}):\n{result.stderr}"
        )
    importlib.invalidate_caches()
    return target


def _reset_probe_for_tests() -> None:
    """Forget the cached import probe (test hook, not public API)."""
    global _probed, _native_module, _native_error
    _probed = False
    _native_module = None
    _native_error = None


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine.backend",
        description="Build or inspect the compiled engine backend.",
    )
    parser.add_argument(
        "--build", action="store_true", help="compile the native module"
    )
    parser.add_argument(
        "--force", action="store_true", help="rebuild even if up to date"
    )
    parser.add_argument(
        "--info", action="store_true", help="print the capability report as JSON"
    )
    args = parser.parse_args(argv)
    if args.build:
        try:
            target = build_native(force=args.force, verbose=True)
        except (RuntimeError, FileNotFoundError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"built {target}")
        _reset_probe_for_tests()
    if args.info or not args.build:
        print(json.dumps(capabilities(), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())

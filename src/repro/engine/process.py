"""Generator-based cooperative processes.

Application workloads are written as Python generators in the SimPy style::

    def app(mpi):
        yield Compute(ops=1_000_000)
        yield mpi.send(peer, nbytes=9000)
        message = yield mpi.recv()
        ...

The engine does not interpret the yielded *requests* — that is the job of the
node runtime (:mod:`repro.node`) and of the message layer (:mod:`repro.mpi`).
Here we only provide the mechanics of stepping a generator, feeding values
back in, and detecting termination, with errors annotated with the owning
process' name so a failing workload is diagnosable.
"""

from __future__ import annotations

from typing import Any, Generator


class ProcessExit(Exception):
    """Raised by :meth:`Process.step` when the underlying generator returns.

    The generator's return value (``StopIteration.value``) is carried in
    :attr:`result`.
    """

    def __init__(self, result: Any = None) -> None:
        super().__init__("process finished")
        self.result = result


class ProcessError(Exception):
    """An exception escaped from a process body."""

    def __init__(self, name: str, cause: BaseException) -> None:
        super().__init__(f"process {name!r} raised {cause!r}")
        self.name = name
        self.cause = cause


class Process:
    """Wraps a request-yielding generator with bookkeeping.

    Attributes:
        name: diagnostic label (typically ``"node3/app"``).
        finished: True once the generator has returned.
        result: the generator's return value once finished.
    """

    __slots__ = ("name", "_generator", "finished", "result", "_started")

    def __init__(self, generator: Generator[Any, Any, Any], name: str = "process") -> None:
        self._generator = generator
        self.name = name
        self.finished = False
        self.result: Any = None
        self._started = False

    def step(self, value: Any = None) -> Any:
        """Resume the generator, sending *value*, and return its next request.

        The first call must send ``None`` (generator protocol).  Raises
        :class:`ProcessExit` when the generator returns and
        :class:`ProcessError` if it raises.
        """
        if self.finished:
            raise ProcessExit(self.result)
        try:
            if not self._started:
                self._started = True
                if value is not None:
                    raise ValueError("first step of a process must send None")
                return next(self._generator)
            return self._generator.send(value)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            raise ProcessExit(stop.value) from None
        except ProcessExit:
            raise
        except BaseException as exc:
            self.finished = True
            raise ProcessError(self.name, exc) from exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "running"
        return f"Process({self.name!r}, {state})"

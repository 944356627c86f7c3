"""Generator-based simulated processes and the effects they yield.

A process body is a plain Python generator.  It communicates with the
kernel by yielding *effect* objects:

* ``yield Delay(t)`` -- resume ``t`` virtual time units later.
* ``yield mailbox.get()`` -- resume when a message is available, with the
  message as the value of the ``yield`` expression.

Sub-protocols compose with ``yield from`` (the warehouse's ``ViewChange``
function is a sub-generator of its ``UpdateView`` process, exactly
mirroring the paper's Figure 4 structure).
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.simulation.errors import (
    DeadProcessError,
    ProcessKilled,
    SimulationError,
)
from repro.simulation.mailbox import Get

if TYPE_CHECKING:
    from repro.simulation.kernel import Simulator


@dataclass(frozen=True, slots=True)
class Delay:
    """Effect: suspend the yielding process for ``duration`` virtual time."""

    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"negative delay {self.duration}")


class Process:
    """A running generator, owned and resumed by the kernel."""

    def __init__(self, sim: "Simulator", name: str, generator: Generator):
        self.sim = sim
        self.name = name
        self._generator = generator
        self.finished = False
        self.failed: BaseException | None = None
        self._blocked_on: Get | None = None

    # ------------------------------------------------------------------
    @property
    def is_blocked(self) -> bool:
        """True while waiting on a mailbox."""
        return self._blocked_on is not None

    def start(self) -> None:
        """First resume (scheduled by :meth:`Simulator.spawn`)."""
        self._advance(None)

    def resume(self, value: Any) -> None:
        """Deliver ``value`` as the result of the pending effect."""
        if self.finished:
            raise DeadProcessError(f"process {self.name!r} already finished")
        self._blocked_on = None
        self._advance(value)

    # ------------------------------------------------------------------
    def _advance(self, value: Any) -> None:
        try:
            effect = self._generator.send(value)
        except (StopIteration, ProcessKilled):
            # ProcessKilled is a failover kill switch unwinding this one
            # process deliberately; like normal completion it must not
            # fail the kernel.
            self.finished = True
            return
        except BaseException as exc:
            self.finished = True
            self.failed = exc
            raise
        self._handle(effect)

    def _handle(self, effect: Any) -> None:
        if isinstance(effect, Get):
            self._blocked_on = effect
            effect.mailbox._register_waiter(self)
        elif isinstance(effect, Delay):
            self.sim.schedule(effect.duration, lambda: self._advance(None))
        else:
            self.finished = True
            raise SimulationError(
                f"process {self.name!r} yielded unsupported effect {effect!r}"
            )

    def __repr__(self) -> str:
        state = (
            "finished"
            if self.finished
            else "blocked"
            if self.is_blocked
            else "runnable"
        )
        return f"Process({self.name!r}, {state})"


__all__ = ["Delay", "Process"]

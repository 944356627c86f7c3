"""Fixture for every runtime test: a finished run left nothing behind."""

import pytest

from repro.runtime import AsyncRuntime, distributed, shard


class _QuiescenceCheckedRuntime(AsyncRuntime):
    """``wait_until`` returning means quiescent *to the kernel* too.

    The run drivers' predicates all conjoin ``settled()`` or an updater's
    ``done``; the waiter itself only evaluates them with nothing held.
    So whatever the predicate, a normal return must find no kernel timer
    outstanding (chaos delays and source service times are kernel timers
    as well) and every process finished or blocked on a mailbox.
    """

    async def wait_until(self, predicate, *args, **kwargs):
        await super().wait_until(predicate, *args, **kwargs)
        assert self.holds == 0, f"{self.holds} timer(s)/hold(s) outstanding"
        assert self.settled(), [p for p in self.processes if not p.is_blocked]


@pytest.fixture(autouse=True)
def quiescence_is_checked(monkeypatch):
    """``run_distributed`` / ``run_sharded`` (and the in-process ``serve_*``
    calls) build their runtime through this checking subclass."""
    for module in (distributed, shard):
        monkeypatch.setattr(module, "AsyncRuntime", _QuiescenceCheckedRuntime)

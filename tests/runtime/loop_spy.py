"""Counting what the event loop does: iterations and timers armed."""

import asyncio


class LoopSpy:
    """Wraps the running loop's ``_run_once`` and ``call_at`` (which
    ``call_later`` goes through).  ``turns`` counts loop iterations,
    ``timers`` collects the callback of every timer armed.  The loop of an
    ``asyncio.run`` dies with the test, so nothing is restored."""

    def __init__(self):
        self.loop = asyncio.get_running_loop()
        self.turns = 0
        self.timers = []
        run_once, call_at = self.loop._run_once, self.loop.call_at

        def counted_run_once():
            self.turns += 1
            run_once()

        def counted_call_at(when, callback, *args, **kwargs):
            self.timers.append(callback)
            return call_at(when, callback, *args, **kwargs)

        self.loop._run_once = counted_run_once
        self.loop.call_at = counted_call_at

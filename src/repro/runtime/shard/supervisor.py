"""A fleet as real OS processes, launched and babysat by a supervisor."""

from __future__ import annotations

import dataclasses
import subprocess
import sys
import time as _time

from repro.harness.config import ExperimentConfig
from repro.runtime.errors import RuntimeHostError
from repro.runtime.shard.spec import FleetSpec, child_argvs, member_name


class ShardCrashed(RuntimeHostError):
    """A member of a multi-process sharded deployment exited non-zero."""


#: exit code host commands use for *deliberate* failures (verification
#: below the claimed level, peer unreachable after the retry budget).
#: Distinct from 1 (unhandled exception = crash) and 2 (argparse usage
#: error) so a restart policy can tell "this member failed cleanly and
#: would fail identically again" from "this member died".
CLEAN_FAILURE_EXIT = 3

#: exit codes the supervisor never restarts: deliberate failures and
#: usage errors reproduce themselves, so relaunching would hot-loop.
_NO_RESTART_CODES = frozenset({2, CLEAN_FAILURE_EXIT})


class ShardSupervisor:
    """Launch and babysit the processes of a sharded deployment.

    The supervisor's base job is **crash detection**: a member exiting
    non-zero while the fleet is still working kills every remaining
    process and raises :class:`ShardCrashed` naming the culprit (with its
    captured stderr tail).  A fleet where every member exits 0 is a
    successful deployment -- shards verify their own views before
    exiting, so supervisor success implies oracle success.

    With ``restart="on-crash"`` a member launched with
    ``restartable=True`` that *crashes* (killed by a signal, or any exit
    code outside :data:`_NO_RESTART_CODES`) is relaunched with its
    original argv -- up to ``max_restarts`` times, after an escalating
    ``backoff`` -- instead of failing the fleet.  Only durable shards are
    restartable: they relaunch over their ``--durable-dir`` and recover;
    sources have no durable state to come back from.  Clean non-zero
    exits (:data:`CLEAN_FAILURE_EXIT`, e.g. a failed consistency check or
    ``TransportRetriesExceeded`` from a probe) are never restarted: they
    are answers, not accidents.

    A member launched with ``standby_for="shard3"`` is shard3's **hot
    standby**: when the primary *crashes* while the standby is alive the
    supervisor promotes instead of failing the fleet (the standby
    already holds the state at the same FIFO position -- promotion is
    pure bookkeeping here, recorded in :attr:`promotions`); a crashed
    standby whose primary is healthy is tolerated the same way.
    Promotion takes precedence over restart, and clean failures
    (:data:`_NO_RESTART_CODES`) never promote -- a verification failure
    would reproduce on the standby too, so it must fail the fleet.
    """

    def __init__(
        self,
        poll_interval: float = 0.2,
        restart: str = "never",
        max_restarts: int = 2,
        backoff: float = 0.5,
    ):
        if restart not in ("never", "on-crash"):
            raise ValueError(f"unknown restart policy {restart!r}")
        self.poll_interval = poll_interval
        self.restart = restart
        self.max_restarts = max_restarts
        self.backoff = backoff
        self.procs: dict[str, subprocess.Popen] = {}
        self._specs: dict[str, tuple[list[str], dict, bool]] = {}
        self.restarts: dict[str, int] = {}
        #: human-readable record of every relaunch decision.
        self.restart_log: list[str] = []
        #: standby name -> the primary process it shadows.
        self.standby_of: dict[str, str] = {}
        #: dead primary name -> the standby promoted in its place.
        self.promoted: dict[str, str] = {}
        #: human-readable record of every promotion/tolerance decision,
        #: stamped with seconds since the supervisor started waiting.
        self.failover_log: list[str] = []
        self._wait_started: float | None = None

    def launch(
        self,
        name: str,
        argv: list[str],
        restartable: bool = False,
        standby_for: str | None = None,
        **popen_kwargs,
    ) -> None:
        if name in self.procs:
            raise ValueError(f"duplicate process name {name!r}")
        if standby_for is not None:
            if standby_for not in self.procs:
                raise ValueError(
                    f"standby {name!r} shadows unknown process {standby_for!r}"
                )
            self.standby_of[name] = standby_for
        self._specs[name] = (list(argv), dict(popen_kwargs), restartable)
        self.restarts[name] = 0
        self.procs[name] = self._spawn(name)

    def _spawn(self, name: str) -> subprocess.Popen:
        argv, popen_kwargs, _ = self._specs[name]
        return subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            **popen_kwargs,
        )

    def _try_restart(self, name: str, code: int) -> bool:
        """Relaunch a crashed member if the policy allows; True on relaunch."""
        _, _, restartable = self._specs[name]
        if (
            self.restart != "on-crash"
            or not restartable
            or code in _NO_RESTART_CODES
        ):
            return False
        if self.restarts[name] >= self.max_restarts:
            self.restart_log.append(
                f"{name}: exit {code}, restart budget"
                f" ({self.max_restarts}) exhausted"
            )
            return False
        # Reap the dead incarnation's pipes before replacing it.
        _, stderr = self.procs[name].communicate()
        self.restarts[name] += 1
        attempt = self.restarts[name]
        tail = "\n".join((stderr or "").strip().splitlines()[-3:])
        self.restart_log.append(
            f"{name}: exit {code}, relaunch {attempt}/{self.max_restarts}"
            + (f" (stderr tail: {tail})" if tail else "")
        )
        _time.sleep(self.backoff * attempt)
        self.procs[name] = self._spawn(name)
        return True

    def _elapsed(self) -> float:
        if self._wait_started is None:
            return 0.0
        return _time.monotonic() - self._wait_started

    def _is_healthy(self, name: str) -> bool:
        """Still running, or finished its work cleanly."""
        proc = self.procs.get(name)
        return proc is not None and proc.poll() in (None, 0)

    def _standbys_for(self, name: str) -> list[str]:
        return [s for s, p in self.standby_of.items() if p == name]

    def _try_failover(self, name: str, code: int) -> bool:
        """Absorb a replica-group member's crash; True when tolerated.

        A crashed primary with a live standby is *promoted over*: the
        standby becomes the group's authority (it verifies its own views
        before exiting, so fleet success still implies oracle success).
        A crashed standby with a healthy primary is simply dropped.
        Clean failures are answers, not accidents -- never absorbed.
        """
        if code in _NO_RESTART_CODES:
            return False
        standbys = [s for s in self._standbys_for(name) if self._is_healthy(s)]
        if standbys:
            promoted = standbys[0]
            _, stderr = self.procs[name].communicate()
            del self.procs[name]
            self.standby_of.pop(promoted, None)
            self.promoted[name] = promoted
            self.failover_log.append(
                f"[t+{self._elapsed():.2f}s] {name}: exit {code},"
                f" promoted standby {promoted}"
            )
            return True
        primary = self.standby_of.get(name)
        if primary is not None and self._is_healthy(primary):
            self.procs[name].communicate()
            del self.procs[name]
            del self.standby_of[name]
            self.failover_log.append(
                f"[t+{self._elapsed():.2f}s] {name}: exit {code}, standby"
                f" death tolerated (primary {primary} healthy)"
            )
            return True
        return False

    def running(self) -> list[str]:
        return [
            name for name, proc in self.procs.items() if proc.poll() is None
        ]

    def terminate_all(self, grace: float = 5.0) -> None:
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.terminate()
        deadline = _time.monotonic() + grace
        for proc in self.procs.values():
            if proc.poll() is None:
                try:
                    proc.wait(timeout=max(0.1, deadline - _time.monotonic()))
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

    def wait(self, timeout: float = 300.0) -> dict[str, str]:
        """Block until every member exits 0; return each member's stdout.

        Raises :class:`ShardCrashed` on the first non-zero exit (after
        terminating the remaining members) and :class:`TimeoutError` when
        the fleet outlives ``timeout`` seconds.
        """
        deadline = _time.monotonic() + timeout
        self._wait_started = _time.monotonic()
        try:
            while True:
                all_done = True
                for name, proc in list(self.procs.items()):
                    code = proc.poll()
                    if code is None:
                        all_done = False
                    elif code != 0:
                        if self._try_failover(name, code):
                            continue
                        if self._try_restart(name, code):
                            all_done = False
                            continue
                        _, stderr = proc.communicate()
                        self.terminate_all()
                        tail = "\n".join(
                            (stderr or "").strip().splitlines()[-8:]
                        )
                        raise ShardCrashed(
                            f"process {name!r} exited {code}"
                            + (f"; stderr tail:\n{tail}" if tail else "")
                        )
                if all_done:
                    return {
                        name: proc.communicate()[0] or ""
                        for name, proc in self.procs.items()
                    }
                if _time.monotonic() >= deadline:
                    self.terminate_all()
                    raise TimeoutError(
                        f"sharded deployment still running after {timeout}s:"
                        f" {self.running()}"
                    )
                _time.sleep(self.poll_interval)
        except BaseException:
            self.terminate_all()
            raise


def build_sharded_supervisor(
    spec: FleetSpec,
    restart: str = "never",
    max_restarts: int = 2,
    linger: float = 1.0,
) -> ShardSupervisor:
    """Launch ``spec``'s fleet and return its (not yet waited) supervisor.

    One ``repro serve-shard`` per replica-group member, one
    ``repro serve-source`` per source, every command line derived from
    the spec by :func:`~repro.runtime.shard.spec.child_argvs` -- which
    raises :class:`ValueError` before anything is spawned if the spec
    asks for something a command line cannot say.  Processes speak TCP,
    so ``spec.transport`` is overridden, not consulted.

    With ``spec.durable_dir`` each member persists under
    ``spec.member_dir(member)`` and primaries are launched
    ``restartable``; combined with ``restart="on-crash"`` a SIGKILLed
    shard is relaunched and recovers from its durable directory while
    the sources retransmit their unacked frames.  With ``spec.replicas``
    each standby is launched with ``--standby-of`` and registered via
    ``standby_for`` -- so a SIGKILLed primary is *promoted over* (the
    standby carries the shard and the fleet exits 0) rather than failing
    or restarting the deployment.
    """
    spec = dataclasses.replace(spec, transport="tcp")
    repro = [sys.executable, "-m", "repro"]
    argvs = child_argvs(spec, linger)
    supervisor = ShardSupervisor(restart=restart, max_restarts=max_restarts)
    for member in spec.rplan.members:
        supervisor.launch(
            member_name(member),
            repro + argvs.pop(member_name(member)),
            restartable=spec.durable_dir is not None and member.is_primary,
            standby_for=(
                None if member.is_primary else f"shard{member.shard}"
            ),
        )
    for name, argv in argvs.items():
        supervisor.launch(name, repro + argv)
    return supervisor


def launch_sharded_processes(
    config: ExperimentConfig,
    restart: str = "never",
    max_restarts: int = 2,
    linger: float = 1.0,
    **fields,
) -> dict[str, str]:
    """Run one sharded deployment as real OS processes, supervised.

    ``fields`` are :class:`FleetSpec`'s.  Launches the fleet via
    :func:`build_sharded_supervisor`, waits ``timeout`` seconds for it
    to exit cleanly, and returns each member's captured stdout.  Shards
    verify their views before exiting, so a clean fleet exit means every
    view passed its claimed consistency level; any member exiting
    non-zero (and not absorbed by the restart or failover policy) kills
    the rest and raises :class:`ShardCrashed`.
    """
    spec = FleetSpec(config, **fields)
    supervisor = build_sharded_supervisor(spec, restart, max_restarts, linger)
    return supervisor.wait(timeout=spec.timeout)


__all__ = [
    "CLEAN_FAILURE_EXIT",
    "ShardCrashed",
    "ShardSupervisor",
    "build_sharded_supervisor",
    "launch_sharded_processes",
]

"""The simulator, byte for byte: one SHA-256 per run, checked in.

Every paper table comes out of :func:`run_experiment`, so a rewiring of
the simulator must not move a single byte of what it produces.  Each
case hashes the final view's canonical bytes, ``sim_time``, the message
metrics (less the process-global ``predicate_cache_*`` counters), the
``(source, seq)`` delivery order, every install's claimed vector, the
classified level and the trace text with request ids masked (they come
from a process-wide counter).

The simulator hosts sharded fleets too: :func:`build_sites` over
:class:`SimLinks` builds a :class:`FleetSpec`'s members and sources the
way ``run_sharded`` does on the runtime, and each view of a 2-member
``sweep`` and ``batched-sweep`` fleet is pinned the same way.

Never regenerate the expected digests to make this test pass: a digest
that moves means a simulator number moved.
"""

import hashlib
import json
import re

import pytest

from types import SimpleNamespace

from repro.harness.config import ExperimentConfig
from repro.harness.runner import built, run_experiment
from repro.harness.sites import build_sites
from repro.runtime.shard import FleetSpec
from repro.simulation.kernel import Simulator
from repro.simulation.links import SimLinks
from repro.simulation.metrics import MetricsCollector
from repro.simulation.rng import RngRegistry
from repro.warehouse.registry import ALGORITHMS, algorithm_info
from repro.warehouse.sharding import canonical_view_bytes

BASE = dict(n_sources=3, n_updates=16, mean_interarrival=4.0)

CASES = {
    **{
        f"{algorithm}-s{seed}": dict(algorithm=algorithm, seed=seed)
        for algorithm in ALGORITHMS
        for seed in (0, 1)
    },
    "sweep-sqlite": dict(algorithm="sweep", backend="sqlite"),
    "sweep-trace": dict(algorithm="sweep", trace=True),
    "sweep-no-fifo": dict(algorithm="sweep", fifo_channels=False),
    "sweep-locality-auto": dict(algorithm="sweep", locality="auto"),
    **{
        f"batched-sweep-{mode}": dict(algorithm="batched-sweep", locality=mode)
        for mode in ("aux", "cache", "auto")
    },
    "batched-sweep-max3": dict(algorithm="batched-sweep", batch_max=3),
    "batched-sweep-adaptive": dict(
        algorithm="batched-sweep", batch_adaptive=True, batch_max=8
    ),
}

#: case -> SHA-256 of :func:`fingerprint`.
EXPECTED = dict(
    line.split()
    for line in """
batched-sweep-adaptive 7f6c5590e9310cd44362094cb8f8f64533157f24b397fa6af3a0979f3c6177b2
batched-sweep-auto f1bbe241892709abd8558ed89a46954c2f689f4c69c26170aeb42c3785250791
batched-sweep-aux f1bbe241892709abd8558ed89a46954c2f689f4c69c26170aeb42c3785250791
batched-sweep-cache c73cdcca1c6f61234f136ae7650e26b2b1413c112c5174317728fc5ae5183ea2
batched-sweep-max3 69df5c49096da7b607a2a528684a4a550529d9074c24c709ec157e25d60665a4
batched-sweep-s0 7ab6d8a32f6b8ddf7549f0b4b68e7cbbc17b67c24857cf8fe7ad6fb5a8fac995
batched-sweep-s1 236859bc1ee8ff5e540b1cf269e94e0a481ec2cc2ab677f29144f8b63376f9a5
bootstrap-sweep-s0 c21acf072354320c451a16a24b09b407265754f6a331b07988dc5e8906d02046
bootstrap-sweep-s1 f2e4d2f74d56dd5e950050424371c9ed370d6c2b168bd36cb6459cde523a1d3a
c-strobe-s0 1af5d898f405a71403d00afc812d4d57509734117d3afd829cb32bf030189b40
c-strobe-s1 cae667d525dfa8bf08289a72240b98518db8f9029429b90efdeb74de76c28189
convergent-s0 4ec2f4955f6e155dfc4f32eb7cc60f3579c381309c3c8ba33bedbcfe0a0b5939
convergent-s1 d259949f1e2a15f2b1469c009ac7b1b0fffbe8b4b793404b81b1c89b3a29837a
eca-s0 7daeec88c313c91df266900c881bccc1633a5a640caa199e1b2f02f52c5e098b
eca-s1 bfa1368876a9cfeb52926cde1833e2f785ee8e7afea472dab24d0af0bc28a0ad
global-sweep-s0 dc7dfd1ceffbd40821dc7e7dce35574f68ed8ca0124ea376f743273767a7110b
global-sweep-s1 db44060a4bcbd2d06c35558c03493c9eb85c1c61747e88a15adb4068e75b04dd
nested-sweep-s0 bcc4c32d82ef0b72432be455c4f840e51da39eb6b467189a7968f42c49114430
nested-sweep-s1 21f13c14f1d6949bf637ef378a17f6b50e17420eacb1b563aa2d0005869fcecb
pipelined-sweep-s0 405a3e85cad584bf9be11a4505b6813f5a80f64661f51390c8d471c5ae1af7b9
pipelined-sweep-s1 547d60aae78a594828dde5d0af800a1b8e060bd35013d2dd59cc5194af1340fe
recompute-s0 89c219e0cf8b95e41cd070f41a5037a73e281356432d0120fe050feafc9ef16d
recompute-s1 a44627f620bf23d95883c34ca903e07db6c8baae4353626d79795e49d47380e3
strobe-s0 c80e9debe6a6a4a35937ac6f1e3a2744be7b072757ee441c36467a72d582e518
strobe-s1 b17e0187c98e6cfbe99bdb5f860e93b536ad57b56ced4289b939dbfbd4e705c0
sweep-locality-auto 8ed937c645d0c45f51339fcaead5efb68c97bd275197dc59ffd3c2829548d776
sweep-no-fifo 5c16e34fa63da4793a56e250d30ead5291f791fac4ccb61e367bb7742424ad42
sweep-s0 dc7dfd1ceffbd40821dc7e7dce35574f68ed8ca0124ea376f743273767a7110b
sweep-s1 db44060a4bcbd2d06c35558c03493c9eb85c1c61747e88a15adb4068e75b04dd
sweep-sqlite dc7dfd1ceffbd40821dc7e7dce35574f68ed8ca0124ea376f743273767a7110b
sweep-trace 20457ea96f946be7a755489f94293b7cc00322ede2ec90b012f33780d35b2934
""".splitlines()
    if line
)


def fingerprint(result) -> str:
    """SHA-256 over everything a simulator run produces."""
    summary = result.metrics.summary()
    summary["counters"] = sorted(
        (name, count)
        for name, count in summary["counters"].items()
        if not name.startswith("predicate_cache_")
    )
    trace = result.trace.format() if result.trace is not None else ""
    parts = [
        canonical_view_bytes(result.final_view).decode(),
        repr(result.sim_time),
        json.dumps(summary, sort_keys=True),
        repr([(n.source_index, n.seq) for n in result.recorder.deliveries]),
        repr(
            [
                sorted((snap.claimed_vector or {}).items())
                for snap in result.recorder.snapshots
            ]
        ),
        repr(result.classified_level),
        re.sub(r"req=\d+", "req=N", trace),
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulator_output_is_pinned(case):
    result = run_experiment(ExperimentConfig(**BASE, **CASES[case]))
    assert fingerprint(result) == EXPECTED[case]



# ---------------------------------------------------------------------------
# Sharded fleets: two members, four views, on the simulator
# ---------------------------------------------------------------------------

FLEET_ALGORITHMS = ("sweep", "batched-sweep")

#: "<algorithm>/<view>" -> SHA-256 of :func:`fingerprint`.
FLEET_EXPECTED = dict(
    line.split()
    for line in """
batched-sweep/V 47f848dc3365a0c64eb3929aeeb8cf05e3b10c0525c0e48d978b74a39e2a4326
batched-sweep/V#s1 48b68d1861b7659875ed21315a21a78214eebcaecd6c7c3982739451fd2488de
batched-sweep/V#s2 d2df0b3f6124e87f85faf6e6431bd4adf90af27a78be8b9b7e7f4aa9568a2f07
batched-sweep/V#s3 a2e124d0ee8eeddb97334ba4c6fdc27bc267bcbc808642e4b2ead79f6379eeb9
sweep/V 4fb25b16f7fa451caec99eb22668a7ec2b516965b85c6bb91766f35a3b41424c
sweep/V#s1 59eb14334eb90e36f14c5ecc34a02b44c45330850e825c77b2c476a2eda1c1ee
sweep/V#s2 517cfc58a4ed4b12d953dd84f508ddea65999bb593b6b89a46181d6355b43fb4
sweep/V#s3 c0d7438263c187de2539db34356f4de3b53f4dacd5ecf0902a96fb4c0c301dc1
""".splitlines()
    if line
)


def run_simulated_fleet(algorithm: str) -> dict:
    """View name -> a result-shaped record of that view, for a 2-member
    fleet of ``algorithm`` hosting a 4-view family on the simulator."""
    config = ExperimentConfig(**BASE, algorithm=algorithm, n_views=4)
    spec = FleetSpec(config, n_shards=2, strategy="round-robin")
    sim, metrics, rngs = Simulator(), MetricsCollector(), RngRegistry(config.seed)
    sites = built(
        build_sites(
            sim,
            SimLinks(sim, config, rngs, metrics),
            config,
            spec.workload,
            metrics,
            plan=spec.site_plan(),
        )
    )
    sim.run(max_events=config.max_events)
    sites.close()
    views = {}
    for site in sites.warehouses.values():
        for name, recorder in site.final_recorders().items():
            views[name] = SimpleNamespace(
                final_view=site.warehouse.view_contents(name),
                sim_time=sim.now,
                metrics=metrics,
                recorder=recorder,
                classified_level=recorder.classify(
                    max_vectors=config.max_check_vectors
                ),
                trace=None,
            )
    return views


@pytest.mark.parametrize("algorithm", FLEET_ALGORITHMS)
def test_simulated_sharded_fleet_is_pinned(algorithm):
    views = run_simulated_fleet(algorithm)
    claimed = algorithm_info(algorithm).claimed_consistency
    assert len(views) == 4
    for name, view in sorted(views.items()):
        assert view.classified_level >= claimed, name
        assert fingerprint(view) == FLEET_EXPECTED[f"{algorithm}/{name}"], name

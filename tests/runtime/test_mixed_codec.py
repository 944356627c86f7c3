"""Mixed-version fleets negotiate down and stay exactly consistent.

The handshake promise: ``--codec-version`` is a *speak-at-most* knob in
both directions.  A warehouse configured for the binary codec (v3) must
interoperate with a source that only speaks v1 -- the per-channel
handshake settles on the pairwise minimum, and the run's result (final
view, oracle verdict) is indistinguishable from a single-version fleet.
"""

import pytest

from repro.consistency.levels import ConsistencyLevel
from repro.harness.config import ExperimentConfig
from repro.harness.runner import run_experiment
from repro.runtime import TcpChannelConfig, run_distributed


def _config(**overrides):
    base = dict(
        algorithm="sweep",
        n_sources=3,
        n_updates=10,
        seed=42,
        mean_interarrival=5.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _session_versions(counters):
    return {
        int(name.rsplit("v", 1)[1]): count
        for name, count in counters.items()
        if name.startswith("wire_sessions_v") and count
    }


def test_v3_warehouse_with_v1_only_sources_downgrades_and_completes():
    config = _config()
    baseline = run_experiment(config)
    result = run_distributed(
        config,
        transport="tcp",
        time_scale=0.001,
        timeout=60.0,
        tcp_config=TcpChannelConfig(codec_version=3),
        source_tcp_config=TcpChannelConfig(codec_version=1),
    )
    # Every session settled on v1: the sources advertise at most 1, and
    # their listeners cap the warehouse's v3 hello the same way.
    assert set(_session_versions(result.metrics.counters)) == {1}
    assert result.final_view == baseline.final_view
    assert result.recorder.updates_delivered == config.n_updates
    assert result.classified_level == ConsistencyLevel.COMPLETE


@pytest.mark.parametrize(
    "warehouse_v,source_v,expect",
    [(3, 3, 3), (3, 2, 2), (2, 3, 2), (1, 3, 1)],
)
def test_pairwise_minimum_wins(warehouse_v, source_v, expect):
    result = run_distributed(
        _config(n_updates=4),
        transport="tcp",
        time_scale=0.001,
        timeout=60.0,
        tcp_config=TcpChannelConfig(codec_version=warehouse_v),
        source_tcp_config=TcpChannelConfig(codec_version=source_v),
    )
    assert set(_session_versions(result.metrics.counters)) == {expect}
    assert result.classified_level == ConsistencyLevel.COMPLETE


def test_uniform_v3_fleet_is_oracle_equivalent_to_v2():
    config = _config()
    runs = {
        version: run_distributed(
            config,
            transport="tcp",
            time_scale=0.001,
            timeout=60.0,
            tcp_config=TcpChannelConfig(codec_version=version),
        )
        for version in (2, 3)
    }
    assert runs[2].final_view == runs[3].final_view
    for result in runs.values():
        assert result.classified_level == ConsistencyLevel.COMPLETE
    assert set(_session_versions(runs[3].metrics.counters)) == {3}


# What v3 buys on bytes: one packed record per message, rows as int
# columns of the narrowest width, where v2 spells every key and row out
# as JSON text (measured 3.6-3.9x).
V3_BYTES_REDUCTION = 2.0


@pytest.mark.parametrize("algorithm", ["sweep", "batched-sweep"])
def test_v3_halves_the_serialized_bytes_of_a_saturated_run(algorithm):
    # 30 updates: the oracle's classify pass, not the run, is what costs.
    config = _config(
        algorithm=algorithm, n_updates=30, seed=7, mean_interarrival=0.01
    )
    v2, v3 = (
        run_distributed(
            config,
            transport="tcp",
            time_scale=0.0001,
            timeout=60.0,
            tcp_config=TcpChannelConfig(codec_version=version),
        )
        for version in (2, 3)
    )
    # Pre-compression bytes: the codec's own footprint, zlib factored out.
    assert v2.metrics.counters["wire_bytes_precompress"] >= (
        V3_BYTES_REDUCTION * v3.metrics.counters["wire_bytes_precompress"]
    )
    assert (
        v3.metrics.counters["updates_installed"]
        == v2.metrics.counters["updates_installed"]
        == config.n_updates
    )
    assert v3.classified_level == v2.classified_level

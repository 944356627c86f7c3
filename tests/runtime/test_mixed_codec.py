"""What the v3 fleet saves on the wire against the v2 fleet it replaced.

Every process now writes packed v3 records; the v2 JSON envelope writer
is gone, so a v2 fleet cannot run beside a v3 one any more.  Its
footprint on the saturated runs below was recorded before the writer was
deleted, and each v3 run is held to it: same configuration, same
outcome, at most half the serialized bytes.
"""

import pytest

from repro.consistency.levels import ConsistencyLevel
from repro.harness.config import ExperimentConfig
from repro.runtime import run_distributed
from tests.runtime.wire_fixtures import V3_BYTES_REDUCTION

#: The v2 fleet on each saturated run: ``wire_bytes_precompress`` (the
#: least of ten runs; the JSON text spells ``applied_at`` out, so it
#: varied by under 0.5 %) and the oracle's verdict, the same in all ten.
V2_SATURATED_RUN = {
    "sweep": (30599, ConsistencyLevel.COMPLETE),
    "batched-sweep": (10524, ConsistencyLevel.STRONG),
}


@pytest.mark.parametrize("algorithm", ["sweep", "batched-sweep"])
def test_v3_halves_the_serialized_bytes_of_a_saturated_run(algorithm):
    # 30 updates: the oracle's classify pass, not the run, is what costs.
    config = ExperimentConfig(
        algorithm=algorithm,
        n_sources=3,
        n_updates=30,
        seed=7,
        mean_interarrival=0.01,
    )
    v3 = run_distributed(
        config, transport="tcp", time_scale=0.0001, timeout=60.0
    )
    v2_bytes, v2_level = V2_SATURATED_RUN[algorithm]
    # Pre-compression bytes: the codec's own footprint, zlib factored out.
    assert v2_bytes >= (
        V3_BYTES_REDUCTION * v3.metrics.counters["wire_bytes_precompress"]
    )
    assert v3.metrics.counters["updates_installed"] == config.n_updates
    assert v3.classified_level == v2_level

"""Adaptive drain-cap tests (:class:`repro.warehouse.batched.AdaptiveBatchCap`).

The controller is pure bookkeeping -- identical observation sequences
must yield identical cap sequences -- so the unit tests feed synthetic
depth/lag streams and assert the multiplicative grow/shrink dynamics;
the integration test runs the batched scheduler with ``adaptive=True``
on a saturated workload and checks the cap actually moved while the
ceiling and the strong-consistency verdict both held.
"""

import pytest

from repro.consistency.levels import ConsistencyLevel
from repro.harness.config import ExperimentConfig
from repro.harness.runner import run_experiment
from repro.warehouse.batched import AdaptiveBatchCap


def test_cap_grows_under_sustained_queue_depth():
    cap = AdaptiveBatchCap(ceiling=64, patience=2)
    seen = [cap.observe(50) for _ in range(12)]
    assert seen[0] == 1  # starts at the floor
    assert seen[-1] == 64  # doubles its way up to the ceiling
    assert seen == sorted(seen)  # growth is monotone under constant pressure


def test_cap_never_exceeds_ceiling():
    cap = AdaptiveBatchCap(ceiling=8)
    for _ in range(50):
        assert cap.observe(10_000, install_lag=10_000.0) <= 8


def test_unbounded_ceiling_keeps_doubling():
    cap = AdaptiveBatchCap(ceiling=0, patience=1)
    for _ in range(10):
        cap.observe(1_000_000)
    assert cap.cap == 2**10


def test_cap_shrinks_back_to_floor_when_queue_drains():
    cap = AdaptiveBatchCap(ceiling=64, patience=2)
    for _ in range(12):
        cap.observe(50)
    assert cap.cap == 64
    for _ in range(40):
        cap.observe(0, install_lag=0.0)
    assert cap.cap == 1


def test_install_lag_alone_triggers_growth():
    cap = AdaptiveBatchCap(ceiling=16, patience=2, lag_threshold=50.0)
    for _ in range(6):
        cap.observe(0, install_lag=500.0)
    assert cap.cap > 1


def test_one_burst_does_not_move_the_cap():
    """Patience + EWMA: a single spike is not sustained pressure."""
    cap = AdaptiveBatchCap(ceiling=64, patience=2)
    cap.observe(50)
    assert cap.cap == 1
    for _ in range(10):
        cap.observe(0)
    assert cap.cap == 1


def test_initial_is_clamped_to_ceiling_and_floor():
    assert AdaptiveBatchCap(ceiling=8, initial=32).cap == 8
    assert AdaptiveBatchCap(floor=4, initial=2).cap == 4
    assert AdaptiveBatchCap(initial=16).cap == 16


@pytest.mark.parametrize(
    "kwargs",
    [
        {"floor": 0},
        {"floor": 4, "ceiling": 2},
        {"alpha": 0.0},
        {"alpha": 1.5},
        {"patience": 0},
    ],
)
def test_constructor_validation(kwargs):
    with pytest.raises(ValueError):
        AdaptiveBatchCap(**kwargs)


def test_identical_observations_yield_identical_caps():
    stream = [30, 30, 5, 0, 80, 80, 80, 0, 0, 0]
    a = AdaptiveBatchCap(ceiling=32)
    b = AdaptiveBatchCap(ceiling=32)
    assert [a.observe(d) for d in stream] == [b.observe(d) for d in stream]


def test_adaptive_batched_sweep_respects_ceiling_and_stays_strong():
    """Saturated run: the cap grows, batches stay bounded, verdict holds."""
    config = ExperimentConfig(
        algorithm="batched-sweep",
        n_sources=3,
        n_updates=40,
        seed=11,
        mean_interarrival=0.01,
        batch_max=4,
        batch_adaptive=True,
        check_consistency=True,
    )
    result = run_experiment(config)
    caps = result.metrics.observations["adaptive_cap"]
    sizes = result.metrics.observations["batch_size"]
    assert caps, "adaptive scheduler must record its cap per drain"
    assert max(caps) <= 4 and min(caps) >= 1
    assert max(caps) > 1  # saturation actually grew the cap
    assert max(sizes) <= 4  # no drain ever exceeded the ceiling
    assert result.consistency[ConsistencyLevel.STRONG].ok


# A drain of k updates is one composite sweep -- 2(n-1) messages, one
# install -- where per-update SWEEP pays both k times: under a standing
# backlog the scheduler must at least halve the message bill.
SATURATED_MESSAGE_SHARE = 0.5


@pytest.mark.parametrize("batch_max", [0, 16])  # whole-queue and capped drains
def test_saturated_batching_amortizes_installs_and_messages(batch_max):
    kwargs = dict(n_sources=3, n_updates=200, seed=7, mean_interarrival=0.01)
    sweep = run_experiment(ExperimentConfig(algorithm="sweep", **kwargs))
    batched = run_experiment(
        ExperimentConfig(
            algorithm="batched-sweep", batch_max=batch_max, **kwargs
        )
    )
    counters = batched.metrics.counters
    assert counters["updates_installed"] == 200
    assert counters["installs"] < 200
    assert batched.messages_total < (
        SATURATED_MESSAGE_SHARE * sweep.messages_total
    )
    assert batched.classified_level >= ConsistencyLevel.STRONG

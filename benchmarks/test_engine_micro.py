"""Simulator microbenchmarks — how fast the reproduction itself runs.

These wall-clock numbers describe the Python simulator, not the paper
(Figure 8's rates come from the cycle model). They exist to keep the
reproduction usable: regressions in the stepped executor or the index
walks show up here first.
"""

import pytest

from repro.core import EngineConfig, MessageEnvelope, OptimisticMatcher, ReceiveRequest

N_MESSAGES = 256


def drive(
    block_threads: int, bins: int, same_key: bool, **config: bool
) -> OptimisticMatcher:
    engine = OptimisticMatcher(
        EngineConfig(
            bins=bins, block_threads=block_threads, max_receives=2 * N_MESSAGES, **config
        )
    )
    for i in range(N_MESSAGES):
        engine.post_receive(ReceiveRequest(source=0, tag=7 if same_key else i))
    for i in range(N_MESSAGES):
        engine.submit_message(
            MessageEnvelope(source=0, tag=7 if same_key else i, send_seq=i)
        )
    engine.process_all()
    return engine


@pytest.mark.parametrize("block_threads", [1, 8, 32])
def test_engine_throughput_by_width(benchmark, block_threads):
    engine = benchmark(drive, block_threads, 512, False)
    assert engine.stats.expected_matches == N_MESSAGES


@pytest.mark.parametrize("bins", [1, 32, 512])
def test_engine_throughput_by_bins(benchmark, bins):
    engine = benchmark(drive, 8, bins, False)
    assert engine.stats.expected_matches == N_MESSAGES


def test_engine_throughput_conflict_heavy(benchmark):
    engine = benchmark(drive, 8, 512, True)
    assert engine.stats.expected_matches == N_MESSAGES


def test_engine_throughput_slow_path(benchmark):
    """32-wide same-key blocks with the fast path and early booking off:
    every thread above 0 conflicts and waits on the settled prefix."""
    engine = benchmark(
        drive, 32, 512, True, enable_fast_path=False, early_booking_check=False
    )
    assert engine.stats.expected_matches == N_MESSAGES
    assert engine.stats.slow_path == N_MESSAGES - N_MESSAGES // 32


def test_serial_oracle_throughput(benchmark):
    from repro.matching import ListMatcher

    def run():
        matcher = ListMatcher()
        for i in range(N_MESSAGES):
            matcher.post_receive(ReceiveRequest(source=0, tag=i))
        for i in range(N_MESSAGES):
            matcher.incoming_message(MessageEnvelope(source=0, tag=i, send_seq=i))
        return matcher

    matcher = benchmark(run)
    assert matcher.posted_count == 0

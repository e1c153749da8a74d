"""The five programming models: correctness and qualitative ordering."""

import pytest

from repro.workloads import checksum, payload, words
from repro.workloads.models import (
    MODELS,
    run_parallel_sum,
    run_producer_consumer,
)


@pytest.mark.parametrize("model", MODELS)
def test_stream_model_delivers_verified_data(model):
    metrics = run_producer_consumer(model, nbytes=8 * 1024, chunk=1024)
    assert metrics["bytes"] == 8 * 1024
    assert metrics["cycles"] > 0


@pytest.mark.parametrize("model", MODELS)
def test_parallel_sum_model_correct(model):
    metrics = run_parallel_sum(model, nwords=1024, nworkers=3, ncpus=3)
    assert metrics["cycles"] > 0
    assert metrics["nworkers"] == 3


def test_stream_results_are_deterministic():
    a = run_producer_consumer("share_group", nbytes=8 * 1024, chunk=512)
    b = run_producer_consumer("share_group", nbytes=8 * 1024, chunk=512)
    assert a == b


def test_small_chunk_ordering_matches_paper():
    """At fine granularity the shared-VM models must beat the queueing
    models — the crux of the paper's section 3 argument."""
    cycles = {
        model: run_producer_consumer(model, nbytes=16 * 1024, chunk=128)["cycles"]
        for model in MODELS
    }
    for queueing in ("v7_pipes", "sysv_shm", "bsd_sockets"):
        assert cycles["share_group"] < cycles[queueing]
        assert cycles["mach_threads"] < cycles[queueing]


def test_models_scale_with_transfer_size():
    small = run_producer_consumer("v7_pipes", nbytes=4 * 1024, chunk=512)
    large = run_producer_consumer("v7_pipes", nbytes=16 * 1024, chunk=512)
    assert large["cycles"] > small["cycles"]


def test_sum_more_workers_helps_on_big_machine():
    one = run_parallel_sum("share_group", nwords=4096, nworkers=1, ncpus=4)
    four = run_parallel_sum("share_group", nwords=4096, nworkers=4, ncpus=4)
    assert four["cycles"] < one["cycles"]


def test_generators_are_pure():
    assert payload(100, 7) == payload(100, 7)
    assert payload(100, 7) != payload(100, 8)
    assert words(10, 1) == words(10, 1)
    assert checksum(b"ab") != checksum(b"ba"), "order sensitivity"

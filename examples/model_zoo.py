#!/usr/bin/env python
"""Figures 1-4, executable: the same application in five UNIX worlds.

Runs the producer/consumer stream and the data-parallel sum in each of
the paper's programming models — Version-7 pipes, System V shm+sem, BSD
sockets, Mach-style threads, and IRIX share groups — on identical
simulated hardware, and prints the comparison (this is experiment E10's
workload as a friendly script).

Run:  python examples/model_zoo.py
"""

from repro.workloads.models import MODELS, run_parallel_sum, run_producer_consumer

DESCRIPTIONS = {
    "v7_pipes": "Figure 1: independent processes, pipes only",
    "sysv_shm": "Figure 2: SysV shared memory + kernel semaphores",
    "bsd_sockets": "Figure 2: BSD socket byte streams",
    "mach_threads": "Figure 3: share-everything threads in one task",
    "share_group": "Figure 4: sproc() share group (this paper)",
}

if __name__ == "__main__":
    print("one application, five programming models")
    print("=" * 72)
    print("%-13s %-42s" % ("model", "description"))
    print("-" * 72)
    for model in MODELS:
        print("%-13s %-42s" % (model, DESCRIPTIONS[model]))

    print()
    print("producer -> consumer, 32 KB in 256-byte chunks (fine-grained)")
    print("-" * 72)
    stream = {}
    for model in MODELS:
        metrics = run_producer_consumer(model, nbytes=32 * 1024, chunk=256)
        stream[model] = metrics["cycles"]
        print("  %-13s %10s cycles   %8.1f bytes/kcycle" % (
            model, "{:,}".format(metrics["cycles"]), metrics["bytes_per_kcycle"],
        ))

    print()
    print("data-parallel sum, 4096 words across 4 workers on 4 CPUs")
    print("-" * 72)
    for model in MODELS:
        metrics = run_parallel_sum(model, nwords=4096, nworkers=4)
        print("  %-13s %10s cycles" % (model, "{:,}".format(metrics["cycles"])))

    print()
    best_queueing = min(stream[m] for m in ("v7_pipes", "sysv_shm", "bsd_sockets"))
    print("share group vs best queueing model on the stream: %.1fx faster"
          % (best_queueing / stream["share_group"]))
    print("(every run's output is checksum-verified before timing counts)")

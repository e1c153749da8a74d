"""Randomized equivalence of the fast drain loop and its naive oracle.

One generated *script* — a pure-data schedule of cancellable events
(``Engine.schedule``), token entries (``Engine.schedule_call``), tail
hops that may run ahead (``Engine.hop``), cancels of pending and of
already-fired events, nested reschedules, cancel storms, and partial
drains via ``until`` / ``max_events`` — is executed against a
``loop="fast"`` and a ``loop="naive"`` engine.  The fast loop must
agree with the naive reference on the full firing log (time and label
of every callback), the final clock, ``events_processed``, what
remains pending, and which cancels found a pending entry.  This is the
randomized backstop behind the workload-level fingerprint tests:
anything the hand-written cases miss, a seedful of scripts won't.
"""

import random

import pytest

from repro.sim.engine import Engine


def _gen_op(rng, next_id, depth, kind):
    oid = next_id[0]
    next_id[0] += 1
    # tail hops nest more often, so chains of them run ahead
    children = (
        _gen_ops(rng, next_id, depth + 1)
        if depth < 2 and rng.random() < (0.7 if kind == "tail" else 0.35)
        else []
    )
    return {
        "kind": kind,
        "id": oid,
        "delay": rng.choice([0, 0, 1, 2, 3, 5, 8, 13, 40, 1000]),
        "children": children,
    }


def _gen_ops(rng, next_id, depth):
    """A list of pure-data ops; ``children`` run when the parent fires.

    A ``tail`` op comes only last: it is the callback's tail hop.
    """
    ops = []
    for _ in range(rng.randrange(1, 6)):
        kind = rng.choices(
            ["schedule", "call", "cancel"], weights=[6, 3, 3]
        )[0]
        if kind == "cancel":
            # target anything issued so far: pending, fired (must be a
            # no-op), already-cancelled (idempotent), or a forward
            # reference that never resolves (skipped)
            ops.append({"kind": "cancel", "target": rng.randrange(next_id[0] + 2)})
            continue
        ops.append(_gen_op(rng, next_id, depth, kind))
    if rng.random() < 0.7:
        ops.append(_gen_op(rng, next_id, depth, "tail"))
    return ops


def _gen_script(seed):
    rng = random.Random(seed)
    next_id = [0]
    rounds = []
    for _ in range(rng.randrange(3, 7)):
        ops = _gen_ops(rng, next_id, 0)
        if rng.random() < 0.3:
            # a cancel storm: every entry is deleted as it is cancelled
            storm = []
            for _ in range(150):
                oid = next_id[0]
                next_id[0] += 1
                storm.append({
                    "kind": "schedule", "id": oid,
                    "delay": rng.randrange(500, 600), "children": [],
                })
                storm.append({"kind": "cancel", "target": oid})
            ops.extend(storm)
        run = rng.choice([
            ("all", None),
            ("until", rng.randrange(0, 50)),
            ("max", rng.randrange(1, 10)),
        ])
        rounds.append((ops, run))
    rounds.append(([], ("all", None)))  # final full drain
    return rounds


def _execute(script, loop):
    eng = Engine(loop=loop)
    log = []
    handles = {}
    fired = set()
    counts = {"ran_ahead": 0, "cancel_pending": 0, "cancel_fired": 0}

    def apply_op(op):
        kind = op["kind"]
        if kind == "cancel":
            handle = handles.get(op["target"])
            if handle is not None:
                before = eng.pending
                handle.cancel()
                if op["target"] in fired:
                    assert eng.pending == before  # its entry is gone
                    counts["cancel_fired"] += 1
                elif eng.pending == before - 1:
                    counts["cancel_pending"] += 1
            return
        token = (op["id"], tuple(ch.get("id") for ch in op["children"]))

        def fire(tok=None, _op=op):
            fired.add(_op["id"])
            log.append((eng.now, _op["id"]))
            for child in _op["children"]:
                apply_op(child)

        if kind == "schedule":  # the one cancellable entry point
            handles[op["id"]] = eng.schedule(op["delay"], fire)
        elif kind == "call":  # a token entry: no handle exists
            eng.schedule_call(op["delay"], fire, token)
        elif eng.hop(op["delay"], fire, token):
            counts["ran_ahead"] += 1
            fire(token)  # the continuation runs in this same pass

    for ops, (mode, arg) in script:
        for op in ops:
            apply_op(op)
        if mode == "all":
            eng.run()
        elif mode == "until":
            eng.run(until=eng.now + arg)
        else:
            eng.run(max_events=arg)
    eng.run()
    return {
        "log": log,
        "now": eng.now,
        "events_processed": eng.events_processed,
        "pending": eng.pending,
        **counts,
    }


SEEDS = range(24)


@pytest.mark.parametrize("seed", SEEDS)
def test_all_drains_agree_on_random_scripts(seed):
    script = _gen_script(seed)
    reference = _execute(script, "naive")
    assert reference.pop("ran_ahead") == 0  # the oracle never runs ahead
    assert reference["pending"] == 0  # the final drain leaves nothing owed
    assert reference["log"], "degenerate script: nothing fired"
    fast = _execute(script, "fast")
    fast.pop("ran_ahead")
    assert fast == reference


def test_random_scripts_exercise_run_ahead():
    """The tail ops are not vacuous: under the fast loop some of them
    run ahead."""
    ran = [_execute(_gen_script(seed), "fast")["ran_ahead"] for seed in SEEDS]
    assert sum(ran) >= len(SEEDS)


def test_random_scripts_cancel_pending_and_fired_entries():
    """The cancel ops are not vacuous either: across the seeds they
    delete pending entries and hit already-fired ones (a no-op)."""
    results = [_execute(_gen_script(seed), "fast") for seed in SEEDS]
    assert sum(r["cancel_pending"] for r in results) >= len(SEEDS)
    assert sum(r["cancel_fired"] for r in results) >= len(SEEDS)

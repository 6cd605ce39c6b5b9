"""The benchmark's own tests.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from targets import ClusterTarget  # noqa: E402
from workloads import WORKLOADS, Gate, fingerprint, make_specs  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_specs_same_under_one_seed_and_differ_under_another(workload):
    first = make_specs(workload, 3)
    assert first == make_specs(workload, 3)
    other = make_specs(workload, 4)
    assert first != other
    # Another seed reorders and reseeds the sessions; the mix stays put.
    mix = lambda specs: sorted((s.dataset, s.effective_privacy) for s in specs)  # noqa: E731
    assert mix(first) == mix(other)


def test_batch_mix_has_privacy_on_every_fourth_session():
    specs = make_specs("batch", 9)
    assert [s.compute_privacy for s in specs] == [i % 4 == 3 for i in range(len(specs))]
    assert {s.tenant for s in specs} == {"acme", "globex"}


def _small_specs():
    from repro.serve import SessionSpec

    return [
        SessionSpec(kind="stream", dataset="wine", k=3, windows=4, window_size=32,
                    shards=2, stream="abrupt", compute_privacy=False, seed=5),
        SessionSpec(kind="batch", dataset="wine", k=3, compute_privacy=True, seed=6),
    ]


def _run_service(specs):
    from repro.serve import MiningService

    with MiningService(max_inflight=2, shard_backend="thread", shard_workers=2) as service:
        return [fingerprint(r) for r in service.run([dataclasses.replace(s) for s in specs])]


def _wrapped_attributes():
    import importlib

    points = [(m, c, a) for m, c, a, _, _ in tracing.WRAPPED] + [
        ("repro.serve.engine", None, "execute_spec"),
        ("repro.streaming.sources", "StreamSource", "__iter__"),
        ("repro.sharding.backends", "MeteredBackend", "submit_map"),
        ("repro.sharding.backends", "MeteredBackend", "map"),
    ]
    state = []
    for module, cls, attr in points:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        state.append((owner, attr, vars(owner).get(attr)))
    return state


def test_traced_run_restores_every_wrapper_and_keeps_fingerprints():
    specs = _small_specs()
    before = _wrapped_attributes()
    untraced = _run_service(specs)
    with tracing.Tracer() as tracer:
        assert all(vars(owner).get(attr) is not original
                   for owner, attr, original in before)
        traced = _run_service(specs)
    assert traced == untraced
    for owner, attr, original in before:
        assert vars(owner).get(attr) is original, f"{owner}.{attr} not restored"
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"session", "simnet.crypto", "simnet.codec", "streaming.source",
            "streaming.ingest.push", "sharding.transform", "sharding.predict",
            "core.optimizer", "attacks", "mining.predict"} <= names
    # Pool-thread spans nest under a span of their own session.
    by_id = {span[tracing.SPAN_ID]: span for span in tracer.spans}
    transforms = [s for s in tracer.spans if s[tracing.NAME] == "sharding.transform"]
    assert all(s[tracing.PARENT] in by_id for s in transforms)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, "root", 0.0, 10.0, 0, 0, 0),
        (2, "a", 1.0, 4.0, 1, 0, 0),
        (3, "b", 3.0, 6.0, 1, 0, 0),  # overlaps a: union is 1..6
        (4, "c", 9.0, 12.0, 1, 0, 0),  # clipped to 9..10
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)


def test_gate_rejects_a_corrupted_fingerprint():
    from repro.serve import execute_spec

    spec = _small_specs()[0]
    result = execute_spec(spec)
    good = fingerprint(result)
    bad = ("0" if good[0] != "0" else "1") + good[1:]
    gate = Gate([good])
    assert gate.check(0, result) and gate.correct
    gate = Gate([bad])
    assert not gate.check(0, result)
    assert not gate.correct and gate.failed == 1 and gate.mismatches == [0]


def test_run_exits_nonzero_on_a_corrupted_reference(monkeypatch, capsys):
    real = run.references

    def corrupted(workload, specs):
        refs = real(workload, specs)
        return ["f" * 64] + refs[1:]

    monkeypatch.setattr(run, "references", corrupted)
    monkeypatch.setitem(run.SETUP_SAMPLES, "batch", 1)
    code = run.main(["--workload", "batch", "--seed", "2", "--seconds", "0.5"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert out["correct"] is False and out["failed"] >= 1


class _Session:
    session_id, replica = 7, 0

    def result(self):
        return "result"


class _Cluster:
    def __init__(self, landed):
        self.landed = landed

    def submit(self, spec):
        return _Session()

    def migrate(self, session_id, dst):
        assert dst == 1
        return self.landed


@pytest.mark.parametrize("landed", [None, 0])
def test_a_session_that_made_no_wire_hop_fails(landed):
    target = object.__new__(ClusterTarget)
    target.cluster = _Cluster(landed=1)
    assert target.run_one(None).result == "result"
    target.cluster = _Cluster(landed=landed)
    with pytest.raises(RuntimeError, match="not migrated"):
        target.run_one(None)


def test_peak_rss_counts_from_the_reset():
    if not run.reset_peak_rss():
        pytest.skip("the kernel refuses to reset VmHWM here")
    block = bytearray(64 * 2**20)
    block[::4096] = b"x" * len(block[::4096])
    high = run.peak_rss_mb("self")
    del block
    assert run.reset_peak_rss()
    assert run.peak_rss_mb("self") < high - 32


def test_declaration_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER

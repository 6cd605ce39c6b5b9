"""The benchmark's workloads: seeded session specs, references, fingerprints.

The program sees only the :class:`repro.serve.SessionSpec` objects built
here.  Every workload draws from a finite pool of distinct specs that the
closed loop cycles through, so each session's result can be compared with
a reference computed for its pool entry before the timed phase.

The pool is balanced by construction: every seed gives the same mix of
datasets (and, for ``batch``, of privacy sessions), and the seed varies
only the order, the tenants and the sessions' own seeds.  A seed must
change the inputs, not the amount of work, or the spread across seeds
would measure the mix instead of the program.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, List, Sequence

WORKLOADS = ("batch", "stream", "cluster-migrate")
TENANTS = ("acme", "globex")
BATCH_DATASETS = ("wine", "breast_w", "diabetes", "credit_g")
STREAM_DATASETS = ("wine", "breast_w", "diabetes", "credit_g", "iris")
# Stream sessions: 12 windows of 64 records, drift every session.
STREAM_WINDOWS = 12
STREAM_WINDOW_SIZE = 64
STREAM_CHECKPOINT_EVERY = 4
CLUSTER_CHECKPOINT_EVERY = 2
# Pool sizes: whole multiples of each workload's balanced block.
POOL_BLOCKS = {"batch": 2, "stream": 4, "cluster-migrate": 4}


def _rng(workload: str, seed: int) -> random.Random:
    # A string seed is hashed with SHA-512, so it is stable across runs
    # and interpreters (unlike hash()).
    return random.Random(f"perfbench/{workload}/{seed}")


def _batch_block(rng: random.Random) -> List[Dict[str, Any]]:
    """16 sessions: groups of four, privacy on every fourth session.

    The four privacy sessions cover each dataset once and the twelve
    others cover each dataset three times, in a seeded order.
    """
    plain = list(BATCH_DATASETS) * 3
    private = list(BATCH_DATASETS)
    rng.shuffle(plain)
    rng.shuffle(private)
    block = []
    for group in range(4):
        for dataset in plain[3 * group: 3 * group + 3]:
            block.append(dict(dataset=dataset, compute_privacy=False))
        block.append(dict(dataset=private[group], compute_privacy=True))
    return block


def _stream_block(rng: random.Random) -> List[Dict[str, Any]]:
    """One session per stream dataset, in a seeded order."""
    datasets = list(STREAM_DATASETS)
    rng.shuffle(datasets)
    return [dict(dataset=dataset) for dataset in datasets]


def make_specs(workload: str, seed: int) -> List[Any]:
    """The workload's spec pool under ``seed`` (same seed, same specs)."""
    from repro.serve import SessionSpec

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = _rng(workload, seed)
    entries: List[Dict[str, Any]] = []
    for _ in range(POOL_BLOCKS[workload]):
        entries.extend(
            _batch_block(rng) if workload == "batch" else _stream_block(rng)
        )
    specs = []
    for entry in entries:
        common = dict(
            k=3,
            tenant=TENANTS[rng.randrange(len(TENANTS))],
            seed=rng.randrange(2**31),
        )
        if workload == "batch":
            specs.append(SessionSpec(kind="batch", **common, **entry))
        else:
            specs.append(
                SessionSpec(
                    kind="stream",
                    windows=STREAM_WINDOWS,
                    window_size=STREAM_WINDOW_SIZE,
                    shards=2,
                    stream="abrupt",
                    skew=4,
                    watermark_delay=4,
                    late_policy="readmit",
                    compute_privacy=False,
                    **common,
                    **entry,
                )
            )
    return specs


def fingerprint(result: Any) -> str:
    """A digest of every deterministic field of a session result.

    Floats enter through ``repr``, so equal digests mean bit-identical
    accuracies, deviation series and protocol traffic.
    """
    if hasattr(result, "records_processed"):
        fields: Sequence[Any] = (
            "stream",
            result.records_processed,
            result.accuracy_perturbed,
            result.accuracy_baseline,
            result.deviation_series(),
            result.readaptations,
            result.messages_sent,
            result.bytes_sent,
            result.data_messages_sent,
            result.data_bytes_sent,
        )
    else:
        fields = (
            "batch",
            result.accuracy_perturbed,
            result.accuracy_standard,
            result.miner_result.n_train,
            result.miner_result.n_test,
            result.messages_sent,
            result.bytes_sent,
            result.virtual_duration,
            [profile.satisfaction for profile in result.risk_profiles],
        )
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def records_of(result: Any) -> int:
    """Rows mined: dataset rows for batch, records processed for stream."""
    if hasattr(result, "records_processed"):
        return result.records_processed
    return result.miner_result.n_train + result.miner_result.n_test


def references(workload: str, specs: Sequence[Any]) -> List[str]:
    """Reference fingerprints, one per pool entry.

    ``batch``/``stream``: each spec run alone and serially through
    ``execute_spec``.  ``cluster-migrate``: the same specs on the
    in-process single engine, which migration must match bit for bit.
    """
    from repro.serve import MiningService, execute_spec

    if workload == "cluster-migrate":
        with MiningService(max_inflight=1, shard_backend="serial") as service:
            return [fingerprint(result) for result in service.run(list(specs))]
    return [fingerprint(execute_spec(spec)) for spec in specs]


class Gate:
    """The correctness gate: every session against its pool reference."""

    def __init__(self, reference: Sequence[str]) -> None:
        self.reference = list(reference)
        self.attempted = 0
        self.matched = 0
        self.mismatches: List[int] = []
        self.errors: List[str] = []

    def check(self, index: int, result: Any) -> bool:
        """Count one finished session; True if its result is the reference."""
        self.attempted += 1
        ok = fingerprint(result) == self.reference[index % len(self.reference)]
        if ok:
            self.matched += 1
        else:
            self.mismatches.append(index)
        return ok

    def fail(self, index: int, exc: BaseException) -> None:
        """Count one session that raised or was refused."""
        self.attempted += 1
        self.errors.append(f"session {index}: {type(exc).__name__}: {exc}")

    @property
    def failed(self) -> int:
        return self.attempted - self.matched

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

"""What each workload runs its sessions on: a service or a process cluster.

``build_target`` is shared by the timed run and by the fresh-interpreter
set-up probe, so ``setup_s`` times exactly the object the workload uses.
Nothing here imports the program at module level: the probe starts its
clock before the first ``import repro``.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional

from workloads import CLUSTER_CHECKPOINT_EVERY, STREAM_CHECKPOINT_EVERY


class Outcome(NamedTuple):
    result: Any
    queue_seconds: Optional[float]  # None where the parent cannot see it


class ServiceTarget:
    """``batch``: one serial driver.  ``stream``: two drivers on a thread pool."""

    def __init__(self, workload: str, scratch: str) -> None:
        from repro.serve import MiningService

        if workload == "batch":
            self.service = MiningService(max_inflight=1, shard_backend="serial")
            self.every = None
        else:
            self.service = MiningService(
                max_inflight=2,
                shard_backend="thread",
                shard_workers=2,
                checkpoint_dir=scratch,
            )
            self.every = STREAM_CHECKPOINT_EVERY

    def run_one(self, spec: Any) -> Outcome:
        handle = self.service.submit(spec, checkpoint_every=self.every)
        result = handle.result()
        return Outcome(result, handle.queue_seconds)

    def children(self) -> List[int]:
        return []

    def counters(self) -> Dict[str, float]:
        stats = self.service.stats()
        return {
            "rejected": stats.rejected,
            "pool_busy_s": stats.pool.busy_seconds,
            "pool_workers": stats.pool.workers,
            "migrations": 0,
            "wire_bytes": 0,
        }

    def close(self) -> None:
        self.service.close()


class ClusterTarget:
    """``cluster-migrate``: two process replicas, one wire hop per session."""

    def __init__(self, scratch: str) -> None:
        from repro.cluster import ClusterController

        self.cluster = ClusterController(
            replicas=2,
            backend="process",
            shard_backend="serial",
            max_inflight=1,
            checkpoint_dir=scratch,
            checkpoint_every=CLUSTER_CHECKPOINT_EVERY,
        )

    def run_one(self, spec: Any) -> Outcome:
        session = self.cluster.submit(spec)
        dst = 1 - session.replica
        landed = self.cluster.migrate(session.session_id, dst)
        result = session.result()
        if landed != dst:
            # None: the session settled before a round boundary; the
            # source: the destination refused it.  Either way no wire hop.
            raise RuntimeError(
                f"session {session.session_id} was not migrated to replica "
                f"{dst} (migrate returned {landed!r})"
            )
        return Outcome(result, None)

    def children(self) -> List[int]:
        return [replica.pid for replica in self.cluster.replicas]

    def counters(self) -> Dict[str, float]:
        stats = self.cluster.stats()
        return {
            "rejected": stats.rejected,
            "pool_busy_s": 0.0,
            "pool_workers": 0,
            "migrations": stats.migrations,
            "wire_bytes": sum(
                replica.wire_bytes_sent + replica.wire_bytes_received
                for replica in self.cluster.replicas
            ),
        }

    def close(self) -> None:
        self.cluster.close()


def build_target(workload: str, scratch: str) -> Any:
    """The service or cluster ``workload`` submits to, ready to admit work."""
    if workload == "cluster-migrate":
        return ClusterTarget(scratch)
    return ServiceTarget(workload, scratch)

"""The repository's benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload batch|stream|cluster-migrate \
        --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory.  A run

1. times ``setup_s`` several times, each in a fresh interpreter
   (``setup_probe.py``), and reports the median;
2. builds the workload's seeded spec pool and a reference fingerprint for
   every pool entry, untimed;
3. builds the service or cluster, runs two untimed warm-up sessions, then
   drives a closed loop for ``--seconds`` (one client, two for
   ``stream``): each client submits its next session only after the
   previous one returned;
4. checks every session's result against its reference.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` the run measures an untraced phase of half the time, then
the same sessions again with every layer wrapped (``tracer.py``), and
reports the per-layer metrics, the tracing overhead, and whether both
phases gave identical fingerprints.  Spans go to
``.perfbench_out/trace-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report and an ``env`` record.  The exit code is 1 when
any session's result differs from its reference, 2 on a usage error or
when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

from targets import build_target  # noqa: E402
from tracer import END, NAME, NBYTES, SESSION, START, SPAN_ID, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Gate, fingerprint, make_specs, records_of, references  # noqa: E402

# name -> unit; the order is the report's.
END_TO_END = {
    "setup_s": "s",
    "sessions_per_s": "1/s",
    "records_per_s": "1/s",
    "session_p50_ms": "ms",
    "session_p90_ms": "ms",
    "cpu_ms_per_session": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
PER_LAYER = {
    "simnet.crypto.ms_per_session": "ms",
    "simnet.crypto.kib_per_session": "KiB",
    "simnet.crypto.share": "ratio",
    "simnet.codec.ms_per_session": "ms",
    "simnet.codec.kib_per_session": "KiB",
    "core.optimizer.ms_per_session": "ms",
    "attacks.ms_per_session": "ms",
    "mining.predict.ms_per_session": "ms",
    "streaming.source.us_per_record": "us",
    "streaming.ingest.push_us_per_record": "us",
    "streaming.ingest.share": "ratio",
    "streaming.ingest.late_per_session": "count",
    "sharding.transform.ms_per_session": "ms",
    "sharding.predict.ms_per_session": "ms",
    "sharding.pool.utilization": "ratio",
    "sharding.pool.wait_ms_p50": "ms",
    "serve.queue_wait_ms_p50": "ms",
    "serve.queue_wait_ms_p90": "ms",
    "serve.rejected": "count",
    "checkpoint.save.ms_p50": "ms",
    "checkpoint.save.kib": "KiB",
    "checkpoint.saves_per_session": "count",
    "repro.import_s": "s",
    "cluster.spawn_s": "s",
    "cluster.rpc_ms_p50": "ms",
    "cluster.migrate_ms_p50": "ms",
    "cluster.wire_kib_per_session": "KiB",
    "cluster.migrations_per_session": "count",
    "runtime.cpu_over_wall": "ratio",
    "trace.overhead_ratio": "ratio",
}
# Layer metrics that cannot be measured from outside the program.
UNMEASURED = {
    "checkpoint.loads.ms_p50": (
        "migration hands the checkpoint to the destination replica as "
        "opaque bytes and the child process decodes them; the parent's "
        "loads_checkpoint (wrapped in repro.cluster.transport and "
        "repro.cluster.controller) runs only on resume-from-file and crash "
        "recovery, which no workload exercises"
    ),
}
# Layers that run inside the replica children on cluster-migrate, where
# the parent's wrappers cannot see them; they read 0 there.
CHILD_SIDE = (
    "simnet.*, core.optimizer, attacks, mining.predict, streaming.*, "
    "sharding.*, serve.queue_wait_*, checkpoint.save.*"
)
SETUP_SAMPLES = {"batch": 3, "stream": 3, "cluster-migrate": 3}
CLIENTS = {"batch": 1, "stream": 2, "cluster-migrate": 1}
WARMUP_SESSIONS = 2
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
CLK_TCK = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# process accounting
# ----------------------------------------------------------------------
def child_cpu_seconds(pid: int) -> float:
    """user+sys of a live process (and its reaped children), from /proc."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        # Fields after the parenthesised command name, which may hold spaces.
        fields = stat.read().rsplit(")", 1)[1].split()
    utime, stime, cutime, cstime = (int(v) for v in fields[11:15])
    return (utime + stime + cutime + cstime) / CLK_TCK


def peak_rss_mb(pid: Any) -> float:
    """A live process's peak resident set (VmHWM) in MB; ``pid`` may be "self"."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def reset_peak_rss() -> bool:
    """Lower this process's VmHWM to its current RSS; False if refused."""
    gc.collect()
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
            refs.write("5")
    except OSError:
        return False
    return True


def cpu_seconds(pids: Sequence[int]) -> float:
    """This process plus its reaped children plus the live ``pids``."""
    own = os.times()
    total = own.user + own.system + own.children_user + own.children_system
    return total + sum(child_cpu_seconds(pid) for pid in pids)


def machine_ticks() -> Tuple[int, int]:
    """(steal, total) CPU ticks of the whole machine since boot, from /proc/stat.

    Steal is time the hypervisor ran something else while a virtual CPU
    had work; it stretches wall time without showing in process CPU.
    """
    with open("/proc/stat", encoding="ascii") as stat:
        ticks = [int(v) for v in stat.readline().split()[1:9]]
    return ticks[7], sum(ticks)


def env_record(seed: int) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        "arch": platform.machine(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "loadavg_1m": os.getloadavg()[0],
        "seed": seed,
    }


def percentile(values: Sequence[float], pct: int) -> float:
    """The pct-th percentile (inclusive method); 0.0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def setup_samples(workload: str, scratch: str) -> List[Dict[str, float]]:
    samples = []
    for index in range(SETUP_SAMPLES[workload]):
        probe_dir = os.path.join(scratch, f"setup-{index}")
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, probe_dir],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Phase:
    wall: float = 0.0
    cpu: float = 0.0
    latencies: List[float] = dataclasses.field(default_factory=list)
    queue_waits: List[float] = dataclasses.field(default_factory=list)
    fingerprints: Dict[int, str] = dataclasses.field(default_factory=dict)
    records: int = 0
    late: int = 0
    attempted: int = 0
    completed: int = 0
    matched: int = 0
    counters: Dict[str, float] = dataclasses.field(default_factory=dict)
    parent_rss_mb: float = 0.0
    children_rss_mb: float = 0.0
    # False when the kernel refused the reset: parent_rss_mb is then the
    # peak since the process started, references included.
    rss_reset: bool = False
    steal_share: float = 0.0


def run_phase(
    workload: str,
    specs: Sequence[Any],
    gate: Gate,
    scratch: str,
    seconds: float,
    limit: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> Phase:
    """Build the target, warm it up, and drive the closed loop."""
    phase = Phase()
    lock = threading.Lock()
    # The parent's peak counts from here: not the references computed
    # before, nor an earlier phase.
    phase.rss_reset = reset_peak_rss()
    target = build_target(workload, scratch)
    try:
        for index in range(WARMUP_SESSIONS):
            outcome = target.run_one(dataclasses.replace(specs[index % len(specs)]))
            gate.check(index, outcome.result)
        pids = target.children()
        before = target.counters()
        next_index = [0]
        began = time.perf_counter()
        cpu_began = cpu_seconds(pids)
        ticks_began = machine_ticks()
        deadline = began + seconds

        def client() -> None:
            while True:
                with lock:
                    index = next_index[0]
                    if (limit is not None and index >= limit) or (
                        limit is None and time.perf_counter() >= deadline
                    ):
                        return
                    next_index[0] += 1
                spec = dataclasses.replace(specs[index % len(specs)])
                if tracer is not None:
                    tracer.register(spec, index)
                    tracer.bind(index)
                start = time.perf_counter()
                try:
                    outcome = target.run_one(spec)
                except Exception as exc:  # a failed session is a measurement
                    with lock:
                        phase.attempted += 1
                        gate.fail(index, exc)
                    continue
                finally:
                    if tracer is not None:
                        tracer.bind(None)
                latency = time.perf_counter() - start
                with lock:
                    phase.attempted += 1
                    phase.completed += 1
                    phase.latencies.append(latency)
                    if outcome.queue_seconds is not None:
                        phase.queue_waits.append(outcome.queue_seconds)
                    phase.records += records_of(outcome.result)
                    ingest = getattr(outcome.result, "ingest", None)
                    phase.late += ingest.late if ingest is not None else 0
                    phase.fingerprints[index] = fingerprint(outcome.result)
                    if gate.check(index, outcome.result):
                        phase.matched += 1

        threads = [
            threading.Thread(target=client, name=f"perfbench-client-{n}")
            for n in range(CLIENTS[workload])
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.wall = time.perf_counter() - began
        phase.cpu = cpu_seconds(pids) - cpu_began
        steal, total = (b - a for a, b in zip(ticks_began, machine_ticks()))
        phase.steal_share = steal / total if total else 0.0
        after = target.counters()
        phase.counters = {
            key: after[key] - before[key] for key in after if key != "pool_workers"
        }
        phase.counters["pool_workers"] = after["pool_workers"]
        phase.parent_rss_mb = peak_rss_mb("self")
        phase.children_rss_mb = sum(peak_rss_mb(pid) for pid in pids)
    finally:
        target.close()
    return phase


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(phase: Phase, setup: List[Dict[str, float]]) -> Dict[str, float]:
    sessions = max(phase.completed, 1)
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "sessions_per_s": phase.completed / phase.wall,
        "records_per_s": phase.records / phase.wall,
        "session_p50_ms": 1e3 * percentile(phase.latencies, 50),
        "session_p90_ms": 1e3 * percentile(phase.latencies, 90),
        "cpu_ms_per_session": 1e3 * phase.cpu / sessions,
        "peak_rss_mb": phase.parent_rss_mb + phase.children_rss_mb,
        "success_rate": phase.matched / max(phase.attempted, 1),
    }


def per_layer(
    tracer: Tracer,
    traced: Phase,
    untraced: Phase,
    setup: List[Dict[str, float]],
) -> Dict[str, float]:
    timed = set(traced.fingerprints)
    selfs = self_times(tracer.spans)
    spans = [s for s in tracer.spans if s[SESSION] in timed]
    n = max(traced.completed, 1)

    def named(name: str, among: Optional[List[tuple]] = None) -> List[tuple]:
        return [s for s in (spans if among is None else among) if s[NAME] == name]

    def self_s(name: str) -> float:
        return sum(selfs[s[SPAN_ID]] for s in named(name))

    def durations_ms(name: str, among: Optional[List[tuple]] = None) -> List[float]:
        return [1e3 * (s[END] - s[START]) for s in named(name, among)]

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    session_s = sum(s[END] - s[START] for s in named("session"))
    pushes = named("streaming.ingest.push")
    saves = named("checkpoint.save")
    pool_s = traced.counters.get("pool_busy_s", 0.0)
    workers = traced.counters.get("pool_workers", 0)
    untraced_cpu = ratio(untraced.cpu, untraced.completed)
    traced_cpu = ratio(traced.cpu, traced.completed)
    return {
        "simnet.crypto.ms_per_session": 1e3 * self_s("simnet.crypto") / n,
        "simnet.crypto.kib_per_session": sum(s[NBYTES] for s in named("simnet.crypto")) / 1024 / n,
        "simnet.crypto.share": ratio(self_s("simnet.crypto"), session_s),
        "simnet.codec.ms_per_session": 1e3 * self_s("simnet.codec") / n,
        "simnet.codec.kib_per_session": sum(s[NBYTES] for s in named("simnet.codec")) / 1024 / n,
        "core.optimizer.ms_per_session": 1e3 * self_s("core.optimizer") / n,
        "attacks.ms_per_session": 1e3 * self_s("attacks") / n,
        "mining.predict.ms_per_session": 1e3 * self_s("mining.predict") / n,
        "streaming.source.us_per_record": 1e6 * ratio(self_s("streaming.source"), traced.records),
        "streaming.ingest.push_us_per_record": 1e6 * ratio(self_s("streaming.ingest.push"), len(pushes)),
        "streaming.ingest.share": ratio(
            self_s("streaming.ingest.push") + self_s("streaming.ingest.finish"), session_s
        ),
        "streaming.ingest.late_per_session": traced.late / n,
        "sharding.transform.ms_per_session": 1e3 * self_s("sharding.transform") / n,
        "sharding.predict.ms_per_session": 1e3 * self_s("sharding.predict") / n,
        "sharding.pool.utilization": ratio(pool_s, workers * traced.wall),
        "sharding.pool.wait_ms_p50": 1e3 * percentile(
            [wait for session, wait in tracer.pool_waits if session in timed], 50
        ),
        "serve.queue_wait_ms_p50": 1e3 * percentile(traced.queue_waits, 50),
        "serve.queue_wait_ms_p90": 1e3 * percentile(traced.queue_waits, 90),
        "serve.rejected": traced.counters.get("rejected", 0),
        "checkpoint.save.ms_p50": percentile(durations_ms("checkpoint.save"), 50),
        "checkpoint.save.kib": ratio(sum(s[NBYTES] for s in saves) / 1024, len(saves)),
        "checkpoint.saves_per_session": len(saves) / n,
        "repro.import_s": statistics.median(s["import_s"] for s in setup),
        "cluster.spawn_s": percentile(durations_ms("cluster.spawn", tracer.spans), 50) / 1e3,
        "cluster.rpc_ms_p50": percentile(durations_ms("cluster.rpc"), 50),
        "cluster.migrate_ms_p50": percentile(durations_ms("cluster.migrate"), 50),
        "cluster.wire_kib_per_session": traced.counters.get("wire_bytes", 0) / 1024 / n,
        "cluster.migrations_per_session": traced.counters.get("migrations", 0) / n,
        "runtime.cpu_over_wall": ratio(untraced.cpu, untraced.wall),
        "trace.overhead_ratio": ratio(traced_cpu, untraced_cpu),
    }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report(label: str, metrics: Dict[str, float], units: Dict[str, str]) -> None:
    print(label)
    for name, unit in units.items():
        print(f"  {name:<38} {metrics[name]:>14.6g} {unit}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    env = {"before": env_record(args.seed)}
    os.makedirs(OUT, exist_ok=True)
    scratch = os.path.join(OUT, f"scratch-{os.getpid()}")
    try:
        setup = setup_samples(args.workload, scratch)
        sys.path.insert(0, SRC)
        specs = make_specs(args.workload, args.seed)
        gate = Gate(references(args.workload, specs))
        phase_seconds = args.seconds / 2 if args.trace else args.seconds
        untraced = run_phase(
            args.workload, specs, gate, os.path.join(scratch, "untraced"), phase_seconds
        )
        traced = tracer = None
        if args.trace:
            with Tracer() as tracer:
                traced = run_phase(
                    args.workload, specs, gate, os.path.join(scratch, "traced"),
                    phase_seconds, limit=untraced.attempted, tracer=tracer,
                )
            tracer.write(os.path.join(OUT, f"trace-{args.workload}.jsonl"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    env["after"] = env_record(args.seed)
    env["sessions"] = untraced.completed
    env["latency_samples"] = len(untraced.latencies)
    env["runtime.cpu_over_wall"] = untraced.cpu / untraced.wall
    env["steal_share"] = untraced.steal_share
    env["setup_samples"] = len(setup)
    env["peak_rss_since"] = "phase start" if untraced.rss_reset else "process start"
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    correct = gate.correct
    if traced is None:
        metrics = end_to_end(untraced, setup)
        report(f"end-to-end ({untraced.completed} sessions, "
               f"{len(untraced.latencies)} latency samples)", metrics, END_TO_END)
        units = END_TO_END
    else:
        metrics = per_layer(tracer, traced, untraced, setup)
        identical = traced.fingerprints == untraced.fingerprints
        correct = correct and identical
        report(f"per-layer ({traced.completed} traced sessions; fingerprints "
               f"{'identical' if identical else 'DIFFER'} to the untraced phase)",
               metrics, PER_LAYER)
        if args.workload == "cluster-migrate":
            print(f"  read 0 from the parent (they run in the replica children): {CHILD_SIDE}")
        for name, reason in UNMEASURED.items():
            print(f"  unmeasured {name}: {reason}")
        units = PER_LAYER
    for error in gate.errors[:5]:
        print(f"  failure: {error}")
    if gate.mismatches:
        print(f"  fingerprint mismatch in sessions {gate.mismatches[:10]}")
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads, each run as one *repetition* at a time.

A repetition builds the system, offers load, drains, checks the run and
returns a :class:`Rep`.  Sim repetitions of one seed are deterministic:
their sim-t results and exact counts must come out identical, which the
benchmark checks across repetitions (:func:`fingerprint`).

- ``sim-kv-steady``: XPaxos n=4 f=1, 64 closed-loop clients, no faults.
  The request path dominates (client sign, leader verify, PREPARE/COMMIT
  digests and signatures, handlers, KV apply, the sim scheduler).
- ``sim-kv-failover``: IBFT n=7 f=2, open loop at a fixed rate spread over
  128 clients, current leader crashed and recovered in rotation over the
  adversary's f faulty pids.  Loads what steady barely touches: FD
  suspicions, matrix gossip, independent-set search, quorum changes,
  round change and client retries.
- ``live-kv-steady``: XPaxos n=4 f=1 as four replica OS processes over
  loopback TCP (negotiated WIRE_V2 codec, batching), 64 closed-loop
  clients multiplexed by this process as the client gateway.
"""

from __future__ import annotations

import asyncio
import gc
import json
import pickle
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.service.client import ServiceClient
from repro.service.live import ClientGateway, run_live_load
from repro.service.loadgen import LoadGenerator, Workload, percentile
from repro.sim.worlds import build_kv_service_world

#: Service tuning shared by both sim workloads (``run_sim_load``'s defaults).
SIM_SERVICE = dict(batch_size=8, batch_window=0.5, checkpoint_interval=64)

# sim-kv-steady: sim-t of offered load per repetition, then drain.
STEADY = dict(protocol="xpaxos", n=4, f=1, clients=64, load_simt=320.0, drain_simt=30.0)

# sim-kv-failover: arrivals per sim-t, kill/recover schedule (sim-t after
# load start).  Each kill lasts ``down_simt``; kill k targets the current
# leader while the adversary may still take a new faulty pid, and the
# faulty pids in rotation after that.
FAILOVER = dict(
    protocol="ibft", n=7, f=2, clients=128, rate=16.0, load_simt=240.0,
    drain_simt=60.0, kills_at=(30.0, 90.0, 150.0, 210.0), down_simt=40.0,
)

# live-kv-steady: wall seconds of load per cluster come from the run length.
LIVE = dict(protocol="xpaxos", n=4, f=1, clients=64)


@dataclass
class Rep:
    """One repetition's raw results (times in seconds unless noted)."""

    setup_s: float
    cpu_s: float
    offered: int
    committed: int
    latency_p50_ms: float
    latency_p99_ms: float
    peak_rss_mb: float
    #: Committed requests per wall second of offered load.
    rps: float
    #: Deterministic sim-t figures and exact counts (empty for live).
    sim: Dict[str, Any] = field(default_factory=dict)
    #: Raw per-layer inputs (counters, node metrics) for the ledger table.
    counts: Dict[str, Any] = field(default_factory=dict)
    #: Correctness-gate violations; empty means the repetition passed.
    violations: List[str] = field(default_factory=list)
    gateway_cpu_s: float = 0.0
    #: Per-request wall latencies (live only; sim latency is in sim-t).
    wall_latencies_s: List[float] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.offered - self.committed


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ---------------------------------------------------------------- sim common


def _service_gate(world: Any, violations: List[str]) -> Dict[str, Any]:
    """At-most-once everywhere; one state digest on the execution frontier."""
    replicas = list(world.replicas.values())
    if not all(r.kv.at_most_once_intact() for r in replicas):
        violations.append("at-most-once violated on some replica")
    running = [r for r in replicas if r.host.running]
    frontier_applied = max((r.kv.applied_requests for r in running), default=0)
    digests = {r.kv.state_digest() for r in running
               if r.kv.applied_requests == frontier_applied}
    if len(digests) != 1:
        violations.append(f"frontier replicas disagree: {len(digests)} state digests")
    return {"frontier_applied": frontier_applied, "state_digest": sorted(digests)}


def _sim_counts(world: Any) -> Dict[str, Any]:
    """Exact per-layer counts the program already keeps, read after the run."""
    replicas = list(world.replicas.values())
    qs = list(world.qs_modules.values())
    fds = [world.sim.host(pid).fd for pid in world.replicas]
    crashed_since: Dict[int, float] = {}
    false_suspicions = suspicions = 0
    for event in world.sim.log:
        if event.kind == "crash":
            crashed_since[event.process] = event.time
        elif event.kind == "recover":
            crashed_since.pop(event.process, None)
        elif event.kind == "fd.suspect" and event.process in world.replicas:
            suspicions += 1
            if event.payload.get("target") not in crashed_since:
                false_suspicions += 1
    searches = sum(m.quorum_searches for m in qs)
    memoized = sum(m.searches_memoized for m in qs)
    return {
        "events": world.sim.scheduler.steps_executed,
        "msgs_by_kind": dict(sorted(world.sim.stats.sent_by_kind.items())),
        "view_changes": max(r.view_changes for r in replicas),
        "qs_quorum_changes": sum(m.total_quorums_issued() for m in qs),
        "qs_max_changes_per_epoch": max(m.max_quorums_in_any_epoch() for m in qs),
        "qs_searches": searches,
        "qs_searches_memoized": memoized,
        "matrix_writes": sum(m.matrix.version for m in qs),
        "fd_expectations": sum(fd.expectations_issued for fd in fds),
        "fd_suspicions": suspicions,
        "fd_false_suspicions": false_suspicions,
        "client_retries": sum(c.retries for c in world.clients.values()),
    }


def _run_loop(world: Any, until: float, ledger: Any) -> Tuple[float, float]:
    """Run the sim to ``until``; returns (wall, cpu) seconds of the loop."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if ledger is None:
        world.sim.run_until(until)
    else:
        ledger.root("sim.loop", world.sim.run_until, until)
    return time.perf_counter() - wall0, time.process_time() - cpu0


def _sim_rep(world: Any, horizon: float, ledger: Any, load_simt: float,
             outcome: Callable[[], Tuple[int, List[Tuple[float, float]]]]) -> Rep:
    """Run the world and summarise it.  ``outcome()`` returns the number of
    requests offered and one ``(latency sim-t, completed at sim-t)`` pair
    per committed request.

    The wall-clock latency of a sim request is its sim-t latency times
    the wall milliseconds the simulator spent per sim-t in this run: what
    a client of the simulated service would wait at this simulator speed.
    It is a rescaled throughput, not a measured latency: the sim-t
    percentile and the committed count are fixed for a seed, so
    ``latency_p50_ms * rps`` is a constant of the seed, and in sim the
    latencies and ``rps`` all move with the run loop's wall time alone.
    """
    wall, cpu = _run_loop(world, horizon, ledger)
    offered, done = outcome()
    violations: List[str] = []
    service = _service_gate(world, violations)
    latencies = [latency for latency, _ in done]
    p50, p99 = percentile(latencies, 50), percentile(latencies, 99)
    ms_per_simt = 1e3 * wall / horizon
    in_window = sum(1 for _, completed in done if completed < load_simt)
    return Rep(
        setup_s=0.0, cpu_s=cpu,
        offered=offered, committed=len(done),
        latency_p50_ms=p50 * ms_per_simt, latency_p99_ms=p99 * ms_per_simt,
        peak_rss_mb=_peak_rss_mb(), rps=len(done) / wall,
        sim={
            "sim_latency_p50": p50,
            "sim_latency_p99": p99,
            "sim_goodput": in_window / load_simt,
            "outage_simt": None,
            **service,
        },
        counts=_sim_counts(world),
        violations=violations,
    )


# ---------------------------------------------------------- sim-kv-steady


def steady_setup(seed: int) -> Callable[[Any], Rep]:
    """Build the steady world; returns the function that runs it."""
    cfg = STEADY
    world = build_kv_service_world(
        n=cfg["n"], f=cfg["f"], clients=cfg["clients"], seed=seed,
        protocol=cfg["protocol"], **SIM_SERVICE,
    )
    generator = LoadGenerator(
        world.gen_host, list(world.clients.values()), Workload(seed=seed),
        mode="closed", duration=cfg["load_simt"],
    )
    world.sim.scheduler.schedule(0.0, generator.start, label="bench-load-start")

    def outcome() -> Tuple[int, List[Tuple[float, float]]]:
        return generator.offered, [(c.latency, c.completed_at)
                                   for c in generator.all_completions()]

    return lambda ledger: _sim_rep(world, cfg["load_simt"] + cfg["drain_simt"],
                                   ledger, cfg["load_simt"], outcome)


# -------------------------------------------------------- sim-kv-failover


class OpenLoop:
    """Fixed-rate arrivals, each stamped with its due time.

    ``ServiceClient`` measures latency from dispatch, which hides the time
    a request waits behind its client's previous one; this generator measures
    from the due time instead, so requests that arrive while no leader
    exists carry the whole outage.  Ops are generated beforehand from the
    seed and handed to the program one by one.
    """

    def __init__(self, host: Any, clients: List[ServiceClient],
                 ops: List[Tuple[Any, ...]], rate: float) -> None:
        self.host = host
        self.clients = clients
        self.ops = ops
        self.period = 1.0 / rate
        self.offered = 0
        #: (latency from due, completed sim-t, served view) per committed request.
        self.done: List[Tuple[float, float, int]] = []

    def start(self) -> None:
        self._arrive()

    def _arrive(self) -> None:
        index = self.offered
        if index >= len(self.ops):
            return
        self.offered += 1
        due = self.host.now
        client = self.clients[index % len(self.clients)]

        def done(op, result, latency):
            now = self.host.now
            self.done.append((now - due, now, client.completed[-1].view))

        client.submit(self.ops[index], callback=done)
        self.host.scheduler.schedule(self.period, self._arrive, label="bench-arrival")


def _current_leader(world: Any) -> Tuple[int, int]:
    """(leader, view) as the most advanced running replica sees them."""
    running = [r for r in world.replicas.values() if r.host.running]
    ahead = max(running, key=lambda r: (r.view, -r.pid))
    return ahead.leader, ahead.view


def failover_setup(seed: int) -> Callable[[Any], Rep]:
    """Build the failover world and its fault schedule; returns the runner."""
    cfg = FAILOVER
    workload = Workload(seed=seed)
    ops = [workload.next_op() for _ in range(int(cfg["rate"] * cfg["load_simt"]))]
    world = build_kv_service_world(
        n=cfg["n"], f=cfg["f"], clients=cfg["clients"], seed=seed,
        protocol=cfg["protocol"], **SIM_SERVICE,
    )
    arrivals = OpenLoop(world.gen_host, list(world.clients.values()), ops, cfg["rate"])
    world.sim.scheduler.schedule(0.0, arrivals.start, label="bench-load-start")

    faulty: List[int] = []
    leader_kills: List[Tuple[float, int]] = []  # (kill sim-t, view at kill)

    def kill(index: int) -> None:
        leader, view = _current_leader(world)
        if leader in faulty or len(faulty) < cfg["f"]:
            target = leader
            leader_kills.append((world.sim.now, view))
            if leader not in faulty:
                faulty.append(leader)
        else:
            target = faulty[index % len(faulty)]
        world.adversary.corrupt(target)
        world.sim.host(target).crash()
        world.sim.at(world.sim.now + cfg["down_simt"], world.sim.host(target).recover,
                     label=f"bench-recover-p{target}")

    for index, at in enumerate(cfg["kills_at"]):
        world.sim.at(at, lambda i=index: kill(i), label=f"bench-kill-{index}")

    def outcome() -> Tuple[int, List[Tuple[float, float]]]:
        return arrivals.offered, [(latency, completed)
                                for latency, completed, _ in arrivals.done]

    def run(ledger: Any) -> Rep:
        rep = _sim_rep(world, cfg["load_simt"] + cfg["drain_simt"], ledger,
                       cfg["load_simt"], outcome)
        bound = cfg["f"] * (cfg["f"] + 1)
        if rep.counts["qs_max_changes_per_epoch"] > bound:
            rep.violations.append(
                f"Thm 3: {rep.counts['qs_max_changes_per_epoch']} quorum changes in "
                f"one epoch > f(f+1) = {bound}"
            )
        outages = []
        for killed_at, view in leader_kills:
            resumed = [completed for _, completed, served in arrivals.done
                       if completed > killed_at and served > view]
            if not resumed:
                rep.violations.append(
                    f"no completion in a higher view after the kill at {killed_at}")
                continue
            outages.append(min(resumed) - killed_at)
        if not leader_kills:
            rep.violations.append("the schedule killed no leader")
        rep.sim.update(outage_simt=max(outages, default=None),
                       leader_kills=len(leader_kills), faulty=faulty)
        return rep

    run.arrivals = arrivals  # per-request results, for capacity.py's profile
    return run


#: World builds per sim repetition; ``setup_s`` is their median, so the
#: one-off lazy imports of the first build do not count.
SETUP_BUILDS = 5


def sim_rep(setup: Callable[[int], Callable[[Any], Rep]], seed: int,
            ledger: Any = None) -> Rep:
    """One sim repetition; the last of its world builds is the one run."""
    times = []
    for _ in range(SETUP_BUILDS):
        gc.collect()
        t0 = time.perf_counter()
        run = setup(seed)
        times.append(time.perf_counter() - t0)
    rep = run(ledger)
    rep.setup_s = statistics.median(times)
    return rep


def fingerprint(rep: Rep) -> str:
    """The deterministic part of a sim repetition, for cross-rep equality."""
    return json.dumps([rep.offered, rep.committed, rep.sim, rep.counts],
                      sort_keys=True, default=str)


# --------------------------------------------------------- live-kv-steady


def _node_metrics(run_dir: Path) -> Dict[int, Dict[str, float]]:
    """Each node's last metrics export, flattened to ``{name: value}``.

    Histograms contribute ``<name>.sum`` and ``<name>.count``.
    """
    nodes: Dict[int, Dict[str, float]] = {}
    for path in sorted(run_dir.glob("node_*.jsonl")):
        snapshot = None
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if record.get("event") == "metrics":
                snapshot = record["snapshot"]
        if snapshot is None:
            continue
        flat: Dict[str, float] = {}
        for entry in snapshot["metrics"]:
            if "sum" in entry:
                flat[entry["name"] + ".sum"] = entry["sum"]
                flat[entry["name"] + ".count"] = entry["count"]
            else:
                flat[entry["name"]] = entry["value"]
        nodes[int(path.stem.split("_")[1])] = flat
    return nodes


def live_rep(seed: int, load_s: float, run_dir: Path) -> Rep:
    """One cluster: spawn, handshake, warm up, offer ``load_s`` of load, drain.

    CPU is this (gateway) process plus every replica process, taken as
    ``RUSAGE_SELF`` and ``RUSAGE_CHILDREN`` deltas around the run; the
    replicas are reaped inside it, so their whole lives are counted.
    """
    cfg = LIVE
    probe: Dict[str, Any] = {}
    start, attach = LoadGenerator.start, ClientGateway.attach

    def probed_start(generator):
        probe["offered_at"] = time.perf_counter()
        probe["generator"] = generator
        return start(generator)

    def probed_attach(gateway, addresses):
        probe["gateway"] = gateway
        return attach(gateway, addresses)

    LoadGenerator.start, ClientGateway.attach = probed_start, probed_attach
    own0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        result = asyncio.run(run_live_load(
            n=cfg["n"], f=cfg["f"], clients=cfg["clients"], duration=load_s,
            seed=seed, protocol=cfg["protocol"], run_dir=run_dir,
        ))
    finally:
        LoadGenerator.start, ClientGateway.attach = start, attach
    own1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    own_cpu = (own1.ru_utime + own1.ru_stime) - (own0.ru_utime + own0.ru_stime)
    kids_cpu = (kids1.ru_utime + kids1.ru_stime) - (kids0.ru_utime + kids0.ru_stime)

    violations: List[str] = []
    if result["at_most_once"] is not True:
        violations.append(f"at-most-once verdict {result['at_most_once']!r}")
    if not result["digests_agree"]:
        violations.append("frontier replicas disagree on the state digest")
    if result["replies_unrouted"]:
        violations.append(f"{result['replies_unrouted']} replies unrouted")
    cluster = result["cluster"]
    if not cluster["agreement"] or any(code != 0 for code in cluster["exit_codes"].values()):
        violations.append(f"cluster unhealthy: {cluster}")

    gateway = probe["gateway"]
    generator = probe["generator"]
    completions = generator.all_completions()
    in_window = sum(1 for c in completions
                    if c.completed_at - generator.started_at < load_s)
    latencies = [c.latency for c in completions]
    counts = {
        "client_retries": result["retries"],
        "nodes": _node_metrics(run_dir),
        "gateway_peer": gateway.manager.stats.as_dict(),
        "gateway_encode_s": gateway.manager.wire_stats.encode_seconds_sum,
    }
    return Rep(
        setup_s=probe["offered_at"] - t0,
        cpu_s=own_cpu + kids_cpu,
        offered=result["offered"],
        committed=result["completed"],
        wall_latencies_s=latencies,
        latency_p50_ms=1e3 * percentile(latencies, 50),
        latency_p99_ms=1e3 * percentile(latencies, 99),
        peak_rss_mb=_peak_rss_mb(),
        rps=in_window / load_s,
        counts=counts,
        violations=violations,
        gateway_cpu_s=own_cpu,
    )


# ------------------------------------------------------------- one process


def rep_worker(workload: str, seed: int, load_s: float, run_dir: str,
               traced: bool) -> Tuple[Rep, Any]:
    """Run one repetition in this (fresh) process; returns it and its ledger.

    Every repetition gets a process of its own, so no repetition inherits
    the program's process-wide memo caches from an earlier one.  A traced
    repetition wraps the layers before the world is built (handlers are
    bound then), writes its spans under ``run_dir`` and returns the ledger
    without them.
    """
    import ledger as ledger_module

    run_path = Path(run_dir)
    ledger = None
    if traced:
        ledger = ledger_module.Ledger()
        ledger.install(ledger_module.LIVE_TARGETS if workload == "live-kv-steady"
                       else ledger_module.SIM_TARGETS)
    try:
        if workload == "live-kv-steady":
            rep = live_rep(seed, load_s, run_path)
        else:
            setup = steady_setup if workload == "sim-kv-steady" else failover_setup
            rep = sim_rep(setup, seed, ledger)
    finally:
        if ledger is not None:
            ledger.uninstall()
    if ledger is not None:
        ledger.export(run_path, workload)
        ledger.spans = []
    return rep, ledger


if __name__ == "__main__":
    # One repetition: ``workloads.py '<json arguments of rep_worker>'``, with
    # the program's ``src`` on PYTHONPATH; the result is pickled to a file.
    import workloads as this_module  # pickle by module name, not __main__

    arguments = json.loads(sys.argv[1])
    with open(arguments.pop("result"), "wb") as sink:
        pickle.dump(this_module.rep_worker(**arguments), sink)

"""Capacity of the ``sim-kv-failover`` configuration, with no faults.

Run from the repository root::

    python3 perfbench/capacity.py --seed 1

The open-loop rate of ``sim-kv-failover`` must sit below capacity, so that
clients queue only during outages.  This prints:

- a closed-loop probe of IBFT n=7 f=2 with the same service tuning: its
  goodput rises with the client count at flat latency while the service
  has headroom (the sim charges no CPU, so only batching and message
  delay limit it);
- a fault-free open-loop sweep over 128 clients.  Each client keeps one
  request outstanding, so the 128 clients cap the rate near
  128 / latency.  A rate meets the limit when the p99 of the requests
  due in the last third stays within ``P99_LIMIT`` and their p50 within
  ``BACKLOG_GROWTH`` of the first third's (no growing backlog);
- the benchmark's own failover run, p50 and worst latency per 10 sim-t
  of due time, to show the backlog of each outage drains before the next.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import workloads as wl  # noqa: E402
from repro.service.loadgen import LoadGenerator, Workload, percentile  # noqa: E402
from repro.sim.worlds import build_kv_service_world  # noqa: E402

CLOSED_CLIENTS = (128, 256, 512)
OPEN_RATES = (8.0, 16.0, 24.0, 32.0, 40.0)
LOAD_SIMT = 120.0
#: Fault-free p99 (sim-t) a rate may reach and still count as served.
P99_LIMIT = 6.0
BACKLOG_GROWTH = 1.25


def _world(seed: int, clients: int):
    cfg = wl.FAILOVER
    return build_kv_service_world(n=cfg["n"], f=cfg["f"], clients=clients, seed=seed,
                                  protocol=cfg["protocol"], **wl.SIM_SERVICE)


def closed_probe(seed: int, clients: int) -> str:
    world = _world(seed, clients)
    generator = LoadGenerator(world.gen_host, list(world.clients.values()),
                              Workload(seed=seed), mode="closed", duration=LOAD_SIMT)
    world.sim.scheduler.schedule(0.0, generator.start, label="capacity-load-start")
    world.sim.run_until(LOAD_SIMT + 30.0)
    warm = [c.latency for c in generator.all_completions() if 20.0 <= c.completed_at < LOAD_SIMT]
    return (f"  closed {clients:>4} clients: goodput {len(warm) / (LOAD_SIMT - 20.0):7.2f} "
            f"req/sim-t, p50 {percentile(warm, 50):.2f}, p99 {percentile(warm, 99):.2f} sim-t")


def open_sweep(seed: int, rate: float) -> tuple:
    workload = Workload(seed=seed)
    ops = [workload.next_op() for _ in range(int(rate * LOAD_SIMT))]
    world = _world(seed, wl.FAILOVER["clients"])
    arrivals = wl.OpenLoop(world.gen_host, list(world.clients.values()), ops, rate)
    world.sim.scheduler.schedule(0.0, arrivals.start, label="capacity-load-start")
    world.sim.run_until(LOAD_SIMT + 60.0)
    third = LOAD_SIMT / 3

    def due_in(lo: float, hi: float):
        return [lat for lat, completed, _ in arrivals.done if lo <= completed - lat < hi]

    first, last = due_in(0.0, third), due_in(2 * third, LOAD_SIMT)
    goodput = sum(1 for _, completed, _ in arrivals.done if completed < LOAD_SIMT) / LOAD_SIMT
    p99, growth = percentile(last, 99), percentile(last, 50) / percentile(first, 50)
    meets = (len(arrivals.done) == arrivals.offered and p99 <= P99_LIMIT
             and growth <= BACKLOG_GROWTH)
    return meets, (f"  open {rate:5.1f} req/sim-t: goodput {goodput:6.2f}, last-third p50 "
                   f"{percentile(last, 50):.2f} p99 {p99:.2f} sim-t, p50 growth {growth:.2f}"
                   f" -> {'meets' if meets else 'misses'} the limit")


def failover_profile(seed: int) -> None:
    run = wl.failover_setup(seed)
    rep = run(None)
    done = run.arrivals.done
    free = [lat for lat, completed, _ in done if completed - lat < wl.FAILOVER["kills_at"][0] - 10]
    print(f"failover (rate {wl.FAILOVER['rate']}): sim_goodput {rep.sim['sim_goodput']:.4g}, "
          f"failed_ratio {rep.failed / rep.offered:.4g}, sim_latency_p50 "
          f"{rep.sim['sim_latency_p50']:.3f}, p99 {rep.sim['sim_latency_p99']:.3f}, "
          f"outage_simt {rep.sim['outage_simt']:.3f}; fault-free phase p50 "
          f"{percentile(free, 50):.3f} sim-t")
    horizon = wl.FAILOVER["load_simt"]
    for lo in range(0, int(horizon), 10):
        window = [lat for lat, completed, _ in done if lo <= completed - lat < lo + 10]
        print(f"  due {lo:>3}-{lo + 10:<3}: p50 {percentile(window, 50):6.2f}, "
              f"max {max(window):6.2f} sim-t")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    print(f"capacity probes: IBFT n=7 f=2, {wl.SIM_SERVICE}, no faults, seed {seed}")
    for clients in CLOSED_CLIENTS:
        print(closed_probe(seed, clients), flush=True)
    best = None
    for rate in OPEN_RATES:
        meets, line = open_sweep(seed, rate)
        print(line, flush=True)
        if meets:
            best = rate
    print(f"  highest swept rate meeting the limit: {best} req/sim-t")
    failover_profile(seed)


if __name__ == "__main__":
    main()

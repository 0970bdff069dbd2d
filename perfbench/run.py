"""Repo benchmark: the replicated KV service end to end, plus a layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload sim-kv-failover --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics: a sim workload repeats
until ``--seconds`` of wall time are used (at least twice), the live
workload splits ``--seconds`` of load over two clusters.  ``--trace 1``
runs one untraced and one traced repetition of the same seed and prints
the per-layer ledger (see :mod:`ledger`), writing the traced spans under
``perfbench/out/``.  ``--workload all`` runs the three workloads in turn.
Each workload's last output line is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``; a run that fails the correctness
gate prints ``"correct": false`` with no metrics and exits 1.  The
workloads are described in :mod:`workloads` and ``perfbench/WORKLOADS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("sim-kv-steady", "sim-kv-failover", "live-kv-steady")

#: A repetition that takes longer than this is a failed run.
REP_TIMEOUT_S = 120.0
#: Clusters per live run; the load window is split evenly among them.
LIVE_CLUSTERS = 2

# Per-layer metrics: name -> (unit, better).  Every traced run prints all
# of them; a layer a workload does not execute reads 0 and the table
# shows "n/a".
PROTOCOL_KINDS = (
    "xp.request", "xp.prepare", "xp.commit", "xp.checkpoint", "xp.viewchange",
    "xp.newview", "xp.reply", "ibft.preprepare", "ibft.prepare", "ibft.commit",
    "ibft.roundchange", "ibft.newround", "qs.update", "heartbeat",
)
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "service.kv.apply_us": ("us", "lower"),
    "service.kv.apply_calls": ("count", "lower"),
    "service.client.reply_us": ("us", "lower"),
    "service.client.replies_per_req": ("count", "lower"),
    "service.client.useful_reply_ratio": ("ratio", "higher"),
    "service.client.retries_per_req": ("count", "lower"),
    "crypto.encode_us": ("us", "lower"),
    "crypto.encode_calls": ("count", "lower"),
    "crypto.digest_us": ("us", "lower"),
    "crypto.digest_calls": ("count", "lower"),
    "crypto.sign_us": ("us", "lower"),
    "crypto.sign_calls": ("count", "lower"),
    "crypto.verify_us": ("us", "lower"),
    "crypto.verify_calls": ("count", "lower"),
    "protocol.handler_us": ("us", "lower"),
    "protocol.msgs_per_req": ("count", "lower"),
    **{f"protocol.msgs_per_req.{kind}": ("count", "lower") for kind in PROTOCOL_KINDS},
    "protocol.view_changes": ("count", "lower"),
    "protocol.enum_us": ("us", "lower"),
    "protocol.enum_calls": ("count", "lower"),
    "core.qs_us": ("us", "lower"),
    "core.qs_quorum_changes": ("count", "lower"),
    "core.qs_max_changes_per_epoch": ("count", "lower"),
    "core.qs_search_memo_ratio": ("ratio", "higher"),
    "core.matrix_writes": ("count", "lower"),
    "fd.us": ("us", "lower"),
    "fd.expectations_per_req": ("count", "lower"),
    "fd.suspicions": ("count", "lower"),
    "fd.false_suspicion_ratio": ("ratio", "lower"),
    "graphs.is_search_us": ("us", "lower"),
    "graphs.is_search_calls": ("count", "lower"),
    "sim.events_per_req": ("count", "lower"),
    "sim.loop_self_us": ("us", "lower"),
    "net.frames_per_req": ("count", "lower"),
    "net.bytes_per_req": ("B", "lower"),
    "net.batch_frames_mean": ("count", "higher"),
    "net.wire_encode_us": ("us", "lower"),
    "net.gateway_decode_us": ("us", "lower"),
    "net.gateway_hmac_us": ("us", "lower"),
    "net.backpressure_drops": ("count", "lower"),
    "net.auth_rejected": ("count", "lower"),
    "net.gateway_cpu_share": ("ratio", "lower"),
    "e2e.failed_ratio": ("ratio", "lower"),
    "e2e.sim_latency_p50": ("sim-t", "lower"),
    "e2e.sim_latency_p99": ("sim-t", "lower"),
    "e2e.sim_goodput": ("1/sim-t", "higher"),
    "e2e.outage_simt": ("sim-t", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
}

#: Ledger metric -> (self-time metric, call-count metric or None).
TIMED_LAYERS = {
    "service.kv.apply": ("service.kv.apply_us", "service.kv.apply_calls"),
    "service.client.reply": ("service.client.reply_us", None),
    "crypto.encode": ("crypto.encode_us", "crypto.encode_calls"),
    "crypto.digest": ("crypto.digest_us", "crypto.digest_calls"),
    "crypto.sign": ("crypto.sign_us", "crypto.sign_calls"),
    "crypto.verify": ("crypto.verify_us", "crypto.verify_calls"),
    "protocol.handler": ("protocol.handler_us", None),
    "protocol.enum": ("protocol.enum_us", "protocol.enum_calls"),
    "core.qs": ("core.qs_us", None),
    "fd": ("fd.us", None),
    "graphs.is_search": ("graphs.is_search_us", "graphs.is_search_calls"),
    "sim.loop": ("sim.loop_self_us", None),
    "net.gateway_decode": ("net.gateway_decode_us", None),
    "net.gateway_hmac": ("net.gateway_hmac_us", None),
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import the program from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _fail(f"no program source at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    return workloads


# ------------------------------------------------------------ repetitions


def _fresh(jobs: List[Tuple[str, int, float, Path, bool]]) -> List[Tuple[Any, Any]]:
    """Repetitions side by side, each in a fresh interpreter running
    ``workloads.rep_worker(workload, seed, load_s, run_dir, traced)``;
    returns their ``(rep, ledger)`` results in order."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    deadline = time.perf_counter() + REP_TIMEOUT_S
    workers = []
    try:
        for workload, seed, load_s, run_dir, traced in jobs:
            run_dir.mkdir(parents=True, exist_ok=True)
            args = dict(workload=workload, seed=seed, load_s=load_s, run_dir=str(run_dir),
                        traced=traced, result=str(run_dir / "rep.pickle"))
            with (run_dir / "rep.stderr").open("wb") as stderr:
                workers.append(subprocess.Popen(
                    [sys.executable, str(BENCH_DIR / "workloads.py"), json.dumps(args)],
                    env=env, stdout=subprocess.DEVNULL, stderr=stderr,
                ))
        for worker in workers:
            worker.wait(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"repetition did not finish in {REP_TIMEOUT_S} s") from None
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
            worker.wait()
    results = []
    for worker, (_, _, _, run_dir, _) in zip(workers, jobs):
        if worker.returncode != 0:
            log = (run_dir / "rep.stderr").read_text()[-4000:]
            raise RuntimeError(f"repetition failed:\n{log}")
        # Written by the worker just started, from this checkout.
        with (run_dir / "rep.pickle").open("rb") as source:
            results.append(pickle.load(source))
    return results


def _reps(workload: str, seed: int, seconds: float, out: Path) -> List[Any]:
    """Untraced repetitions.  Live splits ``seconds`` of load over its
    clusters, one after the other.  Sim runs repetitions side by side, one
    per CPU up to two, until ``seconds`` of wall time are used: the CPU
    speed of a virtual machine drifts, and separately on each CPU, so
    sampling both steadies the medians."""
    if workload == "live-kv-steady":
        load_s = seconds / LIVE_CLUSTERS
        return [_fresh([(workload, seed, load_s, out / f"cluster-{index}", False)])[0][0]
                for index in range(LIVE_CLUSTERS)]
    side_by_side = min(2, len(os.sched_getaffinity(0)))
    reps: List[Any] = []
    started = time.perf_counter()
    while len(reps) < 2 or time.perf_counter() - started < seconds:
        jobs = [(workload, seed, 0.0, out / f"rep-{len(reps) + k}", False)
                for k in range(side_by_side)]
        reps.extend(rep for rep, _ in _fresh(jobs))
    return reps


def _gate(workload: str, reps: List[Any], wl: Any) -> List[str]:
    """Every repetition passes its checks; sim repetitions agree exactly."""
    problems = [f"rep {i}: {v}" for i, rep in enumerate(reps) for v in rep.violations]
    if workload.startswith("sim-"):
        prints = {wl.fingerprint(rep) for rep in reps}
        if len(prints) != 1:
            problems.append(
                f"sim results differ across {len(reps)} repetitions of one seed"
            )
    return problems


# ---------------------------------------------------------- end to end


def end_to_end(reps: List[Any]) -> Dict[str, float]:
    median = statistics.median
    return {
        "setup_s": median(rep.setup_s for rep in reps),
        "wall_rps": median(rep.rps for rep in reps),
        "cpu_ms_per_req": median(1e3 * rep.cpu_s / rep.committed for rep in reps),
        "peak_rss_mb": max(rep.peak_rss_mb for rep in reps),
        "latency_p50_ms": median(rep.latency_p50_ms for rep in reps),
        "latency_p99_ms": median(rep.latency_p99_ms for rep in reps),
    }


E2E_UNITS = {
    "setup_s": "s", "wall_rps": "1/s", "cpu_ms_per_req": "ms",
    "peak_rss_mb": "MB", "latency_p50_ms": "ms", "latency_p99_ms": "ms",
}


def _print_e2e(workload: str, metrics: Dict[str, float], reps: List[Any], wl: Any) -> None:
    """Every end-to-end figure, by name and unit, including the sim-t ones."""
    pooled = [lat for rep in reps for lat in rep.wall_latencies_s]
    offered = sum(rep.offered for rep in reps)
    failed = sum(rep.failed for rep in reps)
    sim = reps[0].sim
    rows = [(name, value, E2E_UNITS[name]) for name, value in metrics.items()]
    rows.append(("failed_ratio", failed / offered, "ratio"))
    rows.append(("latency_samples", sum(rep.committed for rep in reps), "count"))
    # Live only: sim latency is deterministic in sim-t (rows below).
    beyond = len(pooled) - int(len(pooled) * 0.999)
    rows.append(("latency_p999_ms",
                 1e3 * wl.percentile(pooled, 99.9) if pooled and beyond >= 10 else None,
                 "ms"))
    for name, unit in (("sim_latency_p50", "sim-t"), ("sim_latency_p99", "sim-t"),
                       ("sim_goodput", "1/sim-t"), ("outage_simt", "sim-t")):
        rows.append((name, sim.get(name), unit))
    cpu = sum(rep.cpu_s for rep in reps)
    rows.append(("gateway_cpu_share",
                 sum(rep.gateway_cpu_s for rep in reps) / cpu if pooled else None, "ratio"))
    print(f"== {workload}: end to end over {len(reps)} repetitions ==")
    for index, rep in enumerate(reps):
        print(f"  rep {index}: setup {rep.setup_s:.4g} s, {rep.committed} committed, "
              f"{rep.rps:.5g} req/s, {1e3 * rep.cpu_s / rep.committed:.4g} CPU ms/req, "
              f"p50 {rep.latency_p50_ms:.4g} ms, p99 {rep.latency_p99_ms:.4g} ms")
    for name, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<18} {shown:>14} {unit}")


# ------------------------------------------------------------ per layer


def per_layer(workload: str, traced: Any, plain: Any, led: Any,
              f: int) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Per-layer metrics of the traced repetition, and the base of each."""
    committed = traced.committed
    values: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    bases: Dict[str, str] = {}
    applicable = set()

    def put(name: str, value: float, base: str) -> None:
        values[name] = float(value)
        bases[name] = base
        applicable.add(name)

    req_base = f"{committed} committed requests"
    for metric, (us_name, calls_name) in TIMED_LAYERS.items():
        if metric not in led.calls:
            continue
        put(us_name, led.self_ns[metric] / 1e3 / committed,
            f"{led.self_ns[metric] / 1e9:.3f} s self time / {req_base}")
        if calls_name is not None:
            put(calls_name, led.calls[metric] / committed,
                f"{led.calls[metric]} calls / {req_base}")
    counts = traced.counts
    replies = led.calls.get("service.client.reply", 0)
    if replies:
        put("service.client.replies_per_req", replies / committed, req_base)
        put("service.client.useful_reply_ratio", (f + 1) * committed / replies,
            f"(f+1) x {committed} / {replies} replies")
    put("service.client.retries_per_req", counts["client_retries"] / committed, req_base)
    put("e2e.failed_ratio", traced.failed / traced.offered,
        f"{traced.offered} offered")
    put("trace.overhead", (traced.cpu_s / traced.committed) / (plain.cpu_s / plain.committed),
        "traced / untraced CPU per request, same seed")

    if workload.startswith("sim-"):
        # The run loop's own self time is what no layer explains, so it is
        # left out: coverage then falls when the wrapped layers miss work.
        put("trace.coverage", (led.covered_ns() - led.self_ns["sim.loop"]) / 1e9 / traced.cpu_s,
            f"{traced.cpu_s:.3f} CPU s of the traced run loop, less its own self time")
        by_kind = counts["msgs_by_kind"]
        put("protocol.msgs_per_req", sum(by_kind.values()) / committed, req_base)
        for kind in PROTOCOL_KINDS:
            if kind in by_kind:
                put(f"protocol.msgs_per_req.{kind}", by_kind[kind] / committed, req_base)
        put("protocol.view_changes", counts["view_changes"], "count, max over replicas")
        put("core.qs_quorum_changes", counts["qs_quorum_changes"], "count, all replicas")
        put("core.qs_max_changes_per_epoch", counts["qs_max_changes_per_epoch"],
            f"max over replicas and epochs; Thm 3 bound f(f+1) = {f * (f + 1)}")
        lookups = counts["qs_searches"] + counts["qs_searches_memoized"]
        if lookups:
            put("core.qs_search_memo_ratio", counts["qs_searches_memoized"] / lookups,
                f"{lookups} quorum recomputations")
        put("core.matrix_writes", counts["matrix_writes"], "count, all replicas")
        put("fd.expectations_per_req", counts["fd_expectations"] / committed, req_base)
        put("fd.suspicions", counts["fd_suspicions"], "count, all replicas")
        if counts["fd_suspicions"]:
            put("fd.false_suspicion_ratio",
                counts["fd_false_suspicions"] / counts["fd_suspicions"],
                f"{counts['fd_suspicions']} suspicions")
        put("sim.events_per_req", counts["events"] / committed, req_base)
        for name in ("sim_latency_p50", "sim_latency_p99", "sim_goodput", "outage_simt"):
            if traced.sim.get(name) is not None:
                put(f"e2e.{name}", traced.sim[name], "deterministic for the seed")
    else:
        nodes = counts["nodes"]
        gateway = counts["gateway_peer"]

        def node_sum(name: str) -> float:
            return sum(node.get(name, 0.0) for node in nodes.values())

        put("trace.coverage", led.covered_ns() / 1e9 / traced.gateway_cpu_s,
            f"{traced.gateway_cpu_s:.3f} gateway CPU s (replica processes are not wrapped)")
        put("net.frames_per_req",
            (node_sum("peer_frames_sent_total") + gateway["frames_sent"]) / committed, req_base)
        put("net.bytes_per_req",
            (node_sum("peer_bytes_sent_total") + gateway["bytes_sent"]) / committed, req_base)
        flushes = node_sum("net_batch_frames.count")
        if flushes:
            put("net.batch_frames_mean", node_sum("net_batch_frames.sum") / flushes,
                f"{int(flushes)} replica flushes")
        put("net.wire_encode_us",
            (node_sum("wire_encode_seconds.sum") + counts["gateway_encode_s"]) * 1e6 / committed,
            req_base)
        put("net.backpressure_drops",
            node_sum("peer_frames_dropped_backpressure_total")
            + gateway["frames_dropped_backpressure"], "count, all processes")
        put("net.auth_rejected",
            node_sum("peer_frames_auth_rejected_total") + gateway["frames_auth_rejected"],
            "count, all processes")
        put("net.gateway_cpu_share", plain.gateway_cpu_s / plain.cpu_s,
            "untraced gateway CPU / gateway + replica CPU")
        put("protocol.view_changes",
            max((node.get("xp_view_changes_total", 0.0) for node in nodes.values()),
                default=0.0), "count, max over replicas")
        put("core.qs_quorum_changes", node_sum("qs_quorum_changes_total"),
            "count, all replicas")
        put("core.qs_max_changes_per_epoch",
            max((node.get("qs_max_changes_per_epoch", 0.0) for node in nodes.values()),
                default=0.0), "max over replicas")
        put("core.matrix_writes", node_sum("matrix_entry_writes_total"), "count, all replicas")
        put("fd.expectations_per_req", node_sum("fd_expectations_issued_total") / committed,
            req_base)
        put("fd.suspicions", node_sum("fd_suspicions_raised_total"),
            "count, all replicas (no faults injected: every suspicion is false)")
        if values["fd.suspicions"]:
            put("fd.false_suspicion_ratio", 1.0, "no process crashed")
    for name in PER_LAYER:
        if name not in applicable:
            bases[name] = "n/a"
    return values, bases


def _print_layers(workload: str, values: Dict[str, float], bases: Dict[str, str],
                  files: Dict[str, str], dropped: int) -> None:
    print(f"== {workload}: per-layer ledger (traced repetition) ==")
    for name, (unit, _) in PER_LAYER.items():
        shown = "n/a" if bases[name] == "n/a" else f"{values[name]:.6g}"
        print(f"  {name:<36} {shown:>12} {unit:<8} {'' if shown == 'n/a' else bases[name]}")
    jsonl, chrome = (Path(files[key]).relative_to(ROOT) for key in ("jsonl", "chrome"))
    print(f"  spans: {jsonl} and {chrome} "
          f"({dropped} spans past the cap not kept)")


# ------------------------------------------------------------------ main


def run_workload(workload: str, seed: int, seconds: float, trace: int, wl: Any) -> int:
    """Run one workload, print its table and its JSON line; the exit code."""
    out = OUT_DIR / f"{workload}-seed{seed}-trace{trace}"
    f = {"sim-kv-steady": wl.STEADY, "sim-kv-failover": wl.FAILOVER,
         "live-kv-steady": wl.LIVE}[workload]["f"]
    try:
        if trace == 0:
            reps = _reps(workload, seed, seconds, out)
        else:
            plain, traced, led = _traced_pair(workload, seed, seconds, out)
            reps = [plain, traced]
    except RuntimeError as error:
        return _refuse([str(error)], attempted=1)
    problems = _gate(workload, reps, wl)
    attempted = sum(rep.offered for rep in reps)
    if problems:
        return _refuse(problems, attempted)
    if trace == 0:
        metrics = end_to_end(reps)
        units = E2E_UNITS
        _print_e2e(workload, metrics, reps, wl)
    else:
        metrics, bases = per_layer(workload, traced, plain, led, f)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        _print_layers(workload, metrics, bases, led.files, led.spans_dropped)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": sum(rep.failed for rep in reps),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = _import_program()
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    return max([run_workload(workload, args.seed, args.seconds, args.trace, wl)
                for workload in chosen])


def _refuse(problems: List[str], attempted: int) -> int:
    """A run that fails the gate counts as failed and yields no number."""
    for problem in problems:
        print(f"correctness gate: {problem}", file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": attempted,
                      "failed": attempted, "metrics": {}}))
    return 1


def _traced_pair(workload: str, seed: int, seconds: float,
                 out: Path) -> Tuple[Any, Any, Any]:
    """One untraced and one traced repetition of the same seed."""
    load_s = seconds / LIVE_CLUSTERS
    (plain, _), = _fresh([(workload, seed, load_s, out / "untraced", False)])
    (traced, led), = _fresh([(workload, seed, load_s, out / "traced", True)])
    return plain, traced, led


if __name__ == "__main__":
    sys.exit(main())

"""Unified command-line interface.

Subcommands::

    repro sort    --n 6 --faults 3,5,16 --keys 10000 [--kind total] [--spmd]
                  [--kernels numpy|loop|compiled]
    repro trace   --n 6 --faults 7,25,52 --out trace.json [--spmd]
    repro plan    --n 5 --faults 3,5,16,24
    repro diagnose --n 6 --faults 3,5,16 [--seed 7]
    repro chaos   --scenarios 200 --seed 0 --out chaos_report.jsonl [--fast]
                  [--jobs J|auto] [--executor serial|process|thread|shm|auto]
    repro table1  [--trials N]        (same as repro-table1)
    repro table2  [--trials N]
    repro figure7 --n 6 [--points P]
    repro serve   [--port 0] [--jobs J] [--batch-max B] [--stdio]
                  [--tenant-rate R] [--tenant-max-inflight M]
                  [--max-queued N] [--obs-out obs.json] [--port-file P]
    repro submit  --port P [--kind sort] --n 5 --faults 3,5 --count 20
                  [--tenants a,b] [--stream [--stream-transport shm]]
                  [--drain] [--stats]

``sort`` runs the fault-tolerant sort on random keys, verifies the output
against numpy, and prints the plan plus a stage-level cost breakdown.
``trace`` runs the sort with the observability tracer attached and writes a
Chrome/Perfetto ``trace_event`` JSON file (load it at ui.perfetto.dev or
chrome://tracing), then prints per-step durations, a flame-style self-time
report, and the metrics registry.
``plan`` prints the partition/selection artifacts without sorting.
``diagnose`` runs the PMC pipeline against hidden faults.
``chaos`` runs the randomized fault-injection campaign (see
docs/ROBUSTNESS.md): seeded scenarios, differential check against numpy,
JSONL report, failures shrunk to minimal reproducers; ``--jobs`` fans
scenarios out over workers with identical results and ``--executor``
picks the tier (process pool, GIL-releasing threads, shared-memory
arenas, or auto by payload volume — see docs/PERFORMANCE.md).
``--kernels`` on ``sort``/``trace`` selects the execution backend for the
sorting inner loops (``numpy`` vectorized default, ``loop`` pure-Python
reference, ``compiled`` flat-array schedule programs; see
docs/PERFORMANCE.md) — outputs and counts are identical.
``serve`` runs the sorting-as-a-service job server (JSONL over TCP, or
stdin/stdout with ``--stdio``) until drained by SIGTERM/SIGINT or a client
``drain``; run one per host and widen it with ``--jobs`` (docs/SERVICE.md).
``submit`` is the matching client — it submits ``--count`` jobs
round-robin across ``--tenants``, waits for every result (``--stream``
consumes sorted arrays as checksummed frames instead of inline results),
and prints a latency/throughput summary.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis.breakdown import phase_breakdown
from repro.core.ftsort import fault_tolerant_sort, plan_partition
from repro.core.spmd_sort import spmd_fault_tolerant_sort
from repro.faults.diagnosis import diagnose_pmc, pmc_syndrome
from repro.faults.model import FaultKind, FaultSet
from repro.obs import Tracer, flame_report, step_report, write_chrome_trace

__all__ = ["main"]


def _parse_faults(text: str) -> list[int]:
    if not text:
        return []
    return [int(tok) for tok in text.replace(" ", "").split(",") if tok]


def _fault_list(text: str, n: int, max_faults: int | None = None) -> list[int]:
    """Parse and validate ``--faults`` for a Q_n run.

    Exits with a one-line message (no traceback) on malformed input:
    non-integer tokens, negative or out-of-range addresses, duplicates,
    or more faults than the paper's model tolerates.
    """
    if n < 1:
        raise SystemExit(f"repro: invalid --n: {n} (need a cube dimension >= 1)")
    tokens = [tok for tok in text.replace(" ", "").split(",") if tok]
    faults: list[int] = []
    for tok in tokens:
        try:
            addr = int(tok)
        except ValueError:
            raise SystemExit(
                f"repro: invalid --faults: {tok!r} is not an integer "
                f"(expected a comma-separated list like 3,5,16)"
            )
        if addr < 0:
            raise SystemExit(
                f"repro: invalid --faults: address {addr} is negative"
            )
        if addr >= (1 << n):
            raise SystemExit(
                f"repro: invalid --faults: address {addr} is out of range "
                f"for Q_{n} (valid addresses are 0..{(1 << n) - 1})"
            )
        if addr in faults:
            raise SystemExit(
                f"repro: invalid --faults: address {addr} listed twice"
            )
        faults.append(addr)
    if max_faults is not None and len(faults) > max_faults:
        raise SystemExit(
            f"repro: invalid --faults: {len(faults)} faults on Q_{n}, but the "
            f"paper's algorithm tolerates at most r = n - 1 = {max_faults} "
            f"(use a larger --n or fewer faults)"
        )
    return faults


def _cmd_sort(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    keys = rng.integers(0, 10**6, size=args.keys).astype(float)
    faults = _fault_list(args.faults, args.n, max_faults=args.n - 1)
    kind = FaultKind.TOTAL if args.kind == "total" else FaultKind.PARTIAL
    if args.spmd:
        res = spmd_fault_tolerant_sort(keys, args.n, faults, fault_kind=kind,
                                       kernels=args.kernels)
        ok = bool(np.array_equal(res.sorted_keys, np.sort(keys)))
        print(f"sorted {args.keys} keys on Q_{args.n} with faults {faults} "
              f"({kind.value}, message-level engine)")
        print(f"  verified : {ok}")
        print(f"  finish   : {res.finish_time / 1e3:.2f} simulated ms")
        print(f"  messages : {len(res.machine.engine.delivered)}")
        return 0 if ok else 1
    res = fault_tolerant_sort(keys, args.n, faults, fault_kind=kind,
                              kernels=args.kernels)
    ok = bool(np.array_equal(res.sorted_keys, np.sort(keys)))
    print(f"sorted {args.keys} keys on Q_{args.n} with faults {faults} ({kind.value})")
    print(f"  verified : {ok}")
    if res.selection is not None:
        print(f"  D_beta   : {res.selection.cut_dims} (Eq.-1 cost {res.selection.cost})")
        print(f"  dangling : {list(res.selection.dangling_processors)}")
    print(f"  workers  : {res.working_processors}")
    print(f"  elapsed  : {res.elapsed / 1e3:.2f} simulated ms")
    print("  breakdown:")
    for stage in phase_breakdown(res.machine).values():
        share = 100 * stage.duration / res.elapsed if res.elapsed else 0.0
        print(f"    {stage.stage:<34} {stage.duration / 1e3:10.2f} ms  ({share:4.1f}%)")
    return 0 if ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    keys = rng.integers(0, 10**6, size=args.keys).astype(float)
    faults = _fault_list(args.faults, args.n, max_faults=args.n - 1)
    kind = FaultKind.TOTAL if args.kind == "total" else FaultKind.PARTIAL
    obs = Tracer()
    if args.spmd:
        res = spmd_fault_tolerant_sort(keys, args.n, faults, fault_kind=kind, obs=obs,
                                       kernels=args.kernels)
        elapsed = res.finish_time
    else:
        res = fault_tolerant_sort(keys, args.n, faults, fault_kind=kind, obs=obs,
                                  kernels=args.kernels)
        elapsed = res.elapsed
    ok = bool(np.array_equal(res.sorted_keys, np.sort(keys)))
    events = write_chrome_trace(args.out, obs)
    engine = "message-level" if args.spmd else "phase"
    print(f"traced {args.keys} keys on Q_{args.n} with faults {faults} "
          f"({kind.value}, {engine} engine)")
    print(f"  verified : {ok}")
    print(f"  elapsed  : {elapsed / 1e3:.2f} simulated ms")
    print(f"  trace    : {events} events -> {args.out} "
          "(open at ui.perfetto.dev or chrome://tracing)")
    print()
    print(step_report(obs))
    print()
    print(flame_report(obs, top=args.top))
    print()
    print(obs.metrics.summary())
    return 0 if ok else 1


def _cmd_plan(args: argparse.Namespace) -> int:
    faults = _fault_list(args.faults, args.n, max_faults=args.n - 1)
    partition, selection = plan_partition(args.n, faults)
    if args.svg:
        from repro.experiments.cubeviz import partition_diagram
        from repro.experiments.svgplot import save_chart

        target = selection if partition.mincut else faults
        save_chart(args.svg, partition_diagram(
            args.n, target, title=f"Q_{args.n} partition, faults {faults}"
        ))
        print(f"diagram written to {args.svg}")
    print(f"Q_{args.n}, faults {faults}:")
    print(f"  mincut m = {partition.mincut}")
    print(f"  Psi      = {[list(d) for d in partition.cutting_set]}")
    if partition.mincut:
        print(f"  D_beta   = {selection.cut_dims} (cost {selection.cost})")
        print(f"  dangling w = {selection.dangling_w}")
        print(f"  dead per subcube = {list(selection.dead_of_subcube)}")
        print(f"  working processors = {selection.working_processors}")
    else:
        print("  (single-fault or fault-free: no partition needed)")
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    faults = _fault_list(args.faults, args.n)
    hidden = FaultSet(args.n, faults)
    syndrome = pmc_syndrome(hidden, rng=args.seed)
    result = diagnose_pmc(args.n, syndrome)
    print(f"hidden faults    : {faults}")
    print(f"identified       : {list(result.identified)}")
    print(f"consistent       : {result.consistent}")
    print(f"diagnosis correct: {result.matches(hidden)}")
    return 0 if result.matches(hidden) else 1


def _fault_class_list(text: str) -> tuple[str, ...]:
    """Parse and validate ``--fault-class`` (comma list, or ``all``).

    Exits with a friendly message naming every registered class when a
    name is unknown — same contract as :func:`_fault_list`.
    """
    from repro.faults.universe import fault_class_names

    registered = fault_class_names()
    if text.strip() == "all":
        return registered
    names: list[str] = []
    for tok in text.replace(" ", "").split(","):
        if not tok:
            continue
        if tok not in registered:
            raise SystemExit(
                f"repro: invalid --fault-class: {tok!r} is not a registered "
                f"fault class (registered: {', '.join(registered)}, or 'all')"
            )
        if tok in names:
            raise SystemExit(
                f"repro: invalid --fault-class: {tok!r} listed twice"
            )
        names.append(tok)
    if not names:
        raise SystemExit(
            "repro: invalid --fault-class: need at least one class "
            f"(registered: {', '.join(registered)}, or 'all')"
        )
    return tuple(names)


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import run_campaign
    from repro.plancache import PLAN_CACHE

    if args.plan_cache == "off":
        PLAN_CACHE.configure(enabled=False)
    backends = ("phase", "spmd") if args.backend == "both" else (args.backend,)
    fault_classes = _fault_class_list(args.fault_class)
    count = args.scenarios
    if count is None:
        count = 24 if args.fast else 200

    def progress(idx: int, outcome) -> None:
        if not outcome.passed:
            print(f"  scenario {idx}: FAIL ({outcome.error or 'mis-sorted'})")
        elif (idx + 1) % 50 == 0:
            print(f"  ... {idx + 1}/{count} scenarios")

    from repro.parallel import jobs_from_env, resolve_jobs

    jobs = resolve_jobs(args.jobs) if args.jobs is not None else jobs_from_env(1)
    print(f"chaos campaign: {count} scenarios, seed {args.seed}, "
          f"backends {'/'.join(backends)}, classes {'/'.join(fault_classes)}, "
          f"jobs {jobs}, executor {args.executor or 'auto'}")
    summary = run_campaign(
        count=count,
        seed=args.seed,
        out=args.out,
        backends=backends,
        shrink_failures=not args.no_shrink,
        progress=progress,
        jobs=jobs,
        fault_classes=fault_classes,
        executor=args.executor,
    )
    print(f"  passed            : {summary.passed}/{summary.scenarios}")
    for backend, per in sorted(summary.backends.items()):
        print(f"    {backend:<6}          : {per['passed']}/{per['scenarios']}")
    if len(fault_classes) > 1 or fault_classes != ("baseline",):
        for name, entry in summary.fault_classes.items():
            print(f"  class {name:<11} : {entry['passed']}/{entry['scenarios']} "
                  f"(oracle {entry['oracle']})")
            for key, point in sorted(entry["curve"].items()):
                param = entry["curve_param"] or "severity"
                extra = ""
                if "max_max_dislocation" in point:
                    extra = (f", dislocation mean "
                             f"{point['mean_max_dislocation']:.1f} "
                             f"max {point['max_max_dislocation']}")
                print(f"    {param}={key:<8}: "
                      f"{point['passed']}/{point['scenarios']}{extra}")
    print(f"  recoveries        : {summary.recoveries} "
          f"(in {summary.with_recovery} scenarios)")
    print(f"  retries           : {summary.retries}")
    print(f"  false suspicions  : {summary.false_suspicions} (all cleared)")
    print(f"  detect latency    : mean {summary.mean_detect_latency / 1e3:.2f} ms, "
          f"max {summary.max_detect_latency / 1e3:.2f} ms")
    print(f"  recovery overhead : mean {summary.mean_recovery_overhead:.2f}x, "
          f"max {summary.max_recovery_overhead:.2f}x")
    if args.out:
        print(f"  report            : {args.out}")
    if args.plan_cache == "stats":
        print(PLAN_CACHE.summary())
        if jobs > 1:
            print("  (counters are per-process; workers' caches are not shown)")
    if summary.failures:
        print(f"  FAILURES: {len(summary.failures)} "
              "(minimal reproducers in the report)")
    return 0 if summary.all_passed else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    def ready(service, port) -> None:
        if port is None:
            print("repro service: speaking JSONL on stdio", file=sys.stderr,
                  flush=True)
            return
        print(f"repro service: listening on {args.host}:{port}",
              file=sys.stderr, flush=True)
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as fh:
                fh.write(f"{port}\n")

    from repro.parallel import jobs_from_env, resolve_jobs
    from repro.service import serve as serve_service

    jobs = resolve_jobs(args.jobs) if args.jobs is not None else jobs_from_env(1)
    service = asyncio.run(serve_service(
        host=args.host,
        port=args.port,
        stdio=args.stdio,
        ready=ready,
        jobs=jobs,
        executor=args.executor,
        max_queued=args.max_queued,
        max_queued_per_tenant=args.max_queued_per_tenant,
        batch_max=args.batch_max,
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        max_inflight_per_tenant=args.tenant_max_inflight,
        obs_out=args.obs_out,
    ))
    stats = service.stats()
    print(f"repro service: drained (completed={stats['completed']} "
          f"failed={stats['failed']} rejected={stats['rejected']})",
          file=sys.stderr, flush=True)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.service import ServiceClient

    tenants = [t for t in args.tenants.replace(" ", "").split(",") if t]
    if not tenants:
        raise SystemExit("repro: invalid --tenants: need at least one name")
    job: dict = {"kind": args.kind}
    if args.kind in ("sort", "plan"):
        job["n"] = args.n
        job["faults"] = _fault_list(args.faults, args.n, max_faults=args.n - 1)
    if args.kind == "sort":
        job["keys"] = args.keys
        job["backend"] = args.backend
        if args.kernels:
            job["kernels"] = args.kernels
    if args.kind == "chaos" and args.fault_class != "baseline":
        classes = _fault_class_list(args.fault_class)
        if len(classes) != 1:
            raise SystemExit(
                "repro: invalid --fault-class: submit takes exactly one class "
                "per job stream (run one submit per class)")
        job["fault_class"] = classes[0]
    if args.stream:
        if args.kind != "sort":
            raise SystemExit("repro: --stream applies to sort jobs only")
        job["stream"] = True

    async def consume_stream(client, job_id: str) -> dict:
        """Drain one framed result; returns a result-shaped summary."""
        from repro.service import StreamError

        frames = count = 0
        in_order = True
        last = None
        try:
            async for chunk in client.iter_result(job_id):
                frames += 1
                count += int(chunk.size)
                if chunk.size:
                    if last is not None and chunk[0] < last:
                        in_order = False
                    if not bool((chunk[1:] >= chunk[:-1]).all()):
                        in_order = False
                    last = chunk[-1]
        except StreamError as exc:
            return {"ok": False, "job_id": job_id,
                    "result": {"error": str(exc), "streamed": {
                        "frames": frames, "keys": count, "in_order": False}}}
        summary = dict(client.stream_summary(job_id) or {})
        summary.setdefault("result", {})
        summary["result"] = dict(summary["result"])
        summary["result"]["streamed"] = {
            "frames": frames, "keys": count, "in_order": in_order}
        summary["ok"] = bool(summary.get("ok")) and in_order
        return summary

    async def run() -> int:
        client = await ServiceClient.connect(args.host, args.port)
        try:
            acks, rejected = [], []
            for i in range(args.count):
                payload = dict(job)
                payload["seed"] = args.seed + i
                if args.kind == "chaos":
                    payload["index"] = i
                ack = await client.submit(
                    payload, tenant=tenants[i % len(tenants)], retry=True,
                    transport=args.stream_transport if args.stream else None)
                (acks if ack.get("ok") else rejected).append(ack)
            if args.stream:
                results = [await consume_stream(client, a["job_id"])
                           for a in acks]
            else:
                results = [await client.result(a["job_id"]) for a in acks]
            if args.stats:
                print(json.dumps(await client.stats(), indent=2, sort_keys=True))
            if args.drain:
                await client.drain()
        finally:
            await client.close()
        ok = sum(1 for r in results if r["ok"])
        lat = sorted(r.get("latency_ms", 0.0) for r in results)
        print(f"submitted {args.count} {args.kind} job(s) across "
              f"{len(tenants)} tenant(s): {ok} ok, "
              f"{len(results) - ok} failed, {len(rejected)} rejected")
        if lat:
            print(f"  latency  : p50 {lat[len(lat) // 2]:.1f} ms, "
                  f"max {lat[-1]:.1f} ms")
        if args.stream and results:
            frames = sum(r["result"]["streamed"]["frames"] for r in results)
            keys = sum(r["result"]["streamed"]["keys"] for r in results)
            print(f"  streamed : {frames} frame(s), {keys} key(s), "
                  f"transport={args.stream_transport}, "
                  f"in_order={all(r['result']['streamed']['in_order'] for r in results)}")
        for r in results if args.verbose else ():
            print(f"  {r.get('job_id')} [{r.get('tenant')}] ok={r.get('ok')} "
                  f"run={r.get('run_ms', 0.0):.1f}ms "
                  f"batched={r.get('batched')} -> {r.get('result')}")
        return 0 if ok == args.count else 1

    return asyncio.run(run())


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro`` console script."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sort = sub.add_parser("sort", help="run the fault-tolerant sort")
    p_sort.add_argument("--n", type=int, required=True)
    p_sort.add_argument("--faults", type=str, default="")
    p_sort.add_argument("--keys", type=int, default=10_000)
    p_sort.add_argument("--kind", choices=("partial", "total"), default="partial")
    p_sort.add_argument("--seed", type=int, default=0)
    p_sort.add_argument("--spmd", action="store_true",
                        help="run on the discrete-event message-passing engine")
    p_sort.add_argument("--kernels", choices=("numpy", "loop", "compiled"), default=None,
                        help="kernel execution backend (default: numpy, or "
                             "$REPRO_KERNELS)")
    p_sort.set_defaults(func=_cmd_sort)

    p_trace = sub.add_parser(
        "trace", help="run the sort with tracing, write Perfetto JSON"
    )
    p_trace.add_argument("--n", type=int, required=True)
    p_trace.add_argument("--faults", type=str, default="")
    p_trace.add_argument("--keys", type=int, default=10_000)
    p_trace.add_argument("--kind", choices=("partial", "total"), default="partial")
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--out", type=str, default="trace.json",
                         help="Chrome trace_event JSON output path")
    p_trace.add_argument("--top", type=int, default=10,
                         help="rows in the flame-style self-time report")
    p_trace.add_argument("--spmd", action="store_true",
                         help="trace the discrete-event message-passing engine")
    p_trace.add_argument("--kernels", choices=("numpy", "loop", "compiled"), default=None,
                         help="kernel execution backend (default: numpy, or "
                              "$REPRO_KERNELS)")
    p_trace.set_defaults(func=_cmd_trace)

    p_plan = sub.add_parser("plan", help="partition + selection only")
    p_plan.add_argument("--n", type=int, required=True)
    p_plan.add_argument("--faults", type=str, required=True)
    p_plan.add_argument("--svg", type=str, default=None,
                        help="write a partition diagram to this path")
    p_plan.set_defaults(func=_cmd_plan)

    p_diag = sub.add_parser("diagnose", help="PMC diagnosis round-trip")
    p_diag.add_argument("--n", type=int, required=True)
    p_diag.add_argument("--faults", type=str, required=True)
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.set_defaults(func=_cmd_diagnose)

    p_chaos = sub.add_parser(
        "chaos", help="randomized fault-injection campaign"
    )
    p_chaos.add_argument("--scenarios", type=int, default=None,
                         help="scenario count (default 200; 24 with --fast)")
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument("--out", type=str, default="chaos_report.jsonl",
                         help="JSONL report path")
    p_chaos.add_argument("--backend", choices=("both", "phase", "spmd"),
                         default="both")
    from repro.faults.universe import fault_class_summaries

    class_help = "; ".join(
        f"{name}: {summary}" for name, summary in fault_class_summaries().items()
    )
    p_chaos.add_argument("--fault-class", type=str, default="baseline",
                         metavar="CLASS[,CLASS...]",
                         help="fault universes to draw scenarios from "
                              "(comma list or 'all'). Registered classes -- "
                              + class_help)
    p_chaos.add_argument("--fast", action="store_true",
                         help="short smoke campaign (CI)")
    p_chaos.add_argument("--no-shrink", action="store_true",
                         help="skip shrinking failures to minimal reproducers")
    p_chaos.add_argument("--jobs", type=str, default=None,
                         help="workers for scenarios: N, 'auto'/0 = all usable "
                              "CPUs (default: $REPRO_JOBS, else 1)")
    p_chaos.add_argument("--executor", type=str, default=None,
                         choices=("serial", "process", "thread", "shm", "auto"),
                         help="executor tier (default: $REPRO_EXECUTOR, else "
                              "auto; see docs/PERFORMANCE.md)")
    p_chaos.add_argument("--plan-cache", choices=("on", "off", "stats"),
                         default="on",
                         help="plan cache: on (default), off (cold planning "
                              "every scenario), stats (print hit/miss counters "
                              "after the campaign)")
    p_chaos.set_defaults(func=_cmd_chaos)

    p_serve = sub.add_parser(
        "serve", help="run the sorting-as-a-service job server"
    )
    p_serve.add_argument("--host", type=str, default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (0 = pick a free one)")
    p_serve.add_argument("--stdio", action="store_true",
                         help="speak the protocol on stdin/stdout instead of TCP")
    p_serve.add_argument("--jobs", type=str, default=None,
                         help="executor width: 1 = in-process (shared plan "
                              "cache), >1 = warm worker pool, 'auto'/0 = all "
                              "usable CPUs (default: $REPRO_JOBS, else 1)")
    p_serve.add_argument("--executor", type=str, default=None,
                         choices=("process", "thread", "shm", "auto"),
                         help="warm-pool tier for jobs > 1 (default: "
                              "$REPRO_EXECUTOR, else auto)")
    p_serve.add_argument("--max-queued", type=int, default=1024,
                         help="global admission bound")
    p_serve.add_argument("--max-queued-per-tenant", type=int, default=512,
                         help="per-tenant admission bound")
    p_serve.add_argument("--batch-max", type=int, default=8,
                         help="max compatible jobs fused per dispatch")
    p_serve.add_argument("--obs-out", type=str, default=None,
                         help="write a metrics/plan-cache JSON snapshot on drain")
    p_serve.add_argument("--port-file", type=str, default=None,
                         help="write the bound TCP port to this file (CI)")
    p_serve.add_argument("--tenant-rate", type=float, default=None,
                         help="per-tenant admission rate in jobs/sec "
                              "(default: unlimited)")
    p_serve.add_argument("--tenant-burst", type=int, default=None,
                         help="token-bucket burst depth for --tenant-rate "
                              "(default: ceil(rate))")
    p_serve.add_argument("--tenant-max-inflight", type=int, default=None,
                         help="max accepted-but-undelivered jobs per tenant "
                              "(default: unlimited)")
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit jobs to a running repro service"
    )
    p_submit.add_argument("--host", type=str, default="127.0.0.1")
    p_submit.add_argument("--port", type=int, required=True)
    p_submit.add_argument("--kind", choices=("sort", "plan", "chaos"),
                          default="sort")
    p_submit.add_argument("--n", type=int, default=5)
    p_submit.add_argument("--faults", type=str, default="")
    p_submit.add_argument("--keys", type=int, default=1024)
    p_submit.add_argument("--seed", type=int, default=0,
                          help="base seed (job i uses seed + i)")
    p_submit.add_argument("--backend", choices=("phase", "spmd"),
                          default="phase")
    p_submit.add_argument("--kernels", choices=("numpy", "loop", "compiled"), default=None)
    p_submit.add_argument("--fault-class", type=str, default="baseline",
                          help="fault universe for chaos jobs (one registered "
                               "class; see 'repro chaos --help')")
    p_submit.add_argument("--count", type=int, default=1,
                          help="number of jobs to submit")
    p_submit.add_argument("--tenants", type=str, default="default",
                          help="comma-separated tenant names (round-robin)")
    p_submit.add_argument("--stream", action="store_true",
                          help="stream sorted key arrays back as checksummed "
                               "frames (sort jobs only)")
    p_submit.add_argument("--stream-transport", choices=("binary", "shm"),
                          default="binary",
                          help="frame transport for --stream: length-prefixed "
                               "binary chunks, or zero-copy shm descriptors "
                               "(same host only)")
    p_submit.add_argument("--drain", action="store_true",
                          help="drain the server after the results arrive")
    p_submit.add_argument("--stats", action="store_true",
                          help="print the server stats payload as JSON")
    p_submit.add_argument("--verbose", action="store_true",
                          help="print every job result")
    p_submit.set_defaults(func=_cmd_submit)

    for name in ("table1", "table2", "figure7"):
        p = sub.add_parser(name, help=f"regenerate {name} (see repro-{name})")
        p.set_defaults(passthrough=name)

    args, rest = parser.parse_known_args(argv)
    if hasattr(args, "passthrough"):
        module = __import__(f"repro.experiments.{args.passthrough}",
                            fromlist=["main"])
        return module.main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {rest}")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())

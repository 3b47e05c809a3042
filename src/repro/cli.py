"""repro-bench: run the paper's experiments from the command line.

Usage::

    repro-bench list                 # what can be run
    repro-bench fig2                 # Figure 2 partition table
    repro-bench fig3 [--quick]       # the main result matrix
    repro-bench fig4 [--quick]       # em3d MTLB sensitivity (4A + 4B)
    repro-bench init-costs [--quick] # Section 3.3 cost table
    repro-bench reach [--quick]      # 64+MTLB vs 128 equivalence
    repro-bench ablations [--quick]  # A1-A10
    repro-bench multiprog [--quick]  # two-process mix (A8)
    repro-bench sensitivity [--quick]# S1/S2
    repro-bench backends [--quick]   # translation backends (B1)
    repro-bench all [--quick]        # everything, in order

``--quick`` uses CI-sized inputs; without it the EXPERIMENTS.md scales
are used (several minutes for fig3).  ``--jobs N`` fans matrix cells
out over N worker processes (default: all cores) and ``--engine
{scalar,vector}`` selects the trace-execution engine; both only
change wall-clock time, never results — and never the outcome: a
cell that fails deterministically runs once and its own error is
raised, at any ``--jobs``.  ``--store DIR`` attaches the
content-addressed result store, so cells already simulated (under any
engine or job count) are served from disk: it is how a killed run
resumes, and without it a rerun starts over.  Wall-clock performance
is measured by ``perfbench/``, not here.

A bad ``--jobs`` value is rejected up front, in the parser rather
than inside a worker process.

Every invocation opens with a banner echoing the active seed, fault
plan, obs state, and the engine the run uses.  ``fig3`` and ``fig4``
additionally write standardized ``BENCH_<name>.json`` metrics
snapshots into the current directory — compare two of them with
``repro metrics diff`` (the ``repro`` command also does single-run
dumps; DESIGN.md §9).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path
from typing import List, Optional

from . import __version__
from .bench import (
    BenchContext,
    improvement_summary,
    measure_em3d_remap,
    run_all_shadow_ablation,
    run_allocator_ablation,
    run_bit_writeback_ablation,
    run_cache_sensitivity,
    run_check_penalty_ablation,
    run_fig2,
    run_figure3,
    run_figure4,
    run_fragmentation_ablation,
    run_gather_ablation,
    run_handler_sensitivity,
    run_multiprog_ablation,
    run_promotion_ablation,
    run_reach_equivalence,
    run_recoloring_ablation,
    run_stream_buffer_ablation,
)
from .faults import FAULT_SITES, FaultConfig
from .obs import (
    SCHEMA,
    ObsConfig,
    diff_snapshots,
    load_snapshot,
    matrix_snapshot,
    parse_threshold,
    results_snapshot,
    run_snapshot,
    write_snapshot,
)
from .sim.config import (
    SystemConfig,
    figure3_configs,
    figure4_configs,
    paper_base,
    paper_mtlb,
    paper_no_mtlb,
    paper_promotion,
)
from .workloads import PAPER_SUITE

EXPERIMENTS = (
    "fig2", "fig3", "fig4", "init-costs", "reach", "ablations",
    "multiprog", "sensitivity", "backends",
)


def describe_faults(faults: FaultConfig) -> str:
    """One-line FaultConfig summary for run banners."""
    if not faults.enabled:
        return "disabled"
    parts = [f"seed={faults.seed}"]
    for site in FAULT_SITES:
        rate = faults.rate_of(site)
        if rate > 0.0:
            parts.append(f"{site}={rate:g}")
    if faults.triggers:
        parts.append(f"triggers={len(faults.triggers)}")
    return " ".join(parts)


def print_banner(
    prog: str,
    seed: int,
    config: SystemConfig,
    quick: bool,
    engine: Optional[str] = None,
) -> None:
    """Echo the seed, fault plan, obs state, and engine.

    *engine* overrides the config's own field (the ``--engine`` flag).
    """
    obs_state = "enabled" if config.obs.enabled else "disabled"
    engine = engine or config.engine
    print(
        f"{prog} {__version__} | seed={seed} quick={quick} | "
        f"faults: {describe_faults(config.faults)} | obs: {obs_state} | "
        f"engine: {engine}"
    )


def _write_bench_snapshot(name: str, snapshot: dict) -> None:
    """Persist one standardized BENCH_<name>.json baseline in the
    repository root (= the invocation directory)."""
    path = write_snapshot(snapshot, Path(f"BENCH_{name}.json"))
    print(f"\nwrote {path} ({len(snapshot['runs'])} runs)")


def _context_meta(context: BenchContext) -> dict:
    return {
        "seed": context.seed,
        "quick": context.quick,
        "scales": dict(context.scales),
        "version": __version__,
    }


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1 (got {value})")
    return value


def _validate_run_flags(parser, args) -> None:
    """Reject bad flag values before any worker process spawns."""
    if args.jobs is not None and args.jobs < 1:
        parser.error(f"--jobs must be >= 1 (got {args.jobs})")


def _report(title: str, report: str, errors: List[str]) -> int:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")
    print(report)
    if errors:
        print("\nSHAPE CHECK FAILURES:")
        for error in errors:
            print(f"  - {error}")
        return 1
    print("\nshape checks: all passed")
    return 0


def _run(name: str, context: BenchContext) -> int:
    if name == "fig2":
        report, errors = run_fig2()
        return _report("E1 / Figure 2", report, errors)
    if name == "fig3":
        result = run_figure3(context, progress=True)
        status = _report("E2 / Figure 3", result.report,
                         result.shape_errors)
        print("\nMTLB improvement at the 96-entry base:")
        for w, gain in improvement_summary(
            result.matrix, PAPER_SUITE
        ).items():
            print(f"  {w:12s} {gain:+.1f}%")
        _write_bench_snapshot(
            "figure3",
            matrix_snapshot(
                result.matrix, "figure3", meta=_context_meta(context)
            ),
        )
        return status
    if name == "fig4":
        result = run_figure4(context, progress=True)
        status = _report(
            "E3+E4 / Figure 4",
            result.report_a + "\n\n" + result.report_b,
            result.shape_errors,
        )
        _write_bench_snapshot(
            "figure4",
            results_snapshot(
                result.runs.values(), "figure4",
                meta=_context_meta(context),
            ),
        )
        return status
    if name == "multiprog":
        result = run_multiprog_ablation(context)
        return _report(
            "E7 / multiprogrammed mix (A8)",
            result.report,
            result.shape_errors,
        )
    if name == "init-costs":
        result = measure_em3d_remap(context)
        return _report("E5 / Section 3.3", result.report,
                       result.shape_errors)
    if name == "reach":
        result = run_reach_equivalence(context, progress=True)
        return _report("E6 / reach equivalence", result.report,
                       result.shape_errors)
    if name == "ablations":
        status = 0
        frag = run_fragmentation_ablation()
        status |= _report("A1 / fragmentation", frag.report,
                          frag.shape_errors)
        alloc = run_allocator_ablation()
        status |= _report("A2 / shadow allocators", alloc.report,
                          alloc.shape_errors)
        check = run_check_penalty_ablation(context)
        status |= _report("A3 / shadow-check penalty", check.report,
                          check.shape_errors)
        promo = run_promotion_ablation(context)
        status |= _report("A4 / online promotion", promo.report,
                          promo.shape_errors)
        stream = run_stream_buffer_ablation(context)
        status |= _report("A5 / MMC stream buffers", stream.report,
                          stream.shape_errors)
        allshadow = run_all_shadow_ablation(context)
        status |= _report("A6 / all-shadow mode", allshadow.report,
                          allshadow.shape_errors)
        recolor = run_recoloring_ablation()
        status |= _report("A7 / page recoloring", recolor.report,
                          recolor.shape_errors)
        multi = run_multiprog_ablation(context)
        status |= _report("A8 / multiprogramming", multi.report,
                          multi.shape_errors)
        bits = run_bit_writeback_ablation(context)
        status |= _report("A9 / accounting-bit write-back", bits.report,
                          bits.shape_errors)
        gathered = run_gather_ablation()
        status |= _report("A10 / page gather", gathered.report,
                          gathered.shape_errors)
        return status
    if name == "sensitivity":
        status = 0
        cache = run_cache_sensitivity(context)
        status |= _report("S1 / cache associativity", cache.report,
                          cache.shape_errors)
        handler = run_handler_sensitivity(context)
        status |= _report("S2 / miss-handler cost", handler.report,
                          handler.shape_errors)
        return status
    if name == "backends":
        from .bench.backends_bench import run_backends_bench

        result = run_backends_bench(context, progress=True)
        _write_bench_snapshot(
            "backends",
            results_snapshot(
                result.runs.values(), "backends",
                meta=_context_meta(context),
            ),
        )
        return _report(
            "B1 / translation backends", result.report,
            result.shape_errors,
        )
    raise ValueError(f"unknown experiment {name!r}")


def main(argv=None) -> int:
    """CLI entry point; returns a process exit status."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {__version__}",
    )
    parser.add_argument(
        "experiment",
        choices=EXPERIMENTS + ("all", "list"),
        help="which experiment to run",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized inputs (fast, same shape checks)",
    )
    parser.add_argument(
        "--seed", type=int, default=1998, help="workload RNG seed"
    )
    parser.add_argument(
        "--keep-going", action="store_true",
        help=(
            "continue past a failing experiment instead of aborting; "
            "the exit status is still non-zero if anything failed"
        ),
    )
    parser.add_argument(
        "--max-refs", type=int, default=None, metavar="N",
        help=(
            "per-run reference budget: abort any single (workload, "
            "config) run that would simulate more than N references"
        ),
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help=(
            "worker processes for matrix cells (default: all cores); "
            "1 forces the serial in-process path"
        ),
    )
    parser.add_argument(
        "--engine",
        choices=("scalar", "vector"),
        default="vector",
        help=(
            "trace-execution engine for every run (DESIGN.md §10); "
            "engines are bit-identical, vector is the fast one"
        ),
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help=(
            "run every cell with the architectural invariant "
            "sanitizers enabled (DESIGN.md §11); read-only checks, "
            "results stay bit-identical"
        ),
    )
    parser.add_argument(
        "--store", metavar="DIR", default=None,
        help=(
            "content-addressed result store directory: each cell is "
            "committed as it finishes and served from disk when run "
            "again (under any engine/jobs setting); this is how an "
            "interrupted fig3 or fig4 resumes"
        ),
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0

    _validate_run_flags(parser, args)

    store = None
    if args.store:
        from .serve.store import ResultStore

        store = ResultStore(Path(args.store))

    # --quick forces quick scales; otherwise defer to REPRO_BENCH_QUICK.
    context = BenchContext(
        quick=True if args.quick else None,
        seed=args.seed,
        max_references=args.max_refs,
        jobs=args.jobs if args.jobs is not None else os.cpu_count(),
        engine=args.engine,
        sanitize=args.sanitize,
        store=store,
    )
    # The benches run the presets unchanged, so the default SystemConfig
    # states the active fault plan and obs mode for this invocation.
    print_banner(
        "repro-bench", context.seed, paper_base(), context.quick,
        engine=args.engine,
    )
    todo = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    status = 0
    for name in todo:
        if args.keep_going:
            try:
                status |= _run(name, context)
            except Exception as exc:  # noqa: BLE001 - harness boundary
                print(
                    f"\nEXPERIMENT FAILED: {name}: "
                    f"{type(exc).__name__}: {exc}",
                    file=sys.stderr,
                )
                status |= 1
        else:
            status |= _run(name, context)
    return status


# ====================================================================== #
# The `repro` CLI: metrics dump / diff (DESIGN.md §9)
# ====================================================================== #

#: Config presets `repro metrics dump` can simulate.
DUMP_CONFIGS = {
    "base": lambda tlb: paper_base() if tlb == 96 else paper_no_mtlb(tlb),
    "no-mtlb": paper_no_mtlb,
    "mtlb": paper_mtlb,
    "promotion": paper_promotion,
}


def _metrics_dump(args) -> int:
    config = DUMP_CONFIGS[args.config](args.tlb)
    if args.obs or args.trace_out:
        config = dataclasses.replace(
            config, obs=ObsConfig(enabled=True, ring_capacity=1 << 20)
        )
    print_banner("repro", args.seed, config, args.quick)
    context = BenchContext(
        quick=True if args.quick else None, seed=args.seed
    )
    result = context.run(args.workload, config)
    label = f"{args.workload}|{config.label}"
    snapshot = run_snapshot(
        result,
        label=label,
        meta={
            "seed": args.seed,
            "quick": context.quick,
            "scale": context.scale_of(args.workload),
            "version": __version__,
        },
    )
    if getattr(args, "format", "json") == "prom":
        from .obs import render_prometheus_mapping

        body = render_prometheus_mapping(
            snapshot["runs"][label]["metrics"],
            extra_labels={"run": label, "seed": str(args.seed)},
        )
        if args.output:
            Path(args.output).write_text(body)
            print(f"wrote {args.output}")
        else:
            print(body, end="")
        if args.trace_out:
            path = result.obs.write_chrome_trace(
                args.trace_out, label=label
            )
            print(f"wrote {path} (load it at https://ui.perfetto.dev)")
        return 0
    if args.output:
        path = write_snapshot(snapshot, args.output)
        print(f"wrote {path}")
    else:
        import json as _json

        print(_json.dumps(snapshot, indent=1, sort_keys=True))
    if args.trace_out:
        path = result.obs.write_chrome_trace(
            args.trace_out, label=f"{args.workload}|{config.label}"
        )
        print(f"wrote {path} (load it at https://ui.perfetto.dev)")
    _print_trace_ops()
    return 0


def _print_trace_ops() -> None:
    """Echo trace-store operational counters on stderr.

    Deliberately *outside* the snapshot JSON: the snapshot's run
    metrics are gated bit-for-bit across engines and cold/warm caches,
    while these counters (hits/misses/cache_corrupt/...) describe this
    invocation's cache traffic.  stderr keeps stdout pipeable.
    """
    from .trace.store import store_registry

    ops = {
        name: value
        for name, value in store_registry().collect().items()
        if value
    }
    if ops:
        print(
            "trace store: "
            + " ".join(f"{k}={v:g}" for k, v in sorted(ops.items())),
            file=sys.stderr,
        )


def _strip_backend_suffix(snapshot):
    """Rewrite ``workload|label@backend`` run keys to ``workload|label``.

    Only the config-label half is touched (the ``@backend`` suffix is
    appended by ``SystemConfig.label`` for non-default backends).  Two
    rows collapsing onto one key is an error: a silent overwrite would
    make the diff compare against whichever row sorted last.
    """
    runs = snapshot.get("runs")
    if not isinstance(runs, dict):
        return snapshot
    stripped = {}
    for key, row in runs.items():
        workload, sep, label = key.partition("|")
        if sep and "@" in label:
            key = f"{workload}|{label.split('@', 1)[0]}"
        if key in stripped:
            raise ValueError(
                f"--ignore-backend collapses two runs onto {key!r}; "
                "diff the snapshots without it"
            )
        stripped[key] = row
    out = dict(snapshot)
    out["runs"] = stripped
    return out


def _metrics_diff(args) -> int:
    try:
        threshold = parse_threshold(args.threshold)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        baseline = load_snapshot(args.baseline)
        candidate = load_snapshot(args.candidate)
        if getattr(args, "ignore_backend", False):
            baseline = _strip_backend_suffix(baseline)
            candidate = _strip_backend_suffix(candidate)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = diff_snapshots(baseline, candidate, threshold=threshold)
    print(report.render(show_unchanged=args.verbose))
    if args.require_identical:
        if report.identical:
            print("snapshots are identical")
            return 0
        print(
            "snapshots differ (--require-identical)", file=sys.stderr
        )
        return 1
    return 1 if report.regressions else 0


def _check_diff(args) -> int:
    from .check.corpus import get_bug
    from .check.lockstep import run_lockstep
    from .check.shrink import emit_repro, shrink_trace

    config = DUMP_CONFIGS[args.config](args.tlb)
    plant = get_bug(args.plant) if args.plant else None
    if plant is not None and plant.config_factory is not None:
        # A bug that targets a lifted vector path (set-assoc cache,
        # armed fault plan) only exists on its own machine.
        config = plant.make_config()
        print(
            f"note: bug {plant.name!r} pins its own machine config "
            f"({config.label})"
        )
    print_banner("repro", args.seed, config, args.quick)
    context = BenchContext(
        quick=True if args.quick else None, seed=args.seed
    )
    trace = context.trace(args.workload)
    report = run_lockstep(
        trace, config, plant=plant, workload=args.workload
    )
    print(report.render())
    if report.identical:
        return 0
    if args.shrink:
        print("\nshrinking to a minimal failing window...")

        def failing(t):
            return not run_lockstep(t, config, plant=plant).identical

        shrunk = shrink_trace(trace, failing)
        name = f"diff-{args.workload}" + (
            f"-{args.plant}" if args.plant else ""
        )
        script = emit_repro(
            shrunk, config, args.out, name,
            mode="diff", plant_name=args.plant,
        )
        print(
            f"shrunk to {shrunk.total_refs} reference(s); "
            f"standalone repro: {script}"
        )
    return 1


def _serve_specs(
    figure: str, seed: int, engine: Optional[str], backend: str = "mtlb"
):
    """The figure's scenario batch: ``(specs, snapshot_label)``.

    A non-default *backend* reinterprets the figure as that backend's
    TLB-size sweep: the MTLB rows make no sense there (a backend owns
    the whole translation path, DESIGN.md §16), so only the
    conventional columns are swept, with ``ScenarioSpec(backend=...)``
    folding the backend into each config.  The snapshot label gains an
    ``@backend`` suffix so cross-backend snapshots can sit side by side
    in one store and still be compared via
    ``repro metrics diff --ignore-backend``.
    """
    from .api import ScenarioSpec

    fold = None if backend == "mtlb" else backend
    if figure == "fig3":
        if fold is None:
            configs = list(figure3_configs().values())
        else:
            configs = [paper_no_mtlb(e) for e in (64, 96, 128)]
        specs = [
            ScenarioSpec(w, config, seed=seed, engine=engine, backend=fold)
            for w in PAPER_SUITE
            for config in configs
        ]
        label = "figure3"
    else:
        if fold is None:
            configs = list(figure4_configs().values())
        else:
            configs = [paper_no_mtlb(128)]
        specs = [
            ScenarioSpec(
                "em3d", config, seed=seed, engine=engine, backend=fold
            )
            for config in configs
        ]
        label = "figure4"
    if fold is not None:
        label = f"{label}@{fold}"
    return specs, label


def _sweep_policy(args):
    """The SupervisionPolicy the sweep flags ask for (None = defaults)."""
    from .serve import SupervisionPolicy

    overrides = {}
    if getattr(args, "deadline", None) is not None:
        overrides["deadline_seconds"] = args.deadline
    if getattr(args, "retries", None) is not None:
        overrides["max_attempts"] = args.retries
    if not overrides:
        return None
    return SupervisionPolicy(**overrides)


def _serve_sweep(args) -> int:
    """``repro serve sweep``: a figure through the scenario service.

    Scenarios already in the content-addressed store are served from
    disk; the rest run in-process (``--jobs 1``) or are sharded over
    supervised worker processes (deadlines, retry-with-backoff —
    DESIGN.md §13).
    The output is the same standardized metrics snapshot
    ``repro-bench`` writes, so a cold and a warm sweep can be compared
    with ``repro metrics diff --require-identical``.

    A first SIGINT/SIGTERM drains in-flight scenarios to the store and
    exits with status 75; a second hard-aborts with status 130.  The
    store holds every scenario that finished, stderr names each one
    that did not with a ``FAILED`` line, and a rerun with the same
    ``--store`` resumes as store hits.  ``--chaos``
    arms deterministic service-layer failure injection (testing only:
    results are still verified bit-identical on commit).

    With ``--daemon URL`` the batch is POSTed to a resident ``repro
    serve daemon`` instead of running a local pool; results stream
    back as they commit and land in the *daemon's* store, bit-identical
    to a local sweep of the same specs.
    """
    from .errors import (
        DaemonProtocolError,
        DaemonUnavailable,
        SpecValidationError,
    )
    from .serve import (
        EXIT_ABORTED,
        EXIT_INTERRUPTED,
        ShutdownGuard,
        SweepClient,
        default_chaos,
    )

    chaos = (
        default_chaos(args.chaos) if args.chaos is not None else None
    )
    guard = ShutdownGuard()
    client = SweepClient(
        store=args.store,
        jobs=args.jobs,
        quick=True if args.quick else None,
        seed=args.seed,
        progress=True,
        policy=_sweep_policy(args),
        chaos=chaos,
        shutdown=guard,
        daemon=getattr(args, "daemon", None),
        tenant=getattr(args, "tenant", None),
    )
    context = client.session.context
    print_banner("repro", args.seed, paper_base(), context.quick)
    if client.daemon is not None:
        print(f"scenario daemon: {client.daemon} (tenant {client.tenant})")
    else:
        print(f"result store: {client.store.root}")
    if chaos is not None:
        print(f"chaos: ARMED seed={chaos.seed} (deterministic injection)")
    try:
        specs, label = _serve_specs(
            args.figure, args.seed, args.engine,
            backend=getattr(args, "backend", "mtlb"),
        )
        with guard:
            reports = client.sweep(specs, raise_errors=False)
    except SpecValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DaemonUnavailable, DaemonProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("\nhard abort: in-flight work discarded "
              "(committed results remain in the store)", file=sys.stderr)
        return EXIT_ABORTED

    supervision = client.last_supervision
    if supervision is not None and not supervision.clean:
        print(f"\n{supervision.render()}")
    failed = [report for report in reports if not report.ok]
    snapshot = results_snapshot(
        (report.to_result() for report in reports if report.ok),
        label,
        meta=_context_meta(context),
    )
    out = args.output or f"BENCH_{label}.json"
    write_snapshot(snapshot, out)
    hits = sum(1 for report in reports if report.cache_hit)
    print(
        f"\n{len(reports)} scenario(s): {hits} served from cache "
        f"({client.cache_hit_rate:.0%} hit rate), "
        f"{len(reports) - hits - len(failed)} simulated, "
        f"{len(failed)} failed"
    )
    print(f"wrote {out} ({len(snapshot['runs'])} runs)")
    for report in failed:
        print(
            f"  FAILED {report.spec.label}: "
            f"{type(report.error).__name__}: {report.error}",
            file=sys.stderr,
        )
    if guard.drain_requested:
        return EXIT_ABORTED if guard.abort_requested else EXIT_INTERRUPTED
    return 1 if failed else 0


def _serve_status(args) -> int:
    """``repro serve status``: result-store inventory."""
    from .serve.store import ResultStore, default_store_root

    root = Path(args.store) if args.store else default_store_root()
    status = ResultStore(root).status()
    width = max(len(key) for key in status)
    for key, value in status.items():
        print(f"{key:{width}s}  {value}")
    return 0


def _serve_daemon(args) -> int:
    """``repro serve daemon``: the resident scenario service.

    One long-lived supervised worker pool serves ScenarioSpec batches
    POSTed by any number of concurrent clients (``repro serve sweep
    --daemon URL``), multiplexed through a priority + weighted-fair
    tenant queue, deduplicated against the store and against work
    already in flight, and streamed back as NDJSON the moment each
    scenario commits.  ``GET /metrics`` exposes Prometheus counters,
    ``GET /healthz`` the liveness gate, ``GET /queue`` the fair-queue
    state (DESIGN.md §14).

    A first SIGTERM/SIGINT drains: in-flight scenarios finish and
    commit, queued waiters get typed error events, the process exits
    0.  A second signal hard-aborts.
    """
    from .serve import EXIT_ABORTED, ScenarioDaemon, ShutdownGuard

    guard = ShutdownGuard(progress=lambda m: print(m, flush=True))
    daemon = ScenarioDaemon(
        store=args.store,
        jobs=args.jobs,
        quick=True if args.quick else None,
        seed=args.seed,
        policy=_sweep_policy(args),
        shutdown=guard,
        progress_cb=lambda message: print(message, flush=True),
    )
    print_banner(
        "repro", args.seed, paper_base(), daemon.context.quick
    )
    with guard:
        code = daemon.run(host=args.host, port=args.port)
    if guard.abort_requested:
        return EXIT_ABORTED
    return code


def _serve_gc(args) -> int:
    """``repro serve gc``: prune orphaned ``*.tmp`` write stages.

    Committed records and quarantined entries are never touched.
    """
    from .serve.store import ResultStore, default_store_root

    root = Path(args.store) if args.store else default_store_root()
    summary = ResultStore(root).gc(
        tmp_grace_seconds=args.tmp_grace,
        dry_run=args.dry_run,
    )
    verb = "would remove" if args.dry_run else "removed"
    print(f"store: {summary['root']}")
    print(f"{verb} {summary['tmp_removed']} tmp file(s)")
    if args.verbose:
        for path in summary["removed"]:
            print(f"  tmp: {path}")
    return 0


def _chaos_soak(args) -> int:
    """``repro chaos soak``: sweeps under injected chaos must converge.

    Runs one clean quick fig3 sweep, then the same sweep under each
    chaos seed with the full fault mix armed (worker kills, stalls,
    commit ENOSPC/EIO, record corruption, slow shards), and asserts the
    final store contents are bit-identical to the clean run minus the
    scenarios that failed.  Writes ``BENCH_chaos.json`` with the per-seed
    ``serve.*`` supervision counters so the self-diff gate can track
    them.  Exit 0 only when every seed converges.
    """
    import tempfile

    from .serve import run_soak

    specs, _ = _serve_specs("fig3", args.seed, None)
    seeds = list(range(1, args.seeds + 1))
    quick = True if args.quick else None
    print_banner("repro", args.seed, paper_base(), bool(args.quick))
    print(
        f"chaos soak: fig3 x {len(specs)} scenario(s), "
        f"{len(seeds)} chaos seed(s), jobs={args.jobs}"
    )

    def _soak(root: Path):
        return run_soak(
            specs,
            root,
            seeds=seeds,
            jobs=args.jobs,
            quick=quick,
            progress=lambda msg: print(msg, flush=True),
        )

    if args.store:
        report = _soak(Path(args.store))
    else:
        with tempfile.TemporaryDirectory(prefix="repro-soak-") as tmp:
            report = _soak(Path(tmp))

    print(f"\n{report.render()}")
    snapshot = {
        "schema": SCHEMA,
        "label": "chaos",
        "runs": {
            f"soak|seed={o.seed}": {
                "metrics": {
                    **{k: float(v) for k, v in sorted(o.counters.items())},
                    "bit_identical": float(o.matched == o.entries),
                    "poisoned": float(len(o.poisoned)),
                    "max_kill_overshoot_seconds": round(
                        o.max_kill_overshoot, 3
                    ),
                }
            }
            for o in report.outcomes
        },
        "meta": {"seed": args.seed, "quick": bool(args.quick),
                 "version": __version__},
    }
    out = args.output or "BENCH_chaos.json"
    path = write_snapshot(snapshot, out)
    print(f"wrote {path} ({len(snapshot['runs'])} runs)")
    if not report.ok:
        print("chaos soak: FAILED (stores diverged)", file=sys.stderr)
        return 1
    print("chaos soak: all seeds converged bit-identically")
    return 0


def _trace_store_for(args):
    from .trace.store import TraceStore

    env = os.environ.get("REPRO_TRACE_CACHE")
    cache_dir = Path(args.cache_dir or env or ".trace_cache")
    return TraceStore(cache_dir / "store")


def _trace_ls(args) -> int:
    store = _trace_store_for(args)
    rows = store.ls()
    if not rows:
        print(f"trace store {store.root} is empty")
        return 0
    print(f"{'address':40s} {'workload':12s} {'scale':>8s} "
          f"{'seed':>6s} {'refs':>12s} {'MB':>8s}")
    total_bytes = 0
    for row in rows:
        if "error" in row:
            print(f"{row['address']:40s} CORRUPT: {row['error']}")
            continue
        total_bytes += row["raw_bytes"]
        print(
            f"{row['address']:40s} {row['workload']:12s} "
            f"{row['scale']:>8g} {row['seed']:>6d} {row['refs']:>12,d} "
            f"{row['raw_bytes'] / 1e6:>8.1f}"
        )
    print(f"\n{len(rows)} entr{'y' if len(rows) == 1 else 'ies'}, "
          f"{total_bytes / 1e6:.1f} MB raw")
    return 0


def _trace_gc(args) -> int:
    store = _trace_store_for(args)
    summary = store.gc()
    print(
        f"removed {summary['tmp_dirs']} staging dir(s), "
        f"{summary['stale_locks']} stale lock(s); "
        f"{summary['quarantined']} quarantined entr(y/ies) on disk"
    )
    return 0


def _check_corpus(args) -> int:
    from .check.corpus import validate_corpus

    outcomes = validate_corpus(args.seed)
    escaped = [o for o in outcomes if not o.caught]
    width = max(len(o.bug.name) for o in outcomes)
    for o in outcomes:
        status = "caught" if o.caught else "ESCAPED"
        print(f"{o.bug.name:{width}s}  [{o.bug.kind:8s}]  {status:8s}"
              f"  {o.detail}")
    print(
        f"\n{len(outcomes) - len(escaped)}/{len(outcomes)} planted "
        "bugs caught"
    )
    return 1 if escaped else 0


def repro_main(argv=None) -> int:
    """Entry point for the `repro` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Observability front door: dump standardized metrics "
            "snapshots and diff them for regressions (DESIGN.md §9)."
        ),
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    metrics = sub.add_parser(
        "metrics", help="metrics snapshots and regression diffs"
    )
    msub = metrics.add_subparsers(dest="metrics_command", required=True)

    dump = msub.add_parser(
        "dump",
        help="simulate one run and emit its metrics snapshot JSON",
    )
    dump.add_argument(
        "--workload", default="em3d", choices=sorted(PAPER_SUITE)
    )
    dump.add_argument(
        "--config", default="mtlb", choices=sorted(DUMP_CONFIGS)
    )
    dump.add_argument("--tlb", type=int, default=96, metavar="ENTRIES")
    dump.add_argument("--seed", type=int, default=1998)
    dump.add_argument(
        "--quick", action="store_true", help="CI-sized input scale"
    )
    dump.add_argument(
        "--obs", action="store_true",
        help="enable event tracing + phase attribution for this run",
    )
    dump.add_argument(
        "-o", "--output", metavar="FILE",
        help="write the snapshot here instead of stdout",
    )
    dump.add_argument(
        "--format", choices=("json", "prom"), default="json",
        help=(
            "output format: the standardized snapshot JSON (default) "
            "or Prometheus text format 0.0.4 (gauges, one series per "
            "metric) for scrape-side ingestion"
        ),
    )
    dump.add_argument(
        "--trace-out", metavar="FILE",
        help="also write a Perfetto-loadable Chrome trace (implies --obs)",
    )
    dump.set_defaults(func=_metrics_dump)

    diff = msub.add_parser(
        "diff",
        help=(
            "compare two snapshots; exits non-zero when any metric "
            "regresses past the threshold"
        ),
    )
    diff.add_argument("baseline", help="baseline snapshot JSON")
    diff.add_argument("candidate", help="candidate snapshot JSON")
    diff.add_argument(
        "--threshold", default="2%",
        help="relative regression threshold (e.g. 2%% or 0.02)",
    )
    diff.add_argument(
        "-v", "--verbose", action="store_true",
        help="also list unchanged metrics",
    )
    diff.add_argument(
        "--require-identical", action="store_true",
        help=(
            "exit non-zero on ANY metric delta or run-set mismatch, "
            "not just threshold regressions (engine-equivalence gate)"
        ),
    )
    diff.add_argument(
        "--ignore-backend", action="store_true",
        help=(
            "strip @backend suffixes from run labels before comparing, "
            "so e.g. a coalesced sweep lines up against the "
            "conventional baseline rows it shares configs with"
        ),
    )
    diff.set_defaults(func=_metrics_diff)

    check = sub.add_parser(
        "check",
        help=(
            "correctness tooling: engine lockstep diffs and the "
            "planted-bug corpus (DESIGN.md §11)"
        ),
    )
    csub = check.add_subparsers(dest="check_command", required=True)

    cdiff = csub.add_parser(
        "diff",
        help=(
            "run one workload under both engines in lockstep and "
            "report the first state divergence"
        ),
    )
    cdiff.add_argument("workload", choices=sorted(PAPER_SUITE))
    cdiff.add_argument(
        "--config", default="mtlb", choices=sorted(DUMP_CONFIGS)
    )
    cdiff.add_argument("--tlb", type=int, default=96, metavar="ENTRIES")
    cdiff.add_argument("--seed", type=int, default=1998)
    cdiff.add_argument(
        "--quick", action="store_true", help="CI-sized input scale"
    )
    cdiff.add_argument(
        "--plant", metavar="BUG", default=None,
        help=(
            "arm one named corpus bug (repro.check.corpus) to "
            "demonstrate/debug the harness on a known divergence"
        ),
    )
    cdiff.add_argument(
        "--shrink", action="store_true",
        help=(
            "on divergence, bisect the trace to a minimal failing "
            "window and emit a standalone repro script"
        ),
    )
    cdiff.add_argument(
        "--out", metavar="DIR", default="check_repros",
        help="directory for emitted repro files (with --shrink)",
    )
    cdiff.set_defaults(func=_check_diff)

    ccorpus = csub.add_parser(
        "corpus",
        help=(
            "validate the planted-bug corpus: every bug must be "
            "caught by the sanitizers or the lockstep harness"
        ),
    )
    ccorpus.add_argument("--seed", type=int, default=1998)
    ccorpus.set_defaults(func=_check_corpus)

    serve = sub.add_parser(
        "serve",
        help=(
            "scenario service: store-deduplicating scenario sweeps "
            "and result-store inventory (DESIGN.md §12)"
        ),
    )
    ssub = serve.add_subparsers(dest="serve_command", required=True)

    sweep = ssub.add_parser(
        "sweep",
        help=(
            "run a figure's scenario batch through the sharded "
            "scheduler; scenarios already in the result store are "
            "served from disk"
        ),
    )
    sweep.add_argument(
        "figure", choices=("fig3", "fig4"),
        help="which figure's scenario batch to sweep",
    )
    sweep.add_argument(
        "--quick", action="store_true", help="CI-sized input scales"
    )
    sweep.add_argument("--seed", type=int, default=1998)
    sweep.add_argument(
        "--jobs", type=_positive_int, default=None, metavar="N",
        help="shard worker processes (default: serial in-process)",
    )
    sweep.add_argument(
        "--engine", choices=("scalar", "vector"), default="vector",
        help=(
            "trace-execution engine; engine choice never changes "
            "results, so store entries are engine-interchangeable"
        ),
    )
    sweep.add_argument(
        "--backend", metavar="NAME", default="mtlb",
        help=(
            "translation backend to sweep (repro.core.backends "
            "registry; default mtlb).  Non-default backends sweep the "
            "figure's conventional TLB sizes only and suffix the "
            "snapshot label with @NAME; an unregistered name fails "
            "fast with the registered list"
        ),
    )
    sweep.add_argument(
        "--store", metavar="DIR", default=None,
        help=(
            "result store directory (default: $REPRO_RESULT_STORE "
            "or .result_store)"
        ),
    )
    sweep.add_argument(
        "-o", "--output", metavar="FILE", default=None,
        help="metrics snapshot path (default: BENCH_<figure>.json)",
    )
    sweep.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help=(
            "per-scenario wall-clock deadline; a hung worker is "
            "hard-killed past deadline+grace and the scenario retried"
        ),
    )
    sweep.add_argument(
        "--retries", type=_positive_int, default=None, metavar="N",
        help=(
            "max attempts per scenario whose failures a rerun can "
            "clear (killed or hung worker, I/O error) before it is "
            "reported as failed; any other failure is tried once "
            "and surfaces as itself (default: supervision policy "
            "default)"
        ),
    )
    sweep.add_argument(
        "--chaos", type=int, default=None, nargs="?", const=2024,
        metavar="SEED",
        help=(
            "arm deterministic service-layer failure injection with "
            "this seed (testing the supervision layer; commits are "
            "still read-back verified)"
        ),
    )
    sweep.add_argument(
        "--daemon", metavar="URL", default=None,
        help=(
            "submit the batch to a resident scenario daemon at this "
            "base URL (e.g. http://127.0.0.1:8765) instead of running "
            "a local pool; results land in the daemon's store"
        ),
    )
    sweep.add_argument(
        "--tenant", metavar="NAME", default=None,
        help=(
            "tenant identity for the daemon's weighted-fair queue "
            "(default: client-<pid>)"
        ),
    )
    sweep.set_defaults(func=_serve_sweep)

    daemon = ssub.add_parser(
        "daemon",
        help=(
            "run the resident scenario service: many clients, one "
            "warm supervised pool, fair-queued, store-deduplicated, "
            "NDJSON-streamed, /metrics-instrumented (DESIGN.md §14)"
        ),
    )
    daemon.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    daemon.add_argument(
        "--port", type=int, default=8765,
        help="TCP port (default 8765; 0 picks an ephemeral port)",
    )
    daemon.add_argument(
        "--jobs", type=_positive_int, default=2, metavar="N",
        help="supervised worker processes in the pool (default 2)",
    )
    daemon.add_argument(
        "--quick", action="store_true",
        help=(
            "CI-sized input scales; the daemon's context governs "
            "scales and fingerprints for every client"
        ),
    )
    daemon.add_argument("--seed", type=int, default=1998)
    daemon.add_argument(
        "--store", metavar="DIR", default=None,
        help=(
            "result store directory (default: $REPRO_RESULT_STORE "
            "or .result_store)"
        ),
    )
    daemon.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-scenario wall-clock deadline (default: policy default)",
    )
    daemon.add_argument(
        "--retries", type=_positive_int, default=None, metavar="N",
        help=(
            "max attempts per scenario whose failures a rerun can "
            "clear; any other failure is tried once (default: policy "
            "default)"
        ),
    )
    daemon.set_defaults(func=_serve_daemon)

    gc = ssub.add_parser(
        "gc",
        help=(
            "prune store litter: orphaned *.tmp write stages "
            "(committed records are never touched)"
        ),
    )
    gc.add_argument(
        "--store", metavar="DIR", default=None,
        help=(
            "result store directory (default: $REPRO_RESULT_STORE "
            "or .result_store)"
        ),
    )
    gc.add_argument(
        "--tmp-grace", type=float, default=900.0, metavar="SECONDS",
        help=(
            "age past which a *.tmp write stage is considered "
            "orphaned (default 900s; live stages exist for millis)"
        ),
    )
    gc.add_argument(
        "--dry-run", action="store_true",
        help="report what would be removed without deleting",
    )
    gc.add_argument(
        "-v", "--verbose", action="store_true",
        help="list each removed path",
    )
    gc.set_defaults(func=_serve_gc)

    sstatus = ssub.add_parser(
        "status", help="result-store inventory (entries, bytes, quarantine)"
    )
    sstatus.add_argument(
        "--store", metavar="DIR", default=None,
        help=(
            "result store directory (default: $REPRO_RESULT_STORE "
            "or .result_store)"
        ),
    )
    sstatus.set_defaults(func=_serve_status)

    chaos = sub.add_parser(
        "chaos",
        help=(
            "service-layer fault injection: soak the supervised sweep "
            "path under deterministic chaos (DESIGN.md §13)"
        ),
    )
    chsub = chaos.add_subparsers(dest="chaos_command", required=True)

    soak = chsub.add_parser(
        "soak",
        help=(
            "run a fig3 sweep clean, then under N chaos seeds, and "
            "assert the stores converge bit-identically (minus "
            "failed scenarios)"
        ),
    )
    soak.add_argument(
        "--quick", action="store_true", help="CI-sized input scales"
    )
    soak.add_argument(
        "--seeds", type=_positive_int, default=3, metavar="N",
        help="number of chaos seeds to soak (seeds 1..N; default 3)",
    )
    soak.add_argument(
        "--jobs", type=_positive_int, default=2, metavar="N",
        help="shard worker processes per sweep (default 2)",
    )
    soak.add_argument("--seed", type=int, default=1998,
                      help="workload RNG seed")
    soak.add_argument(
        "--store", metavar="DIR", default=None,
        help=(
            "root for the soak's clean/chaos stores (default: a "
            "temporary directory, removed afterwards)"
        ),
    )
    soak.add_argument(
        "-o", "--output", metavar="FILE", default=None,
        help="counters snapshot path (default: BENCH_chaos.json)",
    )
    soak.set_defaults(func=_chaos_soak)

    trace = sub.add_parser(
        "trace",
        help=(
            "trace-store maintenance: inventory and garbage "
            "collection (DESIGN.md §15)"
        ),
    )
    tsub = trace.add_subparsers(dest="trace_command", required=True)

    def _trace_cache_arg(p):
        p.add_argument(
            "--cache-dir", metavar="DIR", default=None,
            help=(
                "trace cache directory (default: $REPRO_TRACE_CACHE "
                "or .trace_cache); the store lives in its store/ "
                "subdirectory"
            ),
        )

    tls = tsub.add_parser(
        "ls", help="list store entries (identity, refs, bytes)"
    )
    _trace_cache_arg(tls)
    tls.set_defaults(func=_trace_ls)

    tgc = tsub.add_parser(
        "gc",
        help=(
            "prune orphaned staging dirs and stale single-flight "
            "locks; count quarantined entries"
        ),
    )
    _trace_cache_arg(tgc)
    tgc.set_defaults(func=_trace_gc)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

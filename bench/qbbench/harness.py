"""One benchmark run: the untraced measurement or the traced one.

Both kinds of run execute a fixed list of ``workload.size(seconds)`` items
(the first items of the seeded input sequence), one after another, as a
single closed-loop caller, after a short untimed warm-up.  The list depends
on the seed and ``--seconds`` only, so a seed always gives the same attempts
and the same failures, on any machine.

Times are CPU times: ``time.process_time`` around an in-process item, and the
child's user + system time from ``wait4`` for a cold command.  The program
is single-threaded and its BLAS pools are pinned to one thread, so on an idle
machine CPU time equals wall time; on a shared host it leaves out the time
other tenants hold the processor.  Each CPU time is then scaled to a nominal
host speed (see ``speed.py``), because the host's speed itself moves by up
to 1.6 times in phases of tens of seconds: an item by a reference kernel
sampled between items, a cold command by the reference children spawned
just before and just after it.  CPU, wall and scale factor of
every measurement are recorded in the run's details.

Untraced (end-to-end metrics): ``n_cold`` cold commands run in
``COLD_GROUPS`` groups, at a quarter and at three quarters of the item list,
so machine drift hits both kinds of sample alike; a reference child runs
before each group and after each of its commands.
Items of a few milliseconds run ``workload.repeat`` times back to back and
keep the least time: single calls that short land in or out of the host's
slow spells by chance, which makes their p90 a measure of the host.

Traced (per-layer metrics): a few cold commands under ``-X importtime``,
then an untraced and a traced pass over a third of the untraced run's item
list.  The traced pass must reproduce every output of the untraced one;
``trace.overhead_ratio`` compares the scaled CPU time of the two passes.
"""

from __future__ import annotations

import hashlib
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from .cold import ColdResult, parse_importtime, run_cold
from .speed import NOMINAL_SPAWN_S, SpeedProbe, spawn_reference
from .tracing import Tracer, is_serializer
from .workloads import Problem, Task, Verdict, Workload

N_COLD = 6          # a multiple of every cold mix, so each run holds the same mix
COLD_GROUPS = 2     # cold commands run in this many groups spread through the items
N_IMPORTTIME = 3
TRACED_SHARE = 1 / 3


@dataclass
class Tally:
    """Attempts, failures and output digests of one run."""

    attempted: int = 0
    failed: int = 0
    incorrect: int = 0
    digests: list[str] = field(default_factory=list)       # items, in order
    cold_digests: list[str] = field(default_factory=list)
    messages: list[str] = field(default_factory=list)
    # (label, cpu, wall, scale factor) of every timed item
    latencies: list[tuple[str, float, float, float]] = field(default_factory=list)
    # (label, exit code, cpu, wall, setup, peak RSS, scale factor) of every cold command
    colds: list[tuple] = field(default_factory=list)

    def add(self, label: str, failed: bool, problems: list[Problem],
            texts: dict[str, str], error: str = "", cold: bool = False) -> None:
        self.attempted += 1
        self.failed += failed
        self.incorrect += any(p.exact for p in problems)
        (self.cold_digests if cold else self.digests).append(digest(texts))
        for message in [error, *(p.message for p in problems)]:
            self.note(f"{label}: {message}" if message else "")

    def note(self, message: str) -> None:
        if message and len(self.messages) < 50:
            self.messages.append(message)

    def add_cold(self, result: ColdResult, factor: float = float("nan")) -> None:
        self.colds.append((result.label, result.exit_code, result.cpu_s, result.wall_s,
                           result.setup_s, result.peak_rss_mb, factor))
        error = "" if result.exit_code == 0 else f"exit code {result.exit_code}"
        self.add(f"cold {result.label}", result.failed, result.problems,
                 result.texts, error, cold=True)

    def outputs_digest(self) -> str:
        return hashlib.sha256("".join(self.digests).encode()).hexdigest()


def digest(texts: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(texts):
        h.update(name.encode() + b"\0" + texts[name].encode() + b"\0")
    return h.hexdigest()


def call_item(task: Task, tracer: Tracer | None = None,
              index: int = -1) -> tuple[object, float, float, str]:
    """Run one item: (result, CPU seconds, wall seconds, error); the error is
    empty unless the item raised."""
    frame = tracer.open_item(index) if tracer is not None else None
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        result, error = task.call(), ""
    except Exception as exc:  # a program error fails the item, not the run
        result, error = None, repr(exc)
    finally:
        if frame is not None:
            tracer.close_item(frame)
    return result, time.process_time() - cpu, time.perf_counter() - wall, error


def verdict_of(task: Task, result: object, error: str) -> Verdict:
    if error:
        return Verdict({"error": error}, True, [])
    try:
        return task.verify(result)
    except (KeyError, TypeError, ValueError) as exc:
        return Verdict({}, True, [Problem(f"malformed output: {exc!r}", True)])


def record_item(task: Task, verdict: Verdict, error: str, tally: Tally) -> None:
    if error:
        tally.add(task.label, True, [], verdict.texts, f"raised {error}")
        return
    tally.add(task.label, bool(verdict.problems) or not verdict.converged,
              verdict.problems, verdict.texts,
              "" if verdict.converged else "reported converged: false")


def warm_up(workload: Workload, tasks: list[Task]) -> None:
    """Run the leading items once, so one-time costs stay out of the timings."""
    for task in tasks[:workload.warmup]:
        try:
            task.call()
        except Exception:  # counted when the item runs for real
            pass


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def measure(workload: Workload, seed: int, seconds: float, work_dir: Path,
            env: dict[str, str], n_cold: int = N_COLD,
            n_items: int | None = None) -> tuple[dict, Tally]:
    """Untraced run; returns the end-to-end metrics and the tally."""
    tally = Tally()
    n = workload.size(seconds) if n_items is None else n_items
    tasks = [workload.item(seed, i) for i in range(n)]
    warm_up(workload, tasks)
    probe = SpeedProbe()
    groups = min(COLD_GROUPS, n_cold, n)
    due = {(2 * g + 1) * n // (2 * groups): (g * n_cold // groups, (g + 1) * n_cold // groups)
           for g in range(groups)}   # item index -> cold commands that run before it
    colds: list[tuple[ColdResult, float]] = []   # with the scale factor of its references
    timed: list[tuple[str, float, float, int]] = []
    for i, task in enumerate(tasks):
        if i in due:
            before = spawn_reference(env)
            for j in range(*due[i]):
                cold = run_cold(workload.cold(seed, j), work_dir, env)
                after = spawn_reference(env)
                colds.append((cold, 2.0 * NOMINAL_SPAWN_S / (before + after)))
                before = after
        point = probe.mark()
        result, cpu, wall, error = call_item(task)
        probe.spent(cpu)
        for _ in range(workload.repeat - 1 if not error else 0):
            _, again_cpu, again_wall, _ = call_item(task)
            probe.spent(again_cpu)
            cpu, wall = min(cpu, again_cpu), min(wall, again_wall)
        record_item(task, verdict_of(task, result, error), error, tally)
        if not error:
            timed.append((task.label, cpu, wall, point))
    probe.sample()
    shutil.rmtree(work_dir, ignore_errors=True)

    for cold, factor in colds:
        tally.add_cold(cold, factor)
    tally.latencies = [(label, cpu, wall, probe.factor(point))
                       for label, cpu, wall, point in timed]
    latencies = [cpu * factor for _, cpu, _, factor in tally.latencies]
    deciles = (statistics.quantiles(latencies, n=10)
               if len(latencies) >= 2 else [float("nan")] * 9)
    metrics = {
        "setup_s": (_median([cold.setup_s * factor for cold, factor in colds]), "s"),
        "cold_cmd_s": (_median([cold.cpu_s * factor for cold, factor in colds]), "s"),
        "items_per_s": (len(latencies) / sum(latencies) if latencies else 0.0, "items/s"),
        "item_p50_ms": (_median(latencies) * 1e3, "ms"),
        "item_p90_ms": (deciles[8] * 1e3, "ms"),
        "ok_ratio": (1.0 - tally.failed / max(tally.attempted, 1), "ratio"),
        "peak_rss_mb": (_median([cold.peak_rss_mb for cold, _ in colds]), "MB"),
    }
    return metrics, tally


# per-layer metrics that count work; they must repeat exactly for a seed
EXACT_COUNTS = (
    "dynamics.calls", "measures.correlation_report.calls",
    "measures.level_crossing.model_evals", "states.calls",
    "tomography.mle.iterations", "tomography.mle.converged_ratio",
    "fitting.scan.nnls_calls", "fitting.polish.calls", "fitting.polish.nfev",
    "fitting.polish.useful_ratio", "serialize.bytes")

_SCIPY_SPANS = ("fitting.nnls", "fitting.least_squares")


def layer_metrics(totals: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, from ``Tracer.totals``."""
    names, layers, counters = totals["names"], totals["layers"], totals["counters"]

    def get(name: str, key: str):
        return names.get(name, {}).get(key, 0)

    def layer(name: str, key: str):
        return layers.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {
        "dynamics.calls": (layer("dynamics", "calls"), "count"),
        "dynamics.busy_s": (layer("dynamics", "busy_s"), "s"),
        "measures.correlation_report.calls":
            (get("measures.correlation_report", "calls"), "count"),
        "measures.correlation_report.busy_s":
            (get("measures.correlation_report", "busy_s"), "s"),
        "measures.level_crossing.model_evals":
            (counters["level_crossing_model_evals"], "count"),
        "measures.solve_level_crossing.self_s":
            (get("measures.solve_level_crossing", "self_s"), "s"),
        "measures.brentq.busy_s": (get("measures.brentq", "busy_s"), "s"),
    }
    for command in ("cmd_sweep", "cmd_threshold", "cmd_tomo", "cmd_fit"):
        out[f"cli.{command}.self_s"] = (get(f"cli.{command}", "self_s"), "s")
    out.update({
        "channels.damp_werner.busy_s": (get("channels.damp_werner", "busy_s"), "s"),
        "states.calls": (layer("states", "calls"), "count"),
        "states.busy_s": (layer("states", "busy_s"), "s"),
    })
    for name in ("simulate_counts", "expected_counts", "design_matrix"):
        out[f"tomography.{name}.busy_s"] = (get(f"tomography.{name}", "busy_s"), "s")
    fits = get("fitting.fit_pasy", "calls") + get("fitting.fit_p3", "calls")
    polishes = get("fitting.least_squares", "calls")
    fitting_self = sum(v["self_s"] for k, v in names.items()
                       if k.startswith("fitting.") and k not in _SCIPY_SPANS
                       and not is_serializer(k))
    out.update({
        "tomography.linear_inversion.self_s":
            (get("tomography.linear_inversion", "self_s"), "s"),
        "tomography.mle.iterations": (counters["mle_iterations"], "count"),
        "tomography.mle.converged_ratio":
            (ratio(counters["mle_converged"], counters["mle_calls"]), "ratio"),
        "tomography.minimize.busy_s": (get("tomography.minimize", "busy_s"), "s"),
        "tomography.reconstruct_mle.self_s":
            (get("tomography.reconstruct_mle", "self_s"), "s"),
        "fitting.scan.nnls_calls": (get("fitting.nnls", "calls"), "count"),
        "fitting.scan.busy_s": (counters["scan_s"], "s"),
        "fitting.polish.calls": (polishes, "count"),
        "fitting.polish.nfev": (counters["polish_nfev"], "count"),
        "fitting.polish.busy_s": (get("fitting.least_squares", "busy_s"), "s"),
        "fitting.polish.useful_ratio": (ratio(fits, polishes), "ratio"),
        "fitting.self_s": (fitting_self, "s"),
        "serialize.busy_s": (layer("serialize", "busy_s"), "s"),
        "serialize.bytes": (counters["serialize_bytes"], "bytes"),
    })
    return out


def trace(workload: Workload, seed: int, seconds: float, work_dir: Path,
          env: dict[str, str], spans_path: Path | None = None,
          n_import: int = N_IMPORTTIME,
          n_items: int | None = None) -> tuple[dict, Tally, dict]:
    """Traced run; returns the per-layer metrics, the tally and the totals
    of the traced pass."""
    tally = Tally()
    imports = []
    for j in range(n_import):
        result = run_cold(workload.cold(seed, j), work_dir, env, importtime=True)
        tally.add_cold(result)
        imports.append(parse_importtime(result.import_log))
    shutil.rmtree(work_dir, ignore_errors=True)

    n = workload.size(seconds * TRACED_SHARE) if n_items is None else n_items
    tasks = [workload.item(seed, i) for i in range(n)]
    warm_up(workload, tasks)
    probe = SpeedProbe()
    untraced, texts = [], []
    for task in tasks:
        point = probe.mark()
        result, cpu, _, error = call_item(task)
        probe.spent(cpu)
        verdict = verdict_of(task, result, error)
        record_item(task, verdict, error, tally)
        untraced.append((cpu, point))
        texts.append(verdict.texts)

    tracer = Tracer()
    traced, outputs = [], []
    tracer.install()
    try:
        for i, task in enumerate(tasks):
            # raw spans of one stratified block are enough to read a trace
            tracer.record = i < workload.cycle
            point = probe.mark()
            outputs.append(call_item(task, tracer, i))
            probe.spent(outputs[-1][1])
            traced.append((outputs[-1][1], point))
    finally:
        tracer.uninstall()
    probe.sample()
    for task, before, (result, _, _, error) in zip(tasks, texts, outputs):
        if verdict_of(task, result, error).texts != before:
            tally.incorrect += 1
            tally.note(f"{task.label}: traced output differs from the untraced one")
    if spans_path is not None:
        tracer.save(spans_path)

    totals = tracer.totals()
    metrics: dict[str, tuple[float, str]] = {}
    for key in ("total_s", "scipy_optimize_s", "qbuffer_s"):
        metrics[f"import.{key}"] = (_median([m[key] for m in imports]), "s")
    metrics.update(layer_metrics(totals))
    untraced_s, traced_s = (sum(cpu * probe.factor(point) for cpu, point in timed)
                            for timed in (untraced, traced))
    metrics["trace.overhead_ratio"] = (untraced_s / traced_s, "ratio")
    return metrics, tally, totals

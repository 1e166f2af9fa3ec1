"""Traced-run instruments, all read from outside the program.

* :class:`Tracer` records one span per call into a layer: name, start,
  end, parent, and the Spark job group the call ran under.  Per-span
  Spark metrics are read afterwards from the driver's status stores.
* :func:`job_group_metrics` reads ``AppStatusStore`` (jobs by group, then
  per stage: tasks, executor run and CPU time, GC time, shuffle bytes)
  and the SQL status store (Python-worker time and Arrow bytes).  Both
  stores are filled with ``spark.ui.enabled=false``.
* :class:`ProcSampler` samples ``/proc`` for driver, JVM and
  Python-worker CPU time and the peak resident memory of all three.
"""
from __future__ import annotations

import os
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Span fields read from Spark's status stores.
STORE_FIELDS = (
    "executor_run_s", "executor_cpu_s", "gc_s", "shuffle_bytes",
    "py_run_s", "arrow_bytes", "stages", "tasks",
)
#: Span fields that add up over the calls of one name.
ADDITIVE = ("wall_s", "driver_cpu_s", "rows_out") + STORE_FIELDS
FIELDS = ADDITIVE + ("py_task_skew",)

_PY_RUN = "time to run Python workers"
_ARROW = ("data sent to Python workers", "data returned from Python workers")
_UNITS = {
    "B": 1, "KiB": 1 << 10, "MiB": 1 << 20, "GiB": 1 << 30, "TiB": 1 << 40,
    "ms": 1e-3, "s": 1.0, "m": 60.0, "h": 3600.0,
}
_PLAN_METRIC = re.compile(
    r"SQLPlanMetric\(({}),(\d+),".format("|".join(map(re.escape, (_PY_RUN,) + _ARROW)))
)
_QUANTITY = re.compile(r"([\d.,]+)\s*(TiB|GiB|MiB|KiB|B|ms|s|m|h)\b")


def parse_sql_metric(text: str) -> tuple[float, float, float]:
    """(total, median, max) of a size/timing SQL metric string.

    Spark renders these as ``total (min, med, max (stageId: taskId))``
    followed by e.g. ``2.0 s (433 ms, 563 ms, 568 ms (stage 3.0: task 5))``;
    a metric that only one task updated is a bare ``0 ms``.
    """
    body = text.split("\n", 1)[-1]
    values = [
        float(num.replace(",", "")) * _UNITS[unit]
        for num, unit in _QUANTITY.findall(body)
    ]
    if not values:
        raise ValueError(f"unparsable SQL metric {text!r}")
    if len(values) >= 4:
        return values[0], values[2], values[3]
    return values[0], values[0], values[0]


def _seq(scala_seq):
    """Iterate a Scala collection held through py4j."""
    it = scala_seq.iterator()
    while it.hasNext():
        yield it.next()


def wait_for_listeners(spark) -> None:
    """Block until the status stores have seen every finished job."""
    spark.sparkContext._jsc.sc().listenerBus().waitUntilEmpty()


def job_group_metrics(spark, groups: set[str]) -> dict[str, dict[str, float]]:
    """Spark-side span fields for each job group in ``groups``."""
    sc = spark.sparkContext
    store = sc._jsc.sc().statusStore()
    no_tasks = sc._jvm.java.util.ArrayList()
    no_quantiles = sc._gateway.new_array(sc._jvm.double, 0)

    job_group: dict[int, str] = {}
    stage_ids: dict[str, set[int]] = {g: set() for g in groups}
    for job in _seq(store.jobsList(None)):
        group = job.jobGroup()
        if group.isDefined() and group.get() in groups:
            job_group[job.jobId()] = group.get()
            stage_ids[group.get()].update(_seq(job.stageIds()))

    out = {g: dict.fromkeys(STORE_FIELDS, 0.0) for g in groups}
    for g, ids in stage_ids.items():
        for sid in ids:
            for st in _seq(store.stageData(sid, False, no_tasks, False, no_quantiles)):
                if st.status().toString() != "COMPLETE":
                    continue  # skipped: its shuffle output came from an earlier job
                m = out[g]
                m["stages"] += 1
                m["tasks"] += st.numCompleteTasks()
                m["executor_run_s"] += st.executorRunTime() / 1e3
                m["executor_cpu_s"] += st.executorCpuTime() / 1e9
                m["gc_s"] += st.jvmGcTime() / 1e3
                m["shuffle_bytes"] += st.shuffleWriteBytes()

    sql = spark._jsparkSession.sharedState().statusStore()
    seen: set[int] = set()
    skews: dict[str, list[float]] = {g: [] for g in groups}
    for ex in _seq(sql.executionsList()):
        owners = {job_group.get(j) for j in _seq(ex.jobs().keys())} - {None}
        if len(owners) != 1:
            continue
        g = owners.pop()
        # One py4j call renders every SQLPlanMetric(name,accumulatorId,type).
        wanted = _PLAN_METRIC.findall(ex.metrics().mkString("\n"))
        values = sql.executionMetrics(ex.executionId())
        for name, acc in wanted:
            acc = int(acc)
            if acc in seen:
                continue
            seen.add(acc)  # AQE re-plans list one accumulator several times
            text = values.get(acc)
            if not text.isDefined():
                continue
            total, med, mx = parse_sql_metric(text.get())
            if name == _PY_RUN:
                out[g]["py_run_s"] += total
                if med > 0:
                    skews[g].append(mx / med)
            else:
                out[g]["arrow_bytes"] += round(total)
    for g in groups:
        out[g]["py_task_skew"] = max(skews[g], default=0.0)
    return out


@dataclass(eq=False)
class Span:
    name: str
    parent: str | None
    group: str
    start: float
    end: float = 0.0
    driver_cpu_s: float = 0.0
    rows_out: int = 0


@dataclass
class Tracer:
    """Spans around the benchmark's calls into the program's layers.

    Each span runs under its own Spark job group, so the status stores
    attribute every job to exactly one span.  A call's output that later
    calls read is cached when the call is forced, so that no span
    executes another span's work again.
    """

    spark: object
    spans: list[Span] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        sc = self.spark.sparkContext
        sp = Span(
            name=name,
            parent=self._stack[-1].name if self._stack else None,
            group=f"perfbench-{len(self.spans)}-{name}",
            start=time.perf_counter(),
        )
        self.spans.append(sp)
        self._stack.append(sp)
        sc.setJobGroup(sp.group, name)
        cpu0 = time.thread_time()  # this thread's: not the /proc sampler's
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            sp.driver_cpu_s = time.thread_time() - cpu0
            self._stack.pop()
            if self._stack:
                sc.setJobGroup(self._stack[-1].group, self._stack[-1].name)
            else:
                sc._jsc.clearJobGroup()

    def force(self, name: str, make):
        """Call ``make``, then cache and count the DataFrame it returns.

        Returns the cached DataFrame and its row count.
        """
        with self.span(name) as sp:
            df = make().persist()
            sp.rows_out = df.count()
        return df, sp.rows_out

    def collect(self, name: str, fn):
        """Run a call that collects its result to the driver; returns it."""
        with self.span(name) as sp:
            result = fn()
            sp.rows_out = len(result)
        return result

    def report(self, names: set[str]) -> dict[str, dict[str, float]]:
        """Fields per span name in ``names``, summed over its calls."""
        wait_for_listeners(self.spark)
        spans = [s for s in self.spans if s.name in names]
        spark_side = job_group_metrics(self.spark, {s.group for s in spans})
        out: dict[str, dict[str, float]] = {}
        for s in spans:
            acc = out.setdefault(s.name, dict.fromkeys(FIELDS, 0.0))
            own = dict(spark_side[s.group], wall_s=s.end - s.start,
                       driver_cpu_s=s.driver_cpu_s, rows_out=s.rows_out)
            for f in ADDITIVE:
                acc[f] += own[f]
            acc["py_task_skew"] = max(acc["py_task_skew"], own["py_task_skew"])
        return out


# --------------------------------------------------------------------------
# /proc sampling

_TICK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _stat(pid: int) -> tuple[int, float, int] | None:
    """(ppid, cpu seconds, rss bytes) of a live process, else None."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    fields = raw[raw.rindex(")") + 2:].split()
    # fields[0] is field 3 of proc(5): state; ppid, utime, stime, rss follow.
    return int(fields[1]), (int(fields[11]) + int(fields[12])) / _TICK, int(fields[21]) * _PAGE


def descendants(root: int) -> set[int]:
    """Live descendants of ``root`` (the JVM's Python daemon and workers)."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st is not None:
                children.setdefault(st[0], []).append(int(name))
    out, todo = set(), [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.add(c)
            todo.append(c)
    return out


class ProcSampler:
    """Background sampler of driver, JVM and Python-worker processes."""

    def __init__(self, jvm_pid: int, period_s: float = 0.25):
        self.jvm_pid = jvm_pid
        self.period_s = period_s
        self._first: dict[int, float] = {}
        self._last: dict[int, float] = {}
        self.peak_rss = 0
        self.cpu_s = 0.0  # the sampler's own CPU time
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self, first: bool = False) -> None:
        rss = 0
        for pid in {os.getpid(), self.jvm_pid} | descendants(self.jvm_pid):
            st = _stat(pid)
            if st is None:
                continue
            if first:
                self._first[pid] = st[1]
            self._last[pid] = st[1]
            rss += st[2]
        self.peak_rss = max(self.peak_rss, rss)

    def _loop(self) -> None:
        while not self._stop.wait(self.period_s):
            self._sample()
        self.cpu_s = time.thread_time()  # this thread's own, as it ends

    def __enter__(self) -> "ProcSampler":
        self._sample(first=True)
        self._cpu0 = time.process_time()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        self._sample()
        self.driver_cpu_s = time.process_time() - self._cpu0 - self.cpu_s

    def metrics(self) -> dict[str, float]:
        def used(pid: int) -> float:
            return self._last[pid] - self._first.get(pid, 0.0)

        workers = set(self._last) - {os.getpid(), self.jvm_pid}
        return {
            "proc.jvm_cpu_s": used(self.jvm_pid),
            "proc.py_workers_cpu_s": sum(used(p) for p in workers),
            "proc.driver_cpu_s": self.driver_cpu_s,
            "proc.peak_rss_mb": self.peak_rss / (1 << 20),
        }


def spark_counts(spark) -> dict[str, int]:
    """Jobs, completed stages and completed tasks so far in the session."""
    wait_for_listeners(spark)
    jobs = stages = tasks = 0
    store = spark.sparkContext._jsc.sc().statusStore()
    for job in _seq(store.jobsList(None)):
        jobs += 1
        stages += job.numCompletedStages()
        tasks += job.numCompletedTasks()
    return {"spark.jobs": jobs, "spark.stages": stages, "spark.tasks": tasks}

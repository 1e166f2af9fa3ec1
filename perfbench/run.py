"""Benchmark of the paper's pipelines, run from the root of a checkout.

Usage:
    python3 perfbench/run.py --workload fig4_pairing --seed 11 --seconds 40 --trace 0

One workload per process (``fig4_pairing`` or ``contrib_tables``;
``BENCHMARK.json`` says why each exists), on Spark ``local[nproc]`` with
the session settings of ``jobs/common.get_spark``.

``--trace 0`` measures what a user of the one-shot ``jobs/t*.py`` scripts
waits for: launch a fresh JVM and session, run the workload once (cold),
stop.  It reports ``setup_s`` (JVM launch to a session that has spawned
its first Python worker), ``first_run_s`` (the cold run), ``wall_s``
(their sum: the job's wall time), ``success_rate`` (runs that neither
raised nor failed an oracle check, over runs attempted) and
``paper_verdicts`` (paper claims the outputs reproduce).  One set-up and
cold run take 35-70 s on 4 cores, so ``--seconds`` is accepted but a run
always makes exactly one.

``--trace 1`` runs the workload once untraced (cold), then replays every
workload warm as a sequence of calls into the layers, each forced under
its own Spark job group, and reports per-layer values read from Spark's
status stores and ``/proc``.  Every traced run replays every workload, so
that it reports every per-layer metric: ``--workload``'s replay first,
right after its cold run, then the other's.  Span names the two workloads
share carry the workload's name (``culinarydb.build_corpus-fig4_pairing``).

Oracle checks run outside every timed region; between runs in one session
the cache is cleared and the JVM collects garbage.  The last stdout line
is the JSON result; everything before it is a human-readable report.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracing import FIELDS, descendants

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def driver_memory() -> str:
    """Half the machine's memory, at most 4 GiB: the heap holds a few
    cached corpora of ≤46k short rows."""
    with open("/proc/meminfo") as f:
        kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    return f"{max(1, min(4, kib // (2 << 20)))}g"


def configure_launch() -> dict[str, str]:
    """Everything the JVM and its Python workers need, set before launch."""
    shutil.rmtree(WORK, ignore_errors=True)  # what an interrupted run left
    WORK.mkdir()
    mem, cores = driver_memory(), nproc()
    # The Python workers import repro; they inherit the environment.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["TMPDIR"] = os.environ["SPARK_LOCAL_DIRS"] = str(WORK)
    tempfile.tempdir = str(WORK)
    # Both JVMs spark-submit starts (its launcher and the driver) keep
    # their temporary files in the checkout too.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={WORK}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{cores}]",
        f"--driver-memory {mem}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        "pyspark-shell",
    ])
    for p in (ROOT / "src", ROOT / "jobs"):
        sys.path.insert(0, str(p))
    return {"nproc": cores, "driver_memory": mem}


def source_version() -> str:
    """The git commit when run in a clone, else a digest of the sources."""
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref  # detached HEAD
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "jobs").glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def start_session(app: str):
    """Launch the JVM and session; returns (spark, seconds)."""
    from common import get_spark

    t0 = time.perf_counter()
    spark = get_spark(app)
    spark.sparkContext.parallelize([0], 1).map(abs).collect()
    return spark, time.perf_counter() - t0


def stop_session(spark) -> None:
    """Stop Spark, end the JVM and wait for its Python workers to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    jvm = gateway.proc
    workers = descendants(jvm.pid)
    try:
        spark.stop()
    finally:
        gateway.shutdown()
        jvm.stdin.close()  # the JVM exits when its stdin closes
        try:
            jvm.wait(timeout=60)
        except subprocess.TimeoutExpired:
            jvm.kill()
            jvm.wait()
        SparkContext._gateway = SparkContext._jvm = None
    deadline = time.monotonic() + 30
    while workers:
        workers = {p for p in workers if Path(f"/proc/{p}").exists()}
        if workers and time.monotonic() > deadline:
            for p in workers:
                os.kill(p, signal.SIGKILL)
            deadline = float("inf")
        time.sleep(0.05)


def isolate(spark) -> None:
    """Drop what one run left cached (the jobs persist and never unpersist)."""
    spark.catalog.clearCache()
    spark.sparkContext._jvm.System.gc()


class Runner:
    """Times runs of one workload and checks each output."""

    def __init__(self, workload, oracle):
        self.w, self.oracle = workload, oracle
        self.expected = None
        self.verdicts = None
        self.attempted = self.failed = 0

    def attempt(self, fn):
        """Run ``fn`` timed; returns (seconds, output), output None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:
            traceback.print_exc()
            self.fail(["raised"])
            return time.perf_counter() - t0, None
        return time.perf_counter() - t0, out

    def check(self, out) -> None:
        """Check a run's output against the oracle, outside any timing."""
        if out is None:
            return  # counted when it raised
        try:
            if self.expected is None:
                self.expected = self.w.expect(self.oracle)
            errors = self.w.check(out, self.expected)
            verdicts = self.w.verdicts(out)
        except Exception:  # an output the checks cannot read is a failed run
            traceback.print_exc()
            self.fail(["checking the output raised"])
            return
        if self.verdicts is None:
            self.verdicts = verdicts
        elif verdicts != self.verdicts:
            errors.append(f"paper verdicts {verdicts} != {self.verdicts} of the first run")
        if errors:
            self.fail(errors)

    def fail(self, errors: list[str]) -> None:
        self.failed += 1
        print(f"{self.w.name} run {self.attempted} FAILED: " + "; ".join(errors[:10]),
              file=sys.stderr)

    def run(self, spark, seed: int) -> float:
        dt, out = self.attempt(lambda: self.w.run(spark, seed))
        self.check(out)
        return dt


def untraced(w, seed: int, env: dict) -> tuple[dict[str, float], list]:
    """Launch a session, run the workload cold, stop."""
    from workloads import Oracle

    spark, setup_s = start_session(f"perfbench-{w.name}")
    try:
        describe(env, spark)
        runner = Runner(w, Oracle(spark, seed))
        first_run_s = runner.run(spark, seed)
    finally:
        stop_session(spark)
    print(f"setup_s {setup_s:.3f}, first_run_s {first_run_s:.3f}, "
          f"wall_s {setup_s + first_run_s:.3f}")
    print(f"error_rate: {runner.failed}/{runner.attempted} runs")
    for claim, n in (runner.verdicts or {}).items():
        print(f"paper verdicts: {claim}: {n}")
    return {
        "setup_s": setup_s,
        "first_run_s": first_run_s,
        "wall_s": setup_s + first_run_s,
        "success_rate": (runner.attempted - runner.failed) / runner.attempted,
        "paper_verdicts": sum((runner.verdicts or {}).values()),
    }, [runner]


def traced(w, seed: int, env: dict) -> tuple[dict[str, float], list]:
    """An untraced cold run of ``w``, then every workload's replay."""
    from tracing import ProcSampler, Tracer, spark_counts
    from workloads import WORKLOADS, Oracle, coverage_swaps

    order = [w] + [x for x in WORKLOADS.values() if x is not w]
    spark, setup_s = start_session(f"perfbench-{w.name}")
    try:
        describe(env, spark)
        oracle = Oracle(spark, seed)
        runners = {x.name: Runner(x, oracle) for x in order}
        cold = runners[w.name].run(spark, seed)
        isolate(spark)

        tracer = Tracer(spark)
        counts: dict[str, float] = {}
        outs = {}

        def replay(x):
            with tracer.span(x.name):
                out, layer_counts = x.replay(tracer, spark, seed)
            counts.update(layer_counts)
            return out

        before = spark_counts(spark)
        with ProcSampler(spark.sparkContext._gateway.proc.pid) as sampler:
            for x in order:
                _, outs[x.name] = runners[x.name].attempt(lambda: replay(x))
                isolate(spark)
        t_read = time.perf_counter()
        layers = tracer.report({s.name for s in tracer.spans if s.parent is not None})
        counts.update({k: v - before[k] for k, v in spark_counts(spark).items()})
        t_read = time.perf_counter() - t_read
        counts.update(sampler.metrics())
        for x in order:
            runners[x.name].check(outs[x.name])
        for x in order:
            counts[f"culinarydb.coverage_swaps-{x.name}"] = coverage_swaps(oracle, x.scale)
    finally:
        stop_session(spark)

    t0 = tracer.spans[0].start
    print("spans (name, start s, end s, parent), relative to the first replay's start:")
    for sp in tracer.spans:
        print(f"  {sp.name:40s} {sp.start - t0:9.3f} {sp.end - t0:9.3f}  {sp.parent}")
    print("per-layer values, summed over the calls of each name:")
    print(f"  {'span':40s}" + "".join(f"{f:>15s}" for f in FIELDS))
    for name in sorted(layers):
        print(f"  {name:40s}" + "".join(f"{layers[name][f]:15.4g}" for f in FIELDS))
    for k, v in sorted(counts.items()):
        print(f"  {k} = {v}")
    print(f"{w.name}: untraced wall_s {setup_s + cold:.3f} s = set-up {setup_s:.3f} s "
          f"+ cold run {cold:.3f} s")
    for root in (sp for sp in tracer.spans if sp.parent is None):
        replay_s = root.end - root.start
        own: dict[str, float] = {}
        for sp in tracer.spans:
            if sp.parent == root.name:
                own[sp.name] = own.get(sp.name, 0.0) + sp.end - sp.start
        print(f"{root.name}: warm traced replay {replay_s:.3f} s, its spans "
              f"{sum(own.values()):.3f} s ({100 * sum(own.values()) / replay_s:.1f}%; "
              "the rest is driver code between calls)")
        print("  share of the replay by span: " + ", ".join(
            f"{name} {100 * t / replay_s:.1f}%"
            for name, t in sorted(own.items(), key=lambda kv: -kv[1])))
    print("A replay forces and caches each call's output on its own, which an untraced run "
          "does not; the cold run's excess over the spans is start-up: JIT, code generation, "
          "Python workers importing.")
    print(f"tracing overhead outside the replays: status stores read in {t_read:.3f} s; "
          f"the /proc sampler used {sampler.cpu_s:.3f} s of driver CPU")
    values = {f"{name}.{f}": v for name, m in layers.items() for f, v in m.items()}
    values.update(counts)
    return values, list(runners.values())


def describe(env: dict, spark) -> None:
    env.update(
        spark=spark.version,
        java=spark.sparkContext._jvm.System.getProperty("java.version"),
        python=platform.python_version(),
        source=source_version(),
    )
    print("environment: " + json.dumps(env))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=40,
                        help="accepted for the benchmark interface; a run makes one cold run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    born = time.perf_counter()

    missing = [p for p in ("src/repro", "jobs", "BENCHMARK.json") if not (ROOT / p).exists()]
    if missing:
        print(f"not a checkout of the program: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; expected one of {names}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return 2
    env = configure_launch()
    try:
        from workloads import MODEL_SEED_OFFSET, N_RAND, PHRASE_SEED_OFFSET, WORKLOADS

        w = WORKLOADS[args.workload]
        env.update(workload=w.name, seed=args.seed, model_seed=args.seed + MODEL_SEED_OFFSET,
                   phrase_seed=args.seed + PHRASE_SEED_OFFSET, scale=w.scale, n_rand=N_RAND)
        if args.trace:
            values, runners = traced(w, args.seed, env)
            wanted = spec["per_layer"]
        else:
            values, runners = untraced(w, args.seed, env)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    unmeasured = [m["name"] for m in wanted if m["name"] not in values]
    if unmeasured:
        print(f"metrics not measured: {unmeasured}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    failed = sum(r.failed for r in runners)
    print(f"benchmark process: {time.perf_counter() - born:.1f} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in runners),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

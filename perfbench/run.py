"""hyperstab benchmark: whole CLI runs, timed one process at a time.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload stable24_warm --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

One closed-loop client starts ``python -m hyperstab.cli`` from ``src/``,
waits for it to exit, gates its outputs against ``pins.json`` and starts the
next unless a typical sample would end more than half its time after
``--seconds``.  Every process gets its own ``--out`` directory and a
``HYPERSTAB_CACHE`` directory owned by the benchmark under ``perfbench/_work``,
which is deleted afterwards; the user's own cache is never read or written.

Between any two samples or set-ups it runs ``reference.py``, a fixed
program that measures how fast the shared machine runs at that moment, for
``REFERENCE_SHARE`` of the time of the sample or set-up before (at least
once).  Each sample's and set-up's times are scaled to the speed at which the
reference takes ``REFERENCE_S`` seconds of CPU time, by the mean CPU time of
all the reference runs just before and just after it.  This takes out the
drift of the machine's speed, which moves the raw times of whole runs by up
to 2x, and leaves every change of the program in.  The reference's wall time
is not used: it adds the scheduling waits of a short process, which are
noise.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: median
wall time, child CPU time (both at reference speed) and peak RSS over the
samples, and the median set-up time at reference speed over
``SETUP_REPEATS`` set-ups.  ``--trace 1`` runs the same untraced samples, then one more process under ``tracing.py`` and reports the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name every metric with its unit, and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
REFERENCE = HERE / "reference.py"

SETUP_REPEATS = 3
# reported times are at the machine speed where one reference run takes this
# much CPU time, its typical CPU time on the tuning machine when quiet
REFERENCE_S = 0.30
# reference runs after a sample or set-up last at least this share of its time
REFERENCE_SHARE = 0.12
# every child is killed if the whole run would otherwise pass this many seconds
RUN_DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple
    pins: str
    seeded: bool = False  # pass the workload seed to the CLI as --seed
    prefilled: bool = False  # share one cache directory filled during set-up


# The machine this was tuned on (2 shared vCPUs) slows by up to 2x in
# phases of tens of seconds to minutes, so a run must be long to give a
# steady median, and 22 runs of every workload must still fit the
# benchmark's time budget.  That leaves room for two workloads of 45 s.
# `stable --max-deg 30` (34 s cold) and `verify counts --budget full` (66 s)
# do not fit at all, so the stable workload stops at degree 24; its set-up is
# three cold runs, so its setup_s is the first-run cost.
WORKLOADS = {
    w.name: w
    for w in (
        # the cache's read path: layers loaded from a cache filled in set-up
        Workload("stable24_warm", ("stable", "--max-deg", "24", "--format", "json"),
                 "stable24", prefilled=True),
        # every suite once: the only workload that reaches linalg
        Workload("verify_small", ("verify", "all", "--budget", "small"), "verify_small",
                 seeded=True),
    )
}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    reasons: list


class Runner:
    """Starts CLI processes one at a time inside a private work directory."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.manifest = None

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.work))

    def env(self, cache: Path) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        env["HYPERSTAB_CACHE"] = str(cache)
        return env

    def spawn(self, argv: list, cache: Path, log: Path):
        """Run one child to completion: (exit code, wall s, CPU s, peak RSS MB)."""
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(log, "wb") as handle:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, env=self.env(cache), stdout=handle, stderr=subprocess.STDOUT,
                cwd=ROOT,
            )
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (
            proc.returncode,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
        )

    def reference(self, after_s: float = 0.0) -> list:
        """Reference runs for ``REFERENCE_SHARE`` of ``after_s`` seconds, at
        least one: the CPU time of each."""
        log = self.work / "reference.log"
        cpus, start = [], time.perf_counter()
        while not cpus or time.perf_counter() - start < REFERENCE_SHARE * after_s:
            code, _, cpu, _ = self.spawn([sys.executable, str(REFERENCE)], self.work, log)
            printed = log.read_text().strip()
            if code != 0 or printed != str(reference.CHECKSUM):
                raise SystemExit(
                    f"reference run failed: exit {code}, printed {printed[-200:]!r}")
            cpus.append(cpu)
        return cpus

    def cli(self, workload: Workload, seed: int, cache: Path, traced_spans=None) -> Sample:
        """One gated CLI run of ``workload`` against the cache directory ``cache``."""
        out = self.fresh_dir("out-")
        args = list(workload.args)
        if workload.seeded:
            args += ["--seed", str(seed)]
        args += ["--out", str(out)]
        if traced_spans is None:
            argv = [sys.executable, "-m", "hyperstab.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "tracing.py"), str(traced_spans), *args]
        try:
            code, wall, cpu, rss = self.spawn(argv, cache, out / "cli.log")
            reasons = gate.verdict(code, out, gate.load_pins(workload.pins))
            if code != 0:
                reasons.append("log tail: " + (out / "cli.log").read_text()[-400:])
            manifest = out / "manifest.json"
            if self.manifest is None and manifest.is_file():
                self.manifest = json.loads(manifest.read_text())
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return Sample(wall, cpu, rss, reasons)


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def cache_bytes(cache: Path) -> int:
    return sum(p.stat().st_size for p in cache.glob("m0n_*.json"))


def at_reference_speed(times: list, refs: list) -> list:
    """Scale ``times[i]``, measured between the groups of reference CPU times
    ``refs[i]`` and ``refs[i + 1]``, to the speed at which a reference run
    takes ``REFERENCE_S``."""
    assert len(refs) == len(times) + 1
    return [t * REFERENCE_S / statistics.fmean(refs[i] + refs[i + 1])
            for i, t in enumerate(times)]


def set_up(runner: Runner, workload: Workload, seed: int):
    """Set up ``SETUP_REPEATS`` times; return the times, the reference runs
    around them and the cache to keep.

    One set-up checks that the source tree imports (which also byte-compiles
    it), creates the private cache directory and, for a prefilled workload,
    fills it with one gated run of the workload's own command.
    """
    times, kept = [], None
    refs = [runner.reference()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cache = runner.fresh_dir("cache-")
        code, *_ = runner.spawn(
            [sys.executable, "-c", "import hyperstab.cli"], cache, runner.work / "import.log"
        )
        if code != 0:
            raise SystemExit(f"setup: hyperstab.cli does not import (exit {code})")
        if workload.prefilled:
            sample = runner.cli(workload, seed, cache)
            if sample.reasons:
                raise SystemExit("setup: prefill run failed the gate: "
                                 + "; ".join(sample.reasons))
        times.append(time.perf_counter() - start)
        refs.append(runner.reference(times[-1]))
        if kept is not None:
            shutil.rmtree(kept)
        kept = cache
    if not workload.prefilled:
        shutil.rmtree(kept)
        kept = None
    return times, refs, kept


def measure(workload: Workload, seed: int, seconds: float, trace: bool, spec: dict):
    """Run one workload; return the result object, report lines and a manifest."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    runner = Runner(work, time.perf_counter() + RUN_DEADLINE_S)
    try:
        setup_times, setup_refs, shared = set_up(runner, workload, seed)
        samples, refs = [], [runner.reference()]
        start = time.perf_counter()
        # start another sample unless a typical one would end more than half
        # its time after --seconds
        while not samples or (time.perf_counter() - start
                              + 0.5 * statistics.median(s.wall_s for s in samples)) <= seconds:
            cache = shared or runner.fresh_dir("cache-")
            samples.append(runner.cli(workload, seed, cache))
            if shared is None:
                shutil.rmtree(cache)
            refs.append(runner.reference(samples[-1].wall_s))
        walls = at_reference_speed([s.wall_s for s in samples], refs)
        cpus = at_reference_speed([s.cpu_s for s in samples], refs)
        setups = at_reference_speed(setup_times, setup_refs)
        # the low median: with an even count it drops the slower middle sample,
        # so one sample slowed by a noisy neighbour cannot move the result
        end_to_end = {
            "wall_s": statistics.median_low(walls),
            "cpu_s": statistics.median_low(cpus),
            "peak_rss_mb": statistics.median_low(s.peak_rss_mb for s in samples),
            "setup_s": statistics.median_low(setups),
        }
        raw_wall_s = statistics.median_low(s.wall_s for s in samples)
        lines = [
            f"{workload.name}: {len(samples)} samples, {len(setup_times)} set-ups, "
            f"seed {seed} {'passed as --seed' if workload.seeded else 'ignored'}",
            "sample wall_s as measured: " + " ".join(f"{s.wall_s:.3f}" for s in samples),
            "sample wall_s at reference speed: " + " ".join(f"{t:.3f}" for t in walls),
            "sample cpu_s as measured: " + " ".join(f"{s.cpu_s:.3f}" for s in samples),
            "reference cpu_s, samples between the groups: " + " | ".join(
                " ".join(f"{cpu:.3f}" for cpu in group) for group in refs),
            "set-up s as measured: " + " ".join(f"{t:.3f}" for t in setup_times),
            "set-up s at reference speed: " + " ".join(f"{t:.3f}" for t in setups),
            f"median wall_s as measured: {raw_wall_s:.3f}",
        ]
        if trace:
            cache = shared or runner.fresh_dir("cache-")
            spans_path = work / "spans.jsonl"
            traced = runner.cli(workload, seed, cache, traced_spans=spans_path)
            samples.append(traced)
            spans = tracing.read_spans(spans_path) if spans_path.is_file() else []
            metrics = tracing.layer_metrics(spans, [m["name"] for m in spec["per_layer"]])
            metrics["m0n.cache_bytes"] = cache_bytes(cache)
            metrics["trace.overhead_s"] = traced.wall_s - raw_wall_s
            metrics["trace.coverage"] = tracing.root_coverage(spans)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            lines.append(f"traced run: {len(spans)} spans, wall {traced.wall_s:.3f} s")
        else:
            metrics = end_to_end
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        failed = sum(1 for s in samples if s.reasons)
        for i, s in enumerate(samples):
            if s.reasons:
                more = f" (+{len(s.reasons) - 3} more)" if len(s.reasons) > 3 else ""
                lines.append(f"sample {i} FAILED: " + "; ".join(s.reasons[:3]) + more)
        lines.append(f"fail_ratio = {failed}/{len(samples)}")
        for name in units:
            lines.append(f"{name} = {metrics[name]} {units[name]}")
        result = {
            "correct": failed == 0,
            "attempted": len(samples),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units},
        }
        return result, lines, runner.manifest
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def environment(manifest) -> dict:
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "hyperstab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    versions = (manifest or {}).get("versions", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": versions.get("python", platform.python_version()),
        "numpy": versions.get("numpy"),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps its running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "hyperstab" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} lacks src/hyperstab/cli.py or BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results, manifest = {}, None
    for name in names:
        result, lines, manifest = measure(
            WORKLOADS[name], args.seed, args.seconds, bool(args.trace), spec
        )
        results[name] = result
        print("\n".join(lines), flush=True)
    print("env: " + json.dumps(environment(manifest), sort_keys=True))

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

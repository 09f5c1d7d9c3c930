#!/usr/bin/env python3
"""Benchmark of real frobsig CLI calls, end to end and layer by layer.

Run from the root of a frobsig checkout:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload cli --seed 3 --trace 1
    python3 perfbench/run.py                # every workload in turn
    python3 perfbench/run.py --record      # rewrite expected.json (default seed)

With ``--trace 0`` the calls run as ``python -m frobsig.cli`` child
processes, one at a time (a closed loop with one client): one pass over
the workload, then more while each next call still fits in ``--seconds``.  With
``--trace 1`` the calls run in this process through ``frobsig.cli.main``:
once untraced, once traced by ``layers.Tracer``.  Every output is checked.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics; without ``--workload`` each workload ends with
its own.  Per-call records and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import select
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

CALL_TIMEOUT_S = 60  # a hang gives no number; a call killed here counts as failed
SETUP_SAMPLES = (3, 2)  # imports timed before and after the passes
IMPORT_ARGS = ["-c", "import frobsig.cli"]


class Runner:
    """Runs one child interpreter at a time and measures it with wait4."""

    def __init__(self):
        OUT.mkdir(exist_ok=True)
        self.stdout = tempfile.TemporaryFile(dir=OUT)
        self.stderr = tempfile.TemporaryFile(dir=OUT)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        )

    def close(self) -> None:
        self.stdout.close()
        self.stderr.close()

    def run(self, args: list[str]) -> dict:
        for f in (self.stdout, self.stderr):
            f.seek(0)
            f.truncate()
        actions = [
            (os.POSIX_SPAWN_DUP2, self.stdout.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, self.stderr.fileno(), 2),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], self.env,
                             file_actions=actions)
        try:
            pidfd = os.pidfd_open(pid)
            try:
                if not select.select([pidfd], [], [], CALL_TIMEOUT_S)[0]:
                    os.kill(pid, signal.SIGKILL)
                _, status, usage = os.wait4(pid, 0)
            finally:
                os.close(pidfd)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
        self.stdout.seek(0)
        self.stderr.seek(0)
        return {
            "exit": os.waitstatus_to_exitcode(status),
            "stdout": self.stdout.read(),
            "stderr": self.stderr.read(),
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
        }


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def run_call(runner: Runner, call: workloads.Call, recorded: dict) -> dict:
    res = runner.run(["-m", "frobsig.cli", *call.argv])
    res["error"] = workloads.check(call, res["exit"], res["stdout"], recorded)
    return res


def imports(runner: Runner, args: list[str], count: int) -> list[dict]:
    """count runs of an interpreter that only imports frobsig.cli."""
    results = [runner.run([*args, *IMPORT_ARGS]) for _ in range(count)]
    for res in results:
        if res["exit"] != 0:
            sys.exit(f"error: importing frobsig.cli exited {res['exit']}: "
                     f"{res['stderr'].decode(errors='replace').strip()}")
    return results


def measure(calls, seconds: float, runner: Runner, recorded: dict) -> list[list[dict]]:
    """Passes over the calls, in order, for as long as seconds allows.

    The first pass always runs whole.  After it, a call starts only if its
    first-pass time says that it ends within seconds, so the last pass may
    stop part-way and little of the run is left unmeasured.
    """
    start = time.perf_counter()
    passes = [[run_call(runner, call, recorded) for call in calls]]
    while True:
        records = []
        for call, first in zip(calls, passes[0]):
            if time.perf_counter() - start + first["wall_s"] > seconds:
                if records:
                    passes.append(records)
                return passes
            records.append(run_call(runner, call, recorded))
        passes.append(records)


def end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, int, int]:
    calls = workloads.generate(name, seed)
    recorded = load_expected()
    runner = Runner()
    try:
        imports(runner, [], 1)  # warm-up: fills the bytecode cache
        setup = imports(runner, [], SETUP_SAMPLES[0])
        passes = measure(calls, seconds, runner, recorded)
        setup += imports(runner, [], SETUP_SAMPLES[1])
    finally:
        runner.close()
    setup_s = statistics.median(r["wall_s"] for r in setup)
    records = [r for records in passes for r in records]
    attempted = len(records)
    failed = sum(r["error"] is not None for r in records)
    # Every sample of the run counts, because the host's speed drifts for
    # seconds at a time: each call's time is its mean over the passes that
    # reached it, and a pass costs the sum of those means.  call_p50_s is
    # the median over the calls of these means; the median of the pooled
    # samples would fall on the edge between two calls' clusters.
    by_call = [[p[j] for p in passes if j < len(p)] for j in range(len(calls))]
    call_means = [statistics.mean(r["wall_s"] for r in rs) for rs in by_call]
    call_walls = sorted(r["wall_s"] for r in records)
    fewest, most = min(map(len, by_call)), max(map(len, by_call))
    samples = f"{fewest}" if fewest == most else f"{fewest}-{most}"
    metrics = {
        "wall_s": (sum(call_means), "s"),
        "cpu_s": (sum(statistics.mean(r["cpu_s"] for r in rs) for rs in by_call), "s"),
        "call_p50_s": (statistics.median(call_means), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in records), "MB"),
        "setup_s": (setup_s, "s"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }

    print(f"workload {name}, seed {seed}: {len(calls)} calls per pass, "
          f"{len(passes)} passes, closed loop, one client")
    for call, res in zip(calls, passes[0]):
        print(f"  exit {res['exit']}  {res['wall_s']:7.3f} s  {call.key}")
    for call, res in zip(calls * len(passes), records):  # the last pass may be short
        if res["error"]:
            print(f"  FAILED: {call.key}: {res['error']}")
    n = len(call_walls)
    # highest percentile with at least ten samples beyond it
    tail = ""
    if n >= 20:
        tail = f"; p{100 * (n - 10) / n:.0f} {call_walls[n - 11]:.4f} s"
    print(f"  wall_s       {metrics['wall_s'][0]:.4f} s   sum of {len(calls)} call means, "
          f"{samples} samples each")
    print(f"  cpu_s        {metrics['cpu_s'][0]:.4f} s   sum of {len(calls)} call means, "
          f"{samples} samples each")
    print(f"  call_p50_s   {metrics['call_p50_s'][0]:.4f} s   median of {len(calls)} call means; "
          f"pooled p50 {statistics.median(call_walls):.4f} s of {n} samples{tail}")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb'][0]:.1f} MB  max of {n} calls")
    print(f"  setup_s      {setup_s:.4f} s   median of {len(setup)} imports")
    print(f"  failed_frac  {failed / attempted:.4f}     {failed} of {attempted} calls")
    write_json(OUT / f"{name}-seed{seed}.json", {
        "workload": name, "seed": seed,
        "argv": [call.argv for call in calls],
        "passes": [[_public(r) for r in records] for records in passes],
    })
    return metrics, attempted, failed


def _public(res: dict) -> dict:
    return {k: v for k, v in res.items() if k not in ("stdout", "stderr")}


def import_times(runner: Runner) -> dict:
    """Cumulative import times of sympy and frobsig.cli from -X importtime."""
    imports(runner, [], 1)
    results = imports(runner, ["-X", "importtime"], sum(SETUP_SAMPLES))
    samples = {"sympy": [], "frobsig.cli": []}
    for res in results:
        found = dict.fromkeys(samples, 0.0)
        for line in res["stderr"].decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()] = int(parts[1]) / 1e6
        for key, value in found.items():
            samples[key].append(value)
    return {
        "import.sympy_s": (statistics.median(samples["sympy"]), "s"),
        "import.frobsig_s": (statistics.median(samples["frobsig.cli"]), "s"),
    }


def in_process_pass(cli, calls, recorded, tracer=None) -> tuple[float, list[str | None]]:
    errors = []
    start = time.perf_counter()
    for call_id, call in enumerate(calls):
        out = io.StringIO()
        if tracer is not None:
            tracer.call_id = call_id
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(call.argv)
            except SystemExit as exc:
                code = exc.code  # argparse exits with an int
        stdout = out.getvalue().encode()
        if tracer is not None:
            tracer.counts["cli.stdout_bytes"] += len(stdout)
        errors.append(workloads.check(call, code, stdout, recorded))
    return time.perf_counter() - start, errors


def per_layer(name: str, seed: int) -> tuple[dict, int, int]:
    import layers

    calls = workloads.generate(name, seed)
    recorded = load_expected()
    runner = Runner()
    try:
        metrics = import_times(runner)
    finally:
        runner.close()
    sys.path.insert(0, str(SRC))
    import frobsig.cli as cli

    plain_s, plain_errors = in_process_pass(cli, calls, recorded)
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced_s, traced_errors = in_process_pass(cli, calls, recorded, tracer)
    finally:
        tracer.uninstall()
    metrics.update(tracer.metrics())
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")

    errors = plain_errors + traced_errors
    failed = sum(e is not None for e in errors)
    print(f"workload {name}, seed {seed}: {len(calls)} calls in process, "
          f"untraced {plain_s:.3f} s, traced {traced_s:.3f} s")
    for call, error in zip(calls * 2, errors):
        if error:
            print(f"  FAILED: {call.key}: {error}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:42s} {value:.6g} {unit}")
    write_json(OUT / f"spans-{name}-seed{seed}.json", {
        "workload": name, "seed": seed,
        "argv": [call.argv for call in calls],
        "fields": ["name", "start", "end", "parent", "call"],
        "spans": tracer.spans,
    })
    return metrics, len(errors), failed


def record() -> None:
    """Record exit codes and stdout digests of the fixed calls, default seed."""
    runner = Runner()
    expected = {}
    bad = []
    try:
        for name in workloads.WORKLOADS:
            for call in workloads.generate(name, workloads.DEFAULT_SEED):
                res = runner.run(["-m", "frobsig.cli", *call.argv])
                entry = {"exit": res["exit"], "sha256": workloads.digest(res["stdout"])}
                error = workloads.check(call, res["exit"], res["stdout"], {call.key: entry})
                if error:
                    bad.append(f"{call.key}: {error}")
                if call.stdout is None:
                    expected[call.key] = entry
    finally:
        runner.close()
    if bad:
        sys.exit("error: not recorded, checks failed:\n  " + "\n  ".join(bad))
    write_json(EXPECTED, expected, indent=1)
    print(f"recorded {len(expected)} calls in {EXPECTED}")


def write_json(path: Path, data, indent=None) -> None:
    path.write_text(json.dumps(data, indent=indent) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if not (SRC / "frobsig" / "cli.py").is_file():
        print(f"error: no frobsig sources under {SRC}; run from a frobsig checkout",
              file=sys.stderr)
        return 2
    if args.record:
        record()
        return 0
    for name in [args.workload] if args.workload else list(workloads.WORKLOADS):
        metrics, attempted, failed = (
            per_layer(name, args.seed) if args.trace
            else end_to_end(name, args.seed, args.seconds)
        )
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

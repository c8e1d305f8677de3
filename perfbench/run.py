"""Benchmark for the SARIF-to-verdict pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload shared-files --seed 1 --seconds 60 --trace 0

``--trace 0`` runs the pipeline the way a user does: ``sarif-triage run
--config config.json`` in a fresh interpreter, then ``run --resume`` over the
finished output directory, repeated until ``--seconds`` have passed. It
prints the end-to-end metrics: each timing is the mean over every sample of
the run, printed beside its median and high percentile (see NOTES.md for why
the mean).

``--trace 1`` calls ``pipeline.run_all`` in-process instead, wrapping the
public functions at each module boundary, and prints the per-layer metrics
and the tracing overhead (see ``tracing.py``).

Every repetition passes a correctness gate against the corpus oracle (see
``corpus.py``); any failure prints ``"correct": false`` and exits 1. The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import tracing  # noqa: E402
from stub import DELAY_MS as STUB_DELAY_MS  # noqa: E402

CHILD_TIMEOUT_S = 150.0
MIN_REPS = 3
# Share of the measuring time given to the short set-up and resume samples;
# the rest goes to run_s, the longest and noisiest sample.
SHORT_SHARE = 0.25

TIMINGS = ("run_s", "resume_s", "setup_s")
END_TO_END_UNITS = {
    "run_s": "s",
    "resume_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "failed_ratio": "ratio",
    "calls_per_verdict": "ratio",
}

CLI = "import sys; from sarif_triage.cli import main; sys.exit(main())"
SETUP = (
    "import sys, time; t0 = time.perf_counter(); import sarif_triage.cli as cli; "
    "t1 = time.perf_counter(); cli.load_config(sys.argv[1]); t2 = time.perf_counter(); "
    "print(t1 - t0, t2 - t1)"
)


class GateError(Exception):
    """A correctness check failed."""


# ---------------------------------------------------------------------------
# Statistics


def within(started: float, seconds: float, rep_s: list[float]) -> bool:
    """True while one more repetition of typical length fits in the run."""
    return time.perf_counter() - started + statistics.median(rep_s) <= seconds


def calibration_s() -> float:
    """A fixed pure-Python loop. Printed beside each run to show host-speed
    drift; never used to rescale a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Child processes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # The stub is on localhost; never route it through a proxy.
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


def spawn(argv: list[str], cwd: Path, log: Path) -> tuple[float, int, float]:
    """Run ``argv`` to completion; return (wall seconds, exit code, peak RSS
    in MB of that child alone)."""
    with log.open("wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


class Stub:
    """The localhost chat-completions stub, in its own process."""

    def __init__(self, plan: Path, log: Path):
        self._log = log.open("wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), str(plan)],
            stdout=subprocess.PIPE, stderr=self._log, env=child_env(),
        )
        line = self.proc.stdout.readline().decode().split()
        if len(line) != 2 or line[0] != "PORT":
            self.stop()
            raise GateError("stub did not report its port")
        self.base = f"http://127.0.0.1:{line[1]}"
        self.endpoint = self.base + "/v1/chat/completions"

    def _call(self, path: str, data: bytes | None = None) -> dict:
        req = urllib.request.Request(self.base + path, data=data)
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(req, timeout=10) as resp:
            return json.loads(resp.read())

    def reset(self) -> None:
        self._call("/reset", b"")

    def requests(self) -> int:
        return self._call("/stats")["requests"]

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


# ---------------------------------------------------------------------------
# Correctness gate


def _jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def artifact_digest(out: Path, live: bool) -> str:
    """SHA-256 over the deterministic artifacts: every file except ``audit/``
    and ``.stamps/`` (the adjudicate stamp hashes the audit records, which
    carry wall-clock timestamps). For the live backend, ``run_config.json``
    (it names the stub's ephemeral port) is skipped too and ``latency_ms``
    is zeroed in ``adjudications.jsonl``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out).as_posix()
        if rel.startswith(("audit/", ".stamps/")) or (live and rel == "run_config.json"):
            continue
        data = path.read_bytes()
        if live and rel == "adjudications.jsonl":
            rows = [dict(row, latency_ms=0) for row in _jsonl(path)]
            data = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows).encode()
        digest.update(rel.encode() + b"\0" + hashlib.sha256(data).digest())
    return digest.hexdigest()


def mtimes(out: Path) -> dict[str, int]:
    """Modification time of every output file but ``run_config.json``,
    which every run rewrites. A stage that re-executes changes this map."""
    return {p.relative_to(out).as_posix(): p.stat().st_mtime_ns
            for p in out.rglob("*") if p.is_file() and p.name != "run_config.json"}


def check_outputs(out: Path, bench: dict, requests: int | None) -> dict:
    """Check a finished output directory against the oracle. ``requests`` is
    the stub's request count (live backend) or None to count the mock
    backend's requests from the audit records. Returns the observed counts."""
    oracle, modes = bench["oracle"], bench["modes"]
    live = requests is not None
    errors = []
    fids = [row["finding_id"] for row in _jsonl(bench["root"] / "labels.jsonl")]
    rows = _jsonl(out / "adjudications.jsonl")
    if len(rows) != len(fids) * len(modes):
        errors.append(f"{len(rows)} adjudication rows, expected {len(fids)} x {len(modes)}")
    if {(r["finding_id"], r["mode"]) for r in rows} != {(f, m) for f in fids for m in modes}:
        errors.append("adjudication rows do not cover every (finding, mode) exactly")
    unevaluated = sum(r["status"] == "UNEVALUATED" for r in rows)
    verdicts = len(rows) - unevaluated
    salvaged = sum(bool(r.get("salvaged")) for r in rows)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    for mode in modes:
        got = report["modes"][mode]
        counts = {k: got["overall"][k] for k in ("tp", "fp", "tn", "fn")}
        counts.update({k: got[k] for k in ("unevaluated_count", "unmatched_count",
                                            "total_findings")})
        if sum(counts[k] for k in ("tp", "fp", "tn", "fn", "unevaluated_count",
                                   "unmatched_count")) != got["total_findings"]:
            errors.append(f"{mode}: scored + unevaluated + unmatched != rows")
        if counts != oracle["expected"][mode]:
            errors.append(f"{mode}: report counts {counts} != expected {oracle['expected'][mode]}")
    if requests is None:
        requests = sum(json.loads(path.read_text(encoding="utf-8"))["attempt_count"]
                       for path in (out / "audit").glob("*.json"))
    if requests != oracle["requests"]:
        errors.append(f"{requests} backend requests, oracle expects {oracle['requests']}")
    if unevaluated != oracle["unevaluated"]:
        errors.append(f"{unevaluated} UNEVALUATED rows, oracle expects {oracle['unevaluated']}")
    if salvaged != oracle["salvaged"]:
        errors.append(f"{salvaged} salvaged rows, oracle expects {oracle['salvaged']}")
    if errors:
        raise GateError("; ".join(errors))
    return {"rows": len(rows), "unevaluated": unevaluated, "verdicts": verdicts,
            "requests": requests, "salvaged": salvaged, "digest": artifact_digest(out, live)}


# ---------------------------------------------------------------------------
# Untraced end-to-end runs


def _tail(log: Path) -> str:
    return log.read_text(encoding="utf-8", errors="replace")[-600:]


def setup_sample(root: Path, logs: Path) -> tuple[float, float, float]:
    """One fresh interpreter that imports the CLI and loads the config:
    (wall seconds, import seconds, load_config seconds)."""
    log = logs / "setup.log"
    wall, code, _ = spawn([sys.executable, "-c", SETUP, "config.json"], root, log)
    if code != 0:
        raise GateError(f"setup child exited {code}: {_tail(log)}")
    imp, cfg = (float(x) for x in log.read_text().split())
    return wall, imp, cfg


def clear_output(out: Path) -> None:
    """Delete the previous output and flush the deletion, so the next timed
    run does not share the disk with the last one's journal and discards."""
    shutil.rmtree(out, ignore_errors=True)
    os.sync()


def measure(bench: dict, seconds: float, stub: Stub | None) -> dict:
    root = bench["root"]
    out = root / "out"
    logs = root / "logs"
    logs.mkdir(exist_ok=True)
    samples: dict[str, list[float]] = {k: [] for k in
                                       ("run_s", "resume_s", "peak_rss_mb", "setup_s",
                                        "import_s", "config_s", "calibration_s")}
    observed = []
    runs = 0

    setup_sample(root, logs)  # warm the page cache and any byte-code cache; not timed
    started = time.perf_counter()
    short_s = 0.0  # time spent in set-up and resume samples
    rep_s: list[float] = []
    while len(observed) < MIN_REPS or within(started, seconds, rep_s):
        rep_start = time.perf_counter()
        clear_output(out)
        if stub is not None:
            stub.reset()
        log = logs / "run.log"
        wall, code, rss = spawn([sys.executable, "-c", CLI, "run", "--config", "config.json"],
                                root, log)
        runs += 1
        if code != 0:
            raise GateError(f"run exited {code}: {_tail(log)}")
        after_run = check_outputs(out, bench, stub.requests() if stub else None)
        samples["run_s"].append(wall)
        samples["peak_rss_mb"].append(rss)
        written = mtimes(out)
        # At least one set-up and one resume sample per repetition, then more
        # until they have had their share of the time measured so far.
        while True:
            wall, imp, cfg = setup_sample(root, logs)
            samples["setup_s"].append(wall)
            samples["import_s"].append(imp)
            samples["config_s"].append(cfg)
            os.sync()  # resume times reading, not the run's pending writeback
            log = logs / "resume.log"
            resume_wall, code, _ = spawn(
                [sys.executable, "-c", CLI, "run", "--resume", "--config", "config.json"],
                root, log)
            runs += 1
            if code != 0:
                raise GateError(f"resume exited {code}: {_tail(log)}")
            if mtimes(out) != written:
                raise GateError("run --resume rewrote artifacts")
            samples["resume_s"].append(resume_wall)
            short_s += wall + resume_wall
            if short_s >= SHORT_SHARE * (time.perf_counter() - started):
                break
        if check_outputs(out, bench, stub.requests() if stub else None) != after_run:
            raise GateError("run --resume changed the outputs or sent backend requests")
        observed.append(after_run)
        samples["calibration_s"].append(calibration_s())
        rep_s.append(time.perf_counter() - rep_start)

    if any(o != observed[0] for o in observed):
        raise GateError(f"artifacts or counts differ between repetitions: {observed}")
    first = observed[0]
    # Timings are means: the host's speed switches between a fast and a slow
    # state every few seconds, and the mean over the whole run follows the
    # share of time spent in each more steadily than the median does.
    metrics = {k: statistics.fmean(samples[k]) for k in TIMINGS}
    metrics["peak_rss_mb"] = statistics.median(samples["peak_rss_mb"])
    metrics["failed_ratio"] = first["unevaluated"] / first["rows"]
    metrics["calls_per_verdict"] = first["requests"] / first["verdicts"]
    return {"metrics": metrics, "samples": samples, "observed": first, "attempted": runs}


# ---------------------------------------------------------------------------
# Traced in-process runs (per-layer metrics)


def _artifact_size(out: Path) -> tuple[int, float]:
    files = [p for p in out.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files) / 2**20


def measure_traced(bench: dict, seconds: float, stub: Stub | None, spans_path: Path) -> dict:
    """Alternate untraced and traced in-process ``run_all`` calls until
    ``seconds`` have passed. Per-layer timings are medians over the traced
    runs; counts must repeat exactly. The tracing overhead is the traced
    median minus the untraced median."""
    sys.path.insert(0, str(SRC))
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    from sarif_triage import pipeline

    root = bench["root"]
    out = root / "out"
    logs = root / "logs"
    logs.mkdir(exist_ok=True)
    required = tracing.LAYERS + (("context.extract_baseline_context",)
                                 if "BASELINE" in bench["modes"] else ())
    delay_ms = STUB_DELAY_MS if stub else 0.0
    setup = [setup_sample(root, logs) for _ in range(1 + 2 * MIN_REPS)][1:]
    untraced: list[float] = []
    traced: list[float] = []
    reps: list[tuple[dict, dict]] = []
    runs = 0
    tracer = None
    cwd = os.getcwd()
    os.chdir(root)  # the config's relative paths resolve as they do for the CLI
    try:
        config = pipeline.load_config("config.json")
        started = time.perf_counter()
        rep_s: list[float] = []
        while len(reps) < MIN_REPS or within(started, seconds, rep_s):
            rep_start = time.perf_counter()
            clear_output(out)
            if stub is not None:
                stub.reset()
            t0 = time.perf_counter()
            pipeline.run_all(config)
            untraced.append(time.perf_counter() - t0)
            plain = check_outputs(out, bench, stub.requests() if stub else None)

            clear_output(out)
            if stub is not None:
                stub.reset()
            tracer = tracing.Tracer()
            tracer.install()
            try:
                run_root = tracer.open("pipeline.run_all")
                try:
                    pipeline.run_all(config, sleep=tracer.sleep)
                finally:
                    tracer.close(run_root)
                files, mb = _artifact_size(out)
                written = mtimes(out)
                resume_root = tracer.open("pipeline.run_all.resume")
                try:
                    pipeline.run_all(config, resume=True, sleep=tracer.sleep)
                finally:
                    tracer.close(resume_root)
            finally:
                tracer.remove()
            runs += 3
            traced.append(run_root.dur)
            seen = check_outputs(out, bench, stub.requests() if stub else None)
            if seen != plain:
                raise GateError(f"traced run differs from untraced run: {seen} != {plain}")
            if mtimes(out) != written:
                raise GateError("run --resume rewrote artifacts")
            tracing.check_coverage(tracing.spans_under(tracer.spans, run_root), required)
            metrics, notes = tracing.layer_metrics(tracer.spans, run_root, resume_root, delay_ms)
            if notes["adjudicate.unevaluated_by_class"] != bench["oracle"]["unevaluated_by_class"]:
                raise GateError(f"UNEVALUATED classes {notes['adjudicate.unevaluated_by_class']} "
                                f"!= oracle {bench['oracle']['unevaluated_by_class']}")
            if metrics["backend.calls"] != seen["requests"]:
                raise GateError(f"backend.calls {metrics['backend.calls']} != "
                                f"{seen['requests']} requests counted by the backend side")
            metrics["pipeline.artifact_files"], metrics["pipeline.artifact_mb"] = files, mb
            reps.append((metrics, notes))
            rep_s.append(time.perf_counter() - rep_start)
    finally:
        os.chdir(cwd)
    for name in tracing.EXACT:
        values = {m[name] for m, _ in reps}
        if len(values) != 1:
            raise GateError(f"{name} differs between traced runs: {sorted(values)}")
    metrics = {name: statistics.median(m[name] for m, _ in reps) for name in reps[0][0]}
    metrics["cli.import_s"] = statistics.median(s[1] for s in setup)
    metrics["cli.config_s"] = statistics.median(s[2] for s in setup)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    WORK.mkdir(exist_ok=True)
    tracer.write(spans_path)
    return {"metrics": metrics, "notes": reps[-1][1], "attempted": runs,
            "observed": plain, "untraced": untraced, "traced": traced,
            "spans": len(tracer.spans), "spans_path": spans_path}


# ---------------------------------------------------------------------------
# Reporting


def _describe(values: list[float]) -> str:
    if not values:
        return ""
    high = tracing.p_high(values)
    tail = (f"p{high[0]:.1f}={high[1]:.4f}" if high
            else f"no percentile with 10 samples beyond it (n={len(values)})")
    return (f"n={len(values)}: mean={statistics.fmean(values):.4f} "
            f"median={statistics.median(values):.4f} min={min(values):.4f} "
            f"max={max(values):.4f}; {tail}")


def print_end_to_end(workload: str, seed: int, result: dict) -> None:
    samples, observed = result["samples"], result["observed"]
    print(f"workload {workload} seed {seed}: {result['attempted']} CLI runs, gate passed")
    for name, unit in END_TO_END_UNITS.items():
        value = result["metrics"][name]
        print(f"  {name:<18} {value:>12.4f} {unit:<6} {_describe(samples.get(name, []))}")
    print(f"  cli.import_s median {statistics.median(samples['import_s']):.4f} s, "
          f"cli.config_s median {statistics.median(samples['config_s']):.4f} s")
    print(f"  calibration_s (fixed loop, not used to rescale) per rep: "
          + " ".join(f"{v:.4f}" for v in samples["calibration_s"]))
    print(f"  rows={observed['rows']} unevaluated={observed['unevaluated']} "
          f"verdicts={observed['verdicts']} requests={observed['requests']} "
          f"salvaged={observed['salvaged']}")
    print(f"  artifact digest (all but audit/ and .stamps/): {observed['digest']}")


def print_per_layer(workload: str, seed: int, result: dict) -> None:
    print(f"workload {workload} seed {seed}: {result['attempted']} in-process runs, gate passed")
    for name, unit in tracing.PER_LAYER_UNITS.items():
        print(f"  {name:<36} {result['metrics'][name]:>14.4f} {unit}")
    notes = dict(result["notes"])
    by_class = notes.pop("adjudicate.unevaluated_by_class")
    print(f"  {'adjudicate.unevaluated_by_class':<36} {json.dumps(by_class)} (equals the oracle's)")
    for name, value in notes.items():
        print(f"  note (last traced run) {name} = {value}")
    print(f"  run_all untraced s: " + " ".join(f"{v:.3f}" for v in result["untraced"]))
    print(f"  run_all traced s:   " + " ".join(f"{v:.3f}" for v in result["traced"]))
    print(f"  {result['spans']} spans of the last traced run written to {result['spans_path']}")
    print(f"  artifact digest (all but audit/ and .stamps/): {result['observed']['digest']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sarif-triage pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops the stub and its children (finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "sarif_triage" / "cli.py").is_file():
        print(f"error: no program source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    stub = None
    try:
        built = corpus.build(args.workload, args.seed, workdir)
        bench = dict(built, root=workdir)
        if corpus.WORKLOADS[args.workload].backend == "live":
            stub = Stub(workdir / "stub_plan.json", workdir / "stub.log")
        corpus.write_config(workdir, built["config"], stub.endpoint if stub else None)
        if args.trace:
            result = measure_traced(bench, args.seconds, stub,
                                    WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
            print_per_layer(args.workload, args.seed, result)
            units = tracing.PER_LAYER_UNITS
        else:
            result = measure(bench, args.seconds, stub)
            print_end_to_end(args.workload, args.seed, result)
            units = END_TO_END_UNITS
    except (GateError, tracing.TraceError) as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        if stub is not None:
            stub.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": True, "attempted": result["attempted"], "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

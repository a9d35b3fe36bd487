#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the subcomp CLI.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

One closed-loop client in one process and one thread feeds a seeded corpus
(corpus.py) to `subcomp.cli.main(argv)` in process, instance after
instance, timing each call with stdout captured, for whole passes of the
corpus: at least two, and more while the next one is expected to fit in
`--seconds`.  Every time is scaled to a fixed machine speed (speed.py): a
small fixed kernel is timed between calls, and a call's time is scaled by
how fast the kernel ran around it, so the host's swings drop out and the
program's own speed stays.  The raw throughput goes to the BENCH file too.
Each instance's latency is the median of its scaled timings over the
passes; throughput is the number of instances over the sum of those
medians, the calls a second of one pass at the instances' typical speed.
Importing subcomp.cli and building its parser is timed apart, in fresh
interpreters, as setup_s.  With `--trace 0` the metrics are the end-to-end
ones; with `--trace 1` half the time runs untraced and half traced
(tracing.py), and the metrics are the per-layer ones, per pass of the
corpus.

Every call is checked after the timed passes (corpus.py says against what).
A call fails if it raises, exits with a code its command does not allow,
answers wrongly, or returns a witness that does not re-check.  For the
seeds in frozen.json the whole transcript must also match the recorded
digest byte for byte; a mismatch fails every call, since the digest cannot
say which one changed.  The last stdout line is the JSON verdict
{"correct", "attempted", "failed", "metrics"}; failed / attempted is the
failed share.

Results with their provenance (kernel backend, Python, nproc, commit, seed,
corpus digest, generation time, latency sample count) go to
perfbench/out/BENCH_<workload>_seed<n>_trace<t>.json, and traced spans to
perfbench/out/spans_<workload>_seed<n>.jsonl; compare.py compares two sets
of them.  `--selfcheck` runs every workload once on a tiny corpus and
checks that every metric BENCHMARK.json names comes out with its unit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
FROZEN = HERE / "frozen.json"
VERDICT_KEYS = ("correct", "attempted", "failed", "metrics")

SETUP_REPEATS = 9
MIN_PASSES = 2
# Imports subcomp.cli and builds its parser in a fresh interpreter; prints
# the seconds that took, scaled to the reference speed.
_SETUP_PROBE = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
import speed
before = speed.probe_s()
t0 = time.perf_counter()
import subcomp.cli
subcomp.cli.build_parser()
elapsed = time.perf_counter() - t0
print(elapsed * speed.factor(before, speed.probe_s()))
"""


def measure_setup_s() -> float:
    """Median over fresh interpreters of importing subcomp.cli plus
    build_parser(); a first, untimed probe compiles the bytecode."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        probe = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(HERE)],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        if i:
            times.append(float(probe.stdout))
    return statistics.median(times)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(calls, tracer=None):
    """One pass over the corpus: per-call latencies scaled to the reference
    speed, the raw latencies, and (code, stdout) per call.

    Each call starts from a collected heap, as it would in a fresh process,
    so a garbage collection the previous call left pending does not land
    in it at random."""
    import subcomp.cli as cli

    latencies, raw, outs = [], [], []
    before = speed.probe_s()
    for i, call in enumerate(calls):
        stdout, stderr = io.StringIO(), io.StringIO()
        mark = len(tracer.spans) if tracer is not None else 0
        gc.collect()
        t0 = perf_counter()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                if tracer is None:
                    code = cli.main(call.argv)
                else:
                    tracer.instance = i
                    code = tracer.call("cli.main", cli.main, call.argv)
        except Exception as exc:  # a crash is a failed call, not a stop
            code = f"raised {exc!r}"
        elapsed = perf_counter() - t0
        after = speed.probe_s()
        scale = speed.factor(before, after)
        if tracer is not None:
            tracer.rescale(mark, t0, scale)
        latencies.append(elapsed * scale)
        raw.append(elapsed)
        outs.append((code, stdout.getvalue()))
        before = after
    return latencies, raw, outs


def run_passes(calls, budget_s: float, min_passes: int, tracer=None):
    """At least `min_passes` whole passes, and more while the next one is
    expected to fit in the budget.  Returns each pass's scaled and raw
    latencies and its transcript."""
    latencies, raws, transcripts = [], [], []
    while True:
        lat, raw, outs = run_pass(calls, tracer)
        latencies.append(lat)
        raws.append(raw)
        transcripts.append(outs)
        done = len(latencies)
        elapsed = sum(map(sum, raws))
        if done >= min_passes and elapsed * (done + 1) / done > budget_s:
            return latencies, raws, transcripts


def gate(calls, outs, tracer=None) -> list[str]:
    """Reasons for every failed call of one pass (empty when all pass)."""
    parsed = []
    for code, text in outs:
        try:
            parsed.append(json.loads(text))
        except ValueError:
            parsed.append(None)
    failures = []
    for i, (call, (code, text), out) in enumerate(zip(calls, outs, parsed)):
        if not isinstance(code, int):
            reason = code
        elif out is None:
            reason = f"exit code {code} with no JSON output"
        else:
            if tracer is not None:
                tracer.instance = i
                mark, before = len(tracer.spans), speed.probe_s()
            t0 = perf_counter()
            try:
                reason = call.check(code, out, parsed, tracer)
            except Exception as exc:  # the check itself hit a bad output
                reason = f"check raised {exc!r}"
            if tracer is not None:
                tracer.rescale(mark, t0, speed.factor(before, speed.probe_s()))
        if reason:
            failures.append(f"call {i} {call.family} {call.argv}: {reason}")
    return failures


def transcript_digest(outs) -> str:
    h = hashlib.sha256()
    for i, (code, text) in enumerate(outs):
        h.update(f"{i}\t{code}\t{text}".encode())
    return h.hexdigest()


def frozen_record(workload: str, seed: int):
    if not FROZEN.is_file():
        return None
    return json.loads(FROZEN.read_text()).get(workload, {}).get(str(seed))


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def execute(corpus, seconds: float, min_passes: int, tracer=None):
    """Write the corpus to a scratch directory and run it there.

    Untraced passes fill `seconds` (half of it when a tracer is given, the
    other half then runs traced).  Returns the per-pass scaled and raw
    latencies of the last phase, every pass's transcript, the gate's
    failures and the untraced scaled seconds per pass.
    """
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    try:
        for name, text in corpus.files.items():
            (work / name).write_text(text)
        os.chdir(work)
        # Warm-up, untimed: the first call of each family fills the caches
        # and lazy set-up a user's first call would otherwise pay alone.
        firsts = {call.family: call for call in reversed(corpus.calls)}
        run_pass([firsts[family] for family in firsts])
        # The benchmark's own objects stay out of the collections that
        # each call starts with.
        gc.collect()
        gc.freeze()
        budget = seconds if tracer is None else seconds / 2
        lat, raw, transcripts = run_passes(corpus.calls, budget, min_passes)
        plain_pass_s = sum(map(sum, lat)) / len(lat)
        failures = []
        for outs in transcripts:
            failures += gate(corpus.calls, outs)
        if tracer is not None:
            with tracer.installed():
                lat, raw, traced = run_passes(
                    corpus.calls, budget, min_passes, tracer
                )
            for outs in traced:
                failures += gate(corpus.calls, outs, tracer)
            transcripts += traced
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    return lat, raw, transcripts, failures, plain_pass_s


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny=False):
    """One benchmark run: the verdict, its metrics, provenance and spans."""
    import corpus as corpora
    import subcomp._kernels
    from tracing import Tracer, layer_metrics

    setup_s = None if trace else measure_setup_s()

    t0 = perf_counter()
    corpus = corpora.build(workload, seed, tiny)
    gen_s = perf_counter() - t0
    digest = corpus.digest()

    tracer = Tracer() if trace else None
    lat, raw, transcripts, failures, plain_pass_s = execute(
        corpus, seconds, 1 if trace else MIN_PASSES, tracer
    )

    attempted = len(corpus.calls) * len(transcripts)
    failed = len(failures)
    outputs = {transcript_digest(outs) for outs in transcripts}
    frozen = None if tiny else frozen_record(workload, seed)
    frozen_ok = None
    if len(outputs) > 1:
        failures.append("passes of one corpus gave different outputs")
        failed = attempted
    elif frozen is not None:
        frozen_ok = frozen == {"corpus": digest, "outputs": outputs.pop()}
        if not frozen_ok:
            # The digest covers the whole pass, so no single call is to blame.
            failures.append("corpus or outputs differ from the frozen record")
            failed = attempted

    passes = len(lat)  # of the timed, or the traced, phase
    if trace:
        pass_s = sum(map(sum, lat)) / passes
        metrics = layer_metrics(tracer.spans, passes, 1 - plain_pass_s / pass_s)
    else:
        # Per instance, the median of its timings over the passes.
        typical = sorted(statistics.median(t) for t in zip(*lat))
        raw_typical = [statistics.median(t) for t in zip(*raw)]
        raw_ips = len(raw_typical) / sum(raw_typical)
        metrics = {
            "setup_s": (setup_s, "s"),
            "instances_per_s": (len(typical) / sum(typical), "1/s"),
            "verdict_p50_ms": (percentile(typical, 50) * 1e3, "ms"),
            "verdict_p90_ms": (percentile(typical, 90) * 1e3, "ms"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB",
            ),
        }
    provenance = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "backend": subcomp._kernels.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "corpus_digest": digest,
        "corpus_calls": len(corpus.calls),
        "corpus_bytes": sum(len(t) for t in corpus.files.values()),
        "generation_s": gen_s,
        "passes": passes,
        "latency_samples": len(corpus.calls),
        "speed_reference_s": speed.REFERENCE_S,
        "raw_instances_per_s": None if trace else raw_ips,
        "frozen_checked": frozen_ok,
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "provenance": provenance,
        "failures": failures[:20],
        "spans": tracer.spans if trace else None,
    }


def report(result: dict) -> None:
    """Write the BENCH file (and spans), print a summary, then the verdict."""
    prov = result["provenance"]
    stem = f"{prov['workload']}_seed{prov['seed']}"
    OUT.mkdir(parents=True, exist_ok=True)
    record = {k: result[k] for k in VERDICT_KEYS}
    record.update(provenance=prov, failures=result["failures"])
    (OUT / f"BENCH_{stem}_trace{prov['trace']}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    if result["spans"] is not None:
        from tracing import write_spans

        write_spans(result["spans"], OUT / f"spans_{stem}.jsonl")
    for line in result["failures"]:
        print("FAILED", line)
    print("provenance", json.dumps(prov, sort_keys=True))
    print(json.dumps({k: record[k] for k in VERDICT_KEYS}))


def selfcheck() -> int:
    """Each workload once on a tiny corpus, traced and untraced, with the
    correctness gate on; every metric of BENCHMARK.json must appear with
    its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = measure(workload, 0, 0.0, trace, tiny=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={int(trace)}: {got} != {want}")
            problems += [f"{workload}: {f}" for f in result["failures"]]
            status = "ok" if result["correct"] else "FAILED"
            print(workload, f"trace={int(trace)}", status)
    for p in problems:
        print("PROBLEM", p)
    print("selfcheck", "ok" if not problems else "FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "subcomp" / "cli.py").is_file():
        print(f"error: no subcomp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import corpus as corpora

    if args.selfcheck:
        return selfcheck()
    if args.workload not in corpora.WORKLOADS:
        names = ", ".join(corpora.WORKLOADS)
        print(f"error: --workload must be one of {names}", file=sys.stderr)
        return 2
    report(measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""spraylie benchmark: seeded CLI traffic, known answers, per-layer trace.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 50 --trace 0

The program is driven in-process through `spraylie.cli.main`, one op (CLI
invocation) at a time, from this single process.  A pass runs every op of the
workload once.  Throughout, a timer samples the host's speed with the
reference kernel of calibrate.py, and every time the benchmark reports is
rescaled to the kernel's reference speed.  With `--trace 0` a run makes
MIN_PASSES passes, then passes over the ops that still fit in `--seconds`,
and the last stdout line holds the end-to-end metrics.  With `--trace 1` an
untraced pass and MIN_PASSES traced ones come first, then untraced and
traced passes alternate, and the last line holds the per-layer metrics of
the traced passes.  The line before it lists a sha256 digest of every op's
stdout in the first pass, recorded but not checked.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBLEMS = ROOT / "problems"
WORK = ROOT / "perfbench" / "work"
if not __package__:  # run as a script: make the benchmark's package importable
    sys.path.insert(0, str(ROOT))

from perfbench import calibrate  # noqa: E402
from perfbench import tracer as tracing  # noqa: E402
from perfbench import workloads  # noqa: E402

SETUP_REPEATS = 9
MIN_PASSES = 2  # two traced passes are needed to check that counts repeat
EXIT_UNCAUGHT = -1  # the op raised instead of returning an exit code

# Prints the seconds `import spraylie.cli` took, leaving out the reference
# kernel's, and the scale from those seconds to reference ones.
_IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from perfbench import calibrate
speed = calibrate.Sampler(every=calibrate.SAMPLE_EVERY_S / 5)
speed.sample()
with speed:
    spent, start = speed.spent, time.perf_counter()
    import spraylie.cli
    took = time.perf_counter() - start - (speed.spent - spent)
speed.sample()
print(took, speed.scale(-float("inf"), float("inf")), speed.wrong)
"""


@dataclass
class PassResult:
    indices: list[int]  # positions in the workload of the ops this pass ran
    op_s: list[float]
    op_at: list[tuple[float, float]]  # perf_counter when each op started and ended
    exits: list[int]
    digests: list[str]
    mismatches: list[list[str]]


def import_seconds() -> float:
    """Cold import time of the CLI and everything it pulls in, numpy included,
    in reference seconds."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(ROOT), str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    took, scale, wrong = done.stdout.split()
    if wrong != "False":
        raise RuntimeError("the reference kernel gave a wrong answer")
    return float(took) * float(scale)


def set_up(name: str, seed: int, directory: Path) -> tuple[float, workloads.Workload]:
    """Median over repeats of import time plus generating and writing the
    files, in reference seconds."""
    samples = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        speed = calibrate.Sampler()
        speed.sample()
        start = perf_counter()
        shutil.rmtree(directory, ignore_errors=True)
        workload = workloads.build(name, seed, directory, PROBLEMS)
        workload.write(directory)
        took = perf_counter() - start
        speed.sample()
        samples.append(imported + took * speed.scale(-float("inf"), float("inf")))
    return statistics.median(samples), workload


def run_op(cli, argv: tuple[str, ...]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error is an op outcome, not a benchmark crash
            traceback.print_exc()
            code = EXIT_UNCAUGHT
    return code, out.getvalue()


def run_pass(cli, ops, tracer: tracing.Tracer | None = None, indices=None, sampler=None) -> PassResult:
    """Run the ops at `indices` (default: all) once each, in order.  With a
    `sampler` running, op times leave out the time its kernel took.

    Garbage is collected before each op, outside its time, so that every op
    starts from a heap as clean as a fresh CLI process would.
    """
    result = PassResult([], [], [], [], [], [])
    for index in range(len(ops)) if indices is None else indices:
        op = ops[index]
        gc.collect()
        spent = sampler.spent if sampler else 0.0
        t0 = perf_counter()
        if tracer is None:
            code, stdout = run_op(cli, op.argv)
        else:
            tracer.op = index
            span = tracer.open("op")
            code, stdout = run_op(cli, op.argv)
            tracer.close(span)
        t1 = perf_counter()
        result.indices.append(index)
        result.op_s.append(t1 - t0 - ((sampler.spent if sampler else 0.0) - spent))
        result.op_at.append((t0, t1))
        result.exits.append(code)
        result.digests.append(hashlib.sha256(stdout.encode()).hexdigest())
        result.mismatches.append(op.mismatches(code, stdout))
    return result


def op_times(count: int, passes: list[PassResult], sampler=None) -> list[list[float]]:
    """Every timing of each of the workload's `count` ops.  With the
    `sampler` that ran during the passes, each is rescaled to the speed at
    which the reference kernel takes REFERENCE_S."""
    times = [[] for _ in range(count)]
    for p in passes:
        for index, seconds, (t0, t1) in zip(p.indices, p.op_s, p.op_at):
            scale = sampler.scale(t0, t1) if sampler else 1.0
            times[index].append(seconds * scale)
    return times


def timed_passes(cli, ops, seconds: float, sampler=None) -> list[PassResult]:
    """MIN_PASSES full passes, then passes over those ops, in order, that
    still fit in the time left if each is as slow as its slowest run so far;
    until none fits.  Once a slow op no longer fits, the cheap ones gain
    timings in the time left."""
    start = perf_counter()
    passes = [run_pass(cli, ops, sampler=sampler) for _ in range(MIN_PASSES)]
    while True:
        elapsed = perf_counter() - start
        left = seconds - elapsed
        # the sampler's share of the time so far stretches every op
        stretch = elapsed / (elapsed - sampler.spent) if sampler and elapsed > sampler.spent else 1.0
        chosen = []
        for index, times in enumerate(op_times(len(ops), passes)):
            cost = max(times) * stretch
            if cost <= left:
                chosen.append(index)
                left -= cost
        if not chosen:
            return passes
        passes.append(run_pass(cli, ops, indices=chosen, sampler=sampler))


def repeat_passes(seconds: float, one_pass, minimum: int = MIN_PASSES) -> list:
    """Call `one_pass` `minimum` times, then again while another call, as
    slow as the slowest so far, should end within `seconds` of the start."""
    results, slowest = [], 0.0
    start = perf_counter()
    while len(results) < minimum or perf_counter() - start + slowest <= seconds:
        t0 = perf_counter()
        results.append(one_pass())
        slowest = max(slowest, perf_counter() - t0)
    return results


def judge(ops, passes: list[PassResult]) -> tuple[bool, int, int]:
    """(correct, ops attempted, ops failed), counting each op of the workload
    once however often it ran, so that both counts are the same in every run.

    An op fails when any of its runs has a wrong exit code or known answer.
    The run is correct when every failure is exactly a defect listed in
    KNOWN_DEFECTS.
    """
    attempted, failed = set(), set()
    correct = True
    for p in passes:
        for index, found in zip(p.indices, p.mismatches):
            attempted.add(index)
            if found:
                failed.add(index)
                if tuple(found) != workloads.KNOWN_DEFECTS.get(ops[index].label):
                    correct = False
    return correct, len(attempted), len(failed)


def end_to_end(setup_s: float, times: list[list[float]], failed: int) -> dict:
    """`times` holds each op's rescaled timings; each op counts with its median."""
    typical = [statistics.median(t) for t in times]
    return {
        "setup_s": (setup_s, "s"),
        "batch_s": (sum(typical), "s"),
        "op_p50_s": (statistics.median(typical), "s"),
        "op_max_s": (max(typical), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (1 - failed / len(times), "ratio"),
    }


def traced_run(cli, ops, seconds: float, out_path: Path, sampler) -> tuple[list[PassResult], dict, bool]:
    """An untraced pass, MIN_PASSES traced ones, then untraced and traced
    passes in turn while another fits in `seconds`, with `sampler` running.

    Returns every pass, the per-layer metrics of the traced ones, and whether
    every traced pass repeated the counts of the first.  Counts that differ
    mean state leaked from one pass into the next, e.g. a cache.  Times are
    in reference seconds: a traced pass's layer times are rescaled by the
    mean kernel speed over the pass.
    """
    kinds = itertools.chain([False] + [True] * MIN_PASSES, itertools.cycle([False, True]))
    spans_of_first = []

    def one_pass():
        if not next(kinds):
            return run_pass(cli, ops, sampler=sampler), None
        tracer = tracing.Tracer()
        with tracing.patched(tracer):
            traced = run_pass(cli, ops, tracer, sampler=sampler)
        if not spans_of_first:
            spans_of_first.append({"spans": tracer.spans, "counts": dict(tracer.counts)})
        scale = sampler.scale(traced.op_at[0][0], traced.op_at[-1][1])
        values = tracing.layer_metrics(tracer.spans, tracer.counts)
        counts = tracing.count_metrics(values)
        return traced, {k: v if k in counts else v * scale for k, v in values.items()}

    runs = repeat_passes(seconds, one_pass, minimum=1 + MIN_PASSES)
    out_path.write_text(json.dumps(spans_of_first[0]))
    per_pass = [values for _, values in runs if values is not None]
    counts = tracing.count_metrics(per_pass[0])
    repeated = all(tracing.count_metrics(values) == counts for values in per_pass[1:])
    metrics = {}
    for name in tracing.PER_LAYER:
        value = counts[name] if name in counts else statistics.median(v[name] for v in per_pass)
        metrics[name] = (value, "count" if name in counts else "s")
    batch = {}
    for kind in (False, True):
        times = op_times(len(ops), [p for p, values in runs if (values is not None) == kind], sampler)
        batch[kind] = sum(statistics.median(t) for t in times)
    metrics["bench.trace_overhead_s"] = (batch[True] - batch[False], "s")
    return [p for p, _ in runs], metrics, repeated


def result(cli, ops, setup_s: float, seconds: float, trace: bool, spans_path: Path) -> tuple[dict, list[PassResult], dict]:
    """The result line of a run, its passes, and for an untraced run its
    times before rescaling: the sum over ops of each op's median wall time,
    and the median kernel time."""
    notes = {}
    with calibrate.Sampler() as sampler:
        if trace:
            passes, metrics, repeated = traced_run(cli, ops, seconds, spans_path, sampler)
        else:
            passes, repeated = timed_passes(cli, ops, seconds, sampler), True
    correct, attempted, failed = judge(ops, passes)
    if not repeated:
        print("error: traced passes gave different counts", file=sys.stderr)
    if sampler.wrong:  # a kernel that errs cannot rescale times
        print("error: the reference kernel gave a wrong answer", file=sys.stderr)
    if not trace:
        metrics = end_to_end(setup_s, op_times(len(ops), passes, sampler), failed)
        notes["wall_batch_s"] = sum(statistics.median(t) for t in op_times(len(ops), passes))
        notes["kernel_s"] = statistics.median(sampler.times)
    line = {
        "correct": correct and repeated and not sampler.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return line, passes, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spraylie" / "cli.py").is_file() or not PROBLEMS.is_dir():
        print(f"error: no spraylie source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    directory = WORK / f"{args.workload}-{args.seed}"
    setup_s, workload = set_up(args.workload, args.seed, directory)
    from spraylie import cli

    line, passes, notes = result(cli, workload.ops, setup_s, args.seconds, bool(args.trace), directory / "spans.json")

    first = passes[0]
    for op, code, found in zip(workload.ops, first.exits, first.mismatches):
        if found:
            known = "known defect" if tuple(found) == workloads.KNOWN_DEFECTS.get(op.label) else "UNEXPECTED"
            print(f"failed op [{known}] {op.label}: {'; '.join(found)}", file=sys.stderr)
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "passes": len(passes),
                **notes,
                "ops": [
                    {"op": op.label, "exit": code, "sha256": digest}
                    for op, code, digest in zip(workload.ops, first.exits, first.digests)
                ],
            }
        )
    )
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: generators, known answers, span trees."""

from __future__ import annotations

import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from perfbench import run, tracer as tracing, workloads

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

from spraylie import cli, linalg  # noqa: E402
from spraylie.symexpr import CanonicalExpr  # noqa: E402


def _build(name: str, seed: int, directory: Path) -> workloads.Workload:
    return workloads.build(name, seed, directory, run.PROBLEMS)


def _answers(workload: workloads.Workload) -> list:
    return [(op.label, op.want_exit, op.answer_set, op.answers) for op in workload.ops]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_files_and_ops(name, tmp_path):
    a, b = _build(name, 3, tmp_path), _build(name, 3, tmp_path)
    assert a.files == b.files
    assert a.ops == b.ops


def test_other_seed_changes_inputs_but_not_known_answers(tmp_path):
    a, b = _build("lie-families", 3, tmp_path), _build("lie-families", 4, tmp_path)
    assert a.files.keys() == b.files.keys()
    assert a.files != b.files
    assert _answers(a) == _answers(b)


def test_paper_seed_reaches_only_the_sampling_arguments(tmp_path):
    a, b = _build("paper", 3, tmp_path), _build("paper", 4, tmp_path)
    assert a.files == b.files
    assert _answers(a) == _answers(b)
    assert [op.argv for op in a.ops] != [op.argv for op in b.ops]


def test_change_of_basis_is_unimodular():
    m = 12
    unit_rows = [({i: 1},) for i in range(m)]
    for seed in range(1, 6):
        changed = workloads.change_of_basis(unit_rows, workloads.random.Random(seed))
        matrix = [[Fraction(row[0].get(j, 0)) for j in range(m)] for row in changed]
        assert abs(linalg.det(matrix)) == 1


def test_known_answer_table_is_self_consistent(tmp_path):
    families = _build("lie-families", 0, tmp_path)
    for (_tag, _family, n, make), op in zip(workloads.LIE_FAMILIES, families.ops):
        answers = op.answers
        dim = len(make(n))
        assert answers["radical"] + answers["levi"] == dim, op.label
        assert answers["center"] <= answers["radical"], op.label
        # ad: L -> Der(L) has the center as kernel
        assert answers["derivations"] >= dim - answers["center"], op.label
        if answers["simple"]:
            assert answers["radical"] == 0, op.label
    labels = {op.label for op in families.ops}
    assert set(workloads.KNOWN_DEFECTS) <= labels


def test_known_answers_hold_on_small_algebras(tmp_path):
    for seed in (0, 5):
        workload = _build("lie-families", seed, tmp_path)
        workload.write(tmp_path)
        small = [op for op in workload.ops if op.label in ("analyze aff2", "analyze so3", "analyze h3", "analyze h5")]
        assert len(small) == 4
        result = run.run_pass(cli, small)
        assert result.mismatches == [[]] * 4, seed


def _pass(indices, op_s, op_at, mismatches=None):
    n = len(indices)
    return run.PassResult(indices, op_s, op_at, [0] * n, [""] * n, mismatches or [[]] * n)


def test_judge_counts_each_op_once_and_separates_known_defects_from_new_failures():
    ops = [workloads.Op("analyze so4", ()), workloads.Op("analyze so3", ())]
    known = list(workloads.KNOWN_DEFECTS["analyze so4"])
    ok = _pass([0, 1], [0.5, 0.5], [(0, 0)] * 2, [known, []])
    assert run.judge(ops, [ok, ok, ok]) == (True, 2, 1)
    worse = _pass([0, 1], [0.5, 0.5], [(0, 0)] * 2, [known, ["simple: want True, got False"]])
    assert run.judge(ops, [worse]) == (False, 2, 2)
    second_only = _pass([1], [0.5], [(0, 0)], [["simple: want True, got False"]])
    assert run.judge(ops, [ok, second_only]) == (False, 2, 2)


def _sampler(ends, times):
    sampler = run.calibrate.Sampler()
    sampler.ends, sampler.times = ends, times
    return sampler


def test_end_to_end_times_rescale_each_run_and_take_each_ops_median():
    ref = run.calibrate.REFERENCE_S
    sampler = _sampler([100.5, 200.5, 300.5], [2 * ref, ref, ref])
    slow = _pass([0, 1], [0.2, 1.0], [(100.0, 100.2), (100.2, 101.2)])  # a host half as fast
    fast = _pass([0, 1], [0.1, 0.5], [(200.0, 200.1), (200.1, 200.6)])
    cheap_only = _pass([0], [0.3], [(300.0, 300.3)])
    assert run.op_times(2, [slow, fast, cheap_only]) == [[0.2, 0.1, 0.3], [1.0, 0.5]]
    times = run.op_times(2, [slow, fast, cheap_only], sampler)
    assert times[0] == pytest.approx([0.1, 0.1, 0.3]) and times[1] == pytest.approx([0.5, 0.5])
    values = run.end_to_end(0.3, times, failed=1)
    assert values["batch_s"][0] == pytest.approx(0.6)
    assert values["op_p50_s"][0] == pytest.approx(0.3)
    assert values["op_max_s"][0] == pytest.approx(0.5)
    assert values["ok_frac"] == (0.5, "ratio")


def test_sampler_scale_is_the_mean_kernel_speed_around_an_op():
    ref = run.calibrate.REFERENCE_S
    sampler = _sampler([1.0, 2.0, 5.0, 9.0], [ref, 2 * ref, ref / 2, 4 * ref])
    sampler.every = 0.5
    # window [1.0, 2.5]: speeds 1 and 1/2, so the mean speed, not the median time
    assert sampler.scale(1.5, 2.0) == pytest.approx(0.75)
    assert sampler.scale(4.6, 8.4) == pytest.approx(2.0)  # window [4.1, 8.9]
    assert sampler.scale(20.0, 21.0) == pytest.approx(0.25)  # none in the window: the nearest


def test_sampler_times_the_kernel_on_a_timer_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with run.calibrate.Sampler(every=0.05) as sampler:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.times) >= 3 and sampler.ends == sorted(sampler.ends)
    assert 0 < sum(sampler.times) <= sampler.spent < 0.5
    assert not sampler.wrong
    assert run.calibrate.kernel() is True


def test_set_up_probe_times_a_cold_import_in_reference_seconds():
    assert 0 < run.import_seconds() < 60


@pytest.fixture
def clock(monkeypatch):
    """A fake perf_counter for the benchmark, advanced by hand."""
    now = [0.0]
    monkeypatch.setattr(run, "perf_counter", lambda: now[0])
    return now


def test_passes_repeat_at_least_the_minimum_and_stop_before_overrunning(clock):
    def one_second_pass():
        clock[0] += 1.0

    for seconds, passes in ((0.0, run.MIN_PASSES), (4.0, 4), (4.9, 4)):
        clock[0] = 0.0
        assert len(run.repeat_passes(seconds, one_second_pass)) == passes


class ClockCli:
    """A program whose ops take as many fake seconds as their first argument."""

    def __init__(self, clock):
        self.clock = clock

    def main(self, argv):
        self.clock[0] += float(argv[0])
        return 0


class SampledClockCli(ClockCli):
    """As ClockCli, with a sampler's timer adding a tenth to every op."""

    def __init__(self, clock, sampler):
        super().__init__(clock)
        self.sampler = sampler

    def main(self, argv):
        self.clock[0] += 1.1 * float(argv[0])
        self.sampler.spent += 0.1 * float(argv[0])
        return 0


def test_timed_passes_fill_the_time_left_with_the_ops_that_fit(clock):
    sampler = run.calibrate.Sampler()
    ops = [workloads.Op("slow", ("3",)), workloads.Op("cheap", ("1",))]
    passes = run.timed_passes(SampledClockCli(clock, sampler), ops, 12.0, sampler)
    # two full passes end at 8.8 s; then only "cheap", 1.1 s with the timer, fits
    assert [p.indices for p in passes] == [[0, 1], [0, 1], [1], [1]]
    assert clock[0] == pytest.approx(11.0)
    assert [x for p in passes for x in p.op_s] == pytest.approx([3, 1, 3, 1, 1, 1])  # the timer's time left out


def _traced_pass(ops):
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        result = run.run_pass(cli, ops, tracer)
    return tracer, result


@pytest.fixture(scope="module")
def mixed_ops(tmp_path_factory):
    directory = tmp_path_factory.mktemp("mixed")
    paper = _build("paper", 1, directory)
    families = _build("lie-families", 2, directory)
    paper.write(directory)
    families.write(directory)
    wanted = {
        "analyze example1 md",
        "table example1 connection_symmetries",
        "oracle example1 R-vs-half-hh",
        "analyze so3",
        "analyze h3",
    }
    return [op for op in paper.ops + families.ops if op.label in wanted]


def test_span_tree_invariants(mixed_ops):
    tracer, result = _traced_pass(mixed_ops)
    spans = tracer.spans
    assert result.mismatches == [[]] * len(mixed_ops)
    ops = {s[tracing.OP]: s for s in spans if s[tracing.NAME] == "op"}
    assert sorted(ops) == list(range(len(mixed_ops)))
    for span, own in zip(spans, tracing.self_times(spans)):
        assert own >= -1e-9, span  # tolerance: rounding of perf_counter differences
        op = ops[span[tracing.OP]]
        assert op[tracing.START] <= span[tracing.START] <= span[tracing.END] <= op[tracing.END]
        if span[tracing.PARENT] >= 0:
            parent = spans[span[tracing.PARENT]]
            assert parent[tracing.START] <= span[tracing.START] and span[tracing.END] <= parent[tracing.END]
        else:
            assert span[tracing.NAME] == "op"
    layers = {s[tracing.NAME].split(".")[0] for s in spans}
    assert set(tracing.LAYERS) <= layers
    values = tracing.layer_metrics(spans, tracer.counts)
    assert set(values) == set(tracing.PER_LAYER)
    assert all(values[k] >= -1e-9 for k in values if k.endswith("self_s"))


def test_tracing_repeats_counts_keeps_reports_and_restores_the_program(mixed_ops):
    before = (cli.in_AS, linalg.rref, CanonicalExpr.__mul__, CanonicalExpr.diff)
    plain = run.run_pass(cli, mixed_ops)
    first, traced = _traced_pass(mixed_ops)
    second, _ = _traced_pass(mixed_ops)
    counts = tracing.count_metrics(tracing.layer_metrics(first.spans, first.counts))
    assert counts == tracing.count_metrics(tracing.layer_metrics(second.spans, second.counts))
    assert counts["linalg.rref_calls"] > 0 and counts["symexpr.mul_calls"] > 0
    assert counts["fields.bracket_base_calls"] > 0  # reached through a default argument
    assert traced.digests == plain.digests
    assert (cli.in_AS, linalg.rref, CanonicalExpr.__mul__, CanonicalExpr.diff) == before


class FakeCli:
    """A program doing `growth` more rref calls on each invocation than on the last."""

    def __init__(self, growth: int):
        self.growth = growth
        self.rrefs = 1

    def main(self, argv):
        for _ in range(self.rrefs):
            linalg.rref([[Fraction(1)]])
        self.rrefs += self.growth
        return 0


def test_counts_that_differ_between_traced_passes_make_the_run_incorrect(tmp_path):
    ops = [workloads.Op("leaky", ())]
    line, passes, _ = run.result(FakeCli(growth=1), ops, 0.0, 0.0, True, tmp_path / "spans.json")
    assert len(passes) == 1 + run.MIN_PASSES
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 1, 0)
    assert "bench.trace_overhead_s" in line["metrics"]
    steady, _, _ = run.result(FakeCli(growth=0), ops, 0.0, 0.0, True, tmp_path / "spans.json")
    assert steady["correct"] is True


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in run.ROOT.joinpath("perfbench").glob("*.py"):
        shutil.copy(path, copy / path.name)
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "paper", "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""

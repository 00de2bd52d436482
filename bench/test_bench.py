"""Tests of the benchmark itself: run with ``python3 -m pytest bench``."""

import contextlib
import os
import shutil

import pytest

import run

CLI = run.import_engine()
import gen  # noqa: E402  (needs the engine on sys.path)
import tracing  # noqa: E402


@pytest.fixture
def workdir(request):
    path = run.ROOT / ".bench_work" / ("test-%d-%s" % (os.getpid(),
                                                      request.node.name))
    yield path
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        path.parent.rmdir()


def _cheap(jobs):
    """One job of each kind, the first (smallest) of its kind."""
    seen, out = set(), []
    for job in jobs:
        if job[3] not in seen:
            seen.add(job[3])
            out.append(job)
    return out


def _run(jobs, budgets, expected=None, tracer=None):
    runner = run.Runner(CLI, run.Checker(budgets, expected))
    for job in jobs:
        runner.run(job)
        if tracer is not None:
            tracer.fold()
    return runner


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic(workload):
    first = gen.WORKLOADS[workload](7)
    assert gen.WORKLOADS[workload](7) == first
    assert gen.WORKLOADS[workload](8)[0] != first[0]


@pytest.mark.parametrize("workload", ["market-day", "best-response"])
def test_traced_and_untraced_runs_agree(workload, workdir):
    jobs, budgets = run.setup(gen, workload, 3, workdir)
    jobs = _cheap(jobs)
    plain = _run(jobs, budgets)
    assert plain.failed == 0
    with tracing.Tracer() as tracer:
        traced = _run(jobs, budgets, plain.checker.expected, tracer)
    assert traced.failed == 0
    assert traced.checker.expected == plain.checker.expected


def test_traced_counts_repeat_exactly(workdir):
    jobs, budgets = run.setup(gen, "best-response", 4, workdir)
    jobs = _cheap(jobs)
    counts = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            _run(jobs, budgets, None, tracer)
        values = tracing.layer_values(tracer.totals, tracer.absent)
        counts.append({k: v for k, v in values.items()
                       if k in tracing.COUNT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["bestresp.calls"] > 0
    assert counts[0]["partition.timeline.calls"] > 0


def test_wrappers_reach_every_binding(workdir):
    import broadmatch.cli
    import broadmatch.partition
    import broadmatch.simulate
    originals = (broadmatch.cli.tables_for, broadmatch.simulate.simulate_day)
    with tracing.Tracer():
        assert broadmatch.cli.tables_for is not originals[0]
        assert broadmatch.partition.tables_for is broadmatch.cli.tables_for
        assert broadmatch.simulate.simulate_day is not originals[1]
    assert (broadmatch.cli.tables_for, broadmatch.simulate.simulate_day) == originals


def test_absent_entry_point_drops_its_metrics(monkeypatch, workdir):
    monkeypatch.setattr(tracing, "ENTRY_POINTS", tracing.ENTRY_POINTS
                        + [("acbm.gone", "broadmatch.acbm", "no_such_function")])
    monkeypatch.setattr(tracing, "LAYER_METRICS", tracing.LAYER_METRICS
                        + [("acbm.gone.calls", "count", "lower", ("acbm.gone",))])
    jobs, budgets = run.setup(gen, "best-response", 5, workdir)
    with tracing.Tracer() as tracer:
        runner = _run(_cheap(jobs), budgets, None, tracer)
    values = tracing.layer_values(tracer.totals, tracer.absent)
    assert runner.failed == 0
    assert tracer.absent == {"acbm.gone"}
    assert "acbm.gone.calls" not in values
    assert "bestresp.calls" in values


def test_corrupted_reference_digest_is_a_failure(workdir):
    jobs, budgets = run.setup(gen, "acbm-fine", 6, workdir)
    job = _cheap(jobs)[0]
    good = _run([job], budgets)
    assert good.failed == 0
    corrupted = {job[0]: dict(good.checker.expected[job[0]], digest="0" * 16)}
    bad = _run([job, job], budgets, corrupted)
    assert (bad.attempted, bad.failed) == (2, 2)


def test_wrong_exit_code_and_broken_invariant_are_failures(workdir):
    jobs, budgets = run.setup(gen, "market-day", 2, workdir)
    job = _cheap(jobs)[0]
    checker = run.Checker(budgets)
    assert _run([job], budgets).checker.expected[job[0]]["exit_code"] == 0
    bad_budgets = {job[0]: {k: v + 1 for k, v in budgets[job[0]].items()}}
    assert _run([job], bad_budgets).failed == 1
    assert checker.check(job, 1, "{}") is not None
    assert checker.check(job, 0, "not json") is not None

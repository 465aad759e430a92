"""Tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench/selftest.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402

REF = json.loads((HERE / "reference.json").read_text())


def _span(sid, start, end, parent=None, name="m.f"):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "run": "r"}


def test_self_time_subtracts_children_union():
    recorded = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 3.0, 5.0, parent=1),  # overlaps 2 (e.g. another thread): union is 1..5
        _span(4, 2.0, 3.0, parent=2),  # grandchild: charged to 2, not to 1
        _span(5, 8.0, 12.0, parent=1),  # runs past its parent: clipped to 8..10
    ]
    st = spans.self_times(recorded)
    assert st[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert st[2] == pytest.approx(3.0 - 1.0)
    assert st[3] == pytest.approx(2.0)
    assert st[4] == pytest.approx(1.0)
    assert st[5] == pytest.approx(4.0)


def test_aggregate_sums_calls_times_and_repeat_fraction():
    recorded = [
        _span(1, 0.0, 2.0, name="a.outer"),
        dict(_span(2, 0.5, 1.0, parent=1, name="ideals.enumerate_ideals"), counts={"ideals": 3, "repeats": 0}),
        dict(_span(3, 1.0, 1.5, parent=1, name="ideals.enumerate_ideals"), counts={"ideals": 3, "repeats": 1}),
    ]
    agg = spans.aggregate(recorded)
    assert agg["a.outer"] == {"calls": 1, "total_s": 2.0, "self_s": 1.0}
    e = agg["ideals.enumerate_ideals"]
    assert (e["calls"], e["ideals"], e["repeat_frac"]) == (2, 6, 0.5)
    assert e["total_s"] == pytest.approx(1.0)
    assert spans.covered_seconds(recorded, lambda n: n.startswith("ideals.")) == pytest.approx(1.0)


def _bindings():
    import cubicsums
    from cubicsums import exponents

    mods = spans._modules()
    containers = [vars(m) for m in mods.values()] + [vars(cubicsums), exponents.SCENARIOS]
    return [(c, dict(c)) for c in containers]


def test_traced_run_restores_every_binding():
    from cubicsums import cli, exponents, sums

    before = _bindings()
    originals = spans.public_functions()
    tracer = spans.Tracer().install()
    try:
        assert sums.enumerate_ideals is not originals["ideals.enumerate_ideals"]
        assert exponents.SCENARIOS["xy"] is not originals["exponents.scenario_remainder_xy"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["experiment", "exponents-xy"]) == 0
            assert cli.main(["verify", "--field", "cubic-cyclic-7", "--N", "2e4"]) == 0
    finally:
        tracer.restore()
    for container, snapshot in before:
        assert container.keys() == snapshot.keys()
        for key, obj in snapshot.items():
            assert container[key] is obj, key
    names = {s[1] for s in tracer.spans}
    # the copy bound in sums is reported under its defining module
    assert {"cli.cmd_verify", "exponents.scenario_remainder_xy", "ideals.enumerate_ideals",
            "arith.build_tables"} <= names
    counts = [tracer.counts[s[0]] for s in tracer.spans if s[1] == "arith.build_tables"]
    assert {"entries": 20000, "table_bytes": 5 * 8 * 20001} in counts


def test_failed_step_fails_all_its_checks():
    ref = REF["errorterm"]
    good = {"name": "exponents-xy", "rc": 0, "stdout": ref["exponents"]["exponents-xy"], "error": None}
    assert all(ok for _, ok, _ in workloads.step_checks("errorterm", good, ref))
    bad = dict(good, rc=1)
    checks = workloads.step_checks("errorterm", bad, ref)
    assert checks and not any(ok for _, ok, _ in checks)

    vref = REF["verify"]
    stdout = "".join(f"[pass] {n} (detail)\n" for n in vref["checks"])
    ok_checks = workloads.step_checks("verify", {"name": "verify", "rc": 0, "stdout": stdout, "error": None}, vref)
    assert all(ok for _, ok, _ in ok_checks)
    raised = workloads.step_checks("verify", {"name": "verify", "rc": None, "stdout": stdout,
                                              "error": "Traceback ..."}, vref)
    assert len(raised) == len(ok_checks) == len(vref["checks"]) + 1
    assert not any(ok for _, ok, _ in raised)


def test_report_checks_accept_reference_and_reject_drift():
    reports = REF["errorterm"]["reports"]
    err = REF["errorterm"]["cx_trunc_err"]
    for step, rep in reports.items():
        assert all(ok for _, ok, _ in workloads.check_report(step, rep, rep, err)), step

    moved = json.loads(json.dumps(reports["voronoi"]))
    moved["rows"][0][1] *= 1 + 1e-7
    assert not all(ok for _, ok, _ in workloads.check_report("voronoi", moved, reports["voronoi"], err))


def _with_cx(report, cx_of_row):
    """A copy of the cx report with c(X) replaced and |c(X)|/X^(7/3) kept consistent."""
    out = json.loads(json.dumps(report))
    cols = out["columns"]
    i, t = cols.index("cX"), cols.index("abs_cX_over_X73")
    for row in out["rows"]:
        row[i] = cx_of_row(row[0], row[i], row[cols.index("tail_bound")])
        row[t] = abs(row[i]) / row[0] ** (7 / 3)
    return out


@pytest.mark.parametrize("cx_of_row,passes", [
    (lambda X, c, tail: c + 5 * REF["errorterm"]["cx_trunc_err"][str(X)], True),  # a better-converged value
    (lambda X, c, tail: c + 11 * REF["errorterm"]["cx_trunc_err"][str(X)], False),
    (lambda X, c, tail: c + tail, False),  # within the tail bounds alone
    (lambda X, c, tail: 0.0, False),
    (lambda X, c, tail: -c, False),
])
def test_cx_check_rejects_values_far_beyond_truncation_error(cx_of_row, passes):
    ref = REF["errorterm"]["reports"]["cx"]
    new = _with_cx(ref, cx_of_row)
    assert all(ok for _, ok, _ in workloads.check_report("cx", new, ref, REF["errorterm"]["cx_trunc_err"])) == passes


@pytest.mark.parametrize("scale,passes", [(1.0, True), (1.05, True), (0.0, False), (-1.0, False)])
def test_meansquare_cx_is_pinned(scale, passes):
    ref = REF["errorterm"]["reports"]["meansquare"]
    new = json.loads(json.dumps(ref))
    new["meta"]["cX"] *= scale
    cols = new["columns"]
    for row in new["rows"]:  # keep main_term and ratio consistent with the changed c(X)
        row[cols.index("main_term")] *= scale
        row[cols.index("ratio")] = row[cols.index("integral_R2")] / row[cols.index("main_term")] if scale else 0.0
    checks = dict((n, ok) for n, ok, _ in workloads.check_report("meansquare", new, ref,
                                                                 REF["errorterm"]["cx_trunc_err"]))
    assert checks["meansquare.meta.cX"] == passes


def test_emitted_metrics_match_benchmark_json():
    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    res = {"wall_s": 1.0, "steal_s": 0.1, "wall_minus_steal_s": 0.9, "cpu_s": 1.0, "peak_rss_mib": 1.0,
           "setup_s": 1.0, "checks": [("c", True, "")],
           "trace": {"agg": {}, "wall_s": 1.0, "overhead_s": 0.1, "non_cli_share": 0.5}}
    emitted = {k: v["unit"] for k, v in run.per_layer(res).items()}
    assert emitted == {m["name"]: m["unit"] for m in bench["per_layer"]}
    emitted = {k: v["unit"] for k, v in run.end_to_end(res).items()}
    assert emitted == {m["name"]: m["unit"] for m in bench["end_to_end"]}


@pytest.mark.parametrize("workload,step", [("errorterm", "cx"), ("errorterm", "meansquare"),
                                           ("errorterm", "envelope"), ("sieve", "sieve"), ("sieve", "rho")])
def test_malformed_output_fails_checks_without_raising(workload, step):
    garbage = {"name": step, "rc": 0, "stdout": "# rho=abc\nX,cX,method,rho\n100,x,series_b_over_m,y\n",
               "error": None}
    checks = workloads.step_checks(workload, garbage, REF[workload])
    assert checks[0][1] and len(checks) > 1
    assert not any(ok for _, ok, _ in checks[1:])


def test_stolen_share_scales_wall_by_steal_share_of_busy_time():
    import run

    assert run.stolen_share(10.0, (100, 5), (190, 15)) == pytest.approx(1.0)
    assert run.stolen_share(10.0, (100, 5), (200, 5)) == 0.0
    assert run.stolen_share(10.0, (0, 0), (0, 0)) == 0.0

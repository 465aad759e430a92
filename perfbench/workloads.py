"""The three workloads, their CLI steps and their output checks.

Every step drives the CLI with default arguments only (no --threads, no
--n-cutoff): later changes may delete those options.  Checks compare parsed
values with `reference.json`, never report bytes, because `config_hash`
embeds the temporary table path.

A check is (name, ok, detail).  Check names come from the reference, so a
step that raises or exits non-zero still yields all of its checks, each
failed.
"""

from __future__ import annotations

import re

REL_TOL = 1e-9
# c(X) may drift from its reference by this many times the reference's
# honest truncation error |c(X, 2 cut) - c(X, cut)| (make_reference.py).
# Each doubling of the cutoff adds 0.83-0.86 of the previous doubling's
# change, so the whole tail beyond the cutoff (the Euler-product limit) sits
# about 6-7 errors away.  Ten errors stay below |c(X)| at every X checked
# (0.07, 0.16 and 0.31 of it at X = 5, 100, 1000), so a zero or a sign flip
# fails.
CX_DRIFT_FACTOR = 10

SIEVE_N = "1e7"
VERIFY_N = "1e6"
ERRORTERM_N = "1e6"

EXPONENT_STEPS = ("exponents-block", "exponents-xy", "exponents-xt")


def setup_steps(workload, table):
    """CLI steps of the one-off preparation before the timed processes."""
    if workload == "errorterm":
        return [{"name": "setup-sieve", "argv": ["sieve", "--N", ERRORTERM_N, "--output", table]}]
    return []


def steps(workload, seed, table):
    """CLI steps of one timed process."""
    if workload == "sieve":
        return [
            {"name": "sieve", "argv": ["sieve", "--N", SIEVE_N, "--output", table]},
            {"name": "rho", "argv": ["experiment", "rho", "--N", SIEVE_N, "--tables", table]},
        ]
    if workload == "verify":
        return [{"name": "verify", "argv": ["verify", "--field", "all", "--N", VERIFY_N, "--seed", str(seed)]}]
    if workload == "errorterm":
        tab = ["--tables", table]
        out = [
            {"name": "meansquare", "argv": ["experiment", "meansquare", "--X", "5", "--T", "1e5", "--samples", "8192", *tab]},
            {"name": "cx", "argv": ["experiment", "cx", "--X", "100,1000", *tab]},
            {"name": "voronoi", "argv": ["experiment", "voronoi", *tab]},
            {"name": "meansquare-p2", "argv": ["experiment", "meansquare-p2", *tab]},
            {"name": "envelope", "argv": ["experiment", "envelope", *tab]},
            {"name": "pair-sum", "argv": ["experiment", "pair-sum", "--T", "1e3,1e4,2e4"]},
        ]
        return out + [{"name": e, "argv": ["experiment", e]} for e in EXPONENT_STEPS]
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------------

def _num(text):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_report(text):
    """CSV report -> {"meta": {k: v}, "columns": [...], "rows": [[...]]}."""
    meta, columns, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            k, _, v = line[2:].partition("=")
            if k != "config_hash":
                meta[k] = _num(v)
        elif line.strip() and columns is None:
            columns = line.split(",")
        elif line.strip():
            rows.append([_num(v) for v in line.split(",")])
    return {"meta": meta, "columns": columns or [], "rows": rows}


_VERIFY_RE = re.compile(r"^\[(pass|FAIL)\] ([^:]+): (.*)$")


def parse_verify(text):
    """verify output -> {"<field>: <check name>": status}."""
    out = {}
    for line in text.splitlines():
        m = _VERIFY_RE.match(line)
        if m:
            name = m.group(3).split(" (", 1)[0]
            out[f"{m.group(2)}: {name}"] = m.group(1)
    return out


_HEAD_RE = re.compile(r"^(aK|muK|b)\(1\.\.20\):\s+(.*)$")
_RHO_RE = re.compile(r"^rho\[(\w+)\] = (\S+) \+- (\S+)")


def parse_sieve(text):
    head, rho = {}, {}
    for line in text.splitlines():
        m = _HEAD_RE.match(line)
        if m:
            head[m.group(1)] = [int(v) for v in m.group(2).split()]
        m = _RHO_RE.match(line)
        if m:
            rho[m.group(1)] = [float(m.group(2)), float(m.group(3))]
    return {"head": head, "rho": rho}


def _rows_by_key(report, key):
    cols = report["columns"]
    if key not in cols:
        return {}
    i = cols.index(key)
    return {row[i]: dict(zip(cols, row)) for row in report["rows"] if len(row) == len(cols)}


# ----------------------------------------------------------------------------
# comparison rules
# ----------------------------------------------------------------------------

def _rel_ok(new, ref, tol=REL_TOL):
    if not isinstance(new, (int, float)) or not isinstance(ref, (int, float)):
        return new == ref
    return abs(new - ref) <= tol * max(abs(ref), abs(new)) or new == ref


def _check(name, compare):
    """(name, ok, detail) from compare() -> (ok, detail).  Output too
    malformed to compare fails the check instead of stopping the run."""
    try:
        ok, detail = compare()
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        return (name, False, f"cannot compare: {exc!r}")
    return (name, bool(ok), detail)


def _cmp(name, new, ref, rule="rel"):
    if new is None:
        return (name, False, "missing")
    ok = new == ref if rule == "exact" else _rel_ok(new, ref)
    return (name, ok, "" if ok else f"{new!r} != {ref!r} ({rule})")


def _cx_check(name, new, ref):
    """c(X) within the sum of both runs' reported tail bounds."""
    def compare():
        diff = abs(new["cX"] - ref["cX"])
        allowed = abs(ref["tail_bound"]) + abs(new["tail_bound"])
        return diff <= allowed, f"allowed_abs={allowed:.3e}"
    return _check(name, compare)


def _cx_drift_check(name, new_cx, ref_cx, trunc_err):
    """c(X) within CX_DRIFT_FACTOR truncation errors of the reference; the
    relative drift is reported beside the verdict."""
    def compare():
        drift = abs(new_cx - ref_cx)
        allowed = CX_DRIFT_FACTOR * trunc_err
        return drift <= allowed, f"rel_drift={drift / abs(ref_cx):.3e} allowed_rel={allowed / abs(ref_cx):.3e}"
    return _check(name, compare)


def check_report(step, new, ref, cx_trunc_err):
    """Checks of one CSV experiment report against its reference.
    `cx_trunc_err` maps str(X) to the reference c(X)'s truncation error."""
    out = []
    # metadata: strings exact, numbers to REL_TOL, except c(X)
    for k, rv in ref["meta"].items():
        if step == "meansquare" and k == "cX":
            out.append(_cx_drift_check("meansquare.meta.cX", new["meta"].get("cX"), rv,
                                       cx_trunc_err[str(ref["rows"][0][ref["columns"].index("X")])]))
            continue
        out.append(_cmp(f"{step}.meta.{k}", new["meta"].get(k), rv, "exact" if isinstance(rv, str) else "rel"))
    if step == "cx":
        rows = _rows_by_key(new, "X")
        for X, rrow in _rows_by_key(ref, "X").items():
            nrow = rows.get(X)
            out.append(_cx_check(f"cx.X={X}.cX", nrow, rrow))
            out.append(_cx_drift_check(f"cx.X={X}.cX_drift", None if nrow is None else nrow.get("cX"),
                                       rrow["cX"], cx_trunc_err[str(X)]))
            out.append(_check(f"cx.X={X}.abs_cX_over_X73", lambda nrow=nrow, X=X: (
                _rel_ok(nrow["abs_cX_over_X73"], abs(nrow["cX"]) / X ** (7 / 3)), "vs |cX|/X^(7/3)")))
        return out
    if step == "meansquare":
        rows = _rows_by_key(new, "T")
        for T, rrow in _rows_by_key(ref, "T").items():
            nrow = rows.get(T)
            for col in ("X", "integral_R2", "error_est"):
                out.append(_cmp(f"meansquare.T={T}.{col}", None if nrow is None else nrow.get(col), rrow[col]))
            # main_term = c(X) * 3/5 ((2T)^{5/3} - T^{5/3}); ratio = integral / main_term.
            # c(X) is a truncated series that may be replaced by a better value
            # (checked as meansquare.meta.cX), so these are checked for
            # consistency with the reported c(X).
            def compare(nrow=nrow, T=T, cx=new["meta"].get("cX")):
                ok = (_rel_ok(nrow["main_term"], cx * 0.6 * ((2.0 * T) ** (5 / 3) - float(T) ** (5 / 3)))
                      and _rel_ok(nrow["ratio"], nrow["integral_R2"] / nrow["main_term"]))
                return ok, "vs reported cX"
            out.append(_check(f"meansquare.T={T}.main_term_ratio", compare))
        return out
    key = ref["columns"][0]
    rows = _rows_by_key(new, key)
    for kv, rrow in _rows_by_key(ref, key).items():
        nrow = rows.get(kv)
        for col, rv in rrow.items():
            rule = "exact" if (step, col) == ("envelope", "R") else "rel"
            out.append(_cmp(f"{step}.{key}={kv}.{col}", None if nrow is None else nrow.get(col), rv, rule))
    return out


def check_digest(name, new, ref):
    ok = new is not None and new == ref
    return (name, ok, "" if ok else f"{new} != {ref}")


def check_step(workload, step, stdout, ref, digest=None):
    """All checks of one step's output against the workload's reference."""
    if workload == "sieve" and step == "sieve":
        got = parse_sieve(stdout)
        out = [_cmp(f"sieve.{k}(1..20)", got["head"].get(k), v, "exact") for k, v in ref["head"].items()]
        for method, (rv, _) in ref["rho"].items():
            nv = got["rho"].get(method)
            out.append(_check(f"sieve.rho[{method}]", lambda nv=nv, rv=rv: (abs(nv[0] - rv) <= nv[1], f"{nv} vs {rv}")))
        out.append(check_digest("sieve.table_sha256", digest, ref["table"]))
        return out
    if workload == "sieve" and step == "rho":
        rows = _rows_by_key(parse_report(stdout), "method")
        out = []
        for method, rrow in _rows_by_key(ref["rho_report"], "method").items():
            nrow = rows.get(method)
            out.append(_check(f"rho.{method}", lambda nrow=nrow, rrow=rrow: (
                abs(nrow["rho"] - rrow["rho"]) <= nrow["stderr"], f"{nrow} vs {rrow}")))
        return out
    if workload == "verify":
        got = parse_verify(stdout)
        return [(f"verify.{name}", got.get(name) == "pass", got.get(name, "missing")) for name in ref["checks"]]
    if workload == "errorterm" and step in EXPONENT_STEPS:
        ok = stdout == ref["exponents"][step]
        return [(f"{step}.output", ok, "" if ok else "output differs")]
    if workload == "errorterm":
        return check_report(step, parse_report(stdout), ref["reports"][step], ref["cx_trunc_err"])
    raise ValueError(f"no checks for {workload}/{step}")


def step_checks(workload, result, ref, digest=None):
    """Checks of one step result; a non-zero exit or an exception fails the
    step's exit check and every other check of the step."""
    name = result["name"]
    checks = check_step(workload, name, result["stdout"], ref, digest)
    ok = result["rc"] == 0 and result["error"] is None
    exit_check = (f"{name}.exit0", ok, "" if ok else f"rc={result['rc']} {result['error'] or ''}".strip())
    if not ok:
        checks = [(n, False, "step failed") for n, _, _ in checks]
    return [exit_check] + checks


def failed_step(name):
    """Stand-in result for a step whose process died before reporting."""
    return {"name": name, "rc": None, "stdout": "", "error": "process did not report"}

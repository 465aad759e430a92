"""Write perfbench/reference.json from the library as it is now.

    python3 perfbench/make_reference.py

Runs each workload's steps once, untimed, and stores the parsed values the
checks in workloads.py compare against.  Regenerate only when the library's
outputs are meant to change; the reference records the code it came from.

Each reference c(X) also gets its honest truncation error
|c(X, 2 cut) - c(X, cut)|, computed here from a table of twice the
errorterm N that is deleted afterwards.  Only this one-off script passes
--n-cutoff; the benchmark runs never do.
"""

import json
import shutil
import sys

import run
import workloads


def cx_trunc_errors(reports, steps_of):
    """{str(X): |c(X, 2 cut) - c(X, cut)|} for every c(X) the errorterm
    reference holds: the cx rows and meansquare's c(X)."""
    N = int(float(workloads.ERRORTERM_N))
    cx = reports["cx"]
    ref_cx = {row[0]: (row[cx["columns"].index("n_cutoff")], row[cx["columns"].index("cX")]) for row in cx["rows"]}
    ms = reports["meansquare"]
    X = ms["rows"][0][ms["columns"].index("X")]
    ref_cx[X] = (max(1, min(N // X, 2 * 10**5)), ms["meta"]["cX"])  # the cutoff cli.py uses for meta cX
    big = str(run.WORK / "tables_2N.bin")
    job = [{"name": "sieve-2N", "argv": ["sieve", "--N", str(2 * N), "--output", big]}]
    job += [{"name": f"cx-{X}", "argv": ["experiment", "cx", "--X", str(X), "--n-cutoff", str(2 * cut),
                                         "--tables", big]} for X, (cut, _) in ref_cx.items()]
    got = steps_of(job, "cx-2N")
    out = {}
    for X, (_, value) in sorted(ref_cx.items()):
        rep = workloads.parse_report(got[f"cx-{X}"]["stdout"])
        out[str(X)] = abs(rep["rows"][0][rep["columns"].index("cX")] - value)
    return out


def main():
    run.WORK.mkdir(parents=True, exist_ok=True)
    table = str(run.WORK / "tables.bin")
    ref = {"provenance": run.provenance()}
    try:
        def steps_of(job_steps, tag):
            p = run.run_process({"steps": job_steps}, tag)
            if p.result is None:
                raise SystemExit(f"{tag} failed:\n{p.err}")
            out = {s["name"]: s for s in p.result["steps"]}
            for s in out.values():
                if s["rc"] != 0 or s["error"]:
                    raise SystemExit(f"{tag}/{s['name']} failed: rc={s['rc']} {s['error']}")
            return out

        got = steps_of(workloads.steps("sieve", 0, table), "sieve")
        sieve = workloads.parse_sieve(got["sieve"]["stdout"])
        sieve["table"] = run.table_digest(table)
        sieve["rho_report"] = workloads.parse_report(got["rho"]["stdout"])
        ref["sieve"] = sieve

        got = steps_of(workloads.steps("verify", 0, table), "verify")
        ref["verify"] = {"checks": sorted(workloads.parse_verify(got["verify"]["stdout"]))}

        steps_of(workloads.setup_steps("errorterm", table), "setup")
        got = steps_of(workloads.steps("errorterm", 0, table), "errorterm")
        ref["errorterm"] = {
            "table": run.table_digest(table),
            "reports": {n: workloads.parse_report(s["stdout"]) for n, s in got.items()
                        if n not in workloads.EXPONENT_STEPS},
            "exponents": {n: got[n]["stdout"] for n in workloads.EXPONENT_STEPS},
        }
        ref["errorterm"]["cx_trunc_err"] = cx_trunc_errors(ref["errorterm"]["reports"], steps_of)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    (run.HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

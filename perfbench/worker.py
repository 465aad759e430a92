"""One benchmark process: run CLI steps in-process and record what they printed.

    python3 perfbench/worker.py JOB.json

JOB.json holds {"result": path, "steps": [{"name", "argv"}], "trace": path
or null}, {"result": path, "digest": table path} or {"result": path,
"aggregate": spans path}.  Each step calls
`cubicsums.cli.main(argv)` with stdout captured; its exit code, output and
any exception go to the result file.  With "trace" set, every public
function is wrapped for the length of the process (see spans.py) and the
spans are written there as JSON lines.
"""

import contextlib
import hashlib
import io
import json
import sys
import traceback


def table_digest(path):
    """SHA-256 over a_K, mu_K, b for n = 1..N as little-endian int64, read
    back through the library's own reader."""
    from cubicsums import arith

    t = arith.read_tables(path)
    h = hashlib.sha256()
    for arr in (t.aK, t.muK, t.b):
        h.update(arr[1:].astype("<i8").tobytes())
    return {"N": t.N, "sha256": h.hexdigest()}


def summarize_spans(path):
    """Per-function aggregates of a span file, and the seconds covered by
    spans outside `cli`."""
    import spans

    recorded = spans.read_jsonl(path)
    return {
        "agg": spans.aggregate(recorded),
        "non_cli_s": spans.covered_seconds(recorded, lambda n: not n.startswith("cli.")),
    }


def run_steps(steps, tracer=None):
    from cubicsums import cli

    results = []
    for step in steps:
        buf = io.StringIO()
        rc, error = None, None
        if tracer is not None:
            tracer.run_id = step["name"]
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(step["argv"])
        except Exception:
            error = traceback.format_exc()
        results.append({"name": step["name"], "rc": rc, "stdout": buf.getvalue(), "error": error})
    return results


def main(job_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    if "digest" in job:
        out = table_digest(job["digest"])
    elif "aggregate" in job:
        out = summarize_spans(job["aggregate"])
    elif job.get("trace"):
        from spans import Tracer

        tracer = Tracer().install()
        try:
            out = {"steps": run_steps(job["steps"], tracer)}
        finally:
            tracer.restore()
        tracer.write_jsonl(job["trace"])
    else:
        out = {"steps": run_steps(job["steps"])}
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

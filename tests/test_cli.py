import json
import os
import re
import shlex
import struct
import subprocess
import sys
import types

import pytest

from cubicsums import arith as ar
from cubicsums import cli, fieldspec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _child_env():
    """os.environ with the package's source first on PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}


def run(argv, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestSieve:
    def test_writes_file_and_summary(self, tmp_path, capsys):
        out = tmp_path / "t.bin"
        rc, stdout, _ = run(
            ["sieve", "--field", "cubic-nonnormal-2", "--N", "5000", "--output", str(out)],
            capsys,
        )
        assert rc == 0
        assert out.exists()
        assert "aK(1..20):  1 1 1 1 1 1 0 1 1 1" in stdout
        assert "rho[series_b_over_m]" in stdout and "rho[regression_on_A]" in stdout

    def test_roundtrip_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        for path in (a, b):
            rc, _, _ = run(["sieve", "--N", "3000", "--output", str(path)], capsys)
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_closed_stdout_exits_141(self, tmp_path):
        # the reader takes one line and closes the pipe; the CSV preview is
        # larger than a pipe holds, so its writer is still writing then
        table = tmp_path / "t.bin"
        proc = subprocess.Popen(
            [sys.executable, "-m", "cubicsums.cli", "sieve", "--N", "20000", "--output", str(table),
             "--csv", "/dev/stdout"],
            env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"n,aK,muK,b,A,M\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 141
        assert "error:" not in err and "Traceback" not in err, err
        assert table.exists()

    def test_stdout_closed_before_the_summary_exits_141(self, tmp_path):
        # no reader at all, and the summary block-buffered: it meets the
        # closed pipe when main flushes it, not at interpreter exit
        table = tmp_path / "t.bin"
        env = _child_env()
        env.pop("PYTHONUNBUFFERED", None)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "cubicsums.cli", "sieve", "--N", "2000", "--output", str(table)],
                env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120,
            )
        finally:
            os.close(write_end)
        err = proc.stderr.decode()
        assert proc.returncode == 141
        assert "error:" not in err and "Traceback" not in err and "Exception" not in err, err
        assert table.exists()

    def test_huge_constant_term_exits_cleanly(self, tmp_path, capsys):
        # |c0| >= 2^63 goes through the int64 root scan at p <= 3
        rc, _, err = run(["sieve", "--N", "2000", "--output", str(tmp_path / "t.bin"),
                          "--field", "poly = 99999999999999999999, 0, 0"], capsys)
        assert rc in (0, 2) and "Traceback" not in err, err

    def test_unfactorable_disc_exits_2(self, tmp_path, capsys, monkeypatch):
        # the 61-digit poly disc leaves a 44-digit cofactor that rho cannot
        # split within its budget; a small budget keeps the test short
        monkeypatch.setattr(fieldspec, "_RHO_STEPS", 1000)
        rc, stdout, err = run(["sieve", "--N", "1000", "--output", str(tmp_path / "t.bin"),
                               "--field", "poly = 5, -100000000000000000000, 0"], capsys)
        assert (rc, stdout) == (2, "")
        assert err.startswith("error: cannot factor ") and "Traceback" not in err, err
        assert not (tmp_path / "t.bin").exists()

    def test_below_minimum_is_config_error(self, tmp_path, capsys):
        tau = ["experiment", "tau-growth", "--X", "1000"]
        for argv in (["sieve", "--N", "10", "--output", str(tmp_path / "x.bin")], ["verify", "--N", "500"],
                     ["experiment", "tau-growth", "--X", "1"], [*tau, "--l", "1"], [*tau, "--q", "0"],
                     ["experiment", "envelope", "--N", "1000", "--X", "0"]):
            rc, _, err = run(argv, capsys)
            assert rc == 2, argv
            assert "below the minimum" in err
        # x log(x)^(l^q - 1) overflows or underflows the float range, or tau_l overflows int64
        for args, message in ((["--X", "100", "--l", "30", "--q", "3"], "not a finite positive float"),
                              (["--X", "2,3", "--l", "30", "--q", "3"], "not a finite positive float"),
                              (["--l", "100"], "not a finite positive float"),
                              (["--X", "1e6", "--l", "60", "--q", "1"], "beyond int64")):
            rc, stdout, err = run(["experiment", "tau-growth", *args], capsys)
            assert rc == 2 and stdout == "", args
            assert message in err, args

    def test_B_outside_range_rejected_before_sieving(self, tmp_path, capsys):
        for B in ("5000", "500"):
            out = tmp_path / "t.bin"
            rc, stdout, err = run(["sieve", "--N", "2000", "--B", B, "--output", str(out)], capsys)
            assert rc == 2, B
            assert stdout == "" and not out.exists()
            assert f"--B {B} outside [1000, 2000]" in err

    def test_csv_preview(self, tmp_path, capsys):
        rc, _, _ = run(
            ["sieve", "--N", "2000", "--output", str(tmp_path / "t.bin"),
             "--csv", str(tmp_path / "t.csv")],
            capsys,
        )
        assert rc == 0
        assert (tmp_path / "t.csv").read_text().startswith("n,aK,muK,b,A,M")

    def test_csv_onto_the_table_file_rejected_before_sieving(self, tmp_path, capsys, monkeypatch):
        # the CSV overwrote the table file it had just mapped
        monkeypatch.chdir(tmp_path)
        for argv in (["--output", "t.bin", "--csv", "t.bin"], ["--csv", "tables_cubic-nonnormal-2_2000.bin"]):
            rc, stdout, err = run(["sieve", "--N", "2000", *argv], capsys)
            assert (rc, stdout) == (2, ""), argv
            assert f"error: --csv {argv[-1]} is the table file" in err
            assert list(tmp_path.iterdir()) == []


# A fresh interpreter forks the measured one and reads its ru_maxrss with
# os.wait4.  A child started straight from the test process would report at
# least the test process's own peak: execve keeps the old address space's
# high-water mark.
_MEASURE = (
    "import os, sys\n"
    "pid = os.fork()\n"
    "if pid == 0:\n"
    "    os.execv(sys.executable, [sys.executable, '-c', sys.argv[1]])\n"
    "_, status, ru = os.wait4(pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), ru.ru_maxrss)\n"
)


def _peak_bytes(code):
    out = subprocess.run([sys.executable, "-c", _MEASURE, code], env=_child_env(), capture_output=True, text=True,
                         check=True, timeout=300).stdout.split()
    assert out[0] == "0", out
    return int(out[1]) * 1024  # ru_maxrss is in KiB on Linux


class TestMemory:
    def test_sieve_and_rho_hold_no_value_table(self, tmp_path):
        # the value tables take 8 bytes per n; streamed to the file and mapped
        # back, `sieve` and then `experiment rho` on its file, in one process,
        # raise the peak RSS above that of the import by less than 4 bytes per n
        N = 8 * 10**6
        path = str(tmp_path / "t.bin")
        steps = [["sieve", "--N", str(N), "--output", path], ["experiment", "rho", "--tables", path]]
        code = ("import contextlib, io, sys\nfrom cubicsums import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    sys.exit(max(cli.main(argv) for argv in {steps!r}))\n")
        growth = _peak_bytes(code) - _peak_bytes("import cubicsums.cli")
        assert growth < 4 * N, f"{growth / N:.2f} bytes per n"

    def test_verify_builds_no_prefix_sum_table(self):
        # the value tables take 8 bytes per n and the restriction check sieves
        # N/10 more; every check reads A_K and M_K at points or block by
        # block, so no int64 prefix sum of 8 bytes per n adds to the peak
        N = 4 * 10**6
        code = ("import contextlib, io, sys\nfrom cubicsums import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    sys.exit(cli.main(['verify', '--field', 'cubic-nonnormal-2', '--N', '{N}']))\n")
        growth = _peak_bytes(code) - _peak_bytes("import cubicsums.cli")
        assert growth < 16 * N, f"{growth / N:.2f} bytes per n"


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh(code, **env):
    """The stdout of code run in a fresh interpreter whose environment sets
    none of the thread-count variables except those given."""
    base = {k: v for k, v in _child_env().items() if k not in _THREAD_VARS}
    return subprocess.run([sys.executable, "-c", code], env={**base, **env}, capture_output=True, text=True,
                          check=True, timeout=300).stdout


def _cli_steps(steps):
    """Code that runs each command line through cli.main, its stdout
    discarded, and fails unless every one exits 0."""
    return ("import contextlib, io, sys\nfrom cubicsums import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert max(cli.main(argv) for argv in {steps!r}) == 0\n")


def _loaded(code, names):
    """Those of the module names that are loaded once code has run."""
    return _fresh(code + f"\nimport sys\nprint(*[m for m in {list(names)!r} if m in sys.modules])").split()


class TestStartUp:
    def test_cli_caps_openblas_at_one_thread(self):
        # OpenBLAS starts a worker thread per core when numpy loads, and this
        # program uses none: importing the CLI first leaves the process one thread
        out = _fresh("import os, cubicsums.cli, numpy\n"
                     "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
                     "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else '-')")
        value, threads = out.split()
        assert value == "1"
        if threads != "-":  # the thread count is read where /proc shows it
            assert threads == "1"

    def test_thread_count_defaults_only_where_unset(self):
        # a caller's own count stays as set; numpy loaded first has started its
        # threads already; and the library modules leave the environment alone
        show = f"\nimport os\nprint(*[os.environ.get(v) for v in {_THREAD_VARS!r}])"
        library = "import " + ", ".join(f"cubicsums.{m}" for m in ("arith", "checks", "exponents", "fieldspec",
                                                                    "ideals", "sums"))
        cases = [("import cubicsums.cli", {}, "1 None None"),
                 ("import cubicsums.cli", {"OPENBLAS_NUM_THREADS": "2"}, "2 None None"),
                 ("import cubicsums.cli", {"GOTO_NUM_THREADS": "2"}, "None 2 None"),
                 ("import cubicsums.cli", {"OMP_NUM_THREADS": "2"}, "None None 2"),
                 ("import numpy, cubicsums.cli", {}, "None None None"),
                 (library, {}, "None None None")]
        assert [_fresh(code + show, **env).strip() for code, env, _ in cases] == [want for *_, want in cases]

    def test_sieve_and_rho_load_only_what_they_run(self, tmp_path):
        # sieve and rho run arith and fieldspec; the other modules, and the
        # fractions and decimal that exponents imports, cost start-up time
        path = str(tmp_path / "t.bin")
        steps = [["sieve", "--N", "2000", "--output", path], ["experiment", "rho", "--tables", path]]
        unused = ("cubicsums.checks", "cubicsums.ideals", "cubicsums.sums", "cubicsums.exponents", "fractions",
                  "decimal")
        assert _loaded(_cli_steps(steps), unused) == []

    def test_verify_never_loads_exponents(self):
        steps = [["verify", "--field", "cubic-nonnormal-2", "--N", "1e4"]]
        assert _loaded(_cli_steps(steps), ("cubicsums.checks", "cubicsums.exponents")) == ["cubicsums.checks"]

    def test_sieve_and_rho_never_import_numpy_ma(self, tmp_path):
        # a plain np.unique(x) calls np.ma.is_masked in numpy 2.4, and the first
        # call imports numpy.ma for about 10 ms; sieve and rho need none of it
        if _loaded("import numpy", ("numpy.ma",)):
            pytest.skip("import numpy alone loads numpy.ma")
        path = str(tmp_path / "t.bin")
        steps = [["sieve", "--N", "2000", "--output", path], ["experiment", "rho", "--tables", path]]
        assert _loaded(_cli_steps(steps), ("numpy.ma",)) == []


class TestVerify:
    def test_quick_pass(self, tmp_path, capsys):
        rc, stdout, _ = run(
            ["verify", "--field", "cubic-nonnormal-2", "--N", "5000",
             "--X", "15", "--Y", "10,100", "--output", str(tmp_path / "checks.csv")],
            capsys,
        )
        assert rc == 0
        assert "[pass]" in stdout and "FAIL" not in stdout
        assert (tmp_path / "checks.csv").read_text().startswith("field,check,status,detail")

    def test_corrupted_tables_fail_with_counterexample(self, tmp_path, capsys):
        table_path = tmp_path / "t.bin"
        rc, _, _ = run(["sieve", "--N", "5000", "--output", str(table_path)], capsys)
        assert rc == 0
        data = bytearray(table_path.read_bytes())
        # flip one a_K value inside the payload (header is 4+8+len(field
        # document)+8 bytes, padded to a multiple of 8; the payload starts
        # with a_K(0..N) as int32)
        (doclen,) = struct.unpack("<I", data[8:12])
        header = 4 + 8 + doclen + 8
        header += -header % 8
        data[header + 4 * 500] ^= 0x01  # a_K(500)
        table_path.write_bytes(bytes(data))
        rc, stdout, _ = run(
            ["verify", "--field", "cubic-nonnormal-2", "--tables", str(table_path),
             "--X", "5", "--Y", "10"],
            capsys,
        )
        assert rc == 1
        assert "first counterexample: convolution identity failed at n=500\n" in stdout

    def test_more_than_one_X_rejected(self, capsys):
        rc, stdout, err = run(["verify", "--N", "2000", "--X", "5,40"], capsys)
        assert rc == 2 and stdout == ""
        assert "verify takes one --X, got 2: 5,40" in err

    def test_seed_changes_samples_not_verdict(self, capsys):
        outs = []
        for seed in ("1", "2"):
            rc, stdout, _ = run(
                ["verify", "--field", "cubic-cyclic-7", "--N", "3000",
                 "--X", "8", "--Y", "10", "--seed", seed],
                capsys,
            )
            assert rc == 0
            line = next(l for l in stdout.splitlines() if "gcd dependence" in l)
            outs.append(line)
        assert outs[0] != outs[1]  # different sampled ideals reported

    def test_wrong_field_for_tables(self, tmp_path, capsys):
        table_path = tmp_path / "t.bin"
        run(["sieve", "--field", "cubic-cyclic-7", "--N", "2000", "--output", str(table_path)], capsys)
        rc, _, err = run(
            ["verify", "--field", "cubic-nonnormal-2", "--tables", str(table_path)], capsys
        )
        assert rc == 2
        assert "table file is for field" in err

    def test_cyclic_field_of_composite_conductor(self, capsys):
        # x^3 - 3x + 1 is cyclic of conductor 9; the character row needs a
        # prime conductor, so it is left out and every other row runs
        rc, stdout, err = run(["verify", "--field", "poly = 1, -3, 0", "--N", "1e4"], capsys)
        assert rc == 0 and err == ""
        assert "chi * conj(chi)" not in stdout and "FAIL" not in stdout
        assert "cross-path S_K direct=reduced" in stdout

    @pytest.mark.parametrize("N", [0, 500])
    def test_tables_below_minimum_rejected(self, N, tmp_path, capsys):
        # the floor --N has: at N = 0 verify died with an IndexError, and at
        # N = 500 it failed its restriction row and exited 1.  No sieve
        # writes N = 0, so that file is written byte by byte
        field = fieldspec.get_preset("cubic-nonnormal-2")
        path = tmp_path / "t.bin"
        if N:
            ar.sieve_to_file(field, N, path)
        else:
            doc = fieldspec.format_field_spec(field).encode()
            head = b"CBSM" + struct.pack("<II", 5, len(doc)) + doc + struct.pack("<Q", 0)
            path.write_bytes(head + bytes(-len(head) % 8) + bytes(8))
        rc, stdout, err = run(["verify", "--field", "cubic-nonnormal-2", "--tables", str(path)], capsys)
        assert (rc, stdout, err) == (2, "", f"error: --tables file has N={N}, below the minimum 1000\n")

    def test_output_onto_the_tables_rejected(self, tmp_path, capsys):
        # the report replaced the table file it had read
        table_path = tmp_path / "t.bin"
        run(["sieve", "--N", "2000", "--output", str(table_path)], capsys)
        data = table_path.read_bytes()
        rc, stdout, err = run(["verify", "--tables", str(table_path), "--output", str(table_path)], capsys)
        assert (rc, stdout) == (2, "")
        assert f"error: --output {table_path} is the table file" in err
        assert table_path.read_bytes() == data

    def test_tables_with_field_all_rejected_up_front(self, tmp_path, capsys):
        table_path = tmp_path / "t.bin"
        run(["sieve", "--N", "2000", "--output", str(table_path)], capsys)
        rc, stdout, err = run(["verify", "--field", "all", "--tables", str(table_path)], capsys)
        assert rc == 2
        assert stdout == ""
        assert "--field all" in err


class TestExperiments:
    def test_exponents_xt_output(self, capsys):
        rc, stdout, _ = run(["experiment", "exponents-xt"], capsys)
        assert rc == 0
        assert "X^{31/9} T^{14/9}" in stdout and "X^{26/9} T^{29/18}" in stdout
        assert "+eps" in stdout
        # on stdout as CSV the printed result stands for the report: no table
        assert "config_hash" not in stdout and stdout.splitlines()[1].startswith("absorbed: ")

    def test_exponents_report_independent_of_hash_seed(self):
        # frozenset order follows string hashing; summed in that order with plain
        # float addition, envelope_ratio differs in its last digit between seeds 0 and 8
        outs = []
        for seed in ("0", "8"):
            env = {**_child_env(), "PYTHONHASHSEED": seed}
            proc = subprocess.run(
                [sys.executable, "-m", "cubicsums.cli", "experiment", "exponents-xt", "--format", "json"],
                env=env, capture_output=True, check=True, timeout=120,
            )
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_exponents_block_csv(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc, stdout, _ = run(["experiment", "exponents-block", "--output", str(out)], capsys)
        assert rc == 0
        assert "term" in out.read_text()
        # the result, then the report's path, then the absorptions
        lines = stdout.splitlines()
        assert lines[1] == f"wrote {out}" and lines[2].startswith("absorbed: ")

    def test_meansquare_small(self, capsys):
        rc, stdout, _ = run(
            ["experiment", "meansquare", "--X", "1", "--T", "1000", "--N", "10000",
             "--samples", "512", "--format", "json"],
            capsys,
        )
        assert rc == 0
        payload = json.loads(stdout)
        assert payload["config_hash"]
        assert payload["rho"] > 0
        row = payload["rows"][0]
        integral = row[payload["columns"].index("integral_R2")]
        assert integral > 0
        assert payload["ratio_trend"] in ("increasing", "decreasing", "mixed")

    def test_voronoi_report(self, capsys):
        rc, stdout, _ = run(
            ["experiment", "voronoi", "--N", "50000", "--T", "20000", "--y", "4,16",
             "--format", "json"],
            capsys,
        )
        assert rc == 0
        payload = json.loads(stdout)
        assert "fitted_decay_exponent" in payload

    def test_field_free_experiments(self, capsys):
        rc, stdout, _ = run(["experiment", "s1"], capsys)
        assert rc == 0
        assert "Y-dominant" in stdout
        rc, stdout, _ = run(
            ["experiment", "tau-growth", "--X", "1000,10000", "--l", "2", "--q", "1"], capsys
        )
        assert rc == 0
        rc, stdout, _ = run(["experiment", "pair-sum", "--T", "100,400"], capsys)
        assert rc == 0

    def test_pair_sum_default_T_list(self, capsys):
        # T = 10^3, 10^4, 10^5: the top of the pair sum's range
        rc, stdout, _ = run(["experiment", "pair-sum", "--format", "json"], capsys)
        assert rc == 0
        payload = json.loads(stdout)
        assert [row[0] for row in payload["rows"]] == [10**3, 10**4, 10**5] and payload["columns"][0] == "T"

    def test_field_free_experiments_read_no_field(self, capsys):
        # like exponents-*, they take no --field and no --N
        tau = ["tau-growth", "--X", "1000,10000", "--l", "2", "--q", "1"]
        for argv in (["s1"], ["pair-sum", "--T", "100,400"], tau):
            rc, stdout, err = run(["experiment", *argv, "--field", "florp"], capsys)
            assert rc == 2 and stdout == "", argv
            assert "unrecognized arguments: --field florp" in err, argv

    def test_rho_experiment(self, capsys):
        rc, stdout, _ = run(["experiment", "rho", "--N", "5000", "--B", "5000"], capsys)
        assert rc == 0
        assert "series_b_over_m" in stdout and "regression_on_A" in stdout

    def test_B_outside_range_rejected_before_sieving(self, capsys, monkeypatch):
        # --B 0 is a value, not "use the default", and a bad --B is refused before any sieving
        def no_sieve(*args):
            raise AssertionError("sieved before checking --B")

        monkeypatch.setattr(ar, "build_tables", no_sieve)
        for B in ("0", "3e6"):
            rc, stdout, err = run(["experiment", "rho", "--N", "2e6", "--B", B], capsys)
            assert rc == 2, B
            assert stdout == ""
            assert f"--B {int(float(B))} outside [1000, 2000000]" in err

    def test_p2_window_outside_table_rejected(self, capsys):
        window = "need 1 <= Y_lo < Y_hi <= N"
        for argv, message in ((["voronoi", "--T", "0"], window), (["voronoi", "--T", "-100"], window),
                              (["voronoi", "--T", "2000", "--y", "0"], "truncations y must be >= 1"),
                              (["meansquare-p2", "--T", "-100"], "need T >= 1")):
            rc, stdout, err = run(["experiment", *argv, "--N", "5000"], capsys)
            assert rc == 2 and stdout == "", argv
            assert message in err, argv

    def test_p2_experiments_refuse_the_degree_one_hook(self, capsys):
        # P1 is the Voronoi series of a cubic zeta_K: on the rationals hook its
        # decay exponent and mean square measure nothing
        for argv in (["voronoi", "--T", "1000"], ["meansquare-p2", "--T", "1000", "--y", "4,8"]):
            rc, stdout, err = run(["experiment", *argv, "--field", "rationals", "--N", "4000"], capsys)
            assert (rc, stdout) == (2, ""), argv
            assert err == "error: the Voronoi series P1 needs a cubic field; rationals has degree 1\n", argv

    def test_more_than_one_value_rejected_before_sieving(self, capsys, monkeypatch):
        def no_sieve(*args):
            raise AssertionError("sieved before checking the option")

        monkeypatch.setattr(ar, "build_tables", no_sieve)
        for argv, message in ((["meansquare", "--X", "1,2"], "experiment meansquare takes one --X, got 2: 1,2"),
                              (["voronoi", "--T", "10000,20000"],
                               "experiment voronoi takes one --T, got 2: 10000,20000")):
            rc, stdout, err = run(["experiment", *argv, "--N", "50000"], capsys)
            assert rc == 2 and stdout == "", argv
            assert message in err

    def test_B_checked_against_table_file(self, tmp_path, capsys):
        table_path = tmp_path / "t.bin"
        run(["sieve", "--N", "2000", "--output", str(table_path)], capsys)
        for B in ("0", "3000"):
            rc, stdout, err = run(["experiment", "rho", "--tables", str(table_path), "--B", B], capsys)
            assert rc == 2, B
            assert stdout == ""
            assert f"--B {B} outside [1000, 2000]" in err
        rc, stdout, _ = run(["experiment", "rho", "--tables", str(table_path), "--B", "1500"], capsys)
        assert rc == 0
        assert ",1500\n" in stdout

    def test_table_file_for_another_field_rejected(self, tmp_path, capsys):
        # the same name on another field: the file's field is compared, not its name
        table_path = tmp_path / "t.bin"
        sieved = "name = w\npoly = -10, 0, 0\ndisc = -300\noverride.3 = 1:1+1:2\n"
        other = "name = w\npoly = -50, 0, 0\ndisc = -2700\noverride.5 = 1:3\n"
        rc, _, _ = run(["sieve", "--field", sieved, "--N", "2000", "--output", str(table_path)], capsys)
        assert rc == 0
        rc, stdout, err = run(["experiment", "rho", "--field", other, "--N", "2000", "--tables", str(table_path)],
                              capsys)
        assert rc == 2 and stdout == ""
        assert "override.3 = 1:1+1:2" in err and "override.5 = 1:3" in err

    def test_override_without_its_disc_rejected(self, tmp_path, capsys):
        # 3 divides the index of Z[10^(1/3)], so the field disc is -2700 / 3^2
        doc = "name = w\npoly = -10, 0, 0\n{}override.3 = 1:1+1:2\n"
        argv = ["sieve", "--N", "2000", "--output", str(tmp_path / "t.bin"), "--field"]
        rc, stdout, err = run([*argv, doc.format("")], capsys)
        assert rc == 2 and stdout == "" and "Traceback" not in err
        assert err.startswith("error: override at p=3: disc -2700 leaves 3 out of the index")
        rc, stdout, _ = run([*argv, doc.format("disc = -300\n")], capsys)
        assert rc == 0 and "disc=-300 (d=-3, f=10, normal=False)" in stdout

    def test_override_contradicting_disc_rejected(self, tmp_path, capsys):
        # 3 | disc -300, so 3 ramifies: an unramified shape at 3 gave a_K(3) = 0 or 3
        argv = ["sieve", "--N", "2000", "--output", str(tmp_path / "t.bin"), "--field"]
        for shape in ("3:1", "1:1+1:1+1:1"):
            rc, stdout, err = run([*argv, f"poly = -10, 0, 0\ndisc = -300\noverride.3 = {shape}"], capsys)
            assert (rc, stdout) == (2, "") and "Traceback" not in err, shape
            assert err == f"error: override at p=3: 3 divides disc -300, so {shape} cannot be its shape\n"

    def test_malformed_override_rejected(self, tmp_path, capsys):
        argv = ["sieve", "--N", "2000", "--output", str(tmp_path / "t.bin"), "--field"]
        for shape in ("", "1:1", "1:1+1:1", "0:1+1:1", "1:1+1:1+1:1+1:1", "2:1+1:1+1:1", "x:1", "1:1:1"):
            rc, stdout, err = run([*argv, f"poly = 8, -2, 1\ndisc = -503\noverride.2 = {shape}"], capsys)
            assert (rc, stdout) == (2, "") and err.startswith("error: override") and "Traceback" not in err, shape

    def test_repeated_key_rejected(self, tmp_path, capsys):
        # with the last value winning, each document gave a wrong field
        argv = ["sieve", "--N", "2000", "--output", str(tmp_path / "t.bin"), "--field"]
        for doc, want in (("poly = -2, 0, 0\npoly = -1, -2, 1", "line 2: poly"),
                          ("poly = -10, 0, 0\ndisc = -300\noverride.3 = 1:1+1:2\noverride.03 = 1:3",
                           "line 4: override.3")):
            rc, stdout, err = run([*argv, doc], capsys)
            assert (rc, stdout, err) == (2, "", f"error: {want} is stated twice\n")

    def test_v1_table_file_rejected(self, tmp_path, capsys):
        table_path = tmp_path / "t.bin"
        run(["sieve", "--N", "2000", "--output", str(table_path)], capsys)
        data = table_path.read_bytes()
        name = b"cubic-nonnormal-2"
        (doclen,) = struct.unpack("<I", data[8:12])
        table_path.write_bytes(b"CBSM" + struct.pack("<II", 1, len(name)) + name + data[12 + doclen :])
        rc, stdout, err = run(["experiment", "rho", "--tables", str(table_path)], capsys)
        assert rc == 2 and stdout == ""
        assert "unsupported table version 1" in err
        # a v2 file (int64 values) is refused the same way
        table_path.write_bytes(data[:4] + struct.pack("<I", 2) + data[8:])
        rc, stdout, err = run(["experiment", "rho", "--tables", str(table_path)], capsys)
        assert rc == 2 and stdout == ""
        assert "unsupported table version 2" in err

    def test_v4_table_file_rejected(self, tmp_path, capsys):
        # a v4 file held n = 1..N after an unpadded header
        table_path = tmp_path / "t.bin"
        run(["sieve", "--N", "2000", "--output", str(table_path)], capsys)
        t = ar.read_tables(table_path)
        data = table_path.read_bytes()
        (doclen,) = struct.unpack("<I", data[8:12])
        table_path.write_bytes(data[:4] + struct.pack("<I", 4) + data[8 : 20 + doclen]
                               + b"".join(arr[1:].tobytes() for arr in (t.aK, t.muK, t.b)))
        rc, stdout, err = run(["experiment", "rho", "--tables", str(table_path)], capsys)
        assert rc == 2 and stdout == ""
        assert "unsupported table version 4" in err

    def test_output_onto_the_tables_rejected(self, tmp_path, capsys):
        # the report replaced the table file it had read, also when named
        # through a symbolic link or another spelling of the path
        table_path = tmp_path / "t.bin"
        run(["sieve", "--N", "2000", "--output", str(table_path)], capsys)
        data = table_path.read_bytes()
        (tmp_path / "link.bin").symlink_to(table_path)
        for output in (table_path, tmp_path / "." / "t.bin", tmp_path / "link.bin"):
            rc, stdout, err = run(["experiment", "rho", "--tables", str(table_path), "--output", str(output)],
                                  capsys)
            assert (rc, stdout) == (2, ""), output
            assert f"error: --output {output} is the table file" in err
        assert table_path.read_bytes() == data

    def test_table_file_cut_inside_header(self, tmp_path, capsys):
        table_path = tmp_path / "t.bin"
        table_path.write_bytes(b"CBSM\x02\x00")
        rc, stdout, err = run(["experiment", "rho", "--tables", str(table_path)], capsys)
        assert rc == 2 and stdout == ""
        assert "ends inside its header" in err and "Traceback" not in err

    def test_unknown_experiment(self, capsys):
        rc, stdout, err = run(["experiment", "florp", "--N", "1000"], capsys)
        assert rc == 2 and stdout == ""
        assert "invalid choice: 'florp'" in err

    def test_unknown_field(self, capsys):
        rc, _, err = run(["experiment", "rho", "--field", "florp", "--N", "1000"], capsys)
        assert rc == 2

    def test_bad_subcommand(self, capsys):
        rc, _, _ = run(["bogus"], capsys)
        assert rc == 2


REPORT = {"--output", "--format"}
TABLES = {"--field", "--N", "--rho-method", "--tables", "--B"} | REPORT
OPTIONS = {
    "sieve": {"--field", "--N", "--B", "--output", "--csv"},
    "verify": {"--field", "--N", "--seed", "--tables", "--output", "--X", "--Y"},
    "experiment meansquare": TABLES | {"--X", "--T", "--samples"},
    "experiment meansquare-p2": TABLES | {"--T", "--y", "--samples"},
    "experiment voronoi": TABLES | {"--T", "--y"},
    "experiment envelope": TABLES | {"--X"},
    "experiment rho": TABLES,
    "experiment cx": TABLES | {"--X"},
    "experiment tau-growth": REPORT | {"--X", "--l", "--q"},
    "experiment pair-sum": REPORT | {"--T"},
    "experiment s1": REPORT,
    "experiment exponents-block": REPORT,
    "experiment exponents-xy": REPORT,
    "experiment exponents-xt": REPORT,
    "experiment exponents-balance": {"--expr", "--var", "--h1", "--h2", "--cone"},
}


# numeric options whose value 0 or -1 is out of every command's domain
# (any seed is a seed)
NUMERIC = sorted(o for o, spec in cli._OPTIONS.items()
                 if spec.get("type") in (cli._int, cli._parse_int_list) and o != "--seed")

# one valid small command line for each command that takes a numeric option;
# {t} is a table file of 4000 entries and {d} a scratch directory
SWEEP_BASE = {
    "sieve": ["--N", "4000", "--output", "{d}/s.bin"],
    "verify": ["--tables", "{t}", "--N", "4000", "--X", "5", "--Y", "10"],
    "experiment meansquare": ["--tables", "{t}", "--N", "4000", "--B", "2000", "--X", "1", "--T", "100",
                              "--samples", "64"],
    "experiment meansquare-p2": ["--tables", "{t}", "--N", "4000", "--B", "2000", "--T", "500,1000", "--y", "2,4",
                                 "--samples", "64"],
    "experiment voronoi": ["--tables", "{t}", "--N", "4000", "--B", "2000", "--T", "1000", "--y", "2,4"],
    "experiment envelope": ["--tables", "{t}", "--N", "4000", "--B", "2000", "--X", "5"],
    "experiment rho": ["--tables", "{t}", "--N", "4000", "--B", "2000"],
    "experiment cx": ["--tables", "{t}", "--N", "4000", "--B", "2000", "--X", "10"],
    "experiment tau-growth": ["--X", "100,1000", "--l", "2", "--q", "1"],
    "experiment pair-sum": ["--T", "100,400"],
}
SWEEP = [(command, option, value) for command in SWEEP_BASE
         for option in NUMERIC if option in OPTIONS[command] for value in ("0", "-1", "-2")]
EMPTY_LISTS = [(command, option, value) for command in SWEEP_BASE
               for option in ("--X", "--Y", "--T", "--y") if option in OPTIONS[command] for value in ("", ",")]


@pytest.fixture(scope="module")
def sweep_paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("sweep")
    t = d / "t.bin"
    assert cli.main(["sieve", "--N", "4000", "--output", str(t)]) == 0
    return {"d": str(d), "t": str(t)}


def _sweep_argv(command, paths, option=None, value=None):
    base = [arg.format(**paths) for arg in SWEEP_BASE[command]]
    pairs = dict(zip(base[::2], base[1::2]))
    if option:
        pairs[option] = value
    return [*command.split(), *(f"{o}={v}" for o, v in pairs.items())]


class TestDomainSweep:
    def test_every_numeric_option_is_swept(self):
        assert {c for c in OPTIONS if OPTIONS[c] & set(NUMERIC)} == set(SWEEP_BASE)
        assert set(NUMERIC) == {"--N", "--B", "--X", "--Y", "--T", "--y", "--samples", "--l", "--q"}

    @pytest.mark.parametrize("command", SWEEP_BASE, ids=lambda command: command.replace(" ", "-"))
    def test_base_line_is_valid(self, command, sweep_paths, capsys):
        rc, _, err = run(_sweep_argv(command, sweep_paths), capsys)
        assert rc == 0, err

    @pytest.mark.parametrize("command,option,value", SWEEP,
                             ids=lambda x: x.replace(" ", "-") if isinstance(x, str) else x)
    def test_zero_and_negative_values_exit_2(self, command, option, value, sweep_paths, capsys):
        rc, _, err = run(_sweep_argv(command, sweep_paths, option, value), capsys)
        assert rc == 2 and "error:" in err, err

    @pytest.mark.parametrize("option", [o for o in cli._OPTIONS if cli._OPTIONS[o].get("type")])
    def test_fractional_value_exits_2(self, option, sweep_paths, capsys):
        # a whole-number option refuses 5.5 instead of running 5
        command = next(c for c in SWEEP_BASE if option in OPTIONS[c])
        rc, stdout, err = run(_sweep_argv(command, sweep_paths, option, "5.5"), capsys)
        assert rc == 2 and stdout == "" and "error:" in err and "Traceback" not in err, err

    @pytest.mark.parametrize("command,option,value", [
        ("sieve", "--N", "1e400"),
        ("experiment voronoi", "--y", "5000"),
        ("verify", "--X", "1001"),
        ("verify", "--Y", "5000"),
        ("experiment rho", "--field", "{t}"),
    ], ids=["sieve-N-1e400", "voronoi-y-beyond-table", "verify-X-beyond-direct-path", "verify-Y-beyond-table",
            "rho-field-file-not-utf8"])
    def test_out_of_range_value_exits_2(self, command, option, value, sweep_paths, capsys):
        rc, stdout, err = run(_sweep_argv(command, sweep_paths, option, value.format(**sweep_paths)), capsys)
        assert rc == 2 and stdout == "" and "error:" in err and "Traceback" not in err, err

    def test_exponents_balance_prints_its_bound(self, capsys):
        # the README's example
        rc, stdout, err = run(["experiment", "exponents-balance", "--expr", "X y + X^3 y^{-1}", "--var", "y",
                               "--h2", "X", "--cone", "X >= 1"], capsys)
        assert (rc, stdout) == (0, "X^2  (+eps exponents)\n"), err

    def test_exponents_balance_needs_its_options(self, capsys):
        rc, stdout, err = run(["experiment", "exponents-balance", "--expr", "X y + X^3 y^{-1}", "--var", "y"], capsys)
        assert rc == 2 and stdout == "" and "needs --expr, --var and --cone" in err, err

    def test_zero_denominator_in_an_exponent_exits_2(self, capsys):
        rc, stdout, err = run(["experiment", "exponents-balance", "--expr", "X^{1/0} y", "--var", "y",
                               "--h2", "X", "--cone", "X >= 1"], capsys)
        assert rc == 2 and stdout == "" and "error:" in err and "Traceback" not in err, err

    @pytest.mark.parametrize("command,option,value", EMPTY_LISTS,
                             ids=lambda x: x.replace(" ", "-") if isinstance(x, str) else x)
    def test_empty_list_exits_2(self, command, option, value, sweep_paths, capsys):
        # a list with no value ran the defaults and recorded an empty list
        rc, stdout, err = run(_sweep_argv(command, sweep_paths, option, value), capsys)
        assert rc == 2 and stdout == "" and f"argument {option}: {value!r} lists no value" in err, err

    def test_verify_runs_the_X_it_is_given(self, sweep_paths, capsys):
        rc, stdout, err = run(_sweep_argv("verify", sweep_paths, "--X", "60"), capsys)
        assert rc == 0 and "X<=60, Y in [10]" in stdout, err

    def test_whole_number_spellings(self):
        assert [cli._int(t) for t in ("12", "1e6", "2.0e3", str(2**70 + 1))] == [12, 10**6, 2000, 2**70 + 1]
        assert cli._parse_int_list("1e3,1e4,2e4") == (1000, 10**4, 2 * 10**4)

    @pytest.mark.parametrize("command,options", [
        ("experiment pair-sum", ["--T", "100"]),
        ("experiment tau-growth", ["--X", "1e4"]),
        ("experiment meansquare-p2", ["--T", "1000", "--y", "4"]),
    ], ids=["pair-sum", "tau-growth", "meansquare-p2"])
    def test_one_value_fit_exits_2(self, command, options, sweep_paths, capsys):
        # a log-log slope through one distinct x is undefined: refused, not
        # printed as nan (an option given again overrides the base line's)
        rc, stdout, err = run(_sweep_argv(command, sweep_paths) + options, capsys)
        assert rc == 2 and stdout == "" and "two distinct x values" in err, err


# the "# key=value" lines of each experiment's CSV report, in order, then its column line
TABLE_HEADER = ("config_hash", "field", "N", "rho", "rho_stderr", "rho_method", "experiment")
SCENARIO_HEADER = (("config_hash", "experiment", "cone", "envelope_ratio"), "term")
REPORT_HEADERS = {
    "meansquare": ((*TABLE_HEADER, "cX", "ratio_trend", "disc_cbrt"), "X,T,integral_R2,main_term,ratio,error_est"),
    "meansquare-p2": ((*TABLE_HEADER, "fitted_T_exponent", "fitted_y_exponent"), "T,y,integral_P2sq"),
    "voronoi": ((*TABLE_HEADER, "fitted_decay_exponent", "predicted_exponent"), "y,median_abs_P2"),
    "envelope": ((*TABLE_HEADER, "fitted_constant"), "X,Y,R,envelope,ratio"),
    "rho": (TABLE_HEADER, "method,rho,stderr,B"),
    "cx": (TABLE_HEADER, "X,cX,tail_bound,abs_cX_over_X73"),
    "tau-growth": (("config_hash", "experiment", "l", "q", "loglog_slope", "reference_exponent"),
                   "x,sum,ratio_to_x_log_power"),
    "pair-sum": (("config_hash", "experiment", "fitted_slope", "reference_exponent"), "T,pair_sum"),
    "s1": (("config_hash", "experiment"), "regime,X,Y,S1,reference,relative_gap"),
    "exponents-block": SCENARIO_HEADER,
    "exponents-xy": SCENARIO_HEADER,
    "exponents-xt": SCENARIO_HEADER,
}


def _report_header(path):
    """(the keys of the "# key=value" lines, the column line) of a CSV report."""
    lines = path.read_text(encoding="utf-8").splitlines()
    meta = [line[2:].split("=", 1)[0] for line in lines if line.startswith("# ")]
    return tuple(meta), lines[len(meta)]


class TestReportHeader:
    def test_every_report_is_pinned(self):
        assert set(REPORT_HEADERS) == set(cli._EXPERIMENTS) - {"exponents-balance"}

    @pytest.mark.parametrize("name", REPORT_HEADERS)
    def test_header_keys_and_columns(self, name, sweep_paths, tmp_path, capsys):
        command = f"experiment {name}"
        argv = _sweep_argv(command, sweep_paths) if command in SWEEP_BASE else command.split()
        rc, _, err = run([*argv, "--output", str(tmp_path / "r.csv")], capsys)
        assert rc == 0, err
        assert _report_header(tmp_path / "r.csv") == REPORT_HEADERS[name]

    def test_field_names_the_table_file(self, tmp_path, capsys):
        # the header's field is the name stored in the table file, not the
        # name --field gives the same field
        table_path = tmp_path / "t.bin"
        doc = "name = {}\npoly = -2, 0, 0\n"
        assert run(["sieve", "--field", doc.format("a"), "--N", "2000", "--output", str(table_path)], capsys)[0] == 0
        rc, stdout, err = run(["experiment", "rho", "--field", doc.format("b"), "--tables", str(table_path)], capsys)
        assert rc == 0, err
        assert stdout.splitlines()[1:3] == ["# field=a", "# N=2000"]


def _readme_command_lines():
    """The `cubicsums ...` lines of README's CLI block, continuations joined."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("## CLI\n", 1)[1].split("\n##", 1)[0]
    text = block.replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:] for line in text.splitlines()
            if line.strip().startswith("cubicsums ")]


class TestOptions:
    @pytest.mark.parametrize("command", OPTIONS, ids=lambda command: command.replace(" ", "-"))
    def test_help_lists_the_options_read(self, command, capsys):
        rc, stdout, _ = run([*command.split(), "--help"], capsys)
        assert rc == 0
        assert set(re.findall(r"--[\w-]+", stdout)) - {"--help"} == OPTIONS[command]

    @pytest.mark.parametrize("command", [c for c in OPTIONS if OPTIONS[c] & {"--X", "--T"}],
                             ids=lambda command: command.replace(" ", "-"))
    def test_help_names_the_commands_that_read_one_value(self, command, capsys):
        # the note after ";" in the help of --X and --T names exactly the
        # commands that refuse a list for that option
        one_value = {("verify", "--X"), ("experiment meansquare", "--X"), ("experiment voronoi", "--T")}
        rc, stdout, _ = run([*command.split(), "--help"], capsys)
        assert rc == 0
        text = " ".join(stdout.split())
        for option in sorted(OPTIONS[command] & {"--X", "--T"}):
            note = text.split(f"{option} {option[2:]} ")[-1].split(" --", 1)[0].split(";")[1]
            assert re.fullmatch(r" .* reads? one", note), note
            assert (command in note) == ((command, option) in one_value), (command, option, note)

    def test_every_experiment_is_listed(self, capsys):
        rc, stdout, _ = run(["experiment", "--help"], capsys)
        assert rc == 0
        names = {command.split()[1] for command in OPTIONS if command.startswith("experiment ")}
        assert set(cli._EXPERIMENTS) == names and all(name in stdout for name in names)
        assert sum(len(options) for _, options, _ in cli._EXPERIMENTS.values()) == 73

    @pytest.mark.parametrize("command,option,value", [
        ("sieve", "--rho-method", "regression_on_A"), ("sieve", "--format", "json"), ("sieve", "--seed", "5"),
        ("sieve", "--tables", "t.bin"), ("verify", "--rho-method", "regression_on_A"),
        ("verify", "--format", "json"), ("verify", "--B", "2000"), ("experiment", "--Y", "10"),
        ("experiment", "--seed", "5"), ("experiment rho", "--samples", "99"), ("experiment s1", "--field", "florp"),
        ("experiment voronoi", "--X", "5"), ("experiment exponents-balance", "--output", "b.txt"),
        ("experiment pair-sum", "--N", "1000"), ("experiment tau-growth", "--tables", "t.bin"),
        ("experiment exponents-xt", "--B", "2000"),
    ])
    def test_option_not_read_is_rejected(self, command, option, value, capsys):
        # a bare "experiment" stands for s1
        argv = [*command.split(), *(["s1"] if command == "experiment" else []), option, value]
        rc, stdout, err = run(argv, capsys)
        assert rc == 2 and stdout == ""
        assert f"unrecognized arguments: {option} {value}" in err

    @pytest.mark.parametrize("workload", ["sieve", "verify", "errorterm"])
    def test_benchmark_command_lines_parse(self, workload):
        # executed from its source, so no bytecode cache is written beside it
        path = os.path.join(ROOT, "perfbench", "workloads.py")
        workloads = types.ModuleType("workloads")
        with open(path, encoding="utf-8") as fh:
            exec(compile(fh.read(), path, "exec"), vars(workloads))
        argvs = [step["argv"] for step in workloads.setup_steps(workload, "t.bin") + workloads.steps(workload, 0, "t.bin")]
        assert argvs
        for argv in argvs:
            cli.build_parser().parse_args(argv)

    def test_readme_command_lines_parse(self):
        argvs = _readme_command_lines()
        assert len(argvs) >= 7 and ["experiment", "s1", "--format", "json"] in argvs
        for argv in argvs:
            cli.build_parser().parse_args(argv)


class TestBenchmarkReference:
    """The outputs that perfbench/reference.json pins byte for byte or by
    name, checked here so that a change to them shows in the tests first."""

    @staticmethod
    def reference():
        with open(os.path.join(ROOT, "perfbench", "reference.json"), encoding="utf-8") as fh:
            return json.load(fh)

    def test_exponent_steps_print_the_reference(self, capsys):
        pinned = self.reference()["errorterm"]["exponents"]
        assert set(pinned) == {"exponents-block", "exponents-xy", "exponents-xt"}
        for step, text in pinned.items():
            rc, stdout, _ = run(["experiment", step], capsys)
            assert rc == 0 and stdout == text, step

    def test_verify_rows_are_the_reference_checks(self, capsys):
        rc, stdout, _ = run(["verify", "--field", "all", "--N", "2e4"], capsys)
        rows = [line for line in stdout.splitlines() if line.startswith("[")]
        names = [line.split("] ", 1)[1].split(" (", 1)[0] for line in rows]
        assert sorted(names) == sorted(self.reference()["verify"]["checks"])
        assert rc == 0 and all(line.startswith("[pass] ") for line in rows)


class TestConfigHash:
    def test_stable_and_sensitive(self):
        a = cli.RunConfig(field="x", N=1000, rho_method="series_b_over_m", experiment=None,
                          output=None, fmt="csv", seed=0)
        b = cli.RunConfig(field="x", N=1000, rho_method="series_b_over_m", experiment=None,
                          output=None, fmt="csv", seed=0)
        c = cli.RunConfig(field="x", N=2000, rho_method="series_b_over_m", experiment=None,
                          output=None, fmt="csv", seed=0)
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()

    def test_pinned(self, capsys):
        # fields a subcommand does not take keep their defaults, so hashes survive option changes
        rc, stdout, _ = run(["experiment", "rho", "--N", "3000"], capsys)
        assert rc == 0
        assert stdout.startswith("# config_hash=c2837eeacb96\n")
        # with every option left at its RunConfig default
        rc, stdout, _ = run(["experiment", "s1"], capsys)
        assert rc == 0
        assert stdout.startswith("# config_hash=434b02a41d93\n")

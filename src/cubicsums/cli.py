"""Command-line front end: sieve tables, verify exact identities, run
experiments, emit CSV/JSON reports.

Exit codes: 0 success, 1 check failure, 2 bad configuration, 141 stdout
closed by its reader (the shell's code for a writer ended by SIGPIPE).  Each
subcommand and each experiment takes only the options it reads; any other
option exits 2.  A JSON report embeds the full run configuration and a short
hash of it, a CSV report only the hash above its header values, and `verify
--output` neither: it holds the check rows alone.  Given the same
configuration and seed the outputs are byte-identical.  `experiment
exponents-balance` prints its result and writes no report.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import random
import sys
from dataclasses import asdict, dataclass, fields
from functools import lru_cache

# numpy's bundled OpenBLAS starts one worker thread per core when numpy is
# first imported, and they burn CPU at start-up for nothing: the program runs
# on one thread, and its few BLAS calls are small.  So cap OpenBLAS at one
# thread, unless numpy is already loaded or the caller chose a thread count.
_THREAD_COUNTS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(name in os.environ for name in _THREAD_COUNTS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

# Every command needs these two; each imports the other modules it runs
# (checks, ideals, sums, exponents) where it runs them.
from . import arith, fieldspec  # noqa: E402

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Every setting of a run with its one default; an option that a command
    line leaves out, or that its subcommand does not take, keeps it."""

    field: str = fieldspec.preset_names()[0]
    N: int = 10**5
    rho_method: str = "series_b_over_m"
    experiment: str | None = None
    output: str | None = None
    fmt: str = "csv"
    seed: int = 0
    X: tuple | None = None
    Y: tuple | None = None
    T: tuple | None = None
    y: tuple | None = None
    samples: int = 4096
    B: int | None = None
    l: int = 4
    q: int = 2
    tables_path: str | None = None
    csv_preview: str | None = None
    expr: str | None = None
    balance_var: str | None = None
    h1: str | None = None
    h2: str | None = None
    cone: str | None = None

    def hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def _int(text):
    """A whole number: an int literal (exact at any size), or a float literal
    such as 1e6 whose value is a finite whole number."""
    try:
        return int(text)
    except ValueError:
        value = float(text)  # argparse reports the ValueError of a non-number
    if not value.is_integer():
        raise argparse.ArgumentTypeError(f"{text!r} is not a whole number")
    return int(value)


def _parse_int_list(text):
    values = tuple(_int(t) for t in str(text).split(",") if t.strip())
    if not values:
        raise argparse.ArgumentTypeError(f"{text!r} lists no value")
    return values


def _refuse_table_file(option, path, table_path):
    """Refuse an output file that is the table file the run writes or reads."""
    if path and os.path.realpath(path) == os.path.realpath(table_path):
        raise ConfigError(f"{option} {path} is the table file {table_path}")


def _load_tables(cfg: RunConfig, field):
    if cfg.tables_path:
        _refuse_table_file("--output", cfg.output, cfg.tables_path)
        tables = arith.read_tables(cfg.tables_path)
        if tables.N < arith.N_MIN:  # the floor --N has
            raise ConfigError(f"--tables file has N={tables.N}, below the minimum {arith.N_MIN}")
        if tables.field != field:
            have, want = (fieldspec.format_field_spec(f).strip().replace("\n", "; ")
                          for f in (tables.field, field))
            raise ConfigError(f"table file is for field [{have}], not --field [{want}]")
        return tables
    return arith.build_tables(field, cfg.N)


# ----------------------------------------------------------------------------
# report plumbing
# ----------------------------------------------------------------------------

def _emit(cfg: RunConfig, columns, rows, meta):
    if cfg.fmt == "json":
        payload = {"config": asdict(cfg), "config_hash": cfg.hash(), **meta,
                   "columns": list(columns), "rows": [list(r) for r in rows]}
        text = json.dumps(payload, indent=2, default=str) + "\n"
    else:
        buf = io.StringIO()
        buf.write("# config_hash=" + cfg.hash() + "\n")
        for k, v in meta.items():
            buf.write(f"# {k}={v}\n")
        buf.write(",".join(columns) + "\n")
        for r in rows:
            buf.write(",".join(str(v) for v in r) + "\n")
        text = buf.getvalue()
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {cfg.output}")
    else:
        sys.stdout.write(text)


def _rho_B(cfg: RunConfig, N: int) -> int:
    """The rho window: --B checked against the table length N, else min(N, 10^6)."""
    if cfg.B is None:
        return min(N, 10**6)
    if not arith.N_MIN <= cfg.B <= N:
        raise ConfigError(f"--B {cfg.B} outside [{arith.N_MIN}, {N}]")
    return cfg.B


# ----------------------------------------------------------------------------
# sieve
# ----------------------------------------------------------------------------

def cmd_sieve(cfg: RunConfig) -> int:
    field = fieldspec.load_field(cfg.field)
    B = _rho_B(cfg, cfg.N)
    path = cfg.output or f"tables_{field.name}_{cfg.N}.bin"
    _refuse_table_file("--csv", cfg.csv_preview, path)
    arith.sieve_to_file(field, cfg.N, path)
    tables = arith.read_tables(path)
    if cfg.csv_preview:
        arith.export_csv(tables, cfg.csv_preview, nmax=10**4)
    print(f"field {field.name}: disc={field.disc} (d={field.disc_sqfree_part}, "
          f"f={field.conductor_f}, normal={field.normal})")
    print(f"sieved N={cfg.N}; wrote {path}")
    def row(name, arr):
        print(name + " " + " ".join(str(int(v)) for v in arr[1:21]))
    row("aK(1..20): ", tables.aK)
    row("muK(1..20):", tables.muK)
    row("b(1..20):  ", tables.b)
    for est in arith.estimate_rho(tables, B):
        print(f"rho[{est.method}] = {est.value:.8f} +- {est.stderr:.2e} (B={est.B})")
    return EXIT_OK


# ----------------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------------

def cmd_verify(cfg: RunConfig) -> int:
    from . import checks
    X = (cfg.X or (50,))[0]
    Ys = cfg.Y or (10, 100, 1000)
    for option, value in (("--X", X), ("--Y", min(Ys))):
        if value < 1:
            raise ConfigError(f"{option} {value} below the minimum 1")
    if cfg.field == "all" and cfg.tables_path:
        raise ConfigError("--tables holds one field's tables; name that field instead of --field all")
    names = [cfg.field]
    if cfg.field == "all":  # every cubic preset
        names = [n for n in fieldspec.preset_names() if fieldspec.get_preset(n).degree == 3]
    rng = random.Random(cfg.seed)
    rows = []
    for name in names:
        field = fieldspec.load_field(name)
        tables = _load_tables(cfg, field)
        rows += checks.field_suite(tables, rng, X, Ys)
        del tables  # freed before the next field is sieved
    rows += checks.classical_suite()
    rows = [(fname, name, "pass" if ok else "FAIL", detail) for fname, name, ok, detail in rows]
    for fname, name, status, detail in rows:
        print(f"[{status}] {fname}: {name} ({detail})")
        if status == "FAIL":
            print(f"first counterexample: {detail}")
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write("field,check,status,detail\n")
            for row in rows:
                fh.write(",".join('"' + str(v).replace('"', "'") + '"' for v in row) + "\n")
    return EXIT_OK if all(row[2] == "pass" for row in rows) else EXIT_CHECK_FAILED


# ----------------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------------

def _load(cfg: RunConfig):
    """(tables, rho, both rho estimates) and the report header naming them;
    the rho is the one --rho-method picks, and a bad --B is refused before sieving."""
    field = fieldspec.load_field(cfg.field)
    if not cfg.tables_path:
        _rho_B(cfg, cfg.N)
    tables = _load_tables(cfg, field)
    estimates = arith.estimate_rho(tables, _rho_B(cfg, tables.N))
    rho = next(est for est in estimates if est.method == cfg.rho_method)
    return (tables, rho, estimates), {"field": tables.field.name, "N": tables.N, "rho": rho.value,
                                      "rho_stderr": rho.stderr, "rho_method": rho.method}


def cmd_experiment(cfg: RunConfig) -> int:
    _, options, runner = _EXPERIMENTS[cfg.experiment]
    args, header = _load(cfg) if "--tables" in options else ((), {})
    result = runner(cfg, *args)
    if result is not None:
        columns, rows, meta = result
        _emit(cfg, columns, rows, {**header, "experiment": cfg.experiment, **meta})
    return EXIT_OK


# A runner returns (columns, rows, report meta), or None once it has printed
# its result.  Those that take --tables get (cfg, tables, rho, estimates), the
# others cfg alone.  Each imports the modules it runs, so a process loads only
# those of its command, and calls the library through them, where the
# benchmark's tracer wraps it.

def _meansquare(cfg, tables, rho, estimates):
    from . import sums
    X = (cfg.X or (1,))[0]
    reports, _, trend = sums.meansquare_trend(tables, rho, X, cfg.T or (1000,), samples=cfg.samples)
    rows = [(X, r.T, r.integral_R2, r.main_term, r.ratio, r.quadrature_error_est) for r in reports]
    meta = {"cX": reports[0].cX, "ratio_trend": trend, "disc_cbrt": abs(tables.field.disc) ** (1 / 3)}
    return ("X", "T", "integral_R2", "main_term", "ratio", "error_est"), rows, meta


def _meansquare_p2(cfg, tables, rho, estimates):
    from . import sums
    Ts = cfg.T or (10**5, 2 * 10**5, 4 * 10**5)
    rows, t_exp, y_exp = sums.p2_meansquare_grid(tables, rho, Ts, cfg.y or (4, 32), samples=cfg.samples)
    return ("T", "y", "integral_P2sq"), rows, {"fitted_T_exponent": t_exp, "fitted_y_exponent": y_exp}


def _voronoi(cfg, tables, rho, estimates):
    from . import sums
    lo, ys = (cfg.T or (10**5,))[0], cfg.y or (8, 64, 512)
    medians, exponent = sums.p2_truncation_scan(tables, rho, lo, 2 * lo, 100, ys)
    meta = {"fitted_decay_exponent": exponent, "predicted_exponent": -1 / 3}
    return ("y", "median_abs_P2"), list(zip(ys, medians)), meta


def _envelope(cfg, tables, rho, estimates):
    from . import sums
    rows, fitted = sums.remainder_envelope_scan(tables, rho, cfg.X or (5, 8, 10))
    return ("X", "Y", "R", "envelope", "ratio"), rows, {"fitted_constant": fitted}


def _rho(cfg, tables, rho, estimates):
    return ("method", "rho", "stderr", "B"), [(est.method, est.value, est.stderr, est.B) for est in estimates], {}


def _cx(cfg, tables, rho, estimates):
    from . import sums
    results = [(X, sums.compute_cX(tables, X=X)) for X in cfg.X or (10, 100, 1000)]
    rows = [(X, r.value, r.tail_bound, abs(r.value) / X ** (7 / 3)) for X, r in results]
    return ("X", "cX", "tail_bound", "abs_cX_over_X73"), rows, {}


def _tau_growth(cfg):
    from . import sums
    l, q, xs = cfg.l, cfg.q, cfg.X or (10**4, 10**5, 10**6)
    for option, value, least in (("--l", l, 2), ("--q", q, 1), ("--X", min(xs), 2)):
        if value < least:
            raise ConfigError(f"{option} {value} below the minimum {least}")
    scales = []
    for x in xs:
        try:
            scales.append(x * math.log(x) ** (l**q - 1))
        except OverflowError:
            scales.append(math.inf)
        if not 0 < scales[-1] < math.inf:
            raise ConfigError(f"x log(x)^(l^q - 1) at x={x}, l^q={l**q} is not a finite positive float")
    totals = [arith.tau_power_sum(l, q, x) for x in xs]
    rows = [(x, s, s / scale) for x, s, scale in zip(xs, totals, scales)]
    slope = sums.fit_loglog_slope(np.log(np.array(xs, dtype=float)), np.array([s / x for x, s in zip(xs, totals)]))
    return ("x", "sum", "ratio_to_x_log_power"), rows, {"l": l, "q": q, "loglog_slope": slope,
                                                        "reference_exponent": l**q - 1}


def _pair_sum(cfg):
    from . import sums
    Ts = cfg.T or (10**3, 10**4, 10**5)
    values = [arith.tau4_cuberoot_pair_sum(T) for T in Ts]
    slope = sums.fit_loglog_slope(np.array(Ts, dtype=float), np.array(values))
    return ("T", "pair_sum"), list(zip(Ts, values)), {"fitted_slope": slope, "reference_exponent": 1 / 3}


def _s1(cfg):
    from . import sums
    return ("regime", "X", "Y", "S1", "reference", "relative_gap"), sums.s1_regime_rows(), {}


def _scenario(cfg):
    """Print the result, then the report only with --output or JSON: on stdout the result stands for a CSV."""
    from . import exponents
    rep = exponents.SCENARIOS[cfg.experiment.removeprefix("exponents-")]()
    print(rep.format_result())
    if cfg.output or cfg.fmt == "json":
        rows = [(t.format(rep.var_order),) for t in rep.simplified.sorted_terms(rep.var_order)]
        _emit(cfg, ("term",), rows, {"experiment": cfg.experiment, "cone": rep.cone.format(),
                                      "envelope_ratio": rep.envelope_ratio})
    for absorbed, by, gens in rep.absorptions:
        print(f"absorbed: {absorbed} << {by}  [generator exponents {','.join(gens)}]")


def _balance(cfg):
    from . import exponents
    if not (cfg.expr and cfg.balance_var and cfg.cone):
        raise ConfigError("exponents-balance needs --expr, --var and --cone")
    L, cone = exponents.parse_bound_expr(cfg.expr), exponents.ConstraintCone.from_text(cfg.cone)
    h1, h2 = (exponents.parse_monomial(h or "1") for h in (cfg.h1, cfg.h2))
    bal = exponents.balance(L, cfg.balance_var, h1, h2)
    print(exponents.simplify(bal, cone).format() + "  (+eps exponents)")


# ----------------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------------

# Each option is declared once, without a default: an option left off the
# command line keeps its RunConfig default.  A subcommand, and each experiment,
# takes exactly the options it reads.
_OPTIONS = {
    "--field": dict(help="preset name, config file path, or inline key=value text"),
    "--N": dict(type=_int, help="table length"),
    "--rho-method": dict(choices=("series_b_over_m", "regression_on_A"),
                         help="the rho_K estimate the report uses (default series_b_over_m)"),
    "--output": dict(help="output file (default stdout)"),
    "--format": dict(dest="fmt", choices=("csv", "json"), help="report format (default csv)"),
    "--seed": dict(type=_int, help="seed of the sampled ideals"),
    "--tables": dict(dest="tables_path", help="load tables from a binary file instead of sieving"),
    "--B": dict(type=_int, help="rho window, in [1000, N] (default min(N, 10^6))"),
    "--csv": dict(dest="csv_preview", help="also export n<=1e4 as CSV"),
    "--X": dict(type=_parse_int_list, help="comma-separated X values; verify and experiment meansquare read one"),
    "--Y": dict(type=_parse_int_list, help="Y list for the cross-path check"),
    "--T": dict(type=_parse_int_list, help="comma-separated T values; experiment voronoi reads one"),
    "--y": dict(type=_parse_int_list, help="comma-separated truncation lengths y of the cube-root sum P1"),
    "--samples": dict(type=_int, help="quadrature points over [T, 2T] (default 4096)"),
    "--l": dict(type=_int, help="the l of tau_l, the number of ordered factors (default 4)"),
    "--q": dict(type=_int, help="the power q of tau_l(n) that is summed (default 2)"),
    "--expr": dict(help="bound expression for exponents-balance"),
    "--var": dict(dest="balance_var", help="variable to balance away"),
    "--h1": dict(help="lower range monomial (default 1)"),
    "--h2": dict(help="upper range monomial (default 1)"),
    "--cone": dict(help='cone relations, e.g. "T >= X >= 1"'),
}

_SUBCOMMANDS = {
    "sieve": ("build tables, write the binary table file",
              ("--field", "--N", "--B", "--output", "--csv")),
    "verify": ("run the exact-identity suite (exit 1 on failure)",
               ("--field", "--N", "--seed", "--tables", "--output", "--X", "--Y")),
}

# The experiments that read a field's tables are those that take --tables.
_REPORT = ("--output", "--format")
_TABLES = ("--field", "--N", "--rho-method", "--tables", "--B", *_REPORT)
_EXPERIMENTS = {
    "meansquare": ("mean square of R_K over [T, 2T] against c(X) T^{5/3}", (*_TABLES, "--X", "--T", "--samples"),
                   _meansquare),
    "meansquare-p2": ("mean square of P2 on a (T, y) grid", (*_TABLES, "--T", "--y", "--samples"), _meansquare_p2),
    "voronoi": ("median |P2| over [T, 2T] against the truncation y", (*_TABLES, "--T", "--y"), _voronoi),
    "envelope": ("|R_K(X, 10 X^3)| against its envelope", (*_TABLES, "--X"), _envelope),
    "rho": ("both rho_K estimates", _TABLES, _rho),
    "cx": ("c(X) with its tail bound", (*_TABLES, "--X"), _cx),
    "tau-growth": ("growth of the sum of tau_l(n)^q over n <= x", (*_REPORT, "--X", "--l", "--q"), _tau_growth),
    "pair-sum": ("the tau_4 cube-root pair sum at each T", (*_REPORT, "--T"), _pair_sum),
    "s1": ("the classical S1 against its regime references", _REPORT, _s1),
    "exponents-block": ("balance the dyadic-block bound in (Y, M, y)", _REPORT, _scenario),
    "exponents-xy": ("simplify the remainder bound in (X, Y)", _REPORT, _scenario),
    "exponents-xt": ("balance the mean-square bound in (X, T)", _REPORT, _scenario),
    "exponents-balance": ("balance one variable of a bound; prints the result",
                          ("--expr", "--var", "--h1", "--h2", "--cone"), _balance),
}

# The list options that a command reads one value of; a list is refused before any sieving.
_ONE_VALUE = {"verify": ("--X",), "experiment meansquare": ("--X",), "experiment voronoi": ("--T",)}


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: its ~100 arguments take some 5 ms
    to add, and one process may run many command lines through `main`."""
    ap = argparse.ArgumentParser(
        prog="cubicsums",
        description="Ramanujan sums over cubic number fields: sieves, exact identity "
        "verification, and error-term experiments.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    _add_parsers(sub, _SUBCOMMANDS)
    experiment = sub.add_parser("experiment", help="run one experiment and emit a report")
    _add_parsers(experiment.add_subparsers(dest="experiment", required=True), _EXPERIMENTS)
    return ap


def _add_parsers(subparsers, table):
    for name, (text, options, *_) in table.items():
        p = subparsers.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])


def _typed_errors():
    """The errors main reports as exit 2: its own, OSError, and each library
    module's typed error.  A module that is not loaded has raised none."""
    errors = [ConfigError, OSError, fieldspec.FieldConfigError, arith.ArithError]
    for module, name in (("ideals", "IdealError"), ("sums", "SumsError"), ("exponents", "ExponentError")):
        if (mod := sys.modules.get(f"{__package__}.{module}")) is not None:
            errors.append(getattr(mod, name))
    return tuple(errors)


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_CONFIG if exc.code not in (0, None) else 0
    cfg = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)})
    command = f"{args.command} {cfg.experiment}" if cfg.experiment else args.command
    try:
        if cfg.N < arith.N_MIN:
            raise ConfigError(f"--N {cfg.N} below the minimum {arith.N_MIN}")
        for option in _ONE_VALUE.get(command, ()):
            if len(values := getattr(cfg, option[2:]) or ()) > 1:
                raise ConfigError(f"{command} takes one {option}, got {len(values)}: {','.join(map(str, values))}")
        rc = {"sieve": cmd_sieve, "verify": cmd_verify, "experiment": cmd_experiment}[args.command](cfg)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return rc
    except BrokenPipeError:  # end as SIGPIPE would, stdout on devnull for the last flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except _typed_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: sieve tables, verify exact identities, run
experiments, emit CSV/JSON reports.

Exit codes: 0 success, 1 check failure, 2 bad configuration.  Every report
embeds the full run configuration and a short hash of it; given the same
configuration and seed the outputs are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import random
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import arith, checks, exponents, fieldspec, ideals, sums

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    field: str
    N: int
    rho_method: str
    experiment: str | None
    output: str | None
    fmt: str
    seed: int
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


def _parse_int_list(text):
    if text is None:
        return None
    return tuple(int(float(t)) for t in str(text).split(",") if t.strip())


def _load_tables(cfg: RunConfig, field):
    if cfg.tables_path:
        tables = arith.read_tables(cfg.tables_path)
        if tables.field_name != field.name:
            raise ConfigError(
                f"table file is for field {tables.field_name!r}, not {field.name!r}"
            )
        return tables
    return arith.build_tables(field, cfg.N)


# ----------------------------------------------------------------------------
# report plumbing
# ----------------------------------------------------------------------------

def _emit(cfg: RunConfig, columns, rows, meta, out=None):
    out = out or sys.stdout
    if cfg.fmt == "json":
        payload = {
            "config": asdict(cfg),
            "config_hash": cfg.hash(),
            **meta,
            "columns": list(columns),
            "rows": [list(r) for r in rows],
        }
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
        print(f"wrote {cfg.output}", file=out)
    else:
        out.write(text)


def _rho_B(cfg: RunConfig, N: int) -> int:
    """The rho window: --B checked against the table length N, else min(N, 10^6)."""
    if cfg.B is None:
        return min(N, 10**6)
    if not arith.N_MIN <= cfg.B <= N:
        raise ConfigError(f"--B {cfg.B} outside [{arith.N_MIN}, {N}]")
    return cfg.B


def _rho_meta(field, tables, cfg, B):
    rho = arith.estimate_rho(field, tables, B, cfg.rho_method)
    return rho, {
        "field": field.name,
        "N": tables.N,
        "rho": rho.value,
        "rho_stderr": rho.stderr,
        "rho_method": rho.method,
    }


# ----------------------------------------------------------------------------
# sieve
# ----------------------------------------------------------------------------

def cmd_sieve(cfg: RunConfig, out=None) -> int:
    out = out or sys.stdout
    field = fieldspec.load_field(cfg.field)
    if cfg.N < arith.N_MIN:
        raise ConfigError(f"--N {cfg.N} below the minimum {arith.N_MIN}")
    B = _rho_B(cfg, cfg.N)
    tables = arith.build_tables(field, cfg.N)
    path = cfg.output or f"tables_{field.name}_{cfg.N}.bin"
    arith.write_tables(tables, path)
    if cfg.csv_preview:
        arith.export_csv(tables, cfg.csv_preview, nmax=10**4)
    print(f"field {field.name}: disc={field.disc} (d={field.disc_sqfree_part}, "
          f"f={field.conductor_f}, normal={field.normal})", file=out)
    print(f"sieved N={cfg.N}; wrote {path}", file=out)
    def row(name, arr):
        print(name + " " + " ".join(str(int(v)) for v in arr[1:21]), file=out)
    row("aK(1..20): ", tables.aK)
    row("muK(1..20):", tables.muK)
    row("b(1..20):  ", tables.b)
    for method in ("series_b_over_m", "regression_on_A"):
        est = arith.estimate_rho(field, tables, B, method)
        print(f"rho[{method}] = {est.value:.8f} +- {est.stderr:.2e} (B={est.B})", file=out)
    return EXIT_OK


# ----------------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------------

def cmd_verify(cfg: RunConfig, out=None) -> int:
    out = out or sys.stdout
    if cfg.N < arith.N_MIN:
        raise ConfigError(f"--N {cfg.N} below the minimum {arith.N_MIN}")
    if cfg.field == "all" and cfg.tables_path:
        raise ConfigError("--tables holds one field's tables; name that field instead of --field all")
    names = (
        ["cubic-nonnormal-2", "cubic-cyclic-7"] if cfg.field == "all" else [cfg.field]
    )
    rng = random.Random(cfg.seed)
    rows = []
    for name in names:
        field = fieldspec.load_field(name)
        tables = _load_tables(cfg, field)
        rows += checks.field_suite(field, tables, rng, (cfg.X or (50,))[0], cfg.Y or (10, 100, 1000))
    rows += checks.classical_suite()
    rows = [(fname, name, "pass" if ok else "FAIL", detail) for fname, name, ok, detail in rows]
    for fname, name, status, detail in rows:
        print(f"[{status}] {fname}: {name} ({detail})", file=out)
        if status == "FAIL":
            print(f"first counterexample: {detail}", file=out)
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write("field,check,status,detail\n")
            for row in rows:
                fh.write(",".join('"' + str(v).replace('"', "'") + '"' for v in row) + "\n")
    return EXIT_OK if all(row[2] == "pass" for row in rows) else EXIT_CHECK_FAILED


# ----------------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------------

def cmd_experiment(cfg: RunConfig, out=None) -> int:
    out = out or sys.stdout
    name = cfg.experiment
    if name is None:
        raise ConfigError("experiment name required")
    if name.startswith("exponents-"):
        return _exponents_experiment(cfg, name.removeprefix("exponents-"), out)
    field = fieldspec.load_field(cfg.field)
    if cfg.N < arith.N_MIN:
        raise ConfigError(f"--N {cfg.N} below the minimum {arith.N_MIN}")

    if name in ("tau-growth", "pair-sum", "s1"):
        return _field_free_experiment(cfg, name, out)

    if not cfg.tables_path:
        _rho_B(cfg, cfg.N)  # reject a bad --B before sieving
    tables = _load_tables(cfg, field)
    B = _rho_B(cfg, tables.N)
    rho, meta = _rho_meta(field, tables, cfg, B)
    meta["experiment"] = name

    if name == "meansquare":
        X = (cfg.X or (1,))[0]
        reports, _, trend = sums.meansquare_trend(field, tables, rho, X, cfg.T or (1000,), samples=cfg.samples)
        rows = [(X, r.T, r.integral_R2, r.main_term, r.ratio, r.quadrature_error_est) for r in reports]
        meta["cX"] = reports[0].cX
        meta["ratio_trend"] = trend
        meta["disc_cbrt"] = abs(field.disc) ** (1 / 3)
        _emit(cfg, ("X", "T", "integral_R2", "main_term", "ratio", "error_est"), rows, meta, out)
        return EXIT_OK

    if name == "meansquare-p2":
        Ts = cfg.T or (10**5, 2 * 10**5, 4 * 10**5)
        ys = cfg.y or (4, 32)
        rows, t_exp, y_exp = sums.p2_meansquare_grid(field, tables, rho, Ts, ys, samples=cfg.samples)
        meta["fitted_T_exponent"] = t_exp
        meta["fitted_y_exponent"] = y_exp
        _emit(cfg, ("T", "y", "integral_P2sq"), rows, meta, out)
        return EXIT_OK

    if name == "voronoi":
        ys = cfg.y or (8, 64, 512)
        lo = (cfg.T or (10**5,))[0]
        rep = sums.p2_truncation_scan(field, tables, rho, lo, 2 * lo, 100, ys)
        meta["fitted_decay_exponent"] = rep.fitted_exponent
        meta["predicted_exponent"] = -1 / 3
        rows = list(zip(rep.y_values, rep.medians))
        _emit(cfg, ("y", "median_abs_P2"), rows, meta, out)
        return EXIT_OK

    if name == "envelope":
        rows, fitted = sums.remainder_envelope_scan(field, tables, rho, cfg.X or (5, 8, 10))
        meta["fitted_constant"] = fitted
        _emit(cfg, ("X", "Y", "R", "envelope", "ratio"), rows, meta, out)
        return EXIT_OK

    if name == "rho":
        rows = []
        for method in ("series_b_over_m", "regression_on_A"):
            est = arith.estimate_rho(field, tables, B, method)
            rows.append((method, est.value, est.stderr, est.B))
        _emit(cfg, ("method", "rho", "stderr", "B"), rows, meta, out)
        return EXIT_OK

    if name == "cx":
        rows = []
        for X in cfg.X or (10, 100, 1000):
            r = sums.compute_cX(field, tables, X)
            rows.append((X, r.value, r.tail_bound, abs(r.value) / X ** (7 / 3)))
        _emit(cfg, ("X", "cX", "tail_bound", "abs_cX_over_X73"), rows, meta, out)
        return EXIT_OK

    raise ConfigError(f"unknown experiment {name!r}")


def _field_free_experiment(cfg: RunConfig, name, out) -> int:
    out = out or sys.stdout
    meta = {"experiment": name}
    if name == "tau-growth":
        l, q = cfg.l, cfg.q
        xs = cfg.X or (10**4, 10**5, 10**6)
        rows = []
        for x in xs:
            s = arith.tau_power_sum(l, q, x)
            rows.append((x, s, s / (x * math.log(x) ** (l**q - 1))))
        meta["l"], meta["q"] = l, q
        meta["loglog_slope"] = sums.fit_loglog_slope(
            np.log(np.array(xs, dtype=float)), np.array([r[1] / r[0] for r in rows])
        )
        meta["reference_exponent"] = l**q - 1
        _emit(cfg, ("x", "sum", "ratio_to_x_log_power"), rows, meta, out)
        return EXIT_OK
    if name == "pair-sum":
        Ts = cfg.T or (10**3, 10**4, 10**5)
        rows = [(T, arith.tau4_cuberoot_pair_sum(T)) for T in Ts]
        meta["fitted_slope"] = sums.fit_loglog_slope(
            np.array([r[0] for r in rows], dtype=float), np.array([r[1] for r in rows])
        )
        meta["reference_exponent"] = 1 / 3
        _emit(cfg, ("T", "pair_sum"), rows, meta, out)
        return EXIT_OK
    if name == "s1":
        rows = sums.s1_regime_rows()
        _emit(cfg, ("regime", "X", "Y", "S1", "reference", "relative_gap"), rows, meta, out)
        return EXIT_OK
    raise ConfigError(f"unknown experiment {name!r}")


def _exponents_experiment(cfg: RunConfig, which, out) -> int:
    out = out or sys.stdout
    if which == "balance":
        if not (cfg.expr and cfg.balance_var and cfg.cone):
            raise ConfigError("exponents-balance needs --expr, --var and --cone")
        L = exponents.parse_bound_expr(cfg.expr)
        cone = exponents.ConstraintCone.from_text(cfg.cone)
        h1 = exponents.parse_monomial(cfg.h1 or "1")
        h2 = exponents.parse_monomial(cfg.h2 or "1")
        bal = exponents.balance(L, cfg.balance_var, h1, h2)
        simp = exponents.simplify(bal, cone)
        print(simp.format() + "  (+eps exponents)", file=out)
        return EXIT_OK
    key = {"block": "block", "xy": "xy", "xt": "xt"}.get(which)
    if key is None:
        raise ConfigError(f"unknown exponents scenario {which!r}")
    rep = exponents.SCENARIOS[key]()
    print(rep.format_result(), file=out)
    meta = {
        "experiment": f"exponents-{which}",
        "cone": rep.cone.format(),
        "envelope_ratio": rep.envelope_ratio,
    }
    rows = [(t.format(rep.var_order),) for t in rep.simplified.sorted_terms(rep.var_order)]
    if cfg.output or cfg.fmt == "json":
        _emit(cfg, ("term",), rows, meta, out)
    for absorbed, by, gens in rep.absorptions:
        print(f"absorbed: {absorbed} << {by}  [generator exponents {','.join(gens)}]", file=out)
    return EXIT_OK


# ----------------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cubicsums",
        description="Ramanujan sums over cubic number fields: sieves, exact identity "
        "verification, and error-term experiments.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--field", default="cubic-nonnormal-2",
                       help="preset name, config file path, or inline key=value text")
        p.add_argument("--N", type=lambda s: int(float(s)), default=10**5, help="table length")
        p.add_argument("--rho-method", default="series_b_over_m",
                       choices=("series_b_over_m", "regression_on_A"))
        p.add_argument("--output", default=None, help="output file (default stdout)")
        p.add_argument("--format", dest="fmt", default="csv", choices=("csv", "json"))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tables", dest="tables_path", default=None,
                       help="load tables from a binary file instead of sieving")
        p.add_argument("--B", type=lambda s: int(float(s)), default=None)

    p = sub.add_parser("sieve", help="build tables, write the binary table file")
    common(p)
    p.add_argument("--csv", dest="csv_preview", default=None, help="also export n<=1e4 as CSV")

    p = sub.add_parser("verify", help="run the exact-identity suite (exit 1 on failure)")
    common(p)
    p.add_argument("--X", type=_parse_int_list, default=None, help="max X for the cross-path check")
    p.add_argument("--Y", type=_parse_int_list, default=None, help="Y list for the cross-path check")

    p = sub.add_parser("experiment", help="run one experiment and emit a report")
    common(p)
    p.add_argument("experiment", help="meansquare | meansquare-p2 | voronoi | envelope | rho | cx | "
                   "tau-growth | pair-sum | s1 | exponents-block | exponents-xy | exponents-xt")
    p.add_argument("--X", type=_parse_int_list, default=None)
    p.add_argument("--Y", type=_parse_int_list, default=None)
    p.add_argument("--T", type=_parse_int_list, default=None)
    p.add_argument("--y", type=_parse_int_list, default=None)
    p.add_argument("--samples", type=int, default=4096)
    p.add_argument("--l", type=int, default=4)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--expr", default=None, help="bound expression for exponents-balance")
    p.add_argument("--var", dest="balance_var", default=None, help="variable to balance away")
    p.add_argument("--h1", default=None, help="lower range monomial (default 1)")
    p.add_argument("--h2", default=None, help="upper range monomial (default 1)")
    p.add_argument("--cone", default=None, help='cone relations, e.g. "T >= X >= 1"')
    return ap


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        field=args.field,
        N=args.N,
        rho_method=args.rho_method,
        experiment=getattr(args, "experiment", None),
        output=args.output,
        fmt=args.fmt,
        seed=args.seed,
        X=getattr(args, "X", None),
        Y=getattr(args, "Y", None),
        T=getattr(args, "T", None),
        y=getattr(args, "y", None),
        samples=getattr(args, "samples", 4096),
        B=args.B,
        l=getattr(args, "l", 4),
        q=getattr(args, "q", 2),
        tables_path=args.tables_path,
        csv_preview=getattr(args, "csv_preview", None),
        expr=getattr(args, "expr", None),
        balance_var=getattr(args, "balance_var", None),
        h1=getattr(args, "h1", None),
        h2=getattr(args, "h2", None),
        cone=getattr(args, "cone", None),
    )


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_CONFIG if exc.code not in (0, None) else 0
    cfg = _config_from_args(args)
    try:
        if args.command == "sieve":
            return cmd_sieve(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "experiment":
            return cmd_experiment(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, fieldspec.FieldConfigError, arith.ArithError, sums.SumsError,
            ideals.IdealError, exponents.ExponentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())

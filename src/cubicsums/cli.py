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

from . import arith, exponents, fieldspec, ideals, sums

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2

N_MIN = 10**3


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
    threads: int
    X: tuple | None = None
    Y: tuple | None = None
    T: tuple | None = None
    y: tuple | None = None
    samples: int = 4096
    B: int | None = None
    n_cutoff: int | None = None
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


def _resolve_threads(threads: int) -> int:
    if threads < 0:
        raise ConfigError("--threads must be >= 0")
    if threads == 0:
        import os

        return max(1, os.cpu_count() or 1)
    return threads


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


def _rho_meta(field, tables, cfg):
    B = cfg.B or min(tables.N, 10**6)
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
    if cfg.N < N_MIN:
        raise ConfigError(f"--N {cfg.N} below the minimum {N_MIN}")
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
    B = cfg.B or min(tables.N, 10**6)
    for method in ("series_b_over_m", "regression_on_A"):
        est = arith.estimate_rho(field, tables, B, method)
        print(f"rho[{method}] = {est.value:.8f} +- {est.stderr:.2e} (B={est.B})", file=out)
    return EXIT_OK


# ----------------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------------

def _verify_one_field(field, cfg: RunConfig, rng, checks_out) -> bool:
    tables = _load_tables(cfg, field)
    nmax = min(tables.N, 10**6)
    ok_all = True

    def check(name, failed, detail=""):
        nonlocal ok_all
        ok = failed is None or failed is False
        if not ok:
            ok_all = False
        checks_out.append((field.name, name, "pass" if ok else "FAIL", detail if not ok else detail))
        return ok

    bad = arith.convolution_identity_failure(tables, nmax)
    if not check("convolution aK*muK=e", bad, f"convolution identity failed at n={bad}" if bad else f"n<= {nmax}"):
        return False
    bad = arith.b_sum_identity_failure(tables, nmax)
    if not check("divisor-sum 1*b=aK", bad, f"b identity failed at n={bad}" if bad else f"n<= {nmax}"):
        return False

    if field.normal and field.conductor_f > 1 and field.degree == 3:
        ncheck = min(nmax, 10**4)
        bchar = arith.b_from_cubic_character(field.conductor_f, ncheck)
        diff = np.nonzero(bchar[1:] != tables.b[1 : ncheck + 1])[0]
        check(
            "b = chi * conj(chi)",
            int(diff[0]) + 1 if len(diff) else None,
            f"character identity failed at n={int(diff[0]) + 1}" if len(diff) else f"n<= {ncheck}",
        )

    B = min(tables.N, 10**4)
    hist = ideals.histogram_by_norm(ideals.enumerate_ideals(field, B), B)
    diff = np.nonzero(hist[1:] != tables.aK[1 : B + 1])[0]
    check(
        "enumeration histogram = aK",
        int(diff[0]) + 1 if len(diff) else None,
        f"histogram mismatch at norm {int(diff[0]) + 1}" if len(diff) else f"B={B}",
    )

    if field.degree == 3:
        mism = None
        y_list = [y for y in (cfg.Y or (10, 100, 1000)) if y <= tables.N]
        x_max = min((cfg.X or (50,))[0], 50)
        for X in range(1, x_max + 1):
            for Y in y_list:
                d = sums.S_K_direct(field, tables, X, Y).value
                r = sums.S_K_reduced(field, tables, X, Y).value
                if d != r:
                    mism = (X, Y, d, r)
                    break
            if mism:
                break
        check("cross-path S_K direct=reduced", mism, f"S_K mismatch at {mism}" if mism else f"X<={x_max}, Y in {y_list}")

    # seeded randomized ideal properties (exact checks; seed changes samples only)
    pairs = []
    mism = None
    for _ in range(30):
        J = ideals.random_factored_ideal(field, rng, 50)
        I = ideals.random_factored_ideal(field, rng, 500)
        Icop = ideals.random_factored_ideal(field, rng, 500)
        pairs.append((str(J), str(I)))
        g = ideals.ideal_gcd(I, J)
        if ideals.ramanujan_ideal(field, J, I) != ideals.ramanujan_ideal(field, J, g):
            mism = ("gcd-dependence", str(J), str(I))
            break
        if ideals.ideal_norm(ideals.ideal_mul(I, Icop)) != I.norm * Icop.norm:
            mism = ("norm multiplicativity", str(I), str(Icop))
            break
    check("c_J(I) gcd dependence + norms", mism, str(mism) if mism else f"30 seeded samples; first={pairs[0]}")

    mism = None
    for _ in range(5):
        J = ideals.random_factored_ideal(field, rng, 50)
        for Y in (10, 100, 500):
            naive = sum(
                ideals.ramanujan_ideal(field, J, I) for I in ideals.enumerate_ideals(field, Y)
            )
            coll = ideals.sum_cJ_over_I(field, tables, J, Y)
            if naive != coll:
                mism = (str(J), Y, naive, coll)
                break
        if mism:
            break
    check("sum_cJ collapse = naive", mism, str(mism) if mism else "5 seeded J, Y in {10,100,500}")

    # table self-consistency: multiplicativity and restriction stability
    mism = None
    lim = min(tables.N, 5000)
    for m in range(2, lim):
        if m * (m + 1) > lim:
            break
        for n in range(m + 1, lim // m + 1):
            if math.gcd(m, n) == 1 and tables.aK[m * n] != tables.aK[m] * tables.aK[n]:
                mism = (m, n)
                break
        if mism:
            break
    check("aK multiplicative", mism, str(mism) if mism else f"exhaustive mn<={lim}")

    small = arith.build_tables(field, max(N_MIN, tables.N // 10))
    same = bool(np.array_equal(small.aK, tables.aK[: small.N + 1])) and bool(
        np.array_equal(small.muK, tables.muK[: small.N + 1])
    )
    check("restriction bit-exact", None if same else True, f"N'={small.N}")

    # remainder and truncation decompositions, exact by construction
    if field.degree == 3 and tables.N >= N_MIN:
        B = min(tables.N, 10**5)
        rho = arith.estimate_rho(field, tables, max(N_MIN, B))
        Y = min(tables.N, 54321)
        lhs = sums.remainder_R(field, tables, rho, 1, Y)
        rhs = arith.error_P(tables, rho, Y)
        check("remainder_R(1,Y) = P_K(Y)", None if abs(lhs - rhs) < 1e-9 else True, f"Y={Y}")
        p1, p2 = sums.voronoi_P1(field, tables, rho, Y, min(64, Y))
        ok_dec = abs((p1 + p2) - rhs) <= 1e-9 * max(1.0, abs(rhs))
        check("P1 + P2 = P_K", None if ok_dec else True, f"Y={Y}")

    # informational reports (never gate the exit code)
    x = np.arange(1, tables.N + 1, dtype=np.float64)
    mbound = float(np.max(np.abs(tables.M_prefix[1:]) / x))
    checks_out.append((field.name, "report max|M_K(x)|/x", "pass", f"{mbound:.6f}" + (" (>1: bound violated)" if mbound > 1 else "")))
    checks_out.append((field.name, "report max|b(m)|/m^0.1", "pass", f"{arith.b_growth_statistic(tables):.6f}"))
    return ok_all


def cmd_verify(cfg: RunConfig, out=None) -> int:
    out = out or sys.stdout
    names = (
        ["cubic-nonnormal-2", "cubic-cyclic-7"] if cfg.field == "all" else [cfg.field]
    )
    rng = random.Random(cfg.seed)
    checks = []
    ok = True
    for name in names:
        field = fieldspec.load_field(name)
        ok = _verify_one_field(field, cfg, rng, checks) and ok
    # classical baseline checks (field-independent)
    mism = None
    for m in range(1, 101):
        for n in range(1, 101):
            c = arith.classical_ramanujan(m, n)
            js = [j for j in range(1, m + 1) if math.gcd(j, m) == 1]
            z = sum(complex(math.cos(2 * math.pi * j * n / m), math.sin(2 * math.pi * j * n / m)) for j in js)
            if abs(z.imag) > 1e-9 or round(z.real) != c:
                mism = (m, n, c, z)
                break
        if mism:
            break
    checks.append(("classical", "ramanujan sum = exponential sum", "pass" if not mism else "FAIL", str(mism or "m,n<=100")))
    ok = ok and not mism

    s_naive = sums.classical_S1_naive(60, 80)
    s_coll = sums.classical_S1(60, 80)
    checks.append(
        ("classical", "S1 naive = collapsed", "pass" if s_naive == s_coll else "FAIL", f"{s_naive} vs {s_coll}")
    )
    ok = ok and s_naive == s_coll

    for fname, name, status, detail in checks:
        print(f"[{status}] {fname}: {name} ({detail})", file=out)
        if status == "FAIL":
            print(f"first counterexample: {detail}", file=out)
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write("field,check,status,detail\n")
            for row in checks:
                fh.write(",".join('"' + str(v).replace('"', "'") + '"' for v in row) + "\n")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


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
    if cfg.N < N_MIN:
        raise ConfigError(f"--N {cfg.N} below the minimum {N_MIN}")

    if name in ("tau-growth", "pair-sum", "s1"):
        return _field_free_experiment(cfg, name, out)

    tables = _load_tables(cfg, field)
    rho, meta = _rho_meta(field, tables, cfg)
    meta["experiment"] = name
    threads = _resolve_threads(cfg.threads)

    if name == "meansquare":
        X = (cfg.X or (1,))[0]
        rows = []
        for T in cfg.T or (1000,):
            r = sums.meansquare_R(field, tables, rho, X, T, samples=cfg.samples,
                                  n_cutoff=cfg.n_cutoff, threads=threads)
            rows.append((X, T, r.integral_R2, r.main_term, r.ratio, r.quadrature_error_est))
        ratios = [r[4] for r in rows]
        meta["cX"] = sums.compute_cX(field, tables, X, cfg.n_cutoff or max(1, min(tables.N // max(1, X), 2 * 10**5))).value
        meta["ratio_trend"] = (
            "decreasing" if all(b < a for a, b in zip(ratios, ratios[1:]))
            else "increasing" if all(b > a for a, b in zip(ratios, ratios[1:]))
            else "mixed"
        )
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
            est = arith.estimate_rho(field, tables, cfg.B or min(tables.N, 10**6), method)
            rows.append((method, est.value, est.stderr, est.B))
        _emit(cfg, ("method", "rho", "stderr", "B"), rows, meta, out)
        return EXIT_OK

    if name == "cx":
        rows = []
        for X in cfg.X or (10, 100, 1000):
            cut = cfg.n_cutoff or max(1, tables.N // max(1, X))
            r = sums.compute_cX(field, tables, X, cut)
            rows.append((X, cut, r.value, r.tail_bound, abs(r.value) / X ** (7 / 3)))
        meta["experiment"] = "cx"
        _emit(cfg, ("X", "n_cutoff", "cX", "tail_bound", "abs_cX_over_X73"), rows, meta, out)
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
        p.add_argument("--threads", type=int, default=0, help="meansquare quadrature only; 0 = auto")
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
    p.add_argument("--n-cutoff", dest="n_cutoff", type=lambda s: int(float(s)), default=None)
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
        threads=args.threads,
        X=getattr(args, "X", None),
        Y=getattr(args, "Y", None),
        T=getattr(args, "T", None),
        y=getattr(args, "y", None),
        samples=getattr(args, "samples", 4096),
        B=args.B,
        n_cutoff=getattr(args, "n_cutoff", None),
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
        _resolve_threads(cfg.threads)  # reject a negative --threads on every command
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

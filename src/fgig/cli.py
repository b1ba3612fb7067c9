"""Batch command-line front end.

Every subcommand builds its parameter triple (a triple outside the
validity box raises as it is built), runs the matching module, and emits
a JSON report (or CSV rows for grid data) that is byte-identical across
repeated invocations: floats are serialized with 17 significant digits
and keys keep a fixed order.

Exit codes: 0 on success, 2 on a validation error, 3 on a numeric
failure.  ``FGIG_LOG`` in {quiet, info, debug} controls diagnostics on
stderr.
"""

import argparse
import csv
import io
import logging
import math
import os
import sys

import numpy as np

from . import asymptotics, characterization, entropy, levy, transforms
from .errors import DomainError, NumericError
from .measures import fgig_density, moment
from .params import (NaturalParams, SupportForm, from_support, reparameterize,
                     solve_support, spectral_roots)

SCHEMA = "fgig-report/1"
log = logging.getLogger("fgig")


def _fmt(x):
    if isinstance(x, float):
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return format(x, ".17g")
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    raise TypeError(f"unsupported scalar {type(x)!r}")


def dumps_stable(obj, indent=0):
    """Deterministic JSON: insertion-ordered keys, 17-digit floats."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad}  "{k}": {dumps_stable(v, indent + 1)}'
                for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{pad}  {dumps_stable(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(obj, str):
        return f'"{obj}"'
    if obj is None:
        return "null"
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    return _fmt(obj)


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError("grid spec must be lo:hi:count")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise DomainError(f"grid spec {text!r} is not lo:hi:count") from None
    if count < 2 or not hi > lo:
        raise DomainError("grid spec needs hi > lo and count >= 2")
    return np.linspace(lo, hi, count)


def _triple(args):
    return NaturalParams(args.alpha, args.beta, args.lam)


def _write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(v, ".17g") if isinstance(v, float) else v
                         for v in row])
    _emit(path, buf.getvalue())


def _emit(path, text):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        log.info("wrote %s", path)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _report_header(args, **extra):
    head = {"schema": SCHEMA, "subcommand": args.subcommand}
    if hasattr(args, "alpha") and args.alpha is not None:
        head["params"] = {"alpha": args.alpha, "beta": args.beta,
                          "lambda": args.lam}
    head.update(extra)
    return head


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _run_params(args):
    if args.a is not None or args.b is not None:
        if args.a is None or args.b is None:
            raise DomainError("support form needs both --a and --b")
        s = SupportForm(args.a, args.b, args.lam)
        p = from_support(s)
    else:
        if args.alpha is None or args.beta is None:
            raise DomainError("need either --alpha/--beta or --a/--b")
        p = NaturalParams(args.alpha, args.beta, args.lam)
        s = solve_support(p)
    roots = spectral_roots(p)
    sf = reparameterize(s)
    out = {
        "schema": SCHEMA,
        "subcommand": "params",
        "alpha": p.alpha,
        "beta": p.beta,
        "lambda": p.lam,
        "support": {"a": s.a, "b": s.b},
        "spread": {"A": sf.A, "B": sf.B},
        "roots": {"gamma": roots.gamma, "delta": roots.delta,
                  "eta": roots.eta},
        "valid": True,  # an invalid triple raises before the report
    }
    _emit(args.output, dumps_stable(out) + "\n")


def _run_density(args):
    p = _triple(args)
    if args.grid is not None:
        xs = _parse_grid(args.grid)
    else:
        s = solve_support(p)
        xs = np.linspace(s.a, s.b, 401)
    ys = fgig_density(p, xs)
    if args.format == "csv":
        _write_csv(args.output, ["x", "density"],
                   [(float(x), float(y)) for x, y in zip(xs, ys)])
    else:
        out = _report_header(args)
        out["rows"] = [{"x": float(x), "density": float(y)}
                       for x, y in zip(xs, ys)]
        _emit(args.output, dumps_stable(out) + "\n")


def _run_transform(args):
    p = _triple(args)
    kappa = transforms.free_cumulants(p, args.order)
    cert = transforms.fid_certificate(p, n_grid=args.certificate_grid)
    out = _report_header(args)
    out["free_cumulants"] = [float(k) for k in kappa]
    out["fid_certificate"] = {
        "max_imag": cert.max_imag,
        "tolerance": cert.tol,
        "passed": cert.passed,
        "points": cert.n_points,
    }
    if args.grid:
        xs = _parse_grid(args.grid)
        zs = xs - 1j * abs(args.imag)
        vals = transforms.r_fgig(p, zs)
        out["r_on_grid"] = {
            "imag_offset": -abs(args.imag),
            "rows": [{"x": float(x), "re": float(v.real), "im": float(v.imag)}
                     for x, v in zip(xs, vals)],
        }
    _emit(args.output, dumps_stable(out) + "\n")


def _run_levy(args):
    p = _triple(args)
    if args.samples < 1:
        raise DomainError("--samples must be at least 1")
    t = levy.levy_triplet(p)
    rng = np.random.default_rng(args.seed)
    zs = rng.uniform(-3, 3, args.samples) + 1j * rng.uniform(-3, -0.1,
                                                             args.samples)
    resid = max(abs(complex(z) * transforms.r_fgig(p, complex(z))
                    - levy.reconstruct_cumulant(t, complex(z)))
                for z in zs)
    tol = 1e-6
    out = _report_header(args, tolerance=tol)
    out["drift_bound"] = t.drift
    out["semicircular_bound"] = t.semicircular
    out["atom"] = {"location": 1.0 / t.atom[0], "weight": t.atom[1]}
    out["density_support"] = {"lo": t.support[0], "hi": t.support[1]}
    out["min_1_x_integral"] = levy.min1x_integral(t)
    out["reconstruction_residual"] = resid
    out["passed"] = bool(resid <= tol and out["drift_bound"] <= tol
                         and out["semicircular_bound"] <= tol)
    _emit(args.output, dumps_stable(out) + "\n")


def _run_fsd(args):
    p = _triple(args)
    rep = levy.fsd_report(p)
    out = _report_header(args)
    out["discriminant"] = rep.discriminant
    out["threshold_lambda"] = rep.threshold
    out["is_fsd"] = rep.is_fsd
    out["k_monotone"] = rep.k_monotone
    out["atom_weight"] = rep.atom_weight
    out["routes_agree"] = rep.agrees
    _emit(args.output, dumps_stable(out) + "\n")


def _run_convolve(args):
    p = _triple(args)
    if p.lam <= 0:
        raise DomainError("convolve checks the positive-shape identity; "
                          "pass lambda > 0")
    _, [(_, outm, dist)] = characterization._reciprocal_chain(
        p.alpha, p.beta, p.lam, 1)
    tol = 1e-4
    out = _report_header(args, tolerance=tol)
    out["kolmogorov_distance"] = dist
    out["mass"] = outm.mass()
    out["mean"] = moment(outm, 1)
    out["passed"] = bool(dist <= tol)
    if args.format == "csv":
        xs = outm.cdf_x
        _write_csv(args.output, ["x", "density"],
                   [(float(x), float(d)) for x, d in
                    zip(xs, outm.density(xs))])
    else:
        _emit(args.output, dumps_stable(out) + "\n")


def _run_fixpoint(args):
    rep = characterization.verify_fixed_point(args.alpha, args.lam,
                                              order=args.order)
    tol = {"series_vs_oracle": 1e-6, "fixed_point_distance": 1e-3,
           "key_equation": 1e-9}
    out = {"schema": SCHEMA, "subcommand": "fixpoint",
           "params": {"alpha": args.alpha, "lambda": args.lam},
           "tolerances": tol}
    out["c"] = rep.c
    out["series"] = [float(v) for v in rep.series.coeffs]
    out["oracle"] = [float(v) for v in rep.oracle.coeffs]
    out["max_rel_dev"] = rep.max_rel_dev
    out["fixed_point_distance"] = rep.fixed_point_distance
    out["intermediate_stage_distance"] = rep.stage_distance
    out["key_eq_residual"] = rep.key_eq_residual
    out["passed"] = bool(
        rep.max_rel_dev <= tol["series_vs_oracle"]
        and rep.fixed_point_distance <= tol["fixed_point_distance"]
        and rep.key_eq_residual <= tol["key_equation"])
    _emit(args.output, dumps_stable(out) + "\n")


def _run_limits(args):
    try:
        betas = ([float(b) for b in args.betas.split(",")] if args.betas
                 else [1e-1, 1e-2, 1e-3, 1e-4])
    except ValueError:
        raise DomainError(f"--betas {args.betas!r} is not a comma-separated "
                          "list of numbers") from None
    curve = asymptotics.convergence_curve(args.alpha, args.lam, betas)
    rows = []
    for beta, dist in zip(betas, curve):
        p = NaturalParams(args.alpha, beta, args.lam)
        s = solve_support(p)
        roots = spectral_roots(p)
        rows.append((beta, s.a, s.b, roots.delta, roots.eta, dist))
    if args.format == "csv":
        _write_csv(args.output, ["beta", "a", "b", "delta", "eta", "distance"],
                   rows)
        return
    d_lim, e_lim = asymptotics.root_limits(args.alpha, args.lam)
    out = {"schema": SCHEMA, "subcommand": "limits",
           "params": {"alpha": args.alpha, "lambda": args.lam},
           "regime": asymptotics.limit_regime(args.lam),
           "root_limits": {"delta": d_lim, "eta": e_lim},
           "rows": [{"beta": b, "a": a, "b_end": bb, "delta": d,
                     "eta": e, "distance": dist}
                    for b, a, bb, d, e, dist in rows]}
    _emit(args.output, dumps_stable(out) + "\n")


def _run_entropy(args):
    p = _triple(args)
    perturbations = [1.1, 0.9,
                     NaturalParams(p.alpha, p.beta, p.lam + 0.2),
                     NaturalParams(p.alpha, p.beta, p.lam - 0.2),
                     NaturalParams(p.alpha * 1.1, p.beta, p.lam)]
    scan = entropy.maximality_scan(p, perturbations)
    h_gig = entropy.gig_entropy(p.alpha, p.beta, p.lam)
    bound = entropy.gibbs_bound(p.alpha, p.beta, p.lam)
    out = _report_header(args, tolerances={"gibbs_gap": 1e-6})
    out["free_entropy"] = scan.base_value
    out["margins"] = [{"perturbation": lab, "value": val, "margin": margin}
                      for lab, val, margin in scan.entries]
    out["classical_entropy"] = h_gig
    out["gibbs_bound"] = bound
    out["gibbs_gap"] = abs(h_gig - bound)
    out["passed"] = bool(abs(h_gig - bound) <= 1e-6
                         and all(mg > 0 for _, _, mg in scan.entries))
    _emit(args.output, dumps_stable(out) + "\n")


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_triple(sub, alpha_required=True):
    sub.add_argument("--alpha", type=float, required=alpha_required)
    sub.add_argument("--beta", type=float, required=alpha_required)
    sub.add_argument("--lambda", dest="lam", type=float, required=True)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fgig",
        description="Numerical laboratory for the free generalized inverse "
                    "Gaussian family")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("params", help="convert parameterizations")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--beta", type=float)
    sp.add_argument("--a", type=float)
    sp.add_argument("--b", type=float)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--output")
    sp.set_defaults(func=_run_params)

    sp = sub.add_parser("density", help="tabulate the density")
    _add_triple(sp)
    sp.add_argument("--grid", help="written --grid=lo:hi:count")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--output")
    sp.set_defaults(func=_run_density)

    sp = sub.add_parser("transform", help="cumulants, R-transform grid, "
                                          "divisibility certificate")
    _add_triple(sp)
    sp.add_argument("--order", type=int, default=8)
    sp.add_argument("--grid", help="real parts; written --grid=lo:hi:count")
    sp.add_argument("--imag", type=float, default=0.5)
    sp.add_argument("--certificate-grid", type=int, default=100)
    sp.add_argument("--output")
    sp.set_defaults(func=_run_transform)

    sp = sub.add_parser("levy", help="triplet and reconstruction check")
    _add_triple(sp)
    sp.add_argument("--samples", type=int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output")
    sp.set_defaults(func=_run_levy)

    sp = sub.add_parser("fsd", help="free self-decomposability verdict")
    _add_triple(sp)
    sp.add_argument("--output")
    sp.set_defaults(func=_run_fsd)

    sp = sub.add_parser("convolve", help="free Poisson convolution identity")
    _add_triple(sp)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--output")
    sp.set_defaults(func=_run_convolve)

    sp = sub.add_parser("fixpoint", help="reciprocal fixed-point report")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--order", type=int, default=8)
    sp.add_argument("--output")
    sp.set_defaults(func=_run_fixpoint)

    sp = sub.add_parser("limits", help="small-beta limit diagnostics")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--betas", help="comma-separated decreasing list")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--output")
    sp.set_defaults(func=_run_limits)

    sp = sub.add_parser("entropy", help="free/classical entropy report")
    _add_triple(sp)
    sp.add_argument("--output")
    sp.set_defaults(func=_run_entropy)
    return parser


def run(argv=None):
    level = {"quiet": logging.WARNING, "info": logging.INFO,
             "debug": logging.DEBUG}.get(os.environ.get("FGIG_LOG", "quiet"),
                                         logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="fgig: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except DomainError as exc:
        print(f"fgig: validation error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"fgig: numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()

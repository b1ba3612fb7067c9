"""Batch command-line front end.

Every subcommand builds its parameter triple (a triple outside the
validity box raises as it is built), runs the matching module, and emits
a JSON report (or CSV rows for grid data) that is byte-identical across
repeated invocations: floats are written as their shortest round-trip
repr, non-finite ones as the strings "inf", "-inf" and "nan", and keys
keep a fixed order.

Exit codes: 0 on success, 2 on a validation error, 3 on a numeric
failure.  ``FGIG_LOG=info`` names each file written with ``--output`` on
stderr.

Each subcommand imports the modules it runs, and numpy only where it
uses it, so ``fgig params`` runs on the standard library alone.
"""

import argparse
import csv
import io
import json
import math
import os
import sys

from .errors import DomainError, NumericError
from .params import (NaturalParams, SupportForm, from_support, reparameterize,
                     solve_support, spectral_roots)

SCHEMA = "fgig-report/1"


def _finite(obj):
    """``obj`` with each non-finite float as the string "inf", "-inf" or
    "nan", which JSON has no number for."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    return obj


def _dumps(report):
    """The JSON text of a report, keys in insertion order."""
    return json.dumps(_finite(report), indent=2) + "\n"


def _parse_grid(text):
    import numpy as np

    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError("grid spec must be lo:hi:count")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise DomainError(f"grid spec {text!r} is not lo:hi:count") from None
    if count < 2 or not -math.inf < lo < hi < math.inf:
        raise DomainError(f"grid spec {text!r} needs finite lo < hi and "
                          "count >= 2")
    return np.linspace(lo, hi, count)


def _triple(args):
    return NaturalParams(args.alpha, args.beta, args.lam)


def _write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(path, buf.getvalue())


def _emit(path, text):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if os.environ.get("FGIG_LOG") == "info":
            print(f"fgig: wrote {path}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _report_header(args, **extra):
    """Schema, subcommand, and ``params`` from whichever of alpha, beta
    and lambda the subcommand takes, then ``extra``."""
    params = {key: getattr(args, attr) for key, attr in
              (("alpha", "alpha"), ("beta", "beta"), ("lambda", "lam"))
              if hasattr(args, attr)}
    return {"schema": SCHEMA, "subcommand": args.subcommand,
            "params": params, **extra}


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
    _emit(args.output, _dumps(out))


def _run_density(args):
    import numpy as np

    from .measures import fgig_density

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
        _emit(args.output, _dumps(out))


def _run_transform(args):
    from . import transforms

    p = _triple(args)
    kappa = transforms.free_cumulants(p, args.order)
    cert = transforms.fid_certificate(p)
    out = _report_header(args)
    out["free_cumulants"] = [float(k) for k in kappa]
    out["fid_certificate"] = {
        "max_imag": cert.max_imag,
        "tolerance": cert.tol,
        "passed": cert.passed,
        "points": cert.n_points,
        "cut_residual": cert.cut_residual,
        "sign_pattern": cert.sign_pattern,
    }
    if args.grid:
        xs = _parse_grid(args.grid)
        if not math.isfinite(args.imag):
            raise DomainError(f"--imag {args.imag} is not finite")
        zs = xs - 1j * abs(args.imag)
        vals = transforms.r_fgig(p, zs)
        out["r_on_grid"] = {
            "imag_offset": -abs(args.imag),
            "rows": [{"x": float(x), "re": float(v.real), "im": float(v.imag)}
                     for x, v in zip(xs, vals)],
        }
    _emit(args.output, _dumps(out))


def _run_levy(args):
    import numpy as np

    from . import levy, transforms

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
    _emit(args.output, _dumps(out))


def _run_fsd(args):
    from . import levy

    p = _triple(args)
    rep = levy.fsd_report(p)
    out = _report_header(args)
    out["discriminant"] = rep.discriminant
    out["threshold_lambda"] = rep.threshold
    out["is_fsd"] = rep.is_fsd
    out["k_monotone"] = rep.k_monotone
    out["max_log_k_slope"] = rep.max_slope
    out["atom_weight"] = rep.atom_weight
    out["routes_agree"] = rep.agrees
    _emit(args.output, _dumps(out))


def _run_convolve(args):
    from . import characterization
    from .measures import moment

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
        _emit(args.output, _dumps(out))


def _run_fixpoint(args):
    from . import characterization

    rep = characterization.verify_fixed_point(args.alpha, args.lam,
                                              order=args.order)
    tol = {"series_vs_oracle": 1e-6, "fixed_point_distance": 1e-3,
           "key_equation": 1e-9}
    out = _report_header(args, tolerances=tol)
    out["c"] = rep.c
    out["series"] = [float(v) for v in rep.series]
    out["oracle"] = [float(v) for v in rep.oracle]
    out["max_rel_dev"] = rep.max_rel_dev
    out["fixed_point_distance"] = rep.fixed_point_distance
    out["intermediate_stage_distance"] = rep.stage_distance
    out["key_eq_residual"] = rep.key_eq_residual
    out["passed"] = bool(
        rep.max_rel_dev <= tol["series_vs_oracle"]
        and rep.fixed_point_distance <= tol["fixed_point_distance"]
        and rep.key_eq_residual <= tol["key_equation"])
    _emit(args.output, _dumps(out))


def _run_limits(args):
    from . import asymptotics

    try:
        betas = ([float(b) for b in args.betas.split(",")] if args.betas
                 else [1e-1, 1e-2, 1e-3, 1e-4])
    except ValueError:
        raise DomainError(f"--betas {args.betas!r} is not a comma-separated "
                          "list of numbers") from None
    triples = [NaturalParams(args.alpha, beta, args.lam) for beta in betas]
    curve = asymptotics.convergence_curve(args.alpha, args.lam, betas)
    rows = []
    for p, dist in zip(triples, curve):
        s = solve_support(p)
        roots = spectral_roots(p)
        rows.append((p.beta, s.a, s.b, roots.delta, roots.eta, dist))
    if args.format == "csv":
        _write_csv(args.output, ["beta", "a", "b", "delta", "eta", "distance"],
                   rows)
        return
    asym = asymptotics.endpoint_asymptotics(args.alpha, args.lam)
    out = _report_header(
        args, regime=asymptotics.limit_regime(args.lam),
        root_limits={"delta": asym.delta_limit, "eta": asym.eta_limit},
        endpoint_asymptotics={"a": {"constant": asym.c_a, "power": asym.p_a},
                              "b": {"constant": asym.c_b, "power": asym.p_b},
                              "q": asym.q},
        rows=[{"beta": b, "a": a, "b_end": bb, "delta": d, "eta": e,
               "distance": dist} for b, a, bb, d, e, dist in rows])
    _emit(args.output, _dumps(out))


def _run_entropy(args):
    from . import entropy

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
    _emit(args.output, _dumps(out))


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_triple(sub):
    sub.add_argument("--alpha", type=float, required=True)
    sub.add_argument("--beta", type=float, required=True)
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
    sp.add_argument("--betas", help="comma-separated list")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--output")
    sp.set_defaults(func=_run_limits)

    sp = sub.add_parser("entropy", help="free/classical entropy report")
    _add_triple(sp)
    sp.add_argument("--output")
    sp.set_defaults(func=_run_entropy)
    return parser


def run(argv=None):
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

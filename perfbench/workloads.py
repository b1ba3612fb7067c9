"""Seeded inputs and gated checks for the benchmark workloads.

A *check* is one unit of user work.  Each check function takes one
pre-generated input and returns a :class:`Verdict`; it never raises.
Every gate uses the tolerance the repository's README and acceptance
suite state for that claim.

The package is reached through its modules at call time (``M.build_fgig``
rather than a name bound at import), so a tracer that rebinds module
attributes sees every call.
"""

import json
import math
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

from fgig import asymptotics as A
from fgig import characterization as C
from fgig import convolution as V
from fgig import entropy as E
from fgig import levy as L
from fgig import measures as M
from fgig import params as P
from fgig import transforms as T
from fgig.errors import DomainError, NumericError

# Kronecker (R_3) sequence: every prefix covers the unit cube evenly, so a
# run that stops after any number of checks has sampled the whole box.
_PHI3 = 1.2207440846057594753616853491088319144324890862486
_R3 = np.array([_PHI3 ** -1, _PHI3 ** -2, _PHI3 ** -3])
# The seed jitters each design point by up to half this width per axis.
# Every run then times the same regions of the box, so the spread between
# runs reflects the code and the machine, not which corners a draw reached.
JITTER = 0.05

# Upper bound on checks per run; generation is cheap, so it is generous.
POOL = {"convolve": 400, "desk": 4000, "cli": 1000}

CLI_SUBCOMMANDS = ("params", "density", "transform", "levy", "fsd",
                   "limits", "entropy")

# Smallest rung of the default Stieltjes ladder of free_convolve.
SMALLEST_RUNG = 1e-2 * 0.5 ** 7


@dataclass
class Verdict:
    """Outcome of one check.

    ``failures`` lists ``(step, kind)`` pairs, kind being ``gate``,
    ``NumericError``, ``DomainError`` or another exception's name.
    ``gate_ratio`` is the worst finite ``error / tolerance`` among the
    gated numbers the check produced (None if it produced none).
    """

    failures: list = field(default_factory=list)
    gate_ratio: float = None

    @property
    def ok(self):
        return not self.failures

    def gate(self, step, error, tol):
        """Fail ``step`` unless ``error <= tol`` (NaN and inf fail)."""
        self.note_ratio(error / tol)
        if not error <= tol:
            self.failures.append((step, "gate"))

    def note_ratio(self, ratio):
        if math.isfinite(ratio) and (self.gate_ratio is None
                                     or ratio > self.gate_ratio):
            self.gate_ratio = ratio

    def require(self, step, condition):
        if not condition:
            self.failures.append((step, "gate"))

    def run(self, step, fn):
        """Call ``fn()``; record an exception as a failure of ``step``."""
        try:
            return fn()
        except NumericError:
            self.failures.append((step, "NumericError"))
        except DomainError:
            self.failures.append((step, "DomainError"))
        except Exception as exc:  # any other exception is a failed check
            self.failures.append((step, type(exc).__name__))
        return None


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _unit_points(rng, n):
    base = np.arange(1, n + 1)[:, None] * _R3
    return (base + JITTER * (rng.random((n, 3)) - 0.5)) % 1.0


def _log_uniform(u, lo, hi):
    return lo * (hi / lo) ** u


def make_inputs(workload, seed):
    """Seeded inputs for ``workload``: a list, one entry per check.

    The parameter triples of one run are pairwise distinct, so the
    support solver's cache never serves one check from another's work.
    """
    rng = np.random.default_rng([seed, sorted(POOL).index(workload)])
    n = POOL[workload]
    u = _unit_points(rng, n)
    if workload == "convolve":
        return [(float(_log_uniform(a, 0.25, 8.0)),
                 float(_log_uniform(b, 0.25, 8.0)),
                 float(0.1 + 3.9 * c)) for a, b, c in u]
    triples = [(float(_log_uniform(a, 1e-3, 1e3)),
                float(_log_uniform(b, 1e-3, 1e3)),
                float(-4.0 + 8.0 * c)) for a, b, c in u]
    if workload == "desk":
        zs = (rng.uniform(-3.0, 3.0, (n, 5))
              + 1j * rng.uniform(-3.0, -0.1, (n, 5)))
        return [(t, tuple(complex(z) for z in row))
                for t, row in zip(triples, zs)]
    if workload == "cli":
        return [(CLI_SUBCOMMANDS[i % len(CLI_SUBCOMMANDS)], t)
                for i, t in enumerate(triples)]
    raise ValueError(f"unknown workload {workload!r}")


def clear_caches():
    """Empty every ``functools`` cache of the package."""
    for mod in (A, C, V, E, L, M, P, T):
        for fn in vars(mod).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


def triple_of(workload, item):
    """The parameter triple a check draws, for the repeat-share record."""
    if workload == "convolve":
        return item
    return item[1] if workload == "cli" else item[0]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_convolve(item):
    """The free Poisson identity and the first step of the reciprocal chain.

    ``X = mu(a,b,-l)`` and ``Y = nu(1/a,l)`` at 1024 nodes: the law of
    ``X + Y`` must be ``mu(a,b,l)`` (Kolmogorov 1e-4) and that of
    ``(X + Y)^-1`` must be ``mu(b,a,-l)`` (1e-3, the chain's stage gate);
    the series and quadrature-oracle coefficients of the fixed point at
    ``(a, l)`` must agree to 1e-6.
    """
    alpha, beta, lam = item
    v = Verdict()

    def series_vs_oracle():
        return C.compare_series(C.series_coefficients(alpha, lam, 8),
                                C.oracle_coefficients(alpha, lam, 8))

    dev = v.run("series_vs_oracle", series_vs_oracle)
    if dev is not None:
        v.gate("series_vs_oracle", dev, 1e-6)
    x_law = v.run("build", lambda: M.build_fgig(
        P.NaturalParams(alpha, beta, -lam), 1024))
    y_law = v.run("build", lambda: M.build_free_poisson(
        M.FreePoissonParams(1.0 / alpha, lam), 1024))
    if x_law is None or y_law is None:
        return v
    out = v.run("free_convolve", lambda: V.free_convolve(x_law, y_law))
    if out is not None:
        def distance(law, params):
            return M.kolmogorov_distance(law, M.build_fgig(params, 1024))

        d = v.run("kolmogorov", lambda: distance(
            out, P.NaturalParams(alpha, beta, lam)))
        if d is not None:
            v.gate("kolmogorov", d, 1e-4)
        d = v.run("reciprocal", lambda: distance(
            M.pushforward_reciprocal(out), P.NaturalParams(beta, alpha, -lam)))
        if d is not None:
            v.gate("reciprocal", d, 1e-3)
    return v


def probe_subordination(item):
    """Iterations of the subordination solve at five points on the
    smallest ladder rung, for the laws ``check_convolve(item)`` adds.

    Not part of the check: the traced run calls it untimed and untraced.
    A point where the solve fails is skipped.
    """
    alpha, beta, lam = item
    try:
        x_law = M.build_fgig(P.NaturalParams(alpha, beta, -lam), 1024)
        y_law = M.build_free_poisson(M.FreePoissonParams(1.0 / alpha, lam),
                                     1024)
    except (NumericError, DomainError):
        return []
    lo = x_law.support[0] + y_law.support[0]
    hi = x_law.support[1] + y_law.support[1]
    iterations = []
    for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
        try:
            iterations.append(V.subordination_at(
                x_law, y_law,
                lo + frac * (hi - lo) + 1j * SMALLEST_RUNG).iterations)
        except NumericError:
            pass
    return iterations


def _perturbations(p):
    # the competitor set of `fgig entropy`
    return [1.1, 0.9,
            P.NaturalParams(p.alpha, p.beta, p.lam + 0.2),
            P.NaturalParams(p.alpha, p.beta, p.lam - 0.2),
            P.NaturalParams(p.alpha * 1.1, p.beta, p.lam)]


def check_desk(item):
    """Every light claim at one triple; no convolution."""
    (alpha, beta, lam), zs = item
    p = P.NaturalParams(alpha, beta, lam)
    v = Verdict()

    def roots():
        P.solve_support(p)
        return P.spectral_roots(p)

    r = v.run("roots", roots)
    if r is not None:
        v.gate("roots", abs(4.0 * beta * r.eta * r.delta ** 2 - alpha ** 2)
               / alpha ** 2, 1e-12)

    m = v.run("build", lambda: M.build_fgig(p))
    if m is not None:
        v.gate("build", abs(m.mass() - 1.0), 1e-10)

    cert = v.run("fid", lambda: T.fid_certificate(p))
    if cert is not None:
        v.gate("fid", max(cert.max_imag, 0.0), cert.tol)

    def levy():
        t = L.levy_triplet(p)
        err = max(abs(z * T.r_fgig(p, z) - L.reconstruct_cumulant(t, z))
                  for z in zs)
        return max(err, abs(t.drift), abs(t.semicircular))

    err = v.run("levy", levy)
    if err is not None:
        v.gate("levy", err, 1e-6)

    fsd = v.run("fsd", lambda: L.fsd_report(p))
    if fsd is not None:
        v.require("fsd", fsd.agrees)

    scan = v.run("maximality", lambda: E.maximality_scan(p, _perturbations(p)))
    if scan is not None:
        v.require("maximality", all(mg > 0 for _, _, mg in scan.entries))

    gap = v.run("entropy", lambda: abs(E.gig_entropy(alpha, beta, lam)
                                       - E.gibbs_bound(alpha, beta, lam)))
    if gap is not None:
        v.gate("entropy", gap, 1e-6)

    curve = v.run("limits", lambda: A.convergence_curve(
        alpha, lam, [1e-2, 1e-3, 1e-4]))
    if curve is not None:
        v.gate("limits", curve[-1], 0.05)
    return v


def cli_argv(item):
    sub, (alpha, beta, lam) = item
    if sub == "limits":
        return [sub, "--alpha", repr(alpha), "--lambda", repr(lam)]
    return [sub, "--alpha", repr(alpha), "--beta", repr(beta),
            "--lambda", repr(lam)]


# report keys holding a gated error, with their tolerance
_CLI_GATED = {"reconstruction_residual": 1e-6, "gibbs_gap": 1e-6,
              "max_imag": 1e-9}


def _cli_verdicts(obj, v, sub):
    """Walk a report: every ``passed``/``routes_agree`` must be true.

    The gated errors the report carries only feed ``gate_ratio``; the
    report's own verdict fields decide pass or fail.
    """
    if isinstance(obj, dict):
        for key, val in obj.items():
            if key in ("passed", "routes_agree"):
                v.require(sub, val is True)
            elif key in ("tolerance", "tolerances"):
                continue
            elif key in _CLI_GATED and isinstance(val, (int, float)):
                v.note_ratio(max(val, 0.0) / _CLI_GATED[key])
            else:
                _cli_verdicts(val, v, sub)
    elif isinstance(obj, list):
        for val in obj:
            _cli_verdicts(val, v, sub)


_CLI_EXIT_KIND = {2: "DomainError", 3: "NumericError"}


def check_cli(item, env):
    """One fresh ``python -m fgig.cli`` process; exit 0 and verdicts true.

    A crash is classed by the exception name on the last stderr line.
    """
    sub = item[0]
    v = Verdict()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fgig.cli"] + cli_argv(item),
            capture_output=True, env=env, timeout=120)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        v.failures.append((sub, "timeout"))
        return v
    if proc.returncode != 0:
        kind = _CLI_EXIT_KIND.get(proc.returncode)
        if kind is None:
            lines = proc.stderr.decode(errors="replace").strip().splitlines()
            kind = (lines[-1].split(":")[0] if lines else "") \
                or f"exit{proc.returncode}"
        v.failures.append((sub, kind))
        return v
    try:
        report = json.loads(proc.stdout)
    except ValueError:
        v.failures.append((sub, "bad-json"))
        return v
    _cli_verdicts(report, v, sub)
    return v


"""Command-line front end: constants tables, testing, simulation grids, verify.

All tabular output is CSV with a manifest embedded as leading '#' comment
lines (version, subcommand, every parsed argument as typed, timestamp) so
every file records how to reproduce it.  Numeric fields use round-trip decimal
formatting with '.' as the separator regardless of locale.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 numeric
failure (calibration non-convergence).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from . import constants as cmod
from . import oracle, simlab, svg
from .core import CriticalConstants, Gamma
from .engine import step_down, step_up
from .pairdist import EquicorrelatedPairs

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _timestamp() -> str:
    # overridable so pipelines (and tests) can produce byte-identical files
    env = os.environ.get("FDPCTL_TIMESTAMP")
    if env:
        return env
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# where the output goes, how fast it is made or what it logs, not what it holds
_UNECHOED = ("subcommand", "output", "svg", "threads", "log_level")


def _manifest(args, **derived) -> list:
    """Echo every parsed argument in parser order, then the derived values."""
    lines = [f"# fdpctl {__version__} {args.subcommand}"]
    lines += [f"# {key}={_fmt(val)}" for key, val in {**vars(args), **derived}.items()
              if key not in _UNECHOED]
    lines.append(f"# timestamp={_timestamp()}")
    return lines


def _emit(lines, path):
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_gamma(text: str) -> Gamma:
    gamma = Gamma.parse(text)
    if "/" not in text:
        print(f"note: --gamma {text} interpreted as exact fraction {gamma}",
              file=sys.stderr)
    return gamma


def _parse_floats(text: str) -> list:
    return [float(tok) for tok in text.split(",") if tok]


# ---------------------------------------------------------------------------
# constants

def _pairwise(args):
    """F for a family that needs one, from --rho; None otherwise."""
    if not cmod.FAMILIES[args.family].pairwise:
        return None
    if args.rho is None:
        raise UsageError(f"family {args.family} needs --rho")
    return EquicorrelatedPairs(args.rho)


def cmd_constants(args) -> int:
    gamma = _parse_gamma(args.gamma)
    report = cmod.family_report(args.family, args.n, gamma, args.k, args.alpha,
                                template=args.template, F=_pairwise(args))
    lines = _manifest(args)
    lines.append("i,alpha_i")
    for i, value in enumerate(report.constants.values, start=1):
        lines.append(f"{i},{_fmt(float(value))}")
    if report.scale is not None:
        lines.append(f"C,{_fmt(report.scale)}")
    if report.beta_star is not None:
        lines.append(f"beta_star,{_fmt(report.beta_star)}")
    _emit(lines, args.output)
    return 0


# ---------------------------------------------------------------------------
# test

def _read_pvalues(path: str) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = [ln.strip() for ln in fh]
    except OSError as exc:
        raise UsageError(f"cannot read p-value file: {exc}")
    vals = []
    for ln in raw:
        if not ln or ln.startswith("#"):
            continue
        try:
            vals.append(float(ln))
        except ValueError:
            raise UsageError(f"not a p-value: {ln!r}")
    if not vals:
        raise UsageError(f"no p-values found in {path}")
    arr = np.asarray(vals)
    if not ((arr >= 0.0) & (arr <= 1.0)).all():
        raise UsageError("p-values must lie in [0, 1]")
    return arr


# the flags --constants does not read, and their defaults
_FAMILY_ONLY = {"gamma": None, "alpha": 0.05, "template": "lr", "rho": None}


def cmd_test(args) -> int:
    given = [f"--{key}" for key in _FAMILY_ONLY if getattr(args, key) is not None]
    if args.constants is not None and given:
        raise UsageError(f"--constants does not read {', '.join(given)}")
    vars(args).update({key: default for key, default in _FAMILY_ONLY.items()
                       if getattr(args, key) is None})
    p = _read_pvalues(args.pvalues)
    if args.constants is not None:
        vals = np.asarray(_parse_floats(args.constants))
        if vals.size != p.size:
            raise UsageError(f"{vals.size} constants for {p.size} p-values")
        constants = CriticalConstants(values=vals, k=args.k)
    else:
        if args.gamma is None:
            raise UsageError("family-based constants need --gamma")
        gamma = _parse_gamma(args.gamma)
        spec = simlab.ProcedureSpec(name=args.family, direction=args.direction,
                                    family=args.family, k=args.k,
                                    template=args.template)
        constants = simlab.procedure_constants(spec, p.size, gamma, args.alpha,
                                               F=_pairwise(args))
    run = step_down if args.direction == "sd" else step_up
    result = run(p, constants)
    rejected = set(result.rejected)
    lines = _manifest(args, n=p.size)
    lines.append("index,p,critical,rejected")
    order = np.argsort(p, kind="stable")
    rank_of = np.empty(p.size, dtype=int)
    rank_of[order] = np.arange(p.size)
    for idx in range(p.size):
        crit = constants.values[rank_of[idx]]
        lines.append(f"{idx + 1},{_fmt(float(p[idx]))},{_fmt(float(crit))},"
                     f"{1 if idx in rejected else 0}")
    lines.append(f"R,{result.r}")
    _emit(lines, args.output)
    return 0


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    gamma = _parse_gamma(args.gamma)
    tokens = [tok for tok in args.procedures.split(",") if tok]
    if not tokens:
        raise UsageError("empty --procedures list")
    procedures = [simlab.build_procedure(tok, k=args.k, template=args.template)
                  for tok in tokens]
    model = simlab.DependenceModel.parse(args.dependence)
    rhos = _parse_floats(args.rho)
    pi0s = _parse_floats(args.pi0)
    if not rhos or not pi0s:
        raise UsageError("empty sweep axis")
    base = simlab.MonteCarloConfig(
        n=args.n, pi0=pi0s[0], gamma=gamma, alpha=args.alpha,
        effect=args.effect, reps=args.reps, seed=args.seed,
        model=replace(model, rho=rhos[0]),
    )
    reports = simlab.run_grid(base, procedures, rhos=rhos, pi0s=pi0s,
                              threads=args.threads)
    manifest = _manifest(args)
    lines = manifest + [
        "procedure,rho,pi0,gamma,k,exceedance,exceedance_se,power,power_se"]
    for rep in reports:
        cfg = rep.config
        lines.append(
            f"{rep.procedure},{_fmt(cfg.model.rho)},{_fmt(cfg.pi0)},{cfg.gamma},"
            f"{args.k},{_fmt(rep.exceedance)},{_fmt(rep.exceedance_se)},"
            f"{_fmt(rep.power)},{_fmt(rep.power_se)}"
        )
    _emit(lines, args.output)
    if args.svg:
        _write_svg(args, reports, rhos, tokens, manifest)
    return 0


def _write_svg(args, reports, rhos, tokens, manifest_lines):
    by_proc_exc = {tok: [] for tok in tokens}
    by_proc_pow = {tok: [] for tok in tokens}
    for rho in rhos:
        for tok in tokens:
            cell = [r for r in reports
                    if r.procedure == tok and r.config.model.rho == rho]
            by_proc_exc[tok].append(float(np.mean([r.exceedance for r in cell])))
            powers = [r.power for r in cell if r.power is not None]
            by_proc_pow[tok].append(float(np.mean(powers)) if powers else float("nan"))
    doc = svg.line_panels_svg(
        [
            ("Exceedance rate", "Pr(FDP exceedance)", rhos, by_proc_exc, args.alpha),
            ("Average power", "E[S / n1]", rhos, by_proc_pow, None),
        ],
        x_label="rho",
        comment="\n".join(manifest_lines),
    )
    with open(args.svg, "w", encoding="utf-8") as fh:
        fh.write(doc)


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    if args.suite == "all":
        suites = ("lemmas", "constants", "pairdist")
    else:
        suites = (args.suite,)
    report = oracle.run_suite(suites=suites, fuzz_count=args.fuzz_count,
                              seed=args.seed)
    name_w = max(len(row.name) for row in report.rows)
    print(f"{'check'.ljust(name_w)}  instances  violations  seconds  status")
    for row in report.rows:
        status = "PASS" if row.violations == 0 else "FAIL"
        print(f"{row.name.ljust(name_w)}  {row.instances:9d}  "
              f"{row.violations:10d}  {row.elapsed:7.2f}  {status}")
        if row.first_failure:
            print(f"  first failure: {row.first_failure}")
    return 0 if report.ok else 2


# ---------------------------------------------------------------------------
# wiring

def _add_constant_flags(sub, source=None):
    """The family flags; ``source`` is the group --family joins, if any."""
    (sub if source is None else source).add_argument(
        "--family", required=source is None, choices=tuple(cmod.FAMILIES))
    sub.add_argument("--gamma", required=source is None,
                     help="exceedance threshold, e.g. 1/10 or 0.1")
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--k", type=int, default=1)
    sub.add_argument("--template", choices=("lr", "bh", "gbs"))
    sub.add_argument("--rho", type=float, default=None,
                     help="equicorrelation of the pairwise null model")
    sub.add_argument("-o", "--output", default=None, help="CSV output path")
    if source is None:  # test sets them once it has seen which were given
        sub.set_defaults(**_FAMILY_ONLY)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fdpctl", description=__doc__)
    parser.add_argument("--log-level", dest="log_level", default=None,
                        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                        help="log the 'fdpctl' logger's records to stderr")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_const = sub.add_parser("constants", help="print a critical-constant table")
    p_const.add_argument("--n", type=int, required=True)
    _add_constant_flags(p_const)

    p_test = sub.add_parser("test", help="apply a procedure to a p-value file")
    p_test.add_argument("--pvalues", required=True)
    p_test.add_argument("--direction", required=True, choices=("su", "sd"))
    source = p_test.add_mutually_exclusive_group(required=True)
    source.add_argument("--constants", default=None,
                        help="explicit comma list of critical constants")
    _add_constant_flags(p_test, source)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo grid")
    p_sim.add_argument("--procedures", required=True,
                       help="comma list, e.g. lr-sd,lr-su,thm34-su")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--pi0", default="0.5", help="comma list of pi0 values")
    p_sim.add_argument("--rho", default="0", help="comma list of correlations")
    p_sim.add_argument("--gamma", required=True)
    p_sim.add_argument("--k", type=int, default=1)
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--effect", type=float, default=simlab.DEFAULT_EFFECT)
    p_sim.add_argument("--reps", type=int, default=2000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--dependence", default="uniform",
                       help="uniform | block:<size> | ar1")
    p_sim.add_argument("--template", choices=("lr", "bh", "gbs"), default="lr")
    p_sim.add_argument("--threads", type=int,
                       default=int(os.environ.get("FDPCTL_THREADS", "1")))
    p_sim.add_argument("--svg", default=None, help="also plot the grid to SVG")
    p_sim.add_argument("-o", "--output", default=None)

    p_ver = sub.add_parser("verify", help="run the brute-force oracle suite")
    p_ver.add_argument("--suite", default="all",
                       choices=("lemmas", "constants", "pairdist", "all"))
    p_ver.add_argument("--fuzz-count", dest="fuzz_count", type=int, default=100_000)
    p_ver.add_argument("--seed", type=int, default=20240901)
    return parser


_COMMANDS = {
    "constants": cmd_constants,
    "test": cmd_test,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
}


@contextmanager
def _log_to_stderr(level):
    """With ``level`` set, log the 'fdpctl' logger to one stderr handler;
    both are undone on exit, so repeated in-process runs stack nothing."""
    if level is None:
        yield
        return
    logger = logging.getLogger("fdpctl")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    old_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(level)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(old_level)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        with _log_to_stderr(args.log_level):
            return _COMMANDS[args.subcommand](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except cmod.CalibrationError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

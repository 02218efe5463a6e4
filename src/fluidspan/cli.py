"""Command-line entry point.

    fluidspan run    --config FILE [--out DIR]
    fluidspan sweep  --config FILE --deltas d1,d2,...
    fluidspan bounds --model {generic|boussinesq|iie|iie-continuation|mhd}
                     --c C [--delta D] [--log10-delta L] [--out DIR]
    fluidspan verify --suite {fast|full}

Exit codes: 0 ok, 1 verification failure, 2 config error (also a given
path that cannot be read or written), 3 instability, 4 hypothesis
violation, 5 solver failure (elliptic non-convergence or vacuum).
FLUIDSPAN_THREADS caps the sweep worker pool.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .bootstrap import (
    ClosureSpec,
    boussinesq_bound,
    closure_lifespan,
    growth_constants,
    iie_continuation_budget,
    iie_lifespan,
    mhd_certificate,
    mhd_constants,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    FluidspanError,
    HypothesisError,
    InstabilityError,
    NestedLogDomainError,
    ParameterError,
    VacuumError,
)
from .harness import parse_config_file, run_to_directory, sweep

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_INSTABILITY = 3
EXIT_HYPOTHESIS = 4
EXIT_SOLVER = 5


def _build_parser():
    parser = argparse.ArgumentParser(prog="fluidspan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one configured run")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)

    p_sweep = sub.add_parser("sweep", help="run a descending delta sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--deltas", required=True,
                         help="comma-separated, strictly descending")
    p_sweep.add_argument("--out", default=None)

    p_bounds = sub.add_parser("bounds", help="closed-form lifespan constants")
    p_bounds.add_argument("--model", required=True,
                          choices=["generic", "boussinesq", "iie",
                                   "iie-continuation", "mhd"])
    # numbers are parsed by _number, so a bad one is a config error (exit 2)
    p_bounds.add_argument("--c", default="3.0")
    p_bounds.add_argument("--delta", default=None)
    p_bounds.add_argument("--log10-delta", default=None)
    p_bounds.add_argument("--c1", default="1.0")
    p_bounds.add_argument("--c2", default="1.0")
    p_bounds.add_argument("--c3", default="1.0")
    p_bounds.add_argument("--kappa", default="1")
    p_bounds.add_argument("--zeta", default="1")
    p_bounds.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--suite", required=True)
    return parser


def _number(option, text):
    """The finite float that an option's text spells; otherwise a ConfigError."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"{option} expects a finite number, got {text!r}")
    return x


def _log_delta(args):
    """log(delta) from --delta or --log10-delta; None when neither is given."""
    if args.delta is not None:
        delta = _number("--delta", args.delta)
        if delta <= 0:
            raise ConfigError(f"--delta must be positive, got {args.delta!r}")
        return math.log(delta)
    if args.log10_delta is not None:
        return _number("--log10-delta", args.log10_delta) * math.log(10.0)
    return None


def _cmd_run(args):
    config = parse_config_file(args.config)
    result = run_to_directory(config, out_dir=args.out)
    print(f"run finished: t = {result.final_time:.6g}, status = {result.status}, "
          f"{result.termination}")
    return result.status if result.status else EXIT_OK


def _cmd_sweep(args):
    config = parse_config_file(args.config)
    deltas = [_number("--deltas", tok) for tok in args.deltas.split(",") if tok.strip()]
    rows = sweep(config, deltas, out_dir=args.out)
    for row in rows:
        if row["unconditional"]:
            t_emp = "unconditional"
        elif row["T_emp"] is None:
            t_emp = "> t_end"
        else:
            t_emp = f"{row['T_emp']:.6g}"
        print(f"delta = {row['delta']:.3e}  T_emp = {t_emp}  "
              f"T_resolution = {row['T_resolution']}  T_theory = {row['T_theory']}")
    return EXIT_OK


def _log_grid(bound):
    out = []
    for shift in (0.0, 2.0, 5.0, 10.0, 20.0, 50.0):
        log_delta = bound.log_delta0 - shift
        try:
            t = bound.time_of_log_delta(log_delta)
        except NestedLogDomainError:
            continue
        out.append((log_delta / math.log(10.0), t))
    return out


def _cmd_bounds(args):
    c = _number("--c", args.c)
    log_delta = _log_delta(args)
    report = {"model": args.model, "C": c}
    lines = []
    if args.model == "generic":
        try:
            spec = ClosureSpec(kappa=tuple(_number("--kappa", x) for x in args.kappa.split(",")),
                               zeta=tuple(_number("--zeta", x) for x in args.zeta.split(",")),
                               c1=_number("--c1", args.c1), c2=_number("--c2", args.c2),
                               c3=_number("--c3", args.c3))
        except ParameterError as exc:  # an input out of the closure's domain
            raise ConfigError(str(exc)) from None
        bound = closure_lifespan(spec)
        report.update(C0=bound.c0, log10_delta0=bound.log10_delta0)
        lines.append(f"C0 = {bound.c0:.12g}")
        lines.append(f"log10(delta0) = {bound.log10_delta0:.12g}")
    elif args.model == "boussinesq":
        lam = growth_constants(c)
        bound = boussinesq_bound(lam)
        report.update(Lambda1=lam.lambda1, Lambda2=lam.lambda2,
                      Lambda3=lam.lambda3, Lambda4=lam.lambda4,
                      C0=bound.c0, log10_delta0=bound.log10_delta0)
        lines.append(f"Lambda = ({lam.lambda1:.12g}, {lam.lambda2:.12g}, "
                     f"{lam.lambda3:.12g}, {lam.lambda4:.12g})")
        lines.append(f"C0 = {bound.c0:.12g}")
        lines.append(f"log10(delta0) = {bound.log10_delta0:.12g}")
    elif args.model == "iie":
        bound = iie_lifespan(c)
        report.update(C0=bound.c0, log10_delta0=bound.log10_delta0)
        lines.append(f"C0 = {bound.c0:.12g}")
        lines.append(f"log10(delta0) = {bound.log10_delta0:.12g}")
    elif args.model == "iie-continuation":
        budget = iie_continuation_budget(c)
        report.update(log10_delta0_bound=budget.log10_delta0_bound)
        lines.append(f"log10(delta0 bound) = {budget.log10_delta0_bound:.12g}")
        if log_delta is not None:
            u = budget.budget_of_log_delta(log_delta)
            report["U_budget"] = u
            lines.append(f"U budget = {u:.12g}")
        bound = None
    else:  # mhd
        consts, bound = mhd_constants(c)
        cert = mhd_certificate(consts)
        report.update(C1=consts.c1, C2=consts.c2, C3=consts.c3, C4=consts.c4,
                      C4_prime=consts.c4_prime, log10_delta0=consts.log10_delta0,
                      gamma_at_delta0=consts.gamma_at_delta0,
                      log_f_at_delta0=consts.log_f_at_delta0,
                      certificate=cert)
        lines.append(f"C1 = {consts.c1:.12g}, C2 = {consts.c2:.12g}, "
                     f"C3 = {consts.c3:.12g}, C4 = {consts.c4:.12g}")
        lines.append(f"C4' = {consts.c4_prime:.12g}")
        lines.append(f"log10(delta0) = {consts.log10_delta0:.12g}")
        lines.append(f"gamma(delta0) = {consts.gamma_at_delta0:.12g}")
        lines.append(f"log f(delta0) = {consts.log_f_at_delta0:.12g} (< 0)")
        lines.append(f"certificate: {cert}")

    if bound is not None:
        if log_delta is not None:
            t = bound.time_of_log_delta(log_delta)
            report["T_delta"] = t
            lines.append(f"T(delta) = {t:.12g}")
        else:
            grid = _log_grid(bound)
            report["T_grid"] = grid
            for l10, t in grid:
                lines.append(f"log10(delta) = {l10:.6g}  ->  T = {t:.12g}")

    for line in lines:
        print(line)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "bounds.json"), "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
    return EXIT_OK


def _cmd_verify(args):
    if args.suite not in ("fast", "full"):
        print(f"unknown suite '{args.suite}' (expected fast or full)", file=sys.stderr)
        return EXIT_CONFIG
    from .acceptance import run_suite

    results = run_suite(args.suite)
    failed = [r for r in results if not r.passed]
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"[{tag}] {r.name} ({r.runtime:.1f}s): {r.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_VERIFY if failed else EXIT_OK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            code = _cmd_run(args)
        elif args.command == "sweep":
            code = _cmd_sweep(args)
        elif args.command == "bounds":
            code = _cmd_bounds(args)
        else:
            code = _cmd_verify(args)
    except (HypothesisError, NestedLogDomainError) as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        code = EXIT_HYPOTHESIS
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except InstabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        code = EXIT_INSTABILITY
    except (ConvergenceError, VacuumError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        code = EXIT_SOLVER
    except OSError as exc:  # the CLI reads and writes only the paths it was given
        print(f"config error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except FluidspanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_VERIFY
    return code


if __name__ == "__main__":
    sys.exit(main())

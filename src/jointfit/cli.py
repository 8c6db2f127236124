"""Command-line front end: fit, predict, and the mlsurv wrapper.

Exit codes: 0 success, 2 parse/validation error or a model that cannot be
evaluated, 3 non-convergence (the best point is still written, flagged as
not converged).
"""

import argparse
import csv
import sys

import numpy as np

from . import families
from .data import DataError, build_levels, load_table
from .estimation import (ConvergenceError, FitControls, fit_from_json,
                         fit_to_json, maximize, summary_table)
from .evaluator import EvalError, Evaluator
from .formula import (ModelSpec, ParseError, SpecError, parse_component,
                      parse_model, parse_number, parse_spec_text, validate_spec)
from .prediction import FittedModel, PredictRequest, predict_stat
from .userfam import UserFamilyError


def _add_common(p):
    p.add_argument("--data", required=True, help="CSV data file")
    p.add_argument("--na-token", default="NA")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--out", default=None, help="output path")


def _numbers(flag, text, kind=float, count=None):
    """The comma-separated numbers of a flag's value, as kind; a
    ParseError names the flag and the bad token."""
    out = [parse_number(flag, tok, kind) for tok in text.split(",")]
    if count is not None and len(out) != count:
        raise ParseError(f"{flag} expects {count} values, got {text!r}")
    return out


def _parse_at(items):
    out = {}
    for item in items or []:
        for tok in item.split(","):
            k, _, v = tok.partition("=")
            if not v:
                raise ParseError(f"--at expects name=value, got {tok!r}")
            out[k.strip()] = _numbers("--at", v)[0]
    return out


def _load(args, spec):
    data = load_table(args.data, na_token=args.na_token)
    if spec.levels:
        data = build_levels(data, spec.levels)
    return data


def _run_fit(spec, args):
    if args.max_iter < 0:
        raise ParseError(f"--max-iter expects a non-negative integer, got {args.max_iter}")
    data = _load(args, spec)
    validate_spec(spec, data)
    controls = FitControls(max_iter=args.max_iter, seed=args.seed)
    status = 0
    try:
        fit = maximize(spec, data, controls)
    except ConvergenceError as err:
        print(f"warning: {err}", file=sys.stderr)
        fit = err.fit
        status = 3
    print(summary_table(fit))
    out = args.out or "fit.json"
    with open(out, "w") as fh:
        fh.write(fit_to_json(fit) + "\n")
    return status


def cmd_fit(args) -> int:
    if args.spec:
        with open(args.spec) as fh:
            spec = parse_spec_text(fh.read())
    else:
        spec = parse_spec_text(args.inline)
    if args.ip:
        spec.ip = tuple(_numbers("--ip", args.ip, int))
    if args.intmethod:
        spec.intmethod = tuple(args.intmethod.split(","))
    return _run_fit(spec, args)


def cmd_predict(args) -> int:
    with open(args.fit) as fh:
        fit = fit_from_json(fh.read())
    data = load_table(args.data, na_token=args.na_token)
    model = FittedModel(fit, data)
    contrast = None
    if args.contrast:
        name, _, vals = args.contrast.partition("=")
        v1, v2 = _numbers("--contrast", vals, count=2)
        contrast = (name.strip(), v1, v2)
    req = PredictRequest(
        statistic=args.stat,
        predmodel=args.predmodel,
        type=args.type,
        at=_parse_at(args.at),
        contrast=contrast,
        causes=tuple(_numbers("--causes", args.causes, int)) if args.causes else (),
        times=np.asarray(_numbers("--times", args.times)) if args.times else None,
    )
    if req.times is not None and len(req.times) > 1:
        # a time grid replicates each prediction row over the grid
        rows_out = []
        for t in req.times:
            one = PredictRequest(**{**req.__dict__, "times": np.asarray([t])})
            res = predict_stat(model, one)
            for r, tt, v in zip(res["rows"], res["times"], res["values"]):
                rows_out.append((int(r), float(tt), float(v)))
    else:
        res = predict_stat(model, req)
        rows_out = [(int(r), float(tt), float(v))
                    for r, tt, v in zip(res["rows"], res["times"], res["values"])]
    out = args.out or "predictions.csv"
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["row", "time", args.stat])
        w.writerows(rows_out)
    print(f"wrote {len(rows_out)} predictions to {out}")
    return 0


MLSURV_DISTRIBUTIONS = ("exponential", "weibull", "gompertz", "rp",
                        "logchazard", "loghazard")


def expand_mlsurv(formula: str, distribution: str) -> ModelSpec:
    """Expand an mlsurv call to the equivalent full spec.

    rp/logchazard/loghazard get a default df=3 log-time restricted cubic
    spline baseline with event-only knots.
    """
    if distribution not in MLSURV_DISTRIBUTIONS:
        raise ParseError(f"unknown distribution {distribution!r}")
    family = "rp" if distribution == "logchazard" else distribution
    sub = parse_model(formula, family)
    if families.FAMILIES[family].baseline_in_eta:
        sub.timevar = sub.response[0]
        sub.components.append(
            parse_component(f"rcs({sub.timevar}, df = 3, log = TRUE, event = TRUE)"))
    return ModelSpec([sub])


def cmd_mlsurv(args) -> int:
    spec = expand_mlsurv(args.formula, args.distribution)
    return _run_fit(spec, args)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="jointfit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a model spec")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--spec", help="model-spec file")
    g.add_argument("--inline", help="model-spec text")
    p.add_argument("--ip", help="integration points, comma separated per level")
    p.add_argument("--intmethod", help="integration methods per level")
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="post-estimation predictions")
    p.add_argument("--fit", required=True, help="fit JSON file")
    p.add_argument("--stat", required=True)
    p.add_argument("--type", default="fixedonly", choices=["fixedonly", "marginal"])
    p.add_argument("--predmodel", type=int, default=1)
    p.add_argument("--at", action="append", help="name=value[,name=value...]")
    p.add_argument("--contrast", help="name=v1,v2")
    p.add_argument("--causes", help="1-based survival submodel indices")
    p.add_argument("--times", help="comma-separated prediction time grid")
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("mlsurv", help="parametric survival wrapper")
    p.add_argument("--formula", required=True, help="Surv(time, status) ~ terms")
    p.add_argument("--distribution", required=True, choices=MLSURV_DISTRIBUTIONS)
    _add_common(p)
    p.set_defaults(func=cmd_mlsurv)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, SpecError, DataError, EvalError, UserFamilyError,
            FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

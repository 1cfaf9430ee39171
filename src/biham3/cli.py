"""Command-line front end.

Subcommands: ``catalog`` (list built-in systems), ``verify`` (structure
checks, JSON report), ``simulate`` (trajectory CSV with conserved-
quantity monitors), ``discover`` (integral/multiplier nullspace search,
JSON report), ``bracket`` (one-off Poisson bracket evaluation).

Exit codes follow the class of the error alone.  Refused input of any
kind (options, expression text, system files, sizes past a limit)
raises ``expr.InputError`` and exits 2.  A check failure, an
integration abort, a search that cannot decide, an evaluation failure
or a reader that closed stdout early exits 1; success exits 0.  The
environment variable ``BIHAM3_SEED`` overrides the default sampling
seed of ``verify`` and ``discover``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import catalog as cat
from . import expr as ex
from .discover import (
    DiscoveryError,
    annotate,
    build_basis,
    first_integral_search,
    multiplier_search,
    spatial_invariant_search,
)
from .integrate import IntegratorConfig, integrate
from .poisson import poisson_bracket
from .vecfield import ScalarField, VectorField3
from .verify import SampleConfig, verify_structure


def _default_seed():
    env = os.environ.get("BIHAM3_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ex.InputError(f"BIHAM3_SEED must be an integer, got {env!r}")
    return 42


def _parse_params(pairs):
    out = {}
    for p in pairs or ():
        if "=" not in p:
            raise ex.InputError(f"--param expects name=value, got {p!r}")
        k, v = p.split("=", 1)
        try:
            out[k.strip()] = ex.number(v)
        except ex.ParseError as err:
            # the same error, named after its option
            err.args = (f"--param {k.strip()}: {err}",)
            raise
    return out


def _resolve_system(spec, params):
    if spec in cat.BUILTIN_NAMES:
        return cat.instantiate(spec, params)
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            defn = cat.load_system(fh.read())
        return cat.instantiate(defn, params)
    raise ex.InputError(
        f"{spec!r} is neither a built-in system ({', '.join(cat.BUILTIN_NAMES)}) "
        "nor a readable file"
    )


def _write(text, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_catalog(args):
    systems = cat.list_systems()
    if args.json:
        print(json.dumps({"schema": 1, "systems": systems}, indent=2, sort_keys=True))
        return 0
    for s in systems:
        marker = "H1,H2" if s["hamiltonians"] else "no Hamiltonian pair"
        print(f"{s['name']:15s} [{s['frame']}] ({marker})")
        print(f"    constraints: {', '.join(s['constraints'])}")
        print(f"    {s['description']}")
    return 0


def _cmd_verify(args):
    defn = _resolve_system(args.system, _parse_params(args.param))
    cfg = SampleConfig(n=args.samples, seed=args.seed, tol=args.tol)
    report = verify_structure(defn, cfg)
    _write(report.to_json(deterministic=args.deterministic), args.out)
    return 0 if report.passed() else 1


def _cmd_simulate(args):
    defn = _resolve_system(args.system, _parse_params(args.param))
    try:
        init = tuple(float(s) for s in args.init.split(","))
    except ValueError:
        raise ex.InputError(f"--init expects three comma-separated numbers, got {args.init!r}")
    if len(init) != 3:
        raise ex.InputError("--init expects exactly three values")

    monitors = {}
    for name in filter(None, (args.monitors or "").split(",")):
        key = name.strip().lower()
        if key == "h1" and defn.h1 is not None:
            monitors["H1"] = defn.bound_scalar(defn.h1)
        elif key == "h2" and defn.h2 is not None:
            monitors["H2"] = defn.bound_scalar(defn.h2)
        else:
            raise ex.InputError(f"unknown or unavailable monitor {name!r}")

    cfg = IntegratorConfig(
        t0=args.t0,
        t1=args.t1,
        y0=init,
        method=args.method,
        step=args.step,
        rtol=args.tol,
        atol=args.tol,
        max_step=args.max_step,
        sample_dt=args.sample_dt,
    )
    traj = integrate(defn.bound_field(), cfg, monitors=monitors)
    # streamed a block of rows at a time, never held as one string
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            traj.to_csv(fh)
    else:
        traj.to_csv(sys.stdout)
    if not traj.ok():
        print(f"integration aborted: {traj.aborted}", file=sys.stderr)
        return 1
    return 0


def _cmd_discover(args):
    defn = _resolve_system(args.system, _parse_params(args.param))
    weights = None
    if args.weights:
        try:
            lo, hi = args.weights.split("..")
            weights = range(int(lo), int(hi) + 1)
        except ValueError:
            raise ex.InputError(f"--weights expects kmin..kmax, got {args.weights!r}")
    rate = None
    if weights is not None:
        if args.rate:
            rate = ex.parse(args.rate)
        elif defn.param_values and "alpha" in defn.param_values:
            rate = ex.con(defn.param_values["alpha"])
        else:
            rate = ex.ONE
        rate = defn.bound_expr(rate)
    basis = build_basis(args.degree, defn.frame, weights=weights, rate=rate)
    X = defn.bound_field()
    search = {
        "total": first_integral_search,
        "spatial": spatial_invariant_search,
        "multiplier": multiplier_search,
    }[args.functional]
    result = search(X, basis, n=args.samples, seed=args.seed)
    known = [defn.bound_scalar(h) for h in (defn.h1, defn.h2) if h is not None]
    if known:
        result = annotate(result, known)
    _write(result.to_json(), args.out)
    return 0


def _cmd_bracket(args):
    exprs = [ex.parse(s.strip()) for s in args.j.split(";")]
    if len(exprs) != 3:
        raise ex.InputError("--j expects three ';'-separated components")
    f_expr = ex.parse(args.f)
    h_expr = ex.parse(args.h)
    syms = set()
    for e in exprs + [f_expr, h_expr]:
        syms |= e.free_symbols()
    frame = ("x", "y", "z") if (syms & {"x", "y", "z"} and not syms & {"u", "v", "w"}) else ("u", "v", "w")
    J = VectorField3.from_exprs(exprs, frame)
    F = ScalarField(f_expr, frame)
    H = ScalarField(h_expr, frame)
    bracket = poisson_bracket(F, H, J)
    print(bracket.expr)
    if args.at:
        point = {}
        for item in args.at.split(","):
            if "=" not in item:
                raise ex.InputError(f"--at expects name=value pairs, got {item!r}")
            k, v = (s.strip() for s in item.split("=", 1))
            try:
                point[k] = float(v)
            except ValueError:
                raise ex.InputError(f"--at expects numeric values, got {item!r}")
        unbound = bracket.expr.free_symbols() - set(point)
        if unbound:
            raise ex.InputError(f"--at gives no value for {', '.join(sorted(unbound))}")
        try:
            print(f"= {ex.evaluate(bracket.expr, point):.17g}")
        except ex.DomainError as err:
            print(f"evaluation failed: {err}", file=sys.stderr)
            return 1
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="biham3",
        description="bi-Hamiltonian and Nambu structure toolkit for 3D flows",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("catalog", help="list built-in systems")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_catalog)

    v = sub.add_parser("verify", help="run the structure checks")
    v.add_argument("system", help="built-in name or system file path")
    v.add_argument("--param", action="append", metavar="NAME=VALUE")
    v.add_argument("--samples", type=int, default=1000)
    v.add_argument("--seed", type=int, default=None, help="default: BIHAM3_SEED or 42")
    v.add_argument("--tol", type=float, default=1e-12)
    v.add_argument("--out", metavar="REPORT.json")
    v.add_argument("--deterministic", action="store_true", help="omit the timestamp")
    v.set_defaults(func=_cmd_verify)

    s = sub.add_parser("simulate", help="integrate a system, emit CSV")
    s.add_argument("system")
    s.add_argument("--param", action="append", metavar="NAME=VALUE")
    s.add_argument("--init", required=True, metavar="A,B,C")
    s.add_argument("--t0", type=float, default=0.0)
    s.add_argument("--t1", type=float, required=True)
    s.add_argument("--method", choices=("adaptive", "rk4"), default="adaptive")
    s.add_argument("--step", type=float, help="rk4 step size")
    s.add_argument("--tol", type=float, default=1e-10, help="adaptive abs/rel tolerance")
    s.add_argument("--max-step", type=float, default=0.1)
    s.add_argument("--sample-dt", type=float, default=0.01)
    s.add_argument("--monitors", metavar="h1,h2")
    s.add_argument("--out", metavar="TRAJ.csv")
    s.set_defaults(func=_cmd_simulate)

    d = sub.add_parser("discover", help="integral / multiplier nullspace search")
    d.add_argument("system")
    d.add_argument("--param", action="append", metavar="NAME=VALUE")
    d.add_argument("--degree", type=int, required=True)
    d.add_argument("--weights", metavar="KMIN..KMAX")
    d.add_argument("--rate", metavar="EXPR", help="weight rate (default: the system's alpha)")
    d.add_argument(
        "--functional",
        choices=("total", "spatial", "multiplier"),
        default="total",
        help="total dF/dt, spatial grad(F).X, or div(M X)",
    )
    d.add_argument("--samples", type=int, default=None)
    d.add_argument("--seed", type=int, default=None, help="default: BIHAM3_SEED or 42")
    d.add_argument("--out", metavar="DISC.json")
    d.set_defaults(func=_cmd_discover)

    b = sub.add_parser("bracket", help="evaluate a Poisson bracket")
    b.add_argument("--j", required=True, metavar="'E;E;E'", help="Poisson vector components")
    b.add_argument("--f", required=True, metavar="EXPR")
    b.add_argument("--h", required=True, metavar="EXPR")
    b.add_argument("--at", metavar="u=..,v=..,w=..,t=..")
    b.set_defaults(func=_cmd_bracket)
    return p


@functools.cache
def _parser():
    # built once: parse_args leaves the parser as it was
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        # read on every call, so the environment can change between calls
        if "seed" in args and args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except ex.InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (DiscoveryError, ex.ExprError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader of stdout stopped early (``| head``); stdout goes to
        # the null device, or the interpreter's last flush fails again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

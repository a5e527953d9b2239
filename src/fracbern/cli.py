"""Command-line front end.

Exit codes: 0 all verdicts pass, 2 a verdict failed, 3 hypothesis or
configuration error.  Report schema v1.
"""

import argparse
import json
import sys


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def cmd_verify_kernels(args):
    from .kernels import make_kernel, validate_kernel_class
    spec = _load_json(args.spec)
    specs = spec if isinstance(spec, list) else [spec]
    all_ok = True
    for one in specs:
        K = make_kernel(one)
        rep = validate_kernel_class(K, tol_fd=args.tol or 1e-3)
        print("%s n=%d s=%.3g: C1^=%.6g C2^=%.6g C3^=%.6g  %s"
              % (K.family, K.n, K.s, rep["C1_hat"], rep["C2_hat"],
                 rep["C3_hat"], "pass" if rep["pass"] else "FAIL"))
        all_ok = all_ok and rep["pass"]
    return 0 if all_ok else 2


def cmd_run(args):
    """check-inequality, solve and estimate: run the config's scenario
    (the command's own by default) and print its report."""
    from .harness import run_experiment
    config = _load_json(args.config)
    config.setdefault("scenario", args.scenario)
    if args.seed is not None:
        config["seed"] = args.seed
    if args.probes is not None:
        config.setdefault("params", {})["probes"] = args.probes
    report = run_experiment(config, args.out)
    print(json.dumps(report, indent=1, default=float))
    return 0 if report.get("pass") else 2


def cmd_extension(args):
    from .funcspace import gaussian_bump, plane_wave
    from .extension import extend, trace_constant
    config = _load_json(args.config)
    s = float(config.get("s", 0.5))
    kind = config.get("function", "gaussian")
    u = gaussian_bump(1, width=1.0) if kind == "gaussian" else plane_wave(1.0)
    E = extend(u, s)
    rep = E.verify()
    ds, spread = trace_constant(s)
    rep["d_s"] = ds
    rep["d_s_spread"] = spread
    print(json.dumps(rep, indent=1, default=float))
    ok = rep["la_pass"] and rep["sup_pass"] and rep["trace_pass"]
    return 0 if ok else 2


def cmd_report(args):
    import os
    path = os.path.join(args.run_dir, "report.json")
    manifest = os.path.join(args.run_dir, "manifest.json")
    if not os.path.exists(path):
        print("no report.json under %s" % args.run_dir, file=sys.stderr)
        return 3
    with open(manifest) as fh:
        man = json.load(fh)
    with open(path) as fh:
        rep = json.load(fh)
    print("run %s (schema %s, toolkit %s)"
          % (man.get("config_hash"), man.get("schema"), man.get("version")))
    print(json.dumps(rep, indent=1, default=float))
    verdicts = rep.get("verdicts", [])
    return 0 if verdicts and all(verdicts) else 2


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="fracbern",
        description="integro-differential operator and auxiliary-function "
                    "verification toolkit")
    ap.add_argument("--tol", type=float, default=None,
                    help="finite-difference tolerance of verify-kernels")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--probes", type=int, default=None,
                    help="probe count of check-inequality")
    ap.add_argument("--out", default="run-out")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-kernels", help="structural-class validation")
    p.add_argument("spec")
    p.set_defaults(fn=cmd_verify_kernels)

    for name, scenario, text in (
            ("check-inequality", "inequality-check",
             "auxiliary-function checks"),
            ("solve", "solve", "grid solves"),
            ("estimate", "obstacle-semiconcavity",
             "derivative-bound measurements")):
        p = sub.add_parser(name, help=text)
        p.add_argument("config")
        p.set_defaults(fn=cmd_run, scenario=scenario)

    p = sub.add_parser("extension", help="extension-field verification")
    p.add_argument("config")
    p.set_defaults(fn=cmd_extension)

    p = sub.add_parser("report", help="pretty-print a run directory")
    p.add_argument("run_dir")
    p.set_defaults(fn=cmd_report)

    args = ap.parse_args(argv)
    from .bernstein import SearchFailure
    from .nonlocal_ops import QuadratureFailure
    try:
        for flag, reader in (("tol", "verify-kernels"),
                             ("probes", "check-inequality")):
            if getattr(args, flag) is not None and args.command != reader:
                raise ValueError("--%s: only %s reads it" % (flag, reader))
        return args.fn(args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (ArithmeticError, SearchFailure, QuadratureFailure) as exc:
        print("hypothesis error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

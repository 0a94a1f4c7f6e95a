"""Command-line front end.

Every file written embeds the configuration that produced it, and all JSON
is written in one canonical form, so rerunning a command reproduces its
outputs byte for byte.  That configuration is the parsed arguments minus
the input and output paths, plus the values a command works out itself;
moving an instance file around must not change what gets computed from it.

A command that computes something prints its lines and returns its result;
:func:`main` embeds the config in it and writes it to ``-o`` when one is
given, so the rule above is carried out once.  A generator writes its
instance itself, then reports what it wrote, and returns ``None``.

Exit status: 0 on success, 1 on any domain error (bad input file,
infeasible request, exhausted search), 2 on usage errors.
"""

import argparse
import os
import sys

# each command imports the layers it runs when it runs, so a command loads
# neither the layers nor the standard-library modules of the others
from .evaluation import DEFAULT_ORACLE_CAP

# the handler and every input or output path stay out of the embedded config
_NOT_CONFIG = frozenset({"func", "instance", "assignment", "output", "csv"})


def _config(args, **resolved):
    """The parsed arguments minus paths; ``resolved`` sets worked-out values."""
    config = {key: value for key, value in vars(args).items() if key not in _NOT_CONFIG}
    config.update(resolved)
    return config


def _save_generated(instance, args, **resolved):
    from .model import save_instance

    save_instance(instance, args.output, config=_config(args, **resolved))
    print(
        f"wrote {args.output} ({len(instance.agents)} agents, "
        f"{len(instance.resources)} resources, "
        f"{len(instance.beneficiaries)} beneficiaries)"
    )


def _cmd_gen_torus(args):
    from .generators import gen_torus

    _save_generated(gen_torus(args.dim, args.side, args.perturb, args.seed), args)


def _cmd_gen_random(args):
    from .generators import gen_random

    instance = gen_random(
        args.agents,
        args.max_support,
        coeff_range=(args.coeff_min, args.coeff_max),
        seed=args.seed,
    )
    _save_generated(instance, args)


def _cmd_gen_lowerbound(args):
    from .lowerbound import build_adversarial_instance

    instance, meta = build_adversarial_instance(args.d, args.D, args.r, args.R)
    template = meta.template
    _save_generated(instance, args, n_per_side=template.n_per_side, template_girth=template.girth)
    print(f"template girth {template.girth}, degree {template.degree}")


def _cmd_solve(args):
    from .lp import solve_maxmin
    from .model import assignment_to_dict, load_instance

    assignment, omega = solve_maxmin(load_instance(args.instance))
    print(f"omega = {omega:.12g}")
    return {"omega": omega, **assignment_to_dict(assignment)}


def _cmd_run(args):
    from .algorithms import make_algorithm, run_local
    from .evaluation import objective
    from .model import assignment_to_dict, load_instance

    instance = load_instance(args.instance)
    algorithm = make_algorithm(args.algorithm, args.radius)
    assignment = run_local(instance, algorithm)
    if instance.beneficiaries:
        print(f"{algorithm.name}: omega = {objective(instance, assignment):.12g}")
    else:
        print(f"{algorithm.name}: instance has no beneficiaries")
    return {"algorithm": algorithm.name, **assignment_to_dict(assignment)}


def _rounded_down(value):
    """``value`` as ``.12g`` spells it, but rounded down rather than to
    nearest, so that a lower bound printed to twelve digits stays one."""
    from decimal import ROUND_FLOOR, Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 12
        ctx.rounding = ROUND_FLOOR
        down = +Decimal(value)
    # a float holds twelve digits exactly enough for .12g to spell them back
    return f"{float(down):.12g}"


def _cmd_adversary(args):
    from .algorithms import make_algorithm
    from .lowerbound import adversarial_lower_bound

    algorithm = make_algorithm(args.algorithm, args.radius)
    report = adversarial_lower_bound(algorithm, args.d, args.D, args.r, args.R)
    # --seed builds nothing; params keep it, as reports have always carried it
    report["params"]["seed"] = args.seed
    delta = report["delta"]
    print(f"selected tree p = {delta['p']} (delta = {delta['max']:.6g})")
    print(f"omega_alg(sub) = {report['omega_alg_sub']:.12g}")
    ratio = report["certified_ratio"]
    if ratio == "unbounded":
        print("certified ratio: unbounded (the algorithm earned nothing)")
    else:
        print(f"certified ratio >= {_rounded_down(ratio)}")
    print(f"theoretical floor = {report['theoretical_floor']:.12g}")
    report["config"] = _config(args, n_per_side=report["params"]["n_per_side"])
    return report


def _cmd_eval(args):
    from .evaluation import evaluate, write_report_csv
    from .model import assignment_from_dict, load_instance, load_json

    instance = load_instance(args.instance)
    payload = load_json(args.assignment)
    assignment = assignment_from_dict(payload)
    report = evaluate(instance, assignment, R=args.radius, oracle_cap=args.oracle_cap)
    print(f"feasible = {report['feasible']} (max violation {report['max_violation']:.3g})")
    omega = report["omega"]
    print("omega = " + ("undefined" if omega is None else f"{omega:.12g}"))
    if report["omega_star"] is not None:
        print(f"omega* = {report['omega_star']:.12g}")
        ratio = report["ratio"]
        print(f"ratio = {ratio if isinstance(ratio, str) else format(ratio, '.12g')}")
    for note in report["notes"]:
        print(f"note: {note}")
    if args.csv:
        label = os.path.basename(args.instance)
        write_report_csv(args.csv, label, payload.get("algorithm", ""), report)
    return report


def _cmd_growth(args):
    from .hypergraph import growth_factor
    from .model import load_instance

    gamma = growth_factor(load_instance(args.instance), args.radius)
    print(f"gamma({args.radius}) = {gamma.numerator}/{gamma.denominator}")
    return {"gamma": {"numerator": gamma.numerator, "denominator": gamma.denominator}}


def _add_output(p, required=False):
    p.add_argument("-o", "--output", required=required, help="output JSON path")


def _add_algorithm(p):
    p.add_argument(
        "--algorithm",
        required=True,
        choices=("zero", "safe", "local-avg"),
        help="which local rule to run",
    )
    p.add_argument(
        "--radius",
        type=int,
        default=None,
        help="averaging radius (local-avg only, where it is required)",
    )


def _add_attack(p):
    p.add_argument("-d", type=int, required=True, help="children per packing row")
    p.add_argument("-D", type=int, required=True, help="children per benefit row")
    p.add_argument("-r", type=int, required=True, help="attack radius")
    p.add_argument("-R", type=int, required=True, help="tree parameter, must exceed r")
    p.add_argument("--seed", type=int, default=0, help="recorded only; changes no construction")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="maxminlp",
        description="Generate, solve and probe max-min resource sharing instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-torus", help="grid-of-cells instance on a d-dimensional torus")
    p.add_argument("--dim", type=int, required=True, help="torus dimension")
    p.add_argument("--side", type=int, required=True, help="cells per axis (at least 3)")
    p.add_argument("--perturb", action="store_true", help="draw coefficients from [1/2, 1]")
    p.add_argument("--seed", type=int, default=0)
    _add_output(p, required=True)
    p.set_defaults(func=_cmd_gen_torus)

    p = sub.add_parser("gen-random", help="seeded random instance")
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--max-support", type=int, default=3, help="largest row support")
    p.add_argument("--coeff-min", type=float, default=0.5)
    p.add_argument("--coeff-max", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    _add_output(p, required=True)
    p.set_defaults(func=_cmd_gen_random)

    p = sub.add_parser(
        "gen-lowerbound",
        help="glued hypertree instance used by the adversarial pipeline",
    )
    _add_attack(p)
    _add_output(p, required=True)
    p.set_defaults(func=_cmd_gen_lowerbound)

    p = sub.add_parser("solve", help="exact optimum via the deterministic simplex")
    p.add_argument("instance", help="instance JSON path")
    _add_output(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("run", help="run a local algorithm over every agent")
    p.add_argument("instance", help="instance JSON path")
    _add_algorithm(p)
    _add_output(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("adversary", help="certify a ratio lower bound for an algorithm")
    _add_algorithm(p)
    _add_attack(p)
    _add_output(p)
    p.set_defaults(func=_cmd_adversary)

    p = sub.add_parser("eval", help="feasibility, objective and ratio for an assignment")
    p.add_argument("instance", help="instance JSON path")
    p.add_argument("assignment", help="assignment JSON path (needs a 'values' table)")
    p.add_argument("--radius", type=int, default=None, help="adds the growth certificate")
    p.add_argument(
        "--oracle-cap",
        type=int,
        default=DEFAULT_ORACLE_CAP,
        help="largest instance the exact oracle accepts (default %(default)s)",
    )
    p.add_argument("--csv", default=None, help="also write a one-row CSV report here")
    _add_output(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("growth", help="exact neighbourhood growth factor at a radius")
    p.add_argument("instance", help="instance JSON path")
    p.add_argument("--radius", type=int, required=True)
    _add_output(p)
    p.set_defaults(func=_cmd_growth)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        payload = args.func(args)
        if payload is not None and args.output:
            from .model import dump_json

            dump_json({"config": _config(args), **payload}, args.output)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

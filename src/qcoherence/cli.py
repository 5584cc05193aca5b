"""Command-line front end.

    qcoherence measure STATE [--basis FILE] [--measures LIST] [--c C] [--json|--csv]
    qcoherence distance BASIS_A BASIS_B
    qcoherence experiment {theorem42,prop31,purity,srel} [--n LIST] [--trials T]
                          [--samples S] [--rank R] [--seed SEED] [--c LIST] [--out DIR]

Exit codes: 0 success / experiment pass, 1 experiment fail, 2 usage or parse
error, 3 validation error, 4 I/O error; the README lists what raises each.
This module only parses: the suite runners own every parameter range, so a
bad value is reported after --out is made, which is then removed again (an
unwritable --out with a bad value is E_IO, exit 4).  Every comma list
(--measures, --n, --c) is read by _list.  Every usage error, argparse's
included, returns 2 from main; only --help exits (0).  Every error path
prints a one-line machine code (E_USAGE, E_PARSE, E_VALIDATION, E_NOT_FOUND,
E_IO) on stderr before the human-readable message.  The default seed is the
fixed constant 42, so identical invocations produce byte-identical report files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import experiments
from .distance import basis_distance, is_mutually_unbiased
from .errors import CoherenceError, CounterexampleNotFoundError, MatrixParseError
from .io import read_matrix
from .linalg import OrthonormalBasis, validate_density
from .measures import MEASURES, _check_srel_constant, evaluate_measure, rewrite_in_basis, s_rel

DEFAULT_SEED = 42


# suite -> (runner in experiments, {CLI flag: runner keyword}); a suite
# rejects the flags of the others.
_SUITES = {
    "theorem42": ("run_theorem42_suite", {"n": "n_list", "trials": "trials"}),
    "prop31": ("run_proposition31_suite", {"n": "n_list", "trials": "trials"}),
    "purity": ("run_purity_sweep", {"n": "n_list", "samples": "samples", "rank": "rank"}),
    "srel": ("run_srel_demo", {"c": "c_list"}),
}
_SUITE_FLAGS = tuple(dict.fromkeys(flag for _, flags in _SUITES.values() for flag in flags))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")  # main reports it as E_USAGE, exit 2


def _list(kind):
    """Parser of a comma list of `kind`, each item stripped and blank ones
    skipped; an empty list is an error, so it never falls back to the default."""
    def parse(text: str) -> list:
        values = [kind(x) for x in map(str.strip, text.split(",")) if x]
        if not values:
            raise argparse.ArgumentTypeError("names no value")
        return values

    parse.__name__ = f"{kind.__name__} list"  # argparse names it in "invalid ... value"
    return parse


@functools.cache  # one parser per process: parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qcoherence", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="evaluate coherence measures on a state")
    p.add_argument("state", help="density-matrix file")
    p.add_argument("--basis", help="basis file (default: standard basis)")
    p.add_argument("--measures", type=_list(str), default=list(experiments.THEOREM42_MEASURES),
                   help=f"comma list from {','.join(MEASURES)}")
    p.add_argument("--c", type=float, default=1.0, help="constant for s_rel")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.set_defaults(run=_cmd_measure)

    p = sub.add_parser("distance", help="distance between two bases")
    p.add_argument("basis_a")
    p.add_argument("basis_b")
    p.set_defaults(run=_cmd_distance)

    p = sub.add_parser("experiment", help="run an experiment suite, write CSV")
    p.add_argument("suite", choices=list(_SUITES))
    p.add_argument("--n", type=_list(int), default=None, help="comma list of dimensions")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--c", type=_list(float), default=None, help="comma list of s_rel constants")
    p.add_argument("--rank", type=int, default=None,
                   help="rank of the mixed purity family (default 2)")
    p.add_argument("--out", default=".", help="output directory for CSV reports")
    p.set_defaults(run=_cmd_experiment)
    return parser


def _cmd_measure(args) -> int:
    _check_srel_constant(args.c)  # even when s_rel is not requested
    rho = validate_density(read_matrix(args.state))
    basis = OrthonormalBasis.standard(rho.dim)
    if args.basis:
        basis = OrthonormalBasis.from_columns(read_matrix(args.basis))
    state = rewrite_in_basis(rho, basis)
    values = {}
    for name in args.measures:
        values[name] = s_rel(state, args.c) if name == "s_rel" else evaluate_measure(state, name)
    if args.json:
        print(json.dumps(values))
    elif args.csv:
        print(",".join(values))
        print(",".join(f"{v:.17g}" for v in values.values()))
    else:
        for name, value in values.items():
            print(f"{name} = {value:.12g}")
    return 0


def _cmd_distance(args) -> int:
    a = OrthonormalBasis.from_columns(read_matrix(args.basis_a))
    b = OrthonormalBasis.from_columns(read_matrix(args.basis_b))
    unbiased = is_mutually_unbiased(a, b)
    print(f"distance = {basis_distance(a, b):.12g}")
    print(f"mutually_unbiased = {str(unbiased).lower()}")
    return 0


def _cmd_experiment(args) -> int:
    runner, flags = _SUITES[args.suite]
    for flag in _SUITE_FLAGS:
        if flag not in flags and getattr(args, flag) is not None:
            raise ValueError(f"--{flag} does not apply to experiment {args.suite}")
    kwargs = {kw: v for flag, kw in flags.items() if (v := getattr(args, flag)) is not None}
    # Fail on an unusable --out before the run, not after it; if the run
    # fails, remove the directories made here again, innermost first.
    out_dir = Path(args.out)
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        report = getattr(experiments, runner)(seed=args.seed, **kwargs)
    except BaseException:
        for d in made:
            d.rmdir()
        raise
    path = out_dir / f"{args.suite}.csv"
    experiments.write_report(report, path)
    print(f"{path}: {'pass' if report.verdict else 'fail'} ({len(report.rows)} rows)")
    return 0 if report.verdict else 1


# (type, machine code, exit code) of escaped errors; a subclass precedes its base.
_ERRORS = (
    (MatrixParseError, "E_PARSE", 2),
    (CounterexampleNotFoundError, "E_NOT_FOUND", 1),
    (CoherenceError, "E_VALIDATION", 3),
    (ValueError, "E_USAGE", 2),
    (OSError, "E_IO", 4),
)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except tuple(kind for kind, *_ in _ERRORS) as exc:
        code, status = next((c, s) for kind, c, s in _ERRORS if isinstance(exc, kind))
        print(code, exc, sep="\n", file=sys.stderr)
        return status


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

"""Command-line front end.

    qcoherence measure STATE [--basis FILE] [--measures LIST] [--c C] [--json|--csv]
    qcoherence distance BASIS_A BASIS_B [--mub-tol TOL]
    qcoherence experiment {theorem42,prop31,purity,srel} [--n LIST] [--trials T]
                          [--samples S] [--seed SEED] [--c LIST] [--out DIR]

Exit codes: 0 success / experiment pass, 1 experiment fail, 2 usage or parse
error, 3 validation error, 4 I/O error; the README lists what raises each.
Every error path prints a one-line machine code (E_USAGE, E_PARSE,
E_VALIDATION, E_NOT_FOUND, E_IO) on stderr before the human-readable message.
The default seed is the fixed constant 42, so identical invocations produce
byte-identical report files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import experiments
from .distance import basis_distance, is_mutually_unbiased
from .errors import CoherenceError, CounterexampleNotFoundError, MatrixParseError
from .io import read_basis, read_density
from .linalg import OrthonormalBasis
from .measures import MEASURES, MeasureId, _check_srel_constant, evaluate_measure, rewrite_in_basis

DEFAULT_SEED = 42
DEFAULT_MEASURES = "eta1,eta2,eta_inf,delta"


# suite -> (runner in experiments, (CLI flag, runner keyword) pairs).
_SUITES = {
    "theorem42": ("run_theorem42_suite", (("n", "n_list"), ("trials", "trials"))),
    "prop31": ("run_proposition31_suite", (("n", "n_list"), ("trials", "trials"))),
    "purity": ("run_purity_sweep", (("n", "n_list"), ("samples", "samples"), ("rank", "rank"))),
    "srel": ("run_srel_demo", (("c", "c_list"),)),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print("E_USAGE", file=sys.stderr)
        print(f"{self.prog}: {message}", file=sys.stderr)
        raise SystemExit(2)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


_count = _int_at_least(0)
_positive = _int_at_least(1)


def _dim_list(text: str) -> list[int]:
    return [_positive(x) for x in text.split(",") if x]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qcoherence", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="evaluate coherence measures on a state")
    p.add_argument("state", help="density-matrix file")
    p.add_argument("--basis", help="basis file (default: standard basis)")
    p.add_argument("--measures", default=DEFAULT_MEASURES,
                   help=f"comma list from {','.join(MEASURES)}")
    p.add_argument("--c", type=float, default=1.0, help="constant for s_rel")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")

    p = sub.add_parser("distance", help="distance between two bases")
    p.add_argument("basis_a")
    p.add_argument("basis_b")
    p.add_argument("--mub-tol", type=float, default=1e-9)

    p = sub.add_parser("experiment", help="run an experiment suite, write CSV")
    p.add_argument("suite", choices=list(_SUITES))
    p.add_argument("--n", type=_dim_list, default=None, help="comma list of dimensions")
    p.add_argument("--trials", type=_count, default=None)
    p.add_argument("--samples", type=_count, default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--c", type=_float_list, default=None, help="comma list of s_rel constants")
    p.add_argument("--rank", type=_positive, default=2, help="rank of the mixed purity family")
    p.add_argument("--out", default=".", help="output directory for CSV reports")
    return parser


def _cmd_measure(args) -> int:
    _check_srel_constant(args.c)  # even when s_rel is not requested
    rho = read_density(args.state)
    basis = read_basis(args.basis) if args.basis else OrthonormalBasis.standard(rho.dim)
    state = rewrite_in_basis(rho, basis)
    names = [x.strip() for x in args.measures.split(",") if x.strip()]
    if not names:
        raise ValueError("--measures names no measure")
    values = {}
    for name in names:
        measure = MeasureId(name, args.c) if name == "s_rel" else MeasureId(name)
        values[name] = evaluate_measure(state, measure)
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
    a = read_basis(args.basis_a)
    b = read_basis(args.basis_b)
    unbiased = is_mutually_unbiased(a, b, args.mub_tol)
    print(f"distance = {basis_distance(a, b):.12g}")
    print(f"mutually_unbiased = {str(unbiased).lower()}")
    return 0


def _cmd_experiment(args) -> int:
    runner, flags = _SUITES[args.suite]
    kwargs = {"seed": args.seed}
    for flag, kwarg in flags:
        value = getattr(args, flag)
        if value == []:
            raise ValueError(f"--{flag} names no value")
        if value is not None:
            kwargs[kwarg] = value
    # Fail on an unusable --out before the run, not after it.
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = getattr(experiments, runner)(**kwargs)
    path = out_dir / f"{args.suite}.csv"
    experiments.write_report(report, path)
    print(f"{path}: {'pass' if report.verdict else 'fail'} ({len(report.rows)} rows)")
    return 0 if report.verdict else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "measure":
            return _cmd_measure(args)
        if args.command == "distance":
            return _cmd_distance(args)
        return _cmd_experiment(args)
    except MatrixParseError as exc:
        print("E_PARSE", file=sys.stderr)
        print(str(exc), file=sys.stderr)
        return 2
    except CounterexampleNotFoundError as exc:
        print("E_NOT_FOUND", file=sys.stderr)
        print(str(exc), file=sys.stderr)
        return 1
    except CoherenceError as exc:
        print("E_VALIDATION", file=sys.stderr)
        print(str(exc), file=sys.stderr)
        return 3
    except ValueError as exc:
        print("E_USAGE", file=sys.stderr)
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print("E_IO", file=sys.stderr)
        print(str(exc), file=sys.stderr)
        return 4


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

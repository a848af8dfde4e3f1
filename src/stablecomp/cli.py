"""Command line interface.

Subcommands: sample, cf-check, moments, verify (lemma1|prop1|thm1|cor3),
pd-check, oracle.  Configuration comes from a JSON file, command line
flags, or both (flags override the file).  Exit codes: 0 all checks
passed, 1 at least one failure, 2 usage or configuration error,
3 numerical failure (nonconvergent quadrature or inversion).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

import numpy as np

from .fourier_pd import pd_check
from .homogeneous import euclidean_power, fn_from_json, lp_norm_power, max_abs_power
from .moments import MomentExistenceError, QuadratureFailure, c_pq, c_pq_oracle
from .sampling import Seed, sample_batch
from .spectral import BlockSplit, SpectralRep, char_fn, decouple, marginal_block, scale_q
from .verify import ExperimentConfig, random_rep, run_experiment


def _dimension(value) -> int:
    """The dimension N given on the command line; ValueError unless it is a
    positive integer."""
    n = float(value)
    if not n.is_integer() or n < 1:
        raise ValueError(f"dimension N must be a positive integer, got {value}")
    return int(n)


def _load_rep(args) -> SpectralRep:
    if args.rep:
        with open(args.rep) as fh:
            return SpectralRep.from_json_dict(json.load(fh))
    n, q = args.random_rep
    rng = np.random.Generator(np.random.PCG64(args.seed))
    return random_rep(rng, _dimension(n), float(q))


def _add_rep_args(sp):
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--rep", help="JSON file with a spectral representation")
    group.add_argument("--random-rep", nargs=2, metavar=("N", "Q"), type=float,
                       help="generate a random representation of this dimension and index")


def _add_experiment_args(sp):
    sp.add_argument("--config", help="JSON experiment configuration")
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("-N", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--q", type=float, action="append",
                    help="stability index (repeatable)")
    sp.add_argument("--out-jsonl", default=None)
    sp.add_argument("--out-csv", default=None)
    sp.add_argument("--workers", type=int, default=None)


def _cmd_sample(args) -> int:
    rep = _load_rep(args)
    batch = sample_batch(rep, args.N, Seed(args.seed, args.stream), workers=args.workers)
    if args.format == "csv":
        batch.to_csv(args.out)
    else:
        batch.to_binary(args.out)
    print(f"wrote {len(batch)} draws of dimension {batch.n} to {args.out}")
    return 0


def _cmd_cf_check(args) -> int:
    for flag, value in (("--reps", args.reps), ("--grid", args.grid)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    worst = 0.0
    rng = np.random.Generator(np.random.PCG64(args.seed))
    for _ in range(args.reps):
        rep = _load_rep(args) if args.rep else random_rep(
            rng, int(rng.integers(2, 5)), float(rng.choice([0.7, 1.0, 1.5, 2.0])))
        k = int(rng.integers(1, rep.n))
        dec = decouple(rep, BlockSplit(k))
        g = rng.standard_normal((args.grid, rep.n))
        s = scale_q(rep, g)
        xi = g * (rng.uniform(0.2, 2.0, args.grid) / np.maximum(s, 1e-300))[:, None]
        head = xi.copy()
        head[:, k:] = 0.0
        tail = xi.copy()
        tail[:, :k] = 0.0
        prod_diff = np.abs(char_fn(dec, xi) - char_fn(dec, head) * char_fn(dec, tail))
        marg_diff = np.abs(char_fn(marginal_block(dec, 0, k), xi[:, :k])
                           - char_fn(marginal_block(rep, 0, k), xi[:, :k]))
        worst = max(worst, float(prod_diff.max()), float(marg_diff.max()))
    print(f"max characteristic function deviation over {args.reps} reps: {worst:.3e}")
    return 0 if worst < 1e-12 else 1


def _cmd_moments(args) -> int:
    value = c_pq(args.p, args.q)
    out = {"p": args.p, "q": args.q, "c_pq": value}
    if args.oracle:
        oracle = c_pq_oracle(args.p, args.q)
        out["c_pq_oracle"] = oracle
        out["rel_diff"] = abs(value - oracle) / abs(oracle)
    if args.json:
        print(json.dumps(out, sort_keys=True))
    else:
        for key, val in out.items():
            print(f"{key} = {val}")
    if args.oracle and out["rel_diff"] > 1e-6:
        return 1
    return 0


def _config_from_args(args) -> ExperimentConfig:
    base = {}
    if args.config:
        with open(args.config) as fh:
            base = json.load(fh)
    overrides = {
        "mode": args.mode,
        "trials": args.trials,
        "N": args.N,
        "seed": args.seed,
        "out_jsonl": args.out_jsonl,
        "out_csv": args.out_csv,
        "workers": args.workers,
        "p_value": args.p,
        "n_values": tuple(args.n) if args.n else None,
        "q_values": tuple(args.q) if args.q else None,
    }
    return ExperimentConfig.from_json_dict(
        base, **{key: val for key, val in overrides.items() if val is not None})


def _cmd_verify(args) -> int:
    report = run_experiment(_config_from_args(args))
    print(f"mode={report.config.mode} trials={len(report.records)} "
          f"failures={report.failures} min_margin={report.min_margin:.6g} "
          f"runtime={report.runtime_s:.2f}s")
    return 0 if report.passed else 1


def _cmd_pd_check(args) -> int:
    if args.fn:
        with open(args.fn) as fh:
            f = fn_from_json(fh.read())
    else:
        kind, n, p = args.builtin
        n, p = _dimension(n), float(p)
        makers = {"max-abs": max_abs_power, "euclidean": euclidean_power,
                  "l1": lambda n, p: lp_norm_power(n, 1.0, p)}
        if kind not in makers:
            raise ValueError(f"unknown --builtin KIND {kind!r}; choose from "
                             f"{', '.join(makers)}")
        f = makers[kind](n, p)
    report = pd_check(f, mode=args.mode)
    if args.json:
        print(report.to_json())
    else:
        print(f"verdict: {report.verdict}")
        print(f"min action: {report.min_action:.6e} "
              f"(error bound {report.quadrature_error_bound:.2e})")
        print(f"witness: {report.witness.to_json_dict()}")
    return 1 if report.verdict == "violation" else 0


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and then reused: building it costs
    about 1 ms, some 15% of a small pd-check run in process, and parse_args
    leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="stablecomp",
        description="Construct, sample, and compare symmetric q-stable vectors")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="draw a batch and export it")
    _add_rep_args(sp)
    sp.add_argument("-N", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--stream", type=int, default=0)
    sp.add_argument("--workers", type=int, default=None)
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", choices=("csv", "bin"), default="csv")
    sp.set_defaults(func=_cmd_sample)

    sp = sub.add_parser("cf-check",
                        help="decoupling/marginal characteristic function identities")
    sp.add_argument("--rep", help="JSON representation (default: random reps)")
    sp.add_argument("--reps", type=int, default=20)
    sp.add_argument("--grid", type=int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_cf_check, random_rep=None)

    sp = sub.add_parser("moments", help="absolute moments of the standard stable law")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--oracle", action="store_true",
                    help="also run the quadrature oracle and compare")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_moments)

    sp = sub.add_parser("verify", help="randomized inequality experiments")
    sp.add_argument("mode", choices=("lemma1", "prop1", "thm1", "cor3"))
    _add_experiment_args(sp)
    sp.add_argument("--n", type=int, action="append",
                    help="dimension (repeatable)")
    sp.add_argument("--p", type=float, default=None,
                    help="fixed functional exponent for prop1, thm1 and cor3 "
                         "(default: per-trial random)")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("pd-check",
                        help="numerical positive definiteness scan of a descriptor")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--fn", help="JSON descriptor file")
    group.add_argument("--builtin", nargs=3, metavar=("KIND", "N", "P"),
                       help="KIND in {max-abs, euclidean, l1}")
    sp.add_argument("--mode", choices=("full-space", "away-from-origin"),
                    default="full-space")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_pd_check)

    sp = sub.add_parser("oracle",
                        help="exact cross-check of the two-dimensional "
                             "Monte Carlo margins")
    _add_experiment_args(sp)
    sp.set_defaults(func=_cmd_verify, mode="oracle-crosscheck", n=[2], p=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QuadratureFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (MomentExistenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

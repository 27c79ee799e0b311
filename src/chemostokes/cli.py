"""Command-line interface.

    chemostokes simulate  --config cfg.json [--resume]
    chemostokes sweep     --spec sweep.json
    chemostokes exponents --m 1.25 --ladder psi --cap 1e6
    chemostokes regcheck  --eps 0.1,0.05 [--samples 10000]

Global flags: --output-dir (overrides the config's output.dir / sweep
root), --threads (sweep members run at once, >= 1: 1 runs them in this
process, more on THREADS workers forked from it, so more than 1 needs a
POSIX fork; defaults to the spec's parallel_runs; a single simulate is
always single-process), --seed (when given, overrides the config's seed
in simulate and every member's in sweep; regcheck's sampling seed,
default 0), merged into the config before it is parsed.  The numbers of
exponents and regcheck must be finite, like config numbers.  Exit codes: 0
success, 1 invalid input (configuration, parameters, usage, a damaged run
directory to resume), 2 numerical failure (partial outputs are kept with a
failed manifest).
"""

from __future__ import annotations

import argparse
import math
import sys

from .config import load_json, parse_config, with_overrides
from .errors import ConfigError, NumericalError
from .exponents import run_linear_ladder, run_psi_ladder
from .regularization import run_property_suite
from .solver import run
from .sweep import parse_sweep, run_sweep


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1; subparsers are built from this class too."""
    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _finite(text: str) -> float:
    """A number flag, read like a config number: NaN and inf exit 1."""
    value = float(text)     # a ValueError is reported as an invalid value
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _finite_list(text: str) -> list:
    return [_finite(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chemostokes",
        description="Finite-volume laboratory for a regularized "
                    "chemotaxis-Stokes system")
    parser.add_argument("--output-dir", default=None,
                        help="override the output directory")
    parser.add_argument("--threads", type=int, default=None,
                        help="sweep members run at once, >= 1: more "
                             "than 1 runs them on THREADS workers forked "
                             "from this process (needs a POSIX fork; "
                             "default: the spec's parallel_runs; simulate "
                             "is single-process; results do not depend on "
                             "this)")
    parser.add_argument("--seed", type=int, default=None,
                        help="replaces the config's seed (simulate, every "
                             "sweep member); regcheck's seed (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one configured simulation")
    p_sim.add_argument("--config", required=True, help="config JSON path")
    p_sim.add_argument("--resume", action="store_true",
                       help="continue from the manifest in the output "
                            "directory (bit-exact)")

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("--spec", required=True, help="sweep spec JSON path")

    p_exp = sub.add_parser("exponents",
                           help="print a bootstrap ladder as CSV")
    p_exp.add_argument("--m", type=_finite, required=True,
                       help="nonlinear diffusion exponent")
    p_exp.add_argument("--ladder", choices=("linear", "psi"),
                       default="psi")
    p_exp.add_argument("--cap", type=_finite, default=1e6,
                       help="stop once p exceeds this")
    p_exp.add_argument("--p0", type=_finite, default=1.0,
                       help="linear-ladder start (psi picks its own seed)")

    p_reg = sub.add_parser("regcheck",
                           help="sampled verification of the eps-families")
    p_reg.add_argument("--eps", type=_finite_list, required=True,
                       help="comma-separated eps values, e.g. 0.1,0.05")
    p_reg.add_argument("--samples", type=int, default=10_000)
    return parser


def _cmd_simulate(args) -> int:
    raw = load_json(args.config, "config")
    cfg = parse_config(with_overrides(raw, args.output_dir, args.seed))
    result = run(cfg, resume=args.resume)
    for check in result.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"{check.name}: {status} (max_deviation={check.max_deviation:.6g}"
              f" at t={check.at_time:g})")
    where = result.config.output_dir or "(no output dir)"
    print(f"completed {result.steps_taken} steps to t={result.state.t:g}; "
          f"outputs in {where}")
    return 0


def _cmd_sweep(args) -> int:
    spec = parse_sweep(args.spec)
    out_root = args.output_dir or "sweep_out"
    summaries, path = run_sweep(spec, out_root,
                                workers=args.threads, seed=args.seed)
    failed = [s for s in summaries if s["status"] != "complete"]
    for s in summaries:
        print(f"{s['axis']}={s['value']:g}: {s['status']} "
              f"({s['run_dir']})" + (f" - {s['error']}" if s["error"] else ""))
    print(f"summary: {path}")
    return 2 if failed else 0


def _cmd_exponents(args) -> int:
    if args.ladder == "linear":
        ladder = run_linear_ladder(args.m, args.p0, args.cap)
    else:
        ladder = run_psi_ladder(args.m, args.cap)
    print("k,p_k,gamma_bound,admissible")
    for e in ladder.entries:
        gamma = repr(e.gamma_floor) if e.gamma_floor is not None else ""
        adm = "" if e.certificate is None else \
            ("true" if e.certificate.admissible else "false")
        print(f"{e.k},{e.p!r},{gamma},{adm}")
    print(f"# terminated: {ladder.terminated_reason}", file=sys.stderr)
    return 0


def _cmd_regcheck(args) -> int:
    reports = run_property_suite(args.eps, n_samples=args.samples,
                                 seed=args.seed or 0)
    all_ok = True
    for report in reports:
        for res in report.results:
            status = "pass" if res.passed else "FAIL"
            print(f"eps={report.eps:g} {res.name}: {status} "
                  f"({res.samples} samples, worst {res.worst:.3e})")
        all_ok &= report.all_passed
    print("regcheck: " + ("all properties hold" if all_ok
                          else "PROPERTY FAILURES"))
    return 0 if all_ok else 2


def main(argv=None) -> int:
    handlers = {"simulate": _cmd_simulate, "sweep": _cmd_sweep,
                "exponents": _cmd_exponents, "regcheck": _cmd_regcheck}
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

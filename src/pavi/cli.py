"""Command-line front end: pavi run|sweep|oracle|check|compare."""

from __future__ import annotations

import argparse
import sys

from . import __version__, harness
from .errors import PaviError


_FLAGS = {
    "--seed": dict(type=int, help="override the config seed"),
    "--out": dict(help="output directory or file"),
    "--threads": dict(type=int, help="accepted and ignored; a large sweep forks per CPU"),
}


def _add_common(p, *flags):
    """Add the required --config and the subcommand's own optional flags."""
    p.add_argument("--config", required=True, help="YAML or JSON config document")
    for flag in flags:
        p.add_argument(flag, default=None, **_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pavi",
        description="Particle-based mean-field variational inference harness",
    )
    parser.add_argument("--version", action="version", version=f"pavi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute one run and persist its metrics")
    _add_common(p, "--seed", "--out", "--threads")
    p.add_argument("--resume", action="store_true", help="continue from the checkpoint")

    p = sub.add_parser("sweep", help="replicate runs across particle counts")
    _add_common(p, "--seed", "--out", "--threads")

    p = sub.add_parser("oracle", help="compute and serialize a reference solution")
    _add_common(p, "--out")

    p = sub.add_parser("check", help="validate potential constants by sampling")
    _add_common(p, "--seed")

    p = sub.add_parser("compare", help="print W2 deltas between two results")
    p.add_argument("a", help="report directory or reference file")
    p.add_argument("b", help="report directory or reference file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = None if args.command == "compare" else harness.load_config(args.config)
        if args.command == "run":
            report = harness.cmd_run(
                doc, out_dir=args.out, seed=args.seed, threads=args.threads,
                resume=args.resume,
            )
            s = report.summary
            steady = s.get("steady_mean")
            print(
                f"run complete: {s['n_rows']} rows, final W2 "
                f"{s['final_w2'] if s['final_w2'] is not None else 'n/a'}, "
                f"steady mean {steady if steady is not None else 'n/a'}"
            )
        elif args.command == "sweep":
            result = harness.cmd_sweep(
                doc, out_dir=args.out, seed=args.seed, threads=args.threads
            )
            for e in result.entries:
                # the exact algorithm draws no batch, so its rows carry no B
                batch = f"B={e.B}  " if e.B is not None else ""
                print(
                    f"N={e.N:>6d}  h={e.h:.6g}  {batch}"
                    f"steady W2 {e.mean_w2:.6g} +- {e.se_w2:.2g}"
                )
            print(f"log-log slope {result.slope:.4f} +- {result.slope_stderr:.4f}")
        elif args.command == "oracle":
            out = harness.cmd_oracle(doc, out_path=args.out)
            print(f"reference written to {out}")
        elif args.command == "check":
            passed, lines = harness.cmd_check(doc, seed=args.seed)
            for name, ok, detail in lines:
                print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
            return 0 if passed else 1
        elif args.command == "compare":
            result = harness.cmd_compare(args.a, args.b)
            for key, value in result.items():
                print(f"{key}: {value}")
        return 0
    except PaviError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())

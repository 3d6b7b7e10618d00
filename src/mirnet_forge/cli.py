"""Command-line entry point: train, eval, infer, gradcheck, ablate.

Exit codes: 0 success, 1 verification failure, 2 config or checkpoint error,
3 I/O, data or out-of-memory error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import data as D
from . import pipeline as P
from . import tensor as T
from .checkpoint import CheckpointError
from .config import ConfigError
from .verify import run_gradcheck_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# Checked in order; the first matching row decides the exit code.
EXIT_TABLE = (
    (ConfigError, EXIT_CONFIG, "config error"),
    (CheckpointError, EXIT_CONFIG, "checkpoint error"),
    (P.NumericalError, EXIT_NUMERIC, "numerical failure"),
    ((OSError, D.ParseError, T.ContractError), EXIT_DATA, "data error"),
    (MemoryError, EXIT_DATA, "out of memory"),
)


def main(argv=None) -> int:
    """Run one command; an error of EXIT_TABLE becomes its exit code and one
    `label: message` line on stderr."""
    parser = argparse.ArgumentParser(
        prog="mirnet-forge",
        description="Multi-scale residual image restoration toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the training loop")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", required=True)

    p_eval = sub.add_parser("eval", help="score a checkpoint on a manifest")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--manifest", default=None)

    p_infer = sub.add_parser("infer", help="restore a single image")
    p_infer.add_argument("--config", required=True)
    p_infer.add_argument("--checkpoint", required=True)
    p_infer.add_argument("input")
    p_infer.add_argument("output")

    sub.add_parser("gradcheck", help="finite-difference verification suite")

    p_ablate = sub.add_parser("ablate", help="desk-scale ablation reports")
    p_ablate.add_argument("which", choices=["aggregation", "layout"])
    p_ablate.add_argument("--config", help="required by layout")
    p_ablate.add_argument("--out", required=True)
    p_ablate.add_argument("--train-steps", type=int, default=0)

    args = parser.parse_args(argv)
    try:
        if args.command == "gradcheck":
            reports = run_gradcheck_suite()
            for rep in reports:
                verdict = "ok" if rep.passed else "FAIL"
                print(f"{rep.name}\t{rep.max_rel_err:.3e}\t{verdict}")
            failing = [rep.name for rep in reports if not rep.passed]
            if failing:
                print("failing blocks: " + ", ".join(failing), file=sys.stderr)
                return EXIT_VERIFY
            return EXIT_OK
        if args.command == "ablate":
            if args.train_steps < 0:
                raise ConfigError(f"--train-steps must be >= 0, got {args.train_steps}")
            if args.which == "aggregation" and (args.config is not None or args.train_steps):
                raise ConfigError("ablate aggregation takes no --config "
                                  "and no --train-steps above 0")
            if args.which == "layout" and args.config is None:
                raise ConfigError("ablate layout requires --config")
            lines = (P.aggregation_report() if args.which == "aggregation"
                     else P.layout_report(P.load_config(args.config), args.out,
                                          args.train_steps))
            print("\n".join(lines))
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{args.which}.txt").write_text("\n".join(lines) + "\n")
            return EXIT_OK
        cfg = P.load_config(args.config)
        if args.command == "train":
            P.run_training(cfg, args.out)
        elif args.command == "eval":
            print(P.format_report(P.run_eval(cfg, args.checkpoint, args.manifest)))
        else:
            net = P.load_network(cfg, args.checkpoint)
            D.save_ppm(P.restore_image(net, D.load_ppm(args.input)), args.output)
        return EXIT_OK
    except Exception as exc:
        for types, code, label in EXIT_TABLE:
            if isinstance(exc, types):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())

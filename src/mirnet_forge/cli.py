"""Command-line entry point: train, eval, infer, gradcheck, ablate.

Exit codes: 0 success, 1 verification failure, 2 config or checkpoint error,
3 I/O or data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
)


def _exit_codes(cmd):
    """Map the errors of EXIT_TABLE to their exit code and a stderr line."""
    @functools.wraps(cmd)
    def run(*args, **kwargs):
        try:
            return cmd(*args, **kwargs)
        except Exception as exc:
            for types, code, label in EXIT_TABLE:
                if isinstance(exc, types):
                    print(f"{label}: {exc}", file=sys.stderr)
                    return code
            raise
    return run


@_exit_codes
def cmd_train(config_path: str, out_dir: str, seed: int | None = None) -> int:
    cfg = P.load_config(config_path)
    if seed is not None:
        cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, seed=seed))
    P.run_training(cfg, out_dir)
    return EXIT_OK


@_exit_codes
def cmd_eval(config_path: str, checkpoint_path: str,
             manifest_path: str | None = None) -> int:
    cfg = P.load_config(config_path)
    print(P.format_report(P.run_eval(cfg, checkpoint_path, manifest_path)))
    return EXIT_OK


@_exit_codes
def cmd_infer(config_path: str, checkpoint_path: str,
              in_path: str, out_path: str) -> int:
    net = P.load_network(P.load_config(config_path), checkpoint_path)
    D.save_ppm(P.restore_image(net, D.load_ppm(in_path)), out_path)
    return EXIT_OK


def cmd_gradcheck(corrupt: str | None = None) -> int:
    reports = run_gradcheck_suite(corrupt=corrupt)
    for rep in reports:
        print(f"{rep.name}\t{rep.max_rel_err:.3e}\t{'ok' if rep.passed else 'FAIL'}")
    failing = [rep.name for rep in reports if not rep.passed]
    if failing:
        print("failing blocks: " + ", ".join(failing), file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


@_exit_codes
def cmd_ablate(which: str, config_path: str, out_dir: str,
               train_steps: int = 0) -> int:
    if which not in ("aggregation", "layout"):
        raise ConfigError(f"unknown ablation {which!r}")
    if train_steps < 0:
        raise ConfigError(f"--train-steps must be >= 0, got {train_steps}")
    cfg = P.load_config(config_path)
    lines = (P.aggregation_report() if which == "aggregation"
             else P.layout_report(cfg, out_dir, train_steps))
    print("\n".join(lines))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{which}.txt").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mirnet-forge",
        description="Multi-scale residual image restoration toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the training loop")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--seed", type=int, default=None)

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
    p_ablate.add_argument("--config", required=True)
    p_ablate.add_argument("--out", required=True)
    p_ablate.add_argument("--train-steps", type=int, default=0)

    args = parser.parse_args(argv)
    if args.command == "train":
        return cmd_train(args.config, args.out, args.seed)
    if args.command == "eval":
        return cmd_eval(args.config, args.checkpoint, args.manifest)
    if args.command == "infer":
        return cmd_infer(args.config, args.checkpoint, args.input, args.output)
    if args.command == "gradcheck":
        return cmd_gradcheck()
    return cmd_ablate(args.which, args.config, args.out, args.train_steps)


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark harness for mirnet-forge.

    python3 perfbench/run.py --workload desk-train --seed 0 --seconds 30 --trace 0

Generates the workload's inputs from the seed, then runs the unmodified
`mirnet-forge train` / `eval` entry point in fresh processes, one at a time,
until `--seconds` have passed.  With `--trace 0` it reports the end-to-end
metrics.  With `--trace 1` it runs one untraced process, one that traces
memory and then ones that trace per-layer spans, and reports the per-layer
metrics.  Every process's output is checked against the reference recorded
in `reference.json`.  Comment lines (`# ...`) give the
environment, sample counts and diagnostics; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import (WORKLOADS, Inputs, check_eval, check_train,
                       load_reference, parse_report, perturbed, prepare,
                       read_losses, variant_of)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUDGET_S = 170.0          # a run must end within 180 s
MB = 1024.0 * 1024.0

OPS = ("conv2d_1x1", "conv2d_kxk", "bilinear_upsample2x", "replicate_pad1",
       "prelu", "mul", "add", "concat", "channel_pool", "global_avg_pool",
       "branch_softmax", "sigmoid")
BLOCKS = ("MIRNet", "RRG", "MRB", "DAU", "ChannelAttention", "SpatialAttention",
          "SKFF", "ResizeDown", "ResizeUp", "blur_pool")
# span totals summed over the timed ops and reported per op (step or image)
PER_OP_KEYS = (
    [f"tensor.{op}.{d}" for op in OPS for d in ("fwd_s", "bwd_s")]
    + ["tensor.backward.s", "tensor.backward.self_s"]
    + [f"blocks.{b}.{d}" for b in BLOCKS for d in ("fwd_s", "bwd_s")]
    + ["optim.charbonnier_loss.fwd_s", "optim.charbonnier_loss.bwd_s",
       "optim.adam.step_s", "data.sample_batch_s", "metrics.psnr_s",
       "metrics.ssim_s", "checkpoint.save_s"])
# span totals of the set-up phase, reported per process
SETUP_KEYS = ("data.load_ppm_s", "data.degrade_s", "blocks.build_s",
              "checkpoint.load_s")


@dataclass
class Child:
    """One process of a run and what it produced."""
    mode: str                      # probe mode: "off", "memory" or "spans"
    exit_code: int | None
    events: dict | None
    output: object = None          # loss list (train) or report dict (eval)
    raw: str = ""                  # loss_log.csv text or report text
    error: str = ""

    @property
    def ok(self):
        return self.exit_code == 0 and self.events is not None and self.output is not None


def run_child(inputs: Inputs, work: Path, index: int, mode: str,
              timeout: float) -> Child:
    w = inputs.workload
    out_dir = work / f"out{index}"
    events_path = work / f"events{index}.json"
    if w.kind == "train":
        argv = ["train", "--config", str(inputs.config), "--out", str(out_dir)]
    else:
        argv = ["eval", "--config", str(inputs.config),
                "--checkpoint", str(inputs.checkpoint)]
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(events_path),
           mode, "--", *argv]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, stdout, stderr = None, "", f"killed after {exc.timeout:.1f} s"
    child = Child(mode, code, None, error=stderr.strip()[-300:])
    try:
        if events_path.is_file():
            child.events = json.loads(events_path.read_text())
        if code == 0 and w.kind == "train" and (out_dir / "loss_log.csv").is_file():
            child.raw = (out_dir / "loss_log.csv").read_text()
            child.output = read_losses(out_dir / "loss_log.csv")
        elif code == 0 and w.kind == "eval":
            child.raw = stdout
            child.output = parse_report(stdout)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        events_path.unlink(missing_ok=True)
    return child


def judge(child: Child, inputs: Inputs, reference) -> list[bool]:
    """Per-op verdicts; a process that failed fails every op it owned."""
    w = inputs.workload
    if w.kind == "train":
        if not child.ok:
            return [False] * w.steps
        return check_train(child.output, reference)
    if not child.ok:
        return [False] * len(inputs.images)
    return check_eval(child.output, reference, inputs.images)


def op_windows(child: Child, kind: str) -> list[tuple[float, float, float]]:
    """(start, end, forward seconds) of each op: a training step runs from the
    previous Adam.step return (the first from the first forward) to its own
    Adam.step return; an image runs from its forward to the next one."""
    e = child.events
    enter, leave = e["net_enter"], e["net_exit"]
    if kind == "train":
        bounds = [enter[0]] + e["adam_exit"]
    else:
        bounds = enter + [e["t_end"]]
    return [(bounds[i], bounds[i + 1], leave[i] - enter[i])
            for i in range(min(len(bounds) - 1, len(enter)))]


def timed(windows, kind):
    # The first training step of a process also allocates Adam's state and
    # faults in the tape's buffers; a long run pays that once, so it is not timed.
    return windows[1:] if kind == "train" else windows


def end_to_end(children, inputs: Inputs, lines: list[str]) -> dict:
    w = inputs.workload
    good = [c for c in children if c.ok]
    setups = [c.events["net_enter"][0] - c.events["t_import"] for c in good]
    per_child = [timed(op_windows(c, w.kind), w.kind) for c in good]
    ops = [op for windows in per_child for op in windows]
    steps = [b - a for a, b, _ in ops]
    forwards = [f for _, _, f in ops]
    rss = [c.events["maxrss_kb"] / 1024.0 for c in good]
    if not ops:
        return {}
    # Throughput of each process over all its timed ops (stalls included),
    # then the median across processes, so one disturbed process does not move it.
    rates = [w.samples_per_op * len(ws) / sum(b - a for a, b, _ in ws)
             for ws in per_child if ws]
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "step_s": (statistics.median(steps), "s", len(steps)),
        "forward_s": (statistics.median(forwards), "s", len(forwards)),
        "samples_per_s": (statistics.median(rates), "1/s", len(steps)),
        "peak_rss_mb": (statistics.median(rss), "MB", len(rss)),
    }
    for name, (value, unit, n) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit} (n={n})")
    if w.kind == "eval":
        lines.append("step_s is image_s here: wall time per held-out image "
                     "(restore, PSNR and SSIM)")
    if len(steps) >= 100:
        lines.append(f"step_s_p90 = {statistics.quantiles(steps, n=10)[-1]:.6g} s "
                     f"(n={len(steps)})")
    else:
        lines.append(f"step_s_p90 not reported: {len(steps)} samples < 100")
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}


def per_layer(children, inputs: Inputs, lines: list[str]) -> dict:
    w = inputs.workload
    by_mode = {m: [c for c in children if c.ok and c.mode == m]
               for m in ("off", "memory", "spans")}
    if not all(by_mode.values()):
        return {}
    sums = dict.fromkeys(PER_OP_KEYS + ["trace.attributed_s", "tensor.tape_nodes",
                                        "tensor.conv2d.calls", "tensor.conv2d.flop"], 0.0)
    setup = {k: [] for k in SETUP_KEYS}
    walls, bytes_moved = [], []
    for c in by_mode["spans"]:
        snaps = dict(c.events["snapshots"])
        for k in SETUP_KEYS:
            setup[k].append(snaps[c.events["net_enter"][0]].get(k, 0.0))
        bytes_moved.append(snaps[c.events["t_end"]].get("checkpoint.bytes", 0.0))
        for a, b, _ in timed(op_windows(c, w.kind), w.kind):
            for k in sums:
                sums[k] += snaps[b].get(k, 0.0) - snaps[a].get(k, 0.0)
            walls.append(b - a)
    n_ops = len(walls)
    per_op = {k: v / n_ops for k, v in sums.items()}
    wall = sum(walls) / n_ops
    conv_s = sum(per_op[f"tensor.{op}.{d}"] for op in ("conv2d_1x1", "conv2d_kxk")
                 for d in ("fwd_s", "bwd_s"))

    peaks, held = [], []
    for c in by_mode["memory"]:
        readings = c.events["peaks"]
        windows = op_windows(c, w.kind)
        skip = len(windows) - len(timed(windows, w.kind))
        for a, b, _ in windows[skip:]:
            peaks.append(max(p for t, p in readings if a < t <= b))
        held.extend(c.events["tape_held"][skip:])
    base_steps = [b - a for c in by_mode["off"]
                  for a, b, _ in timed(op_windows(c, w.kind), w.kind)]

    out = {k: (per_op[k], "s") for k in PER_OP_KEYS}
    out.update({
        "tensor.tape_nodes": (per_op["tensor.tape_nodes"], "count"),
        "tensor.conv2d.calls": (per_op["tensor.conv2d.calls"], "count"),
        "tensor.conv2d.gflop": (per_op["tensor.conv2d.flop"] / 1e9, "GFLOP"),
        "tensor.conv2d.gflop_per_s": (per_op["tensor.conv2d.flop"] / 1e9 / conv_s, "GFLOP/s"),
        "tensor.tape_held_mb": (statistics.median(held) / MB, "MB"),
        "tensor.peak_traced_mb": (statistics.median(peaks) / MB, "MB"),
        "blocks.params": (float(by_mode["spans"][0].events["params"]), "count"),
        "checkpoint.bytes": (statistics.median(bytes_moved), "B"),
        "cli.unattributed_s": (wall - per_op["trace.attributed_s"], "s"),
        "trace.coverage": (per_op["trace.attributed_s"] / wall, "ratio"),
        "trace.overhead_ratio": (statistics.median(walls) / statistics.median(base_steps), "ratio"),
    })
    for k in SETUP_KEYS:
        out[k] = (statistics.median(setup[k]), "s")
    lines.append(f"span-traced ops n={n_ops} in {len(by_mode['spans'])} process(es), "
                 f"memory-traced ops n={len(peaks)}; wall per op {wall:.6g} s; "
                 f"{', '.join(SETUP_KEYS)} are per process")
    lines.extend(op_shares(per_op, out))
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(out.items())}


# ROADMAP profile of the reference training step at 1x3x64x64 (shares of op time)
ROADMAP_SHARES = {"bilinear_upsample2x": "45-50%", "conv2d": "39-41%",
                  "replicate_pad1": "5-6%"}


def op_shares(per_op: dict, out: dict) -> list[str]:
    ops = {op: per_op[f"tensor.{op}.fwd_s"] + per_op[f"tensor.{op}.bwd_s"] for op in OPS}
    total = sum(ops.values())
    if total <= 0:
        return []
    groups = {"bilinear_upsample2x": ops["bilinear_upsample2x"],
              "conv2d": ops["conv2d_1x1"] + ops["conv2d_kxk"],
              "replicate_pad1": ops["replicate_pad1"]}
    lines = [f"op share {name} = {100 * v / total:.1f}% "
             f"(ROADMAP 64x64 ref step: {ROADMAP_SHARES[name]})"
             for name, v in groups.items()]
    fwd = sum(per_op[f"tensor.{op}.fwd_s"] for op in OPS)
    lines.append(f"per op: tensor fwd {fwd:.4g} s, backward {out['tensor.backward.s'][0]:.4g} s, "
                 f"adam {out['optim.adam.step_s'][0]:.4g} s")
    return lines


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int, variant: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "seed": seed, "input_variant": variant,
        "nproc": len(os.sched_getaffinity(0)), "cpu": model,
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / MB),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if not (SRC / "mirnet_forge" / "cli.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    variant = variant_of(args.seed)
    reference = load_reference().get(workload.name, {}).get(str(variant))
    if reference is None:
        print(f"perfbench: no recorded reference for {workload.name} input set "
              f"{variant}; run perfbench/record_reference.py", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    lines = []
    try:
        inputs = prepare(workload, args.seed, work, SRC)
        lines.append("env " + json.dumps(environment(args.seed, inputs.variant)))
        # a traced run starts with an untraced and a memory-traced process
        modes = ["off", "memory"] if args.trace else []
        children: list[Child] = []
        measure_start = time.perf_counter()
        while True:
            mode = modes[len(children)] if len(children) < len(modes) else (
                "spans" if args.trace else "off")
            t = time.perf_counter()
            children.append(run_child(inputs, work, len(children), mode,
                                      timeout=max(5.0, BUDGET_S - (t - started))))
            now = time.perf_counter()
            done = now - measure_start >= args.seconds and mode != "memory" and (
                mode == "spans" or not args.trace)
            if done or now - started + 1.5 * (now - t) > BUDGET_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    attempted = failed = 0
    for c in children:
        verdicts = judge(c, inputs, reference)
        attempted += len(verdicts)
        failed += verdicts.count(False)
        if not c.ok:
            lines.append(f"process failed (exit {c.exit_code}): {c.error}")
    correct = failed == 0

    first_ok = next((c for c in children if c.ok), None)
    if first_ok is not None:
        control = judge(Child("off", 0, first_ok.events,
                              perturbed(first_ok.output, workload.kind)),
                        inputs, reference)
        caught = False in control
        lines.append(f"negative control (output moved 10x its tolerance) "
                     f"{'reported as failed' if caught else 'NOT caught'}")
        correct = correct and caught
        if workload.kind == "train":
            lines.append(f"final_loss = {first_ok.output[-1]:.6f} (last loss_log.csv row)")
        else:
            lines.append(f"psnr_db = {first_ok.output['aggregate'][0]:.6f} "
                         f"ssim = {first_ok.output['aggregate'][1]:.6f} (aggregate row)")
    lines.append(f"error_rate = {failed / max(attempted, 1):.6g} "
                 f"({failed} of {attempted} ops failed)")

    if args.trace:
        base = next((c for c in children if c.ok and c.mode == "off"), None)
        traced = [c for c in children if c.ok and c.mode != "off"]
        same = base is not None and all(c.raw == base.raw for c in traced)
        unpatched = all(c.events["unpatched"] for c in traced)
        lines.append(f"{len(traced)} traced processes: output bit-identical to the "
                     f"untraced one: {same}; wrappers removed: {unpatched}")
        correct = correct and same and unpatched
        metrics = per_layer(children, inputs, lines)
    else:
        metrics = end_to_end(children, inputs, lines)
    correct = correct and bool(metrics)

    for line in lines:
        print("# " + line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

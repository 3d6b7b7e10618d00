"""Wrappers installed from outside the program: op-boundary timestamps and,
in a traced run, spans around each layer's public functions.

Nothing here changes what a wrapped call computes: every wrapper calls the
original with the same arguments and returns its result unchanged.
`Probe.finish` removes all wrappers and checks that each patched attribute is
the original object again.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc
from collections import defaultdict

perf_counter = time.perf_counter

TENSOR_OPS = ("bilinear_upsample2x", "replicate_pad1", "prelu", "mul", "add",
              "concat", "channel_pool", "global_avg_pool", "branch_softmax",
              "sigmoid", "tsum", "tmean")
BLOCKS = ("MIRNet", "RRG", "MRB", "DAU", "ChannelAttention",
          "SpatialAttention", "SKFF", "ResizeDown", "ResizeUp")


def _current(owner, name):
    return owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


class Patches:
    """Replaces attributes and puts the originals back."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, _current(owner, name)))
        setattr(owner, name, value)

    def everywhere(self, original, wrapper):
        """Rebind every `mirnet_forge` module-level name bound to `original`,
        including copies made by `from module import name`."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] != "mirnet_forge":
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self.set(module, name, wrapper)

    def restore(self) -> bool:
        """Undo every patch; True when each attribute holds its original."""
        first = {}
        for owner, name, original in self._saved:
            first.setdefault((id(owner), name), (owner, name, original))
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
        return all(_current(o, n) is orig for o, n, orig in first.values())


class _Frame:
    __slots__ = ("key", "bwd_key", "block", "block_key", "outer", "child", "start")


class Tracer:
    """Span self times keyed by metric name, plus counters.

    A span's self time is its duration minus its child spans.  Each span's
    self time is also credited to the innermost named block active when it
    ran; a backward closure's, to the block active when its node was recorded.
    """

    def __init__(self):
        self.totals = defaultdict(float)
        self._stack: list[_Frame] = []
        self._block = None

    def push(self, key, bwd_key=None, block=None, block_key=None) -> _Frame:
        f = _Frame()
        f.key, f.bwd_key, f.outer, f.child = key, bwd_key, self._block, 0.0
        if block is not None:
            self._block = block
        f.block = self._block
        if block_key is None and self._block is not None:
            block_key = f"blocks.{self._block}.fwd_s"
        f.block_key = block_key
        self._stack.append(f)
        f.start = perf_counter()
        return f

    def pop(self, f: _Frame) -> float:
        dt = perf_counter() - f.start
        self._stack.pop()
        self._block = f.outer
        own = dt - f.child
        totals = self.totals
        totals[f.key] += own
        totals["trace.attributed_s"] += own
        if f.block_key is not None:
            totals[f.block_key] += own
        if self._stack:
            self._stack[-1].child += dt
        return dt

    def wrap(self, fn, key, bwd_key=None, block=None, inclusive_key=None):
        tracer = self

        def traced(*args, **kwargs):
            f = tracer.push(key, bwd_key, block)
            try:
                return fn(*args, **kwargs)
            finally:
                dt = tracer.pop(f)
                if inclusive_key:
                    tracer.totals[inclusive_key] += dt
        traced.__wrapped__ = fn
        return traced

    def wrap_record(self, record):
        """Wrap tensor._record so each node's backward closure is a span named
        after the op that recorded it; conv2d nodes also count FLOPs."""
        tracer, totals = self, self.totals

        def traced(inputs, out_data, backward):
            f = tracer._stack[-1] if tracer._stack else None
            bwd_key = f.bwd_key if f is not None and f.bwd_key else "tensor.other.bwd_s"
            block_key = f"blocks.{f.block}.bwd_s" if f is not None and f.block else None
            flop = 0.0
            if bwd_key.startswith("tensor.conv2d"):
                n, cout, oh, ow = out_data.shape
                _, cin, kh, kw = inputs[1].data.shape
                flop = 2.0 * n * cout * oh * ow * cin * kh * kw
                totals["tensor.conv2d.calls"] += 1
                totals["tensor.conv2d.flop"] += flop

            def timed_backward(g):
                bf = tracer.push(bwd_key, block_key=block_key)
                try:
                    return backward(g)
                finally:
                    tracer.pop(bf)
                    totals["tensor.conv2d.flop"] += 2.0 * flop   # grad wrt input and weight
            return record(inputs, out_data, timed_backward)
        traced.__wrapped__ = record
        return traced


class Probe:
    """Timestamps of op boundaries, plus per-layer spans (mode "spans") or
    traced memory (mode "memory")."""

    def __init__(self, mode: str):
        if mode not in ("off", "spans", "memory"):
            raise ValueError(f"unknown probe mode {mode!r}")
        self.mode = mode
        self.tracer = Tracer() if mode == "spans" else None
        self.patches = Patches()
        self.net_enter, self.net_exit, self.adam_exit = [], [], []
        # spans: span totals at each boundary; memory: peak traced bytes since
        # the previous boundary, and traced bytes added by each forward
        self.snapshots, self.peaks, self.tape_held = [], [], []
        self.params = 0

    def _boundary(self, t):
        if self.mode == "spans":
            self.snapshots.append((t, dict(self.tracer.totals)))
        elif self.mode == "memory":
            self.peaks.append((t, tracemalloc.get_traced_memory()[1]))
            tracemalloc.reset_peak()

    def install(self):
        from mirnet_forge import blocks as B
        from mirnet_forge import optim as O

        if self.mode == "spans":
            self._install_spans()
        probe, memory = self, self.mode == "memory"
        net_call, adam_step = B.MIRNet.__call__, O.Adam.step

        def mirnet_call(net, image):
            t = perf_counter()
            probe.net_enter.append(t)
            probe._boundary(t)
            before = tracemalloc.get_traced_memory()[0] if memory else 0
            out = net_call(net, image)
            if memory:
                probe.tape_held.append(tracemalloc.get_traced_memory()[0] - before)
            probe.net_exit.append(perf_counter())
            return out

        def step(adam, params, lr):
            out = adam_step(adam, params, lr)
            t = perf_counter()
            probe.adam_exit.append(t)
            probe._boundary(t)
            return out

        self.patches.set(B.MIRNet, "__call__", mirnet_call)
        self.patches.set(O.Adam, "step", step)
        if memory:
            tracemalloc.start()

    def _install_spans(self):
        from mirnet_forge import blocks as B
        from mirnet_forge import checkpoint as C
        from mirnet_forge import data as D
        from mirnet_forge import metrics as M
        from mirnet_forge import optim as O
        from mirnet_forge import tensor as T

        tr, patches, totals = self.tracer, self.patches, self.tracer.totals

        for op in TENSOR_OPS:
            fn = getattr(T, op)
            patches.everywhere(fn, tr.wrap(fn, f"tensor.{op}.fwd_s", f"tensor.{op}.bwd_s"))
        conv_1x1 = tr.wrap(T.conv2d, "tensor.conv2d_1x1.fwd_s", "tensor.conv2d_1x1.bwd_s")
        conv_kxk = tr.wrap(T.conv2d, "tensor.conv2d_kxk.fwd_s", "tensor.conv2d_kxk.bwd_s")

        def conv2d(x, weight, *args, **kwargs):
            pointwise = weight.data.shape[2:] == (1, 1)
            return (conv_1x1 if pointwise else conv_kxk)(x, weight, *args, **kwargs)
        patches.everywhere(T.conv2d, conv2d)
        patches.everywhere(T._record, tr.wrap_record(T._record))

        tape_backward = tr.wrap(T.backward, "tensor.backward.self_s",
                                inclusive_key="tensor.backward.s")

        def backward(tape, loss):
            totals["tensor.tape_nodes"] += len(tape.nodes)
            return tape_backward(tape, loss)
        patches.everywhere(T.backward, backward)

        for name in BLOCKS:
            cls = getattr(B, name)
            patches.set(cls, "__call__", tr.wrap(
                cls.__call__, f"blocks.{name}.self_s", block=name))
        patches.everywhere(B.blur_pool, tr.wrap(
            B.blur_pool, "blocks.blur_pool.self_s", block="blur_pool"))

        probe, build = self, tr.wrap(B.MIRNet.__init__, "blocks.build_s")

        def mirnet_init(net, *args, **kwargs):
            build(net, *args, **kwargs)
            probe.params = B.count_parameters(net)[1]
        patches.set(B.MIRNet, "__init__", mirnet_init)

        patches.everywhere(O.charbonnier_loss, tr.wrap(
            O.charbonnier_loss, "optim.charbonnier_loss.fwd_s",
            "optim.charbonnier_loss.bwd_s"))
        patches.set(O.Adam, "step", tr.wrap(O.Adam.step, "optim.adam.step_s"))

        for fn, key in ((D.sample_batch, "data.sample_batch_s"),
                        (D.load_ppm, "data.load_ppm_s"),
                        (D.degrade, "data.degrade_s"),
                        (M.psnr, "metrics.psnr_s"),
                        (M.ssim, "metrics.ssim_s")):
            patches.everywhere(fn, tr.wrap(fn, key))

        save = tr.wrap(C.save_checkpoint, "checkpoint.save_s")
        load = tr.wrap(C.load_checkpoint, "checkpoint.load_s")

        def save_checkpoint(path, *args, **kwargs):
            save(path, *args, **kwargs)
            totals["checkpoint.bytes"] += os.path.getsize(path)

        def load_checkpoint(path, *args, **kwargs):
            totals["checkpoint.bytes"] += os.path.getsize(path)
            return load(path, *args, **kwargs)
        patches.everywhere(C.save_checkpoint, save_checkpoint)
        patches.everywhere(C.load_checkpoint, load_checkpoint)

    def finish(self, t_end: float) -> bool:
        """Close the last op window and remove every wrapper; True when all
        originals are back in place."""
        self._boundary(t_end)
        if self.mode == "memory":
            tracemalloc.stop()
        return self.patches.restore()

    def events(self) -> dict:
        return {"net_enter": self.net_enter, "net_exit": self.net_exit,
                "adam_exit": self.adam_exit, "snapshots": self.snapshots,
                "peaks": self.peaks, "tape_held": self.tape_held,
                "params": self.params}

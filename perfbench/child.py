"""One fresh process of a benchmark run: import the program, install the
wrappers, run `mirnet_forge.cli.main` on the given arguments, remove the
wrappers and write the timestamps and trace to a JSON file.

    python3 perfbench/child.py SRC EVENTS MODE -- <mirnet-forge arguments>

MODE is `off` (op-boundary timestamps only), `spans` (per-layer spans) or
`memory` (tracemalloc readings at op boundaries; kept apart from the spans
because tracing allocations slows a desk-scale step 1.7x).  The process exits
with the CLI's own exit code.
"""

import json
import resource
import sys
import time

t_import = time.perf_counter()


def main():
    src, events_path, mode = sys.argv[1], sys.argv[2], sys.argv[3]
    argv = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, src)
    import mirnet_forge.cli as cli   # imports numpy and every program module
    from tracing import Probe

    if not cli.__file__.startswith(src):
        raise SystemExit(f"imported {cli.__file__}, not the program under {src}")
    probe = Probe(mode)
    probe.install()
    code = None
    try:
        code = cli.main(argv)
    finally:
        t_end = time.perf_counter()
        unpatched = probe.finish(t_end)
        events = probe.events()
        events.update(t_import=t_import, t_end=t_end, exit_code=code,
                      unpatched=unpatched,
                      maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        with open(events_path, "w") as fh:
            json.dump(events, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

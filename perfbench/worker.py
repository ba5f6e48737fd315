"""One process of the program under test, driven by run.py.

It imports gtagkz from the checkout's ``src`` directory, prints ``ready``
(run.py times set-up up to that line) and then serves one JSON request per
line of standard input until it closes:

    {"id": 7, "op": "basis" | "verify", "weight": "2,1,0", "traced": false}

Every op calls the public entry point ``gtagkz.cli.main`` exactly as
``gt-agkz basis W --format json`` and ``gt-agkz verify W`` would; a traced
op makes the same call with the spans of ``traced.py`` installed.  The timed
region is that call alone.  Each reply is one JSON line with the op's wall seconds,
the process's peak resident set, the exit code and the printed text; checking
the text is left to run.py, outside the timed region.
"""

import contextlib
import functools
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _argv(op, weight):
    if op == "basis":
        return ["basis", weight, "--format", "json"]
    if op == "verify":
        return ["verify", weight]
    raise ValueError(f"unknown op {op!r}")


def serve(cli, request):
    op, weight = request["op"], request["weight"]
    tracing = contextlib.nullcontext
    if request["traced"]:
        import traced  # the benchmark's own module, next to this file

        tracing = functools.partial(traced.tracing, request["id"], op)
    reply = {"id": request["id"], "rc": None, "error": None}
    recorder = None
    printed = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(io.StringIO()):
            with tracing() as recorder:
                reply["rc"] = cli.main(_argv(op, weight))
    except SystemExit as stop:  # argparse rejects the arguments
        reply["rc"] = stop.code
    except Exception as error:  # the op failed; the session serves the next one
        reply["error"] = f"{type(error).__name__}: {error}"
    reply["seconds"] = time.perf_counter() - start
    reply["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reply["output"] = printed.getvalue()
    if recorder is not None:
        reply["spans"] = recorder.spans
        reply["counts"] = recorder.counts
    return reply


def main():
    sys.path.insert(0, SRC)
    import gtagkz
    from gtagkz import cli

    if os.path.dirname(os.path.dirname(os.path.abspath(gtagkz.__file__))) != SRC:
        sys.exit(f"worker: gtagkz imported from {gtagkz.__file__}, not from {SRC}")
    channel = sys.stdout
    channel.write("ready\n")
    channel.flush()
    for line in sys.stdin:
        channel.write(json.dumps(serve(cli, json.loads(line))) + "\n")
        channel.flush()


if __name__ == "__main__":
    main()

"""Start ``repro.service`` with per-layer timers, for the traced run.

Usage (the arguments after ``--`` are those of ``python -m repro.service``)::

    python perfbench/launcher.py --trace-out trace.json -- --port 0 --serial

Before serving, this wraps the request path's layers that have no span
of their own in ``bench.*`` spans: protocol parse, encode and
``counts_of``, kernel resolution, and the disk compile cache.  It makes
every ``compile_kernel`` call collect per-stage statistics, so frontend,
lower and flatten appear as ``compile.stage`` spans.  It then runs the
unchanged server under :func:`repro.obs.trace.trace_to`, which writes
every span, pool workers' included, to ``--trace-out`` when the server
drains on SIGTERM.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path


def _collect_statistics(compile_kernel):
    """``compile_kernel`` with ``pipeline=<preset>`` turned into the
    same preset's options plus ``collect_statistics=True``."""
    from repro.pipeline import CompileOptions

    @functools.wraps(compile_kernel)
    def compile_with_statistics(kernel, options=None, *, pipeline=None,
                                cache=False, **flags):
        if options is None and pipeline is not None and not flags:
            options = CompileOptions.preset(pipeline, collect_statistics=True)
            pipeline = None
        return compile_kernel(
            kernel, options, pipeline=pipeline, cache=cache, **flags
        )

    return compile_with_statistics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("server_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    server_args = [a for a in args.server_args if a != "--"]

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import layers
    from repro import pipeline
    from repro.obs import trace
    from repro.service import protocol, server, service

    layers.wrap(server, "parse_request", "bench.parse")
    layers.wrap(server, "encode_response", "bench.encode")
    layers.wrap(protocol, "counts_of", "bench.counts_of")
    # Kernel resolution has no public boundary: the private resolver is
    # the one place that covers both the suite lookup and source exec.
    layers.wrap(service, "_resolve_kernel", "bench.resolve")
    layers.wrap_diskcache()
    pipeline.compile_kernel = _collect_statistics(pipeline.compile_kernel)

    with trace.trace_to(args.trace_out):
        return server.main(server_args)


if __name__ == "__main__":
    raise SystemExit(main())

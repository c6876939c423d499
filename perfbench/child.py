"""Run one truncosc CLI invocation for the benchmark and report on it.

usage: python3 child.py REPORT MODE [CLI ARGS...]

MODE is ``run`` (time ``truncosc.cli.main(ARGS)``), ``trace`` (the same
with every public layer function wrapped by ``tracer.Tracer``) or ``env``
(import only, and report the versions and the OpenBLAS build).  REPORT is
written as JSON.  ``ready`` is the monotonic clock when ``import
truncosc.cli`` has returned; the parent subtracts its own launch time from
it, which works because CLOCK_MONOTONIC is shared by every process on the
host.
"""
import json
import sys
import time

IMPORTED_MARKER = "perfbench: imported truncosc"


def _openblas() -> dict:
    """Build string and thread count of the OpenBLAS that numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:  # no procfs: leave the BLAS fields empty
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if get_config is None or get_threads is None:
                continue
            get_config.argtypes = []
            get_config.restype = ctypes.c_char_p
            get_threads.argtypes = []
            get_threads.restype = ctypes.c_int
            return {"config": get_config().decode(), "threads": get_threads()}
    return {"config": None, "threads": None}


def main() -> int:
    report_path, mode, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    import truncosc.cli

    ready = time.monotonic()
    report = {"ready": ready, "package": truncosc.__file__}
    if mode == "env":
        import numpy
        import scipy

        report.update(python=sys.version.split()[0], numpy=numpy.__version__,
                      scipy=scipy.__version__, openblas=_openblas())
        code = 0
    else:
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            print(IMPORTED_MARKER, file=sys.stderr, flush=True)
            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        try:
            code = truncosc.cli.main(args)
        finally:
            report["compute_s"] = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            report.update(spans=tracer.spans, caches=tracer.cache_stats())
    report["exit"] = code
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

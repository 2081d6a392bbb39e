"""One benchmark repetition in a fresh interpreter.

Usage: python3 perfbench/child.py REQUEST.json

Times `import stochadc.cli` (nothing else is imported before it), then runs
the request's `cli.main` calls one after another and writes a JSON result:
set-up time, each call's exit code and host time, the host speed reference
(speedref.py, timed before and after the calls), peak RSS and the versions
of the libraries that ran.  With "trace" set, every layer hook is installed
after the timed import and the spans are folded into per-layer statistics.
"""

import sys
import time

t0 = time.perf_counter()
import stochadc.cli as cli  # noqa: E402

setup_s = time.perf_counter() - t0

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
import stochadc  # noqa: E402
import yaml  # noqa: E402

import hooks  # noqa: E402
import speedref  # noqa: E402


def main() -> None:
    request = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    package_dir = Path(stochadc.__file__).resolve().parent
    if package_dir != Path(request["package_dir"]):
        sys.exit(f"imported stochadc from {package_dir}, expected {request['package_dir']}")
    tracer = None
    if request["trace"]:
        tracer = hooks.Tracer()
        tracer.install(stochadc)
    speedref.kernel()  # warm-up
    ref_before = speedref.timed()
    ops = []
    for argv in request["ops"]:
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.span(hooks.ROOT_SPAN, cli.main, argv)
        except Exception:  # a crash is a failed operation, not a lost run
            traceback.print_exc()
            rc = -1
        ops.append({"rc": rc, "wall_s": time.perf_counter() - start})
    result = {
        "setup_s": setup_s,
        "ref_s": [ref_before, speedref.timed()],
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "pyyaml": yaml.__version__,
        },
    }
    if tracer is not None:
        result["trace"] = hooks.layer_stats(tracer.spans)
        tracer.dump(request["spans_path"])
    Path(request["result_path"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()

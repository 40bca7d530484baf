"""Set-up time of one workload, measured in a fresh interpreter.

Imports gpbound (numpy and scipy with it), then generates, writes, reads back and
builds the workload's pass-0 instances. Prints one JSON line of seconds.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>
"""
import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = perf_counter()
import gpbound  # noqa: E402,F401
import gpbound.cli  # noqa: E402,F401
import_s = perf_counter() - t0

import spans  # noqa: E402
from workloads import make_instances  # noqa: E402


def main(workload: str, seed: int, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    tr = spans.Tracer()
    make_instances(workload, seed, 0, workdir, tr)
    setup_s = perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "import_s": import_s,
                      "gen_s": spans.total(tr.spans, "graphs.gen"),
                      "io_s": spans.total(tr.spans, "graphs.io"),
                      "build_s": spans.total(tr.spans, "model.build")}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))

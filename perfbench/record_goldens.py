"""Record the golden CSV and lineage outputs of every workload.

    python3 perfbench/record_goldens.py

Runs each workload's job set once, offline from a primed cache, and copies
the outputs that run.py checks byte for byte into perfbench/goldens/. Only
re-record when a change to the program is meant to change its output.
"""

import shutil
import sys
import tempfile
from pathlib import Path

from workloads import GOLDENS, SRC, WORKLOADS, config_yaml, prime_cache, run_cli


def main() -> int:
    sys.path.insert(0, str(SRC))
    GOLDENS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=GOLDENS.parent) as tmp:
        cache = Path(tmp) / "cache"
        prime_cache(cache)
        for workload in WORKLOADS.values():
            out = Path(tmp) / workload.name
            config = Path(tmp) / f"{workload.name}.yaml"
            config.write_text(config_yaml(workload.jobs, cache_dir=cache, out_dir=out,
                                          base_url=None), encoding="utf-8")
            code, _ = run_cli(["generate", str(config), "--jobs", "1"])
            if code != 0:
                sys.stderr.write(f"{workload.name}: generate exited with {code}\n")
                return 1
            for name in workload.golden_files():
                shutil.copyfile(out / name, GOLDENS / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())

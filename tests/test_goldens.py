"""Golden outputs: each benchmark workload's job set, run offline in-process
from the primed fixture cache, reproduces the committed files under
perfbench/goldens byte for byte. The workload definitions are imported from
perfbench/workloads.py and only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from nuclibgen.cli import main

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module here
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_outputs_match_goldens(name, tmp_path, capsys):
    workload = workloads.WORKLOADS[name]
    cache_dir, out_dir = tmp_path / "cache", tmp_path / "out"
    workloads.prime_cache(cache_dir)
    config = tmp_path / "run.yaml"
    config.write_text(
        workloads.config_yaml(workload.jobs, cache_dir=cache_dir, out_dir=out_dir,
                              base_url=None),
        encoding="utf-8",
    )
    assert main(["generate", str(config), "--jobs", "1"]) == 0, capsys.readouterr().out
    names = workload.golden_files()
    assert names
    for fname in names:
        produced = (out_dir / fname).read_bytes()
        assert produced == (workloads.GOLDENS / fname).read_bytes(), fname

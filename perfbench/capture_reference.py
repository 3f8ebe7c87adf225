"""Write the seed-0 reference CSVs that every seed-0 benchmark run is compared with.

Run from the root of a checkout of the commit whose outputs are the reference:

    python3 perfbench/capture_reference.py
"""

from __future__ import annotations

import gzip
import shutil
import tempfile
from pathlib import Path

import workloads
from worker import REFERENCE, Runner, import_cli

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    cli = import_cli(ROOT / "src")
    REFERENCE.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT))
    try:
        config = tmp / "cfg0.txt"
        config.write_text(workloads.config_text(workloads.CFG0))
        for workload, (commands, _) in workloads.WORKLOADS.items():
            runner = Runner(workloads, cli, workload, [config], 0, tmp)
            _, texts = runner.job()
            if runner.failures:
                raise SystemExit(f"{workload}: {runner.failures}")
            for key, text in texts.items():
                name = key.rpartition("/")[2]
                (REFERENCE / f"{name}.gz").write_bytes(gzip.compress(text.encode(), mtime=0))
                print(f"{name} sha256 {workloads.sha256(text)}")
    finally:
        shutil.rmtree(tmp)


if __name__ == "__main__":
    main()

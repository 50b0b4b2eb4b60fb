"""Out-of-tree benchmark of the NVDIMM-C simulator.

Run ``python3 perfbench/run.py --workload dax-hit --seed 1 --seconds 10
--trace 0`` from the repository root; ``perfbench/README.md`` explains
the workloads, the metrics and how host time is made steady.
"""

import os

#: The repository root: the simulator's sources are under ``src/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

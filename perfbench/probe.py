"""Set-up probe: a fresh interpreter imports biham3, builds one
workload's inputs, prints ``ready`` and exits.  ``run.py`` times it from
spawn to ``ready``.

usage: python3 perfbench/probe.py WORKLOAD SEED OUTDIR
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def main(name, seed, outdir):
    from perfbench import workloads

    workloads.WORKLOADS[name](int(seed), outdir).prepare(0)
    print("ready", flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:4])

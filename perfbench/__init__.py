"""perfbench: the repo's benchmark (see ``perfbench/README.md``).

One command measures batch replay, the search kernel and the decision
service on six workloads, checks every schedule it times, and — with
``--trace 1`` — attributes one extra pass to the layers it crossed::

    python3 -m perfbench --workload batch_L1k --seed 2005 --seconds 10 --trace 0
    python3 -m perfbench suite --seeds 10 --out perfbench/out/a.json
    python3 -m perfbench compare perfbench/out/a.json perfbench/out/b.json

Everything here observes ``repro`` from outside: nothing under ``src/``
knows the benchmark exists.
"""

"""The slot-cost ledger: the repo's one benchmark (see README.md here).

Run ``python -m benchmarks.ledger`` for a full set, or
``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S
--trace 0|1`` for the single-run form ``BENCHMARK.json`` names.
"""

"""Steady end-to-end and per-layer benchmark of fusionlab.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload in a fresh single-threaded process and prints one JSON
result line; see ``perfbench/README.md``.
"""

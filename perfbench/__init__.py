"""spdcone benchmark: end-to-end workloads and a per-layer trace.

Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""

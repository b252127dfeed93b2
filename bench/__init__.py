"""The repo benchmark: five named workloads measured from outside.

Run ``python3 bench/run.py``; see ``bench/README.md``.
"""

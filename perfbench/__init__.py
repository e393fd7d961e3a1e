"""The repository's layered benchmark (run it with ``python3 perfbench/run.py``)."""

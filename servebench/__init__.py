"""Closed-loop serving benchmark of the repro index server stack.

See ``README.md`` in this directory; ``run.py`` is the entry point.
"""

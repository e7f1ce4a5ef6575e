"""Benchmark of the AJAX crawl reproduction (see ``perfbench/run.py``)."""

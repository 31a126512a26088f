"""The repository benchmark: three workloads, end-to-end and per-layer
metrics.  ``python3 perfbench/run.py --help`` runs one workload;
``BENCHMARK.json`` declares the metrics and ``perfbench/layers.json``
maps each per-layer metric to the end-to-end metric it should move."""

"""The repo benchmark: loopback-cluster and simulator workloads, measured
end to end and layer by layer. See bench/README.md; run with
``python3 bench/run.py`` (or ``PYTHONPATH=src python -m bench.run``)."""

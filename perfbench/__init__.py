"""The committed benchmark of the PREMA simulator.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one named workload; see ``perfbench/README.md``.
"""

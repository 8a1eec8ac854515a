"""Repository benchmark for the MILR reproduction.

Run ``python3 milrbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``milrbench/README.md`` defines
every workload and metric.
"""

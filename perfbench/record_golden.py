"""Record golden.json: the outputs every benchmark run is checked against.

    python3 perfbench/record_golden.py

Run it only when a change is meant to alter one of these outputs, and
say so in that change.  Records, from the library as it stands:
Table 1 and Table 2 CSV text, the two large-n paper-tables points, the
oracle flags of the codec verifications, the trellis report (gamma
histogram, |C*|) and state count of every trellis code, and for every
stream code its minimum distance and which fixed check payloads hit the
flush cycle.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from qbalance import cyclic_code, oracle, trellis  # noqa: E402


def record():
    golden = {
        "tables": {flag: workloads.run_cli(["analyze", "redundancy", flag]) for flag in workloads.TABLE_FLAGS},
        "points": {name: getattr(module, func)(*args) for name, module, func, args in workloads.POINTS},
        "oracle": {},
        "trellis": {},
        "stream_codes": {},
    }
    for scheme, n, q in workloads.ORACLE_CASES:
        result = oracle.verify_scheme(scheme, n, q)
        golden["oracle"][f"{scheme}_n{n}_q{q}"] = {f: result[f] for f in workloads.ORACLE_FLAGS}
    for name in workloads.TRELLIS_CODES:
        report = json.loads(workloads.run_cli(["trellis", "--code", workloads.code_path(name)]))
        golden["trellis"][name] = {
            "gamma": report["gamma"],
            "codebook_size": report["codebook_size"],
            "states": trellis.state_count(workloads.load_code(name)),
        }
    for name in workloads.STREAM_CODES:
        code = workloads.load_code(name)
        golden["stream_codes"][name] = {
            "min_distance": cyclic_code.min_distance(code),
            "flush_fails": workloads.flush_fails(code),
        }
    return golden


if __name__ == "__main__":
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")

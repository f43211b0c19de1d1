"""Record the golden exit codes and output digests of every pooled job.

    python3 bench/make_golden.py [workload ...]

Run from the root of the source tree whose outputs are the reference.  It
runs every job in each named workload's pool (all workloads by default),
stops with exit code 1 if any job breaks an invariant, and otherwise
rewrites those workloads' entries in ``golden.json``.
"""

import json
import os
import shutil
import sys

import jobs


def record(workload, workdir):
    workload.prepare(workdir, workload.keys())
    workload.start_pass()
    golden, errors = {}, []
    for key in workload.keys():
        codes, outputs = workload.run(key)
        problems, _ = workload.check(key, codes, outputs)
        errors.extend(f"{workload.name} {key}: {p}" for p in problems)
        golden[key] = {"codes": codes,
                       "sha256": {name: jobs.sha256(text) for name, text in outputs.items()
                                  if name != "stderr"}}
    return golden, errors


def main(names) -> int:
    root = os.getcwd()
    jobs.import_capsched(root)
    names = names or sorted(jobs.WORKLOADS)
    doc = {"workloads": {}}
    if os.path.exists(jobs.GOLDEN_PATH):
        with open(jobs.GOLDEN_PATH, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    workdir = os.path.join(jobs.OUT_DIR, f"golden-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for name in names:
            golden, errors = record(jobs.WORKLOADS[name], workdir)
            if errors:
                print("\n".join(errors[:20]), file=sys.stderr)
                return 1
            doc["workloads"][name] = golden
            print(f"{name}: {len(golden)} jobs recorded", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc["recorded_on"] = {"git_commit": jobs.git_commit(root),
                          "capsched_source_sha256": jobs.source_sha256(root)}
    jobs.write_file(jobs.GOLDEN_PATH, dump(doc))
    return 0


def dump(doc) -> str:
    """JSON text of the golden document with one line per job."""
    lines = ['{"recorded_on": ' + json.dumps(doc["recorded_on"], sort_keys=True) + ',',
             ' "workloads": {']
    names = sorted(doc["workloads"])
    for i, name in enumerate(names):
        lines.append(f"  {json.dumps(name)}: {{")
        entries = doc["workloads"][name]
        keys = list(entries)
        for j, key in enumerate(keys):
            comma = "," if j + 1 < len(keys) else ""
            lines.append(f"   {json.dumps(key)}: {json.dumps(entries[key], sort_keys=True)}{comma}")
        lines.append("  }" + ("," if i + 1 < len(names) else ""))
    lines.append(" }")
    lines.append("}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

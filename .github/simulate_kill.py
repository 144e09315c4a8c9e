"""Simulate a mid-campaign kill on a coolair store directory.

Truncates the store's journal to its first half and deletes every artifact
that no kept journal line names. The executor writes an artifact before
its journal line, so this is strictly harsher than any real kill point.

usage: python3 .github/simulate_kill.py <store-dir>
"""
import json
import os
import sys

store = sys.argv[1]
journal = os.path.join(store, "journal.jsonl")
lines = open(journal).read().splitlines()
keep = lines[: len(lines) // 2]
open(journal, "w").write("".join(l + "\n" for l in keep))
kept = {(json.loads(l)["kind"], json.loads(l)["digest"]) for l in keep}
removed = 0
artifacts = os.path.join(store, "artifacts")
for kind in os.listdir(artifacts):
    d = os.path.join(artifacts, kind)
    for name in os.listdir(d):
        if (kind, name.removesuffix(".json")) not in kept:
            os.remove(os.path.join(d, name))
            removed += 1
print(f"killed: kept {len(keep)}/{len(lines)} journal lines, removed {removed} artifacts")

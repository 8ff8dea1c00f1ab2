#!/usr/bin/env python3
"""Run the full BOOM analytics stack: wordcount on BOOM-MR over BOOM-FS.

Mirrors the paper's EC2 experiment in miniature: stage a synthetic crawl
into the distributed filesystem, run a MapReduce job whose JobTracker is
an Overlog program, and verify the distributed result against a local
single-process reference run.

Run:  python examples/wordcount_cluster.py
"""

from repro.analysis import render_table, summarize
from repro.mapreduce import (
    JobRunner,
    JobSpec,
    build_mr_cluster,
    local_wordcount,
    make_input_files,
    wordcount_map,
    wordcount_reduce,
)

NUM_TRACKERS = 6
NUM_MAPS = 12
NUM_REDUCES = 4
WORDS_PER_FILE = 3000

print(f"Bringing up {NUM_TRACKERS} TaskTrackers + DataNodes + 1 NameNode "
      f"+ 1 JobTracker (declarative FIFO policy)...")
mr = build_mr_cluster(num_trackers=NUM_TRACKERS, policy="fifo", seed=42)
runner = JobRunner(mr)

print(f"Staging {NUM_MAPS} input files x {WORDS_PER_FILE} words into BOOM-FS...")
datasets = make_input_files(WORDS_PER_FILE, NUM_MAPS, seed=42)
paths = runner.stage_inputs("/crawl", datasets)

spec = JobSpec(
    job_id=0,
    inputs=paths,
    num_reduces=NUM_REDUCES,
    map_func=wordcount_map,
    reduce_func=wordcount_reduce,
    output_dir="/out",
)
print("Submitting wordcount job...")
result = runner.run_job(spec)

print(f"\nJob finished in {result.duration_ms} simulated ms")
rows = [
    ["map", len(result.map_times), *summarize(result.map_completion_times()).values()],
    [
        "reduce",
        len(result.reduce_times),
        *summarize(result.reduce_completion_times()).values(),
    ],
]
print(
    render_table(
        ["phase", "tasks", "min", "p25", "p50", "p75", "p95", "p99", "p999",
         "max", "mean"],
        rows,
        title="Task completion offsets from submit (ms)",
    )
)

output = runner.fetch_output("/out")
expected = local_wordcount(datasets)
assert output == expected, "distributed result != local reference!"
print(f"\nOutput verified against local reference: {len(output)} distinct words")
top = sorted(output.items(), key=lambda kv: -kv[1])[:8]
print(render_table(["word", "count"], top, title="Top words (Zipf skew visible)"))

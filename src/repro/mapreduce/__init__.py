"""BOOM-MR: MapReduce with a declarative (Overlog) JobTracker.

Scheduling policy — FIFO task assignment, Hadoop-style speculation, or
the LATE policy — is a set of Overlog rules (``scheduler_programs/``);
TaskTrackers are imperative mechanism.  ``runner.build_mr_cluster`` wires
the full analytics stack (FS + MR) on one simulator, and both the
JobTracker and the filesystem can be swapped for the imperative baseline
(:mod:`repro.hadoop`) to reproduce the paper's stack-comparison CDFs.
"""

from .jobtracker import JobTracker, scheduler_program
from .runner import JobRunner, MRCluster, build_mr_cluster, run_wordcount
from .tasktracker import TaskTracker
from .types import (
    REDUCE_BASE,
    JobResult,
    JobSpec,
    is_reduce_task,
    partition_for,
    reduce_index,
)
from .workloads import (
    grep_reduce,
    local_grep,
    local_wordcount,
    make_grep_map,
    make_input_files,
    wordcount_map,
    wordcount_reduce,
    zipf_corpus,
)

__all__ = [
    "JobRunner",
    "JobResult",
    "JobSpec",
    "JobTracker",
    "MRCluster",
    "REDUCE_BASE",
    "TaskTracker",
    "build_mr_cluster",
    "grep_reduce",
    "is_reduce_task",
    "local_grep",
    "local_wordcount",
    "make_grep_map",
    "make_input_files",
    "partition_for",
    "reduce_index",
    "run_wordcount",
    "scheduler_program",
    "wordcount_map",
    "wordcount_reduce",
    "zipf_corpus",
]

"""Where did the time go? — latency accounting end to end.

Drives a seeded closed-loop mix of NameNode metadata operations against
a small BOOM-FS deployment, then explains the result three ways:

* per-op p50/p99/p999 latency CDFs from the load driver,
* critical-path breakdowns of the slowest requests — every millisecond
  attributed to compute (per rule), outbox batching, backpressure,
  network, timer wait, or honestly left as "other",
* a flight-recorder dump of the moments before an SLO alarm fired.

The master is given a CPU cost model so requests genuinely queue behind
each other's fixpoints — an isolated request never shows compute time;
contention does.  Deterministic: same seed, same report, byte-identical
dump.  See docs/OBSERVABILITY.md §latency accounting for the model.
"""

from repro.boomfs import BoomFSMaster, DataNode
from repro.latency import latency_reports, render_category_summary
from repro.sim import Cluster, LatencyModel
from repro.workload import LoadDriver, run_driver

cluster = Cluster(seed=7, latency=LatencyModel(base_ms=1, jitter_ms=3))
master = cluster.add(
    BoomFSMaster("master", replication=2, per_derivation_cost_us=500)
)
for i in range(2):
    cluster.add(DataNode(f"dn{i}", masters=["master"], heartbeat_ms=500))
recorder = cluster.enable_flight_recorder(dump_on=("alarm",))
monitor = cluster.enable_monitor(interval_ms=1000, per_op_latency=True)
cluster.run_for(1200)  # heartbeats register the DataNodes

# -- drive 300 mixed metadata ops, one trace per op -------------------------

driver = LoadDriver(
    "loadgen", masters=["master"], total_ops=300, window=8, seed=7
)
run_driver(cluster, driver)

print("=== per-op latency CDFs ===")
print(driver.render_report())
print()

# -- explain the slowest op, then the whole slow decile ---------------------

slowest = driver.slowest(0.1)
worst = slowest[0]
print(f"=== critical path: {worst.op} {worst.path} "
      f"({worst.latency_ms} ms) ===")
print(cluster.latency_report(worst.trace_id))
print()
print("same thing, from the component:")
print(master.why_slow(worst.trace_id).splitlines()[0], "...")
print()

print("=== slow decile by category ===")
reports = latency_reports(
    cluster.tracer, [r.trace_id for r in slowest if r.trace_id]
)
print(render_category_summary(reports))
print()

# -- arm an SLO; the burn alarm dumps the flight recorder -------------------

monitor.set_slo("request.latency_ms.mkdir", 1.0)  # deliberately tight
cluster.run_for(2500)  # next export round samples, alarm fires, ring dumps

print("=== alarms ===")
for name, subject, detail in sorted(monitor.alarms()):
    print(f"  {name}: {subject} ({detail})")
for reason, node, _path, text in recorder.dumps:
    lines = text.splitlines()
    print(f"\n[flight dump: {reason} on {node}, {len(lines) - 1} entries]")
    print("\n".join(lines[:4]))
    print("  ...")

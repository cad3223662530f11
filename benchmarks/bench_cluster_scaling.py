"""Extension bench: multi-NPU node-level scheduling (Sec II-C future work).

Two measurements: the original quality sweep (ANTT/makespan across
router x device-scheduler combinations on 1/2/4 NPUs) and a
datacenter-tier cost sweep -- per-event cluster-loop cost at 4/64/256
devices under fixed per-device load.  The cost sweep's JSON lands in
``benchmarks/results/BENCH_cluster_scaling.json`` (uploaded as a CI
artifact by the bench-smoke job).
"""

import json
import pathlib

from repro.analysis.experiments.cluster_scaling import (
    format_cluster_scaling,
    format_control_plane,
    run_cluster_scaling,
    run_control_plane_scaling,
)

CONTROL_PLANE_RESULTS = (
    pathlib.Path(__file__).parent / "results" / "BENCH_cluster_scaling.json"
)


def test_cluster_scaling(benchmark, config, factory, emit):
    rows = benchmark.pedantic(
        run_cluster_scaling,
        kwargs=dict(config=config, factory=factory, num_tasks=24,
                    num_workloads=4),
        rounds=1,
        iterations=1,
    )
    emit("cluster_scaling", format_cluster_scaling(rows))
    by_key = {(r.num_devices, r.routing, r.device_policy): r for r in rows}
    for devices in (1, 2, 4):
        # PREMA devices beat NP-FCFS devices at every cluster size.
        assert by_key[(devices, "round-robin", "PREMA")].antt <= \
            by_key[(devices, "round-robin", "FCFS")].antt
        # Predictive routing never loses to blind round-robin.
        assert by_key[(devices, "least-loaded", "PREMA")].antt <= \
            by_key[(devices, "round-robin", "PREMA")].antt * 1.05
        # Online dispatch targets device start times, so it never loses
        # to the static up-front pass on *makespan*; its ANTT may trade
        # a few percent for that.  Work stealing never loses to plain
        # online dispatch.
        assert by_key[(devices, "online-predicted", "PREMA")].makespan_ms <= \
            by_key[(devices, "least-loaded", "PREMA")].makespan_ms * 1.01
        assert by_key[(devices, "online-predicted", "PREMA")].antt <= \
            by_key[(devices, "least-loaded", "PREMA")].antt * 1.05
        assert by_key[(devices, "work-stealing", "PREMA")].makespan_ms <= \
            by_key[(devices, "online-predicted", "PREMA")].makespan_ms * 1.01
    # Scaling out helps: 4 devices strictly beat 1 on ANTT.
    assert by_key[(4, "work-stealing", "PREMA")].antt < \
        by_key[(1, "work-stealing", "PREMA")].antt


def test_control_plane_scaling(benchmark, emit):
    """Per-event cost flat in d at fixed per-device load."""
    rows = benchmark.pedantic(
        run_control_plane_scaling,
        rounds=1,
        iterations=1,
    )
    emit("cluster_control_plane", format_control_plane(rows))
    CONTROL_PLANE_RESULTS.parent.mkdir(exist_ok=True)
    CONTROL_PLANE_RESULTS.write_text(
        json.dumps(
            [row.__dict__ for row in rows], indent=2, sort_keys=True
        )
        + "\n"
    )
    by_devices = {r.num_devices: r for r in rows}
    # Flat per-event cost in the fleet size (fixed per-device load): the
    # loop may not grow beyond 3x from 4 to 64 devices.
    assert by_devices[64].us_per_event <= 3.0 * by_devices[4].us_per_event

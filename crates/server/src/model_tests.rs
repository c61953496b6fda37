//! Model-check suites for the server's lock-free accounting, run under
//! the `shuttle` interleaving explorer (`RUSTFLAGS="--cfg ses_shuttle"
//! cargo test -p ses-server -- model_`). The gauges route their atomics
//! through `ses_obs::sync`, so these explore the shipping code.

use crate::metrics::{Endpoint, ServerMetrics, ShardGauge};
use shuttle::{check_with, Config};
use std::sync::Arc;

#[test]
fn model_shard_gauge_depth_never_goes_negative_or_drifts() {
    // One connection's arrival racing another's departure: depth is a
    // zero-sum pair of relaxed RMWs, so it must end exactly balanced and
    // the handled/busy counters must not lose updates.
    let report = check_with(Config::default(), || {
        let g = Arc::new(ShardGauge::default());
        let g2 = Arc::clone(&g);
        // The other thread serves the one request accounted for before
        // spawning (in the server a connection thread calls served() after
        // its own enqueued(), so program order gives the edge the spawn
        // gives here).
        let first_depth = g.enqueued();
        assert_eq!(first_depth, 1);
        let worker = shuttle::thread::spawn(move || {
            g2.served(2_000);
        });
        // A second connection concurrently arrives at the shard.
        let d = g.enqueued();
        assert!(d >= 1 && d <= 2, "observed arrival depth out of range: {d}");
        worker.join().unwrap();
        assert_eq!(g.depth(), 1, "one request still queued");
        assert_eq!(g.handled(), 1);
        assert_eq!(g.busy_micros(), 2);
    });
    assert!(report.exhaustive);
}

#[test]
fn model_status_counters_are_exact_under_contention() {
    let report = check_with(Config::default(), || {
        let m = Arc::new(ServerMetrics::new());
        let m2 = Arc::clone(&m);
        let t = shuttle::thread::spawn(move || {
            m2.record(Endpoint::Event, 200, 10);
        });
        m.record(Endpoint::Solve, 500, 20);
        t.join().unwrap();
        assert_eq!(m.requests_2xx(), 1);
        assert_eq!(m.requests_5xx(), 1);
        assert_eq!(m.requests_4xx(), 0);
        let lines = m.endpoint_latencies();
        assert_eq!(lines.len(), 2, "both endpoints' histograms kept their hit");
    });
    assert!(report.exhaustive);
}

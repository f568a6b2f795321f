//! The streaming telemetry → detection pipeline, end to end: run the Fig 12
//! spine-kill scenario with telemetry capture on, stream the recorded
//! traffic through the incremental C4D master while the event stream is
//! recorded to CSV, then replay the CSV through a fresh master and check all
//! three detection paths (batch matrix scan, live stream, CSV replay) agree
//! verdict for verdict.
//!
//! Run with: `cargo run --release --example telemetry_pipeline`
//!
//! Expected output: the capture size, a per-kind breakdown of the recorded
//! event stream, a windowed collective-latency summary, and the three
//! identical diagnosis lists (empty on this healthy-but-degraded run —
//! losing a spine slows the job without tripping the 2× slow threshold).

use c4::prelude::*;
use c4::scenarios::fig12;

fn main() {
    // 1. Run the experiment with job 0's telemetry captured: 6 iterations,
    //    one spine killed after the third.
    let (report, tele) = fig12::run_with_telemetry(false, 42, 6, 3);
    println!(
        "fig12 static run: pre-fault {:.0} Gbps → post-fault {:.0} Gbps busbw",
        report.pre_mean, report.post_mean
    );

    // 2. Flatten the capture into the canonical event stream and export it.
    let snapshots = tele.snapshots();
    let events = events_from_snapshots(&snapshots);
    let mut by_kind = std::collections::BTreeMap::new();
    for e in &events {
        *by_kind
            .entry(match e {
                TelemetryEvent::Comm(_) => "comm",
                TelemetryEvent::Coll(_) => "coll",
                TelemetryEvent::Conn(_) => "conn",
                TelemetryEvent::Rank(_) => "rank",
                TelemetryEvent::Load(_) => "load",
            })
            .or_insert(0usize) += 1;
    }
    println!("captured {} events: {:?}", events.len(), by_kind);

    // 3. Windowed view of the same stream: mean completed-collective
    //    latency per 100 ms of simulated time, one line per closed pane.
    // The canonical order is snapshot-major (rank 0's full history, then
    // rank 1's, …), so time rewinds at each snapshot boundary; allowed
    // lateness spanning the run keeps those arrivals in their panes.
    let lateness = SimDuration::from_secs(1).as_nanos();
    let mut window: WindowedAggregate<u64> = WindowedAggregate::new(
        WindowSpec::tumbling_time(SimDuration::from_millis(100)).with_lateness(lateness),
        |e| match e {
            TelemetryEvent::Coll(c) if c.end.is_some() => Some(c.comm),
            _ => None,
        },
        |e| match e {
            TelemetryEvent::Coll(c) => c.end.map(|end| (end - c.start).as_secs_f64() * 1e3),
            _ => None,
        },
    );
    let mut panes = Vec::new();
    for e in &events {
        panes.extend(window.push(e));
    }
    panes.extend(window.flush());
    for p in &panes {
        println!(
            "  window [{:>5} ms, {:>5} ms) comm {}: mean coll latency {:.2} ms over {} ops",
            p.start / 1_000_000,
            p.end / 1_000_000,
            p.key,
            p.aggregate.mean().expect("a pane holds at least one value"),
            p.aggregate.count()
        );
    }

    // 4. Detect three ways — batch matrix scan, live stream, CSV replay —
    //    and verify the verdicts are identical.
    let detection = fig12::run_detection(&tele);
    assert_eq!(detection.streamed, detection.batch, "stream == batch");
    assert_eq!(detection.replayed, detection.streamed, "replay == stream");
    println!(
        "\nrecorded stream: {} CSV bytes; batch/stream/replay all report {} diagnoses",
        detection.events_csv.len(),
        detection.batch.len()
    );
    for d in &detection.batch {
        println!("  {:?} (suspect {:?})", d.syndrome, d.suspect);
    }
    println!("streaming detection path verified: batch == live stream == CSV replay");
}

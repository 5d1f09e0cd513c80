//! Figure 4 — throughput during a view change.
//!
//! Reproduces the paper's view-change experiment: the base case cluster
//! (c = m = 1, N = 6 for SeeMoRe, checkpoint period 10 000) runs the 0/0
//! micro-benchmark, the current primary is crashed part-way through the run,
//! and the throughput timeline is printed. The paper reports a short outage
//! (≈15 ms Lion, ≈20 ms Dog, ≈24 ms Peacock) followed by full recovery, with
//! BFT taking roughly twice as long as the Lion mode to recover.

use seemore_bench::{header, quick_mode};
use seemore_runtime::{ProtocolKind, Scenario};
use seemore_types::{Duration, Instant};

fn main() {
    header("Fig 4: throughput timeline around a primary crash (c = m = 1, 0/0)");

    let total = if quick_mode() {
        Duration::from_millis(300)
    } else {
        Duration::from_millis(600)
    };
    let crash_at = Instant::ZERO + Duration::from_millis(if quick_mode() { 100 } else { 200 });
    let bucket = Duration::from_millis(10);

    // The CFT baseline is not part of the paper's Figure 4; everything else is.
    let lines = [
        ProtocolKind::Bft,
        ProtocolKind::SUpright,
        ProtocolKind::SeeMoRePeacock,
        ProtocolKind::SeeMoReDog,
        ProtocolKind::SeeMoReLion,
    ];

    let mut summaries = Vec::new();
    for protocol in lines {
        // The paper uses a checkpoint period of 10 000 requests. BFT-SMaRt's
        // view-change messages stay small in that setting because they carry
        // compact per-batch proofs; this reproduction's VIEW-CHANGE carries
        // one certificate per uncheckpointed request, so we bound the
        // certificate set with a 1 000-request checkpoint period instead.
        // This is a substitution of this reproduction, not the paper's
        // setting.
        let report = Scenario::new(protocol, 1, 1)
            .with_clients(16)
            .with_duration(total, Duration::from_millis(20))
            .with_checkpoint_period(1_000)
            .with_primary_crash(crash_at)
            .run();

        println!(
            "# {} — bucketed throughput ({} ms buckets)",
            protocol.name(),
            bucket.as_millis()
        );
        println!("{:>12} {:>18}", "time[ms]", "throughput[kreq/s]");
        for point in &report.timeline {
            println!("{:>12.1} {:>18.3}", point.start_ms, point.throughput_kreqs);
        }
        println!();

        // Outage length: time from the crash until the first bucket whose
        // throughput recovers to at least half the pre-crash average.
        let crash_ms = crash_at.as_millis_f64();
        let pre_crash: Vec<f64> = report
            .timeline
            .iter()
            .filter(|b| b.start_ms + bucket.as_millis_f64() <= crash_ms && b.start_ms >= 20.0)
            .map(|b| b.throughput_kreqs)
            .collect();
        let pre_avg = if pre_crash.is_empty() {
            0.0
        } else {
            pre_crash.iter().sum::<f64>() / pre_crash.len() as f64
        };
        let recovery = report
            .timeline
            .iter()
            .filter(|b| b.start_ms >= crash_ms)
            .find(|b| b.throughput_kreqs >= pre_avg * 0.5)
            .map(|b| b.start_ms - crash_ms);
        summaries.push((protocol.name(), pre_avg, recovery, report.view_changes));
    }

    println!("# Summary");
    println!(
        "{:<12} {:>22} {:>22} {:>14}",
        "Protocol", "pre-crash [kreq/s]", "recovery time [ms]", "view changes"
    );
    for (name, pre, recovery, view_changes) in summaries {
        match recovery {
            Some(ms) => println!("{name:<12} {pre:>22.3} {ms:>22.1} {view_changes:>14}"),
            None => println!(
                "{name:<12} {pre:>22.3} {:>22} {view_changes:>14}",
                "not recovered"
            ),
        }
    }
    println!();
    println!(
        "# Shape check (paper expectation): every protocol recovers to its pre-crash\n\
         # throughput; the Lion mode recovers fastest and BFT takes roughly twice as\n\
         # long, with Dog and Peacock in between (Peacock helped by the transferer)."
    );
}

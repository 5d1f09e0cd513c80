//! Crash, recover, rejoin: durable replica state end to end.
//!
//! Runs the smallest hybrid deployment (c = 1, m = 1, Lion mode) on the
//! socket runtime with an in-memory durable store attached to every
//! replica, then kills the highest-numbered replica mid-run and restarts it
//! from that store a tenth of a second later. The restarted core replays its
//! write-ahead-log suffix onto the recovered checkpoint, announces the
//! restart, fetches the committed suffix it missed via state transfer, and
//! resumes voting — all while the rest of the cluster keeps serving clients.
//!
//! The run prints:
//!
//! 1. the **throughput across the fault** — the cluster never stops (the
//!    victim is not the primary and quorums survive one missing replica);
//! 2. the **victim's recovery telemetry** — how many rejoins completed, the
//!    restart→rejoin latency, how many WAL records were replayed and how
//!    many durable checkpoints were cut;
//! 3. the **recovery event timeline** — the raw `RecoveryStarted` /
//!    `RecoveryCompleted` trace events, timestamped on the run's clock.
//!
//! Run with: `cargo run --example recovery`.

use seemore::runtime::scenario::{CrashRecover, DurabilityKind};
use seemore::runtime::{ProtocolKind, RuntimeKind, Scenario};
use seemore::telemetry::EventKind;
use seemore::types::{Duration, Instant, ReplicaId};

fn main() {
    let protocol = ProtocolKind::SeeMoReLion;
    // The highest-numbered replica is never the view-0 primary, so the
    // crash exercises rejoin without also forcing a view change.
    let victim = ReplicaId(protocol.network_size(1, 1) - 1);
    let crash_at = Instant::from_nanos(150_000_000);
    let recover_at = Instant::from_nanos(250_000_000);

    let report = Scenario::new(protocol, 1, 1)
        .with_clients(4)
        .with_duration(Duration::from_millis(500), Duration::from_millis(20))
        .with_runtime(RuntimeKind::Socket)
        .with_durability(DurabilityKind::Memory)
        .with_crash_recover(CrashRecover::replica(victim, crash_at, recover_at))
        .with_tracing(true)
        .run();

    println!("== run summary ==");
    println!(
        "completed {} requests at {:.2} kreq/s across a crash of r{} at \
         {}ms (restarted from its durable store at {}ms)",
        report.completed,
        report.throughput_kreqs,
        victim.0,
        crash_at.as_nanos() / 1_000_000,
        recover_at.as_nanos() / 1_000_000,
    );
    println!();

    println!("== recovery telemetry ==");
    println!(
        "{:<8} {:>10} {:>15} {:>13} {:>13}",
        "replica", "rejoins", "rejoin [ms]", "wal replayed", "checkpoints"
    );
    for health in &report.health {
        println!(
            "r{:<7} {:>10} {:>15.3} {:>13} {:>13}",
            health.replica.0,
            health.recoveries,
            health
                .recovery_mean()
                .map_or(0.0, |d| d.as_nanos() as f64 / 1_000_000.0),
            health.wal_replayed,
            health.checkpoints_persisted,
        );
    }
    let victim_health = report
        .health
        .iter()
        .find(|h| h.replica == victim)
        .expect("victim health rollup");
    assert!(
        victim_health.recoveries >= 1,
        "the victim must complete its rejoin"
    );
    println!();

    println!("== recovery timeline ==");
    for event in report.trace.iter().filter(|e| {
        matches!(
            e.kind,
            EventKind::RecoveryStarted | EventKind::RecoveryCompleted
        )
    }) {
        println!(
            "{:>10.3} ms  {:?} {:?} (detail: {} WAL records)",
            event.at.as_nanos() as f64 / 1_000_000.0,
            event.node,
            event.kind,
            event.detail,
        );
    }
}

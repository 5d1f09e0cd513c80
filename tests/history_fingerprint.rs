//! Simulator histories, pinned bit for bit.
//!
//! For each of the six protocols at `(c, m) = (1, 1)` the deterministic
//! simulator runs four fixed-seed schedules — fault-free with adaptive
//! batching and half the operations reads, a primary crash, a backup's
//! crash-restart-rejoin from its durable store across several stable
//! checkpoints and WAL compactions, and (SeeMoRe only) a dynamic mode
//! switch — and this file asserts one SHA-256 per (protocol, schedule) over
//! every replica's executed history plus the run's completion, traffic and
//! view-change totals. Each cell's histories and completions must also pass
//! `seemore_core::check::safety` (all-pairs agreement on request and result
//! digests, order and batch atomicity, exactly-once, no completed write
//! lost).
//!
//! The constants were recorded at the commit *before* the replica chassis
//! was lifted out of the three replica structs; a refactor that claims
//! "simulator histories bit-identical" must leave them unedited. They are
//! regenerated only by a PR whose stated purpose is a behaviour change: run
//! the test, and paste the table it prints on a mismatch over `EXPECTED`.

use seemore::core::check::{self, History};
use seemore::crypto::sha256;
use seemore::runtime::{CrashRecover, DurabilityKind, ProtocolKind, Scenario, Workload};
use seemore::types::{Duration, Instant, Mode, ReplicaId};

const SEED: u64 = 0x5EED_0F21;
const RUN: Duration = Duration::from_millis(300);
const WARMUP: Duration = Duration::from_millis(20);
/// Short enough that the crash-recover schedule crosses many stable
/// checkpoints (each one persisted and followed by a WAL compaction).
const CHECKPOINT_PERIOD: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Schedule {
    FaultFree,
    PrimaryCrash,
    CrashRecover,
    ModeSwitch,
}

impl Schedule {
    const ALL: [Schedule; 4] = [
        Schedule::FaultFree,
        Schedule::PrimaryCrash,
        Schedule::CrashRecover,
        Schedule::ModeSwitch,
    ];

    fn name(self) -> &'static str {
        match self {
            Schedule::FaultFree => "fault_free",
            Schedule::PrimaryCrash => "primary_crash",
            Schedule::CrashRecover => "crash_recover",
            Schedule::ModeSwitch => "mode_switch",
        }
    }
}

/// The backup every crash-recover schedule restarts: the highest-numbered
/// replica is never the view-0 primary in any of the six deployments.
fn victim(protocol: ProtocolKind) -> ReplicaId {
    ReplicaId(protocol.network_size(1, 1) - 1)
}

/// The scenario for one (protocol, schedule) cell, or `None` where the
/// schedule does not apply (mode switching is SeeMoRe's alone).
fn scenario(protocol: ProtocolKind, schedule: Schedule) -> Option<Scenario> {
    let base = Scenario::new(protocol, 1, 1)
        .with_seed(SEED)
        .with_clients(6)
        .with_duration(RUN, WARMUP);
    Some(match schedule {
        Schedule::FaultFree => base
            .with_adaptive_batching(8, Duration::from_micros(200))
            .with_workload(Workload::kv(64, 32, 0.5)),
        Schedule::PrimaryCrash => base.with_primary_crash(Instant::from_nanos(60_000_000)),
        Schedule::CrashRecover => base
            .with_durability(DurabilityKind::Memory)
            .with_checkpoint_period(CHECKPOINT_PERIOD)
            .with_crash_recover(CrashRecover::replica(
                victim(protocol),
                Instant::from_nanos(80_000_000),
                Instant::from_nanos(160_000_000),
            )),
        Schedule::ModeSwitch => {
            let target = match protocol.seemore_mode()? {
                Mode::Lion => Mode::Peacock,
                Mode::Dog | Mode::Peacock => Mode::Lion,
            };
            base.with_mode_switch(Instant::from_nanos(100_000_000), target)
        }
    })
}

/// Runs one cell on the simulator and hashes what it produced.
fn fingerprint(protocol: ProtocolKind, schedule: Schedule, scenario: &Scenario) -> String {
    let (mut sim, primary) = scenario.build();
    // `build` wires the crash-recover and mode-switch schedules itself; the
    // plain primary crash is `Scenario::run`'s, so mirror it here.
    if let Some(at) = scenario.crash_primary_at {
        sim.schedule_crash(at, primary);
    }
    sim.run_until(Instant::ZERO + scenario.duration);
    let report = sim.report(Instant::ZERO + scenario.warmup, scenario.timeline_bucket);
    let label = format!("{} / {}", protocol.name(), schedule.name());
    assert!(report.completed > 0, "{label}: no progress");
    // Every replica, the crashed and the restarted ones included, is
    // non-faulty here, so the whole cluster must pass the safety oracle.
    let histories: Vec<History> = sim
        .replica_ids()
        .into_iter()
        .map(|id| (id, sim.replica(id).executed()))
        .collect();
    assert_eq!(
        check::safety(&histories, sim.completions()),
        Ok(()),
        "{label}"
    );

    let mut bytes = Vec::new();
    let mut put = |value: u64| bytes.extend_from_slice(&value.to_le_bytes());
    for id in sim.replica_ids() {
        let history = sim.replica(id).executed();
        put(u64::from(id.0));
        put(history.len() as u64);
        for entry in history {
            put(entry.seq.0);
            put(entry.offset as u64);
            put(entry.request.client.0);
            put(entry.request.timestamp.0);
            for digest in [entry.digest, entry.result_digest] {
                for word in digest.as_bytes().chunks(8) {
                    put(u64::from_le_bytes(word.try_into().expect("32 = 4 x 8")));
                }
            }
        }
    }
    put(report.completed);
    put(report.messages_delivered);
    put(report.bytes_delivered);
    put(report.view_changes);

    // The schedules must actually exercise what they are named for, or the
    // constants would pin nothing.
    match schedule {
        Schedule::FaultFree => assert_eq!(report.view_changes, 0, "{label}"),
        Schedule::PrimaryCrash | Schedule::ModeSwitch => {
            assert!(report.view_changes > 0, "{label}: no view was installed")
        }
        Schedule::CrashRecover => {
            let victim = victim(protocol);
            for id in sim.replica_ids() {
                // Every stable checkpoint above the last persisted one is
                // snapshotted to the store and the WAL compacted below it.
                let stable = sim.replica(id).metrics().stable_checkpoints;
                assert!(stable >= 2, "{label}: {id} saw {stable} stable checkpoints");
            }
            assert!(
                !sim.replica(victim).executed().is_empty(),
                "{label}: the restarted replica executed nothing after its rejoin"
            );
        }
    }
    sha256(&bytes)
        .iter()
        .map(|byte| format!("{byte:02x}"))
        .collect()
}

/// One SHA-256 per (protocol, schedule), recorded at the parent of the
/// chassis refactor. Do not edit in a PR that claims unchanged behaviour.
const EXPECTED: &[(&str, &str, &str)] = &[
    (
        "BFT",
        "fault_free",
        "889450044bb49aaaf47ca9abdc3180d4b36729af082d5469712fe58cea11d411",
    ),
    (
        "BFT",
        "primary_crash",
        "0e3bc1b3897a761f62d1aaaf6f292b9d1eebb6b8cb43f342e4f05652ca0f4b06",
    ),
    (
        "BFT",
        "crash_recover",
        "a789534b09f2a99880cc8ce8bf1289b820b28fce5717e7e028a15ef7d86dbdb2",
    ),
    (
        "S-UpRight",
        "fault_free",
        "db8b3692b0bc9a3bfa11ff27f6ac3af0df9bd52b116e25e08c44f0ec0f1f348f",
    ),
    (
        "S-UpRight",
        "primary_crash",
        "98474a3c23848fd191d510b91f3c1b79d60b4349d40eac0fb3234c2f25c376c1",
    ),
    (
        "S-UpRight",
        "crash_recover",
        "c26be0f34311f9f755aaa297d3c3c0e17dcfbfcbf2521cca9aa3d4dffba9a6df",
    ),
    (
        "Peacock",
        "fault_free",
        "b745ffc30a6ea004487ae8871ab1037b65a904d2a63c1f494f43aef81c567794",
    ),
    (
        "Peacock",
        "primary_crash",
        "d8c73fadbce195fa48a9f4a50a48dc253ffe21d21b0461888abce1edba1cb8f6",
    ),
    (
        "Peacock",
        "crash_recover",
        "1f944a4bb67250dc19345f48d50b06ef880eb97422ec969d1874f7f3a910b994",
    ),
    (
        "Peacock",
        "mode_switch",
        "d53068863d974b7a50279076072c0acac431fe03246a636d26ef6f8bd493f9c2",
    ),
    (
        "Dog",
        "fault_free",
        "d30ed01c1b99ec000104e297ad6311f4adde4332ea10873d2cfba0dd8497943e",
    ),
    (
        "Dog",
        "primary_crash",
        "e22ae3b802462274bfcb8548468b0702feab48382d8ca264eab9aab0d59a8af7",
    ),
    (
        "Dog",
        "crash_recover",
        "e2a73f5114784c499d8eadfb32df05d9bdfb732c773ac3e52954edd66d66ec62",
    ),
    (
        "Dog",
        "mode_switch",
        "1a10388204d639e40b970bd20b5aee8e35c2ba53510c21391c6c978ea5043127",
    ),
    (
        "Lion",
        "fault_free",
        "f57b2555c42656ebbaa6544b1c845035f356d7e609af743ad5df4d1a82693e64",
    ),
    (
        "Lion",
        "primary_crash",
        "d041b6f5cee441b51f9a534dd7b7030e21fd2e305f22621a14fd5c6f1e6ce143",
    ),
    (
        "Lion",
        "crash_recover",
        "c6a5f6882cb28387c2595dedb180b717061ae64c9724bd1fed0f2066e2c89ead",
    ),
    (
        "Lion",
        "mode_switch",
        "954ea1234e0a295807f45f1b09f512d29ce428fca144cd08af0eacc21e2c6e13",
    ),
    (
        "CFT",
        "fault_free",
        "55c61fac573bdef7f900d89571f2baa29adf246d8a079226dd3f5684fc160b9c",
    ),
    (
        "CFT",
        "primary_crash",
        "7189d09899c9e3dea93400fae9ee1f5dd34b528effd776f5fa0ad7454d9ae303",
    ),
    (
        "CFT",
        "crash_recover",
        "9d3e924e7f12a85c7004e2084750bf7e32deaf26cff0ad6aeb65ec41dddceb22",
    ),
];

#[test]
fn simulator_histories_match_the_recorded_fingerprints() {
    let mut table = String::new();
    let mut mismatches = Vec::new();
    let mut cells = 0;
    for protocol in ProtocolKind::ALL {
        for schedule in Schedule::ALL {
            let Some(scenario) = scenario(protocol, schedule) else {
                continue;
            };
            cells += 1;
            let actual = fingerprint(protocol, schedule, &scenario);
            table.push_str(&format!(
                "    (\"{}\", \"{}\", \"{actual}\"),\n",
                protocol.name(),
                schedule.name()
            ));
            let expected = EXPECTED
                .iter()
                .find(|(p, s, _)| *p == protocol.name() && *s == schedule.name())
                .map(|(_, _, hash)| *hash);
            if expected != Some(actual.as_str()) {
                mismatches.push(format!("{} / {}", protocol.name(), schedule.name()));
            }
        }
    }
    assert_eq!(
        cells,
        6 * 3 + 3,
        "six protocols x three schedules + three mode switches"
    );
    assert_eq!(EXPECTED.len(), cells, "one constant per cell\n{table}");
    assert!(
        mismatches.is_empty(),
        "histories changed for {mismatches:?}; the run produced:\n{table}"
    );
}

/// The crash-recover schedule once more with tracing on, for the one thing
/// the replicas' histories cannot show: how many records the restarted
/// replica found in its WAL (one per vote that reached the store since the
/// last compaction) and how many checkpoints each replica persisted.
/// Tracing itself leaves the run untouched, which is asserted too.
#[test]
fn crash_recover_replays_and_persists_the_recorded_counts() {
    let mut table = String::new();
    let mut mismatches = Vec::new();
    for protocol in ProtocolKind::ALL {
        let scenario = scenario(protocol, Schedule::CrashRecover).expect("applies to all");
        let plain = scenario.run();
        let traced = scenario.clone().with_tracing(true).run();
        assert_eq!(
            (
                plain.completed,
                plain.messages_delivered,
                plain.bytes_delivered
            ),
            (
                traced.completed,
                traced.messages_delivered,
                traced.bytes_delivered
            ),
            "{}: tracing perturbed the run",
            protocol.name()
        );
        let victim = victim(protocol);
        let health = traced
            .health
            .iter()
            .find(|h| h.replica == victim)
            .expect("victim health rollup");
        assert!(health.recoveries >= 1, "{}: no rejoin", protocol.name());
        let persisted: u64 = traced.health.iter().map(|h| h.checkpoints_persisted).sum();
        assert!(
            persisted >= 2,
            "{}: no compaction happened",
            protocol.name()
        );
        let actual = (health.recoveries, health.wal_replayed, persisted);
        table.push_str(&format!("    (\"{}\", {actual:?}),\n", protocol.name()));
        let expected = EXPECTED_RECOVERY
            .iter()
            .find(|(p, _)| *p == protocol.name())
            .map(|(_, counts)| *counts);
        if expected != Some(actual) {
            mismatches.push(protocol.name());
        }
    }
    assert!(
        mismatches.is_empty(),
        "recovery counts changed for {mismatches:?}; the run produced:\n{table}"
    );
}

/// Per protocol: the victim's completed rejoins, the WAL records it replayed
/// at restart, and the checkpoints persisted across the whole cluster.
const EXPECTED_RECOVERY: &[(&str, (u64, u64, u64))] = &[
    ("BFT", (1, 19, 700)),
    ("S-UpRight", (1, 15, 637)),
    ("Peacock", (1, 6, 649)),
    ("Dog", (1, 23, 741)),
    ("Lion", (1, 6, 758)),
    ("CFT", (1, 15, 654)),
];

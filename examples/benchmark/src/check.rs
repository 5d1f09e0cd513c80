//! The output checker, run on every workload after shutdown.
//!
//! 1. Replicas agree: wherever two histories both hold an entry for a
//!    `(seq, offset)`, request digest and result digest are the same, and
//!    every history is in `(seq, offset)` order. Histories may have gaps (a
//!    replica that fell behind or rejoined skips what state transfer covered)
//!    and stragglers may stop early.
//! 2. Nothing acknowledged is lost or doubled: every acknowledged write is in
//!    the agreed history — exactly once on fault-free workloads, at least once
//!    across the scripted view change (a re-proposed request is answered from
//!    the reply cache, so all its entries must carry the same result) — with
//!    the result digest of the reply the client accepted. A read appears only
//!    if it fell back to the ordered path, and then under the same rule.
//! 3. Replies are right: the no-op application returns its empty reply, a
//!    `Put` is acknowledged, and a `Get` returns the same client's last
//!    acknowledged `Put` of that key (every key has one writer, see
//!    `workloads::operations`), else the prefilled value, else not-found.
//!
//! An operation that never completed or got a wrong reply counts as failed.

use crate::adapter::{self, Answer, ReplicaEnd};
use crate::load::ClientLog;
use crate::workloads::{App, Op, Spec};
use std::collections::HashMap;

#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    /// First few violations, for the log; `correct` is their absence.
    pub violations: Vec<String>,
    violation_count: u64,
    /// Entries the slowest live replica trails the agreed history by.
    pub follower_lag_max: u64,
}

impl Verdict {
    pub fn correct(&self) -> bool {
        self.violation_count == 0
    }

    fn violation(&mut self, text: String) {
        self.violation_count += 1;
        if self.violations.len() < 8 {
            self.violations.push(text);
        }
    }

    /// Folds another phase's verdict into this one.
    pub fn merge(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violation_count += other.violation_count;
        self.violations.extend(other.violations);
        self.violations.truncate(8);
        self.follower_lag_max = self.follower_lag_max.max(other.follower_lag_max);
    }
}

struct Agreed {
    client: u64,
    timestamp: u64,
    request_digest: [u8; 32],
    result_digest: [u8; 32],
}

pub fn check(
    spec: &Spec,
    ops: &[Vec<Op>],
    logs: &[ClientLog],
    replicas: Option<&[ReplicaEnd]>,
) -> Verdict {
    let mut verdict = Verdict::default();
    for log in logs {
        verdict.attempted += log.attempted;
        verdict.failed += log.attempted - log.samples.len() as u64;
    }
    let Some(replicas) = replicas else {
        verdict.violation(
            "a client thread hung, so the cluster could not be stopped and no history was read"
                .to_string(),
        );
        return verdict;
    };

    // 1. One agreed history out of all replicas' histories.
    let mut agreed: HashMap<(u64, u64), Agreed> = HashMap::new();
    for replica in replicas {
        let mut previous = None;
        for entry in &replica.history {
            let slot = (entry.seq, entry.offset);
            if previous.is_some_and(|previous| previous >= slot) {
                verdict.violation(format!(
                    "replica {} executed {slot:?} after {previous:?}",
                    replica.id
                ));
            }
            previous = Some(slot);
            match agreed.get(&slot) {
                None => {
                    agreed.insert(
                        slot,
                        Agreed {
                            client: entry.client,
                            timestamp: entry.timestamp,
                            request_digest: entry.request_digest,
                            result_digest: entry.result_digest,
                        },
                    );
                }
                Some(known) => {
                    if known.request_digest != entry.request_digest {
                        verdict.violation(format!(
                            "replica {} executed a different request at {slot:?}",
                            replica.id
                        ));
                    } else if known.result_digest != entry.result_digest {
                        verdict.violation(format!(
                            "replica {} computed a different result at {slot:?}",
                            replica.id
                        ));
                    }
                }
            }
        }
    }
    let mut slots: Vec<&(u64, u64)> = agreed.keys().collect();
    slots.sort_unstable();
    for replica in replicas.iter().filter(|replica| !replica.crashed) {
        let behind = match replica.history.last() {
            Some(last) => {
                slots.len() - slots.partition_point(|slot| **slot <= (last.seq, last.offset))
            }
            None => slots.len(),
        };
        verdict.follower_lag_max = verdict.follower_lag_max.max(behind as u64);
    }

    // 2. and 3. Every acknowledged operation against the agreed history and
    // against what its client wrote before.
    let mut executions: HashMap<(u64, u64), Vec<[u8; 32]>> = HashMap::new();
    for entry in agreed.values() {
        executions
            .entry((entry.client, entry.timestamp))
            .or_default()
            .push(entry.result_digest);
    }
    let across_view_change = spec.faults_after_window;
    let prefilled = match spec.app {
        App::Kv { keys } => keys as u64,
        App::Noop { .. } | App::KvCounter => 0,
    };
    for (client, log) in logs.iter().enumerate() {
        let stream = &ops[client];
        let mut written: HashMap<u64, u64> = HashMap::new();
        let mut failed_here = 0;
        for sample in &log.samples {
            let op = stream[sample.position as usize % stream.len()];
            let reply = &sample.reply;
            let expected = match op {
                Op::Noop => Answer::Opaque(0),
                Op::Put { key, tag } => {
                    written.insert(key, tag);
                    Answer::Ok
                }
                Op::Get { key } => match written.get(&key) {
                    Some(tag) => Answer::Value(adapter::value_bytes(client as u64, *tag)),
                    None if key < prefilled => Answer::Value(adapter::prefill_value(key)),
                    None => Answer::NotFound,
                },
            };
            let entries = executions
                .get(&(reply.client, reply.timestamp))
                .map_or(&[][..], Vec::as_slice);
            let digest = adapter::result_digest(&reply.result);
            let allowed = match (sample.read, across_view_change) {
                (false, false) => 1..=1,
                (false, true) => 1..=usize::MAX,
                (true, false) => 0..=1,
                (true, true) => 0..=usize::MAX,
            };
            let wrong = if entries.iter().any(|executed| *executed != digest) {
                Some("accepted a result the replicas did not compute".to_string())
            } else if !allowed.contains(&entries.len()) {
                Some(format!(
                    "acknowledged, but executed {} times",
                    entries.len()
                ))
            } else if adapter::decode_answer(spec, &reply.result) != expected {
                Some("reply differs from the expected answer".to_string())
            } else {
                None
            };
            if let Some(what) = wrong {
                verdict.violation(format!(
                    "client {client} op {} ({op:?}): {what}",
                    sample.position
                ));
                failed_here += 1;
            }
        }
        verdict.failed += failed_here;
    }
    verdict
}

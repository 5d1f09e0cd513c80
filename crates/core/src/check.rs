//! The safety and liveness oracle: what a test asks of the histories a run
//! produced, written once.
//!
//! SeeMoRe's safety claim is that every non-faulty replica executes the
//! same requests in the same order. The checks here judge that claim on
//! plain data: each listed replica's [`ExecutedEntry`] history, the
//! clients' [`ClientOutcome`]s and, for reads, the register operations a
//! test submitted. Each check returns the first [`Violation`] it finds and
//! never panics, so a test asserts `Ok(())` and a schedule searcher can
//! shrink on the typed result.
//!
//! Histories are compared per slot (sequence number), never by position,
//! and every pair of listed replicas is compared, not only neighbours in
//! the list: a replica that skipped slot `s` through checkpoint state
//! transfer must not hide a divergence at `s` between two others. List
//! only replicas the run treats as correct; a crashed replica's history is
//! a prefix and passes the safety checks, a Byzantine one's proves nothing.

use crate::chassis::{noop_request, NOOP_CLIENT};
use crate::client::ClientOutcome;
use crate::exec::ExecutedEntry;
use seemore_app::{KvOp, KvResult};
use seemore_types::{ClientId, Instant, OpClass, ReplicaId, RequestId, SeqNum, Timestamp};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};

/// One replica's executed history, as the checks take it.
pub type History<'a> = (ReplicaId, &'a [ExecutedEntry]);

/// A register operation a test submitted: a `Put` or a `Get` on a
/// [`KvStore`](seemore_app::KvStore) key, and when it was invoked. Every
/// `Put` must write a value no other `Put` writes, so that the value a read
/// returns names its writer.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// Identity of the submitted request.
    pub request: RequestId,
    /// The operation (other than `Put` and `Get`, ignored).
    pub op: KvOp,
    /// When the client submitted it.
    pub at: Instant,
}

/// The first way a run broke a checked property; each variant's doc names
/// its fields.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// Replicas `a` and `b` executed different requests, or the same
    /// requests with different results, at slot `seq`.
    Divergence {
        seq: SeqNum,
        a: ReplicaId,
        b: ReplicaId,
    },
    /// `replica` executed slot `seq` after the higher slot `after`.
    SlotOrder {
        replica: ReplicaId,
        seq: SeqNum,
        after: SeqNum,
    },
    /// `replica` executed the request at `offset` of slot `seq` out of batch
    /// order: a batch starts at offset 0 and runs 1, 2, … without a break.
    BatchSplit {
        replica: ReplicaId,
        seq: SeqNum,
        offset: usize,
    },
    /// `replica` executed `request` after a newer request of the same
    /// client, stamped `after`.
    ClientOrder {
        replica: ReplicaId,
        request: RequestId,
        after: Timestamp,
    },
    /// `replica` re-executed `request` with a result other than the first
    /// execution's.
    ResultChanged {
        replica: ReplicaId,
        request: RequestId,
    },
    /// A client saw the write `request` complete, yet no listed replica
    /// executed it.
    CompletionLost { request: RequestId },
    /// The read `read` returned a value that the write `overwritten_by`
    /// had already replaced: that write completed before the read was
    /// invoked and is ordered after the write the read saw.
    StaleRead {
        read: RequestId,
        overwritten_by: RequestId,
    },
    /// The read `read` returned something no executed write to its key
    /// explains: a value never written there, a value whose write no listed
    /// replica executed, or a result that is not a read's.
    UnexplainedRead { read: RequestId },
    /// `replica` executed no slot at or past `checkpoint`; its highest
    /// executed slot is `reached`.
    NoProgress {
        replica: ReplicaId,
        reached: SeqNum,
        checkpoint: SeqNum,
    },
    /// `replica` executed `request` at slot `seq`, yet no client submitted
    /// it and it is not the no-op that fills `seq`.
    Unsubmitted {
        replica: ReplicaId,
        seq: SeqNum,
        request: RequestId,
    },
}

/// A history per slot: each sequence number's entries, in execution order.
pub fn slots(history: &[ExecutedEntry]) -> BTreeMap<SeqNum, Vec<&ExecutedEntry>> {
    let mut slots: BTreeMap<SeqNum, Vec<&ExecutedEntry>> = BTreeMap::new();
    for entry in history {
        slots.entry(entry.seq).or_default().push(entry);
    }
    slots
}

/// The longest history listed (empty if none): the run's most complete
/// execution order, which [`agreement`] makes a per-slot superset of the
/// others.
pub fn canonical<'a>(histories: &[History<'a>]) -> &'a [ExecutedEntry] {
    histories
        .iter()
        .map(|&(_, history)| history)
        .max_by_key(|history| history.len())
        .unwrap_or(&[])
}

/// Every pair of listed replicas executed the same requests, in the same
/// batch order and with the same request and result digests, at every slot
/// both executed.
pub fn agreement(histories: &[History<'_>]) -> Result<(), Violation> {
    let mut first: BTreeMap<SeqNum, (ReplicaId, Vec<&ExecutedEntry>)> = BTreeMap::new();
    for &(b, history) in histories {
        for (seq, slot) in slots(history) {
            match first.entry(seq) {
                Entry::Vacant(vacant) => {
                    vacant.insert((b, slot));
                }
                Entry::Occupied(agreed) if agreed.get().1 != slot => {
                    let a = agreed.get().0;
                    return Err(Violation::Divergence { seq, a, b });
                }
                Entry::Occupied(_) => {}
            }
        }
    }
    Ok(())
}

/// Each history executes slots in increasing order, each slot's batch
/// contiguously at offsets 0, 1, 2, …, and each client's requests in
/// timestamp order.
pub fn order_and_atomicity(histories: &[History<'_>]) -> Result<(), Violation> {
    for &(replica, history) in histories {
        let mut newest: HashMap<ClientId, Timestamp> = HashMap::new();
        let mut previous: Option<&ExecutedEntry> = None;
        for entry in history {
            let seq = entry.seq;
            let expected = match previous {
                Some(p) if p.seq == seq => p.offset + 1,
                Some(p) if p.seq > seq => {
                    return Err(Violation::SlotOrder {
                        replica,
                        seq,
                        after: p.seq,
                    })
                }
                _ => 0,
            };
            if entry.offset != expected {
                let offset = entry.offset;
                return Err(Violation::BatchSplit {
                    replica,
                    seq,
                    offset,
                });
            }
            let request = entry.request;
            if let Some(after) = newest
                .insert(request.client, request.timestamp)
                .filter(|newer| *newer > request.timestamp)
            {
                return Err(Violation::ClientOrder {
                    replica,
                    request,
                    after,
                });
            }
            previous = Some(entry);
        }
    }
    Ok(())
}

/// Every execution of a request, on any listed replica, carries the result
/// digest of its first: a re-proposed request is answered from the reply
/// cache, never applied twice.
pub fn exactly_once(histories: &[History<'_>]) -> Result<(), Violation> {
    let mut results = HashMap::new();
    for &(replica, history) in histories {
        for entry in history {
            let request = entry.request;
            if *results.entry(request).or_insert(entry.result_digest) != entry.result_digest {
                return Err(Violation::ResultChanged { replica, request });
            }
        }
    }
    Ok(())
}

/// Every write a client saw complete was executed by some listed replica.
/// Reads are exempt: one served by the fast path is never ordered.
pub fn no_completion_lost(
    histories: &[History<'_>],
    outcomes: &[ClientOutcome],
) -> Result<(), Violation> {
    let executed: HashSet<RequestId> = histories
        .iter()
        .flat_map(|&(_, history)| history.iter().map(|entry| entry.request))
        .collect();
    let writes = outcomes.iter().filter(|o| o.class == OpClass::Write);
    match writes.map(|o| o.request).find(|r| !executed.contains(r)) {
        Some(request) => Err(Violation::CompletionLost { request }),
        None => Ok(()),
    }
}

/// Validity: every request a listed replica executed is one that a client
/// submitted (`submitted` lists them all), or the internal no-op of a view
/// change's gap.
pub fn validity(histories: &[History<'_>], submitted: &[RequestId]) -> Result<(), Violation> {
    let submitted: HashSet<RequestId> = submitted.iter().copied().collect();
    for &(replica, history) in histories {
        for entry in history {
            let request = entry.request;
            let noop = request.client == NOOP_CLIENT
                && entry.digest == noop_request(SeqNum(request.timestamp.0)).digest();
            if !noop && !submitted.contains(&request) {
                return Err(Violation::Unsubmitted {
                    replica,
                    seq: entry.seq,
                    request,
                });
            }
        }
    }
    Ok(())
}

/// The four safety checks in turn: [`agreement`], [`order_and_atomicity`],
/// [`exactly_once`] and [`no_completion_lost`].
pub fn safety(histories: &[History<'_>], outcomes: &[ClientOutcome]) -> Result<(), Violation> {
    agreement(histories)?;
    order_and_atomicity(histories)?;
    exactly_once(histories)?;
    no_completion_lost(histories, outcomes)
}

/// Every completed read of a register returns the value of the latest
/// write that completed before the read was invoked, or of a write
/// concurrent with it (Wing & Gong's register rule).
///
/// The order of writes is their first position in the [`canonical`]
/// history (a re-proposal is answered from the reply cache and does not
/// move a write's effect), once [`agreement`] has vouched for it. A read
/// that returns the value of write `W` is stale if another write to the
/// key is ordered after `W` and completed before the read was invoked; a
/// read that returns nothing is stale if any write to the key completed
/// before it was invoked. Only non-overlapping operations constrain each
/// other, so the rule is sound for concurrent ones.
pub fn reads_linearizable(
    histories: &[History<'_>],
    invocations: &[Invocation],
    outcomes: &[ClientOutcome],
) -> Result<(), Violation> {
    agreement(histories)?;
    let mut position = HashMap::new();
    for (at, entry) in canonical(histories).iter().enumerate() {
        position.entry(entry.request).or_insert(at);
    }
    let invoked: HashMap<RequestId, &Invocation> =
        invocations.iter().map(|i| (i.request, i)).collect();
    let writer: HashMap<&[u8], (RequestId, &[u8])> = invocations
        .iter()
        .filter_map(|i| match &i.op {
            KvOp::Put { key, value } => Some((value.as_slice(), (i.request, key.as_slice()))),
            _ => None,
        })
        .collect();

    // Completed writes: key, identity, position, completion time.
    let mut completed = Vec::new();
    for outcome in outcomes {
        let request = outcome.request;
        if let Some(KvOp::Put { key, .. }) = invoked.get(&request).map(|i| &i.op) {
            let Some(&at) = position.get(&request) else {
                return Err(Violation::CompletionLost { request });
            };
            completed.push((key.as_slice(), request, at, outcome.completed_at));
        }
    }

    for outcome in outcomes {
        let read = outcome.request;
        let Some((KvOp::Get { key }, invoked_at)) = invoked.get(&read).map(|i| (&i.op, i.at))
        else {
            continue;
        };
        let unexplained = Violation::UnexplainedRead { read };
        // The position of the write whose value the read returned; `None`
        // when it returned nothing.
        let seen = match KvResult::decode(&outcome.result) {
            Some(KvResult::Value(value)) => match writer.get(value.as_slice()) {
                Some((w, wkey)) if *wkey == key.as_slice() => {
                    Some(*position.get(w).ok_or(unexplained)?)
                }
                _ => return Err(unexplained),
            },
            Some(KvResult::NotFound) => None,
            _ => return Err(unexplained),
        };
        if let Some(&(_, overwritten_by, _, _)) = completed.iter().find(|(wkey, _, at, done)| {
            *wkey == key.as_slice() && *done < invoked_at && seen.is_none_or(|s| *at > s)
        }) {
            return Err(Violation::StaleRead {
                read,
                overwritten_by,
            });
        }
    }
    Ok(())
}

/// Every listed replica executed a slot at or past `checkpoint`. The run's
/// length is the bound: call it once the run has had the time it allows.
pub fn progress_past(histories: &[History<'_>], checkpoint: SeqNum) -> Result<(), Violation> {
    for &(replica, history) in histories {
        let reached = history.iter().map(|e| e.seq).max().unwrap_or_default();
        if reached < checkpoint {
            return Err(Violation::NoProgress {
                replica,
                reached,
                checkpoint,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use seemore_crypto::Digest;
    use seemore_types::Duration;

    const R0: ReplicaId = ReplicaId(0);
    const R1: ReplicaId = ReplicaId(1);
    const R2: ReplicaId = ReplicaId(2);

    fn id(client: u64, ts: u64) -> RequestId {
        RequestId::new(ClientId(client), Timestamp(ts))
    }

    /// Request `(client, ts)` executed at `offset` of slot `seq` with
    /// result `result`.
    fn entry(seq: u64, offset: usize, (client, ts): (u64, u64), result: &str) -> ExecutedEntry {
        ExecutedEntry {
            seq: SeqNum(seq),
            offset,
            request: id(client, ts),
            digest: Digest::of_fields(&[&client.to_le_bytes(), &ts.to_le_bytes()]),
            result_digest: Digest::of_fields(&[result.as_bytes()]),
        }
    }

    /// Two clients, three slots, the second a batch of two.
    fn good() -> Vec<ExecutedEntry> {
        vec![
            entry(1, 0, (0, 1), "a"),
            entry(2, 0, (1, 1), "b"),
            entry(2, 1, (0, 2), "c"),
            entry(3, 0, (1, 2), "d"),
        ]
    }

    fn outcome(request: RequestId, class: OpClass, result: Vec<u8>, at: u64) -> ClientOutcome {
        ClientOutcome {
            request,
            class,
            result,
            latency: Duration::from_nanos(1),
            completed_at: Instant::from_nanos(at),
        }
    }

    #[test]
    fn a_healthy_run_passes_every_check() {
        let history = good();
        // A replica restored past slot 2 by state transfer, and one that
        // has executed nothing yet.
        let histories = [(R0, &history[..]), (R1, &history[3..]), (R2, &[][..])];
        let outcomes = [outcome(id(0, 1), OpClass::Write, Vec::new(), 1)];
        assert_eq!(safety(&histories, &outcomes), Ok(()));
        assert_eq!(progress_past(&histories[..2], SeqNum(3)), Ok(()));
        assert_eq!(canonical(&histories), &history[..]);
        assert!(canonical(&[]).is_empty());
    }

    #[test]
    fn agreement_compares_pairs_that_adjacent_ones_cannot_see() {
        // R1 skipped slot 2 through state transfer; R0 and R2, never
        // neighbours in the list, diverge there.
        let mut other = good();
        other[2] = entry(2, 1, (0, 9), "c");
        let good = good();
        let histories = [(R0, &good[..]), (R1, &good[3..]), (R2, &other[..])];
        let divergence = Violation::Divergence {
            seq: SeqNum(2),
            a: R0,
            b: R2,
        };
        assert_eq!(agreement(&histories), Err(divergence));
    }

    #[test]
    fn agreement_compares_result_digests() {
        let mut other = good();
        other[0].result_digest = Digest::of_fields(&[b"forked state"]);
        let good = good();
        let divergence = Violation::Divergence {
            seq: SeqNum(1),
            a: R0,
            b: R1,
        };
        assert_eq!(agreement(&[(R0, &good), (R1, &other)]), Err(divergence));
    }

    #[test]
    fn order_and_atomicity_rejects_each_kind_of_disorder() {
        let check = |history: Vec<ExecutedEntry>| order_and_atomicity(&[(R1, &history)]);
        let slot_back = vec![
            entry(1, 0, (0, 1), "a"),
            entry(3, 0, (1, 1), "b"),
            entry(2, 0, (0, 2), "c"),
        ];
        assert_eq!(
            check(slot_back),
            Err(Violation::SlotOrder {
                replica: R1,
                seq: SeqNum(2),
                after: SeqNum(3),
            })
        );
        let mut split = good();
        split[2].offset = 2;
        assert_eq!(
            check(split),
            Err(Violation::BatchSplit {
                replica: R1,
                seq: SeqNum(2),
                offset: 2,
            })
        );
        let mut client_back = good();
        client_back[0].request = id(0, 3);
        assert_eq!(
            check(client_back),
            Err(Violation::ClientOrder {
                replica: R1,
                request: id(0, 2),
                after: Timestamp(3),
            })
        );
    }

    #[test]
    fn exactly_once_rejects_a_re_execution_with_another_result() {
        let mut history = good();
        history.push(entry(4, 0, (0, 1), "a"));
        assert_eq!(exactly_once(&[(R0, &history)]), Ok(()));
        history[4] = entry(4, 0, (0, 1), "applied twice");
        let changed = Violation::ResultChanged {
            replica: R0,
            request: id(0, 1),
        };
        assert_eq!(exactly_once(&[(R0, &history)]), Err(changed));
    }

    #[test]
    fn no_completion_lost_rejects_an_unexecuted_write_only() {
        let history = good();
        let histories = [(R0, &history[..])];
        let read = outcome(id(2, 1), OpClass::Read, Vec::new(), 1);
        assert_eq!(no_completion_lost(&histories, &[read]), Ok(()));
        let write = outcome(id(2, 1), OpClass::Write, Vec::new(), 1);
        let lost = Violation::CompletionLost { request: id(2, 1) };
        assert_eq!(no_completion_lost(&histories, &[write]), Err(lost));
    }

    #[test]
    fn progress_past_rejects_a_replica_behind_the_checkpoint() {
        let history = good();
        let histories = [(R0, &history[..]), (R1, &history[..2])];
        let behind = Violation::NoProgress {
            replica: R1,
            reached: SeqNum(2),
            checkpoint: SeqNum(3),
        };
        assert_eq!(progress_past(&histories, SeqNum(3)), Err(behind));
    }

    #[test]
    fn validity_rejects_an_executed_request_nobody_submitted() {
        let mut history = good();
        let submitted = [id(0, 1), id(1, 1), id(0, 2), id(1, 2)];
        assert_eq!(validity(&[(R0, &history)], &submitted), Ok(()));
        // A view change's no-op fills slot 4; it needs no submitter.
        let noop = noop_request(SeqNum(4));
        history.push(ExecutedEntry {
            seq: SeqNum(4),
            offset: 0,
            request: noop.id(),
            digest: noop.digest(),
            result_digest: Digest::of_fields(&[b"noop"]),
        });
        assert_eq!(validity(&[(R0, &history)], &submitted), Ok(()));
        // A forged request in a submitter's name, at the forger's timestamp.
        history.push(entry(5, 0, (0, 99), "forged"));
        let forged = Violation::Unsubmitted {
            replica: R0,
            seq: SeqNum(5),
            request: id(0, 99),
        };
        assert_eq!(validity(&[(R0, &history)], &submitted), Err(forged));
        // The no-op client's id alone does not make a request the no-op.
        let mut posing = good();
        posing.push(ExecutedEntry {
            request: noop.id(),
            ..entry(4, 0, (0, 0), "posing")
        });
        let posing_as_noop = Violation::Unsubmitted {
            replica: R1,
            seq: SeqNum(4),
            request: noop.id(),
        };
        assert_eq!(validity(&[(R1, &posing)], &submitted), Err(posing_as_noop));
    }

    /// Two writes to `alpha` by client 0, then its read at t = 100 that
    /// returns `value`; the writes complete at t = 5 and t = 20.
    fn register_run(value: KvResult) -> Result<(), Violation> {
        let key = b"alpha".to_vec();
        let put = |value: &[u8]| KvOp::Put {
            key: key.clone(),
            value: value.to_vec(),
        };
        let invocations = [
            (1, put(b"w1"), 0),
            (2, put(b"w2"), 10),
            (3, KvOp::Get { key: key.clone() }, 100),
        ]
        .map(|(ts, op, at)| Invocation {
            request: id(0, ts),
            op,
            at: Instant::from_nanos(at),
        });
        let history = [entry(1, 0, (0, 1), "ok"), entry(2, 0, (0, 2), "ok")];
        let outcomes = [
            outcome(id(0, 1), OpClass::Write, KvResult::Ok.encode(), 5),
            outcome(id(0, 2), OpClass::Write, KvResult::Ok.encode(), 20),
            outcome(id(0, 3), OpClass::Read, value.encode(), 120),
        ];
        reads_linearizable(&[(R0, &history)], &invocations, &outcomes)
    }

    #[test]
    fn the_checker_rejects_a_fabricated_stale_read() {
        assert_eq!(register_run(KvResult::Value(b"w2".to_vec())), Ok(()));
        // The read began at t = 100, after w2 completed at t = 20, yet
        // returns w1's value, or nothing.
        let stale = Violation::StaleRead {
            read: id(0, 3),
            overwritten_by: id(0, 2),
        };
        assert_eq!(register_run(KvResult::Value(b"w1".to_vec())), Err(stale));
        let stale = Violation::StaleRead {
            read: id(0, 3),
            overwritten_by: id(0, 1),
        };
        assert_eq!(register_run(KvResult::NotFound), Err(stale));
    }

    #[test]
    fn a_read_of_a_value_nobody_wrote_is_unexplained() {
        let unexplained = Violation::UnexplainedRead { read: id(0, 3) };
        let forged = KvResult::Value(b"w9".to_vec());
        assert_eq!(register_run(forged), Err(unexplained));
        assert_eq!(register_run(KvResult::Ok), Err(unexplained));
    }
}

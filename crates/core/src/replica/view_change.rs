//! SeeMoRe's side of the view change (Sections 5.1–5.3 of the paper): the
//! values its three modes run the shared view change under (see
//! [`crate::view_change`]), the grace its suspicion timers get, its vote for
//! a re-proposed slot, and dynamic mode switching (Section 5.4).

use super::SeeMoReReplica;
use crate::actions::{Action, Timer};
use crate::protocol::ReplicaProtocol;
use crate::view_change::{
    Carried, Expiry, Grace, Installed, Suspicion, ViewChangeInput, ViewChangeRules,
};
use seemore_crypto::{Digest, Signature};
use seemore_telemetry::EventKind;
use seemore_types::{
    ClusterConfig, Instant, Mode, NodeId, ProtocolViolation, ReplicaId, SeqNum, View,
};
use seemore_wire::{Accept, ClientRequest, Message, ModeChange, PbftPrepare};

/// The trusted replica that is allowed to announce a switch to `mode`
/// starting at `new_view`: the new primary for Lion/Dog, the transferer for
/// Peacock (Section 5.4). The same replica collects that view's
/// `VIEW-CHANGE` votes and sends its `NEW-VIEW`.
pub fn mode_switch_announcer(
    cluster: &ClusterConfig,
    new_view: View,
    mode: Mode,
) -> Option<ReplicaId> {
    match mode {
        Mode::Lion | Mode::Dog => cluster.primary(mode, new_view).ok(),
        Mode::Peacock => cluster.transferer(new_view).ok(),
    }
}

impl SeeMoReReplica {
    /// The mode the *next* view will run in (the pending switch target, if
    /// any, otherwise the current mode).
    pub(crate) fn effective_next_mode(&self) -> Mode {
        self.pending_mode.unwrap_or(self.chassis.mode)
    }

    /// Whether this replica is eligible to *vote* for a view change into
    /// `mode` (Lion: everyone; Dog / Peacock: public-cloud replicas).
    pub(crate) fn is_view_change_voter(&self, mode: Mode) -> bool {
        match mode {
            Mode::Lion => true,
            Mode::Dog | Mode::Peacock => !self.cluster.is_trusted(self.chassis.id),
        }
    }

    /// SeeMoRe's values for the view change to `(view, mode)`: the new
    /// primary collects in Lion and Dog, the transferer in Peacock; more
    /// than `m` votes make a voter join; only a Lion view carries commit
    /// certificates and promotes a quorum of prepares; in Dog only the
    /// public cloud and the collector hear the votes (Section 5.2).
    fn view_change_rules(&self, view: View, mode: Mode) -> ViewChangeRules {
        let collector = mode_switch_announcer(&self.cluster, view, mode);
        let lion = mode == Mode::Lion;
        let mut recipients: Vec<ReplicaId> = match mode {
            Mode::Lion | Mode::Peacock => self.cluster.replicas().collect(),
            Mode::Dog => self.cluster.public_replicas().collect(),
        };
        if let Some(collector) = collector.filter(|c| !recipients.contains(c)) {
            recipients.push(collector);
        }
        ViewChangeRules {
            view,
            mode,
            collector,
            threshold: self.cluster.view_change_threshold(mode) as usize,
            join_after: self.cluster.byzantine_bound() as usize,
            voter: self.is_view_change_voter(mode),
            carried: if lion {
                Carried::CommitsAndProposals
            } else {
                Carried::Proposals
            },
            promote_prepared: lion.then(|| self.cluster.quorum(Mode::Lion).quorum_size as usize),
            embed_votes: false,
            recipients,
        }
    }

    /// Runs one view-change step (see [`crate::view_change`]) and, once a
    /// `NEW-VIEW` is installed, does SeeMoRe's part.
    pub(crate) fn view_change(&mut self, input: ViewChangeInput, now: Instant) -> Vec<Action> {
        let (view, mode) = input.target();
        let rules = self.view_change_rules(view, mode);
        let mut actions = Vec::new();
        let installed =
            self.chassis
                .view_change(&mut actions, input, &rules, Some(&mut self.signing));
        if let Some(installed) = installed {
            self.on_installed(&mut actions, installed, now);
        }
        actions
    }

    /// A suspicion timer expired. A freshly installed primary, or one that
    /// is visibly committing, gets another timeout, and a watched request
    /// is then re-forwarded to the current primary so it does not depend on
    /// the client noticing the view change.
    pub(crate) fn on_suspicion_timer(&mut self, timer: Timer, now: Instant) -> Vec<Action> {
        let mode = self.effective_next_mode();
        let suspicion = Suspicion {
            primary: self.current_primary(),
            voter: self.is_view_change_voter(mode),
            grace: Grace::NewerViewOrProgress(self.recent_progress(now)),
        };
        let mut actions = Vec::new();
        match self
            .chassis
            .on_suspicion_timer(&mut actions, timer, suspicion)
        {
            Expiry::Suspect(view) => {
                return self.view_change(ViewChangeInput::Start(view, mode), now)
            }
            Expiry::Regranted => {
                let watched = match timer {
                    Timer::ForwardedRequest { request } => self.forwarded_requests.get(&request),
                    _ => None,
                };
                if let Some(request) = watched.cloned() {
                    if self.is_primary() {
                        let me = NodeId::Replica(self.chassis.id);
                        actions.extend(self.on_message(me, Message::Request(request), now));
                    } else {
                        let primary = NodeId::Replica(self.current_primary());
                        self.chassis
                            .send(&mut actions, primary, Message::Request(request));
                    }
                }
            }
            Expiry::Quiet => {}
        }
        actions
    }

    /// Whether commit progress was observed within the last suspicion
    /// timeout (used to damp spurious view changes while the primary is
    /// healthy but busy).
    fn recent_progress(&self, now: Instant) -> bool {
        now.duration_since(self.last_progress) < self.chassis.pconfig.request_timeout
            && self.last_progress > Instant::ZERO
    }

    /// SeeMoRe's part of installing a `NEW-VIEW`: the mode switch it
    /// completes, state transfer from a trusted collector when its
    /// checkpoint is ahead of execution, the vote for each re-proposed slot,
    /// execution, and the requests the failed primary never ordered.
    fn on_installed(&mut self, actions: &mut Vec<Action>, installed: Installed, now: Instant) {
        let mode = self.chassis.mode;
        if self.pending_mode == Some(mode) {
            self.pending_mode = None;
        }
        if installed.previous_mode != mode {
            self.chassis.metrics.mode_switches += 1;
            self.chassis
                .checkpoints
                .set_rule(Self::stability_rule_for(mode, &self.cluster));
            self.chassis.trace(
                EventKind::ModeSwitchDone,
                None,
                None,
                u64::from(mode.index()),
            );
        }
        if installed.behind && self.cluster.is_trusted(installed.collector) {
            self.chassis.request_state(actions, [installed.collector]);
        }
        for (seq, digest) in installed.reproposed {
            self.vote_reproposed(actions, seq, digest);
        }
        self.execute_ready(actions, now);

        let stranded = self.chassis.take_stranded(actions);
        if self.is_primary() {
            // A newly installed primary at once proposes the requests that
            // were forwarded to the failed primary (plus its own leftover
            // buffer) but never ordered, so recovery does not wait for
            // client retransmissions (this keeps the Figure 4 outage short).
            // Sorted by request identity, so recovery batches are
            // deterministic.
            let mut pending: Vec<ClientRequest> = self
                .forwarded_requests
                .values()
                .filter(|r| {
                    let executed = self.chassis.exec.cached_reply(r.client(), r.timestamp());
                    executed.is_none()
                })
                .cloned()
                .chain(stranded)
                .collect();
            pending.sort_by_key(ClientRequest::id);
            pending.dedup_by_key(|request| request.id());
            for request in pending {
                self.buffer_or_propose(actions, request, now);
            }
            // Recovery must not wait out the flush delay.
            if let Some(batch) = self.chassis.flush_batch(actions) {
                self.propose_batch(actions, batch, now);
            }
        } else {
            for request in stranded {
                self.forward_to_primary(actions, request);
            }
        }
    }

    /// This replica's vote for a slot the new view re-proposed: a Lion
    /// backup accepts to the primary, a Dog proxy sends a signed accept to
    /// the proxies, a Peacock proxy other than the primary prepares.
    fn vote_reproposed(&mut self, actions: &mut Vec<Action>, seq: SeqNum, digest: Digest) {
        let (view, id) = (self.chassis.view, self.chassis.id);
        match self.chassis.mode {
            Mode::Lion if !self.is_primary() => {
                let accept = Accept {
                    view,
                    seq,
                    digest,
                    replica: id,
                    signature: None,
                };
                let primary = NodeId::Replica(self.current_primary());
                self.chassis.send(actions, primary, Message::Accept(accept));
            }
            Mode::Dog if self.is_proxy() => {
                let mut accept = Accept {
                    view,
                    seq,
                    digest,
                    replica: id,
                    signature: None,
                };
                accept.signature = Some(self.signing.sign(&accept));
                self.chassis.log.instance_mut(seq).record_accept(id, digest);
                let proxies = self.current_proxies();
                self.chassis
                    .broadcast_to(actions, proxies, Message::Accept(accept));
            }
            Mode::Peacock if self.is_proxy() && !self.is_primary() => {
                let mut vote = PbftPrepare {
                    view,
                    seq,
                    digest,
                    replica: id,
                    signature: Signature::INVALID,
                };
                vote.signature = self.signing.sign(&vote);
                self.chassis
                    .log
                    .instance_mut(seq)
                    .record_pbft_prepare(id, digest);
                let proxies = self.current_proxies();
                self.chassis
                    .broadcast_to(actions, proxies, Message::PbftPrepare(vote));
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Dynamic mode switching (Section 5.4)
    // ------------------------------------------------------------------

    /// Called on the trusted replica that should announce a switch to
    /// `new_mode`. Returns no actions if this replica is not the legitimate
    /// announcer.
    pub(crate) fn initiate_mode_switch(&mut self, new_mode: Mode, now: Instant) -> Vec<Action> {
        let mut actions = Vec::new();
        if new_mode == self.chassis.mode {
            return actions;
        }
        let target_view = self.chassis.view.next();
        let announcer = mode_switch_announcer(&self.cluster, target_view, new_mode);
        if announcer != Some(self.chassis.id) || !self.cluster.is_trusted(self.chassis.id) {
            return actions;
        }
        let mut announcement = ModeChange {
            new_view: target_view,
            new_mode,
            replica: self.chassis.id,
            signature: Signature::INVALID,
        };
        announcement.signature = self.signing.sign(&announcement);
        self.chassis
            .broadcast(&mut actions, Message::ModeChange(announcement.clone()));
        actions.extend(self.apply_mode_change(announcement, now));
        actions
    }

    /// Handles a `MODE-CHANGE` announcement.
    pub(crate) fn on_mode_change(
        &mut self,
        from: NodeId,
        mode_change: ModeChange,
        now: Instant,
    ) -> Vec<Action> {
        let mut actions = Vec::new();
        let Some(sender) = from.as_replica() else {
            return actions;
        };
        if mode_change.new_view <= self.chassis.view {
            actions.push(self.chassis.violation(ProtocolViolation::WrongView {
                got: mode_change.new_view,
                expected: self.chassis.view.next(),
            }));
            return actions;
        }
        let announcer =
            mode_switch_announcer(&self.cluster, mode_change.new_view, mode_change.new_mode);
        if sender != mode_change.replica
            || announcer != Some(sender)
            || !self.cluster.is_trusted(sender)
        {
            actions.push(self.chassis.violation(ProtocolViolation::UnexpectedSender {
                sender,
                expected_role: "trusted mode-switch announcer",
            }));
            return actions;
        }
        if !self.signing.verify_once(
            NodeId::Replica(sender),
            &mode_change,
            &mode_change.signature,
        ) {
            actions.push(self.chassis.violation(ProtocolViolation::BadSignature {
                claimed_signer: NodeId::Replica(sender),
            }));
            return actions;
        }
        actions.extend(self.apply_mode_change(mode_change, now));
        actions
    }

    /// Adopts a validated mode-change announcement: remembers the pending
    /// mode and participates in the view change that installs it.
    fn apply_mode_change(&mut self, mode_change: ModeChange, now: Instant) -> Vec<Action> {
        let mut actions = Vec::new();
        self.pending_mode = Some(mode_change.new_mode);
        self.chassis.trace(
            EventKind::ModeSwitchStart,
            None,
            None,
            u64::from(mode_change.new_mode.index()),
        );
        let (view, mode) = (mode_change.new_view, mode_change.new_mode);
        if self.is_view_change_voter(mode) {
            actions.extend(self.view_change(ViewChangeInput::Start(view, mode), now));
        } else {
            // Non-voters (private replicas for Dog/Peacock targets) stop
            // normal-case processing and wait for the NEW-VIEW.
            self.chassis
                .await_new_view(&mut actions, view, Some(&mut self.signing));
        }
        actions
    }
}

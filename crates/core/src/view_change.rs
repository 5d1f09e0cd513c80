//! The view change, written once: the `VIEW-CHANGE` vote, the join rule,
//! the `NEW-VIEW` a collector assembles, installing it, and the suspicion
//! timers that start it all (Section 5.1 of the paper; PBFT's and
//! Multi-Paxos's have the same shape).
//!
//! The rule set is the paper's for every protocol. A vote carries its
//! sender's stable checkpoint and a certificate for each proposal above
//! it. The collector adopts the most recent checkpoint among the votes and
//! then walks every slot up to the highest certificate: (1) a commit
//! certificate wins, (2) a prepared batch is re-proposed, (3) a gap gets a
//! no-op. A carried batch counts only if it hashes to its certificate's
//! digest and, where the deployment signs, every member request carries a
//! valid client signature. Installing the `NEW-VIEW` adopts the view, its
//! checkpoint and its certificates and numbers new proposals above them.
//!
//! What the protocols differ in reaches this code as values, never as a
//! branch on which protocol is calling:
//!
//! a [`ViewChangeRules`] per target `(view, mode)`, a [`Suspicion`] per
//! timer expiry, and `Option<&mut SigningContext>`, which decides whether
//! votes and `NEW-VIEW`s are signed and verified and whether carried
//! batches' client signatures are re-checked.
//!
//! The protocol keeps what is its own: the vote it sends for each slot the
//! new view re-proposed ([`Installed::reproposed`]), executing what the new
//! view committed, and proposing or forwarding the requests a view change
//! stranded in the batch buffer ([`ReplicaChassis::take_stranded`]).

use crate::actions::{Action, Timer};
use crate::chassis::{noop_request, ReplicaChassis, SigningContext};
use crate::log::Proposal;
use seemore_crypto::{Digest, Signature};
use seemore_telemetry::EventKind;
use seemore_types::{Mode, NodeId, ProtocolViolation, ReplicaId, SeqNum, View};
use seemore_wire::{Batch, ClientRequest, CommitCert, Message, NewView, PrepareCert, ViewChange};
use std::collections::BTreeMap;

/// A replica's view change in progress.
#[derive(Debug, Default)]
pub(crate) struct ViewChangeState {
    /// Whether normal-case processing stopped to wait for a `NEW-VIEW`.
    active: bool,
    /// The view being installed.
    target: View,
    /// `VIEW-CHANGE` votes received (this replica's own included), by
    /// proposed view.
    received: BTreeMap<View, BTreeMap<ReplicaId, ViewChange>>,
}

/// Which log instances a `VIEW-CHANGE` carries, and as what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Carried {
    /// Every proposal, committed slots as commit certificates (CFT, and
    /// SeeMoRe into the Lion mode).
    CommitsAndProposals,
    /// Every proposal as a prepare certificate (SeeMoRe into the Dog and
    /// Peacock modes, which keep their votes small).
    Proposals,
    /// Prepared or committed slots, as prepare certificates. This is PBFT,
    /// whose view change has no commit certificates: under this rule the
    /// collector ignores any a vote carries, and an installing replica any
    /// a `NEW-VIEW` carries.
    Prepared,
}

/// How a protocol runs the view change to one `(view, mode)`.
#[derive(Debug, Clone)]
pub struct ViewChangeRules {
    /// The view being installed.
    pub view: View,
    /// The mode it runs in (a baseline's fixed trace label).
    pub mode: Mode,
    /// The replica that assembles and sends its `NEW-VIEW` (the new
    /// primary, or SeeMoRe's transferer for a Peacock view); `None` if none.
    pub collector: Option<ReplicaId>,
    /// Votes from replicas other than the collector a `NEW-VIEW` needs.
    pub threshold: usize,
    /// A replica not yet changing views joins once more than this many
    /// votes for a newer view arrived: CFT 0 (a crash-only peer cannot
    /// lie), BFT `f`, SeeMoRe `m`, so a correct replica is among them.
    pub join_after: usize,
    /// Whether this replica votes in this view change (SeeMoRe: only the
    /// public cloud votes for a Dog or Peacock view).
    pub voter: bool,
    /// What a vote carries.
    pub carried: Carried,
    /// `Some(q)`: `q` valid prepare certificates for one slot stand for a
    /// commit (the Lion mode's quorum; its slot is carried as committed).
    pub promote_prepared: Option<usize>,
    /// Whether the `NEW-VIEW` embeds the votes it was built from (PBFT's
    /// `V` set; on the wire, so it costs bytes).
    pub embed_votes: bool,
    /// Who a `VIEW-CHANGE` goes to (this replica is skipped).
    pub recipients: Vec<ReplicaId>,
}

/// One step of a view change, handed to [`ReplicaChassis::view_change`].
#[derive(Debug)]
pub enum ViewChangeInput {
    /// This replica votes for `(view, mode)`: it suspected the primary, the
    /// `NEW-VIEW` it waited for timed out, or a mode switch was announced.
    Start(View, Mode),
    /// A peer's `VIEW-CHANGE`.
    Vote(NodeId, ViewChange),
    /// A peer's `NEW-VIEW`.
    NewView(NodeId, NewView),
}

impl ViewChangeInput {
    /// The `(view, mode)` this step is about: what the caller builds its
    /// [`ViewChangeRules`] for.
    pub fn target(&self) -> (View, Mode) {
        match self {
            ViewChangeInput::Start(view, mode) => (*view, *mode),
            ViewChangeInput::Vote(_, vote) => (vote.new_view, vote.mode),
            ViewChangeInput::NewView(_, new_view) => (new_view.view, new_view.mode),
        }
    }
}

/// What the protocol still owes once a `NEW-VIEW` is installed.
#[derive(Debug)]
pub struct Installed {
    /// The mode of the view it replaced.
    pub previous_mode: Mode,
    /// The replica that sent the `NEW-VIEW`.
    pub collector: ReplicaId,
    /// Whether the `NEW-VIEW`'s checkpoint became stable ahead of this
    /// replica's execution, whose missing state must then be fetched.
    pub behind: bool,
    /// The slots the new view re-proposed, in `NEW-VIEW` order, with their
    /// batch digests: the protocol sends its vote for each.
    pub reproposed: Vec<(SeqNum, Digest)>,
}

/// The grace a suspicion timer gets before the primary is suspected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grace {
    /// None: a crash-only leader silent for a timeout has crashed (CFT).
    None,
    /// A timer armed before the installed view is re-armed, so a freshly
    /// installed primary gets a full timeout (BFT).
    NewerView,
    /// The same, and also while commit progress was seen within the last
    /// timeout (the `bool`), so a busy primary is not deposed (SeeMoRe).
    NewerViewOrProgress(bool),
}

/// How a replica treats a suspicion timer's expiry.
#[derive(Debug, Clone, Copy)]
pub struct Suspicion {
    /// The primary under suspicion (named in the `SuspicionFired` trace).
    pub primary: ReplicaId,
    /// Whether this replica votes in the view change it would start.
    pub voter: bool,
    /// The grace before it does.
    pub grace: Grace,
}

/// What a suspicion timer's expiry comes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expiry {
    /// Nothing: the slot settled, the request executed, a view change is
    /// already under way, or this replica does not vote.
    Quiet,
    /// The grace applied and the timer was re-armed.
    Regranted,
    /// Start the view change to this view.
    Suspect(View),
}

impl ReplicaChassis {
    /// Whether normal-case processing is stopped for a view change.
    #[inline]
    pub fn in_view_change(&self) -> bool {
        self.vc.active
    }

    /// Runs one view-change step under `rules`, which the caller built for
    /// `input.target()`. Returns what the protocol still owes when the step
    /// installed a `NEW-VIEW`.
    pub fn view_change(
        &mut self,
        actions: &mut Vec<Action>,
        input: ViewChangeInput,
        rules: &ViewChangeRules,
        signing: Option<&mut SigningContext>,
    ) -> Option<Installed> {
        match input {
            ViewChangeInput::Start(..) => self.start_view_change(actions, rules, signing),
            ViewChangeInput::Vote(from, vote) => {
                self.on_view_change(actions, from, vote, rules, signing)
            }
            ViewChangeInput::NewView(from, new_view) => {
                self.on_new_view(actions, from, new_view, rules, signing)
            }
        }
    }

    /// Stops normal-case processing and arms the timer that escalates if
    /// `view`'s `NEW-VIEW` never comes. A voter goes on to vote; a SeeMoRe
    /// non-voter after a mode-switch announcement stops here.
    pub fn await_new_view(
        &mut self,
        actions: &mut Vec<Action>,
        view: View,
        signing: Option<&mut SigningContext>,
    ) {
        self.vc.active = true;
        self.vc.target = view;
        // Parked fast-path reads can no longer be served under this view's
        // fence, so their clients fall back to the ordered path.
        self.refuse_parked_reads(actions, signing);
        actions.push(Action::SetTimer {
            timer: Timer::ViewChange { view },
            after: self.pconfig.view_change_timeout,
        });
    }

    /// Stops normal-case processing and votes for `rules.view`, unless
    /// already changing to that view or a later one.
    fn start_view_change(
        &mut self,
        actions: &mut Vec<Action>,
        rules: &ViewChangeRules,
        mut signing: Option<&mut SigningContext>,
    ) -> Option<Installed> {
        if self.vc.active && self.vc.target >= rules.view {
            return None;
        }
        self.metrics.view_changes_started += 1;
        self.trace(EventKind::ViewChangeStart, None, None, rules.view.0);
        self.await_new_view(actions, rules.view, signing.as_deref_mut());
        let mut vote = self.vote(rules);
        if let Some(signing) = signing.as_deref_mut() {
            vote.signature = signing.sign(&vote);
        }
        // Our own vote counts when this replica is also the collector.
        self.vc
            .received
            .entry(rules.view)
            .or_default()
            .insert(self.id, vote.clone());
        self.broadcast_to(
            actions,
            rules.recipients.iter().copied(),
            Message::ViewChange(vote),
        );
        self.try_assemble(actions, rules, signing)
    }

    /// This replica's unsigned `VIEW-CHANGE` for `rules.view`: the stable
    /// checkpoint and a certificate per carried proposal above it.
    fn vote(&self, rules: &ViewChangeRules) -> ViewChange {
        let stable_seq = self.checkpoints.stable_seq();
        let (mut prepares, mut commits) = (Vec::new(), Vec::new());
        for (seq, instance) in self.log.instances_after(stable_seq) {
            let Some(proposal) = &instance.proposal else {
                continue;
            };
            let settled = instance.prepared || instance.committed;
            if rules.carried == Carried::Prepared && !settled {
                continue;
            }
            let cert = PrepareCert {
                view: proposal.view,
                seq: *seq,
                digest: proposal.digest,
                primary_signature: proposal.primary_signature,
                batch: Some(proposal.batch.clone()),
            };
            if instance.committed && rules.carried == Carried::CommitsAndProposals {
                commits.push(committed(cert));
            } else {
                prepares.push(cert);
            }
        }
        ViewChange {
            new_view: rules.view,
            mode: rules.mode,
            stable_seq,
            checkpoint_proof: self.checkpoints.stable_proof().to_vec(),
            prepares,
            commits,
            replica: self.id,
            signature: Signature::INVALID,
        }
    }

    /// Records a peer's vote, joins a view change enough peers asked for,
    /// and assembles the `NEW-VIEW` if this replica collects it.
    fn on_view_change(
        &mut self,
        actions: &mut Vec<Action>,
        from: NodeId,
        vote: ViewChange,
        rules: &ViewChangeRules,
        mut signing: Option<&mut SigningContext>,
    ) -> Option<Installed> {
        let sender = from.as_replica()?;
        let forged = |signing: &mut SigningContext| {
            !signing.verify_once(NodeId::Replica(sender), &vote, &vote.signature)
        };
        if sender != vote.replica || signing.as_deref_mut().is_some_and(forged) {
            actions.push(self.violation(ProtocolViolation::BadSignature {
                claimed_signer: NodeId::Replica(vote.replica),
            }));
            return None;
        }
        if vote.new_view <= self.view {
            actions.push(self.violation(ProtocolViolation::WrongView {
                got: vote.new_view,
                expected: self.view.next(),
            }));
            return None;
        }
        let votes = self.vc.received.entry(vote.new_view).or_default();
        votes.insert(sender, vote);
        if !self.vc.active && votes.len() > rules.join_after && rules.voter {
            return self.start_view_change(actions, rules, signing);
        }
        self.try_assemble(actions, rules, signing)
    }

    /// If this replica collects `rules.view` and holds enough votes,
    /// assembles, broadcasts and installs the `NEW-VIEW`.
    fn try_assemble(
        &mut self,
        actions: &mut Vec<Action>,
        rules: &ViewChangeRules,
        mut signing: Option<&mut SigningContext>,
    ) -> Option<Installed> {
        if rules.collector != Some(self.id) || rules.view <= self.view {
            return None;
        }
        let votes = self.vc.received.get(&rules.view)?;
        if votes.keys().filter(|r| **r != self.id).count() < rules.threshold {
            return None;
        }
        let votes: Vec<ViewChange> = votes.values().cloned().collect();
        let new_view = self.assemble(rules, votes, signing.as_deref_mut());
        self.broadcast(actions, Message::NewView(new_view.clone()));
        Some(self.install(actions, new_view, rules, signing))
    }

    /// The `NEW-VIEW` for `rules.view` built from `votes` under the three
    /// rules (see the module docs), signed when the deployment signs.
    fn assemble(
        &self,
        rules: &ViewChangeRules,
        votes: Vec<ViewChange>,
        mut signing: Option<&mut SigningContext>,
    ) -> NewView {
        let mut checkpoint = self.checkpoints.stable_proof().first().cloned();
        let mut low = self.checkpoints.stable_seq();
        for vote in votes
            .iter()
            .filter(|vote| !vote.checkpoint_proof.is_empty())
        {
            if vote.stable_seq > low {
                low = vote.stable_seq;
                checkpoint = vote.checkpoint_proof.first().cloned();
            }
        }
        let commit_certs = || {
            votes
                .iter()
                .filter(|_| rules.carried != Carried::Prepared)
                .flat_map(|vote| &vote.commits)
        };
        let high = votes
            .iter()
            .flat_map(|vote| vote.prepares.iter().map(|cert| cert.seq))
            .chain(commit_certs().map(|cert| cert.seq))
            .fold(low, SeqNum::max);

        let (mut prepares, mut commits) = (Vec::new(), Vec::new());
        let mut valid = |digest, batch: &Option<Batch>| {
            valid_batch(digest, batch.as_ref(), signing.as_deref_mut())
        };
        for seq in (low.0 + 1..=high.0).map(SeqNum) {
            // Rule 1: any commit certificate wins.
            if let Some(cert) =
                commit_certs().find(|cert| cert.seq == seq && valid(cert.digest, &cert.batch))
            {
                commits.push(cert.clone());
                continue;
            }
            let mut prepared = votes
                .iter()
                .flat_map(|vote| &vote.prepares)
                .filter(|cert| cert.seq == seq && valid(cert.digest, &cert.batch));
            match prepared.next() {
                // Rule 2a (Lion): a full quorum of prepares proves the batch
                // may have committed; carry it as committed.
                Some(cert)
                    if rules
                        .promote_prepared
                        .is_some_and(|q| 1 + prepared.count() >= q) =>
                {
                    commits.push(committed(cert.clone()));
                }
                // Rule 2b: at least one valid prepare; re-propose it.
                Some(cert) => prepares.push(cert.clone()),
                // Rule 3: nobody saw a proposal; fill the gap with a no-op
                // (the paper's `µ∅`, as a singleton batch).
                None => {
                    let batch = Batch::single(noop_request(seq));
                    prepares.push(PrepareCert {
                        view: self.view,
                        seq,
                        digest: batch.digest(),
                        primary_signature: Signature::INVALID,
                        batch: Some(batch),
                    });
                }
            }
        }
        let mut new_view = NewView {
            view: rules.view,
            mode: rules.mode,
            prepares,
            commits,
            checkpoint,
            view_change_proof: if rules.embed_votes { votes } else { Vec::new() },
            replica: self.id,
            signature: Signature::INVALID,
        };
        if let Some(signing) = signing {
            new_view.signature = signing.sign(&new_view);
        }
        new_view
    }

    /// Installs a peer's `NEW-VIEW` if it is for a newer view, comes from
    /// that view's collector and (where the deployment signs) carries the
    /// collector's signature. The certificates and embedded votes inside it
    /// are not re-checked: the collector is believed.
    fn on_new_view(
        &mut self,
        actions: &mut Vec<Action>,
        from: NodeId,
        new_view: NewView,
        rules: &ViewChangeRules,
        mut signing: Option<&mut SigningContext>,
    ) -> Option<Installed> {
        let sender = from.as_replica()?;
        if new_view.view <= self.view {
            actions.push(self.violation(ProtocolViolation::WrongView {
                got: new_view.view,
                expected: self.view.next(),
            }));
            return None;
        }
        if rules.collector != Some(sender) || sender != new_view.replica {
            actions.push(self.violation(ProtocolViolation::UnexpectedSender {
                sender,
                expected_role: "new-view collector (new primary or transferer)",
            }));
            return None;
        }
        let forged = signing.as_deref_mut().is_some_and(|signing| {
            !signing.verify_once(NodeId::Replica(sender), &new_view, &new_view.signature)
        });
        if forged {
            actions.push(self.violation(ProtocolViolation::BadSignature {
                claimed_signer: NodeId::Replica(sender),
            }));
            return None;
        }
        Some(self.install(actions, new_view, rules, signing))
    }

    /// Applies a validated `NEW-VIEW`: enters the view, adopts its
    /// checkpoint if ahead, marks its commit certificates committed, takes
    /// its prepare certificates as the new view's proposals, and numbers
    /// new proposals above everything it carried.
    fn install(
        &mut self,
        actions: &mut Vec<Action>,
        new_view: NewView,
        rules: &ViewChangeRules,
        signing: Option<&mut SigningContext>,
    ) -> Installed {
        let previous_mode = self.mode;
        let view = new_view.view;
        actions.push(Action::CancelTimer {
            timer: Timer::ViewChange { view },
        });
        self.enter_view(view, rules.mode);
        self.vc.active = false;
        self.vc.received.retain(|voted, _| *voted > view);
        self.metrics.view_changes_completed += 1;
        self.trace(EventKind::ViewChangeInstall, None, None, view.0);
        self.assigned.clear();
        self.log.reset_votes_for_new_view();
        // Reads still parked from the previous view are refused. A freshly
        // installed primary starts lease-less (`enter_view` dropped the
        // anchors) and earns a lease from its first committed slot.
        self.refuse_parked_reads(actions, signing);

        let mut behind = false;
        if let Some(cp) = &new_view.checkpoint {
            if self
                .checkpoints
                .make_stable(cp.seq, cp.state_digest, vec![cp.clone()])
            {
                self.after_stable_checkpoint();
                behind = self.exec.last_executed() < cp.seq;
            }
        }
        let mut highest = self.checkpoints.stable_seq().max(self.exec.last_executed());
        // Under PBFT's rules a commit certificate would skip agreement on a
        // primary's word alone, so only prepare certificates are taken.
        let commits = match rules.carried {
            Carried::Prepared => Vec::new(),
            _ => new_view.commits,
        };
        for cert in commits {
            highest = highest.max(cert.seq);
            let instance = self.log.instance_mut(cert.seq);
            instance.committed = true;
            instance.proposal = Some(Proposal {
                view,
                digest: cert.digest,
                batch: cert
                    .batch
                    .clone()
                    .unwrap_or_else(|| Batch::single(noop_request(cert.seq))),
                primary_signature: cert.primary_signature,
            });
            if let Some(batch) = cert.batch {
                self.metrics.committed += 1;
                self.exec.add_committed(cert.seq, batch);
            }
        }
        let mut reproposed = Vec::new();
        for cert in new_view.prepares {
            highest = highest.max(cert.seq);
            let Some(batch) = cert.batch else {
                continue;
            };
            let instance = self.log.instance_mut(cert.seq);
            if instance.committed {
                continue;
            }
            instance.proposal = Some(Proposal {
                view,
                digest: cert.digest,
                batch,
                primary_signature: cert.primary_signature,
            });
            reproposed.push((cert.seq, cert.digest));
        }
        self.next_seq = highest;
        Installed {
            previous_mode,
            collector: new_view.replica,
            behind,
            reproposed,
        }
    }

    /// Drains the batch buffer a view change stranded (cancelling its flush
    /// timer), minus requests that already executed: the new primary
    /// proposes them, every other replica forwards them.
    pub fn take_stranded(&mut self, actions: &mut Vec<Action>) -> Vec<ClientRequest> {
        let mut stranded = self.batcher.drain(actions);
        stranded.retain(|r| self.exec.cached_reply(r.client(), r.timestamp()).is_none());
        stranded
    }

    /// Decides a suspicion timer's expiry. A `ViewChange` timer whose view
    /// was not installed escalates to the next view. A `RequestProgress`
    /// timer whose slot has not committed, or a `ForwardedRequest` timer
    /// whose request has not executed, is re-armed under `suspicion`'s
    /// grace and otherwise suspects the primary, traced as `SuspicionFired`
    /// with the slot or request that timed out.
    pub fn on_suspicion_timer(
        &mut self,
        actions: &mut Vec<Action>,
        timer: Timer,
        suspicion: Suspicion,
    ) -> Expiry {
        let (slot, request) = match timer {
            Timer::ViewChange { view } if self.vc.active && self.view < view => {
                return Expiry::Suspect(view.next());
            }
            Timer::RequestProgress { seq } => {
                let settled = self.log.instance(seq).map(|instance| instance.committed);
                if settled.unwrap_or(seq <= self.exec.last_executed()) {
                    return Expiry::Quiet;
                }
                (Some(seq), None)
            }
            Timer::ForwardedRequest { request } => {
                let executed = self.exec.cached_reply(request.client, request.timestamp);
                if executed.is_some() {
                    return Expiry::Quiet;
                }
                (None, Some(request))
            }
            _ => return Expiry::Quiet,
        };
        if self.vc.active {
            return Expiry::Quiet;
        }
        let armed = (slot.and_then(|seq| self.progress_armed.get(&seq)))
            .or_else(|| request.and_then(|id| self.forwarded_armed.get(&id)));
        let newer_view = armed.copied().unwrap_or(View::ZERO) < self.view;
        let granted = match suspicion.grace {
            Grace::None => false,
            Grace::NewerView => newer_view,
            Grace::NewerViewOrProgress(progress) => newer_view || progress,
        };
        if granted {
            if let Some(seq) = slot {
                self.progress_armed.insert(seq, self.view);
            }
            if let Some(request) = request {
                self.forwarded_armed.insert(request, self.view);
            }
            actions.push(Action::SetTimer {
                timer,
                after: self.pconfig.request_timeout,
            });
            return Expiry::Regranted;
        }
        if !suspicion.voter {
            return Expiry::Quiet;
        }
        self.trace(
            EventKind::SuspicionFired,
            slot,
            request,
            u64::from(suspicion.primary.0),
        );
        Expiry::Suspect(self.view.next())
    }
}

/// A certificate's batch counts only if it hashes to the certificate's
/// digest (binding membership, content and order) and, where the deployment
/// signs, it holds no forged request
/// ([`SigningContext::forged_request`]). This is what keeps a Byzantine
/// replica from smuggling a fabricated or reordered operation through a
/// view change. Every member request is verified here, whatever this
/// replica checked before: a request may reach it only inside a
/// certificate, and one that arrived in a Lion or Dog proposal was never
/// checked, since a trusted primary's proposals are taken as they are.
fn valid_batch(
    digest: Digest,
    batch: Option<&Batch>,
    signing: Option<&mut SigningContext>,
) -> bool {
    let Some(batch) = batch else {
        return false;
    };
    if batch.digest() != digest {
        return false;
    }
    signing.is_none_or(|signing| signing.forged_request(batch).is_none())
}

/// `cert` carried as a commit certificate.
fn committed(cert: PrepareCert) -> CommitCert {
    CommitCert {
        view: cert.view,
        seq: cert.seq,
        digest: cert.digest,
        primary_signature: cert.primary_signature,
        batch: cert.batch,
    }
}

use crate::{
    Adversary, AdversaryContext, CorruptionBudget, Envelope, FaultAction, FaultSchedule, Metrics,
    Outgoing, PartyId, PartySet, PassiveAdversary, Process, Time, Topology,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Errors raised while configuring or driving a [`SyncNetwork`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A process was registered for a party outside the party set.
    UnknownParty {
        /// The offending party.
        party: PartyId,
    },
    /// Two processes were registered for the same party.
    DuplicateProcess {
        /// The offending party.
        party: PartyId,
    },
    /// `run` was called while some party still has no process registered.
    MissingProcess {
        /// The party without a process.
        party: PartyId,
    },
    /// Corrupting the requested party would exceed the per-side budget.
    CorruptionBudgetExceeded {
        /// The party that could not be corrupted.
        party: PartyId,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownParty { party } => write!(f, "party {party} is not in the network"),
            SimError::DuplicateProcess { party } => {
                write!(f, "a process is already registered for party {party}")
            }
            SimError::MissingProcess { party } => {
                write!(f, "no process registered for party {party}")
            }
            SimError::CorruptionBudgetExceeded { party } => {
                write!(f, "corrupting {party} would exceed the corruption budget")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The result of driving a network until all honest parties decided (or a slot budget
/// ran out).
#[derive(Debug, Clone)]
pub struct RunOutcome<O> {
    /// First output recorded for each party (absent if the party never decided; outputs
    /// of parties that were corrupted before deciding are not recorded).
    pub outputs: BTreeMap<PartyId, O>,
    /// Parties that were corrupted at any point of the run.
    pub corrupted: BTreeSet<PartyId>,
    /// Whether every never-corrupted party produced an output within the slot budget.
    pub all_honest_decided: bool,
    /// Number of slots executed.
    pub slots: u64,
    /// Message accounting.
    pub metrics: Metrics,
}

/// The emptied message buffers of a finished [`SyncNetwork`]: its in-flight queues and
/// inboxes (by [`PartyId::dense`] index), its lent inboxes and its send buffer.
///
/// [`SyncNetwork::run_keeping_buffers`] hands them back and [`SyncNetwork::with_buffers`]
/// builds the next network on them, so a caller that runs network after network keeps
/// the buffers' capacity instead of allocating (and page-faulting in) every queue anew
/// for each run. Reuse is positional: queue `i` of one network becomes queue `i` of the
/// next, so a run of the same shape grows no buffer. A network with fewer parties than
/// the donor holds the surplus queues and inboxes unused and hands them back too. Lent
/// inboxes keep their buffers but not their parties.
pub struct NetBuffers<M> {
    in_flight: Vec<Vec<Envelope<M>>>,
    inboxes: Vec<Vec<Envelope<M>>>,
    /// Lent-inbox buffers not lent to any party; the next one to lend is the last.
    lent: Vec<Vec<Envelope<M>>>,
    sends: Vec<Outgoing<M>>,
}

impl<M> NetBuffers<M> {
    /// How many messages the buffers hold without allocating, summed over all of them.
    pub fn capacity(&self) -> usize {
        let envelopes = self.in_flight.iter().chain(&self.inboxes).chain(&self.lent);
        envelopes.map(Vec::capacity).sum::<usize>() + self.sends.capacity()
    }
}

impl<M> Default for NetBuffers<M> {
    fn default() -> Self {
        Self { in_flight: Vec::new(), inboxes: Vec::new(), lent: Vec::new(), sends: Vec::new() }
    }
}

impl<M> fmt::Debug for NetBuffers<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetBuffers")
            .field("queues", &self.in_flight.len())
            .field("inboxes", &self.inboxes.len())
            .field("lent", &self.lent.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

/// Splits the first `n` buffers off `pool`, adding empty ones if it has fewer, and
/// leaves the rest in `pool`.
fn take_front<T>(pool: &mut Vec<Vec<T>>, n: usize) -> Vec<Vec<T>> {
    let surplus = pool.split_off(n.min(pool.len()));
    let mut front = std::mem::replace(pool, surplus);
    front.resize_with(n, Vec::new);
    front
}

/// Empties `front` and puts `surplus` back behind it: the inverse of [`take_front`].
fn put_back<T>(mut front: Vec<Vec<T>>, mut surplus: Vec<Vec<T>>) -> Vec<Vec<T>> {
    front.iter_mut().for_each(Vec::clear);
    front.append(&mut surplus);
    front
}

/// A deterministic synchronous network of `2k` parties running [`Process`] state
/// machines under an adaptive byzantine adversary and, optionally, a [`FaultSchedule`].
///
/// Slot semantics: at slot `t` every process receives the messages whose delivery slot
/// is `≤ t` that it has not seen yet, then sends messages that will be delivered at slot
/// `t + 1` (delivery within `Δ`). The adversary observes only corrupted parties'
/// inboxes, may corrupt more parties at the start of each slot (within the budget), and
/// sends arbitrary topology-respecting messages on behalf of corrupted parties.
pub struct SyncNetwork<M, O> {
    parties: PartySet,
    topology: Topology,
    budget: CorruptionBudget,
    processes: BTreeMap<PartyId, Box<dyn Process<M, O>>>,
    corrupted: BTreeSet<PartyId>,
    adversary: Box<dyn Adversary<M>>,
    /// The fault plan every accepted message is put to (`None`: a fault-free network).
    faults: Option<FaultSchedule>,
    /// Messages in flight, one queue per sender (by [`PartyId::dense`] index). A queue
    /// only ever gains messages at its end, at send time, and delivery keeps the order
    /// of what stays behind, so every queue is in emission order and hence in
    /// non-decreasing `sent_at` order. Delivering the queues in sender order therefore
    /// fills each inbox in `(from, sent_at, emission)` order without sorting.
    in_flight: Vec<Vec<Envelope<M>>>,
    outputs: BTreeMap<PartyId, O>,
    now: Time,
    metrics: Metrics,
    // Reusable per-slot buffers: cleared (not dropped) every slot, so steady-state
    // stepping performs no per-slot Vec allocations.
    /// Per-party inbox buffers (by dense index), reused across slots.
    inboxes: Vec<Vec<Envelope<M>>>,
    /// The corrupted parties' inboxes while they are lent to the adversary (swapped in
    /// and out of `inboxes`, so the buffers survive the loan).
    lent: BTreeMap<PartyId, Vec<Envelope<M>>>,
    /// One process's sends, reused across processes and slots.
    sends: Vec<Outgoing<M>>,
    /// Buffers held but not in use: a larger donor's queues and inboxes beyond `2k`,
    /// and lent-inbox buffers no party has been lent yet.
    spare: NetBuffers<M>,
}

impl<M, O> fmt::Debug for SyncNetwork<M, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SyncNetwork")
            .field("k", &self.parties.k())
            .field("topology", &self.topology)
            .field("budget", &self.budget)
            .field("now", &self.now)
            .field("corrupted", &self.corrupted)
            .field("in_flight", &self.in_flight.iter().map(Vec::len).sum::<usize>())
            .finish_non_exhaustive()
    }
}

impl<M: Clone, O: Clone> SyncNetwork<M, O> {
    /// Creates an empty network for a market of size `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize, topology: Topology, budget: CorruptionBudget) -> Self {
        Self::with_buffers(k, topology, budget, NetBuffers::default())
    }

    /// Creates an empty network for a market of size `k` on the buffers a finished
    /// network handed back (see [`SyncNetwork::run_keeping_buffers`]). It behaves
    /// exactly like [`SyncNetwork::new`]; only the buffers' capacity carries over.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn with_buffers(
        k: usize,
        topology: Topology,
        budget: CorruptionBudget,
        mut buffers: NetBuffers<M>,
    ) -> Self {
        let parties = PartySet::new(k);
        Self {
            parties,
            topology,
            budget,
            processes: BTreeMap::new(),
            corrupted: BTreeSet::new(),
            adversary: Box::new(PassiveAdversary),
            faults: None,
            in_flight: take_front(&mut buffers.in_flight, parties.n()),
            outputs: BTreeMap::new(),
            now: Time::ZERO,
            metrics: Metrics { sent_per_party: vec![0; parties.n()], ..Metrics::default() },
            inboxes: take_front(&mut buffers.inboxes, parties.n()),
            lent: BTreeMap::new(),
            sends: std::mem::take(&mut buffers.sends),
            spare: buffers,
        }
    }

    /// The party universe.
    pub fn parties(&self) -> PartySet {
        self.parties
    }

    /// Registers the protocol state machine for one party.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownParty`] if the process's id is outside the party set
    /// and [`SimError::DuplicateProcess`] if the party already has a process.
    pub fn register(&mut self, process: Box<dyn Process<M, O>>) -> Result<(), SimError> {
        let id = process.id();
        if !self.parties.contains(id) {
            return Err(SimError::UnknownParty { party: id });
        }
        if self.processes.contains_key(&id) {
            return Err(SimError::DuplicateProcess { party: id });
        }
        self.processes.insert(id, process);
        Ok(())
    }

    /// Installs the byzantine adversary (default: [`PassiveAdversary`]).
    pub fn set_adversary(&mut self, adversary: Box<dyn Adversary<M>>) {
        self.adversary = adversary;
    }

    /// Installs the fault schedule (default: none, so every message is delivered).
    pub fn set_faults(&mut self, faults: FaultSchedule) {
        self.faults = Some(faults);
    }

    /// Statically corrupts a party before the run starts (or adaptively between slots).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownParty`] for a party outside the set and
    /// [`SimError::CorruptionBudgetExceeded`] if the per-side budget does not allow it.
    pub fn corrupt(&mut self, party: PartyId) -> Result<(), SimError> {
        if !self.parties.contains(party) {
            return Err(SimError::UnknownParty { party });
        }
        if !self.budget.allows(&self.corrupted, party) {
            return Err(SimError::CorruptionBudgetExceeded { party });
        }
        self.corrupted.insert(party);
        // A party corrupted before deciding contributes no honest output.
        self.outputs.remove(&party);
        Ok(())
    }

    /// Validates an outgoing message and, if accepted, appends it to its sender's
    /// in-flight queue for delivery at the next slot (or later, if delayed).
    fn enqueue(&mut self, from: PartyId, outgoing: Outgoing<M>, byzantine: bool) {
        if !self.parties.contains(outgoing.to) || !self.topology.connects(from, outgoing.to) {
            self.metrics.rejected_by_topology += 1;
            return;
        }
        let mut envelope = Envelope {
            from,
            to: outgoing.to,
            sent_at: self.now,
            deliver_at: self.now + 1,
            payload: outgoing.payload,
        };
        let sender = from.dense(self.parties.k());
        self.metrics.record_sent(sender, byzantine);
        let queue = &mut self.in_flight[sender];
        let action = match &mut self.faults {
            Some(faults) => faults.action(&envelope, self.now),
            None => FaultAction::Deliver,
        };
        match action {
            FaultAction::Deliver => queue.push(envelope),
            FaultAction::Drop => self.metrics.dropped_by_faults += 1,
            FaultAction::Delay(extra) => {
                envelope.deliver_at = self.now + 1 + extra;
                self.metrics.delayed_by_faults += 1;
                queue.push(envelope);
            }
        }
    }

    /// Executes a single slot.
    ///
    /// Steady-state stepping is allocation-free in the simulator itself: the inbox,
    /// in-flight and send buffers live on the network and are cleared — not dropped —
    /// between slots, every delivered message moves once (from its sender's queue into
    /// its recipient's inbox), and the adversary context borrows the corrupted set
    /// instead of cloning it at every consultation.
    pub fn step(&mut self) {
        // 1. Adaptive corruptions.
        let requested = self.adversary.plan_corruptions(&AdversaryContext {
            now: self.now,
            parties: self.parties,
            topology: self.topology,
            corrupted: &self.corrupted,
            budget: self.budget,
        });
        for party in requested {
            // Requests beyond the budget or outside the party set are ignored: the
            // adversary cannot exceed (tL, tR) by construction.
            let _ = self.corrupt(party);
        }

        // 2. Deliver messages due at this slot. Walking the sender queues in party
        // order fills every inbox by sender, then send slot, then emission order (see
        // `in_flight`); messages not yet due stay in their queue, in order.
        let now = self.now;
        let k = self.parties.k();
        for queue in &mut self.in_flight {
            for envelope in queue.extract_if(.., |envelope| envelope.deliver_at <= now) {
                self.metrics.delivered_messages += 1;
                self.inboxes[envelope.to.dense(k)].push(envelope);
            }
        }

        // 3. Step honest processes in party order. Each one appends its sends to the
        // shared `sends` buffer, which is enqueued (and emptied) before the next one
        // steps. The process map is taken for the loop so that `enqueue` can borrow
        // the network.
        let mut processes = std::mem::take(&mut self.processes);
        let mut sends = std::mem::take(&mut self.sends);
        for (&party, process) in &mut processes {
            if self.corrupted.contains(&party) {
                continue;
            }
            process.step_into(now, &mut self.inboxes[party.dense(k)], &mut sends);
            for outgoing in sends.drain(..) {
                self.enqueue(party, outgoing, false);
            }
            if let std::collections::btree_map::Entry::Vacant(entry) = self.outputs.entry(party) {
                if let Some(output) = process.output() {
                    entry.insert(output);
                }
            }
        }
        self.processes = processes;
        self.sends = sends;

        // 4. The adversary acts with the corrupted parties' inboxes, lent to it by
        // swapping each buffer into `lent`; it may drain them.
        for &party in &self.corrupted {
            let spare = &mut self.spare.lent;
            let lent = self.lent.entry(party).or_insert_with(|| spare.pop().unwrap_or_default());
            std::mem::swap(lent, &mut self.inboxes[party.dense(k)]);
        }
        let byzantine_sends = self.adversary.act(
            &AdversaryContext {
                now: self.now,
                parties: self.parties,
                topology: self.topology,
                corrupted: &self.corrupted,
                budget: self.budget,
            },
            &mut self.lent,
        );
        for (from, outgoing) in byzantine_sends {
            if !self.corrupted.contains(&from) {
                // The adversary can only speak for parties it controls.
                self.metrics.rejected_by_topology += 1;
                continue;
            }
            self.enqueue(from, outgoing, true);
        }
        // End-of-slot sweep: whatever a process or the adversary left unread, and
        // whatever was delivered to a party with no registered process (when `step`
        // is driven directly), is discarded. The buffers are kept for the next slot.
        for inbox in self.inboxes.iter_mut().chain(self.lent.values_mut()) {
            inbox.clear();
        }

        self.metrics.slots += 1;
        self.now += 1;
    }

    /// Returns `true` if every currently-honest party has produced an output.
    pub fn all_honest_decided(&self) -> bool {
        self.parties
            .iter()
            .filter(|p| !self.corrupted.contains(p))
            .all(|p| self.outputs.contains_key(&p))
    }

    /// Runs until every honest party decided or `max_slots` slots have elapsed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MissingProcess`] if some party has no registered process.
    pub fn run(self, max_slots: u64) -> Result<RunOutcome<O>, SimError> {
        self.run_keeping_buffers(max_slots).map(|(outcome, _)| outcome)
    }

    /// Runs like [`SyncNetwork::run`] and also hands back the network's message
    /// buffers, emptied, for [`SyncNetwork::with_buffers`] to build the next network
    /// on. Messages still in flight at the end are dropped, as `run` drops them.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MissingProcess`] if some party has no registered process;
    /// the buffers are then dropped with the network.
    pub fn run_keeping_buffers(
        mut self,
        max_slots: u64,
    ) -> Result<(RunOutcome<O>, NetBuffers<M>), SimError> {
        for party in self.parties.iter() {
            if !self.processes.contains_key(&party) {
                return Err(SimError::MissingProcess { party });
            }
        }
        let mut executed = 0u64;
        while executed < max_slots && !self.all_honest_decided() {
            self.step();
            executed += 1;
        }
        let all_honest_decided = self.all_honest_decided();
        // Outputs of parties that were corrupted after deciding stay recorded, but the
        // bSM property checkers only consider never-corrupted parties; drop the rest to
        // keep the outcome unambiguous. Both sets move out — no cloning.
        let mut outputs = self.outputs;
        let corrupted = self.corrupted;
        outputs.retain(|party, _| !corrupted.contains(party));
        let outcome = RunOutcome {
            outputs,
            corrupted,
            all_honest_decided,
            slots: executed,
            metrics: self.metrics,
        };
        // Queue `i` goes back as queue `i`, ahead of any surplus; the lent buffers go
        // on top of the spare ones in reverse party order, so the first party lent an
        // inbox next time gets the first party's buffer of this run.
        let mut buffers = self.spare;
        buffers.in_flight = put_back(self.in_flight, buffers.in_flight);
        buffers.inboxes = put_back(self.inboxes, buffers.inboxes);
        buffers.lent.extend(self.lent.into_values().rev().map(|mut inbox| {
            inbox.clear();
            inbox
        }));
        buffers.sends = self.sends;
        buffers.sends.clear();
        Ok((outcome, buffers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SilentProcess;
    use std::collections::BTreeMap;

    /// Every party announces its own index to everyone it can reach, then outputs the
    /// set of indices heard (including its own) after two slots.
    struct GossipProcess {
        id: PartyId,
        parties: PartySet,
        topology: Topology,
        heard: BTreeSet<PartyId>,
        output: Option<Vec<PartyId>>,
    }

    impl GossipProcess {
        fn new(id: PartyId, parties: PartySet, topology: Topology) -> Self {
            Self { id, parties, topology, heard: [id].into_iter().collect(), output: None }
        }
    }

    impl Process<u32, Vec<PartyId>> for GossipProcess {
        fn id(&self) -> PartyId {
            self.id
        }

        fn step(&mut self, now: Time, inbox: &mut Vec<Envelope<u32>>) -> Vec<Outgoing<u32>> {
            for env in inbox.drain(..) {
                self.heard.insert(env.from);
            }
            match now.slot() {
                0 => self
                    .parties
                    .iter()
                    .filter(|&p| self.topology.connects(self.id, p))
                    .map(|p| Outgoing::new(p, self.id.index))
                    .collect(),
                1 => Vec::new(),
                _ => {
                    if self.output.is_none() {
                        self.output = Some(self.heard.iter().copied().collect());
                    }
                    Vec::new()
                }
            }
        }

        fn output(&self) -> Option<Vec<PartyId>> {
            self.output.clone()
        }
    }

    fn gossip_network(
        k: usize,
        topology: Topology,
        budget: CorruptionBudget,
    ) -> SyncNetwork<u32, Vec<PartyId>> {
        let mut net = SyncNetwork::new(k, topology, budget);
        let parties = net.parties();
        for party in parties.iter() {
            net.register(Box::new(GossipProcess::new(party, parties, topology))).unwrap();
        }
        net
    }

    #[test]
    fn gossip_reaches_all_neighbours_in_full_mesh() {
        let net = gossip_network(2, Topology::FullyConnected, CorruptionBudget::NONE);
        let outcome = net.run(10).unwrap();
        assert!(outcome.all_honest_decided);
        for party in PartySet::new(2).iter() {
            let heard = &outcome.outputs[&party];
            assert_eq!(heard.len(), 4, "{party} heard {heard:?}");
        }
        assert_eq!(outcome.metrics.rejected_by_topology, 0);
        assert_eq!(outcome.metrics.honest_messages, 4 * 3);
    }

    #[test]
    fn bipartite_topology_blocks_same_side_messages() {
        let net = gossip_network(2, Topology::Bipartite, CorruptionBudget::NONE);
        let outcome = net.run(10).unwrap();
        for party in PartySet::new(2).iter() {
            let heard = &outcome.outputs[&party];
            // Each party hears itself plus the two parties on the other side.
            assert_eq!(heard.len(), 3, "{party} heard {heard:?}");
            assert!(heard.iter().filter(|p| p.side == party.side).count() == 1);
        }
    }

    #[test]
    fn one_sided_topology_connects_right_side_only() {
        let net = gossip_network(3, Topology::OneSided, CorruptionBudget::NONE);
        let outcome = net.run(10).unwrap();
        for party in PartySet::new(3).iter() {
            let heard = &outcome.outputs[&party];
            if party.is_left() {
                assert_eq!(heard.len(), 4); // itself + 3 right parties
            } else {
                assert_eq!(heard.len(), 6); // everyone
            }
        }
    }

    #[test]
    fn corrupted_parties_crash_under_passive_adversary() {
        let mut net = gossip_network(2, Topology::FullyConnected, CorruptionBudget::new(1, 0));
        net.corrupt(PartyId::left(0)).unwrap();
        let outcome = net.run(10).unwrap();
        // The corrupted party has no recorded output…
        assert!(!outcome.outputs.contains_key(&PartyId::left(0)));
        assert!(outcome.corrupted.contains(&PartyId::left(0)));
        // …and nobody heard from it.
        for party in PartySet::new(2).iter().filter(|p| *p != PartyId::left(0)) {
            assert!(!outcome.outputs[&party].contains(&PartyId::left(0)));
        }
        assert_eq!(outcome.outputs.len(), 3);
    }

    #[test]
    fn corruption_budget_is_enforced() {
        let mut net = gossip_network(2, Topology::FullyConnected, CorruptionBudget::new(1, 0));
        net.corrupt(PartyId::left(0)).unwrap();
        assert_eq!(
            net.corrupt(PartyId::left(1)),
            Err(SimError::CorruptionBudgetExceeded { party: PartyId::left(1) })
        );
        assert_eq!(
            net.corrupt(PartyId::right(5)),
            Err(SimError::UnknownParty { party: PartyId::right(5) })
        );
    }

    #[test]
    fn registration_errors() {
        let mut net: SyncNetwork<u32, Vec<PartyId>> =
            SyncNetwork::new(1, Topology::FullyConnected, CorruptionBudget::NONE);
        assert_eq!(
            net.register(Box::new(SilentProcess::new(PartyId::left(7)))),
            Err(SimError::UnknownParty { party: PartyId::left(7) })
        );
        net.register(Box::new(SilentProcess::new(PartyId::left(0)))).unwrap();
        assert_eq!(
            net.register(Box::new(SilentProcess::new(PartyId::left(0)))),
            Err(SimError::DuplicateProcess { party: PartyId::left(0) })
        );
        // Running with a missing process reports which party is missing.
        let err = net.run(1).unwrap_err();
        assert_eq!(err, SimError::MissingProcess { party: PartyId::right(0) });
    }

    #[test]
    fn run_stops_at_slot_budget_when_processes_never_decide() {
        let mut net: SyncNetwork<u32, Vec<PartyId>> =
            SyncNetwork::new(1, Topology::FullyConnected, CorruptionBudget::NONE);
        for party in net.parties().iter() {
            net.register(Box::new(SilentProcess::new(party))).unwrap();
        }
        let outcome = net.run(5).unwrap();
        assert!(!outcome.all_honest_decided);
        assert_eq!(outcome.slots, 5);
        assert!(outcome.outputs.is_empty());
    }

    #[test]
    fn fault_injector_drops_messages() {
        let mut net = gossip_network(2, Topology::FullyConnected, CorruptionBudget::NONE);
        net.set_faults(FaultSchedule::new("loss=1000".parse().unwrap(), 0));
        let outcome = net.run(10).unwrap();
        for party in PartySet::new(2).iter() {
            assert_eq!(outcome.outputs[&party], vec![party]);
        }
        assert_eq!(outcome.metrics.dropped_by_faults, 12);
        assert_eq!(outcome.metrics.delivered_messages, 0);
    }

    #[test]
    fn fault_schedule_delays_messages_without_losing_them() {
        let run = || {
            let mut net = gossip_network(2, Topology::FullyConnected, CorruptionBudget::NONE);
            let spec: crate::FaultSpec = "jitter=3".parse().unwrap();
            net.set_faults(FaultSchedule::new(spec, 9));
            net.run(20).unwrap()
        };
        let outcome = run();
        assert!(outcome.all_honest_decided);
        assert!(outcome.metrics.delayed_by_faults > 0, "jitter=3 should delay something");
        assert_eq!(outcome.metrics.dropped_by_faults, 0, "jitter never drops");
        let again = run();
        assert_eq!(outcome.outputs, again.outputs);
        assert_eq!(outcome.metrics, again.metrics);
    }

    /// An adversary that equivocates: it sends different values to different recipients
    /// on behalf of every corrupted party, and adaptively corrupts a configured victim
    /// at slot 1.
    struct EquivocatingAdversary {
        adaptively_corrupt: Option<PartyId>,
    }

    impl Adversary<u32> for EquivocatingAdversary {
        fn plan_corruptions(&mut self, ctx: &AdversaryContext<'_>) -> Vec<PartyId> {
            if ctx.now == Time(1) {
                self.adaptively_corrupt.take().into_iter().collect()
            } else {
                Vec::new()
            }
        }

        fn act(
            &mut self,
            ctx: &AdversaryContext<'_>,
            _inboxes: &mut BTreeMap<PartyId, Vec<Envelope<u32>>>,
        ) -> Vec<(PartyId, Outgoing<u32>)> {
            let mut out = Vec::new();
            for &byzantine in ctx.corrupted {
                for (i, honest) in ctx.honest().into_iter().enumerate() {
                    if ctx.topology.connects(byzantine, honest) {
                        out.push((byzantine, Outgoing::new(honest, 100 + i as u32)));
                    }
                }
                // Attempts to speak over non-existent channels are rejected silently.
                out.push((byzantine, Outgoing::new(byzantine, 0)));
            }
            // Attempt to speak for an honest party: must be rejected.
            if let Some(honest) = ctx.honest().first().copied() {
                if let Some(other) = ctx.honest().get(1).copied() {
                    out.push((honest, Outgoing::new(other, 999)));
                }
            }
            out
        }
    }

    #[test]
    fn adversary_messages_respect_identity_and_topology() {
        let mut net = gossip_network(2, Topology::FullyConnected, CorruptionBudget::new(1, 1));
        net.corrupt(PartyId::left(0)).unwrap();
        net.set_adversary(Box::new(EquivocatingAdversary {
            adaptively_corrupt: Some(PartyId::right(0)),
        }));
        let outcome = net.run(10).unwrap();
        // Both statically and adaptively corrupted parties are recorded.
        assert!(outcome.corrupted.contains(&PartyId::left(0)));
        assert!(outcome.corrupted.contains(&PartyId::right(0)));
        // Spoofed sends (on behalf of honest parties) and self-sends were rejected.
        assert!(outcome.metrics.rejected_by_topology > 0);
        // Byzantine traffic is accounted separately from honest traffic.
        assert!(outcome.metrics.byzantine_messages > 0);
        // Honest parties still decided.
        assert!(outcome.outputs.contains_key(&PartyId::left(1)));
        assert!(outcome.outputs.contains_key(&PartyId::right(1)));
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut net = gossip_network(3, Topology::OneSided, CorruptionBudget::new(1, 1));
            net.corrupt(PartyId::right(2)).unwrap();
            net.set_adversary(Box::new(EquivocatingAdversary { adaptively_corrupt: None }));
            let outcome = net.run(10).unwrap();
            (outcome.outputs, outcome.metrics)
        };
        assert_eq!(run(), run());
    }

    /// Every inbox the network hands out during one run, honest and lent.
    type InboxLog = std::rc::Rc<std::cell::RefCell<Vec<Vec<Envelope<u32>>>>>;

    /// Sends two messages to every other party each slot, numbering its messages in
    /// emission order, and logs every inbox it receives.
    struct RecordingProcess {
        id: PartyId,
        parties: PartySet,
        emitted: u32,
        log: InboxLog,
    }

    impl Process<u32, ()> for RecordingProcess {
        fn id(&self) -> PartyId {
            self.id
        }

        fn step(&mut self, now: Time, inbox: &mut Vec<Envelope<u32>>) -> Vec<Outgoing<u32>> {
            self.log.borrow_mut().push(inbox.clone());
            let mut out = Vec::new();
            if now.slot() < 6 {
                for to in self.parties.iter().filter(|&p| p != self.id) {
                    for _ in 0..2 {
                        out.push(Outgoing::new(to, self.emitted));
                        self.emitted += 1;
                    }
                }
            }
            out
        }

        fn output(&self) -> Option<()> {
            None
        }
    }

    /// Speaks for every corrupted party in *descending* party order, after the honest
    /// parties of the slot have sent, so the network never sees sends in sender
    /// order. Logs (and drains) the inboxes it is lent.
    struct DescendingAdversary {
        emitted: BTreeMap<PartyId, u32>,
        log: InboxLog,
    }

    impl Adversary<u32> for DescendingAdversary {
        fn act(
            &mut self,
            ctx: &AdversaryContext<'_>,
            inboxes: &mut BTreeMap<PartyId, Vec<Envelope<u32>>>,
        ) -> Vec<(PartyId, Outgoing<u32>)> {
            self.log.borrow_mut().extend(inboxes.values_mut().map(std::mem::take));
            let mut out = Vec::new();
            if ctx.now.slot() < 6 {
                for &byzantine in ctx.corrupted.iter().rev() {
                    for to in ctx.parties.iter().filter(|&p| p != byzantine) {
                        let counter = self.emitted.entry(byzantine).or_default();
                        out.push((byzantine, Outgoing::new(to, *counter)));
                        *counter += 1;
                    }
                }
            }
            out
        }
    }

    /// Runs [`RecordingProcess`]es for `k` parties on a network built from `buffers`,
    /// with `corrupt` corrupted and speaking through a [`DescendingAdversary`], under
    /// `jitter=2`, for `slots` slots. Returns the outcome, every inbox handed out in
    /// order, and the network's buffers.
    fn recording_run(
        k: usize,
        corrupt: &[PartyId],
        slots: u64,
        buffers: NetBuffers<u32>,
    ) -> (RunOutcome<()>, Vec<Vec<Envelope<u32>>>, NetBuffers<u32>) {
        let log = InboxLog::default();
        let budget = CorruptionBudget::new(corrupt.len(), corrupt.len());
        let mut net = SyncNetwork::with_buffers(k, Topology::FullyConnected, budget, buffers);
        let parties = net.parties();
        for id in parties.iter() {
            let process = RecordingProcess { id, parties, emitted: 0, log: log.clone() };
            net.register(Box::new(process)).unwrap();
        }
        for &party in corrupt {
            net.corrupt(party).unwrap();
        }
        net.set_adversary(Box::new(DescendingAdversary {
            emitted: BTreeMap::new(),
            log: log.clone(),
        }));
        let spec: crate::FaultSpec = "jitter=2".parse().unwrap();
        net.set_faults(FaultSchedule::new(spec, 3));
        let (outcome, buffers) = net.run_keeping_buffers(slots).unwrap();
        assert!(outcome.metrics.delayed_by_faults > 0, "jitter must delay some messages");
        assert_eq!(outcome.metrics.dropped_by_faults, 0);
        let log = log.take();
        (outcome, log, buffers)
    }

    #[test]
    fn inboxes_are_ordered_by_sender_then_send_slot_then_emission() {
        let corrupt = [PartyId::left(0), PartyId::right(2)];
        let (outcome, log, _) = recording_run(3, &corrupt, 12, NetBuffers::default());
        let delivered: usize = log.iter().map(Vec::len).sum();
        assert_eq!(delivered as u64, outcome.metrics.delivered_messages);
        let mut mixed_slots = false;
        for inbox in log.iter() {
            // Sorted by (from, sent_at), exactly the order a stable sort would give.
            assert!(
                inbox.windows(2).all(|w| (w[0].from, w[0].sent_at) <= (w[1].from, w[1].sent_at)),
                "inbox not in (from, sent_at) order: {inbox:?}"
            );
            // Within one sender, messages keep the order the sender emitted them.
            for pair in inbox.windows(2).filter(|w| w[0].from == w[1].from) {
                assert!(pair[0].payload < pair[1].payload, "emission order lost: {inbox:?}");
                mixed_slots |= pair[0].sent_at != pair[1].sent_at;
            }
        }
        assert!(mixed_slots, "jitter should mix send slots of one sender in an inbox");
    }

    /// A network built on a finished network's buffers runs exactly like a fresh one,
    /// even when the donor had more parties, other corrupted parties, and delayed
    /// messages still in flight when it stopped; and it keeps the donor's capacity.
    #[test]
    fn a_network_on_reused_buffers_runs_like_a_fresh_one() {
        let donor = [PartyId::left(1), PartyId::left(3), PartyId::right(0)];
        let (finished, _, buffers) = recording_run(4, &donor, 5, NetBuffers::default());
        let metrics = &finished.metrics;
        let in_flight = metrics.total_messages() - metrics.delivered_messages;
        assert!(in_flight > 0, "the donor must stop with messages in flight");
        let donated = buffers.capacity();
        assert!(donated > 0);

        let corrupt = [PartyId::left(0), PartyId::right(2)];
        let (fresh, fresh_log, _) = recording_run(3, &corrupt, 12, NetBuffers::default());
        let (reused, reused_log, kept) = recording_run(3, &corrupt, 12, buffers);
        assert_eq!(reused.outputs, fresh.outputs);
        assert_eq!(reused.corrupted, fresh.corrupted);
        assert_eq!(reused.all_honest_decided, fresh.all_honest_decided);
        assert_eq!(reused.slots, fresh.slots);
        assert_eq!(reused.metrics, fresh.metrics);
        assert_eq!(reused_log, fresh_log, "the inboxes differ from a fresh network's");
        assert!(kept.capacity() >= donated, "{kept:?} lost capacity of {donated}");
    }

    #[test]
    fn debug_and_accessors() {
        let net = gossip_network(2, Topology::Bipartite, CorruptionBudget::new(1, 1));
        assert_eq!(net.parties().k(), 2);
        assert!(format!("{net:?}").contains("SyncNetwork"));
    }

    #[test]
    fn sim_error_display() {
        for err in [
            SimError::UnknownParty { party: PartyId::left(0) },
            SimError::DuplicateProcess { party: PartyId::left(0) },
            SimError::MissingProcess { party: PartyId::left(0) },
            SimError::CorruptionBudgetExceeded { party: PartyId::left(0) },
        ] {
            assert!(!err.to_string().is_empty());
        }
    }
}

//! Unit-cost probes of the layers inside `Scenario::run_with_plan`, which the cell
//! spans cannot split: the netsim slot loop, one bare Dolev–Strong instance, and the
//! digest, sign and verify primitives. Each probe repeats a fixed operation, times only
//! the calls under test, and reports the median nanoseconds per operation.

use crate::metrics::Values;
use crate::stats::median;
use bsm_broadcast::{DolevStrong, DolevStrongConfig, DolevStrongMsg};
use bsm_crypto::{Digest, DigestWriter, KeyId, Pki};
use bsm_net::{
    CorruptionBudget, Envelope, Outgoing, PartyId, PartySet, Process, RoundDriver, SyncNetwork,
    Time, Topology,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Host time each probe may spend.
const PROBE_BUDGET: Duration = Duration::from_millis(250);
/// Samples each probe takes at least, whatever the budget.
const MIN_SAMPLES: usize = 11;
/// Operations per crypto sample.
const BATCH: u64 = 256;

/// A probe result.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Median nanoseconds per operation.
    pub ns_per_op: f64,
    /// Samples behind the median.
    pub samples: usize,
    /// Operations per sample.
    pub ops: u64,
}

/// Runs `sample` (which returns its operation count and the host time of the timed
/// part) until the budget is spent.
fn measure(mut sample: impl FnMut() -> (u64, Duration)) -> Probe {
    let start = Instant::now();
    let mut per_op = Vec::new();
    let mut ops = 0;
    while per_op.len() < MIN_SAMPLES || start.elapsed() < PROBE_BUDGET {
        let (count, took) = sample();
        ops = count;
        per_op.push(took.as_nanos() as f64 / count.max(1) as f64);
    }
    Probe { ns_per_op: median(&per_op), samples: per_op.len(), ops }
}

/// Runs `net` for `slots` and returns (delivered messages, host time of the run).
fn run_network<M: Clone, O: Clone>(net: SyncNetwork<M, O>, slots: u64) -> (u64, Duration) {
    let begin = Instant::now();
    let outcome = net.run(slots).expect("every party has a process");
    (black_box(outcome.metrics.delivered_messages), begin.elapsed())
}

/// A process that sends one word to every other party each slot until `slots` have
/// passed, then decides.
struct AllToAll {
    id: PartyId,
    peers: Vec<PartyId>,
    slots: u64,
    done: bool,
}

impl Process<u64, u64> for AllToAll {
    fn id(&self) -> PartyId {
        self.id
    }

    fn step(&mut self, now: Time, inbox: &mut Vec<Envelope<u64>>) -> Vec<Outgoing<u64>> {
        let heard = inbox.iter().fold(0u64, |acc, env| acc ^ env.payload);
        if now.slot() + 1 >= self.slots {
            self.done = true;
            return Vec::new();
        }
        self.peers.iter().map(|&to| Outgoing::new(to, heard ^ now.slot())).collect()
    }

    fn output(&self) -> Option<u64> {
        self.done.then_some(0)
    }
}

/// `SyncNetwork::run` over `2k` all-to-all parties for `slots` slots: nanoseconds per
/// delivered message.
pub fn netsim(k: usize, slots: u64) -> Probe {
    let slots = slots.max(2);
    measure(|| {
        let parties = PartySet::new(k);
        let mut net: SyncNetwork<u64, u64> =
            SyncNetwork::new(k, Topology::FullyConnected, CorruptionBudget::NONE);
        for id in parties.iter() {
            let peers = parties.iter().filter(|&p| p != id).collect();
            net.register(Box::new(AllToAll { id, peers, slots, done: false }))
                .expect("each party registers once");
        }
        run_network(net, slots + 1)
    })
}

/// One bare Dolev–Strong instance over `2k` parties tolerating `t` corruptions, each
/// party behind a `RoundDriver`: nanoseconds per delivered message.
pub fn dolev_strong(k: usize, t: usize) -> Probe {
    let t = t.min(2 * k - 1);
    measure(|| {
        let parties = PartySet::new(k);
        let pki = Pki::new(2 * k as u32);
        let key_of: BTreeMap<PartyId, KeyId> =
            parties.iter().map(|p| (p, KeyId(p.dense(k) as u32))).collect();
        let sender = PartyId::left(0);
        let mut net: SyncNetwork<DolevStrongMsg<u64>, u64> =
            SyncNetwork::new(k, Topology::FullyConnected, CorruptionBudget::NONE);
        for party in parties.iter() {
            let config = DolevStrongConfig {
                me: party,
                sender,
                participants: parties.iter().collect(),
                t,
                instance: 1,
                pki: pki.clone(),
                key_of: key_of.clone(),
            };
            let key = pki.signing_key(key_of[&party].0).expect("every party has a key");
            let protocol = DolevStrong::new(config, key, (party == sender).then_some(99), 0);
            net.register(Box::new(RoundDriver::new(party, protocol))).expect("registers once");
        }
        run_network(net, DolevStrong::<u64>::total_rounds(t) + 2)
    })
}

/// The digest a Dolev–Strong chain link signs: instance tag, sender key and a
/// preference-list-sized value.
fn chain_digest(instance: u64, k: usize) -> Digest {
    let mut writer = DigestWriter::new();
    writer.label("dolev-strong").u64(instance).u64(0);
    writer.usize_slice(&(0..k).collect::<Vec<usize>>());
    writer.finish()
}

/// Digest, sign and verify unit costs on chain-shaped inputs: values of market size
/// `k`, chains of `t + 1` signatures.
pub fn crypto(k: usize, t: usize) -> [Probe; 3] {
    let links = t as u32 + 1;
    let digest = measure(|| {
        let begin = Instant::now();
        for instance in 0..BATCH {
            black_box(chain_digest(instance, k));
        }
        (BATCH, begin.elapsed())
    });
    let mut round = 0u64;
    let sign = measure(|| {
        // Fresh keys and fresh digests: every signature is a first signing, as in a run.
        let pki = Pki::new(links);
        let keys: Vec<_> = (0..links).map(|id| pki.signing_key(id).expect("key exists")).collect();
        let digests: Vec<Digest> = (0..BATCH).map(|i| chain_digest(round * BATCH + i, k)).collect();
        round += 1;
        let begin = Instant::now();
        for (i, digest) in digests.iter().enumerate() {
            black_box(keys[i % keys.len()].sign(*digest));
        }
        (BATCH, begin.elapsed())
    });
    let pki = Pki::new(links);
    let signed = chain_digest(7, k);
    let chain: Vec<_> =
        (0..links).map(|id| pki.signing_key(id).expect("key exists").sign(signed)).collect();
    let passes = BATCH.div_ceil(u64::from(links));
    let verify = measure(|| {
        let begin = Instant::now();
        for _ in 0..passes {
            for signature in &chain {
                black_box(pki.verify(signature, signed));
            }
        }
        (passes * u64::from(links), begin.elapsed())
    });
    [digest, sign, verify]
}

/// Runs every probe at market size `k`, `t` corruptions and `slots` slots into
/// `values`, and records each probe's sample count in `record`.
pub fn run_all(k: usize, t: usize, slots: u64, values: &mut Values, record: &mut String) {
    let [digest, sign, verify] = crypto(k, t);
    let mut samples = String::new();
    for (metric, probe) in [
        ("netsim.probe_ns_per_msg", netsim(k, slots)),
        ("broadcast.dolev_strong.probe_ns_per_msg", dolev_strong(k, t)),
        ("crypto.digest_ns", digest),
        ("crypto.sign_ns", sign),
        ("crypto.verify_ns", verify),
    ] {
        values.insert(metric, probe.ns_per_op);
        let separator = if samples.is_empty() { "" } else { ", " };
        let _ = write!(
            samples,
            "{separator}\"{metric}\": {{\"samples\": {}, \"ops_per_sample\": {}}}",
            probe.samples, probe.ops
        );
    }
    let _ = write!(
        record,
        ", \"probe_k\": {k}, \"probe_t\": {t}, \"probe_slots\": {slots}, \"probes\": {{{samples}}}"
    );
}

//! Deterministic synchronous network simulator for two-sided byzantine protocols.
//!
//! The paper's model (§2) is a synchronous network: parties have synchronized clocks,
//! all parties start at time 0, and every message is delivered within a publicly known
//! delay `Δ`. This crate models that world with discrete *slots* (1 slot = `Δ`):
//!
//! * [`PartyId`] / [`PartySet`] — the `2k` parties split into sides `L` and `R`,
//! * [`Topology`] — the three communication graphs of Fig. 1 (fully-connected,
//!   one-sided, bipartite),
//! * [`Process`] — the per-party protocol state machine interface, stepped once per slot,
//! * [`RoundProtocol`] / [`RoundDriver`] — a higher-level interface for protocols that
//!   think in lock-step rounds rather than raw slots,
//! * [`Adversary`] — an adaptive byzantine adversary that controls all corrupted
//!   parties, subject to the per-side corruption budget `(tL, tR)`,
//! * [`FaultInjector`] — message-level fault injection (omission networks, §5.2), with
//!   [`FaultSchedule`] applying a declarative [`FaultSpec`] (scheduled partitions,
//!   crash/recovery, seeded loss and delivery jitter — partial synchrony),
//! * [`SyncNetwork`] — the deterministic scheduler tying everything together, plus
//!   [`Metrics`] for message/round accounting used by the benchmarks.
//!
//! Determinism: party iteration follows the total order on [`PartyId`], all collections
//! with observable iteration order are `BTreeMap`/`BTreeSet`, and any randomness lives
//! inside explicitly seeded adversaries or fault injectors. Two runs of the same
//! scenario produce identical transcripts, which is what makes the paper's
//! indistinguishability-based attacks reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod faults;
mod message;
mod metrics;
mod party;
mod process;
mod round;
mod sim;
mod time;
mod topology;

pub use adversary::{Adversary, AdversaryContext, CorruptionBudget, PassiveAdversary};
pub use faults::{
    CrashWindow, DropAll, FaultAction, FaultInjector, FaultSchedule, FaultSpec,
    FaultSpecParseError, NoFaults, PartitionWindow, PredicateFaults, RandomOmissions,
};
pub use message::{multicast, Envelope, Outgoing};
pub use metrics::{FanoutSummary, Metrics, RoleFanout};
pub use party::{PartyId, PartySet};
pub use process::{Process, SilentProcess};
pub use round::{RoundDriver, RoundProtocol};
pub use sim::{NetBuffers, RunOutcome, SimError, SyncNetwork};
pub use time::Time;
pub use topology::Topology;

pub use bsm_matching::Side;

//! Byzantine broadcast and agreement building blocks.
//!
//! The constructive results of the paper reduce byzantine stable matching to Byzantine
//! Broadcast (Definition 2, Lemma 1) and, for the bipartite authenticated case, to a
//! Byzantine Agreement / Broadcast pair that degrades gracefully to *weak agreement*
//! when the network suffers omissions (Theorems 8 and 9). This crate implements every
//! primitive the paper invokes, each as a [`bsm_net::RoundProtocol`] that can be run
//! directly on the synchronous simulator or embedded (via message multiplexing) into the
//! composite stable-matching protocols of `bsm-core`:
//!
//! * [`PhaseKing`] — the Berman–Garay–Perry "phase king" agreement protocol `ΠKing`
//!   used in Appendix A.6, resilient to `t < k/3` corruptions, terminating in
//!   `3(t+1)` rounds even under omissions,
//! * [`OmissionTolerantBa`] — `ΠBA`: phase king plus one confirmation round, achieving
//!   full BA without omissions and weak agreement + termination with omissions
//!   (Theorem 8),
//! * [`OmissionTolerantBb`] — `ΠBB`: the sender distributes its value, then the
//!   committee runs `ΠBA` on what was received (Theorem 9),
//! * [`DolevStrong`] — authenticated broadcast with signature chains, resilient to any
//!   number of corruptions `t < n` (used for Theorem 5),
//! * [`CommitteeBroadcast`] — a concrete instantiation of Lemma 4: broadcast for the
//!   product adversary structure `{S_L ∪ S_R : |S_L| ≤ tL, |S_R| ≤ tR}` whenever
//!   `tL < k/3` or `tR < k/3`, by delegating agreement to the less-corrupted side and
//!   having every party adopt the committee's plurality report.
//!
//! All protocols are generic over the broadcast value type (the paper broadcasts whole
//! preference lists).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod committee;
mod dolev_strong;
mod phase_king;
mod pi_ba;
mod pi_bb;
mod value;

pub use committee::{Committee, CommitteeBroadcast, CommitteeBroadcastConfig, CommitteeMsg};
pub use dolev_strong::{
    DolevStrong, DolevStrongConfig, DolevStrongMsg, DolevStrongRole, KeyDirectory,
};
pub use phase_king::{KingMsg, KingMsgKind, PhaseKing};
pub use pi_ba::{BaMsg, OmissionTolerantBa};
pub use pi_bb::{BbMsg, OmissionTolerantBb};
pub use value::Value;

/// Runs `protocol`'s round `round` over an owned inbox and collects what it sends, for
/// the unit tests' lock-step drivers, which deliver round by round without a network.
#[cfg(test)]
pub(crate) fn run_round<P: bsm_net::RoundProtocol>(
    protocol: &mut P,
    round: u64,
    inbox: &[(bsm_net::PartyId, P::Msg)],
) -> Vec<bsm_net::Outgoing<P::Msg>> {
    let mut out = Vec::new();
    let inbox = inbox.iter().map(|(from, msg)| (*from, msg));
    protocol.round(round, inbox, &mut |to, msg| out.push(bsm_net::Outgoing::new(to, msg)));
    out
}

//! Rotation stage: planning the rotation schedule and governing retry
//! backoff after fabric faults.
//!
//! Two pure decision pieces live here:
//!
//! * a [`RotationSchedulePolicy`] maps the current selection and demand
//!   weights to a [`RotationPlan`] — which SIs upgrade, in which order,
//!   through which Molecule stages. [`RotationStrategy`] implements it
//!   with the paper's "Rotation in Advance" upgrade ladder (and the
//!   `TargetOnly` ablation). The plan never names containers: victim
//!   choice depends on fabric state that changes with every request, so
//!   the imperative shell walks the plan and issues
//!   [`Command`](crate::command::Command)s one at a time.
//! * a [`BackoffGovernor`] tracks per-Atom-kind failure history under a
//!   [`RetryPolicy`], answering "may this kind rotate now?" and "when is
//!   the next retry due?" without ever touching the fabric itself.

use std::collections::BTreeMap;

use rispp_core::atom::AtomKind;
use rispp_core::molecule::Molecule;
use rispp_core::selection::MoleculeSelection;
use rispp_core::si::{SiId, SiLibrary};
use rispp_fabric::clock::Clock;

use crate::selection::DemandWeights;
use crate::TaskId;

/// Order in which the rotation scheduler requests Atoms — the design
/// choice behind the paper's "Rotation in Advance".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RotationStrategy {
    /// Stage the SI's upgrade path: smallest (slowest) fitting Molecule
    /// first, so hardware execution starts as early as possible and then
    /// gradually upgrades (the paper's behaviour).
    #[default]
    UpgradePath,
    /// Load the final target Molecule's Atoms in plain kind order —
    /// hardware execution only starts once everything is there. Kept as
    /// the ablation baseline (see the `ablation_rotation` harness).
    TargetOnly,
}

/// One SI's planned upgrade: the Molecule stages to establish, in order,
/// on behalf of `owner`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedUpgrade {
    /// The SI this upgrade serves.
    pub si: SiId,
    /// Task the rotations are attributed to (the SI's first demander).
    pub owner: Option<TaskId>,
    /// Molecule stages, earliest first; the last stage is the chosen
    /// target implementation.
    pub stages: Vec<Molecule>,
}

/// The full rotation schedule for one re-selection, most important SI
/// first.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RotationPlan {
    /// Planned upgrades in descending demand weight.
    pub upgrades: Vec<PlannedUpgrade>,
}

/// How a selection is turned into an ordered rotation schedule.
///
/// Mirrors [`SelectionPolicy`](crate::selection::SelectionPolicy):
/// static dispatch, so swapping the planner changes the manager's type
/// parameter instead of adding a branch to the hot path.
pub trait RotationSchedulePolicy {
    /// Plans the upgrade ladder for `selection`, ordering SIs by their
    /// demand `weights` (descending, ties in selection order).
    fn plan(
        &self,
        lib: &SiLibrary,
        selection: &MoleculeSelection,
        weights: &DemandWeights,
    ) -> RotationPlan;
}

impl RotationSchedulePolicy for RotationStrategy {
    fn plan(
        &self,
        lib: &SiLibrary,
        selection: &MoleculeSelection,
        weights: &DemandWeights,
    ) -> RotationPlan {
        // Chosen implementations, most important SI first. The sort is
        // stable: equal weights keep the selection's own order.
        let mut order: Vec<&rispp_core::selection::ChosenMolecule> =
            selection.chosen.iter().collect();
        order.sort_by(|a, b| {
            let wa = weights.weight_of(a.si);
            let wb = weights.weight_of(b.si);
            wb.partial_cmp(&wa).unwrap_or(std::cmp::Ordering::Equal)
        });
        let upgrades = order
            .into_iter()
            .map(|choice| {
                let wanted = choice.molecule.clone();
                // "Rotation in Advance": load the SI's upgrade path stage
                // by stage — smallest (slowest) Molecule first — so
                // hardware execution starts as early as possible and then
                // gradually upgrades, instead of only after the full
                // target is loaded.
                let mut stages: Vec<Molecule> = match self {
                    RotationStrategy::UpgradePath => {
                        let mut s: Vec<Molecule> = lib
                            .get(choice.si)
                            .molecules()
                            .iter()
                            .filter(|m| m.molecule.le(&wanted))
                            .map(|m| m.molecule.clone())
                            .collect();
                        s.sort_by_key(Molecule::determinant);
                        s
                    }
                    RotationStrategy::TargetOnly => Vec::new(),
                };
                stages.push(wanted);
                PlannedUpgrade {
                    si: choice.si,
                    owner: weights.owner_of(choice.si),
                    stages,
                }
            })
            .collect();
        RotationPlan { upgrades }
    }
}

/// Bounded-retry configuration for rotations that fail in the fabric
/// (e.g. CRC errors injected by a
/// [`FaultPlan`](rispp_fabric::FaultPlan)).
///
/// After each failed rotation of an Atom kind the manager waits an
/// exponentially growing backoff —
/// `backoff_base_us · backoff_factor^(attempt − 1)` simulated
/// microseconds — before requesting that kind again. Once `max_attempts`
/// consecutive failures accumulate, the kind is *parked*: no further
/// rotations are requested for it until some rotation of that kind
/// succeeds (one already in flight, for instance). Affected SIs keep
/// executing on the best Molecule the remaining loaded Atoms support,
/// ultimately the software one — a fabric fault never becomes an
/// execution error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Consecutive failed rotations of one Atom kind before that kind is
    /// parked (default 3). Zero parks a kind on its very first failure.
    pub max_attempts: u32,
    /// Backoff before the first retry, in simulated microseconds
    /// (default 50 µs).
    pub backoff_base_us: f64,
    /// Multiplicative backoff growth per further failure (default 2).
    pub backoff_factor: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base_us: 50.0,
            backoff_factor: 2.0,
        }
    }
}

impl RetryPolicy {
    /// The cycle until which a kind with `attempts` consecutive failures
    /// (the latest at cycle `at`) must not be re-requested.
    ///
    /// Saturates instead of overflowing: an exponent beyond `i32::MAX`,
    /// a non-finite backoff (huge factors) or a cycle count past
    /// `u64::MAX` all yield `u64::MAX` — an effective park, never a
    /// panic or a wrapped-around "retry immediately".
    #[must_use]
    pub fn backoff_until(&self, attempts: u32, at: u64, clock: &Clock) -> u64 {
        let exponent = attempts.saturating_sub(1).min(i32::MAX as u32) as i32;
        let us = self.backoff_base_us * self.backoff_factor.powi(exponent);
        if us.is_finite() {
            at.saturating_add(clock.us_to_cycles(us).max(1))
        } else {
            u64::MAX
        }
    }
}

/// Per-kind failure bookkeeping for [`RetryPolicy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct BackoffState {
    /// Consecutive failures since the last success of this kind.
    attempts: u32,
    /// Cycle until which the kind must not be re-requested (`u64::MAX`
    /// once parked).
    blocked_until: u64,
}

/// Tracks rotation failures per Atom kind and decides when each kind may
/// be requested again (see [`RetryPolicy`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BackoffGovernor {
    policy: RetryPolicy,
    /// Per-Atom-kind backoff state, keyed by kind index. An entry exists
    /// only while the kind has unresolved failures.
    states: BTreeMap<usize, BackoffState>,
}

impl BackoffGovernor {
    /// Creates a governor with no failure history.
    #[must_use]
    pub fn new(policy: RetryPolicy) -> Self {
        BackoffGovernor {
            policy,
            states: BTreeMap::new(),
        }
    }

    /// Records one failed rotation of `kind` at cycle `at` and computes
    /// the cycle until which that kind must not be re-requested.
    pub fn note_failure(&mut self, kind: AtomKind, at: u64, clock: &Clock) {
        let policy = self.policy;
        let entry = self.states.entry(kind.index()).or_default();
        entry.attempts += 1;
        if entry.attempts >= policy.max_attempts {
            entry.blocked_until = u64::MAX; // parked until a success
        } else {
            entry.blocked_until = policy.backoff_until(entry.attempts, at, clock);
        }
    }

    /// Records a successful rotation of `kind`: wipes its failure
    /// history, un-parking it.
    pub fn note_success(&mut self, kind: AtomKind) {
        self.states.remove(&kind.index());
    }

    /// `true` while `kind` is under failure backoff (or parked) at `now`.
    #[must_use]
    pub fn is_blocked(&self, kind: AtomKind, now: u64) -> bool {
        self.states
            .get(&kind.index())
            .is_some_and(|b| b.blocked_until > now)
    }

    /// Atom kinds barred from rotation by failure backoff at `now` —
    /// both those waiting out a delay and those parked after
    /// [`RetryPolicy::max_attempts`] failures.
    #[must_use]
    pub fn blocked_kinds(&self, now: u64) -> Vec<AtomKind> {
        self.states
            .iter()
            .filter(|(_, b)| b.blocked_until > now)
            .map(|(&k, _)| AtomKind(k))
            .collect()
    }

    /// Earliest backoff expiry inside `(now, t]`: the moment a blocked
    /// kind becomes requestable again, `None` when no expiry falls in the
    /// window.
    #[must_use]
    pub fn next_wake_within(&self, now: u64, t: u64) -> Option<u64> {
        self.states
            .values()
            .map(|b| b.blocked_until)
            .filter(|&w| w > now && w <= t)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock() -> Clock {
        Clock::new(100_000_000) // 100 MHz: 1 µs = 100 cycles
    }

    #[test]
    fn backoff_grows_exponentially() {
        let policy = RetryPolicy::default();
        let c = clock();
        // 50 µs, 100 µs: 5 000 and 10 000 cycles past the failure.
        assert_eq!(policy.backoff_until(1, 1_000, &c), 6_000);
        assert_eq!(policy.backoff_until(2, 1_000, &c), 11_000);
    }

    #[test]
    fn zero_max_attempts_parks_on_first_failure() {
        let mut gov = BackoffGovernor::new(RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        });
        gov.note_failure(AtomKind(0), 100, &clock());
        // Parked outright: blocked at any time, no retry wake ever due.
        assert!(gov.is_blocked(AtomKind(0), u64::MAX - 1));
        assert_eq!(gov.next_wake_within(0, u64::MAX - 1), None);
    }

    #[test]
    fn huge_exponents_saturate_instead_of_overflowing() {
        let policy = RetryPolicy {
            max_attempts: u32::MAX,
            backoff_base_us: 50.0,
            backoff_factor: 2.0,
        };
        let c = clock();
        // 2^(u32::MAX − 2) µs is far beyond f64 range: the delay must
        // saturate to an effective park, not wrap into an immediate
        // retry or panic.
        assert_eq!(policy.backoff_until(u32::MAX - 1, 0, &c), u64::MAX);
        // Same when the exponent is representable but the product is not.
        let wild = RetryPolicy {
            backoff_base_us: 1e300,
            backoff_factor: 1e300,
            ..policy
        };
        assert_eq!(wild.backoff_until(2, 0, &c), u64::MAX);
        // And a merely-huge finite delay saturates through the cycle
        // conversion without wrapping past `at`.
        let large = RetryPolicy {
            backoff_base_us: 1e18,
            backoff_factor: 1.0,
            ..policy
        };
        assert_eq!(large.backoff_until(1, u64::MAX - 5, &c), u64::MAX);
    }

    #[test]
    fn backoff_is_never_zero_cycles() {
        // A sub-cycle backoff still blocks for at least one cycle;
        // otherwise a failure at cycle t would be retried at cycle t in
        // the same advance step, defeating the backoff entirely.
        let tiny = RetryPolicy {
            backoff_base_us: 1e-9,
            ..RetryPolicy::default()
        };
        assert_eq!(tiny.backoff_until(1, 500, &clock()), 501);
    }

    #[test]
    fn kind_unparks_when_the_delay_expires() {
        let mut gov = BackoffGovernor::new(RetryPolicy::default());
        let c = clock();
        gov.note_failure(AtomKind(1), 10_000, &c); // blocked until 15 000
        assert!(gov.is_blocked(AtomKind(1), 14_999));
        assert_eq!(gov.blocked_kinds(14_999), vec![AtomKind(1)]);
        assert_eq!(gov.next_wake_within(10_000, 100_000), Some(15_000));
        // At the expiry cycle the kind is requestable again — without any
        // success having been recorded.
        assert!(!gov.is_blocked(AtomKind(1), 15_000));
        assert!(gov.blocked_kinds(15_000).is_empty());
        assert_eq!(gov.next_wake_within(15_000, 100_000), None);
    }

    #[test]
    fn success_wipes_the_failure_history() {
        let mut gov = BackoffGovernor::new(RetryPolicy::default());
        let c = clock();
        for _ in 0..3 {
            gov.note_failure(AtomKind(0), 0, &c);
        }
        assert!(gov.is_blocked(AtomKind(0), u64::MAX - 1)); // parked
        gov.note_success(AtomKind(0));
        assert!(!gov.is_blocked(AtomKind(0), 0));
        // The next failure starts from attempt 1 again.
        gov.note_failure(AtomKind(0), 0, &c);
        assert_eq!(gov.next_wake_within(0, u64::MAX - 1), Some(5_000));
    }

    #[test]
    fn parked_kinds_do_not_produce_wakeups() {
        let mut gov = BackoffGovernor::new(RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        });
        gov.note_failure(AtomKind(0), 0, &clock());
        // `blocked_until` is u64::MAX: outside every finite window.
        assert_eq!(gov.next_wake_within(0, 1_000_000), None);
        assert!(gov.is_blocked(AtomKind(0), 1_000_000));
    }
}

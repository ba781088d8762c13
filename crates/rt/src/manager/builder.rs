//! Step-by-step construction of a [`RisppManager`] — the only place a
//! manager comes into existence, so every invariant (library/fabric
//! width agreement, shared sink wiring) is established here once.

use rispp_core::si::SiLibrary;
use rispp_fabric::fabric::Fabric;
use rispp_obs::SinkHandle;

use crate::dispatch::DispatchTable;
use crate::forecast::ForecastStore;
use crate::rotation::{BackoffGovernor, RetryPolicy, RotationSchedulePolicy, RotationStrategy};
use crate::selection::{GreedySelection, PowerMode, SelectionPolicy, SelectionStage};
use crate::stats::StatsLedger;

use super::RisppManager;

/// The forecast-smoothing factor λ: the weight of each new observation
/// when monitoring fine-tunes a stored forecast.
const SMOOTHING: f64 = 0.25;

/// Step-by-step construction of a [`RisppManager`].
///
/// Obtained from [`RisppManager::builder`]; every knob has the same
/// default as the paper's configuration ([`PowerMode::Performance`],
/// [`RotationStrategy::UpgradePath`], [`GreedySelection`], observability
/// off), so `builder(lib, fabric).build()` is the common case and each
/// method overrides exactly one aspect. The event sink is chosen here
/// and nowhere else: a built manager cannot gain another consumer.
///
/// # Examples
///
/// ```
/// use rispp_fabric::{AtomCatalog, Fabric};
/// use rispp_fabric::catalog::AtomHwProfile;
/// use rispp_h264::si_library::{atom_set, build_library};
/// use rispp_rt::manager::{RisppManager, RotationStrategy};
///
/// let (lib, _sis) = build_library();
/// let profiles = vec![
///     AtomHwProfile::new("QuadSub", 352, 700, 58_745),
///     AtomHwProfile::new("Pack", 406, 812, 65_713),
///     AtomHwProfile::new("Transform", 517, 1034, 59_353),
///     AtomHwProfile::new("SATD", 407, 808, 58_141),
/// ];
/// let fabric = Fabric::new(atom_set(), AtomCatalog::new(profiles), 4);
/// let mgr = RisppManager::builder(lib, fabric)
///     .schedule_policy(RotationStrategy::TargetOnly)
///     .build();
/// assert_eq!(mgr.now(), 0);
/// ```
#[derive(Debug)]
pub struct ManagerBuilder<S = GreedySelection, R = RotationStrategy> {
    lib: SiLibrary,
    fabric: Fabric,
    selection_policy: S,
    schedule_policy: R,
    power_mode: PowerMode,
    sink: SinkHandle,
}

impl<S: SelectionPolicy, R: RotationSchedulePolicy> ManagerBuilder<S, R> {
    /// Replaces the Molecule-selection policy (default:
    /// [`GreedySelection`]). Changes the manager's type parameter.
    #[must_use]
    pub fn selection_policy<T: SelectionPolicy>(self, selection: T) -> ManagerBuilder<T, R> {
        ManagerBuilder {
            lib: self.lib,
            fabric: self.fabric,
            selection_policy: selection,
            schedule_policy: self.schedule_policy,
            power_mode: self.power_mode,
            sink: self.sink,
        }
    }

    /// Replaces the rotation-schedule policy (default:
    /// [`RotationStrategy::UpgradePath`]). Changes the manager's type
    /// parameter.
    #[must_use]
    pub fn schedule_policy<U: RotationSchedulePolicy>(self, schedule: U) -> ManagerBuilder<S, U> {
        ManagerBuilder {
            lib: self.lib,
            fabric: self.fabric,
            selection_policy: self.selection_policy,
            schedule_policy: schedule,
            power_mode: self.power_mode,
            sink: self.sink,
        }
    }

    /// Sets the initial adaptation goal (default:
    /// [`PowerMode::Performance`]). Runtime changes go through
    /// [`RisppManager::adapt_power_mode`].
    #[must_use]
    pub fn power_mode(mut self, mode: PowerMode) -> Self {
        self.power_mode = mode;
        self
    }

    /// Installs the structured-event sink (default: disabled). The
    /// manager shares the sink with its fabric, so rotation events and
    /// manager events arrive interleaved at the same consumer. Several
    /// consumers go through one [`SinkHandle::tee`].
    #[must_use]
    pub fn sink(mut self, sink: SinkHandle) -> Self {
        self.sink = sink;
        self
    }

    /// Does nothing: no event carries host time any more, so every
    /// seeded run replays byte for byte without it. Kept only because
    /// the benchmark's traced mirror of `ShardSpec::run` still calls it;
    /// ROADMAP item 1(a) moves that mirror onto `ShardSpec` and removes
    /// this last caller.
    #[must_use]
    pub fn deterministic_timing(self, _deterministic: bool) -> Self {
        self
    }

    /// Builds the manager.
    ///
    /// # Panics
    ///
    /// Panics if the library width differs from the fabric's Atom count.
    #[must_use]
    pub fn build(self) -> RisppManager<S, R> {
        assert_eq!(
            self.lib.width(),
            self.fabric.atoms().len(),
            "SI library and fabric must agree on the atom kinds"
        );
        let dispatch = DispatchTable::new(self.lib.len(), self.fabric.num_containers());
        let mut fabric = self.fabric;
        fabric.set_sink(SinkHandle::tee(fabric.sink().clone(), self.sink.clone()));
        let forecasts = ForecastStore::new(SMOOTHING, self.lib.len());
        let selector = SelectionStage::new(self.selection_policy, self.power_mode, &self.lib);
        RisppManager {
            lib: self.lib,
            fabric,
            forecasts,
            selector,
            scheduler: self.schedule_policy,
            ledger: StatsLedger::new(),
            backoff: BackoffGovernor::new(RetryPolicy::default()),
            dispatch,
            sink: self.sink,
        }
    }
}

impl RisppManager {
    /// Starts building a manager over `lib` and `fabric` with the default
    /// configuration (see [`ManagerBuilder`]).
    #[must_use]
    pub fn builder(lib: SiLibrary, fabric: Fabric) -> ManagerBuilder {
        ManagerBuilder {
            lib,
            fabric,
            selection_policy: GreedySelection,
            schedule_policy: RotationStrategy::default(),
            power_mode: PowerMode::default(),
            sink: SinkHandle::null(),
        }
    }
}

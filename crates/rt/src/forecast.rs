//! Forecast stage: the store of active per-task demands and their online
//! fine-tuning (the paper's run-time task (a), "Monitoring FCs and SIs in
//! order to fine-tune the profiling information").
//!
//! The [`ForecastStore`] is a pure value: it holds the forecasts announced
//! by FC instrumentation, keyed by `(task, si)`, and folds observed
//! outcomes into them with exponential smoothing. It never touches the
//! fabric, never emits events and never triggers selection — the
//! imperative shell ([`RisppManager`](crate::manager::RisppManager))
//! decides *when* a change warrants a re-selection; this stage only
//! answers *what* the current demands are.

use std::collections::BTreeMap;

use rispp_core::forecast::ForecastValue;
use rispp_core::si::SiId;

use crate::TaskId;

/// Active forecasts of all tasks, with the smoothing factor used to
/// fine-tune them from run-time observation.
///
/// Iteration order is deterministic: ascending `(task, si)`. Downstream
/// weighting depends on this — the first (lowest-id) task demanding an SI
/// becomes the owner recorded for its rotations.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastStore {
    /// Active forecasts, keyed by (task, si).
    demands: BTreeMap<(TaskId, usize), ForecastValue>,
    /// Smoothing factor λ ∈ [0, 1] for online forecast fine-tuning
    /// (weight of each new observation).
    lambda: f64,
}

impl ForecastStore {
    /// Creates an empty store with smoothing factor `lambda`.
    ///
    /// # Panics
    ///
    /// Panics unless `lambda ∈ [0, 1]`.
    #[must_use]
    pub fn new(lambda: f64) -> Self {
        assert!((0.0..=1.0).contains(&lambda), "lambda must be in [0, 1]");
        ForecastStore {
            demands: BTreeMap::new(),
            lambda,
        }
    }

    /// The smoothing factor λ.
    #[must_use]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Number of active `(task, si)` demands.
    #[must_use]
    pub fn len(&self) -> usize {
        self.demands.len()
    }

    /// `true` when no demand is active.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.demands.is_empty()
    }

    /// Stores (or replaces) `task`'s forecast for `value.si`.
    pub fn insert(&mut self, task: TaskId, value: ForecastValue) {
        self.demands.insert((task, value.si.index()), value);
    }

    /// Drops `task`'s forecast for `si` (a negative FC). Returns the
    /// retracted value, `None` when no such demand was active.
    pub fn retract(&mut self, task: TaskId, si: SiId) -> Option<ForecastValue> {
        self.demands.remove(&(task, si.index()))
    }

    /// Fine-tunes `task`'s stored forecast for `si` with one observed
    /// outcome (exponential smoothing with factor λ). A no-op when the
    /// demand is not active — monitoring an SI the store no longer tracks
    /// carries no information worth keeping.
    pub fn observe(
        &mut self,
        task: TaskId,
        si: SiId,
        reached: bool,
        observed_distance: f64,
        observed_executions: f64,
    ) {
        let lambda = self.lambda;
        if let Some(fv) = self.demands.get_mut(&(task, si.index())) {
            fv.observe(lambda, reached, observed_distance, observed_executions);
        }
    }

    /// All active demands in ascending `(task, si)` order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, SiId, &ForecastValue)> {
        self.demands
            .iter()
            .map(|(&(task, si), fv)| (task, SiId(si), fv))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(si: usize, execs: f64) -> ForecastValue {
        ForecastValue::new(SiId(si), 1.0, 50_000.0, execs)
    }

    #[test]
    fn insert_replaces_per_task_and_si() {
        let mut store = ForecastStore::new(0.25);
        store.insert(0, fv(1, 10.0));
        store.insert(0, fv(1, 99.0));
        store.insert(1, fv(1, 5.0));
        assert_eq!(store.len(), 2);
        let values: Vec<f64> = store
            .iter()
            .map(|(_, _, f)| f.expected_executions)
            .collect();
        assert_eq!(values, vec![99.0, 5.0]);
    }

    #[test]
    fn iteration_is_task_major_ascending() {
        let mut store = ForecastStore::new(0.25);
        store.insert(1, fv(0, 1.0));
        store.insert(0, fv(2, 2.0));
        store.insert(0, fv(1, 3.0));
        let keys: Vec<(TaskId, usize)> = store.iter().map(|(t, si, _)| (t, si.index())).collect();
        assert_eq!(keys, vec![(0, 1), (0, 2), (1, 0)]);
    }

    #[test]
    fn retract_removes_only_that_demand() {
        let mut store = ForecastStore::new(0.25);
        store.insert(0, fv(1, 10.0));
        store.insert(1, fv(1, 20.0));
        assert!(store.retract(0, SiId(1)).is_some());
        assert!(store.retract(0, SiId(1)).is_none());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn observe_smooths_the_stored_value() {
        let mut store = ForecastStore::new(0.5);
        store.insert(0, ForecastValue::new(SiId(0), 0.5, 1_000.0, 10.0));
        store.observe(0, SiId(0), true, 2_000.0, 20.0);
        let (_, _, f) = store.iter().next().unwrap();
        assert!((f.probability - 0.75).abs() < 1e-9);
        assert!((f.expected_executions - 15.0).abs() < 1e-9);
        // An outcome for an unknown demand changes nothing.
        store.observe(7, SiId(0), false, 0.0, 0.0);
        assert_eq!(store.len(), 1);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn lambda_out_of_range_rejected() {
        let _ = ForecastStore::new(1.5);
    }
}

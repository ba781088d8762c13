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

use rispp_core::forecast::ForecastValue;
use rispp_core::si::SiId;

use crate::TaskId;

/// Active forecasts of all tasks, with the smoothing factor used to
/// fine-tune them from run-time observation.
///
/// The store keeps one row per library SI, holding that SI's forecasts in
/// ascending task order, so a change to one SI's demands touches one
/// row. Downstream weighting depends on that order: an SI's benefits add
/// up task by task, and the first (lowest-id) task demanding it becomes
/// the owner recorded for its rotations.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastStore {
    /// `rows[si]`: the SI's active forecasts, one per demanding task, in
    /// ascending task order.
    rows: Vec<Vec<(TaskId, ForecastValue)>>,
    /// Smoothing factor λ ∈ [0, 1] for online forecast fine-tuning
    /// (weight of each new observation).
    lambda: f64,
}

impl ForecastStore {
    /// Creates an empty store for a library of `si_count` SIs, with
    /// smoothing factor `lambda`.
    ///
    /// # Panics
    ///
    /// Panics unless `lambda ∈ [0, 1]`.
    #[must_use]
    pub fn new(lambda: f64, si_count: usize) -> Self {
        assert!((0.0..=1.0).contains(&lambda), "lambda must be in [0, 1]");
        ForecastStore {
            rows: vec![Vec::new(); si_count],
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
        self.rows.iter().map(Vec::len).sum()
    }

    /// `true` when no demand is active.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.iter().all(Vec::is_empty)
    }

    /// Stores (or replaces) `task`'s forecast for `value.si`.
    ///
    /// # Panics
    ///
    /// Panics when `value.si` is outside the library the store was sized
    /// for; the manager refuses such a forecast before it gets here.
    pub fn insert(&mut self, task: TaskId, value: ForecastValue) {
        let row = &mut self.rows[value.si.index()];
        match row.binary_search_by_key(&task, |&(t, _)| t) {
            Ok(at) => row[at].1 = value,
            Err(at) => row.insert(at, (task, value)),
        }
    }

    /// Drops `task`'s forecast for `si` (a negative FC). Returns the
    /// retracted value, `None` when no such demand was active.
    pub fn retract(&mut self, task: TaskId, si: SiId) -> Option<ForecastValue> {
        let row = self.rows.get_mut(si.index())?;
        let at = row.binary_search_by_key(&task, |&(t, _)| t).ok()?;
        Some(row.remove(at).1)
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
        let Some(row) = self.rows.get_mut(si.index()) else {
            return;
        };
        if let Ok(at) = row.binary_search_by_key(&task, |&(t, _)| t) {
            row[at]
                .1
                .observe(lambda, reached, observed_distance, observed_executions);
        }
    }

    /// The active forecasts for `si`, one per demanding task, in ascending
    /// task order (empty for an SI outside the library).
    #[must_use]
    pub fn row(&self, si: SiId) -> &[(TaskId, ForecastValue)] {
        self.rows.get(si.index()).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(si: usize, execs: f64) -> ForecastValue {
        ForecastValue::new(SiId(si), 1.0, 50_000.0, execs)
    }

    fn execs(store: &ForecastStore, si: usize) -> Vec<(TaskId, f64)> {
        store
            .row(SiId(si))
            .iter()
            .map(|(t, f)| (*t, f.expected_executions))
            .collect()
    }

    #[test]
    fn insert_replaces_per_task_and_si() {
        let mut store = ForecastStore::new(0.25, 2);
        store.insert(0, fv(1, 10.0));
        store.insert(0, fv(1, 99.0));
        store.insert(1, fv(1, 5.0));
        assert_eq!(store.len(), 2);
        assert_eq!(execs(&store, 1), vec![(0, 99.0), (1, 5.0)]);
    }

    #[test]
    fn rows_hold_each_si_s_tasks_in_ascending_order() {
        let mut store = ForecastStore::new(0.25, 3);
        store.insert(2, fv(1, 1.0));
        store.insert(0, fv(2, 2.0));
        store.insert(1, fv(1, 3.0));
        store.insert(0, fv(1, 4.0));
        assert_eq!(execs(&store, 0), vec![]);
        assert_eq!(execs(&store, 1), vec![(0, 4.0), (1, 3.0), (2, 1.0)]);
        assert_eq!(execs(&store, 2), vec![(0, 2.0)]);
        // An SI outside the library has no row.
        assert!(store.row(SiId(3)).is_empty());
    }

    #[test]
    fn retract_removes_only_that_demand() {
        let mut store = ForecastStore::new(0.25, 2);
        store.insert(0, fv(1, 10.0));
        store.insert(1, fv(1, 20.0));
        assert!(store.retract(0, SiId(1)).is_some());
        assert!(store.retract(0, SiId(1)).is_none());
        assert!(store.retract(0, SiId(9)).is_none());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn observe_smooths_the_stored_value() {
        let mut store = ForecastStore::new(0.5, 1);
        store.insert(0, ForecastValue::new(SiId(0), 0.5, 1_000.0, 10.0));
        store.observe(0, SiId(0), true, 2_000.0, 20.0);
        let (_, f) = &store.row(SiId(0))[0];
        assert!((f.probability - 0.75).abs() < 1e-9);
        assert!((f.expected_executions - 15.0).abs() < 1e-9);
        // An outcome for an unknown demand changes nothing, nor does one
        // for an SI outside the library.
        store.observe(7, SiId(0), false, 0.0, 0.0);
        store.observe(0, SiId(5), false, 0.0, 0.0);
        assert_eq!(store.len(), 1);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn lambda_out_of_range_rejected() {
        let _ = ForecastStore::new(1.5, 1);
    }
}

//! The reconfigurable fabric: Atom Containers plus a single
//! reconfiguration port that serialises rotations.
//!
//! The model captures exactly the properties the RISPP algorithms depend
//! on: (1) a rotation takes `bitstream / rate` wall-clock time, (2) only
//! one rotation can be in flight at a time (one SelectMap port), (3) a
//! container's previous Atom stays usable until its overwrite *starts*,
//! and (4) a loading container is unusable until the rotation completes.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use rispp_core::atom::{AtomKind, AtomSet};
use rispp_core::molecule::Molecule;
use rispp_obs::{Event, SinkHandle};

use crate::catalog::AtomCatalog;
use crate::clock::Clock;
use crate::container::{AtomContainer, ContainerId, ContainerState};
use crate::fault::FaultPlan;

/// Errors produced by fabric operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FabricError {
    /// The container index is out of range.
    UnknownContainer(ContainerId),
    /// The Atom kind is not in the platform catalog.
    UnknownKind(AtomKind),
    /// The container already has a rotation queued or in flight.
    RotationPending(ContainerId),
    /// Time went backwards in `advance_to`.
    TimeReversal {
        /// Current fabric time.
        now: u64,
        /// Requested (earlier) time.
        requested: u64,
    },
    /// The container is permanently out of service and rejects rotations.
    ContainerQuarantined(ContainerId),
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::UnknownContainer(c) => write!(f, "unknown atom container {c}"),
            FabricError::UnknownKind(k) => write!(f, "unknown atom kind {k}"),
            FabricError::RotationPending(c) => {
                write!(f, "rotation already pending for container {c}")
            }
            FabricError::TimeReversal { now, requested } => {
                write!(
                    f,
                    "cannot advance fabric from cycle {now} back to {requested}"
                )
            }
            FabricError::ContainerQuarantined(c) => {
                write!(f, "atom container {c} is quarantined")
            }
        }
    }
}

impl Error for FabricError {}

/// Timeline events emitted by the fabric, for traces and the Fig. 6
/// scenario reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricEvent {
    /// A rotation left the queue and began writing the container.
    RotationStarted {
        /// Target container.
        container: ContainerId,
        /// Atom being written.
        kind: AtomKind,
        /// Start cycle.
        at: u64,
    },
    /// A rotation completed; the Atom is now usable.
    RotationCompleted {
        /// Target container.
        container: ContainerId,
        /// Atom now loaded.
        kind: AtomKind,
        /// Completion cycle.
        at: u64,
    },
    /// A rotation reached its completion cycle but the bitstream failed
    /// CRC verification: the container holds no usable Atom, the port is
    /// free again. Injected by a [`FaultPlan`].
    RotationFailed {
        /// Target container.
        container: ContainerId,
        /// Atom whose bitstream failed to load.
        kind: AtomKind,
        /// Cycle of the failed completion.
        at: u64,
    },
    /// The reconfiguration port stalled; the in-flight rotation makes no
    /// progress until `until`. Injected by a [`FaultPlan`].
    PortStalled {
        /// Cycle at which the stall began.
        at: u64,
        /// Cycle at which the transfer resumes.
        until: u64,
    },
    /// A container was diagnosed permanently bad and taken out of
    /// service. Injected by a [`FaultPlan`].
    ContainerQuarantined {
        /// The container taken out of service.
        container: ContainerId,
        /// Cycle of the diagnosis.
        at: u64,
    },
    /// A transient fault (single-event upset) destroyed the Atom a
    /// container held; the container is empty but serviceable again.
    /// Injected by a [`FaultPlan`].
    ContainerFaulted {
        /// The container that lost its Atom.
        container: ContainerId,
        /// The Atom that was lost.
        kind: AtomKind,
        /// Cycle of the upset.
        at: u64,
    },
}

impl FabricEvent {
    /// Cycle at which the event occurred.
    #[must_use]
    pub fn at(&self) -> u64 {
        match *self {
            FabricEvent::RotationStarted { at, .. }
            | FabricEvent::RotationCompleted { at, .. }
            | FabricEvent::RotationFailed { at, .. }
            | FabricEvent::PortStalled { at, .. }
            | FabricEvent::ContainerQuarantined { at, .. }
            | FabricEvent::ContainerFaulted { at, .. } => at,
        }
    }
}

/// Bookkeeping for the rotation currently occupying the port.
#[derive(Debug, Clone, PartialEq, Eq)]
struct InFlightRotation {
    container: ContainerId,
    kind: AtomKind,
    /// Zero-based start-order sequence number (CRC failures key on it).
    seq: u64,
    /// Completion cycle, stall-adjusted.
    done_at: u64,
    /// Stall announcements not yet emitted: `(begins_at, until)`.
    stalls: VecDeque<(u64, u64)>,
}

/// The reconfigurable fabric simulator.
///
/// # Examples
///
/// ```
/// use rispp_core::atom::{AtomKind, AtomSet};
/// use rispp_fabric::catalog::{table1_profiles, AtomCatalog};
/// use rispp_fabric::container::ContainerId;
/// use rispp_fabric::fabric::Fabric;
///
/// let atoms = AtomSet::from_names(["Transform", "SATD", "Pack", "QuadSub"]);
/// let catalog = AtomCatalog::new(table1_profiles().to_vec());
/// let mut fabric = Fabric::new(atoms, catalog, 4);
///
/// fabric.request_rotation(ContainerId(0), AtomKind(0))?;
/// let done = fabric.next_completion().expect("one rotation in flight");
/// fabric.advance_to(done)?;
/// assert_eq!(fabric.loaded_molecule().count(AtomKind(0)), 1);
/// # Ok::<(), rispp_fabric::fabric::FabricError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Fabric {
    atoms: AtomSet,
    catalog: AtomCatalog,
    clock: Clock,
    containers: Vec<AtomContainer>,
    /// FIFO of requested-but-not-started rotations.
    queue: VecDeque<(ContainerId, AtomKind)>,
    /// The in-flight rotation, if any.
    in_flight: Option<InFlightRotation>,
    events: Vec<FabricEvent>,
    /// The fault schedule ([`FaultPlan::none`] by default).
    faults: FaultPlan,
    /// Transient faults not yet injected, sorted by cycle.
    pending_transients: VecDeque<(u64, ContainerId)>,
    /// Start-order sequence number of the next rotation.
    rotation_seq: u64,
    /// Bumped on every container state change (see
    /// [`Fabric::loaded_revision`]); only `set_container_state` writes a
    /// container state, so no change can slip past it.
    loaded_revision: u64,
    /// Structured-event sink (disabled by default). Cloning the fabric
    /// shares the sink, since handles are reference-counted.
    sink: SinkHandle,
}

impl Fabric {
    /// Creates a fabric with `containers` Atom Containers at the default
    /// 100 MHz clock.
    ///
    /// # Panics
    ///
    /// Panics if the catalog does not cover the atom set (name-for-name).
    #[must_use]
    pub fn new(atoms: AtomSet, catalog: AtomCatalog, containers: usize) -> Self {
        Self::with_clock(atoms, catalog, containers, Clock::default())
    }

    /// Creates a fabric with an explicit clock.
    ///
    /// # Panics
    ///
    /// Panics if the catalog does not cover the atom set (name-for-name).
    #[must_use]
    pub fn with_clock(
        atoms: AtomSet,
        catalog: AtomCatalog,
        containers: usize,
        clock: Clock,
    ) -> Self {
        assert!(
            catalog.matches(&atoms),
            "atom catalog must be index-aligned with the atom set"
        );
        Fabric {
            atoms,
            catalog,
            clock,
            containers: vec![AtomContainer::new(); containers],
            queue: VecDeque::new(),
            in_flight: None,
            events: Vec::new(),
            faults: FaultPlan::none(),
            pending_transients: VecDeque::new(),
            rotation_seq: 0,
            loaded_revision: 0,
            sink: SinkHandle::null(),
        }
    }

    /// Installs a deterministic fault schedule (chainable). The plan is
    /// normalized on installation; transient faults scheduled before the
    /// current cycle are dropped.
    #[must_use]
    pub fn with_faults(mut self, mut plan: FaultPlan) -> Self {
        plan.normalize();
        let now = self.clock.now();
        self.pending_transients = plan
            .transient_faults
            .iter()
            .copied()
            .filter(|&(at, _)| at >= now)
            .collect();
        self.faults = plan;
        self
    }

    /// The installed fault schedule (empty by default).
    #[must_use]
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The platform Atom set.
    #[must_use]
    pub fn atoms(&self) -> &AtomSet {
        &self.atoms
    }

    /// The Atom hardware catalog.
    #[must_use]
    pub fn catalog(&self) -> &AtomCatalog {
        &self.catalog
    }

    /// The simulation clock — the single source of simulated time for the
    /// whole platform (manager and engine re-expose this same instance).
    #[must_use]
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Current fabric time, in cycles (shorthand for `clock().now()`).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Installs a structured-event sink; the fabric emits
    /// [`Event::RotationStarted`] / [`Event::RotationCompleted`] into it.
    pub fn set_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }

    /// The installed structured-event sink (disabled by default).
    #[must_use]
    pub fn sink(&self) -> &SinkHandle {
        &self.sink
    }

    /// Number of Atom Containers.
    #[must_use]
    pub fn num_containers(&self) -> usize {
        self.containers.len()
    }

    /// Number of containers still in service (not quarantined) — the
    /// capacity a scheduler can actually count on.
    #[must_use]
    pub fn usable_containers(&self) -> usize {
        self.containers
            .iter()
            .filter(|c| !c.is_quarantined())
            .count()
    }

    /// Read access to one container.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn container(&self, id: ContainerId) -> &AtomContainer {
        &self.containers[id.index()]
    }

    /// Iterates `(id, container)` pairs.
    pub fn iter_containers(&self) -> impl Iterator<Item = (ContainerId, &AtomContainer)> {
        self.containers
            .iter()
            .enumerate()
            .map(|(i, c)| (ContainerId(i), c))
    }

    /// Re-allocates a container to a task tag.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::UnknownContainer`] for an out-of-range id.
    pub fn set_owner(&mut self, id: ContainerId, owner: Option<u32>) -> Result<(), FabricError> {
        self.containers
            .get_mut(id.index())
            .ok_or(FabricError::UnknownContainer(id))?
            .set_owner(owner);
        Ok(())
    }

    /// Records that the Atoms of `used` were exercised at the current time
    /// (for LRU-style replacement decisions): touches the containers of
    /// [`Fabric::touch_set`].
    pub fn touch_atoms(&mut self, used: &Molecule) {
        let set: Vec<ContainerId> = self.touch_set(used).collect();
        self.touch_containers(&set);
    }

    /// The containers [`Fabric::touch_atoms`] updates for `used`: for each
    /// kind of `used`, the first `count` containers holding it loaded, in
    /// index order. It depends on container states only, so it stays valid
    /// until [`Fabric::loaded_revision`] moves.
    pub fn touch_set<'a>(&'a self, used: &'a Molecule) -> impl Iterator<Item = ContainerId> + 'a {
        used.iter_nonzero().flat_map(move |(kind, count)| {
            self.iter_containers()
                .filter(move |(_, c)| c.loaded_kind() == Some(kind))
                .map(|(id, _)| id)
                .take(count as usize)
        })
    }

    /// Marks the containers `ids` as used at the current time (LRU
    /// metadata only; no container changes state).
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range.
    pub fn touch_containers(&mut self, ids: &[ContainerId]) {
        let now = self.clock.now();
        for id in ids {
            self.containers[id.index()].touch(now);
        }
    }

    /// A counter that moves whenever any container changes state (a
    /// rotation starting, completing or failing, a quarantine, a transient
    /// fault), and at no other time. Equal revisions therefore mean an
    /// equal [`Fabric::loaded_molecule`] and equal [`Fabric::touch_set`]s,
    /// so callers may cache anything derived from the loaded Atoms under
    /// it. Touches, owner changes, no-op advances and cancelled queued
    /// rotations leave it alone.
    #[must_use]
    pub fn loaded_revision(&self) -> u64 {
        self.loaded_revision
    }

    /// The one place a container changes state; bumps
    /// [`Fabric::loaded_revision`].
    fn set_container_state(&mut self, id: ContainerId, state: ContainerState) {
        self.containers[id.index()].set_state(state);
        self.loaded_revision += 1;
    }

    /// The Meta-Molecule of all *usable* (fully loaded) Atoms.
    #[must_use]
    pub fn loaded_molecule(&self) -> Molecule {
        Molecule::from_pairs(
            self.atoms.len(),
            self.containers
                .iter()
                .filter_map(|c| c.loaded_kind().map(|k| (k, 1))),
        )
    }

    /// The Meta-Molecule that will be loaded once all queued and in-flight
    /// rotations complete (loaded Atoms not scheduled for overwrite, plus
    /// every rotation target).
    #[must_use]
    pub fn committed_molecule(&self) -> Molecule {
        let kept = self
            .iter_containers()
            .filter_map(|(id, c)| match c.state() {
                ContainerState::Loaded { kind } if !self.queue.iter().any(|&(q, _)| q == id) => {
                    Some(kind)
                }
                ContainerState::Loading { kind, .. } => Some(kind),
                _ => None,
            });
        let queued = self.queue.iter().map(|&(_, kind)| kind);
        Molecule::from_pairs(self.atoms.len(), kept.chain(queued).map(|kind| (kind, 1)))
    }

    /// Returns `true` when neither a rotation is in flight nor queued.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_none() && self.queue.is_empty()
    }

    /// Completion cycle of the in-flight rotation, if any
    /// (stall-adjusted).
    #[must_use]
    pub fn next_completion(&self) -> Option<u64> {
        self.in_flight.as_ref().map(|r| r.done_at)
    }

    /// Cycle by which *all* currently queued rotations will have
    /// completed, accounting for scheduled port stalls.
    #[must_use]
    pub fn all_rotations_done_at(&self) -> Option<u64> {
        let mut t = self.next_completion()?;
        for &(_, kind) in &self.queue {
            let duration = self.catalog.rotation_cycles(kind, &self.clock);
            t = self.stalled_finish(t, duration).0;
        }
        Some(t)
    }

    /// Computes when a transfer of `duration` cycles starting at `start`
    /// finishes under the plan's stall windows, and which stall
    /// intervals it crosses (`(begins_at, until)` pairs).
    fn stalled_finish(&self, start: u64, duration: u64) -> (u64, Vec<(u64, u64)>) {
        let mut t = start;
        let mut remaining = duration;
        let mut crossed = Vec::new();
        for w in &self.faults.stall_windows {
            if w.until <= t {
                continue;
            }
            let begin = w.from.max(t);
            if begin >= t + remaining {
                break;
            }
            remaining -= begin - t;
            crossed.push((begin, w.until));
            t = w.until;
        }
        (t + remaining, crossed)
    }

    /// Requests a rotation writing `kind` into container `id`.
    ///
    /// The request queues behind the single reconfiguration port. Until the
    /// write starts, the container's previous Atom (if any) stays usable.
    ///
    /// # Errors
    ///
    /// * [`FabricError::UnknownContainer`] / [`FabricError::UnknownKind`]
    ///   for out-of-range arguments;
    /// * [`FabricError::RotationPending`] when the container already has a
    ///   queued or in-flight rotation;
    /// * [`FabricError::ContainerQuarantined`] when the container is
    ///   permanently out of service.
    pub fn request_rotation(&mut self, id: ContainerId, kind: AtomKind) -> Result<(), FabricError> {
        if id.index() >= self.containers.len() {
            return Err(FabricError::UnknownContainer(id));
        }
        if kind.index() >= self.atoms.len() {
            return Err(FabricError::UnknownKind(kind));
        }
        if self.containers[id.index()].is_quarantined() {
            return Err(FabricError::ContainerQuarantined(id));
        }
        let pending = self.in_flight.as_ref().is_some_and(|r| r.container == id)
            || self.queue.iter().any(|&(c, _)| c == id);
        if pending {
            return Err(FabricError::RotationPending(id));
        }
        self.queue.push_back((id, kind));
        self.pump(self.clock.now());
        Ok(())
    }

    /// Requests a rotation and tags the container with its owning task in
    /// one operation — the command-application surface the run-time
    /// decision layer goes through, so a planned rotation and its
    /// ownership can never be applied half-way.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Fabric::request_rotation`]; on error the
    /// container's owner tag is left untouched.
    pub fn request_rotation_for(
        &mut self,
        id: ContainerId,
        kind: AtomKind,
        owner: Option<u32>,
    ) -> Result<(), FabricError> {
        self.request_rotation(id, kind)?;
        self.set_owner(id, owner)
    }

    /// Cancels a queued (not yet started) rotation. Returns `true` if a
    /// request was removed.
    pub fn cancel_pending(&mut self, id: ContainerId) -> bool {
        let before = self.queue.len();
        self.queue.retain(|&(c, _)| c != id);
        before != self.queue.len()
    }

    /// Cancels every queued (not yet started) rotation and returns how
    /// many were removed. The in-flight rotation, if any, continues — the
    /// SelectMap port cannot abort a partial bitstream write.
    pub fn cancel_all_pending(&mut self) -> usize {
        let n = self.queue.len();
        self.queue.clear();
        n
    }

    /// The queued (not yet started) rotations in FIFO order.
    #[must_use]
    pub fn pending_rotations(&self) -> Vec<(ContainerId, AtomKind)> {
        self.queue.iter().copied().collect()
    }

    /// Number of queued (not yet started) rotations, without
    /// materialising them — the hot-path check for "would
    /// cancel-and-reissue be a no-op?".
    #[must_use]
    pub fn pending_rotation_count(&self) -> usize {
        self.queue.len()
    }

    /// Advances fabric time to `t`, completing and starting rotations, and
    /// returns the events that occurred in `(now, t]` in order.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::TimeReversal`] when `t` is in the past.
    pub fn advance_to(&mut self, t: u64) -> Result<Vec<FabricEvent>, FabricError> {
        let now = self.clock.now();
        if t < now {
            return Err(FabricError::TimeReversal { now, requested: t });
        }
        self.pump(t);
        self.clock.advance_to(t);
        Ok(std::mem::take(&mut self.events))
    }

    /// Processes stalls, faults, completions and queue starts in
    /// chronological order with horizon `t`, so the emitted event stream
    /// stays time-ordered even when fault injection interleaves with the
    /// rotation pipeline.
    fn pump(&mut self, t: u64) {
        loop {
            // Port idle: the only way a request lingers here is that it
            // was just enqueued (request_rotation pumps immediately), so
            // it starts at the current time.
            if self.in_flight.is_none() {
                if let Some((id, kind)) = self.queue.pop_front() {
                    let at = self.clock.now();
                    self.start_rotation(id, kind, at);
                    continue;
                }
            }
            // The earliest due occurrence within the horizon. On equal
            // cycles: transient fault, then stall announcement, then
            // completion (a fault at the completion cycle still hits the
            // *old* world; the completion then overwrites it).
            const TRANSIENT: u8 = 0;
            const STALL: u8 = 1;
            const DONE: u8 = 2;
            let mut next: Option<(u64, u8)> = None;
            let mut consider = |at: u64, what: u8| {
                if at <= t && next.is_none_or(|(b, _)| at < b) {
                    next = Some((at, what));
                }
            };
            if let Some(&(at, _)) = self.pending_transients.front() {
                consider(at, TRANSIENT);
            }
            if let Some(r) = &self.in_flight {
                if let Some(&(begins_at, _)) = r.stalls.front() {
                    consider(begins_at, STALL);
                }
                consider(r.done_at, DONE);
            }
            match next {
                Some((_, TRANSIENT)) => self.inject_transient(),
                Some((_, STALL)) => self.announce_stall(),
                Some((_, DONE)) => self.finish_in_flight(),
                _ => break,
            }
        }
    }

    /// Injects the next pending transient fault: a loaded container loses
    /// its Atom (no effect on empty/loading/quarantined containers).
    fn inject_transient(&mut self) {
        let (at, id) = self
            .pending_transients
            .pop_front()
            .expect("caller checked a transient is due");
        if let ContainerState::Loaded { kind } = self.containers[id.index()].state() {
            self.set_container_state(id, ContainerState::Empty);
            self.events.push(FabricEvent::ContainerFaulted {
                container: id,
                kind,
                at,
            });
            self.sink.emit_with(at, || Event::ContainerEvicted {
                container: id.index() as u32,
                kind,
            });
        }
    }

    /// Announces the next stall of the in-flight rotation.
    fn announce_stall(&mut self) {
        let r = self
            .in_flight
            .as_mut()
            .expect("caller checked a stall is due");
        let (begins_at, until) = r.stalls.pop_front().expect("stall is due");
        self.events.push(FabricEvent::PortStalled {
            at: begins_at,
            until,
        });
        self.sink
            .emit_with(begins_at, || Event::PortStalled { until });
    }

    /// Completes (or fails) the in-flight rotation and starts the next
    /// queued one at the cycle the port frees.
    fn finish_in_flight(&mut self) {
        let r = self
            .in_flight
            .take()
            .expect("caller checked a completion is due");
        let (id, kind, at) = (r.container, r.kind, r.done_at);
        let bad = self.faults.bad_containers.contains(&id);
        let crc = self.faults.crc_failures.contains(&r.seq);
        if bad || crc {
            // The transfer consumed the port for its full duration, but
            // verification failed: no Atom materialises, no
            // ContainerLoaded is emitted (the previous Atom was already
            // evicted when the overwrite started, so occupancy pairing
            // is preserved).
            self.events.push(FabricEvent::RotationFailed {
                container: id,
                kind,
                at,
            });
            self.sink.emit_with(at, || Event::RotationFailed {
                container: id.index() as u32,
                kind,
            });
            if bad {
                self.set_container_state(id, ContainerState::Quarantined);
                self.events
                    .push(FabricEvent::ContainerQuarantined { container: id, at });
                self.sink.emit_with(at, || Event::ContainerQuarantined {
                    container: id.index() as u32,
                });
            } else {
                self.set_container_state(id, ContainerState::Empty);
            }
        } else {
            self.set_container_state(id, ContainerState::Loaded { kind });
            self.events.push(FabricEvent::RotationCompleted {
                container: id,
                kind,
                at,
            });
            self.sink.emit_with(at, || Event::RotationCompleted {
                container: id.index() as u32,
                kind,
            });
            // The Atom is usable from this cycle on: occupancy becomes
            // observable from the event stream alone.
            self.sink.emit_with(at, || Event::ContainerLoaded {
                container: id.index() as u32,
                kind,
            });
        }
        // The port frees at `at`; queued loads may start.
        if let Some((next_id, next_kind)) = self.queue.pop_front() {
            self.start_rotation(next_id, next_kind, at);
        }
    }

    fn start_rotation(&mut self, id: ContainerId, kind: AtomKind, at: u64) {
        // An overwrite destroys the previous Atom the moment the bitstream
        // write starts — announce the eviction before the rotation itself.
        if let ContainerState::Loaded { kind: old } = self.containers[id.index()].state() {
            self.sink.emit_with(at, || Event::ContainerEvicted {
                container: id.index() as u32,
                kind: old,
            });
        }
        let duration = self.catalog.rotation_cycles(kind, &self.clock);
        let (done_at, stalls) = self.stalled_finish(at, duration);
        self.set_container_state(id, ContainerState::Loading { kind, done_at });
        self.events.push(FabricEvent::RotationStarted {
            container: id,
            kind,
            at,
        });
        self.sink.emit_with(at, || Event::RotationStarted {
            container: id.index() as u32,
            kind,
        });
        self.in_flight = Some(InFlightRotation {
            container: id,
            kind,
            seq: self.rotation_seq,
            done_at,
            stalls: stalls.into(),
        });
        self.rotation_seq += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::table1_profiles;

    fn fabric(containers: usize) -> Fabric {
        let atoms = AtomSet::from_names(["Transform", "SATD", "Pack", "QuadSub"]);
        let catalog = AtomCatalog::new(table1_profiles().to_vec());
        Fabric::new(atoms, catalog, containers)
    }

    #[test]
    fn single_rotation_completes_after_rotation_time() {
        let mut f = fabric(2);
        f.request_rotation(ContainerId(0), AtomKind(0)).unwrap();
        let done = f.next_completion().unwrap();
        // Transform: 857.63 µs ≈ 85 763 cycles at 100 MHz.
        assert!((85_000..87_000).contains(&done));
        let events = f.advance_to(done).unwrap();
        assert_eq!(events.len(), 2); // started + completed
        assert_eq!(f.loaded_molecule(), Molecule::from_counts([1, 0, 0, 0]));
        assert!(f.is_idle());
    }

    #[test]
    fn rotations_serialize_through_one_port() {
        let mut f = fabric(2);
        f.request_rotation(ContainerId(0), AtomKind(0)).unwrap();
        f.request_rotation(ContainerId(1), AtomKind(1)).unwrap();
        let first_done = f.next_completion().unwrap();
        let events = f.advance_to(first_done).unwrap();
        // Second rotation starts exactly when the first completes.
        assert!(events.iter().any(|e| matches!(
            e,
            FabricEvent::RotationStarted { container: ContainerId(1), at, .. } if *at == first_done
        )));
        assert_eq!(f.loaded_molecule().determinant(), 1);
        let all_done = f.next_completion().unwrap();
        f.advance_to(all_done).unwrap();
        assert_eq!(f.loaded_molecule().determinant(), 2);
    }

    #[test]
    fn old_atom_usable_until_overwrite_starts() {
        let mut f = fabric(1);
        f.request_rotation(ContainerId(0), AtomKind(0)).unwrap();
        f.advance_to(f.next_completion().unwrap()).unwrap();
        assert_eq!(f.loaded_molecule().count(AtomKind(0)), 1);
        // Overwrite with a different kind: usable old atom disappears as
        // soon as the rotation starts (the port is free, so immediately).
        f.request_rotation(ContainerId(0), AtomKind(2)).unwrap();
        assert_eq!(f.loaded_molecule().determinant(), 0);
        f.advance_to(f.next_completion().unwrap()).unwrap();
        assert_eq!(f.loaded_molecule().count(AtomKind(2)), 1);
    }

    #[test]
    fn queued_overwrite_keeps_old_atom_until_start() {
        let mut f = fabric(2);
        f.request_rotation(ContainerId(0), AtomKind(0)).unwrap();
        f.advance_to(f.next_completion().unwrap()).unwrap();
        // Start a long rotation on AC1, then queue an overwrite of AC0.
        f.request_rotation(ContainerId(1), AtomKind(2)).unwrap();
        f.request_rotation(ContainerId(0), AtomKind(3)).unwrap();
        // AC0's Transform is still usable while the port works on AC1.
        assert_eq!(f.loaded_molecule().count(AtomKind(0)), 1);
        let t1 = f.next_completion().unwrap();
        f.advance_to(t1).unwrap();
        // Now the overwrite of AC0 started: Transform gone, Pack loaded.
        assert_eq!(f.loaded_molecule().count(AtomKind(0)), 0);
        assert_eq!(f.loaded_molecule().count(AtomKind(2)), 1);
    }

    #[test]
    fn committed_molecule_includes_queue() {
        let mut f = fabric(3);
        f.request_rotation(ContainerId(0), AtomKind(0)).unwrap();
        f.request_rotation(ContainerId(1), AtomKind(1)).unwrap();
        f.request_rotation(ContainerId(2), AtomKind(1)).unwrap();
        assert_eq!(f.committed_molecule(), Molecule::from_counts([1, 2, 0, 0]));
        assert_eq!(f.loaded_molecule().determinant(), 0);
    }

    #[test]
    fn duplicate_request_rejected() {
        let mut f = fabric(2);
        f.request_rotation(ContainerId(0), AtomKind(0)).unwrap();
        assert_eq!(
            f.request_rotation(ContainerId(0), AtomKind(1)),
            Err(FabricError::RotationPending(ContainerId(0)))
        );
    }

    #[test]
    fn out_of_range_arguments_rejected() {
        let mut f = fabric(1);
        assert!(matches!(
            f.request_rotation(ContainerId(5), AtomKind(0)),
            Err(FabricError::UnknownContainer(_))
        ));
        assert!(matches!(
            f.request_rotation(ContainerId(0), AtomKind(9)),
            Err(FabricError::UnknownKind(_))
        ));
    }

    #[test]
    fn time_reversal_rejected() {
        let mut f = fabric(1);
        f.advance_to(100).unwrap();
        assert!(matches!(
            f.advance_to(50),
            Err(FabricError::TimeReversal { .. })
        ));
    }

    #[test]
    fn cancel_pending_removes_queued_only() {
        let mut f = fabric(2);
        f.request_rotation(ContainerId(0), AtomKind(0)).unwrap();
        f.request_rotation(ContainerId(1), AtomKind(1)).unwrap();
        assert!(f.cancel_pending(ContainerId(1)));
        assert!(!f.cancel_pending(ContainerId(0))); // already in flight
        f.advance_to(f.next_completion().unwrap()).unwrap();
        assert!(f.is_idle());
        assert_eq!(f.loaded_molecule().determinant(), 1);
    }

    #[test]
    fn all_rotations_done_at_accumulates_queue() {
        let mut f = fabric(3);
        f.request_rotation(ContainerId(0), AtomKind(0)).unwrap();
        f.request_rotation(ContainerId(1), AtomKind(0)).unwrap();
        let single = f.next_completion().unwrap();
        let all = f.all_rotations_done_at().unwrap();
        assert_eq!(all, 2 * single);
    }

    #[test]
    fn touch_atoms_updates_lru_metadata() {
        let mut f = fabric(2);
        f.request_rotation(ContainerId(0), AtomKind(0)).unwrap();
        f.request_rotation(ContainerId(1), AtomKind(1)).unwrap();
        let t = f.all_rotations_done_at().unwrap();
        f.advance_to(t + 10).unwrap();
        f.touch_atoms(&Molecule::from_counts([1, 0, 0, 0]));
        assert_eq!(f.container(ContainerId(0)).last_used(), t + 10);
        assert_eq!(f.container(ContainerId(1)).last_used(), 0);
    }

    #[test]
    fn touch_set_takes_the_first_loaded_containers_in_index_order() {
        let mut f = fabric(4);
        for (c, k) in [(0, 1), (1, 0), (2, 1), (3, 1)] {
            f.request_rotation(ContainerId(c), AtomKind(k)).unwrap();
        }
        f.advance_to(f.all_rotations_done_at().unwrap()).unwrap();
        let set =
            |m: [u32; 4]| -> Vec<ContainerId> { f.touch_set(&Molecule::from_counts(m)).collect() };
        assert_eq!(
            set([1, 2, 0, 0]),
            vec![ContainerId(1), ContainerId(0), ContainerId(2)]
        );
        assert!(set([0, 0, 0, 0]).is_empty());
    }

    #[test]
    fn revision_moves_on_state_changes_only() {
        let mut f = fabric(2);
        assert_eq!(f.loaded_revision(), 0);
        f.request_rotation(ContainerId(0), AtomKind(0)).unwrap();
        let started = f.loaded_revision();
        assert!(started > 0, "a rotation start empties the container");

        // Queue a second rotation behind the port and cancel it: nothing
        // ever reached a container.
        f.request_rotation(ContainerId(1), AtomKind(1)).unwrap();
        assert_eq!(f.loaded_revision(), started);
        assert!(f.cancel_pending(ContainerId(1)));
        assert_eq!(f.loaded_revision(), started);
        f.request_rotation(ContainerId(1), AtomKind(1)).unwrap();
        assert_eq!(f.cancel_all_pending(), 1);
        assert_eq!(f.loaded_revision(), started);

        let done = f.next_completion().unwrap();
        f.advance_to(done).unwrap();
        let loaded = f.loaded_revision();
        assert!(loaded > started, "a completion loads the Atom");

        // A no-op advance, a touch and an owner change leave it alone.
        f.advance_to(done).unwrap();
        assert_eq!(f.loaded_revision(), loaded);
        f.advance_to(done + 1_000).unwrap();
        assert_eq!(f.loaded_revision(), loaded);
        f.touch_atoms(&Molecule::from_counts([1, 0, 0, 0]));
        assert_eq!(f.container(ContainerId(0)).last_used(), done + 1_000);
        assert_eq!(f.loaded_revision(), loaded);
        f.set_owner(ContainerId(0), Some(3)).unwrap();
        assert_eq!(f.loaded_revision(), loaded);
    }

    #[test]
    fn owner_reallocation() {
        let mut f = fabric(1);
        f.set_owner(ContainerId(0), Some(7)).unwrap();
        assert_eq!(f.container(ContainerId(0)).owner(), Some(7));
        assert!(f.set_owner(ContainerId(3), None).is_err());
    }

    #[test]
    fn sink_receives_rotation_events_at_source() {
        use rispp_obs::TimelineSink;
        use std::cell::RefCell;
        use std::rc::Rc;

        let timeline = Rc::new(RefCell::new(TimelineSink::new()));
        let mut f = fabric(2);
        f.set_sink(SinkHandle::shared(timeline.clone()));
        assert!(f.sink().is_enabled());

        f.request_rotation(ContainerId(0), AtomKind(0)).unwrap();
        f.request_rotation(ContainerId(1), AtomKind(1)).unwrap();
        let first_done = f.next_completion().unwrap();
        let all_done = f.all_rotations_done_at().unwrap();
        f.advance_to(all_done).unwrap();

        let tl = timeline.borrow();
        let records = tl.timeline().entries();
        // start(0) @0, done(0)+load(0) @first_done, start(1) @first_done,
        // done(1)+load(1) @all_done. Fresh containers: no evictions.
        assert_eq!(records.len(), 6);
        assert_eq!(
            records[0].event,
            Event::RotationStarted {
                container: 0,
                kind: AtomKind(0)
            }
        );
        assert_eq!(records[1].at, first_done);
        assert_eq!(
            records[2].event,
            Event::ContainerLoaded {
                container: 0,
                kind: AtomKind(0)
            }
        );
        assert_eq!(
            records[3].event,
            Event::RotationStarted {
                container: 1,
                kind: AtomKind(1)
            }
        );
        assert_eq!(records[3].at, first_done);
        assert_eq!(
            records[4].event,
            Event::RotationCompleted {
                container: 1,
                kind: AtomKind(1)
            }
        );
        assert_eq!(records[4].at, all_done);
        assert_eq!(
            records[5].event,
            Event::ContainerLoaded {
                container: 1,
                kind: AtomKind(1)
            }
        );
    }

    #[test]
    fn crc_failure_leaves_container_empty_and_frees_port() {
        use crate::fault::FaultPlan;
        let mut f = fabric(2).with_faults(FaultPlan {
            crc_failures: vec![0],
            ..FaultPlan::default()
        });
        f.request_rotation(ContainerId(0), AtomKind(0)).unwrap();
        f.request_rotation(ContainerId(1), AtomKind(1)).unwrap();
        let first_done = f.next_completion().unwrap();
        let events = f.advance_to(first_done).unwrap();
        // Rotation 0 fails; the port frees on time and rotation 1 starts.
        assert!(events.iter().any(|e| matches!(
            e,
            FabricEvent::RotationFailed { container: ContainerId(0), at, .. } if *at == first_done
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            FabricEvent::RotationStarted { container: ContainerId(1), at, .. } if *at == first_done
        )));
        assert_eq!(f.container(ContainerId(0)).state(), ContainerState::Empty);
        // The retry is a fresh sequence number and succeeds.
        f.request_rotation(ContainerId(0), AtomKind(0)).unwrap();
        f.advance_to(f.all_rotations_done_at().unwrap()).unwrap();
        assert_eq!(f.loaded_molecule(), Molecule::from_counts([1, 1, 0, 0]));
    }

    #[test]
    fn bad_container_is_quarantined_and_rejects_retries() {
        use crate::fault::FaultPlan;
        let mut f = fabric(2).with_faults(FaultPlan {
            bad_containers: vec![ContainerId(0)],
            ..FaultPlan::default()
        });
        f.request_rotation(ContainerId(0), AtomKind(0)).unwrap();
        let done = f.next_completion().unwrap();
        let events = f.advance_to(done).unwrap();
        assert!(events
            .iter()
            .any(|e| matches!(e, FabricEvent::RotationFailed { .. })));
        assert!(events.iter().any(|e| matches!(
            e,
            FabricEvent::ContainerQuarantined {
                container: ContainerId(0),
                ..
            }
        )));
        assert!(f.container(ContainerId(0)).is_quarantined());
        assert_eq!(f.usable_containers(), 1);
        assert_eq!(
            f.request_rotation(ContainerId(0), AtomKind(0)),
            Err(FabricError::ContainerQuarantined(ContainerId(0)))
        );
        // The healthy container still works.
        f.request_rotation(ContainerId(1), AtomKind(1)).unwrap();
        f.advance_to(f.next_completion().unwrap()).unwrap();
        assert_eq!(f.loaded_molecule().count(AtomKind(1)), 1);
    }

    #[test]
    fn stall_window_delays_completion_and_is_announced() {
        use crate::fault::{FaultPlan, StallWindow};
        let mut clean = fabric(1);
        clean.request_rotation(ContainerId(0), AtomKind(0)).unwrap();
        let nominal = clean.next_completion().unwrap();

        let mut f = fabric(1).with_faults(FaultPlan {
            stall_windows: vec![StallWindow {
                from: 1_000,
                until: 6_000,
            }],
            ..FaultPlan::default()
        });
        f.request_rotation(ContainerId(0), AtomKind(0)).unwrap();
        let done = f.next_completion().unwrap();
        assert_eq!(done, nominal + 5_000);
        let events = f.advance_to(done).unwrap();
        assert!(events.iter().any(|e| matches!(
            e,
            FabricEvent::PortStalled {
                at: 1_000,
                until: 6_000
            }
        )));
        assert_eq!(f.loaded_molecule().count(AtomKind(0)), 1);
        // Events stay chronologically ordered.
        let times: Vec<u64> = events.iter().map(FabricEvent::at).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn stall_before_start_does_not_delay() {
        use crate::fault::{FaultPlan, StallWindow};
        let mut f = fabric(1).with_faults(FaultPlan {
            stall_windows: vec![StallWindow { from: 0, until: 50 }],
            ..FaultPlan::default()
        });
        f.advance_to(100).unwrap();
        f.request_rotation(ContainerId(0), AtomKind(0)).unwrap();
        let events = f.advance_to(f.next_completion().unwrap()).unwrap();
        assert!(!events
            .iter()
            .any(|e| matches!(e, FabricEvent::PortStalled { .. })));
    }

    #[test]
    fn all_rotations_done_at_accounts_for_stalls() {
        use crate::fault::{FaultPlan, StallWindow};
        let mut f = fabric(2).with_faults(FaultPlan {
            stall_windows: vec![StallWindow {
                from: 100_000,
                until: 120_000,
            }],
            ..FaultPlan::default()
        });
        // Two ~85k-cycle rotations: the second crosses the stall window.
        f.request_rotation(ContainerId(0), AtomKind(0)).unwrap();
        f.request_rotation(ContainerId(1), AtomKind(0)).unwrap();
        let predicted = f.all_rotations_done_at().unwrap();
        let events = f.advance_to(predicted).unwrap();
        let last_done = events
            .iter()
            .filter_map(|e| match e {
                FabricEvent::RotationCompleted { at, .. } => Some(*at),
                _ => None,
            })
            .max()
            .unwrap();
        assert_eq!(last_done, predicted);
        assert!(predicted > 2 * 85_000 + 19_000);
    }

    #[test]
    fn transient_fault_evicts_loaded_atom_only() {
        use crate::fault::FaultPlan;
        let mut f = fabric(2).with_faults(FaultPlan {
            // One upset while AC0 is still loading (no effect), one after
            // it loaded (evicts), one on the never-used AC1 (no effect).
            transient_faults: vec![
                (10, ContainerId(0)),
                (200_000, ContainerId(0)),
                (200_001, ContainerId(1)),
            ],
            ..FaultPlan::default()
        });
        f.request_rotation(ContainerId(0), AtomKind(0)).unwrap();
        f.advance_to(f.next_completion().unwrap()).unwrap();
        assert_eq!(f.loaded_molecule().count(AtomKind(0)), 1);
        let events = f.advance_to(300_000).unwrap();
        assert_eq!(
            events,
            vec![FabricEvent::ContainerFaulted {
                container: ContainerId(0),
                kind: AtomKind(0),
                at: 200_000,
            }]
        );
        assert_eq!(f.loaded_molecule().determinant(), 0);
        assert_eq!(f.container(ContainerId(0)).state(), ContainerState::Empty);
        // The container is serviceable again.
        f.request_rotation(ContainerId(0), AtomKind(0)).unwrap();
        f.advance_to(f.next_completion().unwrap()).unwrap();
        assert_eq!(f.loaded_molecule().count(AtomKind(0)), 1);
    }

    #[test]
    fn faulty_run_keeps_occupancy_events_paired() {
        use crate::fault::{FaultPlan, StallWindow};
        use rispp_obs::TimelineSink;
        use std::cell::RefCell;
        use std::rc::Rc;

        let timeline = Rc::new(RefCell::new(TimelineSink::new()));
        let mut f = fabric(2).with_faults(FaultPlan {
            crc_failures: vec![1],
            stall_windows: vec![StallWindow {
                from: 40_000,
                until: 45_000,
            }],
            transient_faults: vec![(400_000, ContainerId(0))],
            bad_containers: vec![ContainerId(1)],
        });
        f.set_sink(SinkHandle::shared(timeline.clone()));

        f.request_rotation(ContainerId(0), AtomKind(0)).unwrap();
        f.request_rotation(ContainerId(1), AtomKind(1)).unwrap();
        f.advance_to(500_000).unwrap();
        f.request_rotation(ContainerId(0), AtomKind(2)).unwrap();
        f.advance_to(700_000).unwrap();

        // Per container: Loaded and Evicted strictly alternate, starting
        // with Loaded.
        let tl = timeline.borrow();
        for container in 0..2u32 {
            let mut loaded = false;
            for r in tl.timeline().entries() {
                match r.event {
                    Event::ContainerLoaded { container: c, .. } if c == container => {
                        assert!(!loaded, "AC{container} loaded twice");
                        loaded = true;
                    }
                    Event::ContainerEvicted { container: c, .. } if c == container => {
                        assert!(loaded, "AC{container} evicted while empty");
                        loaded = false;
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn cancelled_queued_overwrites_leave_occupancy_untouched() {
        use rispp_obs::TimelineSink;
        use std::cell::RefCell;
        use std::rc::Rc;

        // A queued (not yet started) overwrite has emitted nothing: the
        // eviction only fires when the bitstream write begins. Cancelling
        // it must therefore leave the occupancy stream strictly paired
        // and the loaded Atom in place.
        let timeline = Rc::new(RefCell::new(TimelineSink::new()));
        let mut f = fabric(3);
        f.set_sink(SinkHandle::shared(timeline.clone()));

        // Load AC0, then occupy the port with a long rotation on AC1 and
        // queue an overwrite of AC0 behind it.
        f.request_rotation(ContainerId(0), AtomKind(0)).unwrap();
        f.advance_to(f.next_completion().unwrap()).unwrap();
        f.request_rotation(ContainerId(1), AtomKind(1)).unwrap();
        f.request_rotation(ContainerId(0), AtomKind(2)).unwrap();
        assert_eq!(f.pending_rotations(), vec![(ContainerId(0), AtomKind(2))]);

        assert!(f.cancel_pending(ContainerId(0)));
        f.advance_to(f.all_rotations_done_at().unwrap()).unwrap();

        // AC0 kept its Atom; no eviction was ever emitted for it.
        assert_eq!(f.container(ContainerId(0)).loaded_kind(), Some(AtomKind(0)));
        let tl = timeline.borrow();
        assert!(!tl
            .timeline()
            .entries()
            .iter()
            .any(|r| matches!(r.event, Event::ContainerEvicted { container: 0, .. })));
        drop(tl);

        // Same through cancel_all_pending: queue another overwrite of AC0
        // behind a fresh in-flight rotation, clear the whole queue.
        f.request_rotation(ContainerId(2), AtomKind(3)).unwrap();
        f.request_rotation(ContainerId(0), AtomKind(1)).unwrap();
        assert_eq!(f.cancel_all_pending(), 1);
        f.advance_to(f.all_rotations_done_at().unwrap()).unwrap();
        assert_eq!(f.container(ContainerId(0)).loaded_kind(), Some(AtomKind(0)));

        // The full stream still alternates Loaded/Evicted per container.
        let tl = timeline.borrow();
        for container in 0..3u32 {
            let mut loaded = false;
            for r in tl.timeline().entries() {
                match r.event {
                    Event::ContainerLoaded { container: c, .. } if c == container => {
                        assert!(!loaded, "AC{container} loaded twice");
                        loaded = true;
                    }
                    Event::ContainerEvicted { container: c, .. } if c == container => {
                        assert!(loaded, "AC{container} evicted while empty");
                        loaded = false;
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn overwrite_emits_eviction_before_rotation_start() {
        use rispp_obs::TimelineSink;
        use std::cell::RefCell;
        use std::rc::Rc;

        let timeline = Rc::new(RefCell::new(TimelineSink::new()));
        let mut f = fabric(1);
        f.set_sink(SinkHandle::shared(timeline.clone()));

        f.request_rotation(ContainerId(0), AtomKind(0)).unwrap();
        f.advance_to(f.next_completion().unwrap()).unwrap();
        let overwrite_at = f.now();
        f.request_rotation(ContainerId(0), AtomKind(2)).unwrap();

        let tl = timeline.borrow();
        let records = tl.timeline().entries();
        // start(0), done(0), load(0), evict(0), start(0 again).
        assert_eq!(records.len(), 5);
        assert_eq!(
            records[3].event,
            Event::ContainerEvicted {
                container: 0,
                kind: AtomKind(0)
            }
        );
        assert_eq!(records[3].at, overwrite_at);
        assert_eq!(
            records[4].event,
            Event::RotationStarted {
                container: 0,
                kind: AtomKind(2)
            }
        );
    }
}

//! The [`EventSink`] trait and the cheap [`SinkHandle`] threaded through
//! the fabric, the run-time manager and the engine.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::event::Event;

/// A consumer of run-time events.
///
/// Implementations receive every event with its simulated-cycle timestamp.
/// Events arrive in non-decreasing time order per producer.
pub trait EventSink {
    /// Consumes one event.
    fn emit(&mut self, at: u64, event: &Event);

    /// Consumes a run of `n` copies of `event`, the first at `first_at`
    /// and each next `stride` cycles later: the same as `n` calls to
    /// [`EventSink::emit`], which is what the default does. Sinks that
    /// fold a run faster override it; the result must not differ.
    fn emit_run(&mut self, first_at: u64, stride: u64, n: u64, event: &Event) {
        for i in 0..n {
            self.emit(first_at + i * stride, event);
        }
    }
}

/// The always-disabled sink.
///
/// Exists for `dyn EventSink` contexts that need an explicit no-op; when
/// you control the handle, prefer [`SinkHandle::null`], which skips event
/// construction entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&mut self, _at: u64, _event: &Event) {}
}

/// A shareable, optionally-disabled handle to a flat list of
/// [`EventSink`]s.
///
/// Producers (fabric, manager, engine) hold a `SinkHandle` and call
/// [`SinkHandle::emit_with`] at each event site. A disabled handle
/// (`SinkHandle::null`, an empty list) reduces the call to one emptiness
/// check and never runs the event-construction closure, so instrumented
/// code stays effectively free when observability is off. An enabled
/// handle costs one borrow and one dynamic call per sink.
///
/// Cloning shares the underlying sinks (they are reference-counted): the
/// fabric and the manager can report into the same `CountersSink`.
#[derive(Clone, Default)]
pub struct SinkHandle {
    sinks: Vec<Rc<RefCell<dyn EventSink>>>,
}

impl SinkHandle {
    /// The disabled handle: every emit is a no-op branch.
    #[must_use]
    pub fn null() -> Self {
        SinkHandle { sinks: Vec::new() }
    }

    /// Wraps an owned sink.
    #[must_use]
    pub fn new<S: EventSink + 'static>(sink: S) -> Self {
        SinkHandle::shared(Rc::new(RefCell::new(sink)))
    }

    /// Wraps an already-shared sink, so the caller can keep reading it
    /// (e.g. a `Rc<RefCell<TimelineSink>>` the engine later queries).
    #[must_use]
    pub fn shared<S: EventSink + 'static>(sink: Rc<RefCell<S>>) -> Self {
        SinkHandle { sinks: vec![sink] }
    }

    /// Concatenates the sink lists of two handles: every sink of `a`,
    /// then every sink of `b`, receives each event, in that order. Teeing
    /// with a null handle returns the other handle unchanged, and nested
    /// tees stay one flat list.
    #[must_use]
    pub fn tee(mut a: SinkHandle, b: SinkHandle) -> SinkHandle {
        a.sinks.extend(b.sinks);
        a
    }

    /// Whether events will actually be consumed.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        !self.sinks.is_empty()
    }

    /// Emits one event to every sink, in list order.
    #[inline]
    pub fn emit(&self, at: u64, event: &Event) {
        for sink in &self.sinks {
            sink.borrow_mut().emit(at, event);
        }
    }

    /// Emits the event produced by `f`, constructing it only when the
    /// handle is enabled. Use this at every producer site whose event
    /// carries owned data (Molecule clones).
    #[inline]
    pub fn emit_with(&self, at: u64, f: impl FnOnce() -> Event) {
        if !self.sinks.is_empty() {
            self.emit(at, &f());
        }
    }

    /// Emits a run of `n` copies of the event produced by `f`, the first
    /// at `first_at` and each next `stride` cycles later, constructing
    /// the event once and only when the handle is enabled and `n > 0`.
    ///
    /// Each sink receives the whole run through
    /// [`EventSink::emit_run`], in list order. So every sink sees what
    /// `n` calls to [`SinkHandle::emit_with`] would show it; the only
    /// difference is the interleaving across sinks, which sinks that do
    /// not share state cannot observe. A run of one is an
    /// [`SinkHandle::emit_with`].
    #[inline]
    pub fn emit_run_with(&self, first_at: u64, stride: u64, n: u64, f: impl FnOnce() -> Event) {
        if n == 1 {
            return self.emit_with(first_at, f);
        }
        if !self.sinks.is_empty() && n > 0 {
            let event = f();
            for sink in &self.sinks {
                sink.borrow_mut().emit_run(first_at, stride, n, &event);
            }
        }
    }
}

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SinkHandle")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counting(u64);

    impl EventSink for Counting {
        fn emit(&mut self, _at: u64, _event: &Event) {
            self.0 += 1;
        }
    }

    fn ev() -> Event {
        Event::ForecastRetracted {
            task: 0,
            si: rispp_core::si::SiId(0),
        }
    }

    #[test]
    fn null_handle_never_constructs_events() {
        let handle = SinkHandle::null();
        assert!(!handle.is_enabled());
        handle.emit_with(0, || unreachable!("constructed despite null sink"));
    }

    #[test]
    fn shared_sink_receives_from_clones() {
        let sink = Rc::new(RefCell::new(Counting::default()));
        let a = SinkHandle::shared(sink.clone());
        let b = a.clone();
        a.emit(1, &ev());
        b.emit_with(2, ev);
        assert_eq!(sink.borrow().0, 2);
    }

    #[test]
    fn tee_reaches_both_and_collapses_null() {
        let left = Rc::new(RefCell::new(Counting::default()));
        let right = Rc::new(RefCell::new(Counting::default()));
        let tee = SinkHandle::tee(
            SinkHandle::shared(left.clone()),
            SinkHandle::shared(right.clone()),
        );
        tee.emit(0, &ev());
        assert_eq!((left.borrow().0, right.borrow().0), (1, 1));

        let solo = SinkHandle::tee(SinkHandle::shared(left.clone()), SinkHandle::null());
        solo.emit(1, &ev());
        assert_eq!(left.borrow().0, 2);
        assert!(!SinkHandle::tee(SinkHandle::null(), SinkHandle::null()).is_enabled());

        // Nested tees on either side flatten: each sink receives every
        // event exactly once, in tee order.
        let order = Rc::new(RefCell::new(Vec::new()));
        let tagged = |tag: u8| {
            SinkHandle::shared(Rc::new(RefCell::new(Tagged {
                tag,
                log: order.clone(),
            })))
        };
        let nested = SinkHandle::tee(
            SinkHandle::tee(tagged(0), SinkHandle::tee(tagged(1), SinkHandle::null())),
            SinkHandle::tee(SinkHandle::tee(tagged(2), tagged(3)), tagged(4)),
        );
        nested.emit(2, &ev());
        nested.emit_with(3, ev);
        assert_eq!(*order.borrow(), [0, 1, 2, 3, 4, 0, 1, 2, 3, 4]);
    }

    #[test]
    fn a_run_reaches_each_sink_whole_in_list_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let tagged = |tag: u8| {
            SinkHandle::shared(Rc::new(RefCell::new(Tagged {
                tag,
                log: order.clone(),
            })))
        };
        let handle = SinkHandle::tee(tagged(0), tagged(1));
        handle.emit_run_with(10, 5, 3, ev);
        assert_eq!(*order.borrow(), [0, 0, 0, 1, 1, 1]);
        // A run of one is one event per sink; an empty run is none.
        handle.emit_run_with(30, 5, 1, ev);
        handle.emit_run_with(40, 5, 0, || unreachable!("built for an empty run"));
        assert_eq!(*order.borrow(), [0, 0, 0, 1, 1, 1, 0, 1]);
    }

    /// Appends its tag to a shared log on every event.
    struct Tagged {
        tag: u8,
        log: Rc<RefCell<Vec<u8>>>,
    }

    impl EventSink for Tagged {
        fn emit(&mut self, _at: u64, _event: &Event) {
            self.log.borrow_mut().push(self.tag);
        }
    }
}

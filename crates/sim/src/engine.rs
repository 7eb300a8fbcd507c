//! The discrete-event simulation engine.
//!
//! [`Engine`] owns the clock and the pending-event queue and drives a
//! user-supplied [`Handler`]. The handler receives each event together with
//! a [`Scheduler`] through which it can enqueue further events — the classic
//! DES pattern. The engine guarantees:
//!
//! * the clock never moves backwards (scheduling in the past panics in debug
//!   builds and clamps to "now" in release builds);
//! * events at equal times fire in scheduling order (see
//!   [`crate::events::EventQueue`]), with a run's pre-sorted event stream
//!   placed between the pre-run events and the run-time ones (see
//!   [`Engine::run`]);
//! * the run stops at the configured horizon, after a configured event
//!   budget, or when the handler requests an early stop — whichever comes
//!   first.
//!
//! The epidemic simulation in `dtn-epidemic` drives one `Engine` per
//! replication; replications are independent and are fanned out across
//! threads by [`crate::parallel`].

use crate::events::EventQueue;
use crate::time::SimTime;

/// Outcome of handling one event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Flow {
    /// Keep processing events.
    #[default]
    Continue,
    /// Stop the run after this event (e.g. "destination has every bundle").
    Stop,
}

/// Why an [`Engine::run`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained.
    Exhausted,
    /// The next event lay beyond the horizon.
    Horizon,
    /// The handler returned [`Flow::Stop`].
    Handler,
    /// The event budget was consumed (runaway-model guard).
    Budget,
}

/// Scheduling interface handed to the handler while an event is being
/// processed.
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Scheduler<'a, E> {
    /// The current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past is a
    /// model bug: debug builds panic, release builds clamp to `now` so the
    /// event still fires (dropping it would silently change the model).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: {at} < {}",
            self.now
        );
        let at = at.max(self.now);
        self.queue.schedule(at, event);
    }

    /// Schedule `event` `delay` after the current time.
    pub fn schedule_in(&mut self, delay: crate::time::SimDuration, event: E) {
        self.queue.schedule(self.now + delay, event);
    }
}

/// An event consumer. Implemented by the protocol simulation; also
/// implemented for plain closures `FnMut(SimTime, E, &mut Scheduler<E>) -> Flow`.
pub trait Handler<E> {
    /// Process one event fired at `time`; schedule follow-ups through `sched`.
    fn handle(&mut self, time: SimTime, event: E, sched: &mut Scheduler<'_, E>) -> Flow;
}

impl<E, F> Handler<E> for F
where
    F: FnMut(SimTime, E, &mut Scheduler<'_, E>) -> Flow,
{
    fn handle(&mut self, time: SimTime, event: E, sched: &mut Scheduler<'_, E>) -> Flow {
        self(time, event, sched)
    }
}

/// A single-replication discrete-event engine.
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    horizon: SimTime,
    /// Hard cap on processed events; guards against accidentally divergent
    /// models (e.g. a protocol that reschedules itself at `now` forever).
    event_budget: u64,
    events_processed: u64,
}

impl<E> Engine<E> {
    /// Engine that runs until `horizon` (inclusive: an event exactly at the
    /// horizon still fires).
    pub fn new(horizon: SimTime) -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            horizon,
            event_budget: u64::MAX,
            events_processed: 0,
        }
    }

    /// Pre-reserve queue capacity (e.g. the number of pre-run events).
    pub fn with_capacity(horizon: SimTime, capacity: usize) -> Self {
        Engine {
            queue: EventQueue::with_capacity(capacity),
            ..Engine::new(horizon)
        }
    }

    /// Replace the default (unlimited) event budget.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// The current simulation time (the timestamp of the last fired event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The configured horizon.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of still-pending scheduled events (a run's stream is not
    /// counted).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule an initial event before the run starts (or between partial
    /// runs).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "initial event in the past");
        self.queue.schedule(at.max(self.now), event);
    }

    /// Drive the simulation to completion, dispatching every event to
    /// `handler`.
    ///
    /// `stream` supplies a pre-sorted (non-decreasing time) sequence of
    /// events that never enters the queue; pass `std::iter::empty()` when
    /// there is none. The epidemic simulator streams its contact trace
    /// this way instead of copying it into the queue. Equal-time ties fire
    /// as if the stream had been scheduled between the pre-run events and
    /// the first run-time one: events scheduled before the run (the
    /// queue's sealed batch) come first, then the stream in its own order,
    /// then events scheduled while the run is going.
    pub fn run<S, H>(&mut self, stream: S, handler: &mut H) -> StopReason
    where
        S: IntoIterator<Item = (SimTime, E)>,
        H: Handler<E>,
    {
        let mut stream = stream.into_iter().peekable();
        loop {
            let (next, from_stream) = match (stream.peek(), self.queue.peek_tier()) {
                (None, None) => return StopReason::Exhausted,
                (Some(&(ts, _)), None) => (ts, true),
                (None, Some((tq, _))) => (tq, false),
                (Some(&(ts, _)), Some((tq, pre_run))) => {
                    if ts < tq || (ts == tq && !pre_run) {
                        (ts, true)
                    } else {
                        (tq, false)
                    }
                }
            };
            if next > self.horizon {
                return StopReason::Horizon;
            }
            if self.events_processed >= self.event_budget {
                return StopReason::Budget;
            }
            let (time, event) = if from_stream {
                stream.next()
            } else {
                self.queue.pop()
            }
            .expect("peeked non-empty");
            debug_assert!(time >= self.now, "event stream went backwards");
            self.now = time;
            self.events_processed += 1;
            let mut sched = Scheduler {
                now: self.now,
                queue: &mut self.queue,
            };
            if handler.handle(time, event, &mut sched) == Flow::Stop {
                return StopReason::Handler;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn runs_events_in_order_and_tracks_clock() {
        let mut engine = Engine::new(t(100));
        engine.schedule(t(10), 1u32);
        engine.schedule(t(5), 0u32);
        let mut order = Vec::new();
        let reason = engine.run(
            std::iter::empty(),
            &mut |time: SimTime, e: u32, _: &mut Scheduler<'_, u32>| {
                order.push((time, e));
                Flow::Continue
            },
        );
        assert_eq!(reason, StopReason::Exhausted);
        assert_eq!(order, vec![(t(5), 0), (t(10), 1)]);
        assert_eq!(engine.now(), t(10));
        assert_eq!(engine.events_processed(), 2);
    }

    #[test]
    fn handler_can_schedule_followups() {
        let mut engine = Engine::new(t(1_000));
        engine.schedule(t(0), 0u32);
        let mut fired = Vec::new();
        engine.run(
            std::iter::empty(),
            &mut |_t: SimTime, e: u32, sched: &mut Scheduler<'_, u32>| {
                fired.push(e);
                if e < 5 {
                    sched.schedule_in(SimDuration::from_secs(10), e + 1);
                }
                Flow::Continue
            },
        );
        assert_eq!(fired, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(engine.now(), t(50));
    }

    #[test]
    fn horizon_cuts_off_late_events() {
        let mut engine = Engine::new(t(20));
        engine.schedule(t(10), 1u8);
        engine.schedule(t(20), 2u8);
        engine.schedule(t(21), 3u8);
        let mut fired = Vec::new();
        let reason = engine.run(
            std::iter::empty(),
            &mut |_t: SimTime, e: u8, _: &mut Scheduler<'_, u8>| {
                fired.push(e);
                Flow::Continue
            },
        );
        assert_eq!(reason, StopReason::Horizon);
        assert_eq!(fired, vec![1, 2]);
        assert_eq!(engine.pending(), 1);
    }

    #[test]
    fn handler_stop_ends_run() {
        let mut engine = Engine::new(t(100));
        for i in 0..10 {
            engine.schedule(t(i), i);
        }
        let mut count = 0;
        let reason = engine.run(
            std::iter::empty(),
            &mut |_t: SimTime, e: u64, _: &mut Scheduler<'_, u64>| {
                count += 1;
                if e == 3 {
                    Flow::Stop
                } else {
                    Flow::Continue
                }
            },
        );
        assert_eq!(reason, StopReason::Handler);
        assert_eq!(count, 4);
        assert_eq!(engine.pending(), 6);
    }

    #[test]
    fn stream_ties_fall_between_pre_run_and_run_time_events() {
        let mut engine = Engine::new(t(100));
        engine.schedule(t(5), "pre@5");
        engine.schedule(t(0), "pre@0");
        let stream = [(t(0), "stream@0"), (t(5), "stream@5a"), (t(5), "stream@5b")];
        let mut fired = Vec::new();
        let reason = engine.run(
            stream,
            &mut |_t: SimTime, e: &'static str, sched: &mut Scheduler<'_, &'static str>| {
                fired.push(e);
                if e == "stream@0" {
                    sched.schedule_at(t(5), "run@5");
                }
                Flow::Continue
            },
        );
        assert_eq!(reason, StopReason::Exhausted);
        assert_eq!(
            fired,
            [
                "pre@0",
                "stream@0",
                "pre@5",
                "stream@5a",
                "stream@5b",
                "run@5"
            ]
        );
    }

    #[test]
    fn streamed_events_past_the_horizon_never_fire() {
        let mut engine = Engine::new(t(10));
        let stream = [(t(10), 1u8), (t(11), 2u8)];
        let mut fired = Vec::new();
        let reason = engine.run(
            stream,
            &mut |_t: SimTime, e: u8, _: &mut Scheduler<'_, u8>| {
                fired.push(e);
                Flow::Continue
            },
        );
        assert_eq!(reason, StopReason::Horizon);
        assert_eq!(fired, vec![1]);
    }

    #[test]
    fn event_budget_guards_runaway_models() {
        let mut engine = Engine::new(SimTime::MAX);
        engine.set_event_budget(1_000);
        engine.schedule(t(0), ());
        let reason = engine.run(
            std::iter::empty(),
            &mut |_t: SimTime, (): (), sched: &mut Scheduler<'_, ()>| {
                // Malicious model: reschedules itself forever at the same time.
                sched.schedule_in(SimDuration::ZERO, ());
                Flow::Continue
            },
        );
        assert_eq!(reason, StopReason::Budget);
        assert_eq!(engine.events_processed(), 1_000);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled event in the past")]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut engine = Engine::new(t(100));
        engine.schedule(t(50), ());
        engine.run(
            std::iter::empty(),
            &mut |_t: SimTime, (): (), sched: &mut Scheduler<'_, ()>| {
                sched.schedule_at(t(10), ());
                Flow::Continue
            },
        );
    }
}

//! The simulation engine: drives a [`Process`] from the event calendar.

use crate::calendar::{Calendar, EventEntry};
use crate::time::SimTime;

/// Why [`Engine::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The calendar ran out of events.
    Exhausted,
    /// The time horizon was reached; remaining events stay pending.
    Horizon,
    /// The process asked to stop via [`Control::Stop`].
    Requested,
    /// The configured event budget was spent (runaway-model backstop).
    EventBudget,
}

/// Flow-control returned by a [`Process`] after handling each event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Control {
    /// Keep running.
    #[default]
    Continue,
    /// Stop the simulation after this event.
    Stop,
}

/// A simulation model: receives events in timestamp order and schedules
/// follow-up events through the [`Engine`] handle it is given.
pub trait Process {
    /// The event payload type this model exchanges with the calendar.
    type Event;

    /// Handles one event, scheduling any follow-ups on `engine`.
    fn handle(&mut self, engine: &mut Engine<Self::Event>, event: Self::Event) -> Control;
}

/// The simulation engine: clock + calendar + run loop.
///
/// ```
/// use idpa_desim::{Engine, Process, SimTime, StopReason};
/// use idpa_desim::engine::Control;
///
/// /// Counts ticks up to 5, rescheduling itself each minute.
/// struct Ticker { count: u32 }
/// impl Process for Ticker {
///     type Event = ();
///     fn handle(&mut self, engine: &mut Engine<()>, _ev: ()) -> Control {
///         self.count += 1;
///         if self.count < 5 {
///             engine.schedule_in(1.0, ());
///         }
///         Control::Continue
///     }
/// }
///
/// let mut engine = Engine::new();
/// engine.schedule_at(SimTime::ZERO, ());
/// let mut ticker = Ticker { count: 0 };
/// let stop = engine.run(&mut ticker, None);
/// assert_eq!(stop, StopReason::Exhausted);
/// assert_eq!(ticker.count, 5);
/// assert_eq!(engine.now().minutes(), 4.0);
/// ```
pub struct Engine<E> {
    calendar: Calendar<E>,
    now: SimTime,
    events_handled: u64,
    event_budget: Option<u64>,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        Engine {
            calendar: Calendar::new(),
            now: SimTime::ZERO,
            events_handled: 0,
            event_budget: None,
        }
    }

    /// Rebuilds an engine from snapshotted parts: a calendar restored via
    /// [`Calendar::from_snapshot`], the clock, and the events-handled
    /// counter. The event budget is not part of a snapshot (it is a
    /// per-invocation backstop); set it again if needed.
    #[must_use]
    pub fn from_parts(calendar: Calendar<E>, now: SimTime, events_handled: u64) -> Self {
        Engine {
            calendar,
            now,
            events_handled,
            event_budget: None,
        }
    }

    /// Read access to the calendar, for snapshot export.
    #[must_use]
    pub fn calendar(&self) -> &Calendar<E> {
        &self.calendar
    }

    /// Caps the total number of events handled by [`Engine::run`]; a
    /// backstop against models that reschedule themselves forever.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = Some(budget);
    }

    /// Clears any event budget set by [`Engine::set_event_budget`].
    pub fn clear_event_budget(&mut self) {
        self.event_budget = None;
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events delivered so far.
    #[must_use]
    pub fn events_handled(&self) -> u64 {
        self.events_handled
    }

    /// Schedules an event at an absolute time, which must not be in the past.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: now={:?}, requested={:?}",
            self.now,
            time
        );
        self.calendar.schedule(time, event);
    }

    /// Schedules an event `delay` minutes from now (`delay >= 0`).
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        self.calendar.schedule(self.now + delay, event);
    }

    /// Events still pending.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.calendar.len()
    }

    /// Runs `process` until the calendar empties, `horizon` is reached,
    /// the process requests a stop, or the event budget is exhausted.
    ///
    /// An event stamped exactly at `horizon` is still delivered; the first
    /// event strictly beyond it stops the run with the clock advanced to the
    /// horizon.
    pub fn run<P>(&mut self, process: &mut P, horizon: Option<SimTime>) -> StopReason
    where
        P: Process<Event = E>,
    {
        loop {
            if let Some(budget) = self.event_budget {
                if self.events_handled >= budget {
                    return StopReason::EventBudget;
                }
            }
            let Some(next_time) = self.calendar.peek_time() else {
                return StopReason::Exhausted;
            };
            if let Some(h) = horizon {
                if next_time > h {
                    self.now = h;
                    return StopReason::Horizon;
                }
            }
            let EventEntry { time, event, .. } =
                self.calendar.pop().expect("peek_time said non-empty");
            self.now = time;
            self.events_handled += 1;
            if process.handle(self, event) == Control::Stop {
                return StopReason::Requested;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick,
        Boom,
    }

    struct Model {
        ticks: u32,
        seen_boom: bool,
        stop_on_boom: bool,
        log: Vec<f64>,
    }

    impl Model {
        fn new() -> Self {
            Model {
                ticks: 0,
                seen_boom: false,
                stop_on_boom: false,
                log: Vec::new(),
            }
        }
    }

    impl Process for Model {
        type Event = Ev;
        fn handle(&mut self, engine: &mut Engine<Ev>, event: Ev) -> Control {
            self.log.push(engine.now().minutes());
            match event {
                Ev::Tick => {
                    self.ticks += 1;
                    if self.ticks < 3 {
                        engine.schedule_in(1.0, Ev::Tick);
                    }
                    Control::Continue
                }
                Ev::Boom => {
                    self.seen_boom = true;
                    if self.stop_on_boom {
                        Control::Stop
                    } else {
                        Control::Continue
                    }
                }
            }
        }
    }

    #[test]
    fn runs_to_exhaustion() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::ZERO, Ev::Tick);
        let mut model = Model::new();
        assert_eq!(engine.run(&mut model, None), StopReason::Exhausted);
        assert_eq!(model.ticks, 3);
        assert_eq!(model.log, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn horizon_stops_and_advances_clock() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::new(1.0), Ev::Tick);
        engine.schedule_at(SimTime::new(100.0), Ev::Boom);
        let mut model = Model::new();
        let stop = engine.run(&mut model, Some(SimTime::new(10.0)));
        assert_eq!(stop, StopReason::Horizon);
        assert!(!model.seen_boom);
        assert_eq!(engine.now().minutes(), 10.0);
        assert_eq!(engine.pending(), 1);
    }

    #[test]
    fn event_exactly_at_horizon_is_delivered() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::new(10.0), Ev::Boom);
        let mut model = Model::new();
        let stop = engine.run(&mut model, Some(SimTime::new(10.0)));
        assert!(model.seen_boom);
        assert_eq!(stop, StopReason::Exhausted);
    }

    #[test]
    fn process_can_request_stop() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::new(1.0), Ev::Boom);
        engine.schedule_at(SimTime::new(2.0), Ev::Tick);
        let mut model = Model::new();
        model.stop_on_boom = true;
        assert_eq!(engine.run(&mut model, None), StopReason::Requested);
        assert_eq!(model.ticks, 0);
    }

    #[test]
    fn event_budget_is_enforced() {
        struct Forever;
        impl Process for Forever {
            type Event = ();
            fn handle(&mut self, engine: &mut Engine<()>, _: ()) -> Control {
                engine.schedule_in(1.0, ());
                Control::Continue
            }
        }
        let mut engine = Engine::new();
        engine.set_event_budget(1000);
        engine.schedule_at(SimTime::ZERO, ());
        assert_eq!(engine.run(&mut Forever, None), StopReason::EventBudget);
        assert_eq!(engine.events_handled(), 1000);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        struct BadModel;
        impl Process for BadModel {
            type Event = ();
            fn handle(&mut self, engine: &mut Engine<()>, _: ()) -> Control {
                engine.schedule_at(SimTime::ZERO, ());
                Control::Continue
            }
        }
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::new(5.0), ());
        engine.run(&mut BadModel, None);
    }
}

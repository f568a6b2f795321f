//! Keyed tumbling/sliding windowed means over the telemetry stream.
//!
//! Windows are defined on a generic `u64` tick axis ([`TimeAxis`]): either
//! simulated nanoseconds ([`TimeAxis::EventTime`]) or the logical BSP step
//! counter ([`TimeAxis::Step`]). The step axis exists because training
//! iterations have *variable* wall duration — a fixed-width time window can
//! never align to step boundaries, but the straggler detectors are defined
//! per step.
//!
//! Panes are half-open `[start, start + width)` intervals whose starts lie
//! on multiples of `slide` (`slide == width` makes the window tumbling). A
//! pane **closes** — is emitted and its state freed — once the watermark
//! (max tick seen minus `allowed_lateness`) reaches its end; events arriving
//! behind the watermark with no open pane left are dropped and counted, so
//! state stays bounded no matter how long the stream runs.

use std::collections::BTreeMap;

use c4_simcore::SimDuration;

use super::combine::Aggregate;
use super::TelemetryEvent;

/// Which tick axis a window is keyed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeAxis {
    /// Simulated time in nanoseconds ([`TelemetryEvent::time`]).
    EventTime,
    /// The logical step counter: `step` for rank/load events, `seq` for
    /// collectives. Events without a step (comm/conn) carry no tick on this
    /// axis and pass windows untouched.
    Step,
}

impl TimeAxis {
    /// The event's position on this axis, if it has one.
    pub fn tick(self, event: &TelemetryEvent) -> Option<u64> {
        match self {
            TimeAxis::EventTime => Some(event.time().as_nanos()),
            TimeAxis::Step => match event {
                TelemetryEvent::Rank(r) => Some(r.step),
                TelemetryEvent::Load(l) => Some(l.step),
                TelemetryEvent::Coll(c) => Some(c.seq),
                TelemetryEvent::Comm(_) | TelemetryEvent::Conn(_) => None,
            },
        }
    }
}

/// Window geometry: axis, pane width, slide, and allowed lateness (all in
/// ticks of the chosen axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// The tick axis.
    pub axis: TimeAxis,
    /// Pane width in ticks (> 0).
    pub width: u64,
    /// Distance between pane starts (> 0; equal to `width` for tumbling).
    pub slide: u64,
    /// How far behind the max tick the watermark trails. Out-of-order
    /// events within this horizon still land in their panes.
    pub allowed_lateness: u64,
}

impl WindowSpec {
    /// A tumbling event-time window.
    pub fn tumbling_time(width: SimDuration) -> Self {
        Self::sliding_time(width, width)
    }

    /// A sliding event-time window.
    pub fn sliding_time(width: SimDuration, slide: SimDuration) -> Self {
        WindowSpec {
            axis: TimeAxis::EventTime,
            width: width.as_nanos().max(1),
            slide: slide.as_nanos().max(1),
            allowed_lateness: 0,
        }
    }

    /// A sliding step window.
    pub fn sliding_steps(width: u64, slide: u64) -> Self {
        WindowSpec {
            axis: TimeAxis::Step,
            width: width.max(1),
            slide: slide.max(1),
            allowed_lateness: 0,
        }
    }

    /// Sets the allowed lateness (in axis ticks).
    pub fn with_lateness(mut self, lateness: u64) -> Self {
        self.allowed_lateness = lateness;
        self
    }
}

/// Routes an event to its grouping key (`None` skips the event).
pub type KeyFn<K> = Box<dyn Fn(&TelemetryEvent) -> Option<K> + Send>;

/// Extracts an event's numeric value (`None` skips the event).
pub type ValueFn = Box<dyn Fn(&TelemetryEvent) -> Option<f64> + Send>;

/// One closed window pane for one key.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowPane<K> {
    /// The grouping key.
    pub key: K,
    /// Pane start tick (inclusive).
    pub start: u64,
    /// Pane end tick (exclusive).
    pub end: u64,
    /// The folded count and sum.
    pub aggregate: Aggregate,
}

/// A keyed windowed aggregation stage: key routing, window assignment and
/// the count/sum fold in one bounded-state operator.
///
/// Events are routed by `key_fn` (a `None` key skips the event) and folded
/// by `value_fn` into every open pane containing their tick. [`push`]
/// returns the panes the arrival closed, in deterministic
/// `(end, start, key)` order; [`flush`] closes everything left at
/// end-of-stream.
///
/// [`push`]: WindowedAggregate::push
/// [`flush`]: WindowedAggregate::flush
pub struct WindowedAggregate<K> {
    spec: WindowSpec,
    key_fn: KeyFn<K>,
    value_fn: ValueFn,
    panes: BTreeMap<(u64, K), Aggregate>,
    max_tick: Option<u64>,
    late_dropped: u64,
}

impl<K: Ord + Clone> WindowedAggregate<K> {
    /// Creates a windowed aggregation stage.
    pub fn new(
        spec: WindowSpec,
        key_fn: impl Fn(&TelemetryEvent) -> Option<K> + Send + 'static,
        value_fn: impl Fn(&TelemetryEvent) -> Option<f64> + Send + 'static,
    ) -> Self {
        WindowedAggregate {
            spec,
            key_fn: Box::new(key_fn),
            value_fn: Box::new(value_fn),
            panes: BTreeMap::new(),
            max_tick: None,
            late_dropped: 0,
        }
    }

    /// The current watermark: max tick seen minus allowed lateness (`None`
    /// before the first tick-bearing event).
    pub fn watermark(&self) -> Option<u64> {
        self.max_tick
            .map(|m| m.saturating_sub(self.spec.allowed_lateness))
    }

    /// Events dropped because every pane containing their tick had already
    /// closed.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Feeds one event; returns the panes this arrival closed (possibly
    /// for other keys — closure is driven by the watermark, not the key).
    pub fn push(&mut self, event: &TelemetryEvent) -> Vec<WindowPane<K>> {
        let Some(tick) = self.spec.axis.tick(event) else {
            return Vec::new();
        };
        if let (Some(key), Some(value)) = ((self.key_fn)(event), (self.value_fn)(event)) {
            let watermark = self.watermark();
            let mut landed = false;
            let mut start = if tick < self.spec.width {
                0
            } else {
                ((tick - self.spec.width) / self.spec.slide + 1) * self.spec.slide
            };
            while start <= tick {
                let end = start.saturating_add(self.spec.width);
                if watermark.is_none_or(|w| w < end) {
                    self.panes
                        .entry((start, key.clone()))
                        .or_default()
                        .push(value);
                    landed = true;
                }
                let Some(next) = start.checked_add(self.spec.slide) else {
                    break;
                };
                start = next;
            }
            if !landed {
                self.late_dropped += 1;
            }
        }
        self.max_tick = Some(self.max_tick.map_or(tick, |m| m.max(tick)));
        self.drain_closed()
    }

    /// Closes and returns every remaining pane (end of stream).
    pub fn flush(&mut self) -> Vec<WindowPane<K>> {
        let panes = std::mem::take(&mut self.panes);
        self.emit(panes)
    }

    fn drain_closed(&mut self) -> Vec<WindowPane<K>> {
        let Some(watermark) = self.watermark() else {
            return Vec::new();
        };
        // Pane keys are ordered by (start, key) and closure depends only on
        // start, so closed panes are exactly a prefix of the map: pop from
        // the front until the first pane is still open (on most events it
        // already is, and nothing is visited beyond it).
        let mut closed = Vec::new();
        while let Some(first) = self.panes.first_entry() {
            let end = first.key().0.saturating_add(self.spec.width);
            if end > watermark {
                break;
            }
            let ((start, key), aggregate) = first.remove_entry();
            closed.push(WindowPane {
                key,
                start,
                end,
                aggregate,
            });
        }
        closed
    }

    fn emit(&self, panes: BTreeMap<(u64, K), Aggregate>) -> Vec<WindowPane<K>> {
        panes
            .into_iter()
            .map(|((start, key), aggregate)| WindowPane {
                key,
                start,
                end: start.saturating_add(self.spec.width),
                aggregate,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::LoadSample;
    use c4_simcore::SimTime;

    fn load(rank: u32, step: u64, value: f64) -> TelemetryEvent {
        TelemetryEvent::Load(LoadSample {
            comm: 1,
            rank,
            step,
            at: SimTime::from_secs(step),
            value,
        })
    }

    fn per_rank(spec: WindowSpec) -> WindowedAggregate<u32> {
        WindowedAggregate::new(
            spec,
            |e| match e {
                TelemetryEvent::Load(l) => Some(l.rank),
                _ => None,
            },
            |e| match e {
                TelemetryEvent::Load(l) => Some(l.value),
                _ => None,
            },
        )
    }

    #[test]
    fn boundary_event_opens_the_next_tumbling_pane() {
        // Width 4: step 4 sits exactly on the [0,4)/[4,8) boundary — it must
        // land in [4,8) only, and its arrival closes [0,4).
        let mut w = per_rank(WindowSpec::sliding_steps(4, 4));
        for step in 0..4 {
            assert!(w.push(&load(0, step, step as f64)).is_empty());
        }
        let closed = w.push(&load(0, 4, 100.0));
        assert_eq!(closed.len(), 1);
        assert_eq!((closed[0].start, closed[0].end), (0, 4));
        assert_eq!(closed[0].aggregate.count(), 4);
        assert_eq!(closed[0].aggregate.sum(), 0.0 + 1.0 + 2.0 + 3.0);
        let rest = w.flush();
        assert_eq!(rest.len(), 1);
        assert_eq!((rest[0].start, rest[0].end), (4, 8));
        assert_eq!(rest[0].aggregate.count(), 1);
    }

    #[test]
    fn sliding_panes_cover_each_event_width_over_slide_times() {
        let mut w = per_rank(WindowSpec::sliding_steps(3, 1));
        let mut closed = Vec::new();
        for step in 0..6 {
            closed.extend(w.push(&load(0, step, 1.0)));
        }
        closed.extend(w.flush());
        // Panes [0,3),[1,4),[2,5),[3,6) are full (count 3); the pane grid
        // starts at 0 (no negative starts), so there are no leading partial
        // panes — only the trailing [4,7),[5,8) are partial.
        let full: Vec<u64> = closed
            .iter()
            .filter(|p| p.aggregate.count() == 3)
            .map(|p| p.start)
            .collect();
        assert_eq!(full, vec![0, 1, 2, 3]);
        let counts: Vec<u64> = closed.iter().map(|p| p.aggregate.count()).collect();
        assert_eq!(counts, vec![3, 3, 3, 3, 2, 1]);
    }

    #[test]
    fn out_of_order_within_lateness_lands_late_beyond_is_dropped() {
        let mut w = per_rank(WindowSpec::sliding_steps(2, 2).with_lateness(2));
        assert!(w.push(&load(0, 3, 1.0)).is_empty()); // watermark 1: [0,2) open
        assert!(w.push(&load(0, 0, 5.0)).is_empty()); // in order horizon
        let closed = w.push(&load(0, 4, 1.0)); // watermark 2 closes [0,2)
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].aggregate.sum(), 5.0);
        assert_eq!(w.late_dropped(), 0);
        // Watermark is 2: a step-1 arrival's only pane [0,2) is gone.
        assert!(w.push(&load(0, 1, 9.0)).is_empty());
        assert_eq!(w.late_dropped(), 1);
        let rest = w.flush();
        assert_eq!(rest.iter().map(|p| p.aggregate.sum()).sum::<f64>(), 2.0);
    }

    #[test]
    fn empty_windows_emit_nothing() {
        // A gap in the stream (steps 0 then 10) must not emit empty panes
        // for the silent range — no detector input is fabricated.
        let mut w = per_rank(WindowSpec::sliding_steps(2, 2));
        assert!(w.push(&load(0, 0, 1.0)).is_empty());
        let closed = w.push(&load(0, 10, 1.0));
        assert_eq!(closed.len(), 1, "only the pane that saw data closes");
        assert_eq!((closed[0].start, closed[0].end), (0, 2));
        assert_eq!(w.flush().len(), 1);
    }

    #[test]
    fn keys_are_independent_and_emission_order_is_deterministic() {
        let mut w = per_rank(WindowSpec::sliding_steps(2, 2));
        w.push(&load(1, 0, 1.0));
        w.push(&load(0, 1, 2.0));
        let closed = w.push(&load(0, 2, 0.0));
        let keys: Vec<u32> = closed.iter().map(|p| p.key).collect();
        assert_eq!(keys, vec![0, 1], "same pane, keys ascending");
    }

    #[test]
    fn state_stays_bounded_and_events_without_tick_pass_through() {
        let mut w = per_rank(WindowSpec::sliding_steps(4, 1));
        for step in 0..1000 {
            w.push(&load(0, step, 1.0));
        }
        assert!(
            w.panes.len() <= 4,
            "open panes bounded by width/slide, got {}",
            w.panes.len()
        );
        let comm = TelemetryEvent::Comm(crate::record::CommRecord {
            comm: 1,
            devices: vec![],
            created: SimTime::ZERO,
        });
        assert!(w.push(&comm).is_empty(), "no step axis on comm events");
        assert_eq!(w.watermark(), Some(999));
    }
}

//! Events — sensor measurements (paper §IV-A).

use crate::{AttrId, Point, SensorId, Timestamp};

/// Globally unique identifier of a simple event instance.
///
/// The paper's Algorithm 5 needs to recognise "events not seen by a
/// neighbor"; a unique id per published measurement makes the per-link
/// deduplication exact without comparing payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u64);

impl std::fmt::Display for EventId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A simple event `e_d = (a_d, p_d, v, t)`: one measurement of one sensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Unique instance id (not part of the paper's tuple; used for dedup).
    pub id: EventId,
    /// The producing sensor `d`.
    pub sensor: SensorId,
    /// The sensor's attribute type `a_d`.
    pub attr: AttrId,
    /// The sensor's location `p_d`.
    pub location: Point,
    /// The measured value `v`.
    pub value: f64,
    /// Measurement time `t`.
    pub timestamp: Timestamp,
}

impl AsRef<Event> for Event {
    fn as_ref(&self) -> &Event {
        self
    }
}

/// A complex correlated event `E = {e_1, …, e_n}` (paper §IV-A).
///
/// Constructed by the matching machinery; the constituent events are kept
/// sorted by `(timestamp, id)` so two complex events over the same simple
/// events compare equal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ComplexEvent {
    events: Vec<Event>,
}

impl ComplexEvent {
    /// Build a complex event from constituent simple events (sorted internally).
    #[must_use]
    pub fn new(events: Vec<Event>) -> Self {
        let mut complex = ComplexEvent { events };
        complex.normalize();
        complex
    }

    /// Replace the constituents, keeping the allocation.
    pub fn refill(&mut self, events: impl IntoIterator<Item = Event>) {
        self.events.clear();
        self.events.extend(events);
        self.normalize();
    }

    fn normalize(&mut self) {
        self.events.sort_by_key(|e| (e.timestamp, e.id));
        self.events.dedup_by_key(|e| e.id);
    }

    /// The constituent simple events, sorted by `(timestamp, id)`.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of constituent simple events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the complex event empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The complex event's time `t = max_i t_i` (paper matching condition 3).
    ///
    /// Returns [`Timestamp::ZERO`] for an empty event.
    #[must_use]
    pub fn time(&self) -> Timestamp {
        self.events.last().map_or(Timestamp::ZERO, |e| e.timestamp)
    }

    /// The timestamp span `max t_i − min t_i`.
    #[must_use]
    pub fn span(&self) -> u64 {
        match (self.events.first(), self.events.last()) {
            (Some(a), Some(b)) => b.timestamp.abs_diff(a.timestamp),
            _ => 0,
        }
    }

    /// Ids of the constituent events (sorted order).
    pub fn event_ids(&self) -> impl Iterator<Item = EventId> + '_ {
        self.events.iter().map(|e| e.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64, t: u64) -> Event {
        Event {
            id: EventId(id),
            sensor: SensorId(id as u32),
            attr: AttrId(0),
            location: Point::new(0.0, 0.0),
            value: 1.0,
            timestamp: Timestamp(t),
        }
    }

    #[test]
    fn complex_event_sorts_and_dedups() {
        let ce = ComplexEvent::new(vec![ev(2, 20), ev(1, 10), ev(2, 20)]);
        assert_eq!(ce.len(), 2);
        assert_eq!(ce.events()[0].id, EventId(1));
        assert_eq!(ce.events()[1].id, EventId(2));
    }

    #[test]
    fn refill_replaces_and_normalizes() {
        let mut ce = ComplexEvent::new(vec![ev(9, 90)]);
        ce.refill([ev(2, 20), ev(1, 10), ev(2, 20)]);
        assert_eq!(ce, ComplexEvent::new(vec![ev(1, 10), ev(2, 20)]));
    }

    #[test]
    fn time_is_max_timestamp() {
        let ce = ComplexEvent::new(vec![ev(1, 10), ev(2, 25), ev(3, 17)]);
        assert_eq!(ce.time(), Timestamp(25));
        assert_eq!(ce.span(), 15);
    }

    #[test]
    fn empty_complex_event() {
        let ce = ComplexEvent::new(vec![]);
        assert!(ce.is_empty());
        assert_eq!(ce.time(), Timestamp::ZERO);
        assert_eq!(ce.span(), 0);
    }

    #[test]
    fn equal_event_sets_compare_equal_regardless_of_order() {
        let a = ComplexEvent::new(vec![ev(1, 10), ev(2, 20)]);
        let b = ComplexEvent::new(vec![ev(2, 20), ev(1, 10)]);
        assert_eq!(a, b);
    }
}

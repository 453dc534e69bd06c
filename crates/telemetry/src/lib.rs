//! # ftl-telemetry
//!
//! The observability substrate of the GeckoFTL reproduction: structured
//! spans and device IO events driven by the simulated clock, streaming
//! log-bucketed histograms, and a Chrome Trace Event Format exporter.
//!
//! Design rules (see `docs/OBSERVABILITY.md`):
//!
//! * **Zero overhead when disabled.** A [`Telemetry`] value starts disabled
//!   with no allocations; every `record_*` call is an inlined flag check.
//! * **Observation only.** Telemetry never reads from, writes to, or
//!   advances anything in the simulation — enabling it must not change a
//!   single simulated microsecond or IO count. A property test in the root
//!   workspace (`tests/prop_telemetry.rs`) pins this.
//! * **Preallocated sink.** Events land in a fixed-capacity ring buffer
//!   sized at enable time; overflow overwrites the oldest events and is
//!   counted, never reallocated.
//!
//! This crate is dependency-free and knows nothing about the flash device
//! or the FTL engine; callers pass purpose indices/labels in, which keeps
//! the dependency arrow pointing from `flash-sim`/`core` *to* telemetry.

pub mod export;
pub mod hist;
pub mod json;
pub mod sink;

pub use export::chrome_trace_json;
pub use hist::Histogram;
pub use json::{parse_json, validate_chrome_trace, Json, TraceSummary};
pub use sink::{EventRing, IoOp, SpanKind, TraceEvent};

/// Telemetry state carried by the simulated flash device: an event ring
/// and per-span-kind latency histograms.
///
/// Disabled (the default) it holds no allocations and records nothing.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    enabled: bool,
    inner: Option<Box<Inner>>,
}

#[derive(Clone, Debug)]
struct Inner {
    ring: EventRing,
    span_hist: [Histogram; SpanKind::COUNT],
}

impl Telemetry {
    /// Default ring capacity when enabling without an explicit size.
    pub const DEFAULT_RING_CAPACITY: usize = 1 << 14;

    /// Enable recording into a preallocated ring of `ring_capacity` events.
    /// Re-enabling keeps already-recorded data and the existing ring.
    pub fn enable(&mut self, ring_capacity: usize) {
        if self.inner.is_none() {
            self.inner = Some(Box::new(Inner {
                ring: EventRing::with_capacity(ring_capacity.max(1)),
                span_hist: std::array::from_fn(|_| Histogram::new()),
            }));
        }
        self.enabled = true;
    }

    /// Toggle recording without touching recorded data. Turning recording
    /// on for the first time allocates a default-capacity ring.
    pub fn set_enabled(&mut self, on: bool) {
        if on {
            self.enable(Self::DEFAULT_RING_CAPACITY);
        } else {
            self.enabled = false;
        }
    }

    /// Whether record calls currently do anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record one device IO on a channel lane. `purpose` is the caller's
    /// purpose index (device crate's `IoPurpose::index`).
    #[inline]
    pub fn record_io(&mut self, purpose: u8, op: IoOp, channel: u16, start_us: f64, dur_us: f64) {
        if !self.enabled {
            return;
        }
        let inner = self.inner.as_mut().expect("enabled implies inner");
        inner.ring.push(TraceEvent::Io {
            purpose,
            op,
            channel,
            start_us,
            dur_us: dur_us as f32,
        });
    }

    /// Record one closed FTL span (`start_us ..= end_us` on the simulated
    /// clock). The duration also feeds the span kind's histogram.
    #[inline]
    pub fn record_span(&mut self, kind: SpanKind, arg: u32, start_us: f64, end_us: f64) {
        if !self.enabled {
            return;
        }
        let inner = self.inner.as_mut().expect("enabled implies inner");
        let dur = end_us - start_us;
        inner.span_hist[kind.index()].record(dur);
        inner.ring.push(TraceEvent::Span {
            kind,
            arg,
            start_us,
            dur_us: dur as f32,
        });
    }

    /// Duration histogram for one span kind (`None` before first enable).
    pub fn span_hist(&self, kind: SpanKind) -> Option<&Histogram> {
        self.inner.as_ref().map(|i| &i.span_hist[kind.index()])
    }

    /// Recorded events, oldest surviving first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.inner.iter().flat_map(|i| i.ring.iter())
    }

    /// Events overwritten because the ring was full.
    pub fn dropped_events(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.ring.dropped())
    }

    /// Events recorded over the telemetry's lifetime (kept + overwritten).
    pub fn total_events(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.ring.total())
    }

    /// RAM charged to telemetry: the preallocated ring plus histogram
    /// bucket arrays. Zero while never enabled — the honesty rule used by
    /// the fig14 RAM-budget comparison.
    pub fn ram_bytes(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => {
                inner.ring.ram_bytes()
                    + inner.span_hist.iter().map(|h| h.ram_bytes()).sum::<u64>()
                    + std::mem::size_of::<Inner>() as u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing_and_charges_no_ram() {
        let mut t = Telemetry::default();
        t.record_io(0, IoOp::PageWrite, 0, 0.0, 1000.0);
        t.record_span(SpanKind::HostWrite, 0, 0.0, 1000.0);
        assert!(!t.is_enabled());
        assert_eq!(t.events().count(), 0);
        assert_eq!(t.ram_bytes(), 0);
    }

    #[test]
    fn enabled_records_events_and_histograms() {
        let mut t = Telemetry::default();
        t.enable(8);
        t.record_io(3, IoOp::PageRead, 1, 10.0, 100.0);
        t.record_span(SpanKind::HostWrite, 0, 0.0, 1100.0);
        assert_eq!(t.events().count(), 2);
        let h = t.span_hist(SpanKind::HostWrite).unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 1100.0);
        assert!(t.ram_bytes() > 0);
    }

    #[test]
    fn set_enabled_pauses_without_losing_data() {
        let mut t = Telemetry::default();
        t.enable(8);
        t.record_span(SpanKind::HostWrite, 0, 0.0, 5.0);
        t.set_enabled(false);
        t.record_span(SpanKind::HostWrite, 0, 0.0, 99.0);
        t.set_enabled(true);
        let h = t.span_hist(SpanKind::HostWrite).unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 5.0);
    }
}

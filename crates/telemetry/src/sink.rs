//! Event types and the preallocated ring-buffer sink.

/// The kind of physical operation behind a device IO event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// Full-page read.
    PageRead,
    /// Full-page program.
    PageWrite,
    /// Spare-area read.
    SpareRead,
    /// Block erase.
    Erase,
}

impl IoOp {
    /// Stable label used by the trace exporter.
    pub fn label(self) -> &'static str {
        match self {
            IoOp::PageRead => "page_read",
            IoOp::PageWrite => "page_write",
            IoOp::SpareRead => "spare_read",
            IoOp::Erase => "erase",
        }
    }
}

/// The span taxonomy: one lane per kind on the exported timeline, one
/// streaming histogram per kind. See `docs/OBSERVABILITY.md`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One host `write(lpn)` end to end, including any GC / flush / merge
    /// work it triggered.
    HostWrite,
    /// One host `read(lpn)` end to end.
    HostRead,
    /// One host `trim(lpn)` end to end, including the forced translation
    /// sync and unmap writes.
    HostTrim,
    /// Garbage collection of one victim block (arg = victim block id).
    GcCollect,
    /// One incremental Gecko merge slice across the channels.
    MergeSlice,
    /// One Gecko buffer flush (arg = entries flushed).
    BufferFlush,
    /// One recovery step (arg = GeckoRec step number, 1-based).
    Recovery,
}

impl SpanKind {
    /// Number of span kinds (lane count).
    pub const COUNT: usize = 7;

    /// All kinds in lane order.
    pub const ALL: [SpanKind; SpanKind::COUNT] = [
        SpanKind::HostWrite,
        SpanKind::HostRead,
        SpanKind::HostTrim,
        SpanKind::GcCollect,
        SpanKind::MergeSlice,
        SpanKind::BufferFlush,
        SpanKind::Recovery,
    ];

    /// Lane index (also the `tid` on the exported FTL timeline).
    pub fn index(self) -> usize {
        match self {
            SpanKind::HostWrite => 0,
            SpanKind::HostRead => 1,
            SpanKind::HostTrim => 2,
            SpanKind::GcCollect => 3,
            SpanKind::MergeSlice => 4,
            SpanKind::BufferFlush => 5,
            SpanKind::Recovery => 6,
        }
    }

    /// Stable label used in metric names and the trace exporter.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::HostWrite => "host_write",
            SpanKind::HostRead => "host_read",
            SpanKind::HostTrim => "host_trim",
            SpanKind::GcCollect => "gc_collect",
            SpanKind::MergeSlice => "merge_slice",
            SpanKind::BufferFlush => "buffer_flush",
            SpanKind::Recovery => "recovery",
        }
    }
}

/// One recorded event. Durations are stored as `f32` to keep the ring
/// compact; the latency model's constants are exactly representable, and
/// histograms record the full-precision `f64` before narrowing.
#[derive(Clone, Copy, Debug)]
pub enum TraceEvent {
    /// A device IO on one channel.
    Io {
        /// Caller's purpose index (`IoPurpose::index` in the device crate).
        purpose: u8,
        /// Physical operation kind.
        op: IoOp,
        /// Channel the target block lives on.
        channel: u16,
        /// Start time on the simulated clock, µs.
        start_us: f64,
        /// Nominal (serial) duration, µs.
        dur_us: f32,
    },
    /// A closed FTL span.
    Span {
        /// Lane / taxonomy kind.
        kind: SpanKind,
        /// Kind-specific argument (victim block, step number, ...).
        arg: u32,
        /// Start time on the simulated clock, µs.
        start_us: f64,
        /// Duration, µs.
        dur_us: f32,
    },
}

impl TraceEvent {
    /// Event start time on the simulated clock, µs.
    pub fn start_us(&self) -> f64 {
        match *self {
            TraceEvent::Io { start_us, .. } | TraceEvent::Span { start_us, .. } => start_us,
        }
    }

    /// Event duration, µs.
    pub fn dur_us(&self) -> f64 {
        match *self {
            TraceEvent::Io { dur_us, .. } | TraceEvent::Span { dur_us, .. } => dur_us as f64,
        }
    }
}

/// Fixed-capacity ring buffer of [`TraceEvent`]s. The backing storage is
/// allocated once at construction; when full, new events overwrite the
/// oldest and the overwrite count is tracked (never silently).
#[derive(Clone, Debug)]
pub struct EventRing {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Next slot to overwrite once `buf` reached capacity.
    head: usize,
    /// Events overwritten so far.
    dropped: u64,
    /// Events pushed over the ring's lifetime.
    total: u64,
}

impl EventRing {
    /// A ring holding at most `capacity` events (allocated eagerly so the
    /// hot path never reallocates).
    pub fn with_capacity(capacity: usize) -> Self {
        EventRing {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
            total: 0,
        }
    }

    /// Append one event, overwriting the oldest if full.
    pub fn push(&mut self, ev: TraceEvent) {
        self.total += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        let (wrapped, fresh) = self.buf.split_at(self.head);
        fresh.iter().chain(wrapped.iter())
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events pushed over the ring's lifetime.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Bytes of the preallocated backing storage.
    pub fn ram_bytes(&self) -> u64 {
        (self.capacity * std::mem::size_of::<TraceEvent>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: f64) -> TraceEvent {
        TraceEvent::Span {
            kind: SpanKind::HostWrite,
            arg: 0,
            start_us: start,
            dur_us: 1.0,
        }
    }

    #[test]
    fn ring_keeps_newest_in_order() {
        let mut r = EventRing::with_capacity(3);
        for i in 0..5 {
            r.push(span(i as f64));
        }
        let starts: Vec<f64> = r.iter().map(|e| e.start_us()).collect();
        assert_eq!(starts, vec![2.0, 3.0, 4.0]);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.total(), 5);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn span_lanes_are_dense_and_uniquely_labelled() {
        assert_eq!(SpanKind::ALL.len(), SpanKind::COUNT);
        for (i, kind) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind:?} sits in lane {i}");
        }
        let mut labels: Vec<&str> = SpanKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), SpanKind::COUNT, "duplicate span label");
    }

    #[test]
    fn ring_ram_is_capacity_not_fill() {
        let r = EventRing::with_capacity(100);
        assert_eq!(
            r.ram_bytes(),
            100 * std::mem::size_of::<TraceEvent>() as u64
        );
    }
}

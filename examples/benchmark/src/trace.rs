//! Spans recorded from outside the program, at its public trait seams.
//!
//! The wrappers in `adapter.rs` call [`Sink::time`] around every call into a
//! replica core, its application and its store. Spans stay in memory and are
//! summarised when the run is over. A span opened while another is open on
//! the same sink is that span's child; a layer's self time is its spans'
//! time minus their children's.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// `on_start` / `on_message` / `on_timer` of a replica core.
    Handler,
    AppExecute,
    AppRead,
    AppDigest,
    AppSnapshot,
    StoreAppend,
    StoreCheckpoint,
    StoreCompact,
    StoreRecover,
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    /// Nanoseconds since the sink's epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Index of the enclosing span in the same sink.
    pub parent: Option<u32>,
}

/// One replica's spans. All calls but `StoreRecover` come from the replica's
/// own thread, so the mutex is uncontended; it exists because the store seam
/// is `Sync`.
#[derive(Debug)]
pub struct Sink {
    epoch: Instant,
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Sink {
    pub fn new(epoch: Instant) -> Sink {
        Sink {
            epoch,
            inner: Mutex::new(Inner {
                spans: Vec::with_capacity(1 << 16),
                open: Vec::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("no code panics while holding the span mutex")
    }

    /// Runs `f` inside a span of `kind`, nested under whatever span is open.
    pub fn time<T>(&self, kind: SpanKind, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let index = {
            let mut inner = self.lock();
            let index = inner.spans.len() as u32;
            let parent = inner.open.last().copied();
            inner.spans.push(Span {
                kind,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                dur_ns: 0,
                parent,
            });
            inner.open.push(index);
            index
        };
        let out = f();
        let dur_ns = start.elapsed().as_nanos() as u64;
        let mut inner = self.lock();
        inner.spans[index as usize].dur_ns = dur_ns;
        inner.open.pop();
        out
    }

    /// Runs `f` inside a parentless span without touching the open stack:
    /// for the one call (`recover`) made from another thread than the
    /// replica's.
    pub fn time_detached<T>(&self, kind: SpanKind, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.lock().spans.push(Span {
            kind,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns,
            parent: None,
        });
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.lock().spans)
    }
}

/// Totals of one span kind inside a time window.
#[derive(Debug, Clone, Default)]
pub struct KindTotals {
    pub count: u64,
    /// Span time minus the time of child spans.
    pub self_ns: u64,
    pub total_ns: u64,
    pub max_ns: u64,
    /// Every span's duration, in no particular order.
    pub durations: Vec<u64>,
}

/// Per-kind totals over the spans that started in `[from_ns, to_ns)`.
pub fn totals(spans: &[Span], from_ns: u64, to_ns: u64) -> HashMap<SpanKind, KindTotals> {
    let mut children_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children_ns[parent as usize] += span.dur_ns;
        }
    }
    let mut out: HashMap<SpanKind, KindTotals> = HashMap::new();
    for (span, children_ns) in spans.iter().zip(children_ns) {
        if span.start_ns < from_ns || span.start_ns >= to_ns {
            continue;
        }
        let kind = out.entry(span.kind).or_default();
        kind.count += 1;
        kind.total_ns += span.dur_ns;
        kind.self_ns += span.dur_ns.saturating_sub(children_ns);
        kind.max_ns = kind.max_ns.max(span.dur_ns);
        kind.durations.push(span.dur_ns);
    }
    out
}

impl KindTotals {
    /// Folds another replica's totals of the same kind into this one.
    pub fn add(&mut self, other: &KindTotals) {
        self.count += other.count;
        self.self_ns += other.self_ns;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.durations.extend(&other.durations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_subtracted_from_self_time() {
        let sink = Sink::new(Instant::now());
        sink.time(SpanKind::Handler, || {
            sink.time(SpanKind::AppExecute, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            sink.time(SpanKind::StoreAppend, || ());
        });
        sink.time_detached(SpanKind::StoreRecover, || ());
        let spans = sink.take();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        let all = totals(&spans, 0, u64::MAX);
        let (handler, app) = (&all[&SpanKind::Handler], &all[&SpanKind::AppExecute]);
        assert_eq!(handler.count, 1);
        assert!(app.total_ns >= 2_000_000);
        assert!(handler.total_ns >= app.total_ns);
        assert!(handler.self_ns <= handler.total_ns - app.total_ns);
        assert!(totals(&spans, u64::MAX - 1, u64::MAX).is_empty());
    }
}

//! Run statistics: throughput, latency distribution (log-bucketed
//! histograms up to p99.9, split by operation class), a throughput timeline,
//! per-phase commit-latency breakdowns, replica health rollups, and what the
//! batching policy actually chose (sizes and flush causes).

use seemore_core::client::ClientOutcome;
use seemore_core::metrics::BatchTelemetry;
use seemore_telemetry::{
    derive_phases, sort_events, LatencyHistogram, PhaseBreakdown, ReplicaHealth, TraceEvent,
};
use seemore_types::{Duration, Instant, OpClass, ReplicaId};

/// One bucket of the throughput timeline (Figure 4's x-axis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineBucket {
    /// Start of the bucket, milliseconds since the beginning of the run.
    pub start_ms: f64,
    /// Requests completed inside the bucket.
    pub completed: u64,
    /// Throughput over the bucket in thousands of requests per second.
    pub throughput_kreqs: f64,
}

/// What the batching controller actually did during a run, aggregated
/// across every replica: the *effective* (chosen) batch sizes — which under
/// the adaptive policy are decided at run time, not configured — and why
/// each batch left the buffer. This is the "report the chosen sizes"
/// telemetry the adaptive batch-sizing controller feeds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchReport {
    /// Total batches cut (equals the number of agreement slots proposed by
    /// primaries during the run).
    pub batches: u64,
    /// Mean effective batch size.
    pub mean_size: f64,
    /// Median effective batch size.
    pub p50_size: usize,
    /// Largest batch any primary cut.
    pub max_size: usize,
    /// Batches cut because the buffer reached the effective size cap.
    pub cut_by_size: u64,
    /// Batches cut by the flush timer (latency trigger on a partial buffer).
    pub cut_by_timer: u64,
    /// Batches forced out by view-change installation.
    pub cut_forced: u64,
    /// Stale flush-timer expirations that were correctly ignored.
    pub stale_timer_fires: u64,
}

impl BatchReport {
    /// Projects the cluster-wide merged replica telemetry into report form.
    pub fn from_telemetry(telemetry: &BatchTelemetry) -> BatchReport {
        BatchReport {
            batches: telemetry.batches(),
            mean_size: telemetry.mean_size(),
            p50_size: telemetry.p50_size(),
            max_size: telemetry.max_size(),
            cut_by_size: telemetry.cut_by_size,
            cut_by_timer: telemetry.cut_by_timer,
            cut_forced: telemetry.cut_forced,
            stale_timer_fires: telemetry.stale_timer_fires,
        }
    }
}

/// What the socket transport's hot path actually did during a run: syscalls
/// issued vs frames sent (gather writes) and per-destination encodes
/// avoided (encode-once broadcast). `None` on the runtimes that move plain
/// Rust values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportReport {
    /// Frames written to sockets.
    pub messages_sent: u64,
    /// Bytes written to sockets (preambles included).
    pub bytes_sent: u64,
    /// `write(2)`/`writev(2)` calls issued (preambles included).
    pub write_syscalls: u64,
    /// Frames completed by a write that had already completed another
    /// frame (syscalls the gather write saved).
    pub frames_coalesced: u64,
    /// Serializations avoided by encode-once broadcasts (encodes saved).
    pub encodes_saved: u64,
    /// Frames written in full by the *sending* thread's flush (the rest
    /// were drained by an event loop after a dial or on `EPOLLOUT`).
    pub direct_writes: u64,
    /// Gather (`writev`) calls that carried more than one slice — a replica
    /// loop turn's frames to one peer, or a backlog drain, that would
    /// otherwise have cost one `write(2)` per frame.
    pub vectored_writes: u64,
    /// Writes the kernel accepted only partially (socket-buffer pressure;
    /// the remainder stayed queued).
    pub partial_writes: u64,
    /// Raw bytes read from sockets, preambles included.
    pub bytes_read: u64,
    /// Outbound connections established across the mesh (initial dials
    /// included): `peers` on a clean run, anything above that is a rebuild
    /// after a dead connection — the flakiness signal the health rollup tracks.
    pub reconnects: u64,
}

impl TransportReport {
    /// Projects the live transport counters into report form.
    pub fn from_stats(stats: &seemore_net::TransportStats) -> TransportReport {
        TransportReport {
            messages_sent: stats.messages_sent(),
            bytes_sent: stats.bytes_sent(),
            write_syscalls: stats.write_syscalls(),
            frames_coalesced: stats.frames_coalesced(),
            encodes_saved: stats.encodes_saved(),
            direct_writes: stats.direct_writes(),
            vectored_writes: stats.vectored_writes(),
            partial_writes: stats.partial_writes(),
            bytes_read: stats.bytes_read(),
            reconnects: stats.reconnects(),
        }
    }
}

/// Throughput and latency statistics for one operation class (reads or
/// writes) inside the measurement window.
///
/// Percentiles come from a log-bucketed [`LatencyHistogram`] (~0.4%
/// worst-case relative error); the mean is exact. The histogram replaces the
/// old sorted-`Vec` percentile math: memory is constant in the sample count,
/// which is what makes keeping the tail out to p99.9 cheap.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassStats {
    /// Operations of this class completed inside the window.
    pub completed: u64,
    /// Throughput in thousands of operations per second.
    pub throughput_kreqs: f64,
    /// Mean end-to-end latency in milliseconds (exact).
    pub avg_latency_ms: f64,
    /// Median latency in milliseconds.
    pub p50_latency_ms: f64,
    /// 95th percentile latency in milliseconds.
    pub p95_latency_ms: f64,
    /// 99th percentile latency in milliseconds.
    pub p99_latency_ms: f64,
    /// 99.9th percentile latency in milliseconds.
    pub p999_latency_ms: f64,
}

impl ClassStats {
    /// Builds the statistics from a latency histogram (nanosecond samples)
    /// over a window of `secs` seconds.
    ///
    fn from_histogram(hist: &LatencyHistogram, secs: f64) -> ClassStats {
        let completed = hist.count();
        let ms = |nanos: u64| nanos as f64 / 1_000_000.0;
        ClassStats {
            completed,
            throughput_kreqs: if secs > 0.0 {
                completed as f64 / secs / 1_000.0
            } else {
                0.0
            },
            avg_latency_ms: hist.mean() / 1_000_000.0,
            p50_latency_ms: ms(hist.percentile(50.0)),
            p95_latency_ms: ms(hist.percentile(95.0)),
            p99_latency_ms: ms(hist.percentile(99.0)),
            p999_latency_ms: ms(hist.percentile(99.9)),
        }
    }
}

/// Aggregated statistics of one simulated run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Requests completed inside the measurement window.
    pub completed: u64,
    /// Length of the measurement window.
    pub measured_duration: Duration,
    /// Throughput in thousands of requests per second.
    pub throughput_kreqs: f64,
    /// Mean end-to-end latency in milliseconds.
    pub avg_latency_ms: f64,
    /// Median latency in milliseconds.
    pub p50_latency_ms: f64,
    /// 95th percentile latency in milliseconds.
    pub p95_latency_ms: f64,
    /// 99th percentile latency in milliseconds.
    pub p99_latency_ms: f64,
    /// Protocol messages delivered during the whole run.
    pub messages_delivered: u64,
    /// Bytes delivered during the whole run (wire-size model).
    pub bytes_delivered: u64,
    /// View changes completed across all replicas.
    pub view_changes: u64,
    /// Mode switches completed across all replicas.
    pub mode_switches: u64,
    /// Client retransmissions.
    pub retransmissions: u64,
    /// Statistics for read-classified operations only (reads served by the
    /// fast path *and* reads that fell back to the ordered path).
    pub reads: ClassStats,
    /// Statistics for write-classified operations only.
    pub writes: ClassStats,
    /// Chosen batch sizes and flush causes, aggregated across all replicas
    /// over the whole run.
    pub batching: BatchReport,
    /// Socket-transport hot-path counters (syscalls, coalesced frames,
    /// encodes saved); `None` for the simulator.
    pub transport: Option<TransportReport>,
    /// Throughput timeline over the whole run (not only the measurement
    /// window), for the view-change experiment.
    pub timeline: Vec<TimelineBucket>,
    /// Per-phase commit-latency breakdown derived from the structured trace,
    /// split by protocol mode and operation class. Empty unless the scenario
    /// ran with tracing enabled.
    pub phases: PhaseBreakdown,
    /// Per-replica health rollups (suspicions, refused reads, vote
    /// mismatches, view-change durations) derived from the structured trace.
    /// Empty unless the scenario ran with tracing enabled.
    pub health: Vec<ReplicaHealth>,
    /// The full structured trace, sorted by time, ready for JSONL export.
    /// Empty unless the scenario ran with tracing enabled.
    pub trace: Vec<TraceEvent>,
}

impl RunReport {
    /// Builds a report from raw completions.
    ///
    /// * `outcomes` — every completed request with its completion time.
    /// * `measure_from` — completions before this instant (warm-up) are
    ///   excluded from throughput/latency statistics but still appear in the
    ///   timeline.
    /// * `run_end` — end of the run.
    /// * `bucket` — timeline bucket width.
    pub fn from_outcomes(
        outcomes: &[ClientOutcome],
        measure_from: Instant,
        run_end: Instant,
        bucket: Duration,
    ) -> RunReport {
        let mut all = LatencyHistogram::new();
        let mut reads = LatencyHistogram::new();
        let mut writes = LatencyHistogram::new();
        for outcome in outcomes.iter().filter(|o| o.completed_at >= measure_from) {
            let nanos = outcome.latency.as_nanos();
            all.record(nanos);
            match outcome.class {
                OpClass::Read => reads.record(nanos),
                OpClass::Write => writes.record(nanos),
            }
        }

        let measured_duration = run_end - measure_from;
        let secs = measured_duration.as_secs_f64();
        let overall = ClassStats::from_histogram(&all, secs);

        let timeline = Self::timeline(outcomes, run_end, bucket);

        RunReport {
            completed: overall.completed,
            measured_duration,
            throughput_kreqs: overall.throughput_kreqs,
            avg_latency_ms: overall.avg_latency_ms,
            p50_latency_ms: overall.p50_latency_ms,
            p95_latency_ms: overall.p95_latency_ms,
            p99_latency_ms: overall.p99_latency_ms,
            reads: ClassStats::from_histogram(&reads, secs),
            writes: ClassStats::from_histogram(&writes, secs),
            timeline,
            ..RunReport::default()
        }
    }

    /// Attaches a structured trace to the report: sorts the events, derives
    /// the per-phase latency breakdown, and rolls up per-replica health on a
    /// `health_bucket`-wide timeline. `replicas` lists every replica that ran
    /// (so replicas with an empty trace still get a quiet rollup).
    pub fn attach_trace(
        &mut self,
        mut events: Vec<TraceEvent>,
        replicas: &[ReplicaId],
        health_bucket: Duration,
    ) {
        sort_events(&mut events);
        self.phases = derive_phases(&events);
        // Health timelines share the run's clock origin (zero), so bucket
        // offsets line up with the throughput timeline.
        self.health = replicas
            .iter()
            .map(|&r| ReplicaHealth::from_events(r, &events, Instant::ZERO, health_bucket))
            .collect();
        self.trace = events;
    }

    fn timeline(
        outcomes: &[ClientOutcome],
        run_end: Instant,
        bucket: Duration,
    ) -> Vec<TimelineBucket> {
        if bucket == Duration::ZERO || run_end == Instant::ZERO {
            return Vec::new();
        }
        let bucket_ns = bucket.as_nanos().max(1);
        let buckets = run_end.as_nanos().div_ceil(bucket_ns) as usize;
        let mut counts = vec![0u64; buckets];
        for outcome in outcomes {
            let index = (outcome.completed_at.as_nanos() / bucket_ns) as usize;
            if index < buckets {
                counts[index] += 1;
            }
        }
        let run_end_ns = run_end.as_nanos();
        counts
            .iter()
            .enumerate()
            .map(|(i, completed)| {
                // The final bucket usually covers less than a full width;
                // scale its throughput by the span it actually covers, not
                // the nominal bucket width.
                let start_ns = i as u64 * bucket_ns;
                let span_ns = bucket_ns.min(run_end_ns - start_ns).max(1);
                let span_secs = span_ns as f64 / 1e9;
                TimelineBucket {
                    start_ms: i as f64 * bucket.as_millis_f64(),
                    completed: *completed,
                    throughput_kreqs: *completed as f64 / span_secs / 1_000.0,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seemore_types::{ClientId, RequestId, Timestamp};

    fn outcome(completed_ms: u64, latency_ms: u64, n: u64) -> ClientOutcome {
        ClientOutcome {
            request: RequestId::new(ClientId(0), Timestamp(n)),
            class: if n.is_multiple_of(2) {
                OpClass::Write
            } else {
                OpClass::Read
            },
            result: Vec::new(),
            latency: Duration::from_millis(latency_ms),
            completed_at: Instant::from_nanos(completed_ms * 1_000_000),
        }
    }

    #[test]
    fn per_class_statistics_split_reads_from_writes() {
        // 10 writes at 4 ms and 10 reads at 1 ms over one second.
        let outcomes: Vec<ClientOutcome> = (0..20)
            .map(|n| outcome(n * 40, if n % 2 == 0 { 4 } else { 1 }, n))
            .collect();
        let report = RunReport::from_outcomes(
            &outcomes,
            Instant::ZERO,
            Instant::from_nanos(1_000_000_000),
            Duration::from_millis(100),
        );
        assert_eq!(report.completed, 20);
        assert_eq!(report.reads.completed, 10);
        assert_eq!(report.writes.completed, 10);
        assert!((report.reads.avg_latency_ms - 1.0).abs() < 1e-9);
        assert!((report.writes.avg_latency_ms - 4.0).abs() < 1e-9);
        assert!((report.avg_latency_ms - 2.5).abs() < 1e-9);
        assert!(
            (report.reads.throughput_kreqs + report.writes.throughput_kreqs
                - report.throughput_kreqs)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn throughput_and_latency_over_measurement_window() {
        // 100 completions spread over 1 second, 2 ms latency each, after a
        // 100 ms warm-up that contains 10 more completions.
        let mut outcomes = Vec::new();
        for i in 0..10 {
            outcomes.push(outcome(i * 10, 5, i));
        }
        for i in 0..100 {
            outcomes.push(outcome(100 + i * 9, 2, 100 + i));
        }
        let report = RunReport::from_outcomes(
            &outcomes,
            Instant::from_nanos(100 * 1_000_000),
            Instant::from_nanos(1_000 * 1_000_000),
            Duration::from_millis(100),
        );
        assert_eq!(report.completed, 100);
        assert!((report.throughput_kreqs - 100.0 / 0.9 / 1000.0).abs() < 1e-9);
        assert!((report.avg_latency_ms - 2.0).abs() < 1e-9);
        // Percentiles come from the log-bucketed histogram: allow its ~0.4%
        // worst-case relative error.
        assert!((report.p50_latency_ms - 2.0).abs() / 2.0 < 0.005);
        assert_eq!(report.timeline.len(), 10);
        // Warm-up completions appear in the timeline's first bucket.
        assert_eq!(report.timeline[0].completed, 10);
    }

    #[test]
    fn empty_runs_produce_zeroes() {
        let report = RunReport::from_outcomes(
            &[],
            Instant::ZERO,
            Instant::from_nanos(1_000_000),
            Duration::from_millis(1),
        );
        assert_eq!(report.completed, 0);
        assert_eq!(report.throughput_kreqs, 0.0);
        assert_eq!(report.avg_latency_ms, 0.0);
        assert_eq!(report.p99_latency_ms, 0.0);
        assert_eq!(report.timeline.len(), 1);
    }

    #[test]
    fn percentiles_are_ordered() {
        let outcomes: Vec<ClientOutcome> = (0..1000).map(|i| outcome(i, i % 50 + 1, i)).collect();
        let report = RunReport::from_outcomes(
            &outcomes,
            Instant::ZERO,
            Instant::from_nanos(1_000 * 1_000_000),
            Duration::from_millis(10),
        );
        assert!(report.p50_latency_ms <= report.p95_latency_ms);
        assert!(report.p95_latency_ms <= report.p99_latency_ms);
        assert!(
            report.p99_latency_ms
                <= report
                    .reads
                    .p999_latency_ms
                    .max(report.writes.p999_latency_ms)
        );
        assert!(report.avg_latency_ms > 0.0);
        let total_in_timeline: u64 = report.timeline.iter().map(|b| b.completed).sum();
        assert_eq!(total_in_timeline, 1000);
    }

    #[test]
    fn single_sample_percentiles_collapse_to_the_sample() {
        let outcomes = vec![outcome(500, 7, 1)];
        let report = RunReport::from_outcomes(
            &outcomes,
            Instant::ZERO,
            Instant::from_nanos(1_000 * 1_000_000),
            Duration::from_millis(100),
        );
        assert_eq!(report.completed, 1);
        assert_eq!(report.reads.completed, 1);
        assert_eq!(report.writes.completed, 0);
        // With one sample every percentile is that sample, exactly: the
        // histogram clamps percentile estimates to the observed min/max.
        for p in [
            report.p50_latency_ms,
            report.p95_latency_ms,
            report.p99_latency_ms,
            report.reads.p50_latency_ms,
            report.reads.p999_latency_ms,
        ] {
            assert!((p - 7.0).abs() < 1e-9, "expected 7 ms, got {p}");
        }
        assert_eq!(report.writes.p999_latency_ms, 0.0);
    }

    #[test]
    fn final_partial_timeline_bucket_scales_by_its_actual_span() {
        // Run ends at 250 ms with 100 ms buckets: the third bucket covers
        // only 50 ms. 5 completions inside it are 100 req/s, not 50.
        let outcomes: Vec<ClientOutcome> = (0..5).map(|n| outcome(210 + n, 1, n)).collect();
        let report = RunReport::from_outcomes(
            &outcomes,
            Instant::ZERO,
            Instant::from_nanos(250 * 1_000_000),
            Duration::from_millis(100),
        );
        assert_eq!(report.timeline.len(), 3);
        assert_eq!(report.timeline[2].completed, 5);
        assert!((report.timeline[2].throughput_kreqs - 0.1).abs() < 1e-9);
        // Full buckets are unaffected.
        assert_eq!(report.timeline[0].completed, 0);
        assert_eq!(report.timeline[0].throughput_kreqs, 0.0);
    }

    #[test]
    fn attach_trace_on_an_empty_trace_yields_quiet_health() {
        let mut report = RunReport::default();
        report.attach_trace(
            Vec::new(),
            &[ReplicaId(0), ReplicaId(1)],
            Duration::from_millis(100),
        );
        assert_eq!(report.phases.requests(), 0);
        assert_eq!(report.health.len(), 2);
        assert!(report.health.iter().all(|h| h.is_quiet()));
        assert!(report.trace.is_empty());
    }

    #[test]
    fn batch_report_projects_telemetry() {
        use seemore_core::batching::FlushCause;
        let mut telemetry = BatchTelemetry::default();
        telemetry.record_cut(1, FlushCause::Size);
        telemetry.record_cut(3, FlushCause::Timer);
        telemetry.record_cut(8, FlushCause::Forced);
        telemetry.stale_timer_fires = 2;
        let report = BatchReport::from_telemetry(&telemetry);
        assert_eq!(report.batches, 3);
        assert!((report.mean_size - 4.0).abs() < 1e-12);
        assert_eq!(report.p50_size, 3);
        assert_eq!(report.max_size, 8);
        assert_eq!(report.cut_by_size, 1);
        assert_eq!(report.cut_by_timer, 1);
        assert_eq!(report.cut_forced, 1);
        assert_eq!(report.stale_timer_fires, 2);
        assert_eq!(RunReport::default().batching, BatchReport::default());
    }
}

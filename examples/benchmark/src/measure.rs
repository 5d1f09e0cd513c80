//! Turns what a run logged — client samples, the main thread's timeline,
//! spans, counters — into named metrics. Pure arithmetic; nothing here
//! touches the program or the clock.

use crate::adapter::{CoreCounters, Ended, Telemetry, TransportCounters, UnitCosts};
use crate::check::Verdict;
use crate::load::{ClientLog, Timeline};
use crate::stats::{self, Quartiles};
use crate::trace::{self, SpanKind};

/// One reported number. `spread` holds the quartiles over the window's
/// segments where the value is their median; `raw` the same median before the
/// machine's slowdown was divided out.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub spread: Option<Quartiles>,
    pub raw: Option<f64>,
    pub samples: u64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        spread: None,
        raw: None,
        samples: 0,
    }
}

/// Writes need this many samples in a part of the window for its p99 to have
/// ten samples beyond it.
const P99_SUPPORT: usize = 1_000;

/// What the clients saw in one part of the window.
#[derive(Debug, Clone, Default)]
struct Part {
    seconds: f64,
    cpu_us: f64,
    /// Mean of the machine's slowdown factor over this part.
    slowdown: f64,
    ops: u64,
    /// Latencies (first transmission to accepted reply quorum, as the client
    /// core timed them) of operations completed in this part, ascending, ns.
    writes: Vec<u64>,
    reads: Vec<u64>,
}

fn mean(values: impl Iterator<Item = f64> + Clone) -> Option<f64> {
    let count = values.clone().count();
    (count > 0).then(|| values.sum::<f64>() / count as f64)
}

fn parts(logs: &[ClientLog], timeline: &Timeline) -> Vec<Part> {
    let edges = &timeline.boundaries;
    let factors = |from: u64, to: u64| {
        timeline
            .slowdown
            .iter()
            .filter(move |(at, _)| (from..to).contains(at))
            .map(|(_, factor)| *factor)
    };
    // A part too short to hold a sample takes the window's mean; a run with
    // no samples at all is reported as measured.
    let window = mean(factors(0, u64::MAX)).unwrap_or(1.0);
    let mut parts: Vec<Part> = edges
        .windows(2)
        .map(|pair| Part {
            seconds: (pair[1].0 - pair[0].0) as f64 / 1e9,
            cpu_us: pair[1].1 - pair[0].1,
            slowdown: mean(factors(pair[0].0, pair[1].0)).unwrap_or(window),
            ..Part::default()
        })
        .collect();
    for sample in logs.iter().flat_map(|log| &log.samples) {
        let after = edges.partition_point(|(at, _)| *at <= sample.done_ns);
        if after == 0 || after > parts.len() {
            continue; // before the window opened or after it closed
        }
        let part = &mut parts[after - 1];
        part.ops += 1;
        if sample.read {
            part.reads.push(sample.reply.latency_ns);
        } else {
            part.writes.push(sample.reply.latency_ns);
        }
    }
    for part in &mut parts {
        part.writes.sort_unstable();
        part.reads.sort_unstable();
    }
    parts
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// A timing metric: the median over the window's parts of each part's value
/// scaled to the reference machine speed (`Time`s divided by the part's
/// slowdown factor, `Rate`s multiplied by it).
enum Scale {
    Time,
    Rate,
}

fn over_parts(
    name: &'static str,
    unit: &'static str,
    parts: &[Part],
    samples: u64,
    scale: Scale,
    value: impl Fn(&Part) -> f64,
) -> Metric {
    let raw: Vec<f64> = parts.iter().map(&value).collect();
    let scaled: Vec<f64> = parts
        .iter()
        .zip(&raw)
        .map(|(part, raw)| match scale {
            Scale::Time => raw / part.slowdown,
            Scale::Rate => raw * part.slowdown,
        })
        .collect();
    let spread = stats::quartiles(&scaled);
    Metric {
        name,
        unit,
        value: spread.median,
        spread: Some(spread),
        raw: Some(stats::median(&raw)),
        samples,
    }
}

/// The window as its clients saw it. The four timing metrics are at reference
/// machine speed; `ops`, `cpu_us` and `commit_*_raw_us` are as measured.
pub struct WindowView {
    pub throughput_kops: Metric,
    pub commit_p50_ms: Metric,
    pub commit_p99_ms: Metric,
    pub cpu_us_per_op: Metric,
    /// Median latency of operations issued as reads; `None` without reads.
    pub read_p50_ms: Option<Metric>,
    /// Median and mean write latency as measured, µs: what the traced phases
    /// (medians, means) are held against.
    pub commit_p50_raw_us: f64,
    pub commit_mean_raw_us: f64,
    /// Mean slowdown factor over the window.
    pub slowdown: f64,
    /// Operations completed inside the window.
    pub ops: u64,
    pub cpu_us: f64,
}

pub fn window_view(logs: &[ClientLog], timeline: &Timeline) -> WindowView {
    let parts = parts(logs, timeline);
    let ops: u64 = parts.iter().map(|part| part.ops).sum();
    let writes: u64 = parts.iter().map(|part| part.writes.len() as u64).sum();
    let reads: u64 = parts.iter().map(|part| part.reads.len() as u64).sum();
    let slowdown = mean(parts.iter().map(|part| part.slowdown)).unwrap_or(1.0);

    // A p99 needs ten samples beyond it. Where every part of the window has
    // them, the value is the median of the parts' p99s, like the other
    // metrics; where not (slow workloads), it is the p99 of the whole
    // window's writes.
    let commit_p99_ms = if parts.iter().all(|part| part.writes.len() >= P99_SUPPORT) {
        over_parts("commit_p99_ms", "ms", &parts, writes, Scale::Time, |part| {
            ms(stats::percentile(&part.writes, 0.99))
        })
    } else {
        let mut pooled: Vec<u64> = parts
            .iter()
            .flat_map(|part| &part.writes)
            .copied()
            .collect();
        pooled.sort_unstable();
        let raw = ms(stats::percentile(&pooled, 0.99));
        Metric {
            raw: Some(raw),
            samples: writes,
            ..metric("commit_p99_ms", "ms", raw / slowdown)
        }
    };
    let commit_p50_ms = over_parts("commit_p50_ms", "ms", &parts, writes, Scale::Time, |part| {
        ms(stats::percentile(&part.writes, 0.5))
    });
    WindowView {
        throughput_kops: over_parts(
            "throughput_kops",
            "kop/s",
            &parts,
            ops,
            Scale::Rate,
            |part| part.ops as f64 / part.seconds / 1e3,
        ),
        commit_p50_raw_us: commit_p50_ms.raw.unwrap_or(0.0) * 1e3,
        commit_p50_ms,
        commit_p99_ms,
        cpu_us_per_op: over_parts("cpu_us_per_op", "us", &parts, ops, Scale::Time, |part| {
            part.cpu_us / part.ops.max(1) as f64
        }),
        read_p50_ms: (reads > 0).then(|| {
            over_parts("read_p50_ms", "ms", &parts, reads, Scale::Time, |part| {
                ms(stats::percentile(&part.reads, 0.5))
            })
        }),
        commit_mean_raw_us: {
            let all = parts.iter().flat_map(|part| &part.writes);
            all.clone().sum::<u64>() as f64 / 1e3 / all.count().max(1) as f64
        },
        slowdown,
        ops,
        cpu_us: parts.iter().map(|part| part.cpu_us).sum(),
    }
}

/// Longest interval without a completed operation from the primary's crash
/// (or, to be exact, from the last completion before it) onwards, ms.
pub fn unavailable_ms(logs: &[ClientLog], crashed_ns: u64) -> f64 {
    let mut done: Vec<u64> = logs
        .iter()
        .flat_map(|log| log.samples.iter().map(|sample| sample.done_ns))
        .collect();
    done.sort_unstable();
    let from = done
        .partition_point(|at| *at <= crashed_ns)
        .saturating_sub(1);
    let longest = done[from..]
        .windows(2)
        .map(|pair| pair[1] - pair[0])
        .max()
        .unwrap_or(0);
    ms(longest)
}

/// CPU a thread role used between the two snapshots, µs. Roles are told
/// apart by the thread names the runtime and this harness give.
#[derive(Debug, Default, Clone, Copy)]
pub struct RoleCpu {
    pub primary: f64,
    pub replica: f64,
    pub reactor: f64,
    pub client: f64,
    pub other: f64,
}

pub fn role_cpu(timeline: &Timeline, primary: u32) -> RoleCpu {
    // The runtime names replica threads after the id's display form, `r0`.
    let primary_name = format!("replica-r{primary}");
    let by_role = |threads: &[(String, f64)]| {
        let mut out = RoleCpu::default();
        for (name, us) in threads {
            let role = if *name == primary_name {
                &mut out.primary
            } else if name.starts_with("replica-") {
                &mut out.replica
            } else if name.starts_with("reactor-") {
                &mut out.reactor
            } else if name.starts_with("client-") {
                &mut out.client
            } else {
                &mut out.other
            };
            *role += us;
        }
        out
    };
    // No thread starts or ends between the two snapshots, so per-role sums
    // can be subtracted without matching threads one by one.
    let (before, after) = (
        by_role(&timeline.threads_before),
        by_role(&timeline.threads_after),
    );
    RoleCpu {
        primary: after.primary - before.primary,
        replica: after.replica - before.replica,
        reactor: after.reactor - before.reactor,
        client: after.client - before.client,
        other: after.other - before.other,
    }
}

fn minus(after: &TransportCounters, before: &TransportCounters) -> TransportCounters {
    TransportCounters {
        messages_sent: after.messages_sent - before.messages_sent,
        bytes_sent: after.bytes_sent - before.bytes_sent,
        write_syscalls: after.write_syscalls - before.write_syscalls,
        vectored_writes: after.vectored_writes - before.vectored_writes,
        partial_writes: after.partial_writes - before.partial_writes,
        frames_coalesced: after.frames_coalesced - before.frames_coalesced,
        encodes_saved: after.encodes_saved - before.encodes_saved,
        connects: after.connects - before.connects,
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Everything the traced phase and the untraced reference phase before it
/// produced, ready to be reduced to the per-layer metrics.
pub struct TracedRun<'a> {
    /// `baselines` for the CFT workload, `core` otherwise.
    pub core_layer_is_baseline: bool,
    pub primary: u32,
    pub reference: &'a WindowView,
    pub traced: &'a WindowView,
    pub logs: &'a [ClientLog],
    pub timeline: &'a Timeline,
    pub ended: &'a Ended,
    pub verdict: &'a Verdict,
    pub unit: &'a UnitCosts,
    pub state_bytes: u64,
    pub spawn_ms: f64,
}

pub fn per_layer(run: &TracedRun) -> Vec<Metric> {
    let window_ops = run.traced.ops.max(1) as f64;
    let (from_ns, to_ns) = match (
        run.timeline.boundaries.first(),
        run.timeline.boundaries.last(),
    ) {
        (Some(first), Some(last)) => (first.0, last.0),
        _ => (0, u64::MAX),
    };
    // Counters read from the cores at shutdown cover the cluster's whole
    // life, so they are divided by every operation it completed.
    let life_ops = run
        .logs
        .iter()
        .map(|log| log.samples.len() as u64)
        .sum::<u64>()
        .max(1) as f64;
    let counters: &CoreCounters = &run.ended.counters;
    let telemetry: Telemetry = run.ended.telemetry.clone().unwrap_or_default();

    // Spans that started inside the window, per kind, summed over all
    // replicas; handler time of the view-0 primary on its own.
    let per_replica: Vec<_> = run
        .ended
        .spans
        .iter()
        .map(|spans| trace::totals(spans, from_ns, to_ns))
        .collect();
    let sum = |kind: SpanKind| {
        let mut out = trace::KindTotals::default();
        for totals in per_replica.iter().filter_map(|totals| totals.get(&kind)) {
            out.add(totals);
        }
        out.durations.sort_unstable();
        out
    };
    let handler = sum(SpanKind::Handler);
    let primary_handler_self_ns = per_replica
        .get(run.primary as usize)
        .and_then(|totals| totals.get(&SpanKind::Handler))
        .map_or(0, |totals| totals.self_ns);
    let execute = sum(SpanKind::AppExecute);
    let read = sum(SpanKind::AppRead);
    let digest = sum(SpanKind::AppDigest);
    let snapshot = sum(SpanKind::AppSnapshot);
    let append = sum(SpanKind::StoreAppend);
    let checkpoint = sum(SpanKind::StoreCheckpoint);
    let compact = sum(SpanKind::StoreCompact);
    // Recovery happens once, after the window, whenever the script says.
    let recover_ns: u64 = run
        .ended
        .spans
        .iter()
        .flatten()
        .filter(|span| span.kind == SpanKind::StoreRecover)
        .map(|span| span.dur_ns)
        .sum();
    let us_per_op = |ns: u64| ns as f64 / 1e3 / window_ops;

    let transport = minus(
        &run.timeline.transport_after,
        &run.timeline.transport_before,
    );
    let cpu = role_cpu(run.timeline, run.primary);
    let replica_threads_us = cpu.primary + cpu.replica;

    let reference = run.reference.throughput_kops.value;
    let traced = run.traced.throughput_kops.value;
    let overhead_pct = if reference > 0.0 {
        (1.0 - traced / reference) * 100.0
    } else {
        0.0
    };
    // The reference's own quartile spread, in the same unit: an overhead
    // inside it is not resolved by this run.
    let spread_pct = |view: &WindowView| {
        view.throughput_kops
            .spread
            .map_or(0.0, |spread| spread.spread() * 100.0)
    };
    let reads = counters.reads_served + counters.reads_refused;
    let phases = telemetry.phase_p50_us;

    // The agreement engine is `core` for the SeeMoRe modes and `baselines`
    // for CFT; each row is reported under the layer that did the work and as
    // zero under the other, so every workload prints the same names.
    let engine = [
        (
            "core.handler_us_per_op",
            "baselines.handler_us_per_op",
            "us",
            us_per_op(handler.self_ns),
        ),
        (
            "core.primary_handler_us_per_op",
            "baselines.primary_handler_us_per_op",
            "us",
            us_per_op(primary_handler_self_ns),
        ),
        (
            "core.handler_calls_per_op",
            "baselines.handler_calls_per_op",
            "count",
            handler.count as f64 / window_ops,
        ),
        (
            "core.msgs_sent_per_op",
            "baselines.msgs_sent_per_op",
            "count",
            counters.messages_sent as f64 / life_ops,
        ),
        (
            "core.bytes_sent_per_op",
            "baselines.bytes_sent_per_op",
            "B",
            counters.bytes_sent as f64 / life_ops,
        ),
    ];
    let mut out = Vec::new();
    for (core_name, baseline_name, unit, value) in engine {
        let (core, baseline) = if run.core_layer_is_baseline {
            (0.0, value)
        } else {
            (value, 0.0)
        };
        out.push(metric(core_name, unit, core));
        out.push(metric(baseline_name, unit, baseline));
    }
    out.extend([
        metric(
            "core.agreement_msgs_per_op",
            "count",
            counters.agreement_messages_sent as f64 / life_ops,
        ),
        metric(
            "core.rejected_msgs_per_op",
            "count",
            counters.rejected_messages as f64 / life_ops,
        ),
        metric("core.batch_mean_size", "count", counters.batch_mean_size),
        metric(
            "core.batch_timer_cut_share",
            "ratio",
            share(counters.batches_cut_by_timer, counters.batches),
        ),
        metric(
            "core.reads_fast_share",
            "ratio",
            share(counters.reads_served, reads),
        ),
        metric(
            "core.reads_refused_share",
            "ratio",
            share(counters.reads_refused, reads),
        ),
        metric("core.view_changes", "count", counters.view_changes as f64),
        metric(
            "core.view_change_max_ms",
            "ms",
            telemetry.view_change_max_ms,
        ),
        metric("core.rejoin_ms", "ms", telemetry.rejoin_ms),
        metric("core.wal_replayed", "count", telemetry.wal_replayed as f64),
        metric(
            "core.peak_log_instances",
            "count",
            counters.peak_log_instances as f64,
        ),
        metric(
            "core.follower_lag_max",
            "count",
            run.verdict.follower_lag_max as f64,
        ),
        // phase
        metric("phase.client_to_primary_p50_us", "us", phases[0]),
        metric("phase.batch_wait_p50_us", "us", phases[1]),
        metric("phase.agreement_p50_us", "us", phases[2]),
        metric("phase.execution_p50_us", "us", phases[3]),
        metric("phase.reply_p50_us", "us", phases[4]),
        metric(
            "phase.unexplained_p50_us",
            "us",
            run.traced.commit_p50_raw_us - phases.iter().sum::<f64>(),
        ),
        // Medians of skewed phases do not add up; means do, so this row is
        // near zero when the trace accounts for the whole latency.
        metric(
            "phase.unexplained_mean_us",
            "us",
            run.traced.commit_mean_raw_us - telemetry.phase_mean_us.iter().sum::<f64>(),
        ),
        // app
        metric("app.execute_us_per_op", "us", us_per_op(execute.total_ns)),
        metric(
            "app.read_us_per_read",
            "us",
            read.total_ns as f64 / 1e3 / read.count.max(1) as f64,
        ),
        metric("app.digest_us_per_op", "us", us_per_op(digest.total_ns)),
        metric("app.digest_ms_max", "ms", ms(digest.max_ns)),
        metric("app.snapshot_ms_max", "ms", ms(snapshot.max_ns)),
        metric("app.state_bytes", "B", run.state_bytes as f64),
        // store
        metric(
            "store.appends_per_op",
            "count",
            append.count as f64 / window_ops,
        ),
        metric(
            "store.append_us_p50",
            "us",
            stats::percentile(&append.durations, 0.5) as f64 / 1e3,
        ),
        metric(
            "store.append_us_p99",
            "us",
            stats::percentile(&append.durations, 0.99) as f64 / 1e3,
        ),
        metric("store.append_us_per_op", "us", us_per_op(append.total_ns)),
        metric("store.checkpoint_ms_max", "ms", ms(checkpoint.max_ns)),
        metric("store.compact_ms_max", "ms", ms(compact.max_ns)),
        metric("store.recover_ms", "ms", ms(recover_ns)),
        // net
        metric(
            "net.write_syscalls_per_op",
            "count",
            transport.write_syscalls as f64 / window_ops,
        ),
        metric(
            "net.msgs_per_op",
            "count",
            transport.messages_sent as f64 / window_ops,
        ),
        metric(
            "net.bytes_sent_per_op",
            "B",
            transport.bytes_sent as f64 / window_ops,
        ),
        metric(
            "net.encodes_saved_per_op",
            "count",
            transport.encodes_saved as f64 / window_ops,
        ),
        metric(
            "net.vectored_write_share",
            "ratio",
            share(transport.vectored_writes, transport.write_syscalls),
        ),
        metric(
            "net.frames_coalesced_per_op",
            "count",
            transport.frames_coalesced as f64 / window_ops,
        ),
        metric(
            "net.partial_writes",
            "count",
            transport.partial_writes as f64,
        ),
        metric(
            "net.connects",
            "count",
            run.timeline.transport_after.connects as f64,
        ),
        metric("net.rtt_us_p50", "us", run.unit.rtt_us_p50),
        // wire
        metric("wire.encode_ns", "ns", run.unit.encode_ns),
        metric("wire.decode_ns", "ns", run.unit.decode_ns),
        metric("wire.frame_bytes", "B", run.unit.frame_bytes as f64),
        // crypto
        metric("crypto.sign_ns", "ns", run.unit.sign_ns),
        metric("crypto.verify_ns", "ns", run.unit.verify_ns),
        metric(
            "crypto.verify_memo_hit_ns",
            "ns",
            run.unit.verify_memo_hit_ns,
        ),
        metric("crypto.digest_ns", "ns", run.unit.digest_ns),
        metric("crypto.digest_ns_per_kib", "ns", run.unit.digest_ns_per_kib),
        // telemetry
        metric("telemetry.trace_overhead_pct", "%", overhead_pct),
        metric(
            "telemetry.untraced_spread_pct",
            "%",
            spread_pct(run.reference),
        ),
        metric("telemetry.traced_spread_pct", "%", spread_pct(run.traced)),
        metric(
            "telemetry.events_per_op",
            "count",
            telemetry.events_recorded as f64 / life_ops,
        ),
        metric(
            "telemetry.events_dropped",
            "count",
            telemetry.events_dropped as f64,
        ),
        // runtime
        metric(
            "runtime.replica_cpu_us_per_op",
            "us",
            cpu.replica / window_ops,
        ),
        metric(
            "runtime.primary_cpu_us_per_op",
            "us",
            cpu.primary / window_ops,
        ),
        metric(
            "runtime.reactor_cpu_us_per_op",
            "us",
            cpu.reactor / window_ops,
        ),
        metric(
            "runtime.client_cpu_us_per_op",
            "us",
            cpu.client / window_ops,
        ),
        metric("runtime.other_cpu_us_per_op", "us", cpu.other / window_ops),
        metric(
            "runtime.total_cpu_us_per_op",
            "us",
            run.traced.cpu_us / window_ops,
        ),
        // The base of every per-operation row above, and the machine's
        // slowdown factor while they were measured. The rows of this run are
        // as measured; only the gated metrics (and the two throughputs behind
        // the tracing overhead) have the factor divided out.
        metric("runtime.window_ops", "count", run.traced.ops as f64),
        metric("runtime.slowdown_factor", "ratio", run.traced.slowdown),
        metric(
            "runtime.send_loop_us_per_op",
            "us",
            (replica_threads_us - handler.total_ns as f64 / 1e3) / window_ops,
        ),
        metric(
            "runtime.rss_growth_kb_per_kop",
            "kB",
            (run.timeline.rss_mb.1 - run.timeline.rss_mb.0) * 1024.0 / (window_ops / 1e3),
        ),
        metric("runtime.spawn_ms", "ms", run.spawn_ms),
        metric("runtime.shutdown_ms", "ms", run.ended.shutdown_ms),
        metric(
            "runtime.retransmissions_per_op",
            "count",
            run.logs.iter().map(|log| log.retransmissions).sum::<u64>() as f64 / life_ops,
        ),
        // End-to-end numbers that the driver cannot gate, because it wants
        // the same gated metrics, never zero, on every workload.
        metric(
            "e2e.read_p50_ms",
            "ms",
            run.reference
                .read_p50_ms
                .as_ref()
                .map_or(0.0, |metric| metric.value),
        ),
        metric(
            "e2e.unavail_ms",
            "ms",
            run.timeline
                .primary_crashed_ns
                .map_or(0.0, |crashed_ns| unavailable_ms(run.logs, crashed_ns)),
        ),
        metric(
            "e2e.failed_ops_share",
            "ratio",
            share(run.verdict.failed, run.verdict.attempted),
        ),
    ]);
    out
}

//! One workload, one process: the untraced run that yields the end-to-end
//! metrics, or the traced run that yields the per-layer metrics.

use crate::adapter;
use crate::check::{self, Verdict};
use crate::json::Json;
use crate::load::{Inputs, Schedule, Session};
use crate::measure::{self, Metric, TracedRun, WindowView};
use crate::stats;
use crate::workloads::{Protocol, Spec};
use std::io;
use std::path::Path;

/// Parts the measured window is cut into; each end-to-end value is the
/// median over them.
const SEGMENTS: usize = 5;

/// Set-ups (keygen, prefill, bind, spawn, first committed reply) per run;
/// `setup_s` is their median. The last one's cluster carries the load.
const SETUPS: usize = 5;

/// Share of `--seconds` the traced run spends on its untraced reference
/// window; the rest is the traced window.
const REFERENCE_SHARE: f64 = 0.3;

pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub verdict: Verdict,
}

impl Outcome {
    /// The line the driver reads: last on standard output.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::from(self.verdict.correct())),
            ("attempted", Json::from(self.verdict.attempted)),
            ("failed", Json::from(self.verdict.failed)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|metric| {
                    (
                        metric.name,
                        Json::obj([
                            ("value", Json::from(metric.value)),
                            ("unit", Json::from(metric.unit)),
                        ]),
                    )
                })),
            ),
        ])
        .line()
    }

    pub fn print(&self) {
        for metric in &self.metrics {
            let mut detail = match metric.spread {
                Some(spread) => format!(
                    "  (median of {SEGMENTS} segments, quartiles {:.4} .. {:.4}, {} samples",
                    spread.q1, spread.q3, metric.samples
                ),
                None if metric.samples > 0 => format!("  ({} samples", metric.samples),
                None => String::new(),
            };
            if let Some(raw) = metric.raw {
                detail.push_str(&format!("; {raw:.4} as measured"));
            }
            if !detail.is_empty() {
                detail.push(')');
            }
            println!(
                "{:<36} {:>14.4} {}{detail}",
                metric.name, metric.value, metric.unit
            );
        }
        for violation in &self.verdict.violations {
            println!("VIOLATION: {violation}");
        }
        println!(
            "checker: {} attempted, {} failed, outputs {}",
            self.verdict.attempted,
            self.verdict.failed,
            if self.verdict.correct() {
                "correct"
            } else {
                "WRONG"
            }
        );
    }
}

fn warmup_s(window_s: f64) -> f64 {
    (0.2 * window_s).min(1.0)
}

/// Opens a session, offers load, closes it and checks its outputs.
struct Phase {
    view: WindowView,
    logs: Vec<crate::load::ClientLog>,
    timeline: crate::load::Timeline,
    ended: Option<adapter::Ended>,
    verdict: Verdict,
    setup_s: f64,
    setup_s_raw: f64,
    spawn_ms: f64,
    primary: u32,
}

fn phase(
    spec: &Spec,
    seed: u64,
    store_dir: &Path,
    window_s: f64,
    traced: bool,
    faults: bool,
    setups: usize,
) -> io::Result<Phase> {
    let warmup_s = warmup_s(window_s);
    let inputs = Inputs::generate(spec, seed);
    let close = |session: Session| {
        let (logs, ended) = session.close();
        let replicas = ended.as_ref().map(|ended| ended.replicas.as_slice());
        let verdict = check::check(spec, &inputs.ops, &logs, replicas);
        (logs, ended, verdict)
    };
    let mut session = Session::open(spec, seed, &inputs, store_dir, traced)?;
    // Each set-up at reference machine speed, like the window's metrics.
    let mut setup_times = vec![session.setup_s / session.setup_slowdown];
    let mut setup_times_raw = vec![session.setup_s];
    let mut discarded = Verdict::default();
    for _ in 1..setups {
        discarded.merge(close(session).2);
        session = Session::open(spec, seed, &inputs, store_dir, traced)?;
        setup_times.push(session.setup_s / session.setup_slowdown);
        setup_times_raw.push(session.setup_s);
    }
    let (spawn_ms, primary) = (session.spawn_ms, session.primary());
    let timeline = session.run(
        spec,
        &inputs,
        Schedule {
            warmup_s,
            window_s,
            segments: SEGMENTS,
            faults,
        },
    );
    let (logs, ended, mut verdict) = close(session);
    verdict.merge(discarded);
    Ok(Phase {
        view: measure::window_view(&logs, &timeline),
        logs,
        timeline,
        ended,
        verdict,
        setup_s: stats::median(&setup_times),
        setup_s_raw: stats::median(&setup_times_raw),
        spawn_ms,
        primary,
    })
}

/// Tracing, wrappers and recorders off: the numbers a user of the system
/// would see.
pub fn end_to_end(spec: &Spec, seed: u64, seconds: f64, store_dir: &Path) -> io::Result<Outcome> {
    let phase = phase(
        spec,
        seed,
        store_dir,
        seconds,
        false,
        spec.faults_after_window,
        SETUPS,
    )?;
    let view = phase.view;
    let mut setup = measure::metric("setup_s", "s", phase.setup_s);
    setup.samples = SETUPS as u64;
    setup.raw = Some(phase.setup_s_raw);
    let metrics = vec![
        setup,
        view.throughput_kops,
        view.commit_p50_ms,
        view.commit_p99_ms,
        view.cpu_us_per_op,
        measure::metric("peak_rss_mb", "MB", phase.timeline.peak_rss_mb),
    ];
    if let Some(read) = &view.read_p50_ms {
        println!(
            "{:<36} {:>14.4} {}  (not gated: reported as e2e.read_p50_ms by --trace 1)",
            read.name, read.value, read.unit
        );
    }
    if let Some(crashed_ns) = phase.timeline.primary_crashed_ns {
        println!(
            "{:<36} {:>14.4} ms  (not gated: reported as e2e.unavail_ms by --trace 1)",
            "unavail_ms",
            measure::unavailable_ms(&phase.logs, crashed_ns)
        );
    }
    Ok(Outcome {
        metrics,
        verdict: phase.verdict,
    })
}

/// An untraced reference window, then the same workload with the timed
/// wrappers and event rings on, then the unit costs of the layers that cannot
/// be wrapped.
pub fn per_layer(spec: &Spec, seed: u64, seconds: f64, store_dir: &Path) -> io::Result<Outcome> {
    let reference = phase(
        spec,
        seed,
        store_dir,
        seconds * REFERENCE_SHARE,
        false,
        false,
        1,
    )?;
    let traced = phase(
        spec,
        seed,
        store_dir,
        seconds * (1.0 - REFERENCE_SHARE),
        true,
        spec.faults_after_window,
        1,
    )?;
    let mut verdict = reference.verdict;
    let traced_verdict = traced.verdict;
    let Some(ended) = &traced.ended else {
        verdict.merge(traced_verdict);
        return Ok(Outcome {
            metrics: Vec::new(),
            verdict,
        });
    };
    let batch_size = ended.counters.batch_mean_size.round().max(1.0) as usize;
    let unit = adapter::unit_costs(spec, seed, batch_size)?;
    let metrics = measure::per_layer(&TracedRun {
        core_layer_is_baseline: spec.protocol == Protocol::Cft,
        primary: traced.primary,
        reference: &reference.view,
        traced: &traced.view,
        logs: &traced.logs,
        timeline: &traced.timeline,
        ended,
        verdict: &traced_verdict,
        unit: &unit,
        state_bytes: adapter::state_bytes(spec),
        spawn_ms: traced.spawn_ms,
    });
    let overhead = metrics
        .iter()
        .find(|metric| metric.name == "telemetry.trace_overhead_pct")
        .map_or(0.0, |metric| metric.value);
    let spread = metrics
        .iter()
        .filter(|metric| metric.name.ends_with("_spread_pct"))
        .map(|metric| metric.value)
        .fold(0.0, f64::max);
    if overhead.abs() <= spread {
        println!(
            "tracing overhead {overhead:.2} % is inside the segment spread ({spread:.2} %): unresolved"
        );
    }
    verdict.merge(traced_verdict);
    Ok(Outcome { metrics, verdict })
}

//! Shared helpers for the simulator drivers and component micro-benches.
//!
//! Every table and figure of the paper's evaluation has a dedicated bench
//! target in `benches/` that runs on the deterministic simulator; this
//! library crate holds the formatting and sweep helpers they share. Run them
//! all with `cargo bench -p seemore-bench`, or individually with
//! `--bench fig2_fault_scalability`. Nothing here times the deployed socket
//! path: those numbers come from `examples/benchmark/` only.
//!
//! Set `SEEMORE_BENCH_QUICK=1` to shrink the sweeps (fewer client counts and
//! shorter simulated runs) for a fast smoke pass.

use seemore_runtime::{ProtocolKind, RunReport, Scenario};
use seemore_types::Duration;

/// Whether the quick (smoke) configuration was requested.
pub fn quick_mode() -> bool {
    std::env::var("SEEMORE_BENCH_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false)
}

/// The client counts swept for throughput/latency curves.
pub fn client_sweep() -> Vec<u32> {
    if quick_mode() {
        vec![2, 8, 24]
    } else {
        vec![1, 2, 4, 8, 16, 32]
    }
}

/// Simulated run length and warm-up used by the sweeps.
pub fn run_window() -> (Duration, Duration) {
    if quick_mode() {
        (Duration::from_millis(120), Duration::from_millis(30))
    } else {
        (Duration::from_millis(300), Duration::from_millis(75))
    }
}

/// One measured point of a throughput/latency curve.
#[derive(Debug, Clone)]
pub struct CurvePoint {
    /// Number of closed-loop clients.
    pub clients: u32,
    /// Measured throughput in thousands of requests per second.
    pub throughput_kreqs: f64,
    /// Mean end-to-end latency in milliseconds.
    pub latency_ms: f64,
}

/// Runs the standard client sweep for one protocol and payload configuration.
pub fn sweep_protocol(
    protocol: ProtocolKind,
    c: u32,
    m: u32,
    request_size: usize,
    reply_size: usize,
) -> Vec<CurvePoint> {
    let (duration, warmup) = run_window();
    client_sweep()
        .into_iter()
        .map(|clients| {
            let report: RunReport = Scenario::new(protocol, c, m)
                .with_clients(clients)
                .with_payload(request_size, reply_size)
                .with_duration(duration, warmup)
                .run();
            CurvePoint {
                clients,
                throughput_kreqs: report.throughput_kreqs,
                latency_ms: report.avg_latency_ms,
            }
        })
        .collect()
}

/// Prints one throughput/latency curve in a gnuplot-friendly layout.
pub fn print_curve(label: &str, points: &[CurvePoint]) {
    println!("# {label}");
    println!(
        "{:>8} {:>18} {:>14}",
        "clients", "throughput[kreq/s]", "latency[ms]"
    );
    for point in points {
        println!(
            "{:>8} {:>18.3} {:>14.3}",
            point.clients, point.throughput_kreqs, point.latency_ms
        );
    }
    println!();
}

/// Peak throughput of a curve (used for the summary comparisons).
pub fn peak_throughput(points: &[CurvePoint]) -> f64 {
    points
        .iter()
        .map(|p| p.throughput_kreqs)
        .fold(0.0, f64::max)
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("==============================================================");
    println!("{title}");
    println!("==============================================================");
}

/// Times a closure and returns the median nanoseconds per call over several
/// rounds (a lightweight stand-in for a statistical benchmark harness,
/// which is unavailable in the offline build environment).
///
/// The iteration count is auto-calibrated so each round runs for roughly a
/// millisecond; `_label` exists for readability at call sites.
pub fn time_op<F: FnMut()>(_label: &str, mut op: F) -> f64 {
    use std::time::Instant;

    // Calibrate: find an iteration count that takes ~1 ms.
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        let elapsed = start.elapsed();
        if elapsed.as_micros() >= 1_000 || iters >= 1 << 20 {
            break;
        }
        iters *= 4;
    }

    let rounds = 7;
    let mut samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                op();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[rounds / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_configuration_is_sane() {
        let sweep = client_sweep();
        assert!(!sweep.is_empty());
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
        let (duration, warmup) = run_window();
        assert!(duration > warmup);
    }

    #[test]
    fn peak_throughput_finds_the_maximum() {
        let points = vec![
            CurvePoint {
                clients: 1,
                throughput_kreqs: 1.0,
                latency_ms: 1.0,
            },
            CurvePoint {
                clients: 2,
                throughput_kreqs: 3.0,
                latency_ms: 1.5,
            },
            CurvePoint {
                clients: 4,
                throughput_kreqs: 2.0,
                latency_ms: 4.0,
            },
        ];
        assert_eq!(peak_throughput(&points), 3.0);
        assert_eq!(peak_throughput(&[]), 0.0);
    }
}

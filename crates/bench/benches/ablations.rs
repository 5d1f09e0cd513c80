//! Ablation benchmarks for the design choices called out in the repository's
//! `README.md` and the crate docs.
//!
//! These do not correspond to a single paper figure; they quantify the
//! individual mechanisms the paper credits for SeeMoRe's advantage. Every
//! sweep runs on the deterministic simulator (virtual time, fixed seeds), so
//! the printed numbers repeat exactly; numbers for the deployed socket path
//! come from `examples/benchmark/` only. (The numbering has a gap at 7:
//! `CHANGES.md` and `ROADMAP.md` cite the sweeps by number, so the numbers
//! stay put.)
//!
//! 1. **Trusted primary ⇒ one fewer phase** — Lion (2 phases) vs Peacock
//!    (3 phases) at identical failure bounds.
//! 2. **Proxy sub-cluster of 3m+1** — Dog (agreement among the public
//!    proxies only) vs S-UpRight (agreement among all 3m+2c+1 replicas).
//! 3. **Cryptography cost** — each mode with and without signature costs,
//!    isolating how much of the gap between CFT and the hybrid modes is
//!    crypto.
//! 4. **Checkpoint period sensitivity** — commit throughput as the
//!    checkpoint period shrinks.
//! 5. **Cross-cloud latency** — Lion vs Peacock as the distance between the
//!    private and public cloud grows (the motivation for mode switching).
//! 6. **Request batching** — throughput and latency of every protocol as
//!    `max_batch` sweeps 1 / 8 / 64 under a closed-loop load, measuring the
//!    batched-agreement refactor instead of asserting it.
//! 8. **Static vs adaptive batching** — the adaptive AIMD controller
//!    against both static extremes: `max_batch = 64` at low load (where the
//!    static policy makes every never-full batch wait out the flush delay)
//!    and `max_batch = 1` at high load (where the static policy pays one
//!    quorum round per request), with the controller's chosen batch sizes
//!    reported from `RunReport::batching`.
//! 9. **Mode-aware read fast path** — the replicated KV store under a
//!    read-fraction sweep, reads served through the fast path vs ordered
//!    like writes; hard-asserts Lion at `read_fraction = 0.9` reaching ≥ 2×
//!    the ordered-everything throughput.

use seemore_bench::{header, peak_throughput, quick_mode, run_window, sweep_protocol};
use seemore_net::{CpuModel, LatencyModel};
use seemore_runtime::{ProtocolKind, Scenario, Workload};
use seemore_types::Duration;

/// Applies one batching policy to a scenario (ablation 8's rows).
type PolicyFn = fn(Scenario, Duration) -> Scenario;

fn main() {
    let (duration, warmup) = run_window();
    let clients = if quick_mode() { 8 } else { 24 };

    header("Ablation 1: trusted primary (2 phases) vs untrusted primary (3 phases)");
    let lion = peak_throughput(&sweep_protocol(ProtocolKind::SeeMoReLion, 1, 1, 0, 0));
    let peacock = peak_throughput(&sweep_protocol(ProtocolKind::SeeMoRePeacock, 1, 1, 0, 0));
    println!("Lion peak    : {lion:.3} kreq/s");
    println!("Peacock peak : {peacock:.3} kreq/s");
    println!("Lion / Peacock = {:.2}\n", lion / peacock.max(1e-9));

    header("Ablation 2: 3m+1 proxies (Dog) vs full hybrid network (S-UpRight)");
    let dog = peak_throughput(&sweep_protocol(ProtocolKind::SeeMoReDog, 3, 1, 0, 0));
    let upright = peak_throughput(&sweep_protocol(ProtocolKind::SUpright, 3, 1, 0, 0));
    println!("Dog peak (c=3, m=1)       : {dog:.3} kreq/s");
    println!("S-UpRight peak (c=3, m=1) : {upright:.3} kreq/s");
    println!("Dog / S-UpRight = {:.2}\n", dog / upright.max(1e-9));

    header("Ablation 3: signature cost");
    for protocol in [
        ProtocolKind::SeeMoReLion,
        ProtocolKind::SeeMoReDog,
        ProtocolKind::Cft,
    ] {
        let with_crypto = Scenario::new(protocol, 1, 1)
            .with_clients(clients)
            .with_duration(duration, warmup)
            .run();
        let without_crypto = Scenario::new(protocol, 1, 1)
            .with_clients(clients)
            .with_duration(duration, warmup)
            .with_cpu(CpuModel::default().without_crypto())
            .run();
        println!(
            "{:<10} with crypto: {:>8.3} kreq/s   free crypto: {:>8.3} kreq/s   overhead: {:>5.1}%",
            protocol.name(),
            with_crypto.throughput_kreqs,
            without_crypto.throughput_kreqs,
            (1.0 - with_crypto.throughput_kreqs / without_crypto.throughput_kreqs.max(1e-9))
                * 100.0
        );
    }
    println!();

    header("Ablation 4: checkpoint period sensitivity (Lion, c = m = 1)");
    let periods: &[u64] = if quick_mode() {
        &[16, 1_000]
    } else {
        &[8, 32, 128, 1_000, 10_000]
    };
    for period in periods {
        let report = Scenario::new(ProtocolKind::SeeMoReLion, 1, 1)
            .with_clients(clients)
            .with_duration(duration, warmup)
            .with_checkpoint_period(*period)
            .run();
        println!(
            "checkpoint period {:>6}: {:>8.3} kreq/s, {:>7.3} ms avg latency",
            period, report.throughput_kreqs, report.avg_latency_ms
        );
    }
    println!();

    header("Ablation 5: cross-cloud latency and the case for the Peacock mode");
    let separations_ms: &[u64] = if quick_mode() {
        &[0, 10]
    } else {
        &[0, 2, 5, 10, 20]
    };
    println!(
        "{:>18} {:>14} {:>14} {:>14}",
        "cross-cloud [ms]", "Lion [ms]", "Dog [ms]", "Peacock [ms]"
    );
    for separation in separations_ms {
        let latency = if *separation == 0 {
            LatencyModel::same_region()
        } else {
            LatencyModel::geo_separated(*separation)
        };
        let mut row = Vec::new();
        for protocol in [
            ProtocolKind::SeeMoReLion,
            ProtocolKind::SeeMoReDog,
            ProtocolKind::SeeMoRePeacock,
        ] {
            let report = Scenario::new(protocol, 1, 1)
                .with_clients(4)
                .with_duration(duration, warmup)
                .with_latency(latency)
                .run();
            row.push(report.avg_latency_ms);
        }
        println!(
            "{:>18} {:>14.3} {:>14.3} {:>14.3}",
            separation, row[0], row[1], row[2]
        );
    }
    println!();
    println!(
        "# Shape check: once the clouds are far apart, the Peacock mode's extra phase\n\
         # inside the public cloud becomes cheaper than the Lion/Dog modes' cross-cloud\n\
         # round trips — the paper's stated reason for switching modes (Section 5.3)."
    );
    println!();

    header("Ablation 6: request batching (max_batch sweep, closed loop)");
    let batch_sizes: &[usize] = &[1, 8, 64];
    let batch_clients = if quick_mode() { 16 } else { 32 };
    println!(
        "{:<10} {:>10} {:>18} {:>14}",
        "protocol", "max_batch", "throughput[kreq/s]", "latency[ms]"
    );
    for protocol in [
        ProtocolKind::SeeMoReLion,
        ProtocolKind::SeeMoReDog,
        ProtocolKind::SeeMoRePeacock,
        ProtocolKind::Cft,
        ProtocolKind::Bft,
    ] {
        for max_batch in batch_sizes {
            let report = Scenario::new(protocol, 1, 1)
                .with_clients(batch_clients)
                .with_duration(duration, warmup)
                .with_batching(*max_batch, Duration::from_micros(100))
                .run();
            println!(
                "{:<10} {:>10} {:>18.3} {:>14.3}",
                protocol.name(),
                max_batch,
                report.throughput_kreqs,
                report.avg_latency_ms
            );
        }
    }
    println!();
    println!(
        "# Shape check: every protocol's throughput rises with max_batch because one\n\
         # slot of quorum traffic (proposal, votes, commit) orders the whole batch;\n\
         # per-request cost approaches the per-request floor (receive + execute + reply)."
    );
    println!();

    header("Ablation 8: static vs adaptive batching (chosen sizes reported)");
    // Low load (2 clients): the latency end of the curve, where a static
    // max_batch = 64 is wrong (every batch waits out the flush delay).
    // High load: the throughput end, where a static max_batch = 1 is wrong
    // (one quorum round per request). The adaptive controller must win both
    // ends with a single configuration: ceiling 64, 1 ms delay bound.
    // The delay bound is identical for every policy; "high load" needs
    // enough closed-loop clients to actually saturate the primary (below
    // saturation no batching policy can beat unbatched proposals).
    let delay = Duration::from_millis(1);
    let high_clients = if quick_mode() { 24 } else { 40 };
    println!(
        "{:<10} {:<14} {:>13} {:>13} {:>9} {:>9} {:>9} {:>11} {:>11}",
        "protocol",
        "policy",
        "low p50[ms]",
        "high[kreq/s]",
        "mean sz",
        "p50 sz",
        "max sz",
        "size cuts",
        "timer cuts"
    );
    for protocol in [
        ProtocolKind::SeeMoReLion,
        ProtocolKind::SeeMoReDog,
        ProtocolKind::SeeMoRePeacock,
        ProtocolKind::Cft,
        ProtocolKind::Bft,
    ] {
        let policies: [(&str, PolicyFn); 3] = [
            ("static-1", |s, d| s.with_batching(1, d)),
            ("static-64", |s, d| s.with_batching(64, d)),
            ("adaptive-64", |s, d| s.with_adaptive_batching(64, d)),
        ];
        for (label, policy) in policies {
            let low = policy(Scenario::new(protocol, 1, 1), delay)
                .with_clients(2)
                .with_duration(duration, warmup)
                .run();
            let high = policy(Scenario::new(protocol, 1, 1), delay)
                .with_clients(high_clients)
                .with_duration(duration, warmup)
                .run();
            println!(
                "{:<10} {:<14} {:>13.3} {:>13.3} {:>9.2} {:>9} {:>9} {:>11} {:>11}",
                protocol.name(),
                label,
                low.p50_latency_ms,
                high.throughput_kreqs,
                high.batching.mean_size,
                high.batching.p50_size,
                high.batching.max_size,
                high.batching.cut_by_size,
                high.batching.cut_by_timer
            );
        }
    }
    println!();
    println!(
        "# Shape check: adaptive-64 should match static-1's p50 at low load (the cap\n\
         # decays to ~1, so nothing waits out the 1 ms delay that hurts static-64) and\n\
         # approach static-64's throughput at high load (the cap grows toward the\n\
         # ceiling, visible in the chosen-size columns) — one policy, both ends of the\n\
         # load curve. The fixed knobs can only win one end each."
    );
    println!();

    header("Ablation 9: mode-aware read-only fast path (KV workload, read-fraction sweep)");
    // Every protocol runs the replicated KV store under a closed-loop
    // workload whose read fraction sweeps from write-only to read-dominated.
    // The `fast` column serves reads through the mode-aware fast path
    // (trusted-primary lease reads in Lion/Dog and CFT, 2m+1 quorum reads in
    // Peacock and BFT); the `ordered` column downgrades every read to the
    // ordered path — today's behaviour — on identical RNG draws.
    let read_fractions: &[f64] = &[0.0, 0.5, 0.9, 0.99];
    // Enough closed-loop clients to saturate the ordered path's primary —
    // the regime the fast path exists for (below saturation both arms are
    // latency-bound and the gap narrows).
    let read_clients = if quick_mode() { 32 } else { 48 };
    println!(
        "{:<10} {:>6} {:>15} {:>18} {:>9} {:>13} {:>13}",
        "protocol",
        "reads",
        "fast[kreq/s]",
        "ordered[kreq/s]",
        "speedup",
        "read p50[ms]",
        "write p50[ms]"
    );
    let mut lion_speedup_at_09 = 0.0f64;
    for protocol in [
        ProtocolKind::SeeMoReLion,
        ProtocolKind::SeeMoReDog,
        ProtocolKind::SeeMoRePeacock,
        ProtocolKind::Cft,
        ProtocolKind::Bft,
    ] {
        for fraction in read_fractions {
            let run = |fast: bool| {
                Scenario::new(protocol, 1, 1)
                    .with_clients(read_clients)
                    .with_duration(duration, warmup)
                    .with_workload(Workload::kv(256, 64, *fraction))
                    .with_read_fast_path(fast)
                    .run()
            };
            let fast = run(true);
            let ordered = run(false);
            let speedup = fast.throughput_kreqs / ordered.throughput_kreqs.max(1e-9);
            if protocol == ProtocolKind::SeeMoReLion && (*fraction - 0.9).abs() < 1e-9 {
                lion_speedup_at_09 = speedup;
            }
            println!(
                "{:<10} {:>6} {:>15.3} {:>18.3} {:>8.2}x {:>13.3} {:>13.3}",
                protocol.name(),
                fraction,
                fast.throughput_kreqs,
                ordered.throughput_kreqs,
                speedup,
                fast.reads.p50_latency_ms,
                fast.writes.p50_latency_ms
            );
        }
    }
    println!();
    println!(
        "# Shape check: at read_fraction = 0 the two columns are identical (bit-for-bit\n\
         # the same run); the fast column pulls ahead as the mix shifts toward reads,\n\
         # because a fast read costs one round trip to the lease-holding primary\n\
         # (Lion/Dog/CFT) or one broadcast round to the proxies (Peacock/BFT) instead\n\
         # of a full agreement instance. Lion at 0.9 must clear 2x."
    );
    assert!(
        lion_speedup_at_09 >= 2.0,
        "acceptance: Lion at read_fraction 0.9 must be at least 2x the ordered path \
         (measured {lion_speedup_at_09:.2}x)"
    );
}

//! Everything beyond one run of one workload: the whole suite (each run its
//! own child process, so peak memory and thread names start fresh),
//! `--compare` over two suite files, and `--selftest`.

use crate::check;
use crate::json::Json;
use crate::load::{Inputs, Schedule, Session};
use crate::stats;
use crate::workloads::{self, Spec};
use std::path::Path;
use std::process::{Command, Stdio};

/// The gated metrics, as `BENCHMARK.json` lists them: name, unit, whether
/// lower is better, and the share of the parent's median by which a later
/// change may worsen them. `--selftest` holds the file to this table.
pub const END_TO_END: [(&str, &str, bool, f64); 6] = [
    ("setup_s", "s", true, 0.25),
    ("throughput_kops", "kop/s", false, 0.2),
    ("commit_p50_ms", "ms", true, 0.2),
    ("commit_p99_ms", "ms", true, 0.25),
    ("cpu_us_per_op", "us", true, 0.2),
    ("peak_rss_mb", "MB", true, 0.1),
];

/// One child run: the parsed result line, or why there is none.
fn child(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    store_dir: &Path,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--store-dir")
        .arg(store_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run of {}: {e}", spec.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| {
        format!(
            "{} (seed {seed}, trace {}) printed no result ({e}); its output:\n{stdout}",
            spec.name, trace as u8
        )
    })?;
    if !output.status.success() {
        return Err(format!(
            "{} (seed {seed}, trace {}) exited with {}; its output:\n{stdout}",
            spec.name, trace as u8, output.status
        ));
    }
    Ok(result)
}

fn metrics_of(result: &Json) -> Vec<(String, f64, String)> {
    result
        .get("metrics")
        .and_then(Json::as_object)
        .unwrap_or_default()
        .iter()
        .map(|(name, metric)| {
            (
                name.clone(),
                metric
                    .get("value")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN),
                metric
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            )
        })
        .collect()
}

/// Runs every workload `repeat` times untraced (seeds `seed`, `seed + 1`, …)
/// and once traced, prints a table, and writes everything to `out`.
pub fn run_all(
    seed: u64,
    seconds: f64,
    repeat: u64,
    store_dir: &Path,
    out: Option<&Path>,
    environment: Json,
) -> Result<(), String> {
    let mut workloads_json = Vec::new();
    let mut all_correct = true;
    for spec in &workloads::ALL {
        let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
        let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
        let mut tally = |result: &Json| {
            attempted += result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
        };
        for round in 0..repeat {
            eprintln!("{}: run {} of {repeat}", spec.name, round + 1);
            let result = child(spec, seed + round, seconds, false, store_dir)?;
            tally(&result);
            for (name, value, unit) in metrics_of(&result) {
                match values.iter_mut().find(|(known, _, _)| *known == name) {
                    Some((_, _, seen)) => seen.push(value),
                    None => values.push((name, unit, vec![value])),
                }
            }
        }
        eprintln!("{}: traced run", spec.name);
        let traced = child(spec, seed, seconds, true, store_dir)?;
        tally(&traced);
        all_correct &= correct;

        println!("\n{}  —  {}", spec.name, spec.why);
        for (name, unit, seen) in &values {
            let q = stats::quartiles(seen);
            println!(
                "  {name:<34} {:>12.4} {unit:<6} quartiles {:.4} .. {:.4} over {} runs",
                q.median,
                q.q1,
                q.q3,
                seen.len()
            );
        }
        for (name, value, unit) in metrics_of(&traced) {
            println!("  {name:<34} {value:>12.4} {unit}");
        }
        println!(
            "  checker: {attempted} attempted, {failed} failed, outputs {}",
            if correct { "correct" } else { "WRONG" }
        );
        workloads_json.push((
            spec.name,
            Json::obj([
                ("why", Json::from(spec.why)),
                ("correct", Json::from(correct)),
                ("attempted", Json::from(attempted)),
                ("failed", Json::from(failed)),
                (
                    "end_to_end",
                    Json::obj(values.into_iter().map(|(name, unit, seen)| {
                        (
                            name,
                            Json::obj([
                                ("unit", Json::from(unit)),
                                (
                                    "values",
                                    Json::Arr(seen.into_iter().map(Json::from).collect()),
                                ),
                            ]),
                        )
                    })),
                ),
                (
                    "per_layer",
                    traced.get("metrics").cloned().unwrap_or(Json::Null),
                ),
            ]),
        ));
    }
    let document = Json::obj([
        ("environment", environment),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("repeat", Json::from(repeat)),
        ("workloads", Json::obj(workloads_json)),
    ]);
    if let Some(out) = out {
        std::fs::write(out, document.pretty())
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        println!("\nwrote {}", out.display());
    }
    if all_correct {
        Ok(())
    } else {
        Err("the checker found wrong outputs".to_string())
    }
}

/// Per workload and gated metric: both files' medians and quartiles, how much
/// worse the second is, and the bound. A difference beyond the bound fails;
/// where either side's own spread exceeds the bound the row is unresolved.
pub fn compare(first: &Path, second: &Path) -> Result<(), String> {
    let load = |path: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (a, b) = (load(first)?, load(second)?);
    for (label, doc) in [("A", &a), ("B", &b)] {
        let environment = doc.get("environment").map_or_else(String::new, Json::line);
        println!("{label}: {environment}");
    }
    println!(
        "\n{:<16} {:<16} {:>11} {:>21} {:>11} {:>21} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A quartiles",
        "B median",
        "B quartiles",
        "worse",
        "bound"
    );
    let values = |doc: &Json, workload: &str, metric: &str| -> Vec<f64> {
        doc.get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("end_to_end"))
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("values"))
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(Json::as_f64)
            .collect()
    };
    let (mut worse_rows, mut unresolved_rows) = (0, 0);
    for spec in &workloads::ALL {
        for (metric, _, lower_is_better, bound) in END_TO_END {
            let (va, vb) = (values(&a, spec.name, metric), values(&b, spec.name, metric));
            if va.is_empty() || vb.is_empty() {
                return Err(format!(
                    "{} {metric}: missing from one of the files",
                    spec.name
                ));
            }
            let (qa, qb) = (stats::quartiles(&va), stats::quartiles(&vb));
            let change = (qb.median - qa.median) / qa.median;
            let worse = if lower_is_better { change } else { -change };
            let verdict = if qa.spread() > bound || qb.spread() > bound {
                unresolved_rows += 1;
                "unresolved"
            } else if worse > bound {
                worse_rows += 1;
                "WORSE"
            } else {
                "ok"
            };
            println!(
                "{:<16} {:<16} {:>11.4} {:>10.4}..{:<9.4} {:>11.4} {:>10.4}..{:<9.4} {:>+7.1}% {:>5.0}%  {verdict}",
                spec.name,
                metric,
                qa.median,
                qa.q1,
                qa.q3,
                qb.median,
                qb.q1,
                qb.q3,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    println!("\n{worse_rows} worse than the bound, {unresolved_rows} unresolved (spread wider than the bound)");
    if worse_rows > 0 {
        Err("B is worse than A beyond a bound".to_string())
    } else {
        Ok(())
    }
}

/// Holds the program to `BENCHMARK.json`: every workload and metric named
/// there is emitted, finite, with its unit and a well-formed name; thread
/// CPU adds up; the input sampler matches its distribution; and the checker
/// catches corrupted outputs.
pub fn selftest(store_dir: &Path) -> Result<(), String> {
    workloads::zipf_selftest()?;
    println!("ok  zipf sampler matches its exact distribution");
    checker_catches_corruption(store_dir)?;
    println!("ok  checker accepts a clean run and catches three corruptions");

    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the current directory: {e}"))?;
    let contract = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let listed = |key: &str| -> Vec<(String, String)> {
        contract
            .get(key)
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .map(|entry| {
                let field = |name: &str| {
                    entry
                        .get(name)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let names: Vec<String> = listed("workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let ours: Vec<&str> = workloads::ALL.iter().map(|spec| spec.name).collect();
    if names != ours {
        return Err(format!(
            "BENCHMARK.json lists workloads {names:?}, the program has {ours:?}"
        ));
    }
    let gated = contract
        .get("end_to_end")
        .and_then(Json::as_array)
        .unwrap_or_default();
    let agrees = gated.len() == END_TO_END.len()
        && gated
            .iter()
            .zip(END_TO_END)
            .all(|(entry, (name, unit, lower_is_better, bound))| {
                let text = |key| entry.get(key).and_then(Json::as_str);
                text("name") == Some(name)
                    && text("unit") == Some(unit)
                    && text("better") == Some(if lower_is_better { "lower" } else { "higher" })
                    && entry.get("bound").and_then(Json::as_f64) == Some(bound)
            });
    if !agrees {
        return Err(format!(
            "BENCHMARK.json end_to_end differs from the program's {END_TO_END:?}"
        ));
    }
    println!("ok  BENCHMARK.json lists the program's workloads and gated metrics");

    for spec in &workloads::ALL {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = child(spec, 1, 2.0, trace, store_dir)?;
            if result.get("correct").and_then(Json::as_bool) != Some(true)
                || result.get("failed").and_then(Json::as_f64) != Some(0.0)
            {
                return Err(format!(
                    "{} (trace {}): operations failed",
                    spec.name, trace as u8
                ));
            }
            let emitted = metrics_of(&result);
            let wanted = listed(key);
            let emitted_names: Vec<&String> = emitted.iter().map(|(name, _, _)| name).collect();
            let wanted_names: Vec<&String> = wanted.iter().map(|(name, _)| name).collect();
            if emitted_names != wanted_names {
                let missing: Vec<_> = wanted_names
                    .iter()
                    .filter(|n| !emitted_names.contains(n))
                    .collect();
                let extra: Vec<_> = emitted_names
                    .iter()
                    .filter(|n| !wanted_names.contains(n))
                    .collect();
                return Err(format!(
                    "{} {key}: metrics differ from BENCHMARK.json (missing {missing:?}, unlisted {extra:?}, or out of order)",
                    spec.name
                ));
            }
            for ((name, value, unit), (_, wanted_unit)) in emitted.iter().zip(&wanted) {
                let well_formed = !name.is_empty()
                    && name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
                if !well_formed || !value.is_finite() || unit.is_empty() || unit != wanted_unit {
                    return Err(format!(
                        "{} {name}: value {value}, unit {unit:?} (BENCHMARK.json says {wanted_unit:?})",
                        spec.name
                    ));
                }
                if !trace && *value <= 0.0 {
                    return Err(format!(
                        "{} {name}: a gated metric must never be 0",
                        spec.name
                    ));
                }
            }
            if trace {
                let value = |wanted: &str| {
                    emitted
                        .iter()
                        .find(|(name, _, _)| name == wanted)
                        .map_or(0.0, |(_, value, _)| *value)
                };
                let roles: f64 = ["replica", "primary", "reactor", "client", "other"]
                    .iter()
                    .map(|role| value(&format!("runtime.{role}_cpu_us_per_op")))
                    .sum();
                let total = value("runtime.total_cpu_us_per_op");
                // /proc counts CPU in whole 10 ms ticks per thread, so this
                // short window can be off by about a tick for each of the
                // sixteen or so busy threads; a full-length run meets 5 %.
                let ticks = total * value("runtime.window_ops") / 10_000.0;
                if (roles - total).abs() > total * f64::max(0.05, 16.0 / ticks) {
                    return Err(format!(
                        "{}: thread roles add up to {roles:.1} us/op, the process used {total:.1}",
                        spec.name
                    ));
                }
            }
        }
        println!(
            "ok  {}: every listed metric emitted, finite, with its unit",
            spec.name
        );
    }
    Ok(())
}

/// A short real run, checked clean, then three ways of breaking its outputs.
fn checker_catches_corruption(store_dir: &Path) -> Result<(), String> {
    let spec = workloads::find("kv_mixed_loaded").expect("a workload of this program");
    let inputs = Inputs::generate(spec, 3);
    let mut session = Session::open(spec, 3, &inputs, store_dir, false)
        .map_err(|e| format!("self-test cluster: {e}"))?;
    session.run(
        spec,
        &inputs,
        Schedule {
            warmup_s: 0.1,
            window_s: 0.4,
            segments: 1,
            faults: false,
        },
    );
    let (mut logs, ended) = session.close();
    let replicas = ended
        .ok_or("self-test cluster could not be stopped")?
        .replicas;
    let verdict = |logs: &[crate::load::ClientLog], replicas: &[crate::adapter::ReplicaEnd]| {
        check::check(spec, &inputs.ops, logs, Some(replicas))
    };
    let clean = verdict(&logs, &replicas);
    if !clean.correct() || clean.failed != 0 {
        return Err(format!(
            "the checker rejects a clean run: {:?}",
            clean.violations
        ));
    }

    // A replica that computed a different result.
    let mut diverged = replicas.clone();
    let entry = diverged[2].history.len() / 2;
    diverged[2].history[entry].result_digest[0] ^= 1;
    if verdict(&logs, &diverged).correct() {
        return Err("the checker missed a replica with a diverging result".to_string());
    }

    // An acknowledged write that no replica executed.
    let lost = logs[1]
        .samples
        .iter()
        .find(|sample| !sample.read)
        .map(|sample| (sample.reply.client, sample.reply.timestamp))
        .ok_or("self-test run completed no write")?;
    let mut forgetful = replicas.clone();
    for replica in &mut forgetful {
        replica
            .history
            .retain(|entry| (entry.client, entry.timestamp) != lost);
    }
    if verdict(&logs, &forgetful).correct() {
        return Err("the checker missed a lost acknowledged write".to_string());
    }

    // A read that returned something other than the last write.
    let stale = logs[0]
        .samples
        .iter_mut()
        .find(|sample| sample.read)
        .ok_or("self-test run completed no read")?;
    if let Some(byte) = stale.reply.result.last_mut() {
        *byte ^= 1;
    }
    if verdict(&logs, &replicas).correct() {
        return Err("the checker missed a wrong read".to_string());
    }
    Ok(())
}

//! The benchmark behind `BENCHMARK.json`. See `README.md` beside this
//! package for workloads, metrics and how they interact.

mod adapter;
mod check;
mod json;
mod load;
mod measure;
mod procfs;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--store-dir DIR]
       benchmark [--seed N] [--seconds S] [--repeat R] [--out FILE] [--store-dir DIR]
       benchmark --compare A.json B.json
       benchmark --selftest
       benchmark --list

  --workload NAME   run one workload (--list prints them); without it, run the
                    whole suite: every workload --repeat times with tracing off
                    (seeds N, N+1, ..) and once traced, each in its own process
  --seed N          seed of every generated input (default 1)
  --seconds S       length of the measured window (default 12)
  --trace 0|1       0: end-to-end metrics, tracing off; 1: per-layer metrics
  --store-dir DIR   where lion_durable keeps its write-ahead logs (default
                    $CARGO_TARGET_DIR/benchmark-store, else target/benchmark-store)
  --repeat R        untraced runs per workload in a suite (default 1)
  --out FILE        write the suite's results, with the environment, as JSON
  --compare A B     compare two --out files metric by metric against the bounds
  --selftest        check this program against BENCHMARK.json (run from the
                    repository root) and its checker against corrupted outputs

One run prints, as the last line of standard output, one JSON object:
  {\"correct\": .., \"attempted\": .., \"failed\": .., \"metrics\": {name: {\"value\": .., \"unit\": ..}}}
";

enum Mode {
    One { workload: String, trace: bool },
    Suite { repeat: u64, out: Option<PathBuf> },
    Compare(PathBuf, PathBuf),
    Selftest,
    List,
}

struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    store_dir: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let mut out = Args {
        mode: Mode::Suite {
            repeat: 1,
            out: None,
        },
        seed: 1,
        seconds: 12.0,
        store_dir: target.join("benchmark-store"),
    };
    let (mut workload, mut trace, mut repeat, mut file) = (None, false, 1, None);
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--store-dir" => out.store_dir = PathBuf::from(value()?),
            "--repeat" => {
                repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--out" => file = Some(PathBuf::from(value()?)),
            "--compare" => {
                out.mode = Mode::Compare(PathBuf::from(value()?), PathBuf::from(value()?));
                return Ok(out);
            }
            "--selftest" => {
                out.mode = Mode::Selftest;
                return Ok(out);
            }
            "--list" => {
                out.mode = Mode::List;
                return Ok(out);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    out.mode = match workload {
        Some(workload) => Mode::One { workload, trace },
        None => Mode::Suite { repeat, out: file },
    };
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("{error}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before any thread exists, so that every thread inherits it.
    let pinned = procfs::pin_to_one_cpu();
    if pinned.is_none() {
        eprintln!("could not pin to one CPU: thread placement will add run-to-run spread");
    }
    let done = match args.mode {
        Mode::List => {
            for spec in &workloads::ALL {
                println!("{:<16} {}", spec.name, spec.why);
            }
            Ok(())
        }
        Mode::Compare(first, second) => suite::compare(&first, &second),
        Mode::Selftest => suite::selftest(&args.store_dir),
        Mode::Suite { repeat, out } => suite::run_all(
            args.seed,
            args.seconds,
            repeat,
            &args.store_dir,
            out.as_deref(),
            procfs::environment(&args.store_dir, pinned),
        ),
        Mode::One { workload, trace } => {
            let Some(spec) = workloads::find(&workload) else {
                eprintln!("unknown workload {workload}; --list names them");
                return ExitCode::from(2);
            };
            println!(
                "# {} seed {} window {} s trace {}",
                spec.name, args.seed, args.seconds, trace as u8
            );
            println!("# {}", procfs::environment(&args.store_dir, pinned).line());
            let outcome = if trace {
                run::per_layer(spec, args.seed, args.seconds, &args.store_dir)
            } else {
                run::end_to_end(spec, args.seed, args.seconds, &args.store_dir)
            };
            outcome.map_err(|e| e.to_string()).and_then(|outcome| {
                outcome.print();
                println!("{}", outcome.result_line());
                if outcome.verdict.correct() {
                    Ok(())
                } else {
                    Err("the checker found wrong outputs".to_string())
                }
            })
        }
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("benchmark: {error}");
            ExitCode::FAILURE
        }
    }
}

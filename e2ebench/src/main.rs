//! The benchmark's command line. See `e2ebench/README.md`.
//!
//! ```text
//! e2ebench --daemon PATH --workload NAME --seed N --seconds S --trace 0|1
//! e2ebench --daemon PATH --repeat N [--workload NAME] [--seconds S] [--trace 0|1]
//! e2ebench --write-reference
//! ```

use e2ebench::report::{provenance, Metric, Outcome};
use e2ebench::spec::{per_layer, workload, workloads, Kind, Workload, END_TO_END};
use e2ebench::stats::{median, quartiles};
use e2ebench::{sweep, timed, traced};
use serde::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

struct Args {
    daemon: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: Option<u64>,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        daemon: PathBuf::from("target/release/commalloc"),
        workload: None,
        seed: 1,
        seconds: 30,
        trace: false,
        repeat: None,
        write_reference: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--write-reference" {
            args.write_reference = true;
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag {
            "--daemon" => args.daemon = PathBuf::from(&value),
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(bad)? != 0,
            "--repeat" => args.repeat = Some(value.parse().map_err(bad)?),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    Ok(args)
}

/// The workload's fixed rates and limits, as a JSON object.
fn settings(w: &Workload) -> String {
    match &w.kind {
        Kind::Daemon(d) => format!(
            "{{\"low_jobs_per_s\": {:?}, \"high_jobs_per_s\": {:?}, \"latency_limit_ms\": {:?}, \
             \"lateness_limit_us\": {:?}, \"occupancy\": {:?}, \"framing\": \"{}\", \
             \"scheduler\": \"{}\", \"journal\": {}}}",
            d.low_jobs_per_s,
            d.high_jobs_per_s,
            d.latency_limit_ms,
            timed::LATENESS_LIMIT_US,
            d.occupancy,
            d.framing.as_str(),
            d.scheduler,
            d.journal
        ),
        Kind::Sweep(s) => format!(
            "{{\"jobs\": {}, \"loads\": [{:?}, {:?}], \"reference_seed\": {}}}",
            s.jobs, s.low_load, s.high_load, s.reference_seed
        ),
    }
}

/// Runs one workload once.
fn run_one(w: &Workload, args: &Args) -> std::io::Result<Outcome> {
    let seconds = args.seconds as f64;
    let placement = matches!(w.kind, Kind::Daemon(_)).then(e2ebench::daemon::pin_generator);
    let mut outcome = match (&w.kind, args.trace) {
        (Kind::Daemon(d), false) => timed::run(w.name, d, &args.daemon, args.seed, seconds)?,
        (Kind::Daemon(d), true) => traced::run(w.name, d, &args.daemon, args.seed, seconds)?,
        (Kind::Sweep(s), false) => sweep::run(s, args.seed, seconds),
        (Kind::Sweep(s), true) => {
            let (metrics, notes) = sweep::layers(s, args.seed);
            let attempted = metrics.iter().map(|m| m.samples).max().unwrap_or(1);
            Outcome {
                correct: true,
                attempted,
                failed: 0,
                metrics,
                notes,
            }
        }
    };
    if let Some(p) = placement {
        outcome.notes.insert(0, format!("placement: {p}"));
    }
    // Every metric of the mode, in the benchmark's order; a per-layer
    // metric whose layer this workload bypasses reads 0.
    let expected: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let mut ordered = Vec::with_capacity(expected.len());
    for (name, unit) in expected {
        match outcome.metrics.iter().position(|m| m.name == name) {
            Some(i) => ordered.push(outcome.metrics.swap_remove(i)),
            None if args.trace => ordered.push(Metric::new(name, 0.0, unit)),
            None => panic!("{}: end-to-end metric {name} was not measured", w.name),
        }
    }
    assert!(
        outcome.metrics.is_empty(),
        "{}: metrics outside the benchmark's list: {:?}",
        w.name,
        outcome.metrics
    );
    outcome.metrics = ordered;
    Ok(outcome)
}

/// The metrics `BENCHMARK.json` lists under `section` (`end_to_end` or
/// `per_layer`), with their bounds (NaN where none is set); `None` when
/// the file is absent or unreadable.
fn listed(section: &str) -> Option<Vec<(String, f64)>> {
    let text = std::fs::read_to_string("BENCHMARK.json").ok()?;
    let v = serde_json::from_str::<Value>(&text).ok()?;
    let entries = v.get(section)?.as_array()?;
    Some(
        entries
            .iter()
            .filter_map(|m| {
                let name = m.get("name")?.as_str()?.to_string();
                Some((
                    name,
                    m.get("bound").and_then(Value::as_f64).unwrap_or(f64::NAN),
                ))
            })
            .collect(),
    )
}

/// Runs each selected workload `n` times (seeds 1..=n) as child
/// processes and prints each metric's median and quartiles beside its
/// bound. Fails if any run fails or is incorrect.
fn repeat(args: &Args, n: u64) -> ExitCode {
    let selected: Vec<Workload> = match &args.workload {
        Some(name) => workload(name).into_iter().collect(),
        None => workloads().into_iter().filter(|w| w.listed).collect(),
    };
    let exe = std::env::current_exe().expect("own path");
    let bounds = listed("end_to_end").unwrap_or_default();
    let mut ok = true;
    for w in &selected {
        let mut runs: Vec<Value> = Vec::new();
        for seed in 1..=n {
            let out = Command::new(&exe)
                .args([
                    "--daemon",
                    &args.daemon.to_string_lossy(),
                    "--workload",
                    w.name,
                ])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &args.seconds.to_string(),
                ])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .output();
            let last = out
                .as_ref()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| {
                    String::from_utf8_lossy(&o.stdout)
                        .lines()
                        .last()
                        .map(str::to_string)
                })
                .and_then(|l| serde_json::from_str::<Value>(&l).ok());
            match last {
                Some(v) if v.get("correct").and_then(Value::as_bool) == Some(true) => runs.push(v),
                other => {
                    ok = false;
                    println!(
                        "{} seed {seed}: FAILED {}",
                        w.name,
                        other.map(|v| format!("{v:?}")).unwrap_or_default()
                    );
                }
            }
        }
        println!("{} ({} runs of {} s)", w.name, runs.len(), args.seconds);
        println!(
            "  {:<44} {:>14} {:>14} {:>14} {:>8} {:>7}",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        let names: Vec<String> = runs
            .first()
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_object)
            .map(|m| m.iter().map(|(k, _)| k.clone()).collect())
            .unwrap_or_default();
        for name in names {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get("metrics")?.get(&name)?.get("value")?.as_f64())
                .collect();
            let med = median(&values);
            let (q1, q3) = quartiles(&values);
            let bound = bounds.iter().find(|(b, _)| *b == name).map(|b| b.1);
            println!(
                "  {:<44} {:>14.6} {:>14.6} {:>14.6} {:>8.4} {:>7}",
                name,
                med,
                q1,
                q3,
                (q3 - q1) / med.abs(),
                bound.map_or("-".to_string(), |b| format!("{b}"))
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.write_reference {
        for w in workloads() {
            if let Kind::Sweep(s) = &w.kind {
                if let Err(e) = std::fs::write(sweep::REFERENCE, sweep::reference_text(s)) {
                    eprintln!("e2ebench: {}: {e}", sweep::REFERENCE);
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }
    if let Some(n) = args.repeat {
        return repeat(&args, n);
    }
    let Some(w) = args.workload.as_deref().and_then(workload) else {
        eprintln!(
            "e2ebench: unknown or missing --workload {:?}",
            args.workload
        );
        return ExitCode::from(2);
    };
    // Taken before the run pins this process, which narrows the CPU count
    // the process itself can see.
    let provenance = provenance(w.name, args.seed, args.seconds, args.trace, &settings(&w));
    let outcome = match run_one(&w, &args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };
    println!("{provenance}");
    for note in &outcome.notes {
        println!("# {note}");
    }
    print!("{}", outcome.table());
    // The result line carries the metrics BENCHMARK.json lists for the
    // mode (all of them when it is absent); the table above has the rest.
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let names = listed(section);
    println!(
        "{}",
        outcome.result_line(|name| names
            .as_ref()
            .is_none_or(|n| n.iter().any(|(m, _)| m == name)))
    );
    ExitCode::SUCCESS
}

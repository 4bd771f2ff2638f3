//! The timed (untraced) run of a daemon workload: set-up, the fixed low
//! and high rates, then a search for the highest rate that meets the
//! latency limit.

use crate::daemon::{timed_setup, Daemon};
use crate::drive::{call, drive_phase, PhaseResult};
use crate::plan::PhasePlan;
use crate::report::{Metric, Outcome};
use crate::spec::DaemonSpec;
use crate::stats::{median, percentile};
use crate::tracker::{Counts, Grant, Tracker};
use commalloc_service::score::predicted_contention_2d;
use commalloc_service::{Request, Response};
use commalloc_workload::CommPattern;
use std::io;
use std::net::TcpStream;
use std::path::Path;

/// Daemon start-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;
/// Share of each phase's arrival window discarded as warm-up.
const WARMUP: f64 = 0.15;
/// Rounds of (low, high) fixed-rate phases per run.
const ROUNDS: u32 = 16;
/// Share of the run spent at the fixed rates; the rest probes `max_rps`.
const FIXED_SHARE: f64 = 0.6;
/// Probes of the `max_rps` search.
const PROBES: u32 = 6;
/// The `max_rps` search looks between the high rate and this multiple
/// of it.
const PROBE_CEILING: f64 = 2.5;
/// Generator lateness (p99) above which a fixed-rate phase is invalid.
pub const LATENESS_LIMIT_US: f64 = 50_000.0;
/// A phase stops its arrivals once an answer is overdue by this many
/// latency limits.
const ABORT_FACTOR: f64 = 20.0;
/// Most grants scored for `contention_mean`.
const SCORED_GRANTS: usize = 4000;

/// Latency statistics of one phase's measurement window (the arrival
/// window minus its warm-up).
#[derive(Debug, Clone, Copy)]
pub struct PhaseStats {
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Median latency of the last third of the window, ms; a growing
    /// backlog drives it up.
    pub tail_p50_ms: f64,
    /// Samples in the window.
    pub samples: u64,
    /// Requests due in the window per second.
    pub offered_rps: f64,
    /// p99 of send-minus-due, µs.
    pub late_p99_us: f64,
    /// Arrivals were cut short by overload.
    pub aborted: bool,
    /// Requests never answered.
    pub unanswered: u64,
}

impl PhaseStats {
    /// Statistics of `result` over the measurement window of `plan`.
    pub fn of(result: &PhaseResult, plan: &PhasePlan) -> PhaseStats {
        let from = (plan.window_ns as f64 * WARMUP) as u64;
        let to = plan.window_ns;
        let tail_from = to - (to - from) / 3;
        let ms = |range: std::ops::Range<u64>| -> Vec<f64> {
            result
                .samples
                .iter()
                .filter(|s| range.contains(&s.due_ns))
                .map(|s| s.latency_ns as f64 / 1e6)
                .collect()
        };
        let lat = ms(from..to);
        let late: Vec<f64> = result
            .lateness_ns
            .iter()
            .filter(|(due, _)| (from..to).contains(due))
            .map(|&(_, l)| l as f64 / 1e3)
            .collect();
        let seconds = (to - from) as f64 / 1e9;
        PhaseStats {
            p50_ms: percentile(&lat, 0.5),
            p99_ms: percentile(&lat, 0.99),
            tail_p50_ms: percentile(&ms(tail_from..to), 0.5),
            samples: lat.len() as u64,
            offered_rps: lat.len() as f64 / seconds,
            late_p99_us: percentile(&late, 0.99),
            aborted: result.aborted,
            unanswered: result.unanswered,
        }
    }

    /// The phase meets `limit_ms` at p99 without a growing backlog.
    pub fn meets(&self, limit_ms: f64) -> bool {
        !self.aborted
            && self.unanswered == 0
            && self.p99_ms <= limit_ms
            && self.tail_p50_ms <= limit_ms
    }

    /// The generator kept its schedule well enough for the phase to be
    /// scored.
    pub fn valid(&self) -> bool {
        self.late_p99_us <= LATENESS_LIMIT_US
    }

    /// One-line summary.
    pub fn describe(&self, rate: f64) -> String {
        format!(
            "{rate:.0} jobs/s: {:.0} req/s, p50 {:.3} ms, p99 {:.3} ms (last third p50 {:.3}), \
             late p99 {:.0} us{}",
            self.offered_rps,
            self.p50_ms,
            self.p99_ms,
            self.tail_p50_ms,
            self.late_p99_us,
            if self.aborted { ", aborted" } else { "" }
        )
    }
}

/// Runs `plan` and checks the drain: every job released, every member
/// empty. Violations found by the drain are counted and explained in
/// `notes`.
pub fn run_phase(
    stream: &mut TcpStream,
    spec: &DaemonSpec,
    plan: &PhasePlan,
    tracker: &mut Tracker,
    notes: &mut Vec<String>,
) -> io::Result<PhaseResult> {
    let abort_ns = (spec.latency_limit_ms * ABORT_FACTOR * 1e6) as u64;
    let result = drive_phase(stream, spec, plan, tracker, abort_ns)?;
    if tracker.live_jobs() > 0 {
        tracker.counts.violations += 1;
        notes.push(format!(
            "VIOLATION: {} jobs still claimed after the drain",
            tracker.live_jobs()
        ));
    }
    for member in spec.members {
        let query = Request::Query {
            machine: member.name.to_string(),
        };
        let snapshot = match call(stream, spec.framing, &query)? {
            Response::Snapshot(v) => v,
            other => {
                tracker.counts.errors += 1;
                notes.push(format!("ERROR: query {} answered {other:?}", member.name));
                continue;
            }
        };
        let field = |k: &str| snapshot.get(k).and_then(|v| v.as_u64()).unwrap_or(u64::MAX);
        if field("busy") != 0 {
            tracker.counts.violations += 1;
            notes.push(format!(
                "VIOLATION: {} still holds {} nodes in {} jobs ({} queued) after the client \
                 released every grant it was told of",
                member.name,
                field("busy"),
                field("live_jobs"),
                field("queue_len")
            ));
        }
    }
    Ok(result)
}

/// Mean predicted contention of (a deterministic sample of) `grants`,
/// each scored with its declared pattern, all-to-all when it declared
/// none. Returns the mean and the scoring time per grant in µs.
pub fn contention_mean(
    spec: &DaemonSpec,
    plans: &[&PhasePlan],
    grants: &[Grant],
) -> (f64, f64, u64) {
    let stride = grants.len().div_ceil(SCORED_GRANTS).max(1);
    let pattern_of = |job: u64| {
        plans
            .iter()
            .find_map(|p| p.index_of(job).map(|i| p.jobs[i].pattern))
            .flatten()
            .unwrap_or(CommPattern::AllToAll)
    };
    let start = std::time::Instant::now();
    let scores: Vec<f64> = grants
        .iter()
        .step_by(stride)
        .map(|g| {
            let mesh = spec.members[g.member].mesh();
            predicted_contention_2d(mesh, &g.nodes, pattern_of(g.job), g.job).total()
        })
        .collect();
    let per_grant_us = start.elapsed().as_secs_f64() * 1e6 / scores.len().max(1) as f64;
    (
        crate::stats::mean(&scores),
        per_grant_us,
        scores.len() as u64,
    )
}

/// Runs `f` with a fresh scratch directory for journals under
/// `.bench_tmp/` in the working directory, and removes it afterwards
/// (`.bench_tmp/` too, once empty).
pub fn with_scratch<T>(workload: &str, f: impl FnOnce(&Path) -> io::Result<T>) -> io::Result<T> {
    let root = Path::new(".bench_tmp");
    let dir = root.join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let result = f(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(root);
    result
}

/// Starts [`SETUPS`] daemons, keeps the last, and returns it with its
/// connection and the median set-up time.
pub fn setup(
    binary: &Path,
    spec: &DaemonSpec,
    scratch: &Path,
) -> io::Result<(Daemon, TcpStream, f64)> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for i in 0..SETUPS {
        let journal = spec.journal.then(|| scratch.join(format!("journal-{i}")));
        let (daemon, stream, seconds) = timed_setup(binary, spec, journal.as_deref())?;
        times.push(seconds);
        kept = Some((daemon, stream));
    }
    let (daemon, stream) = kept.expect("at least one set-up");
    Ok((daemon, stream, median(&times)))
}

/// The timed run of daemon workload `name`.
pub fn run(
    name: &str,
    spec: &DaemonSpec,
    binary: &Path,
    seed: u64,
    seconds: f64,
) -> io::Result<Outcome> {
    with_scratch(name, |scratch| {
        run_in(name, spec, binary, seed, seconds, scratch)
    })
}

/// The rounds of one rate that are scored: those where the generator kept
/// its schedule. `None` when they are not a majority: the run is invalid.
pub fn scored_rounds(rounds: &[PhaseStats]) -> Option<Vec<PhaseStats>> {
    let kept: Vec<PhaseStats> = rounds.iter().filter(|s| s.valid()).copied().collect();
    (2 * kept.len() > rounds.len()).then_some(kept)
}

/// Median over rounds of one statistic.
fn median_of(rounds: &[PhaseStats], f: impl Fn(&PhaseStats) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

fn run_in(
    name: &str,
    spec: &DaemonSpec,
    binary: &Path,
    seed: u64,
    seconds: f64,
    scratch: &Path,
) -> io::Result<Outcome> {
    let (daemon, mut stream, setup_s) = setup(binary, spec, scratch)?;
    let mut tracker = Tracker::new(spec);
    let mut notes = Vec::new();
    let mut sent = 0u64;
    let mut unanswered = 0u64;

    // The fixed rates, alternating low and high so that a slow spell of
    // the host lands on both.
    let rates = [spec.low_jobs_per_s, spec.high_jobs_per_s];
    let round_seconds = seconds * FIXED_SHARE / (2 * ROUNDS) as f64;
    let mut all: [Vec<PhaseStats>; 2] = [Vec::new(), Vec::new()];
    let mut plans = Vec::new();
    let cpu_before = daemon.cpu_seconds();
    for round in 0..ROUNDS {
        for (k, &rate) in rates.iter().enumerate() {
            let plan = PhasePlan::draw(name, spec, seed, 2 * round + k as u32, rate, round_seconds);
            let result = run_phase(&mut stream, spec, &plan, &mut tracker, &mut notes)?;
            let stats = PhaseStats::of(&result, &plan);
            sent += result.sent;
            unanswered += result.unanswered;
            notes.push(format!("round {round}: {}", stats.describe(rate)));
            if !stats.valid() {
                notes.push(format!(
                    "not scored: generator lateness p99 {:.0} us exceeds {LATENESS_LIMIT_US} us",
                    stats.late_p99_us
                ));
            }
            all[k].push(stats);
            plans.push(plan);
        }
    }
    let fixed_cpu_s = daemon
        .cpu_seconds()
        .zip(cpu_before)
        .map_or(f64::NAN, |(a, b)| a - b);
    let fixed_counts = tracker.counts;
    let scored: Vec<Option<Vec<PhaseStats>>> = all.iter().map(|r| scored_rounds(r)).collect();
    let valid = scored.iter().all(Option::is_some);
    if !valid {
        notes.push("INVALID: too few rounds kept the generator on schedule".to_string());
    }
    // An invalid run still reports its figures, over every round.
    let rounds: Vec<Vec<PhaseStats>> = scored
        .into_iter()
        .zip(&all)
        .map(|(kept, every)| kept.unwrap_or_else(|| every.clone()))
        .collect();

    // Bisect for the highest rate meeting the latency limit, between the
    // highest fixed rate whose median round met it and PROBE_CEILING times
    // the high rate.
    let fixed_meets = |r: &[PhaseStats]| {
        r.iter().all(|s| !s.aborted && s.unanswered == 0)
            && median_of(r, |s| s.p99_ms) <= spec.latency_limit_ms
            && median_of(r, |s| s.tail_p50_ms) <= spec.latency_limit_ms
    };
    // (rate, measured requests/s) of the best passing phase.
    let mut best: Option<(f64, f64)> = None;
    for (k, r) in rounds.iter().enumerate() {
        if fixed_meets(r) {
            best = Some((rates[k], median_of(r, |s| s.offered_rps)));
        }
    }
    let (mut lo, mut hi) = (
        best.map_or(0.0, |b| b.0),
        PROBE_CEILING * spec.high_jobs_per_s,
    );
    let probe_seconds = seconds * (1.0 - FIXED_SHARE) / PROBES as f64;
    for probe in 0..PROBES {
        let rate = (lo + hi) / 2.0;
        let plan = PhasePlan::draw(name, spec, seed, 2 * ROUNDS + probe, rate, probe_seconds);
        let result = run_phase(&mut stream, spec, &plan, &mut tracker, &mut notes)?;
        let stats = PhaseStats::of(&result, &plan);
        sent += result.sent;
        unanswered += result.unanswered;
        notes.push(format!("probe {probe}: {}", stats.describe(rate)));
        if stats.meets(spec.latency_limit_ms) {
            lo = rate;
            best = Some((rate, stats.offered_rps));
        } else {
            hi = rate;
        }
    }
    let peak_rss_mb = daemon.peak_rss_mb().unwrap_or(f64::NAN);
    drop(stream);
    drop(daemon);

    // Placement quality and refusals come from replaying the fixed-rate
    // stream in-process on a virtual clock: they then depend on placement
    // decisions alone, not on how late the host let a release arrive.
    let placed = crate::traced::placements(spec, &plans);
    let plan_refs: Vec<&PhasePlan> = plans.iter().collect();
    let (contention, _, scored) = contention_mean(spec, &plan_refs, &placed.grants);
    let refused = |c: &Counts| (c.rejected + c.queued) as f64 / c.allocs.max(1) as f64;
    notes.push(format!(
        "refused allocs: {:.5} replayed, {:.5} over TCP",
        refused(&placed.counts),
        refused(&fixed_counts)
    ));
    let counts = tracker.counts;
    let failed = counts.errors + counts.violations + unanswered;
    let max_rps = best.map_or(0.0, |b| b.1);
    notes.push(counts.describe(unanswered));
    notes.push(format!(
        "error_rate = {failed} / {sent} = {}",
        failed as f64 / sent.max(1) as f64
    ));
    let samples = |r: &[PhaseStats]| r.iter().map(|s| s.samples).sum::<u64>();
    let (low, high) = (&rounds[0], &rounds[1]);
    let fixed_seconds = seconds * FIXED_SHARE;
    let metrics = vec![
        Metric::sampled("setup_s", setup_s, "s", SETUPS as u64),
        Metric::sampled(
            "p50_ms.low",
            median_of(low, |s| s.p50_ms),
            "ms",
            samples(low),
        ),
        Metric::sampled(
            "p99_ms.low",
            median_of(low, |s| s.p99_ms),
            "ms",
            samples(low),
        ),
        Metric::sampled(
            "p50_ms.high",
            median_of(high, |s| s.p50_ms),
            "ms",
            samples(high),
        ),
        Metric::sampled(
            "p99_ms.high",
            median_of(high, |s| s.p99_ms),
            "ms",
            samples(high),
        ),
        Metric::new("max_rps", max_rps, "1/s"),
        Metric::sampled(
            "cpu_us_per_op",
            fixed_cpu_s * 1e6 / fixed_counts.answered.max(1) as f64,
            "us",
            fixed_counts.answered,
        ),
        Metric::sampled(
            "reject_rate",
            refused(&placed.counts),
            "ratio",
            placed.counts.allocs,
        ),
        Metric::sampled("contention_mean", contention, "score", scored),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
        Metric::sampled(
            "sweep_jobs_per_s",
            (fixed_counts.granted + fixed_counts.granted_from_queue) as f64 / fixed_seconds,
            "1/s",
            fixed_counts.allocs,
        ),
    ];
    Ok(Outcome {
        correct: failed == 0 && valid,
        attempted: sent,
        failed,
        metrics,
        notes,
    })
}

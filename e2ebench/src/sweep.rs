//! The in-process `paper_sweep` workload: a slice of the paper's Figure 8
//! (16 × 16 mesh, the paper's allocators × its patterns, two loads) run
//! through `commalloc::experiment::LoadSweep` on a synthetic Paragon trace.

use crate::report::{Metric, Outcome};
use crate::spec::{slug, SweepSpec};
use crate::stats::{mean, median, percentile};
use commalloc::engine::{simulate, simulate_logged, SimConfig};
use commalloc::experiment::{ExperimentPoint, LoadSweep, SweepResult};
use commalloc_alloc::{AllocRequest, AllocatorKind, MachineState};
use commalloc_mesh::{CurveKind, CurveOrder, Mesh2D};
use commalloc_workload::synthetic::ParagonTraceModel;
use commalloc_workload::{CommPattern, Trace};
use std::hint::black_box;
use std::time::Instant;

/// The committed reference result, relative to the repository root.
pub const REFERENCE: &str = "e2ebench/reference/paper_sweep.txt";
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;
/// Share of the run spent repeating the parallel sweep.
const SWEEP_SHARE: f64 = 0.55;
/// Runs of each configuration alone.
const PASSES: usize = 3;

fn mesh() -> Mesh2D {
    Mesh2D::square_16x16()
}

/// The sweep slice for `seed`.
pub fn sweep(spec: &SweepSpec, seed: u64) -> LoadSweep {
    let mut sweep = LoadSweep::paper_figure(mesh());
    sweep.load_factors = vec![spec.low_load, spec.high_load];
    sweep.seed = seed;
    sweep
}

/// The synthetic Paragon trace. It is drawn from the reference seed for
/// every run: at this size, traces drawn from different seeds differ in
/// simulation cost by up to 2×, more than any bound could absorb. The
/// run's seed drives the simulation's own random draws instead.
pub fn trace(spec: &SweepSpec) -> Trace {
    ParagonTraceModel::scaled(spec.jobs).generate(spec.reference_seed)
}

/// Every configuration in `LoadSweep::run`'s order.
fn configs(sweep: &LoadSweep) -> Vec<(CommPattern, AllocatorKind, f64)> {
    let mut out = Vec::new();
    for &p in &sweep.patterns {
        for &a in &sweep.allocators {
            for &l in &sweep.load_factors {
                out.push((p, a, l));
            }
        }
    }
    out
}

fn config(sweep: &LoadSweep, pattern: CommPattern, allocator: AllocatorKind) -> SimConfig {
    SimConfig {
        mesh: sweep.mesh,
        pattern,
        allocator,
        scheduler: sweep.scheduler,
        fidelity: sweep.fidelity,
        link_capacity: sweep.link_capacity,
        per_hop_overhead: sweep.per_hop_overhead,
        seed: sweep.seed,
    }
}

/// Exact text form of a sweep result: one line per point, every float
/// in its shortest round-trip form.
pub fn render(result: &SweepResult) -> String {
    let mut out = String::new();
    for p in &result.points {
        out.push_str(&format!(
            "{}\t{}\t{:?}\t{:?}\t{:?}\t{:?}\t{:?}\t{:?}\t{:?}\n",
            p.pattern.name(),
            p.allocator.name(),
            p.load_factor,
            p.mean_response_time,
            p.mean_running_time,
            p.percent_contiguous,
            p.avg_components,
            p.mean_pairwise_distance,
            p.mean_message_distance
        ));
    }
    out
}

/// The reference text for the spec's reference seed.
pub fn reference_text(spec: &SweepSpec) -> String {
    let seed = spec.reference_seed;
    render(&sweep(spec, seed).run(&trace(spec)))
}

/// Builds the trace and every allocator's curves once; returns the trace
/// and the seconds it took.
fn timed_setup(spec: &SweepSpec) -> (Trace, f64) {
    let start = Instant::now();
    let trace = trace(spec);
    black_box(trace.filter_fitting(mesh().num_nodes()));
    for kind in AllocatorKind::paper_set() {
        black_box(kind.build(mesh()));
    }
    (trace, start.elapsed().as_secs_f64())
}

/// Wall time of each configuration run alone, in `configs` order (the
/// median of [`PASSES`] runs each, so one slow spell of the host does
/// not set a configuration's time), with the point each produces.
/// Counts runs whose point differs from the configuration's first.
fn sequential(sweep: &LoadSweep, trace: &Trace) -> (Vec<(f64, ExperimentPoint)>, u64) {
    let base = trace.filter_fitting(sweep.mesh.num_nodes());
    let mut disagreements = 0;
    let timed = configs(sweep)
        .into_iter()
        .map(|(pattern, allocator, load)| {
            let scaled = base.with_load_factor(load);
            let mut seconds = Vec::with_capacity(PASSES);
            let mut first = None;
            for _ in 0..PASSES {
                let start = Instant::now();
                let result = simulate(&scaled, &config(sweep, pattern, allocator));
                seconds.push(start.elapsed().as_secs_f64());
                let point = ExperimentPoint::from_result(load, &result);
                match &first {
                    None => first = Some(point),
                    Some(f) if *f != point => disagreements += 1,
                    Some(_) => {}
                }
            }
            (median(&seconds), first.expect("at least one pass"))
        })
        .collect();
    (timed, disagreements)
}

/// The timed run.
pub fn run(spec: &SweepSpec, seed: u64, seconds: f64) -> Outcome {
    let mut notes = Vec::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut trace = None;
    for _ in 0..SETUPS {
        let (t, s) = timed_setup(spec);
        setups.push(s);
        trace = Some(t);
    }
    let trace = trace.expect("at least one set-up");
    let sweep = sweep(spec, seed);
    let n_configs = sweep.num_runs();
    let jobs_per_sweep = trace.filter_fitting(sweep.mesh.num_nodes()).len() * n_configs;

    // Correctness: the reference seed reproduces the committed result.
    let reference_ok = match std::fs::read_to_string(REFERENCE) {
        Ok(text) => {
            let ok = text == reference_text(spec);
            if !ok {
                notes.push(format!(
                    "MISMATCH: the reference seed no longer reproduces {REFERENCE}"
                ));
            }
            ok
        }
        Err(e) => {
            notes.push(format!("MISSING: {REFERENCE}: {e}"));
            false
        }
    };

    // Throughput: the parallel sweep, repeated; every repeat must agree.
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds * SWEEP_SHARE);
    let mut walls = Vec::new();
    let mut first: Option<SweepResult> = None;
    let mut disagreements = 0u64;
    let own_cpu = || crate::daemon::cpu_seconds("/proc/self/stat");
    let cpu_before = own_cpu();
    while walls.len() < 2 || Instant::now() < deadline {
        let start = Instant::now();
        let result = sweep.run(&trace);
        walls.push(start.elapsed().as_secs_f64());
        match &first {
            None => first = Some(result),
            Some(f) if *f != result => disagreements += 1,
            Some(_) => {}
        }
    }
    let sweep_cpu_s = own_cpu().zip(cpu_before).map_or(f64::NAN, |(a, b)| a - b);
    let result = first.expect("at least one sweep");

    // Latency: each configuration alone; each must equal its sweep point.
    let (timed, repeats_differ) = sequential(&sweep, &trace);
    disagreements += repeats_differ;
    for ((_, point), expected) in timed.iter().zip(&result.points) {
        if point != expected {
            disagreements += 1;
        }
    }
    if disagreements > 0 {
        notes.push(format!(
            "MISMATCH: {disagreements} sweep repeats or configurations disagree"
        ));
    }
    let ms_at = |load: f64| -> Vec<f64> {
        timed
            .iter()
            .filter(|(_, p)| p.load_factor == load)
            .map(|(s, _)| s * 1e3)
            .collect()
    };
    let (low, high) = (ms_at(spec.low_load), ms_at(spec.high_load));
    let wall = median(&walls);
    notes.push(format!(
        "{} sweeps of {n_configs} configurations ({jobs_per_sweep} simulated jobs), median {wall:.3} s",
        walls.len()
    ));
    let points = &result.points;
    let metrics = vec![
        Metric::sampled("setup_s", median(&setups), "s", SETUPS as u64),
        Metric::sampled("p50_ms.low", percentile(&low, 0.5), "ms", low.len() as u64),
        Metric::sampled("p99_ms.low", percentile(&low, 0.99), "ms", low.len() as u64),
        Metric::sampled(
            "p50_ms.high",
            percentile(&high, 0.5),
            "ms",
            high.len() as u64,
        ),
        Metric::sampled(
            "p99_ms.high",
            percentile(&high, 0.99),
            "ms",
            high.len() as u64,
        ),
        Metric::sampled(
            "max_rps",
            n_configs as f64 / wall,
            "1/s",
            walls.len() as u64,
        ),
        Metric::sampled(
            "cpu_us_per_op",
            sweep_cpu_s * 1e6 / (jobs_per_sweep * walls.len()) as f64,
            "us",
            (jobs_per_sweep * walls.len()) as u64,
        ),
        Metric::new(
            "reject_rate",
            mean(
                &points
                    .iter()
                    .map(|p| 1.0 - p.percent_contiguous / 100.0)
                    .collect::<Vec<_>>(),
            ),
            "ratio",
        ),
        Metric::new(
            "contention_mean",
            mean(
                &points
                    .iter()
                    .map(|p| p.mean_message_distance)
                    .collect::<Vec<_>>(),
            ),
            "score",
        ),
        Metric::new(
            "peak_rss_mb",
            crate::daemon::peak_rss_mb("/proc/self/status").unwrap_or(f64::NAN),
            "MiB",
        ),
        Metric::sampled(
            "sweep_jobs_per_s",
            jobs_per_sweep as f64 / wall,
            "1/s",
            walls.len() as u64,
        ),
    ];
    let attempted = (walls.len() * n_configs + timed.len() * PASSES) as u64;
    Outcome {
        correct: reference_ok && disagreements == 0,
        attempted,
        failed: disagreements + u64::from(!reference_ok),
        metrics,
        notes,
    }
}

/// Per-layer metrics of the sweep: engine time per configuration by
/// pattern and by allocator, curve construction, and a standalone
/// allocator replay of one configuration's grant log.
pub fn layers(spec: &SweepSpec, seed: u64) -> (Vec<Metric>, Vec<String>) {
    let trace = trace(spec);
    let sweep = sweep(spec, seed);
    let (timed, _) = sequential(&sweep, &trace);
    let mut metrics = Vec::new();
    for pattern in CommPattern::paper_patterns() {
        let s: Vec<f64> = timed
            .iter()
            .filter(|(_, p)| p.pattern == pattern)
            .map(|t| t.0)
            .collect();
        metrics.push(Metric::sampled(
            format!("engine.config_run_s.{}", pattern.name()),
            mean(&s),
            "s",
            s.len() as u64,
        ));
    }
    for allocator in AllocatorKind::paper_set() {
        let s: Vec<f64> = timed
            .iter()
            .filter(|(_, p)| p.allocator == allocator)
            .map(|t| t.0)
            .collect();
        metrics.push(Metric::sampled(
            format!("engine.config_run_s.{}", slug(allocator.name())),
            mean(&s),
            "s",
            s.len() as u64,
        ));
    }
    let builds: Vec<f64> = (0..50)
        .map(|_| {
            let start = Instant::now();
            for kind in CurveKind::paper_curves() {
                black_box(CurveOrder::build(kind, mesh()));
            }
            start.elapsed().as_secs_f64() * 1e6 / CurveKind::paper_curves().len() as f64
        })
        .collect();
    metrics.push(Metric::sampled(
        "mesh.curve_build_us",
        median(&builds),
        "us",
        builds.len() as u64,
    ));
    let (allocate_us, release_us, calls) = allocator_replay(&sweep, &trace);
    metrics.push(Metric::sampled(
        "alloc.allocate_us",
        allocate_us,
        "us",
        calls,
    ));
    metrics.push(Metric::sampled("alloc.release_us", release_us, "us", calls));
    let notes = vec![format!(
        "alloc.* replay the grant log of (all-to-all, Hilbert w/BF, load {})",
        spec.high_load
    )];
    (metrics, notes)
}

/// Replays the grant log of one configuration against a fresh Hilbert
/// w/BF allocator: allocate at each start, release at each completion.
/// Returns mean µs per allocate, per release, and the call count.
fn allocator_replay(sweep: &LoadSweep, trace: &Trace) -> (f64, f64, u64) {
    let load = *sweep.load_factors.last().expect("two loads");
    let scaled = trace
        .filter_fitting(sweep.mesh.num_nodes())
        .with_load_factor(load);
    let cfg = config(sweep, CommPattern::AllToAll, AllocatorKind::HilbertBestFit);
    let (result, grants) = simulate_logged(&scaled, &cfg);
    // (time, 0 = release / 1 = grant, index)
    let mut events: Vec<(f64, u8, usize)> = grants
        .iter()
        .enumerate()
        .map(|(i, g)| (g.time, 1, i))
        .collect();
    let completion = |job: u64| {
        result
            .records
            .iter()
            .find(|r| r.job_id == job)
            .map(|r| r.completion)
    };
    for (i, g) in grants.iter().enumerate() {
        if let Some(t) = completion(g.job_id) {
            events.push((t, 0, i));
        }
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut allocator = AllocatorKind::HilbertBestFit.build(sweep.mesh);
    let mut machine = MachineState::new(sweep.mesh);
    let mut held = vec![None; grants.len()];
    let (mut alloc_s, mut release_s, mut calls) = (0.0, 0.0, 0u64);
    for (_, kind, i) in events {
        let g = &grants[i];
        if kind == 1 {
            let start = Instant::now();
            let allocation = allocator.allocate(&AllocRequest::new(g.job_id, g.size), &machine);
            alloc_s += start.elapsed().as_secs_f64();
            calls += 1;
            if let Some(a) = allocation {
                machine.occupy(&a.nodes);
                held[i] = Some(a);
            }
        } else if let Some(a) = held[i].take() {
            machine.release(&a.nodes);
            let start = Instant::now();
            allocator.release(&a, &machine);
            release_s += start.elapsed().as_secs_f64();
        }
    }
    let n = calls.max(1) as f64;
    (alloc_s * 1e6 / n, release_s * 1e6 / n, calls)
}

//! The traced run of a daemon workload. Per-layer times come from an
//! in-process, single-threaded replay of the seed's request stream, with
//! spans kept here, around calls into each layer's public functions; the
//! program itself records nothing. A short live low-rate phase and idle
//! pings against the real daemon give the wire-side figures.

use crate::daemon::timed_setup;
use crate::drive::call;
use crate::plan::{request, Op, PhasePlan, Session};
use crate::report::{Metric, Outcome};
use crate::spec::DaemonSpec;
use crate::stats::median;
use crate::timed::{contention_mean, run_phase, with_scratch, PhaseStats};
use crate::tracker::{Event, Tracker};
use commalloc_alloc::{AllocRequest, AllocatorKind, MachineState};
use commalloc_mesh::{CurveKind, CurveOrder};
use commalloc_service::framing::{decode_value, encode_frame_into};
use commalloc_service::journal::{FileJournal, JournalConfig, JournalRecord, JournalSink};
use commalloc_service::{AllocOutcome, AllocationService, FrameBuffer, Framing, Request, Response};
use serde::Value;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Idle pings per framing.
const PINGS: usize = 400;
/// Every this many replayed requests, sample the admission queues.
const QUEUE_SAMPLE_EVERY: u64 = 32;

/// Accumulated time of one span kind.
#[derive(Debug, Default, Clone, Copy)]
struct Span {
    ns: u128,
    calls: u64,
}

impl Span {
    fn add(&mut self, start: Instant) {
        self.ns += start.elapsed().as_nanos();
        self.calls += 1;
    }

    /// Mean ns per call (0 when never called).
    fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// The spans of one replay.
#[derive(Debug, Default)]
struct Spans {
    decode_ndjson: Span,
    decode_binary: Span,
    encode_ndjson: Span,
    encode_binary: Span,
    alloc: Span,
    alloc_patterned: Span,
    release: Span,
    poll: Span,
    route: Span,
    queue_len_sum: u64,
    queue_samples: u64,
    /// Codec and `handle` means (µs) over the first plan alone.
    first_plan: Option<(f64, f64)>,
}

impl Spans {
    /// Mean codec cost per request in the workload's framing, µs.
    fn codec_us(&self, framing: Framing) -> f64 {
        let (d, e) = match framing {
            Framing::Ndjson => (self.decode_ndjson, self.encode_ndjson),
            Framing::Binary => (self.decode_binary, self.encode_binary),
        };
        (d.mean_ns() + e.mean_ns()) / 1e3
    }

    /// Mean `handle` cost per request over every op, µs.
    fn handle_us(&self) -> f64 {
        let all = [self.alloc, self.alloc_patterned, self.release, self.poll];
        let ns: u128 = all.iter().map(|s| s.ns).sum();
        let calls: u64 = all.iter().map(|s| s.calls).sum();
        ns as f64 / calls.max(1) as f64 / 1e3
    }
}

/// What a replay pass does around each request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// The same work as `Traced`, without timers.
    Untraced,
    /// Every layer call timed.
    Traced,
    /// Only `handle` of releases timed.
    Releases,
    /// Allocs placed through `AllocationService::route`, timed.
    Route,
}

/// A journal sink that times each append into the file journal it wraps.
struct TimedJournal {
    inner: FileJournal,
    appends: AtomicU64,
    ns: AtomicU64,
}

impl TimedJournal {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.appends.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl JournalSink for TimedJournal {
    fn append(&self, record: &JournalRecord) -> u64 {
        self.time(|| self.inner.append(record))
    }
    fn append_timed(&self, record: &JournalRecord) -> (u64, u64) {
        self.time(|| self.inner.append_timed(record))
    }
    fn durable(&self) -> bool {
        self.inner.durable()
    }
    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }
    fn snapshot_due(&self) -> bool {
        self.inner.snapshot_due()
    }
    fn begin_snapshot(&self) -> u64 {
        self.inner.begin_snapshot()
    }
    fn install_snapshot(&self, snapshot: &JournalRecord) -> io::Result<()> {
        self.inner.install_snapshot(snapshot)
    }
    fn stats_value(&self) -> Option<Value> {
        self.inner.stats_value()
    }
}

/// A fresh in-process service configured as the daemon is, with
/// `scheduler` in place of the spec's.
fn service(
    spec: &DaemonSpec,
    scheduler: &str,
    journal: Option<Arc<dyn JournalSink>>,
) -> AllocationService {
    let mut service = AllocationService::new();
    if let Some(j) = journal {
        service = service.with_journal(j);
    }
    for m in spec.members {
        service
            .register_in_pool(
                m.name,
                &format!("{}x{}", m.width, m.height),
                Some(spec.allocator),
                None,
                Some(scheduler),
                spec.pool,
            )
            .expect("the workload's machines register");
    }
    if let (Some(pool), Some(router)) = (spec.pool, spec.router) {
        service
            .set_router(pool, router)
            .expect("the workload's router parses");
    }
    service
}

fn file_journal(dir: &Path) -> io::Result<FileJournal> {
    FileJournal::create(dir, JournalConfig::default(), 0, 0, 0)
}

/// One allocator-level step of the replayed grant sequence.
#[derive(Debug, Clone, Copy)]
enum Step {
    Grant {
        member: usize,
        job: u64,
        size: usize,
    },
    Release {
        job: u64,
    },
}

/// Replays `plans` through `service` in due order on a virtual clock.
/// Returns the tracker (claim table, grants) and the wall time.
fn replay(
    spec: &DaemonSpec,
    service: &AllocationService,
    plans: &[PhasePlan],
    pass: Pass,
    spans: &mut Spans,
    steps: &mut Vec<Step>,
) -> (Tracker, f64) {
    let mut tracker = Tracker::new(spec);
    tracker.record = true;
    let mut events = Vec::new();
    let mut frames = FrameBuffer::new();
    let mut frame = Vec::with_capacity(256);
    let mut out = Vec::with_capacity(256);
    let mut clock_base = 0.0;
    let mut requests = 0u64;
    let start = Instant::now();
    for plan in plans {
        let mut session = Session::new(spec, plan);
        while let Some(item) = session.pop_due(u64::MAX) {
            let job = &plan.jobs[item.job];
            let now = clock_base + item.due_ns as f64 / 1e9;
            for m in spec.members {
                service.set_time(m.name, now).expect("registered machine");
            }
            let req = request(spec, item.op, job);
            let line = req.to_line();
            frame.clear();
            encode_frame_into(&req.to_value(), &mut frame).expect("small frame");
            let timed = pass == Pass::Traced;
            let t = Instant::now();
            let from_line = Request::from_line(&line);
            if timed {
                spans.decode_ndjson.add(t);
            }
            let t = Instant::now();
            frames.extend(&frame);
            let payload = frames
                .next_frame()
                .expect("well-formed")
                .expect("whole frame")
                .payload;
            let from_frame = Request::from_value(&decode_value(&payload).expect("decodes"));
            if timed {
                spans.decode_binary.add(t);
            }
            let decoded = match spec.framing {
                Framing::Ndjson => from_line,
                Framing::Binary => from_frame,
            }
            .expect("own requests decode");
            let t = Instant::now();
            let response = match (&decoded, pass) {
                (
                    Request::Alloc {
                        machine,
                        job,
                        size,
                        wait,
                        walltime,
                        pattern,
                        ..
                    },
                    Pass::Route,
                ) if machine.starts_with('@') => {
                    let routed =
                        service.route(&machine[1..], *job, *size, *wait, *walltime, *pattern);
                    spans.route.add(t);
                    routed_response(*job, routed)
                }
                _ => service.handle(&decoded),
            };
            let span = match (item.op, job.pattern) {
                (Op::Alloc, None) => &mut spans.alloc,
                (Op::Alloc, Some(_)) => &mut spans.alloc_patterned,
                (Op::Release, _) => &mut spans.release,
                (Op::Poll, _) => &mut spans.poll,
            };
            if timed || (pass == Pass::Releases && item.op == Op::Release) {
                span.add(t);
            }
            let t = Instant::now();
            black_box(response.to_line());
            if timed {
                spans.encode_ndjson.add(t);
            }
            out.clear();
            let t = Instant::now();
            encode_frame_into(&response.to_value(), &mut out).expect("small frame");
            if timed {
                spans.encode_binary.add(t);
            }
            requests += 1;
            if timed && requests.is_multiple_of(QUEUE_SAMPLE_EVERY) {
                for m in spec.members {
                    spans.queue_len_sum += service.query(m.name).map_or(0, |s| s.queue_len as u64);
                }
                spans.queue_samples += 1;
            }
            let grants_before = tracker.grants.len();
            tracker.on_response(plan, item.op, job.id, &response, item.due_ns, &mut events);
            if item.op == Op::Release {
                steps.push(Step::Release { job: job.id });
            }
            for g in &tracker.grants[grants_before..] {
                let size = plan
                    .index_of(g.job)
                    .map_or(g.nodes.len(), |i| plan.jobs[i].size);
                steps.push(Step::Grant {
                    member: g.member,
                    job: g.job,
                    size,
                });
            }
            for event in events.drain(..) {
                match event {
                    Event::Granted {
                        job,
                        at_ns,
                        immediate,
                    } => session.granted(job, at_ns, immediate),
                    Event::Finished { .. } => session.finished(),
                }
            }
        }
        clock_base += plan.window_ns as f64 / 1e9 + 60.0;
        if pass == Pass::Traced && spans.first_plan.is_none() {
            spans.first_plan = Some((spans.codec_us(spec.framing), spans.handle_us()));
        }
    }
    (tracker, start.elapsed().as_secs_f64())
}

/// Replays `plans` in-process on a virtual clock, untimed: the grants and
/// refusals the service makes for this request stream, free of the host's
/// timing.
pub fn placements(spec: &DaemonSpec, plans: &[PhasePlan]) -> Tracker {
    let service = service(spec, spec.scheduler, None);
    let (tracker, _) = replay(
        spec,
        &service,
        plans,
        Pass::Untraced,
        &mut Spans::default(),
        &mut Vec::new(),
    );
    tracker
}

/// The wire response a routed alloc would have produced.
fn routed_response(
    job: u64,
    routed: Result<(String, AllocOutcome), commalloc_service::ServiceError>,
) -> Response {
    match routed {
        Ok((machine, AllocOutcome::Granted(nodes))) => Response::Granted {
            job,
            nodes,
            machine: Some(machine),
        },
        Ok((machine, AllocOutcome::Queued(position))) => Response::Queued {
            job,
            position,
            machine: Some(machine),
        },
        Ok((machine, AllocOutcome::Rejected(reason))) => Response::Rejected {
            job,
            reason,
            machine: Some(machine),
        },
        Err(e) => commalloc_service::service::error_response(&e),
    }
}

/// Replays the grant sequence against standalone allocators, one per
/// member. Returns mean µs per allocate and per release.
fn allocator_replay(spec: &DaemonSpec, steps: &[Step]) -> (f64, f64, u64) {
    let kind = AllocatorKind::parse(spec.allocator).expect("the workload's allocator parses");
    let mut allocators: Vec<_> = spec.members.iter().map(|m| kind.build(m.mesh())).collect();
    let mut machines: Vec<_> = spec
        .members
        .iter()
        .map(|m| MachineState::new(m.mesh()))
        .collect();
    let mut held = std::collections::HashMap::new();
    let (mut allocate, mut release) = (Span::default(), Span::default());
    for step in steps {
        match *step {
            Step::Grant { member, job, size } => {
                let t = Instant::now();
                let allocation =
                    allocators[member].allocate(&AllocRequest::new(job, size), &machines[member]);
                allocate.add(t);
                if let Some(a) = allocation {
                    machines[member].occupy(&a.nodes);
                    held.insert(job, (member, a));
                }
            }
            Step::Release { job } => {
                if let Some((member, a)) = held.remove(&job) {
                    machines[member].release(&a.nodes);
                    let t = Instant::now();
                    allocators[member].release(&a, &machines[member]);
                    release.add(t);
                }
            }
        }
    }
    (
        allocate.mean_ns() / 1e3,
        release.mean_ns() / 1e3,
        allocate.calls,
    )
}

/// Idle round-trip time of `ping` in `framing`, median µs.
fn ping_rtt_us(stream: &mut std::net::TcpStream, framing: Framing) -> io::Result<f64> {
    let mut rtts = Vec::with_capacity(PINGS);
    for i in 0..PINGS + 50 {
        let t = Instant::now();
        call(stream, framing, &Request::Ping)?;
        if i >= 50 {
            rtts.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok(median(&rtts))
}

/// The traced run of daemon workload `name`.
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

fn run_in(
    name: &str,
    spec: &DaemonSpec,
    binary: &Path,
    seed: u64,
    seconds: f64,
    scratch: &Path,
) -> io::Result<Outcome> {
    let phase_seconds = seconds * 0.25;
    let plans = [
        PhasePlan::draw(name, spec, seed, 0, spec.low_jobs_per_s, phase_seconds),
        PhasePlan::draw(name, spec, seed, 1, spec.high_jobs_per_s, phase_seconds),
    ];
    let mut notes = Vec::new();

    // Live: idle pings in both framings, then the low-rate stream.
    let journal = spec.journal.then(|| scratch.join("journal-live"));
    let (daemon, mut stream, _) = timed_setup(binary, spec, journal.as_deref())?;
    let ping_ndjson = ping_rtt_us(&mut stream, Framing::Ndjson)?;
    let ping_binary = ping_rtt_us(&mut stream, Framing::Binary)?;
    let mut live = Tracker::new(spec);
    let result = run_phase(&mut stream, spec, &plans[0], &mut live, &mut notes)?;
    let low = PhaseStats::of(&result, &plans[0]);
    notes.push(format!(
        "live low phase: {}",
        low.describe(spec.low_jobs_per_s)
    ));
    notes.push(format!(
        "idle ping RTT: ndjson {ping_ndjson:.1} us, binary {ping_binary:.1} us"
    ));
    drop(stream);
    drop(daemon);
    let failed = live.counts.errors + live.counts.violations + result.unanswered;

    // In-process: untraced, then traced, over the same stream. Only the
    // traced pass wraps its journal in timing.
    let untraced_journal = match spec.journal {
        true => {
            Some(Arc::new(file_journal(&scratch.join("journal-untraced"))?) as Arc<dyn JournalSink>)
        }
        false => None,
    };
    let mut scratch_spans = Spans::default();
    let mut steps = Vec::new();
    let (_, untraced_s) = replay(
        spec,
        &service(spec, spec.scheduler, untraced_journal),
        &plans,
        Pass::Untraced,
        &mut scratch_spans,
        &mut steps,
    );
    let traced_journal = match spec.journal {
        true => Some(Arc::new(TimedJournal {
            inner: file_journal(&scratch.join("journal-traced"))?,
            appends: AtomicU64::new(0),
            ns: AtomicU64::new(0),
        })),
        false => None,
    };
    let traced_service = service(
        spec,
        spec.scheduler,
        traced_journal.clone().map(|j| j as Arc<dyn JournalSink>),
    );
    let mut spans = Spans::default();
    steps.clear();
    let (tracker, traced_s) = replay(
        spec,
        &traced_service,
        &plans,
        Pass::Traced,
        &mut spans,
        &mut steps,
    );
    // The low stream alone prices the unattributed remainder.
    let (low_codec_us, low_handle_us) = spans.first_plan.expect("the traced pass ran");
    let requests = tracker.counts.answered.max(1);
    let overhead_ns = (traced_s - untraced_s) * 1e9 / requests as f64;

    // Scheduler comparison: releases of the same stream under both kinds.
    let mut release_ns = [0.0; 2];
    for (i, kind) in ["conservative", "fcfs"].iter().enumerate() {
        let mut s = Spans::default();
        let mut ignored = Vec::new();
        replay(
            spec,
            &service(spec, kind, None),
            &plans,
            Pass::Releases,
            &mut s,
            &mut ignored,
        );
        release_ns[i] = s.release.mean_ns();
    }

    // Routing: allocs through `route` directly (pooled workloads only).
    let mut route = Spans::default();
    let mut fallbacks = 0.0;
    if spec.pool.is_some() {
        let routed = service(spec, spec.scheduler, None);
        let mut ignored = Vec::new();
        replay(spec, &routed, &plans, Pass::Route, &mut route, &mut ignored);
        fallbacks = routed
            .metrics()
            .route_comm_fallbacks
            .load(Ordering::Relaxed) as f64
            / route.route.calls.max(1) as f64;
    }

    let (allocate_us, release_us, alloc_calls) = allocator_replay(spec, &steps);
    let plan_refs: Vec<&PhasePlan> = plans.iter().collect();
    let (_, score_us, scored) = contention_mean(spec, &plan_refs, &tracker.grants);
    let curve_us: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            for m in spec.members {
                black_box(CurveOrder::build(CurveKind::Hilbert, m.mesh()));
            }
            t.elapsed().as_secs_f64() * 1e6 / spec.members.len() as f64
        })
        .collect();
    let (journal_us, bytes_per_record) = match &traced_journal {
        Some(j) => {
            let appends = j.appends.load(Ordering::Relaxed).max(1);
            let stats = traced_service.journal_stats();
            let field = |k: &str| stats.get(k).and_then(|v| v.as_u64()).unwrap_or(0) as f64;
            (
                j.ns.load(Ordering::Relaxed) as f64 / appends as f64 / 1e3,
                field("bytes_appended") / field("appended").max(1.0),
            )
        }
        None => (0.0, 0.0),
    };
    let releases = tracker.counts.releases.max(1);
    let from_queue = tracker.counts.granted_from_queue;
    let ping_us = match spec.framing {
        Framing::Ndjson => ping_ndjson,
        Framing::Binary => ping_binary,
    };
    let unattributed_us = low.p50_ms * 1e3 - (ping_us + low_codec_us + low_handle_us);
    notes.push(format!(
        "unattributed_us = p50_ms.low {:.1} us - (ping {ping_us:.1} + codec {low_codec_us:.2} + handle {low_handle_us:.2}) us",
        low.p50_ms * 1e3
    ));
    notes.push(format!(
        "tracing overhead: traced {traced_s:.3} s vs untraced {untraced_s:.3} s over {requests} requests"
    ));

    let us = |s: Span| s.mean_ns() / 1e3;
    let metrics = vec![
        Metric::sampled(
            "protocol.request_decode_ns",
            spans.decode_ndjson.mean_ns(),
            "ns",
            spans.decode_ndjson.calls,
        ),
        Metric::sampled(
            "protocol.response_encode_ns",
            spans.encode_ndjson.mean_ns(),
            "ns",
            spans.encode_ndjson.calls,
        ),
        Metric::sampled(
            "framing.decode_ns",
            spans.decode_binary.mean_ns(),
            "ns",
            spans.decode_binary.calls,
        ),
        Metric::sampled(
            "framing.encode_ns",
            spans.encode_binary.mean_ns(),
            "ns",
            spans.encode_binary.calls,
        ),
        Metric::sampled("server.ping_rtt_us", ping_us, "us", PINGS as u64),
        Metric::sampled(
            "service.handle_alloc_us",
            us(spans.alloc),
            "us",
            spans.alloc.calls,
        ),
        Metric::sampled(
            "service.handle_alloc_patterned_us",
            us(spans.alloc_patterned),
            "us",
            spans.alloc_patterned.calls,
        ),
        Metric::sampled(
            "service.handle_release_us",
            us(spans.release),
            "us",
            spans.release.calls,
        ),
        Metric::sampled(
            "service.handle_poll_us",
            us(spans.poll),
            "us",
            spans.poll.calls,
        ),
        Metric::sampled("alloc.allocate_us", allocate_us, "us", alloc_calls),
        Metric::sampled("alloc.release_us", release_us, "us", alloc_calls),
        Metric::sampled(
            "admission.queue_len_mean",
            spans.queue_len_sum as f64 / spans.queue_samples.max(1) as f64,
            "count",
            spans.queue_samples,
        ),
        Metric::sampled(
            "admission.grants_per_release",
            from_queue as f64 / releases as f64,
            "count",
            releases,
        ),
        Metric::new(
            "scheduler.release_conservative_over_fcfs",
            release_ns[0] / release_ns[1].max(1e-9),
            "ratio",
        ),
        Metric::new("journal.append_us", journal_us, "us"),
        Metric::new("journal.bytes_per_record", bytes_per_record, "B"),
        Metric::sampled("score.contention_us", score_us, "us", scored),
        Metric::sampled("cluster.route_us", us(route.route), "us", route.route.calls),
        Metric::new("cluster.comm_fallbacks_per_route", fallbacks, "ratio"),
        Metric::sampled(
            "mesh.curve_build_us",
            median(&curve_us),
            "us",
            curve_us.len() as u64,
        ),
        Metric::sampled("loadgen.late_p99_us", low.late_p99_us, "us", low.samples),
        Metric::sampled("tracing.overhead_ns", overhead_ns, "ns", requests),
        Metric::new("unattributed_us", unattributed_us, "us"),
    ];
    notes.push(not_measured(spec));
    Ok(Outcome {
        correct: failed == 0,
        attempted: live.counts.answered + result.unanswered,
        failed,
        metrics,
        notes,
    })
}

/// Names the per-layer metrics this workload's path bypasses; they read 0.
fn not_measured(spec: &DaemonSpec) -> String {
    let mut bypassed = vec!["engine.config_run_s.* (no sweep engine on the daemon path)"];
    if !spec.journal {
        bypassed.push("journal.* (journal off)");
    }
    if spec.pool.is_none() {
        bypassed.push("cluster.* (no pool)");
    }
    if spec.patterned_share == 0.0 {
        bypassed.push("service.handle_alloc_patterned_us (no patterned allocs)");
    }
    if !spec.poll {
        bypassed.push("service.handle_poll_us (no polls)");
    }
    if !spec.wait {
        bypassed.push("admission.* (wait=false: nothing queues)");
    }
    bypassed.push(
        "journal.fsync_wait_us and journal.records_per_fsync: not reported \
         (group commit never blocks an append, and journal_stats exposes no fsync count)",
    );
    format!(
        "not on this workload's path, reported as 0: {}",
        bypassed.join("; ")
    )
}

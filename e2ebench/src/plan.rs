//! Seeded request schedules: Poisson job arrivals, exponential holds and
//! the follow-up requests (poll, release) each granted job generates.
//!
//! A [`PhasePlan`] fixes everything the seed decides. What the daemon
//! decides — whether a job is granted now, later or never — feeds back
//! through [`Session`], which both the TCP generator and the in-process
//! replay use, so the two send the same requests in the same order.

use crate::spec::{DaemonSpec, SizeMix};
use commalloc_service::framing::encode_frame_into;
use commalloc_service::{Framing, JobRef, Request};
use commalloc_workload::CommPattern;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// SplitMix64: small, seedable and identical on every platform, so a seed
/// names the same schedule forever.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform on `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// Uniform on `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// Mixes a workload name, a seed and a phase number into one RNG seed.
fn phase_seed(workload: &str, seed: u64, phase: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in workload.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    let mut mix = Rng::new(h ^ seed.rotate_left(17) ^ ((phase as u64) << 40));
    mix.next_u64()
}

/// One planned job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobPlan {
    /// Wire job id (unique across the phases of one run).
    pub id: u64,
    /// When its alloc is due, in ns from the phase start.
    pub due_ns: u64,
    /// Processors requested.
    pub size: usize,
    /// How long it holds its processors once granted, in ns.
    pub hold_ns: u64,
    /// Walltime estimate sent with the alloc, in seconds.
    pub walltime: Option<f64>,
    /// Declared communication pattern.
    pub pattern: Option<CommPattern>,
}

/// The seed-determined part of one phase: its jobs in arrival order.
#[derive(Debug, Clone)]
pub struct PhasePlan {
    /// Length of the arrival window, in ns.
    pub window_ns: u64,
    /// Jobs, sorted by due time.
    pub jobs: Vec<JobPlan>,
    /// Id of `jobs[0]` (ids are consecutive).
    pub first_id: u64,
}

impl PhasePlan {
    /// Draws phase `phase` of `workload` at `jobs_per_s` for `seconds`.
    pub fn draw(
        workload: &str,
        spec: &DaemonSpec,
        seed: u64,
        phase: u32,
        jobs_per_s: f64,
        seconds: f64,
    ) -> PhasePlan {
        let mut rng = Rng::new(phase_seed(workload, seed, phase));
        let first_id = (phase as u64 + 1) * 10_000_000;
        let mean_gap = 1.0 / jobs_per_s;
        let mean_hold = spec.mean_hold_s(jobs_per_s);
        let mut t = rng.exp(mean_gap);
        let mut jobs = Vec::new();
        while t < seconds {
            let size = match spec.sizes {
                SizeMix::LogUniform { max } => {
                    (((max + 1) as f64).powf(rng.unit()) as usize).clamp(1, max)
                }
                SizeMix::SmallLarge => {
                    if rng.unit() < 0.75 {
                        rng.range(1, 16)
                    } else {
                        rng.range(32, 96)
                    }
                }
            };
            let hold = rng.exp(mean_hold);
            let pattern = spec.pattern_for(rng.unit());
            jobs.push(JobPlan {
                id: first_id + jobs.len() as u64,
                due_ns: (t * 1e9) as u64,
                size,
                hold_ns: (hold * 1e9) as u64,
                walltime: spec.walltime.then(|| (hold * 1.5).max(1e-6)),
                pattern,
            });
            t += rng.exp(mean_gap);
        }
        PhasePlan {
            window_ns: (seconds * 1e9) as u64,
            jobs,
            first_id,
        }
    }

    /// Index of job `id` in this phase, if it belongs here.
    pub fn index_of(&self, id: u64) -> Option<usize> {
        let i = id.checked_sub(self.first_id)? as usize;
        (i < self.jobs.len()).then_some(i)
    }
}

/// A request kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// Ask for processors.
    Alloc,
    /// Read where the job stands.
    Poll,
    /// Give the processors back.
    Release,
}

/// The wire request for `op` on `job`.
pub fn request(spec: &DaemonSpec, op: Op, job: &JobPlan) -> Request {
    let machine = spec.alloc_target();
    match op {
        Op::Alloc => Request::Alloc {
            machine,
            job: job.id,
            size: job.size,
            wait: spec.wait,
            walltime: job.walltime,
            pattern: job.pattern,
            tenant: None,
        },
        Op::Poll => Request::Poll {
            machine: Some(machine),
            job: JobRef::Bare(job.id),
        },
        Op::Release => Request::Release {
            machine: Some(machine),
            job: JobRef::Bare(job.id),
        },
    }
}

/// Appends `request` to `out` in `framing`.
pub fn encode(framing: Framing, request: &Request, out: &mut Vec<u8>) {
    match framing {
        Framing::Ndjson => {
            out.extend_from_slice(request.to_line().as_bytes());
            out.push(b'\n');
        }
        Framing::Binary => encode_frame_into(&request.to_value(), out)
            .expect("a request frame is far below the cap"),
    }
}

/// The phase's request stream as it would go out if every alloc were
/// granted at once: allocs, polls and releases merged by due time, in
/// the workload's framing. Same seed, same bytes.
pub fn planned_stream(spec: &DaemonSpec, plan: &PhasePlan) -> Vec<u8> {
    let mut session = Session::new(spec, plan);
    let mut out = Vec::new();
    while let Some(item) = session.pop_due(u64::MAX) {
        encode(
            spec.framing,
            &request(spec, item.op, &plan.jobs[item.job]),
            &mut out,
        );
        if item.op == Op::Alloc {
            let due = plan.jobs[item.job].due_ns;
            session.granted(item.job, due, true);
        } else if item.op == Op::Release {
            session.finished();
        }
    }
    out
}

/// A request that is due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item {
    /// When it is due, in ns from the phase start.
    pub due_ns: u64,
    /// What to send.
    pub op: Op,
    /// Index of its job in the phase plan.
    pub job: usize,
}

/// The follow-up state of one phase: which requests are due next, given
/// the grants seen so far. A release is scheduled only once its grant is
/// known; a job queued by the daemon starts its hold when granted.
#[derive(Debug)]
pub struct Session<'a> {
    spec: &'a DaemonSpec,
    plan: &'a PhasePlan,
    next_arrival: usize,
    followups: BinaryHeap<Reverse<(u64, Op, usize)>>,
    open: usize,
}

impl<'a> Session<'a> {
    /// A session at the start of `plan`.
    pub fn new(spec: &'a DaemonSpec, plan: &'a PhasePlan) -> Session<'a> {
        Session {
            spec,
            plan,
            next_arrival: 0,
            followups: BinaryHeap::new(),
            open: 0,
        }
    }

    /// Due time of the earliest pending request.
    pub fn next_due(&self) -> Option<u64> {
        let arrival = self.plan.jobs.get(self.next_arrival).map(|j| j.due_ns);
        let followup = self.followups.peek().map(|Reverse((d, _, _))| *d);
        match (arrival, followup) {
            (Some(a), Some(f)) => Some(a.min(f)),
            (a, f) => a.or(f),
        }
    }

    /// Takes the earliest pending request if it is due at `now_ns`.
    pub fn pop_due(&mut self, now_ns: u64) -> Option<Item> {
        let due = self.next_due().filter(|&d| d <= now_ns)?;
        let arrival_due = self.plan.jobs.get(self.next_arrival).map(|j| j.due_ns);
        if arrival_due == Some(due) {
            let job = self.next_arrival;
            self.next_arrival += 1;
            self.open += 1;
            return Some(Item {
                due_ns: due,
                op: Op::Alloc,
                job,
            });
        }
        let Reverse((due_ns, op, job)) = self.followups.pop().expect("next_due saw it");
        Some(Item { due_ns, op, job })
    }

    /// Job `job` was granted, as learned at `at_ns`. An immediate grant
    /// starts the hold at the alloc's due time; a grant from the queue
    /// starts it when the grant is learned.
    pub fn granted(&mut self, job: usize, at_ns: u64, immediate: bool) {
        let plan = &self.plan.jobs[job];
        let start = if immediate { plan.due_ns } else { at_ns };
        let release = (start + plan.hold_ns).max(at_ns);
        if self.spec.poll {
            let poll = (start + plan.hold_ns / 2).max(at_ns);
            self.followups.push(Reverse((poll, Op::Poll, job)));
        }
        self.followups.push(Reverse((release, Op::Release, job)));
    }

    /// Job `job` needs no more requests (rejected, failed or released).
    pub fn finished(&mut self) {
        // Saturating: a daemon that reports one grant twice earns an
        // extra release, whose error finishes the job a second time.
        self.open = self.open.saturating_sub(1);
    }

    /// Sends no further allocs; jobs already granted still get their
    /// follow-ups, so the machine drains.
    pub fn stop_arrivals(&mut self) {
        self.next_arrival = self.plan.jobs.len();
    }

    /// True when every job has arrived, nothing is scheduled, and jobs
    /// are still open: they wait for a grant notice that only a release
    /// could bring, and no release is coming.
    pub fn waiting_only(&self) -> bool {
        self.next_arrival == self.plan.jobs.len() && self.followups.is_empty() && self.open > 0
    }

    /// True once every job has arrived and finished.
    pub fn done(&self) -> bool {
        self.next_arrival == self.plan.jobs.len() && self.open == 0
    }
}

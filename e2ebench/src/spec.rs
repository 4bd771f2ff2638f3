//! The workloads: what each one registers, the traffic it offers, and the
//! rates and limits fixed for it.

use commalloc_alloc::AllocatorKind;
use commalloc_mesh::Mesh2D;
use commalloc_service::Framing;
use commalloc_workload::CommPattern;

/// One machine the daemon registers.
#[derive(Debug, Clone, Copy)]
pub struct Member {
    /// Machine name.
    pub name: &'static str,
    /// Mesh width.
    pub width: u16,
    /// Mesh height.
    pub height: u16,
}

impl Member {
    /// The member's mesh.
    pub fn mesh(&self) -> Mesh2D {
        Mesh2D::new(self.width, self.height)
    }

    /// Processor count.
    pub fn nodes(&self) -> usize {
        self.width as usize * self.height as usize
    }
}

/// Job-size distribution of a daemon workload.
#[derive(Debug, Clone, Copy)]
pub enum SizeMix {
    /// `floor((max+1)^u)` for uniform `u`: sizes `1..=max`, skewed small.
    LogUniform {
        /// Largest size.
        max: usize,
    },
    /// `scheduler_throughput`'s mix: 75% uniform on `1..=16`, 25% uniform
    /// on `32..=96`.
    SmallLarge,
}

impl SizeMix {
    /// Mean job size, exact for the discrete distribution.
    pub fn mean(&self) -> f64 {
        match *self {
            SizeMix::LogUniform { max } => {
                let ln = ((max + 1) as f64).ln();
                (1..=max)
                    .map(|s| s as f64 * (((s + 1) as f64).ln() - (s as f64).ln()) / ln)
                    .sum()
            }
            SizeMix::SmallLarge => 0.75 * 8.5 + 0.25 * 64.0,
        }
    }
}

/// A daemon workload: one `commalloc serve` process driven open-loop.
#[derive(Debug, Clone)]
pub struct DaemonSpec {
    /// Machines registered at start-up.
    pub members: &'static [Member],
    /// Pool the members join (allocs then address `@pool`).
    pub pool: Option<&'static str>,
    /// Routing policy of the pool.
    pub router: Option<&'static str>,
    /// Allocator of every member.
    pub allocator: &'static str,
    /// Scheduling policy of every member.
    pub scheduler: &'static str,
    /// Batched-fsync journal in a temporary directory.
    pub journal: bool,
    /// Wire framing of the driving connection.
    pub framing: Framing,
    /// Job sizes.
    pub sizes: SizeMix,
    /// `wait=true` allocs (queue instead of reject).
    pub wait: bool,
    /// Attach walltime estimates (1.5 × the job's hold).
    pub walltime: bool,
    /// Share of allocs declaring one of the paper's patterns.
    pub patterned_share: f64,
    /// One `poll` read per granted job, halfway through its hold.
    pub poll: bool,
    /// Offered occupancy: holds scale so `rate × mean size × mean hold`
    /// equals this share of all processors, at every rate.
    pub occupancy: f64,
    /// The fixed low rate, in jobs per second (a third of the high rate).
    pub low_jobs_per_s: f64,
    /// The fixed high rate, in jobs per second (about half of `max_rps`;
    /// see README.md for why not three quarters).
    pub high_jobs_per_s: f64,
    /// p99 latency limit that `max_rps` must meet, in milliseconds.
    pub latency_limit_ms: f64,
}

impl DaemonSpec {
    /// Total processors over all members.
    pub fn nodes(&self) -> usize {
        self.members.iter().map(Member::nodes).sum()
    }

    /// Mean hold in seconds at `jobs_per_s`.
    pub fn mean_hold_s(&self, jobs_per_s: f64) -> f64 {
        self.occupancy * self.nodes() as f64 / (jobs_per_s * self.sizes.mean())
    }

    /// The machine allocs address: `@pool` or the single member.
    pub fn alloc_target(&self) -> String {
        match self.pool {
            Some(pool) => format!("@{pool}"),
            None => self.members[0].name.to_string(),
        }
    }

    /// Draws the pattern of a job from uniform `u`: the paper's three
    /// patterns split the patterned share 3:2:2.
    pub fn pattern_for(&self, u: f64) -> Option<CommPattern> {
        let s = self.patterned_share;
        if u < s * 3.0 / 7.0 {
            Some(CommPattern::AllToAll)
        } else if u < s * 5.0 / 7.0 {
            Some(CommPattern::NBody)
        } else if u < s {
            Some(CommPattern::Random)
        } else {
            None
        }
    }
}

/// The in-process sweep workload.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Jobs in the synthetic Paragon trace.
    pub jobs: usize,
    /// The two load factors (arrival-time contraction; smaller = heavier).
    pub low_load: f64,
    /// See `low_load`.
    pub high_load: f64,
    /// Seed of the committed reference run.
    pub reference_seed: u64,
}

/// A workload of the benchmark.
#[derive(Debug, Clone)]
pub enum Kind {
    /// Drives a daemon over TCP.
    Daemon(DaemonSpec),
    /// Runs the sweep engine in-process.
    Sweep(SweepSpec),
}

/// A named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Listed in `BENCHMARK.json` (run by the repeat mode by default).
    pub listed: bool,
    /// What it runs.
    pub kind: Kind,
}

const ONE_32X32: &[Member] = &[Member {
    name: "m0",
    width: 32,
    height: 32,
}];

/// The `BENCH_routing` pool: 256 + 128 + 64 + 32 processors.
const ROUTING_POOL: &[Member] = &[
    Member {
        name: "m0",
        width: 16,
        height: 16,
    },
    Member {
        name: "m1",
        width: 16,
        height: 8,
    },
    Member {
        name: "m2",
        width: 8,
        height: 8,
    },
    Member {
        name: "m3",
        width: 8,
        height: 4,
    },
];

/// Every workload, in the order the benchmark documents them.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "churn_journaled",
            listed: true,
            kind: Kind::Daemon(DaemonSpec {
                members: ONE_32X32,
                pool: None,
                router: None,
                allocator: "Hilbert w/BF",
                scheduler: "fcfs",
                journal: true,
                framing: Framing::Ndjson,
                sizes: SizeMix::LogUniform { max: 64 },
                wait: false,
                walltime: false,
                patterned_share: 0.0,
                poll: true,
                occupancy: 0.8,
                low_jobs_per_s: 5000.0,
                high_jobs_per_s: 15000.0,
                latency_limit_ms: 10.0,
            }),
        },
        Workload {
            name: "queue_conservative",
            // Not listed: the daemon grants queued jobs on an arrival's
            // drain without telling any client, so the drain check fails
            // (see README.md, "Known failure").
            listed: false,
            kind: Kind::Daemon(DaemonSpec {
                members: ONE_32X32,
                pool: None,
                router: None,
                allocator: "Hilbert w/BF",
                scheduler: "conservative",
                journal: false,
                framing: Framing::Binary,
                sizes: SizeMix::SmallLarge,
                wait: true,
                walltime: true,
                patterned_share: 0.0,
                poll: false,
                occupancy: 0.9,
                low_jobs_per_s: 900.0,
                high_jobs_per_s: 2700.0,
                latency_limit_ms: 10.0,
            }),
        },
        Workload {
            name: "pool_patterned",
            listed: true,
            kind: Kind::Daemon(DaemonSpec {
                members: ROUTING_POOL,
                pool: Some("grid"),
                router: Some("comm-aware"),
                allocator: "Hilbert w/BF",
                scheduler: "fcfs",
                journal: false,
                framing: Framing::Binary,
                sizes: SizeMix::LogUniform { max: 64 },
                wait: false,
                walltime: false,
                patterned_share: 0.7,
                poll: false,
                occupancy: 0.8,
                low_jobs_per_s: 600.0,
                high_jobs_per_s: 1800.0,
                latency_limit_ms: 50.0,
            }),
        },
        Workload {
            name: "paper_sweep",
            listed: true,
            kind: Kind::Sweep(SweepSpec {
                jobs: 120,
                low_load: 1.0,
                high_load: 0.4,
                reference_seed: 1996,
            }),
        },
    ]
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

/// Name fragment of an allocator for metric names.
pub fn slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// The end-to-end metrics, with units, in report order.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("p50_ms.low", "ms"),
    ("p99_ms.low", "ms"),
    ("p50_ms.high", "ms"),
    ("p99_ms.high", "ms"),
    ("max_rps", "1/s"),
    ("cpu_us_per_op", "us"),
    ("reject_rate", "ratio"),
    ("contention_mean", "score"),
    ("peak_rss_mb", "MiB"),
    ("sweep_jobs_per_s", "1/s"),
];

/// The per-layer metrics, with units, in report order. Every traced run
/// reports all of them; a layer the workload's path bypasses reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("protocol.request_decode_ns", "ns"),
        ("protocol.response_encode_ns", "ns"),
        ("framing.decode_ns", "ns"),
        ("framing.encode_ns", "ns"),
        ("server.ping_rtt_us", "us"),
        ("service.handle_alloc_us", "us"),
        ("service.handle_alloc_patterned_us", "us"),
        ("service.handle_release_us", "us"),
        ("service.handle_poll_us", "us"),
        ("alloc.allocate_us", "us"),
        ("alloc.release_us", "us"),
        ("admission.queue_len_mean", "count"),
        ("admission.grants_per_release", "count"),
        ("scheduler.release_conservative_over_fcfs", "ratio"),
        ("journal.append_us", "us"),
        ("journal.bytes_per_record", "B"),
        ("score.contention_us", "us"),
        ("cluster.route_us", "us"),
        ("cluster.comm_fallbacks_per_route", "ratio"),
        ("mesh.curve_build_us", "us"),
        ("loadgen.late_p99_us", "us"),
        ("tracing.overhead_ns", "ns"),
        ("unattributed_us", "us"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for p in CommPattern::paper_patterns() {
        names.push((format!("engine.config_run_s.{}", p.name()), "s"));
    }
    for a in AllocatorKind::paper_set() {
        names.push((format!("engine.config_run_s.{}", slug(a.name())), "s"));
    }
    names
}

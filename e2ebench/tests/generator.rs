//! Tests of the open-loop generator: deterministic schedules, coordinated
//! omission counted, and late generators refused.

use commalloc_service::{Request, Response};
use e2ebench::drive::{drive_phase, PhaseResult, Sample};
use e2ebench::plan::{planned_stream, PhasePlan};
use e2ebench::spec::{workload, DaemonSpec, Kind};
use e2ebench::timed::{scored_rounds, PhaseStats, LATENESS_LIMIT_US};
use e2ebench::tracker::Tracker;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::time::Duration;

fn daemon_spec(name: &str) -> DaemonSpec {
    match workload(name).expect("workload exists").kind {
        Kind::Daemon(spec) => spec,
        Kind::Sweep(_) => panic!("{name} is not a daemon workload"),
    }
}

#[test]
fn same_seed_yields_a_byte_identical_request_stream() {
    for name in ["churn_journaled", "pool_patterned", "queue_conservative"] {
        let spec = daemon_spec(name);
        let draw = |seed| PhasePlan::draw(name, &spec, seed, 0, 2000.0, 0.5);
        let a = planned_stream(&spec, &draw(7));
        let b = planned_stream(&spec, &draw(7));
        assert!(!a.is_empty());
        assert_eq!(a, b, "{name}: same seed, different bytes");
        assert_ne!(a, planned_stream(&spec, &draw(8)), "{name}: seed ignored");
    }
}

#[test]
fn a_stall_charges_every_request_due_behind_it() {
    const STALL: Duration = Duration::from_millis(150);
    const STALL_AT: usize = 100;
    let spec = daemon_spec("churn_journaled");
    // 2000 jobs/s for 0.5 s; the stub refuses every alloc, so the stream
    // is allocs only, one every 0.5 ms on average.
    let plan = PhasePlan::draw("churn_journaled", &spec, 3, 0, 2000.0, 0.5);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let stub = std::thread::spawn(move || {
        let (conn, _) = listener.accept().expect("accept");
        let mut out = conn.try_clone().expect("clone");
        for (answered, line) in BufReader::new(conn).lines().enumerate() {
            let Ok(line) = line else { break };
            let Ok(Request::Alloc { job, .. }) = Request::from_line(&line) else {
                panic!("unexpected request {line}");
            };
            if answered == STALL_AT {
                std::thread::sleep(STALL);
            }
            let response = Response::Rejected {
                job,
                reason: "full".to_string(),
                machine: None,
            };
            out.write_all(format!("{}\n", response.to_line()).as_bytes())
                .expect("write");
        }
    });
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut tracker = Tracker::new(&spec);
    let result = drive_phase(&stream, &spec, &plan, &mut tracker, u64::MAX).expect("phase runs");
    drop(stream);
    stub.join().expect("stub");

    assert_eq!(result.unanswered, 0);
    assert_eq!(result.sent, plan.jobs.len() as u64);
    let mut samples: Vec<Sample> = result.samples.clone();
    samples.sort_by_key(|s| s.due_ns);
    let stalled = samples[STALL_AT].due_ns;
    let stall_ns = STALL.as_nanos() as u64;
    // Every request due during the stall waits for its end: its latency is
    // at least the stall time still left when it was due.
    let behind: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.due_ns > stalled && s.due_ns < stalled + stall_ns / 2)
        .collect();
    assert!(
        behind.len() > 10,
        "the schedule kept sending during the stall"
    );
    for s in &behind {
        let left = stalled + stall_ns - s.due_ns;
        assert!(
            s.latency_ns + 5_000_000 >= left,
            "request due {} ns into the stall saw only {} ns",
            s.due_ns - stalled,
            s.latency_ns
        );
    }
    // Latency grows for later requests only because of the stall: well
    // after it, answers are prompt again.
    let after: Vec<u64> = samples
        .iter()
        .filter(|s| s.due_ns > stalled + 2 * stall_ns + 50_000_000)
        .map(|s| s.latency_ns)
        .collect();
    assert!(!after.is_empty());
    let mut sorted = after.clone();
    sorted.sort_unstable();
    assert!(
        sorted[sorted.len() / 2] < stall_ns / 4,
        "latency stayed high"
    );
}

fn phase_with_lateness(lateness_us: u64) -> PhaseStats {
    let spec = daemon_spec("churn_journaled");
    let plan = PhasePlan::draw("churn_journaled", &spec, 1, 0, 2000.0, 0.5);
    let result = PhaseResult {
        samples: plan
            .jobs
            .iter()
            .map(|j| Sample {
                due_ns: j.due_ns,
                latency_ns: 100_000 + lateness_us * 1000,
            })
            .collect(),
        lateness_ns: plan
            .jobs
            .iter()
            .map(|j| (j.due_ns, lateness_us * 1000))
            .collect(),
        sent: plan.jobs.len() as u64,
        ..PhaseResult::default()
    };
    PhaseStats::of(&result, &plan)
}

#[test]
fn a_generator_later_than_its_limit_is_invalid_not_scored() {
    let on_time = phase_with_lateness(50);
    let late = phase_with_lateness(LATENESS_LIMIT_US as u64 * 2);
    assert!(on_time.valid());
    assert!(!late.valid());
    // A run whose rounds mostly ran late is invalid: no rounds are scored.
    assert!(scored_rounds(&[late, late, on_time]).is_none());
    // Late rounds of an otherwise valid run are dropped, not scored.
    let kept = scored_rounds(&[on_time, late, on_time]).expect("valid run");
    assert_eq!(kept.len(), 2);
    assert!(kept.iter().all(PhaseStats::valid));
}

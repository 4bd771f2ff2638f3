//! The open-loop TCP generator: one connection, one writer (the calling
//! thread) sending every request when it is due, one reader thread
//! matching responses in order. Latency runs from when a request was
//! *due*, so a stall charges every request scheduled behind it.

use crate::plan::{encode, request, Op, PhasePlan, Session};
use crate::spec::DaemonSpec;
use crate::tracker::{Event, Tracker};
use commalloc_service::framing::decode_value;
use commalloc_service::{FrameBuffer, Framing, Request, Response};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long a phase may take to drain after its last arrival.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);
/// How long open jobs may wait with nothing in flight or scheduled
/// before the phase ends without them.
const STUCK_NS: u64 = 200_000_000;

/// One answered request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When it was due, in ns from the phase start.
    pub due_ns: u64,
    /// Due-to-answer latency, in ns.
    pub latency_ns: u64,
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Answered requests.
    pub samples: Vec<Sample>,
    /// Due time and send-minus-due lateness of every request, in ns.
    pub lateness_ns: Vec<(u64, u64)>,
    /// Requests sent.
    pub sent: u64,
    /// Requests sent that were never answered.
    pub unanswered: u64,
    /// Arrivals were stopped because an answer was overdue by more than
    /// the abort threshold.
    pub aborted: bool,
}

/// A request on the wire, awaiting its answer.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    due_ns: u64,
    op: Op,
    id: u64,
}

/// Decodes one response frame.
pub fn decode_response(framing: Framing, payload: &[u8]) -> Option<Response> {
    match framing {
        Framing::Ndjson => Response::from_line(std::str::from_utf8(payload).ok()?).ok(),
        Framing::Binary => Response::from_value(&decode_value(payload).ok()?).ok(),
    }
}

/// Sends `request` and waits for its answer (set-up and checks only; the
/// measured traffic goes through [`drive_phase`]).
pub fn call(stream: &mut TcpStream, framing: Framing, request: &Request) -> io::Result<Response> {
    let mut out = Vec::new();
    encode(framing, request, &mut out);
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(&out)?;
    let mut frames = FrameBuffer::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        if let Some(frame) = frames
            .next_frame()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
        {
            return decode_response(frame.framing, &frame.payload)
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "undecodable response"));
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed",
            ));
        }
        frames.extend(&buf[..n]);
    }
}

/// Runs one phase of `plan` over `stream`, open-loop. Once the oldest
/// unanswered request is overdue by `abort_ns`, no further allocs go out
/// and the phase only drains.
pub fn drive_phase(
    stream: &TcpStream,
    spec: &DaemonSpec,
    plan: &PhasePlan,
    tracker: &mut Tracker,
    abort_ns: u64,
) -> io::Result<PhaseResult> {
    let inflight: Mutex<VecDeque<InFlight>> = Mutex::new(VecDeque::new());
    let sent_total = AtomicU64::new(0);
    let writer_done = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<Event>();
    let mut reader_stream = stream.try_clone()?;
    reader_stream.set_read_timeout(Some(Duration::from_millis(20)))?;
    let mut writer_stream = stream.try_clone()?;
    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as u64;
    let drain_deadline = plan.window_ns + DRAIN_LIMIT.as_nanos() as u64;

    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut samples = Vec::with_capacity(plan.jobs.len() * 3);
            let mut frames = FrameBuffer::new();
            let mut buf = vec![0u8; 256 * 1024];
            let mut events = Vec::new();
            let mut received = 0u64;
            loop {
                let done = writer_done.load(Ordering::SeqCst);
                if done && received == sent_total.load(Ordering::SeqCst) {
                    break;
                }
                if now_ns() > drain_deadline + 1_000_000_000 {
                    break;
                }
                let n = match reader_stream.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => n,
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        continue
                    }
                    Err(_) => break,
                };
                let at_ns = now_ns();
                frames.extend(&buf[..n]);
                while let Ok(Some(frame)) = frames.next_frame() {
                    let Some(sent) = inflight.lock().expect("in-flight queue").pop_front() else {
                        tracker.counts.errors += 1;
                        continue;
                    };
                    received += 1;
                    samples.push(Sample {
                        due_ns: sent.due_ns,
                        latency_ns: at_ns.saturating_sub(sent.due_ns),
                    });
                    match decode_response(frame.framing, &frame.payload) {
                        Some(response) => tracker.on_response(
                            plan,
                            sent.op,
                            sent.id,
                            &response,
                            at_ns,
                            &mut events,
                        ),
                        None => {
                            tracker.counts.errors += 1;
                            if sent.op != Op::Poll {
                                let job = plan.index_of(sent.id).expect("own job");
                                events.push(Event::Finished { job });
                            }
                        }
                    }
                    for event in events.drain(..) {
                        let _ = tx.send(event);
                    }
                }
            }
            (samples, received)
        });

        let mut session = Session::new(spec, plan);
        let mut lateness = Vec::with_capacity(plan.jobs.len() * 3);
        let mut out = Vec::with_capacity(64 * 1024);
        let mut batch = Vec::new();
        let mut write_result = Ok(());
        let mut aborted = false;
        let mut stuck_since = None;
        let apply = |session: &mut Session, event: Event| match event {
            Event::Granted {
                job,
                at_ns,
                immediate,
            } => session.granted(job, at_ns, immediate),
            Event::Finished { .. } => session.finished(),
        };
        loop {
            while let Ok(event) = rx.try_recv() {
                apply(&mut session, event);
            }
            let now = now_ns();
            let oldest = inflight
                .lock()
                .expect("in-flight queue")
                .front()
                .map(|f| f.due_ns);
            if !aborted && oldest.is_some_and(|due| now.saturating_sub(due) > abort_ns) {
                // Overloaded past recovery: stop arrivals and let it drain.
                session.stop_arrivals();
                aborted = true;
            }
            out.clear();
            while let Some(item) = session.pop_due(now) {
                let job = &plan.jobs[item.job];
                encode(spec.framing, &request(spec, item.op, job), &mut out);
                lateness.push((item.due_ns, now - item.due_ns));
                batch.push(InFlight {
                    due_ns: item.due_ns,
                    op: item.op,
                    id: job.id,
                });
            }
            if !batch.is_empty() {
                let n = batch.len() as u64;
                inflight
                    .lock()
                    .expect("in-flight queue")
                    .extend(batch.drain(..));
                sent_total.fetch_add(n, Ordering::SeqCst);
                if let Err(e) = writer_stream.write_all(&out) {
                    write_result = Err(e);
                    break;
                }
                continue;
            }
            if session.done() || now > drain_deadline {
                break;
            }
            // Open jobs, nothing in flight and nothing scheduled: their
            // grants were never reported, and no answer can report them.
            if session.waiting_only() && oldest.is_none() {
                let since = *stuck_since.get_or_insert(now);
                if now - since > STUCK_NS {
                    break;
                }
            } else {
                stuck_since = None;
            }
            let wait = session
                .next_due()
                .map_or(5_000_000, |due| due.saturating_sub(now))
                .min(5_000_000);
            match rx.recv_timeout(Duration::from_nanos(wait)) {
                Ok(event) => apply(&mut session, event),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        writer_done.store(true, Ordering::SeqCst);
        let (samples, received) = reader.join().expect("reader thread panicked");
        write_result?;
        let sent = sent_total.load(Ordering::SeqCst);
        Ok(PhaseResult {
            samples,
            lateness_ns: lateness,
            sent,
            unanswered: sent - received,
            aborted,
        })
    })
}

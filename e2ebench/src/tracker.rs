//! Client-side bookkeeping of one daemon run: the claim table that turns
//! any double grant into a counted violation, the outcome counters, and
//! the realized grants that placement quality is computed from.

use crate::plan::{Op, PhasePlan};
use crate::spec::DaemonSpec;
use commalloc_mesh::NodeId;
use commalloc_service::Response;
use std::collections::HashMap;

/// What the session learns from one response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The job (phase index) holds processors since `at_ns`;
    /// `immediate` when the alloc itself was granted.
    Granted {
        /// Phase index of the job.
        job: usize,
        /// When the grant was learned.
        at_ns: u64,
        /// Granted by its own alloc, not from the queue.
        immediate: bool,
    },
    /// The job needs no further requests.
    Finished {
        /// Phase index of the job.
        job: usize,
    },
}

/// Outcome counters (summed over phases).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Requests answered.
    pub answered: u64,
    /// Allocs answered.
    pub allocs: u64,
    /// Allocs granted at once.
    pub granted: u64,
    /// Allocs queued (`wait=true`, no room yet).
    pub queued: u64,
    /// Allocs refused for lack of free processors.
    pub rejected: u64,
    /// Releases answered.
    pub releases: u64,
    /// Queued jobs granted by a release.
    pub granted_from_queue: u64,
    /// Error responses and responses of the wrong kind.
    pub errors: u64,
    /// Claim-table violations: a processor granted twice, a poll naming
    /// other processors than the grant, a machine not empty after a drain.
    pub violations: u64,
}

impl Counts {
    /// One-line summary.
    pub fn describe(&self, unanswered: u64) -> String {
        format!(
            "counts: {} answered, {} allocs ({} granted, {} queued, {} rejected), {} releases, \
             {} granted from the queue, {} errors, {} violations, {} unanswered",
            self.answered,
            self.allocs,
            self.granted,
            self.queued,
            self.rejected,
            self.releases,
            self.granted_from_queue,
            self.errors,
            self.violations,
            unanswered
        )
    }
}

/// One realized grant.
#[derive(Debug, Clone)]
pub struct Grant {
    /// Member index.
    pub member: usize,
    /// Wire job id.
    pub job: u64,
    /// Granted processors in rank order.
    pub nodes: Vec<NodeId>,
}

/// The claim table and counters of a run.
#[derive(Debug)]
pub struct Tracker {
    names: Vec<&'static str>,
    owner: Vec<Vec<u64>>,
    live: HashMap<u64, (usize, Vec<NodeId>)>,
    /// Counters.
    pub counts: Counts,
    /// Realized grants, in the order learned (kept while `record` is set).
    pub grants: Vec<Grant>,
    /// Whether to keep realized grants.
    pub record: bool,
}

impl Tracker {
    /// An empty table over the workload's members.
    pub fn new(spec: &DaemonSpec) -> Tracker {
        Tracker {
            names: spec.members.iter().map(|m| m.name).collect(),
            owner: spec.members.iter().map(|m| vec![0; m.nodes()]).collect(),
            live: HashMap::new(),
            counts: Counts::default(),
            grants: Vec::new(),
            record: false,
        }
    }

    /// Jobs the table believes hold processors.
    pub fn live_jobs(&self) -> usize {
        self.live.len()
    }

    fn member(&self, machine: Option<&str>) -> Option<usize> {
        match machine {
            None if self.names.len() == 1 => Some(0),
            None => None,
            Some(name) => self.names.iter().position(|n| *n == name),
        }
    }

    fn claim(&mut self, member: usize, job: u64, nodes: &[NodeId]) {
        let table = &mut self.owner[member];
        for node in nodes {
            match table.get_mut(node.0 as usize) {
                Some(slot) if *slot == 0 => *slot = job,
                _ => self.counts.violations += 1,
            }
        }
        if self.record {
            self.grants.push(Grant {
                member,
                job,
                nodes: nodes.to_vec(),
            });
        }
        if self.live.insert(job, (member, nodes.to_vec())).is_some() {
            self.counts.violations += 1;
        }
    }

    fn unclaim(&mut self, job: u64) {
        if let Some((member, nodes)) = self.live.remove(&job) {
            for node in nodes {
                self.owner[member][node.0 as usize] = 0;
            }
        }
    }

    /// Applies the response to `op` on job `id` of `plan`, learned at
    /// `at_ns`; pushes what the session must know onto `events`.
    pub fn on_response(
        &mut self,
        plan: &PhasePlan,
        op: Op,
        id: u64,
        response: &Response,
        at_ns: u64,
        events: &mut Vec<Event>,
    ) {
        self.counts.answered += 1;
        let job = plan
            .index_of(id)
            .expect("responses only answer this phase's jobs");
        match (op, response) {
            (Op::Alloc, Response::Granted { nodes, machine, .. }) => {
                self.counts.allocs += 1;
                self.counts.granted += 1;
                match self.member(machine.as_deref()) {
                    Some(member) => self.claim(member, id, nodes),
                    None => self.counts.violations += 1,
                }
                events.push(Event::Granted {
                    job,
                    at_ns,
                    immediate: true,
                });
            }
            (Op::Alloc, Response::Queued { .. }) => {
                self.counts.allocs += 1;
                self.counts.queued += 1;
            }
            (Op::Alloc, Response::Rejected { .. }) => {
                self.counts.allocs += 1;
                self.counts.rejected += 1;
                events.push(Event::Finished { job });
            }
            (
                Op::Release,
                Response::Released {
                    granted, machine, ..
                },
            ) => {
                self.counts.releases += 1;
                let member = self
                    .live
                    .get(&id)
                    .map(|(m, _)| *m)
                    .or_else(|| self.member(machine.as_deref()));
                self.unclaim(id);
                for (queued, nodes) in granted {
                    self.counts.granted_from_queue += 1;
                    match (member, plan.index_of(*queued)) {
                        (Some(member), Some(queued_job)) => {
                            self.claim(member, *queued, nodes);
                            events.push(Event::Granted {
                                job: queued_job,
                                at_ns,
                                immediate: false,
                            });
                        }
                        _ => self.counts.violations += 1,
                    }
                }
                events.push(Event::Finished { job });
            }
            (Op::Poll, Response::Running { nodes, .. }) => {
                if self.live.get(&id).map(|(_, held)| held) != Some(nodes) {
                    self.counts.violations += 1;
                }
            }
            (Op::Poll, Response::Waiting { .. }) => {}
            (op, _) => {
                self.counts.errors += 1;
                // A failed alloc or release ends the job; a failed poll
                // leaves its release scheduled.
                if op != Op::Poll {
                    self.unclaim(id);
                    events.push(Event::Finished { job });
                }
            }
        }
    }
}

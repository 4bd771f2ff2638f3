//! Event-driven message-level network simulator.
//!
//! A middle fidelity between the flit-level wormhole simulator and the fluid
//! rate model: each directed link is a FIFO server that transmits one whole
//! message at a time (store-and-forward), so a message's uncontended latency
//! is `hops × service_time` and queueing delays appear wherever routes
//! overlap. This model is orders of magnitude faster than flit simulation
//! because it advances by events rather than cycles, yet it still resolves
//! the per-link queueing that the fluid model averages away.

use crate::assert_unique_ids;
use crate::link::{LinkId, LinkTable};
use commalloc_mesh::{Mesh2D, NodeId};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A message to inject.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Message {
    /// Caller-chosen identifier.
    pub id: u64,
    /// Source processor.
    pub src: NodeId,
    /// Destination processor.
    pub dst: NodeId,
    /// Time at which the message is ready to leave the source.
    pub inject_at: f64,
    /// Time a link needs to forward the whole message.
    pub service_time: f64,
}

/// Delivery record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MessageDelivery {
    /// The message identifier.
    pub id: u64,
    /// Time the message fully arrived at its destination.
    pub delivered_at: f64,
    /// `delivered_at - inject_at`.
    pub latency: f64,
}

/// Result of a message-level simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MessageSimReport {
    /// Per-message records, in input order.
    pub deliveries: Vec<MessageDelivery>,
    /// Time the last message arrived.
    pub makespan: f64,
}

impl MessageSimReport {
    /// Mean latency over all messages.
    pub fn mean_latency(&self) -> f64 {
        if self.deliveries.is_empty() {
            return 0.0;
        }
        self.deliveries.iter().map(|d| d.latency).sum::<f64>() / self.deliveries.len() as f64
    }
}

/// The store-and-forward mesh network.
#[derive(Debug, Clone)]
pub struct MessageLevelNetwork {
    links: LinkTable,
}

/// Heap key of a message's pending event: the event time's total-order
/// bits, then the message's input index. A message has at most one
/// pending event (the next link of its path), so this orders events
/// exactly as (time, message, stage) would.
type EventKey = (u64, usize);

/// Maps `t` to unsigned bits whose integer order is `f64::total_cmp`'s.
fn time_key(t: f64) -> u64 {
    let bits = t.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Inverse of [`time_key`].
fn key_time(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

impl MessageLevelNetwork {
    /// Creates a simulator over `mesh`.
    pub fn new(mesh: Mesh2D) -> Self {
        MessageLevelNetwork {
            links: LinkTable::new(mesh),
        }
    }

    /// The mesh being simulated.
    pub fn mesh(&self) -> Mesh2D {
        self.links.mesh()
    }

    /// Simulates all messages to completion.
    ///
    /// Ties are broken by input order so runs are deterministic.
    ///
    /// # Panics
    ///
    /// Panics if two messages share an id (the per-id delivery records
    /// would be ambiguous).
    pub fn simulate(&self, messages: &[Message]) -> MessageSimReport {
        assert_unique_ids(messages.iter().map(|m| m.id));
        // Every route in one flat buffer: message `i` has yet to cross
        // `links[cursor[i]..ends[i]]`.
        let mut links: Vec<LinkId> = Vec::new();
        let mut cursor: Vec<usize> = Vec::with_capacity(messages.len());
        let mut ends: Vec<usize> = Vec::with_capacity(messages.len());
        for m in messages {
            cursor.push(links.len());
            self.links.extend_route(m.src, m.dst, &mut links);
            ends.push(links.len());
        }
        let mut link_free_at: Vec<f64> = vec![0.0; self.links.num_slots()];
        // Records land in input position; a local message (empty route)
        // is delivered the moment it is injected.
        let mut deliveries: Vec<MessageDelivery> = messages
            .iter()
            .map(|m| MessageDelivery {
                id: m.id,
                delivered_at: m.inject_at,
                latency: 0.0,
            })
            .collect();
        let mut heap: BinaryHeap<Reverse<EventKey>> = (0..messages.len())
            .filter(|&i| cursor[i] < ends[i])
            .map(|i| Reverse((time_key(messages[i].inject_at), i)))
            .collect();

        while let Some(Reverse((key, i))) = heap.pop() {
            let m = &messages[i];
            let link = links[cursor[i]].index();
            let start = key_time(key).max(link_free_at[link]);
            let finish = start + m.service_time;
            link_free_at[link] = finish;
            cursor[i] += 1;
            if cursor[i] < ends[i] {
                heap.push(Reverse((time_key(finish), i)));
            } else {
                deliveries[i].delivered_at = finish;
                deliveries[i].latency = finish - m.inject_at;
            }
        }

        let makespan = deliveries
            .iter()
            .map(|d| d.delivered_at)
            .fold(0.0f64, f64::max);
        MessageSimReport {
            deliveries,
            makespan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commalloc_mesh::Coord;

    fn mesh8() -> Mesh2D {
        Mesh2D::new(8, 8)
    }

    fn msg(mesh: Mesh2D, id: u64, src: (u16, u16), dst: (u16, u16), at: f64) -> Message {
        Message {
            id,
            src: mesh.id_of(Coord::new(src.0, src.1)),
            dst: mesh.id_of(Coord::new(dst.0, dst.1)),
            inject_at: at,
            service_time: 1.0,
        }
    }

    #[test]
    fn uncontended_latency_is_hops_times_service() {
        let mesh = mesh8();
        let net = MessageLevelNetwork::new(mesh);
        let r = net.simulate(&[msg(mesh, 1, (0, 0), (3, 2), 0.0)]);
        assert!((r.deliveries[0].latency - 5.0).abs() < 1e-12);
    }

    #[test]
    fn shared_link_queues_messages() {
        let mesh = mesh8();
        let net = MessageLevelNetwork::new(mesh);
        let r = net.simulate(&[
            msg(mesh, 1, (0, 0), (2, 0), 0.0),
            msg(mesh, 2, (0, 0), (2, 0), 0.0),
        ]);
        assert!((r.deliveries[0].latency - 2.0).abs() < 1e-12);
        // The second message waits one service time at the first link.
        assert!((r.deliveries[1].latency - 3.0).abs() < 1e-12);
    }

    #[test]
    fn local_message_is_immediate() {
        let mesh = mesh8();
        let net = MessageLevelNetwork::new(mesh);
        let r = net.simulate(&[msg(mesh, 1, (4, 4), (4, 4), 3.0)]);
        assert_eq!(r.deliveries[0].delivered_at, 3.0);
    }

    #[test]
    fn makespan_and_mean_latency() {
        let mesh = mesh8();
        let net = MessageLevelNetwork::new(mesh);
        let r = net.simulate(&[
            msg(mesh, 1, (0, 0), (1, 0), 0.0),
            msg(mesh, 2, (5, 5), (5, 7), 1.0),
        ]);
        assert!((r.makespan - 3.0).abs() < 1e-12);
        assert!((r.mean_latency() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn deliveries_stay_in_input_order_even_when_completion_inverts_it() {
        let mesh = mesh8();
        let net = MessageLevelNetwork::new(mesh);
        let slow = msg(mesh, 9, (0, 0), (7, 7), 0.0);
        let fast = msg(mesh, 3, (0, 5), (1, 5), 0.0);
        let r = net.simulate(&[slow, fast]);
        let ids: Vec<u64> = r.deliveries.iter().map(|d| d.id).collect();
        assert_eq!(ids, vec![9, 3]);
        assert!(r.deliveries[1].delivered_at < r.deliveries[0].delivered_at);
    }

    #[test]
    #[should_panic(expected = "duplicate message id")]
    fn duplicate_message_ids_are_rejected() {
        // Regression: duplicates used to be silently tolerated (the report
        // re-sort fell back to usize::MAX for unmatched ids), leaving the
        // per-id records ambiguous.
        let mesh = mesh8();
        let net = MessageLevelNetwork::new(mesh);
        net.simulate(&[
            msg(mesh, 1, (0, 0), (1, 0), 0.0),
            msg(mesh, 1, (0, 1), (1, 1), 0.0),
        ]);
    }

    #[test]
    fn agrees_with_flit_model_on_relative_contention() {
        // Both models must rank a congested scenario slower than an
        // uncongested one.
        let mesh = mesh8();
        let msg_net = MessageLevelNetwork::new(mesh);
        let congested: Vec<Message> = (0..6).map(|i| msg(mesh, i, (0, 0), (7, 0), 0.0)).collect();
        let spread: Vec<Message> = (0..6)
            .map(|i| msg(mesh, i, (0, i as u16), (7, i as u16), 0.0))
            .collect();
        let c = msg_net.simulate(&congested);
        let s = msg_net.simulate(&spread);
        assert!(c.makespan > s.makespan);
    }
}

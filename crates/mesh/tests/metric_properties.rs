//! Property tests pinning the placement metrics of `Mesh2D` to their
//! reference definitions: a hash-set flood fill for `components` and a
//! per-pair `distance` sum for `avg_pairwise_distance`.

use commalloc_mesh::{Mesh2D, NodeId};
use proptest::prelude::*;
use std::collections::HashSet;

/// Reference: 4-neighbour flood fill over hash sets.
fn reference_components(mesh: Mesh2D, nodes: &[NodeId]) -> usize {
    if nodes.is_empty() {
        return 0;
    }
    let in_set: HashSet<NodeId> = nodes.iter().copied().collect();
    let mut seen: HashSet<NodeId> = HashSet::new();
    let mut components = 0;
    for &start in nodes {
        if seen.contains(&start) {
            continue;
        }
        components += 1;
        let mut stack = vec![start];
        seen.insert(start);
        while let Some(n) = stack.pop() {
            for nb in mesh.neighbors(n) {
                if in_set.contains(&nb) && seen.insert(nb) {
                    stack.push(nb);
                }
            }
        }
    }
    components
}

/// Reference: integer distance total over every unordered pair.
fn reference_avg_pairwise(mesh: Mesh2D, nodes: &[NodeId]) -> f64 {
    if nodes.len() < 2 {
        return 0.0;
    }
    let mut total = 0u64;
    for (i, &a) in nodes.iter().enumerate() {
        for &b in &nodes[i + 1..] {
            total += mesh.distance(a, b) as u64;
        }
    }
    let pairs = nodes.len() * (nodes.len() - 1) / 2;
    total as f64 / pairs as f64
}

/// A mesh of up to 16×16 and a node list on it: empty, sparse or dense,
/// with repeats allowed.
fn arb_mesh_and_nodes() -> impl Strategy<Value = (Mesh2D, Vec<NodeId>)> {
    (1u16..=16, 1u16..=16).prop_flat_map(|(w, h)| {
        let mesh = Mesh2D::new(w, h);
        let n = mesh.num_nodes() as u32;
        proptest::collection::vec((0..n).prop_map(NodeId), 0..(2 * n as usize + 2))
            .prop_map(move |nodes| (mesh, nodes))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn components_match_the_hash_set_flood_fill((mesh, nodes) in arb_mesh_and_nodes()) {
        prop_assert_eq!(mesh.components(&nodes), reference_components(mesh, &nodes));
    }

    fn avg_pairwise_distance_is_bit_identical((mesh, nodes) in arb_mesh_and_nodes()) {
        prop_assert_eq!(
            mesh.avg_pairwise_distance(&nodes).to_bits(),
            reference_avg_pairwise(mesh, &nodes).to_bits()
        );
    }

    /// Contiguous rank windows along a curve are the scorer's candidates;
    /// pin them too (prefixes of a permutation: no repeats, mostly one
    /// component).
    fn metrics_match_on_row_major_windows(
        (mesh, start, len) in (1u16..=16, 1u16..=16).prop_flat_map(|(w, h)| {
            let n = w as usize * h as usize;
            (Just(Mesh2D::new(w, h)), 0..n, 0..=n)
        })
    ) {
        let end = (start + len).min(mesh.num_nodes());
        let nodes: Vec<NodeId> = (start as u32..end as u32).map(NodeId).collect();
        prop_assert_eq!(mesh.components(&nodes), reference_components(mesh, &nodes));
        prop_assert_eq!(
            mesh.avg_pairwise_distance(&nodes).to_bits(),
            reference_avg_pairwise(mesh, &nodes).to_bits()
        );
    }
}

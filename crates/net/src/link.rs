//! Directed links of a mesh and dense link identifiers.

use commalloc_mesh::{Mesh2D, NodeId};
use serde::{Deserialize, Serialize};

/// Dense identifier of a directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// Direction of a single mesh hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    PlusX,
    MinusX,
    PlusY,
    MinusY,
}

impl Direction {
    fn of(mesh: Mesh2D, from: NodeId, to: NodeId) -> Direction {
        let f = mesh.coord_of(from);
        let t = mesh.coord_of(to);
        debug_assert_eq!(f.manhattan(t), 1, "links connect adjacent processors");
        if t.x == f.x + 1 {
            Direction::PlusX
        } else if f.x == t.x + 1 {
            Direction::MinusX
        } else if t.y == f.y + 1 {
            Direction::PlusY
        } else {
            Direction::MinusY
        }
    }

    fn slot(self) -> u32 {
        match self {
            Direction::PlusX => 0,
            Direction::MinusX => 1,
            Direction::PlusY => 2,
            Direction::MinusY => 3,
        }
    }
}

/// Maps directed links of a mesh to dense [`LinkId`]s.
///
/// Every processor owns four outgoing link slots (+x, −x, +y, −y); slots that
/// would leave the mesh are simply never used, so `num_slots` is an upper
/// bound and [`LinkTable::num_links`] the exact count of physical links.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkTable {
    mesh: Mesh2D,
}

impl LinkTable {
    /// Creates the link table for `mesh`.
    pub fn new(mesh: Mesh2D) -> Self {
        LinkTable { mesh }
    }

    /// The mesh this table describes.
    pub fn mesh(&self) -> Mesh2D {
        self.mesh
    }

    /// Upper bound on link identifiers (`4 × num_nodes`); use it to size
    /// dense per-link vectors.
    pub fn num_slots(&self) -> usize {
        4 * self.mesh.num_nodes()
    }

    /// Number of physical directed links: `2·(2·W·H − W − H)`.
    pub fn num_links(&self) -> usize {
        let w = self.mesh.width() as usize;
        let h = self.mesh.height() as usize;
        2 * (2 * w * h - w - h)
    }

    /// The identifier of the directed link from `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the processors are not adjacent.
    pub fn link(&self, from: NodeId, to: NodeId) -> LinkId {
        let dir = Direction::of(self.mesh, from, to);
        LinkId(from.0 * 4 + dir.slot())
    }

    /// The identifiers of the links along the x-y route from `src` to `dst`,
    /// in traversal order. Empty when `src == dst`.
    pub fn route_links(&self, src: NodeId, dst: NodeId) -> Vec<LinkId> {
        let mut links = Vec::new();
        self.extend_route(src, dst, &mut links);
        links
    }

    /// Appends the links of the x-y route from `src` to `dst` to `out`, in
    /// traversal order, computed arithmetically (no intermediate path):
    /// the x leg leaves each node through its ±x slot, then the y leg
    /// leaves each node of the destination column through its ±y slot.
    ///
    /// # Panics
    ///
    /// Panics if either node is outside the mesh.
    pub(crate) fn extend_route(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
        let s = self.mesh.coord_of(src);
        let d = self.mesh.coord_of(dst);
        let w = self.mesh.width() as u32;
        let slot =
            |x: u16, y: u16, dir: Direction| LinkId((y as u32 * w + x as u32) * 4 + dir.slot());
        if d.x >= s.x {
            out.extend((s.x..d.x).map(|x| slot(x, s.y, Direction::PlusX)));
        } else {
            out.extend(
                (d.x + 1..=s.x)
                    .rev()
                    .map(|x| slot(x, s.y, Direction::MinusX)),
            );
        }
        if d.y >= s.y {
            out.extend((s.y..d.y).map(|y| slot(d.x, y, Direction::PlusY)));
        } else {
            out.extend(
                (d.y + 1..=s.y)
                    .rev()
                    .map(|y| slot(d.x, y, Direction::MinusY)),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commalloc_mesh::Coord;

    #[test]
    fn link_ids_are_unique_per_directed_link() {
        let mesh = Mesh2D::new(4, 4);
        let table = LinkTable::new(mesh);
        let mut seen = std::collections::HashSet::new();
        let mut count = 0;
        for node in mesh.nodes() {
            for nb in mesh.neighbors(node) {
                let id = table.link(node, nb);
                assert!(seen.insert(id), "duplicate link id {id:?}");
                assert!(id.index() < table.num_slots());
                count += 1;
            }
        }
        assert_eq!(count, table.num_links());
        assert_eq!(table.num_links(), 2 * (2 * 16 - 4 - 4));
    }

    #[test]
    fn opposite_directions_have_distinct_ids() {
        let mesh = Mesh2D::new(4, 4);
        let table = LinkTable::new(mesh);
        let a = mesh.id_of(Coord::new(1, 1));
        let b = mesh.id_of(Coord::new(2, 1));
        assert_ne!(table.link(a, b), table.link(b, a));
    }

    #[test]
    fn route_links_follow_the_xy_route() {
        let mesh = Mesh2D::new(8, 8);
        let table = LinkTable::new(mesh);
        let src = mesh.id_of(Coord::new(1, 1));
        let dst = mesh.id_of(Coord::new(4, 3));
        let links = table.route_links(src, dst);
        assert_eq!(links.len() as u32, mesh.distance(src, dst));
        assert!(table.route_links(src, src).is_empty());
    }

    #[test]
    fn arithmetic_routes_match_the_hop_by_hop_xy_route() {
        for mesh in [Mesh2D::new(5, 3), Mesh2D::new(1, 4), Mesh2D::new(4, 1)] {
            let table = LinkTable::new(mesh);
            for src in mesh.nodes() {
                for dst in mesh.nodes() {
                    let hop_by_hop: Vec<LinkId> = mesh
                        .xy_route_links(src, dst)
                        .into_iter()
                        .map(|(a, b)| table.link(a, b))
                        .collect();
                    assert_eq!(table.route_links(src, dst), hop_by_hop, "{src} -> {dst}");
                }
            }
        }
    }
}

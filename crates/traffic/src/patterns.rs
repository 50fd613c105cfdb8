//! Synthetic traffic patterns (paper §4): uniform random, nearest
//! neighbour, transpose, bit-complement, plus the classic bit-reverse,
//! tornado and shuffle permutations for wider coverage. All implement
//! [`heteronoc_noc::sim::Traffic`] so they plug into the open-loop driver.

use rand::rngs::StdRng;
use rand::Rng;

use heteronoc_noc::sim::Traffic;
use heteronoc_noc::types::NodeId;

pub use heteronoc_noc::sim::UniformRandom;

/// Nearest-neighbour traffic: each packet goes to a uniformly chosen mesh
/// neighbour of the source (paper Fig. 9). Nodes are laid out row-major on
/// a `width x height` grid.
#[derive(Clone, Copy, Debug)]
pub struct NearestNeighbor {
    /// Grid columns.
    pub width: usize,
    /// Grid rows.
    pub height: usize,
}

impl NearestNeighbor {
    /// Pattern for a `width x height` node grid.
    ///
    /// # Panics
    /// Panics if either dimension is < 2 (no neighbours otherwise).
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width >= 2 && height >= 2, "grid must be at least 2x2");
        Self { width, height }
    }
}

impl Traffic for NearestNeighbor {
    fn destination(&mut self, src: NodeId, num_nodes: usize, rng: &mut StdRng) -> NodeId {
        debug_assert_eq!(num_nodes, self.width * self.height);
        let x = src.index() % self.width;
        let y = src.index() / self.width;
        let mut opts = [(0usize, 0usize); 4];
        let mut n = 0;
        if y > 0 {
            opts[n] = (x, y - 1);
            n += 1;
        }
        if x + 1 < self.width {
            opts[n] = (x + 1, y);
            n += 1;
        }
        if y + 1 < self.height {
            opts[n] = (x, y + 1);
            n += 1;
        }
        if x > 0 {
            opts[n] = (x - 1, y);
            n += 1;
        }
        let (nx, ny) = opts[rng.random_range(0..n)];
        NodeId(ny * self.width + nx)
    }
}

/// Transpose traffic: node `(x, y)` sends to `(y, x)`. Diagonal nodes send
/// to themselves (their packets eject locally).
#[derive(Clone, Copy, Debug)]
pub struct Transpose {
    /// Grid side (the pattern is defined on a square grid).
    pub side: usize,
}

impl Transpose {
    /// Pattern for a `side x side` node grid.
    pub fn new(side: usize) -> Self {
        assert!(side > 0, "side must be non-zero");
        Self { side }
    }
}

impl Traffic for Transpose {
    fn destination(&mut self, src: NodeId, num_nodes: usize, _rng: &mut StdRng) -> NodeId {
        debug_assert_eq!(num_nodes, self.side * self.side);
        let x = src.index() % self.side;
        let y = src.index() / self.side;
        NodeId(x * self.side + y)
    }
}

/// Bit-complement traffic: node `i` sends to `!i & (N-1)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct BitComplement;

impl Traffic for BitComplement {
    fn destination(&mut self, src: NodeId, num_nodes: usize, _rng: &mut StdRng) -> NodeId {
        debug_assert!(num_nodes.is_power_of_two());
        NodeId(!src.index() & (num_nodes - 1))
    }
}

/// Bit-reverse traffic: the destination index is the source index with its
/// bits reversed (within `log2(N)` bits).
#[derive(Clone, Copy, Debug, Default)]
pub struct BitReverse;

impl Traffic for BitReverse {
    fn destination(&mut self, src: NodeId, num_nodes: usize, _rng: &mut StdRng) -> NodeId {
        debug_assert!(num_nodes.is_power_of_two());
        let bits = num_nodes.trailing_zeros();
        let mut s = src.index();
        let mut d = 0usize;
        for _ in 0..bits {
            d = (d << 1) | (s & 1);
            s >>= 1;
        }
        NodeId(d)
    }
}

/// Tornado traffic: node `(x, y)` sends halfway around each dimension:
/// `((x + ⌈w/2⌉ - 1) mod w, (y + ⌈h/2⌉ - 1) mod h)` — the classic
/// adversarial pattern for rings/tori (Dally & Towles §3.2).
#[derive(Clone, Copy, Debug)]
pub struct Tornado {
    /// Grid columns.
    pub width: usize,
    /// Grid rows.
    pub height: usize,
}

impl Tornado {
    /// Pattern for a `width x height` node grid.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 1 && height > 0, "grid too small for tornado");
        Self { width, height }
    }
}

impl Traffic for Tornado {
    fn destination(&mut self, src: NodeId, num_nodes: usize, _rng: &mut StdRng) -> NodeId {
        debug_assert_eq!(num_nodes, self.width * self.height);
        let x = src.index() % self.width;
        let y = src.index() / self.width;
        let dx = (x + self.width.div_ceil(2) - 1) % self.width;
        let dy = (y + self.height.div_ceil(2) - 1) % self.height;
        NodeId(dy * self.width + dx)
    }
}

/// Perfect-shuffle traffic: destination index is the source index rotated
/// left by one bit (within `log2(N)` bits).
#[derive(Clone, Copy, Debug, Default)]
pub struct Shuffle;

impl Traffic for Shuffle {
    fn destination(&mut self, src: NodeId, num_nodes: usize, _rng: &mut StdRng) -> NodeId {
        debug_assert!(num_nodes.is_power_of_two());
        let bits = num_nodes.trailing_zeros();
        let s = src.index();
        let rotated = ((s << 1) | (s >> (bits - 1))) & (num_nodes - 1);
        NodeId(rotated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn nearest_neighbor_is_adjacent() {
        let mut t = NearestNeighbor::new(8, 8);
        let mut r = rng();
        for s in 0..64 {
            for _ in 0..20 {
                let d = t.destination(NodeId(s), 64, &mut r);
                let (sx, sy) = (s % 8, s / 8);
                let (dx, dy) = (d.index() % 8, d.index() / 8);
                assert_eq!(sx.abs_diff(dx) + sy.abs_diff(dy), 1, "{s}->{d}");
            }
        }
    }

    #[test]
    fn transpose_is_involution() {
        let mut t = Transpose::new(8);
        let mut r = rng();
        for s in 0..64 {
            let d = t.destination(NodeId(s), 64, &mut r);
            let back = t.destination(d, 64, &mut r);
            assert_eq!(back, NodeId(s));
        }
        assert_eq!(t.destination(NodeId(0), 64, &mut r), NodeId(0));
        assert_eq!(t.destination(NodeId(1), 64, &mut r), NodeId(8));
    }

    #[test]
    fn bit_complement_pairs_opposite_corners() {
        let mut t = BitComplement;
        let mut r = rng();
        assert_eq!(t.destination(NodeId(0), 64, &mut r), NodeId(63));
        assert_eq!(t.destination(NodeId(63), 64, &mut r), NodeId(0));
        assert_eq!(t.destination(NodeId(21), 64, &mut r), NodeId(42));
    }

    #[test]
    fn bit_reverse_examples() {
        let mut t = BitReverse;
        let mut r = rng();
        // 64 nodes -> 6 bits: 0b000001 -> 0b100000.
        assert_eq!(t.destination(NodeId(1), 64, &mut r), NodeId(32));
        assert_eq!(t.destination(NodeId(32), 64, &mut r), NodeId(1));
        assert_eq!(t.destination(NodeId(0), 64, &mut r), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn nn_rejects_degenerate_grid() {
        let _ = NearestNeighbor::new(1, 8);
    }

    #[test]
    fn tornado_sends_halfway_around() {
        let mut t = Tornado::new(8, 8);
        let mut r = rng();
        // (0,0) -> (3,3): +ceil(8/2)-1 = +3 in each dimension.
        assert_eq!(t.destination(NodeId(0), 64, &mut r), NodeId(3 * 8 + 3));
        // Wraps: (6,7) -> (1,2).
        assert_eq!(
            t.destination(NodeId(7 * 8 + 6), 64, &mut r),
            NodeId(2 * 8 + 1)
        );
        // Tornado is a permutation: all destinations distinct.
        let dsts: std::collections::HashSet<_> = (0..64)
            .map(|s| t.destination(NodeId(s), 64, &mut r))
            .collect();
        assert_eq!(dsts.len(), 64);
    }

    #[test]
    fn shuffle_rotates_bits() {
        let mut t = Shuffle;
        let mut r = rng();
        // 6 bits: 0b000001 -> 0b000010; 0b100000 -> 0b000001.
        assert_eq!(t.destination(NodeId(1), 64, &mut r), NodeId(2));
        assert_eq!(t.destination(NodeId(32), 64, &mut r), NodeId(1));
        assert_eq!(t.destination(NodeId(0), 64, &mut r), NodeId(0));
        // Permutation property.
        let dsts: std::collections::HashSet<_> = (0..64)
            .map(|s| t.destination(NodeId(s), 64, &mut r))
            .collect();
        assert_eq!(dsts.len(), 64);
    }
}

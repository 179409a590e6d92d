//! 2D-mesh floor plan of the tiled CMP.
//!
//! The paper evaluates a 32-core CMP with a 2D-mesh data network and lays the
//! GLock hierarchy out per mesh row (one secondary lock manager per row, the
//! primary manager in a central row). This module owns all coordinate math:
//! row-major tile numbering, XY hop distances (used by the NoC) and the
//! near-square factorization used for non-square core counts such as 32
//! (8×4).

use crate::ids::TileId;

/// A tile position: `x` is the column, `y` the row.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Coord {
    pub x: u16,
    pub y: u16,
}

/// A rectangular mesh of tiles, numbered row-major.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mesh2D {
    cols: u16,
    rows: u16,
}

impl Mesh2D {
    /// A mesh with the given dimensions.
    pub fn new(cols: u16, rows: u16) -> Self {
        assert!(cols > 0 && rows > 0, "mesh must be non-empty");
        Mesh2D { cols, rows }
    }

    /// The most-square mesh holding exactly `n` tiles: the factorization
    /// `cols × rows = n` with `cols ≥ rows` and minimal `cols − rows`.
    /// 32 cores → 8×4, 16 → 4×4, 9 → 3×3.
    pub fn near_square(n: usize) -> Self {
        assert!(n > 0, "mesh must be non-empty");
        let mut best = (n as u16, 1u16);
        let mut r = 1usize;
        while r * r <= n {
            if n.is_multiple_of(r) {
                best = ((n / r) as u16, r as u16);
            }
            r += 1;
        }
        Mesh2D::new(best.0, best.1)
    }

    #[inline]
    pub fn cols(&self) -> u16 {
        self.cols
    }

    #[inline]
    pub fn rows(&self) -> u16 {
        self.rows
    }

    /// Total number of tiles.
    #[inline]
    pub fn len(&self) -> usize {
        self.cols as usize * self.rows as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        false // a Mesh2D is never empty by construction
    }

    /// Coordinate of a tile id (row-major numbering).
    #[inline]
    pub fn coord(&self, t: TileId) -> Coord {
        debug_assert!(t.index() < self.len());
        Coord {
            x: t.0 % self.cols,
            y: t.0 / self.cols,
        }
    }

    /// Tile id at a coordinate.
    #[inline]
    pub fn tile(&self, c: Coord) -> TileId {
        debug_assert!(c.x < self.cols && c.y < self.rows);
        TileId(c.y * self.cols + c.x)
    }

    /// Manhattan (XY-routing) hop distance between two tiles.
    #[inline]
    pub fn hops(&self, a: TileId, b: TileId) -> u32 {
        let ca = self.coord(a);
        let cb = self.coord(b);
        (ca.x.abs_diff(cb.x) + ca.y.abs_diff(cb.y)) as u32
    }

    /// The next tile on the XY route from `from` towards `to`
    /// (X dimension first, then Y), or `None` if already there.
    pub fn xy_next_hop(&self, from: TileId, to: TileId) -> Option<TileId> {
        let f = self.coord(from);
        let t = self.coord(to);
        if f.x != t.x {
            let x = if t.x > f.x { f.x + 1 } else { f.x - 1 };
            Some(self.tile(Coord { x, y: f.y }))
        } else if f.y != t.y {
            let y = if t.y > f.y { f.y + 1 } else { f.y - 1 };
            Some(self.tile(Coord { x: f.x, y }))
        } else {
            None
        }
    }

    /// All tile ids in row-major order.
    pub fn tiles(&self) -> impl Iterator<Item = TileId> {
        (0..self.len()).map(TileId::from)
    }

    /// Tile ids of one mesh row.
    pub fn row(&self, y: u16) -> impl Iterator<Item = TileId> + '_ {
        assert!(y < self.rows);
        (0..self.cols).map(move |x| self.tile(Coord { x, y }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_square_factorizations() {
        assert_eq!(Mesh2D::near_square(32), Mesh2D::new(8, 4));
        assert_eq!(Mesh2D::near_square(16), Mesh2D::new(4, 4));
        assert_eq!(Mesh2D::near_square(9), Mesh2D::new(3, 3));
        assert_eq!(Mesh2D::near_square(4), Mesh2D::new(2, 2));
        assert_eq!(Mesh2D::near_square(1), Mesh2D::new(1, 1));
        // primes degrade to a 1-row mesh
        assert_eq!(Mesh2D::near_square(7), Mesh2D::new(7, 1));
    }

    #[test]
    fn coord_round_trip() {
        let m = Mesh2D::new(8, 4);
        for t in m.tiles() {
            assert_eq!(m.tile(m.coord(t)), t);
        }
    }

    #[test]
    fn row_major_numbering() {
        let m = Mesh2D::new(3, 3);
        assert_eq!(m.coord(TileId(0)), Coord { x: 0, y: 0 });
        assert_eq!(m.coord(TileId(5)), Coord { x: 2, y: 1 });
        assert_eq!(m.coord(TileId(8)), Coord { x: 2, y: 2 });
    }

    #[test]
    fn hops_are_manhattan() {
        let m = Mesh2D::new(8, 4);
        assert_eq!(m.hops(TileId(0), TileId(0)), 0);
        assert_eq!(m.hops(TileId(0), TileId(7)), 7);
        assert_eq!(m.hops(TileId(0), TileId(31)), 7 + 3);
        assert_eq!(m.hops(TileId(31), TileId(0)), 10);
    }

    #[test]
    fn xy_route_reaches_destination_in_hops_steps() {
        let m = Mesh2D::new(8, 4);
        for a in m.tiles() {
            for b in m.tiles() {
                let mut cur = a;
                let mut steps = 0;
                while let Some(next) = m.xy_next_hop(cur, b) {
                    // each step moves exactly one hop closer
                    assert_eq!(m.hops(next, b) + 1, m.hops(cur, b));
                    cur = next;
                    steps += 1;
                    assert!(steps <= m.len() as u32, "route too long");
                }
                assert_eq!(cur, b);
                assert_eq!(steps, m.hops(a, b));
            }
        }
    }

    #[test]
    fn xy_routes_x_first() {
        let m = Mesh2D::new(4, 4);
        // from (0,0) to (2,2): first hop must change x
        let next = m.xy_next_hop(TileId(0), TileId(10)).unwrap();
        assert_eq!(m.coord(next), Coord { x: 1, y: 0 });
    }

    #[test]
    fn rows_enumerate_cols_tiles() {
        let m = Mesh2D::new(8, 4);
        let row2: Vec<_> = m.row(2).collect();
        assert_eq!(row2.len(), 8);
        assert_eq!(row2[0], TileId(16));
        assert_eq!(row2[7], TileId(23));
    }
}

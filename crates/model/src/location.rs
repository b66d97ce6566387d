//! The location domain `ℒ` (paper §IV-A).
//!
//! Sensors live at a [`Point`] in 2-D space; abstract subscriptions constrain
//! sources to a [`Region`] `L ⊆ ℒ`. Regions support the containment checks
//! the subsumption machinery needs (`L ⊆ L'`).

/// A point in 2-D space (metres in the bundled workloads, but unit-free here).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Easting / x coordinate.
    pub x: f64,
    /// Northing / y coordinate.
    pub y: f64,
}

impl Point {
    /// Construct a point.
    #[must_use]
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    #[must_use]
    pub fn distance(&self, other: &Point) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }
}

/// An axis-aligned rectangle `[min.x, max.x] × [min.y, max.y]` (inclusive).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Construct a rectangle. Panics if the corners are inverted or not finite.
    #[must_use]
    pub fn new(min: Point, max: Point) -> Self {
        assert!(
            min.x.is_finite() && min.y.is_finite() && max.x.is_finite() && max.y.is_finite(),
            "Rect corners must be finite"
        );
        assert!(
            min.x <= max.x && min.y <= max.y,
            "Rect corners inverted: {min:?} > {max:?}"
        );
        Rect { min, max }
    }

    /// A rectangle centred on `c` with half-extent `r` in both axes.
    #[must_use]
    pub fn centered(c: Point, r: f64) -> Self {
        Rect::new(Point::new(c.x - r, c.y - r), Point::new(c.x + r, c.y + r))
    }

    /// Does this rectangle contain the point (inclusive)?
    #[must_use]
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Does this rectangle fully contain `other`?
    #[must_use]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.min.x <= other.min.x
            && self.min.y <= other.min.y
            && self.max.x >= other.max.x
            && self.max.y >= other.max.y
    }

    /// Do the rectangles overlap (inclusive boundaries)?
    #[must_use]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// The smallest rectangle containing both.
    #[must_use]
    pub fn hull(&self, other: &Rect) -> Rect {
        Rect {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// Centre point.
    #[must_use]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
        )
    }
}

/// A spatial region `L ⊆ ℒ` constraining abstract subscriptions.
///
/// The paper leaves the region language open ("an area in 2D space, a volume
/// in 3D space, or a sub-location in a hierarchically organized location
/// domain"); we implement the 2-D case with rectangles and circles, plus the
/// unconstrained region used by identified subscriptions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Region {
    /// The whole location domain (no spatial constraint).
    All,
    /// An axis-aligned rectangle.
    Rect(Rect),
    /// A disc around `center` with `radius` (inclusive).
    Circle {
        /// Disc centre.
        center: Point,
        /// Disc radius.
        radius: f64,
    },
}

impl Region {
    /// Does the region contain the point?
    #[must_use]
    pub fn contains(&self, p: &Point) -> bool {
        match self {
            Region::All => true,
            Region::Rect(r) => r.contains(p),
            Region::Circle { center, radius } => center.distance(p) <= *radius,
        }
    }

    /// Conservative region containment: `true` guarantees `other ⊆ self`.
    ///
    /// Exact for `All`/`Rect`/`Circle` pairs; used by the pairwise coverage
    /// check, where a false negative merely forgoes an optimisation.
    #[must_use]
    pub fn contains_region(&self, other: &Region) -> bool {
        match (self, other) {
            (Region::All, _) => true,
            (_, Region::All) => false,
            (Region::Rect(a), Region::Rect(b)) => a.contains_rect(b),
            (Region::Rect(a), Region::Circle { center, radius }) => {
                a.contains_rect(&Rect::centered(*center, *radius))
            }
            (Region::Circle { center, radius }, Region::Rect(b)) => {
                // All four corners inside the disc.
                let corners = [
                    b.min,
                    b.max,
                    Point::new(b.min.x, b.max.y),
                    Point::new(b.max.x, b.min.y),
                ];
                corners.iter().all(|c| center.distance(c) <= *radius)
            }
            (
                Region::Circle {
                    center: c1,
                    radius: r1,
                },
                Region::Circle {
                    center: c2,
                    radius: r2,
                },
            ) => c1.distance(c2) + r2 <= *r1,
        }
    }

    /// The tightest axis-aligned bounding rectangle, or `None` for [`Region::All`].
    #[must_use]
    pub fn bounding_rect(&self) -> Option<Rect> {
        match self {
            Region::All => None,
            Region::Rect(r) => Some(*r),
            Region::Circle { center, radius } => Some(Rect::centered(*center, *radius)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn point_distance() {
        assert!((p(0.0, 0.0).distance(&p(3.0, 4.0)) - 5.0).abs() < 1e-12);
        assert_eq!(p(1.0, 1.0).distance(&p(1.0, 1.0)), 0.0);
    }

    #[test]
    fn rect_contains_points_inclusively() {
        let r = Rect::new(p(0.0, 0.0), p(2.0, 2.0));
        assert!(r.contains(&p(0.0, 0.0)));
        assert!(r.contains(&p(2.0, 2.0)));
        assert!(r.contains(&p(1.0, 1.5)));
        assert!(!r.contains(&p(2.1, 1.0)));
        assert!(!r.contains(&p(-0.1, 1.0)));
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn rect_rejects_inverted_corners() {
        let _ = Rect::new(p(1.0, 0.0), p(0.0, 2.0));
    }

    #[test]
    fn rect_containment_and_intersection() {
        let big = Rect::new(p(0.0, 0.0), p(10.0, 10.0));
        let small = Rect::new(p(2.0, 2.0), p(3.0, 3.0));
        let outside = Rect::new(p(11.0, 0.0), p(12.0, 1.0));
        assert!(big.contains_rect(&small));
        assert!(!small.contains_rect(&big));
        assert!(big.contains_rect(&big));
        assert!(big.intersects(&small));
        assert!(!big.intersects(&outside));
        assert_eq!(small.hull(&big), big);
        assert_eq!(small.hull(&outside), Rect::new(p(2.0, 0.0), p(12.0, 3.0)));
    }

    #[test]
    fn region_contains_point() {
        let rect = Region::Rect(Rect::new(p(0.0, 0.0), p(4.0, 4.0)));
        let circ = Region::Circle {
            center: p(0.0, 0.0),
            radius: 5.0,
        };
        assert!(Region::All.contains(&p(1e9, -1e9)));
        assert!(rect.contains(&p(4.0, 4.0)));
        assert!(!rect.contains(&p(4.0, 4.1)));
        assert!(circ.contains(&p(3.0, 4.0)));
        assert!(!circ.contains(&p(3.1, 4.0)));
    }

    #[test]
    fn region_containment_all_pairs() {
        let r1 = Region::Rect(Rect::new(p(0.0, 0.0), p(10.0, 10.0)));
        let r2 = Region::Rect(Rect::new(p(2.0, 2.0), p(3.0, 3.0)));
        let c_in = Region::Circle {
            center: p(5.0, 5.0),
            radius: 1.0,
        };
        let c_big = Region::Circle {
            center: p(5.0, 5.0),
            radius: 100.0,
        };

        assert!(Region::All.contains_region(&r1));
        assert!(!r1.contains_region(&Region::All));
        assert!(r1.contains_region(&r2));
        assert!(!r2.contains_region(&r1));
        // rect ⊇ circle via the circle's bounding box
        assert!(r1.contains_region(&c_in));
        assert!(!r1.contains_region(&c_big));
        // circle ⊇ rect via corners
        assert!(c_big.contains_region(&r1));
        assert!(!c_in.contains_region(&r2));
        // circle ⊇ circle
        assert!(c_big.contains_region(&c_in));
        assert!(!c_in.contains_region(&c_big));
    }

    #[test]
    fn bounding_rect() {
        assert_eq!(Region::All.bounding_rect(), None);
        let c = Region::Circle {
            center: p(1.0, 1.0),
            radius: 2.0,
        };
        let br = c.bounding_rect().unwrap();
        assert_eq!(br.min, p(-1.0, -1.0));
        assert_eq!(br.max, p(3.0, 3.0));
    }

    #[test]
    fn containment_implies_point_membership() {
        // if A ⊇ B then every sampled point of B is in A
        let a = Region::Circle {
            center: p(0.0, 0.0),
            radius: 10.0,
        };
        let b = Region::Rect(Rect::new(p(-2.0, -2.0), p(2.0, 2.0)));
        assert!(a.contains_region(&b));
        for i in 0..20 {
            for j in 0..20 {
                let q = p(
                    -2.0 + 4.0 * (i as f64) / 19.0,
                    -2.0 + 4.0 * (j as f64) / 19.0,
                );
                if b.contains(&q) {
                    assert!(a.contains(&q));
                }
            }
        }
    }
}

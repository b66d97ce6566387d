//! Value ranges — the `min ≤ a ≤ max` simple-filter conditions (paper §IV-A).

/// A closed interval `[min, max]` over an ordered value domain `𝒟`.
///
/// Simple filters in the paper are `min ≤ a ≤ max` (or the degenerate
/// `a = v`). Ranges are the atoms both the matching semantics and the
/// subsumption machinery operate on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueRange {
    min: f64,
    max: f64,
}

impl ValueRange {
    /// Construct `[min, max]`. Panics on NaN or `min > max`; use
    /// [`ValueRange::try_new`] for fallible construction.
    #[must_use]
    pub fn new(min: f64, max: f64) -> Self {
        Self::try_new(min, max).expect("invalid ValueRange")
    }

    /// Construct `[min, max]`, rejecting NaN bounds and inverted intervals.
    pub fn try_new(min: f64, max: f64) -> Result<Self, crate::ModelError> {
        if min.is_nan() || max.is_nan() {
            return Err(crate::ModelError::InvalidRange { min, max });
        }
        if min > max {
            return Err(crate::ModelError::InvalidRange { min, max });
        }
        Ok(ValueRange { min, max })
    }

    /// The degenerate equality filter `a = v`.
    #[must_use]
    pub fn eq_value(v: f64) -> Self {
        ValueRange::new(v, v)
    }

    /// The whole (finite-representable) value domain.
    #[must_use]
    pub fn unbounded() -> Self {
        ValueRange {
            min: f64::NEG_INFINITY,
            max: f64::INFINITY,
        }
    }

    /// Lower bound.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Upper bound.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Does the range contain the value (inclusive)?
    #[must_use]
    pub fn contains(&self, v: f64) -> bool {
        v >= self.min && v <= self.max
    }

    /// Does this range fully contain `other`?
    #[must_use]
    pub fn contains_range(&self, other: &ValueRange) -> bool {
        self.min <= other.min && self.max >= other.max
    }

    /// Do the ranges overlap (share at least one point)?
    #[must_use]
    pub fn intersects(&self, other: &ValueRange) -> bool {
        self.min <= other.max && other.min <= self.max
    }

    /// The overlap of two ranges, if non-empty.
    #[must_use]
    pub fn intersection(&self, other: &ValueRange) -> Option<ValueRange> {
        let lo = self.min.max(other.min);
        let hi = self.max.min(other.max);
        (lo <= hi).then_some(ValueRange { min: lo, max: hi })
    }

    /// The smallest range containing both.
    #[must_use]
    pub fn hull(&self, other: &ValueRange) -> ValueRange {
        ValueRange {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Interval length (`0` for equality filters, may be infinite).
    #[must_use]
    pub fn width(&self) -> f64 {
        self.max - self.min
    }

    /// Midpoint of the interval (finite ranges only).
    #[must_use]
    pub fn center(&self) -> f64 {
        self.min / 2.0 + self.max / 2.0
    }
}

impl std::fmt::Display for ValueRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(ValueRange::try_new(1.0, 0.0).is_err());
        assert!(ValueRange::try_new(f64::NAN, 0.0).is_err());
        assert!(ValueRange::try_new(0.0, f64::NAN).is_err());
        assert!(ValueRange::try_new(0.0, 0.0).is_ok());
        assert!(ValueRange::try_new(-1.0, 1.0).is_ok());
    }

    #[test]
    fn contains_is_inclusive() {
        let r = ValueRange::new(10.0, 30.0);
        assert!(r.contains(10.0));
        assert!(r.contains(30.0));
        assert!(r.contains(20.0));
        assert!(!r.contains(9.999));
        assert!(!r.contains(30.001));
    }

    #[test]
    fn eq_value_is_a_point() {
        let r = ValueRange::eq_value(5.0);
        assert!(r.contains(5.0));
        assert!(!r.contains(5.0001));
        assert_eq!(r.width(), 0.0);
    }

    #[test]
    fn containment_and_intersection() {
        let wide = ValueRange::new(0.0, 100.0);
        let narrow = ValueRange::new(40.0, 60.0);
        let disjoint = ValueRange::new(200.0, 300.0);
        assert!(wide.contains_range(&narrow));
        assert!(!narrow.contains_range(&wide));
        assert!(wide.contains_range(&wide));
        assert!(wide.intersects(&narrow));
        assert!(!wide.intersects(&disjoint));
        assert_eq!(wide.intersection(&narrow), Some(narrow));
        assert_eq!(wide.intersection(&disjoint), None);
        assert_eq!(narrow.hull(&wide), wide);
        assert_eq!(narrow.hull(&disjoint), ValueRange::new(40.0, 300.0));
        // touching intervals intersect at the shared endpoint
        let touch = ValueRange::new(100.0, 150.0);
        assert_eq!(
            wide.intersection(&touch),
            Some(ValueRange::new(100.0, 100.0))
        );
    }

    #[test]
    fn unbounded_contains_everything_finite() {
        let u = ValueRange::unbounded();
        assert!(u.contains(1e300));
        assert!(u.contains(-1e300));
        assert!(u.contains_range(&ValueRange::new(-5.0, 5.0)));
    }

    #[test]
    fn center_and_width() {
        let r = ValueRange::new(10.0, 30.0);
        assert_eq!(r.center(), 20.0);
        assert_eq!(r.width(), 20.0);
    }
}

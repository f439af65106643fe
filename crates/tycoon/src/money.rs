//! Exact money arithmetic.
//!
//! Bank balances must add up — a market where credits leak would corrupt
//! every downstream experiment — so accounting uses signed 64-bit
//! *micro-credits* (10⁻⁶ of a credit; the paper's experiments denominate
//! funding in "dollars", which map 1:1 to credits). Auction math happens in
//! `f64` and converts at well-defined rounding points.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Neg, Sub, SubAssign};

/// Micro-credit fixed-point money. 1 credit = 1_000_000 micros.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Credits(i64);

const MICROS: i64 = 1_000_000;

impl Credits {
    /// Zero credits.
    pub const ZERO: Credits = Credits(0);

    /// Construct from whole credits.
    pub const fn from_whole(c: i64) -> Credits {
        Credits(c * MICROS)
    }

    /// Construct from raw micro-credits.
    pub const fn from_micros(m: i64) -> Credits {
        Credits(m)
    }

    /// Construct from a float amount of credits (rounds to nearest micro).
    ///
    /// # Panics
    /// Panics on NaN/infinite input or magnitudes beyond the i64 range.
    pub fn from_f64(c: f64) -> Credits {
        assert!(c.is_finite(), "non-finite credit amount {c}");
        let m = (c * MICROS as f64).round();
        assert!(
            m >= i64::MIN as f64 && m <= i64::MAX as f64,
            "credit amount out of range: {c}"
        );
        Credits(m as i64)
    }

    /// Raw micro-credits.
    pub const fn as_micros(self) -> i64 {
        self.0
    }

    /// Value in credits as `f64` (for market math and reporting).
    pub fn as_f64(self) -> f64 {
        self.0 as f64 / MICROS as f64
    }

    /// True if strictly positive.
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// True if strictly negative.
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Smaller of two amounts.
    pub fn min(self, other: Credits) -> Credits {
        Credits(self.0.min(other.0))
    }

    /// Larger of two amounts.
    pub fn max(self, other: Credits) -> Credits {
        Credits(self.0.max(other.0))
    }

    /// Saturating subtraction clamped at zero (never goes negative).
    pub fn saturating_sub_at_zero(self, other: Credits) -> Credits {
        Credits((self.0 - other.0).max(0))
    }

    /// Checked addition.
    pub fn checked_add(self, other: Credits) -> Option<Credits> {
        self.0.checked_add(other.0).map(Credits)
    }

    /// Checked subtraction.
    pub fn checked_sub(self, other: Credits) -> Option<Credits> {
        self.0.checked_sub(other.0).map(Credits)
    }
}

impl Add for Credits {
    type Output = Credits;
    fn add(self, rhs: Credits) -> Credits {
        Credits(self.0.checked_add(rhs.0).expect("credit overflow"))
    }
}

impl AddAssign for Credits {
    fn add_assign(&mut self, rhs: Credits) {
        *self = *self + rhs;
    }
}

impl Sub for Credits {
    type Output = Credits;
    fn sub(self, rhs: Credits) -> Credits {
        Credits(self.0.checked_sub(rhs.0).expect("credit underflow"))
    }
}

impl SubAssign for Credits {
    fn sub_assign(&mut self, rhs: Credits) {
        *self = *self - rhs;
    }
}

impl Neg for Credits {
    type Output = Credits;
    fn neg(self) -> Credits {
        Credits(-self.0)
    }
}

impl Sum for Credits {
    fn sum<I: Iterator<Item = Credits>>(iter: I) -> Credits {
        iter.fold(Credits::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Credits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${:.6}", self.as_f64())
    }
}

impl fmt::Display for Credits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${:.2}", self.as_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Credits::from_whole(5).as_micros(), 5_000_000);
        assert_eq!(Credits::from_f64(1.5).as_micros(), 1_500_000);
        assert_eq!(Credits::from_f64(-0.25).as_f64(), -0.25);
        assert_eq!(Credits::from_micros(1).as_f64(), 1e-6);
    }

    #[test]
    fn arithmetic() {
        let a = Credits::from_whole(10);
        let b = Credits::from_whole(3);
        assert_eq!((a - b).as_f64(), 7.0);
        assert_eq!((a + b).as_f64(), 13.0);
        assert_eq!((-b).as_f64(), -3.0);
        let total: Credits = vec![a, b, b].into_iter().sum();
        assert_eq!(total.as_f64(), 16.0);
    }

    #[test]
    fn saturating_sub() {
        let a = Credits::from_whole(1);
        let b = Credits::from_whole(5);
        assert_eq!(a.saturating_sub_at_zero(b), Credits::ZERO);
        assert_eq!(b.saturating_sub_at_zero(a), Credits::from_whole(4));
    }

    #[test]
    fn rounding_is_nearest() {
        assert_eq!(Credits::from_f64(0.0000004).as_micros(), 0);
        assert_eq!(Credits::from_f64(0.0000006).as_micros(), 1);
    }

    #[test]
    fn predicates() {
        assert!(Credits::from_whole(1).is_positive());
        assert!(Credits::from_whole(-1).is_negative());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_rejected() {
        Credits::from_f64(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "credit overflow")]
    fn overflow_panics() {
        let max = Credits::from_micros(i64::MAX);
        let _ = max + Credits::from_micros(1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Credits::from_f64(12.345)), "$12.35");
        assert_eq!(format!("{:?}", Credits::from_f64(0.000001)), "$0.000001");
    }
}

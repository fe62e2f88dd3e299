//! Compact dimension sets.

use std::fmt;

/// A set of dimension indices, stored as a bitmask. Supports up to 64
/// dimensions — far beyond the 4–5 dimensions multidimensional histograms
/// scale to (paper §3.3) and the 18-d tech-report dataset.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DimSet(u64);

impl DimSet {
    /// Maximum representable dimension index + 1.
    pub const MAX_DIMS: usize = 64;

    /// The empty set.
    pub const EMPTY: DimSet = DimSet(0);

    /// Builds a set from a slice of dimension indices.
    pub fn from_dims(dims: &[usize]) -> Self {
        let mut s = DimSet(0);
        for &d in dims {
            s.insert(d);
        }
        s
    }

    /// The full set `{0, .., dim-1}`.
    pub fn all(dim: usize) -> Self {
        assert!(dim <= Self::MAX_DIMS);
        if dim == Self::MAX_DIMS {
            DimSet(u64::MAX)
        } else {
            DimSet((1u64 << dim) - 1)
        }
    }

    /// Raw bitmask.
    pub fn bits(&self) -> u64 {
        self.0
    }

    /// Inserts dimension `d`.
    pub fn insert(&mut self, d: usize) {
        assert!(d < Self::MAX_DIMS, "dimension {d} out of range");
        self.0 |= 1 << d;
    }

    /// Removes dimension `d`.
    pub fn remove(&mut self, d: usize) {
        assert!(d < Self::MAX_DIMS, "dimension {d} out of range");
        self.0 &= !(1 << d);
    }

    /// Set with `d` added.
    pub fn with(mut self, d: usize) -> Self {
        self.insert(d);
        self
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, d: usize) -> bool {
        d < Self::MAX_DIMS && self.0 & (1 << d) != 0
    }

    /// Number of dimensions in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// `true` for the empty set.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// `true` when every dimension of `self` is in `other`.
    #[inline]
    pub fn is_subset_of(&self, other: &DimSet) -> bool {
        self.0 & other.0 == self.0
    }

    /// Set union.
    pub fn union(&self, other: &DimSet) -> DimSet {
        DimSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersect(&self, other: &DimSet) -> DimSet {
        DimSet(self.0 & other.0)
    }

    /// Dimensions in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let d = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                d
            })
        })
    }

    /// Dimensions as a vector.
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// Complement within `{0, .., dim-1}`: the *unused* dimensions.
    pub fn complement(&self, dim: usize) -> DimSet {
        DimSet(!self.0 & Self::all(dim).0)
    }
}

impl fmt::Display for DimSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, d) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_set_ops() {
        let mut s = DimSet::from_dims(&[0, 3, 5]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(3));
        assert!(!s.contains(1));
        s.insert(1);
        s.remove(3);
        assert_eq!(s.to_vec(), vec![0, 1, 5]);
        assert_eq!(format!("{s}"), "{0,1,5}");
    }

    #[test]
    fn subset_union_intersect() {
        let a = DimSet::from_dims(&[0, 1]);
        let b = DimSet::from_dims(&[0, 1, 4]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert_eq!(a.union(&b), b);
        assert_eq!(a.intersect(&b), a);
    }

    #[test]
    fn complement_gives_unused_dims() {
        let used = DimSet::from_dims(&[2, 3, 4, 5, 6]);
        assert_eq!(used.complement(7).to_vec(), vec![0, 1]);
        assert_eq!(DimSet::all(7).complement(7), DimSet::EMPTY);
    }

    #[test]
    fn all_and_bounds() {
        assert_eq!(DimSet::all(6).len(), 6);
        assert_eq!(DimSet::all(64).len(), 64);
        assert_eq!(DimSet::all(64).to_vec(), (0..64).collect::<Vec<_>>());
        assert_eq!(DimSet::from_dims(&[63, 0]).to_vec(), vec![0, 63]);
        assert_eq!(DimSet::EMPTY.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_big_dims() {
        let mut s = DimSet::EMPTY;
        s.insert(64);
    }
}

//! Jaccard similarity/distance over token sets — the micro-blog clustering
//! metric the paper adopts (§V-A2, citing Uddin et al.).

use crate::TokenSet;

/// The similarity of two sets from the sizes of their intersection and
/// union. Every Jaccard value in the crate is this expression, so a stage
/// that counts overlaps over token ids gets the bits the string-level
/// functions below give.
pub(crate) fn similarity_of_counts(intersection: usize, union: usize) -> f64 {
    if union == 0 {
        return 1.0;
    }
    intersection as f64 / union as f64
}

/// `1 − similarity`, from the same counts.
pub(crate) fn distance_of_counts(intersection: usize, union: usize) -> f64 {
    1.0 - similarity_of_counts(intersection, union)
}

/// Jaccard similarity `|A ∩ B| / |A ∪ B|` in `[0, 1]`.
///
/// Two empty sets are defined to have similarity 1 (they are identical).
///
/// # Examples
///
/// ```
/// use sstd_text::{jaccard_similarity, TokenSet};
///
/// let a = TokenSet::from_text("bomb near finish line");
/// let b = TokenSet::from_text("bomb near finish line boston");
/// assert!(jaccard_similarity(&a, &b) > 0.7);
/// ```
#[must_use]
pub fn jaccard_similarity(a: &TokenSet, b: &TokenSet) -> f64 {
    similarity_of_counts(a.intersection_size(b), a.union_size(b))
}

/// Jaccard distance `1 − similarity` in `[0, 1]`.
///
/// # Examples
///
/// ```
/// use sstd_text::{jaccard_distance, TokenSet};
///
/// let a = TokenSet::from_text("touchdown irish");
/// let b = TokenSet::from_text("weather forecast");
/// assert_eq!(jaccard_distance(&a, &b), 1.0);
/// ```
#[must_use]
pub fn jaccard_distance(a: &TokenSet, b: &TokenSet) -> f64 {
    1.0 - jaccard_similarity(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_sets_have_distance_zero() {
        let a = TokenSet::from_text("police arrested suspect");
        assert_eq!(jaccard_distance(&a, &a.clone()), 0.0);
    }

    #[test]
    fn disjoint_sets_have_distance_one() {
        let a = TokenSet::from_text("football game");
        let b = TokenSet::from_text("marathon bombing");
        assert_eq!(jaccard_distance(&a, &b), 1.0);
    }

    #[test]
    fn empty_sets_are_identical() {
        let e = TokenSet::default();
        assert_eq!(jaccard_similarity(&e, &e.clone()), 1.0);
    }

    #[test]
    fn known_overlap() {
        // A = {a,b,c}, B = {b,c,d}: sim = 2/4.
        let a: TokenSet = ["alpha", "bravo", "charlie"].iter().map(|s| s.to_string()).collect();
        let b: TokenSet = ["bravo", "charlie", "delta"].iter().map(|s| s.to_string()).collect();
        assert!((jaccard_similarity(&a, &b) - 0.5).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn similarity_is_symmetric_and_bounded(
            xs in prop::collection::btree_set("[a-e]{1,3}", 0..8),
            ys in prop::collection::btree_set("[a-e]{1,3}", 0..8),
        ) {
            let a: TokenSet = xs.into_iter().collect();
            let b: TokenSet = ys.into_iter().collect();
            let s1 = jaccard_similarity(&a, &b);
            let s2 = jaccard_similarity(&b, &a);
            prop_assert!((s1 - s2).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&s1));
        }

        #[test]
        fn distance_satisfies_identity(xs in prop::collection::btree_set("[a-d]{1,2}", 0..6)) {
            let a: TokenSet = xs.into_iter().collect();
            prop_assert_eq!(jaccard_distance(&a, &a.clone()), 0.0);
        }
    }
}

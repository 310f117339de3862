//! Token ids and postings: what lets the clusterer and the duplicate
//! window find the few stored token sets a post can be close to without
//! comparing it with all of them.
//!
//! Both stages keep token sets as sorted slices of [`TokenId`]s from a
//! [`TokenIndex`] of their own (sorted, so that equal sets are equal
//! slices), and post each stored set — a cluster representative, a window
//! entry — under its tokens. A post is then compared only with what is
//! posted under its rarest tokens ([`TokenIndex::candidates`]), and every
//! comparison that is made counts the overlap exactly
//! ([`TokenIndex::count_marked`]) and evaluates the float expression of
//! [`crate::jaccard`], so the outcome is the one a scan over every stored
//! set gives.

use crate::tokenize::for_each_token;
use std::collections::HashMap;
use std::sync::Arc;

/// A token's number in one [`TokenIndex`]; recycled once nothing holds it.
pub(crate) type TokenId = u32;

#[derive(Debug, Clone, Default)]
struct Slot {
    /// The token, while its id is in use.
    name: Option<Arc<str>>,
    /// How many stored id sets contain the id.
    holders: u32,
    /// How many entries are posted under the token, and — when any are —
    /// where in `TokenIndex::postings` the oldest and the newest sit.
    posted: u32,
    oldest: u32,
    newest: u32,
    /// The last marking that had the token in its set. An id is only
    /// handed out under a marking of its own, so the mark a reused slot
    /// still carries is never the current one.
    mark: u64,
}

/// An entry posted under a token, and where the next one under the same
/// token is. A token's postings are a chain through one shared vector:
/// most tokens have one or two, which a vector each would spend an
/// allocation and a cache line on.
#[derive(Debug, Clone, Copy)]
struct Posting {
    entry: u64,
    next: u32,
}

/// Interner and inverted index of one stage. An id set the stage stores
/// *holds* its ids; the token behind an id nobody holds is forgotten and
/// the id reused, so the index is as large as what the stage stores, not
/// as the vocabulary it has seen. The map is looked up, never iterated.
#[derive(Debug, Clone, Default)]
pub(crate) struct TokenIndex {
    ids: HashMap<Arc<str>, TokenId>,
    slots: Vec<Slot>,
    free: Vec<TokenId>,
    postings: Vec<Posting>,
    /// Places in `postings` that were taken back.
    unposted: Vec<u32>,
    /// Number of the current marking; see [`mark`](Self::mark).
    marking: u64,
    /// Scratch of the token walker.
    lowercase: String,
    /// Scratch of `candidates`: (postings, id) of the probed set's tokens.
    by_rarity: Vec<(u32, TokenId)>,
}

impl TokenIndex {
    /// Replaces `ids` with the sorted ids of `text`'s distinct tokens,
    /// numbering the ones not seen before. The ids come back as the
    /// [marked](Self::mark) set and held: the caller stores `ids` or
    /// [`release`](Self::release)s them.
    pub(crate) fn intern_text(&mut self, text: &str, ids: &mut Vec<TokenId>) {
        ids.clear();
        self.marking += 1;
        let Self { ids: known, slots, free, marking, lowercase, .. } = self;
        for_each_token(text, lowercase, |token| {
            let id = known.get(token).copied().unwrap_or_else(|| {
                let name: Arc<str> = Arc::from(token);
                let id = free.pop().unwrap_or_else(|| {
                    slots.push(Slot::default());
                    TokenId::try_from(slots.len() - 1).expect("fewer than 2^32 live tokens")
                });
                slots[id as usize].name = Some(Arc::clone(&name));
                known.insert(name, id);
                id
            });
            // A token's first occurrence in this text is the one that counts.
            let slot = &mut slots[id as usize];
            if slot.mark != *marking {
                slot.mark = *marking;
                slot.holders += 1;
                ids.push(id);
            }
        });
        ids.sort_unstable();
    }

    /// Makes `ids` the marked set, the one that
    /// [`count_marked`](Self::count_marked) measures overlaps with.
    /// Overlaps are counted this way, not by merging two sorted slices:
    /// one set is compared with many, a merge's step count depends on both
    /// sets' values, and a branch that does is one the processor keeps
    /// guessing wrong.
    pub(crate) fn mark(&mut self, ids: &[TokenId]) {
        self.marking += 1;
        for &id in ids {
            self.slots[id as usize].mark = self.marking;
        }
    }

    /// `|ids ∩ marked set|`, for duplicate-free `ids`.
    pub(crate) fn count_marked(&self, ids: &[TokenId]) -> usize {
        ids.iter().map(|&id| usize::from(self.slots[id as usize].mark == self.marking)).sum()
    }

    /// Replaces `counts` with, for each prefix of `ids`, how many of its
    /// ids are marked: `counts[k]` for `ids[..k]`. The overlap of any
    /// stretch `ids[a..b]` is then `counts[b] - counts[a]`, whatever the
    /// stretches are.
    pub(crate) fn count_marked_prefixes(&self, ids: &[TokenId], counts: &mut Vec<u32>) {
        counts.clear();
        let mut marked = 0;
        counts.push(marked);
        for &id in ids {
            marked += u32::from(self.slots[id as usize].mark == self.marking);
            counts.push(marked);
        }
    }

    /// Counts one more stored copy of `ids`.
    pub(crate) fn hold(&mut self, ids: &[TokenId]) {
        for &id in ids {
            self.slots[id as usize].holders += 1;
        }
    }

    /// Counts one stored copy of `ids` less, forgetting the tokens that
    /// were only in it.
    pub(crate) fn release(&mut self, ids: &[TokenId]) {
        for &id in ids {
            let slot = &mut self.slots[id as usize];
            slot.holders -= 1;
            if slot.holders == 0 {
                debug_assert_eq!(slot.posted, 0, "a posted set is a held set");
                let name = slot.name.take().expect("a held id has its token");
                self.ids.remove(&*name);
                self.free.push(id);
            }
        }
    }

    /// Posts `entry` under each of `ids`.
    pub(crate) fn post(&mut self, ids: &[TokenId], entry: u64) {
        for &id in ids {
            let posting = Posting { entry, next: 0 };
            let at = match self.unposted.pop() {
                Some(at) => {
                    self.postings[at as usize] = posting;
                    at
                }
                None => {
                    self.postings.push(posting);
                    u32::try_from(self.postings.len() - 1).expect("fewer than 2^32 postings")
                }
            };
            let slot = &mut self.slots[id as usize];
            if slot.posted == 0 {
                slot.oldest = at;
            } else {
                self.postings[slot.newest as usize].next = at;
            }
            slot.newest = at;
            slot.posted += 1;
        }
    }

    /// Takes back the oldest entry still posted, which was posted under
    /// `ids`: first in, first out, so it is the oldest under each.
    pub(crate) fn unpost_oldest(&mut self, ids: &[TokenId], entry: u64) {
        for &id in ids {
            let slot = &mut self.slots[id as usize];
            let oldest = self.postings[slot.oldest as usize];
            debug_assert_eq!((oldest.entry, slot.posted > 0), (entry, true));
            self.unposted.push(slot.oldest);
            slot.oldest = oldest.next;
            slot.posted -= 1;
        }
    }

    /// Replaces `out` with every entry, ascending, that can share
    /// `min_overlap` or more tokens with `ids`: what is posted under the
    /// `ids.len() + 1 - min_overlap` tokens with the fewest postings. An
    /// entry posted under none of those shares at most the other
    /// `min_overlap - 1` tokens. Probing the rarest tokens is what keeps a
    /// token that every post carries — the event keyword — out of the
    /// search; which tokens tie for rarest changes the candidates, never
    /// which of them pass the caller's exact test.
    pub(crate) fn candidates(&mut self, ids: &[TokenId], min_overlap: usize, out: &mut Vec<u64>) {
        out.clear();
        let probes = (ids.len() + 1).saturating_sub(min_overlap).min(ids.len());
        self.by_rarity.clear();
        self.by_rarity.extend(ids.iter().map(|&id| (self.slots[id as usize].posted, id)));
        self.by_rarity.sort_unstable();
        for &(posted, id) in &self.by_rarity[..probes] {
            let mut at = self.slots[id as usize].oldest;
            for _ in 0..posted {
                let posting = self.postings[at as usize];
                out.push(posting.entry);
                at = posting.next;
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// The fewest tokens a stored set must share with a set of `len` tokens
/// for `meets(intersection, union)` to hold; `len + 1` if nothing can.
///
/// With `i` tokens shared the union is at least `len`, and it is `len`
/// when the stored set is a subset. `meets` must not turn true as the
/// union grows at a fixed intersection — a similarity at or above, or a
/// distance at or below, a threshold does not: the quotient rounds
/// monotonically — so the first `i` that passes in its best case is a
/// lower bound for every stored set, found with the predicate the
/// comparison itself uses and not with a real-valued `⌈θ·len⌉` that
/// could round the other way.
pub(crate) fn min_overlap(len: usize, meets: impl Fn(usize, usize) -> bool) -> usize {
    (0..=len).find(|&shared| meets(shared, len)).unwrap_or(len + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jaccard::{distance_of_counts, similarity_of_counts};

    fn ids_of(index: &mut TokenIndex, text: &str) -> Vec<TokenId> {
        let mut ids = Vec::new();
        index.intern_text(text, &mut ids);
        ids
    }

    #[test]
    fn ids_are_sorted_distinct_and_stable_per_token() {
        let mut index = TokenIndex::default();
        let a = ids_of(&mut index, "flood bridge flood closed");
        assert_eq!(a.len(), 3);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let b = ids_of(&mut index, "Closed: BRIDGE, flood!");
        assert_eq!(a, b, "same tokens, same ids, whatever the order and case");
    }

    #[test]
    fn a_token_is_forgotten_with_its_last_holder_and_its_id_reused() {
        let mut index = TokenIndex::default();
        let a = ids_of(&mut index, "alpha beta");
        let b = ids_of(&mut index, "beta gamma");
        index.release(&a);
        assert_eq!(index.ids.len(), 2, "alpha went, beta is still held by the second set");
        let c = ids_of(&mut index, "delta");
        assert_eq!(index.slots.len(), 3, "delta took alpha's slot");
        index.release(&b);
        index.release(&c);
        assert!(index.ids.is_empty());
        assert_eq!(index.free.len(), 3);
    }

    #[test]
    fn candidates_skip_the_token_everything_carries() {
        let mut index = TokenIndex::default();
        let mut out = Vec::new();
        for entry in 0..50u64 {
            let ids = ids_of(&mut index, &format!("quake w{entry}a w{entry}b w{entry}c"));
            index.post(&ids, entry);
        }
        let probe = ids_of(&mut index, "quake w7a w7b w9c");
        // Two shared tokens needed: the three rarest of four are probed,
        // and the keyword with its fifty postings is not one of them.
        index.candidates(&probe, 2, &mut out);
        assert_eq!(out, vec![7, 9]);
        // Nothing needed (a threshold sharing nothing can meet): every
        // token is probed.
        index.candidates(&probe, 0, &mut out);
        assert_eq!(out.len(), 50);
        // More than the set has: nothing can qualify.
        index.candidates(&probe, 5, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn unposting_is_first_in_first_out() {
        let mut index = TokenIndex::default();
        let mut out = Vec::new();
        let a = ids_of(&mut index, "flood bridge");
        index.post(&a, 0);
        let b = ids_of(&mut index, "flood road");
        index.post(&b, 1);
        index.unpost_oldest(&a, 0);
        index.release(&a);
        index.candidates(&b, 1, &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn min_overlap_is_the_first_best_case_that_passes() {
        // The issue's two examples: 3 of 8 at distance 0.7, 7 of 8 at
        // similarity 0.8.
        assert_eq!(min_overlap(8, |i, u| distance_of_counts(i, u) <= 0.7), 3);
        assert_eq!(min_overlap(8, |i, u| similarity_of_counts(i, u) >= 0.8), 7);
        // Exactly on a threshold counts: 4/5 at 0.8, 3/10 at 0.7.
        assert_eq!(min_overlap(5, |i, u| similarity_of_counts(i, u) >= 0.8), 4);
        assert_eq!(min_overlap(10, |i, u| distance_of_counts(i, u) <= 0.7), 3);
        // Sharing nothing is enough at distance 1, and for the empty set.
        assert_eq!(min_overlap(8, |i, u| distance_of_counts(i, u) <= 1.0), 0);
        assert_eq!(min_overlap(0, |i, u| similarity_of_counts(i, u) >= 0.8), 0);
        assert_eq!(min_overlap(3, |_, _| false), 4);
    }

    #[test]
    fn overlaps_are_counted_against_the_last_marked_set() {
        let mut index = TokenIndex::default();
        let stored = ids_of(&mut index, "flood bridge closed river");
        let other = ids_of(&mut index, "storm warning");
        let post = ids_of(&mut index, "river flood rising");
        assert_eq!(index.count_marked(&stored), 2, "interning marks the post");
        assert_eq!(index.count_marked(&other), 0);
        let both: Vec<TokenId> = stored.iter().chain(&other).copied().collect();
        let mut counts = Vec::new();
        index.count_marked_prefixes(&both, &mut counts);
        assert_eq!(counts.len(), 7);
        assert_eq!(counts[4] - counts[0], 2);
        assert_eq!(counts[6] - counts[4], 0);
        index.mark(&other);
        assert_eq!((index.count_marked(&other), index.count_marked(&post)), (2, 0));
        index.mark(&[]);
        assert_eq!(index.count_marked(&other), 0);
    }
}

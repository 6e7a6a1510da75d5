//! Multi-pattern payload inspection: a from-scratch Aho–Corasick automaton.
//!
//! Snort's content matching is multi-pattern string search over the packet
//! payload; this module provides the same primitive for [`crate::snort`]
//! without pulling in a third-party matcher. Construction builds a byte trie
//! and turns it into a dense DFA: one 256-entry transition row per state,
//! filled in BFS order as the state's failure row with its own children
//! written over it, and output sets merged along failure chains. The scan
//! is then one table load per payload byte, with no failure-link walk.
//!
//! While the automaton sits in the root state it skips every byte that
//! cannot begin a pattern. That is exact: such a byte leads from the root
//! back to the root, and the root has no outputs. How much it saves depends
//! on the share of payload bytes that can start a pattern.

use std::collections::VecDeque;
use std::ops::ControlFlow;

/// A match found in the haystack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Match {
    /// Index of the matched pattern (as passed to [`AhoCorasick::new`]).
    pub pattern: usize,
    /// Byte offset one past the end of the match.
    pub end: usize,
}

/// Bits of a transition entry below the state index. An entry holds
/// `state << STATE_SHIFT`, which is also the offset of that state's row,
/// with [`OUTPUT`] set if any pattern ends in that state.
const STATE_SHIFT: u32 = 8;
/// Entry flag: the target state has outputs.
const OUTPUT: u32 = 1;
/// Masks an entry down to its state's row offset.
const ROW: u32 = !((1 << STATE_SHIFT) - 1);

/// An Aho–Corasick multi-pattern matcher over byte strings.
///
/// Memory: one 1 KiB transition row per automaton state, i.e. per distinct
/// pattern prefix plus the root.
///
/// ```
/// use speedybox_nf::AhoCorasick;
///
/// let ac = AhoCorasick::new(&[b"evil".to_vec(), b"virus".to_vec()]);
/// let matches = ac.find_all(b"an evil virus payload");
/// assert_eq!(matches.len(), 2);
/// assert!(ac.find_first(b"clean traffic").is_none());
/// ```
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    /// Dense transitions: entry `state * 256 + byte`, encoded as above.
    delta: Vec<u32>,
    /// `outputs[out_start[s]..out_start[s + 1]]` are the patterns ending in
    /// state `s`: its own, in pattern order, then its failure state's.
    out_start: Vec<u32>,
    outputs: Vec<usize>,
    /// Bytes that lead out of the root state, i.e. can begin a pattern.
    starts: [bool; 256],
    pattern_count: usize,
}

impl AhoCorasick {
    /// Builds the automaton from `patterns`. Empty patterns are ignored
    /// (they would match everywhere and Snort forbids empty `content`).
    ///
    /// # Panics
    /// Panics if the patterns need more than 2^24 states.
    #[must_use]
    pub fn new(patterns: &[Vec<u8>]) -> Self {
        // Phase 1: the sparse trie, with each state's own outputs.
        let mut children: Vec<Vec<(u8, u32)>> = vec![Vec::new()];
        let mut own: Vec<Vec<usize>> = vec![Vec::new()];
        for (id, pat) in patterns.iter().enumerate() {
            if pat.is_empty() {
                continue;
            }
            let mut state = 0usize;
            for &byte in pat {
                state = match children[state].iter().find(|(b, _)| *b == byte) {
                    Some(&(_, next)) => next as usize,
                    None => {
                        let next = u32::try_from(children.len())
                            .ok()
                            .filter(|n| n >> (32 - STATE_SHIFT) == 0)
                            .expect("automaton states fit in 24 bits");
                        children.push(Vec::new());
                        own.push(Vec::new());
                        children[state].push((byte, next));
                        next as usize
                    }
                };
            }
            own[state].push(id);
        }
        // Phase 2: dense rows and merged outputs in BFS order. A state's
        // failure state is shallower, so its row and outputs are final by
        // the time the state is reached.
        let states = children.len();
        let mut delta = vec![0u32; states << STATE_SHIFT];
        let mut fail = vec![0usize; states];
        let mut merged: Vec<Vec<usize>> = vec![Vec::new(); states];
        let mut queue = VecDeque::from([0usize]);
        while let Some(state) = queue.pop_front() {
            let row = state << STATE_SHIFT;
            if state != 0 {
                let fail_row = fail[state] << STATE_SHIFT;
                delta.copy_within(fail_row..fail_row + 256, row);
            }
            for &(byte, next) in &children[state] {
                let child = next as usize;
                if state != 0 {
                    let via_fail = delta[(fail[state] << STATE_SHIFT) | byte as usize];
                    fail[child] = (via_fail >> STATE_SHIFT) as usize;
                }
                merged[child] = own[child].iter().chain(&merged[fail[child]]).copied().collect();
                delta[row | byte as usize] = next << STATE_SHIFT;
                queue.push_back(child);
            }
        }
        // Phase 3: flag entries into output states, flatten the outputs.
        for entry in &mut delta {
            if !merged[(*entry >> STATE_SHIFT) as usize].is_empty() {
                *entry |= OUTPUT;
            }
        }
        let mut out_start = Vec::with_capacity(states + 1);
        let mut outputs = Vec::new();
        for m in &merged {
            out_start.push(u32::try_from(outputs.len()).expect("output count fits u32"));
            outputs.extend_from_slice(m);
        }
        out_start.push(u32::try_from(outputs.len()).expect("output count fits u32"));
        let mut starts = [false; 256];
        for &(byte, _) in &children[0] {
            starts[byte as usize] = true;
        }
        Self { delta, out_start, outputs, starts, pattern_count: patterns.len() }
    }

    /// Number of patterns the automaton was built from.
    #[must_use]
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// Calls `f` for every pattern occurrence in `haystack`, in end-offset
    /// order, until `f` breaks. Allocates nothing.
    pub(crate) fn try_for_each_match<B>(
        &self,
        haystack: &[u8],
        mut f: impl FnMut(Match) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let mut entry = 0u32;
        let mut i = 0;
        while i < haystack.len() {
            if entry == 0 {
                match self.next_start(&haystack[i..]) {
                    Some(skip) => i += skip,
                    None => break,
                }
            }
            entry = self.delta[(entry & ROW) as usize | haystack[i] as usize];
            i += 1;
            if entry & OUTPUT != 0 {
                let state = (entry >> STATE_SHIFT) as usize;
                let (lo, hi) = (self.out_start[state] as usize, self.out_start[state + 1] as usize);
                for &pattern in &self.outputs[lo..hi] {
                    f(Match { pattern, end: i })?;
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// Offset of the first byte of `bytes` that can begin a pattern, testing
    /// eight bytes per branch while none can.
    fn next_start(&self, bytes: &[u8]) -> Option<usize> {
        let can_start = |b: &u8| self.starts[*b as usize];
        let mut skipped = 0;
        for chunk in bytes.chunks_exact(8) {
            if chunk.iter().fold(false, |any, b| any | can_start(b)) {
                break;
            }
            skipped += 8;
        }
        bytes[skipped..].iter().position(can_start).map(|k| skipped + k)
    }

    /// Finds all pattern occurrences in `haystack`, in end-offset order.
    #[must_use]
    pub fn find_all(&self, haystack: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        let _ = self.try_for_each_match(haystack, |m| {
            out.push(m);
            ControlFlow::<()>::Continue(())
        });
        out
    }

    /// Finds the first match, if any (cheaper than [`AhoCorasick::find_all`]
    /// when presence is all that matters).
    #[must_use]
    pub fn find_first(&self, haystack: &[u8]) -> Option<Match> {
        match self.try_for_each_match(haystack, ControlFlow::Break) {
            ControlFlow::Break(m) => Some(m),
            ControlFlow::Continue(()) => None,
        }
    }

    /// Returns the set of distinct pattern indices present in `haystack`,
    /// sorted ascending.
    #[must_use]
    pub fn matching_patterns(&self, haystack: &[u8]) -> Vec<usize> {
        let mut hits: Vec<usize> = self.find_all(haystack).into_iter().map(|m| m.pattern).collect();
        hits.sort_unstable();
        hits.dedup();
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pats(ps: &[&str]) -> Vec<Vec<u8>> {
        ps.iter().map(|p| p.as_bytes().to_vec()).collect()
    }

    #[test]
    fn finds_single_pattern() {
        let ac = AhoCorasick::new(&pats(&["abc"]));
        let m = ac.find_all(b"xxabcxx");
        assert_eq!(m, vec![Match { pattern: 0, end: 5 }]);
    }

    #[test]
    fn finds_overlapping_patterns() {
        let ac = AhoCorasick::new(&pats(&["he", "she", "his", "hers"]));
        let found = ac.matching_patterns(b"ushers");
        // "ushers" contains "she", "he", "hers".
        assert_eq!(found, vec![0, 1, 3]);
    }

    #[test]
    fn suffix_pattern_found_via_failure_links() {
        let ac = AhoCorasick::new(&pats(&["bc", "abcd"]));
        let found = ac.matching_patterns(b"xabcdx");
        assert_eq!(found, vec![0, 1]);
    }

    #[test]
    fn no_match_returns_empty() {
        let ac = AhoCorasick::new(&pats(&["evil", "virus"]));
        assert!(ac.find_all(b"perfectly clean payload").is_empty());
        assert!(ac.find_first(b"perfectly clean payload").is_none());
    }

    #[test]
    fn find_first_stops_early() {
        let ac = AhoCorasick::new(&pats(&["aa"]));
        let m = ac.find_first(b"aaaa").unwrap();
        assert_eq!(m.end, 2);
    }

    #[test]
    fn empty_patterns_ignored() {
        let ac = AhoCorasick::new(&pats(&["", "x"]));
        assert_eq!(ac.matching_patterns(b"x"), vec![1]);
        assert!(ac.find_all(b"yyy").is_empty());
    }

    #[test]
    fn empty_haystack() {
        let ac = AhoCorasick::new(&pats(&["a"]));
        assert!(ac.find_all(b"").is_empty());
    }

    #[test]
    fn repeated_pattern_matches_each_occurrence() {
        let ac = AhoCorasick::new(&pats(&["ab"]));
        let m = ac.find_all(b"abab");
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].end, 2);
        assert_eq!(m[1].end, 4);
    }

    #[test]
    fn binary_patterns() {
        let ac = AhoCorasick::new(&[vec![0x00, 0xff, 0x00]]);
        assert!(ac.find_first(&[0x01, 0x00, 0xff, 0x00, 0x02]).is_some());
    }

    #[test]
    fn identical_patterns_both_reported() {
        let ac = AhoCorasick::new(&pats(&["dup", "dup"]));
        let found = ac.matching_patterns(b"a dup here");
        assert_eq!(found, vec![0, 1]);
    }

    #[test]
    fn skip_finds_patterns_at_every_alignment() {
        // Non-start bytes before and after the match, across the eight-byte
        // chunks the root-state skip tests at once.
        let ac = AhoCorasick::new(&pats(&["evil", "XFIL"]));
        for before in 0..20 {
            for after in 0..10 {
                let mut hay = vec![b'7'; before];
                hay.extend_from_slice(b"XFIL");
                hay.extend(std::iter::repeat_n(b'7', after));
                assert_eq!(ac.find_all(&hay), vec![Match { pattern: 1, end: before + 4 }]);
            }
        }
        assert!(ac.find_first(&[b'7'; 64]).is_none());
    }

    #[test]
    fn one_state_per_distinct_prefix() {
        // The built-in Snort rule contents: 30 pattern bytes, no shared
        // prefix, plus the root, so 31 transition rows of 1 KiB.
        let ac = AhoCorasick::new(&pats(&["evil", "XFIL", "probe", "healthcheck", "beacon"]));
        assert_eq!(ac.delta.len(), 31 * 256);
        assert_eq!(AhoCorasick::new(&pats(&["he", "her", "hers", "he"])).delta.len(), 5 * 256);
    }

    #[test]
    fn matches_against_reference_naive_search() {
        // Cross-check against naive substring search on pseudo-random data.
        let patterns = pats(&["abc", "bca", "aab", "ccc", "cab"]);
        let ac = AhoCorasick::new(&patterns);
        let mut text = Vec::new();
        let mut seed = 0x12345u32;
        for _ in 0..2000 {
            seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
            #[allow(clippy::cast_possible_truncation)] // reduced mod 3 below
            let byte = (seed >> 16) as u8;
            text.push(b'a' + byte % 3);
        }
        let got = ac.matching_patterns(&text);
        let want: Vec<usize> = patterns
            .iter()
            .enumerate()
            .filter(|(_, p)| text.windows(p.len()).any(|w| w == p.as_slice()))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(got, want);
    }
}

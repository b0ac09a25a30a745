//! Lazily-determinized execution of a fused multi-pattern NFA.
//!
//! [`FusedSet::scan_into`] makes exactly one left-to-right pass over
//! the haystack and inserts into a [`CandidateSet`] the id of every
//! pattern with at least one match — the *exact* match set. The same
//! pass counts the matches of every pattern whose matches all have one
//! width ([`FusedSet::scan_count`]), from the match ends it reports,
//! and records the first and the last end it reported for every
//! pattern ([`FusedSet::scan_ends`]). The caller needs a counting run
//! only for the other patterns known to match, and only between those
//! ends; when one match is all that fits between them, none
//! ([`crate::CountDfa::count_between`]).
//!
//! # Determinization with deferred closure
//!
//! A DFA state is the sorted set of NFA program counters sitting
//! *after* the consuming instructions taken so far — before epsilon
//! closure — plus two context bits: whether the previous byte was a
//! word byte and whether we are at position 0. Closure is deferred to
//! transition time, when the *next* byte is known, so the assertions
//! `^`, `$`, `\b`, `\B` resolve from context instead of forcing a
//! state split per assertion outcome. A `\b`-gated match ending at
//! position `p` only becomes visible while consuming byte `p` (or at
//! end of input), which is why match ids are attached to transitions
//! rather than states.
//!
//! A transition expands every pending pc — and, for unanchored search,
//! every pattern's entry point — through the arena's precompiled
//! closure table, keeping the steps whose assertion mask the position's
//! context satisfies: the same table and the same context function
//! (`crate::program`) the counting automaton reads, so neither engine
//! walks epsilon edges or decides an assertion on its own.
//!
//! # Bounded memory
//!
//! States, transitions, match sets and the per-pattern tallies of the
//! last scan live in a caller-owned [`DfaCache`] so gateway worker
//! threads reuse one allocation across requests. The cache holds at most `state_limit` states; on
//! overflow it is flushed wholesale (the in-flight scan keeps going —
//! its current state is re-interned) so adversarial state-explosion
//! inputs degrade to re-determinization, never to unbounded memory.
//! A cache bound to one [`FusedSet`] (by build token) resets itself
//! when handed another, which makes hot reload safe by construction.

use crate::candidates::CandidateSet;
use crate::nfa::FusedSet;
use crate::program::{context, is_word_byte, ClosureStep, Inst};
use std::collections::HashMap;

/// Sentinel for a not-yet-computed transition. Must be tested before
/// [`RICH`]: it has the rich bit set but is not a rich index.
const UNKNOWN: u32 = u32::MAX;

/// Transition-word flag: the low 31 bits index [`DfaCache::rich`]
/// (transitions that report matches) instead of naming a state.
const RICH: u32 = 1 << 31;

/// State flag: the previously consumed byte was a word byte.
const PREV_WORD: u8 = 1;

/// State flag: no byte consumed yet (haystack position 0).
const AT_START: u8 = 2;

/// Identity of a DFA state: pending (pre-closure) pcs, sorted and
/// deduplicated, plus the context flags closure will need.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct StateKey {
    set: Box<[u32]>,
    flags: u8,
}

/// What one scan saw of one pattern: the scan it belongs to (a stale
/// `scan` reads as no match, so nothing is cleared between scans), the
/// first and the last match end reported and, for a pattern of one
/// match width, the matches counted and the end of the last one.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// The pattern's match width; 0 when the scan does not count it.
    width: u32,
    scan: u32,
    first: usize,
    last: usize,
    count: usize,
    counted: usize,
}

impl Tally {
    /// Takes a match ending at `end`, reported in ascending order and
    /// once per end. For a counted pattern it counts when it starts at
    /// or after the end of the last one counted.
    #[inline]
    fn report(&mut self, scan: u32, end: usize) {
        if self.scan != scan {
            *self = Tally {
                scan,
                first: end,
                last: end,
                count: 1,
                counted: end,
                ..*self
            };
            return;
        }
        self.last = end;
        if self.width != 0 && end >= self.counted + self.width as usize {
            self.count += 1;
            self.counted = end;
        }
    }
}

/// Per-scan counters, returned by [`FusedSet::scan_into`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusedScanStats {
    /// Haystack length; every byte takes one transition.
    pub bytes: u64,
    /// Always 0. The end-to-end benchmark (`BENCHMARK.json`) still
    /// reads this field; it goes with the next benchmark PR.
    pub skipped: u64,
    /// Pattern ids newly inserted into the output set by this scan.
    pub matched: u32,
    /// Transitions that were not cached and had to be determinized.
    pub misses: u32,
    /// Cache flushes forced by the state limit during this scan.
    pub flushes: u32,
    /// States resident in the cache after the scan.
    pub states: u32,
}

impl FusedScanStats {
    /// Fraction of transitions served from the cache, clamped to
    /// `[0, 1]` — a mid-scan flush both discards transitions already
    /// paid for and re-counts their re-determinization, so the raw
    /// quotient is not self-limiting. A warmed-up cache sits at 1.0;
    /// `None` for empty haystacks.
    pub fn hit_ratio(&self) -> Option<f64> {
        if self.bytes == 0 {
            return None;
        }
        Some((1.0 - self.misses as f64 / self.bytes as f64).clamp(0.0, 1.0))
    }
}

/// Reusable lazy-DFA working memory: the interned states, the
/// transition table and memoized end-of-input match sets.
///
/// A cache belongs to whichever [`FusedSet`] last scanned with it
/// (tracked by the set's build token) and silently resets when a
/// different set — e.g. a hot-reloaded automaton — shows up.
#[derive(Debug, Default)]
pub struct DfaCache {
    /// Build token of the owning [`FusedSet`]; 0 = unbound.
    owner: u64,
    /// Interned state keys; index = state id.
    states: Vec<StateKey>,
    /// Reverse map from key to state id.
    map: HashMap<StateKey, u32>,
    /// `trans[id * class_count + class]`: [`UNKNOWN`], a plain next
    /// state id, or `RICH | index` into [`DfaCache::rich`].
    trans: Vec<u32>,
    /// Match-reporting transitions: (next state id, matched pids).
    rich: Vec<(u32, Box<[u32]>)>,
    /// Per-state memoized end-of-input match sets.
    eoi: Vec<Option<Box<[u32]>>>,
    /// Number of byte equivalence classes.
    class_count: usize,
    /// Per pattern id, what the last scan counted.
    tallies: Vec<Tally>,
    /// Scans run since binding, wrapping; tags the current tallies.
    scan: u32,
}

impl DfaCache {
    /// An empty, unbound cache.
    pub fn new() -> DfaCache {
        DfaCache::default()
    }

    /// Number of states currently interned.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Starts a scan's tallies: a new tag, so every count from an
    /// earlier scan reads as zero. On wrap-around the old tags are
    /// cleared, so none can be mistaken for the new one.
    fn next_scan(&mut self) -> u32 {
        self.scan = self.scan.wrapping_add(1);
        if self.scan == 0 {
            self.tallies.iter_mut().for_each(|t| t.scan = 0);
            self.scan = 1;
        }
        self.scan
    }

    /// Binds the cache to `set`, dropping everything derived from a
    /// previous owner.
    fn bind(&mut self, set: &FusedSet) {
        self.owner = set.token;
        self.states.clear();
        self.map.clear();
        self.trans.clear();
        self.rich.clear();
        self.eoi.clear();
        self.tallies.clear();
        self.tallies.extend(set.widths.iter().map(|&width| Tally {
            width,
            ..Tally::default()
        }));
        self.scan = 0;
        self.class_count = set.nfa.classes.count();
        self.intern(start_key());
    }

    /// Looks up or inserts `key`; does not enforce the state limit.
    fn intern(&mut self, key: StateKey) -> u32 {
        if let Some(&id) = self.map.get(&key) {
            return id;
        }
        let id = self.states.len() as u32;
        self.states.push(key.clone());
        self.map.insert(key, id);
        self.trans
            .extend(std::iter::repeat_n(UNKNOWN, self.class_count));
        self.eoi.push(None);
        id
    }

    /// Drops all states and transitions and re-interns the start state
    /// as id 0.
    fn flush(&mut self) {
        self.states.clear();
        self.map.clear();
        self.trans.clear();
        self.rich.clear();
        self.eoi.clear();
        self.intern(start_key());
    }
}

/// The state every scan begins in: nothing pending, position 0.
fn start_key() -> StateKey {
    StateKey {
        set: Box::new([]),
        flags: AT_START,
    }
}

impl FusedSet {
    /// Scans `hay` once and inserts every matching pattern id into
    /// `out`, widening `out` to the largest id first. Returns per-scan
    /// statistics. `cache` may be fresh, warm, or previously bound to
    /// a different set — all are handled; reuse one per worker thread
    /// for peak throughput.
    ///
    /// The same pass counts the matches of every pattern whose matches
    /// all have one width w ≥ 1 ([`FusedSet::scan_count`]), and keeps
    /// every pattern's first and last match end
    /// ([`FusedSet::scan_ends`]). The scan
    /// reports each (pattern, end) pair once, in ascending end order:
    /// an end `e` while consuming byte `e`, the end `hay.len()` at end
    /// of input. The first end counts, and a later one counts when it
    /// is at least the last counted end plus w. That is `count_all`'s
    /// leftmost-first, non-overlapping count: every match starting at
    /// `s` ends at `s + w`, and `^ $ \b \B` are decided at absolute
    /// positions whatever the search start, so the leftmost match at or
    /// after a restart is the earliest reported end at least w past it.
    pub fn scan_into(
        &self,
        hay: &[u8],
        cache: &mut DfaCache,
        out: &mut CandidateSet,
    ) -> FusedScanStats {
        if cache.owner != self.token {
            cache.bind(self);
        }
        out.cover(self.widths.len());
        let scan = cache.next_scan();
        let mut stats = FusedScanStats {
            bytes: hay.len() as u64,
            ..FusedScanStats::default()
        };
        let nc = cache.class_count;
        let mut cur = 0u32;
        for (end, &b) in hay.iter().enumerate() {
            let class = self.nfa.classes.map[b as usize] as usize;
            let mut t = cache.trans[cur as usize * nc + class];
            if t == UNKNOWN {
                stats.misses += 1;
                t = self.compute_transition(cache, cur, class, &mut stats);
            }
            cur = if t & RICH != 0 {
                let (next, pids) = &cache.rich[(t & !RICH) as usize];
                for &pid in pids.iter() {
                    if out.insert(pid as usize) {
                        stats.matched += 1;
                    }
                    cache.tallies[pid as usize].report(scan, end);
                }
                *next
            } else {
                t
            };
        }
        self.emit_eoi(cache, cur, hay.len(), out, &mut stats);
        stats.states = cache.states.len() as u32;
        stats
    }

    /// The match count the last scan through `cache` made of pattern
    /// `pid` — its non-overlapping leftmost-first count — when that scan was of this
    /// set and counts the pattern (see [`FusedSet::scan_into`]); `None`
    /// for a pattern it does not count, or a cache last bound to
    /// another set.
    pub fn scan_count(&self, cache: &DfaCache, pid: usize) -> Option<usize> {
        if cache.owner != self.token {
            return None;
        }
        let tally = cache.tallies.get(pid).filter(|t| t.width != 0)?;
        Some(if tally.scan == cache.scan {
            tally.count
        } else {
            0
        })
    }

    /// The least and the greatest end of a match of pattern `pid` that
    /// the last scan through `cache` reported, when that scan was of
    /// this set and the pattern matched; `None` otherwise. The scan
    /// reports the end of every match, overlapping or not, so every
    /// leftmost-first match ends between the two
    /// ([`crate::CountDfa::count_between`]).
    pub fn scan_ends(&self, cache: &DfaCache, pid: usize) -> Option<(usize, usize)> {
        if cache.owner != self.token {
            return None;
        }
        let tally = cache.tallies.get(pid).filter(|t| t.scan == cache.scan)?;
        Some((tally.first, tally.last))
    }

    /// Determinizes one transition: from state `cur` on byte class
    /// `class`, returning the encoded transition word (also stored in
    /// the table). May flush the cache, which renumbers `cur` — the
    /// caller continues from the word's *next* state, which is valid
    /// either way.
    fn compute_transition(
        &self,
        cache: &mut DfaCache,
        cur: u32,
        class: usize,
        stats: &mut FusedScanStats,
    ) -> u32 {
        let src = cache.states[cur as usize].clone();
        let rep = self.nfa.classes.reps[class];
        let next_word = is_word_byte(rep);
        let ctx = context(
            src.flags & PREV_WORD != 0,
            next_word,
            src.flags & AT_START != 0,
            false,
        );
        let (succ, matched) = self.expand(&src.set, ctx, Some(rep));

        let next_key = StateKey {
            set: succ.into_boxed_slice(),
            flags: if next_word { PREV_WORD } else { 0 },
        };

        // Enforce the state bound before interning anything new. A
        // flush invalidates `cur`, so the source state is re-interned
        // right after the start state.
        let mut cur = cur;
        if !cache.map.contains_key(&next_key) && cache.states.len() >= self.state_limit {
            cache.flush();
            stats.flushes += 1;
            cur = cache.intern(src);
        }
        let next = cache.intern(next_key);

        let enc = if matched.is_empty() {
            next
        } else {
            let idx = cache.rich.len() as u32;
            debug_assert!(idx & RICH == 0, "rich table overflow");
            cache.rich.push((next, matched.into_boxed_slice()));
            RICH | idx
        };
        cache.trans[cur as usize * cache.class_count + class] = enc;
        enc
    }

    /// Emits the matches visible at end of input from state `cur`
    /// (memoized per state).
    fn emit_eoi(
        &self,
        cache: &mut DfaCache,
        cur: u32,
        end: usize,
        out: &mut CandidateSet,
        stats: &mut FusedScanStats,
    ) {
        if cache.eoi[cur as usize].is_none() {
            let src = &cache.states[cur as usize];
            // The position past the last byte counts as non-word.
            let ctx = context(
                src.flags & PREV_WORD != 0,
                false,
                src.flags & AT_START != 0,
                true,
            );
            let (_, matched) = self.expand(&src.set, ctx, None);
            cache.eoi[cur as usize] = Some(matched.into_boxed_slice());
        }
        let pids = cache.eoi[cur as usize].as_ref().expect("just memoized");
        for &pid in pids.iter() {
            if out.insert(pid as usize) {
                stats.matched += 1;
            }
            cache.tallies[pid as usize].report(cache.scan, end);
        }
    }

    /// Expands `pending` and every pattern entry through the closure
    /// table under `ctx`. Returns the successors (`pc + 1`) of the
    /// consuming steps that accept `byte` — none at end of input — and
    /// the ids of the patterns whose `MatchId` fires, both sorted and
    /// deduplicated.
    fn expand(&self, pending: &[u32], ctx: u8, byte: Option<u8>) -> (Vec<u32>, Vec<u32>) {
        let prog = &self.nfa.prog;
        let mut succ = Vec::new();
        let mut matched = Vec::new();
        let mut visit = |steps: &[ClosureStep]| {
            for step in steps {
                if step.mask & !ctx != 0 {
                    continue;
                }
                match prog.insts[step.target as usize] {
                    Inst::MatchId(pid) => matched.push(pid),
                    _ if byte.is_some_and(|b| prog.accepts(step.target, b)) => {
                        succ.push(step.target + 1)
                    }
                    _ => {}
                }
            }
        };
        for &pc in pending {
            visit(prog.closures.steps_of(pc));
        }
        visit(&self.nfa.entry_steps);
        succ.sort_unstable();
        succ.dedup();
        matched.sort_unstable();
        matched.dedup();
        (succ, matched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::FusedSetBuilder;
    use crate::oracle::Oracle;
    use crate::FuseOutcome;

    /// Patterns exercising every assertion and instruction kind the
    /// DFA must agree with the oracle on.
    const LIBRARY: &[&str] = &[
        r"union\s+select",
        r"\bor\b",
        r"\bselect\b",
        r"[0-9]+",
        r"^admin",
        r"--$",
        r"'[^']*'",
        r"a*",
        r"\Bx",
        r"^$",
        r"wait\s*for\s*delay",
        r"(and|or)\s+\d+\s*=\s*\d+",
    ];

    /// Overlapping classes that breed many distinct pending sets.
    const EXPLOSIVE: &[&str] = &[
        r"[a-m]{3,8}z",
        r"[g-t]{2,9}y",
        r"[b-r]{4,7}x",
        r"\b[a-z]+\d\b",
        r"(ab|ba|aa|bb){2,6}c",
    ];

    /// `len` bytes of pseudo-random lowercase letters.
    fn soup(len: u32) -> Vec<u8> {
        (0..len)
            .map(|i| b'a' + ((i.wrapping_mul(2654435761) >> 24) % 26) as u8)
            .collect()
    }

    fn build(patterns: &[&str]) -> (FusedSet, Vec<Oracle>) {
        build_limited(patterns, 4096)
    }

    fn build_limited(patterns: &[&str], state_limit: usize) -> (FusedSet, Vec<Oracle>) {
        let mut b = FusedSetBuilder::new().state_limit(state_limit);
        let mut oracles = Vec::new();
        for (i, pat) in patterns.iter().enumerate() {
            assert_eq!(
                b.add(i as u32, pat, true).unwrap(),
                FuseOutcome::Fused,
                "library pattern {pat:?} must fuse"
            );
            oracles.push(Oracle::new(pat, true).unwrap());
        }
        (b.build().unwrap(), oracles)
    }

    fn fused_ids(set: &FusedSet, cache: &mut DfaCache, hay: &[u8]) -> Vec<usize> {
        let mut out = CandidateSet::new(set.pattern_count());
        set.scan_into(hay, cache, &mut out);
        out.iter().collect()
    }

    fn oracle_ids(oracles: &[Oracle], hay: &[u8]) -> Vec<usize> {
        oracles
            .iter()
            .enumerate()
            .filter(|(_, oracle)| oracle.is_match(hay))
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn fused_matches_equal_per_pattern_sets() {
        let (set, oracles) = build(LIBRARY);
        let singles: Vec<FusedSet> = LIBRARY
            .iter()
            .enumerate()
            .map(|(i, pat)| FusedSet::single(i as u32, pat, true).unwrap())
            .collect();
        let mut cache = DfaCache::new();
        let hays: &[&[u8]] = &[
            b"",
            b"1 UNION SELECT password",
            b"1 or 1=1",
            b"corridor",
            b"admin' --",
            b"xadmin",
            b"and 12 = 12",
            b"'quoted' OR 'a'='a'",
            b"WAIT FOR DELAY '0:0:5'",
            b"or",
            b"--",
            b"ADMIN",
            b"no sql here at all!",
            b"\n",
            b"select\nunion select",
        ];
        for hay in hays {
            let want = oracle_ids(&oracles, hay);
            let alone: Vec<usize> = singles
                .iter()
                .flat_map(|single| fused_ids(single, &mut cache, hay))
                .collect();
            assert_eq!(
                alone,
                want,
                "sets of one on {:?}",
                String::from_utf8_lossy(hay)
            );
            assert_eq!(
                fused_ids(&set, &mut cache, hay),
                want,
                "haystack {:?}",
                String::from_utf8_lossy(hay)
            );
        }
    }

    #[test]
    fn second_scan_is_fully_cached() {
        let (set, _) = build(LIBRARY);
        let mut cache = DfaCache::new();
        let hay = b"id=1 UNION SELECT name FROM users -- or 1=1";
        let first = fused_ids(&set, &mut cache, hay);
        let mut out = CandidateSet::new(set.pattern_count());
        let stats = set.scan_into(hay, &mut cache, &mut out);
        assert_eq!(stats.misses, 0, "warm cache must not determinize");
        assert_eq!(stats.hit_ratio(), Some(1.0));
        let second: Vec<usize> = out.iter().collect();
        assert_eq!(first, second);
    }

    #[test]
    fn eviction_keeps_results_exact_under_state_explosion() {
        // A tiny limit forces mid-scan flushes.
        let (set, oracles) = build_limited(EXPLOSIVE, 8);
        let mut cache = DfaCache::new();
        let hay = soup(4096);
        let mut out = CandidateSet::new(set.pattern_count());
        let stats = set.scan_into(&hay, &mut cache, &mut out);
        assert!(stats.flushes > 0, "state limit 8 must force flushes");
        assert!(
            cache.state_count() <= set.state_limit(),
            "cache exceeded its bound: {} > {}",
            cache.state_count(),
            set.state_limit()
        );
        let got: Vec<usize> = out.iter().collect();
        assert_eq!(got, oracle_ids(&oracles, &hay), "flushing changed results");
    }

    #[test]
    fn cache_rebinds_across_sets() {
        let (a, a_oracles) = build(&[r"\bor\b", "admin"]);
        let (b, b_oracles) = build(&["drop", r"\btable\b"]);
        let mut cache = DfaCache::new();
        let hay = b"or drop table admin";
        // Alternate owners through one cache; each scan must match
        // its own set's semantics, never the previous owner's.
        for _ in 0..3 {
            assert_eq!(fused_ids(&a, &mut cache, hay), oracle_ids(&a_oracles, hay));
            assert_eq!(fused_ids(&b, &mut cache, hay), oracle_ids(&b_oracles, hay));
        }
    }

    #[test]
    fn anchors_and_empty_haystacks() {
        let (set, oracles) = build(&["^$", "^a", "b$", r"^c$"]);
        let mut cache = DfaCache::new();
        for hay in [&b""[..], b"a", b"b", b"c", b"ab", b"ba", b"cc", b"a\nb"] {
            assert_eq!(
                fused_ids(&set, &mut cache, hay),
                oracle_ids(&oracles, hay),
                "haystack {hay:?}"
            );
        }
    }

    #[test]
    fn sparse_ids_are_covered_and_counted() {
        let mut b = FusedSetBuilder::new();
        assert_eq!(b.add(3, "or", true).unwrap(), FuseOutcome::Fused);
        assert_eq!(
            b.add(1000, r"\bselect\b", true).unwrap(),
            FuseOutcome::Fused
        );
        let set = b.build().unwrap();
        assert_eq!(set.pattern_count(), 2);
        let mut cache = DfaCache::new();
        let mut out = CandidateSet::new(set.pattern_count());
        set.scan_into(b"or SELECT ore", &mut cache, &mut out);
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![3, 1000]);
        assert_eq!(out.universe(), 1001);
        assert_eq!(set.scan_count(&cache, 3), Some(2));
        assert_eq!(set.scan_count(&cache, 1000), Some(1));
        assert_eq!(set.scan_count(&cache, 4), None, "no pattern under id 4");
        // A scan of another set through the cache voids these counts.
        let (other, _) = build(&["x"]);
        other.scan_into(b"x", &mut cache, &mut out);
        assert_eq!(set.scan_count(&cache, 3), None);
    }

    #[test]
    fn tallies_survive_the_scan_tag_wrapping() {
        let (set, _) = build(&["or"]);
        let mut cache = DfaCache::new();
        let mut out = CandidateSet::new(set.pattern_count());
        set.scan_into(b"or", &mut cache, &mut out);
        assert_eq!(set.scan_count(&cache, 0), Some(1));
        // The next scan's tag wraps to the one this count carries.
        cache.scan = u32::MAX;
        set.scan_into(b"xx", &mut cache, &mut out);
        assert_eq!(set.scan_count(&cache, 0), Some(0));
    }

    #[test]
    fn nullable_pattern_matches_everywhere() {
        let (set, _) = build(&["z*"]);
        let mut cache = DfaCache::new();
        assert_eq!(fused_ids(&set, &mut cache, b""), vec![0]);
        assert_eq!(fused_ids(&set, &mut cache, b"qqq"), vec![0]);
    }

    #[test]
    fn hit_ratio_is_clamped_under_tiny_state_limit() {
        // Satellite regression: mid-scan flushes discard and re-pay
        // transitions; whatever the miss accounting does, the ratio
        // must stay a ratio.
        let (set, _) = build_limited(EXPLOSIVE, 1);
        let mut cache = DfaCache::new();
        let hay = soup(512);
        for _ in 0..3 {
            let mut out = CandidateSet::new(set.pattern_count());
            let stats = set.scan_into(&hay, &mut cache, &mut out);
            assert!(stats.flushes > 0, "tiny limit must force flushes");
            let ratio = stats.hit_ratio().expect("non-empty haystack");
            assert!(
                (0.0..=1.0).contains(&ratio),
                "hit_ratio escaped [0,1]: {ratio} ({stats:?})"
            );
        }
    }
}

//! A precompiled counting automaton: the number of non-overlapping
//! leftmost-first matches of one pattern (pSigene's `count_all()`) as
//! one table load per byte.
//!
//! Counting non-overlapping leftmost-first matches needs no captures
//! and no match *start* — only where each match ends, because the next
//! search begins there. That is a regular property of the haystack
//! prefix, so the ordered thread list of a prioritized simulation of
//! the pattern's program can be determinized ahead of time.
//! [`CountDfa::new`] does so eagerly, once per pattern; the automaton
//! is immutable afterwards and shared by every thread.
//!
//! # State
//!
//! A state is what the simulation carries between two bytes of one
//! search: the **ordered** list of pending program counters (the pcs
//! just after the consuming instructions taken, highest priority
//! first), whether a match is already *committed*, and the two context
//! bits epsilon closure will need — was the previous byte a word byte,
//! is this position 0. Closure is deferred to the transition, when the
//! next byte is known, so `^ $ \b \B` resolve from the position's
//! `program::context` instead of splitting states per assertion
//! outcome — the same deferral, closure table and context function
//! `crate::lazydfa` uses.
//!
//! # Transition
//!
//! Expand the pending pcs through the program's precompiled
//! [`crate::program::ClosureTable`] in order (first path to a pc wins);
//! until a match is committed the root closure rides behind them at
//! the lowest priority, which is the leftmost rule. Walk the expanded
//! threads in order: the first `Match` records "a match ends here" on
//! the transition word and **cuts** every thread behind it; threads
//! ahead of it survive and may still override the recorded end with a
//! later, higher-priority one. Threads whose instruction accepts the
//! byte become the next pending list. A committed state with nothing
//! pending is the *dead* state: nothing can override the recorded end,
//! so the search is over.
//!
//! # Counting
//!
//! [`CountDfa::count`] runs one search to the dead state (or the end of
//! input, where a per-state bit says whether `$` or a trailing `\b`
//! completes a match), counts one, and restarts at the last recorded
//! end in the idle state chosen by the byte before it — the context a
//! search starting there would compute. The idle states (nothing
//! pending, nothing committed) hop over every byte that cannot leave
//! idle via the 256-entry `wakes` table.
//!
//! # Counting between reported ends
//!
//! A set-based scan of the haystack (`crate::lazydfa`) reports the end
//! of every match of the pattern, overlapping or not; given the least
//! and the greatest, `first` and `last`, [`CountDfa::count_between`]
//! narrows the work with the pattern's width bounds
//! (`Ast::min_width`, `Ast::max_width`). Every match ends in
//! `first..=last` and so starts at or after `first − max_width`. When
//! `last < first + min_width` no second, non-overlapping match fits and
//! the count is 1 without a run (the single-match rule); otherwise the
//! count starts at `first − max_width` (at 0 when the width is
//! unbounded) and stops after byte `last`. A restart reads its context
//! from the byte before it either way, and end-of-input assertions
//! complete a match at the cut only when the cut is the haystack's end,
//! so the count is the whole haystack's.
//!
//! # Refusals
//!
//! [`CountDfa::new`] refuses two kinds of pattern with an error.
//! Patterns that can match the empty string: with every match
//! consuming a byte the recorded end is always past the search start,
//! so no start offset is needed and restarts strictly advance. And
//! patterns whose ordered determinization exceeds [`STATE_LIMIT`]
//! states. The limit is sized from the shipped feature library, whose
//! largest automaton — `union(\s|\+|/\*.*?\*/)+(all(…)+)?select` —
//! has 7 627 states over 16 byte classes (`nfa::ByteClasses`, the
//! partition the fused automaton uses too). The automaton is tested
//! against the backtracker in `crate::oracle`, which shares only the
//! parser with it.

use crate::compiler;
use crate::error::{Error, ErrorKind};
use crate::nfa::ByteClasses;
use crate::parser::{self, Flags};
use crate::program::{context, is_word_byte, Inst, Program};
use std::collections::HashMap;

/// Determinization gives up past this many states.
const STATE_LIMIT: usize = 8192;

/// Transition-word flag: a match ends at the position of the byte
/// being consumed. The low 15 bits name the next state.
const MATCH: u16 = 1 << 15;

// State ids are cast to `u16` below the `MATCH` bit, and `run` may
// intern one row (at most 256 states) past the limit before it refuses.
const _: () = assert!(STATE_LIMIT + 256 < MATCH as usize);

/// A precompiled automaton counting the non-overlapping
/// leftmost-first matches of one pattern; see the module docs.
#[derive(Debug, Clone)]
pub struct CountDfa {
    /// Byte → equivalence class of the pattern's program.
    classes: [u8; 256],
    /// Number of byte classes: the width of one `table` row.
    stride: usize,
    /// `table[state * stride + class]`: next state, plus [`MATCH`].
    table: Vec<u16>,
    /// Per state: a match completes if the input ends here.
    eoi: Vec<bool>,
    /// Bytes on which some idle state stops being idle.
    wakes: [bool; 256],
    /// The idle state a search starts (or idles) in at position 0,
    /// after a non-word byte, and after a word byte. All three are ids
    /// below `dead`; assertion-free patterns share one.
    idle: [u16; 3],
    /// The dead state's id; every idle state's id is smaller.
    dead: u16,
    /// The narrowest match's width (≥ 1: nullable patterns are refused).
    min_width: usize,
    /// The widest match's width; `None` when unbounded.
    max_width: Option<usize>,
}

impl CountDfa {
    /// Parses, compiles and determinizes `pattern` (`.` excludes `\n`
    /// unless the pattern says `(?s)`). Fails when the pattern does not
    /// parse or compile, with [`ErrorKind::MatchesEmpty`] when it can
    /// match the empty string, and with [`ErrorKind::TooManyStates`]
    /// when it needs more than 8 192 states.
    pub fn new(pattern: &str, case_insensitive: bool) -> Result<CountDfa, Error> {
        let flags = Flags {
            case_insensitive,
            dot_matches_newline: false,
        };
        let ast = parser::parse(pattern, flags)?;
        if ast.is_nullable() {
            return Err(Error::new(ErrorKind::MatchesEmpty, 0));
        }
        let prog = compiler::compile(&ast, compiler::DEFAULT_SIZE_LIMIT)?;
        Determinizer::new(&prog)
            .run(ast.min_width(), ast.max_width())
            .ok_or_else(|| Error::new(ErrorKind::TooManyStates { limit: STATE_LIMIT }, 0))
    }

    /// Number of states (a size proxy; the table is this many rows of
    /// one `u16` per byte class).
    pub fn state_count(&self) -> usize {
        self.eoi.len()
    }

    /// Counts non-overlapping leftmost-first matches in `hay`: the next
    /// search starts where the last match ended.
    pub fn count(&self, hay: &[u8]) -> usize {
        self.count_from(hay, 0, true)
    }

    /// Whether matches ending first at `first` and last at `last` leave
    /// room for one match only (`last < first + min_width`), so that
    /// [`CountDfa::count_between`] answers 1 without a run.
    pub fn single_match(&self, first: usize, last: usize) -> bool {
        last < first + self.min_width
    }

    /// Counts like [`CountDfa::count`], given `first` and `last`, the
    /// least and the greatest end of *any* match of the pattern in
    /// `hay` — what a set-based scan of `hay` reports for it
    /// ([`crate::FusedSet::scan_ends`]). At least one match exists.
    ///
    /// When `last < first + min_width` a second, non-overlapping match
    /// could not end by `last`, so the count is 1 and nothing runs.
    /// Otherwise the searches run over `hay[first - max_width..=last]`
    /// only (from 0 when the pattern's width is unbounded): no match
    /// starts before or ends after it, and the restarts read their
    /// context from the byte before them, as in `hay`.
    pub fn count_between(&self, hay: &[u8], first: usize, last: usize) -> usize {
        if self.single_match(first, last) {
            return 1;
        }
        let from = self.max_width.map_or(0, |w| first.saturating_sub(w));
        let stop = hay.len().min(last + 1);
        self.count_from(&hay[..stop], from, stop == hay.len())
    }

    /// Counts the matches starting at or after `from` in `hay`, whose
    /// end is the haystack's end when `eoi` is set (`$` and a trailing
    /// `\b` can complete a match there) and a cut otherwise.
    fn count_from(&self, hay: &[u8], mut from: usize, eoi: bool) -> usize {
        let mut count = 0;
        // Every match consumes a byte, so `from` strictly advances.
        while let Some(end) = self.find_end(hay, from, eoi) {
            count += 1;
            from = end;
        }
        count
    }

    /// End of the leftmost-first match starting at or after `pos`.
    fn find_end(&self, hay: &[u8], mut pos: usize, eoi: bool) -> Option<usize> {
        let mut state = self.idle_at(hay, pos);
        let mut end = None;
        while pos < hay.len() {
            if state <= self.dead {
                if state == self.dead {
                    return end;
                }
                // Idle: hop to the next byte that can start anything.
                let hop = hay[pos..].iter().position(|&b| self.wakes[b as usize])?;
                pos += hop;
                state = self.idle_at(hay, pos);
            }
            let class = self.classes[hay[pos] as usize] as usize;
            let word = self.table[state as usize * self.stride + class];
            if word & MATCH != 0 {
                end = Some(pos);
            }
            state = word & !MATCH;
            pos += 1;
        }
        if eoi && self.eoi[state as usize] {
            end = Some(hay.len());
        }
        end
    }

    /// The idle state for position `pos`: its context bits are what
    /// `hay[pos - 1]` says about it.
    #[inline]
    fn idle_at(&self, hay: &[u8], pos: usize) -> u16 {
        match pos.checked_sub(1) {
            None => self.idle[0],
            Some(prev) => self.idle[1 + usize::from(is_word_byte(hay[prev]))],
        }
    }
}

/// Identity of a state under construction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    /// Pre-closure pcs, highest priority first.
    pending: Vec<u32>,
    committed: bool,
    prev_word: bool,
    at_start: bool,
}

impl Key {
    fn idle(prev_word: bool, at_start: bool) -> Key {
        Key {
            pending: Vec::new(),
            committed: false,
            prev_word,
            at_start,
        }
    }

    /// Committed with nothing pending. The context bits are dropped:
    /// there is no closure left for them to gate.
    fn dead() -> Key {
        Key {
            pending: Vec::new(),
            committed: true,
            prev_word: false,
            at_start: false,
        }
    }
}

struct Determinizer<'p> {
    prog: &'p Program,
    /// False for assertion-free programs, whose states then drop the
    /// context bits (no closure step ever reads them).
    track_context: bool,
    keys: Vec<Key>,
    ids: HashMap<Key, u16>,
    /// Closure-expansion scratch: the ordered thread list and the
    /// per-pc visit marks (`seen[pc] == generation`).
    threads: Vec<u32>,
    seen: Vec<u32>,
    generation: u32,
}

impl<'p> Determinizer<'p> {
    fn new(prog: &'p Program) -> Determinizer<'p> {
        Determinizer {
            prog,
            track_context: prog.closures.has_assertions(),
            keys: Vec::new(),
            ids: HashMap::new(),
            threads: Vec::new(),
            seen: vec![0; prog.len()],
            generation: 0,
        }
    }

    fn intern(&mut self, key: Key) -> u16 {
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = self.keys.len() as u16;
        self.keys.push(key.clone());
        self.ids.insert(key, id);
        id
    }

    fn run(mut self, min_width: usize, max_width: Option<usize>) -> Option<CountDfa> {
        let ByteClasses { map: classes, reps } = ByteClasses::from_program(self.prog);
        let stride = reps.len();

        let track = self.track_context;
        let idle = [
            self.intern(Key::idle(false, track)),
            self.intern(Key::idle(false, false)),
            self.intern(Key::idle(track, false)),
        ];
        let dead = self.intern(Key::dead());

        let mut table = Vec::new();
        let mut eoi = Vec::new();
        // `keys` grows while it is walked: breadth-first discovery.
        let mut id = 0;
        while id < self.keys.len() {
            if self.keys.len() > STATE_LIMIT {
                return None;
            }
            let key = self.keys[id].clone();
            for &rep in &reps {
                let word = self.transition(&key, rep);
                table.push(word);
            }
            eoi.push(self.completes_at_end(&key));
            id += 1;
        }

        let mut wakes = [false; 256];
        for (b, wake) in wakes.iter_mut().enumerate() {
            let class = classes[b] as usize;
            // Ids at or past `dead` (and any word carrying `MATCH`)
            // are not idle.
            *wake = idle
                .iter()
                .any(|&s| table[s as usize * stride + class] >= dead);
        }
        Some(CountDfa {
            classes,
            stride,
            table,
            eoi,
            wakes,
            idle,
            dead,
            min_width,
            max_width,
        })
    }

    /// Fills `self.threads` with `key`'s closure under `ctx`: the
    /// thread list a simulation would hold at this position, in
    /// priority order.
    fn expand(&mut self, key: &Key, ctx: u8) {
        self.generation += 1;
        self.threads.clear();
        // Until a match commits, a fresh root thread joins at every
        // position, behind everything already in flight.
        let root = (!key.committed).then_some(0);
        for &pc in key.pending.iter().chain(root.iter()) {
            for step in self.prog.closures.steps_of(pc) {
                let mark = &mut self.seen[step.target as usize];
                if step.mask & !ctx == 0 && *mark != self.generation {
                    *mark = self.generation;
                    self.threads.push(step.target);
                }
            }
        }
    }

    /// The transition word out of `key` on `byte`.
    fn transition(&mut self, key: &Key, byte: u8) -> u16 {
        let next_word = is_word_byte(byte);
        self.expand(key, context(key.prev_word, next_word, key.at_start, false));
        let mut pending = Vec::new();
        let mut matched = false;
        for &pc in &self.threads {
            if matches!(self.prog.insts[pc as usize], Inst::Match | Inst::MatchId(_)) {
                // Lower-priority threads are cut; the ones already
                // stepped may still override this end.
                matched = true;
                break;
            }
            if self.prog.accepts(pc, byte) {
                pending.push(pc + 1);
            }
        }
        let committed = key.committed || matched;
        let next = if committed && pending.is_empty() {
            Key::dead()
        } else {
            Key {
                pending,
                committed,
                prev_word: self.track_context && next_word,
                at_start: false,
            }
        };
        self.intern(next) | if matched { MATCH } else { 0 }
    }

    /// Whether a match completes when the input ends in `key`.
    fn completes_at_end(&mut self, key: &Key) -> bool {
        // The position past the last byte counts as non-word.
        self.expand(key, context(key.prev_word, false, key.at_start, true));
        self.threads
            .iter()
            .any(|&pc| matches!(self.prog.insts[pc as usize], Inst::Match | Inst::MatchId(_)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::oracle::Oracle;

    fn dfa(pat: &str) -> CountDfa {
        CountDfa::new(pat, false).unwrap_or_else(|e| panic!("{pat:?} must determinize: {e}"))
    }

    /// Counts with the automaton after checking it against the oracle.
    fn count(pat: &str, hay: &str) -> usize {
        let oracle = Oracle::new(pat, false).expect("pattern compiles");
        let n = dfa(pat).count(hay.as_bytes());
        assert_eq!(n, oracle.count(hay.as_bytes()), "{pat:?} on {hay:?}");
        n
    }

    #[test]
    fn restart_takes_its_context_from_the_byte_before_it() {
        // The second `null` starts right after a `,`: a boundary.
        assert_eq!(count(r"\bnull\b", "null,null"), 2);
        // The first match ends after `null`, so the restart's previous
        // byte is a word byte and `,` is where `\b` holds again.
        assert_eq!(count(r",\s*null\b", ",null,null"), 2);
        assert_eq!(count(r",\s*null\b", ",null,nulls"), 1);
        // No boundary between `a` and `b`: the restart must not
        // pretend it is at the start of a haystack.
        assert_eq!(count(r"\b[ab]", "ab a"), 2);
        assert_eq!(count(r"\B[ab]", "ab a"), 1);
    }

    #[test]
    fn a_later_higher_priority_match_overrides_the_recorded_end() {
        // Greedy `.+` keeps extending past the first ` from`.
        assert_eq!(count("select.+from", "select a from b from c"), 1);
        // Lazy stops at the first; the tail holds no second `select`.
        assert_eq!(count("select.+?from", "select a from b from c"), 1);
        assert_eq!(count("select.+?from", "select a from select b from"), 2);
        assert_eq!(count("ab|abc", "abcabc"), 2);
        assert_eq!(count("(abc|ab|a)+", "abcabx aab"), 2);
    }

    #[test]
    fn end_of_input_assertions() {
        assert_eq!(count(r";\s*$", "a; b;  "), 1);
        assert_eq!(count(r";\s*$", "a; b;  x"), 0);
        assert_eq!(count(r"from$", "from from"), 1);
        assert_eq!(count(r"\bor\b", "or x or"), 2);
        assert_eq!(count(r"\bor\b", "or x orb"), 1);
        assert_eq!(count(r"\d+\b", "12 34"), 2);
    }

    #[test]
    fn start_anchor_cannot_match_after_a_restart() {
        assert_eq!(count("^ab", "ababab"), 1);
        assert_eq!(count("^ab|cd", "abcdab"), 2);
        assert_eq!(count("^select", " select"), 0);
    }

    #[test]
    fn dot_respects_the_newline_flag() {
        assert_eq!(count("a.c", "a\nc abc"), 1);
        assert_eq!(count("(?s)a.c", "a\nc abc"), 2);
        assert_eq!(count("a.+c", "ab\nbc"), 0);
        assert_eq!(count("(?s)a.+c", "ab\nbc"), 1);
    }

    #[test]
    fn empty_haystack_counts_zero() {
        assert_eq!(count("a", ""), 0);
        assert_eq!(count(r"\bnull\b", ""), 0);
        assert_eq!(count("a$", ""), 0);
    }

    #[test]
    fn non_overlapping_and_case_insensitive() {
        assert_eq!(count("aa", "aaaaa"), 2);
        assert_eq!(count("a+", "aa b aaa"), 2);
        let pat = r"union\s+(all\s+)?select";
        let hay = b"union select 1; UNION ALL SELECT 2; union all selec";
        let dfa = CountDfa::new(pat, true).unwrap();
        assert_eq!(dfa.count(hay), 2);
        assert_eq!(dfa.count(hay), Oracle::new(pat, true).unwrap().count(hay));
    }

    #[test]
    fn idle_states_hop_but_do_not_lose_context() {
        // Long idle stretches before, between and after matches.
        let hay = format!(
            "{}or{} or {}",
            "-".repeat(70),
            "x".repeat(70),
            "y".repeat(70)
        );
        assert_eq!(count(r"\bor\b", &hay), 1);
        assert_eq!(count("or", &hay), 2);
        let d = dfa(r"\bor\b");
        assert!(d.wakes[b'o' as usize] && !d.wakes[b'-' as usize]);
    }

    #[test]
    fn nullable_patterns_are_refused() {
        for pat in ["a*", "", r"\b", "^", "(ab)?", "x|"] {
            let err = CountDfa::new(pat, false).expect_err(pat);
            assert_eq!(err.kind(), &ErrorKind::MatchesEmpty, "{pat:?}");
        }
    }

    #[test]
    fn patterns_past_the_state_cap_are_refused() {
        // "An `a` twelve bytes from the end" must remember the last
        // twelve bytes: the determinization blows up past the cap.
        let err = CountDfa::new(r"[ab]*a[ab]{11}", false).expect_err("past the cap");
        assert_eq!(err.kind(), &ErrorKind::TooManyStates { limit: STATE_LIMIT });
        // Two comment-or-space loops around an optional keyword run to
        // thousands of states, but within the cap.
        let union = r"union(\s|\+|/\*.*?\*/)+(all(\s|\+|/\*.*?\*/)+)?select";
        let states = CountDfa::new(union, true)
            .expect("within the cap")
            .state_count();
        assert!((512..=STATE_LIMIT).contains(&states), "{states} states");
        // The same shape without the comment arm is small.
        assert!(dfa(r"union(\s|\+)+(all(\s|\+)+)?select").state_count() <= 512);
    }

    #[test]
    fn idle_and_dead_ids_sit_below_every_other_state() {
        let d = dfa(r"\bselect\b.+from");
        assert!(d.idle.iter().all(|&s| s < d.dead));
        assert_eq!(d.dead, 3);
        let plain = dfa("select");
        assert_eq!(plain.idle, [0, 0, 0]);
        assert_eq!(plain.dead, 1);
        // Nothing completes at end of input from idle or dead.
        assert!(!d.eoi[..=d.dead as usize].iter().any(|&e| e));
    }
}

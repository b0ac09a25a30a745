//! A multi-pattern NFA sharing one instruction arena.
//!
//! [`FusedSetBuilder`] Thompson-compiles every fusable pattern of a
//! library into a single [`Program`] (the arena — instructions and
//! interned character classes are shared across patterns), each
//! pattern ending in an [`Inst::MatchId`] carrying its caller-chosen
//! pattern id. The result, a [`FusedSet`], is executed by the lazy
//! DFA in `crate::lazydfa`: one left-to-right pass over a haystack
//! reports *exactly* the set of patterns with at least one match —
//! the true match set, not a superset.
//!
//! Not every pattern goes in. Patterns whose counted repetitions
//! would expand into large programs (and with them large DFA state
//! sets) are refused with [`FuseOutcome::Fallback`] so that one of
//! them cannot bloat the automaton every other pattern shares; the
//! contract is that the fused scan plus the fallback list together
//! cover the library. The caller handles a refused pattern on its
//! own: the feature library counts it with its counting automaton,
//! the rulesets give it a set of its own ([`FusedSet::single`]),
//! which the per-pattern limits do not apply to.

use crate::ast::Ast;
use crate::compiler;
use crate::error::Error;
use crate::parser::{self, Flags};
use crate::program::{is_word_byte, ClosureStep, Inst, Program};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-pattern ceiling on the expanded AST weight; above it the
/// compiled form (and the DFA state sets it induces) is too large to
/// fuse profitably.
const FUSE_WEIGHT_LIMIT: usize = 512;

/// Counted repetitions beyond this bound are not fused: `a{40}`
/// expands into 40 copies whose positional progress the DFA would
/// have to track as distinct states.
const FUSE_REP_LIMIT: u32 = 16;

/// Total instruction budget for the shared arena.
const FUSE_PROGRAM_LIMIT: usize = 1 << 20;

/// Default bound on cached DFA states (see `crate::lazydfa`).
const DEFAULT_STATE_LIMIT: usize = 4096;

/// Whether [`FusedSetBuilder::add`] accepted a pattern into the fused
/// NFA or refused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuseOutcome {
    /// The pattern is part of the fused automaton.
    Fused,
    /// The pattern must be counted on its own; the payload is a
    /// human-readable reason.
    Fallback(&'static str),
}

/// The internal multi-pattern NFA: the shared program arena plus the
/// per-pattern entry points and the byte equivalence classes the DFA
/// scans over.
#[derive(Debug, Clone)]
pub(crate) struct MultiNfa {
    /// Shared instruction arena; every pattern ends in
    /// [`Inst::MatchId`].
    pub(crate) prog: Program,
    /// The closure steps of every pattern's entry pc, in pattern
    /// order: what unanchored search re-seeds at every haystack
    /// position. Copied out of the closure table once, so a DFA miss
    /// reads one contiguous list instead of one span per pattern.
    pub(crate) entry_steps: Vec<ClosureStep>,
    /// Byte → equivalence class: two bytes in one class are
    /// indistinguishable to every instruction of the arena and, when
    /// it asserts anything, to the word-boundary predicate.
    pub(crate) classes: ByteClasses,
}

/// Byte equivalence classes of one program: the automata index their
/// transition tables by class.
#[derive(Debug, Clone)]
pub(crate) struct ByteClasses {
    /// Byte value → class index.
    pub(crate) map: [u8; 256],
    /// The least byte of each class, by class index: the byte a
    /// transition of that class is determinized on.
    pub(crate) reps: Vec<u8>,
}

impl ByteClasses {
    /// Computes the coarsest partition of byte values that no
    /// consuming instruction of `prog` — nor, when the program asserts
    /// anything, `\b`'s word/non-word split — can tell apart. Classes
    /// are numbered in the order of their least byte. A case-insensitive
    /// keyword keeps one class per letter, and bytes no instruction
    /// names share one, so a table row is a few columns wide.
    ///
    /// Each distinct byte set the program reads (a literal byte, an
    /// interned class, `.`'s newline) refines the partition once: two
    /// bytes stay together while every set holds both or neither.
    pub(crate) fn from_program(prog: &Program) -> ByteClasses {
        let mut label = [0u8; 256];
        let mut refine = |member: &dyn Fn(u8) -> bool| {
            // New label per (old label, membership), first come first
            // numbered: at most 256 of them, as there are 256 bytes.
            let mut relabel = [[u16::MAX; 2]; 256];
            let mut next = 0u16;
            for b in 0..=255u8 {
                let slot = &mut relabel[label[b as usize] as usize][usize::from(member(b))];
                if *slot == u16::MAX {
                    *slot = next;
                    next += 1;
                }
                label[b as usize] = *slot as u8;
            }
        };
        // Word-ness decides `\b` and `\B`, and the automata keep it
        // in their states only when the program asserts.
        if prog.closures.has_assertions() {
            refine(&is_word_byte);
        }
        let mut literal = [false; 256];
        let mut newline = false;
        for inst in &prog.insts {
            match *inst {
                Inst::Byte(b) => literal[b as usize] = true,
                Inst::AnyNoNewline => newline = true,
                _ => {}
            }
        }
        for b in (0..=255u8).filter(|&b| literal[b as usize] || (newline && b == b'\n')) {
            refine(&|x| x == b);
        }
        for class in &prog.classes {
            refine(&|b| class.contains(b));
        }
        // The last refinement numbered classes by their least byte.
        let mut reps = Vec::new();
        for b in 0..=255u8 {
            if label[b as usize] as usize == reps.len() {
                reps.push(b);
            }
        }
        ByteClasses { map: label, reps }
    }

    /// Number of classes: the width of one transition-table row.
    pub(crate) fn count(&self) -> usize {
        self.reps.len()
    }
}

/// Accumulates patterns into the fused NFA. See the module docs.
#[derive(Debug)]
pub struct FusedSetBuilder {
    prog: Program,
    entries: Vec<u32>,
    widths: Vec<u32>,
    pattern_count: usize,
    state_limit: usize,
}

impl Default for FusedSetBuilder {
    fn default() -> FusedSetBuilder {
        FusedSetBuilder::new()
    }
}

impl FusedSetBuilder {
    /// An empty builder with the default DFA state budget.
    pub fn new() -> FusedSetBuilder {
        FusedSetBuilder {
            prog: Program::default(),
            entries: Vec::new(),
            widths: Vec::new(),
            pattern_count: 0,
            state_limit: DEFAULT_STATE_LIMIT,
        }
    }

    /// Caps the number of lazily-determinized DFA states a cache may
    /// hold before it is flushed (memory bound under adversarial
    /// inputs). Clamped to at least 8 so mid-scan flushes can always
    /// retain the in-flight state.
    pub fn state_limit(mut self, limit: usize) -> FusedSetBuilder {
        self.state_limit = limit.max(8);
        self
    }

    /// Tries to fuse `pattern` under id `pid` (ids must be unique per
    /// builder; the feature library uses feature indices). Returns
    /// [`FuseOutcome::Fallback`] — leaving the builder unchanged —
    /// when the pattern is valid but unfusable, and `Err` only when
    /// the pattern does not parse at all. A fused pattern whose every
    /// match has one width w ≥ 1 (`Ast::fixed_width`) is also counted
    /// by the scan; see [`FusedSet::scan_into`].
    pub fn add(
        &mut self,
        pid: u32,
        pattern: &str,
        case_insensitive: bool,
    ) -> Result<FuseOutcome, Error> {
        let flags = Flags {
            case_insensitive,
            dot_matches_newline: false,
        };
        let ast = parser::parse(pattern, flags)?;
        if let Some(reason) = fallback_reason(&ast) {
            return Ok(FuseOutcome::Fallback(reason));
        }
        Ok(match self.push(pid, &ast, FUSE_PROGRAM_LIMIT) {
            Ok(()) => FuseOutcome::Fused,
            Err(_) => FuseOutcome::Fallback("shared arena budget exhausted"),
        })
    }

    /// Compiles `ast` into the arena under id `pid`, keeping the arena
    /// within `size_limit` instructions. On error the builder is left
    /// as it was.
    fn push(&mut self, pid: u32, ast: &Ast, size_limit: usize) -> Result<(), Error> {
        let insts_mark = self.prog.insts.len();
        let classes_mark = self.prog.classes.len();
        match compiler::compile_onto(ast, &mut self.prog, size_limit) {
            Ok(entry) => {
                self.prog.insts.push(Inst::MatchId(pid));
                self.entries.push(entry);
                let pid = pid as usize;
                if self.widths.len() <= pid {
                    self.widths.resize(pid + 1, 0);
                }
                // Zero marks "not counted by the scan": zero-wide and
                // variable-width patterns alike.
                let width = ast.fixed_width().and_then(|w| u32::try_from(w).ok());
                self.widths[pid] = width.unwrap_or(0);
                self.pattern_count += 1;
                Ok(())
            }
            Err(e) => {
                // Roll back the partial compilation; classes interned
                // before this pattern are untouched (truncation only
                // drops ones referenced by the dropped instructions).
                self.prog.insts.truncate(insts_mark);
                self.prog.classes.truncate(classes_mark);
                Err(e)
            }
        }
    }

    /// Finalizes the NFA; `None` when no pattern was fused.
    pub fn build(mut self) -> Option<FusedSet> {
        if self.entries.is_empty() {
            return None;
        }
        // The lazy DFA expands through the arena's closure table.
        self.prog.compute_closures();
        let entry_steps = self
            .entries
            .iter()
            .flat_map(|&pc| self.prog.closures.steps_of(pc))
            .copied()
            .collect();
        // Distinct token per built automaton: a `DfaCache` notices
        // when it is handed a different set (hot reload) and resets
        // instead of serving stale states.
        static TOKEN: AtomicU64 = AtomicU64::new(1);
        let classes = ByteClasses::from_program(&self.prog);
        Some(FusedSet {
            nfa: MultiNfa {
                prog: self.prog,
                entry_steps,
                classes,
            },
            widths: self.widths,
            pattern_count: self.pattern_count,
            state_limit: self.state_limit,
            token: TOKEN.fetch_add(1, Ordering::Relaxed),
        })
    }
}

/// Decides fusability from the parsed AST; `Some(reason)` routes the
/// pattern to the fallback list.
fn fallback_reason(ast: &Ast) -> Option<&'static str> {
    if ast.weight() > FUSE_WEIGHT_LIMIT {
        return Some("expanded program too large to fuse");
    }
    if has_large_counted_rep(ast) {
        return Some("bounded repetition count beyond fuse limit");
    }
    None
}

/// True when any counted repetition exceeds [`FUSE_REP_LIMIT`].
fn has_large_counted_rep(ast: &Ast) -> bool {
    match ast {
        Ast::Repeat { ast, min, max, .. } => {
            *min > FUSE_REP_LIMIT
                || max.is_some_and(|m| m > FUSE_REP_LIMIT)
                || has_large_counted_rep(ast)
        }
        Ast::Concat(parts) | Ast::Alternate(parts) => parts.iter().any(has_large_counted_rep),
        Ast::Group(inner) => has_large_counted_rep(inner),
        _ => false,
    }
}

/// A compiled fused multi-pattern set: the shared NFA plus the lazy
/// DFA configuration. Scanning lives in `crate::lazydfa` and needs a
/// caller-provided [`crate::DfaCache`].
#[derive(Debug, Clone)]
pub struct FusedSet {
    pub(crate) nfa: MultiNfa,
    /// Match width per pattern id, 0 where the scan does not count the
    /// pattern (variable or zero width, or no pattern under that id).
    /// Its length, the largest id plus one, is the id range a scan
    /// reports into.
    pub(crate) widths: Vec<u32>,
    pattern_count: usize,
    pub(crate) state_limit: usize,
    pub(crate) token: u64,
}

impl FusedSet {
    /// A set of the one pattern `pattern` under id `pid`, with the
    /// default DFA state budget. The per-pattern fuse limits do not
    /// apply: they keep one pattern from bloating an automaton others
    /// share, and a set of one shares nothing; the lazy DFA's state
    /// budget still bounds its memory. Fails when the pattern does not
    /// parse or its program exceeds the compiler's size cap.
    pub fn single(pid: u32, pattern: &str, case_insensitive: bool) -> Result<FusedSet, Error> {
        let flags = Flags {
            case_insensitive,
            dot_matches_newline: false,
        };
        let ast = parser::parse(pattern, flags)?;
        let mut builder = FusedSetBuilder::new();
        builder.push(pid, &ast, compiler::DEFAULT_SIZE_LIMIT)?;
        Ok(builder.build().expect("one pattern pushed"))
    }

    /// Number of fused patterns.
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// Number of byte equivalence classes: the width of one row of the
    /// lazy DFA's transition table.
    pub fn class_count(&self) -> usize {
        self.nfa.classes.count()
    }

    /// The DFA state-cache bound in force.
    pub fn state_limit(&self) -> usize {
        self.state_limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_fuses_ids_patterns() {
        let mut b = FusedSetBuilder::new();
        for (i, pat) in [r"union\s+select", r"\bor\b", r"[0-9]+", "^admin", "--$"]
            .iter()
            .enumerate()
        {
            assert_eq!(b.add(i as u32, pat, true).unwrap(), FuseOutcome::Fused);
        }
        let set = b.build().expect("non-empty");
        assert_eq!(set.pattern_count(), 5);
        assert!(set.nfa.prog.len() > 5);
        assert!((4..=256).contains(&set.nfa.classes.count()));
    }

    #[test]
    fn large_counted_repetition_falls_back() {
        let mut b = FusedSetBuilder::new();
        assert!(matches!(
            b.add(0, "a{200}", false).unwrap(),
            FuseOutcome::Fallback(_)
        ));
        assert!(matches!(
            b.add(1, "(abcdefgh){100}", false).unwrap(),
            FuseOutcome::Fallback(_)
        ));
        // Small counted reps fuse fine.
        assert_eq!(b.add(2, "a{2,4}", false).unwrap(), FuseOutcome::Fused);
        assert!(b.build().is_some());
    }

    #[test]
    fn invalid_pattern_is_an_error_not_a_fallback() {
        let mut b = FusedSetBuilder::new();
        assert!(b.add(0, "(unclosed", false).is_err());
    }

    #[test]
    fn empty_builder_builds_none() {
        assert!(FusedSetBuilder::new().build().is_none());
    }

    #[test]
    fn byte_classes_split_word_and_literal_bytes() {
        let classes_of = |pattern: &str| {
            let mut b = FusedSetBuilder::new();
            b.add(0, pattern, true).unwrap();
            b.build().unwrap().nfa.classes
        };
        let c = classes_of(r"\bselect\b");
        // 's' and 'e' are distinct literal bytes → distinct classes.
        assert_ne!(c.map[b's' as usize], c.map[b'e' as usize]);
        // Case folding put both cases of a letter in one class.
        assert_eq!(c.map[b'S' as usize], c.map[b's' as usize]);
        // Two never-referenced non-word bytes share a class, and so do
        // two never-referenced word bytes.
        assert_eq!(c.map[0x01], c.map[b'!' as usize]);
        assert_eq!(c.map[b'9' as usize], c.map[b'z' as usize]);
        // `\b` tells word from non-word bytes.
        assert_ne!(c.map[b'9' as usize], c.map[b'!' as usize]);
        // s, e, l, c, t, the other word bytes, the non-word bytes; each
        // class represented by its least byte.
        assert_eq!(c.count(), 7);
        assert_eq!(c.reps, b"\x000CELST");
        // Without an assertion nothing reads word-ness, so a letter the
        // pattern does not name shares a class with punctuation.
        let plain = classes_of("select");
        assert_eq!(plain.map[b'9' as usize], plain.map[b'!' as usize]);
        assert_eq!(plain.count(), 6);
    }

    #[test]
    fn tokens_are_distinct_per_build() {
        let build = || {
            let mut b = FusedSetBuilder::new();
            b.add(0, "x", false).unwrap();
            b.build().unwrap()
        };
        assert_ne!(build().token, build().token);
    }

    #[test]
    fn state_limit_is_clamped() {
        let b = FusedSetBuilder::new().state_limit(1);
        assert_eq!(b.state_limit, 8);
    }
}

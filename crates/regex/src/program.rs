//! Compiled program representation shared by every matcher.
//!
//! Two things here are the only place the crate decides assertion
//! semantics: [`Program::compute_closures`] is the one walk over
//! epsilon edges (`Jmp`, `Split`, `^ $ \b \B`), folding each path's
//! assertions into a mask, and [`context`] is the one map from "where
//! am I" to the assertion bits a position satisfies. The counting
//! automaton and the fused lazy DFA both expand through the closure
//! table, keeping a step when its mask is a subset of the position's
//! context.

use crate::classes::ClassSet;
use std::fmt;

/// One NFA instruction. Program counters are indices into
/// [`Program::insts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inst {
    /// Match one exact byte and advance.
    Byte(u8),
    /// Match one byte inside the indexed class and advance.
    Class(u32),
    /// Match any byte and advance.
    Any,
    /// Match any byte except `\n` and advance.
    AnyNoNewline,
    /// Fork execution; the first target has higher priority.
    Split(u32, u32),
    /// Unconditional jump.
    Jmp(u32),
    /// Assert the current position is the start of the haystack.
    StartText,
    /// Assert the current position is the end of the haystack.
    EndText,
    /// Assert a word/non-word boundary at the current position.
    WordBoundary,
    /// Assert the absence of a word boundary.
    NotWordBoundary,
    /// Report a match ending at the current position.
    Match,
    /// Report a match of one pattern of a fused multi-pattern program
    /// (see `crate::nfa`). Single-pattern programs never contain it;
    /// the counting automaton treats it exactly like [`Inst::Match`].
    MatchId(u32),
}

/// A compiled pattern: an instruction list plus a table of character
/// classes referenced by [`Inst::Class`].
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// The instruction stream; execution starts at index 0.
    pub insts: Vec<Inst>,
    /// Character classes referenced by index.
    pub classes: Vec<ClassSet>,
    /// Precompiled epsilon closures: for every pc, the consuming and
    /// match instructions reachable through epsilon transitions, in
    /// priority order, each tagged with the assertions crossed on the
    /// way. The counting automaton and the lazy DFA both expand through
    /// this flat list instead of walking splits/jumps. Computed by [`Program::compute_closures`].
    pub closures: ClosureTable,
}

/// Assertion-requirement bits on a [`ClosureStep`]: every bit in a
/// step's mask must also be present in the position's context bits
/// for the step to fire. A position's context has exactly one of
/// `REQ_WORD_BOUNDARY`/`REQ_NOT_WORD_BOUNDARY` set, so a step that
/// accumulated both (a contradictory epsilon path) can never fire —
/// exactly like the walk it replaces.
pub const REQ_START: u8 = 1;
/// See [`REQ_START`].
pub const REQ_END: u8 = 2;
/// See [`REQ_START`].
pub const REQ_WORD_BOUNDARY: u8 = 4;
/// See [`REQ_START`].
pub const REQ_NOT_WORD_BOUNDARY: u8 = 8;

/// ASCII word byte: letter, digit or underscore.
pub(crate) fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The `REQ_*` bits a position satisfies, given whether the bytes on
/// either side of it are word bytes (a haystack edge counts as
/// non-word) and whether it is the haystack's start or end.
#[inline]
pub(crate) fn context(prev_word: bool, next_word: bool, at_start: bool, at_end: bool) -> u8 {
    let boundary = if prev_word != next_word {
        REQ_WORD_BOUNDARY
    } else {
        REQ_NOT_WORD_BOUNDARY
    };
    let start = if at_start { REQ_START } else { 0 };
    let end = if at_end { REQ_END } else { 0 };
    boundary | start | end
}

/// One precompiled epsilon-closure step; see [`Program::closures`].
#[derive(Debug, Clone, Copy)]
pub struct ClosureStep {
    /// The consuming (or match) instruction reached.
    pub target: u32,
    /// Conjunction of [`REQ_START`]-family bits crossed en route.
    pub mask: u8,
}

/// Flat per-pc epsilon-closure lists; see [`Program::closures`].
#[derive(Debug, Clone, Default)]
pub struct ClosureTable {
    steps: Vec<ClosureStep>,
    /// `spans[pc]..spans[pc + 1]` indexes `steps`; `insts.len() + 1`
    /// entries.
    spans: Vec<u32>,
    /// True when some step carries a non-empty mask. Assertion-free
    /// programs (most IDS signature fragments) let the counting
    /// automaton drop the context bits from its states: every mask
    /// test passes for any context.
    has_assertions: bool,
}

impl ClosureTable {
    /// The closure steps of `pc`, in thread-priority order.
    #[inline]
    pub fn steps_of(&self, pc: u32) -> &[ClosureStep] {
        &self.steps[self.spans[pc as usize] as usize..self.spans[pc as usize + 1] as usize]
    }

    /// True when any step's firing depends on position context.
    #[inline]
    pub fn has_assertions(&self) -> bool {
        self.has_assertions
    }
}

impl Program {
    /// Precompiles the epsilon closure of every pc; call once after
    /// the instruction stream is final.
    ///
    /// Each closure is a preorder walk from the pc — splits/jumps
    /// flattened away, assertions folded into a per-step requirement
    /// mask. The walk must list, for every position context, exactly
    /// the steps a walk under that one context would reach, in its
    /// order; the determinizers' per-step `seen` marks then keep the
    /// first of any repeats. So a pc is re-explored only under a mask
    /// that is not a superset of one it was already reached under: any
    /// context satisfying the larger mask satisfies the smaller one
    /// too, and under it the pc was already walked — or is still being
    /// walked, an epsilon cycle back to it. Cutting that cycle is what
    /// makes an empty loop iteration end its loop even when it crossed
    /// an assertion. Masks only grow along a path, so cycles terminate.
    pub fn compute_closures(&mut self) {
        let n = self.insts.len();
        let mut steps: Vec<ClosureStep> = Vec::new();
        let mut spans: Vec<u32> = Vec::with_capacity(n + 1);
        spans.push(0);
        // (pc, mask) visit marks, generation-stamped per source pc so
        // the buffer is not re-zeroed n times.
        let mut seen = vec![0u32; n * 16];
        let mut stack: Vec<(u32, u8)> = Vec::new();
        for pc in 0..n as u32 {
            let generation = pc + 1;
            stack.clear();
            stack.push((pc, 0));
            while let Some((p, mask)) = stack.pop() {
                let slots = p as usize * 16;
                let covered =
                    (0..16).any(|m| m & !mask == 0 && seen[slots + m as usize] == generation);
                if covered {
                    continue;
                }
                seen[slots + mask as usize] = generation;
                match &self.insts[p as usize] {
                    Inst::Jmp(t) => stack.push((*t, mask)),
                    Inst::Split(a, b) => {
                        // Low-priority arm first, so the preferred arm
                        // is walked (and listed) first.
                        stack.push((*b, mask));
                        stack.push((*a, mask));
                    }
                    Inst::StartText => stack.push((p + 1, mask | REQ_START)),
                    Inst::EndText => stack.push((p + 1, mask | REQ_END)),
                    Inst::WordBoundary => stack.push((p + 1, mask | REQ_WORD_BOUNDARY)),
                    Inst::NotWordBoundary => stack.push((p + 1, mask | REQ_NOT_WORD_BOUNDARY)),
                    _ => steps.push(ClosureStep { target: p, mask }),
                }
            }
            spans.push(steps.len() as u32);
        }
        let has_assertions = steps.iter().any(|s| s.mask != 0);
        self.closures = ClosureTable {
            steps,
            spans,
            has_assertions,
        };
    }
}

impl Program {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the consuming instruction at `pc` accepts `byte`; the
    /// determinizers' step function.
    #[inline]
    pub(crate) fn accepts(&self, pc: u32, byte: u8) -> bool {
        match &self.insts[pc as usize] {
            Inst::Byte(b) => *b == byte,
            Inst::Class(idx) => self.classes[*idx as usize].contains(byte),
            Inst::Any => true,
            Inst::AnyNoNewline => byte != b'\n',
            _ => unreachable!("non-consuming pc on a thread list"),
        }
    }

    /// Registers a class, reusing an identical existing entry.
    pub fn intern_class(&mut self, set: ClassSet) -> u32 {
        if let Some(i) = self.classes.iter().position(|c| *c == set) {
            return i as u32;
        }
        self.classes.push(set);
        (self.classes.len() - 1) as u32
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, inst) in self.insts.iter().enumerate() {
            match inst {
                Inst::Byte(b) => writeln!(f, "{i:04} byte  {:?}", *b as char)?,
                Inst::Class(c) => writeln!(f, "{i:04} class #{c}")?,
                Inst::Any => writeln!(f, "{i:04} any")?,
                Inst::AnyNoNewline => writeln!(f, "{i:04} any-no-nl")?,
                Inst::Split(a, b) => writeln!(f, "{i:04} split {a}, {b}")?,
                Inst::Jmp(t) => writeln!(f, "{i:04} jmp   {t}")?,
                Inst::StartText => writeln!(f, "{i:04} ^")?,
                Inst::EndText => writeln!(f, "{i:04} $")?,
                Inst::WordBoundary => writeln!(f, "{i:04} \\b")?,
                Inst::NotWordBoundary => writeln!(f, "{i:04} \\B")?,
                Inst::Match => writeln!(f, "{i:04} match")?,
                Inst::MatchId(p) => writeln!(f, "{i:04} match #{p}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_interning_dedupes() {
        let mut p = Program::default();
        let a = p.intern_class(ClassSet::single(b'a'));
        let b = p.intern_class(ClassSet::single(b'b'));
        let a2 = p.intern_class(ClassSet::single(b'a'));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(p.classes.len(), 2);
    }

    #[test]
    fn context_is_the_truth_table_of_its_four_inputs() {
        for row in 0..16u8 {
            let [prev_word, next_word, at_start, at_end] = [1, 2, 4, 8].map(|bit| row & bit != 0);
            let ctx = context(prev_word, next_word, at_start, at_end);
            let boundary = ctx & REQ_WORD_BOUNDARY != 0;
            assert_ne!(boundary, ctx & REQ_NOT_WORD_BOUNDARY != 0, "row {row}");
            assert_eq!(boundary, prev_word != next_word, "row {row}");
            assert_eq!(ctx & REQ_START != 0, at_start, "row {row}");
            assert_eq!(ctx & REQ_END != 0, at_end, "row {row}");
        }
    }

    #[test]
    fn display_is_line_per_inst() {
        let mut p = Program::default();
        p.insts.push(Inst::Byte(b'x'));
        p.insts.push(Inst::Match);
        let text = p.to_string();
        assert_eq!(text.lines().count(), 2);
    }
}

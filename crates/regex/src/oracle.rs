//! A reference matcher, independent of the engine: the oracle that
//! every automaton is tested against, and the per-feature count
//! (`Feature::count` in `psigene-features`) that extraction is tested
//! against.
//!
//! The engine matches two ways — the counting automaton
//! ([`crate::CountDfa`]) and the fused lazy DFA ([`crate::FusedSet`]) —
//! and both are built from the compiler's `Program` and its closure
//! table, so comparing them with each other cannot catch a compiler
//! bug. This module shares only the parser and the AST: it lowers the
//! tree itself to five instruction kinds (byte set, prioritized split,
//! jump, assertion, match) and backtracks depth-first in priority
//! order, in the style of RE2's BitState. It is compiled into every
//! build so other crates' tests can use it, and hidden from the docs:
//! nothing on a request path calls it.
//!
//! # Semantics, from first principles
//!
//! - **Leftmost-first.** The earliest start with any match wins; from
//!   one start, the first path in priority order: earlier alternation
//!   branches first, greedy repetitions try one more iteration before
//!   stopping, lazy ones stop first.
//! - **Assertions read absolute positions.** `^` holds only at 0, `$`
//!   only at `hay.len()` (a trailing `\n` is an ordinary byte), `\b`
//!   where the bytes on either side differ in word-ness (ASCII letters,
//!   digits, `_`; the haystack edges are non-word) and `\B` elsewhere.
//!   Searching from a later start moves none of them.
//! - **An iteration of `*`, `+` or `{m,}` that consumes nothing ends its
//!   loop.** `x{m,n}` is expanded: `m` copies of `x`, then `n - m`
//!   optional ones, where skipping one skips the rest.
//! - **Counting is non-overlapping.** The next search starts where the
//!   previous match ended, one byte later after an empty match.
//!
//! # Cost
//!
//! One visited bit per `(instruction, position)` per search bounds it at
//! O(program × haystack), and the bits are exact: with no captures and
//! no counters, an instruction and a position fix everything that can
//! still happen, so a visited pair has either failed from every path
//! or is still on the current one — reached again without consuming a
//! byte, i.e. by an empty loop iteration, which the lowering of
//! unbounded loops below turns into leaving the loop.

use crate::ast::Ast;
use crate::error::Error;
use crate::parser::{self, Flags};

/// Whether `pos` sits between a word byte and a non-word byte (ASCII
/// letters, digits and `_` are word bytes; the haystack edges are not).
fn word_boundary(hay: &[u8], pos: usize) -> bool {
    let word = |at: Option<usize>| {
        at.and_then(|i| hay.get(i))
            .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_')
    };
    word(pos.checked_sub(1)) != word(Some(pos))
}

/// One instruction; the next one is at `pc + 1`.
#[derive(Debug, Clone)]
enum Op {
    /// Consume one byte whose bit is set.
    Bytes([u64; 4]),
    /// Try the first target; on failure, the second.
    Split(usize, usize),
    Jump(usize),
    /// Go on only where the condition holds at the position.
    Assert(fn(&[u8], usize) -> bool),
    Match,
}

/// A pattern lowered for backtracking; see the module docs. Lower a
/// pattern once and count with it many times: [`Oracle::new`] parses,
/// the searches only walk the lowered program.
#[derive(Debug, Clone)]
pub struct Oracle {
    ops: Vec<Op>,
}

impl Oracle {
    /// Parses `pattern` as the engine would (`.` excludes `\n` unless
    /// `(?s)`) and lowers it.
    pub fn new(pattern: &str, case_insensitive: bool) -> Result<Oracle, Error> {
        let flags = Flags {
            case_insensitive,
            dot_matches_newline: false,
        };
        let mut ops = Vec::new();
        lower(&parser::parse(pattern, flags)?, &mut ops);
        ops.push(Op::Match);
        Ok(Oracle { ops })
    }

    /// The leftmost-first match starting at or after `from`, as
    /// `(start, end)`.
    pub fn find_at(&self, hay: &[u8], from: usize) -> Option<(usize, usize)> {
        let width = hay.len() + 1;
        let mut visited = vec![0u64; (self.ops.len() * width).div_ceil(64)];
        let mut stack = Vec::new();
        // The bits carry over between starts: a pair that failed from
        // an earlier start fails from this one too.
        for start in from..=hay.len() {
            stack.push((0, start));
            while let Some((pc, pos)) = stack.pop() {
                let bit = pc * width + pos;
                if visited[bit / 64] & (1 << (bit % 64)) != 0 {
                    continue;
                }
                visited[bit / 64] |= 1 << (bit % 64);
                match &self.ops[pc] {
                    Op::Bytes(set) => {
                        if let Some(&b) = hay.get(pos) {
                            if set[usize::from(b / 64)] & (1 << (b % 64)) != 0 {
                                stack.push((pc + 1, pos + 1));
                            }
                        }
                    }
                    // Pushed last, popped first: the first target's
                    // whole subtree runs before the second.
                    Op::Split(first, second) => {
                        stack.push((*second, pos));
                        stack.push((*first, pos));
                    }
                    Op::Jump(to) => stack.push((*to, pos)),
                    Op::Assert(holds) => {
                        if holds(hay, pos) {
                            stack.push((pc + 1, pos));
                        }
                    }
                    Op::Match => return Some((start, pos)),
                }
            }
        }
        None
    }

    /// Every non-overlapping match, left to right.
    pub fn find_all(&self, hay: &[u8]) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut from = 0;
        while let Some((start, end)) = self.find_at(hay, from) {
            spans.push((start, end));
            from = if start == end { end + 1 } else { end };
        }
        spans
    }

    /// Whether `hay` holds a match anywhere.
    pub fn is_match(&self, hay: &[u8]) -> bool {
        self.find_at(hay, 0).is_some()
    }

    /// The number of non-overlapping matches: `count_all`'s answer.
    pub fn count(&self, hay: &[u8]) -> usize {
        self.find_all(hay).len()
    }
}

fn bytes(accepts: impl Fn(u8) -> bool) -> Op {
    let mut set = [0u64; 4];
    for b in 0..=255u8 {
        if accepts(b) {
            set[usize::from(b / 64)] |= 1 << (b % 64);
        }
    }
    Op::Bytes(set)
}

/// Reserves a slot for a split or jump whose targets come later.
fn hole(ops: &mut Vec<Op>) -> usize {
    ops.push(Op::Match);
    ops.len() - 1
}

fn lower(ast: &Ast, ops: &mut Vec<Op>) {
    match ast {
        Ast::Empty => {}
        Ast::Literal(lit) => ops.push(bytes(|b| b == *lit)),
        Ast::Class(set) => ops.push(bytes(|b| set.contains(b))),
        Ast::Dot { matches_newline } => ops.push(bytes(|b| *matches_newline || b != b'\n')),
        Ast::StartText => ops.push(Op::Assert(|_, pos| pos == 0)),
        Ast::EndText => ops.push(Op::Assert(|hay, pos| pos == hay.len())),
        Ast::WordBoundary => ops.push(Op::Assert(word_boundary)),
        Ast::NotWordBoundary => ops.push(Op::Assert(|hay, pos| !word_boundary(hay, pos))),
        Ast::Group(inner) => lower(inner, ops),
        Ast::Concat(parts) => parts.iter().for_each(|part| lower(part, ops)),
        Ast::Alternate(branches) => {
            // `split(b1, rest); b1; jump end; rest: split(b2, …) … bn`.
            let mut exits = Vec::new();
            let (last, init) = branches
                .split_last()
                .expect("the parser builds no empty alternation");
            for branch in init {
                let split = hole(ops);
                lower(branch, ops);
                exits.push(hole(ops));
                ops[split] = Op::Split(split + 1, ops.len());
            }
            lower(last, ops);
            for exit in exits {
                ops[exit] = Op::Jump(ops.len());
            }
        }
        Ast::Repeat {
            ast,
            min,
            max,
            greedy,
        } => {
            let choose = |go: usize, stop: usize| {
                if *greedy {
                    Op::Split(go, stop)
                } else {
                    Op::Split(stop, go)
                }
            };
            for _ in 0..*min {
                lower(ast, ops);
            }
            match max {
                Some(max) => {
                    let optional: Vec<usize> = (*min..*max)
                        .map(|_| {
                            let split = hole(ops);
                            lower(ast, ops);
                            split
                        })
                        .collect();
                    for split in optional {
                        ops[split] = choose(split + 1, ops.len());
                    }
                }
                // `(x+)?`: after an iteration that consumed nothing,
                // `(body, pos)` is still on the path, so the back edge is
                // cut and the search falls through to `exit`.
                None => {
                    let enter = hole(ops);
                    let body = ops.len();
                    lower(ast, ops);
                    let again = hole(ops);
                    let exit = ops.len();
                    ops[enter] = choose(body, exit);
                    ops[again] = choose(body, exit);
                }
            }
        }
    }
}

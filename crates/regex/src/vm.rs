//! A prioritized Pike VM.
//!
//! The VM simulates the NFA breadth-first over the haystack while
//! keeping threads in priority order, yielding Perl-style
//! leftmost-first match semantics (earlier alternation branches and
//! greedy/lazy preferences are honored) in `O(haystack × program)`
//! time with no backtracking blow-up.

use crate::prefilter::PrefixSkip;
use crate::program::{context, is_word_byte, Inst, Program};
use crate::Match;

/// Reusable scratch space for the VM; callers that run many searches
/// over the same program should reuse one cache.
#[derive(Debug, Default)]
pub(crate) struct VmCache {
    clist: ThreadList,
    nlist: ThreadList,
}

impl VmCache {
    /// Creates an empty cache; it grows to fit the program on first use.
    pub(crate) fn new() -> VmCache {
        VmCache::default()
    }
}

#[derive(Debug, Clone, Copy)]
struct Thread {
    pc: u32,
    start: usize,
}

/// A priority-ordered thread list with O(1) duplicate detection.
#[derive(Debug, Default)]
struct ThreadList {
    dense: Vec<Thread>,
    /// `seen[pc] == generation` marks pc as already queued this step.
    seen: Vec<u32>,
    generation: u32,
}

impl ThreadList {
    fn clear(&mut self, prog_len: usize) {
        self.dense.clear();
        if self.seen.len() < prog_len {
            self.seen.resize(prog_len, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Generation wrapped: reset marks to keep correctness.
            self.seen.iter_mut().for_each(|g| *g = 0);
            self.generation = 1;
        }
    }

    fn contains(&self, pc: u32) -> bool {
        self.seen[pc as usize] == self.generation
    }

    fn mark(&mut self, pc: u32) {
        self.seen[pc as usize] = self.generation;
    }
}

/// Runs a leftmost-first search over `hay[start..]`, returning the
/// first (leftmost) match span.
///
/// `skip`, when present, is the pattern's start-anchored literal
/// requirement: no match can begin at a position where none of its
/// prefixes occurs. With nothing in flight the scan jumps straight to
/// the next candidate position instead of seeding (and burying) a
/// root thread at every byte — the result is byte-identical because
/// skipped roots are exactly the ones that can never reach a match.
pub fn find_at(
    prog: &Program,
    skip: Option<&PrefixSkip>,
    hay: &[u8],
    start: usize,
    cache: &mut VmCache,
) -> Option<Match> {
    if prog.is_empty() || start > hay.len() {
        return None;
    }
    let plen = prog.len();
    cache.clist.clear(plen);
    cache.nlist.clear(plen);
    let mut matched: Option<Match> = None;
    let plan = prog.root_plan.as_ref();
    // Assertion-free programs never consult the context, so skip
    // computing it (two word-boundary probes per position otherwise).
    let asserts = prog.closures.has_assertions();

    let mut pos = start;
    loop {
        if matched.is_none() && cache.clist.dense.is_empty() {
            if let Some(skip) = skip {
                match skip.next_match_start(hay, pos) {
                    Some(q) => pos = q,
                    None => return None,
                }
            }
        }
        // The position's assertion context, computed once per position
        // and tested against each precompiled closure step's mask.
        let ctx = if asserts { context_at(hay, pos) } else { 0 };
        // While no match is committed, a fresh root thread is added at
        // every position. Appending at the end gives earlier starts
        // higher priority, which is exactly the leftmost rule. With a
        // precomputed root plan the closure walk is skipped here and
        // fused into the step below.
        if matched.is_none() && plan.is_none() {
            add_closure(prog, &mut cache.clist, 0, pos, ctx);
        }
        // An empty list after a match is committed means nothing can
        // override it; an empty list before a match just means the
        // current root died (e.g. a failed assertion) — later start
        // positions must still be tried.
        if cache.clist.dense.is_empty() && matched.is_some() {
            break;
        }
        let byte = hay.get(pos).copied();
        // Successor threads land at `pos + 1`; their closures are
        // filtered by that position's context.
        let nctx = if asserts && byte.is_some() {
            context_at(hay, pos + 1)
        } else {
            0
        };
        let mut cut = false;
        cache.nlist.clear(plen);
        for i in 0..cache.clist.dense.len() {
            if cut {
                break;
            }
            let th = cache.clist.dense[i];
            match &prog.insts[th.pc as usize] {
                Inst::Byte(b) => {
                    if byte == Some(*b) {
                        add_closure(prog, &mut cache.nlist, th.pc + 1, th.start, nctx);
                    }
                }
                Inst::Class(idx) => {
                    if let Some(b) = byte {
                        if prog.classes[*idx as usize].contains(b) {
                            add_closure(prog, &mut cache.nlist, th.pc + 1, th.start, nctx);
                        }
                    }
                }
                Inst::Any => {
                    if byte.is_some() {
                        add_closure(prog, &mut cache.nlist, th.pc + 1, th.start, nctx);
                    }
                }
                Inst::AnyNoNewline => {
                    if byte.is_some() && byte != Some(b'\n') {
                        add_closure(prog, &mut cache.nlist, th.pc + 1, th.start, nctx);
                    }
                }
                Inst::Match | Inst::MatchId(_) => {
                    // This thread matched. Lower-priority threads (later
                    // in the list) are cut; surviving higher-priority
                    // threads may still override with a better match.
                    matched = Some(Match {
                        start: th.start,
                        end: pos,
                    });
                    cut = true;
                }
                // Epsilon instructions are resolved inside add_thread
                // and never appear on a thread list.
                Inst::Split(..)
                | Inst::Jmp(..)
                | Inst::StartText
                | Inst::EndText
                | Inst::WordBoundary
                | Inst::NotWordBoundary => {
                    unreachable!("epsilon instruction on thread list")
                }
            }
        }
        // Root-plan fast path: threads that would have started at
        // `pos` and consumed `byte` enter the next list directly, at
        // the lowest priority (they have the latest start).
        if let (Some(plan), Some(b), None) = (plan, byte, matched) {
            if !cut {
                for &next_pc in &plan.by_byte[b as usize] {
                    add_closure(prog, &mut cache.nlist, next_pc, pos, nctx);
                }
            }
        }
        std::mem::swap(&mut cache.clist, &mut cache.nlist);
        if pos >= hay.len() {
            break;
        }
        pos += 1;
        // Once the haystack is exhausted of candidate threads and a
        // match is recorded, stop early.
        if cache.clist.dense.is_empty() && matched.is_some() {
            break;
        }
    }
    matched
}

/// Adds `pc`'s precompiled epsilon closure to `list`: every step whose
/// assertion mask is satisfied by `ctx`, in priority (preorder) order.
///
/// Equivalent to the explicit stack walk it replaced: the closure
/// table lists consuming/match targets in the same preorder, a step
/// whose mask needs a bit absent from `ctx` is exactly a path the walk
/// would have pruned at the failing assertion, and the `seen` marks
/// reproduce the walk's first-path-wins dedup.
#[inline]
fn add_closure(prog: &Program, list: &mut ThreadList, pc: u32, start: usize, ctx: u8) {
    for step in prog.closures.steps_of(pc) {
        if step.mask & !ctx != 0 {
            continue;
        }
        if list.contains(step.target) {
            continue;
        }
        list.mark(step.target);
        list.dense.push(Thread {
            pc: step.target,
            start,
        });
    }
}

/// The [`context`] of position `pos` in `hay`.
#[inline]
fn context_at(hay: &[u8], pos: usize) -> u8 {
    let word = |i: Option<usize>| i.and_then(|i| hay.get(i)).is_some_and(|&b| is_word_byte(b));
    context(
        word(pos.checked_sub(1)),
        word(Some(pos)),
        pos == 0,
        pos == hay.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile, DEFAULT_SIZE_LIMIT};
    use crate::parser::{parse, Flags};

    fn search(pat: &str, hay: &str) -> Option<(usize, usize)> {
        let ast = parse(pat, Flags::default()).expect("parse");
        let prog = compile(&ast, DEFAULT_SIZE_LIMIT).expect("compile");
        let mut cache = VmCache::new();
        find_at(&prog, None, hay.as_bytes(), 0, &mut cache).map(|s| (s.start, s.end))
    }

    #[test]
    fn literal_find() {
        assert_eq!(search("bc", "abcd"), Some((1, 3)));
        assert_eq!(search("xy", "abcd"), None);
    }

    #[test]
    fn leftmost_preference() {
        // Both `bb` at 2 and `b` at 1 can match; leftmost wins.
        assert_eq!(search("bb|b", "abbb"), Some((1, 3)));
    }

    #[test]
    fn alternation_first_branch_preference() {
        // Same start: the first branch wins even though shorter.
        assert_eq!(search("ab|abc", "abc"), Some((0, 2)));
        assert_eq!(search("abc|ab", "abc"), Some((0, 3)));
    }

    #[test]
    fn greedy_vs_lazy() {
        assert_eq!(search("a+", "aaa"), Some((0, 3)));
        assert_eq!(search("a+?", "aaa"), Some((0, 1)));
        assert_eq!(search("a*", "bbb"), Some((0, 0)));
    }

    #[test]
    fn anchors() {
        assert_eq!(search("^ab", "abab"), Some((0, 2)));
        assert_eq!(search("ab$", "abab"), Some((2, 4)));
        assert_eq!(search("^ab$", "abab"), None);
        assert_eq!(search("^$", ""), Some((0, 0)));
    }

    #[test]
    fn counted_reps() {
        assert_eq!(search("a{2,3}", "aaaa"), Some((0, 3)));
        assert_eq!(search("a{2,3}?", "aaaa"), Some((0, 2)));
        assert_eq!(search("a{5}", "aaaa"), None);
    }

    #[test]
    fn classes_and_dot() {
        assert_eq!(search(r"[0-9]+", "ab123cd"), Some((2, 5)));
        assert_eq!(search(r"a.c", "abc"), Some((0, 3)));
        assert_eq!(search(r"a.c", "a\nc"), None);
        assert_eq!(search(r"(?s)a.c", "a\nc"), Some((0, 3)));
    }

    #[test]
    fn word_boundaries() {
        assert_eq!(search(r"\bunion\b", "a union b"), Some((2, 7)));
        assert_eq!(search(r"\bunion\b", "reunion"), None);
        assert_eq!(search(r"\bunion\b", "unions"), None);
        assert_eq!(search(r"\bunion\b", "union"), Some((0, 5)));
        assert_eq!(search(r"\Bnion", "union"), Some((1, 5)));
        assert_eq!(search(r"\Bunion", "union"), None);
    }

    #[test]
    fn pathological_pattern_is_linear() {
        // (a|a)* a^n against a^n b — classic backtracking bomb.
        let hay = format!("{}b", "a".repeat(64));
        let pat = "(a|a)*c";
        assert_eq!(search(pat, &hay), None);
    }

    #[test]
    fn empty_pattern_matches_empty_prefix() {
        assert_eq!(search("", "abc"), Some((0, 0)));
    }

    #[test]
    fn search_from_offset() {
        let ast = parse("a", Flags::default()).expect("parse");
        let prog = compile(&ast, DEFAULT_SIZE_LIMIT).expect("compile");
        let mut cache = VmCache::new();
        let hay = b"abca";
        assert_eq!(
            find_at(&prog, None, hay, 1, &mut cache).map(|s| (s.start, s.end)),
            Some((3, 4))
        );
        assert_eq!(find_at(&prog, None, hay, 4, &mut cache), None);
    }
}

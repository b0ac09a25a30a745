//! Compiles an [`Ast`] into a [`Program`].
//!
//! Counted repetitions are expanded, so `{m,n}` costs `n` copies of
//! its body; a configurable size limit rejects patterns that would
//! expand into unreasonably large programs.

use crate::ast::Ast;
use crate::error::{Error, ErrorKind};
use crate::program::{Inst, Program};

/// Hard ceiling applied on top of the user-provided size limit.
pub const DEFAULT_SIZE_LIMIT: usize = 100_000;

/// Compiles `ast`, failing when the estimated instruction count
/// exceeds `size_limit`.
pub fn compile(ast: &Ast, size_limit: usize) -> Result<Program, Error> {
    let mut prog = Program::default();
    compile_onto(ast, &mut prog, size_limit)?;
    let mut c = Compiler { prog, size_limit };
    c.push(Inst::Match)?;
    c.prog.compute_closures();
    Ok(c.prog)
}

/// Appends the compiled form of `ast` to `prog`, returning the entry
/// pc. No terminating match instruction is emitted — the caller picks
/// [`Inst::Match`] or [`Inst::MatchId`] — and `size_limit` bounds the
/// *total* instruction count of the shared program, so a fused
/// multi-pattern arena (see `crate::nfa`) can grow one pattern at a
/// time under a single budget. On error the program may hold a
/// partial compilation; callers roll back by truncating `insts` (and
/// `classes`) to their pre-call lengths.
pub(crate) fn compile_onto(ast: &Ast, prog: &mut Program, size_limit: usize) -> Result<u32, Error> {
    let estimated = ast.weight().saturating_add(prog.insts.len());
    if estimated > size_limit {
        return Err(Error::new(
            ErrorKind::ProgramTooBig {
                estimated,
                limit: size_limit,
            },
            0,
        ));
    }
    let entry = prog.insts.len() as u32;
    let mut c = Compiler {
        prog: std::mem::take(prog),
        size_limit,
    };
    let result = c.emit(ast);
    *prog = c.prog;
    result.map(|()| entry)
}

struct Compiler {
    prog: Program,
    size_limit: usize,
}

impl Compiler {
    fn pc(&self) -> u32 {
        self.prog.insts.len() as u32
    }

    fn push(&mut self, inst: Inst) -> Result<u32, Error> {
        if self.prog.insts.len() >= self.size_limit {
            return Err(Error::new(
                ErrorKind::ProgramTooBig {
                    estimated: self.prog.insts.len() + 1,
                    limit: self.size_limit,
                },
                0,
            ));
        }
        self.prog.insts.push(inst);
        Ok(self.pc() - 1)
    }

    fn patch_split(&mut self, at: u32, first: u32, second: u32) {
        self.prog.insts[at as usize] = Inst::Split(first, second);
    }

    fn patch_jmp(&mut self, at: u32, to: u32) {
        self.prog.insts[at as usize] = Inst::Jmp(to);
    }

    fn emit(&mut self, ast: &Ast) -> Result<(), Error> {
        match ast {
            Ast::Empty => Ok(()),
            Ast::Literal(b) => {
                self.push(Inst::Byte(*b))?;
                Ok(())
            }
            Ast::Class(set) => {
                // Single-byte classes compile to a plain byte test.
                if let Some(b) = set.as_single_byte() {
                    self.push(Inst::Byte(b))?;
                } else {
                    let idx = self.prog.intern_class(set.clone());
                    self.push(Inst::Class(idx))?;
                }
                Ok(())
            }
            Ast::Dot { matches_newline } => {
                self.push(if *matches_newline {
                    Inst::Any
                } else {
                    Inst::AnyNoNewline
                })?;
                Ok(())
            }
            Ast::StartText => {
                self.push(Inst::StartText)?;
                Ok(())
            }
            Ast::EndText => {
                self.push(Inst::EndText)?;
                Ok(())
            }
            Ast::WordBoundary => {
                self.push(Inst::WordBoundary)?;
                Ok(())
            }
            Ast::NotWordBoundary => {
                self.push(Inst::NotWordBoundary)?;
                Ok(())
            }
            Ast::Group(inner) => self.emit(inner),
            Ast::Concat(parts) => {
                for part in parts {
                    self.emit(part)?;
                }
                Ok(())
            }
            Ast::Alternate(branches) => self.emit_alternate(branches),
            Ast::Repeat {
                ast,
                min,
                max,
                greedy,
            } => self.emit_repeat(ast, *min, *max, *greedy),
        }
    }

    fn emit_alternate(&mut self, branches: &[Ast]) -> Result<(), Error> {
        // For branches b1 | b2 | ... | bn:
        //   split L1, S2; L1: b1; jmp END; S2: split L2, S3; ...
        let mut jumps_to_end = Vec::new();
        let mut pending_split: Option<u32> = None;
        for (i, branch) in branches.iter().enumerate() {
            let is_last = i + 1 == branches.len();
            if let Some(split_at) = pending_split.take() {
                let here = self.pc();
                // The second arm of the previous split starts here.
                if let Inst::Split(first, _) = self.prog.insts[split_at as usize] {
                    self.patch_split(split_at, first, here);
                }
            }
            if !is_last {
                let split_at = self.push(Inst::Split(0, 0))?;
                let branch_start = self.pc();
                self.patch_split(split_at, branch_start, 0);
                self.emit(branch)?;
                let jmp_at = self.push(Inst::Jmp(0))?;
                jumps_to_end.push(jmp_at);
                pending_split = Some(split_at);
            } else {
                self.emit(branch)?;
            }
        }
        let end = self.pc();
        for j in jumps_to_end {
            self.patch_jmp(j, end);
        }
        Ok(())
    }

    fn emit_repeat(
        &mut self,
        ast: &Ast,
        min: u32,
        max: Option<u32>,
        greedy: bool,
    ) -> Result<(), Error> {
        // Mandatory prefix: `min` copies in sequence.
        for _ in 0..min {
            self.emit(ast)?;
        }
        match max {
            None => {
                // Unbounded tail: `(ast+)?`, i.e. ENTER: split BODY, END
                // (swapped when lazy); BODY: ast; AGAIN: split BODY, END.
                // After an iteration that consumed nothing, BODY is
                // already in this position's closure, so the back edge is
                // cut and the thread leaves the loop at the iteration's
                // own priority: an empty iteration ends its loop.
                let enter = self.push(Inst::Split(0, 0))?;
                let body = self.pc();
                self.emit(ast)?;
                let again = self.push(Inst::Split(0, 0))?;
                let end = self.pc();
                for at in [enter, again] {
                    if greedy {
                        self.patch_split(at, body, end);
                    } else {
                        self.patch_split(at, end, body);
                    }
                }
            }
            Some(max) => {
                // Bounded tail: (max - min) optional copies, nested so
                // that bailing out of copy k skips copies k+1..
                let mut splits = Vec::new();
                for _ in min..max {
                    let split_at = self.push(Inst::Split(0, 0))?;
                    let body = self.pc();
                    self.emit(ast)?;
                    splits.push((split_at, body));
                }
                let end = self.pc();
                for (split_at, body) in splits {
                    if greedy {
                        self.patch_split(split_at, body, end);
                    } else {
                        self.patch_split(split_at, end, body);
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, Flags};

    fn compiled(pat: &str) -> Program {
        let ast = parse(pat, Flags::default()).expect("parse");
        compile(&ast, DEFAULT_SIZE_LIMIT).expect("compile")
    }

    #[test]
    fn literal_program_shape() {
        let p = compiled("ab");
        assert_eq!(
            p.insts,
            vec![Inst::Byte(b'a'), Inst::Byte(b'b'), Inst::Match]
        );
    }

    #[test]
    fn star_is_a_loop() {
        let p = compiled("a*");
        assert!(matches!(p.insts[0], Inst::Split(1, 3)));
        assert!(matches!(p.insts[2], Inst::Split(1, 3)));
    }

    #[test]
    fn lazy_star_swaps_priority() {
        let p = compiled("a*?");
        assert!(matches!(p.insts[0], Inst::Split(3, 1)));
        assert!(matches!(p.insts[2], Inst::Split(3, 1)));
    }

    #[test]
    fn counted_repetition_expands() {
        let p = compiled("a{3}");
        assert_eq!(
            p.insts,
            vec![
                Inst::Byte(b'a'),
                Inst::Byte(b'a'),
                Inst::Byte(b'a'),
                Inst::Match
            ]
        );
    }

    #[test]
    fn size_limit_enforced() {
        let ast = parse("a{1000}", Flags::default()).expect("parse");
        assert!(compile(&ast, 100).is_err());
    }

    #[test]
    fn single_byte_class_becomes_byte() {
        let p = compiled("[a]");
        assert_eq!(p.insts[0], Inst::Byte(b'a'));
        assert!(p.classes.is_empty());
    }

    #[test]
    fn alternation_split_targets_are_valid() {
        let p = compiled("ab|cd|ef");
        for inst in &p.insts {
            match inst {
                Inst::Split(a, b) => {
                    assert!((*a as usize) < p.len() && (*b as usize) < p.len());
                }
                Inst::Jmp(t) => assert!((*t as usize) < p.len()),
                _ => {}
            }
        }
    }
}

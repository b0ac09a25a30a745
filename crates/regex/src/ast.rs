//! Abstract syntax tree for the pattern language.
//!
//! The grammar is the pragmatic subset of PCRE used by IDS signatures:
//! literals, character classes, `.`, alternation, non-capturing and
//! capturing groups, greedy and lazy quantifiers (`*`, `+`, `?`,
//! `{m}`, `{m,}`, `{m,n}`), the `^`/`$` text anchors, and the inline
//! flags `i` (ASCII case insensitivity) and `s` (`.` matches `\n`).

use crate::classes::ClassSet;

/// A parsed regular expression node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ast {
    /// Matches the empty string.
    Empty,
    /// Matches one exact byte.
    Literal(u8),
    /// Matches one byte inside (or outside, if negated at parse time)
    /// a set of byte ranges.
    Class(ClassSet),
    /// `.` — any byte; whether `\n` is included is recorded so the
    /// compiler does not need to consult parse-time flags.
    Dot {
        /// True when the enclosing context had the `s` flag set.
        matches_newline: bool,
    },
    /// A sequence of sub-expressions matched one after another.
    Concat(Vec<Ast>),
    /// Ordered alternation; earlier branches are preferred.
    Alternate(Vec<Ast>),
    /// A bounded or unbounded repetition of a sub-expression.
    Repeat {
        /// The repeated sub-expression.
        ast: Box<Ast>,
        /// Minimum number of repetitions.
        min: u32,
        /// Maximum number of repetitions; `None` means unbounded.
        max: Option<u32>,
        /// Greedy repetitions prefer more iterations, lazy ones fewer.
        greedy: bool,
    },
    /// A group. Capture indices are parsed and preserved for
    /// diagnostics, but this engine reports whole-match spans only.
    Group(Box<Ast>),
    /// `^` — start of the haystack.
    StartText,
    /// `$` — end of the haystack.
    EndText,
    /// `\b` — a word/non-word boundary.
    WordBoundary,
    /// `\B` — the complement of `\b`.
    NotWordBoundary,
}

impl Ast {
    /// Returns true when the node can match the empty string.
    pub fn is_nullable(&self) -> bool {
        match self {
            Ast::Empty
            | Ast::StartText
            | Ast::EndText
            | Ast::WordBoundary
            | Ast::NotWordBoundary => true,
            Ast::Literal(_) | Ast::Class(_) | Ast::Dot { .. } => false,
            Ast::Concat(parts) => parts.iter().all(Ast::is_nullable),
            Ast::Alternate(parts) => parts.iter().any(Ast::is_nullable),
            Ast::Repeat { ast, min, .. } => *min == 0 || ast.is_nullable(),
            Ast::Group(inner) => inner.is_nullable(),
        }
    }

    /// The width in bytes shared by every match, or `None` when
    /// matches of different widths exist. Assertions and the empty
    /// string are zero wide; an alternation is fixed when its branches
    /// agree, a repetition when its count is or its body is zero wide.
    pub fn fixed_width(&self) -> Option<usize> {
        match self {
            Ast::Empty
            | Ast::StartText
            | Ast::EndText
            | Ast::WordBoundary
            | Ast::NotWordBoundary => Some(0),
            Ast::Literal(_) | Ast::Class(_) | Ast::Dot { .. } => Some(1),
            Ast::Concat(parts) => parts.iter().map(Ast::fixed_width).sum(),
            Ast::Alternate(parts) => {
                let first = parts.first().map_or(Some(0), Ast::fixed_width)?;
                parts
                    .iter()
                    .all(|p| p.fixed_width() == Some(first))
                    .then_some(first)
            }
            Ast::Repeat { ast, min, max, .. } => match ast.fixed_width()? {
                0 => Some(0),
                w if *max == Some(*min) => w.checked_mul(*min as usize),
                _ => None,
            },
            Ast::Group(inner) => inner.fixed_width(),
        }
    }

    /// A rough node count used to enforce compiled-size limits before
    /// repetition expansion blows a pattern up.
    pub fn weight(&self) -> usize {
        match self {
            Ast::Empty | Ast::Literal(_) | Ast::Class(_) | Ast::Dot { .. } => 1,
            Ast::StartText | Ast::EndText | Ast::WordBoundary | Ast::NotWordBoundary => 1,
            Ast::Concat(parts) | Ast::Alternate(parts) => {
                1 + parts.iter().map(Ast::weight).sum::<usize>()
            }
            Ast::Repeat { ast, max, min, .. } => {
                let reps = max.unwrap_or(*min + 1).max(1) as usize;
                1 + ast.weight().saturating_mul(reps)
            }
            Ast::Group(inner) => 1 + inner.weight(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nullability_of_leaves() {
        assert!(Ast::Empty.is_nullable());
        assert!(Ast::StartText.is_nullable());
        assert!(!Ast::Literal(b'a').is_nullable());
        assert!(!Ast::Dot {
            matches_newline: true
        }
        .is_nullable());
    }

    #[test]
    fn nullability_of_repeat() {
        let star = Ast::Repeat {
            ast: Box::new(Ast::Literal(b'a')),
            min: 0,
            max: None,
            greedy: true,
        };
        assert!(star.is_nullable());
        let plus = Ast::Repeat {
            ast: Box::new(Ast::Literal(b'a')),
            min: 1,
            max: None,
            greedy: true,
        };
        assert!(!plus.is_nullable());
    }

    #[test]
    fn nullability_of_composites() {
        let cat = Ast::Concat(vec![Ast::Empty, Ast::Literal(b'x')]);
        assert!(!cat.is_nullable());
        let alt = Ast::Alternate(vec![Ast::Literal(b'x'), Ast::Empty]);
        assert!(alt.is_nullable());
    }

    #[test]
    fn fixed_width_table() {
        let flags = crate::parser::Flags {
            case_insensitive: true,
            dot_matches_newline: false,
        };
        let cases: &[(&str, Option<usize>)] = &[
            (r"\bselect\b", Some(6)),
            (r"(ab|cd)", Some(2)),
            (r"a{3}", Some(3)),
            (r"--$", Some(2)),
            (r"[a-z]\d", Some(2)),
            (r"(ab|c)", None),
            (r"a{2,3}", None),
            (r"a*", None),
        ];
        for &(pat, want) in cases {
            let ast = crate::parser::parse(pat, flags).expect("parses");
            assert_eq!(ast.fixed_width(), want, "{pat:?}");
        }
    }

    #[test]
    fn weight_grows_with_repetition() {
        let lit = Ast::Literal(b'a');
        let rep = Ast::Repeat {
            ast: Box::new(lit.clone()),
            min: 10,
            max: Some(100),
            greedy: true,
        };
        assert!(rep.weight() > lit.weight() * 50);
    }
}

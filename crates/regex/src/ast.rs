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
    /// matches of different widths exist: [`Ast::min_width`] when it
    /// equals [`Ast::max_width`].
    pub fn fixed_width(&self) -> Option<usize> {
        let min = self.min_width();
        (self.max_width() == Some(min)).then_some(min)
    }

    /// A lower bound on the width in bytes of every match: assertions
    /// and the empty string are zero wide, an alternation is as narrow
    /// as its narrowest branch, a repetition its body times its least
    /// count. It is 0 exactly when the node is nullable.
    pub fn min_width(&self) -> usize {
        match self {
            Ast::Empty
            | Ast::StartText
            | Ast::EndText
            | Ast::WordBoundary
            | Ast::NotWordBoundary => 0,
            Ast::Literal(_) | Ast::Class(_) | Ast::Dot { .. } => 1,
            Ast::Concat(parts) => parts.iter().map(Ast::min_width).sum(),
            Ast::Alternate(parts) => parts.iter().map(Ast::min_width).min().unwrap_or(0),
            Ast::Repeat { ast, min, .. } => ast.min_width().saturating_mul(*min as usize),
            Ast::Group(inner) => inner.min_width(),
        }
    }

    /// An upper bound on the width in bytes of every match, `None`
    /// when matches can be arbitrarily wide: an alternation is as wide
    /// as its widest branch, a repetition its body times its greatest
    /// count, and an unbounded repetition of a zero-wide body is zero
    /// wide.
    pub fn max_width(&self) -> Option<usize> {
        match self {
            Ast::Empty
            | Ast::StartText
            | Ast::EndText
            | Ast::WordBoundary
            | Ast::NotWordBoundary => Some(0),
            Ast::Literal(_) | Ast::Class(_) | Ast::Dot { .. } => Some(1),
            Ast::Concat(parts) => parts
                .iter()
                .try_fold(0usize, |sum, p| sum.checked_add(p.max_width()?)),
            Ast::Alternate(parts) => parts
                .iter()
                .try_fold(0usize, |widest, p| Some(widest.max(p.max_width()?))),
            Ast::Repeat { ast, max, .. } => match (ast.max_width()?, max) {
                (0, _) => Some(0),
                (w, Some(max)) => w.checked_mul(*max as usize),
                (_, None) => None,
            },
            Ast::Group(inner) => inner.max_width(),
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

    /// `(pattern, min_width, max_width)`, parsed as the feature
    /// library is (case-insensitively).
    const WIDTHS: &[(&str, usize, Option<usize>)] = &[
        (r"\bselect\b", 6, Some(6)),
        (r"(ab|c)", 1, Some(2)),
        (r"(a|bcd|ef)", 1, Some(3)),
        (r"(abc|d|ef)", 1, Some(3)),
        (r"a{2,3}", 2, Some(3)),
        (r"(ab){2,3}", 4, Some(6)),
        (r"a{2,}", 2, None),
        (r"a*", 0, None),
        (r"a+b?", 1, None),
        (r"x(\s|\+|/\*.*?\*/)+y", 3, None),
        (r"ch(a)?r\s*?\(", 4, None),
        (r"(\b|^)*", 0, Some(0)),
        (r"--$", 2, Some(2)),
        (r"(and|or)\s\d{1,3}", 4, Some(7)),
    ];

    #[test]
    fn min_and_max_width_table() {
        let flags = crate::parser::Flags {
            case_insensitive: true,
            dot_matches_newline: false,
        };
        for &(pat, min, max) in WIDTHS {
            let ast = crate::parser::parse(pat, flags).expect("parses");
            assert_eq!((ast.min_width(), ast.max_width()), (min, max), "{pat:?}");
            assert_eq!(ast.min_width() == 0, ast.is_nullable(), "{pat:?}");
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

//! Recursive-descent parser from pattern text to [`Ast`].

use crate::ast::Ast;
use crate::classes::{perl_digit, perl_space, perl_word, ClassSet};
use crate::error::{Error, ErrorKind};

/// Parse-time flags, adjustable inline with `(?i)` / `(?s)` /
/// `(?i:...)` and their `-` negations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flags {
    /// ASCII case-insensitive matching.
    pub case_insensitive: bool,
    /// `.` also matches `\n`.
    pub dot_matches_newline: bool,
}

/// Parses `pattern` with the given starting flags.
pub fn parse(pattern: &str, flags: Flags) -> Result<Ast, Error> {
    let mut p = Parser {
        input: pattern.as_bytes(),
        pos: 0,
    };
    let ast = p.parse_alternate(flags, 0)?;
    if p.pos < p.input.len() {
        // The only way parse_alternate stops early is an unmatched `)`.
        return Err(Error::new(ErrorKind::UnbalancedCloseParen, p.pos));
    }
    Ok(ast)
}

struct Parser<'p> {
    input: &'p [u8],
    pos: usize,
}

impl<'p> Parser<'p> {
    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn err(&self, kind: ErrorKind) -> Error {
        Error::new(kind, self.pos)
    }

    /// alternation := concat (`|` concat)*
    ///
    /// A standalone flag setting such as `(?i)` inside one branch
    /// stays in effect for the following branches of the same group,
    /// matching PCRE semantics — so the flags are threaded through.
    fn parse_alternate(&mut self, flags: Flags, depth: usize) -> Result<Ast, Error> {
        let mut cur = flags;
        let mut branches = vec![self.parse_concat(&mut cur, depth)?];
        while self.peek() == Some(b'|') {
            self.bump();
            branches.push(self.parse_concat(&mut cur, depth)?);
        }
        if branches.len() == 1 {
            Ok(branches.pop().expect("one branch"))
        } else {
            Ok(Ast::Alternate(branches))
        }
    }

    /// concat := repeat*
    fn parse_concat(&mut self, flags: &mut Flags, depth: usize) -> Result<Ast, Error> {
        let mut parts: Vec<Ast> = Vec::new();
        loop {
            match self.peek() {
                None | Some(b'|') | Some(b')') => break,
                Some(b'*') | Some(b'+') | Some(b'?') => {
                    // A quantifier here means the previous atom is missing
                    // (start of concat) — quantifiers are otherwise consumed
                    // by parse_repeat.
                    return Err(self.err(ErrorKind::RepetitionMissingTarget));
                }
                _ => {}
            }
            // Inline flag settings like `(?i)` affect the rest of the
            // concatenation, so they are handled here.
            if let Some(new_flags) = self.try_parse_flag_setting(*flags) {
                *flags = new_flags;
                continue;
            }
            parts.push(self.parse_repeat(*flags, depth)?);
        }
        match parts.len() {
            0 => Ok(Ast::Empty),
            1 => Ok(parts.pop().expect("one part")),
            _ => Ok(Ast::Concat(parts)),
        }
    }

    /// If the input begins a standalone flag group `(?flags)`,
    /// consumes it and returns the updated flags.
    fn try_parse_flag_setting(&mut self, flags: Flags) -> Option<Flags> {
        if !self.input[self.pos..].starts_with(b"(?") {
            return None;
        }
        let save = self.pos;
        self.pos += 2;
        let mut new_flags = flags;
        if self.parse_flags(&mut new_flags) && self.peek() == Some(b')') {
            self.bump();
            return Some(new_flags);
        }
        // `(?:`, `(?i:` and unknown constructs are parse_group's; rewind.
        self.pos = save;
        None
    }

    /// Applies the inline flags after a `(?` — `i`, `s`, and one `-`
    /// negating the ones after it — up to, not including, the first
    /// other byte. Returns whether there were any.
    fn parse_flags(&mut self, flags: &mut Flags) -> bool {
        let (start, mut negate) = (self.pos, false);
        loop {
            match self.peek() {
                Some(b'i') => flags.case_insensitive = !negate,
                Some(b's') => flags.dot_matches_newline = !negate,
                Some(b'-') if !negate => negate = true,
                _ => return self.pos > start,
            }
            self.bump();
        }
    }

    /// repeat := atom quantifier?
    fn parse_repeat(&mut self, flags: Flags, depth: usize) -> Result<Ast, Error> {
        let atom = self.parse_atom(flags, depth)?;
        let (min, max) = match self.peek() {
            Some(b'*') => {
                self.bump();
                (0, None)
            }
            Some(b'+') => {
                self.bump();
                (1, None)
            }
            Some(b'?') => {
                self.bump();
                (0, Some(1))
            }
            Some(b'{') => match self.try_parse_counted()? {
                Some(bounds) => bounds,
                // `{` not followed by a valid counted repetition is a
                // literal `{`, already consumed by parse_atom? No — the
                // atom was parsed before `{`; leave `{` for the next atom.
                None => return Ok(atom),
            },
            _ => return Ok(atom),
        };
        if let Some(m) = max {
            if min > m {
                return Err(self.err(ErrorKind::InvalidRepetition));
            }
        }
        let greedy = if self.peek() == Some(b'?') {
            self.bump();
            false
        } else {
            true
        };
        if matches!(
            atom,
            Ast::StartText | Ast::EndText | Ast::WordBoundary | Ast::NotWordBoundary
        ) {
            return Err(self.err(ErrorKind::RepetitionMissingTarget));
        }
        Ok(Ast::Repeat {
            ast: Box::new(atom),
            min,
            max,
            greedy,
        })
    }

    /// Attempts `{m}`, `{m,}`, `{m,n}`. Returns `Ok(None)` and rewinds
    /// when the braces do not form a counted repetition (then `{` is a
    /// literal, as in PCRE).
    fn try_parse_counted(&mut self) -> Result<Option<(u32, Option<u32>)>, Error> {
        let save = self.pos;
        debug_assert_eq!(self.peek(), Some(b'{'));
        self.bump();
        let min = match self.parse_decimal() {
            Some(n) => n,
            None => {
                self.pos = save;
                return Ok(None);
            }
        };
        match self.peek() {
            Some(b'}') => {
                self.bump();
                Ok(Some((min, Some(min))))
            }
            Some(b',') => {
                self.bump();
                let max = self.parse_decimal();
                if self.peek() == Some(b'}') {
                    self.bump();
                    Ok(Some((min, max)))
                } else {
                    self.pos = save;
                    Ok(None)
                }
            }
            _ => {
                self.pos = save;
                Ok(None)
            }
        }
    }

    fn parse_decimal(&mut self) -> Option<u32> {
        let start = self.pos;
        let mut value: u32 = 0;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            self.bump();
            value = value.saturating_mul(10).saturating_add((b - b'0') as u32);
        }
        if self.pos == start {
            None
        } else {
            Some(value.min(u32::MAX / 2))
        }
    }

    /// atom := group | class | `.` | `^` | `$` | escape | literal
    fn parse_atom(&mut self, flags: Flags, depth: usize) -> Result<Ast, Error> {
        if depth > 250 {
            // Defence against stack exhaustion on adversarial patterns.
            return Err(self.err(ErrorKind::ProgramTooBig {
                estimated: usize::MAX,
                limit: 250,
            }));
        }
        match self.bump() {
            None => Err(self.err(ErrorKind::UnexpectedEof)),
            Some(b'(') => self.parse_group(flags, depth),
            Some(b'[') => {
                let set = self.parse_class(flags)?;
                Ok(Ast::Class(set))
            }
            Some(b'.') => Ok(Ast::Dot {
                matches_newline: flags.dot_matches_newline,
            }),
            Some(b'^') => Ok(Ast::StartText),
            Some(b'$') => Ok(Ast::EndText),
            Some(b'\\') => self.parse_escape(flags),
            Some(b) => Ok(self.literal(b, flags)),
        }
    }

    fn literal(&self, b: u8, flags: Flags) -> Ast {
        if flags.case_insensitive && b.is_ascii_alphabetic() {
            let mut set = ClassSet::single(b);
            set.case_fold();
            Ast::Class(set)
        } else {
            Ast::Literal(b)
        }
    }

    fn parse_group(&mut self, mut flags: Flags, depth: usize) -> Result<Ast, Error> {
        if self.peek() == Some(b'?') {
            self.bump();
            self.parse_flags(&mut flags);
            match self.peek() {
                Some(b':') => {}
                Some(c) => return Err(self.err(ErrorKind::UnknownFlag(c as char))),
                None => return Err(self.err(ErrorKind::UnexpectedEof)),
            }
            self.bump();
        }
        let inner = self.parse_alternate(flags, depth + 1)?;
        if self.bump() != Some(b')') {
            return Err(self.err(ErrorKind::UnbalancedOpenParen));
        }
        Ok(Ast::Group(Box::new(inner)))
    }

    /// Escapes outside character classes: the class escapes plus the
    /// `\b`/`\B` assertions, a letter byte case-folded under `i`.
    fn parse_escape(&mut self, flags: Flags) -> Result<Ast, Error> {
        let assertion = match self.peek() {
            Some(b'b') => Ast::WordBoundary,
            Some(b'B') => Ast::NotWordBoundary,
            _ => {
                return Ok(match self.escape(ErrorKind::UnexpectedEof)? {
                    ClassItem::Byte(b) => self.literal(b, flags),
                    ClassItem::Set(set) => Ast::Class(set),
                })
            }
        };
        self.bump();
        Ok(assertion)
    }

    fn parse_hex_byte(&mut self) -> Result<u8, Error> {
        let hi = self
            .bump()
            .and_then(hex_value)
            .ok_or_else(|| self.err(ErrorKind::InvalidHexEscape))?;
        let lo = self
            .bump()
            .and_then(hex_value)
            .ok_or_else(|| self.err(ErrorKind::InvalidHexEscape))?;
        Ok(hi * 16 + lo)
    }

    /// Parses a `[...]` class body; the opening `[` is consumed.
    fn parse_class(&mut self, flags: Flags) -> Result<ClassSet, Error> {
        let mut set = ClassSet::empty();
        let negated = if self.peek() == Some(b'^') {
            self.bump();
            true
        } else {
            false
        };
        let mut first = true;
        loop {
            let b = match self.bump() {
                None => return Err(self.err(ErrorKind::UnclosedClass)),
                Some(b']') if !first => break,
                Some(b) => b,
            };
            first = false;
            // An item is either a predefined class escape, or a byte
            // possibly followed by `-byte` forming a range.
            let lo = match b {
                b'\\' => match self.escape(ErrorKind::UnclosedClass)? {
                    ClassItem::Set(s) => {
                        set.union(&s);
                        continue;
                    }
                    ClassItem::Byte(v) => v,
                },
                _ => b,
            };
            if self.peek() == Some(b'-') && self.input.get(self.pos + 1) != Some(&b']') {
                self.bump(); // consume `-`
                let hi = match self.bump() {
                    None => return Err(self.err(ErrorKind::UnclosedClass)),
                    Some(b'\\') => match self.escape(ErrorKind::UnclosedClass)? {
                        ClassItem::Byte(v) => v,
                        ClassItem::Set(_) => return Err(self.err(ErrorKind::InvalidClassRange)),
                    },
                    Some(v) => v,
                };
                if lo > hi {
                    return Err(self.err(ErrorKind::InvalidClassRange));
                }
                set.push_range(lo, hi);
            } else {
                set.push_range(lo, lo);
            }
        }
        if set.is_empty() {
            return Err(self.err(ErrorKind::EmptyClass));
        }
        if flags.case_insensitive {
            set.case_fold();
        }
        if negated {
            set.negate();
        }
        Ok(set)
    }

    /// The escape after a `\` that means the same inside and outside a
    /// class: a Perl class, its negation, or one byte. `eof` is the
    /// error when the pattern ends instead.
    fn escape(&mut self, eof: ErrorKind) -> Result<ClassItem, Error> {
        let Some(b) = self.bump() else {
            return Err(self.err(eof));
        };
        let perl = match b.to_ascii_lowercase() {
            b'd' => Some(perl_digit()),
            b's' => Some(perl_space()),
            b'w' => Some(perl_word()),
            _ => None,
        };
        if let Some(mut set) = perl {
            if b.is_ascii_uppercase() {
                set.negate();
            }
            return Ok(ClassItem::Set(set));
        }
        let byte = match b {
            b'x' => self.parse_hex_byte()?,
            b'n' => b'\n',
            b'r' => b'\r',
            b't' => b'\t',
            b'f' => 0x0c,
            b'v' => 0x0b,
            b'0' => 0x00,
            b if !b.is_ascii_alphanumeric() => b,
            b => return Err(self.err(ErrorKind::InvalidEscape(b as char))),
        };
        Ok(ClassItem::Byte(byte))
    }
}

enum ClassItem {
    Byte(u8),
    Set(ClassSet),
}

fn hex_value(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ast {
        parse(s, Flags::default()).expect("parse")
    }

    #[test]
    fn literal_concat() {
        assert_eq!(
            p("ab"),
            Ast::Concat(vec![Ast::Literal(b'a'), Ast::Literal(b'b')])
        );
    }

    #[test]
    fn alternation_order_preserved() {
        match p("a|b|c") {
            Ast::Alternate(branches) => assert_eq!(branches.len(), 3),
            other => panic!("expected alternate, got {other:?}"),
        }
    }

    #[test]
    fn quantifiers() {
        match p("a+?") {
            Ast::Repeat {
                min, max, greedy, ..
            } => {
                assert_eq!((min, max, greedy), (1, None, false));
            }
            other => panic!("unexpected {other:?}"),
        }
        match p("a{2,5}") {
            Ast::Repeat {
                min, max, greedy, ..
            } => {
                assert_eq!((min, max, greedy), (2, Some(5), true));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn brace_without_bounds_is_literal() {
        assert_eq!(
            p("a{b"),
            Ast::Concat(vec![
                Ast::Literal(b'a'),
                Ast::Literal(b'{'),
                Ast::Literal(b'b')
            ])
        );
    }

    #[test]
    fn class_with_range_and_negation() {
        match p("[^a-z0]") {
            Ast::Class(set) => {
                assert!(!set.contains(b'm'));
                assert!(!set.contains(b'0'));
                assert!(set.contains(b'A'));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn class_leading_close_bracket_is_literal() {
        match p("[]a]") {
            Ast::Class(set) => {
                assert!(set.contains(b']') && set.contains(b'a'));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn inline_case_insensitive_group() {
        match p("(?i:abc)") {
            Ast::Group(inner) => match *inner {
                Ast::Concat(ref parts) => {
                    assert!(matches!(parts[0], Ast::Class(_)));
                }
                ref other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn standalone_flag_applies_to_rest() {
        // `(?i)` flips case sensitivity for the remainder of the branch.
        match p("a(?i)b") {
            Ast::Concat(parts) => {
                assert_eq!(parts[0], Ast::Literal(b'a'));
                assert!(matches!(parts[1], Ast::Class(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn perl_class_escapes() {
        match p(r"\s") {
            Ast::Class(set) => assert!(set.contains(b' ') && set.contains(b'\t')),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn hex_escape() {
        assert_eq!(p(r"\x41"), Ast::Literal(b'A'));
    }

    #[test]
    fn errors_are_reported() {
        use crate::error::ErrorKind::*;
        assert!(matches!(
            parse("(a", Flags::default()).unwrap_err().kind(),
            UnbalancedOpenParen
        ));
        assert!(matches!(
            parse("a)", Flags::default()).unwrap_err().kind(),
            UnbalancedCloseParen
        ));
        assert!(matches!(
            parse("[a", Flags::default()).unwrap_err().kind(),
            UnclosedClass
        ));
        assert!(matches!(
            parse("*a", Flags::default()).unwrap_err().kind(),
            RepetitionMissingTarget
        ));
        assert!(matches!(
            parse(r"\q", Flags::default()).unwrap_err().kind(),
            InvalidEscape('q')
        ));
        assert!(matches!(
            parse("a{5,2}", Flags::default()).unwrap_err().kind(),
            InvalidRepetition
        ));
    }

    #[test]
    fn escaped_metacharacters() {
        assert_eq!(
            p(r"\(\)"),
            Ast::Concat(vec![Ast::Literal(b'('), Ast::Literal(b')')])
        );
    }
}

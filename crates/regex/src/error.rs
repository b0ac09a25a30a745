//! Pattern compilation errors.

use std::fmt;

/// Why a pattern failed to compile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorKind {
    /// The pattern ended in the middle of a construct.
    UnexpectedEof,
    /// A `)` had no matching `(`.
    UnbalancedCloseParen,
    /// A `(` had no matching `)`.
    UnbalancedOpenParen,
    /// A `[` had no matching `]`.
    UnclosedClass,
    /// An empty character class `[]` or `[^]` matching nothing useful.
    EmptyClass,
    /// A class range such as `z-a` with reversed endpoints.
    InvalidClassRange,
    /// An unknown or unsupported escape sequence.
    InvalidEscape(char),
    /// `\x` not followed by two hex digits.
    InvalidHexEscape,
    /// A repetition like `{3,1}` or `{}` that cannot be satisfied.
    InvalidRepetition,
    /// A quantifier with nothing to repeat, e.g. a pattern starting
    /// with `*`.
    RepetitionMissingTarget,
    /// An unknown inline flag, e.g. `(?x)`.
    UnknownFlag(char),
    /// The compiled program would exceed the configured size limit.
    ProgramTooBig {
        /// Estimated number of instructions.
        estimated: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The pattern matches the empty string, which a counting
    /// automaton refuses (see [`crate::CountDfa::new`]).
    MatchesEmpty,
    /// The pattern's counting automaton would need more states than
    /// its limit allows (see [`crate::CountDfa::new`]).
    TooManyStates {
        /// The state limit.
        limit: usize,
    },
}

/// An error produced while parsing or compiling a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    kind: ErrorKind,
    /// Byte offset into the pattern where the problem was detected.
    position: usize,
}

impl Error {
    pub(crate) fn new(kind: ErrorKind, position: usize) -> Error {
        Error { kind, position }
    }

    /// The category of failure.
    pub fn kind(&self) -> &ErrorKind {
        &self.kind
    }

    /// Byte offset into the pattern where the problem was detected.
    pub fn position(&self) -> usize {
        self.position
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match &self.kind {
            ErrorKind::UnexpectedEof => "unexpected end of pattern".to_string(),
            ErrorKind::UnbalancedCloseParen => "unmatched `)`".to_string(),
            ErrorKind::UnbalancedOpenParen => "unmatched `(`".to_string(),
            ErrorKind::UnclosedClass => "unclosed character class".to_string(),
            ErrorKind::EmptyClass => "character class matches no byte".to_string(),
            ErrorKind::InvalidClassRange => "invalid character class range".to_string(),
            ErrorKind::InvalidEscape(c) => format!("invalid escape sequence `\\{c}`"),
            ErrorKind::InvalidHexEscape => "`\\x` must be followed by two hex digits".to_string(),
            ErrorKind::InvalidRepetition => "invalid repetition bounds".to_string(),
            ErrorKind::RepetitionMissingTarget => "quantifier has nothing to repeat".to_string(),
            ErrorKind::UnknownFlag(c) => format!("unknown inline flag `{c}`"),
            ErrorKind::ProgramTooBig { estimated, limit } => format!(
                "compiled program too big: estimated {estimated} instructions, limit {limit}"
            ),
            ErrorKind::MatchesEmpty => "pattern matches the empty string".to_string(),
            ErrorKind::TooManyStates { limit } => {
                format!("counting automaton needs more than {limit} states")
            }
        };
        write!(f, "{} at pattern offset {}", msg, self.position)
    }
}

impl std::error::Error for Error {}

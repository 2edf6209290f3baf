//! SPARQL tokenizer.

use std::fmt;

/// A lexical token with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub column: usize,
}

/// Token kinds for the supported SPARQL subset.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Bare identifier / keyword (`SELECT`, `WHERE`, `a`, …), original
    /// spelling preserved.
    Ident(String),
    /// `?name` or `$name`.
    Var(String),
    /// `<iri>`.
    Iri(String),
    /// `prefix:local` (either part may be empty).
    PrefixedName(String, String),
    /// String literal with optional language tag or datatype IRI
    /// (datatype may itself be a prefixed name, kept raw here).
    Literal {
        /// Unescaped lexical form.
        lexical: String,
        /// `@lang`, if present.
        lang: Option<String>,
        /// `^^<iri>` or `^^pfx:local`, kept as the raw token.
        datatype: Option<Box<TokenKind>>,
    },
    /// Unsigned integer literal.
    Integer(i64),
    /// Decimal literal, original text preserved.
    Decimal(String),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
    /// `,`
    Comma,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "`{s}`"),
            TokenKind::Var(v) => write!(f, "?{v}"),
            TokenKind::Iri(i) => write!(f, "<{i}>"),
            TokenKind::PrefixedName(p, l) => write!(f, "{p}:{l}"),
            TokenKind::Literal { lexical, .. } => write!(f, "\"{lexical}\""),
            TokenKind::Integer(n) => write!(f, "{n}"),
            TokenKind::Decimal(d) => write!(f, "{d}"),
            TokenKind::LBrace => write!(f, "{{"),
            TokenKind::RBrace => write!(f, "}}"),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::Dot => write!(f, "."),
            TokenKind::Semicolon => write!(f, ";"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Eq => write!(f, "="),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// Parse/lex error with source position.
#[derive(Debug, Clone, PartialEq)]
pub struct SparqlError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub column: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for SparqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SPARQL error at {}:{}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for SparqlError {}

pub(crate) struct Lexer<'a> {
    src: &'a str,
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    pub fn new(src: &'a str) -> Self {
        Self {
            src,
            chars: src.char_indices().peekable(),
            line: 1,
            col: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> SparqlError {
        SparqlError {
            line: self.line,
            column: self.col,
            message: message.into(),
        }
    }

    fn bump(&mut self) -> Option<(usize, char)> {
        let next = self.chars.next();
        if let Some((_, c)) = next {
            if c == '\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
        next
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().map(|&(_, c)| c)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('#') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn name(&mut self, allow_dot_inside: bool) -> String {
        let mut out = String::new();
        while let Some(c) = self.peek() {
            let ok = c.is_alphanumeric()
                || c == '_'
                || c == '-'
                || (allow_dot_inside && c == '.' && {
                    // A dot only stays in the name if followed by a name char
                    // (otherwise it terminates the triple).
                    let mut look = self.chars.clone();
                    look.next();
                    matches!(look.peek(), Some(&(_, n)) if n.is_alphanumeric() || n == '_')
                });
            if ok {
                out.push(c);
                self.bump();
            } else {
                break;
            }
        }
        out
    }

    fn string_literal(&mut self) -> Result<String, SparqlError> {
        // Opening quote consumed by caller.
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string literal")),
                Some((_, '"')) => return Ok(out),
                Some((_, '\\')) => match self.bump() {
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 'b')) => out.push('\u{8}'),
                    Some((_, 'f')) => out.push('\u{C}'),
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\'')) => out.push('\''),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, 'u')) | Some((_, 'U')) => {
                        return Err(self.err("\\u escapes not supported in query literals"))
                    }
                    other => {
                        return Err(self.err(format!(
                            "bad escape \\{}",
                            other.map(|(_, c)| c).unwrap_or(' ')
                        )))
                    }
                },
                Some((_, c)) => out.push(c),
            }
        }
    }

    pub fn next_token(&mut self) -> Result<Token, SparqlError> {
        self.skip_trivia();
        let line = self.line;
        let column = self.col;
        let mk = |kind| Token { kind, line, column };
        let Some(c) = self.peek() else {
            return Ok(mk(TokenKind::Eof));
        };
        let kind = match c {
            '{' => {
                self.bump();
                TokenKind::LBrace
            }
            '}' => {
                self.bump();
                TokenKind::RBrace
            }
            '(' => {
                self.bump();
                TokenKind::LParen
            }
            ')' => {
                self.bump();
                TokenKind::RParen
            }
            ';' => {
                self.bump();
                TokenKind::Semicolon
            }
            ',' => {
                self.bump();
                TokenKind::Comma
            }
            '*' => {
                self.bump();
                TokenKind::Star
            }
            '=' => {
                self.bump();
                TokenKind::Eq
            }
            '.' => {
                self.bump();
                TokenKind::Dot
            }
            '?' | '$' => {
                self.bump();
                let name = self.name(false);
                if name.is_empty() {
                    return Err(self.err("empty variable name"));
                }
                TokenKind::Var(name)
            }
            '<' => {
                self.bump();
                let mut iri = String::new();
                loop {
                    match self.bump() {
                        None => return Err(self.err("unterminated IRI")),
                        Some((_, '>')) => break,
                        Some((_, c)) if c.is_whitespace() => {
                            return Err(self.err("whitespace inside IRI"))
                        }
                        Some((_, c)) => iri.push(c),
                    }
                }
                TokenKind::Iri(iri)
            }
            '"' => {
                self.bump();
                let lexical = self.string_literal()?;
                match self.peek() {
                    Some('@') => {
                        self.bump();
                        let lang = self.name(false);
                        if lang.is_empty() {
                            return Err(self.err("empty language tag"));
                        }
                        TokenKind::Literal {
                            lexical,
                            lang: Some(lang),
                            datatype: None,
                        }
                    }
                    Some('^') => {
                        self.bump();
                        if self.peek() != Some('^') {
                            return Err(self.err("expected ^^ after literal"));
                        }
                        self.bump();
                        let dt = self.next_token()?;
                        match dt.kind {
                            k @ (TokenKind::Iri(_) | TokenKind::PrefixedName(_, _)) => {
                                TokenKind::Literal {
                                    lexical,
                                    lang: None,
                                    datatype: Some(Box::new(k)),
                                }
                            }
                            other => {
                                return Err(self
                                    .err(format!("expected datatype IRI after ^^, found {other}")))
                            }
                        }
                    }
                    _ => TokenKind::Literal {
                        lexical,
                        lang: None,
                        datatype: None,
                    },
                }
            }
            c if c.is_ascii_digit() => {
                let start = self.chars.peek().map(|&(i, _)| i).unwrap_or(self.src.len());
                let mut end = start;
                let mut is_decimal = false;
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit() {
                        end += 1;
                        self.bump();
                    } else if c == '.' && !is_decimal {
                        // Only a decimal point if a digit follows.
                        let mut look = self.chars.clone();
                        look.next();
                        if matches!(look.peek(), Some(&(_, d)) if d.is_ascii_digit()) {
                            is_decimal = true;
                            end += 1;
                            self.bump();
                        } else {
                            break;
                        }
                    } else {
                        break;
                    }
                }
                let text = &self.src[start..end];
                if is_decimal {
                    TokenKind::Decimal(text.to_string())
                } else {
                    TokenKind::Integer(
                        text.parse()
                            .map_err(|_| self.err(format!("integer overflow: {text}")))?,
                    )
                }
            }
            c if c.is_alphanumeric() || c == '_' => {
                let name = self.name(true);
                if self.peek() == Some(':') {
                    self.bump();
                    let local = self.name(true);
                    TokenKind::PrefixedName(name, local)
                } else {
                    TokenKind::Ident(name)
                }
            }
            ':' => {
                // Default-prefix name `:local`.
                self.bump();
                let local = self.name(true);
                TokenKind::PrefixedName(String::new(), local)
            }
            other => return Err(self.err(format!("unexpected character {other:?}"))),
        };
        Ok(mk(kind))
    }

    /// Tokenizes the whole input.
    pub fn tokenize(mut self) -> Result<Vec<Token>, SparqlError> {
        let mut out = Vec::new();
        loop {
            let t = self.next_token()?;
            let done = t.kind == TokenKind::Eof;
            out.push(t);
            if done {
                return Ok(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("SELECT ?x { } ."),
            vec![
                TokenKind::Ident("SELECT".into()),
                TokenKind::Var("x".into()),
                TokenKind::LBrace,
                TokenKind::RBrace,
                TokenKind::Dot,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn iris_and_prefixed_names() {
        assert_eq!(
            kinds("<http://e/x> ub:Professor :local"),
            vec![
                TokenKind::Iri("http://e/x".into()),
                TokenKind::PrefixedName("ub".into(), "Professor".into()),
                TokenKind::PrefixedName("".into(), "local".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn prefixed_name_with_dots() {
        // `ub:Dept0.Univ0` keeps interior dots; the final dot terminates.
        assert_eq!(
            kinds("ub:Dept0.University0 ."),
            vec![
                TokenKind::PrefixedName("ub".into(), "Dept0.University0".into()),
                TokenKind::Dot,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn literals() {
        assert_eq!(
            kinds(r#""plain" "fr"@fr "5"^^<http://dt> 42 3.25"#),
            vec![
                TokenKind::Literal {
                    lexical: "plain".into(),
                    lang: None,
                    datatype: None
                },
                TokenKind::Literal {
                    lexical: "fr".into(),
                    lang: Some("fr".into()),
                    datatype: None
                },
                TokenKind::Literal {
                    lexical: "5".into(),
                    lang: None,
                    datatype: Some(Box::new(TokenKind::Iri("http://dt".into())))
                },
                TokenKind::Integer(42),
                TokenKind::Decimal("3.25".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn escapes_in_literals() {
        assert_eq!(
            kinds(r#""a\"b\\c\nd""#),
            vec![
                TokenKind::Literal {
                    lexical: "a\"b\\c\nd".into(),
                    lang: None,
                    datatype: None
                },
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("?x # comment\n?y"),
            vec![
                TokenKind::Var("x".into()),
                TokenKind::Var("y".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn errors_carry_position() {
        let e = Lexer::new("?x\n  @").tokenize().unwrap_err();
        assert_eq!((e.line, e.column), (2, 3));
        assert!(Lexer::new("<http://unterminated").tokenize().is_err());
        assert!(Lexer::new("\"unterminated").tokenize().is_err());
        assert!(Lexer::new("? ").tokenize().is_err());
    }

    #[test]
    fn integer_then_dot_terminator() {
        // `42 .` vs `3.25`: the dot must not be eaten as a decimal point.
        assert_eq!(
            kinds("42."),
            vec![TokenKind::Integer(42), TokenKind::Dot, TokenKind::Eof]
        );
    }
}

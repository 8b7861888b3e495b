//! The SHRIMP RPC interface definition language.
//!
//! The specialized RPC system "is a real RPC system, with a stub
//! generator that reads an interface definition file and generates code
//! to marshal and unmarshal complex data types" (paper §5). This module
//! is that reader. The grammar:
//!
//! ```text
//! interface Calc {
//!     add(in a: i32, in b: i32, out sum: i32);
//!     scale(in factor: f64, inout v: array<f64, 16>);
//!     transform(inout data: opaque[256]);
//!     lookup(in key: opaque<32>, out found: bool, out val: opaque<64>);
//! }
//! ```
//!
//! Types: `i32`, `u32`, `f64`, `bool`, `opaque[N]` (fixed-size byte
//! blocks), `opaque<N>` (XDR's variable-length opaque: any length up to
//! `N` bytes, and only those bytes travel), and `array<T, N>` of scalar
//! `T`.

use std::fmt;

/// Parameter direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Client → server only.
    In,
    /// Server → client only (propagated in the background by automatic
    /// update as the procedure writes it).
    Out,
    /// Both directions; passed to the procedure by reference.
    InOut,
}

impl Dir {
    /// True if the client sends this parameter.
    pub fn is_in(self) -> bool {
        matches!(self, Dir::In | Dir::InOut)
    }

    /// True if the server returns this parameter.
    pub fn is_out(self) -> bool {
        matches!(self, Dir::Out | Dir::InOut)
    }
}

/// A parameter's wire type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// Signed 32-bit integer.
    I32,
    /// Unsigned 32-bit integer.
    U32,
    /// IEEE double.
    F64,
    /// Boolean (one word on the wire).
    Bool,
    /// Fixed-size opaque bytes.
    Opaque(usize),
    /// Variable-length opaque bytes, at most this many. On the wire: the
    /// bytes, zero-padded to a word, then one `u32` length word — length
    /// last, so a receiver walking back from the flag meets it first.
    VarOpaque(usize),
    /// Fixed-size array of doubles.
    F64Array(usize),
    /// Fixed-size array of 32-bit integers.
    I32Array(usize),
}

impl Ty {
    /// Bytes this type occupies on the wire (padded to whole words); at
    /// most this many for an `opaque<N>`.
    pub fn wire_bytes(self) -> usize {
        match self {
            Ty::I32 | Ty::U32 | Ty::Bool => 4,
            Ty::F64 => 8,
            Ty::Opaque(n) => n.div_ceil(4) * 4,
            Ty::VarOpaque(n) => n.div_ceil(4) * 4 + 4,
            Ty::F64Array(n) => 8 * n,
            Ty::I32Array(n) => 4 * n,
        }
    }

    /// True for `opaque<N>`, whose wire size depends on the value.
    pub fn is_var(self) -> bool {
        matches!(self, Ty::VarOpaque(_))
    }
}

/// One declared parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Direction.
    pub dir: Dir,
    /// Wire type.
    pub ty: Ty,
}

/// One declared procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcDef {
    /// Procedure name.
    pub name: String,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
}

/// A parsed interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interface {
    /// Interface name.
    pub name: String,
    /// Procedures in declaration order (the wire procedure index).
    pub procs: Vec<ProcDef>,
}

impl Interface {
    /// Find a procedure's index by name.
    pub fn proc_index(&self, name: &str) -> Option<usize> {
        self.procs.iter().position(|p| p.name == name)
    }
}

/// A parse failure, with a human-readable location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the source.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "idl parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Number(usize),
    Punct(char),
    Eof,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer { src, pos: 0 }
    }

    fn skip_ws(&mut self) {
        loop {
            let rest = &self.src[self.pos..];
            let trimmed = rest.trim_start();
            self.pos += rest.len() - trimmed.len();
            // Line comments.
            if trimmed.starts_with("//") {
                match trimmed.find('\n') {
                    Some(nl) => self.pos += nl + 1,
                    None => self.pos = self.src.len(),
                }
            } else {
                return;
            }
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            at: self.pos,
        }
    }

    fn next(&mut self) -> Result<Tok, ParseError> {
        self.skip_ws();
        let rest = &self.src[self.pos..];
        let mut chars = rest.chars();
        let Some(c) = chars.next() else {
            return Ok(Tok::Eof);
        };
        if c.is_ascii_alphabetic() || c == '_' {
            let end = rest
                .find(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '_'))
                .unwrap_or(rest.len());
            let ident = rest[..end].to_string();
            self.pos += end;
            Ok(Tok::Ident(ident))
        } else if c.is_ascii_digit() {
            let end = rest
                .find(|ch: char| !ch.is_ascii_digit())
                .unwrap_or(rest.len());
            let n = rest[..end]
                .parse::<usize>()
                .map_err(|_| self.err("number out of range"))?;
            self.pos += end;
            Ok(Tok::Number(n))
        } else if "{}()[]<>,;:".contains(c) {
            self.pos += c.len_utf8();
            Ok(Tok::Punct(c))
        } else {
            Err(self.err(format!("unexpected character {c:?}")))
        }
    }

    fn expect_punct(&mut self, want: char) -> Result<(), ParseError> {
        match self.next()? {
            Tok::Punct(c) if c == want => Ok(()),
            other => Err(self.err(format!("expected {want:?}, found {other:?}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_number(&mut self) -> Result<usize, ParseError> {
        match self.next()? {
            Tok::Number(n) => Ok(n),
            other => Err(self.err(format!("expected number, found {other:?}"))),
        }
    }

    fn peek(&mut self) -> Result<Tok, ParseError> {
        let save = self.pos;
        let t = self.next()?;
        self.pos = save;
        Ok(t)
    }
}

/// Parse an interface definition.
///
/// # Errors
///
/// [`ParseError`] with the failing byte offset.
///
/// # Examples
///
/// ```
/// let iface = shrimp_srpc::parse_interface(
///     "interface Null { ping(inout data: opaque[4]); }",
/// ).unwrap();
/// assert_eq!(iface.name, "Null");
/// assert_eq!(iface.procs.len(), 1);
/// ```
pub fn parse_interface(src: &str) -> Result<Interface, ParseError> {
    let mut lex = Lexer::new(src);
    match lex.next()? {
        Tok::Ident(kw) if kw == "interface" => {}
        other => return Err(lex.err(format!("expected 'interface', found {other:?}"))),
    }
    let name = lex.expect_ident()?;
    lex.expect_punct('{')?;
    let mut procs = Vec::new();
    loop {
        match lex.peek()? {
            Tok::Punct('}') => {
                lex.next()?;
                break;
            }
            Tok::Eof => return Err(lex.err("unexpected end of input inside interface")),
            _ => procs.push(parse_proc(&mut lex)?),
        }
    }
    if procs.is_empty() {
        return Err(lex.err("interface declares no procedures"));
    }
    if procs.len() > 255 {
        return Err(lex.err("at most 255 procedures per interface"));
    }
    Ok(Interface { name, procs })
}

fn parse_proc(lex: &mut Lexer<'_>) -> Result<ProcDef, ParseError> {
    let name = lex.expect_ident()?;
    lex.expect_punct('(')?;
    let mut params = Vec::new();
    if lex.peek()? == Tok::Punct(')') {
        lex.next()?;
    } else {
        loop {
            params.push(parse_param(lex)?);
            match lex.next()? {
                Tok::Punct(',') => continue,
                Tok::Punct(')') => break,
                other => return Err(lex.err(format!("expected ',' or ')', found {other:?}"))),
            }
        }
    }
    lex.expect_punct(';')?;
    let mut seen = std::collections::HashSet::new();
    for p in &params {
        if !seen.insert(p.name.clone()) {
            return Err(lex.err(format!("duplicate parameter name '{}'", p.name)));
        }
    }
    Ok(ProcDef { name, params })
}

fn parse_param(lex: &mut Lexer<'_>) -> Result<Param, ParseError> {
    let dir = match lex.expect_ident()?.as_str() {
        "in" => Dir::In,
        "out" => Dir::Out,
        "inout" => Dir::InOut,
        other => return Err(lex.err(format!("expected in/out/inout, found '{other}'"))),
    };
    let name = lex.expect_ident()?;
    lex.expect_punct(':')?;
    let ty = parse_ty(lex)?;
    Ok(Param { name, dir, ty })
}

fn parse_ty(lex: &mut Lexer<'_>) -> Result<Ty, ParseError> {
    let base = lex.expect_ident()?;
    match base.as_str() {
        "i32" => Ok(Ty::I32),
        "u32" => Ok(Ty::U32),
        "f64" => Ok(Ty::F64),
        "bool" => Ok(Ty::Bool),
        "opaque" => {
            // `opaque[N]` is fixed-size, `opaque<N>` variable-length.
            let var = match lex.next()? {
                Tok::Punct('[') => false,
                Tok::Punct('<') => true,
                other => return Err(lex.err(format!("expected '[' or '<', found {other:?}"))),
            };
            let n = lex.expect_number()?;
            lex.expect_punct(if var { '>' } else { ']' })?;
            if n == 0 {
                return Err(lex.err("opaque size must be positive"));
            }
            Ok(if var { Ty::VarOpaque(n) } else { Ty::Opaque(n) })
        }
        "array" => {
            lex.expect_punct('<')?;
            let elem = lex.expect_ident()?;
            lex.expect_punct(',')?;
            let n = lex.expect_number()?;
            lex.expect_punct('>')?;
            if n == 0 {
                return Err(lex.err("array length must be positive"));
            }
            match elem.as_str() {
                "f64" => Ok(Ty::F64Array(n)),
                "i32" => Ok(Ty::I32Array(n)),
                other => Err(lex.err(format!("unsupported array element type '{other}'"))),
            }
        }
        other => Err(lex.err(format!("unknown type '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CALC: &str = r"
        // A toy calculator service.
        interface Calc {
            add(in a: i32, in b: i32, out sum: i32);
            scale(in factor: f64, inout v: array<f64, 16>);
            transform(inout data: opaque[256]);
            nop();
            lookup(in key: opaque<32>, out val: opaque<5>);
        }
    ";

    #[test]
    fn parses_full_interface() {
        let iface = parse_interface(CALC).unwrap();
        assert_eq!(iface.name, "Calc");
        assert_eq!(iface.procs.len(), 5);
        assert_eq!(iface.proc_index("scale"), Some(1));
        let add = &iface.procs[0];
        assert_eq!(add.params.len(), 3);
        assert_eq!(
            add.params[2],
            Param {
                name: "sum".into(),
                dir: Dir::Out,
                ty: Ty::I32
            }
        );
        let scale = &iface.procs[1];
        assert_eq!(scale.params[1].ty, Ty::F64Array(16));
        assert_eq!(iface.procs[3].params.len(), 0);
        let lookup = &iface.procs[4];
        assert_eq!(lookup.params[0].ty, Ty::VarOpaque(32));
        assert_eq!(lookup.params[1].ty, Ty::VarOpaque(5));
        assert!(lookup.params[1].ty.is_var() && !Ty::Opaque(5).is_var());
    }

    #[test]
    fn wire_bytes_are_word_padded() {
        assert_eq!(Ty::I32.wire_bytes(), 4);
        assert_eq!(Ty::F64.wire_bytes(), 8);
        assert_eq!(Ty::Opaque(5).wire_bytes(), 8);
        assert_eq!(Ty::Opaque(8).wire_bytes(), 8);
        assert_eq!(Ty::F64Array(3).wire_bytes(), 24);
        assert_eq!(Ty::I32Array(3).wire_bytes(), 12);
        // At most: the padded bytes and the length word.
        assert_eq!(Ty::VarOpaque(5).wire_bytes(), 12);
        assert_eq!(Ty::VarOpaque(64).wire_bytes(), 68);
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(parse_interface("interface X { }").is_err()); // no procs
        assert!(parse_interface("iface X { f(); }").is_err()); // bad keyword
        assert!(parse_interface("interface X { f(in a b: i32); }").is_err());
        assert!(parse_interface("interface X { f(in a: opaque[0]); }").is_err());
        assert!(parse_interface("interface X { f(in a: opaque<0>); }").is_err());
        assert!(parse_interface("interface X { f(in a: opaque<4]); }").is_err());
        assert!(parse_interface("interface X { f(in a: opaque(4)); }").is_err());
        assert!(parse_interface("interface X { f(in a: array<bool, 4>); }").is_err());
        assert!(parse_interface("interface X { f(sideways a: i32); }").is_err());
        assert!(parse_interface("interface X { f(in a: i32, in a: i32); }").is_err());
        assert!(parse_interface("interface X { f(in a: i32)").is_err()); // truncated
    }

    #[test]
    fn comments_are_skipped() {
        let iface = parse_interface("interface C { // hi\n f(); // there\n }").unwrap();
        assert_eq!(iface.procs.len(), 1);
    }

    #[test]
    fn dir_predicates() {
        assert!(Dir::In.is_in() && !Dir::In.is_out());
        assert!(!Dir::Out.is_in() && Dir::Out.is_out());
        assert!(Dir::InOut.is_in() && Dir::InOut.is_out());
    }
}

//! xRSL — the extended Globus Resource Specification Language subset used
//! by NorduGrid/ARC job descriptions (§3).
//!
//! The paper maps xRSL attributes onto the Tycoon market: `cpuTime` /
//! `wallTime` → the bid deadline, the transfer token → the total budget,
//! and `count` → the number of concurrent virtual machines. This module
//! provides a real parser for the subset the experiments need, plus a
//! printer, e.g.:
//!
//! ```text
//! &(executable="blast_scan.sh")
//!  (jobName="proteome-chunk-search")
//!  (count=15)
//!  (cpuTime="330 minutes")
//!  (runTimeEnvironment="APPS/BIO/BLAST-2.2")
//!  (transferToken="0a1b…")
//! ```

use std::collections::BTreeMap;
use std::fmt;

/// A parsed attribute value: a string or a nested list (e.g. `inputFiles`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// A quoted string or bare word.
    Str(String),
    /// A parenthesized group of values.
    List(Vec<Value>),
}

impl Value {
    /// The string content, if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::List(_) => None,
        }
    }
}

/// A parsed xRSL document: ordered attribute → values multimap
/// (attribute names are case-insensitive, stored lowercase).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Xrsl {
    attrs: BTreeMap<String, Vec<Vec<Value>>>,
    order: Vec<String>,
}

/// Parse error with byte position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where the error was detected.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xRSL parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input: input.as_bytes(),
            pos: 0,
        }
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            position: self.pos,
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() {
            match self.input[self.pos] {
                b' ' | b'\t' | b'\r' | b'\n' => self.pos += 1,
                // xRSL comments: (* ... *)
                b'(' if self.input.get(self.pos + 1) == Some(&b'*') => {
                    self.pos += 2;
                    while self.pos + 1 < self.input.len()
                        && !(self.input[self.pos] == b'*' && self.input[self.pos + 1] == b')')
                    {
                        self.pos += 1;
                    }
                    self.pos = (self.pos + 2).min(self.input.len());
                }
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.error(format!(
                "expected '{}', found {:?}",
                b as char,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn parse_document(&mut self) -> Result<Xrsl, ParseError> {
        self.skip_ws();
        self.expect(b'&')?;
        let mut doc = Xrsl::default();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'(') => {
                    let (name, values) = self.parse_relation()?;
                    doc.push(&name, values);
                }
                None => break,
                Some(c) => return self.error(format!("unexpected character {:?}", c as char)),
            }
        }
        Ok(doc)
    }

    fn parse_relation(&mut self) -> Result<(String, Vec<Value>), ParseError> {
        self.expect(b'(')?;
        self.skip_ws();
        let name = self.parse_bareword()?;
        self.skip_ws();
        // Accept '=' (other xRSL operators are not used by the paper).
        self.expect(b'=')?;
        let mut values = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b')') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => values.push(self.parse_value()?),
                None => return self.error("unterminated relation"),
            }
        }
        if values.is_empty() {
            return self.error(format!("relation '{name}' has no value"));
        }
        Ok((name.to_ascii_lowercase(), values))
    }

    fn parse_value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'"') => self.parse_quoted().map(Value::Str),
            Some(b'(') => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    match self.peek() {
                        Some(b')') => {
                            self.pos += 1;
                            return Ok(Value::List(items));
                        }
                        Some(_) => items.push(self.parse_value()?),
                        None => return self.error("unterminated list"),
                    }
                }
            }
            Some(_) => self.parse_bareword().map(Value::Str),
            None => self.error("expected value"),
        }
    }

    fn parse_quoted(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    // xRSL escapes a quote by doubling it.
                    if self.peek() == Some(b'"') {
                        out.push('"');
                        self.pos += 1;
                    } else {
                        return Ok(out);
                    }
                }
                Some(c) => {
                    out.push(c as char);
                    self.pos += 1;
                }
                None => return self.error("unterminated string"),
            }
        }
    }

    fn parse_bareword(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b'/' | b':' | b'+') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return self.error("expected identifier");
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos])
            .expect("ascii")
            .to_owned())
    }
}

impl Xrsl {
    /// Parse an xRSL document.
    pub fn parse(input: &str) -> Result<Xrsl, ParseError> {
        Parser::new(input).parse_document()
    }

    fn push(&mut self, name: &str, values: Vec<Value>) {
        if !self.attrs.contains_key(name) {
            self.order.push(name.to_owned());
        }
        self.attrs.entry(name.to_owned()).or_default().push(values);
    }

    /// Set a single-string attribute (replacing previous occurrences).
    pub fn set_str(&mut self, name: &str, value: &str) {
        let name = name.to_ascii_lowercase();
        if !self.attrs.contains_key(&name) {
            self.order.push(name.clone());
        }
        self.attrs
            .insert(name, vec![vec![Value::Str(value.to_owned())]]);
    }

    /// First occurrence's first value as a string.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.attrs
            .get(&name.to_ascii_lowercase())
            .and_then(|occ| occ.first())
            .and_then(|vals| vals.first())
            .and_then(Value::as_str)
    }

    /// All occurrences of an attribute (each a value sequence).
    pub fn get_all(&self, name: &str) -> &[Vec<Value>] {
        self.attrs
            .get(&name.to_ascii_lowercase())
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Render back to xRSL text (one relation per line).
    pub fn to_text(&self) -> String {
        let mut out = String::from("&");
        for name in &self.order {
            for occurrence in &self.attrs[name] {
                out.push_str("\n(");
                out.push_str(name);
                out.push('=');
                for (i, v) in occurrence.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    render_value(v, &mut out);
                }
                out.push(')');
            }
        }
        out
    }
}

fn render_value(v: &Value, out: &mut String) {
    match v {
        Value::Str(s) => {
            out.push('"');
            out.push_str(&s.replace('"', "\"\""));
            out.push('"');
        }
        Value::List(items) => {
            out.push('(');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                render_value(item, out);
            }
            out.push(')');
        }
    }
}

/// Parse an xRSL duration: a plain number means **minutes** (the ARC
/// convention for `cpuTime`), or `"N seconds" / "N minutes" / "N hours" /
/// "N days"`.
pub fn parse_duration_secs(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Ok(mins) = s.parse::<u64>() {
        return mins.checked_mul(60);
    }
    let mut parts = s.split_whitespace();
    let n: f64 = parts.next()?.parse().ok()?;
    if n < 0.0 {
        return None;
    }
    let unit = parts.next()?.to_ascii_lowercase();
    if parts.next().is_some() {
        return None;
    }
    let mult = match unit.as_str() {
        "s" | "sec" | "secs" | "second" | "seconds" => 1.0,
        "m" | "min" | "mins" | "minute" | "minutes" => 60.0,
        "h" | "hour" | "hours" => 3600.0,
        "d" | "day" | "days" => 86_400.0,
        _ => return None,
    };
    Some((n * mult).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"&
        (executable="blast_scan.sh")
        (jobName="proteome-search")
        (count=15)
        (cpuTime="330 minutes")
        (runTimeEnvironment="APPS/BIO/BLAST-2.2")
        (inputFiles=("db.fasta" "gsiftp://se.example.org/db.fasta"))
        (transferToken="00ff10ab")
    "#;

    #[test]
    fn parses_sample_job() {
        let x = Xrsl::parse(SAMPLE).unwrap();
        assert_eq!(x.get_str("executable"), Some("blast_scan.sh"));
        assert_eq!(x.get_str("jobname"), Some("proteome-search"));
        assert_eq!(x.get_str("COUNT"), Some("15"), "case-insensitive");
        assert_eq!(x.get_str("cputime"), Some("330 minutes"));
        assert_eq!(x.get_str("transfertoken"), Some("00ff10ab"));
    }

    #[test]
    fn nested_lists() {
        let x = Xrsl::parse(SAMPLE).unwrap();
        let files = x.get_all("inputfiles");
        assert_eq!(files.len(), 1);
        match &files[0][0] {
            Value::List(items) => {
                assert_eq!(items[0], Value::Str("db.fasta".into()));
                assert_eq!(
                    items[1],
                    Value::Str("gsiftp://se.example.org/db.fasta".into())
                );
            }
            other => panic!("expected list, got {other:?}"),
        }
    }

    #[test]
    fn repeated_attributes_accumulate() {
        let x = Xrsl::parse(r#"&(runtimeenvironment="A")(runtimeenvironment="B")"#).unwrap();
        let all = x.get_all("runtimeenvironment");
        assert_eq!(all.len(), 2);
        assert_eq!(all[1][0], Value::Str("B".into()));
    }

    #[test]
    fn comments_are_skipped() {
        let x = Xrsl::parse("&(* a comment *)(executable=\"x\")(* another *)").unwrap();
        assert_eq!(x.get_str("executable"), Some("x"));
    }

    #[test]
    fn quoted_quote_escapes() {
        let x = Xrsl::parse(r#"&(arguments="say ""hi""")"#).unwrap();
        assert_eq!(x.get_str("arguments"), Some("say \"hi\""));
    }

    #[test]
    fn round_trip_through_text() {
        let x = Xrsl::parse(SAMPLE).unwrap();
        let text = x.to_text();
        let back = Xrsl::parse(&text).unwrap();
        assert_eq!(x, back);
    }

    #[test]
    fn set_str_replaces() {
        let mut x = Xrsl::parse("&(count=3)").unwrap();
        x.set_str("count", "7");
        assert_eq!(x.get_str("count"), Some("7"));
        assert_eq!(x.get_all("count").len(), 1);
    }

    #[test]
    fn error_reports_position() {
        let err = Xrsl::parse("&(executable=)").unwrap_err();
        assert!(err.position > 0);
        assert!(err.message.contains("no value"), "{}", err.message);
        assert!(Xrsl::parse("(no-ampersand)").is_err());
        assert!(Xrsl::parse("&(unterminated=\"abc").is_err());
        assert!(Xrsl::parse("&(=x)").is_err());
    }

    #[test]
    fn durations() {
        assert_eq!(parse_duration_secs("60"), Some(3600), "bare number = minutes");
        assert_eq!(parse_duration_secs("90 seconds"), Some(90));
        assert_eq!(parse_duration_secs("5.5 hours"), Some(19_800));
        assert_eq!(parse_duration_secs("2 days"), Some(172_800));
        assert_eq!(parse_duration_secs("212 minutes"), Some(12_720));
        assert_eq!(parse_duration_secs("nonsense"), None);
        assert_eq!(parse_duration_secs("1 fortnight"), None);
        assert_eq!(parse_duration_secs("-1 hours"), None);
    }

    #[test]
    fn missing_attribute_is_none() {
        let x = Xrsl::parse("&(count=1)").unwrap();
        assert_eq!(x.get_str("nope"), None);
        assert!(x.get_all("nope").is_empty());
    }

    #[test]
    fn attribute_order_preserved_in_text() {
        let x = Xrsl::parse(r#"&(zeta="1")(alpha="2")"#).unwrap();
        let text = x.to_text();
        let z = text.find("zeta").unwrap();
        let a = text.find("alpha").unwrap();
        assert!(z < a, "order must be preserved: {text}");
    }
}

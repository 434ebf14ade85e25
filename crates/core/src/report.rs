//! Plain-text table rendering and a hand-rolled JSON emitter for the
//! figure-regeneration binaries.
//!
//! The JSON side is deliberately dependency-free: experiments emit a
//! [`Json`] tree (object keys keep insertion order, floats use Rust's
//! shortest-round-trip formatting) so that `results/<name>.json` is
//! byte-reproducible across runs and worker counts. A table that is
//! written both ways declares its columns once, as a [`Cols`] list.

use std::fmt::Write as _;
use std::rc::Rc;

/// A simple left-padded text table.
///
/// # Example
///
/// ```
/// use pimulator::report::Table;
///
/// let mut t = Table::new(&["workload", "ipc"]);
/// t.row_owned(vec!["VA".to_string(), "0.93".to_string()]);
/// let s = t.render();
/// assert!(s.contains("workload"));
/// assert!(s.contains("VA"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        Table { header: header.iter().map(ToString::to_string).collect(), rows: Vec::new() }
    }

    /// Appends a row of already-owned cells.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width must match header");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:<width$}", c, width = widths[i] + 2);
            }
            let _ = writeln!(out);
        };
        emit(&mut out, &self.header);
        let rule: usize = widths.iter().map(|w| w + 2).sum();
        let _ = writeln!(out, "{}", "-".repeat(rule.min(120)));
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }
}

/// How a [`Cols`] column shows its value in a table cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Show {
    /// As written: a string as is, an integer in decimal, a double by
    /// `Display` (`0.25` → `0.25`, `1.0` → `1`).
    Text,
    /// A fraction as a percentage, [`pct`].
    Pct,
    /// A ratio, [`speedup`].
    X,
    /// A number with this many decimals.
    Fixed(usize),
    /// Nanoseconds as milliseconds with this many decimals.
    Ms(usize),
    /// Nanoseconds as microseconds with one decimal.
    Us,
}

impl Show {
    /// The cell of `value` under this rule.
    fn cell(self, value: &Json) -> String {
        let x = match *value {
            Json::Num(x) => x,
            Json::UInt(u) => u as f64,
            Json::Int(i) => i as f64,
            _ => f64::NAN,
        };
        match self {
            Show::Text => match value {
                Json::Str(s) => s.clone(),
                Json::Num(x) => x.to_string(),
                other => other.render(),
            },
            Show::Pct => pct(x),
            Show::X => speedup(x),
            Show::Fixed(d) => format!("{x:.d$}"),
            Show::Ms(d) => format!("{:.d$}", x / 1e6),
            Show::Us => format!("{:.1}", x / 1e3),
        }
    }
}

/// The columns of a table that is written twice — as text and as one JSON
/// object per row — declared once. A column has a JSON key, a table
/// header, or both, over one accessor: the table shows the headed columns
/// and the object holds the keyed ones, each side in list order.
///
/// ```
/// use pimulator::report::{Cols, Show};
///
/// struct Row { workload: &'static str, ipc: f64, cycles: u64 }
/// let cols = Cols::<Row>::new()
///     .col("workload", "workload", Show::Text, |r| r.workload)
///     .col("ipc", "IPC", Show::Fixed(2), |r| r.ipc)
///     .key("cycles", |r| r.cycles);
/// let (table, json) = cols.tabulate(&[Row { workload: "VA", ipc: 0.931, cycles: 7 }]);
/// assert_eq!(table.render().lines().nth(2), Some("VA        0.93  "));
/// assert_eq!(json[0].render(), r#"{"workload":"VA","ipc":0.931,"cycles":7}"#);
/// ```
pub struct Cols<R: ?Sized>(Vec<Col<R>>);

/// One column of a [`Cols`] list.
struct Col<R: ?Sized> {
    key: Option<String>,
    header: Option<String>,
    show: Show,
    get: Rc<dyn Fn(&R) -> Json>,
}

impl<R: ?Sized> Default for Cols<R> {
    fn default() -> Self {
        Cols(Vec::new())
    }
}

impl<R: ?Sized + 'static> Cols<R> {
    /// An empty list.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Not generic over the accessor, so it is compiled once per row type.
    fn push(
        mut self,
        key: Option<&str>,
        header: Option<&str>,
        show: Show,
        get: Rc<dyn Fn(&R) -> Json>,
    ) -> Self {
        let (key, header) = (key.map(str::to_string), header.map(str::to_string));
        self.0.push(Col { key, header, show, get });
        self
    }

    /// A column in both the table and the document.
    #[must_use]
    pub fn col<J: Into<Json>>(
        self,
        key: &str,
        header: &str,
        show: Show,
        get: impl Fn(&R) -> J + 'static,
    ) -> Self {
        self.push(Some(key), Some(header), show, Rc::new(move |r: &R| get(r).into()))
    }

    /// A column in the document only.
    #[must_use]
    pub fn key<J: Into<Json>>(self, key: &str, get: impl Fn(&R) -> J + 'static) -> Self {
        self.push(Some(key), None, Show::Text, Rc::new(move |r: &R| get(r).into()))
    }

    /// A column in the table only.
    #[must_use]
    pub fn cell<J: Into<Json>>(
        self,
        header: &str,
        show: Show,
        get: impl Fn(&R) -> J + 'static,
    ) -> Self {
        self.push(None, Some(header), show, Rc::new(move |r: &R| get(r).into()))
    }

    /// `cols` as one document column, their object under `key`, whose
    /// headed columns join the table here.
    #[must_use]
    pub fn nest(mut self, key: &str, cols: Cols<R>) -> Self {
        for c in cols.0.iter().filter(|c| c.header.is_some()) {
            let get = Rc::clone(&c.get);
            self.0.push(Col { key: None, header: c.header.clone(), show: c.show, get });
        }
        self.key(key, move |r| cols.json(r))
    }

    /// The table of `rows` and the object of each.
    pub fn tabulate<'r>(&self, rows: impl IntoIterator<Item = &'r R>) -> (Table, Vec<Json>) {
        let header = self.0.iter().filter_map(|c| c.header.clone()).collect();
        let mut table = Table { header, rows: Vec::new() };
        let json = rows
            .into_iter()
            .map(|row| {
                let headed = self.0.iter().filter(|c| c.header.is_some());
                table.rows.push(headed.map(|c| c.show.cell(&(c.get)(row))).collect());
                self.json(row)
            })
            .collect();
        (table, json)
    }

    /// The object of one row.
    #[must_use]
    pub fn json(&self, row: &R) -> Json {
        Json::Obj(self.0.iter().filter_map(|c| Some((c.key.clone()?, (c.get)(row)))).collect())
    }
}

/// A JSON value, hand-rolled so the workspace stays dependency-free.
///
/// Object keys preserve insertion order and numbers render with Rust's
/// shortest-round-trip `Display`, so rendering is deterministic: the same
/// tree always serializes to the same bytes.
///
/// # Example
///
/// ```
/// use pimulator::report::Json;
///
/// let j = Json::obj([
///     ("workload", Json::from("VA")),
///     ("ipc", Json::from(0.93)),
///     ("threads", Json::from(16u64)),
/// ]);
/// assert_eq!(j.render(), r#"{"workload":"VA","ipc":0.93,"threads":16}"#);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also the rendering of non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (renders without a decimal point).
    Int(i64),
    /// An unsigned integer (renders without a decimal point).
    UInt(u64),
    /// A double (non-finite values render as `null`).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    #[must_use]
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    #[must_use]
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Self {
        Json::Arr(items.into_iter().collect())
    }

    /// Serializes compactly (no whitespace).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serializes with two-space indentation and a trailing newline — the
    /// format written to `results/<name>.json`.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Parses a JSON document: the first step of every document the
    /// simulator reads back ([`Node`] is the second).
    ///
    /// Numbers without a fraction or exponent parse as `Int`/`UInt`;
    /// everything else parses as `Num`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first syntax error;
    /// arrays and objects nested more than 64 deep are one.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: s.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(x) => write_f64(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        const INDENT: &str = "  ";
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    out.push_str(&INDENT.repeat(depth + 1));
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&INDENT.repeat(depth));
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    out.push_str(&INDENT.repeat(depth + 1));
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&INDENT.repeat(depth));
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

/// Deepest nesting [`Json::parse`] accepts: the parser recurses once per
/// level, and the documents this repository writes nest a handful.
const MAX_DEPTH: usize = 64;

/// Recursive-descent parser behind [`Json::parse`].
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => {
                Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", self.pos))
            }
            Some(open @ (b'[' | b'{')) => {
                self.depth += 1;
                let v = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy each run of unescaped bytes in one step: `"` and `\` are
            // ASCII, so they can never split a multi-byte sequence, and only
            // the run itself needs UTF-8 validation (validating from the
            // cursor to the end of input per character is quadratic in the
            // document size).
            let start = self.pos;
            while self.pos < self.bytes.len() && !matches!(self.bytes[self.pos], b'"' | b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
            );
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    // A `\` escape sequence.
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogates are not produced by the emitter;
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number spans ASCII bytes");
        if !float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number at byte {start}"))
    }
}

/// One value inside a parsed document on its way to becoming typed: the
/// reader behind every document the simulator loads back (checkpoints,
/// tuned tables, SLO histograms, policy snapshots) and the lookups tests
/// make into emitted ones. Every accessor checks shape and range and fails
/// with `Err("<path>: <what>")`. The path is worked out only when an error
/// is formatted, by searching the document for this value's address, so
/// decoding a well-formed document builds no string.
///
/// ```
/// use pimulator::report::{Json, Node};
///
/// let doc = Json::parse(r#"{"queue": [[7, 70000]]}"#).unwrap();
/// let queue = Node::root("checkpoint", &doc).field("queue")?.list(|request| {
///     let [id, class] = request.tuple()?;
///     Ok((id.int::<u64>()?, class.int::<u16>()?))
/// });
/// assert_eq!(queue.unwrap_err(), "checkpoint.queue[0][1]: 70000 is out of range");
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Node<'a> {
    name: &'a str,
    root: &'a Json,
    at: &'a Json,
}

impl<'a> Node<'a> {
    /// The top of `doc`; `name` opens every path (`checkpoint`, `tuned`).
    #[must_use]
    pub fn root(name: &'a str, doc: &'a Json) -> Self {
        Node { name, root: doc, at: doc }
    }

    /// The value itself, for a field that stays a document.
    #[must_use]
    pub fn json(self) -> &'a Json {
        self.at
    }

    /// `Err("<path>: <what>")` — also how a decoder reports a range of its
    /// own (`tuned.workloads[0].tasklets: 99 is outside 1..=24`).
    pub fn fail<T>(self, what: impl std::fmt::Display) -> Result<T, String> {
        /// The steps from `at` down to the value at address `to`.
        fn path(at: &Json, to: &Json) -> Option<String> {
            match at {
                _ if std::ptr::eq(at, to) => Some(String::new()),
                Json::Arr(items) => {
                    items.iter().zip(0..).find_map(|(v, i)| Some(format!("[{i}]{}", path(v, to)?)))
                }
                Json::Obj(pairs) => {
                    pairs.iter().find_map(|(k, v)| Some(format!(".{k}{}", path(v, to)?)))
                }
                _ => None,
            }
        }
        Err(format!("{}{}: {what}", self.name, path(self.root, self.at).unwrap_or_default()))
    }

    /// The value under `key`; an error unless this is an object with one.
    pub fn field(self, key: &str) -> Result<Node<'a>, String> {
        let Json::Obj(pairs) = self.at else { return self.fail("expected an object") };
        match pairs.iter().find(|(k, _)| k == key) {
            Some((_, value)) => Ok(Node { at: value, ..self }),
            None => self.fail(format_args!("missing `{key}`")),
        }
    }

    /// Every element of an array decoded by `each` (`Ok` for the elements
    /// themselves), or the first error; an error for anything but an array.
    pub fn list<T>(self, each: impl FnMut(Self) -> Result<T, String>) -> Result<Vec<T>, String> {
        let Json::Arr(items) = self.at else { return self.fail("expected an array") };
        items.iter().map(|item| Node { at: item, ..self }).map(each).collect()
    }

    /// The elements of an array that must hold exactly `N`.
    pub fn tuple<const N: usize>(self) -> Result<[Node<'a>; N], String> {
        let Json::Arr(items) = self.at else { return self.fail("expected an array") };
        let Ok(items) = <&[Json; N]>::try_from(items.as_slice()) else {
            return self.fail(format_args!("expected {N} items, found {}", items.len()));
        };
        Ok(items.each_ref().map(|item| Node { at: item, ..self }))
    }

    /// `None` for `null`, the value otherwise.
    #[must_use]
    pub fn optional(self) -> Option<Node<'a>> {
        (*self.at != Json::Null).then_some(self)
    }

    /// A string; an error for anything else.
    pub fn str(self) -> Result<&'a str, String> {
        let Json::Str(s) = self.at else { return self.fail("expected a string") };
        Ok(s)
    }

    /// An integer narrowed to `T`, the type of the field it fills; an error
    /// for anything else and for an integer `T` cannot hold.
    pub fn int<T: TryFrom<u64> + TryFrom<i64>>(self) -> Result<T, String> {
        let narrowed = match *self.at {
            Json::UInt(u) => T::try_from(u).ok(),
            Json::Int(i) => T::try_from(i).ok(),
            _ => return self.fail("expected an integer"),
        };
        narrowed.map_or_else(|| self.fail(format_args!("{} is out of range", self.at.render())), Ok)
    }

    /// A number as a double: a float as written, an integer while `f64`
    /// holds it exactly (2^53 either side of zero); an error for anything else.
    pub fn number(self) -> Result<f64, String> {
        match *self.at {
            Json::Num(x) => Ok(x),
            Json::UInt(u) if u <= 1 << 53 => Ok(u as f64),
            Json::Int(i) if i >= -(1 << 53) => Ok(i as f64),
            Json::UInt(_) | Json::Int(_) => self.fail("an integer a double would round"),
            _ => self.fail("expected a number"),
        }
    }
}

fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        // Shortest round-trip formatting; force a decimal point (or an
        // exponent) so the value reads back as a float. Display never uses
        // exponent notation, so huge magnitudes would expand to hundreds of
        // digits — switch to `{:e}` whenever that form is shorter.
        let s = format!("{x}");
        if s.contains(['.', 'e', 'E']) {
            out.push_str(&s);
        } else {
            let exp = format!("{x:e}");
            if exp.len() < s.len() + 2 {
                out.push_str(&exp);
            } else {
                out.push_str(&s);
                out.push_str(".0");
            }
        }
    } else {
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Num(x)
    }
}

impl From<u64> for Json {
    fn from(u: u64) -> Self {
        Json::UInt(u)
    }
}

impl From<u32> for Json {
    fn from(u: u32) -> Self {
        Json::UInt(u64::from(u))
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Self {
        Json::Int(i)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

/// Formats a fraction as a percentage with one decimal.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a speedup ratio as `N.NNx`.
#[must_use]
pub fn speedup(x: f64) -> String {
    format!("{x:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(cells: &[&str]) -> Vec<String> {
        cells.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row_owned(cells(&["xxxxx", "1"]));
        t.row_owned(cells(&["y", "22"]));
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a "));
        assert!(lines[2].starts_with("xxxxx"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row_owned(cells(&["only one"]));
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(speedup(2.6), "2.60x");
    }

    #[test]
    fn key_only_and_header_only_columns_interleave_in_order() {
        let inner = Cols::<(u64, f64)>::new()
            .col("x1", "x1", Show::X, |r| r.1)
            .key("hidden", |r| r.0)
            .cell("x2", Show::X, |r| 2.0 * r.1);
        let cols = Cols::<(u64, f64)>::new()
            .key("a", |r| r.0)
            .cell("B", Show::Text, |r| r.0 + 1)
            .col("c", "C", Show::Pct, |r| r.1)
            .nest("group", inner)
            .cell("D", Show::Fixed(3), |r| r.1)
            .key("e", |_| "last");
        let (table, json) = cols.tabulate(&[(7, 0.5)]);
        let mut want = Table::new(&["B", "C", "x1", "x2", "D"]);
        want.row_owned(cells(&["8", "50.0%", "0.50x", "1.00x", "0.500"]));
        assert_eq!(table.render(), want.render());
        let obj = r#"{"a":7,"c":0.5,"group":{"x1":0.5,"hidden":7},"e":"last"}"#;
        assert_eq!(json.iter().map(Json::render).collect::<Vec<_>>(), [obj]);
        assert_eq!(cols.json(&(7, 0.5)).render(), obj);
    }

    #[test]
    fn each_display_rule_renders_what_its_format_string_did() {
        let x = 1234.5678;
        let ns = 1_234_567u64;
        let cases: [(Show, Json, String); 12] = [
            (Show::Text, Json::from(0.25), format!("{}", 0.25)),
            (Show::Text, Json::from(1.0), format!("{}", 1.0)),
            (Show::Text, Json::from(ns), ns.to_string()),
            (Show::Text, Json::from(-3i64), (-3).to_string()),
            (Show::Text, Json::from("BS"), "BS".to_string()),
            (Show::Pct, Json::from(0.1234), format!("{:.1}%", 0.1234 * 100.0)),
            (Show::X, Json::from(x), format!("{x:.2}x")),
            (Show::Fixed(0), Json::from(x), format!("{x:.0}")),
            (Show::Fixed(2), Json::from(x), format!("{x:.2}")),
            (Show::Ms(3), Json::from(x * 1e3), format!("{:.3}", x * 1e3 / 1e6)),
            (Show::Ms(4), Json::from(ns), format!("{:.4}", ns as f64 / 1e6)),
            (Show::Us, Json::from(ns), format!("{:.1}", ns as f64 / 1000.0)),
        ];
        for (show, value, want) in cases {
            assert_eq!(show.cell(&value), want, "{show:?} of {value:?}");
        }
    }

    #[test]
    fn json_renders_compactly_with_ordered_keys() {
        let j = Json::obj([
            ("b", Json::from(1u64)),
            ("a", Json::arr([Json::Null, Json::from(true), Json::from(-3i64)])),
        ]);
        assert_eq!(j.render(), r#"{"b":1,"a":[null,true,-3]}"#);
    }

    #[test]
    fn json_floats_round_trip_and_keep_a_decimal_point() {
        assert_eq!(Json::from(0.1).render(), "0.1");
        assert_eq!(Json::from(3.0).render(), "3.0");
        assert_eq!(Json::from(f64::NAN).render(), "null");
        assert_eq!(Json::from(f64::INFINITY).render(), "null");
        assert_eq!(Json::from(1e300).render(), "1e300");
    }

    #[test]
    fn json_escapes_strings() {
        let j = Json::from("a\"b\\c\nd\u{1}");
        assert_eq!(j.render(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn json_pretty_is_indented_and_ends_with_newline() {
        let j = Json::obj([("xs", Json::arr([Json::from(1u64)])), ("e", Json::arr([]))]);
        assert_eq!(j.render_pretty(), "{\n  \"xs\": [\n    1\n  ],\n  \"e\": []\n}\n");
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let j = Json::obj([
            ("s", Json::from("a\"b\\c\nd")),
            ("xs", Json::arr([Json::Null, Json::from(true), Json::from(-3i64)])),
            ("n", Json::from(0.25)),
            ("u", Json::from(123u64)),
            ("empty", Json::obj::<String>([])),
        ]);
        assert_eq!(Json::parse(&j.render()).unwrap(), j);
        assert_eq!(Json::parse(&j.render_pretty()).unwrap(), j);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("1 2").is_err());
        // The parser recurses once per level, so nesting is bounded: what
        // overflowed the stack is a syntax error with its offset.
        let nested = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(Json::parse(&nested(64)).is_ok());
        let err = Json::parse(&nested(65)).unwrap_err();
        assert_eq!(err, "nesting deeper than 64 levels at byte 64");
        assert!(Json::parse(&"[{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn parse_handles_numbers_and_escapes() {
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("\"\\u0041\\t\"").unwrap(), Json::Str("A\t".to_string()));
    }
}

//! Hierarchical query spans.
//!
//! A [`Span`] is one timed region of a query with typed attributes and
//! child spans; a [`QueryTrace`] is the completed span tree of one
//! engine query plus its outcome. Offsets are microseconds from the
//! query's start, so a trace is self-contained and serialisable without
//! any wall-clock anchor (the flight recorder stamps the trace with a
//! sequence id instead).

/// A typed span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer (sizes, counts).
    U64(u64),
    /// Floating point (ratios, seconds).
    F64(f64),
    /// Free-form text (method names, outcome labels).
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(u64::from(v))
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::F64(v) => write!(f, "{v}"),
            AttrValue::Str(v) => f.write_str(v),
        }
    }
}

/// Escape a string for inclusion in a JSON string literal (quotes not
/// included). Handles the two characters that must always be escaped
/// plus control characters; everything else passes through as UTF-8.
pub fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// One timed region of a query.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Region name: `query`, `screen`, `refine`, `sweep`, `join`,
    /// `setup`, `pairing`, `matching`.
    pub name: &'static str,
    /// Start offset from the query start, microseconds.
    pub start_us: u64,
    /// Span duration, microseconds.
    pub elapsed_us: u64,
    /// Typed attributes.
    pub attrs: Vec<(&'static str, AttrValue)>,
    /// Child spans, in start order.
    pub children: Vec<Span>,
}

impl Span {
    /// A zero-length span at offset 0; set timing with
    /// [`Span::at`] / attach data with [`Span::attr`].
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            start_us: 0,
            elapsed_us: 0,
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Builder-style: set the span's timing.
    pub fn at(mut self, start_us: u64, elapsed_us: u64) -> Self {
        self.start_us = start_us;
        self.elapsed_us = elapsed_us;
        self
    }

    /// Builder-style: attach an attribute.
    pub fn attr(mut self, key: &'static str, value: impl Into<AttrValue>) -> Self {
        self.attrs.push((key, value.into()));
        self
    }

    /// Attach a child span.
    pub fn push_child(&mut self, child: Span) {
        self.children.push(child);
    }

    /// Look up an attribute by key.
    pub fn get_attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Depth-first search for the first descendant (or self) named
    /// `name`.
    pub fn find(&self, name: &str) -> Option<&Span> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Total number of spans in this subtree (self included).
    pub fn span_count(&self) -> usize {
        1 + self.children.iter().map(Span::span_count).sum::<usize>()
    }

    /// Append this span's JSON object to `out`.
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"start_us\":{},\"elapsed_us\":{}",
            self.name, self.start_us, self.elapsed_us
        );
        if !self.attrs.is_empty() {
            out.push_str(",\"attrs\":{");
            for (i, (k, v)) in self.attrs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{k}\":");
                match v {
                    AttrValue::U64(n) => {
                        let _ = write!(out, "{n}");
                    }
                    AttrValue::F64(x) if x.is_finite() => {
                        let _ = write!(out, "{x}");
                    }
                    // JSON has no NaN/Inf; stringify the rare pathological value.
                    AttrValue::F64(x) => {
                        let _ = write!(out, "\"{x}\"");
                    }
                    AttrValue::Str(s) => {
                        out.push('"');
                        escape_json(s, out);
                        out.push('"');
                    }
                }
            }
            out.push('}');
        }
        if !self.children.is_empty() {
            out.push_str(",\"children\":[");
            for (i, c) in self.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                c.write_json(out);
            }
            out.push(']');
        }
        out.push('}');
    }

    /// Append an indented human-readable rendering to `out`.
    pub fn write_text(&self, out: &mut String, indent: usize) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{:indent$}{} {:.3} ms",
            "",
            self.name,
            self.elapsed_us as f64 / 1000.0,
            indent = indent
        );
        for (k, v) in &self.attrs {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
        for c in &self.children {
            c.write_text(out, indent + 2);
        }
    }
}

/// The completed span tree of one engine query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// Monotone sequence id assigned by the flight recorder.
    pub id: u64,
    /// Query kind: `similarity`, `top_k` or `pairs_above`.
    pub kind: &'static str,
    /// Outcome label: `completed`, `exhausted:<reason>`, or
    /// `failed:<error>`.
    pub outcome: String,
    /// The root `query` span.
    pub root: Span,
}

impl QueryTrace {
    /// Render the trace as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let mut outcome = String::new();
        escape_json(&self.outcome, &mut outcome);
        out.push_str(&format!(
            "{{\"id\":{},\"kind\":\"{}\",\"outcome\":\"{}\",\"root\":",
            self.id, self.kind, outcome
        ));
        self.root.write_json(&mut out);
        out.push('}');
        out
    }

    /// Render the trace as an indented text tree.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "trace #{} {} outcome={}\n",
            self.id, self.kind, self.outcome
        );
        self.root.write_text(&mut out, 2);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> QueryTrace {
        let mut root = Span::new("query").at(0, 1000).attr("k", 3u64);
        let mut screen = Span::new("screen").at(10, 600);
        screen.push_child(
            Span::new("join")
                .at(20, 100)
                .attr("method", "ap-minmax")
                .attr("b_size", 4u64),
        );
        root.push_child(screen);
        QueryTrace {
            id: 7,
            kind: "top_k",
            outcome: "completed".into(),
            root,
        }
    }

    #[test]
    fn find_walks_depth_first() {
        let t = sample_trace();
        assert!(t.root.find("join").is_some());
        assert!(t.root.find("query").is_some());
        assert!(t.root.find("refine").is_none());
        assert_eq!(t.root.span_count(), 3);
        assert_eq!(
            t.root.find("join").unwrap().get_attr("method"),
            Some(&AttrValue::Str("ap-minmax".into()))
        );
    }

    #[test]
    fn json_is_well_formed_and_nested() {
        let json = sample_trace().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"kind\":\"top_k\""), "{json}");
        assert!(json.contains("\"children\":["), "{json}");
        assert!(json.contains("\"method\":\"ap-minmax\""), "{json}");
        // Balanced braces/brackets (no quoting in this sample).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "{json}");
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut out = String::new();
        escape_json("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001");
        let trace = QueryTrace {
            id: 1,
            kind: "similarity",
            outcome: "failed:panic \"boom\"".into(),
            root: Span::new("query").attr("note", "tab\there"),
        };
        let json = trace.to_json();
        assert!(json.contains("failed:panic \\\"boom\\\""), "{json}");
        assert!(json.contains("tab\\there"), "{json}");
    }

    #[test]
    fn text_rendering_indents_children() {
        let text = sample_trace().to_text();
        assert!(text.contains("trace #7 top_k outcome=completed"));
        assert!(text.contains("\n  query"));
        assert!(text.contains("\n    screen"));
        assert!(text.contains("\n      join"));
        assert!(text.contains("method=ap-minmax"));
    }

    #[test]
    fn attr_conversions() {
        assert_eq!(AttrValue::from(3usize), AttrValue::U64(3));
        assert_eq!(AttrValue::from(3u32), AttrValue::U64(3));
        assert_eq!(AttrValue::from(0.5f64), AttrValue::F64(0.5));
        assert_eq!(AttrValue::from("x").to_string(), "x");
        assert_eq!(AttrValue::U64(9).to_string(), "9");
    }

    #[test]
    fn nonfinite_float_attrs_stay_valid_json() {
        let span = Span::new("query").attr("ratio", f64::NAN);
        let mut out = String::new();
        span.write_json(&mut out);
        assert!(out.contains("\"ratio\":\"NaN\""), "{out}");
    }
}

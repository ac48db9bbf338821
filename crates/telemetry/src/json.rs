//! The one shared pretty-JSON writer.
//!
//! Every report and exporter in the workspace renders through this
//! writer, replacing the hand-rolled `format!` JSON that used to be
//! copy-pasted between the shuffle and store reports. Output is fully
//! deterministic: objects put one key per line at two-space indent,
//! arrays keep scalar elements inline and give structured elements
//! their own lines.

enum Ctx {
    Obj { first: bool },
    Arr { first: bool, multiline: bool },
}

/// A streaming pretty-JSON writer.
///
/// ```
/// use telemetry::JsonWriter;
/// let mut w = JsonWriter::new();
/// w.begin_obj();
/// w.field_str("name", "run");
/// w.key("counts");
/// w.begin_arr();
/// w.u64_val(1);
/// w.u64_val(2);
/// w.end_arr();
/// w.end_obj();
/// assert_eq!(w.finish(), "{\n  \"name\": \"run\",\n  \"counts\": [1, 2]\n}");
/// ```
pub struct JsonWriter {
    out: String,
    stack: Vec<Ctx>,
}

impl Default for JsonWriter {
    fn default() -> Self {
        JsonWriter::new()
    }
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter {
            out: String::new(),
            stack: Vec::new(),
        }
    }

    fn push_indent(&mut self) {
        self.out.push('\n');
        for _ in 0..self.stack.len() {
            self.out.push_str("  ");
        }
    }

    /// Separator before a *value* (not a key) in the current context.
    /// `structured` values in arrays go on their own line.
    fn value_sep(&mut self, structured: bool) {
        if let Some(Ctx::Arr { first, multiline }) = self.stack.last_mut() {
            let was_first = *first;
            *first = false;
            if structured {
                *multiline = true;
                if !was_first {
                    self.out.push(',');
                }
                self.push_indent();
            } else if !was_first {
                self.out.push_str(", ");
            }
        }
    }

    /// Starts the next key of the current object.
    ///
    /// # Panics
    /// Panics when the writer is not inside an object.
    pub fn key(&mut self, k: &str) {
        match self.stack.last_mut() {
            Some(Ctx::Obj { first }) => {
                let was_first = *first;
                *first = false;
                if !was_first {
                    self.out.push(',');
                }
            }
            _ => panic!("key() outside an object"),
        }
        self.push_indent();
        self.out.push('"');
        self.out.push_str(&esc(k));
        self.out.push_str("\": ");
    }

    /// Opens an object value.
    pub fn begin_obj(&mut self) {
        self.value_sep(true);
        self.out.push('{');
        self.stack.push(Ctx::Obj { first: true });
    }

    /// Closes the current object.
    pub fn end_obj(&mut self) {
        match self.stack.pop() {
            Some(Ctx::Obj { first }) => {
                if !first {
                    self.push_indent();
                }
                self.out.push('}');
            }
            _ => panic!("end_obj() without begin_obj()"),
        }
    }

    /// Opens an array value.
    pub fn begin_arr(&mut self) {
        self.value_sep(true);
        self.out.push('[');
        self.stack.push(Ctx::Arr {
            first: true,
            multiline: false,
        });
    }

    /// Closes the current array.
    pub fn end_arr(&mut self) {
        match self.stack.pop() {
            Some(Ctx::Arr { multiline, .. }) => {
                if multiline {
                    self.push_indent();
                }
                self.out.push(']');
            }
            _ => panic!("end_arr() without begin_arr()"),
        }
    }

    /// Writes a string value.
    pub fn str_val(&mut self, s: &str) {
        self.value_sep(false);
        self.out.push('"');
        self.out.push_str(&esc(s));
        self.out.push('"');
    }

    /// Writes an unsigned integer value.
    pub fn u64_val(&mut self, v: u64) {
        self.value_sep(false);
        self.out.push_str(&v.to_string());
    }

    /// Writes a float value with fixed `decimals`.
    pub fn f64_val(&mut self, v: f64, decimals: usize) {
        debug_assert!(v.is_finite(), "non-finite value in JSON output");
        self.value_sep(false);
        self.out.push_str(&format!("{v:.decimals$}"));
    }

    /// Writes a boolean value.
    pub fn bool_val(&mut self, v: bool) {
        self.value_sep(false);
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Writes `null`.
    pub fn null_val(&mut self) {
        self.value_sep(false);
        self.out.push_str("null");
    }

    /// Writes pre-rendered JSON as a value, indenting its continuation
    /// lines to the current nesting level.
    pub fn raw_val(&mut self, json: &str) {
        self.value_sep(false);
        let mut pad = String::from("\n");
        for _ in 0..self.stack.len() {
            pad.push_str("  ");
        }
        self.out.push_str(&json.trim_end().replace('\n', &pad));
    }

    /// `key` + string value.
    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.str_val(v);
    }

    /// `key` + unsigned value.
    pub fn field_u64(&mut self, k: &str, v: u64) {
        self.key(k);
        self.u64_val(v);
    }

    /// `key` + float value with fixed `decimals`.
    pub fn field_f64(&mut self, k: &str, v: f64, decimals: usize) {
        self.key(k);
        self.f64_val(v, decimals);
    }

    /// `key` + boolean value.
    pub fn field_bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.bool_val(v);
    }

    /// Finishes and returns the document (no trailing newline).
    ///
    /// # Panics
    /// Panics when objects or arrays are still open.
    pub fn finish(self) -> String {
        assert!(self.stack.is_empty(), "unclosed JSON structure");
        self.out
    }
}

/// Escapes a string for a JSON literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Indents every line of a rendered document except the first by one
/// level — the helper the experiment binaries use to nest a report
/// inside their wrapper object (formerly copy-pasted per binary).
pub fn nest(json: &str) -> String {
    json.trim_end().replace('\n', "\n  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_one_key_per_line() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.field_u64("a", 1);
        w.field_str("b", "x");
        w.end_obj();
        assert_eq!(w.finish(), "{\n  \"a\": 1,\n  \"b\": \"x\"\n}");
    }

    #[test]
    fn scalar_arrays_stay_inline_structured_break_lines() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("flat");
        w.begin_arr();
        w.u64_val(1);
        w.f64_val(2.5, 1);
        w.end_arr();
        w.key("deep");
        w.begin_arr();
        w.begin_obj();
        w.field_bool("ok", true);
        w.end_obj();
        w.end_arr();
        w.end_obj();
        assert_eq!(
            w.finish(),
            "{\n  \"flat\": [1, 2.5],\n  \"deep\": [\n    {\n      \"ok\": true\n    }\n  ]\n}"
        );
    }

    #[test]
    fn empty_containers_close_inline() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("o");
        w.begin_obj();
        w.end_obj();
        w.key("a");
        w.begin_arr();
        w.end_arr();
        w.end_obj();
        assert_eq!(w.finish(), "{\n  \"o\": {},\n  \"a\": []\n}");
    }

    #[test]
    fn escaping() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }

    #[test]
    fn nest_indents_continuations() {
        assert_eq!(nest("{\n  \"a\": 1\n}\n"), "{\n    \"a\": 1\n  }");
    }

    #[test]
    fn raw_val_reindents() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("inner");
        w.raw_val("{\n  \"a\": 1\n}");
        w.end_obj();
        assert_eq!(w.finish(), "{\n  \"inner\": {\n    \"a\": 1\n  }\n}");
    }
}

//! A minimal JSON object writer for the worker's one-line results.

/// Builds one JSON object, keys in insertion order.
pub struct Obj {
    fields: Vec<String>,
}

impl Obj {
    pub fn new() -> Obj {
        Obj { fields: Vec::new() }
    }

    /// A float field; non-finite values are written as `null`.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Obj {
        let text = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".to_string()
        };
        self.raw(key, &text)
    }

    pub fn int(&mut self, key: &str, value: u64) -> &mut Obj {
        self.raw(key, &value.to_string())
    }

    pub fn str(&mut self, key: &str, value: &str) -> &mut Obj {
        self.raw(key, &quote(value))
    }

    /// A field whose value is already JSON.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Obj {
        self.fields.push(format!("{}:{json}", quote(key)));
        self
    }

    pub fn finish(&self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

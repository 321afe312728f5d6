//! A minimal JSON object writer (no serde offline). Reading goes through
//! `adshare::obs::json::parse`.

use adshare::obs::json::write_string;

/// A number as measured, with all its digits; non-finite values (which no
/// healthy run produces) are written as 0 so the document stays valid.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// An object under construction.
#[derive(Debug, Default)]
pub struct Obj(String);

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj(String::new())
    }

    fn key(&mut self, key: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        write_string(&mut self.0, key);
        self.0.push(':');
    }

    /// Add a member whose value is already JSON.
    pub fn raw(&mut self, key: &str, value: String) -> &mut Obj {
        self.key(key);
        self.0.push_str(&value);
        self
    }

    /// Add a string member.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Obj {
        self.key(key);
        write_string(&mut self.0, value);
        self
    }

    /// Add a floating-point member.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Obj {
        self.raw(key, number(value))
    }

    /// Add an integer member.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Obj {
        self.raw(key, value.to_string())
    }

    /// Close the object and take its text.
    pub fn end(&mut self) -> String {
        if self.0.is_empty() {
            self.0.push('{');
        }
        self.0.push('}');
        std::mem::take(&mut self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adshare::obs::json::{parse, Json};

    #[test]
    fn emitted_json_parses_back() {
        let inner = Obj::new().num("value", 1.25e-7).str("unit", "ms").end();
        let doc = Obj::new()
            .str("name", "a \"quoted\" name\n")
            .int("n", 18_446_744_073_709_551_615)
            .num("nan", f64::NAN)
            .raw("inner", inner)
            .raw("empty", Obj::new().end())
            .end();
        let parsed = parse(&doc).expect("parses");
        assert_eq!(
            parsed.get("name").and_then(|v| v.as_str()),
            Some("a \"quoted\" name\n")
        );
        assert_eq!(parsed.get("nan"), Some(&Json::Num(0.0)));
        assert_eq!(
            parsed.get("inner").and_then(|i| i.get("value")),
            Some(&Json::Num(1.25e-7))
        );
        assert!(parsed
            .get("empty")
            .and_then(|e| e.as_object())
            .is_some_and(|m| m.is_empty()));
    }
}

//! The encoder `sympiler_obs::json` leaves to its callers. That module
//! owns the value type, the parser and the string escaping; here is
//! only what turns a `Value` back into one line of text, for the result
//! line, the result files `compare` reads back, and the chrome-trace
//! file. Objects keep insertion order.

use crate::adapter::json::{escape, number};
pub use crate::adapter::json::{parse, Value};

pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn str(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

/// Compact, single-line encoding. Numbers print with Rust's shortest
/// round-trip digits (a whole number without a fraction), so a measured
/// time keeps all of them. Non-finite numbers have no JSON form;
/// `result_line` refuses them before they get here.
pub fn encode(v: &Value) -> String {
    let mut out = String::new();
    write(v, &mut out);
    out
}

fn write(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(x) => out.push_str(&number(*x)),
        Value::String(s) => quoted(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write(item, out);
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                quoted(k, out);
                out.push_str(": ");
                write(item, out);
            }
            out.push('}');
        }
    }
}

fn quoted(s: &str, out: &mut String) {
    out.push('"');
    out.push_str(&escape(s));
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_all_measured_digits() {
        assert_eq!(encode(&Value::Number(1000.0)), "1000");
        assert_eq!(encode(&Value::Number(0.0)), "0");
        assert_eq!(encode(&Value::Number(1.2034567891)), "1.2034567891");
        let v = 0.1 + 0.2;
        assert_eq!(parse(&encode(&Value::Number(v))), Ok(Value::Number(v)));
    }

    #[test]
    fn result_line_round_trips() {
        let line = obj([
            ("correct", Value::Bool(true)),
            ("attempted", Value::Number(1000.0)),
            ("failed", Value::Number(0.0)),
            (
                "metrics",
                obj([(
                    "solve_ms_p50",
                    obj([("value", Value::Number(1.25)), ("unit", str("ms"))]),
                )]),
            ),
        ]);
        let text = encode(&line);
        assert_eq!(
            text,
            r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"solve_ms_p50": {"value": 1.25, "unit": "ms"}}}"#
        );
        assert_eq!(parse(&text), Ok(line));
    }

    #[test]
    fn strings_are_escaped_and_lists_nest() {
        let s = str("a\"b\\c\nd\u{1}é");
        assert_eq!(encode(&s), "\"a\\\"b\\\\c\\nd\\u0001é\"");
        assert_eq!(parse(&encode(&s)), Ok(s));
        let nested = Value::Array(vec![
            Value::Number(-2500.0),
            Value::Null,
            Value::Array(vec![]),
            obj::<&str>([]),
        ]);
        assert_eq!(encode(&nested), "[-2500, null, [], {}]");
        assert_eq!(parse(&encode(&nested)), Ok(nested));
    }
}

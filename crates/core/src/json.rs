//! Hand-rolled JSON helpers shared by every artifact emitter.
//!
//! The repo's bench binaries and the job server hand-roll their JSON
//! wire output (no serde in the offline build), so correctness is
//! enforced at the seams instead: [`validate_json`] is a tiny
//! recursive-descent checker run over every emitted document in CI
//! and in the serve client, and [`json_escape`] is the one string
//! escaper those emitters share — `craft-sim`'s, which the telemetry
//! renderer uses too, re-exported here.

pub use craft_sim::telemetry::json_escape;

/// Validates that `s` is one well-formed JSON value (with nothing but
/// whitespace after it), returning the parse-failure position on error.
/// A tiny recursive-descent checker — the bench binaries and the job
/// server hand-roll their JSON artifacts, and this catches malformed
/// output in CI without a serde dependency.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }
    fn fail(b: &[u8], i: usize, what: &str) -> String {
        let ctx: String = b[i.min(b.len())..(i + 20).min(b.len())]
            .iter()
            .map(|&c| c as char)
            .collect();
        format!("{what} at byte {i} (near {ctx:?})")
    }
    fn value(b: &[u8], i: &mut usize, depth: u32) -> Result<(), String> {
        if depth > 64 {
            return Err(fail(b, *i, "nesting too deep"));
        }
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => {
                *i += 1;
                skip_ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    skip_ws(b, i);
                    string(b, i)?;
                    skip_ws(b, i);
                    if b.get(*i) != Some(&b':') {
                        return Err(fail(b, *i, "expected ':'"));
                    }
                    *i += 1;
                    value(b, i, depth + 1)?;
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return Ok(());
                        }
                        _ => return Err(fail(b, *i, "expected ',' or '}'")),
                    }
                }
            }
            Some(b'[') => {
                *i += 1;
                skip_ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    value(b, i, depth + 1)?;
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return Ok(());
                        }
                        _ => return Err(fail(b, *i, "expected ',' or ']'")),
                    }
                }
            }
            Some(b'"') => string(b, i),
            Some(b't') => literal(b, i, "true"),
            Some(b'f') => literal(b, i, "false"),
            Some(b'n') => literal(b, i, "null"),
            Some(c) if *c == b'-' || c.is_ascii_digit() => number(b, i),
            _ => Err(fail(b, *i, "expected a JSON value")),
        }
    }
    fn literal(b: &[u8], i: &mut usize, word: &str) -> Result<(), String> {
        if b[*i..].starts_with(word.as_bytes()) {
            *i += word.len();
            Ok(())
        } else {
            Err(fail(b, *i, "bad literal"))
        }
    }
    fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
        if b.get(*i) != Some(&b'"') {
            return Err(fail(b, *i, "expected '\"'"));
        }
        *i += 1;
        while let Some(&c) = b.get(*i) {
            match c {
                b'"' => {
                    *i += 1;
                    return Ok(());
                }
                b'\\' => match b.get(*i + 1) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 2,
                    Some(b'u') => {
                        if b.len() < *i + 6 || !b[*i + 2..*i + 6].iter().all(u8::is_ascii_hexdigit)
                        {
                            return Err(fail(b, *i, "bad \\u escape"));
                        }
                        *i += 6;
                    }
                    _ => return Err(fail(b, *i, "bad escape")),
                },
                0x00..=0x1f => return Err(fail(b, *i, "raw control char in string")),
                _ => *i += 1,
            }
        }
        Err(fail(b, *i, "unterminated string"))
    }
    fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
        let start = *i;
        if b.get(*i) == Some(&b'-') {
            *i += 1;
        }
        let digits = |b: &[u8], i: &mut usize| {
            let s = *i;
            while *i < b.len() && b[*i].is_ascii_digit() {
                *i += 1;
            }
            *i > s
        };
        if !digits(b, i) {
            return Err(fail(b, start, "bad number"));
        }
        if b.get(*i) == Some(&b'.') {
            *i += 1;
            if !digits(b, i) {
                return Err(fail(b, start, "bad fraction"));
            }
        }
        if matches!(b.get(*i), Some(b'e' | b'E')) {
            *i += 1;
            if matches!(b.get(*i), Some(b'+' | b'-')) {
                *i += 1;
            }
            if !digits(b, i) {
                return Err(fail(b, start, "bad exponent"));
            }
        }
        Ok(())
    }
    value(b, &mut i, 0)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(fail(b, i, "trailing garbage"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_documents() {
        for ok in [
            "{}",
            "[1, 2.5, -3e+7, \"s\", true, false, null]",
            "{\"a\": {\"b\": [\"\\u0041\\n\"]}}  ",
        ] {
            assert!(validate_json(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "01x",
            "{} trailing",
            "\"\x01\"",
        ] {
            assert!(validate_json(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn escaped_strings_survive_validation() {
        let nasty = "line\nbreak \"quote\" back\\slash \t \u{1}";
        let doc = format!("{{\"s\": \"{}\"}}", json_escape(nasty));
        assert!(validate_json(&doc).is_ok(), "{doc}");
    }
}

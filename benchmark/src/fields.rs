//! Field extraction from the one-line JSON objects this benchmark and the
//! job server write themselves. The writers fix the shape (`"key": value`,
//! one space), so a search for the key is enough; a general JSON tree is not
//! needed.

/// What follows `"key": ` in `line`.
pub fn after<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\": ");
    Some(&line[line.find(&tag)? + tag.len()..])
}

/// The number that `"key": ` introduces.
pub fn num(line: &str, key: &str) -> Option<f64> {
    let rest = after(line, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The string that `"key": "` introduces, up to its closing quote. The
/// writers escape nothing in the fields read back this way except the CPU
/// model, which is only displayed.
pub fn text<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    after(line, key)?.strip_prefix('"')?.split('"').next()
}

/// `"name": {"value": <number>, ..}` out of a result line.
pub fn metric(line: &str, name: &str) -> Option<f64> {
    num(after(line, name)?, "value")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_of_a_result_line() {
        let line = "{\"workload\": \"fig6_sim\", \"result\": {\"correct\": true, \
                    \"attempted\": 840, \"failed\": 0, \"metrics\": {\"op_p50_ms\": \
                    {\"value\": 12.75, \"unit\": \"ms\"}, \"ops_per_s\": {\"value\": 7.7e1, \
                    \"unit\": \"1/s\"}}}}";
        assert_eq!(text(line, "workload"), Some("fig6_sim"));
        assert_eq!(num(line, "attempted"), Some(840.0));
        assert_eq!(metric(line, "op_p50_ms"), Some(12.75));
        assert_eq!(metric(line, "ops_per_s"), Some(77.0));
        assert_eq!(metric(line, "setup_s"), None);
        assert!(after(line, "correct").is_some_and(|r| r.starts_with("true")));
    }
}

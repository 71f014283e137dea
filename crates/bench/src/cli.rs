//! Conventions shared by the `tessera-*` command-line tools: the
//! `--format` vocabulary, the `tessera/1` JSON envelope, and the
//! documented exit-code contract.
//!
//! Every tool that emits machine-readable output wraps it in one
//! envelope so a consumer can dispatch on `tool` without knowing which
//! binary produced the bytes:
//!
//! ```json
//! {"schema": "tessera/1", "tool": "tessera-lint", "payload": ...}
//! ```
//!
//! The payload bytes are the tool's pre-envelope JSON, embedded
//! *verbatim* (modulo the trailing newline) — existing payload schemas
//! (`tessera-fix/1` plans, lint reports, `BENCH_*.json`) are unchanged.

use std::fmt;
use std::process::ExitCode;

/// The exit-code contract every `tessera-*` tool follows.
///
/// | code | meaning |
/// |------|---------|
/// | 0    | ran to completion; nothing the tool polices was violated |
/// | 1    | ran to completion, but found what it polices (lint errors, a missed `--require-improvement`, a baseline/golden divergence) |
/// | 2    | usage error: bad flags, unknown circuit, unreadable input |
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ToolExit {
    /// Clean run.
    Success,
    /// The tool's findings warrant a failing exit (not a tool error).
    Findings,
    /// The invocation itself was wrong.
    Usage,
}

impl From<ToolExit> for ExitCode {
    fn from(e: ToolExit) -> Self {
        match e {
            ToolExit::Success => ExitCode::SUCCESS,
            ToolExit::Findings => ExitCode::FAILURE,
            ToolExit::Usage => ExitCode::from(2),
        }
    }
}

/// Output format selected by `--format` (shared flag vocabulary).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Format {
    /// Human-readable tables/prose (the default).
    #[default]
    Text,
    /// One `tessera/1` envelope on stdout.
    Json,
}

impl Format {
    /// Parses a `--format` value.
    ///
    /// # Errors
    ///
    /// A usage-error message for anything but `text` or `json`.
    pub fn parse(value: &str) -> Result<Self, String> {
        match value {
            "text" => Ok(Format::Text),
            "json" => Ok(Format::Json),
            other => Err(format!("unknown format '{other}' (expected text|json)")),
        }
    }
}

/// A tool's JSON payload wrapped in the shared `tessera/1` envelope, as
/// a `Display` value ending in a newline: print it, or write it straight
/// into an output stream without building the document as a `String`.
///
/// `payload` must render one JSON value with no trailing whitespace
/// (trim a rendered payload with `str::trim_end`); its bytes are embedded
/// verbatim, so the payload inside the envelope is exactly the tool's
/// pre-envelope output.
pub fn envelope<'a>(tool: &'a str, payload: impl fmt::Display + 'a) -> impl fmt::Display + 'a {
    fmt::from_fn(move |f| {
        writeln!(
            f,
            "{{\"schema\": \"tessera/1\", \"tool\": {}, \"payload\": {payload}}}",
            dft_json::escaped(tool)
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_embeds_payload_bytes_verbatim() {
        let payload = "{\n  \"design\": \"c17\",\n  \"clean\": true\n}\n";
        let wrapped = envelope("tessera-lint", payload.trim_end()).to_string();
        assert!(wrapped
            .starts_with("{\"schema\": \"tessera/1\", \"tool\": \"tessera-lint\", \"payload\": "));
        assert!(wrapped.contains(payload.trim_end()));
        assert!(wrapped.ends_with("}\n"));
        // The envelope parses, and the payload inside is untouched.
        let doc = dft_json::parse(&wrapped).expect("envelope is valid JSON");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("tessera/1")
        );
        assert_eq!(
            doc.get("payload")
                .and_then(|p| p.get("design"))
                .and_then(|v| v.as_str()),
            Some("c17")
        );
    }

    #[test]
    fn exit_codes_follow_the_contract() {
        // ExitCode has no PartialEq; the conversions existing (and the
        // variants' documented meanings) are the contract under test.
        let _: ExitCode = ToolExit::Success.into();
        let _: ExitCode = ToolExit::Findings.into();
        let _: ExitCode = ToolExit::Usage.into();
        assert_eq!(Format::parse("json"), Ok(Format::Json));
        assert_eq!(Format::parse("text"), Ok(Format::Text));
        assert!(Format::parse("yaml").is_err());
    }
}

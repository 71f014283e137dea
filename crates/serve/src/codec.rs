//! The versioned `tessera-serve/1` wire codec.
//!
//! Every message — request or response — is one compact JSON envelope:
//!
//! ```json
//! {"schema":"tessera-serve/1","type":"<kind>","body":{...}}
//! ```
//!
//! The `type` is the kebab-case name from [`Request::kind`] /
//! [`Response::kind`]; the `body` shape is fixed per type. Encoding is
//! a straight [`JsonWriter`] pass (byte-deterministic: same message,
//! same bytes — the property the golden replay corpus pins); decoding
//! goes through the `dft-json` parser and rejects unknown schemas,
//! unknown types and missing or mistyped fields with a [`CodecError`]
//! naming the offending field. Decoding moves the large members — the
//! `body`, a lint `report`, the `/stats` document, a `load-bench`
//! netlist `text` — out of the parsed tree instead of cloning them, so
//! a message costs one parse.

use std::error::Error;
use std::fmt;

use dft_json::{parse, JsonWriter, Style, Value};

use crate::api::{DesignInfo, EcoEdit, ErrorCode, PodemOutcome, Request, Response, ScoapSummary};

/// The schema tag every envelope carries.
pub const SCHEMA: &str = "tessera-serve/1";

/// A decode failure: the message did not conform to `tessera-serve/1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError {
    /// What was wrong.
    pub message: String,
}

impl CodecError {
    fn new(message: impl Into<String>) -> Self {
        CodecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec: {}", self.message)
    }
}

impl Error for CodecError {}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn envelope(kind: &str, body: impl FnOnce(&mut JsonWriter)) -> String {
    let mut w = JsonWriter::new(Style::Compact);
    w.begin_object();
    w.kv_string("schema", SCHEMA);
    w.kv_string("type", kind);
    w.key("body");
    w.begin_object();
    body(&mut w);
    w.end_object();
    w.end_object();
    w.finish()
}

fn write_info(w: &mut JsonWriter, info: &DesignInfo) {
    w.kv_string("key", &info.key);
    w.kv_string("design", &info.design);
    w.kv_u64("gates", info.gates as u64);
    w.kv_u64("inputs", info.inputs as u64);
    w.kv_u64("outputs", info.outputs as u64);
    w.kv_u64("revision", info.revision);
}

fn write_edit(w: &mut JsonWriter, edit: &EcoEdit) {
    w.begin_object();
    match edit {
        EcoEdit::AddGate { kind, inputs } => {
            w.kv_string("op", "add-gate");
            w.kv_string("kind", kind);
            w.key("inputs");
            w.begin_array();
            for i in inputs {
                w.u64(*i as u64);
            }
            w.end_array();
        }
        EcoEdit::RemoveGate { gate, value } => {
            w.kv_string("op", "remove-gate");
            w.kv_u64("gate", *gate as u64);
            w.kv_bool("value", *value);
        }
        EcoEdit::Rewire { gate, pin, new_src } => {
            w.kv_string("op", "rewire");
            w.kv_u64("gate", *gate as u64);
            w.kv_u64("pin", *pin as u64);
            w.kv_u64("new_src", *new_src as u64);
        }
        EcoEdit::ReplaceGate { gate, kind, inputs } => {
            w.kv_string("op", "replace-gate");
            w.kv_u64("gate", *gate as u64);
            w.kv_string("kind", kind);
            w.key("inputs");
            w.begin_array();
            for i in inputs {
                w.u64(*i as u64);
            }
            w.end_array();
        }
    }
    w.end_object();
}

/// Encodes a request as one `tessera-serve/1` envelope line.
#[must_use]
pub fn encode_request(req: &Request) -> String {
    envelope(req.kind(), |w| match req {
        Request::Load { circuit } => w.kv_string("circuit", circuit),
        Request::LoadBench { name, text } => {
            w.kv_string("name", name);
            w.kv_string("text", text);
        }
        Request::Drop { design } | Request::Lint { design } | Request::Scoap { design } => {
            w.kv_string("design", design)
        }
        Request::Designs | Request::Stats | Request::Shutdown => {}
        Request::FaultSim {
            design,
            patterns,
            seed,
        }
        | Request::Dictionary {
            design,
            patterns,
            seed,
        } => {
            w.kv_string("design", design);
            w.kv_u64("patterns", *patterns as u64);
            w.kv_u64("seed", *seed);
        }
        Request::Podem {
            design,
            gate,
            pin,
            stuck,
        } => {
            w.kv_string("design", design);
            w.kv_u64("gate", *gate as u64);
            w.key("pin");
            match pin {
                Some(p) => w.u64(u64::from(*p)),
                None => w.null(),
            }
            w.kv_bool("stuck", *stuck);
        }
        Request::Eco { design, edits } => {
            w.kv_string("design", design);
            w.key("edits");
            w.begin_array();
            for e in edits {
                write_edit(w, e);
            }
            w.end_array();
        }
    })
}

/// Encodes a response as one `tessera-serve/1` envelope line.
#[must_use]
pub fn encode_response(resp: &Response) -> String {
    envelope(resp.kind(), |w| match resp {
        Response::Loaded(info) => write_info(w, info),
        Response::Dropped { design } => w.kv_string("design", design),
        Response::Designs { designs } => {
            w.key("designs");
            w.begin_array();
            for info in designs {
                w.begin_object();
                write_info(w, info);
                w.end_object();
            }
            w.end_array();
        }
        Response::Lint {
            design,
            revision,
            clean,
            errors,
            warnings,
            infos,
            report,
        } => {
            w.kv_string("design", design);
            w.kv_u64("revision", *revision);
            w.kv_bool("clean", *clean);
            w.kv_u64("errors", *errors as u64);
            w.kv_u64("warnings", *warnings as u64);
            w.kv_u64("infos", *infos as u64);
            w.key("report");
            w.value(report);
        }
        Response::Scoap {
            design,
            revision,
            gates,
            summary,
        } => {
            w.kv_string("design", design);
            w.kv_u64("revision", *revision);
            w.kv_u64("gates", *gates as u64);
            w.key("summary");
            w.begin_object();
            w.kv_u64("max_cc0", u64::from(summary.max_cc0));
            w.kv_u64("max_cc1", u64::from(summary.max_cc1));
            w.kv_u64("max_co", u64::from(summary.max_co));
            w.kv_f64("mean_difficulty", summary.mean_difficulty);
            w.key("hardest");
            w.begin_array();
            for (net, difficulty) in &summary.hardest {
                w.begin_object();
                w.kv_string("net", net);
                w.kv_u64("difficulty", u64::from(*difficulty));
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        Response::FaultSim {
            design,
            revision,
            faults,
            detected,
            coverage,
        } => {
            w.kv_string("design", design);
            w.kv_u64("revision", *revision);
            w.kv_u64("faults", *faults as u64);
            w.kv_u64("detected", *detected as u64);
            w.kv_f64("coverage", *coverage);
        }
        Response::Dictionary {
            design,
            revision,
            faults,
            patterns,
            resolution,
        } => {
            w.kv_string("design", design);
            w.kv_u64("revision", *revision);
            w.kv_u64("faults", *faults as u64);
            w.kv_u64("patterns", *patterns as u64);
            w.kv_f64("resolution", *resolution);
        }
        Response::Podem {
            design,
            revision,
            fault,
            outcome,
            backtracks,
            prefiltered,
            cube,
            response,
        } => {
            w.kv_string("design", design);
            w.kv_u64("revision", *revision);
            w.kv_string("fault", fault);
            w.kv_string("outcome", outcome.as_str());
            w.kv_u64("backtracks", *backtracks);
            w.kv_bool("prefiltered", *prefiltered);
            w.key("cube");
            match cube {
                Some(c) => w.string(c),
                None => w.null(),
            }
            w.key("response");
            match response {
                Some(r) => w.string(r),
                None => w.null(),
            }
        }
        Response::Eco {
            design,
            revision,
            applied,
            rejected,
            incremental,
        } => {
            w.kv_string("design", design);
            w.kv_u64("revision", *revision);
            w.kv_u64("applied", *applied as u64);
            w.key("rejected");
            w.begin_array();
            for r in rejected {
                w.string(r);
            }
            w.end_array();
            w.kv_bool("incremental", *incremental);
        }
        Response::Stats { stats } => {
            w.key("stats");
            w.value(stats);
        }
        Response::Shutdown => {}
        Response::Error {
            code,
            message,
            available,
        } => {
            w.kv_string("code", code.as_str());
            w.kv_string("message", message);
            w.key("available");
            w.begin_array();
            for a in available {
                w.string(a);
            }
            w.end_array();
        }
    })
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

fn field<'v>(body: &'v Value, key: &str) -> Result<&'v Value, CodecError> {
    body.get(key)
        .ok_or_else(|| CodecError::new(format!("missing field '{key}'")))
}

/// Moves member `key` (its first occurrence, as [`Value::get`] finds)
/// out of an object, leaving `null` in its place.
fn take(body: &mut Value, key: &str) -> Option<Value> {
    match body {
        Value::Obj(members) => members
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| std::mem::replace(v, Value::Null)),
        _ => None,
    }
}

fn take_field(body: &mut Value, key: &str) -> Result<Value, CodecError> {
    take(body, key).ok_or_else(|| CodecError::new(format!("missing field '{key}'")))
}

fn take_str_field(body: &mut Value, key: &str) -> Result<String, CodecError> {
    match take_field(body, key)? {
        Value::Str(s) => Ok(s),
        _ => Err(CodecError::new(format!("field '{key}' must be a string"))),
    }
}

fn str_field(body: &Value, key: &str) -> Result<String, CodecError> {
    field(body, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| CodecError::new(format!("field '{key}' must be a string")))
}

fn u64_field(body: &Value, key: &str) -> Result<u64, CodecError> {
    field(body, key)?
        .as_u64()
        .ok_or_else(|| CodecError::new(format!("field '{key}' must be a non-negative integer")))
}

fn usize_field(body: &Value, key: &str) -> Result<usize, CodecError> {
    usize::try_from(u64_field(body, key)?)
        .map_err(|_| CodecError::new(format!("field '{key}' out of range")))
}

fn bool_field(body: &Value, key: &str) -> Result<bool, CodecError> {
    field(body, key)?
        .as_bool()
        .ok_or_else(|| CodecError::new(format!("field '{key}' must be a boolean")))
}

fn f64_field(body: &Value, key: &str) -> Result<f64, CodecError> {
    field(body, key)?
        .as_f64()
        .ok_or_else(|| CodecError::new(format!("field '{key}' must be a number")))
}

fn opt_str_field(body: &Value, key: &str) -> Result<Option<String>, CodecError> {
    match field(body, key)? {
        Value::Null => Ok(None),
        v => v
            .as_str()
            .map(|s| Some(s.to_owned()))
            .ok_or_else(|| CodecError::new(format!("field '{key}' must be null or a string"))),
    }
}

fn string_list(body: &Value, key: &str) -> Result<Vec<String>, CodecError> {
    let arr = field(body, key)?
        .as_array()
        .ok_or_else(|| CodecError::new(format!("field '{key}' must be an array")))?;
    arr.iter()
        .map(|v| {
            v.as_str()
                .map(str::to_owned)
                .ok_or_else(|| CodecError::new(format!("field '{key}' must hold strings")))
        })
        .collect()
}

fn usize_list(body: &Value, key: &str) -> Result<Vec<usize>, CodecError> {
    let arr = field(body, key)?
        .as_array()
        .ok_or_else(|| CodecError::new(format!("field '{key}' must be an array")))?;
    arr.iter()
        .map(|v| {
            v.as_u64()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| CodecError::new(format!("field '{key}' must hold indices")))
        })
        .collect()
}

/// Splits a parsed envelope into `(type, body)` after schema check.
fn open_envelope(text: &str) -> Result<(String, Value), CodecError> {
    let mut doc = parse(text).map_err(|e| CodecError::new(format!("invalid JSON: {e}")))?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or_else(|| CodecError::new("missing 'schema'"))?;
    if schema != SCHEMA {
        return Err(CodecError::new(format!(
            "unsupported schema '{schema}' (want '{SCHEMA}')"
        )));
    }
    let kind = doc
        .get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| CodecError::new("missing 'type'"))?
        .to_owned();
    let body = take(&mut doc, "body").unwrap_or(Value::Obj(Vec::new()));
    if body.as_object().is_none() {
        return Err(CodecError::new("'body' must be an object"));
    }
    Ok((kind, body))
}

fn decode_edit(v: &Value) -> Result<EcoEdit, CodecError> {
    let op = str_field(v, "op")?;
    Ok(match op.as_str() {
        "add-gate" => EcoEdit::AddGate {
            kind: str_field(v, "kind")?,
            inputs: usize_list(v, "inputs")?,
        },
        "remove-gate" => EcoEdit::RemoveGate {
            gate: usize_field(v, "gate")?,
            value: bool_field(v, "value")?,
        },
        "rewire" => EcoEdit::Rewire {
            gate: usize_field(v, "gate")?,
            pin: usize_field(v, "pin")?,
            new_src: usize_field(v, "new_src")?,
        },
        "replace-gate" => EcoEdit::ReplaceGate {
            gate: usize_field(v, "gate")?,
            kind: str_field(v, "kind")?,
            inputs: usize_list(v, "inputs")?,
        },
        other => return Err(CodecError::new(format!("unknown eco op '{other}'"))),
    })
}

/// Decodes one request envelope.
///
/// # Errors
///
/// [`CodecError`] on malformed JSON, wrong schema, unknown type, or a
/// missing/mistyped body field.
pub fn decode_request(text: &str) -> Result<Request, CodecError> {
    let (kind, body) = open_envelope(text)?;
    decode_request_body(&kind, body)
}

/// Decodes a request from an already-split `(type, body)` pair — the
/// path HTTP per-endpoint routes use, where the type comes from the URL.
/// The body is consumed: a `load-bench` netlist moves into the request.
///
/// # Errors
///
/// [`CodecError`] on an unknown type or a missing/mistyped body field.
pub fn decode_request_body(kind: &str, mut body: Value) -> Result<Request, CodecError> {
    let body = &mut body;
    Ok(match kind {
        "load" => Request::Load {
            circuit: str_field(body, "circuit")?,
        },
        "load-bench" => Request::LoadBench {
            name: str_field(body, "name")?,
            text: take_str_field(body, "text")?,
        },
        "drop" => Request::Drop {
            design: str_field(body, "design")?,
        },
        "designs" => Request::Designs,
        "lint" => Request::Lint {
            design: str_field(body, "design")?,
        },
        "scoap" => Request::Scoap {
            design: str_field(body, "design")?,
        },
        "fault-sim" => Request::FaultSim {
            design: str_field(body, "design")?,
            patterns: usize_field(body, "patterns")?,
            seed: u64_field(body, "seed")?,
        },
        "dictionary" => Request::Dictionary {
            design: str_field(body, "design")?,
            patterns: usize_field(body, "patterns")?,
            seed: u64_field(body, "seed")?,
        },
        "podem" => Request::Podem {
            design: str_field(body, "design")?,
            gate: usize_field(body, "gate")?,
            pin: match field(body, "pin")? {
                Value::Null => None,
                v => Some(
                    v.as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| {
                            CodecError::new("field 'pin' must be null or a pin index")
                        })?,
                ),
            },
            stuck: bool_field(body, "stuck")?,
        },
        "eco" => Request::Eco {
            design: str_field(body, "design")?,
            edits: field(body, "edits")?
                .as_array()
                .ok_or_else(|| CodecError::new("field 'edits' must be an array"))?
                .iter()
                .map(decode_edit)
                .collect::<Result<_, _>>()?,
        },
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        other => return Err(CodecError::new(format!("unknown request type '{other}'"))),
    })
}

fn decode_info(body: &Value) -> Result<DesignInfo, CodecError> {
    Ok(DesignInfo {
        key: str_field(body, "key")?,
        design: str_field(body, "design")?,
        gates: usize_field(body, "gates")?,
        inputs: usize_field(body, "inputs")?,
        outputs: usize_field(body, "outputs")?,
        revision: u64_field(body, "revision")?,
    })
}

/// Decodes one response envelope.
///
/// # Errors
///
/// [`CodecError`] on malformed JSON, wrong schema, unknown type, or a
/// missing/mistyped body field.
pub fn decode_response(text: &str) -> Result<Response, CodecError> {
    let (kind, mut body) = open_envelope(text)?;
    Ok(match kind.as_str() {
        "loaded" => Response::Loaded(decode_info(&body)?),
        "dropped" => Response::Dropped {
            design: str_field(&body, "design")?,
        },
        "designs" => Response::Designs {
            designs: field(&body, "designs")?
                .as_array()
                .ok_or_else(|| CodecError::new("field 'designs' must be an array"))?
                .iter()
                .map(decode_info)
                .collect::<Result<_, _>>()?,
        },
        "lint-report" => Response::Lint {
            design: str_field(&body, "design")?,
            revision: u64_field(&body, "revision")?,
            clean: bool_field(&body, "clean")?,
            errors: usize_field(&body, "errors")?,
            warnings: usize_field(&body, "warnings")?,
            infos: usize_field(&body, "infos")?,
            report: std::sync::Arc::new(take_field(&mut body, "report")?),
        },
        "scoap" => {
            let summary = field(&body, "summary")?;
            Response::Scoap {
                design: str_field(&body, "design")?,
                revision: u64_field(&body, "revision")?,
                gates: usize_field(&body, "gates")?,
                summary: ScoapSummary {
                    max_cc0: decode_u32(summary, "max_cc0")?,
                    max_cc1: decode_u32(summary, "max_cc1")?,
                    max_co: decode_u32(summary, "max_co")?,
                    mean_difficulty: f64_field(summary, "mean_difficulty")?,
                    hardest: field(summary, "hardest")?
                        .as_array()
                        .ok_or_else(|| CodecError::new("field 'hardest' must be an array"))?
                        .iter()
                        .map(|h| Ok((str_field(h, "net")?, decode_u32(h, "difficulty")?)))
                        .collect::<Result<_, CodecError>>()?,
                },
            }
        }
        "fault-sim" => Response::FaultSim {
            design: str_field(&body, "design")?,
            revision: u64_field(&body, "revision")?,
            faults: usize_field(&body, "faults")?,
            detected: usize_field(&body, "detected")?,
            coverage: f64_field(&body, "coverage")?,
        },
        "dictionary" => Response::Dictionary {
            design: str_field(&body, "design")?,
            revision: u64_field(&body, "revision")?,
            faults: usize_field(&body, "faults")?,
            patterns: usize_field(&body, "patterns")?,
            resolution: f64_field(&body, "resolution")?,
        },
        "podem" => Response::Podem {
            design: str_field(&body, "design")?,
            revision: u64_field(&body, "revision")?,
            fault: str_field(&body, "fault")?,
            outcome: {
                let s = str_field(&body, "outcome")?;
                PodemOutcome::parse(&s)
                    .ok_or_else(|| CodecError::new(format!("unknown podem outcome '{s}'")))?
            },
            backtracks: u64_field(&body, "backtracks")?,
            prefiltered: bool_field(&body, "prefiltered")?,
            cube: opt_str_field(&body, "cube")?,
            response: opt_str_field(&body, "response")?,
        },
        "eco" => Response::Eco {
            design: str_field(&body, "design")?,
            revision: u64_field(&body, "revision")?,
            applied: usize_field(&body, "applied")?,
            rejected: string_list(&body, "rejected")?,
            incremental: bool_field(&body, "incremental")?,
        },
        "stats" => Response::Stats {
            stats: take_field(&mut body, "stats")?,
        },
        "shutdown" => Response::Shutdown,
        "error" => Response::Error {
            code: {
                let s = str_field(&body, "code")?;
                ErrorCode::parse(&s)
                    .ok_or_else(|| CodecError::new(format!("unknown error code '{s}'")))?
            },
            message: str_field(&body, "message")?,
            available: string_list(&body, "available")?,
        },
        other => return Err(CodecError::new(format!("unknown response type '{other}'"))),
    })
}

fn decode_u32(body: &Value, key: &str) -> Result<u32, CodecError> {
    u32::try_from(u64_field(body, key)?)
        .map_err(|_| CodecError::new(format!("field '{key}' out of range")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let wire = encode_request(&req);
        assert_eq!(decode_request(&wire).unwrap(), req, "wire: {wire}");
    }

    fn round_trip_response(resp: Response) {
        let wire = encode_response(&resp);
        assert_eq!(decode_response(&wire).unwrap(), resp, "wire: {wire}");
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Load {
            circuit: "c17".into(),
        });
        round_trip_request(Request::LoadBench {
            name: "tiny".into(),
            text: "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n".into(),
        });
        round_trip_request(Request::Drop {
            design: "c17".into(),
        });
        round_trip_request(Request::Designs);
        round_trip_request(Request::Lint {
            design: "c17".into(),
        });
        round_trip_request(Request::Scoap {
            design: "c17".into(),
        });
        round_trip_request(Request::FaultSim {
            design: "c17".into(),
            patterns: 256,
            seed: 7,
        });
        round_trip_request(Request::Dictionary {
            design: "c17".into(),
            patterns: 64,
            seed: 1,
        });
        round_trip_request(Request::Podem {
            design: "c17".into(),
            gate: 8,
            pin: Some(1),
            stuck: false,
        });
        round_trip_request(Request::Podem {
            design: "c17".into(),
            gate: 8,
            pin: None,
            stuck: true,
        });
        round_trip_request(Request::Eco {
            design: "c17".into(),
            edits: vec![
                EcoEdit::AddGate {
                    kind: "nand".into(),
                    inputs: vec![0, 1],
                },
                EcoEdit::RemoveGate {
                    gate: 7,
                    value: true,
                },
                EcoEdit::Rewire {
                    gate: 9,
                    pin: 0,
                    new_src: 2,
                },
                EcoEdit::ReplaceGate {
                    gate: 6,
                    kind: "xor".into(),
                    inputs: vec![3, 4],
                },
            ],
        });
        round_trip_request(Request::Stats);
        round_trip_request(Request::Shutdown);
    }

    #[test]
    fn responses_round_trip() {
        let info = DesignInfo {
            key: "a1b2".into(),
            design: "c17".into(),
            gates: 11,
            inputs: 5,
            outputs: 2,
            revision: 3,
        };
        round_trip_response(Response::Loaded(info.clone()));
        round_trip_response(Response::Dropped {
            design: "c17".into(),
        });
        round_trip_response(Response::Designs {
            designs: vec![info],
        });
        round_trip_response(Response::Lint {
            design: "c17".into(),
            revision: 0,
            clean: true,
            errors: 0,
            warnings: 0,
            infos: 2,
            report: std::sync::Arc::new(
                parse("{\"schema\":\"tessera-lint/1\",\"clean\":true}").unwrap(),
            ),
        });
        round_trip_response(Response::Scoap {
            design: "c17".into(),
            revision: 1,
            gates: 11,
            summary: ScoapSummary {
                max_cc0: 5,
                max_cc1: 7,
                max_co: 9,
                mean_difficulty: 4.25,
                hardest: vec![("g10".into(), 21), ("g9".into(), 18)],
            },
        });
        round_trip_response(Response::FaultSim {
            design: "c17".into(),
            revision: 0,
            faults: 46,
            detected: 46,
            coverage: 1.0,
        });
        round_trip_response(Response::Dictionary {
            design: "c17".into(),
            revision: 0,
            faults: 46,
            patterns: 64,
            resolution: 0.5,
        });
        round_trip_response(Response::Podem {
            design: "c17".into(),
            revision: 2,
            fault: "g8.in1 s-a-0".into(),
            outcome: PodemOutcome::Test,
            backtracks: 3,
            prefiltered: false,
            cube: Some("01X1X".into()),
            response: Some("10".into()),
        });
        round_trip_response(Response::Podem {
            design: "c17".into(),
            revision: 2,
            fault: "g8 s-a-1".into(),
            outcome: PodemOutcome::Untestable,
            backtracks: 0,
            prefiltered: true,
            cube: None,
            response: None,
        });
        round_trip_response(Response::Eco {
            design: "c17".into(),
            revision: 4,
            applied: 2,
            rejected: vec!["edit 1: cycle".into()],
            incremental: true,
        });
        round_trip_response(Response::Stats {
            stats: parse("{\"requests\":12,\"endpoints\":[]}").unwrap(),
        });
        round_trip_response(Response::Shutdown);
        round_trip_response(Response::Error {
            code: ErrorCode::UnknownDesign,
            message: "design 'c18' is not loaded".into(),
            available: vec!["c17".into()],
        });
    }

    #[test]
    fn envelope_bytes_are_stable() {
        let wire = encode_request(&Request::FaultSim {
            design: "c17".into(),
            patterns: 32,
            seed: 5,
        });
        assert_eq!(
            wire,
            "{\"schema\":\"tessera-serve/1\",\"type\":\"fault-sim\",\
             \"body\":{\"design\":\"c17\",\"patterns\":32,\"seed\":5}}"
        );
    }

    #[test]
    fn bad_envelopes_are_rejected() {
        assert!(decode_request("not json").is_err());
        assert!(decode_request("{\"schema\":\"wrong/9\",\"type\":\"stats\"}").is_err());
        assert!(decode_request("{\"schema\":\"tessera-serve/1\",\"type\":\"nope\"}").is_err());
        assert!(
            decode_request("{\"schema\":\"tessera-serve/1\",\"type\":\"lint\",\"body\":{}}")
                .is_err()
        );
        assert!(decode_request(
            "{\"schema\":\"tessera-serve/1\",\"type\":\"lint\",\"body\":{\"design\":3}}"
        )
        .is_err());
        // Body may be omitted entirely for field-less requests.
        assert_eq!(
            decode_request("{\"schema\":\"tessera-serve/1\",\"type\":\"stats\"}").unwrap(),
            Request::Stats
        );
        assert!(decode_response("{\"schema\":\"tessera-serve/1\",\"type\":\"error\",\"body\":{\"code\":\"weird\",\"message\":\"m\",\"available\":[]}}").is_err());
    }
}

//! Newline-delimited-JSON wire protocol.
//!
//! One request per line, one reply per line, in order. Requests carry an
//! `"op"` discriminator and an optional `"id"` the reply echoes back so a
//! pipelining client can match replies to requests:
//!
//! ```text
//! {"op":"score","ids":[3,17,4]}        -> {"ok":true,"scores":[...],"version":0}
//! {"op":"health"}                      -> {"ok":true,"status":"ok",...}
//! {"op":"stats"}                       -> {"ok":true,"requests":...,...}
//! {"op":"update_poi","region":3,
//!  "poi":[...]}                        -> {"ok":true,"version":1,"reembedded":...}
//! anything else                        -> {"ok":false,"error":"..."}
//! ```
//!
//! Parsing goes through the vendored [`serde_json::Value`] tree; a
//! malformed line is an *error reply*, never a process death — the serve
//! smoke gate feeds this path garbage on purpose.

use serde_json::Value;

/// Hard cap on ids per score request; bounds worst-case work a single
/// request can pin on a worker (larger asks are split by the client).
pub const MAX_IDS_PER_REQUEST: usize = 65_536;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Score {
        ids: Vec<u32>,
        tag: Option<Value>,
    },
    Health {
        tag: Option<Value>,
    },
    Stats {
        tag: Option<Value>,
    },
    UpdatePoi {
        region: u64,
        poi: Vec<f32>,
        tag: Option<Value>,
    },
}

impl Request {
    /// The request tag, if the client sent one.
    pub fn tag(&self) -> Option<&Value> {
        match self {
            Request::Score { tag, .. }
            | Request::Health { tag }
            | Request::Stats { tag }
            | Request::UpdatePoi { tag, .. } => tag.as_ref(),
        }
    }
}

fn as_index(v: &Value) -> Option<u64> {
    let f = v.as_f64()?;
    if f.is_finite() && f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 {
        Some(f as u64)
    } else {
        None
    }
}

/// Parse the `"ids"` array of a `score` request.
fn parse_ids(v: &Value) -> Result<Vec<u32>, String> {
    // Accept both the paper-facing name and the short form.
    let ids_val = v
        .get("ids")
        .or_else(|| v.get("region_ids"))
        .ok_or_else(|| "score request needs an \"ids\" array".to_string())?;
    let arr = match ids_val {
        Value::Array(a) => a,
        _ => return Err("\"ids\" must be an array of region ids".to_string()),
    };
    if arr.is_empty() {
        return Err("\"ids\" must not be empty".to_string());
    }
    if arr.len() > MAX_IDS_PER_REQUEST {
        return Err(format!(
            "\"ids\" has {} entries; the per-request cap is {MAX_IDS_PER_REQUEST}",
            arr.len()
        ));
    }
    let mut ids = Vec::with_capacity(arr.len());
    for e in arr {
        let idx = as_index(e)
            .filter(|&i| i <= u32::MAX as u64)
            .ok_or_else(|| format!("region id {e:?} is not a non-negative integer"))?;
        ids.push(idx as u32);
    }
    Ok(ids)
}

/// Parse one request line. Errors are client-facing strings.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = serde_json::from_str_value(line).map_err(|e| format!("malformed JSON: {e}"))?;
    let tag = v.get("id").cloned();
    let op = v
        .get("op")
        .and_then(|o| o.as_str())
        .ok_or_else(|| "missing string field \"op\"".to_string())?;
    match op {
        "score" => Ok(Request::Score {
            ids: parse_ids(&v)?,
            tag,
        }),
        "health" => Ok(Request::Health { tag }),
        "stats" => Ok(Request::Stats { tag }),
        "update_poi" => {
            let region = v
                .get("region")
                .and_then(as_index)
                .ok_or_else(|| "update_poi needs a non-negative integer \"region\"".to_string())?;
            let poi_val = v
                .get("poi")
                .ok_or_else(|| "update_poi needs a \"poi\" array".to_string())?;
            let arr = match poi_val {
                Value::Array(a) => a,
                _ => return Err("\"poi\" must be an array of numbers".to_string()),
            };
            let mut poi = Vec::with_capacity(arr.len());
            for e in arr {
                let f = e
                    .as_f64()
                    .filter(|f| f.is_finite())
                    .ok_or_else(|| format!("poi entry {e:?} is not a finite number"))?;
                poi.push(f as f32);
            }
            Ok(Request::UpdatePoi { region, poi, tag })
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

fn finish(mut obj: Vec<(String, Value)>, tag: Option<&Value>) -> String {
    if let Some(t) = tag {
        obj.push(("id".to_string(), t.clone()));
    }
    // Object serialization preserves insertion order, so replies always
    // lead with "ok" — cheap for clients to peek at.
    serde_json::to_string(&Value::Object(obj)).expect("reply serialization is infallible")
}

/// `{"ok":false,"error":...}` reply.
pub fn error_reply(msg: &str, tag: Option<&Value>) -> String {
    finish(
        vec![
            ("ok".to_string(), Value::Bool(false)),
            ("error".to_string(), Value::Str(msg.to_string())),
        ],
        tag,
    )
}

/// `{"ok":true,"scores":[...],"version":v}` reply.
pub fn score_reply(scores: &[f32], version: u64, tag: Option<&Value>) -> String {
    let arr = scores.iter().map(|&s| Value::Num(s as f64)).collect();
    finish(
        vec![
            ("ok".to_string(), Value::Bool(true)),
            ("scores".to_string(), Value::Array(arr)),
            ("version".to_string(), Value::Num(version as f64)),
        ],
        tag,
    )
}

/// Health reply with the basics a load balancer probes for.
pub fn health_reply(n_regions: usize, version: u64, workers: usize, tag: Option<&Value>) -> String {
    finish(
        vec![
            ("ok".to_string(), Value::Bool(true)),
            ("status".to_string(), Value::Str("ok".to_string())),
            ("regions".to_string(), Value::Num(n_regions as f64)),
            ("version".to_string(), Value::Num(version as f64)),
            ("workers".to_string(), Value::Num(workers as f64)),
        ],
        tag,
    )
}

/// Stats reply from a counter snapshot (name, value) list.
pub fn stats_reply<K: AsRef<str>>(fields: &[(K, u64)], tag: Option<&Value>) -> String {
    let mut obj = vec![("ok".to_string(), Value::Bool(true))];
    for (k, v) in fields {
        obj.push((k.as_ref().to_string(), Value::Num(*v as f64)));
    }
    finish(obj, tag)
}

/// `{"ok":true,"version":v,"reembedded":n,"subgraph":m}` reply.
pub fn update_reply(
    version: u64,
    reembedded: usize,
    subgraph: usize,
    tag: Option<&Value>,
) -> String {
    finish(
        vec![
            ("ok".to_string(), Value::Bool(true)),
            ("version".to_string(), Value::Num(version as f64)),
            ("reembedded".to_string(), Value::Num(reembedded as f64)),
            ("subgraph".to_string(), Value::Num(subgraph as f64)),
        ],
        tag,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_round_trip() {
        let r = parse_request(r#"{"op":"score","ids":[3,17,4],"id":"req-1"}"#).unwrap();
        match &r {
            Request::Score { ids, tag } => {
                assert_eq!(ids, &[3, 17, 4]);
                assert_eq!(tag.as_ref().unwrap().as_str(), Some("req-1"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let reply = score_reply(&[0.5, 0.25], 7, r.tag());
        let v = serde_json::from_str_value(&reply).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(v.get("version").and_then(|x| x.as_f64()), Some(7.0));
        assert_eq!(v.get("id").and_then(|x| x.as_str()), Some("req-1"));
    }

    #[test]
    fn region_ids_alias_is_accepted() {
        let r = parse_request(r#"{"op":"score","region_ids":[1]}"#).unwrap();
        assert!(matches!(r, Request::Score { ref ids, .. } if ids == &[1]));
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        for bad in [
            "not json at all",
            "{\"op\":42}",
            r#"{"op":"score"}"#,
            r#"{"op":"score","ids":[]}"#,
            r#"{"op":"score","ids":[-1]}"#,
            r#"{"op":"score","ids":[1.5]}"#,
            r#"{"op":"warp"}"#,
            r#"{"op":"tasks","ids":[0]}"#,
            r#"{"op":"update_poi","poi":[1]}"#,
            r#"{"op":"update_poi","region":0,"poi":["x"]}"#,
        ] {
            let err = parse_request(bad).unwrap_err();
            let reply = error_reply(&err, None);
            let v = serde_json::from_str_value(&reply).unwrap();
            assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "bad line: {bad}");
        }
    }

    #[test]
    fn update_poi_parses() {
        let r = parse_request(r#"{"op":"update_poi","region":3,"poi":[0.5,1.0]}"#).unwrap();
        match r {
            Request::UpdatePoi { region, poi, .. } => {
                assert_eq!(region, 3);
                assert_eq!(poi, vec![0.5, 1.0]);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }
}

//! Spans as the program emits them (Chrome trace-event files from
//! `dpipe plan --trace` and `dpipe serve --trace-dir`, or an in-process
//! `Tracer`), and the self-time arithmetic over them.

use diffusionpipe::spec::json::{parse, JsonValue};
use diffusionpipe::trace::{AttrValue, Trace};
use std::collections::HashMap;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_us: u64,
    pub dur_us: u64,
    /// Numeric attributes only (counts, flags as 0/1).
    pub attrs: Vec<(String, f64)>,
}

impl Span {
    pub fn attr(&self, key: &str) -> Option<f64> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// Parses one Chrome trace-event document.
pub fn from_chrome(text: &str) -> Option<Vec<Span>> {
    let doc = parse(text).ok()?;
    let events = doc.get("traceEvents")?.as_array()?;
    let mut out = Vec::with_capacity(events.len());
    for e in events {
        let args = e.get("args")?.as_object()?;
        let mut attrs = Vec::new();
        let (mut id, mut parent) = (0, None);
        for (k, v) in args {
            let num = match v {
                JsonValue::Bool(b) => Some(f64::from(u8::from(*b))),
                other => other.as_f64(),
            };
            match (k.as_str(), num) {
                ("span_id", Some(n)) => id = n as u64,
                ("parent_id", Some(n)) => parent = Some(n as u64),
                (_, Some(n)) => attrs.push((k.clone(), n)),
                _ => {}
            }
        }
        out.push(Span {
            id,
            parent,
            name: e.get("name")?.as_str()?.to_owned(),
            start_us: e.get("ts")?.as_f64()? as u64,
            dur_us: e.get("dur")?.as_f64()? as u64,
            attrs,
        });
    }
    Some(out)
}

/// Converts an in-process trace.
pub fn from_trace(trace: &Trace) -> Vec<Span> {
    trace
        .spans
        .iter()
        .map(|s| Span {
            id: s.id,
            parent: s.parent,
            name: s.name.clone(),
            start_us: s.start_us,
            dur_us: s.duration_us(),
            attrs: s
                .attrs
                .iter()
                .filter_map(|(k, v)| {
                    let n = match v {
                        AttrValue::UInt(n) => *n as f64,
                        AttrValue::Int(n) => *n as f64,
                        AttrValue::Float(n) => *n,
                        AttrValue::Bool(b) => f64::from(u8::from(*b)),
                        AttrValue::Str(_) => return None,
                    };
                    Some((k.clone(), n))
                })
                .collect(),
        })
        .collect()
}

/// Self time of every span in microseconds: its duration minus the part of
/// its interval that its children cover (children on other threads may
/// overlap each other; their union is subtracted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry(p)
                .or_default()
                .push((s.start_us, s.start_us + s.dur_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let (lo, hi) = (s.start_us, s.start_us + s.dur_us);
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|v| v.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).collect())
                .unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, lo);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_us.saturating_sub(covered)
        })
        .collect()
}

/// Summed self time per span name, in microseconds.
pub fn self_by_name(spans: &[Span]) -> HashMap<String, u64> {
    let mut out: HashMap<String, u64> = HashMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name.clone()).or_default() += t;
    }
    out
}

/// Summed duration per span name, in microseconds.
pub fn total_by_name(spans: &[Span]) -> HashMap<String, u64> {
    let mut out: HashMap<String, u64> = HashMap::new();
    for s in spans {
        *out.entry(s.name.clone()).or_default() += s.dur_us;
    }
    out
}

/// The first span called `name`.
pub fn find<'a>(spans: &'a [Span], name: &str) -> Option<&'a Span> {
    spans.iter().find(|s| s.name == name)
}

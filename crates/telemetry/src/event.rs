//! Event records: a timestamp, a static name and a flat list of fields.
//!
//! Field keys and event names are `&'static str` so the enabled path
//! allocates only for the field vector and any string *values*; the
//! disabled path never constructs an event at all (see
//! [`crate::Recorder::emit`]).

use tranad_json::Json;

/// A single field value. Numbers stay `f64`/`u64` until serialization so
/// in-memory sinks can be queried without parsing.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A floating-point field (losses, seconds, thresholds).
    F64(f64),
    /// An integer field (epochs, counts). Serialized as a JSON number;
    /// exact up to 2^53 like the rest of `tranad-json`.
    U64(u64),
    /// A boolean field (improved, fallback, ok).
    Bool(bool),
    /// A string field (method names, error messages).
    Str(String),
}

/// One telemetry event: what happened (`name`), when (`time_s`, seconds
/// since the recorder was created) and the event-specific fields.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Seconds since the owning recorder was created.
    pub time_s: f64,
    /// Event name, dot-namespaced by subsystem (`train.epoch`, `pot.dim`,
    /// `pool.buffers`, `bench.cell`, ...).
    pub name: &'static str,
    /// Ordered `(key, value)` pairs; keys are unique per event.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// The field named `key`, if present.
    pub(crate) fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Numeric field accessor (accepts both float and integer fields).
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            Value::F64(x) => Some(*x),
            Value::U64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// Integer field accessor.
    #[cfg(test)]
    pub(crate) fn get_u64(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            Value::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// String field accessor.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders the event as one flat JSON object:
    /// `{"t": <time_s>, "event": <name>, <fields...>}`.
    pub(crate) fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = Vec::with_capacity(self.fields.len() + 2);
        pairs.push(("t".to_string(), Json::Num(self.time_s)));
        pairs.push(("event".to_string(), Json::Str(self.name.to_string())));
        for (k, v) in &self.fields {
            let jv = match v {
                Value::F64(x) => Json::Num(*x),
                Value::U64(n) => Json::Num(*n as f64),
                Value::Bool(b) => Json::Bool(*b),
                Value::Str(s) => Json::Str(s.clone()),
            };
            pairs.push((k.to_string(), jv));
        }
        Json::obj(pairs)
    }
}

/// Builds one [`Event`] inside [`crate::Recorder::emit`]'s closure. The
/// builder only exists on the enabled path.
pub struct EventBuilder {
    event: Event,
}

impl EventBuilder {
    /// Starts an event with the given name and timestamp.
    pub(crate) fn new(name: &'static str, time_s: f64) -> Self {
        EventBuilder {
            event: Event {
                time_s,
                name,
                fields: Vec::with_capacity(8),
            },
        }
    }

    /// Adds a float field.
    pub fn f64(&mut self, key: &'static str, value: f64) -> &mut Self {
        self.event.fields.push((key, Value::F64(value)));
        self
    }

    /// Adds an integer field.
    pub fn u64(&mut self, key: &'static str, value: u64) -> &mut Self {
        self.event.fields.push((key, Value::U64(value)));
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &'static str, value: bool) -> &mut Self {
        self.event.fields.push((key, Value::Bool(value)));
        self
    }

    /// Adds a string field.
    pub fn str(&mut self, key: &'static str, value: impl Into<String>) -> &mut Self {
        self.event.fields.push((key, Value::Str(value.into())));
        self
    }

    /// Finalizes the event.
    pub(crate) fn finish(self) -> Event {
        self.event
    }
}

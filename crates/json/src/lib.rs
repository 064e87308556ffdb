//! # tranad-json
//!
//! A minimal, dependency-free JSON value type, parser and printer, written
//! so the workspace builds hermetically (no crates.io `serde`/`serde_json`).
//! It covers exactly what the repo persists: model snapshots, benchmark
//! result rows and experiment tables — flat structs of numbers, strings,
//! booleans and nested arrays.
//!
//! Conversions go through the [`ToJson`] / [`FromJson`] traits, implemented
//! by hand per type. Numbers are `f64` (like JSON itself); `u64`/`usize`
//! fields round-trip exactly up to 2^53 and by saturation beyond it (so
//! `usize::MAX` sentinels survive). Non-finite floats serialize as `null`
//! and parse back as NaN, since JSON has no NaN/inf literals.
//!
//! ```
//! use tranad_json::{parse, Json, ToJson};
//!
//! let v = parse(r#"{"name": "TranAD", "f1": 0.96, "tags": [1, 2]}"#).unwrap();
//! assert_eq!(v.get("name").unwrap().as_str().unwrap(), "TranAD");
//! assert_eq!(v.get("tags").unwrap().as_array().unwrap().len(), 2);
//! assert_eq!(1.5f64.to_json().to_string(), "1.5");
//! ```

mod parse;
mod value;

pub use parse::{parse, JsonError};
pub use value::Json;

/// Types that can render themselves as a [`Json`] value.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Types that can be rebuilt from a [`Json`] value.
pub trait FromJson: Sized {
    /// Parses `self` out of a JSON value, with a descriptive error on
    /// structural mismatch.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Implements [`ToJson`]/[`FromJson`] for a struct by listing its fields
/// once, so the two directions can't drift apart:
///
/// ```
/// use tranad_json::{impl_json_struct, FromJson, ToJson};
///
/// struct Row { name: String, f1: f64 }
/// impl_json_struct!(Row { name, f1 });
///
/// let row = Row { name: "TranAD".into(), f1: 0.96 };
/// let back = Row::from_json(&tranad_json::parse(&row.to_json().to_string()).unwrap()).unwrap();
/// assert_eq!(back.name, "TranAD");
/// ```
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::obj([
                    $((stringify!($field), $crate::ToJson::to_json(&self.$field)),)*
                ])
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> Result<Self, $crate::JsonError> {
                Ok(Self {
                    $($field: $crate::FromJson::from_json(v.req(stringify!($field))?)?,)*
                })
            }
        }
    };
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64()
            .ok_or_else(|| JsonError::new(format!("expected number, got {v}")))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::new(format!("expected bool, got {other}"))),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => Ok(s.clone()),
            other => Err(JsonError::new(format!("expected string, got {other}"))),
        }
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

macro_rules! int_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let n = v
                    .as_f64()
                    .ok_or_else(|| JsonError::new(format!("expected integer, got {v}")))?;
                // Integral, non-negative, within range. Values above 2^53
                // (e.g. `usize::MAX` sentinels) round-trip by saturation.
                if n.fract() != 0.0 || n < 0.0 || n > <$t>::MAX as f64 {
                    return Err(JsonError::new(format!("{n} is not a valid {}", stringify!($t))));
                }
                Ok(n as $t)
            }
        }
    )*};
}
int_json!(u32, u64, usize);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Arr(items) => items.iter().map(T::from_json).collect(),
            other => Err(JsonError::new(format!("expected array, got {other}"))),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Arr(items) if items.len() == 2 => {
                Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
            }
            other => Err(JsonError::new(format!(
                "expected 2-element array, got {other}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_struct_like_object() {
        let v = Json::obj([
            ("name", "TranAD".to_json()),
            ("f1", 0.9605.to_json()),
            ("epochs", 10usize.to_json()),
            ("scores", vec![vec![1.0, 2.0], vec![3.0, 4.5]].to_json()),
        ]);
        let text = v.to_string();
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(
            Vec::<Vec<f64>>::from_json(back.get("scores").unwrap())
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [0.1, 1.0 / 3.0, 1e-300, 2.0f64.powi(52) + 1.0, -0.0, 1e308] {
            let text = v.to_json().to_string();
            let back = f64::from_json(&parse(&text).unwrap()).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {text} -> {back}");
        }
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(f64::NAN.to_json().to_string(), "null");
        assert!(f64::from_json(&parse("null").unwrap()).unwrap().is_nan());
    }

    #[test]
    fn type_mismatch_errors() {
        assert!(bool::from_json(&Json::Num(1.0)).is_err());
        assert!(String::from_json(&Json::Bool(true)).is_err());
        assert!(u32::from_json(&Json::Num(1.5)).is_err());
        assert!(u32::from_json(&Json::Num(-2.0)).is_err());
    }
}

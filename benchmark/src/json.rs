//! JSON values for result and trace files, printed and parsed through the
//! vendored `serde_json` shim's owned [`Content`] tree.

use serde::{Content, DeError, Deserialize, Serialize};

/// Any JSON value, as the shim's data model.
#[derive(Clone, Debug, PartialEq)]
pub struct Json(pub Content);

impl Serialize for Json {
    fn to_content(&self) -> Content {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        Ok(Self(content.clone()))
    }
}

/// An object with the given entries, in order.
#[must_use]
pub fn obj(entries: Vec<(&str, Content)>) -> Content {
    Content::Map(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A floating-point number (non-finite values print as `null`).
#[must_use]
pub fn num(v: f64) -> Content {
    Content::F64(v)
}

/// A non-negative integer.
#[must_use]
pub fn int(v: u64) -> Content {
    Content::U64(v)
}

/// A string.
#[must_use]
pub fn text(v: &str) -> Content {
    Content::Str(v.to_string())
}

/// The member `key` of an object.
#[must_use]
pub fn get<'a>(value: &'a Content, key: &str) -> Option<&'a Content> {
    value.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A number of any JSON representation as `f64`.
#[must_use]
pub fn as_f64(value: &Content) -> Option<f64> {
    match value {
        Content::F64(v) => Some(*v),
        Content::U64(v) => Some(*v as f64),
        Content::I64(v) => Some(*v as f64),
        _ => None,
    }
}

/// Parses JSON text.
///
/// # Errors
///
/// The parser's message for malformed text.
pub fn parse(input: &str) -> Result<Content, String> {
    serde_json::from_str::<Json>(input).map(|j| j.0).map_err(|e| e.to_string())
}

/// Compact JSON text.
#[must_use]
pub fn print(value: &Content) -> String {
    serde_json::to_string(&Json(value.clone())).expect("the Content printer is infallible")
}

/// Indented JSON text.
#[must_use]
pub fn print_pretty(value: &Content) -> String {
    serde_json::to_string_pretty(&Json(value.clone())).expect("the Content printer is infallible")
}

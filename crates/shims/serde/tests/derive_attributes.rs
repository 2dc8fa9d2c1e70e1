//! The three `#[serde(...)]` attributes the derive understands.

use serde::{Deserialize, Serialize, Value};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Record {
    id: u32,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    note: Option<String>,
    #[serde(default, skip_serializing_if = "is_zero")]
    count: u64,
    tags: Vec<String>,
}

fn is_zero(n: &u64) -> bool {
    *n == 0
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
struct Knobs {
    rate: f64,
    limit: u32,
    #[serde(default)]
    label: String,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            rate: 0.25,
            limit: 8,
            label: "from-container".to_string(),
        }
    }
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn parse<T: Deserialize>(fields: Vec<(&str, Value)>) -> Result<T, serde::DeError> {
    let obj = fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    T::from_value(&Value::Object(obj))
}

#[test]
fn skipped_fields_are_left_out_and_round_trip() {
    let bare = Record {
        id: 1,
        note: None,
        count: 0,
        tags: vec![],
    };
    let v = bare.to_value();
    assert_eq!(keys(&v), ["id", "tags"]);
    assert_eq!(Record::from_value(&v), Ok(bare));

    let full = Record {
        id: 2,
        note: Some("n".to_string()),
        count: 3,
        tags: vec!["t".to_string()],
    };
    let v = full.to_value();
    assert_eq!(keys(&v), ["id", "note", "count", "tags"]);
    assert_eq!(Record::from_value(&v), Ok(full));
}

#[test]
fn missing_default_field_reads_as_its_default() {
    let r: Record = parse(vec![("id", Value::UInt(5)), ("tags", Value::Array(vec![]))]).unwrap();
    assert_eq!(r.note, None);
    assert_eq!(r.count, 0);
}

#[test]
fn missing_field_without_default_still_fails() {
    let err = parse::<Record>(vec![("tags", Value::Array(vec![]))]).unwrap_err();
    assert!(err.0.contains("missing field `id`"), "{err}");
}

#[test]
fn container_default_fills_missing_fields() {
    let k: Knobs = parse(vec![("limit", Value::UInt(3))]).unwrap();
    assert_eq!(k.rate, 0.25, "taken from Knobs::default()");
    assert_eq!(k.limit, 3, "present keys win");
    assert_eq!(k.label, "", "a field's own default beats the container's");
    assert_eq!(
        Knobs::from_value(&Knobs::default().to_value()),
        Ok(Knobs::default())
    );
}

#[test]
fn default_does_not_forgive_a_malformed_value() {
    let err = parse::<Knobs>(vec![("limit", Value::Str("x".to_string()))]).unwrap_err();
    assert!(err.0.contains("expected integer"), "{err}");
}

//! Helpers shared by the store's integration tests.

use ltam_store::binval;
use serde::Value;

/// `HashMap`-backed sections of the engine images (`UsageLedger`,
/// `ProhibitionDb`, `LocationModel`) are written in key order today, but
/// the checked-in golden store was written when they came out in
/// per-instance iteration order: compare value trees with every entry
/// array (an array of 2-element arrays) sorted.
pub fn canonical(v: Value) -> Value {
    match v {
        Value::Array(items) => {
            let mut items: Vec<Value> = items.into_iter().map(canonical).collect();
            if items
                .iter()
                .all(|i| matches!(i, Value::Array(kv) if kv.len() == 2))
            {
                items.sort_by_key(binval::encode);
            }
            Value::Array(items)
        }
        Value::Object(pairs) => {
            Value::Object(pairs.into_iter().map(|(k, v)| (k, canonical(v))).collect())
        }
        scalar => scalar,
    }
}

//! Equal values encode to equal bytes. The engine's hash-map-backed
//! state — a shard's usage ledger, the policy's prohibitions and the
//! location model's name index — sits in every shard image, policy
//! image, snapshot and `Install` record, and two equal values of it must
//! write the same `binval` bytes however each was built.

use ltam::core::db::AuthId;
use ltam::core::ledger::UsageLedger;
use ltam::core::prohibition::{Prohibition, ProhibitionDb};
use ltam::core::subject::SubjectId;
use ltam::graph::LocationId;
use ltam::sim::grid_building;
use ltam::store::binval;
use ltam::time::Interval;

#[test]
fn equal_ledgers_built_in_opposite_orders_encode_alike() {
    let ledger = |ids: &mut dyn Iterator<Item = u64>| {
        let mut ledger = UsageLedger::new();
        for id in ids {
            for _ in 0..=id % 3 {
                ledger.record_entry(AuthId(id));
            }
        }
        ledger
    };
    let (up, down) = (ledger(&mut (0..64)), ledger(&mut (0..64).rev()));
    assert_eq!(up, down);
    assert_eq!(binval::encode(&up), binval::encode(&down));
}

#[test]
fn equal_prohibition_stores_built_in_opposite_orders_encode_alike() {
    let prohibitions: Vec<Prohibition> = (0..64u32)
        .map(|k| Prohibition {
            subject: SubjectId(k / 8),
            location: LocationId(k % 8),
            window: Interval::lit(u64::from(k), u64::from(k) + 10),
        })
        .collect();
    let store = |order: &mut dyn Iterator<Item = &Prohibition>| {
        let mut db = ProhibitionDb::new();
        order.for_each(|&p| db.insert(p));
        db
    };
    let up = store(&mut prohibitions.iter());
    let down = store(&mut prohibitions.iter().rev());
    assert_eq!(up, down);
    assert_eq!(binval::encode(&up), binval::encode(&down));
}

#[test]
fn one_call_builds_location_models_that_encode_alike() {
    let (a, b) = (grid_building(8, 8).model, grid_building(8, 8).model);
    assert_eq!(binval::encode(&a), binval::encode(&b));
}

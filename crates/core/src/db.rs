//! The authorization database (Figure 3's first component).
//!
//! Stores every [`Authorization`] with provenance (explicitly created by an
//! administrator, or derived by a rule) in a record table addressed by
//! id, indexed three ways:
//!
//! * by `(subject, location)` — the hot path of Definition 7's access check,
//! * by subject — feeds Algorithm 1's per-location authorization lookup,
//! * by entry window in an [`IntervalTree`] — time-sliced administrator
//!   queries ("who could enter anything at time t?").
//!
//! The first two are **eager**: every decision reads them, so
//! [`AuthorizationDb::insert`] files each row as it arrives and
//! [`AuthorizationDb::import_rows`] builds them for a whole policy from
//! one sort. The third is **reader-built**: enforcement never asks it
//! anything, so it is derived state that the first
//! [`AuthorizationDb::enterable_at`] / [`AuthorizationDb::enterable_during`]
//! builds in bulk — a database that is only ever decided against (every
//! restart, every follower, every policy install) never pays for it.
//!
//! ## Candidate order is part of the contract
//!
//! [`AuthorizationDb::for_subject_location`] and
//! [`AuthorizationDb::for_subject`] yield their rows in **ascending id
//! order**, however the database was built. Definition 7 grants on the
//! *first* admitting candidate and the granted [`AuthId`] goes into the
//! decision, the usage ledger and every violation raised under it, so a
//! database rebuilt from an image must offer the candidates in the order
//! the original did or a recovered store would diverge from the one that
//! crashed. Ids are issued ascending and never reissued, which makes
//! "insertion order" and "id order" the same thing.
//!
//! ## Records by id
//!
//! Every decision resolves each candidate id to its row, and every
//! observed entry, exit and overstay tick resolves the granted id again,
//! so that lookup is one indexed load: a slot per id ever issued holds
//! the row's position in a dense row vector. The bound is 4 bytes per
//! issued id (revoked ones included, up to the largest id filed) plus
//! one row per live authorization. A revocation moves the last row into
//! the hole, so the rows carry no order; the ordered walks
//! ([`AuthorizationDb::iter`], the exports, the provenance queries)
//! go through the slots, which are in id order.

use crate::model::Authorization;
use crate::subject::SubjectId;
use ltam_graph::LocationId;
use ltam_time::{Interval, IntervalTree, Time};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::Hash;
use std::sync::OnceLock;

/// Identifier of an authorization stored in an [`AuthorizationDb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AuthId(pub u64);

impl fmt::Display for AuthId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

/// Identifier of an authorization rule (assigned by the rule engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RuleId(pub u32);

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// How an authorization entered the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Provenance {
    /// Created directly by a security officer (§3.2).
    Explicit,
    /// Derived by an authorization rule from a base authorization (§4).
    Derived {
        /// The rule that produced it.
        rule: RuleId,
        /// The base authorization it was derived from.
        base: AuthId,
    },
}

#[derive(Debug, Clone)]
struct AuthRecord {
    auth: Authorization,
    provenance: Provenance,
}

/// The ids filed under one key of a candidate index, ascending. A
/// `(subject, location)` pair mostly holds a single authorization, which
/// is kept inline instead of behind an allocation of its own.
#[derive(Debug, Clone)]
enum IdList {
    One(AuthId),
    Many(Vec<AuthId>),
}

impl IdList {
    fn as_slice(&self) -> &[AuthId] {
        match self {
            IdList::One(id) => std::slice::from_ref(id),
            IdList::Many(ids) => ids,
        }
    }

    /// Append `id`, which is larger than every id in the list.
    fn push(&mut self, id: AuthId) {
        match self {
            IdList::One(first) => *self = IdList::Many(vec![*first, id]),
            IdList::Many(ids) => ids.push(id),
        }
    }

    /// Take `id` out; true if that leaves the list empty.
    fn remove(&mut self, id: AuthId) -> bool {
        match self {
            IdList::One(only) => *only == id,
            IdList::Many(ids) => {
                ids.retain(|&x| x != id);
                ids.is_empty()
            }
        }
    }
}

/// One row of the sort a bulk build files the candidate indexes from.
type IndexRow = (SubjectId, LocationId, AuthId);

/// Group `rows` — sorted, so rows sharing a `key` are adjacent — into a
/// candidate index: one exactly sized table, one exactly sized list per
/// key, no rehash and no list growth on the way.
fn grouped<K: Eq + Hash>(rows: &[IndexRow], key: impl Fn(&IndexRow) -> K) -> HashMap<K, IdList> {
    let runs = || rows.chunk_by(|a, b| key(a) == key(b));
    let mut index = HashMap::with_capacity(runs().count());
    for run in runs() {
        let list = match run {
            [only] => IdList::One(only.2),
            _ => {
                // A subject's run is ordered by location first.
                let mut ids: Vec<AuthId> = run.iter().map(|row| row.2).collect();
                ids.sort_unstable();
                IdList::Many(ids)
            }
        };
        index.insert(key(&run[0]), list);
    }
    index
}

fn file<K: Eq + Hash>(index: &mut HashMap<K, IdList>, key: K, id: AuthId) {
    match index.entry(key) {
        Entry::Occupied(list) => list.into_mut().push(id),
        Entry::Vacant(slot) => {
            slot.insert(IdList::One(id));
        }
    }
}

/// Take `id` out of `key`'s list, and the key out of the index with its
/// last id: a deployment that grants and revokes visitor authorizations
/// must not keep a key per subject it has ever seen.
fn unfile<K: Eq + Hash>(index: &mut HashMap<K, IdList>, key: K, id: AuthId) {
    if let Entry::Occupied(mut list) = index.entry(key) {
        if list.get_mut().remove(id) {
            list.remove();
        }
    }
}

/// The slot of an id that is not filed: never issued here, or revoked.
/// No row sits at this position — [`AuthorizationDb`] holds fewer than
/// `u32::MAX` rows — so looking it up in the rows finds nothing.
const VACANT: u32 = u32::MAX;

/// `id` as an index into the slots.
fn slot_of(id: AuthId) -> usize {
    usize::try_from(id.0).expect("an issued id fits the address space")
}

/// The authorization database.
#[derive(Debug, Clone, Default)]
pub struct AuthorizationDb {
    /// `slot[i]` is the position of `AuthId(i)`'s row in `rows`, or
    /// [`VACANT`]; ids past the end are vacant too.
    slot: Vec<u32>,
    /// The live rows, dense and unordered (see the module docs).
    rows: Vec<(AuthId, AuthRecord)>,
    next: u64,
    by_subject_location: HashMap<(SubjectId, LocationId), IdList>,
    by_subject: HashMap<SubjectId, IdList>,
    /// Derived from the rows by the first time-sliced query (see the
    /// module docs); unset until then and after a revocation.
    entry_index: OnceLock<IntervalTree<AuthId>>,
}

/// Serializes as its rows do in [`AuthorizationDb::export_rows`] — `(id,
/// authorization, provenance)` in id order — without copying them;
/// [`AuthorizationDb::import_rows`] rebuilds it.
impl Serialize for AuthorizationDb {
    fn to_value(&self) -> serde::Value {
        serde::Value::Array(self.iter().map(|row| row.to_value()).collect())
    }
    fn serialize<S: serde::Serializer + ?Sized>(&self, s: &mut S) {
        s.begin_array(self.len());
        for (i, row) in self.iter().enumerate() {
            s.elem(i);
            row.serialize(s);
        }
        s.end_array();
    }
}

impl AuthorizationDb {
    /// An empty database.
    pub fn new() -> AuthorizationDb {
        AuthorizationDb::default()
    }

    /// Number of stored authorizations.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no authorizations are stored.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The row filed under `id`, if any: one load from the slots, one
    /// from the rows.
    fn record(&self, id: AuthId) -> Option<&AuthRecord> {
        let at = *self.slot.get(usize::try_from(id.0).ok()?)?;
        self.rows.get(at as usize).map(|(_, r)| r)
    }

    /// File `record` under `id` — replacing the row already there, if
    /// any — growing the slots to reach it.
    fn put(&mut self, id: AuthId, record: AuthRecord) {
        let i = slot_of(id);
        if i >= self.slot.len() {
            self.slot.resize(i + 1, VACANT);
        }
        match self.rows.get_mut(self.slot[i] as usize) {
            Some(row) => row.1 = record,
            None => {
                self.slot[i] = u32::try_from(self.rows.len())
                    .ok()
                    .filter(|&at| at != VACANT)
                    .expect("fewer than u32::MAX authorizations");
                self.rows.push((id, record));
            }
        }
    }

    /// The live rows in ascending id order.
    fn ordered(&self) -> impl Iterator<Item = &(AuthId, AuthRecord)> + '_ {
        self.slot
            .iter()
            .filter_map(|&at| self.rows.get(at as usize))
    }

    /// Insert an explicitly created authorization.
    pub fn insert(&mut self, auth: Authorization) -> AuthId {
        self.insert_with_provenance(auth, Provenance::Explicit)
    }

    /// Insert with explicit provenance (used by the rule engine).
    pub fn insert_with_provenance(
        &mut self,
        auth: Authorization,
        provenance: Provenance,
    ) -> AuthId {
        let id = AuthId(self.next);
        self.next += 1;
        self.put(id, AuthRecord { auth, provenance });
        file(
            &mut self.by_subject_location,
            (auth.subject(), auth.location()),
            id,
        );
        file(&mut self.by_subject, auth.subject(), id);
        if let Some(built) = self.entry_index.get_mut() {
            built.insert(auth.entry_window(), id);
        }
        id
    }

    /// Remove an authorization; returns it if it existed.
    pub fn revoke(&mut self, id: AuthId) -> Option<Authorization> {
        self.record(id)?;
        let at = std::mem::replace(&mut self.slot[slot_of(id)], VACANT);
        let (_, AuthRecord { auth, .. }) = self.rows.swap_remove(at as usize);
        // The last row moved into the hole: point its slot there.
        if let Some(&(moved, _)) = self.rows.get(at as usize) {
            self.slot[slot_of(moved)] = at;
        }
        unfile(
            &mut self.by_subject_location,
            (auth.subject(), auth.location()),
            id,
        );
        unfile(&mut self.by_subject, auth.subject(), id);
        // Dropped rather than edited: taking one entry out of the tree
        // needs its handle, eight bytes on every row of every database
        // for the sake of an index most of them never build.
        self.entry_index.take();
        Some(auth)
    }

    /// Look up an authorization.
    pub fn get(&self, id: AuthId) -> Option<&Authorization> {
        self.record(id).map(|r| &r.auth)
    }

    /// Provenance of an authorization.
    pub fn provenance(&self, id: AuthId) -> Option<Provenance> {
        self.record(id).map(|r| r.provenance)
    }

    /// The authorization filed under `id`, which an index holds, so it
    /// is live.
    fn live(&self, id: AuthId) -> &Authorization {
        &self.rows[self.slot[slot_of(id)] as usize].1.auth
    }

    fn listed<'a>(
        &'a self,
        list: Option<&'a IdList>,
    ) -> impl Iterator<Item = (AuthId, &'a Authorization)> + 'a {
        list.map_or(&[][..], IdList::as_slice)
            .iter()
            .map(move |&id| (id, self.live(id)))
    }

    /// Authorizations for a `(subject, location)` pair — Definition 7's
    /// candidate set, in ascending id order.
    pub fn for_subject_location(
        &self,
        subject: SubjectId,
        location: LocationId,
    ) -> impl Iterator<Item = (AuthId, &Authorization)> + '_ {
        self.listed(self.by_subject_location.get(&(subject, location)))
    }

    /// All authorizations of one subject, in ascending id order.
    pub fn for_subject(
        &self,
        subject: SubjectId,
    ) -> impl Iterator<Item = (AuthId, &Authorization)> + '_ {
        self.listed(self.by_subject.get(&subject))
    }

    /// The subject's authorizations grouped per location — the shape
    /// Algorithm 1 consumes ("for each location-temporal authorization a
    /// of l").
    pub fn per_location_for_subject(
        &self,
        subject: SubjectId,
    ) -> BTreeMap<LocationId, Vec<Authorization>> {
        let mut out: BTreeMap<LocationId, Vec<Authorization>> = BTreeMap::new();
        for (_, a) in self.for_subject(subject) {
            out.entry(a.location()).or_default().push(*a);
        }
        out
    }

    /// The entry-window index, built from the rows by whoever asks
    /// first.
    fn entry_index(&self) -> &IntervalTree<AuthId> {
        self.entry_index.get_or_init(|| {
            self.ordered()
                .map(|(id, r)| (r.auth.entry_window(), *id))
                .collect()
        })
    }

    /// Authorizations whose entry window contains `t` (stabbing query).
    pub fn enterable_at(&self, t: Time) -> Vec<(AuthId, &Authorization)> {
        self.entry_index()
            .stab(t)
            .into_iter()
            .map(|(_, &id)| (id, self.live(id)))
            .collect()
    }

    /// Authorizations whose entry window overlaps `window`.
    pub fn enterable_during(&self, window: Interval) -> Vec<(AuthId, &Authorization)> {
        self.entry_index()
            .overlapping(window)
            .into_iter()
            .map(|(_, &id)| (id, self.live(id)))
            .collect()
    }

    /// All authorizations derived from `base` by any rule.
    pub fn derived_from(&self, base: AuthId) -> Vec<AuthId> {
        self.ordered()
            .filter(
                |(_, r)| matches!(r.provenance, Provenance::Derived { base: b, .. } if b == base),
            )
            .map(|&(id, _)| id)
            .collect()
    }

    /// All authorizations produced by `rule`.
    pub fn derived_by_rule(&self, rule: RuleId) -> Vec<AuthId> {
        self.ordered()
            .filter(
                |(_, r)| matches!(r.provenance, Provenance::Derived { rule: q, .. } if q == rule),
            )
            .map(|&(id, _)| id)
            .collect()
    }

    /// Iterate all `(id, authorization, provenance)` rows in id order.
    pub fn iter(&self) -> impl Iterator<Item = (AuthId, &Authorization, Provenance)> + '_ {
        self.ordered().map(|(id, r)| (*id, &r.auth, r.provenance))
    }

    /// Export all rows for persistence (id order).
    pub fn export(&self) -> Vec<(Authorization, Provenance)> {
        self.ordered()
            .map(|(_, r)| (r.auth, r.provenance))
            .collect()
    }

    /// Rebuild a database from exported rows (ids are reassigned densely;
    /// derived provenance referring to dropped bases is preserved as-is).
    pub fn import(rows: impl IntoIterator<Item = (Authorization, Provenance)>) -> AuthorizationDb {
        AuthorizationDb::import_rows(
            rows.into_iter()
                .zip(0..)
                .map(|((auth, provenance), id)| (AuthId(id), auth, provenance)),
        )
    }

    /// Export all rows *with their ids* (id order) — for snapshots where
    /// external state (usage counters, rule provenance) references the ids.
    pub fn export_rows(&self) -> Vec<(AuthId, Authorization, Provenance)> {
        self.ordered()
            .map(|(id, r)| (*id, r.auth, r.provenance))
            .collect()
    }

    /// The id the next inserted authorization will get — the
    /// id-allocator high-water mark. Persist this alongside
    /// [`AuthorizationDb::export_rows`]: the largest *surviving* row does
    /// not reveal ids that were issued and then revoked, and reissuing
    /// one of those after a restore would let stale external references
    /// (an open stay recorded under the revoked id) resolve to the wrong
    /// authorization.
    pub fn next_id(&self) -> u64 {
        self.next
    }

    /// Raise the id-allocator high-water mark to at least `next`
    /// (restore-time companion of [`AuthorizationDb::next_id`]; never
    /// lowers it).
    pub fn reserve_ids_through(&mut self, next: u64) {
        self.next = self.next.max(next);
    }

    /// Rebuild a database preserving the original ids; the id counter
    /// resumes past the largest restored id (callers restoring from a
    /// snapshot should additionally apply the exported
    /// [`AuthorizationDb::next_id`] watermark via
    /// [`AuthorizationDb::reserve_ids_through`]).
    ///
    /// This is the bulk build every policy load goes through: the
    /// rows are filed in one pass (already in id order in every image,
    /// so the slots grow at the end only), both candidate indexes
    /// come out of one sort of `(subject, location, id)`, and the
    /// entry-window index is left to its first reader. The result is
    /// the database one [`AuthorizationDb::insert_with_provenance`] per
    /// row would have built — candidate order included — with a row
    /// whose id repeats replacing the earlier one.
    pub fn import_rows(
        rows: impl IntoIterator<Item = (AuthId, Authorization, Provenance)>,
    ) -> AuthorizationDb {
        let rows = rows.into_iter();
        let hint = rows.size_hint().0;
        let mut db = AuthorizationDb {
            slot: Vec::with_capacity(hint),
            rows: Vec::with_capacity(hint),
            ..AuthorizationDb::default()
        };
        for (id, auth, provenance) in rows {
            db.put(id, AuthRecord { auth, provenance });
            db.next = db.next.max(id.0.saturating_add(1));
        }
        let mut index: Vec<IndexRow> = db
            .rows
            .iter()
            .map(|(id, r)| (r.auth.subject(), r.auth.location(), *id))
            .collect();
        index.sort_unstable();
        db.by_subject_location = grouped(&index, |row| (row.0, row.1));
        db.by_subject = grouped(&index, |row| row.0);
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::EntryLimit;

    const ALICE: SubjectId = SubjectId(0);
    const BOB: SubjectId = SubjectId(1);
    const CAIS: LocationId = LocationId(10);
    const CHIPES: LocationId = LocationId(11);

    fn auth(s: SubjectId, l: LocationId, a: u64, b: u64, n: u32) -> Authorization {
        Authorization::new(
            Interval::lit(a, b),
            Interval::lit(a, b + 60),
            s,
            l,
            EntryLimit::Finite(n),
        )
        .unwrap()
    }

    #[test]
    fn insert_get_revoke_round_trip() {
        let mut db = AuthorizationDb::new();
        let a = auth(ALICE, CAIS, 10, 20, 2);
        let id = db.insert(a);
        assert_eq!(db.get(id), Some(&a));
        assert_eq!(db.provenance(id), Some(Provenance::Explicit));
        assert_eq!(db.len(), 1);
        assert_eq!(db.revoke(id), Some(a));
        assert!(db.is_empty());
        assert_eq!(db.revoke(id), None);
        assert_eq!(db.get(id), None);
    }

    #[test]
    fn a_sparse_image_files_its_rows_by_id() {
        let (a, b) = (auth(ALICE, CAIS, 10, 20, 2), auth(BOB, CHIPES, 5, 35, 1));
        let far = AuthId(1_000_000);
        let mut db = AuthorizationDb::import_rows([
            (AuthId(0), a, Provenance::Explicit),
            (far, b, Provenance::Explicit),
        ]);
        assert_eq!(db.get(AuthId(0)), Some(&a));
        assert_eq!(db.get(far), Some(&b));
        for gap in [1, 999_999, 1_000_001, u64::MAX] {
            assert_eq!(db.get(AuthId(gap)), None);
        }
        let c = auth(ALICE, CHIPES, 30, 40, 1);
        let next = db.insert(c);
        assert_eq!(next, AuthId(1_000_001));
        // Revoking the first row moves the last one into its place; the
        // revoked id resolves to nothing, the moved one still to itself.
        assert_eq!(db.revoke(AuthId(0)), Some(a));
        assert_eq!(db.get(AuthId(0)), None);
        assert_eq!(db.provenance(AuthId(0)), None);
        assert_eq!(db.get(next), Some(&c));
        assert_eq!(db.get(far), Some(&b));
        assert_eq!(db.revoke(far), Some(b));
        assert_eq!(db.get(far), None);
        assert_eq!(db.revoke(far), None);
        assert_eq!(db.get(next), Some(&c));
        let ids: Vec<AuthId> = db.iter().map(|(id, _, _)| id).collect();
        assert_eq!(ids, vec![next]);
        assert_eq!(db.for_subject(ALICE).collect::<Vec<_>>(), vec![(next, &c)]);
    }

    #[test]
    fn subject_location_index() {
        let mut db = AuthorizationDb::new();
        let id1 = db.insert(auth(ALICE, CAIS, 10, 20, 2));
        let _id2 = db.insert(auth(BOB, CHIPES, 5, 35, 1));
        let id3 = db.insert(auth(ALICE, CAIS, 50, 60, 1));
        let ids: Vec<AuthId> = db
            .for_subject_location(ALICE, CAIS)
            .map(|(id, _)| id)
            .collect();
        assert_eq!(ids, vec![id1, id3]);
        assert_eq!(db.for_subject_location(BOB, CAIS).count(), 0);
        assert_eq!(db.for_subject(ALICE).count(), 2);
    }

    #[test]
    fn per_location_grouping_for_algorithm1() {
        let mut db = AuthorizationDb::new();
        db.insert(auth(ALICE, CAIS, 10, 20, 2));
        db.insert(auth(ALICE, CAIS, 30, 40, 1));
        db.insert(auth(ALICE, CHIPES, 5, 35, 1));
        let grouped = db.per_location_for_subject(ALICE);
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[&CAIS].len(), 2);
        assert_eq!(grouped[&CHIPES].len(), 1);
    }

    #[test]
    fn time_indexed_queries() {
        let mut db = AuthorizationDb::new();
        let id1 = db.insert(auth(ALICE, CAIS, 10, 20, 2));
        let id2 = db.insert(auth(BOB, CHIPES, 5, 35, 1));
        let at15: Vec<AuthId> = db
            .enterable_at(Time(15))
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        assert!(at15.contains(&id1) && at15.contains(&id2));
        let at30: Vec<AuthId> = db
            .enterable_at(Time(30))
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        assert_eq!(at30, vec![id2]);
        let span: Vec<AuthId> = db
            .enterable_during(Interval::lit(21, 40))
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        assert_eq!(span, vec![id2]);
        db.revoke(id2);
        assert!(db.enterable_at(Time(30)).is_empty());
    }

    #[test]
    fn the_entry_window_index_waits_for_its_first_reader() {
        let rows = [auth(ALICE, CAIS, 10, 20, 2), auth(BOB, CHIPES, 5, 35, 1)];
        let mut db = AuthorizationDb::import(rows.map(|a| (a, Provenance::Explicit)));
        let carol = db.insert(auth(SubjectId(2), CAIS, 30, 40, 1));
        assert!(db.entry_index.get().is_none(), "built with no reader");
        assert_eq!(db.enterable_at(Time(32)).len(), 2);
        assert_eq!(db.entry_index.get().map(IntervalTree::len), Some(3));
        // Built, an insert keeps it current; a clone carries it along.
        db.insert(auth(ALICE, CHIPES, 31, 33, 1));
        assert_eq!(db.entry_index.get().map(IntervalTree::len), Some(4));
        assert_eq!(db.clone().enterable_at(Time(32)).len(), 3);
        // A revocation drops it for the next reader to rebuild.
        db.revoke(carol);
        assert!(db.entry_index.get().is_none());
        assert_eq!(db.enterable_at(Time(32)).len(), 2);
    }

    #[test]
    fn revoking_a_pairs_last_authorization_forgets_the_pair() {
        use crate::decision::{check_access, AccessRequest, Decision, DenyReason};
        use crate::ledger::UsageLedger;

        let mut db = AuthorizationDb::new();
        let resident = db.insert(auth(ALICE, CAIS, 10, 20, 2));
        for visitor in 100..200 {
            let first = db.insert(auth(SubjectId(visitor), CAIS, 10, 20, 1));
            let second = db.insert(auth(SubjectId(visitor), CAIS, 30, 40, 1));
            db.revoke(first);
            assert_eq!(db.for_subject(SubjectId(visitor)).count(), 1);
            db.revoke(second);
        }
        assert_eq!(db.by_subject_location.len(), 1);
        assert_eq!(db.by_subject.len(), 1);
        assert_eq!(
            db.for_subject(ALICE).map(|(id, _)| id).next(),
            Some(resident)
        );
        // A fully revoked pair has no candidates, not candidates whose
        // windows all miss.
        let request = AccessRequest {
            time: Time(15),
            subject: SubjectId(150),
            location: CAIS,
        };
        assert_eq!(
            check_access(&db, &UsageLedger::new(), &request),
            Decision::Denied {
                reason: DenyReason::NoAuthorization
            }
        );
    }

    #[test]
    fn provenance_queries() {
        let mut db = AuthorizationDb::new();
        let base = db.insert(auth(ALICE, CAIS, 10, 20, 2));
        let d1 = db.insert_with_provenance(
            auth(BOB, CAIS, 10, 20, 2),
            Provenance::Derived {
                rule: RuleId(1),
                base,
            },
        );
        let d2 = db.insert_with_provenance(
            auth(BOB, CHIPES, 10, 20, 2),
            Provenance::Derived {
                rule: RuleId(2),
                base,
            },
        );
        let mut derived = db.derived_from(base);
        derived.sort_unstable();
        assert_eq!(derived, vec![d1, d2]);
        assert_eq!(db.derived_by_rule(RuleId(1)), vec![d1]);
    }

    #[test]
    fn export_import_round_trip() {
        let mut db = AuthorizationDb::new();
        db.insert(auth(ALICE, CAIS, 10, 20, 2));
        db.insert(auth(BOB, CHIPES, 5, 35, 1));
        let rows = db.export();
        let back = AuthorizationDb::import(rows);
        assert_eq!(back.len(), 2);
        assert_eq!(back.for_subject(ALICE).count(), 1);
        assert_eq!(back.enterable_at(Time(30)).len(), 1);
    }
}

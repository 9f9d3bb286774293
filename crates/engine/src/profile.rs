//! The user profile database (Figure 3).
//!
//! "The user profile database stores user profiles, which are used for
//! creating authorizations, or deriving authorizations" — in particular it
//! answers the `Supervisor_Of` operator of §4 Example 1. Profiles carry a
//! display name, an organizational role, an optional supervisor and any
//! number of group memberships.

use ltam_core::rules::ProfileProvider;
use ltam_core::subject::{SubjectId, SubjectRegistry};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// One user's profile row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Profile {
    /// Display name (also interned in the registry).
    pub name: String,
    /// Organizational role, free-form ("researcher", "guard").
    pub role: String,
    /// Supervisor, if any.
    pub supervisor: Option<SubjectId>,
    /// Group memberships.
    pub groups: BTreeSet<String>,
}

/// The user profile database.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct UserProfileDb {
    registry: SubjectRegistry,
    profiles: BTreeMap<SubjectId, Profile>,
}

impl UserProfileDb {
    /// An empty database.
    pub fn new() -> UserProfileDb {
        UserProfileDb::default()
    }

    /// Register a user with a role; returns the subject id (idempotent on
    /// the name).
    pub fn add_user(&mut self, name: impl Into<String>, role: impl Into<String>) -> SubjectId {
        let name = name.into();
        let id = self.registry.intern(name.clone());
        self.profiles.entry(id).or_insert_with(|| Profile {
            name,
            role: role.into(),
            supervisor: None,
            groups: BTreeSet::new(),
        });
        id
    }

    /// Set (or change) a user's supervisor.
    pub fn set_supervisor(&mut self, subject: SubjectId, supervisor: SubjectId) {
        if let Some(p) = self.profiles.get_mut(&subject) {
            p.supervisor = Some(supervisor);
        }
    }

    /// Add a user to a named group.
    pub fn join_group(&mut self, subject: SubjectId, group: impl Into<String>) {
        if let Some(p) = self.profiles.get_mut(&subject) {
            p.groups.insert(group.into());
        }
    }

    /// Remove a user from a group.
    pub fn leave_group(&mut self, subject: SubjectId, group: &str) {
        if let Some(p) = self.profiles.get_mut(&subject) {
            p.groups.remove(group);
        }
    }

    /// The profile of a subject.
    pub fn profile(&self, subject: SubjectId) -> Option<&Profile> {
        self.profiles.get(&subject)
    }

    /// Subject id for a name.
    pub fn id_of(&self, name: &str) -> Option<SubjectId> {
        self.registry.get(name)
    }

    /// Name for a subject id.
    pub fn name_of(&self, subject: SubjectId) -> Option<&str> {
        self.registry.name(subject)
    }

    /// Number of registered users.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// True if no users are registered.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// All subject ids.
    pub fn subjects(&self) -> impl Iterator<Item = SubjectId> + '_ {
        self.profiles.keys().copied()
    }

    /// The shared registry (for query-language name resolution).
    pub fn registry(&self) -> &SubjectRegistry {
        &self.registry
    }
}

impl ProfileProvider for UserProfileDb {
    fn supervisor_of(&self, s: SubjectId) -> Option<SubjectId> {
        self.profiles.get(&s).and_then(|p| p.supervisor)
    }

    fn subordinates_of(&self, s: SubjectId) -> Vec<SubjectId> {
        self.profiles
            .iter()
            .filter(|(_, p)| p.supervisor == Some(s))
            .map(|(&id, _)| id)
            .collect()
    }

    fn members_of(&self, group: &str) -> Vec<SubjectId> {
        self.profiles
            .iter()
            .filter(|(_, p)| p.groups.contains(group))
            .map(|(&id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_look_up_users() {
        let mut db = UserProfileDb::new();
        let alice = db.add_user("Alice", "researcher");
        let bob = db.add_user("Bob", "professor");
        assert_eq!(db.id_of("Alice"), Some(alice));
        assert_eq!(db.name_of(bob), Some("Bob"));
        assert_eq!(db.profile(alice).unwrap().role, "researcher");
        assert_eq!(db.len(), 2);
        // Idempotent on name.
        assert_eq!(db.add_user("Alice", "other"), alice);
        assert_eq!(db.profile(alice).unwrap().role, "researcher");
    }

    #[test]
    fn supervisor_relation_feeds_profile_provider() {
        let mut db = UserProfileDb::new();
        let alice = db.add_user("Alice", "researcher");
        let bob = db.add_user("Bob", "professor");
        db.set_supervisor(alice, bob);
        assert_eq!(db.supervisor_of(alice), Some(bob));
        assert_eq!(db.supervisor_of(bob), None);
        assert_eq!(db.subordinates_of(bob), vec![alice]);
    }

    #[test]
    fn group_membership() {
        let mut db = UserProfileDb::new();
        let alice = db.add_user("Alice", "researcher");
        let bob = db.add_user("Bob", "professor");
        db.join_group(alice, "cais-staff");
        db.join_group(bob, "cais-staff");
        let mut members = db.members_of("cais-staff");
        members.sort_unstable();
        assert_eq!(members, vec![alice, bob]);
        db.leave_group(alice, "cais-staff");
        assert_eq!(db.members_of("cais-staff"), vec![bob]);
        assert!(db.members_of("nobody").is_empty());
    }

    #[test]
    fn serde_round_trip() {
        let mut db = UserProfileDb::new();
        let alice = db.add_user("Alice", "researcher");
        db.join_group(alice, "g");
        let back = UserProfileDb::from_value(&db.to_value()).unwrap();
        assert_eq!(back.id_of("Alice"), Some(alice));
        assert_eq!(back.members_of("g"), vec![alice]);
    }
}

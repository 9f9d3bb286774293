//! Subjects (users) and their identifier registry.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a subject (user) requesting authorizations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SubjectId(pub u32);

impl fmt::Display for SubjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Interns subject names to dense [`SubjectId`]s.
///
/// Names are unique; re-interning an existing name returns the original id,
/// so policy files may freely repeat names.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SubjectRegistry {
    names: Vec<String>,
    by_name: HashMap<String, SubjectId>,
}

impl SubjectRegistry {
    /// An empty registry.
    pub fn new() -> SubjectRegistry {
        SubjectRegistry::default()
    }

    /// Intern `name`, returning its stable id.
    pub fn intern(&mut self, name: impl Into<String>) -> SubjectId {
        let name = name.into();
        if let Some(&id) = self.by_name.get(&name) {
            return id;
        }
        let id = SubjectId(self.names.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.names.push(name);
        id
    }

    /// Look up an already-interned name.
    pub fn get(&self, name: &str) -> Option<SubjectId> {
        self.by_name.get(name).copied()
    }

    /// The name for an id, or `None` if out of range.
    pub fn name(&self, id: SubjectId) -> Option<&str> {
        self.names.get(id.0 as usize).map(String::as_str)
    }

    /// Number of interned subjects.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no subjects are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All subject ids in interning order.
    pub fn ids(&self) -> impl Iterator<Item = SubjectId> + '_ {
        (0..self.names.len() as u32).map(SubjectId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut r = SubjectRegistry::new();
        let alice = r.intern("Alice");
        let bob = r.intern("Bob");
        assert_ne!(alice, bob);
        assert_eq!(r.intern("Alice"), alice);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn lookup_round_trips() {
        let mut r = SubjectRegistry::new();
        let alice = r.intern("Alice");
        assert_eq!(r.get("Alice"), Some(alice));
        assert_eq!(r.name(alice), Some("Alice"));
        assert_eq!(r.get("Carol"), None);
        assert_eq!(r.name(SubjectId(99)), None);
    }

    #[test]
    fn serde_round_trip() {
        let mut r = SubjectRegistry::new();
        r.intern("Alice");
        r.intern("Bob");
        let back = SubjectRegistry::from_value(&r.to_value()).unwrap();
        assert_eq!(back.get("Bob"), r.get("Bob"));
    }
}

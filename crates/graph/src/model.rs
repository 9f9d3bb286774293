//! The location arena: primitive/composite locations, sibling edges,
//! entry designations, and structural validation.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a location (primitive or composite) within a
/// [`LocationModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LocationId(pub u32);

impl fmt::Display for LocationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Whether a location can be subdivided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LocationKind {
    /// Cannot be further divided (a room). Only primitive locations appear
    /// in authorizations (Definition 3) and routes.
    Primitive,
    /// A collection of related locations (a building, a school); owns a
    /// (multilevel) location graph formed by its children.
    Composite,
}

/// Errors from building or validating a [`LocationModel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A location name was used twice (names are globally unique, matching
    /// the paper's qualified names such as `SCE.GO`).
    DuplicateName(String),
    /// A referenced location does not exist.
    UnknownLocation(String),
    /// A referenced id is not part of this model.
    UnknownId(LocationId),
    /// Locations must be added under a composite parent.
    ParentNotComposite(String),
    /// Edges connect a location to itself.
    SelfEdge(String),
    /// Edges may only connect siblings — locations of the same (multilevel)
    /// location graph. Definition 2 requires mutually disjoint members;
    /// cross-level edges would break the hierarchy.
    NotSiblings {
        /// One endpoint's name.
        a: String,
        /// The other endpoint's name.
        b: String,
    },
    /// Every (multilevel) location graph must designate at least one entry
    /// location (§3.1).
    NoEntry(String),
    /// Location graphs are connected graphs (§3.1); this composite's
    /// children are not.
    Disconnected {
        /// The composite whose graph is disconnected.
        composite: String,
        /// A child unreachable from the first child.
        unreachable: String,
    },
    /// The root composite cannot carry an entry flag (it has no parent
    /// graph); designate entries among its children instead.
    RootEntry,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DuplicateName(n) => write!(f, "duplicate location name {n:?}"),
            GraphError::UnknownLocation(n) => write!(f, "unknown location {n:?}"),
            GraphError::UnknownId(id) => write!(f, "unknown location id {id}"),
            GraphError::ParentNotComposite(n) => {
                write!(f, "parent {n:?} is primitive; cannot contain locations")
            }
            GraphError::SelfEdge(n) => write!(f, "self edge on {n:?}"),
            GraphError::NotSiblings { a, b } => {
                write!(f, "edge {a:?} – {b:?} does not connect siblings")
            }
            GraphError::NoEntry(n) => {
                write!(f, "location graph of {n:?} has no entry location")
            }
            GraphError::Disconnected {
                composite,
                unreachable,
            } => write!(
                f,
                "location graph of {composite:?} is disconnected: {unreachable:?} unreachable"
            ),
            GraphError::RootEntry => write!(f, "the root composite cannot be an entry"),
        }
    }
}

impl std::error::Error for GraphError {}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct NodeData {
    name: String,
    kind: LocationKind,
    parent: Option<LocationId>,
    children: Vec<LocationId>,
    /// True if this location is a designated entry of its parent's graph.
    entry: bool,
    /// Sibling adjacency (sorted, deduplicated).
    neighbors: Vec<LocationId>,
}

/// A whole multilevel location graph: one arena of locations rooted at a
/// composite (the infrastructure — e.g. the NTU campus).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocationModel {
    nodes: Vec<NodeData>,
    names: HashMap<String, LocationId>,
    root: LocationId,
}

impl LocationModel {
    /// Create a model whose root composite is named `root_name`.
    pub fn new(root_name: impl Into<String>) -> LocationModel {
        let name = root_name.into();
        let mut names = HashMap::new();
        names.insert(name.clone(), LocationId(0));
        LocationModel {
            nodes: vec![NodeData {
                name,
                kind: LocationKind::Composite,
                parent: None,
                children: Vec::new(),
                entry: false,
                neighbors: Vec::new(),
            }],
            names,
            root: LocationId(0),
        }
    }

    /// The root composite (the whole infrastructure).
    #[inline]
    pub fn root(&self) -> LocationId {
        self.root
    }

    /// Number of locations, including composites and the root.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if only the root exists.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    fn node(&self, id: LocationId) -> Result<&NodeData, GraphError> {
        self.nodes
            .get(id.0 as usize)
            .ok_or(GraphError::UnknownId(id))
    }

    /// Look up a location by its (globally unique) name.
    pub fn id(&self, name: &str) -> Result<LocationId, GraphError> {
        self.names
            .get(name)
            .copied()
            .ok_or_else(|| GraphError::UnknownLocation(name.to_string()))
    }

    /// The location's name.
    pub fn name(&self, id: LocationId) -> &str {
        &self.nodes[id.0 as usize].name
    }

    /// Primitive or composite.
    pub fn kind(&self, id: LocationId) -> LocationKind {
        self.nodes[id.0 as usize].kind
    }

    /// The parent composite, `None` for the root.
    pub fn parent(&self, id: LocationId) -> Option<LocationId> {
        self.nodes[id.0 as usize].parent
    }

    /// Children of a composite (empty for primitives).
    pub fn children(&self, id: LocationId) -> &[LocationId] {
        &self.nodes[id.0 as usize].children
    }

    /// Sibling neighbors of a location within its parent's graph.
    pub fn neighbors(&self, id: LocationId) -> &[LocationId] {
        &self.nodes[id.0 as usize].neighbors
    }

    /// True if the location is a designated entry of its parent's graph.
    pub fn is_entry(&self, id: LocationId) -> bool {
        self.nodes[id.0 as usize].entry
    }

    /// All location ids, root included.
    pub fn ids(&self) -> impl Iterator<Item = LocationId> + '_ {
        (0..self.nodes.len() as u32).map(LocationId)
    }

    /// All primitive location ids.
    pub fn primitives(&self) -> impl Iterator<Item = LocationId> + '_ {
        self.ids()
            .filter(|&id| self.kind(id) == LocationKind::Primitive)
    }

    /// Add a primitive location under `parent`.
    pub fn add_primitive(
        &mut self,
        parent: LocationId,
        name: impl Into<String>,
    ) -> Result<LocationId, GraphError> {
        self.add_node(parent, name.into(), LocationKind::Primitive)
    }

    /// Add a composite location under `parent`.
    pub fn add_composite(
        &mut self,
        parent: LocationId,
        name: impl Into<String>,
    ) -> Result<LocationId, GraphError> {
        self.add_node(parent, name.into(), LocationKind::Composite)
    }

    fn add_node(
        &mut self,
        parent: LocationId,
        name: String,
        kind: LocationKind,
    ) -> Result<LocationId, GraphError> {
        let pnode = self.node(parent)?;
        if pnode.kind != LocationKind::Composite {
            return Err(GraphError::ParentNotComposite(pnode.name.clone()));
        }
        if self.names.contains_key(&name) {
            return Err(GraphError::DuplicateName(name));
        }
        let id = LocationId(self.nodes.len() as u32);
        self.names.insert(name.clone(), id);
        self.nodes.push(NodeData {
            name,
            kind,
            parent: Some(parent),
            children: Vec::new(),
            entry: false,
            neighbors: Vec::new(),
        });
        self.nodes[parent.0 as usize].children.push(id);
        Ok(id)
    }

    /// Connect two sibling locations with a bidirectional edge
    /// (Definition 1: "by definition, an edge is bidirectional").
    pub fn add_edge(&mut self, a: LocationId, b: LocationId) -> Result<(), GraphError> {
        let na = self.node(a)?;
        let nb = self.node(b)?;
        if a == b {
            return Err(GraphError::SelfEdge(na.name.clone()));
        }
        if na.parent != nb.parent || na.parent.is_none() {
            return Err(GraphError::NotSiblings {
                a: na.name.clone(),
                b: nb.name.clone(),
            });
        }
        let insert = |v: &mut Vec<LocationId>, x: LocationId| {
            if let Err(pos) = v.binary_search(&x) {
                v.insert(pos, x);
            }
        };
        insert(&mut self.nodes[a.0 as usize].neighbors, b);
        insert(&mut self.nodes[b.0 as usize].neighbors, a);
        Ok(())
    }

    /// Designate `id` as an entry location of its parent's graph.
    pub fn set_entry(&mut self, id: LocationId) -> Result<(), GraphError> {
        let node = self.node(id)?;
        if node.parent.is_none() {
            return Err(GraphError::RootEntry);
        }
        self.nodes[id.0 as usize].entry = true;
        Ok(())
    }

    /// True if `id` is `ancestor` or directly/indirectly belongs to it —
    /// the paper's "`li` is part of `H`".
    pub fn is_part_of(&self, id: LocationId, ancestor: LocationId) -> bool {
        let mut cur = Some(id);
        while let Some(c) = cur {
            if c == ancestor {
                return true;
            }
            cur = self.parent(c);
        }
        false
    }

    /// All primitive locations directly or indirectly inside `id`
    /// (`id` itself if primitive).
    pub fn primitives_under(&self, id: LocationId) -> Vec<LocationId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            match self.kind(n) {
                LocationKind::Primitive => out.push(n),
                LocationKind::Composite => stack.extend(self.children(n).iter().copied()),
            }
        }
        out.sort_unstable();
        out
    }

    /// The *entry primitives* of a location: for a primitive, itself; for a
    /// composite, the primitives reached by recursively following entry
    /// designations. These are the locations through which a complex route
    /// enters or leaves the composite.
    pub fn entry_primitives(&self, id: LocationId) -> Vec<LocationId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            match self.kind(n) {
                LocationKind::Primitive => out.push(n),
                LocationKind::Composite => {
                    stack.extend(
                        self.children(n)
                            .iter()
                            .copied()
                            .filter(|&c| self.is_entry(c)),
                    );
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Entry locations (direct children flagged as entries) of a composite.
    pub fn entries_of(&self, composite: LocationId) -> Vec<LocationId> {
        self.children(composite)
            .iter()
            .copied()
            .filter(|&c| self.is_entry(c))
            .collect()
    }

    /// Validate the structural invariants of §3.1:
    ///
    /// * every composite with children designates at least one entry;
    /// * every composite's children graph is connected.
    ///
    /// Edge/sibling/disjointness invariants are enforced at construction.
    pub fn validate(&self) -> Result<(), GraphError> {
        for id in self.ids() {
            if self.kind(id) != LocationKind::Composite {
                continue;
            }
            let children = self.children(id);
            if children.is_empty() {
                continue;
            }
            if !children.iter().any(|&c| self.is_entry(c)) {
                return Err(GraphError::NoEntry(self.name(id).to_string()));
            }
            // Connectivity of the sibling graph.
            let mut seen = vec![children[0]];
            let mut stack = vec![children[0]];
            while let Some(n) = stack.pop() {
                for &m in self.neighbors(n) {
                    if !seen.contains(&m) {
                        seen.push(m);
                        stack.push(m);
                    }
                }
            }
            if let Some(&miss) = children.iter().find(|c| !seen.contains(c)) {
                return Err(GraphError::Disconnected {
                    composite: self.name(id).to_string(),
                    unreachable: self.name(miss).to_string(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_room_building() -> (LocationModel, LocationId, LocationId) {
        let mut m = LocationModel::new("B");
        let a = m.add_primitive(m.root(), "a").unwrap();
        let b = m.add_primitive(m.root(), "b").unwrap();
        m.add_edge(a, b).unwrap();
        m.set_entry(a).unwrap();
        (m, a, b)
    }

    #[test]
    fn build_and_look_up() {
        let (m, a, b) = two_room_building();
        assert_eq!(m.id("a").unwrap(), a);
        assert_eq!(m.name(b), "b");
        assert_eq!(m.kind(a), LocationKind::Primitive);
        assert_eq!(m.kind(m.root()), LocationKind::Composite);
        assert_eq!(m.parent(a), Some(m.root()));
        assert_eq!(m.len(), 3);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut m = LocationModel::new("B");
        m.add_primitive(m.root(), "a").unwrap();
        assert_eq!(
            m.add_primitive(m.root(), "a").unwrap_err(),
            GraphError::DuplicateName("a".into())
        );
        assert_eq!(
            m.add_primitive(m.root(), "B").unwrap_err(),
            GraphError::DuplicateName("B".into())
        );
    }

    #[test]
    fn edges_must_connect_siblings() {
        let mut m = LocationModel::new("B");
        let wing = m.add_composite(m.root(), "wing").unwrap();
        let a = m.add_primitive(m.root(), "a").unwrap();
        let x = m.add_primitive(wing, "x").unwrap();
        assert!(matches!(
            m.add_edge(a, x).unwrap_err(),
            GraphError::NotSiblings { .. }
        ));
        assert!(matches!(
            m.add_edge(a, a).unwrap_err(),
            GraphError::SelfEdge(_)
        ));
        // Composite siblings may be connected (multilevel edge).
        let wing2 = m.add_composite(m.root(), "wing2").unwrap();
        assert!(m.add_edge(wing, wing2).is_ok());
        let _ = x;
    }

    #[test]
    fn edge_insertion_is_idempotent_and_sorted() {
        let (mut m, a, b) = two_room_building();
        m.add_edge(a, b).unwrap();
        m.add_edge(b, a).unwrap();
        assert_eq!(m.neighbors(a), &[b]);
        assert_eq!(m.neighbors(b), &[a]);
    }

    #[test]
    fn primitives_cannot_have_children() {
        let (mut m, a, _) = two_room_building();
        assert!(matches!(
            m.add_primitive(a, "inner").unwrap_err(),
            GraphError::ParentNotComposite(_)
        ));
    }

    #[test]
    fn root_cannot_be_entry() {
        let mut m = LocationModel::new("B");
        assert_eq!(m.set_entry(m.root()).unwrap_err(), GraphError::RootEntry);
    }

    #[test]
    fn validate_requires_entry() {
        let mut m = LocationModel::new("B");
        let a = m.add_primitive(m.root(), "a").unwrap();
        let b = m.add_primitive(m.root(), "b").unwrap();
        m.add_edge(a, b).unwrap();
        assert_eq!(m.validate().unwrap_err(), GraphError::NoEntry("B".into()));
    }

    #[test]
    fn validate_requires_connectivity() {
        let mut m = LocationModel::new("B");
        let a = m.add_primitive(m.root(), "a").unwrap();
        let _b = m.add_primitive(m.root(), "b").unwrap();
        m.set_entry(a).unwrap();
        assert!(matches!(
            m.validate().unwrap_err(),
            GraphError::Disconnected { .. }
        ));
    }

    #[test]
    fn part_of_walks_ancestry() {
        let mut m = LocationModel::new("NTU");
        let sce = m.add_composite(m.root(), "SCE").unwrap();
        let cais = m.add_primitive(sce, "CAIS").unwrap();
        assert!(m.is_part_of(cais, sce));
        assert!(m.is_part_of(cais, m.root()));
        assert!(m.is_part_of(sce, m.root()));
        assert!(!m.is_part_of(sce, cais));
    }

    #[test]
    fn entry_primitives_recurse_through_composites() {
        let mut m = LocationModel::new("NTU");
        let sce = m.add_composite(m.root(), "SCE").unwrap();
        let go = m.add_primitive(sce, "SCE.GO").unwrap();
        let lab = m.add_primitive(sce, "CAIS").unwrap();
        m.add_edge(go, lab).unwrap();
        m.set_entry(go).unwrap();
        m.set_entry(sce).unwrap();
        assert_eq!(m.entry_primitives(sce), vec![go]);
        assert_eq!(m.entry_primitives(m.root()), vec![go]);
        assert_eq!(m.entry_primitives(lab), vec![lab]);
        assert_eq!(m.entries_of(sce), vec![go]);
    }

    #[test]
    fn primitives_under_collects_descendants() {
        let mut m = LocationModel::new("NTU");
        let sce = m.add_composite(m.root(), "SCE").unwrap();
        let go = m.add_primitive(sce, "GO").unwrap();
        let cais = m.add_primitive(sce, "CAIS").unwrap();
        let eee = m.add_composite(m.root(), "EEE").unwrap();
        let lab = m.add_primitive(eee, "Lab1").unwrap();
        assert_eq!(m.primitives_under(sce), vec![go, cais]);
        assert_eq!(m.primitives_under(m.root()), vec![go, cais, lab]);
    }

    #[test]
    fn serde_round_trip() {
        let (m, a, _) = two_room_building();
        let back = LocationModel::from_value(&m.to_value()).unwrap();
        assert_eq!(back.id("a").unwrap(), a);
        assert_eq!(back.len(), m.len());
        assert!(back.validate().is_ok());
    }
}

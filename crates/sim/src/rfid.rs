//! Simulated RFID/positioning pipeline.
//!
//! The paper assumes "the ability of user tracking" from RFID and other
//! positioning infrastructure (§1) and physical boundaries mapping
//! coordinates to semantic locations (§3.1). Real tag readers are
//! substituted by a synthetic pipeline exercising the same code path:
//!
//! 1. a floor plan assigns each grid room a rectangular boundary,
//! 2. a tag emits noisy `(x, y)` readings as its carrier walks,
//! 3. readings resolve to primitive locations via the spatial index,
//! 4. location changes become enter/exit events for the engine.

use crate::gen::World;
use ltam_core::subject::SubjectId;
use ltam_engine::baseline::Enforcement;
use ltam_geo::{BoundaryMap, GridIndex, Point, Rect};
use ltam_graph::LocationId;
use ltam_time::Time;
use rand::rngs::StdRng;
use rand::Rng;

/// Floor-plan geometry for a [`crate::gen::grid_building`] world: room
/// `Rx_y` occupies the square `[x·size, (x+1)·size] × [y·size, (y+1)·size]`.
pub fn grid_floor_plan(world: &World, w: usize, h: usize, size: f64) -> BoundaryMap {
    let mut map = BoundaryMap::new();
    for y in 0..h {
        for x in 0..w {
            let id = world
                .model
                .id(&format!("R{x}_{y}"))
                .expect("grid room exists");
            let x0 = x as f64 * size;
            let y0 = y as f64 * size;
            map.insert_rect(id, Rect::lit(x0, y0, x0 + size, y0 + size))
                .expect("grid cells are valid rects");
        }
    }
    map
}

/// One positioning reading from a tag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TagReading {
    /// Reading time.
    pub time: Time,
    /// The tagged subject.
    pub subject: SubjectId,
    /// Sensed position (already noisy).
    pub position: Point,
}

/// Converts a stream of tag readings into enter/exit events.
///
/// Readings that resolve to no boundary (out of range, noise pushed the
/// point outside the site) are dropped; a location change emits an exit
/// from the previous location and an entry into the new one.
#[derive(Debug)]
pub struct TrackingPipeline {
    index: GridIndex,
    current: std::collections::HashMap<SubjectId, LocationId>,
    /// Readings that resolved to a location.
    pub resolved: u64,
    /// Readings dropped as unresolvable.
    pub dropped: u64,
}

impl TrackingPipeline {
    /// Build over a boundary map.
    pub fn new(map: &BoundaryMap, cells_per_axis: usize) -> TrackingPipeline {
        TrackingPipeline {
            index: map.build_index(cells_per_axis),
            current: std::collections::HashMap::new(),
            resolved: 0,
            dropped: 0,
        }
    }

    /// Feed one reading; emits movement events into the engine.
    pub fn feed(&mut self, reading: TagReading, engine: &mut dyn Enforcement) {
        let Some(loc) = self.index.locate(reading.position) else {
            self.dropped += 1;
            return;
        };
        self.resolved += 1;
        let prev = self.current.get(&reading.subject).copied();
        if prev == Some(loc) {
            return; // still in the same room
        }
        if let Some(p) = prev {
            engine.observe_exit(reading.time, reading.subject, p);
        }
        engine.observe_enter(reading.time, reading.subject, loc);
        self.current.insert(reading.subject, loc);
    }

    /// Where the pipeline believes a subject is.
    pub fn tracked_location(&self, subject: SubjectId) -> Option<LocationId> {
        self.current.get(&subject).copied()
    }
}

/// Generate a noisy walk through the rooms of a grid floor plan: the tag
/// moves room-center to room-center along a path, emitting `per_room`
/// readings per room with Gaussian-ish jitter of `noise` units.
pub fn noisy_walk(
    subject: SubjectId,
    path: &[(usize, usize)],
    size: f64,
    per_room: usize,
    noise: f64,
    start: Time,
    rng: &mut StdRng,
) -> Vec<TagReading> {
    let mut out = Vec::with_capacity(path.len() * per_room);
    let mut t = start;
    for &(x, y) in path {
        let cx = (x as f64 + 0.5) * size;
        let cy = (y as f64 + 0.5) * size;
        for _ in 0..per_room {
            // Sum of two uniforms: cheap, bounded, centered jitter.
            let jx = (rng.gen::<f64>() + rng.gen::<f64>() - 1.0) * noise;
            let jy = (rng.gen::<f64>() + rng.gen::<f64>() - 1.0) * noise;
            out.push(TagReading {
                time: t,
                subject,
                position: Point::new(cx + jx, cy + jy),
            });
            t = t.saturating_add(1);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{grid_building, rng};
    use ltam_core::model::{Authorization, EntryLimit};
    use ltam_engine::engine::AccessControlEngine;
    use ltam_time::Interval;

    fn tracked_world() -> (World, BoundaryMap) {
        let world = grid_building(3, 3);
        let plan = grid_floor_plan(&world, 3, 3, 10.0);
        (world, plan)
    }

    #[test]
    fn clean_walk_tracks_rooms_in_order() {
        let (world, plan) = tracked_world();
        let alice = SubjectId(0);
        let mut engine = AccessControlEngine::new(world.model.clone());
        engine.profiles_mut().add_user("Alice", "sim");
        for l in world.graph.locations() {
            engine.add_authorization(
                Authorization::new(
                    Interval::ALL,
                    Interval::ALL,
                    alice,
                    l,
                    EntryLimit::Unbounded,
                )
                .unwrap(),
            );
        }
        let mut pipe = TrackingPipeline::new(&plan, 8);
        let mut r = rng(5);
        // Walk the top row with zero noise.
        let readings = noisy_walk(
            alice,
            &[(0, 0), (1, 0), (2, 0)],
            10.0,
            4,
            0.0,
            Time(0),
            &mut r,
        );
        for reading in readings {
            pipe.feed(reading, &mut engine);
        }
        assert_eq!(pipe.dropped, 0);
        assert_eq!(pipe.resolved, 12);
        assert_eq!(
            pipe.tracked_location(alice),
            Some(world.model.id("R2_0").unwrap())
        );
        // The movements DB saw enter/exit pairs for the path.
        assert_eq!(engine.movements().len(), 5); // enter, exit+enter, exit+enter
    }

    #[test]
    fn out_of_site_readings_are_dropped() {
        let (_, plan) = tracked_world();
        let mut pipe = TrackingPipeline::new(&plan, 8);
        let world = grid_building(3, 3);
        let mut engine = AccessControlEngine::new(world.model);
        pipe.feed(
            TagReading {
                time: Time(0),
                subject: SubjectId(0),
                position: Point::new(-50.0, -50.0),
            },
            &mut engine,
        );
        assert_eq!(pipe.dropped, 1);
        assert_eq!(pipe.resolved, 0);
    }

    #[test]
    fn moderate_noise_still_tracks_most_readings() {
        let (world, plan) = tracked_world();
        let alice = SubjectId(0);
        let mut engine = AccessControlEngine::new(world.model.clone());
        let mut pipe = TrackingPipeline::new(&plan, 8);
        let mut r = rng(6);
        let readings = noisy_walk(
            alice,
            &[(0, 0), (1, 0), (1, 1), (2, 1)],
            10.0,
            10,
            2.0,
            Time(0),
            &mut r,
        );
        let total = readings.len() as u64;
        for reading in readings {
            pipe.feed(reading, &mut engine);
        }
        assert_eq!(pipe.resolved + pipe.dropped, total);
        assert!(
            pipe.resolved as f64 / total as f64 > 0.9,
            "too many dropped readings"
        );
    }
}

//! Makespan-minimizing assignment on heterogeneous servers.
//!
//! The prescient baseline is a bin-packing scheduler: given per-file-set
//! demands and per-server speeds, find the permutation of file sets onto
//! servers that minimizes load skew (§7). Exact minimization is NP-hard
//! (multiprocessor scheduling on uniform machines); we use the classic LPT
//! (longest processing time first) greedy followed by best-improvement
//! pairwise moves/swaps, which is within a few percent of optimal at these
//! sizes — and strictly better-informed than anything ANU can do, since it
//! reads the *future* workload.

use anu_core::{FileSetId, ServerId};
use std::collections::BTreeMap;

/// Largest instance (file-set count) [`Instance::solve`] still refines
/// with the quadratic move/swap search; larger instances take the LPT
/// greedy as-is. Every canonical figure is far below this; only scaled
/// stress workloads cross it.
pub const REFINE_SIZE_CAP: usize = 4_096;

/// An assignment problem instance.
#[derive(Clone, Debug)]
pub struct Instance {
    /// `(file set, demand in seconds at speed 1)`.
    pub demands: Vec<(FileSetId, f64)>,
    /// `(server, speed)`, speeds > 0.
    pub servers: Vec<(ServerId, f64)>,
}

impl Instance {
    /// Normalized load (seconds of wall time) of each server under
    /// `assignment`.
    pub fn loads(&self, assignment: &BTreeMap<FileSetId, ServerId>) -> BTreeMap<ServerId, f64> {
        let mut loads: BTreeMap<ServerId, f64> =
            self.servers.iter().map(|&(s, _)| (s, 0.0)).collect();
        let speed: BTreeMap<ServerId, f64> = self.servers.iter().copied().collect();
        for &(fs, d) in &self.demands {
            let s = assignment[&fs];
            // anu-lint: allow(panic) -- assignments only reference servers from self.servers
            *loads.get_mut(&s).expect("assigned to known server") += d / speed[&s];
        }
        loads
    }

    /// Makespan (max normalized load) of `assignment`.
    pub fn makespan(&self, assignment: &BTreeMap<FileSetId, ServerId>) -> f64 {
        self.loads(assignment)
            .values()
            .fold(0.0f64, |a, &b| a.max(b))
    }

    /// LPT greedy: place demands in decreasing order, each on the server
    /// that minimizes its completion time `(load + d) / speed`.
    pub fn lpt(&self) -> BTreeMap<FileSetId, ServerId> {
        assert!(!self.servers.is_empty());
        let mut order: Vec<(FileSetId, f64)> = self.demands.clone();
        // Sort by demand descending, file-set id ascending for determinism.
        order.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut loads: Vec<f64> = vec![0.0; self.servers.len()];
        let mut out = BTreeMap::new();
        for (fs, d) in order {
            let (best, _) = self
                .servers
                .iter()
                .enumerate()
                .map(|(i, &(_, speed))| (i, (loads[i] * speed + d) / speed))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                // anu-lint: allow(panic) -- non-empty servers asserted at the top of lpt
                .expect("non-empty servers");
            loads[best] += d / self.servers[best].1;
            out.insert(fs, self.servers[best].0);
        }
        out
    }

    /// Lower bound on the makespan of *any* assignment of this instance:
    /// `max(Σd / Σspeed, max d / max speed)`, shrunk by a relative 1e-9.
    ///
    /// The first term is the capacity-proportional balance point — every
    /// server finishing at the same moment — and no packing can beat it
    /// because `Σ speed·load = Σ d`. The second holds because the largest
    /// set lands on some server, at best the fastest. The 1e-9 margin sits
    /// far above the `n·ε` rounding of the sums, so the bound stays at or
    /// below the makespan [`Instance::makespan`] *computes* for every
    /// assignment, not just the exact one. Servers must be non-empty.
    pub(crate) fn makespan_lower_bound(&self) -> f64 {
        let (total, largest) = self
            .demands
            .iter()
            .fold((0.0f64, 0.0f64), |(t, m), &(_, d)| (t + d, m.max(d)));
        let (capacity, fastest) = self
            .servers
            .iter()
            .fold((0.0f64, 0.0f64), |(t, m), &(_, s)| (t + s, m.max(s)));
        (total / capacity).max(largest / fastest) * (1.0 - 1e-9)
    }

    /// Best-improvement local search: repeatedly take the best
    /// makespan-lowering single *move* (one set off the most loaded
    /// server) or pairwise *swap* (exchange a hot-server set with a
    /// smaller set elsewhere), until neither helps (bounded iterations).
    ///
    /// Runs on dense positions: sets are indices into `demands`, servers
    /// indices into `servers`. Loads are re-summed each round in demand
    /// order, exactly as [`Instance::loads`] does, so every comparison sees
    /// the same floats. Ties break deterministically: the hot server is the
    /// last maximum in ascending id order, moves are tried in `servers`
    /// order and swaps in `demands` order, and only a strict improvement
    /// (by more than 1e-12) replaces the incumbent step. File-set and
    /// server ids must be unique, and `assignment` must home every demand
    /// on one of `servers`.
    pub fn refine(&self, assignment: &mut BTreeMap<FileSetId, ServerId>, max_rounds: usize) {
        let speeds: Vec<f64> = self.servers.iter().map(|&(_, s)| s).collect();
        // Server positions in ascending id order: the hot-server scan order
        // and the index for id -> position lookups.
        let mut by_id: Vec<usize> = (0..self.servers.len()).collect();
        by_id.sort_by_key(|&p| self.servers[p].0);
        let Some(&lowest) = by_id.first() else {
            return; // no servers, nothing to move between
        };
        let mut home: Vec<usize> = self
            .demands
            .iter()
            .map(|(fs, _)| {
                let s = assignment[fs];
                by_id
                    .binary_search_by_key(&s, |&p| self.servers[p].0)
                    .map(|k| by_id[k])
                    // anu-lint: allow(panic) -- assignments only reference servers from self.servers
                    .expect("assigned to known server")
            })
            .collect();

        enum Step {
            Move(usize, usize),
            Swap(usize, usize),
        }
        let mut loads = vec![0.0f64; speeds.len()];
        let mut hot_sets: Vec<usize> = Vec::new();
        let mut other_sets: Vec<usize> = Vec::new();
        for _ in 0..max_rounds {
            loads.fill(0.0);
            for (&(_, d), &h) in self.demands.iter().zip(&home) {
                loads[h] += d / speeds[h];
            }
            let hot = by_id.iter().fold(lowest, |best, &p| {
                if loads[p].total_cmp(&loads[best]).is_ge() {
                    p
                } else {
                    best
                }
            });
            let hot_load = loads[hot];
            let hot_speed = speeds[hot];
            // The two largest loads off the hot server: the peak over the
            // servers a step leaves untouched is `top` unless the step's
            // target is `top`'s server, then `second`.
            let (mut top, mut top_at, mut second) = (f64::NEG_INFINITY, hot, f64::NEG_INFINITY);
            for (p, &l) in loads.iter().enumerate() {
                if p == hot {
                    continue;
                }
                if l > top {
                    second = top;
                    top = l;
                    top_at = p;
                } else if l > second {
                    second = l;
                }
            }
            let untouched = |to: usize| if to == top_at { second } else { top };
            hot_sets.clear();
            other_sets.clear();
            for (i, &h) in home.iter().enumerate() {
                if h == hot {
                    hot_sets.push(i);
                } else {
                    other_sets.push(i);
                }
            }

            let mut best: Option<Step> = None;
            let mut bar = hot_load;
            // Single moves off the hot server.
            for &i in &hot_sets {
                let d = self.demands[i].1;
                let new_hot = hot_load - d / hot_speed;
                for (to, &to_speed) in speeds.iter().enumerate() {
                    if to == hot {
                        continue;
                    }
                    let new_to = loads[to] + d / to_speed;
                    let peak = new_hot.max(new_to).max(untouched(to));
                    if peak + 1e-12 < bar {
                        bar = peak;
                        best = Some(Step::Move(i, to));
                    }
                }
            }
            // Pairwise swaps between the hot server and any other. A swap
            // that brings no less demand than it takes leaves the hot
            // server at least as loaded, so it can never beat `bar`.
            for &a in &hot_sets {
                let da = self.demands[a].1;
                for &b in &other_sets {
                    let db = self.demands[b].1;
                    if db >= da {
                        continue;
                    }
                    let to = home[b];
                    let new_hot = hot_load + (db - da) / hot_speed;
                    let new_to = loads[to] + (da - db) / speeds[to];
                    let peak = new_hot.max(new_to).max(untouched(to));
                    if peak + 1e-12 < bar {
                        bar = peak;
                        best = Some(Step::Swap(a, b));
                    }
                }
            }

            match best {
                Some(Step::Move(i, to)) => home[i] = to,
                Some(Step::Swap(a, b)) => home.swap(a, b),
                None => break,
            }
        }
        for (&(fs, _), &h) in self.demands.iter().zip(&home) {
            assignment.insert(fs, self.servers[h].0);
        }
    }

    /// LPT followed by refinement — the prescient scheduler's core.
    ///
    /// Refinement's swap search is quadratic in the instance size, so it
    /// only runs up to [`REFINE_SIZE_CAP`] file sets. Above the cap the
    /// LPT greedy stands alone — with that many sets each is a sliver of
    /// the total demand and greedy placement is already within a sliver
    /// of the balanced optimum, while the swap search would dominate the
    /// whole simulation's run time.
    pub fn solve(&self) -> BTreeMap<FileSetId, ServerId> {
        let mut a = self.lpt();
        if self.demands.len() <= REFINE_SIZE_CAP {
            self.refine(&mut a, 64);
        }
        a
    }
}

#[cfg(test)]
impl Instance {
    /// The map-based refinement [`Instance::refine`] replaced, kept as the
    /// differential oracle: `BTreeMap` loads and speeds, the hot server
    /// from `BTreeMap::iter().max_by`, and the peak folded over every
    /// untouched server.
    pub(crate) fn refine_reference(
        &self,
        assignment: &mut BTreeMap<FileSetId, ServerId>,
        max_rounds: usize,
    ) {
        let speed: BTreeMap<ServerId, f64> = self.servers.iter().copied().collect();
        for _ in 0..max_rounds {
            let loads = self.loads(assignment);
            let (&hot, &hot_load) = loads
                .iter()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .expect("non-empty");
            let hot_sets: Vec<(FileSetId, f64)> = self
                .demands
                .iter()
                .copied()
                .filter(|&(fs, _)| assignment[&fs] == hot)
                .collect();
            let other_sets: Vec<(FileSetId, f64)> = self
                .demands
                .iter()
                .copied()
                .filter(|&(fs, _)| assignment[&fs] != hot)
                .collect();

            enum Step {
                Move(FileSetId, ServerId),
                Swap(FileSetId, FileSetId),
            }
            let mut best: Option<(Step, f64)> = None;
            let consider = |step: Step, peak: f64, best: &mut Option<(Step, f64)>| {
                if peak + 1e-12 < best.as_ref().map_or(hot_load, |&(_, p)| p) {
                    *best = Some((step, peak));
                }
            };

            // Single moves off the hot server.
            for &(fs, d) in &hot_sets {
                for &(to, to_speed) in &self.servers {
                    if to == hot {
                        continue;
                    }
                    let new_hot = hot_load - d / speed[&hot];
                    let new_to = loads[&to] + d / to_speed;
                    let peak = loads
                        .iter()
                        .filter(|&(&s, _)| s != hot && s != to)
                        .fold(new_hot.max(new_to), |a, (_, &l)| a.max(l));
                    consider(Step::Move(fs, to), peak, &mut best);
                }
            }
            // Pairwise swaps between the hot server and any other.
            for &(fa, da) in &hot_sets {
                for &(fb, db) in &other_sets {
                    let to = assignment[&fb];
                    let new_hot = hot_load + (db - da) / speed[&hot];
                    let new_to = loads[&to] + (da - db) / speed[&to];
                    let peak = loads
                        .iter()
                        .filter(|&(&s, _)| s != hot && s != to)
                        .fold(new_hot.max(new_to), |a, (_, &l)| a.max(l));
                    consider(Step::Swap(fa, fb), peak, &mut best);
                }
            }

            match best {
                Some((Step::Move(fs, to), _)) => {
                    assignment.insert(fs, to);
                }
                Some((Step::Swap(fa, fb), _)) => {
                    let sa = assignment[&fa];
                    let sb = assignment[&fb];
                    assignment.insert(fa, sb);
                    assignment.insert(fb, sa);
                }
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anu_des::RngStream;

    fn inst(demands: &[f64], speeds: &[f64]) -> Instance {
        Instance {
            demands: demands
                .iter()
                .enumerate()
                .map(|(i, &d)| (FileSetId(i as u64), d))
                .collect(),
            servers: speeds
                .iter()
                .enumerate()
                .map(|(i, &s)| (ServerId(i as u32), s))
                .collect(),
        }
    }

    #[test]
    fn lpt_on_identical_machines() {
        // Classic: 5,5,4,4,3,3,3 on 3 machines -> optimal makespan 9.
        let i = inst(&[5.0, 5.0, 4.0, 4.0, 3.0, 3.0, 3.0], &[1.0, 1.0, 1.0]);
        let a = i.solve();
        // Optimal is 9 ((5+4),(5+4),(3+3+3)); swap refinement reaches it
        // from LPT's 11.
        assert!(i.makespan(&a) <= 9.0 + 1e-9, "makespan {}", i.makespan(&a));
        // All demand placed.
        assert_eq!(a.len(), 7);
    }

    #[test]
    fn fast_server_gets_more_work() {
        let i = inst(&[1.0; 20], &[1.0, 9.0]);
        let a = i.solve();
        let loads = i.loads(&a);
        // Normalized loads roughly equal => fast server holds ~9x the sets.
        let n1 = a.values().filter(|&&s| s == ServerId(1)).count();
        assert!(n1 >= 16, "fast server got {n1} of 20");
        let l0 = loads[&ServerId(0)];
        let l1 = loads[&ServerId(1)];
        assert!((l0 - l1).abs() <= 1.0 + 1e-9, "{l0} vs {l1}");
    }

    #[test]
    fn single_huge_set_goes_to_fastest() {
        // One dominant set: optimal places it on the fastest server.
        let i = inst(&[100.0, 1.0, 1.0], &[1.0, 10.0]);
        let a = i.solve();
        assert_eq!(a[&FileSetId(0)], ServerId(1));
    }

    #[test]
    fn refine_improves_bad_start() {
        let i = inst(&[8.0, 7.0, 6.0, 5.0, 4.0], &[1.0, 1.0]);
        // Pathological start: everything on server 0.
        let mut a: BTreeMap<FileSetId, ServerId> =
            (0..5).map(|k| (FileSetId(k), ServerId(0))).collect();
        let before = i.makespan(&a);
        i.refine(&mut a, 100);
        let after = i.makespan(&a);
        assert!(after < before);
        assert!(after <= 16.0 + 1e-9); // optimal is 15
    }

    #[test]
    fn zero_demands_are_fine() {
        let i = inst(&[0.0, 0.0, 3.0], &[1.0, 2.0]);
        let a = i.solve();
        assert_eq!(a.len(), 3);
        assert!((i.makespan(&a) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn deterministic() {
        let i = inst(&[3.0, 3.0, 2.0, 2.0, 1.0], &[1.0, 2.0, 3.0]);
        assert_eq!(i.solve(), i.solve());
    }

    /// A seeded instance and start assignment built to stress the
    /// tie-breaking the dense refinement must reproduce: demands from a
    /// small palette with repeats and zeros (or continuous), equal or
    /// mixed speeds, 1-8 servers with sparse ids listed out of id order,
    /// sets listed out of id order, and starts that are either LPT or
    /// arbitrary.
    fn random_case(rng: &mut RngStream) -> (Instance, BTreeMap<FileSetId, ServerId>) {
        let n_servers = 1 + rng.index(8);
        // 3k + {0,1,2}: unique, sparse, then shuffled out of id order.
        let mut ids: Vec<u32> = (0..n_servers)
            .map(|k| (3 * k + rng.index(3)) as u32)
            .collect();
        rng.shuffle(&mut ids);
        let equal_speeds = rng.chance(0.3);
        let servers: Vec<(ServerId, f64)> = ids
            .iter()
            .map(|&id| {
                let speed = if equal_speeds {
                    2.0
                } else {
                    [1.0, 1.0, 3.0, 5.0, 7.0, 9.0, 2.5][rng.index(7)]
                };
                (ServerId(id), speed)
            })
            .collect();
        let tie_heavy = rng.chance(0.5);
        let mut demands: Vec<(FileSetId, f64)> = (0..rng.index(48))
            .map(|k| {
                let d = if tie_heavy {
                    [0.0, 0.5, 1.0, 1.0, 2.0, 3.0][rng.index(6)]
                } else if rng.chance(0.1) {
                    0.0
                } else {
                    rng.uniform_range(0.0, 10.0)
                };
                (FileSetId(k as u64), d)
            })
            .collect();
        rng.shuffle(&mut demands);
        let inst = Instance { demands, servers };
        let start = if rng.chance(0.5) {
            inst.lpt()
        } else {
            inst.demands
                .iter()
                .map(|&(fs, _)| (fs, inst.servers[rng.index(n_servers)].0))
                .collect()
        };
        (inst, start)
    }

    #[test]
    fn dense_refine_matches_reference() {
        let mut rng = RngStream::new(0x1f7, "lpt/refine-diff");
        for case in 0..3_000 {
            let (inst, start) = random_case(&mut rng);
            let rounds = [1, 2, 5, 64][rng.index(4)];
            let mut dense = start.clone();
            inst.refine(&mut dense, rounds);
            let mut reference = start;
            inst.refine_reference(&mut reference, rounds);
            assert_eq!(dense, reference, "case {case}: {inst:?}, {rounds} rounds");
        }
    }

    #[test]
    fn lower_bound_never_exceeds_a_computed_makespan() {
        let mut rng = RngStream::new(0x1f8, "lpt/lower-bound");
        for case in 0..500 {
            let (inst, start) = random_case(&mut rng);
            let lb = inst.makespan_lower_bound();
            for a in [start, inst.solve()] {
                assert!(lb <= inst.makespan(&a), "case {case}: {inst:?}");
            }
        }
        // Both terms bind: balance point vs one dominant set.
        let close = |i: Instance, want: f64| {
            let lb = i.makespan_lower_bound();
            assert!(lb <= want && want - lb <= want * 1e-8, "{lb} vs {want}");
        };
        close(inst(&[4.0, 4.0], &[1.0, 3.0]), 2.0);
        close(inst(&[9.0, 1.0], &[1.0, 3.0]), 3.0);
        close(inst(&[0.0, 0.0], &[1.0, 3.0]), 0.0);
    }
}

//! The benchmark's three workloads. Each is a sequence of *rounds*; round
//! `r` simulates a fixed grid of `(experiment, policy)` tasks generated from
//! the derived seed `task_seed(seed, r)`, so the inputs are a pure function
//! of `(workload, seed, rounds)` and only the generated experiments reach
//! the simulator.

use anu::cluster::{plan_faults, FaultPlanConfig};
use anu::core::TuningConfig;
use anu::des::task_seed;
use anu::harness::{all_figures, figure_scaled, storm_cluster, Experiment, PolicyKind};
use anu::workload::{CostModel, StormConfig, StormKind, SyntheticConfig};

/// Scale factor of the hot-path figures (file sets and requests).
pub const HOTPATH_SCALE: u64 = 20;

/// Request multiplier over the storm cell's 10,000 requests.
pub const CHURN_SCALE: u64 = 5;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Figures 6–11 at paper scale, one seed per round, on the harness pool.
    PaperEnsemble,
    /// Figures 6 and 8 at ×20 without the oracle, one task at a time.
    ScaleHotpath,
    /// Storm cells under membership churn, each run traced and read back.
    ChurnTraced,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperEnsemble,
        Workload::ScaleHotpath,
        Workload::ChurnTraced,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperEnsemble => "paper-ensemble",
            Workload::ScaleHotpath => "scale-hotpath",
            Workload::ChurnTraced => "churn-traced",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Worker threads the timed run uses: the harness pool on
    /// paper-ensemble, one thread elsewhere.
    pub fn jobs(self, nproc: usize) -> usize {
        match self {
            Workload::PaperEnsemble => nproc,
            Workload::ScaleHotpath | Workload::ChurnTraced => 1,
        }
    }

    /// Host seconds one round takes on a 2-core x86-64 machine; fixes how
    /// many rounds a run of `--seconds` holds.
    fn nominal_round_secs(self) -> f64 {
        match self {
            Workload::PaperEnsemble => 5.0,
            Workload::ScaleHotpath => 4.2,
            Workload::ChurnTraced => 0.5,
        }
    }

    /// Rounds in a run of `seconds`. A function of the arguments only, never
    /// of measured speed, so a faster build simulates the same work and
    /// shows up as a shorter wall time.
    pub fn rounds(self, seconds: u64) -> u64 {
        let n = (seconds as f64 / self.nominal_round_secs()).round() as u64;
        n.max(3)
    }

    /// The experiments of round `r`.
    pub fn round(self, seed: u64, r: u64) -> Vec<Experiment> {
        let s = task_seed(seed, r);
        match self {
            Workload::PaperEnsemble => all_figures(s),
            Workload::ScaleHotpath => [6, 8]
                .into_iter()
                .map(|n| {
                    // Figures 6 and 8 are evaluation figures, so both exist.
                    let mut exp = figure_scaled(n, s, HOTPATH_SCALE).expect("evaluation figure");
                    exp.policies = hotpath_policies();
                    exp
                })
                .collect(),
            Workload::ChurnTraced => [StormKind::FlashCrowd, StormKind::PopularityShift]
                .into_iter()
                .map(|kind| churn_experiment(kind, s))
                .collect(),
        }
    }
}

/// Both static baselines and ANU with and without the heuristics: no
/// oracle, so host time goes to the simulator and the tuner.
fn hotpath_policies() -> Vec<(String, PolicyKind)> {
    vec![
        ("simple-randomization".into(), PolicyKind::SimpleRandom),
        ("round-robin".into(), PolicyKind::RoundRobin),
        (
            "anu-randomization".into(),
            PolicyKind::Anu {
                tuning: TuningConfig::paper(),
            },
        ),
        (
            "anu-no-heuristics".into(),
            PolicyKind::Anu {
                tuning: TuningConfig::plain(),
            },
        ),
    ]
}

/// A storm cell at intensity 1.0 on `storm_cluster()` (five heterogeneous
/// cores, two standbys, autoscaler, shed ceiling 64) with the matching
/// churn fault script, at [`CHURN_SCALE`]× the cell's requests and the same
/// offered load. Mirrors `anu_harness::storm_experiment` except for the
/// request count and the lineup, which drops the oracle.
pub fn churn_experiment(kind: StormKind, seed: u64) -> Experiment {
    let mut cluster = storm_cluster();
    let core = cluster.core_server_ids();
    let core_speed: f64 = cluster
        .servers
        .iter()
        .filter(|s| core.contains(&s.id))
        .map(|s| s.speed)
        .sum();
    let mut base = SyntheticConfig::paper(seed);
    base.total_requests = 10_000 * CHURN_SCALE;
    base.duration_secs = 1_000.0;
    base = base.with_offered_load(0.5, core_speed);
    base.cost = CostModel::Pareto { alpha: 1.5 };
    let workload = StormConfig {
        kind,
        intensity: 1.0,
        base,
    }
    .generate();
    let env = FaultPlanConfig::churn_storm(1.0, workload.duration().as_secs_f64());
    cluster.faults = plan_faults(&env, &core, seed);
    Experiment {
        name: format!("churn_{}", kind.name()),
        cluster,
        workload,
        policies: vec![
            ("simple-randomization".into(), PolicyKind::SimpleRandom),
            ("round-robin".into(), PolicyKind::RoundRobin),
            (
                "anu-randomization".into(),
                PolicyKind::Anu {
                    tuning: TuningConfig::paper(),
                },
            ),
        ],
        seed,
    }
}

/// The layer a policy belongs to in the per-layer report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PolicyClass {
    /// The perfect-knowledge oracle (`lpt.rs` re-solves).
    Prescient,
    /// ANU and its heuristic variants.
    Anu,
    /// Static placements: simple randomization, round-robin, rendezvous.
    Static,
}

impl PolicyClass {
    /// Every class, in report order.
    pub const ALL: [PolicyClass; 3] = [
        PolicyClass::Prescient,
        PolicyClass::Anu,
        PolicyClass::Static,
    ];

    /// Classify a policy factory.
    pub fn of(kind: &PolicyKind) -> PolicyClass {
        match kind {
            PolicyKind::Prescient { .. } | PolicyKind::PrescientFrozen => PolicyClass::Prescient,
            PolicyKind::Anu { .. } | PolicyKind::AnuGossip { .. } => PolicyClass::Anu,
            PolicyKind::SimpleRandom
            | PolicyKind::RoundRobin
            | PolicyKind::Rendezvous
            | PolicyKind::WeightedRendezvous => PolicyClass::Static,
        }
    }

    /// Metric-name segment.
    pub fn name(self) -> &'static str {
        match self {
            PolicyClass::Prescient => "prescient",
            PolicyClass::Anu => "anu",
            PolicyClass::Static => "static",
        }
    }
}

/// True for ANU runs with the paper's tuning (all three heuristics), the
/// runs the `anu_*` latency metrics average over.
pub fn is_paper_anu(kind: &PolicyKind) -> bool {
    matches!(kind, PolicyKind::Anu { tuning } if *tuning == TuningConfig::paper())
}

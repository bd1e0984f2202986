//! Ablation studies beyond the paper's figures, run by
//! `figures --ablations`.
//!
//! Each study varies one knob of the Figure 8 setting (the paper cluster
//! under the 500-set synthetic workload at half load) or swaps the cluster
//! or workload around it: the delegate's average (paper §4 claims
//! robustness to it; a check), the threshold `t`, the scaling exponent
//! gamma, homogeneous servers, pairwise gossip tuning (§5 future work), a
//! delegate crash before every third tick (§4 statelessness; a check),
//! offered load from 0.15 to 0.85 (where static placement collapses),
//! file-set count and skew (convergence), 50 servers with 5000 file sets,
//! and plain and speed-weighted rendezvous hashing (what adaptivity adds
//! over static, even capacity-weighted, hashing). The churn study measures
//! movement on failure and recovery on the placement map alone (a check).
//!
//! Settings on the same cluster and workload share one experiment, and a
//! policy joins its lineup once: the Figure 8 ANU run serves eight
//! studies. Each setting is one row of `ablations_summary.csv`.

use crate::experiment::{Experiment, PolicyKind, PrescientWindow};
use crate::figures::ShapeCheck;
use crate::report::{csv_field, write_csv};
use crate::runner::{Section, SectionReport};
use anu_cluster::{late_imbalance, late_mean, ClusterConfig, FaultEvent, RunResult, ServerSpec};
use anu_core::{AverageKind, FileSetId, Json, Matching, PlacementMap, ServerId, TuningConfig};
use anu_des::{SimDuration, SimTime};
use anu_workload::{SyntheticConfig, WeightDist};
use std::io::{self, Write as _};

/// Lineup label of ANU with the paper's tuning.
const ANU: &str = "anu-randomization";

/// The cluster and workload a study setting runs on.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Env {
    /// The paper cluster under the synthetic workload with this many file
    /// sets, power-of-uniform skew and offered load; Figure 8 is
    /// `(500, 1000, 0.5)`.
    Synthetic(usize, f64, f64),
    /// Five speed-1 servers under the Figure 8 workload at half load.
    Homogeneous,
    /// Figure 8 with a delegate crash before every third tick.
    Failover,
    /// 50 servers of speeds 1 to 9 under 5000 file sets at load 0.55.
    Scale,
}

impl Env {
    /// This setting's experiment, with an empty lineup.
    fn experiment(self, seed: u64) -> Experiment {
        let paper = SyntheticConfig::paper(seed);
        let mut cluster = match self {
            Env::Homogeneous => ClusterConfig::homogeneous(5),
            _ => ClusterConfig::paper(),
        };
        let (name, config, rho) = match self {
            Env::Synthetic(sets, alpha, rho) => {
                let name = format!("ablation_n{sets}_a{alpha}_r{:03}", (rho * 100.0).round());
                let weights = WeightDist::PowerOfUniform { alpha };
                let config = SyntheticConfig {
                    n_file_sets: sets,
                    weights,
                    ..paper
                };
                (name, config, rho)
            }
            Env::Homogeneous => ("ablation_homogeneous".into(), paper, 0.5),
            Env::Failover => ("ablation_failover".into(), paper, 0.5),
            Env::Scale => {
                cluster.servers = (0..50u32)
                    .map(|i| ServerSpec {
                        id: ServerId(i),
                        speed: 1.0 + f64::from(i % 9),
                    })
                    .collect();
                let config = SyntheticConfig {
                    n_file_sets: 5_000,
                    total_requests: 300_000,
                    duration_secs: 6_000.0,
                    ..paper
                };
                ("ablation_scale".into(), config, 0.55)
            }
        };
        let workload = config
            .with_offered_load(rho, cluster.total_speed())
            .generate();
        if self == Env::Failover {
            // Crashes with instant re-election at every third tick instant.
            // Faults are scheduled before any tick, and the calendar breaks
            // time ties by schedule order, so each crash lands just ahead of
            // its tick: the successor plans that tick with no tuner state.
            let every = SimDuration(3 * cluster.tick.0);
            let horizon = SimTime::ZERO + workload.duration();
            cluster.faults =
                std::iter::successors(Some(SimTime::ZERO + every), |&t| Some(t + every))
                    .take_while(|&at| at <= horizon)
                    .map(|at| FaultEvent::DelegateFail { at, pause_ticks: 0 })
                    .collect();
        }
        Experiment {
            name,
            cluster,
            workload,
            policies: Vec::new(),
            seed,
        }
    }
}

/// One row of `ablations_summary.csv`: a study setting and the
/// `(experiment, policy)` run that measured it.
struct Row {
    study: &'static str,
    setting: String,
    experiment: usize,
    policy: usize,
}

/// Every study's settings as experiments with deduplicated lineups, plus
/// the summary rows that read them and the indices of the rows the checks
/// compare: weighted-mean and median average, stable and crashing delegate.
fn plan(seed: u64) -> (Vec<Experiment>, Vec<Row>, [usize; 4]) {
    let (mut envs, mut exps, mut rows) = (Vec::new(), Vec::<Experiment>::new(), Vec::new());
    let mut add = |study, setting: &str, env: Env, label: &str, kind: PolicyKind| {
        let experiment = envs.iter().position(|&e| e == env).unwrap_or_else(|| {
            envs.push(env);
            exps.push(env.experiment(seed));
            exps.len() - 1
        });
        let lineup = &mut exps[experiment].policies;
        let policy = lineup
            .iter()
            .position(|(_, k)| *k == kind)
            .unwrap_or_else(|| {
                lineup.push((label.to_string(), kind));
                lineup.len() - 1
            });
        let setting = setting.to_string();
        rows.push(Row {
            study,
            setting,
            experiment,
            policy,
        });
        rows.len() - 1
    };
    let paper = TuningConfig::paper();
    let anu = |tuning| PolicyKind::Anu { tuning };
    let gossip = |matching| PolicyKind::AnuGossip {
        tuning: paper,
        matching,
    };
    let prescient = || PolicyKind::Prescient {
        window: PrescientWindow::Full,
    };
    let fig8 = Env::Synthetic(500, 1000.0, 0.5);

    let weighted = add("average", "weighted-mean", fig8, ANU, anu(paper));
    let mut median = paper;
    median.average = AverageKind::Median;
    let median = add("average", "median", fig8, "anu-median", anu(median));
    for t in [0.1, 0.25, 0.5, 1.0, 2.0] {
        let (setting, label, mut tuning) = (format!("t={t}"), format!("anu-t{t}"), paper);
        tuning.threshold = Some(t);
        add("threshold", &setting, fig8, &label, anu(tuning));
    }
    for g in [0.25, 0.5, 1.0] {
        let (setting, label, mut tuning) = (format!("gamma={g}"), format!("anu-gamma{g}"), paper);
        tuning.gamma = g;
        add("gamma", &setting, fig8, &label, anu(tuning));
    }
    // In policy comparisons each setting is the policy's own label.
    for (setting, kind) in [
        ("simple-randomization", PolicyKind::SimpleRandom),
        (ANU, anu(paper)),
        ("dynamic-prescient", prescient()),
    ] {
        add("homogeneous", setting, Env::Homogeneous, setting, kind);
    }
    for (setting, kind) in [
        ("centralized", anu(paper)),
        ("gossip-hilo", gossip(Matching::HiLo)),
        ("gossip-random", gossip(Matching::Random)),
    ] {
        add("decentralized", setting, fig8, setting, kind);
    }
    let stable = add("failover", "stable", fig8, ANU, anu(paper));
    let crashing = add("failover", "crashing", Env::Failover, ANU, anu(paper));
    for rho in [0.15, 0.3, 0.5, 0.7, 0.85] {
        let (setting, env) = (format!("rho={rho}"), Env::Synthetic(500, 1000.0, rho));
        for (label, kind) in [
            ("round-robin", PolicyKind::RoundRobin),
            ("dynamic-prescient", prescient()),
            (ANU, anu(paper)),
        ] {
            add("crossover", &setting, env, label, kind);
        }
    }
    for (sets, alpha) in [
        (50, 100.0),
        (200, 100.0),
        (500, 100.0),
        (500, 1e3),
        (2000, 1e3),
    ] {
        let setting = format!("sets={sets} alpha={alpha}");
        let env = Env::Synthetic(sets, alpha, 0.5);
        add("convergence", &setting, env, ANU, anu(paper));
    }
    for (setting, kind) in [("round-robin", PolicyKind::RoundRobin), (ANU, anu(paper))] {
        add("scale", setting, Env::Scale, setting, kind);
    }
    for (setting, kind) in [
        ("rendezvous", PolicyKind::Rendezvous),
        ("weighted-rendezvous", PolicyKind::WeightedRendezvous),
        (ANU, anu(paper)),
    ] {
        add("hashing", setting, fig8, setting, kind);
    }
    (exps, rows, [weighted, median, stable, crashing])
}

/// Paper §4: the delegate is robust to its choice of average. Passes when
/// the weighted-mean and median late means lie within 50% of the larger.
fn average_check(weighted: &RunResult, median: &RunResult) -> ShapeCheck {
    let (w, m) = (late_mean(&weighted.series), late_mean(&median.series));
    ShapeCheck {
        claim: "ablations: the delegate is robust to its choice of average \
                (weighted-mean and median late means within 50%, paper §4)"
            .into(),
        measured: format!("late mean {w:.1} vs {m:.1} ms (weighted mean vs median)"),
        pass: (w - m).abs() <= 0.5 * w.max(m),
    }
}

/// Paper §4 statelessness: delegate crashes barely change the outcome.
/// Passes when the crashing delegate's late mean stays under 1.5x the
/// stable delegate's.
fn failover_check(stable: &RunResult, crashing: &RunResult) -> ShapeCheck {
    let (s, c) = (late_mean(&stable.series), late_mean(&crashing.series));
    ShapeCheck {
        claim: "ablations: delegate crashes before every third tick barely change the outcome \
                (late mean under 1.5x the stable delegate's, paper §4)"
            .into(),
        measured: format!(
            "late mean {s:.1} vs {c:.1} ms, moves {} vs {} (stable vs crashing delegate)",
            stable.summary.migrations, crashing.summary.migrations
        ),
        pass: c / s.max(1.0) < 1.5,
    }
}

/// Movement under membership churn, on the placement map alone: 1000 file
/// sets on five servers lose server 2, which then returns either the
/// paper's way (free partition, scale back) or by partition takeover.
/// Passes when the failure moves exactly the orphaned sets, takeover moves
/// sets only to the returning server, and both recoveries move fewer sets
/// than re-randomizing everything (a fresh map under another seed).
fn churn_check(seed: u64) -> anu_core::Result<ShapeCheck> {
    let servers: Vec<ServerId> = (0..5).map(ServerId).collect();
    let names: Vec<[u8; 8]> = (0..1000u64).map(|i| FileSetId(i).name_bytes()).collect();
    let owners =
        |map: &PlacementMap| -> Vec<ServerId> { names.iter().map(|n| map.locate(n)).collect() };
    let moved = |a: &[ServerId], b: &[ServerId]| a.iter().zip(b).filter(|(x, y)| x != y).count();
    let back = ServerId(2);

    let mut map = PlacementMap::with_default_rounds(&servers, seed)?;
    let before = owners(&map);
    map.remove_server(back)?;
    let after_fail = owners(&map);
    let mut takeover = map.clone();
    map.add_server(back)?;
    takeover.add_server_takeover(back)?;
    let (recovered, taken) = (owners(&map), owners(&takeover));
    let naive = owners(&PlacementMap::with_default_rounds(&servers, seed ^ 0xdead)?);

    let orphaned = before.iter().filter(|&&s| s == back).count();
    let third_party = after_fail
        .iter()
        .zip(&taken)
        .filter(|(was, now)| was != now && **now != back)
        .count();
    let (moved_fail, moved_rec) = (moved(&before, &after_fail), moved(&after_fail, &recovered));
    let (moved_tk, moved_naive) = (moved(&after_fail, &taken), moved(&before, &naive));
    Ok(ShapeCheck {
        claim: "ablations: churn moves the minimum: a failure moves only the orphaned sets, \
                partition takeover moves sets only to the returning server, and both \
                recoveries move fewer sets than re-randomizing"
            .into(),
        measured: format!(
            "of 1000 sets: failure {moved_fail} moved of {orphaned} orphaned; recovery \
             {moved_rec} moved (free partition), {moved_tk} with {third_party} to third parties \
             (takeover); re-randomizing {moved_naive}"
        ),
        pass: moved_fail == orphaned && third_party == 0 && moved_rec.max(moved_tk) < moved_naive,
    })
}

/// The `figures --ablations` section: every study's runs, untraced, with
/// `ablations_summary.csv` (late mean, late imbalance, moves, and tuned
/// ticks — those where the tuner planned and sets moved — of each
/// setting), the average, failover and churn checks, and a manifest
/// fragment carrying the checks.
pub fn ablation_section(seed: u64) -> Section {
    let (experiments, rows, [weighted, median, stable, crashing]) = plan(seed);
    Section {
        name: "ablations",
        experiments,
        per_run_outputs: false,
        finish: Box::new(move |exps, grouped, dir| {
            let run = |i: usize| &grouped[rows[i].experiment][rows[i].policy];
            let checks = vec![
                average_check(run(weighted), run(median)),
                failover_check(run(stable), run(crashing)),
                churn_check(seed).map_err(io::Error::other)?,
            ];
            write_csv(
                dir.join("ablations_summary.csv"),
                "study,setting,experiment,policy,late_mean_ms,imbalance_cov,moves,tuned_ticks,ticks",
                |f| {
                    for (i, row) in rows.iter().enumerate() {
                        let r = run(i);
                        let tuned = r.epochs.iter().filter(|e| {
                            e.moves > 0 && e.tune.as_ref().is_some_and(|t| t.planned)
                        });
                        writeln!(
                            f,
                            "{},{},{},{},{:.1},{:.2},{},{},{}",
                            row.study,
                            csv_field(&row.setting),
                            exps[row.experiment].name,
                            csv_field(&r.policy),
                            late_mean(&r.series),
                            late_imbalance(&r.series),
                            r.summary.migrations,
                            tuned.count(),
                            r.epochs.len()
                        )?;
                    }
                    Ok(())
                },
            )?;
            let manifest = Json::obj(vec![
                ("seed", Json::u64(seed)),
                ("rows", Json::usize(rows.len())),
                ("pass", Json::bool(checks.iter().all(|c| c.pass))),
                (
                    "checks",
                    Json::arr(checks.iter().map(ShapeCheck::to_json).collect()),
                ),
            ]);
            Ok(SectionReport { checks, manifest })
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::DEFAULT_SEED;
    use crate::runner::{group_results, run_grid};

    #[test]
    fn studies_share_runs_and_never_repeat_one() {
        let (exps, rows, _) = plan(DEFAULT_SEED);
        for exp in &exps {
            let kinds: Vec<&PolicyKind> = exp.policies.iter().map(|(_, k)| k).collect();
            let repeats = (0..kinds.len()).filter(|&i| kinds[..i].contains(&kinds[i]));
            assert_eq!(repeats.count(), 0, "{} runs a policy twice", exp.name);
        }
        // Average, threshold, gamma, decentralized, failover, crossover,
        // convergence and hashing all read the one Figure 8 ANU run.
        let fig8_anu = rows.iter().filter(|r| (r.experiment, r.policy) == (0, 0));
        assert_eq!(fig8_anu.count(), 8);
        assert_eq!(exps[0].policies[0].0, ANU);
    }

    /// Assert that `check` passes and its measured text carries `wants`.
    fn assert_passes_with(check: &ShapeCheck, wants: &[&str]) {
        assert!(check.pass, "{}", check.measured);
        for want in wants {
            assert!(check.measured.contains(want), "{}", check.measured);
        }
    }

    #[test]
    fn average_failover_and_churn_checks_pass_at_the_default_seed() {
        let seed = DEFAULT_SEED;
        let (paper, mut median) = (TuningConfig::paper(), TuningConfig::paper());
        median.average = AverageKind::Median;
        let mut base = Env::Synthetic(500, 1000.0, 0.5).experiment(seed);
        base.policies = vec![
            (ANU.into(), PolicyKind::Anu { tuning: paper }),
            ("anu-median".into(), PolicyKind::Anu { tuning: median }),
        ];
        let mut crashy = Env::Failover.experiment(seed);
        crashy.policies = vec![(ANU.into(), PolicyKind::Anu { tuning: paper })];
        let grouped = group_results(run_grid(&[base, crashy], 0), 2);

        let average = average_check(&grouped[0][0], &grouped[0][1]);
        assert_passes_with(&average, &["329.9 vs 345.5 ms"]);
        let failover = failover_check(&grouped[0][0], &grouped[1][0]);
        assert_passes_with(&failover, &["329.9 vs 331.1 ms, moves 449 vs 453"]);
        let churn = churn_check(seed).unwrap();
        let moved = [
            "212 moved of 212 orphaned",
            "294 moved",
            "291 with 0 to third parties",
        ];
        assert_passes_with(&churn, &moved);
        assert_passes_with(&churn, &["re-randomizing 805"]);
    }
}

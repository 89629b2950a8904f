//! The `campaign` workload: a crash-injection campaign over f1–f12,
//! run through the fleet runtime with the mined-invariant oracle on.
//!
//! The campaign's inputs are its site matrix, which is fixed: stride,
//! budget, policies and the workload seed inside the campaign do not
//! depend on `--seed`. A seeded matrix would change which sites are
//! tested, and with them the number of f2 trials that hit the known
//! fault below, so the share of failed trials would differ from run to
//! run. `--seed` only rotates the order the scenarios are queued in,
//! which the fleet promises does not change a verdict.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use arthas::AnalysisCache;
use inject::{run_fleet, run_scenario_campaign, CampaignConfig, FleetConfig, Trial, TrialVerdict};
use obs::{Recorder, Value};
use pm_workload::Scenario;

use crate::ledger::CampaignFigures;

/// One campaign pass: scenarios, site stride and per-scenario budget.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Scenario ids.
    pub ids: &'static [&'static str],
    /// Test every `stride`-th durability boundary.
    pub stride: u64,
    /// Trials per scenario (sites × two policies).
    pub budget: usize,
}

/// A round runs both passes. The sweep tests the first 50 sites at
/// stride 8 of every scenario (about 1,050 trials, enough for a p99
/// with ten trials beyond it). Its budget stops f2 at site 392, so the
/// second pass reaches f2's late persist sites at stride 512: sites 0,
/// 512, 1024 and 1536, the last of which hits the known fault below.
pub const PASSES: [Pass; 2] = [
    Pass {
        ids: &[
            "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "f10", "f11", "f12",
        ],
        stride: 8,
        budget: 100,
    },
    Pass {
        ids: &["f2"],
        stride: 512,
        budget: 60,
    },
];
/// Trial runners (the host's two cores).
pub const RUNNERS: usize = 2;
/// Workload seed inside the campaign (see the module comment).
pub const CAMPAIGN_SEED: u64 = 1;
/// f2's known fault: from this site on, both policies end
/// `invariant_violated` after the reactor's 200-attempt cap, because it
/// reverts one candidate per re-execution.
pub const F2_FAULT_FROM_SITE: u64 = 1496;
/// The reactor's default attempt cap.
pub const REACTOR_CAP: u32 = 200;

/// The f4-only pass the serving workloads' traced runs use to measure
/// the inject layer on their own backend's fault.
pub const F4_PASS: Pass = Pass {
    ids: &["f4"],
    stride: 8,
    budget: 100,
};

/// A pass with its scenarios resolved.
pub struct Queued {
    pass: Pass,
    scenarios: Vec<Box<dyn Scenario>>,
}

/// Resolves the passes, with each pass's scenarios queued in an order
/// rotated by `seed`.
pub fn queue(passes: &[Pass], seed: u64) -> Result<Vec<Queued>, String> {
    passes
        .iter()
        .map(|&pass| {
            let mut scenarios = pm_workload::scenarios::by_ids(pass.ids)?;
            let n = scenarios.len() as u64;
            scenarios.rotate_left((seed % n) as usize);
            Ok(Queued { pass, scenarios })
        })
        .collect()
}

/// Every distinct scenario of a queue, in first-seen order.
pub fn distinct(queue: &[Queued]) -> Vec<&dyn Scenario> {
    let mut seen = std::collections::BTreeSet::new();
    queue
        .iter()
        .flat_map(|q| q.scenarios.iter())
        .filter(|s| seen.insert(s.id()))
        .map(|s| s.as_ref())
        .collect()
}

/// Set-up: the analysis of every application module, in an in-memory
/// cache the campaign's preparation then reuses.
pub fn setup(queue: &[Queued]) -> Arc<AnalysisCache> {
    let cache = AnalysisCache::in_memory();
    for s in distinct(queue) {
        cache.load_or_compute(&s.build_module());
    }
    Arc::new(cache)
}

fn config(pass: Pass, cache: Arc<AnalysisCache>, runners: usize) -> Result<CampaignConfig, String> {
    CampaignConfig::builder()
        .stride(pass.stride)
        .budget(pass.budget)
        .runners(runners)
        .seed(CAMPAIGN_SEED)
        .invariants(true)
        .analysis_cache(Some(cache))
        .build()
        .map_err(|e| format!("campaign config: {e:?}"))
}

/// Timestamps fleet events as they arrive: a worker starts its next
/// trial as soon as it reports the last one done, so the gap between a
/// worker's consecutive `fleet.trial_done` events is one trial.
struct TrialClock {
    start: Instant,
    state: Mutex<ClockState>,
}

#[derive(Default)]
struct ClockState {
    queue_built: Option<Instant>,
    last: HashMap<ThreadId, Instant>,
    trial_us: Vec<f64>,
}

impl Recorder for TrialClock {
    fn event(&self, kind: &'static str, _fields: Vec<(&'static str, Value)>) {
        let now = Instant::now();
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        match kind {
            "fleet.queue_built" => st.queue_built = Some(now),
            "fleet.trial_done" => {
                let from = st
                    .last
                    .insert(std::thread::current().id(), now)
                    .or(st.queue_built)
                    .unwrap_or(self.start);
                st.trial_us.push((now - from).as_secs_f64() * 1e6);
            }
            _ => {}
        }
    }
    fn add(&self, _counter: &'static str, _delta: u64) {}
    fn observe_us(&self, _hist: &'static str, _micros: u64) {}
}

/// One round: every pass once.
#[derive(Debug, Default)]
pub struct Round {
    /// Trials classified.
    pub trials: u64,
    /// f2 trials that hit the known fault.
    pub failed: u64,
    /// Verdicts outside what the campaign allows.
    pub errors: Vec<String>,
    /// Wall of the fleet runs.
    pub wall: Duration,
    /// Per-trial latencies (µs).
    pub trial_us: Vec<f64>,
    /// Wall of the prepare phases (enumeration and mining).
    pub prepare: Duration,
    /// Reactor re-executions summed over the trials.
    pub attempts: u64,
    /// f4's rows, for the runner-count check.
    pub f4_rows: Vec<Trial>,
    /// The pass f4's rows came from.
    pub f4_pass: Option<Pass>,
}

/// Runs every pass once on [`RUNNERS`] fleet workers and judges every
/// verdict.
pub fn round(queue: &[Queued], cache: &Arc<AnalysisCache>) -> Result<Round, String> {
    let mut out = Round::default();
    for q in queue {
        let clock = Arc::new(TrialClock {
            start: Instant::now(),
            state: Mutex::new(ClockState::default()),
        });
        let fleet = FleetConfig::builder(config(q.pass, cache.clone(), RUNNERS)?)
            .recorder(clock.clone())
            .build()
            .map_err(|e| format!("fleet config: {e:?}"))?;
        let t0 = Instant::now();
        let rep = run_fleet(&q.scenarios, &fleet).map_err(|e| format!("fleet: {e}"))?;
        let wall = t0.elapsed();
        out.wall += wall;
        let st = clock.state.lock().unwrap_or_else(|p| p.into_inner());
        out.prepare += st.queue_built.map_or(wall, |b| b - t0);
        out.trial_us.extend_from_slice(&st.trial_us);
        if !rep.complete {
            out.errors.push("fleet run incomplete".into());
        }
        for sc in &rep.campaign.scenarios {
            for t in &sc.trials {
                out.trials += 1;
                out.attempts += u64::from(t.attempts);
                match t.verdict {
                    TrialVerdict::CleanRecovery | TrialVerdict::Mitigated => {}
                    TrialVerdict::InvariantViolated
                        if sc.id == "f2"
                            && t.site >= F2_FAULT_FROM_SITE
                            && t.attempts == REACTOR_CAP =>
                    {
                        out.failed += 1
                    }
                    v => out.errors.push(format!(
                        "{} site {} {:?}: {} after {} attempts",
                        sc.id,
                        t.site,
                        t.policy,
                        v.as_str(),
                        t.attempts
                    )),
                }
            }
            if sc.id == "f4" && out.f4_rows.is_empty() {
                out.f4_rows = sc.trials.clone();
                out.f4_pass = Some(q.pass);
            }
        }
    }
    if out.trial_us.len() as u64 != out.trials {
        out.errors.push(format!(
            "timed {} trials of {}",
            out.trial_us.len(),
            out.trials
        ));
    }
    Ok(out)
}

/// The campaign engine's promise: verdicts do not depend on the number
/// of runners. Re-runs f4's pass on one runner and compares with the
/// fleet's two-worker rows.
pub fn check_runner_independence(
    cache: &Arc<AnalysisCache>,
    round: &Round,
) -> Result<Option<String>, String> {
    let Some(pass) = round.f4_pass else {
        return Ok(Some("the round ran no f4 trials".into()));
    };
    let f4 = pm_workload::scenarios::by_id("f4").ok_or("no scenario f4")?;
    let one = run_scenario_campaign(f4.as_ref(), &config(pass, cache.clone(), 1)?);
    let key = |t: &Trial| (t.site, format!("{:?}", t.policy), t.verdict, t.attempts);
    let a: Vec<_> = one.trials.iter().map(key).collect();
    let b: Vec<_> = round.f4_rows.iter().map(key).collect();
    Ok((a != b).then(|| format!("f4 verdicts differ between 1 and 2 runners: {a:?} vs {b:?}")))
}

/// Ledger figures from a set of rounds.
pub fn figures(rounds: &[Round]) -> CampaignFigures {
    let trials: u64 = rounds.iter().map(|r| r.trials).sum();
    let attempts: u64 = rounds.iter().map(|r| r.attempts).sum();
    let mut prep: Vec<f64> = rounds
        .iter()
        .map(|r| r.prepare.as_secs_f64() * 1e3)
        .collect();
    let mut trial_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.trial_us.iter().map(|u| u / 1e3))
        .collect();
    CampaignFigures {
        prepare_ms: crate::report::median(&mut prep).unwrap_or(0.0),
        trial_ms: crate::report::median(&mut trial_ms).unwrap_or(0.0),
        attempts_per_trial: attempts as f64 / trials.max(1) as f64,
    }
}

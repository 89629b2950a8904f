//! The layer ledger: per-layer costs measured from outside, by timing
//! calls into each crate's public functions from the benchmark's own
//! code. Only traced runs build it; nothing here runs while end-to-end
//! numbers are measured.
//!
//! * [`serving`] replays a run's op stream through `serve::Engine`
//!   (engine layer), then through a bare `pir::Vm` over the
//!   instrumented kvcache module (VM, pmemsim, trace and health-probe
//!   layers), then once more with a timing sink around a `ShardedLog`
//!   (checkpoint-log layer). It finishes with an in-process f4 fault on
//!   the replay engine (fault layer).
//! * [`recovery`] times the analysis cache cold and warm, each
//!   scenario's production run and its reactor mitigation (with a
//!   timing re-execution target), and an injection campaign.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use arthas::{
    analyze_and_instrument_cached, AnalysisCache, FailureRecord, ForkableTarget, PmTrace, Reactor,
    ReactorConfig, ShardedLog, Target,
};
use obs::RingRecorder;
use pir::vm::{Vm, VmOpts};
use pm_workload::{run_production, AppSetup, RunConfig, Scenario, ScenarioTarget};
use pmemsim::{PmPool, PmSink};
use serve::command::{Cmd, Reply};
use serve::{Engine, EngineConfig};

use crate::client::set_cmd;
use crate::model::{Op, Value};
use crate::report::{median, Outcome};

/// Longest op-stream prefix the ledger replays.
pub const REPLAY_OPS: usize = 4096;
/// The engine's canary range, mirrored so the bare-VM health probe
/// checks the same number of keys the engine's probe does.
const CANARY: (u64, u64) = (900_001, 900_017);
/// Pool size the engine and the scenario harness use.
const POOL_SIZE: u64 = pm_workload::POOL_SIZE;
/// Ops replayed after arming before the fault probe gives up: eight
/// health-probe periods.
const FAULT_PROBE_OPS: usize = 1024;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Client-side figures a traced serving run hands to the ledger.
#[derive(Debug, Default)]
pub struct ClientTrace {
    /// Get latencies (µs).
    pub get_us: Vec<f64>,
    /// Set latencies (µs).
    pub set_us: Vec<f64>,
    /// Server-side `parse_cmd` time on each request's wire bytes (ns).
    pub parse_ns: Vec<f64>,
    /// Server-side `encode_reply` time on each reply (ns).
    pub encode_ns: Vec<f64>,
    /// The ops sent, interleaved across connections.
    pub stream: Vec<Op>,
    /// A client-measured fault episode, when the workload arms one.
    pub fault: Option<FaultFigures>,
}

/// One fault episode.
#[derive(Debug, Clone, Copy)]
pub struct FaultFigures {
    /// Fault armed → first op acknowledged after recovery (ms).
    pub outage_ms: f64,
    /// Longest single op after arming (ms).
    pub stall_ms: f64,
    /// Checkpoint updates the mitigation discarded.
    pub discarded: u64,
}

/// A `PmSink` that times every call into the wrapped checkpoint log.
struct TimedSink {
    inner: ShardedLog,
    busy: Duration,
}

impl TimedSink {
    fn timed(&mut self, f: impl FnOnce(&mut ShardedLog)) {
        let t = Instant::now();
        f(&mut self.inner);
        self.busy += t.elapsed();
    }
}

impl PmSink for TimedSink {
    fn on_persist(&mut self, offset: u64, data: &[u8]) {
        self.timed(|l| l.on_persist(offset, data));
    }
    fn on_tx_begin(&mut self, tx_id: u64) {
        self.timed(|l| l.on_tx_begin(tx_id));
    }
    fn on_tx_commit(&mut self, tx_id: u64, ranges: &[(u64, Vec<u8>)]) {
        self.timed(|l| l.on_tx_commit(tx_id, ranges));
    }
    fn on_tx_abort(&mut self, tx_id: u64) {
        self.timed(|l| l.on_tx_abort(tx_id));
    }
    fn on_alloc(&mut self, offset: u64, size: u64) {
        self.timed(|l| l.on_alloc(offset, size));
    }
    fn on_free(&mut self, offset: u64) {
        self.timed(|l| l.on_free(offset));
    }
    fn on_recover_begin(&mut self) {
        self.timed(|l| l.on_recover_begin());
    }
    fn on_recover_end(&mut self) {
        self.timed(|l| l.on_recover_end());
    }
    fn on_recover_read(&mut self, offset: u64, len: u64) {
        self.timed(|l| l.on_recover_read(offset, len));
    }
}

/// Serving-side layer figures for one op stream over a preloaded
/// key set. `client` must hold at least one get and one set.
pub fn serving(
    out: &mut Outcome,
    preload: &[(u64, Value)],
    client: &ClientTrace,
) -> Result<(), String> {
    let stream = &client.stream[..client.stream.len().min(REPLAY_OPS)];
    if stream.is_empty() {
        return Err("traced run sent no ops".into());
    }

    // -- serve: codec and client latency split ---------------------------
    let mut v = client.parse_ns.clone();
    out.push("serve.codec.parse_ns", need(median(&mut v), "parse")?, "ns");
    let mut v = client.encode_ns.clone();
    out.push(
        "serve.codec.encode_ns",
        need(median(&mut v), "encode")?,
        "ns",
    );
    let (mut gets, mut sets) = (client.get_us.clone(), client.set_us.clone());
    for (name, samples) in [("get", &mut gets), ("set", &mut sets)] {
        if !crate::report::tail_ok(samples.len()) {
            return Err(format!(
                "traced run holds {} {name} samples, fewer than a p99 needs",
                samples.len()
            ));
        }
    }
    let mut all: Vec<f64> = gets.iter().chain(sets.iter()).copied().collect();
    let client_p50 = need(median(&mut all), "client")?;
    out.push(
        "serve.client.get_p50_us",
        need(median(&mut gets), "get")?,
        "us",
    );
    out.push(
        "serve.client.get_p99_us",
        need(crate::report::percentile(&mut gets, 99.0), "get")?,
        "us",
    );
    out.push(
        "serve.client.set_p50_us",
        need(median(&mut sets), "set")?,
        "us",
    );
    out.push(
        "serve.client.set_p99_us",
        need(crate::report::percentile(&mut sets, 99.0), "set")?,
        "us",
    );

    // -- serve: engine replay, then the in-process fault probe -----------
    let recorder = Arc::new(RingRecorder::new(4096));
    let mut engine = Engine::new(EngineConfig::default(), None, recorder)?;
    for &(k, v) in preload {
        if engine.exec(&set_cmd(k, v.bytes())) != Reply::Stored {
            return Err(format!("engine replay: preload of {k} not stored"));
        }
    }
    let mut exec_us = Vec::with_capacity(stream.len());
    for op in stream {
        let cmd = op_cmd(op);
        let t = Instant::now();
        let reply = engine.exec(&cmd);
        exec_us.push(us(t.elapsed()));
        check_reply(op, &reply)?;
    }
    let exec_p50 = need(median(&mut exec_us), "exec")?;
    out.push("serve.engine.exec_us", exec_p50, "us");
    out.push("serve.runtime_us", client_p50 - exec_p50, "us");
    let fault = match client.fault {
        Some(f) => f,
        None => fault_probe(&mut engine, stream)?,
    };
    out.push("serve.fault.stall_ms", fault.stall_ms, "ms");
    out.push("serve.fault.outage_ms", fault.outage_ms, "ms");
    out.push(
        "serve.fault.discarded_updates",
        fault.discarded as f64,
        "count",
    );

    // -- pir / pmemsim / arthas: bare-VM replays -------------------------
    let module = pm_apps::kvcache::build();
    let analyzed = analyze_and_instrument_cached(&module, None);
    let pool = PmPool::create(POOL_SIZE).map_err(|e| format!("pool: {e}"))?;
    let mut vm = Vm::new(
        Arc::new(analyzed.instrumented),
        pool,
        VmOpts {
            step_limit: 2_000_000,
            ..VmOpts::default()
        },
    );
    let call =
        |vm: &mut Vm, f: &str, a: &[u64]| vm.call(f, a).map_err(|e| format!("vm {f}{a:?}: {e:?}"));
    for k in CANARY.0..CANARY.1 {
        call(&mut vm, "put", &[k, 0x5A, 8])?;
    }
    for &(k, v) in preload {
        call(&mut vm, "put", &[k, u64::from(v.fill), u64::from(v.len)])?;
    }
    vm.take_trace();

    // Pass 1: no sink. VM op cost, trace absorption, health probes (at
    // the engine's cadence) and the pool's persist traffic.
    let health_every = EngineConfig::default().health_every as usize;
    let pool0 = vm.pool().stats();
    let dev0 = vm.pool().device().stats();
    let (mut get_us, mut put_us, mut probe_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut trace = PmTrace::new();
    let mut absorb = Duration::ZERO;
    for (i, op) in stream.iter().enumerate() {
        let t = Instant::now();
        match *op {
            Op::Get(k) => {
                let got = call(&mut vm, "get", &[k])?;
                if got.is_some_and(|v| v != u64::MAX) {
                    black_box(call(&mut vm, "value_len", &[k])?);
                }
                get_us.push(us(t.elapsed()));
            }
            Op::Set(k, v) => {
                call(&mut vm, "put", &[k, u64::from(v.fill), u64::from(v.len)])?;
                put_us.push(us(t.elapsed()));
            }
        }
        let records = vm.take_trace();
        let t = Instant::now();
        trace.absorb(records);
        absorb += t.elapsed();
        if (i + 1) % health_every == 0 {
            let t = Instant::now();
            call(&mut vm, "check_invariant", &[])?;
            call(&mut vm, "check_keys", &[CANARY.0, CANARY.1])?;
            probe_us.push(us(t.elapsed()));
        }
    }
    let n = stream.len() as f64;
    let pool1 = vm.pool().stats().delta_since(&pool0);
    let dev1 = vm.pool().device().stats();
    out.push("pir.vm.get_us", need(median(&mut get_us), "vm get")?, "us");
    out.push("pir.vm.put_us", need(median(&mut put_us), "vm put")?, "us");
    out.push(
        "pmemsim.persists_per_op",
        pool1.persists as f64 / n,
        "count",
    );
    out.push(
        "pmemsim.lines_written_back_per_op",
        (dev1.lines_written_back - dev0.lines_written_back) as f64 / n,
        "count",
    );
    out.push("arthas.trace.absorb_us", us(absorb) / n, "us");
    let probe_total: f64 = probe_us.iter().sum();
    let mut probes = probe_us;
    if probes.is_empty() {
        // A stream shorter than the cadence still gets one probe.
        let t = Instant::now();
        call(&mut vm, "check_invariant", &[])?;
        call(&mut vm, "check_keys", &[CANARY.0, CANARY.1])?;
        probes.push(us(t.elapsed()));
    }
    out.push(
        "arthas.health.probe_us",
        need(median(&mut probes), "probe")?,
        "us",
    );
    out.push("arthas.health.probe_amortised_us", probe_total / n, "us");
    // One-line persist probe over everything the replay left resident.
    let root = vm
        .pool_mut()
        .root_offset()
        .map_err(|e| format!("root: {e}"))?;
    let mut persist_us = Vec::with_capacity(64);
    for _ in 0..64 {
        let t = Instant::now();
        vm.pool_mut()
            .persist(root, 8)
            .map_err(|e| format!("persist: {e}"))?;
        persist_us.push(us(t.elapsed()));
    }
    out.push(
        "pmemsim.persist_us",
        need(median(&mut persist_us), "persist")?,
        "us",
    );

    // Pass 2: the same ops into a sharded checkpoint log configured as
    // the serving engine configures its own.
    let defaults = EngineConfig::default();
    let log = ShardedLog::new(defaults.log_shards);
    log.set_max_versions(defaults.log_versions);
    let sink = Arc::new(Mutex::new(TimedSink {
        inner: log.clone(),
        busy: Duration::ZERO,
    }));
    vm.pool_mut().set_sink(sink.clone());
    let updates0 = log.total_updates();
    for op in stream {
        match *op {
            Op::Get(k) => black_box(call(&mut vm, "get", &[k])?),
            Op::Set(k, v) => call(&mut vm, "put", &[k, u64::from(v.fill), u64::from(v.len)])?,
        };
        vm.take_trace();
    }
    vm.pool_mut().clear_sink();
    let busy = sink.lock().map_err(|_| "sink poisoned")?.busy;
    out.push("arthas.log.append_us", us(busy) / n, "us");
    out.push(
        "arthas.log.updates_per_op",
        (log.total_updates() - updates0) as f64 / n,
        "count",
    );
    Ok(())
}

fn need(v: Option<f64>, what: &str) -> Result<f64, String> {
    v.ok_or_else(|| format!("no {what} samples"))
}

fn op_cmd(op: &Op) -> Cmd {
    match *op {
        Op::Get(k) => crate::client::get_cmd(k),
        Op::Set(k, v) => set_cmd(k, v.bytes()),
    }
}

fn check_reply(op: &Op, reply: &Reply) -> Result<(), String> {
    let ok = match op {
        Op::Get(_) => matches!(reply, Reply::Values { .. }),
        Op::Set(..) => *reply == Reply::Stored,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("engine replay: {op:?} answered {reply:?}"))
    }
}

/// Arms f4 on the replay engine and keeps replaying until the engine
/// reports the mitigation recovered.
fn fault_probe(engine: &mut Engine, stream: &[Op]) -> Result<FaultFigures, String> {
    let t_arm = Instant::now();
    if engine.exec(&Cmd::FaultArm) != Reply::Ok {
        return Err("fault probe: arm refused".into());
    }
    let mut stall = Duration::ZERO;
    for op in stream.iter().cycle().take(FAULT_PROBE_OPS) {
        let t = Instant::now();
        let reply = engine.exec(&op_cmd(op));
        stall = stall.max(t.elapsed());
        if matches!(reply, Reply::ServerError(_)) {
            return Err(format!("fault probe: {op:?} failed: {reply:?}"));
        }
        let s = engine.stats();
        if s.mitigations_recovered >= 1 {
            return Ok(FaultFigures {
                outage_ms: ms(t_arm.elapsed()),
                stall_ms: ms(stall),
                discarded: s.discarded_updates,
            });
        }
    }
    Err(format!(
        "fault probe: no recovery within {FAULT_PROBE_OPS} ops"
    ))
}

/// A re-execution target that times every re-execution it forwards.
struct TimedTarget<'a> {
    inner: ScenarioTarget<'a>,
    reexec: Vec<Duration>,
}

impl Target for TimedTarget<'_> {
    fn reexecute(&mut self, pool: &mut PmPool) -> Result<(), FailureRecord> {
        let t = Instant::now();
        let r = self.inner.reexecute(pool);
        self.reexec.push(t.elapsed());
        r
    }
}

impl ForkableTarget for TimedTarget<'_> {
    fn fork_target(&self) -> Box<dyn Target + Send + '_> {
        self.inner.fork_target()
    }
}

/// Campaign figures gathered by [`crate::campaign`] for the ledger.
#[derive(Debug, Clone, Copy)]
pub struct CampaignFigures {
    /// Wall of the campaign's prepare phase (enumeration and mining).
    pub prepare_ms: f64,
    /// Median trial latency.
    pub trial_ms: f64,
    /// Reactor re-executions per trial.
    pub attempts_per_trial: f64,
}

/// Recovery-side layer figures over `scenarios`.
pub fn recovery(
    out: &mut Outcome,
    scenarios: &[&dyn Scenario],
    scratch: &Path,
    campaign: CampaignFigures,
) -> Result<(), String> {
    // -- pir-analysis: cold (empty cache dir) and warm (filled dir) ------
    let dir = scratch.join("analysis-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let mut seen = BTreeSet::new();
    let modules: Vec<_> = scenarios
        .iter()
        .map(|s| s.build_module())
        .filter(|m| seen.insert(m.fingerprint()))
        .collect();
    let (mut cold, mut warm) = (Duration::ZERO, Duration::ZERO);
    for (pass, total) in [(0, &mut cold), (1, &mut warm)] {
        let cache = AnalysisCache::persistent(&dir).map_err(|e| format!("cache dir: {e}"))?;
        for m in &modules {
            let t = Instant::now();
            black_box(analyze_and_instrument_cached(m, Some(&cache)));
            *total += t.elapsed();
        }
        let hits = cache.hits();
        if (pass == 1) != (hits == modules.len() as u64) {
            return Err(format!("analysis cache pass {pass}: {hits} disk hits"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    out.push("pir_analysis.cold_ms", ms(cold), "ms");
    out.push("pir_analysis.warm_ms", ms(warm), "ms");

    // -- pm-workload production, then the reactor on its failure ---------
    let memo = AnalysisCache::in_memory();
    let (mut production, mut mitigate) = (Vec::new(), Vec::new());
    let (mut attempts, mut recovered) = (0u64, 0u64);
    let mut reexec: Vec<Duration> = Vec::new();
    for scn in scenarios {
        let setup = AppSetup::new_with_cache(scn.build_module(), Some(&memo));
        let cfg = RunConfig {
            criu: false,
            ..RunConfig::default()
        };
        let t = Instant::now();
        let mut prod = run_production(*scn, &setup, &cfg)
            .ok_or_else(|| format!("{}: production ended without a failure", scn.id()))?;
        production.push(ms(t.elapsed()));
        let mut target = TimedTarget {
            inner: ScenarioTarget::new(
                *scn,
                setup.instrumented.clone(),
                prod.log.clone(),
                VmOpts {
                    step_limit: 500_000,
                    ..VmOpts::default()
                },
            ),
            reexec: Vec::new(),
        };
        let mut reactor = Reactor::new(&setup.analysis, &setup.guid_map, ReactorConfig::default());
        let t = Instant::now();
        let res = reactor.mitigate_speculative(
            &mut prod.pool,
            &prod.log,
            &prod.failure,
            &prod.trace,
            &mut target,
        );
        mitigate.push(ms(t.elapsed()));
        attempts += u64::from(res.attempts);
        recovered += u64::from(res.recovered);
        reexec.extend(target.reexec);
    }
    let k = scenarios.len() as f64;
    out.push(
        "pm_workload.production_ms",
        production.iter().sum::<f64>() / k,
        "ms",
    );
    out.push(
        "arthas.reactor.mitigate_ms",
        mitigate.iter().sum::<f64>() / k,
        "ms",
    );
    out.push("arthas.reactor.attempts", attempts as f64 / k, "count");
    let mut reexec_us: Vec<f64> = reexec.into_iter().map(us).collect();
    out.push(
        "arthas.reactor.reexec_us",
        need(median(&mut reexec_us), "re-execution")?,
        "us",
    );
    out.push(
        "arthas.reactor.useful_ratio",
        recovered as f64 / attempts.max(1) as f64,
        "ratio",
    );

    // -- inject ----------------------------------------------------------
    out.push("inject.prepare_ms", campaign.prepare_ms, "ms");
    out.push("inject.trial_ms", campaign.trial_ms, "ms");
    out.push(
        "inject.attempts_per_trial",
        campaign.attempts_per_trial,
        "count",
    );
    Ok(())
}

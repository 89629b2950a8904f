//! The serving workloads: an in-process `serve::Server` on loopback,
//! driven closed-loop by one client thread per connection.
//!
//! Every connection owns a disjoint key slice and keeps an exact model
//! of it ([`KeyModel`]); every reply is checked against that model, a
//! final read-back covers every key, and the server's own `stats`
//! counters must equal what the clients sent.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use obs::RingRecorder;
use serve::command::{Cmd, Reply};
use serve::{memcached, resp, EngineConfig, Server, ServerConfig, ServerHandle};

use crate::client::{get_cmd, get_value, set_cmd, set_stored, Client, Proto};
use crate::ledger::{ClientTrace, FaultFigures};
use crate::model::{KeyDist, KeyModel, Mix, Op, Rng, Value, Zipf};
use crate::report::cpu_seconds;

/// Ops a connection keeps sending after the fault has been reported
/// recovered, so that every run covers the post-recovery path.
const POST_RECOVERY_OPS: u64 = 1024;

/// A serving workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Traffic shape.
    pub mix: Mix,
    /// One entry per connection.
    pub protos: Vec<Proto>,
    /// Op index (on connection 0) at which the f4 fault is armed.
    pub arm_at: Option<u64>,
}

/// `kv-hot`: zipfian 90/10 over 512 small keys, one memcached and one
/// RESP connection.
pub fn kv_hot() -> Spec {
    Spec {
        mix: Mix {
            base: 1_000,
            conns: 2,
            keys_per_conn: 256,
            read_pct: 90,
            dist: KeyDist::Zipf(Zipf::new(256, 0.99)),
            len: (8, 64),
        },
        protos: vec![Proto::Memcached, Proto::Resp],
        arm_at: None,
    }
}

/// Keys `kv-wide` preloads. Each kvcache item is 512 B, so 2,048 items
/// stay well inside the 8 MiB pool (kvcache aborts on out-of-memory
/// rather than evicting). Preloading costs more than linearly, since
/// every persist walks every resident cache line: 4,096 keys took 27 s
/// to preload, 2,048 take under 4 s.
pub const WIDE_KEYS: u64 = 2048;

/// `kv-wide`: uniform 50/50 over [`WIDE_KEYS`] keys, so every op lands
/// on a pool whose cache-line set is large.
pub fn kv_wide() -> Spec {
    Spec {
        mix: Mix {
            base: 100_000,
            conns: 2,
            keys_per_conn: WIDE_KEYS / 2,
            read_pct: 50,
            dist: KeyDist::Uniform,
            len: (8, 160),
        },
        protos: vec![Proto::Memcached, Proto::Resp],
        arm_at: None,
    }
}

/// Op index at which `f4-online` arms the fault.
pub const F4_ARM_AT: u64 = 2048;

/// `f4-online`: one memcached connection, uniform 50/50 over 512 keys,
/// f4 armed at op [`F4_ARM_AT`]. One connection keeps the op order —
/// and so the mitigation path — identical from run to run.
pub fn f4_online() -> Spec {
    Spec {
        mix: Mix {
            base: 1_000,
            conns: 1,
            keys_per_conn: 512,
            read_pct: 50,
            dist: KeyDist::Uniform,
            len: (8, 64),
        },
        protos: vec![Proto::Memcached],
        arm_at: Some(F4_ARM_AT),
    }
}

/// A started server with connected, preloaded clients.
pub struct Live {
    handle: ServerHandle,
    clients: Vec<Client>,
    models: Vec<KeyModel>,
    /// Every preloaded key with its value.
    pub preload: Vec<(u64, Value)>,
}

impl Live {
    /// Stops the server and waits for its threads.
    pub fn shutdown(self) {
        drop(self.clients);
        self.handle.shutdown();
    }
}

/// Starts the server (engine analysis included), connects the clients
/// and preloads every key of the key space through the engine.
pub fn setup(spec: &Spec, seed: u64) -> Result<Live, String> {
    let cfg = ServerConfig {
        workers: 2,
        engine: EngineConfig::default(),
        ..ServerConfig::default()
    };
    let handle = Server::start(cfg, None, Arc::new(RingRecorder::new(4096)))?;
    let mut models = vec![KeyModel::default(); spec.protos.len()];
    let mut preload = Vec::new();
    {
        let engine = handle.engine();
        let mut engine = engine.lock().map_err(|_| "engine lock poisoned")?;
        let mut rng = Rng::new(seed, u64::MAX);
        for rank in 0..spec.mix.keys_per_conn {
            for (conn, model) in models.iter_mut().enumerate() {
                let key = spec.mix.key(conn as u64, rank);
                let v = spec.mix.value(&mut rng);
                if engine.exec(&set_cmd(key, v.bytes())) != Reply::Stored {
                    return Err(format!("preload of key {key} not stored"));
                }
                model.ack_set(key, v);
                preload.push((key, v));
            }
        }
    }
    let clients = spec
        .protos
        .iter()
        .map(|&p| Client::connect(handle.addr(), p))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Live {
        handle,
        clients,
        models,
        preload,
    })
}

/// What one measured phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Data ops attempted.
    pub attempted: u64,
    /// Data ops that got an error reply.
    pub failed: u64,
    /// Model or server-counter mismatches (empty = correct).
    pub errors: Vec<String>,
    /// Wall of the measured loop.
    pub wall: Duration,
    /// CPU time the process (server and clients) used in that loop.
    pub cpu_s: f64,
    /// Client-side samples (and, when traced, codec spans and the op
    /// stream).
    pub trace: ClientTrace,
}

impl Phase {
    /// Data ops per second over the measured loop.
    pub fn ops_s(&self) -> f64 {
        self.attempted as f64 / self.wall.as_secs_f64()
    }
}

struct ConnOut {
    attempted: u64,
    failed: u64,
    gets: u64,
    sets: u64,
    errors: Vec<String>,
    trace: ClientTrace,
    /// Keys written after the fault was reported recovered.
    rewritten: BTreeSet<u64>,
}

/// Drives every connection until `seconds` have passed (and, on a
/// fault workload, until the post-recovery ops are done), then reads
/// every key back and checks the server's counters.
pub fn measure(
    live: &mut Live,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Phase, String> {
    let cpu0 = cpu_seconds()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let outs: Vec<Result<ConnOut, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = live
            .clients
            .iter_mut()
            .zip(live.models.iter_mut())
            .enumerate()
            .map(|(conn, (client, model))| {
                let mix = &spec.mix;
                let arm_at = if conn == 0 { spec.arm_at } else { None };
                s.spawn(move || {
                    drive(
                        client,
                        model,
                        mix,
                        conn as u64,
                        seed,
                        deadline,
                        arm_at,
                        traced,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = start.elapsed();
    let mut phase = Phase {
        wall,
        cpu_s: cpu_seconds()? - cpu0,
        ..Phase::default()
    };
    let (mut gets, mut sets) = (0u64, 0u64);
    let mut rewritten = BTreeSet::new();
    let mut streams = Vec::new();
    for out in outs {
        let out = out?;
        phase.attempted += out.attempted;
        phase.failed += out.failed;
        phase.errors.extend(out.errors);
        gets += out.gets;
        sets += out.sets;
        rewritten.extend(out.rewritten);
        let t = &mut phase.trace;
        t.get_us.extend(out.trace.get_us);
        t.set_us.extend(out.trace.set_us);
        t.parse_ns.extend(out.trace.parse_ns);
        t.encode_ns.extend(out.trace.encode_ns);
        t.fault = t.fault.or(out.trace.fault);
        streams.push(out.trace.stream);
    }
    // Interleave the connections' streams for the ledger's replay.
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for s in &streams {
            if let Some(op) = s.get(i) {
                phase.trace.stream.push(*op);
            }
        }
    }

    // Final read-back of every key, then the server's own counters.
    let mut lost = 0u64;
    let mut readback = 0u64;
    for (client, model) in live.clients.iter_mut().zip(live.models.iter()) {
        for (key, want) in model.keys() {
            readback += 1;
            let reply = client.request(&get_cmd(key))?;
            let exact = get_value(&reply)?.is_some_and(|b| want.matches(b));
            if exact {
                continue;
            }
            if spec.arm_at.is_some() && !rewritten.contains(&key) {
                // A write the mitigation rolled back; bounded below.
                lost += 1;
            } else {
                phase.errors.push(format!(
                    "read-back of key {key}: want {want:?}, got {reply:?}"
                ));
            }
        }
    }
    let stats = live.clients[0].stats()?;
    let preloaded = live.preload.len() as u64;
    let want_gets = gets + readback;
    let want_sets = sets + preloaded;
    for (name, want) in [("cmd_get", want_gets), ("cmd_set", want_sets)] {
        let got = stats.u64(name)?;
        if got != want {
            phase.errors.push(format!(
                "server counts {name} = {got}, the clients sent {want}"
            ));
        }
    }
    if spec.arm_at.is_none() {
        // Every key is preloaded and never deleted: every get hits.
        let hits = stats.u64("get_hits")?;
        if hits != want_gets {
            phase.errors.push(format!(
                "server counts get_hits = {hits}, expected {want_gets}"
            ));
        }
    } else {
        let discarded = stats.u64("discarded_updates")?;
        if stats.u64("mitigations_recovered")? < 1 || stats.u64("mitigating")? != 0 {
            phase
                .errors
                .push("the server never reported the mitigation recovered".into());
        }
        if lost > discarded {
            phase.errors.push(format!(
                "{lost} keys lost an acknowledged write, but only {discarded} updates were discarded"
            ));
        }
        if let Some(f) = phase.trace.fault.as_mut() {
            f.discarded = discarded;
        }
    }
    Ok(phase)
}

/// State of the client-measured fault episode on connection 0.
struct Episode {
    armed: Instant,
    recovered: bool,
    outage: Option<Duration>,
    stall: Duration,
    post_recovery: u64,
}

#[allow(clippy::too_many_arguments)]
fn drive(
    client: &mut Client,
    model: &mut KeyModel,
    mix: &Mix,
    conn: u64,
    seed: u64,
    deadline: Instant,
    arm_at: Option<u64>,
    traced: bool,
) -> Result<ConnOut, String> {
    let mut rng = Rng::new(seed, conn);
    let mut out = ConnOut {
        attempted: 0,
        failed: 0,
        gets: 0,
        sets: 0,
        errors: Vec::new(),
        trace: ClientTrace::default(),
        rewritten: BTreeSet::new(),
    };
    let mut episode: Option<Episode> = None;
    let mut encoded = Vec::with_capacity(256);
    loop {
        if arm_at == Some(out.attempted) && episode.is_none() {
            let armed = Instant::now();
            match client.request(&Cmd::FaultArm)? {
                Reply::Ok => {}
                other => return Err(format!("fault_arm answered {other:?}")),
            }
            episode = Some(Episode {
                armed,
                recovered: false,
                outage: None,
                stall: Duration::ZERO,
                post_recovery: 0,
            });
        }
        let fault_done = match (&episode, arm_at) {
            (_, None) => true,
            (None, Some(_)) => false,
            (Some(e), Some(_)) => e.post_recovery >= POST_RECOVERY_OPS,
        };
        if fault_done && Instant::now() >= deadline {
            break;
        }
        let op = mix.next_op(conn, &mut rng);
        let cmd = match op {
            Op::Get(k) => get_cmd(k),
            Op::Set(k, v) => set_cmd(k, v.bytes()),
        };
        let t0 = Instant::now();
        let reply = client.request(&cmd)?;
        let t1 = Instant::now();
        let lat = t1 - t0;
        out.attempted += 1;
        if traced {
            out.trace.stream.push(op);
            let p = Instant::now();
            match client.proto() {
                Proto::Memcached => black_box(memcached::parse_cmd(&client.last_request)),
                Proto::Resp => black_box(resp::parse_cmd(&client.last_request)),
            };
            out.trace.parse_ns.push(p.elapsed().as_nanos() as f64);
            encoded.clear();
            let p = Instant::now();
            match client.proto() {
                Proto::Memcached => memcached::encode_reply(&reply, &mut encoded),
                Proto::Resp => resp::encode_reply(&reply, &mut encoded),
            }
            black_box(&encoded);
            out.trace.encode_ns.push(p.elapsed().as_nanos() as f64);
        }
        let in_window = episode.as_ref().is_some_and(|e| !e.recovered);
        match op {
            Op::Get(k) => {
                out.gets += 1;
                out.trace.get_us.push(lat.as_secs_f64() * 1e6);
                match get_value(&reply) {
                    Err(_) => out.failed += 1,
                    Ok(got) => {
                        // After the arm only keys rewritten since the
                        // recovery are exact; the rest are counted at
                        // read-back against the discarded updates.
                        let checked = episode.is_none() || out.rewritten.contains(&k);
                        if checked && !model.check_get(k, got) {
                            out.errors.push(format!(
                                "get {k}: model {:?}, server {got:?}",
                                model.expect(k)
                            ));
                        }
                    }
                }
            }
            Op::Set(k, v) => {
                out.sets += 1;
                out.trace.set_us.push(lat.as_secs_f64() * 1e6);
                if set_stored(client.proto(), &reply) {
                    model.ack_set(k, v);
                    if episode.as_ref().is_some_and(|e| e.recovered) {
                        out.rewritten.insert(k);
                    }
                } else {
                    out.failed += 1;
                }
            }
        }
        if let Some(e) = episode.as_mut() {
            e.stall = e.stall.max(lat);
            if e.recovered {
                e.outage.get_or_insert(t1 - e.armed);
                e.post_recovery += 1;
            } else if in_window {
                let s = client.stats()?;
                e.recovered = s.u64("mitigations_recovered")? >= 1 && s.u64("mitigating")? == 0;
            }
        }
    }
    if let Some(e) = episode {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        out.trace.fault = Some(FaultFigures {
            outage_ms: ms(e.outage.ok_or("the fault never recovered")?),
            stall_ms: ms(e.stall),
            discarded: 0,
        });
    }
    Ok(out)
}

//! E2e tests for the model registry behind the event-loop server:
//! readiness gating, zero-downtime hot reload under sustained keep-alive
//! load (zero failed requests, every answer bit-identical to exactly one
//! of the two bundles, drain completes), admin API guards (403/404/409),
//! per-model cache scoping across swaps, shadow replay reporting, and a
//! release-only p99 budget keeping shadow replay off the hot path — all
//! over a real socket.

use bf_serve::{
    AliasUpdate, ModelBundle, ModelsReport, PredictServer, Registry, ServeConfig, ShadowReport,
};
use blackforest::{BlackForest, ModelConfig, Workload};
use gpu_sim::GpuConfig;
use serde::Deserialize;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

#[derive(Debug, Deserialize)]
struct PredictBody {
    predicted_ms: f64,
    model: String,
    cached: bool,
}

/// Two distinct quick reduce1 bundles on the same GPU (same fingerprint,
/// same characteristic schema — a legal hot-swap pair), trained once for
/// the whole binary. Different seeds grow different forests, so the two
/// models answer the same query with different bits.
fn bundles() -> &'static (ModelBundle, ModelBundle) {
    static TRAINED: OnceLock<(ModelBundle, ModelBundle)> = OnceLock::new();
    TRAINED.get_or_init(|| {
        let gpu = GpuConfig::gtx580();
        let sizes: Vec<usize> = (12..=15).map(|e| 1usize << e).collect();
        let workload = Workload::Reduce(bf_kernels::reduce::ReduceVariant::Reduce1);
        let mut out = Vec::new();
        for seed in [81u64, 82] {
            let bf = BlackForest::new(gpu.clone()).with_config(ModelConfig::quick(seed));
            let report = bf.analyze(workload, &sizes).expect("train quick bundle");
            out.push(ModelBundle::from_report(&report, &gpu, &sizes, true));
        }
        let b = out.pop().unwrap();
        let a = out.pop().unwrap();
        assert_ne!(
            a.content_id(),
            b.content_id(),
            "fixture needs two distinct models"
        );
        (a, b)
    })
}

fn spawn_with(
    registry: Arc<Registry>,
    config: ServeConfig,
) -> (bf_serve::ServerHandle, std::thread::JoinHandle<()>) {
    let server = PredictServer::bind_registry("127.0.0.1:0", registry, config).expect("bind");
    server.spawn()
}

fn request(method: &str, path: &str, body: &str, close: bool) -> String {
    let conn = if close { "Connection: close\r\n" } else { "" };
    format!(
        "{method} {path} HTTP/1.1\r\nHost: loopback\r\n{conn}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// One-shot request on a fresh `Connection: close` socket.
fn oneshot(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(request(method, path, body, true).as_bytes())
        .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .unwrap();
    let payload = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

/// Reads one HTTP/1.1 response off a keep-alive connection.
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
    let mut head = String::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read header line");
        assert!(
            n > 0,
            "connection closed mid-response; head so far:\n{head}"
        );
        if line == "\r\n" {
            break;
        }
        head.push_str(&line);
    }
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .trim()
        .parse()
        .expect("numeric content length");
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("read body");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

fn models_report(addr: SocketAddr) -> ModelsReport {
    let (status, body) = oneshot(addr, "GET", "/v1/models", "");
    assert_eq!(status, 200, "{body}");
    serde_json::from_str(&body).expect("models report decodes")
}

fn registry_with_default(bundle: &ModelBundle) -> (Arc<Registry>, u64) {
    let registry = Arc::new(Registry::new());
    let id = registry.load_bundle(bundle.clone()).expect("load");
    registry
        .set_alias(AliasUpdate {
            alias: "default".into(),
            id: Some(id),
            create: true,
            ..AliasUpdate::default()
        })
        .expect("alias");
    (registry, id)
}

#[test]
fn readyz_is_503_until_the_default_alias_is_published() {
    // Bind over an EMPTY registry: the socket answers, but nothing can
    // predict yet.
    let registry = Arc::new(Registry::new());
    let (handle, join) = spawn_with(Arc::clone(&registry), ServeConfig::default());
    let addr = handle.addr();

    let (status, body) = oneshot(addr, "GET", "/readyz", "");
    assert_eq!(status, 503, "not ready before any bundle: {body}");
    assert!(body.contains("\"ready\":false"), "{body}");
    let (status, _) = oneshot(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "liveness is independent of readiness");
    let (status, body) = oneshot(addr, "POST", "/predict", "{\"size\": 4096}");
    assert_eq!(status, 503, "predict without a default is 503: {body}");

    // Publish a default through the live server's registry handle; the
    // very next probe must flip to ready.
    let (a, _) = bundles();
    let id = handle.registry().load_bundle(a.clone()).expect("load");
    handle
        .registry()
        .set_alias(AliasUpdate {
            alias: "default".into(),
            id: Some(id),
            create: true,
            ..AliasUpdate::default()
        })
        .expect("alias");
    let (status, body) = oneshot(addr, "GET", "/readyz", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(&format!("{id:016x}")), "{body}");
    let (status, _) = oneshot(
        addr,
        "POST",
        "/predict",
        "{\"size\": 4096, \"threads\": 64}",
    );
    assert_eq!(status, 200);

    handle.stop();
    join.join().expect("server exits");
}

#[test]
fn hot_reload_under_load_never_fails_or_mixes_models() {
    let (a, b) = bundles();
    let (registry, id_a) = registry_with_default(a);
    let id_b = registry.load_bundle(b.clone()).expect("load b");
    let (handle, join) = spawn_with(
        registry,
        ServeConfig {
            admin: true,
            ..ServeConfig::default()
        },
    );
    let addr = handle.addr();

    // Ground truth: per size, the exact bits each model must answer with.
    let sizes: Vec<f64> = (0..16).map(|i| 2048.0 + (i * 256) as f64).collect();
    let mut expected: HashMap<String, HashMap<u64, u64>> = HashMap::new();
    for (hex, bundle) in [(format!("{id_a:016x}"), a), (format!("{id_b:016x}"), b)] {
        let per_size = sizes
            .iter()
            .map(|s| {
                let chars = bundle.characteristics_for(*s, Some(64.0), None).unwrap();
                (
                    s.to_bits(),
                    bundle.predict(&chars).unwrap().predicted_ms.to_bits(),
                )
            })
            .collect();
        expected.insert(hex, per_size);
    }
    let expected = Arc::new(expected);

    // Sustained keep-alive traffic from several clients while the main
    // thread promotes `default` back and forth over the admin API.
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let expected = Arc::clone(&expected);
            let sizes = sizes.clone();
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut served: HashMap<String, u64> = HashMap::new();
                let mut i = c; // stagger the size sequence per client
                while !stop.load(Ordering::Relaxed) {
                    let size = sizes[i % sizes.len()];
                    i += 1;
                    let body = format!("{{\"size\": {size}, \"threads\": 64}}");
                    stream
                        .write_all(request("POST", "/predict", &body, false).as_bytes())
                        .expect("write");
                    let (status, payload) = read_response(&mut reader);
                    assert_eq!(status, 200, "request failed during hot reload: {payload}");
                    let parsed: PredictBody = serde_json::from_str(&payload).unwrap();
                    let per_size = expected
                        .get(&parsed.model)
                        .unwrap_or_else(|| panic!("answered by unknown model {}", parsed.model));
                    assert_eq!(
                        parsed.predicted_ms.to_bits(),
                        per_size[&size.to_bits()],
                        "size {size} answer is not bit-identical to model {}",
                        parsed.model
                    );
                    *served.entry(parsed.model).or_default() += 1;
                }
                served
            })
        })
        .collect();

    // ~40 live promotions through the routed admin endpoint.
    for swap in 0..40 {
        let id = if swap % 2 == 0 { id_b } else { id_a };
        let body = format!("{{\"alias\": \"default\", \"id\": \"{id:016x}\"}}");
        let (status, payload) = oneshot(addr, "POST", "/v1/models/alias", &body);
        assert_eq!(status, 200, "live promotion failed: {payload}");
        std::thread::sleep(Duration::from_millis(15));
    }
    stop.store(true, Ordering::Relaxed);
    let mut served: HashMap<String, u64> = HashMap::new();
    for client in clients {
        for (model, n) in client.join().expect("client thread") {
            *served.entry(model).or_default() += n;
        }
    }
    assert_eq!(
        served.len(),
        2,
        "both models must have answered: {served:?}"
    );
    assert!(
        served.values().all(|&n| n > 0),
        "swap was never observed: {served:?}"
    );

    // Retire the standby (default currently points at a after 40 swaps):
    // with no load, its references drain to zero.
    let (status, payload) = oneshot(
        addr,
        "POST",
        "/v1/models/unload",
        &format!("{{\"id\": \"{id_b:016x}\"}}"),
    );
    assert_eq!(status, 200, "{payload}");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let report = models_report(addr);
        if report.draining.is_empty() {
            assert!(
                report.models.iter().all(|m| m.id != format!("{id_b:016x}")),
                "unloaded model must leave the inventory"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "drain never completed: {report:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    handle.stop();
    join.join().expect("server exits");
}

#[test]
fn admin_api_is_403_without_the_flag_and_409_on_bad_swaps() {
    let (a, _) = bundles();
    // Admin off: the mutating routes are forbidden, with a pointer to the
    // flag, and nothing changes.
    let (registry, _) = registry_with_default(a);
    let (handle, join) = spawn_with(registry, ServeConfig::default());
    let addr = handle.addr();
    let (status, body) = oneshot(
        addr,
        "POST",
        "/v1/models/alias",
        "{\"alias\": \"default\", \"create\": true}",
    );
    assert_eq!(status, 403, "{body}");
    assert!(body.contains("--admin"), "{body}");
    handle.stop();
    join.join().expect("server exits");

    // Admin on: structured failures map to their statuses.
    let (registry, id_a) = registry_with_default(a);
    // A same-schema model claiming a different training GPU: the
    // fingerprint guard must refuse to swap it in without force.
    let mut foreign = a.clone();
    foreign.gpu_fingerprint ^= 1;
    foreign.gpu_name = "gtx580-altered".into();
    let foreign_id = registry.load_bundle(foreign).expect("load foreign");
    let (handle, join) = spawn_with(
        registry,
        ServeConfig {
            admin: true,
            ..ServeConfig::default()
        },
    );
    let addr = handle.addr();

    // Unknown alias without create: 409 names the alias.
    let (status, body) = oneshot(
        addr,
        "POST",
        "/v1/models/alias",
        &format!("{{\"alias\": \"canary\", \"id\": \"{id_a:016x}\"}}"),
    );
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("canary"), "{body}");

    // Fingerprint mismatch: 409 spells out both fingerprints...
    let (status, body) = oneshot(
        addr,
        "POST",
        "/v1/models/alias",
        &format!("{{\"alias\": \"default\", \"id\": \"{foreign_id:016x}\"}}"),
    );
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("fingerprint"), "{body}");
    // ...and force overrides it.
    let (status, body) = oneshot(
        addr,
        "POST",
        "/v1/models/alias",
        &format!("{{\"alias\": \"default\", \"id\": \"{foreign_id:016x}\", \"force\": true}}"),
    );
    assert_eq!(status, 200, "{body}");

    // Unknown model: 404. Malformed id: 400. Unload while aliased: 409.
    let (status, body) = oneshot(
        addr,
        "POST",
        "/v1/models/alias",
        "{\"alias\": \"default\", \"id\": \"00000000000000aa\"}",
    );
    assert_eq!(status, 404, "{body}");
    let (status, body) = oneshot(addr, "POST", "/v1/models/unload", "{\"id\": \"nonsense\"}");
    assert_eq!(status, 400, "{body}");
    let (status, body) = oneshot(
        addr,
        "POST",
        "/v1/models/unload",
        &format!("{{\"id\": \"{foreign_id:016x}\"}}"),
    );
    assert_eq!(
        status, 409,
        "unloading the live primary must refuse: {body}"
    );
    assert!(body.contains("default"), "{body}");

    handle.stop();
    join.join().expect("server exits");
}

#[test]
fn prediction_cache_is_scoped_per_model_across_swaps() {
    let (a, b) = bundles();
    let (registry, _) = registry_with_default(a);
    let id_b = registry.load_bundle(b.clone()).expect("load b");
    // A tiny cache so evictions are observable per model.
    let (handle, join) = spawn_with(
        Arc::clone(&registry),
        ServeConfig {
            cache_capacity: 2,
            ..ServeConfig::default()
        },
    );
    let addr = handle.addr();

    let body = "{\"size\": 5120, \"threads\": 64}";
    let (_, first) = oneshot(addr, "POST", "/predict", body);
    let first: PredictBody = serde_json::from_str(&first).unwrap();
    assert!(!first.cached);
    let (_, again) = oneshot(addr, "POST", "/predict", body);
    let again: PredictBody = serde_json::from_str(&again).unwrap();
    assert!(again.cached, "same model, same query: cache hit");

    // Swap default to model b: the identical query MUST miss (the key
    // carries the resolved content id) and answer with b's bits.
    registry
        .set_alias(AliasUpdate {
            alias: "default".into(),
            id: Some(id_b),
            ..AliasUpdate::default()
        })
        .expect("promote b");
    let (_, after) = oneshot(addr, "POST", "/predict", body);
    let after: PredictBody = serde_json::from_str(&after).unwrap();
    assert_eq!(after.model, format!("{id_b:016x}"));
    assert!(
        !after.cached,
        "a swap must never surface the old model's cached prediction"
    );
    assert_ne!(
        after.predicted_ms.to_bits(),
        first.predicted_ms.to_bits(),
        "fixture models must disagree on this query"
    );

    // Overflow the 2-entry cache on model b and check the per-model
    // eviction counter shows up on /metrics.
    for size in [6144, 7168, 8192] {
        let q = format!("{{\"size\": {size}, \"threads\": 64}}");
        let (status, _) = oneshot(addr, "POST", "/predict", &q);
        assert_eq!(status, 200);
    }
    let (status, metrics) = oneshot(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let needle = "bf_cache_evictions_total{model=\"";
    assert!(
        metrics.lines().any(|l| l.starts_with(needle)),
        "per-model eviction counter missing:\n{metrics}"
    );

    handle.stop();
    join.join().expect("server exits");
}

#[test]
fn shadow_replay_populates_the_report_and_metrics() {
    let (a, b) = bundles();
    let (registry, _) = registry_with_default(a);
    let id_b = registry.load_bundle(b.clone()).expect("load b");
    registry
        .set_alias(AliasUpdate {
            alias: "default".into(),
            shadow: Some(id_b),
            ..AliasUpdate::default()
        })
        .expect("attach shadow");
    let (handle, join) = spawn_with(registry, ServeConfig::default());
    let addr = handle.addr();

    let n_requests = 12;
    for i in 0..n_requests {
        let q = format!("{{\"size\": {}, \"threads\": 64}}", 2048 + i * 128);
        let (status, _) = oneshot(addr, "POST", "/predict", &q);
        assert_eq!(status, 200);
    }

    // The replay is asynchronous; poll the HTTP report until it catches up.
    let deadline = Instant::now() + Duration::from_secs(10);
    let report: ShadowReport = loop {
        let (status, body) = oneshot(addr, "GET", "/v1/models/shadow/report", "");
        assert_eq!(status, 200, "{body}");
        let report: ShadowReport = serde_json::from_str(&body).expect("report decodes");
        if report.requests + report.dropped >= n_requests {
            break report;
        }
        assert!(Instant::now() < deadline, "shadow never caught up: {body}");
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(report.requests > 0, "{report:?}");
    assert_eq!(report.errors, 0, "{report:?}");
    let per_workload = report
        .per_workload
        .get("reduce1")
        .expect("per-workload breakdown carries the primary's workload");
    assert!(per_workload.rows > 0);
    assert!(
        report.max_rel_delta > 0.0,
        "distinct fixture models must diverge: {report:?}"
    );
    assert!(
        !report.pairs.is_empty(),
        "primary->shadow pairing missing: {report:?}"
    );

    let (_, metrics) = oneshot(addr, "GET", "/metrics", "");
    let replayed: u64 = metrics
        .lines()
        .find(|l| l.starts_with("bf_shadow_requests_total "))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .expect("bf_shadow_requests_total exported");
    assert!(replayed > 0, "{metrics}");

    handle.stop();
    join.join().expect("server exits");
}

/// Client-side latencies of one closed-loop pass: `clients` keep-alive
/// connections, each sending its next `POST /predict` only after the last
/// answer arrived. Every answer must be a 200.
fn closed_loop_latencies_us(addr: SocketAddr, clients: usize, per_client: usize) -> Vec<u64> {
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                (0..per_client)
                    .map(|i| {
                        // Cycle 256 distinct queries through a 16-entry
                        // cache so nearly every request runs the forest.
                        let q = c + i * clients;
                        let size = 1024.0 + (q % 256) as f64 * 97.0;
                        let threads = [32.0, 64.0, 128.0, 256.0][q % 4];
                        let body = format!("{{\"characteristics\": [{size}, {threads}]}}");
                        let started = Instant::now();
                        stream
                            .write_all(request("POST", "/predict", &body, false).as_bytes())
                            .expect("write");
                        let (status, payload) = read_response(&mut reader);
                        assert_eq!(status, 200, "{payload}");
                        started.elapsed().as_micros() as u64
                    })
                    .collect::<Vec<u64>>()
            })
        })
        .collect();
    let mut latencies: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    latencies.sort_unstable();
    latencies
}

fn p99(sorted: &[u64]) -> u64 {
    sorted[((sorted.len() - 1) as f64 * 0.99).round() as usize]
}

/// Shadow replay stays off the hot path, checked two ways. Timing: the
/// same closed-loop load (32 keep-alive clients against 4 prediction
/// workers) with a shadow model attached keeps its client-visible p99
/// within max(2x, +2 ms) of the p99 without one. Structure: every
/// `shadow.replay` span runs on a thread that answers no predictions —
/// the quick fixture replays a row in about a microsecond, far too little
/// for the p99 budget to notice a replay run inline. Timings mean nothing
/// in a debug build; run with
///
/// ```text
/// cargo test --release -p bf-serve --test registry_reload -- --include-ignored
/// ```
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing budgets only hold in release builds"
)]
fn shadow_replay_stays_off_the_hot_path() {
    const CLIENTS: usize = 32;
    const PER_CLIENT: usize = 12;
    let (a, b) = bundles();
    let (registry, id_a) = registry_with_default(a);
    let id_b = registry.load_bundle(b.clone()).expect("load b");
    let (handle, join) = spawn_with(
        Arc::clone(&registry),
        ServeConfig {
            threads: 4,
            cache_capacity: 16,
            ..ServeConfig::default()
        },
    );
    let addr = handle.addr();

    // Warm up with one full unmeasured pass. A lighter warm-up leaves the
    // steady pass cold: its p99 then reads several times any later pass's,
    // and the budget it sets is too loose to mean anything.
    closed_loop_latencies_us(addr, CLIENTS, PER_CLIENT);
    let steady_p99 = p99(&closed_loop_latencies_us(addr, CLIENTS, PER_CLIENT)) as f64;

    registry
        .set_alias(AliasUpdate {
            alias: "default".into(),
            id: Some(id_a),
            shadow: Some(id_b),
            ..AliasUpdate::default()
        })
        .expect("attach shadow");
    let shadow_p99 = p99(&closed_loop_latencies_us(addr, CLIENTS, PER_CLIENT)) as f64;

    // A short traced pass, after the timed ones so the recorder's cost
    // stays out of them. Replay is asynchronous: wait until it catches up.
    let ((), trace) = bf_trace::capture(|| {
        let replayed = registry.shadow_report().requests;
        closed_loop_latencies_us(addr, 4, 8);
        let deadline = Instant::now() + Duration::from_secs(10);
        while registry.shadow_report().requests < replayed + 32 {
            assert!(
                Instant::now() < deadline,
                "shadow never replayed the traced pass"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
    });

    handle.stop();
    join.join().expect("server exits");

    let threads_of = |name: &str| -> std::collections::BTreeSet<u64> {
        trace
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.thread)
            .collect()
    };
    let (predicting, replaying) = (threads_of("predict"), threads_of("shadow.replay"));
    assert!(
        !predicting.is_empty() && !replaying.is_empty(),
        "traced pass recorded no predict or shadow.replay span ({} spans)",
        trace.spans.len()
    );
    assert!(
        predicting.is_disjoint(&replaying),
        "shadow replay ran on a prediction thread: predict on {predicting:?}, \
         replay on {replaying:?}"
    );

    let budget = (steady_p99 * 2.0).max(steady_p99 + 2_000.0);
    println!("steady p99 {steady_p99}us, shadow p99 {shadow_p99}us, budget {budget}us");
    assert!(
        shadow_p99 <= budget,
        "shadow replay regressed p99: {shadow_p99}us vs steady {steady_p99}us \
         (budget {budget}us)"
    );
}

//! Cross-architecture serving tests over real zoo bundles: a model trained
//! on one GPU generation promoted as `default` for another generation's
//! fingerprint must 409 until forced (the force path must actually serve),
//! a `gpu`-pinned query against the wrong bundle must 422, and a shadow
//! pair spanning two architectures must *report* its divergence instead of
//! erroring. Unlike the synthetic fingerprint-XOR cases in
//! `registry_reload.rs`, both bundles here are genuinely trained — Fermi
//! (line-tagged L1) vs Pascal (sector-tagged L1) — so the fingerprints,
//! architecture tags, and predictions differ for real reasons.

use bf_serve::{AliasUpdate, ModelBundle, PredictServer, Registry, ServeConfig, ShadowReport};
use blackforest::{BlackForest, ModelConfig, Workload};
use gpu_sim::GpuConfig;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One quick reduce1 bundle per memory-path extreme of the zoo: GTX580
/// (Fermi) and GTX1080 (Pascal), same workload and sweep so the
/// characteristic schemas match (a legal shadow pair) while the GPU
/// fingerprints and architectures differ.
fn bundles() -> &'static (ModelBundle, ModelBundle) {
    static TRAINED: OnceLock<(ModelBundle, ModelBundle)> = OnceLock::new();
    TRAINED.get_or_init(|| {
        let sizes: Vec<usize> = (12..=15).map(|e| 1usize << e).collect();
        let workload = Workload::Reduce(bf_kernels::reduce::ReduceVariant::Reduce1);
        let train = |gpu: GpuConfig| {
            let bf = BlackForest::new(gpu.clone()).with_config(ModelConfig::quick(91));
            let report = bf.analyze(workload, &sizes).expect("train quick bundle");
            ModelBundle::from_report(&report, &gpu, &sizes, true)
        };
        let fermi = train(GpuConfig::gtx580());
        let pascal = train(GpuConfig::gtx1080());
        assert_eq!(fermi.gpu_arch, "fermi");
        assert_eq!(pascal.gpu_arch, "pascal");
        assert_ne!(
            fermi.gpu_fingerprint, pascal.gpu_fingerprint,
            "different zoo GPUs must fingerprint differently"
        );
        assert_eq!(
            fermi.characteristics, pascal.characteristics,
            "same workload: schemas must match so only the GPU differs"
        );
        (fermi, pascal)
    })
}

fn oneshot(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: loopback\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write request");
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

fn serve_default(
    bundle: &ModelBundle,
    config: ServeConfig,
) -> (bf_serve::ServerHandle, std::thread::JoinHandle<()>, u64) {
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
    let server = PredictServer::bind_registry("127.0.0.1:0", registry, config).expect("bind");
    let (handle, join) = server.spawn();
    (handle, join, id)
}

/// Promoting the Pascal-trained bundle over a Fermi-serving `default` is a
/// 409 that names both real fingerprints; `force` completes the swap and
/// the server then answers with the Pascal model, refusing `gpu`-pinned
/// queries for the old GPU with a 422.
#[test]
fn cross_arch_promotion_is_409_until_forced_then_serves() {
    let (fermi, pascal) = bundles();
    let (handle, join, _fermi_id) = serve_default(
        fermi,
        ServeConfig {
            admin: true,
            ..ServeConfig::default()
        },
    );
    let addr = handle.addr();
    let pascal_id = handle
        .registry()
        .load_bundle(pascal.clone())
        .expect("load pascal bundle");

    // Un-forced swap across generations: refused, both fingerprints named.
    let (status, body) = oneshot(
        addr,
        "POST",
        "/v1/models/alias",
        &format!("{{\"alias\": \"default\", \"id\": \"{pascal_id:016x}\"}}"),
    );
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("fingerprint"), "{body}");
    assert!(
        body.contains(&format!("{:#x}", fermi.gpu_fingerprint))
            && body.contains(&format!("{:#x}", pascal.gpu_fingerprint)),
        "409 must name both real fingerprints: {body}"
    );

    // Force path: the swap lands and the very next predict is Pascal's.
    let (status, body) = oneshot(
        addr,
        "POST",
        "/v1/models/alias",
        &format!("{{\"alias\": \"default\", \"id\": \"{pascal_id:016x}\", \"force\": true}}"),
    );
    assert_eq!(status, 200, "{body}");
    let (status, body) = oneshot(
        addr,
        "POST",
        "/predict",
        "{\"size\": 8192, \"threads\": 128}",
    );
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains(&format!("{pascal_id:016x}")),
        "forced swap must actually serve the cross-arch model: {body}"
    );

    // A query pinned to the old GPU is refused with the trained GPU named;
    // pinned to the new GPU it answers.
    let (status, body) = oneshot(
        addr,
        "POST",
        "/predict",
        "{\"size\": 8192, \"threads\": 128, \"gpu\": \"gtx580\"}",
    );
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("GTX1080"), "{body}");
    let (status, body) = oneshot(
        addr,
        "POST",
        "/predict",
        "{\"size\": 8192, \"threads\": 128, \"gpu\": \"gtx1080\"}",
    );
    assert_eq!(status, 200, "{body}");

    handle.stop();
    join.join().expect("server exits");
}

/// A Pascal shadow behind a Fermi primary replays cleanly: zero errors,
/// every row scored, and the architectural gap shows up as divergence in
/// the report rather than as a failure.
#[test]
fn cross_arch_shadow_reports_divergence_without_errors() {
    let (fermi, pascal) = bundles();
    let (handle, join, fermi_id) = serve_default(fermi, ServeConfig::default());
    let addr = handle.addr();
    let registry = handle.registry();
    let pascal_id = registry
        .load_bundle(pascal.clone())
        .expect("load pascal bundle");
    // Attaching a shadow checks schema compatibility only — architectures
    // may differ; that is the point of shadowing a hardware migration.
    registry
        .set_alias(AliasUpdate {
            alias: "default".into(),
            shadow: Some(pascal_id),
            ..AliasUpdate::default()
        })
        .expect("attach cross-arch shadow");

    let n_requests = 10u64;
    for i in 0..n_requests {
        let q = format!("{{\"size\": {}, \"threads\": 128}}", 4096 + i * 256);
        let (status, body) = oneshot(addr, "POST", "/predict", &q);
        assert_eq!(status, 200, "{body}");
        assert!(
            body.contains(&format!("{fermi_id:016x}")),
            "primary must keep serving while the shadow replays: {body}"
        );
    }

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
    assert_eq!(
        report.errors, 0,
        "cross-arch replay must score, not error: {report:?}"
    );
    assert!(report.requests > 0, "{report:?}");
    assert!(
        report.max_rel_delta > 0.0,
        "Fermi vs Pascal trainings must genuinely diverge: {report:?}"
    );
    assert!(
        report
            .pairs
            .keys()
            .any(|k| k.contains(&format!("{pascal_id:016x}"))),
        "pairing must name the cross-arch shadow: {report:?}"
    );

    handle.stop();
    join.join().expect("server exits");
}

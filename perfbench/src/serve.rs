//! `serve-predict`: the event-loop server over loopback, holding a
//! full-config (500-tree) reduce1 bundle trained as a fixture before any
//! timing. One-second windows alternate between an open loop at a fixed
//! rate well below capacity, on one pipelined keep-alive connection, which
//! gives latency timed from each request's due time, and a closed loop on
//! two keep-alive connections, which gives throughput. The server's
//! `/metrics` histograms are scraped around every open-loop window, so
//! both sides of the latency cover the same requests. Bodies are 80%
//! single rows and 20% 16-row arrays, drawn from a seeded pool eight times
//! the prediction cache with a hot subset, so cache hits and forest passes
//! both occur. Nothing is simulated while timed.

use crate::stats::{self, Histogram, Schedule};
use crate::train::{apes, timed, Rng};
use crate::{Ctx, Outcome};
use bf_kernels::reduce::ReduceVariant;
use bf_registry::{AliasUpdate, ModelBundle, Registry};
use bf_serve::{PredictServer, ServeConfig, ServeMode};
use blackforest::predict::ProblemScalingPredictor;
use blackforest::{BlackForest, CollectOptions, ModelConfig, Workload};
use gpu_sim::GpuConfig;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of the fixture model: the CLI's, so the served bundle is the one
/// `blackforest train --workload reduce1` writes.
const FIXTURE_SEED: u64 = 2016;
/// Prediction cache entries, and the query pool eight times larger.
const CACHE_CAPACITY: usize = 256;
const POOL: usize = 8 * CACHE_CAPACITY;
/// Queries drawn from the first `HOT` pool entries half of the time.
const HOT: usize = 64;
const BATCH_ROWS: usize = 16;
/// Share of requests whose body is a `BATCH_ROWS`-row array.
const BATCH_SHARE: f64 = 0.2;
/// Open-loop arrival rate: about a fifth of what the closed loop sustains
/// on two cores, so the open loop measures service time, not a queue. At a
/// few hundred requests per second the vCPUs halt between requests and
/// every wake-up waits on the hypervisor: on a shared host that made the
/// p99 vary tenfold between runs.
const OPEN_RATE: f64 = 4000.0;
/// The open loop's p50 and p99 are taken per window of this many requests
/// (one second), so a burst of host noise moves one window, not the
/// result. A window holds 40 samples beyond its p99.
const WINDOW: usize = 4000;
/// Server start-ups timed for `setup_s`; the last one serves the load.
const SETUPS: usize = 11;
/// Share of `--seconds` spent in open-loop windows; closed-loop windows
/// of about a second get the rest.
const OPEN_SHARE: f64 = 0.6;
/// Requests each closed-loop connection keeps in flight (pipelined). With
/// one request in flight the loop spent most of its time waking threads,
/// and its rate swung with the hypervisor's steal.
const DEPTH: usize = 8;
/// Requests in the pre-generated sequence both loops cycle through.
const SEQUENCE: usize = 1 << 15;

struct Query {
    /// Pool indices of the rows this request asks for.
    rows: Vec<usize>,
    bytes: Vec<u8>,
}

fn body_row(pool: &[[f64; 2]], i: usize) -> String {
    format!(
        "{{\"characteristics\": [{:?}, {:?}]}}",
        pool[i][0], pool[i][1]
    )
}

/// The seeded request sequence over the query pool.
fn requests(pool: &[[f64; 2]], seed: u64) -> Vec<Query> {
    let mut rng = Rng(seed ^ 0x5E_57E);
    let pick = |rng: &mut Rng| {
        if rng.unit() < 0.5 {
            rng.below(HOT)
        } else {
            rng.below(POOL)
        }
    };
    (0..SEQUENCE)
        .map(|_| {
            let n = if rng.unit() < BATCH_SHARE {
                BATCH_ROWS
            } else {
                1
            };
            let rows: Vec<usize> = (0..n).map(|_| pick(&mut rng)).collect();
            let body = if n == 1 {
                body_row(pool, rows[0])
            } else {
                let items: Vec<String> = rows.iter().map(|&i| body_row(pool, i)).collect();
                format!("[{}]", items.join(", "))
            };
            let bytes = format!(
                "POST /predict HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes();
            Query { rows, bytes }
        })
        .collect()
}

/// Reads one response off a keep-alive connection: status and body.
fn read_response(reader: &mut impl BufRead) -> Result<(u16, Vec<u8>), String> {
    let mut status = None;
    let mut length = 0usize;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err("connection closed mid-response".into());
        }
        if line == "\r\n" {
            break;
        }
        if status.is_none() {
            status = line.split_whitespace().nth(1).and_then(|v| v.parse().ok());
        } else if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                length = v.trim().parse().map_err(|_| "bad Content-Length")?;
            }
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).map_err(|e| e.to_string())?;
    Ok((status.ok_or("malformed status line")?, body))
}

fn http_get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| e.to_string())?;
    let (status, body) = read_response(&mut BufReader::new(stream))?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

fn scrape(addr: SocketAddr) -> Result<String, String> {
    match http_get(addr, "/metrics")? {
        (200, body) => Ok(body),
        (status, _) => Err(format!("/metrics answered {status}")),
    }
}

/// Checks answers against the in-process predictions, bit for bit. The
/// server writes floats in Rust's shortest round-trip form, which is one
/// string per bit pattern, so comparing each `predicted_ms` text with the
/// pre-rendered expected value is an exact comparison that costs the
/// client well under a microsecond per answer. A batch row is compared
/// with the single-row prediction of its query, so batch answers equal
/// singles.
struct Checker<'a> {
    queries: &'a [Query],
    /// `{:?}` of the in-process prediction for every pool entry.
    expected: Vec<String>,
}

impl Checker<'_> {
    fn ok(&self, query: usize, status: u16, body: &[u8]) -> bool {
        let Ok(text) = std::str::from_utf8(body) else {
            return false;
        };
        let mut got = text.split("\"predicted_ms\":").skip(1).map(|rest| {
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].trim()
        });
        status == 200
            && self.queries[query]
                .rows
                .iter()
                .all(|&i| got.next() == Some(self.expected[i].as_str()))
            && got.next().is_none()
    }
}

/// What one loop saw: answers that matched, answers that did not (with
/// the first few for the log), and requests lost to transport errors.
#[derive(Default)]
struct Tally {
    good: u64,
    bad: u64,
    lost: u64,
    rows: u64,
    first_bad: Vec<String>,
}

impl Tally {
    fn record(&mut self, checker: &Checker, query: usize, status: u16, body: &[u8]) {
        if checker.ok(query, status, body) {
            self.good += 1;
            self.rows += checker.queries[query].rows.len() as u64;
        } else {
            self.bad += 1;
            if self.first_bad.len() < 3 {
                let text: String = String::from_utf8_lossy(body).chars().take(160).collect();
                self.first_bad
                    .push(format!("query {query} answered {status}: {text}"));
            }
        }
    }

    fn merge(&mut self, other: Tally) {
        self.good += other.good;
        self.bad += other.bad;
        self.lost += other.lost;
        self.rows += other.rows;
        let room = 3usize.saturating_sub(self.first_bad.len());
        self.first_bad
            .extend(other.first_bad.into_iter().take(room));
    }

    fn report(&self, what: &str, out: &mut Outcome) {
        out.attempted += self.good + self.bad + self.lost;
        out.failed += self.bad + self.lost;
        for line in &self.first_bad {
            out.note(format!("CHECK FAILED: {what}: {line}"));
        }
        if self.lost > 0 {
            out.note(format!("CHECK FAILED: {what}: {} requests lost", self.lost));
        }
    }
}

/// Open loop: `n` requests, request `i` due at `start + i / rate`, taken
/// from the sequence at `offset + i`; a writer sends on schedule over one
/// pipelined connection while a reader takes responses in order. Returns
/// latencies from due time (µs), how late the writer sent each request
/// (µs), and the tally.
fn open_loop(
    addr: SocketAddr,
    checker: &Checker,
    n: usize,
    offset: usize,
) -> Result<(Vec<f64>, Vec<f64>, Tally), String> {
    let queries = checker.queries;
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let schedule = Schedule::new(Instant::now() + Duration::from_millis(5), OPEN_RATE);
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut reader = BufReader::new(stream);
            let mut latencies = Vec::with_capacity(n);
            let mut tally = Tally::default();
            for i in 0..n {
                match read_response(&mut reader) {
                    Ok((status, body)) => {
                        latencies.push(schedule.latency_us(i, Instant::now()));
                        tally.record(checker, (offset + i) % queries.len(), status, &body);
                    }
                    Err(_) => {
                        tally.lost = (n - i) as u64;
                        break;
                    }
                }
            }
            (latencies, tally)
        });
        let mut late = Vec::with_capacity(n);
        for i in 0..n {
            let due = schedule.due(i);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            late.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
            if writer
                .write_all(&queries[(offset + i) % queries.len()].bytes)
                .is_err()
            {
                break;
            }
        }
        let (latencies, tally) = reader.join().expect("open-loop reader panicked");
        Ok((latencies, late, tally))
    })
}

/// Closed loop: `clients` threads, each on its own keep-alive connection
/// with `DEPTH` requests in flight, send their next request only when an
/// answer comes back, until `seconds` pass. Returns the tally and the
/// elapsed seconds.
fn closed_loop(
    addr: SocketAddr,
    checker: &Checker,
    clients: usize,
    seconds: f64,
    offset: usize,
) -> (Tally, f64) {
    let queries = checker.queries;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let connected = TcpStream::connect(addr).and_then(|s| {
                        s.set_nodelay(true)?;
                        s.set_read_timeout(Some(Duration::from_secs(30)))?;
                        Ok((s.try_clone()?, BufReader::new(s)))
                    });
                    let Ok((mut writer, mut reader)) = connected else {
                        tally.lost = 1;
                        return tally;
                    };
                    let mut in_flight = VecDeque::with_capacity(DEPTH);
                    let mut k = 0usize;
                    loop {
                        while in_flight.len() < DEPTH && Instant::now() < deadline {
                            let q = (offset + c + k * clients) % queries.len();
                            k += 1;
                            if writer.write_all(&queries[q].bytes).is_err() {
                                tally.lost += 1 + in_flight.len() as u64;
                                return tally;
                            }
                            in_flight.push_back(q);
                        }
                        let Some(q) = in_flight.pop_front() else {
                            break;
                        };
                        match read_response(&mut reader) {
                            Ok((status, body)) => tally.record(checker, q, status, &body),
                            Err(_) => {
                                tally.lost += 1 + in_flight.len() as u64;
                                break;
                            }
                        }
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let mut total = Tally::default();
    for t in tallies {
        total.merge(t);
    }
    (total, elapsed)
}

/// Trains the fixture: the CLI's full reduce1 `train` on the GTX580.
fn fixture(path: &std::path::Path) -> Result<ProblemScalingPredictor, String> {
    let gpu = GpuConfig::gtx580();
    let sizes: Vec<usize> = (14..=21).map(|e| 1usize << e).collect();
    let mut bf = BlackForest::new(gpu.clone()).with_config(ModelConfig {
        seed: FIXTURE_SEED,
        ..ModelConfig::default()
    });
    bf.collect = CollectOptions::default().with_repetitions(3, 0.02);
    let report = bf
        .analyze(Workload::Reduce(ReduceVariant::Reduce1), &sizes)
        .map_err(|e| format!("fixture train: {e}"))?;
    ModelBundle::from_report(&report, &gpu, &sizes, false)
        .save(path)
        .map_err(|e| format!("fixture save: {e}"))?;
    Ok(report.predictor)
}

/// One server start-up: registry load, bind, spawn, first 200 on /readyz.
struct Started {
    handle: bf_serve::ServerHandle,
    join: std::thread::JoinHandle<()>,
    load_s: f64,
    setup_s: f64,
}

fn start(path: &std::path::Path, threads: usize) -> Result<Started, String> {
    let t0 = Instant::now();
    let registry = Arc::new(Registry::new());
    let (id, load_s) = timed(|| registry.load_path(path));
    let id = id.map_err(|e| format!("load bundle: {e}"))?;
    registry
        .set_alias(AliasUpdate {
            alias: "default".into(),
            id: Some(id),
            create: true,
            ..AliasUpdate::default()
        })
        .map_err(|e| format!("alias: {e}"))?;
    let config = ServeConfig {
        threads,
        cache_capacity: CACHE_CAPACITY,
        mode: ServeMode::EventLoop,
        ..ServeConfig::default()
    };
    let server = PredictServer::bind_registry("127.0.0.1:0", registry, config)?;
    let (handle, join) = server.spawn();
    let ready_by = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok((200, _)) = http_get(handle.addr(), "/readyz") {
            break;
        }
        if Instant::now() > ready_by {
            handle.stop();
            let _ = join.join();
            return Err("server never became ready".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(Started {
        handle,
        join,
        load_s,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

fn stop(s: Started) {
    s.handle.stop();
    let _ = s.join.join();
}

fn hist(text: &str, name: &str, want: &[(&str, &str)]) -> Result<Histogram, String> {
    stats::parse_histogram(text, name, want).ok_or_else(|| format!("/metrics lacks {name}"))
}

fn counter(text: &str, name: &str) -> f64 {
    stats::parse_scalar(text, name).unwrap_or(0.0)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let path = ctx.work.join("fixture.json");
    let (predictor, fixture_s) = timed(|| fixture(&path));
    let predictor = predictor?;
    let fixture_apes = apes(
        &predictor
            .evaluate_holdout()
            .map_err(|e| format!("fixture holdout: {e}"))?,
    );

    // The seeded query pool and what the fixture predicts for each entry.
    let mut rng = Rng(ctx.seed);
    let pool: Vec<[f64; 2]> = (0..POOL)
        .map(|_| {
            let size = (1 << 14) + rng.below((1 << 21) - (1 << 14));
            let threads = [64.0, 128.0, 256.0, 512.0][rng.below(4)];
            [size as f64, threads]
        })
        .collect();
    let expected: Vec<f64> = pool
        .iter()
        .map(|q| predictor.predict(q).map_err(|e| format!("predict: {e}")))
        .collect::<Result<_, _>>()?;
    let rows: Vec<Vec<f64>> = pool.iter().map(|q| q.to_vec()).collect();
    let mut batch_rates = Vec::new();
    for _ in 0..5 {
        let (batch, s) = timed(|| predictor.predict_batch(&rows));
        let batch = batch.map_err(|e| format!("predict_batch: {e}"))?;
        out.check(
            batch
                .iter()
                .zip(&expected)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            || "in-process predict_batch differs from predict".into(),
        );
        batch_rates.push(POOL as f64 / s);
    }
    let queries = requests(&pool, ctx.seed);
    let checker = Checker {
        queries: &queries,
        expected: expected.iter().map(|v| format!("{v:?}")).collect(),
    };

    // Set-up, timed several times: the fixture's time is not part of it.
    let mut setups = Vec::new();
    let mut loads = Vec::new();
    let mut server = None;
    for i in 0..SETUPS {
        let s = start(&path, ctx.threads)?;
        setups.push(s.setup_s);
        loads.push(s.load_s);
        if i + 1 < SETUPS {
            stop(s);
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("SETUPS > 0");
    let addr = server.handle.addr();

    // Open-loop and closed-loop windows of one second alternate, so a
    // stretch of host noise lands on both kinds instead of all of one.
    // The server's histograms are scraped around every open window, so its
    // side of the latency covers the same requests as the client's.
    let open_windows = ((ctx.seconds * OPEN_SHARE).round() as usize).max(1);
    let closed_windows = ((ctx.seconds * (1.0 - OPEN_SHARE)).round() as usize).max(1);
    let closed_s = (ctx.seconds * (1.0 - OPEN_SHARE)) / closed_windows as f64;
    let sim_before = gpu_sim::global_cache_stats();
    let m_first = scrape(addr)?;
    let mut server_side: Vec<Option<Histogram>> = vec![None; 4];
    let mut latencies: Vec<f64> = Vec::new();
    let mut late = Vec::new();
    let (mut p50s, mut p99s, mut open_steal) = (Vec::new(), Vec::new(), Vec::new());
    let (mut open, mut closed) = (Tally::default(), Tally::default());
    let (mut plain_rps, mut traced_rps, mut closed_steal) = (Vec::new(), Vec::new(), Vec::new());
    let (mut done_open, mut done_closed, mut offset) = (0, 0, 0);
    while done_open < open_windows || done_closed < closed_windows {
        let run_open = done_open < open_windows
            && (done_closed >= closed_windows
                || done_open * closed_windows <= done_closed * open_windows);
        let before = stats::cpu_ticks();
        if run_open {
            // With --trace 1 the open loop runs traced.
            if ctx.trace {
                bf_trace::enable();
            }
            let m0 = scrape(addr)?;
            let (lat, lt, tally) = open_loop(addr, &checker, WINDOW, offset)?;
            let m1 = scrape(addr)?;
            bf_trace::disable();
            for (slot, (name, want)) in server_side.iter_mut().zip([
                ("bf_request_latency_us", None),
                ("bf_phase_latency_us", Some("parse")),
                ("bf_phase_latency_us", Some("predict")),
                ("bf_phase_latency_us", Some("serialize")),
            ]) {
                let want: Vec<(&str, &str)> = want.map(|p| ("phase", p)).into_iter().collect();
                let delta = hist(&m1, name, &want)?.since(&hist(&m0, name, &want)?);
                *slot = Some(match slot.take() {
                    Some(sum) => sum.plus(&delta),
                    None => delta,
                });
            }
            let mut sorted = lat.clone();
            sorted.sort_by(f64::total_cmp);
            if sorted.len() == WINDOW {
                p50s.push(stats::quantile(&sorted, 0.5));
                p99s.push(stats::quantile(&sorted, 0.99));
            }
            latencies.extend(lat);
            late.extend(lt);
            open.merge(tally);
            open_steal.push(stats::steal_share(before, stats::cpu_ticks()));
            offset += WINDOW;
            done_open += 1;
        } else {
            // With --trace 1, traced and untraced closed windows alternate,
            // for the tracing overhead.
            let traced = ctx.trace && done_closed % 2 == 1;
            if traced {
                bf_trace::enable();
            }
            let (t, e) = closed_loop(addr, &checker, ctx.threads, closed_s, offset);
            bf_trace::disable();
            let rps = t.rows as f64 / e;
            if traced {
                &mut traced_rps
            } else {
                &mut plain_rps
            }
            .push(rps);
            offset += (t.good + t.bad) as usize;
            closed.merge(t);
            closed_steal.push(stats::steal_share(before, stats::cpu_ticks()));
            done_closed += 1;
        }
        // Keep the trace buffer from growing across windows.
        drop(bf_trace::drain());
    }
    let m_last = scrape(addr)?;
    let sim_after = gpu_sim::global_cache_stats();
    stop(server);

    open.report("open loop", &mut out);
    closed.report("closed loop", &mut out);
    let simulated = sim_after.misses - sim_before.misses;
    out.check(simulated == 0, || {
        format!("{simulated} launches were simulated while serving")
    });
    let open_n = open_windows * WINDOW;
    out.check(latencies.len() == open_n, || {
        format!("open loop answered {} of {open_n}", latencies.len())
    });

    // Each window of the open loop gives a p50 and a p99, each window of
    // the closed loop a rate; the reported figure is the quartile of
    // windows on the good side (see `stats::good_quartile`).
    let beyond = stats::beyond(WINDOW, 0.99);
    out.check(!p99s.is_empty() && beyond >= stats::MIN_BEYOND, || {
        format!(
            "{} windows, p99 has {beyond} samples beyond it in each",
            p99s.len()
        )
    });
    let p50 = stats::good_quartile(&p50s, true);
    let p99 = stats::good_quartile(&p99s, true);
    let closed_rps = stats::good_quartile(&plain_rps, false);
    latencies.sort_by(f64::total_cmp);
    late.sort_by(f64::total_cmp);
    out.note(format!(
        "open loop: {} requests at {OPEN_RATE} req/s in {} windows of {WINDOW}, {beyond} \
         samples beyond each window's p99; whole run p50 {:.1} us, p99 {:.1} us, highest \
         percentile it supports: {}",
        latencies.len(),
        p99s.len(),
        stats::quantile(&latencies, 0.5),
        stats::quantile(&latencies, 0.99),
        stats::tail(&latencies).map_or("none".into(), |(q, v, b)| format!(
            "p{} = {v:.1} us, {b} beyond",
            q * 100.0
        ))
    ));
    let round = |v: &[f64], k: f64| v.iter().map(|x| (x * k).round() / k).collect::<Vec<_>>();
    out.note(format!(
        "open-loop windows: p50 us {:?}, p99 us {:?}, host steal % {:?}",
        round(&p50s, 1.0),
        round(&p99s, 1.0),
        round(
            &open_steal.iter().map(|s| s * 100.0).collect::<Vec<_>>(),
            10.0
        )
    ));
    out.note(format!(
        "closed loop: {} connections, {} requests, {} rows in {closed_windows} windows of \
         {closed_s:.2} s: \
         untraced rows/s {:?}, traced rows/s {:?}, host steal % {:?}",
        ctx.threads,
        closed.good + closed.bad,
        closed.rows,
        round(&plain_rps, 1.0),
        round(&traced_rps, 1.0),
        round(
            &closed_steal.iter().map(|s| s * 100.0).collect::<Vec<_>>(),
            10.0
        )
    ));
    out.note(
        "metric names on this workload: latency_ms = serve_p50_us / 1000 (open loop, \
         from due time), throughput_per_s = serve_rows_per_s (closed loop), each the \
         good-side quartile of its windows (serve_p99_us likewise, as the per-layer \
         serve.p99_us); error_pct = median absolute percentage error of the served \
         model's holdout"
            .into(),
    );
    out.note(format!(
        "serve_p99_us (good-side quartile of windows): {p99:.1}"
    ));
    out.set("setup_s", stats::median(&setups));
    out.set("latency_ms", p50 / 1e3);
    out.set("serve.p99_us", p99);
    out.set("throughput_per_s", closed_rps);
    out.set("error_pct", stats::median(&fixture_apes));
    out.set("peak_rss_mb", crate::peak_rss_mb());

    // Per-layer: the server's own view of the open-loop window, next to
    // the client's.
    let server_p50s: Vec<f64> = server_side
        .iter()
        .map(|h| h.as_ref().and_then(|h| h.quantile(0.5)).unwrap_or(0.0))
        .collect();
    for (metric, v) in [
        "serve.server_p50_us",
        "serve.parse_p50_us",
        "serve.predict_p50_us",
        "serve.serialize_p50_us",
    ]
    .into_iter()
    .zip(&server_p50s)
    {
        out.set(metric, *v);
    }
    out.set(
        "serve.transport_p50_us",
        stats::quantile(&latencies, 0.5) - server_p50s[0],
    );
    let hits = counter(&m_last, "bf_prediction_cache_hits_total")
        - counter(&m_first, "bf_prediction_cache_hits_total");
    let misses = counter(&m_last, "bf_prediction_cache_misses_total")
        - counter(&m_first, "bf_prediction_cache_misses_total");
    out.set("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
    let batches = hist(&m_last, "bf_predict_batch_rows", &[])?.since(&hist(
        &m_first,
        "bf_predict_batch_rows",
        &[],
    )?);
    out.set("serve.batch_rows_mean", batches.mean().unwrap_or(0.0));
    out.set(
        "serve.queue_rejections",
        counter(&m_last, "bf_queue_rejections_total")
            - counter(&m_first, "bf_queue_rejections_total"),
    );
    out.set(
        "forest.predict_batch_rows_per_s",
        stats::median(&batch_rates),
    );
    out.set("registry.bundle_load_s", stats::median(&loads));
    out.set("loadgen.late_p99_us", stats::quantile(&late, 0.99));
    out.set("gpu_sim.launches_simulated", simulated as f64);
    if ctx.trace {
        out.set(
            "trace.overhead_ratio",
            stats::median(&plain_rps) / stats::median(&traced_rps),
        );
    }
    out.note(format!(
        "setup: {SETUPS} start-ups {setups:.4?} s, median {:.4} s (registry load {:.4} s); \
         fixture training before them took {fixture_s:.2} s",
        stats::median(&setups),
        stats::median(&loads)
    ));
    Ok(out)
}

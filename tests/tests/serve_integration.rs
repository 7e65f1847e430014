//! Integration tests for `swip-serve` over a real loopback socket:
//! served reports must be byte-identical to offline runs, a full queue
//! must shed load with 429, and shutdown must drain accepted work.

use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use swip_bench::{build_plan_report, ExperimentPlan, SessionBuilder};
use swip_report::{Json, PlanSpec};
use swip_serve::{client, JobState, ServeConfig, ServeContext, Server};

const POLL: Duration = Duration::from_millis(50);
const DEADLINE: Duration = Duration::from_secs(180);

struct Harness {
    addr: String,
    ctx: Arc<ServeContext>,
    server: JoinHandle<std::io::Result<()>>,
}

/// Binds a server on an ephemeral loopback port and runs it on a thread.
fn start(instructions: u64, stride: usize, threads: usize, config: ServeConfig) -> Harness {
    let session = SessionBuilder::new()
        .instructions(instructions)
        .stride(stride)
        .threads(threads)
        .build()
        .unwrap();
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..config
    };
    let server = Server::bind(&config, session).unwrap();
    let addr = server.local_addr().to_string();
    let ctx = server.context();
    let handle = thread::spawn(move || server.run());
    Harness {
        addr,
        ctx,
        server: handle,
    }
}

fn submit(addr: &str, body: &str) -> (u16, String) {
    client::request(addr, "POST", "/v1/jobs", Some(body)).unwrap()
}

fn job_id(body: &str) -> u64 {
    Json::parse(body)
        .unwrap()
        .get("id")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no job id in {body}"))
}

fn wait_done(addr: &str, id: u64) {
    let started = Instant::now();
    loop {
        let (status, body) = client::request(addr, "GET", &format!("/v1/jobs/{id}"), None).unwrap();
        assert_eq!(status, 200, "{body}");
        let state = Json::parse(&body)
            .unwrap()
            .get("state")
            .and_then(|s| s.as_str().map(String::from))
            .unwrap();
        match state.as_str() {
            "done" => return,
            "failed" => panic!("job {id} failed: {body}"),
            _ => {
                assert!(
                    started.elapsed() < DEADLINE,
                    "job {id} still {state} after {DEADLINE:?}"
                );
                thread::sleep(POLL);
            }
        }
    }
}

fn fetch_report(addr: &str, id: u64) -> String {
    let (status, body) =
        client::request(addr, "GET", &format!("/v1/jobs/{id}/report"), None).unwrap();
    assert_eq!(status, 200, "{body}");
    body
}

#[test]
fn served_report_is_byte_identical_to_an_offline_run() {
    // stride 24 over the 48-workload suite → a 2-workload plan.
    let h = start(20_000, 24, 2, ServeConfig::default());

    let (status, body) = client::request(&h.addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\""), "{body}");

    // Submit all six configs across both workloads, explicitly.
    let (status, body) = submit(&h.addr, r#"{"workloads": [], "configs": []}"#);
    assert_eq!(status, 202, "{body}");
    let id = job_id(&body);
    wait_done(&h.addr, id);
    let served = fetch_report(&h.addr, id);

    // The offline twin: same knobs, fresh session, same plan.
    let offline_session = SessionBuilder::new()
        .instructions(20_000)
        .stride(24)
        .threads(2)
        .build()
        .unwrap();
    let workloads = offline_session.workloads();
    assert_eq!(workloads.len(), 2, "expected a 2-workload plan");
    let plan = ExperimentPlan::from_spec(&PlanSpec::default(), &workloads).unwrap();
    let results = offline_session.run(&plan).unwrap();
    let offline = build_plan_report(&offline_session, &results).to_json();

    assert_eq!(
        served, offline,
        "served and offline reports must match byte-for-byte"
    );

    // The job resource carries the wall-clock the report deliberately
    // omits, and the resolved plan.
    let (_, job_body) = client::request(&h.addr, "GET", &format!("/v1/jobs/{id}"), None).unwrap();
    let job = Json::parse(&job_body).unwrap();
    assert!(job.get("run_seconds").and_then(Json::as_f64).unwrap() > 0.0);
    let plan_json = job.get("plan").unwrap();
    assert_eq!(
        plan_json
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .len(),
        2
    );
    assert_eq!(
        plan_json
            .get("configs")
            .and_then(Json::as_arr)
            .unwrap()
            .len(),
        6
    );

    // Bad submissions are typed 400s and never occupy the queue.
    let (status, body) = submit(&h.addr, r#"{"workloads": ["nope"]}"#);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unknown workload"), "{body}");
    let (status, _) = submit(&h.addr, "not json");
    assert_eq!(status, 400);

    // An unknown prefetcher label 400s before queueing, and the error
    // names the valid mechanisms.
    let queue_before = h.ctx.job_counts().iter().sum::<u64>();
    let (status, body) = submit(&h.addr, r#"{"prefetchers": ["markov"]}"#);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unresolvable plan"), "{body}");
    assert!(body.contains("markov"), "{body}");
    assert!(body.contains("shadow_btb"), "{body}");
    assert_eq!(h.ctx.job_counts().iter().sum::<u64>(), queue_before);

    // A known prefetcher label resolves to its zoo configuration.
    let (status, body) = submit(&h.addr, r#"{"prefetchers": ["mana"]}"#);
    assert_eq!(status, 202, "{body}");
    let id = job_id(&body);
    wait_done(&h.addr, id);
    let (_, job_body) = client::request(&h.addr, "GET", &format!("/v1/jobs/{id}"), None).unwrap();
    let job = Json::parse(&job_body).unwrap();
    let configs = job.get("plan").unwrap().get("configs").unwrap();
    assert_eq!(configs.render(), r#"["ftq24_mana"]"#);

    // Static admission: a custom insertion anchored at an address no
    // workload ever executes is provably dead (D001) — rejected with the
    // rule ids before it can occupy queue capacity.
    let jobs_before = h.ctx.job_counts().iter().sum::<u64>();
    let (status, body) = submit(
        &h.addr,
        r#"{"configs": ["ftq2_fdp"],
            "insertions": [{"anchor": 3735879680, "target": 64, "distance": 48}]}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("D001"), "{body}");
    assert!(body.contains("static admission"), "{body}");
    assert_eq!(h.ctx.job_counts().iter().sum::<u64>(), jobs_before);

    let (status, _) = client::request(&h.addr, "POST", "/v1/shutdown", None).unwrap();
    assert_eq!(status, 202);
    h.server.join().unwrap().unwrap();
}

#[test]
fn full_queue_sheds_load_with_429_and_still_finishes_accepted_jobs() {
    // One worker and a 2-deep queue: a burst of 8 submissions must
    // overflow (at most 1 running + 2 queued can be admitted during the
    // first job's runtime).
    let h = start(
        20_000,
        48,
        2,
        ServeConfig {
            workers: 1,
            queue_depth: 2,
            ..ServeConfig::default()
        },
    );

    let submitters: Vec<_> = (0..4)
        .map(|_| {
            let addr = h.addr.clone();
            thread::spawn(move || {
                let mut outcomes = Vec::new();
                for _ in 0..2 {
                    let (status, body) = submit(&addr, "{}");
                    outcomes.push((status, body));
                }
                outcomes
            })
        })
        .collect();
    let outcomes: Vec<(u16, String)> = submitters
        .into_iter()
        .flat_map(|t| t.join().unwrap())
        .collect();

    let accepted: Vec<u64> = outcomes
        .iter()
        .filter(|(s, _)| *s == 202)
        .map(|(_, b)| job_id(b))
        .collect();
    let rejected = outcomes.iter().filter(|(s, _)| *s == 429).count();
    assert_eq!(accepted.len() + rejected, 8, "{outcomes:?}");
    assert!(!accepted.is_empty(), "{outcomes:?}");
    assert!(rejected >= 1, "queue never overflowed: {outcomes:?}");

    // Every accepted job must reach `done`, and — same session, same
    // plan — every report must be byte-identical.
    let reports: Vec<String> = accepted
        .iter()
        .map(|&id| {
            wait_done(&h.addr, id);
            fetch_report(&h.addr, id)
        })
        .collect();
    for r in &reports[1..] {
        assert_eq!(r, &reports[0]);
    }

    // /metrics agrees with what we observed.
    let (status, body) = client::request(&h.addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let metrics = Json::parse(&body).unwrap();
    assert_eq!(
        metrics.get("jobs_done").and_then(Json::as_u64),
        Some(accepted.len() as u64)
    );
    assert_eq!(
        metrics.get("jobs_rejected").and_then(Json::as_u64),
        Some(rejected as u64)
    );
    assert_eq!(
        metrics.get("queue_capacity").and_then(Json::as_u64),
        Some(2)
    );
    assert!(
        metrics
            .get("session_sim_runs")
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );

    let (status, _) = client::request(&h.addr, "POST", "/v1/shutdown", None).unwrap();
    assert_eq!(status, 202);
    h.server.join().unwrap().unwrap();
    assert_eq!(h.ctx.rejected(), rejected as u64);
}

#[test]
fn shutdown_drains_accepted_jobs_and_rejects_new_ones() {
    let h = start(
        20_000,
        48,
        2,
        ServeConfig {
            workers: 1,
            queue_depth: 4,
            ..ServeConfig::default()
        },
    );

    // Two full-plan jobs: the second is still queued when we pull the
    // plug, so the drain has real work to finish.
    let (s1, b1) = submit(&h.addr, "{}");
    let (s2, b2) = submit(&h.addr, "{}");
    assert_eq!((s1, s2), (202, 202), "{b1} / {b2}");
    let (id1, id2) = (job_id(&b1), job_id(&b2));

    let (status, _) = client::request(&h.addr, "POST", "/v1/shutdown", None).unwrap();
    assert_eq!(status, 202);

    // While draining: health stays up and reports draining, new jobs
    // are refused with 503.
    let (status, body) = client::request(&h.addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"draining\":true"), "{body}");
    let (status, body) = submit(&h.addr, "{}");
    assert_eq!(status, 503, "{body}");

    // The accept loop exits cleanly once the queue drains...
    h.server.join().unwrap().unwrap();
    // ...and both accepted jobs made it to `done`, not `failed`.
    assert_eq!(h.ctx.job_state(id1), Some(JobState::Done));
    assert_eq!(h.ctx.job_state(id2), Some(JobState::Done));
    assert!(h.ctx.is_draining());
    let [queued, running, done, failed] = h.ctx.job_counts();
    assert_eq!((queued, running, failed), (0, 0, 0));
    assert_eq!(done, 2);
}

#[test]
fn keep_alive_connection_serves_many_requests_with_identical_bytes() {
    // stride 48 → a 1-workload plan; 3 jobs is still cheap.
    let h = start(20_000, 48, 2, ServeConfig::default());

    // Three submissions on ONE socket: distinct jobs, one connection.
    let mut conn = client::Connection::connect(&h.addr).unwrap();
    let mut ids = Vec::new();
    for _ in 0..3 {
        let (status, body) = conn
            .request("POST", "/v1/jobs", Some(r#"{"configs": ["ftq2_fdp"]}"#))
            .unwrap();
        assert_eq!(status, 202, "{body}");
        ids.push(job_id(&body));
    }
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(
        ids.len(),
        3,
        "keep-alive submissions must yield distinct jobs"
    );

    // Poll each to done over the same socket, then compare raw report
    // bytes against a fresh connection per request: the response a
    // kept-alive client sees must be identical to a fresh client's.
    for &id in &ids {
        let started = Instant::now();
        loop {
            let (status, body) = conn
                .request("GET", &format!("/v1/jobs/{id}"), None)
                .unwrap();
            assert_eq!(status, 200, "{body}");
            let state = Json::parse(&body)
                .unwrap()
                .get("state")
                .and_then(|s| s.as_str().map(String::from))
                .unwrap();
            match state.as_str() {
                "done" => break,
                "failed" => panic!("job {id} failed: {body}"),
                _ => {
                    assert!(started.elapsed() < DEADLINE);
                    thread::sleep(POLL);
                }
            }
        }
        let path = format!("/v1/jobs/{id}/report");
        let kept = conn.request_raw("GET", &path, None).unwrap();
        let fresh = client::Connection::connect(&h.addr)
            .unwrap()
            .request_raw("GET", &path, None)
            .unwrap();
        assert_eq!(
            kept, fresh,
            "kept-alive and fresh-connection responses must be byte-identical"
        );
    }

    // The served report is byte-identical to the offline twin.
    let served_body = {
        let raw = conn
            .request_raw("GET", &format!("/v1/jobs/{}/report", ids[0]), None)
            .unwrap();
        let text = String::from_utf8(raw).unwrap();
        text.split_once("\r\n\r\n").unwrap().1.to_string()
    };
    let offline_session = SessionBuilder::new()
        .instructions(20_000)
        .stride(48)
        .threads(2)
        .build()
        .unwrap();
    let workloads = offline_session.workloads();
    let spec = PlanSpec {
        configs: vec!["ftq2_fdp".to_string()],
        ..PlanSpec::default()
    };
    let plan = ExperimentPlan::from_spec(&spec, &workloads).unwrap();
    let results = offline_session.run(&plan).unwrap();
    let offline = build_plan_report(&offline_session, &results).to_json();
    assert_eq!(served_body, offline, "served report drifted from offline");

    // The requests-per-connection histogram only fills at close; what
    // must hold mid-flight is that the gauges see this socket.
    let (status, body) = conn.request("GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let metrics = Json::parse(&body).unwrap();
    assert!(metrics.get("conns_open").and_then(Json::as_u64).unwrap() >= 1);
    assert!(
        metrics
            .get("conns_keepalive")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1
    );

    let (status, _) = client::request(&h.addr, "POST", "/v1/shutdown", None).unwrap();
    assert_eq!(status, 202);
    h.server.join().unwrap().unwrap();
}

#[test]
fn pipelined_submissions_in_one_write_are_both_answered() {
    // Regression for the pipelined-byte-loss bug: two POSTs written in a
    // single burst must both be parsed and answered — an earlier reader
    // destroyed the second request's bytes.
    let h = start(20_000, 48, 2, ServeConfig::default());

    let body = r#"{"configs": ["ftq2_fdp"]}"#;
    let one = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut conn = client::Connection::connect(&h.addr).unwrap();
    conn.send_raw(format!("{one}{one}").as_bytes()).unwrap();

    let mut ids = Vec::new();
    for _ in 0..2 {
        let raw = conn.read_framed_response().unwrap();
        let text = String::from_utf8(raw).unwrap();
        assert!(text.starts_with("HTTP/1.1 202"), "{text}");
        ids.push(job_id(text.split_once("\r\n\r\n").unwrap().1));
    }
    assert_ne!(
        ids[0], ids[1],
        "pipelined submissions collapsed into one job"
    );

    for &id in &ids {
        wait_done(&h.addr, id);
    }
    let (status, _) = client::request(&h.addr, "POST", "/v1/shutdown", None).unwrap();
    assert_eq!(status, 202);
    h.server.join().unwrap().unwrap();
}

#[test]
fn connection_table_is_bounded_and_sheds_with_503() {
    use std::io::{Read, Write};

    let h = start(
        20_000,
        48,
        2,
        ServeConfig {
            max_conns: 8,
            ..ServeConfig::default()
        },
    );

    // Fill the table and then some: 8 held + 50 shed.
    let mut held = Vec::new();
    for _ in 0..58 {
        let s = std::net::TcpStream::connect(&h.addr).unwrap();
        s.set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        held.push(s);
    }

    let started = Instant::now();
    while h.ctx.conns_shed() < 50 && started.elapsed() < Duration::from_secs(10) {
        thread::sleep(POLL);
    }
    assert_eq!(h.ctx.conns_shed(), 50, "exactly the overflow should shed");

    let mut shed = 0;
    let mut quiet = 0;
    for s in &mut held {
        let mut buf = [0u8; 512];
        match s.read(&mut buf) {
            Ok(n) if n > 0 => {
                let text = String::from_utf8_lossy(&buf[..n]);
                assert!(text.starts_with("HTTP/1.1 503"), "{text}");
                assert!(text.contains("Connection: close"), "{text}");
                shed += 1;
            }
            // EOF or read timeout: an accepted socket the server is
            // patiently holding.
            _ => quiet += 1,
        }
    }
    assert_eq!((shed, quiet), (50, 8));

    // A held (accepted) connection is still fully serviceable.
    let mut accepted = held.remove(0);
    accepted
        .write_all(b"POST /v1/shutdown HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
        .unwrap();
    accepted
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut response = Vec::new();
    let mut buf = [0u8; 512];
    loop {
        match accepted.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => response.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 202"), "{text}");

    drop(held);
    h.server.join().unwrap().unwrap();
}

#[test]
fn drain_exits_cleanly_with_idle_kept_alive_connections_open() {
    let h = start(20_000, 48, 2, ServeConfig::default());

    // Park two kept-alive connections (each has served a request, so
    // drain sees genuine idle keep-alive state, not a fresh socket).
    let mut parked = Vec::new();
    for _ in 0..2 {
        let mut conn = client::Connection::connect(&h.addr).unwrap();
        let (status, _) = conn.request("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        parked.push(conn);
    }

    let (status, _) = client::request(&h.addr, "POST", "/v1/shutdown", None).unwrap();
    assert_eq!(status, 202);

    // The parked clients never hang up; the server must not wait on
    // them. Join on a watchdog thread so a regression fails fast
    // instead of hanging the suite.
    let server = h.server;
    let (tx, rx) = std::sync::mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(server.join().unwrap());
    });
    let exit = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("drain must not wait for idle kept-alive connections");
    exit.unwrap();
    assert!(h.ctx.is_draining());
    drop(parked);
}

#[test]
fn stalled_mid_request_times_out_with_408() {
    use std::io::{Read, Write};

    let h = start(
        20_000,
        48,
        2,
        ServeConfig {
            read_timeout: Duration::from_millis(200),
            ..ServeConfig::default()
        },
    );

    // Send half a request head and stall.
    let mut s = std::net::TcpStream::connect(&h.addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET /healthz HTT").unwrap();

    let mut response = Vec::new();
    let mut buf = [0u8; 512];
    loop {
        match s.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => response.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 408"), "{text}");
    assert!(text.contains("Connection: close"), "{text}");
    assert!(h.ctx.conn_timeouts() >= 1);

    let (status, _) = client::request(&h.addr, "POST", "/v1/shutdown", None).unwrap();
    assert_eq!(status, 202);
    h.server.join().unwrap().unwrap();
}

#[test]
fn keep_alive_timeout_past_the_end_of_instant_means_no_deadline() {
    let h = start(
        20_000,
        48,
        2,
        ServeConfig {
            keep_alive_timeout: Duration::from_secs(u64::MAX),
            ..ServeConfig::default()
        },
    );

    // The loop computes every open connection's deadline on each pass,
    // so a kept-alive connection must survive one it cannot represent.
    let mut conn = client::Connection::connect(&h.addr).unwrap();
    for _ in 0..2 {
        let (status, body) = conn.request("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200, "{body}");
    }
    drop(conn);

    let (status, _) = client::request(&h.addr, "POST", "/v1/shutdown", None).unwrap();
    assert_eq!(status, 202);
    h.server.join().unwrap().unwrap();
}

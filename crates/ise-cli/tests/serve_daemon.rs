//! Process-level harness for the concurrent `ise serve` daemon: the built `ise`
//! binary is spawned with `--listen 127.0.0.1:0` and exercised the way real
//! clients do — concurrent TCP connections replaying a mixed workload against a
//! serial ground truth, the HTTP/1.1 shim, SIGTERM under load and while idle,
//! the cost of a new connection, the `--max-connections` slots, and the
//! connection-error accounting for clients that vanish mid-line. The in-process
//! concurrency tests (same invariants, no sockets) live in
//! `tests/serve_concurrent.rs` at the workspace root.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use ise_bench::json::Json;
use ise_cli::serve::MAX_REQUEST_BYTES;

/// A tiny multiply-accumulate block; `{n}` is replaced to mint distinct blocks.
const TINY: &str = "dfg tiny{n}\nnode 0 in @a\nnode 1 in @x\nnode 2 in @acc\n\
                    node 3 mul\nnode 4 add\nedge 0 3\nedge 1 3\nedge 3 4\nedge 2 4\n\
                    output 4\nend\n";

fn tiny_block(n: usize) -> String {
    TINY.replace("{n}", &n.to_string())
}

fn corpus_file(name: &str) -> String {
    format!("{}/../../corpus/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// One spawned `ise serve --listen 127.0.0.1:0` daemon.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(extra_args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ise"))
            .arg("serve")
            .arg("--listen")
            .arg("127.0.0.1:0")
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn ise serve");
        let stdout = child.stdout.take().expect("daemon stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read the listening banner");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {line}"))
            .to_string();
        Daemon { child, addr }
    }

    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(&self.addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set read timeout");
        stream.set_nodelay(true).expect("set nodelay");
        stream
    }

    /// Sends one JSON-protocol request over a fresh connection.
    fn roundtrip(&self, line: &str) -> String {
        let mut stream = self.connect();
        writeln!(stream, "{line}").expect("send request");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        response.trim_end().to_string()
    }

    /// Requests shutdown and asserts the daemon exits with status 0, returning
    /// everything it wrote to stderr.
    fn shutdown(mut self) -> String {
        let bye = self.roundtrip("{\"op\":\"shutdown\"}");
        assert!(bye.contains("\"ok\":true"), "{bye}");
        let status = wait_with_timeout(&mut self.child, Duration::from_secs(30));
        assert!(status.success(), "daemon must exit 0, got {status:?}");
        let mut stderr = String::new();
        if let Some(mut pipe) = self.child.stderr.take() {
            let _ = pipe.read_to_string(&mut stderr);
        }
        stderr
    }
}

/// A test that fails before its daemon exits must not leave it running.
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn wait_with_timeout(child: &mut Child, timeout: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait().expect("poll daemon") {
            return status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("daemon did not exit within {timeout:?}");
        }
        thread::sleep(Duration::from_millis(20));
    }
}

/// Builds one request line with an inline block.
fn request(op: &str, block: &str, flags: &str) -> String {
    format!(
        "{{\"op\":\"{op}\",\"block\":{},\"flags\":{{{flags}}}}}",
        Json::str(block).render()
    )
}

/// The deterministic part of a response (the Rust-side `ci/strip-volatile.sh`):
/// content key + payload for successes, the whole line for errors.
fn stripped(response: &str) -> String {
    let doc = Json::parse(response).expect("response is JSON");
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        return response.to_string();
    }
    format!(
        "{}:{}",
        doc.get("key").and_then(Json::as_str).expect("key"),
        doc.get("result").expect("result").render()
    )
}

fn server_counter(stats_response: &str, field: &str) -> u64 {
    Json::parse(stats_response)
        .expect("stats is JSON")
        .get("result")
        .and_then(|r| r.get("server"))
        .and_then(|s| s.get(field))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("server counter {field} in {stats_response}"))
}

/// The mixed workload replayed by every client: inline cold/warm keys, a
/// corpus-file block, an op mix, and malformed lines.
fn workload() -> Vec<String> {
    let mut lines = Vec::new();
    for n in 0..3 {
        lines.push(request("enumerate", &tiny_block(n), "\"budget\":5000"));
    }
    lines.push(format!(
        "{{\"op\":\"enumerate\",\"block\":{},\"flags\":{{\"budget\":20000}}}}",
        Json::str(corpus_file("mibench-like-12-42.dfg")).render()
    ));
    lines.push(request("group", &tiny_block(0), "\"budget\":5000"));
    lines.push(request(
        "select",
        &tiny_block(1),
        "\"budget\":5000,\"max-instr\":2",
    ));
    // Duplicates (warm for whoever comes second).
    for n in 0..3 {
        lines.push(request("enumerate", &tiny_block(n), "\"budget\":5000"));
    }
    lines.push("definitely not json".to_string());
    lines.push("{\"op\":\"frobnicate\"}".to_string());
    lines
}

/// Deterministic Fisher-Yates driven by an LCG, seeded per client.
fn shuffled(lines: &[String], seed: u64) -> Vec<String> {
    let mut order: Vec<String> = lines.to_vec();
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    for i in (1..order.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

/// 8 concurrent TCP clients, each on its own connection with its own shuffled
/// order, must produce stripped responses byte-identical to a single-client
/// serial replay on a fresh daemon — and the final server counters must balance.
#[test]
fn concurrent_tcp_clients_match_serial_replay() {
    let lines = workload();

    // Serial ground truth: a fresh daemon, one connection, in order.
    let serial = Daemon::spawn(&[]);
    let mut expected: Vec<(String, String)> = Vec::new();
    {
        let mut stream = serial.connect();
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        for line in &lines {
            writeln!(stream, "{line}").expect("send");
            let mut response = String::new();
            reader.read_line(&mut response).expect("recv");
            expected.push((line.clone(), stripped(response.trim_end())));
        }
    }
    serial.shutdown();
    let truth: std::collections::HashMap<&str, &str> = expected
        .iter()
        .map(|(line, strip)| (line.as_str(), strip.as_str()))
        .collect();

    const CLIENTS: usize = 8;
    let daemon = Daemon::spawn(&[]);
    let mut handles = Vec::new();
    for client in 0..CLIENTS {
        let addr = daemon.addr.clone();
        let lines = shuffled(&lines, client as u64 + 1);
        handles.push(thread::spawn(move || {
            let mut stream = TcpStream::connect(&addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("timeout");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            lines
                .into_iter()
                .map(|line| {
                    writeln!(stream, "{line}").expect("send");
                    let mut response = String::new();
                    reader.read_line(&mut response).expect("recv");
                    (line, stripped(response.trim_end()))
                })
                .collect::<Vec<(String, String)>>()
        }));
    }
    let mut answered = 0u64;
    for handle in handles {
        for (line, strip) in handle.join().expect("client thread") {
            answered += 1;
            assert_eq!(
                truth[line.as_str()],
                strip,
                "concurrent response diverged from serial replay for {line}"
            );
        }
    }
    assert_eq!(answered, (CLIENTS * lines.len()) as u64);

    let stats = daemon.roundtrip("{\"op\":\"stats\"}");
    let counter = |field: &str| server_counter(&stats, field);
    assert_eq!(counter("requests"), answered, "{stats}");
    assert_eq!(
        counter("hits") + counter("misses") + counter("errors"),
        counter("requests"),
        "{stats}"
    );
    assert_eq!(counter("errors"), (CLIENTS * 2) as u64, "{stats}");
    // 6 distinct evaluated keys (3 inline enumerates, 1 corpus-file enumerate,
    // 1 group, 1 select), nothing evicts: 6 computations total.
    assert_eq!(counter("misses"), 6, "{stats}");
    assert_eq!(counter("connection_errors"), 0, "{stats}");
    daemon.shutdown();
}

/// The HTTP/1.1 shim answers the identical envelope as the JSON protocol over
/// the same listener, shares the same cache, and keeps the connection alive
/// across requests.
#[test]
fn http_round_trip_matches_json_protocol() {
    let daemon = Daemon::spawn(&[]);

    // Warm the cache over the JSON protocol first.
    let line = request("enumerate", &tiny_block(7), "\"budget\":5000");
    let via_json = daemon.roundtrip(&line);
    assert!(via_json.contains("\"cached\":false"), "{via_json}");

    // Two POSTs and a GET on ONE keep-alive HTTP connection.
    let mut stream = daemon.connect();
    let body = format!(
        "{{\"block\":{},\"flags\":{{\"budget\":5000}}}}",
        Json::str(tiny_block(7)).render()
    );
    let mut http_responses = Vec::new();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for (method, path, body) in [
        ("POST", "/v1/enumerate", body.as_str()),
        ("GET", "/v1/stats", ""),
        ("POST", "/v1/frobnicate", "{}"),
    ] {
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("send HTTP request");
        stream.flush().expect("flush");

        let mut status = String::new();
        reader.read_line(&mut status).expect("status line");
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            reader.read_line(&mut header).expect("header line");
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().expect("length");
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).expect("body");
        http_responses.push((
            status.trim_end().to_string(),
            String::from_utf8(body).expect("utf8 body"),
        ));
    }

    let (status, body) = &http_responses[0];
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"cached\":true"), "shared cache: {body}");
    assert_eq!(
        stripped(body),
        stripped(&via_json),
        "HTTP and JSON transports must answer byte-identical envelopes"
    );
    let (status, body) = &http_responses[1];
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"op\":\"stats\""), "{body}");
    let (status, body) = &http_responses[2];
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    assert!(body.contains("\"ok\":false"), "{body}");

    daemon.shutdown();
}

/// SIGTERM while a slow request is in flight: the response still arrives
/// complete, and the daemon exits 0 on its own.
#[test]
fn sigterm_under_load_completes_inflight_and_exits_zero() {
    let mut daemon = Daemon::spawn(&["--compute-delay-ms", "700"]);

    let addr = daemon.addr.clone();
    let line = request("enumerate", &tiny_block(3), "\"budget\":5000");
    let client = thread::spawn(move || {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        writeln!(stream, "{line}").expect("send");
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response).expect("recv");
        response.trim_end().to_string()
    });

    // Let the request get into its (artificially slow) computation, then TERM.
    thread::sleep(Duration::from_millis(250));
    terminate(&daemon);

    let response = client.join().expect("client thread");
    assert!(
        response.starts_with("{\"ok\":true"),
        "the in-flight response must complete despite SIGTERM: {response}"
    );
    assert!(response.contains("\"cached\":false"), "{response}");
    let status = wait_with_timeout(&mut daemon.child, Duration::from_secs(30));
    assert!(
        status.success(),
        "graceful drain must exit 0, got {status:?}"
    );
}

/// Regression for the swallowed-connection-error bug: a client that disconnects
/// mid-line is logged to stderr and counted by the `connection_errors` stat —
/// and the daemon keeps serving.
#[test]
fn mid_line_disconnect_is_counted_and_logged() {
    let daemon = Daemon::spawn(&[]);

    {
        let mut stream = daemon.connect();
        // A partial request with no newline, then a hard disconnect.
        stream
            .write_all(b"{\"op\":\"stats\"")
            .expect("send partial line");
        stream.flush().expect("flush");
        thread::sleep(Duration::from_millis(150));
    } // drop closes the socket mid-line

    // The worker notices the mid-line EOF at its next read; poll until counted.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = daemon.roundtrip("{\"op\":\"stats\"}");
        if server_counter(&stats, "connection_errors") == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "connection error never counted: {stats}"
        );
        thread::sleep(Duration::from_millis(50));
    }

    // Still serving normally afterwards.
    let ok = daemon.roundtrip(&request("enumerate", &tiny_block(5), "\"budget\":5000"));
    assert!(ok.starts_with("{\"ok\":true"), "{ok}");

    let stderr = daemon.shutdown();
    assert!(
        stderr.contains("connection") && stderr.contains("mid-line"),
        "the dropped connection must be logged to stderr, got: {stderr:?}"
    );
}

/// A request over the size cap is refused with an in-band error before anything
/// that large is allocated — a 1 TiB `Content-Length` used to abort the whole
/// daemon — and the daemon keeps serving new connections.
#[test]
fn oversized_requests_are_refused_and_the_daemon_keeps_serving() {
    let daemon = Daemon::spawn(&[]);
    let refused = |request: &[u8]| {
        let mut stream = daemon.connect();
        stream.write_all(request).expect("send request");
        let mut reply = String::new();
        stream
            .read_to_string(&mut reply)
            .expect("read until the daemon closes");
        reply
    };

    let reply = refused(b"POST /v1/enumerate HTTP/1.1\r\nContent-Length: 1099511627776\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.1 413 "), "{reply}");
    assert!(reply.contains("\"ok\":false"), "{reply}");
    let reply = refused(&vec![b'x'; MAX_REQUEST_BYTES + 1]);
    assert!(
        reply.starts_with("{\"ok\":false,\"error\":\"a request line exceeds"),
        "{reply}"
    );

    let ok = daemon.roundtrip(&request("enumerate", &tiny_block(9), "\"budget\":5000"));
    assert!(ok.starts_with("{\"ok\":true"), "{ok}");
    daemon.shutdown();
}

/// A client's `threads` cannot make the daemon start unbounded worker threads:
/// the driver caps its pool, and the answer is the one a single thread gives.
#[test]
fn huge_thread_counts_are_capped_and_the_daemon_keeps_serving() {
    let daemon = Daemon::spawn(&[]);
    let flags = |threads: usize| format!("\"threads\":{threads},\"par-threshold\":1");
    let many = daemon.roundtrip(&request("enumerate", &tiny_block(0), &flags(1_000_000)));
    assert!(many.starts_with("{\"ok\":true"), "{many}");
    let one = daemon.roundtrip(&request("enumerate", &tiny_block(0), &flags(1)));
    assert_eq!(stripped(&many), stripped(&one));

    let ok = daemon.roundtrip(&request("enumerate", &tiny_block(1), "\"budget\":5000"));
    assert!(ok.starts_with("{\"ok\":true"), "{ok}");
    daemon.shutdown();
}

/// Sends SIGTERM to the daemon.
fn terminate(daemon: &Daemon) {
    let term = Command::new("kill")
        .arg("-TERM")
        .arg(daemon.child.id().to_string())
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
}

/// One `POST /v1/enumerate` of `block` on a new connection (`Connection:
/// close`), returning the whole HTTP response.
fn http_enumerate(addr: &str, block: &str) -> String {
    let body = format!("{{\"block\":{}}}", Json::str(block).render());
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    write!(
        stream,
        "POST /v1/enumerate HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read until close");
    reply
}

/// A client that opens one connection per request waits for the daemon to
/// accept it: that must take no poll interval. A warm tiny block answers in
/// well under a millisecond, so the median new-connection round trip is far
/// below the 10 ms bound unless the accept loop sleeps.
#[test]
fn new_connections_pay_no_accept_poll() {
    let daemon = Daemon::spawn(&[]);
    let block = tiny_block(11);
    assert!(http_enumerate(&daemon.addr, &block).starts_with("HTTP/1.1 200 "));
    let mut millis: Vec<f64> = (0..21)
        .map(|_| {
            let started = Instant::now();
            let reply = http_enumerate(&daemon.addr, &block);
            let elapsed = started.elapsed().as_secs_f64() * 1e3;
            assert!(reply.contains("\"cached\":true"), "{reply}");
            elapsed
        })
        .collect();
    millis.sort_by(f64::total_cmp);
    let median = millis[millis.len() / 2];
    assert!(
        median < 10.0,
        "median new-connection round trip {median:.2} ms (all: {millis:?})"
    );
    daemon.shutdown();
}

/// SIGTERM reaches a TCP daemon that no client is talking to: its accept loop
/// is blocked in `accept`, and the shutdown watcher must wake it.
#[test]
fn sigterm_while_idle_exits_promptly() {
    let mut daemon = Daemon::spawn(&[]);
    terminate(&daemon);
    let status = wait_with_timeout(&mut daemon.child, Duration::from_secs(2));
    assert!(
        status.success(),
        "an idle daemon must exit 0, got {status:?}"
    );
}

/// With `--max-connections 1`, an open connection holds the only slot: a second
/// client waits in the backlog unanswered, and is served as soon as the first
/// connection closes.
#[test]
fn max_connections_slot_frees_on_close() {
    let daemon = Daemon::spawn(&["--max-connections", "1"]);
    let mut first = daemon.connect();
    writeln!(first, "{{\"op\":\"stats\"}}").expect("send");
    let mut first_reader = BufReader::new(first.try_clone().expect("clone"));
    let mut stats = String::new();
    first_reader.read_line(&mut stats).expect("stats answer");
    assert!(stats.starts_with("{\"ok\":true"), "{stats}");

    let mut second = daemon.connect();
    writeln!(second, "{{\"op\":\"stats\"}}").expect("send");
    second
        .set_read_timeout(Some(Duration::from_millis(500)))
        .expect("timeout");
    let mut second_reader = BufReader::new(second.try_clone().expect("clone"));
    let mut early = String::new();
    let blocked = second_reader.read_line(&mut early);
    assert!(
        blocked.is_err() && early.is_empty(),
        "the second client must wait while the first holds the slot: {blocked:?} {early:?}"
    );

    drop(first_reader);
    drop(first);
    let closed = Instant::now();
    second
        .set_read_timeout(Some(Duration::from_secs(1)))
        .expect("timeout");
    let mut answer = String::new();
    second_reader
        .read_line(&mut answer)
        .expect("the freed slot must serve the waiting client within 1 s");
    assert!(answer.starts_with("{\"ok\":true"), "{answer}");
    assert!(closed.elapsed() < Duration::from_secs(1));
    drop(second_reader);
    drop(second);
    daemon.shutdown();
}

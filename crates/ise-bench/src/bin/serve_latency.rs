//! Experiment E9 (DESIGN.md): `ise serve` cold-vs-warm latency and cache hit rates.
//!
//! Spawns the built `ise` binary as `ise serve` over stdin/stdout pipes, replays one
//! `enumerate` request per committed corpus block twice, and measures the client-side
//! round-trip latency of each request. The first pass is cold (every request computes
//! and populates the content-addressed cache), the second is warm (every request is a
//! string lookup); the bench asserts that every warm response carries `cached:true`
//! and that its `result` payload is **byte-identical** to the cold one. A final
//! `stats` request collects the daemon's hit/miss counters and a `shutdown` request
//! checks graceful exit.
//!
//! A second phase measures the **concurrent** daemon over TCP: a fresh
//! `ise serve --listen 127.0.0.1:0` is warmed once, then its warm throughput is
//! measured from 1 client and from `clients` (default 4) parallel clients, each
//! replaying the whole request list over its own connection. On a multi-core host
//! the multi-client warm throughput must be at least 2x the single-connection
//! throughput (warm requests are lock-then-string-lookup, so they scale with
//! connections); on a single-CPU container the numbers are recorded without the
//! assertion — the artifact's `tcp.cpus` field says which world produced it.
//!
//! A third phase times what a client that opens a **new connection per request**
//! waits for (curl against the HTTP shim, a toolflow calling block by block):
//! 51 warm `POST /v1/enumerate` requests (11 in smoke mode), each on its own
//! connection with `Connection: close`, timed from `connect` to the last
//! response byte. The median and p90 sit beside the persistent throughput; in
//! full mode the median must stay under 10 ms, far above a warm answer and far
//! below any accept-loop poll interval.
//!
//! The stdout report is CSV (one row per block with cold/warm latency and speedup);
//! the `BENCH_serve.json` artifact it writes (schema v3) records the same rows plus
//! corpus-level aggregates, the TCP throughput phase and the new-connection phase.
//! In full mode the bench asserts the aggregate warm speedup is at least 100x —
//! the headline number the cache exists to deliver.
//!
//! Options (key=value): `corpus` (default `corpus`), `budget` (default 100000 search
//! nodes per block, 20000 in smoke mode; 0 = unbounded), `nin`/`nout` (default 4/2),
//! `clients` (default 4) and `rounds` (default 8, 2 in smoke mode) for the TCP
//! phase, `bin` (path to the `ise` binary; defaults to a sibling of this
//! executable, so build `ise-cli` in the same profile first), `out` (default
//! `BENCH_serve.json` in full mode, `-` in smoke mode; `out=-` disables the
//! artifact), `smoke` (also accepted as a bare `--smoke` flag): first 3 blocks
//! only, no speedup assertions — the CI fast path.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use ise_bench::json::Json;
use ise_bench::{Options, PAPER_NIN, PAPER_NOUT};
use ise_corpus::load_corpus_path;

/// The daemon under test: a child `ise serve` process spoken to over pipes.
struct Server {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    fn spawn(bin: &str) -> Server {
        let mut child = Command::new(bin)
            .arg("serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|err| panic!("spawning `{bin} serve` failed: {err}"));
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Server {
            child,
            stdin,
            stdout,
        }
    }

    /// Sends one request line and reads one response line, returning the response
    /// and the client-observed round-trip latency in milliseconds.
    fn roundtrip(&mut self, request: &str) -> (String, f64) {
        let start = Instant::now();
        writeln!(self.stdin, "{request}").expect("request written");
        self.stdin.flush().expect("request flushed");
        let mut response = String::new();
        let read = self.stdout.read_line(&mut response).expect("response read");
        assert!(read > 0, "daemon closed its stdout mid-session");
        let elapsed_ms = start.elapsed().as_secs_f64() * 1_000.0;
        (response.trim_end().to_string(), elapsed_ms)
    }

    /// Requests shutdown and asserts the daemon acknowledges and exits cleanly.
    fn shutdown(mut self) {
        let (response, _) = self.roundtrip("{\"op\":\"shutdown\"}");
        assert_eq!(response, "{\"ok\":true,\"op\":\"shutdown\"}");
        let status = self.child.wait().expect("daemon reaped");
        assert!(status.success(), "daemon exited with {status}");
    }
}

/// A TCP daemon under test: `ise serve --listen 127.0.0.1:0`, its bound address
/// read from the startup banner.
struct TcpServer {
    child: Child,
    addr: String,
}

impl TcpServer {
    fn spawn(bin: &str) -> TcpServer {
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--listen")
            .arg("127.0.0.1:0")
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|err| panic!("spawning `{bin} serve --listen` failed: {err}"));
        let stdout = child.stdout.take().expect("piped stdout");
        let mut banner = String::new();
        BufReader::new(stdout)
            .read_line(&mut banner)
            .expect("startup banner read");
        let addr = banner
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
            .to_string();
        TcpServer { child, addr }
    }

    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(&self.addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("read timeout set");
        // Without this, Nagle holds each request's trailing newline for the
        // previous segment's delayed ACK and the "throughput" measures the
        // kernel's 40ms ACK timer instead of the daemon.
        stream.set_nodelay(true).expect("nodelay set");
        stream
    }

    fn shutdown(mut self) {
        let mut stream = self.connect();
        writeln!(stream, "{{\"op\":\"shutdown\"}}").expect("shutdown sent");
        let mut response = String::new();
        BufReader::new(stream)
            .read_line(&mut response)
            .expect("shutdown acknowledged");
        assert_eq!(response.trim_end(), "{\"ok\":true,\"op\":\"shutdown\"}");
        let status = self.child.wait().expect("daemon reaped");
        assert!(status.success(), "daemon exited with {status}");
    }
}

/// Replays `requests` `rounds` times over one connection, asserting every answer
/// is a cache hit; returns the number of requests answered.
fn replay_warm(stream: &mut TcpStream, requests: &[String], rounds: usize) -> u64 {
    let mut reader = BufReader::new(stream.try_clone().expect("stream clone"));
    let mut answered = 0u64;
    for _ in 0..rounds {
        for request in requests {
            stream
                .write_all(format!("{request}\n").as_bytes())
                .expect("request written");
            let mut response = String::new();
            let read = reader.read_line(&mut response).expect("response read");
            assert!(read > 0, "daemon closed the connection mid-replay");
            assert!(
                response.starts_with("{\"ok\":true"),
                "warm replay failed: {response}"
            );
            assert!(
                response.contains("\"cached\":true"),
                "warm replay must hit the cache: {response}"
            );
            answered += 1;
        }
    }
    answered
}

/// Warm throughput in requests/second from `clients` parallel connections, each
/// replaying the full request list `rounds` times.
fn warm_throughput(server: &TcpServer, requests: &[String], clients: usize, rounds: usize) -> f64 {
    let started = Instant::now();
    let answered: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut stream = server.connect();
                    replay_warm(&mut stream, requests, rounds)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread"))
            .sum()
    });
    answered as f64 / started.elapsed().as_secs_f64()
}

/// Client-side milliseconds of one warm `POST /v1/enumerate` of `request` on a
/// new connection (`Connection: close`), from `connect` to the last response
/// byte. The request line doubles as the body: its `op` matches the path.
fn newconn_roundtrip_ms(server: &TcpServer, request: &str) -> f64 {
    let started = Instant::now();
    let mut stream = server.connect();
    write!(
        stream,
        "POST /v1/enumerate HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{request}",
        request.len()
    )
    .expect("request written");
    let mut reply = String::new();
    stream
        .read_to_string(&mut reply)
        .expect("response read to close");
    let elapsed_ms = started.elapsed().as_secs_f64() * 1_000.0;
    assert!(
        reply.starts_with("HTTP/1.1 200 "),
        "request failed: {reply}"
    );
    assert!(
        reply.contains("\"cached\":true"),
        "new-connection requests must hit the warm cache: {reply}"
    );
    elapsed_ms
}

/// The nearest-rank `q`-quantile (0 < q <= 1) of an ascending sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The raw `result` payload bytes of an `ok:true` envelope. Taking the substring
/// (rather than parse + re-render) keeps the cold/warm comparison a true byte
/// identity check on what the daemon actually emitted.
fn payload_of(response: &str) -> &str {
    let start = response
        .find("\"result\":")
        .unwrap_or_else(|| panic!("no result field in {response}"));
    &response[start + "\"result\":".len()..response.len() - 1]
}

/// Envelope field accessor: parses the response and asserts `ok:true`.
fn envelope(response: &str) -> Json {
    let doc = Json::parse(response).expect("response parses as JSON");
    assert_eq!(
        doc.get("ok").and_then(Json::as_bool),
        Some(true),
        "request failed: {response}"
    );
    doc
}

fn default_bin() -> String {
    let exe = std::env::current_exe().expect("current executable path");
    let dir = exe.parent().expect("executable directory");
    dir.join(format!("ise{}", std::env::consts::EXE_SUFFIX))
        .to_string_lossy()
        .into_owned()
}

fn main() {
    let opts = Options::from_env();
    let smoke = opts.bool("smoke", false) || std::env::args().any(|arg| arg == "--smoke");
    let corpus = opts.string("corpus", "corpus");
    let budget = opts.usize("budget", if smoke { 20_000 } else { 100_000 });
    let nin = opts.usize("nin", PAPER_NIN);
    let nout = opts.usize("nout", PAPER_NOUT);
    let out_path = opts.string("out", if smoke { "-" } else { "BENCH_serve.json" });
    let clients = opts.usize("clients", 4).max(1);
    let rounds = opts.usize("rounds", if smoke { 2 } else { 8 }).max(1);
    let newconn = if smoke { 11 } else { 51 };
    let bin = opts.string("bin", &default_bin());
    if !std::path::Path::new(&bin).exists() {
        panic!(
            "ise binary not found at `{bin}` — build it first \
             (cargo build -p ise-cli, same profile as this bench) or pass bin=PATH"
        );
    }

    let mut blocks = load_corpus_path(&corpus).expect("corpus loads");
    if smoke {
        blocks.truncate(3);
    }
    let requests: Vec<String> = blocks
        .iter()
        .map(|block| {
            Json::object([
                ("op", Json::str("enumerate")),
                ("block", Json::str(block.canonical_bytes())),
                (
                    "flags",
                    Json::object([
                        ("nin", Json::uint(nin)),
                        ("nout", Json::uint(nout)),
                        ("budget", Json::uint(budget)),
                    ]),
                ),
            ])
            .render()
        })
        .collect();

    let mut server = Server::spawn(&bin);

    // Cold pass: a fresh daemon with no cache directory misses on every request.
    let mut cold: Vec<(String, f64)> = Vec::new();
    for request in &requests {
        let (response, elapsed_ms) = server.roundtrip(request);
        let doc = envelope(&response);
        assert_eq!(
            doc.get("cached").and_then(Json::as_bool),
            Some(false),
            "first pass must be cold"
        );
        cold.push((response, elapsed_ms));
    }

    // Warm pass: identical requests, every answer replayed from the response cache.
    println!("block,nodes,cuts,cold_ms,warm_ms,speedup");
    let mut rows = Vec::new();
    let mut cold_total = 0.0f64;
    let mut warm_total = 0.0f64;
    for (index, request) in requests.iter().enumerate() {
        let (response, warm_ms) = server.roundtrip(request);
        let doc = envelope(&response);
        assert_eq!(
            doc.get("cached").and_then(Json::as_bool),
            Some(true),
            "second pass must hit the cache"
        );
        let (cold_response, cold_ms) = &cold[index];
        assert_eq!(
            payload_of(cold_response),
            payload_of(&response),
            "block {}: warm payload must be byte-identical to cold",
            blocks[index].dfg.name()
        );
        let cuts = doc
            .get("result")
            .and_then(|r| r.get("aggregate"))
            .and_then(|a| a.get("total_cuts"))
            .and_then(Json::as_u64)
            .expect("enumerate result reports a cut count");
        let speedup = if warm_ms > 0.0 {
            cold_ms / warm_ms
        } else {
            0.0
        };
        cold_total += cold_ms;
        warm_total += warm_ms;
        println!(
            "{},{},{cuts},{cold_ms:.3},{warm_ms:.3},{speedup:.0}",
            blocks[index].dfg.name(),
            blocks[index].dfg.len(),
        );
        rows.push(Json::object([
            ("block", Json::str(blocks[index].dfg.name())),
            ("nodes", Json::uint(blocks[index].dfg.len())),
            ("cuts", Json::UInt(cuts)),
            (
                "key",
                doc.get("key")
                    .and_then(Json::as_str)
                    .map_or(Json::Null, Json::str),
            ),
            ("cold_ms", Json::num(*cold_ms)),
            ("warm_ms", Json::num(warm_ms)),
            ("speedup", Json::num(speedup)),
        ]));
    }

    let (stats_response, _) = server.roundtrip("{\"op\":\"stats\"}");
    let stats = envelope(&stats_response);
    let counter = |cache: &str, field: &str| {
        stats
            .get("result")
            .and_then(|r| r.get(cache))
            .and_then(|c| c.get(field))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("stats missing {cache}.{field}: {stats_response}"))
    };
    let response_hits = counter("responses", "hits");
    let response_misses = counter("responses", "misses");
    let hit_rate = response_hits as f64 / (response_hits + response_misses) as f64;
    server.shutdown();

    let warm_speedup = if warm_total > 0.0 {
        cold_total / warm_total
    } else {
        0.0
    };
    println!(
        "# {} blocks: cold {cold_total:.1} ms, warm {warm_total:.1} ms \
         ({warm_speedup:.0}x), response hit rate {:.2}",
        blocks.len(),
        hit_rate,
    );
    assert_eq!(
        response_hits,
        blocks.len() as u64,
        "every warm request hits the response cache"
    );
    if !smoke {
        assert!(
            warm_speedup >= 100.0,
            "warm pass must be at least 100x faster than cold (got {warm_speedup:.0}x)"
        );
    }

    // TCP throughput phase: warm a fresh concurrent daemon once, then measure
    // warm requests/second from 1 connection and from `clients` parallel
    // connections.
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let tcp = TcpServer::spawn(&bin);
    {
        let mut stream = tcp.connect();
        let mut reader = BufReader::new(stream.try_clone().expect("stream clone"));
        for request in &requests {
            writeln!(stream, "{request}").expect("warmup request written");
            let mut response = String::new();
            reader
                .read_line(&mut response)
                .expect("warmup response read");
            envelope(response.trim_end());
        }
    }
    let single_rps = warm_throughput(&tcp, &requests, 1, rounds);
    let multi_rps = warm_throughput(&tcp, &requests, clients, rounds);
    let mut newconn_ms: Vec<f64> = (0..newconn)
        .map(|i| newconn_roundtrip_ms(&tcp, &requests[i % requests.len()]))
        .collect();
    newconn_ms.sort_by(f64::total_cmp);
    let newconn_p50 = quantile(&newconn_ms, 0.5);
    let newconn_p90 = quantile(&newconn_ms, 0.9);
    tcp.shutdown();
    let tcp_speedup = if single_rps > 0.0 {
        multi_rps / single_rps
    } else {
        0.0
    };
    println!(
        "# tcp warm throughput: 1 client {single_rps:.0} req/s, {clients} clients \
         {multi_rps:.0} req/s ({tcp_speedup:.2}x aggregate, {cpus} cpus)"
    );
    println!(
        "# tcp new connection per request: p50 {newconn_p50:.3} ms, p90 {newconn_p90:.3} ms \
         over {newconn} warm HTTP requests"
    );
    // Warm requests are lock-then-lookup, so parallel connections scale on real
    // cores; a 1-CPU container interleaves them and the ratio hovers around 1x —
    // record the numbers, skip the assertion (the artifact's `cpus` field keeps
    // the context).
    if !smoke && cpus > 1 {
        assert!(
            tcp_speedup >= 2.0,
            "{clients} warm clients must outrun one connection by >= 2x on {cpus} cpus \
             (got {tcp_speedup:.2}x)"
        );
    }
    if !smoke {
        assert!(
            newconn_p50 < 10.0,
            "a warm request on a new connection must answer in under 10 ms \
             (median {newconn_p50:.3} ms)"
        );
    }

    if out_path != "-" {
        let doc = Json::object([
            ("schema", Json::str("ise-bench/serve/v3")),
            ("meta", ise_bench::bench_meta("disabled")),
            ("corpus", Json::str(corpus)),
            ("nin", Json::uint(nin)),
            ("nout", Json::uint(nout)),
            (
                "budget",
                if budget == 0 {
                    Json::Null
                } else {
                    Json::uint(budget)
                },
            ),
            ("smoke", Json::bool(smoke)),
            ("rows", Json::Array(rows)),
            (
                "aggregate",
                Json::object([
                    ("blocks", Json::uint(blocks.len())),
                    ("cold_ms_total", Json::num(cold_total)),
                    ("warm_ms_total", Json::num(warm_total)),
                    ("warm_speedup", Json::num(warm_speedup)),
                    ("response_hits", Json::UInt(response_hits)),
                    ("response_misses", Json::UInt(response_misses)),
                    ("response_hit_rate", Json::num(hit_rate)),
                    ("byte_identical", Json::bool(true)),
                ]),
            ),
            (
                "tcp",
                Json::object([
                    ("clients", Json::uint(clients)),
                    ("rounds", Json::uint(rounds)),
                    ("cpus", Json::uint(cpus)),
                    ("single_client_rps", Json::num(single_rps)),
                    ("multi_client_rps", Json::num(multi_rps)),
                    ("multi_client_speedup", Json::num(tcp_speedup)),
                    ("newconn_requests", Json::uint(newconn)),
                    ("newconn_p50_ms", Json::num(newconn_p50)),
                    ("newconn_p90_ms", Json::num(newconn_p90)),
                ]),
            ),
        ]);
        std::fs::write(&out_path, doc.render() + "\n").expect("artifact written");
        eprintln!("wrote {out_path}");
    }
}

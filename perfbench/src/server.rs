//! An in-process `dtdinfer_serve::run` daemon and a small HTTP/1.1 client.
//!
//! The client sends `HTTP/1.1` requests without `Connection: close` and
//! keeps the connection for the next request unless the server's reply
//! says `Connection: close`, so a server that adds keep-alive is measured
//! with it and without a change here.

use dtdinfer_serve::ServeConfig;
use dtdinfer_xml::infer::InferenceEngine;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Learner every serve session uses (the daemon's default).
pub const SERVE_ENGINE: InferenceEngine = InferenceEngine::Idtd;

/// `--compact-min-bytes` for the daemon: high enough that no session
/// compacts inside a measured run. At the default (64 KiB) a session
/// compacts about once per run, so whether the ingest p99 included a
/// compaction would depend on the seed. The traced run times compaction
/// on its own (`engine.journal.compact_ms`).
pub const COMPACT_MIN_BYTES: u64 = 64 << 20;

/// A daemon running on a background thread.
pub struct Server {
    /// The bound address (`127.0.0.1:PORT`).
    pub addr: String,
    thread: Option<JoinHandle<Result<String, String>>>,
}

impl Server {
    /// Boots the daemon over `data_dir` on an ephemeral port with `workers`
    /// request workers, and waits until it accepts connections (session
    /// recovery from `data_dir` happens before that).
    pub fn boot(
        data_dir: &Path,
        workers: usize,
        access_log: Option<PathBuf>,
    ) -> Result<Server, String> {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            data_dir: data_dir.to_path_buf(),
            engine: SERVE_ENGINE,
            workers,
            access_log,
            compact_min_bytes: COMPACT_MIN_BYTES,
            ..ServeConfig::default()
        };
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            dtdinfer_serve::run(config, |addr| {
                let _ = tx.send(addr.to_owned());
            })
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(addr) => Ok(Server {
                addr,
                thread: Some(thread),
            }),
            Err(_) => {
                let outcome = thread.join();
                Err(format!("serve did not start: {outcome:?}"))
            }
        }
    }

    /// Switches the process-wide recorders off while the daemon idles, so
    /// work timed between serve slices runs with the CLI's defaults.
    pub fn pause_recording(&self) {
        dtdinfer_obs::disable();
    }

    /// Switches metrics recording back on, as the daemon does at boot.
    pub fn resume_recording(&self) {
        dtdinfer_obs::enable(true, false);
    }

    /// Asks the daemon to shut down and waits for it to finish flushing.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = Client::new(&self.addr).send("POST", "/shutdown", b"");
        let thread = self.thread.take().expect("a server is shut down once");
        let outcome = thread
            .join()
            .map_err(|_| "serve thread panicked".to_owned())?;
        // The daemon switches the process-wide recorders on; switch them
        // back off so later measurements run with the defaults.
        dtdinfer_obs::disable();
        dtdinfer_obs::flightrec::disable();
        reply?;
        outcome.map(|_| ())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = Client::new(&self.addr).send("POST", "/shutdown", b"");
            let _ = thread.join();
        }
    }
}

/// One reply.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
}

impl Reply {
    /// Whether the status is 2xx.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// An HTTP/1.1 client holding at most one open connection.
pub struct Client {
    addr: String,
    conn: Option<TcpStream>,
}

impl Client {
    /// A client for the daemon at `addr`.
    pub fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_owned(),
            conn: None,
        }
    }

    /// Sends one request and reads its reply, reconnecting first when the
    /// previous reply closed the connection.
    pub fn send(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Reply, String> {
        let mut stream = match self.conn.take() {
            Some(stream) => stream,
            None => {
                let stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
                let _ = stream.set_nodelay(true);
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .map_err(|e| e.to_string())?;
                stream
            }
        };
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/xml\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut request = head.into_bytes();
        request.extend_from_slice(body);
        stream
            .write_all(&request)
            .map_err(|e| format!("write: {e}"))?;
        let (reply, keep) = read_reply(&mut stream)?;
        if keep {
            self.conn = Some(stream);
        }
        Ok(reply)
    }
}

/// Reads one response; returns it and whether the connection stays open.
fn read_reply(stream: &mut TcpStream) -> Result<(Reply, bool), String> {
    let mut buf = Vec::with_capacity(4096);
    let mut chunk = [0u8; 8192];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed before the reply head".to_owned());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let mut length = None;
    let mut keep = true;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close")
            {
                keep = false;
            }
        }
    }
    let mut body = buf.split_off(head_end);
    match length {
        Some(length) => {
            while body.len() < length {
                let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
                if n == 0 {
                    return Err("connection closed inside the reply body".to_owned());
                }
                body.extend_from_slice(&chunk[..n]);
            }
            body.truncate(length);
        }
        None => {
            stream
                .read_to_end(&mut body)
                .map_err(|e| format!("read: {e}"))?;
            keep = false;
        }
    }
    Ok((Reply { status, body }, keep))
}

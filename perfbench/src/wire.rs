//! An in-process `dc-server` on loopback TCP, a line-protocol client
//! for it, and readers for its `stats` snapshot.

use dc_server::{Server, ServerConfig};
use dc_store::json::{parse_json, Json};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;

/// A daemon serving loopback TCP from this process.
pub struct Daemon {
    server: Server,
    addr: SocketAddr,
    accept: JoinHandle<()>,
}

impl Daemon {
    pub fn start(workers: usize) -> io::Result<Daemon> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let server = Server::start(ServerConfig {
            workers,
            ..ServerConfig::default()
        });
        let accept = {
            let server = server.clone();
            std::thread::spawn(move || server.serve_listener(&listener))
        };
        Ok(Daemon {
            server,
            addr,
            accept,
        })
    }

    pub fn connect(&self) -> io::Result<Client> {
        let stream = TcpStream::connect(self.addr)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            next_id: 1,
        })
    }

    /// Shut down, and wait for the accept loop and every executor.
    pub fn stop(self) {
        self.server.shutdown_listener(self.addr);
        let _ = self.accept.join();
        self.server.wait();
    }
}

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Client {
    fn send(&mut self, body: &str) -> Result<(), String> {
        let line = format!("{{\"id\":{},{body}}}\n", self.next_id);
        self.next_id += 1;
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send failed: {e}"))
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("read failed: {e}")),
        }
    }

    /// One request answered by one ok line; returns its `result`.
    fn call(&mut self, body: &str) -> Result<Json, String> {
        self.send(body)?;
        let line = self.read_line()?;
        ok_result(&line)
    }

    /// Submit a job; returns its name.
    pub fn submit(&mut self, job: &str) -> Result<String, String> {
        let result = self.call(&format!("\"verb\":\"submit\",\"job\":{job}"))?;
        match result.get("job") {
            Some(Json::Str(name)) => Ok(name.clone()),
            _ => Err("submit reply names no job".into()),
        }
    }

    /// Stream a job's events to completion; returns the event count.
    pub fn stream(&mut self, job: &str) -> Result<usize, String> {
        self.send(&format!("\"verb\":\"stream\",\"job\":\"{job}\""))?;
        let mut events = 0;
        loop {
            let line = self.read_line()?;
            if line.contains("\"event\":") && !line.contains("\"ok\":") {
                events += 1;
                continue;
            }
            let result = ok_result(&line)?;
            return match result.get("state") {
                Some(Json::Str(s)) if s == "done" => Ok(events),
                other => Err(format!("stream ended in state {other:?}")),
            };
        }
    }

    /// The raw bytes of a finished job's `output` object.
    pub fn output(&mut self, job: &str) -> Result<String, String> {
        self.send(&format!("\"verb\":\"status\",\"job\":\"{job}\""))?;
        let line = self.read_line()?;
        ok_result(&line)?;
        // `output` is the last field of the result object, so its bytes
        // run to the two closing braces of the result and the reply.
        let at = line
            .find(",\"output\":")
            .ok_or("status reply has no output")?;
        Ok(line[at + 10..line.len() - 2].to_string())
    }

    pub fn stats(&mut self) -> Result<Json, String> {
        self.call("\"verb\":\"stats\"")
    }
}

fn ok_result(line: &str) -> Result<Json, String> {
    let doc = parse_json(line).map_err(|e| format!("unparsable reply ({e}): {line}"))?;
    match (doc.get("ok"), doc.get("result")) {
        (Some(Json::Bool(true)), Some(result)) => Ok(result.clone()),
        _ => Err(format!("error reply: {line}")),
    }
}

/// The `output` a job renders when run offline, without the queue, the
/// executors or the wire.
pub fn offline_output(job: &str) -> Result<String, String> {
    let doc = parse_json(job).map_err(|e| format!("bad job spec: {e}"))?;
    let spec = dc_server::JobSpec::parse(&doc).map_err(|e| e.message)?;
    let job = dc_server::Job::new("offline".into(), spec);
    if !job.try_start() {
        return Err("offline job did not start".into());
    }
    job.run(&dc_obs::Recorder::disabled());
    let status = job.status_result();
    let at = status
        .find(",\"output\":")
        .ok_or("offline job has no output")?;
    Ok(status[at + 10..status.len() - 1].to_string())
}

fn find_metric<'a>(stats: &'a Json, name: &str) -> impl Iterator<Item = &'a Json> {
    let list = match stats.get("metrics") {
        Some(Json::Arr(items)) => items.as_slice(),
        _ => &[],
    };
    let name = name.to_string();
    list.iter()
        .filter(move |m| matches!(m.get("name"), Some(Json::Str(n)) if *n == name))
}

fn num(v: Option<&Json>) -> f64 {
    match v {
        Some(Json::Num(n)) => *n,
        _ => 0.0,
    }
}

/// A counter family summed over its label sets.
pub fn counter(stats: &Json, name: &str) -> f64 {
    find_metric(stats, name).map(|m| num(m.get("value"))).sum()
}

/// A histogram's buckets as `(upper bound, count)`.
pub fn histogram(stats: &Json, name: &str) -> Vec<(u64, u64)> {
    let Some(Json::Arr(buckets)) = find_metric(stats, name)
        .next()
        .and_then(|m| m.get("buckets"))
    else {
        return Vec::new();
    };
    buckets
        .iter()
        .filter_map(|b| match b {
            Json::Arr(pair) if pair.len() == 2 => match (&pair[0], &pair[1]) {
                (Json::Num(u), Json::Num(n)) => Some((*u as u64, *n as u64)),
                _ => None,
            },
            _ => None,
        })
        .collect()
}

/// The observations added between two snapshots of one histogram.
pub fn histogram_delta(after: &[(u64, u64)], before: &[(u64, u64)]) -> Vec<(u64, u64)> {
    after
        .iter()
        .map(|&(upper, n)| {
            let old = before
                .iter()
                .find(|&&(u, _)| u == upper)
                .map_or(0, |&(_, n)| n);
            (upper, n - old)
        })
        .filter(|&(_, n)| n > 0)
        .collect()
}

/// Quantile `q` of log2-bucketed observations. The observations of the
/// bucket that holds its rank are taken as spread evenly over the
/// bucket, each at the middle of its share. Bucket `[2^(i-1), 2^i - 1]`
/// reports its upper bound `2^i - 1`; bucket 0 holds only zeros.
pub fn histogram_quantile(buckets: &[(u64, u64)], q: f64) -> f64 {
    let total: u64 = buckets.iter().map(|&(_, n)| n).sum();
    if total == 0 {
        return 0.0;
    }
    let rank = (q * total as f64).ceil().max(1.0);
    let mut below = 0.0;
    for &(upper, n) in buckets {
        let n = n as f64;
        if below + n >= rank {
            let lower = if upper == 0 {
                0.0
            } else {
                (upper / 2 + 1) as f64
            };
            return lower + (upper as f64 - lower) * (rank - below - 0.5) / n;
        }
        below += n;
    }
    buckets.last().map_or(0.0, |&(u, _)| u as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_inside_the_rank_bucket() {
        // 10 observations in [64, 127], 10 in [128, 255].
        let b = [(127, 10), (255, 10)];
        let near = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(near(histogram_quantile(&b, 0.05), 64.0 + 63.0 * 0.05));
        assert!(near(histogram_quantile(&b, 0.5), 64.0 + 63.0 * 0.95));
        assert!(near(histogram_quantile(&b, 1.0), 128.0 + 127.0 * 0.95));
        assert_eq!(histogram_delta(&b, &[(127, 4)]), vec![(127, 6), (255, 10)]);
    }
}

//! The benchmark's HTTP client: scrapes the metrics endpoint on a fixed
//! schedule while a workload runs.
//!
//! The schedule is open-loop: request `i` is due at `start + i·period`
//! whatever happened before, and its latency is measured from that due
//! time, so a slow response delays (and is charged to) the requests queued
//! behind it instead of silently thinning the schedule.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the scraper saw.
#[derive(Debug, Default)]
pub struct ScrapeLog {
    /// Latency of each completed request from its due time (ms).
    pub latencies_ms: Vec<f64>,
    /// How late the generator sent each request after its due time (ms).
    pub send_lag_ms: Vec<f64>,
    /// Requests that failed or did not answer `200 OK`.
    pub failures: usize,
}

impl ScrapeLog {
    /// `"scrape_generator": {..}` for the detail line: how many requests
    /// were sent, how many failed, and how late the generator ran.
    pub fn detail(&self) -> String {
        let max_lag = self.send_lag_ms.iter().copied().fold(0.0, f64::max);
        format!(
            "\"scrape_generator\": {{\"requests\": {}, \"failures\": {}, \"send_lag_ms_p50\": {}, \"send_lag_ms_max\": {}}}",
            self.send_lag_ms.len(),
            self.failures,
            crate::common::json_num(crate::common::median(&self.send_lag_ms)),
            crate::common::json_num(max_lag)
        )
    }
}

/// A running scraper; [`finish`](Self::finish) stops and joins it.
pub struct Scraper {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<ScrapeLog>,
}

impl Scraper {
    /// Starts scraping `paths` round-robin on `addr`, one request every
    /// `period`.
    pub fn start(addr: SocketAddr, paths: &[&'static str], period: Duration) -> Scraper {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let paths = paths.to_vec();
        let handle = std::thread::spawn(move || {
            let mut log = ScrapeLog::default();
            let start = Instant::now();
            let mut i = 0u32;
            while !flag.load(Ordering::SeqCst) {
                let due = start + period * i;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                    continue;
                }
                log.send_lag_ms.push(crate::common::ms(now - due));
                match get(addr, paths[i as usize % paths.len()]) {
                    Ok(true) => log
                        .latencies_ms
                        .push(crate::common::ms(Instant::now() - due)),
                    _ => log.failures += 1,
                }
                i += 1;
            }
            log
        });
        Scraper { stop, handle }
    }

    pub fn finish(self) -> ScrapeLog {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().unwrap_or_else(|_| ScrapeLog {
            failures: 1,
            ..ScrapeLog::default()
        })
    }
}

/// One `GET`; `Ok(true)` when the whole body arrived after a `200`.
fn get(addr: SocketAddr, path: &str) -> std::io::Result<bool> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )?;
    let mut body = Vec::new();
    stream.read_to_end(&mut body)?;
    Ok(body.starts_with(b"HTTP/1.1 200"))
}

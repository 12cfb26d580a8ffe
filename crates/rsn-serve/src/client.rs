//! A std-only blocking client for `rsnd`, used by `rsn_tool submit`, the
//! smoke script and the end-to-end tests — no curl, no external crates, just
//! `std::net::TcpStream` speaking the same HTTP subset the server does.
//!
//! [`Client::submit_with_retry`] adds bounded, `Retry-After`-honoring retry
//! for `503 overloaded` responses. Retrying a submission is safe because
//! every `rsnd` endpoint is idempotent by construction — a job's response is
//! a pure function of the resolved request (that determinism is what backs
//! the daemon's result cache) — so a retried analyze/harden/validate never
//! observes or creates different state. The backoff is exponential with
//! deterministic, seeded jitter: reproducible in tests, still decorrelated
//! across clients seeded differently.

use std::io::Write;
use std::time::Duration;

use crate::http::{self, HttpError, Response};
use crate::wire::{Endpoint, ErrorResponse, JobRequest, WireError};

/// Parses the structured `{"error":{...}}` body of a non-200 `response`.
/// Every `rsnd` failure path emits that envelope, so this is how callers
/// surface the stable `code` and `retryable` flag instead of raw JSON.
#[must_use]
pub fn parse_error(response: &Response) -> Option<WireError> {
    if response.status == 200 {
        None
    } else {
        ErrorResponse::parse(&response.body)
    }
}

/// Client-side failure: connect/IO errors or malformed responses.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting or writing to the daemon failed.
    Io(std::io::Error),
    /// The response could not be parsed.
    Http(HttpError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io error talking to rsnd: {e}"),
            Self::Http(e) => write!(f, "bad response from rsnd: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<HttpError> for ClientError {
    fn from(e: HttpError) -> Self {
        Self::Http(e)
    }
}

/// Retry policy of [`Client::submit_with_retry`]: bounded attempts with
/// exponential, deterministically jittered backoff, honoring the server's
/// `Retry-After` header when present.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 disables retrying).
    pub max_attempts: u32,
    /// Backoff before the first retry when the server sends no
    /// `Retry-After`; doubles per retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep (also caps `Retry-After`).
    pub max_backoff: Duration,
    /// Seed of the deterministic jitter stream (±25 % per sleep).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: Duration::from_millis(200),
            max_backoff: Duration::from_secs(5),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `retry` (0-based) given the server's
    /// `Retry-After` seconds, if any: `Retry-After` wins when present,
    /// otherwise exponential backoff from `base_backoff`, both jittered by
    /// ±25 % from the seeded stream and capped at `max_backoff`.
    #[must_use]
    pub fn backoff(&self, retry: u32, retry_after_secs: Option<u64>) -> Duration {
        let base = match retry_after_secs {
            Some(secs) => Duration::from_secs(secs),
            None => self.base_backoff.saturating_mul(1u32 << retry.min(16)),
        };
        let base = base.min(self.max_backoff);
        // ±25 % deterministic jitter: scale by 750‰..=1250‰.
        let permille = 750 + splitmix64(self.jitter_seed ^ u64::from(retry)) % 501;
        base.saturating_mul(u32::try_from(permille).expect("permille fits")) / 1000
    }
}

/// SplitMix64's finalizer, used for the deterministic jitter stream.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The result of a retried submission: the final response plus how many
/// attempts it took (surfaced by `rsn_tool submit --json`).
#[derive(Debug)]
pub struct SubmitOutcome {
    /// The final HTTP response (success or the last failure).
    pub response: Response,
    /// Attempts performed, including the final one.
    pub attempts: u32,
}

/// A blocking `rsnd` client bound to one daemon address.
#[derive(Clone, Debug)]
pub struct Client {
    addr: String,
    timeout: Duration,
}

impl Client {
    /// Creates a client for the daemon at `addr` (e.g. `127.0.0.1:7687`)
    /// with a 60-second IO timeout.
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Self {
        Self { addr: addr.into(), timeout: Duration::from_secs(60) }
    }

    /// Overrides the IO timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sends one request and reads the full response.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on connect/IO failures or malformed responses. HTTP
    /// error *statuses* are returned as successful [`Response`]s — the
    /// caller decides how to treat a `503`.
    pub fn request(&self, method: &str, path: &str, body: &str) -> Result<Response, ClientError> {
        let request = http::encode_request(method, path, "application/json", body.as_bytes(), true);
        let mut stream = http::connect(&self.addr, self.timeout)?;
        stream.write_all(&request)?;
        stream.flush()?;
        Ok(http::read_response(&mut stream)?)
    }

    /// `GET path`.
    ///
    /// # Errors
    ///
    /// See [`request`](Self::request).
    pub fn get(&self, path: &str) -> Result<Response, ClientError> {
        self.request("GET", path, "")
    }

    /// Submits `job` to the given endpoint.
    ///
    /// # Errors
    ///
    /// See [`request`](Self::request); additionally fails when the request
    /// cannot be serialized.
    pub fn submit(&self, endpoint: Endpoint, job: &JobRequest) -> Result<Response, ClientError> {
        let body = serde_json::to_string(job)
            .map_err(|e| ClientError::Http(HttpError { status: 400, message: e.to_string() }))?;
        self.request(endpoint.method(), endpoint.path(), &body)
    }

    /// Registers `network_text` in the daemon's content-addressed registry
    /// (`PUT /v1/networks`), returning the raw response — a
    /// [`crate::wire::NetworkPutResponse`] body on 200.
    ///
    /// # Errors
    ///
    /// See [`request`](Self::request).
    pub fn put_network(&self, network_text: &str) -> Result<Response, ClientError> {
        let job = JobRequest { network: Some(network_text.to_string()), ..JobRequest::default() };
        self.submit(Endpoint::Networks, &job)
    }

    /// Registers a network by streaming its raw text as `text/plain`
    /// (`PUT /v1/networks`). The daemon feeds the body through its
    /// incremental parser as chunks arrive instead of buffering it, so the
    /// upload is not subject to the server's JSON body-size limit — this is
    /// the path for giant generated networks.
    ///
    /// # Errors
    ///
    /// See [`request`](Self::request).
    pub fn put_network_streaming(&self, network_text: &str) -> Result<Response, ClientError> {
        let mut stream = http::connect(&self.addr, self.timeout)?;
        let head = http::encode_request_head(
            "PUT",
            "/v1/networks",
            "text/plain",
            network_text.len(),
            true,
        );
        stream.write_all(head.as_bytes())?;
        // Chunked writes exercise the server's resumable parse path even
        // from loopback tests.
        for chunk in network_text.as_bytes().chunks(64 * 1024) {
            stream.write_all(chunk)?;
        }
        stream.flush()?;
        Ok(http::read_response(&mut stream)?)
    }

    /// Lists registered networks (`GET /v1/networks`) — a
    /// [`crate::wire::NetworkListResponse`] body on 200.
    ///
    /// # Errors
    ///
    /// See [`request`](Self::request).
    pub fn list_networks(&self) -> Result<Response, ClientError> {
        self.get("/v1/networks")
    }

    /// Submits `job`, retrying `503 overloaded` responses per `policy`
    /// (honoring the server's `Retry-After` header). Only 503s are retried:
    /// every other status — including other errors — is the server's final
    /// answer for this request. Safe because `rsnd` submissions are
    /// idempotent (see the module docs).
    ///
    /// # Errors
    ///
    /// See [`request`](Self::request); IO errors are not retried.
    pub fn submit_with_retry(
        &self,
        endpoint: Endpoint,
        job: &JobRequest,
        policy: &RetryPolicy,
    ) -> Result<SubmitOutcome, ClientError> {
        let max_attempts = policy.max_attempts.max(1);
        let mut attempts = 0;
        loop {
            let response = self.submit(endpoint, job)?;
            attempts += 1;
            if response.status != 503 || attempts >= max_attempts {
                return Ok(SubmitOutcome { response, attempts });
            }
            let retry_after = response.header("retry-after").and_then(|v| v.parse().ok());
            std::thread::sleep(policy.backoff(attempts - 1, retry_after));
        }
    }

    /// Fetches the plaintext `/metrics` exposition.
    ///
    /// # Errors
    ///
    /// See [`request`](Self::request).
    pub fn metrics_text(&self) -> Result<String, ClientError> {
        Ok(self.get("/metrics")?.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_jittered_and_capped() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(900),
            jitter_seed: 42,
            ..RetryPolicy::default()
        };
        let sleeps: Vec<Duration> = (0..4).map(|r| policy.backoff(r, None)).collect();
        // Jitter keeps every sleep within ±25 % of the (capped) base.
        for (r, &sleep) in sleeps.iter().enumerate() {
            let base = Duration::from_millis(100 * (1 << r)).min(Duration::from_millis(900));
            assert!(sleep >= base * 3 / 4 && sleep <= base * 5 / 4, "retry {r}: {sleep:?}");
        }
        // Determinism: the same policy produces the same schedule.
        let again: Vec<Duration> = (0..4).map(|r| policy.backoff(r, None)).collect();
        assert_eq!(sleeps, again);
    }

    #[test]
    fn retry_after_wins_over_exponential_backoff() {
        let policy = RetryPolicy { jitter_seed: 7, ..RetryPolicy::default() };
        let sleep = policy.backoff(0, Some(2));
        let two = Duration::from_secs(2);
        assert!(sleep >= two * 3 / 4 && sleep <= two * 5 / 4, "{sleep:?}");
        // A huge Retry-After is still capped.
        assert!(policy.backoff(0, Some(3600)) <= policy.max_backoff * 5 / 4);
    }
}

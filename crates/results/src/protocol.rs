//! The wire protocol of the result service: length-prefixed
//! canonical-JSON frames carrying [`Request`] and [`Response`] objects.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON (one [`gm_stats::Json`] object rendered by
//! [`gm_stats::Json::render`], which is canonical: field order is
//! insertion order and every writer builds objects the same way). The
//! length is capped at [`MAX_FRAME`] so a garbled or hostile peer
//! cannot make either side allocate unboundedly.
//!
//! The request set mirrors the local store's surface:
//!
//! * `Get` — fetch the record stored under (experiment, fingerprint);
//! * `Put` — offer a record for appending, carrying the SHA-256 the
//!   client computed over the rendered record body so the server can
//!   verify the bytes it received before appending them;
//! * `Health` — is the daemon serving or draining;
//! * `Stats` — deterministic request counters (no wall-clock fields).
//!
//! Both sides parse strictly: an unknown request kind, a missing
//! field, or a type mismatch is an error, never a guess — a garbled
//! frame must surface as damage, not as a plausible record.

use gm_stats::Json;
use std::io::{self, Read, Write};

/// Protocol version carried in every frame as `"v"`.
pub const PROTOCOL_VERSION: u64 = 1;

/// Upper bound on a frame payload. A result record is a few KiB; the
/// cap leaves three orders of magnitude of headroom while keeping a
/// garbled length prefix from looking like a multi-GiB allocation.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Writes one frame: 4-byte big-endian length, then the payload. The
/// frame is assembled in one buffer and handed to `w` in one
/// `write_all`, so an unbuffered socket sends it as one segment rather
/// than a lone length prefix that waits on the peer's delayed ACK.
pub fn write_frame(w: &mut dyn Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame's payload. `Ok(None)` means the peer closed the
/// connection cleanly at a frame boundary; mid-frame EOF, or a length
/// prefix beyond [`MAX_FRAME`], is an error.
pub fn read_frame(r: &mut dyn Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read(&mut len)? {
        0 => return Ok(None),
        mut got => {
            while got < 4 {
                let n = r.read(&mut len[got..])?;
                if n == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed inside a frame header",
                    ));
                }
                got += n;
            }
        }
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// One request from a client to the result service.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Fetch the record stored under (`experiment`, `fingerprint`).
    Get {
        /// The experiment whose shard holds the record.
        experiment: String,
        /// The job fingerprint the record is keyed under.
        fingerprint: String,
    },
    /// Offer `record` for appending to `experiment`'s shard. `sha` is
    /// the SHA-256 (lowercase hex) of the rendered record body the
    /// client computed before sending; the server recomputes it over
    /// the bytes it received and rejects a mismatch without appending.
    Put {
        /// The experiment shard to append to.
        experiment: String,
        /// Claimed SHA-256 of the rendered record body.
        sha: String,
        /// The record itself, without a `"sha"` field.
        record: Json,
    },
    /// Is the daemon serving or draining?
    Health,
    /// Deterministic request counters.
    Stats,
}

impl Request {
    /// Renders the request as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut j = Json::object();
        j.set("v", PROTOCOL_VERSION);
        match self {
            Request::Get {
                experiment,
                fingerprint,
            } => {
                j.set("req", "get")
                    .set("experiment", experiment.as_str())
                    .set("fingerprint", fingerprint.as_str());
            }
            Request::Put {
                experiment,
                sha,
                record,
            } => {
                j.set("req", "put")
                    .set("experiment", experiment.as_str())
                    .set("sha", sha.as_str())
                    .set("record", record.clone());
            }
            Request::Health => {
                j.set("req", "health");
            }
            Request::Stats => {
                j.set("req", "stats");
            }
        }
        j.render().into_bytes()
    }

    /// Parses a frame payload as a request. Strict: unknown kinds and
    /// missing or mistyped fields are errors.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "request is not UTF-8".to_owned())?;
        let j = Json::parse(text).map_err(|e| format!("unparseable request ({e})"))?;
        if j.get("v").and_then(Json::as_u64) != Some(PROTOCOL_VERSION) {
            return Err(format!(
                "request is not protocol v{PROTOCOL_VERSION}: {text:.80}"
            ));
        }
        let field = |key: &str| -> Result<String, String> {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("request field {key:?} missing or not a string"))
        };
        match j.get("req").and_then(Json::as_str) {
            Some("get") => Ok(Request::Get {
                experiment: field("experiment")?,
                fingerprint: field("fingerprint")?,
            }),
            Some("put") => Ok(Request::Put {
                experiment: field("experiment")?,
                sha: field("sha")?,
                record: j
                    .get("record")
                    .filter(|r| r.as_object().is_some())
                    .cloned()
                    .ok_or("put request has no record object")?,
            }),
            Some("health") => Ok(Request::Health),
            Some("stats") => Ok(Request::Stats),
            Some(other) => Err(format!("unknown request kind {other:?}")),
            None => Err("request has no \"req\" field".to_owned()),
        }
    }
}

/// One response from the result service.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A `Get` hit: the stored record (sha-stripped) and the SHA-256 of
    /// its rendered body, so the client can verify the bytes it
    /// received.
    Found {
        /// The stored record, without its `"sha"` field.
        record: Json,
        /// SHA-256 of the rendered record body.
        sha: String,
    },
    /// A `Get` miss: the service holds no record for the fingerprint.
    NotFound,
    /// A `Put` the server verified and appended durably.
    Stored,
    /// A `Health` answer: `"serving"` or `"draining"`.
    Health {
        /// Daemon lifecycle state.
        status: String,
    },
    /// A `Stats` answer: deterministic counters (see `gm-serve`).
    Stats {
        /// Counter object; no wall-clock fields.
        stats: Json,
    },
    /// The request was rejected (bad frame, checksum mismatch, store
    /// failure). The record, if any, was not appended.
    Error {
        /// What went wrong.
        message: String,
    },
}

impl Response {
    /// Renders the response as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut j = Json::object();
        j.set("v", PROTOCOL_VERSION);
        match self {
            Response::Found { record, sha } => {
                j.set("ok", true)
                    .set("found", true)
                    .set("sha", sha.as_str())
                    .set("record", record.clone());
            }
            Response::NotFound => {
                j.set("ok", true).set("found", false);
            }
            Response::Stored => {
                j.set("ok", true).set("stored", true);
            }
            Response::Health { status } => {
                j.set("ok", true).set("status", status.as_str());
            }
            Response::Stats { stats } => {
                j.set("ok", true).set("stats", stats.clone());
            }
            Response::Error { message } => {
                j.set("ok", false).set("error", message.as_str());
            }
        }
        j.render().into_bytes()
    }

    /// Parses a frame payload as a response. Strict, like
    /// [`Request::decode`].
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "response is not UTF-8".to_owned())?;
        let j = Json::parse(text).map_err(|e| format!("unparseable response ({e})"))?;
        if j.get("v").and_then(Json::as_u64) != Some(PROTOCOL_VERSION) {
            return Err(format!(
                "response is not protocol v{PROTOCOL_VERSION}: {text:.80}"
            ));
        }
        match j.get("ok").and_then(Json::as_bool) {
            Some(true) => {}
            Some(false) => {
                return Ok(Response::Error {
                    message: j
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("unspecified error")
                        .to_owned(),
                })
            }
            None => return Err("response has no \"ok\" field".to_owned()),
        }
        if let Some(found) = j.get("found").and_then(Json::as_bool) {
            if !found {
                return Ok(Response::NotFound);
            }
            let record = j
                .get("record")
                .filter(|r| r.as_object().is_some())
                .cloned()
                .ok_or("found response has no record object")?;
            let sha = j
                .get("sha")
                .and_then(Json::as_str)
                .ok_or("found response has no sha")?
                .to_owned();
            return Ok(Response::Found { record, sha });
        }
        if j.get("stored").and_then(Json::as_bool) == Some(true) {
            return Ok(Response::Stored);
        }
        if let Some(status) = j.get("status").and_then(Json::as_str) {
            return Ok(Response::Health {
                status: status.to_owned(),
            });
        }
        if let Some(stats) = j.get("stats").filter(|s| s.as_object().is_some()) {
            return Ok(Response::Stats {
                stats: stats.clone(),
            });
        }
        Err("response matches no known shape".to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> Json {
        let mut j = Json::object();
        j.set("fingerprint", "ab".repeat(32)).set("cycles", 7u64);
        j
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    /// Counts the `write` calls a frame costs.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_frame_is_one_write() {
        for payload in [&b""[..], b"hello", &[7u8; 5000]] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.writes, 1, "{}-byte payload", payload.len());
            assert_eq!(read_frame(&mut &w.bytes[..]).unwrap().unwrap(), payload);
        }
    }

    #[test]
    fn torn_frames_and_oversized_lengths_are_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        for cut in 1..buf.len() {
            let mut r = &buf[..cut];
            assert!(read_frame(&mut r).is_err(), "cut={cut}");
        }
        let huge = (MAX_FRAME as u32 + 1).to_be_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
        let mut w = Vec::new();
        assert!(write_frame(&mut w, &vec![0u8; MAX_FRAME + 1]).is_err());
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Get {
                experiment: "fig6".into(),
                fingerprint: "ff".repeat(32),
            },
            Request::Put {
                experiment: "fig6".into(),
                sha: "00".repeat(32),
                record: rec(),
            },
            Request::Health,
            Request::Stats,
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let mut stats = Json::object();
        stats.set("requests", 3u64);
        let resps = [
            Response::Found {
                record: rec(),
                sha: "11".repeat(32),
            },
            Response::NotFound,
            Response::Stored,
            Response::Health {
                status: "serving".into(),
            },
            Response::Stats { stats },
            Response::Error {
                message: "checksum mismatch".into(),
            },
        ];
        for resp in resps {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn decoding_is_strict() {
        for bad in [
            &b"not json"[..],
            br#"{"req":"get"}"#,
            br#"{"v":1,"req":"get"}"#,
            br#"{"v":1,"req":"get","experiment":"e","fingerprint":7}"#,
            br#"{"v":1,"req":"put","experiment":"e","sha":"s"}"#,
            br#"{"v":1,"req":"put","experiment":"e","sha":"s","record":[1]}"#,
            br#"{"v":1,"req":"explode"}"#,
            br#"{"v":2,"req":"health"}"#,
            br#"{"v":1}"#,
        ] {
            assert!(Request::decode(bad).is_err(), "{bad:?}");
        }
        for bad in [
            &b"\xff\xfe"[..],
            br#"{"v":1}"#,
            br#"{"v":1,"ok":true}"#,
            br#"{"v":1,"ok":true,"found":true}"#,
            br#"{"v":1,"ok":true,"found":true,"record":{"a":1}}"#,
            br#"{"v":2,"ok":true,"stored":true}"#,
        ] {
            assert!(Response::decode(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn error_responses_carry_their_message() {
        match Response::decode(br#"{"v":1,"ok":false,"error":"nope"}"#).unwrap() {
            Response::Error { message } => assert_eq!(message, "nope"),
            other => panic!("{other:?}"),
        }
    }
}

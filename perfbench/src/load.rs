//! The closed loop: each connection sends its next request only when
//! the previous reply is in, as a web front end with a fixed pool does.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use cr_server::protocol::{Request, Response};
use cr_server::Client;

use crate::check::check;
use crate::gen::{probe_after, Facts, Kind, Op, Stream, KEEP_FAILURES};

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: Kind,
    pub write: bool,
    pub ns: u64,
}

/// A connection, its stream, and what it has seen so far.
pub struct Conn<'g> {
    client: Client<TcpStream>,
    stream: Stream<'g>,
    pending_probe: Option<Op>,
    added: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Acknowledged comments: `(id, text)`.
    pub comments: Vec<(i64, String)>,
    /// Acknowledged enrollments: `(student, course, year, term)`.
    pub enrollments: Vec<(i64, i64, i64, String)>,
}

impl<'g> Conn<'g> {
    pub fn connect(addr: &str, principal: &str, stream: Stream<'g>) -> Result<Self, String> {
        let tcp = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        tcp.set_nodelay(true).map_err(|e| e.to_string())?;
        let client =
            Client::handshake_as(tcp, "perfbench", principal).map_err(|e| e.to_string())?;
        Ok(Conn {
            client,
            stream,
            pending_probe: None,
            added: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            comments: Vec::new(),
            enrollments: Vec::new(),
        })
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < KEEP_FAILURES {
            self.failures.push(why);
        }
    }

    /// Send one op, check the reply, and return its latency if it passed.
    pub fn send(&mut self, op: &Op, facts: &Facts) -> Option<u64> {
        self.attempted += 1;
        let t0 = Instant::now();
        let resp = match self.client.call(&op.req) {
            Ok(r) => r,
            Err(e) => {
                self.fail(format!("{:?}: transport: {e}", op.kind));
                return None;
            }
        };
        let ns = t0.elapsed().as_nanos() as u64;
        if let Err(why) = check(&op.expect, &resp, facts) {
            self.fail(format!("{:?}: {why}", op.kind));
            return None;
        }
        self.note_ack(&op.req, &resp);
        Some(ns)
    }

    fn note_ack(&mut self, req: &Request, resp: &Response) {
        match (req, resp) {
            (Request::AddComment { text, .. }, Response::CommentAdded { id }) => {
                self.comments.push((*id, text.clone()));
                self.added += 1;
                self.pending_probe = probe_after(self.added, *id);
            }
            (
                Request::Enroll {
                    student,
                    course,
                    year,
                    term,
                    ..
                },
                Response::Written,
            ) => self
                .enrollments
                .push((*student, *course, *year, term.clone())),
            _ => {}
        }
    }

    /// Run the closed loop until `deadline`, appending to `samples`.
    pub fn run_until(&mut self, deadline: Instant, facts: &Facts, samples: &mut Vec<Sample>) {
        while Instant::now() < deadline {
            let op = match self.pending_probe.take() {
                Some(p) => p,
                None => self.stream.next().expect("streams are infinite"),
            };
            if let Some(ns) = self.send(&op, facts) {
                samples.push(Sample {
                    kind: op.kind,
                    write: op.req.class() == cr_server::RequestClass::Write,
                    ns,
                });
            }
        }
    }

    /// Say goodbye and hand back the stream, positioned after the last
    /// request sent.
    pub fn close(self) -> Result<Stream<'g>, String> {
        self.client.goodbye().map_err(|e| e.to_string())?;
        Ok(self.stream)
    }
}

/// Run every connection's closed loop for `window` on its own thread.
pub fn run_window(conns: &mut [Conn<'_>], facts: &Facts, window: Duration) -> Vec<Sample> {
    let deadline = Instant::now() + window;
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|c| {
                s.spawn(move || {
                    let mut samples = Vec::new();
                    c.run_until(deadline, facts, &mut samples);
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("connection thread panicked"))
            .collect()
    })
}

/// Send `ops` split round-robin over the connections, in parallel.
pub fn sweep(conns: &mut [Conn<'_>], facts: &Facts, ops: &[Op]) {
    let n = conns.len();
    std::thread::scope(|s| {
        for (i, c) in conns.iter_mut().enumerate() {
            s.spawn(move || {
                for op in ops.iter().skip(i).step_by(n) {
                    c.send(op, facts);
                }
            });
        }
    });
}

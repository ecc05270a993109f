//! The adapt phase: closed-loop clients against a real `AdaptServer` on
//! TCP loopback, timed from the client side.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use fml_core::adapt::{adapt_into, AdaptScratch};
use fml_runtime::{
    AdaptClient, AdaptOutcome, AdaptServer, ServingConfig, SharedGlobal, TcpTransport,
    TcpTransportListener,
};

use crate::workloads::Bench;

/// A reply slower than this is a failed request.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(20);
/// A live client looks at the stop flag this often (requests).
const STOP_CHECK_EVERY: usize = 64;

/// When a block ends.
#[derive(Clone, Copy)]
pub enum Until<'a> {
    /// After this many requests, all clients together.
    Sent(usize),
    /// Once the flag is raised: the block lasts as long as the train
    /// block beside it.
    Raised(&'a AtomicBool),
}

/// What a reply must be to count as correct.
pub enum Expect<'a> {
    /// The global is fixed at `round`: reply `i` equals `params[i]`
    /// bitwise.
    Exact { round: u32, params: &'a [Vec<f64>] },
    /// Training is publishing: any round up to `max_round`, finite
    /// parameters of the model's length.
    Live { max_round: u32, len: usize },
}

impl Expect<'_> {
    fn holds(&self, idx: usize, outcome: &AdaptOutcome) -> bool {
        match (self, outcome) {
            (
                Expect::Exact { round, params },
                AdaptOutcome::Adapted {
                    global_round,
                    params: got,
                },
            ) => global_round == round && *got == params[idx],
            (
                Expect::Live { max_round, len },
                AdaptOutcome::Adapted {
                    global_round,
                    params: got,
                },
            ) => {
                global_round <= max_round && got.len() == *len && got.iter().all(|x| x.is_finite())
            }
            (_, AdaptOutcome::Rejected(_)) => false,
        }
    }
}

/// One closed-loop block as the clients saw it.
pub struct AdaptBlock {
    pub secs: f64,
    /// Host speed right after this block; set by whoever calibrates.
    pub speed: f64,
    /// Request→reply latency of every completed request, µs, sorted.
    pub latencies_us: Vec<f64>,
    pub attempted: usize,
    /// Timeouts, transport errors, rejects and wrong replies.
    pub failed: usize,
    /// `(start, end, request index)` per request, kept on traced runs.
    pub spans: Vec<(Instant, Instant, u32)>,
}

/// Offline oracle: what the server must reply to each distinct request
/// when it adapts from `global`.
pub fn offline_replies(b: &Bench, global: &[f64]) -> Vec<Vec<f64>> {
    let model = b.model.as_ref();
    let mut scratch = AdaptScratch::for_model(model);
    b.supports
        .iter()
        .map(|support| {
            let mut out = Vec::new();
            adapt_into(
                model,
                global,
                support,
                b.spec.alpha,
                b.spec.adapt.steps as usize,
                &mut scratch,
                &mut out,
            );
            out
        })
        .collect()
}

/// Starts the workload's server on an ephemeral loopback port.
pub fn start_server(b: &Bench, global: SharedGlobal) -> AdaptServer {
    let listener = TcpTransportListener::bind("127.0.0.1:0").expect("bind loopback");
    AdaptServer::start(
        Box::new(listener),
        b.model.clone(),
        global,
        ServingConfig::default().with_workers(b.spec.adapt.server_workers),
    )
}

/// Connects the workload's closed-loop clients, one TCP link each.
pub fn connect_clients(b: &Bench, server: &AdaptServer) -> Vec<AdaptClient> {
    (0..b.spec.adapt.clients)
        .map(|_| {
            let link = TcpTransport::connect(server.local_addr()).expect("connect loopback");
            AdaptClient::new(Box::new(link))
        })
        .collect()
}

/// What one client saw of a block.
struct ClientPart {
    latencies_us: Vec<f64>,
    attempted: usize,
    failed: usize,
    spans: Vec<(Instant, Instant, u32)>,
}

/// One client's share of a block: requests back to back from request
/// `first` on, each sent only after the previous reply arrived.
fn client_loop(
    b: &Bench,
    client: &mut AdaptClient,
    first: usize,
    until: Until<'_>,
    expect: &Expect<'_>,
    keep_spans: bool,
) -> ClientPart {
    let mut block = ClientPart {
        latencies_us: Vec::new(),
        attempted: 0,
        failed: 0,
        spans: Vec::new(),
    };
    for i in 0.. {
        let done = match until {
            Until::Sent(count) => i >= count,
            Until::Raised(stop) => i % STOP_CHECK_EVERY == 0 && stop.load(Ordering::Relaxed),
        };
        if done {
            break;
        }
        let idx = (first + i) % b.requests.len();
        let sent = Instant::now();
        let outcome = client.request(&b.requests[idx], REQUEST_TIMEOUT);
        let done = Instant::now();
        block.attempted += 1;
        match outcome {
            Ok(outcome) if expect.holds(idx, &outcome) => {
                block.latencies_us.push((done - sent).as_secs_f64() * 1e6);
            }
            _ => block.failed += 1,
        }
        if keep_spans {
            block.spans.push((sent, done, idx as u32));
        }
    }
    block
}

/// Runs one block over all clients and merges what they saw.
pub fn run_block(
    b: &Bench,
    clients: &mut [AdaptClient],
    until: Until<'_>,
    expect: &Expect<'_>,
    keep_spans: bool,
) -> AdaptBlock {
    let per_client = match until {
        Until::Sent(requests) => Until::Sent(requests / clients.len()),
        raised => raised,
    };
    let started = Instant::now();
    let parts: Vec<ClientPart> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                // Clients start at different requests so the server
                // sees the whole mix from the first reply on.
                let first = c * b.requests.len() / b.spec.adapt.clients;
                s.spawn(move || client_loop(b, client, first, per_client, expect, keep_spans))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("adapt client panicked"))
            .collect()
    });
    let ended = Instant::now();
    let mut block = AdaptBlock {
        secs: (ended - started).as_secs_f64(),
        speed: 1.0,
        latencies_us: Vec::new(),
        attempted: 0,
        failed: 0,
        spans: Vec::new(),
    };
    for part in parts {
        block.latencies_us.extend(part.latencies_us);
        block.attempted += part.attempted;
        block.failed += part.failed;
        block.spans.extend(part.spans);
    }
    block
        .latencies_us
        .sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    block
}

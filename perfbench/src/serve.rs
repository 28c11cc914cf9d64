//! The serving-layer probe of the traced run: bursts of requests through a
//! `ServeEngine` built from the workload's session, redeemed by waker and
//! `poll`.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use bconv_graph::{ServeConfig, Session, SubmitOptions, TicketId, Waker};
use bconv_tensor::{Tensor, TensorError};

use crate::report::Metrics;
use crate::stats::{mean, median};
use crate::stream::{input_pool, same_bits};

/// Interactive requests per burst; each burst also carries one bulk
/// request, so workers have queued samples to coalesce and a priority
/// order to respect, and one tight request that the engine sheds.
pub const BURST: usize = 8;

/// Samples per bulk request.
const BULK_BATCH: usize = 8;

/// Interactive deadlines, in solo request latencies: a burst never misses
/// one unless the host stalls.
const INTERACTIVE_DEADLINE: f64 = 100.0;

/// Sends bursts into an engine built from `session` until `dur` has
/// passed, waiting for every waker of a burst before the next, and pushes
/// the `graph.serve` metrics into `m`. A burst is one bulk request (batch
/// 8, priority 0), eight interactive ones (batch 1, priority 1, deadline
/// `INTERACTIVE_DEADLINE` solo latencies `p50` after submission) and last
/// one tight request (batch 1, priority 0, deadline one `p50`). The tight
/// request queues behind the other sixteen samples of the burst on
/// workers that each take longer than `p50` per sample, so the engine
/// sheds it at dequeue. Every output is checked against its serial
/// `Session::run` oracle. Returns the requests attempted and failed.
pub fn probe(
    session: &Session,
    inputs: &[Tensor],
    expect: &[Tensor],
    seed: u64,
    p50: Duration,
    dur: Duration,
    m: &mut Metrics,
) -> Result<(u64, u64), String> {
    let bulk = input_pool(session, BULK_BATCH, 1, seed ^ 0xB01C).remove(0);
    let bulk_expect = session.run(&bulk).map_err(|e| format!("bulk oracle: {e}"))?.output;
    let engine = session
        .fork()
        .into_engine(ServeConfig::default())
        .map_err(|e| format!("into_engine: {e}"))?;
    let (tx, rx) = mpsc::channel::<(usize, Instant)>();
    let (mut submit_us, mut client_us, mut ewma) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut next, mut bursts) = (0u64, 0u64, 0usize, 0u64);
    let tight = BURST + 1;
    let start = Instant::now();
    while bursts < 2 || start.elapsed() < dur {
        bursts += 1;
        let mut burst: Vec<(TicketId, Instant, Option<usize>)> = Vec::with_capacity(BURST + 2);
        for slot in 0..=tight {
            // Slot 0 is the bulk request; the rest cycle through `inputs`.
            let k = (slot > 0).then(|| {
                next += 1;
                next % inputs.len()
            });
            let (x, opts) = match k {
                None => (bulk.clone(), SubmitOptions { priority: 0, deadline: None }),
                Some(k) => {
                    let (priority, wait) = if slot == tight {
                        (0, p50)
                    } else {
                        (1, p50.mul_f64(INTERACTIVE_DEADLINE))
                    };
                    (
                        inputs[k].clone(),
                        SubmitOptions { priority, deadline: Some(Instant::now() + wait) },
                    )
                }
            };
            let tx = tx.clone();
            let waker: Waker = Box::new(move |_| {
                let _ = tx.send((slot, Instant::now()));
            });
            let s0 = Instant::now();
            let ticket =
                engine.submit_with_waker(x, opts, waker).map_err(|e| format!("submit: {e}"))?;
            submit_us.push((Instant::now() - s0).as_nanos() as f64 / 1e3);
            burst.push((ticket, s0, k));
        }
        for _ in 0..=tight {
            let (slot, at) =
                rx.recv_timeout(Duration::from_secs(10)).map_err(|_| "a waker never fired")?;
            let (ticket, s0, k) = burst[slot];
            attempted += 1;
            let want = k.map_or(&bulk_expect, |k| &expect[k]);
            match engine.poll(ticket) {
                Ok(Some(r)) if same_bits(&r.output, want) => {
                    client_us.push((at - s0).as_nanos() as f64 / 1e3);
                }
                // A shed is the engine keeping its deadline promise; its
                // metrics count it.
                Err(TensorError::DeadlineExpired) => {}
                _ => failed += 1,
            }
        }
        ewma.push(engine.metrics().queue_depth_ewma_x16 as f64 / 16.0);
    }
    let sm = engine.metrics();
    if client_us.is_empty() {
        return Err("no request completed".into());
    }
    m.push("graph.serve.submit_us", median(&submit_us).ok_or("no request sent")?, "us");
    m.push("graph.serve.engine_p50_us", sm.p50_latency_us as f64, "us");
    // Means over the same completed requests, so the difference is the
    // per-request submit and wake cost (the engine's percentiles are
    // bucketed to 12.5%, too coarse to subtract).
    m.push("graph.serve.wake_us", mean(&client_us) - sm.mean_latency_us as f64, "us");
    m.push(
        "graph.serve.mean_batch",
        sm.batched_samples as f64 / sm.batches.max(1) as f64,
        "samples",
    );
    m.push("graph.serve.shed", sm.shed as f64, "count");
    m.push("graph.serve.queue_depth_ewma", mean(&ewma), "samples");
    Ok((attempted, failed))
}

//! Timeline composition: every batch's journey from serialization
//! completion through the fabric to deserialization completion, with
//! bounded-window backpressure at each reducer.
//!
//! The composition is pure arithmetic over the per-request simulated
//! times the executors measured — it runs sequentially, in a total order
//! independent of which thread executed which executor, so the result is
//! deterministic for any job count.

use crate::exec::Message;
use crate::faults::{Attempt, FaultTotals, MsgPlan};
use crate::ShuffleConfig;
use sim::net::Fabric;
use std::collections::VecDeque;
use store::Engine;
use telemetry::ids::{MAPPER_PID_BASE, REDUCER_PID_BASE, T_MAIN, T_NIC, T_SEND};
use telemetry::{EntityId, FlowEvent, Instant, Sink, Span};

/// Network-and-makespan statistics of one shuffle.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NetStats {
    /// End-to-end completion time: the last batch's deserialization.
    pub makespan_ns: f64,
    /// Summed per-message time on the fabric (injection to last-byte
    /// arrival, including NIC queueing).
    pub net_ns: f64,
    /// Sends that found the destination window full.
    pub backpressure_blocks: u64,
    /// Total time senders spent blocked on the watermark.
    pub backpressure_wait_ns: f64,
    /// Aggregate ingress-bandwidth utilization over the makespan.
    pub ingress_utilization: f64,
}

/// Composes the shuffle timeline.
///
/// `msgs` is the global message list, in any order: the composition
/// visits it in its own deterministic total order of send attempts,
/// ascending `(ser_done_ns, src, dst, seq)`. `de_ns[i]` is message
/// `i`'s deserialization busy time.
///
/// Rules, in order, for each message:
/// 1. a mapper issues sends serially (a send cannot start before the
///    mapper's previous send started);
/// 2. **backpressure**: while the destination reducer's in-flight bytes
///    plus this message would exceed the watermark, the sender blocks
///    until the earliest in-flight batch finishes deserializing;
/// 3. the message crosses the [`Fabric`] (egress NIC → pair link →
///    ingress NIC, each a contended ledger);
/// 4. the reducer deserializes arrivals serially.
///
/// `plans` aligns with `msgs` (empty = fault-free). Failed attempts
/// replay rule 3 per retransmission, all charged to the clock:
/// a **lost** transfer still occupies the fabric, the sender declares
/// it dead after the loss timeout, then backs off exponentially before
/// resending; a **corrupt** transfer arrives, costs the receiver the
/// CRC scan to detect, a NACK crosses back (one link latency), and the
/// sender backs off. `faults` accumulates the retry counters and the
/// recovery time (every nanosecond between a failed attempt's start and
/// its retry's start).
///
/// With a recording sink the composed timeline is emitted as spans —
/// `backpressure.wait`, `wire.lost`/`wire.corrupt` attempt windows
/// (backoff included) and the final `wire` transit on each sender's
/// send lane, `nack` instants on the receiver's NIC lane,
/// `deserialize` spans on each reducer's main lane, and the fabric's
/// per-hop busy windows as `nic.egress`/`nic.ingress` spans. Net and
/// fault counters (`shuffle.backpressure_blocks`, `shuffle.retries`,
/// `shuffle.lost_messages`, `shuffle.wire_corruptions`,
/// `shuffle.fabric_bytes`) are booked at the event sites. The returned
/// stats are identical for any sink; callers that do not trace pass
/// [`telemetry::NoopSink`].
pub fn compose_sunk<S: Sink>(
    cfg: &ShuffleConfig,
    msgs: &[&Message],
    de_ns: &[f64],
    plans: &[MsgPlan],
    faults: &mut FaultTotals,
    sink: &mut S,
) -> NetStats {
    assert_eq!(msgs.len(), de_ns.len());
    let mut order: Vec<usize> = (0..msgs.len()).collect();
    order.sort_by(|&a, &b| {
        let (ma, mb) = (msgs[a], msgs[b]);
        ma.ser_done_ns
            .partial_cmp(&mb.ser_done_ns)
            .expect("simulated times are never NaN")
            .then(ma.src.cmp(&mb.src))
            .then(ma.dst.cmp(&mb.dst))
            .then(ma.seq.cmp(&mb.seq))
    });

    let mut fabric = Fabric::full_mesh(cfg.mappers, cfg.reducers, cfg.link);
    if S::ENABLED {
        fabric.record_tape();
    }
    let mut mapper_free = vec![0.0f64; cfg.mappers];
    let mut reducer_free = vec![0.0f64; cfg.reducers];
    // Per reducer: (de_done, bytes) of batches sent but not yet
    // deserialized. De-completion is monotonic per reducer (the reduce
    // server is serial), so the front is always the earliest.
    let mut inflight: Vec<VecDeque<(f64, u64)>> = vec![VecDeque::new(); cfg.reducers];
    let mut inflight_bytes = vec![0u64; cfg.reducers];
    let mut stats = NetStats::default();
    let mut flow_seq = 0u64;

    for i in order {
        let msg = msgs[i];
        let (src, dst) = (msg.src, msg.dst);
        let send_lane = EntityId {
            pid: MAPPER_PID_BASE + src as u32,
            tid: T_SEND,
        };
        let wire = (msg.bytes.len() as u64).max(1);
        let mut start = msg.ser_done_ns.max(mapper_free[src]);

        // Retire batches the reducer has already finished by `start`.
        while let Some(&(done, b)) = inflight[dst].front() {
            if done <= start {
                inflight[dst].pop_front();
                inflight_bytes[dst] -= b;
            } else {
                break;
            }
        }
        // Block on the watermark: wait for the earliest in-flight batch
        // to clear, repeatedly, until the window has room.
        let block_start = start;
        while inflight_bytes[dst] + wire > cfg.watermark_bytes && !inflight[dst].is_empty() {
            let (done, b) = inflight[dst].pop_front().expect("non-empty");
            inflight_bytes[dst] -= b;
            stats.backpressure_blocks += 1;
            stats.backpressure_wait_ns += done - start;
            if S::ENABLED {
                sink.count("shuffle.backpressure_blocks", 1);
            }
            start = done;
        }
        if S::ENABLED && start > block_start {
            sink.span(Span {
                entity: send_lane,
                name: "backpressure.wait",
                t0_ns: block_start,
                t1_ns: start,
                attrs: vec![("dst", (dst as u64).into())],
            });
        }

        mapper_free[src] = start;
        // Failed attempts first: each occupies the fabric and delays the
        // message by detection (timeout or CRC+NACK) plus backoff.
        let mut attempt_start = start;
        if let Some(plan) = plans.get(i) {
            if plan.retries() > 0 {
                let fc = cfg.faults.expect("fault plans imply a fault config");
                for (k, a) in plan.attempts.iter().enumerate() {
                    let backoff = fc.retry_backoff_ns(k as u32);
                    let resume = match a {
                        Attempt::Clean => break,
                        Attempt::Lost => {
                            let lost_arrival = fabric.send(src, dst, wire, attempt_start);
                            stats.net_ns += lost_arrival - attempt_start;
                            faults.lost_messages += 1;
                            if S::ENABLED {
                                sink.count("shuffle.lost_messages", 1);
                            }
                            // The sender times out from the attempt's
                            // start; the fabric stays busy either way.
                            (attempt_start + fc.timeout_ns).max(lost_arrival) + backoff
                        }
                        Attempt::Corrupt { .. } => {
                            let arrival = fabric.send(src, dst, wire, attempt_start);
                            stats.net_ns += arrival - attempt_start;
                            faults.wire_corruptions += 1;
                            if S::ENABLED {
                                sink.count("shuffle.wire_corruptions", 1);
                                // The receiver detects the damage at the
                                // end of its CRC scan and NACKs.
                                sink.instant(Instant {
                                    entity: EntityId {
                                        pid: REDUCER_PID_BASE + dst as u32,
                                        tid: T_NIC,
                                    },
                                    name: "nack",
                                    t_ns: arrival + Engine::verify_ns(wire as usize),
                                    attrs: vec![("src", (src as u64).into())],
                                });
                            }
                            // Receiver pays the CRC scan to detect, the
                            // NACK crosses one link latency back.
                            arrival
                                + Engine::verify_ns(wire as usize)
                                + cfg.link.latency_ns
                                + backoff
                        }
                    };
                    faults.retries += 1;
                    faults.fabric_bytes += wire;
                    faults.recovery_ns += resume - attempt_start;
                    if S::ENABLED {
                        sink.count("shuffle.retries", 1);
                        sink.count("shuffle.fabric_bytes", wire);
                        sink.span(Span {
                            entity: send_lane,
                            name: match a {
                                Attempt::Lost => "wire.lost",
                                _ => "wire.corrupt",
                            },
                            t0_ns: attempt_start,
                            t1_ns: resume,
                            attrs: vec![
                                ("dst", (dst as u64).into()),
                                ("bytes", wire.into()),
                                ("backoff_ns", backoff.into()),
                            ],
                        });
                    }
                    attempt_start = resume;
                }
            }
        }
        let arrival = fabric.send(src, dst, wire, attempt_start);
        stats.net_ns += arrival - attempt_start;
        faults.fabric_bytes += wire;
        let de_start = arrival.max(reducer_free[dst]);
        let de_done = de_start + de_ns[i];
        reducer_free[dst] = de_done;
        if S::ENABLED {
            sink.count("shuffle.fabric_bytes", wire);
            sink.span(Span {
                entity: send_lane,
                name: "wire",
                t0_ns: attempt_start,
                t1_ns: arrival,
                attrs: vec![("dst", (dst as u64).into()), ("bytes", wire.into())],
            });
            sink.span(Span {
                entity: EntityId {
                    pid: REDUCER_PID_BASE + dst as u32,
                    tid: T_MAIN,
                },
                name: "deserialize",
                t0_ns: de_start,
                t1_ns: de_done,
                attrs: vec![
                    ("src", (src as u64).into()),
                    ("seq", msg.seq.into()),
                    ("bytes", wire.into()),
                ],
            });
            // Causal edge: this batch's wire departure feeds the
            // reducer's deserialize start.
            sink.flow(FlowEvent {
                id: flow_seq,
                name: "flow.fetch",
                src: send_lane,
                t0_ns: attempt_start,
                dst: EntityId {
                    pid: REDUCER_PID_BASE + dst as u32,
                    tid: T_MAIN,
                },
                t1_ns: de_start,
            });
            flow_seq += 1;
        }
        inflight[dst].push_back((de_done, wire));
        inflight_bytes[dst] += wire;
        stats.makespan_ns = stats.makespan_ns.max(de_done);
    }
    if S::ENABLED {
        // The fabric's per-hop busy windows become the NIC lanes.
        for w in fabric.take_tape() {
            if w.egress_done_ns > w.start_ns {
                sink.span(Span {
                    entity: EntityId {
                        pid: MAPPER_PID_BASE + w.src as u32,
                        tid: T_NIC,
                    },
                    name: "nic.egress",
                    t0_ns: w.start_ns,
                    t1_ns: w.egress_done_ns,
                    attrs: vec![("dst", (w.dst as u64).into()), ("bytes", w.bytes.into())],
                });
            }
            if w.arrival_ns > w.wire_done_ns {
                sink.span(Span {
                    entity: EntityId {
                        pid: REDUCER_PID_BASE + w.dst as u32,
                        tid: T_NIC,
                    },
                    name: "nic.ingress",
                    t0_ns: w.wire_done_ns,
                    t1_ns: w.arrival_ns,
                    attrs: vec![("src", (w.src as u64).into()), ("bytes", w.bytes.into())],
                });
            }
        }
    }
    stats.ingress_utilization = fabric.ingress_utilization(stats.makespan_ns);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Backend;
    use sim::FaultConfig;
    use telemetry::NoopSink;

    #[test]
    fn a_lost_attempt_recovers_at_timeout_or_arrival_plus_backoff() {
        // A 1 ms timeout outlasts the lost transfer; a 1 ns one does not.
        for timeout_ns in [1_000_000.0, 1.0] {
            let fc = FaultConfig {
                timeout_ns,
                ..FaultConfig::none()
            };
            let cfg = ShuffleConfig {
                faults: Some(fc),
                ..ShuffleConfig::smoke()
            };
            let start = 1_000.0;
            let msg = Message {
                src: 1,
                dst: 2,
                seq: 0,
                bytes: vec![0; 4096],
                records: 1,
                backend: Backend::Kryo,
                ser_ns: 0.0,
                ser_done_ns: start,
            };
            let plan = MsgPlan {
                attempts: vec![Attempt::Lost, Attempt::Clean],
            };
            let mut faults = FaultTotals::default();
            compose_sunk(&cfg, &[&msg], &[0.0], &[plan], &mut faults, &mut NoopSink);

            let lost_arrival =
                Fabric::full_mesh(cfg.mappers, cfg.reducers, cfg.link).send(1, 2, 4096, start);
            assert_eq!(lost_arrival > start + timeout_ns, timeout_ns == 1.0);
            let expect = (start + timeout_ns).max(lost_arrival) + fc.backoff_ns - start;
            assert_eq!(faults.recovery_ns.to_bits(), expect.to_bits());
            assert_eq!((faults.retries, faults.lost_messages), (1, 1));
            assert_eq!(faults.fabric_bytes, 2 * 4096);
        }
    }
}

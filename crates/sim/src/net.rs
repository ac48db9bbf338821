//! Network link model for inter-node transfers.
//!
//! S/D exists to feed the network (paper §I: shuffles, RPC). This model
//! provides the missing third stage for end-to-end shuffle experiments:
//! a full-duplex point-to-point link with finite bandwidth and a
//! per-message latency, booked on the same order-insensitive
//! [`crate::ledger::Ledger`] as [`crate::dram`] so senders simulated
//! sequentially overlap correctly.

use crate::ledger::{IntMap, Ledger};

/// Link configuration.
#[derive(Clone, Copy, Debug)]
pub struct LinkConfig {
    /// Bandwidth in bytes per nanosecond (10 GbE ≈ 1.25 B/ns).
    pub bytes_per_ns: f64,
    /// One-way message latency in nanoseconds (NIC + switch + stack).
    pub latency_ns: f64,
}

impl LinkConfig {
    /// 10 Gb Ethernet with a ~10 µs one-way latency.
    pub fn ten_gbe() -> Self {
        LinkConfig {
            bytes_per_ns: 1.25,
            latency_ns: 10_000.0,
        }
    }

    /// 40 Gb Ethernet.
    pub fn forty_gbe() -> Self {
        LinkConfig {
            bytes_per_ns: 5.0,
            latency_ns: 8_000.0,
        }
    }

    /// 100 Gb Ethernet.
    pub fn hundred_gbe() -> Self {
        LinkConfig {
            bytes_per_ns: 12.5,
            latency_ns: 6_000.0,
        }
    }
}

/// Bucket granularity for the capacity ledger (coarser than DRAM's: the
/// latencies are µs-scale).
const BUCKET_NS: f64 = 1000.0;

/// A point-to-point link.
#[derive(Clone, Debug)]
pub struct Link {
    cfg: LinkConfig,
    ledger: Ledger,
    total_bytes: u64,
    messages: u64,
}

impl Link {
    /// A link with the given configuration.
    pub fn new(cfg: LinkConfig) -> Self {
        Link {
            cfg,
            ledger: Ledger::new(),
            total_bytes: 0,
            messages: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> LinkConfig {
        self.cfg
    }

    /// Transmits `bytes` starting at `now_ns`; returns the arrival time
    /// of the last byte at the receiver.
    ///
    /// A zero-byte send (an empty partition's flush) is well-defined:
    /// it pays only the one-way latency and charges nothing to the
    /// bandwidth ledger.
    pub fn send(&mut self, bytes: u64, now_ns: f64) -> f64 {
        if bytes == 0 {
            self.messages += 1;
            return now_ns.max(0.0) + self.cfg.latency_ns;
        }
        let finish = self
            .ledger
            .book(now_ns, bytes, BUCKET_NS, self.cfg.bytes_per_ns);
        self.total_bytes += bytes;
        self.messages += 1;
        let service = bytes as f64 / self.cfg.bytes_per_ns;
        finish.max(now_ns + service) + self.cfg.latency_ns
    }

    /// Bytes transmitted.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Messages transmitted.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Fraction of link bandwidth used over `elapsed_ns`.
    pub fn utilization(&self, elapsed_ns: f64) -> f64 {
        telemetry::ratio(
            self.total_bytes as f64,
            elapsed_ns * self.cfg.bytes_per_ns,
        )
    }
}

/// One message's three-hop transit on the fabric — what the telemetry
/// exporter renders as NIC busy windows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetWindow {
    /// Sending endpoint.
    pub src: usize,
    /// Receiving endpoint.
    pub dst: usize,
    /// Bytes carried.
    pub bytes: u64,
    /// When the sender started transmitting.
    pub start_ns: f64,
    /// When the sender's egress NIC drained the message.
    pub egress_done_ns: f64,
    /// When the pair link delivered the last byte.
    pub wire_done_ns: f64,
    /// When the receiver's ingress NIC accepted the last byte.
    pub arrival_ns: f64,
}

/// A full-mesh fabric of point-to-point links with per-endpoint fan-out
/// and fan-in capacity.
///
/// A shuffle is an all-to-all transfer: every mapper sends to every
/// reducer. Modeling only per-pair links would give the fabric N×M times
/// the bandwidth of any real cluster, so each message crosses three
/// store-and-forward hops, every one its own time-bucket ledger:
///
/// 1. the sender's **egress NIC** (latency-free [`Link`]), shared by all
///    of that sender's flows — the fan-out bottleneck;
/// 2. the **pair link**, which carries the configured one-way latency;
/// 3. the receiver's **ingress NIC** (latency-free), shared by all of
///    that receiver's flows — the fan-in bottleneck.
///
/// All three ledgers run at the configured bandwidth, so an uncontended
/// message pays roughly three service times plus the latency; under
/// incast the ingress hop dominates, exactly the behaviour end-to-end
/// shuffle experiments need.
///
/// Pair-link state is **lazy**: a link's ledger materializes on its
/// first message, so a 1000-endpoint mesh (a million logical pairs —
/// cluster-scale experiments) costs memory only for the pairs that
/// actually carry traffic. An untouched pair still reads as a valid,
/// idle link through [`Fabric::pair`].
#[derive(Clone, Debug)]
pub struct Fabric {
    cfg: LinkConfig,
    senders: usize,
    receivers: usize,
    /// Pair links keyed by `src * receivers + dst`, created on first
    /// send. Aggregate counters come from the egress NICs, so this map
    /// is never iterated — ordering is irrelevant.
    pairs: IntMap<usize, Link>,
    /// What an untouched pair looks like: an idle link.
    idle_pair: Link,
    egress: Vec<Link>,
    ingress: Vec<Link>,
    /// Transit tape, recorded only when telemetry asks for it.
    tape: Option<Vec<NetWindow>>,
}

impl Fabric {
    /// A full mesh between `senders` and `receivers` endpoints.
    ///
    /// # Panics
    /// Panics if either side is empty.
    pub fn full_mesh(senders: usize, receivers: usize, cfg: LinkConfig) -> Self {
        assert!(senders > 0 && receivers > 0, "fabric needs endpoints");
        let nic = LinkConfig {
            bytes_per_ns: cfg.bytes_per_ns,
            latency_ns: 0.0,
        };
        Fabric {
            cfg,
            senders,
            receivers,
            pairs: IntMap::default(),
            idle_pair: Link::new(cfg),
            egress: vec![Link::new(nic); senders],
            ingress: vec![Link::new(nic); receivers],
            tape: None,
        }
    }

    /// Starts recording one [`NetWindow`] per message. Off by default —
    /// the hot path pays one `Option` check.
    pub fn record_tape(&mut self) {
        self.tape.get_or_insert_with(Vec::new);
    }

    /// Drains the recorded transit windows (empty unless
    /// [`Fabric::record_tape`] was called).
    pub fn take_tape(&mut self) -> Vec<NetWindow> {
        self.tape.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// The pair-link configuration.
    pub fn config(&self) -> LinkConfig {
        self.cfg
    }

    /// Sends `bytes` from `src` to `dst` starting at `now_ns`; returns
    /// the arrival time of the last byte after all three hops.
    ///
    /// # Panics
    /// Panics if `src`/`dst` are out of range (debug builds index-check).
    pub fn send(&mut self, src: usize, dst: usize, bytes: u64, now_ns: f64) -> f64 {
        assert!(src < self.senders && dst < self.receivers, "endpoint out of range");
        let out = self.egress[src].send(bytes, now_ns);
        let cfg = self.cfg;
        let wire = self
            .pairs
            .entry(src * self.receivers + dst)
            .or_insert_with(|| Link::new(cfg))
            .send(bytes, out);
        let arrival = self.ingress[dst].send(bytes, wire);
        if let Some(tape) = &mut self.tape {
            tape.push(NetWindow {
                src,
                dst,
                bytes,
                start_ns: now_ns.max(0.0),
                egress_done_ns: out,
                wire_done_ns: wire,
                arrival_ns: arrival,
            });
        }
        arrival
    }

    /// The point-to-point link between `src` and `dst`. A pair that has
    /// never carried a message reads as an idle link (zero bytes, zero
    /// messages) without materializing any state.
    pub fn pair(&self, src: usize, dst: usize) -> &Link {
        assert!(src < self.senders && dst < self.receivers, "endpoint out of range");
        self.pairs
            .get(&(src * self.receivers + dst))
            .unwrap_or(&self.idle_pair)
    }

    /// How many pair links have materialized ledgers — the lazy mesh's
    /// actual footprint, as opposed to the `senders × receivers`
    /// logical pairs.
    pub fn materialized_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Total bytes crossing the fabric (counted once per message).
    pub fn total_bytes(&self) -> u64 {
        self.egress.iter().map(Link::total_bytes).sum()
    }

    /// Messages sent across the fabric.
    pub fn messages(&self) -> u64 {
        self.egress.iter().map(Link::messages).sum()
    }

    /// Fraction of aggregate ingress bandwidth used over `elapsed_ns` —
    /// the utilization figure that matters under fan-in.
    pub fn ingress_utilization(&self, elapsed_ns: f64) -> f64 {
        let cap = self.cfg.bytes_per_ns * self.ingress.len() as f64;
        telemetry::ratio(self.total_bytes() as f64, elapsed_ns * cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_and_service_apply() {
        let mut l = Link::new(LinkConfig::ten_gbe());
        let done = l.send(1250, 0.0); // 1 µs of service
        assert!(done >= 1000.0 + 10_000.0 - 1.0, "got {done}");
    }

    #[test]
    fn bandwidth_saturates() {
        let mut l = Link::new(LinkConfig::ten_gbe());
        let mut last = 0.0f64;
        // 10 MB sent as fast as possible.
        for i in 0..100 {
            last = last.max(l.send(100_000, i as f64));
        }
        let util = l.utilization(last);
        assert!(util > 0.5, "util {util}");
        assert!(util <= 1.0 + 1e-9);
    }

    #[test]
    fn faster_links_finish_sooner() {
        let mut slow = Link::new(LinkConfig::ten_gbe());
        let mut fast = Link::new(LinkConfig::hundred_gbe());
        let a = slow.send(10 << 20, 0.0);
        let b = fast.send(10 << 20, 0.0);
        assert!(b < a / 4.0, "100GbE {b} vs 10GbE {a}");
    }

    #[test]
    fn counters() {
        let mut l = Link::new(LinkConfig::forty_gbe());
        l.send(100, 0.0);
        l.send(200, 50.0);
        assert_eq!(l.total_bytes(), 300);
        assert_eq!(l.messages(), 2);
    }

    #[test]
    fn fabric_tape_records_hops_in_order() {
        let mut f = Fabric::full_mesh(2, 2, LinkConfig::ten_gbe());
        f.send(0, 1, 100, 0.0);
        assert!(f.take_tape().is_empty(), "tape off by default");
        f.record_tape();
        let arrival = f.send(1, 0, 2500, 5.0);
        let t = f.take_tape();
        assert_eq!(t.len(), 1);
        assert_eq!((t[0].src, t[0].dst, t[0].bytes), (1, 0, 2500));
        assert_eq!(t[0].start_ns, 5.0);
        assert!(t[0].start_ns < t[0].egress_done_ns);
        assert!(t[0].egress_done_ns < t[0].wire_done_ns);
        assert!(t[0].wire_done_ns < t[0].arrival_ns);
        assert_eq!(t[0].arrival_ns, arrival);
    }

    #[test]
    fn empty_send_is_latency_only() {
        let mut l = Link::new(LinkConfig::ten_gbe());
        let done = l.send(0, 500.0);
        assert_eq!(done, 500.0 + l.config().latency_ns);
        assert_eq!(l.total_bytes(), 0, "no ledger charge for empty sends");
        assert_eq!(l.messages(), 1);
        // The ledger is untouched: a following full-bucket send is not
        // delayed by the empty one.
        let mut fresh = Link::new(LinkConfig::ten_gbe());
        assert_eq!(l.send(1250, 0.0), fresh.send(1250, 0.0));
        // And a fabric hop composes empty sends end to end.
        let mut f = Fabric::full_mesh(2, 2, LinkConfig::ten_gbe());
        let arrival = f.send(0, 1, 0, 0.0);
        assert_eq!(arrival, LinkConfig::ten_gbe().latency_ns);
    }
}
